//! `fuzz`: a fixed window of the shared fuzz stream through the
//! differential oracle (`check_program` with the library's default
//! `OracleCfg`), one input per operation, in a seeded order. After the
//! measured window the mutation-kill scoreboard runs over the persisted
//! corpus seeds and must kill every mutant.

use crate::stats::{Metric, Rng};
use crate::trace;
use crate::Workload;
use ccc_analysis::sepcomp::TransvalCertifier;
use ccc_analysis::transval::json::pipeline_shape_from_json;
use ccc_compiler::cache::Certifier;
use ccc_fuzz::mutation::stream_input;
use ccc_fuzz::{check_program, lower, run_scoreboard_seeded, CorpusEntry, OracleCfg};

/// Stream inputs `0..WINDOW` make up one pass.
const WINDOW: usize = 60;
/// Per-mutant input budget of the scoreboard (corpus seeds come first).
const SCOREBOARD_BUDGET: usize = 60;

/// Every mutant-tagged entry of the persisted regression corpus.
fn corpus_seeds() -> Result<Vec<CorpusEntry>, String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {dir}: {e}"))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    paths.sort();
    let mut seeds = Vec::new();
    for p in paths {
        let text = std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))?;
        let entry =
            CorpusEntry::from_text(&text).map_err(|e| format!("parse {}: {e:?}", p.display()))?;
        if entry.mutant.is_some() {
            seeds.push(entry);
        }
    }
    Ok(seeds)
}

pub struct Fuzz {
    /// The window's stream indices in this run's order.
    order: Vec<usize>,
    sequential: Vec<bool>,
    cfg: OracleCfg,
    seeds: Vec<CorpusEntry>,
}

impl Fuzz {
    pub fn setup(seed: u64) -> Result<Fuzz, String> {
        let mut order: Vec<usize> = (0..WINDOW).collect();
        Rng::new(seed).shuffle(&mut order);
        let sequential = (0..WINDOW)
            .map(|i| stream_input(i).is_sequential())
            .collect();
        let mut w = Fuzz {
            order,
            sequential,
            cfg: OracleCfg::default(),
            seeds: corpus_seeds()?,
        };
        // Warm-up, the same for every seed: the window's first
        // sequential and first concurrent input.
        for shape in [true, false] {
            let n = (0..WINDOW)
                .find(|&n| w.sequential[n] == shape)
                .ok_or("the window lacks an input shape")?;
            let i = w.order.iter().position(|&o| o == n).expect("a permutation");
            w.run(0, i)?;
        }
        Ok(w)
    }
}

impl Workload for Fuzz {
    fn pass_len(&self) -> usize {
        WINDOW
    }

    fn class(&self, i: usize) -> &'static str {
        if self.sequential[self.order[i]] {
            "seq"
        } else {
            "conc"
        }
    }

    fn run(&mut self, _pass: usize, i: usize) -> Result<(), String> {
        let n = self.order[i];
        let p = trace::span("fuzz.gen", || stream_input(n));
        let oracle = if p.is_sequential() {
            "fuzz.oracle_seq"
        } else {
            "fuzz.oracle_conc"
        };
        trace::span(oracle, || check_program(&p, None, &self.cfg))
            .map_err(|f| format!("stream input {n}: {f}"))
    }

    fn price(&mut self, _pass: usize, i: usize) -> Result<(), String> {
        let (m, _, _) = lower(&stream_input(self.order[i]));
        let arts = trace::span("compiler.compile", || {
            ccc_compiler::compile_with_artifacts(&m)
        })
        .map_err(|e| format!("compile: {e:?}"))?;
        let witness = trace::span("transval.certify", || TransvalCertifier.certify(&arts))?;
        let shape = pipeline_shape_from_json(&witness).map_err(|e| format!("witness: {e:?}"))?;
        trace::count("transval.obligations", shape.obligations as u64);
        Ok(())
    }

    fn finish(&mut self) -> Result<Vec<Metric>, String> {
        let t = std::time::Instant::now();
        let board = trace::span("fuzz.scoreboard", || {
            run_scoreboard_seeded(SCOREBOARD_BUDGET, &self.cfg, &self.seeds)
        });
        let secs = t.elapsed().as_secs_f64();
        let kill_ratio = board.kill_rate();
        if kill_ratio < 1.0 {
            let survivors: Vec<_> = board.survivors().collect();
            return Err(format!("mutants survived the scoreboard: {survivors:?}"));
        }
        Ok(vec![
            Metric::new("kill_ratio", kill_ratio, "ratio"),
            Metric::new("scoreboard_s", secs, "s"),
        ])
    }
}
