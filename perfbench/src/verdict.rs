//! `verdict`: DRF, NPDRF and refinement queries on client+lock programs.
//!
//! The corpus is a fixed universe of generated clients (2 and 3
//! threads, lock-disciplined and lock-dropped) whose expected answers
//! are committed in `data/verdicts.txt`, computed once by the unreduced
//! sequential oracle (`--workload regen-verdicts`). One pass asks every
//! query of every program; the seed orders the queries. Every seed thus
//! runs the same mix of exhaustive and early-exit explorations, which
//! keeps the figures comparable across seeds. A query does the same
//! work in every pass, so the figures are taken over each query's
//! median across the passes of a run.

use crate::stats::Rng;
use crate::trace;
use crate::Workload;
use ccc_cimp::CImpLang;
use ccc_clight::gen::gen_concurrent_client;
use ccc_clight::{ClightLang, ClightModule};
use ccc_core::lang::{ModuleDecl, Prog, Sum, SumLang};
use ccc_core::mem::GlobalEnv;
use ccc_core::race::{check_drf, check_drf_par, check_npdrf, check_npdrf_par, DrfReport};
use ccc_core::refine::{collect_traces_preemptive, trace_refines, ExploreCfg, TraceSet};
use ccc_core::world::Loaded;
use ccc_core::Reduction;
use ccc_machine::X86Sc;

type SrcLang = SumLang<ClightLang, CImpLang>;
type TgtLang = SumLang<X86Sc, CImpLang>;

/// The universe: (threads, lock dropped, generator seeds `0..n`). The
/// 3-thread lock-disciplined programs are the most numerous so that
/// their exhaustive explorations are a class wide enough to hold both
/// reported percentiles away from a class boundary: `op_ms.p50` falls
/// among their DRF queries (mixed with the 2-thread lock-disciplined
/// refinement queries of about the same cost) and `op_ms.p90` among
/// their NPDRF queries.
/// The corpus is small enough for a pass to take about 2 s, so that a
/// run holds ten passes and each query's median is taken over as many
/// samples.
const UNIVERSE: [(usize, bool, u64); 4] =
    [(2, false, 6), (2, true, 6), (3, false, 18), (3, true, 6)];
/// Exploration workers (the machine has 2 cores).
const WORKERS: usize = 2;

const EXPECTED: &str = include_str!("../data/verdicts.txt");

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Query {
    Drf,
    Npdrf,
    Refine,
}

const QUERIES: [Query; 3] = [Query::Drf, Query::Npdrf, Query::Refine];

/// One program's expected answers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Expected {
    drf: bool,
    npdrf: bool,
    refines: bool,
}

/// A generated client linked with the lock object, on both sides of
/// compilation.
struct Program {
    src: Loaded<SrcLang>,
    client: ClightModule,
    ge: GlobalEnv,
    entries: Vec<String>,
    expected: Expected,
}

fn link_src(client: &ClightModule, ge: &GlobalEnv, entries: &[String]) -> Loaded<SrcLang> {
    let (lock, lock_ge) = ccc_sync::lock::lock_spec("L");
    Loaded::new(Prog {
        lang: SumLang(ClightLang, CImpLang),
        modules: vec![
            ModuleDecl {
                code: Sum::L(client.clone()),
                ge: ge.clone(),
            },
            ModuleDecl {
                code: Sum::R(lock),
                ge: lock_ge,
            },
        ],
        entries: entries.to_vec(),
    })
    .expect("source program links")
}

fn link_tgt(asm: ccc_machine::AsmModule, ge: &GlobalEnv, entries: &[String]) -> Loaded<TgtLang> {
    let (lock, lock_ge) = ccc_sync::lock::lock_spec("L");
    Loaded::new(Prog {
        lang: SumLang(X86Sc, CImpLang),
        modules: vec![
            ModuleDecl {
                code: Sum::L(asm),
                ge: ge.clone(),
            },
            ModuleDecl {
                code: Sum::R(lock),
                ge: lock_ge,
            },
        ],
        entries: entries.to_vec(),
    })
    .expect("target program links")
}

fn generate(threads: usize, dropped: bool, seed: u64) -> (ClightModule, GlobalEnv, Vec<String>) {
    gen_concurrent_client(seed, threads, &["s0", "s1"], dropped)
}

fn cfg(reduction: Reduction, threads: usize) -> ExploreCfg {
    ExploreCfg {
        reduction,
        threads,
        ..ExploreCfg::default()
    }
}

fn verdict_of(r: &DrfReport) -> Result<bool, String> {
    if r.truncated {
        return Err(format!("inconclusive: truncated after {} states", r.states));
    }
    Ok(r.is_drf())
}

/// Traces of the source and of its compilation, and whether the target
/// refines the source.
fn refines(
    src: &Loaded<SrcLang>,
    client: &ClightModule,
    ge: &GlobalEnv,
    entries: &[String],
    cfg: &ExploreCfg,
) -> Result<bool, String> {
    let arts = trace::span("compiler.compile", || {
        ccc_compiler::compile_with_artifacts(client)
    })
    .map_err(|e| format!("compile: {e:?}"))?;
    let tgt = link_tgt(arts.asm.clone(), ge, entries);
    let traces = |name: &str, r: Result<TraceSet, _>| -> Result<TraceSet, String> {
        let ts = r.map_err(|e| format!("{name} traces: {e:?}"))?;
        trace::count("explore.states", ts.expansions as u64);
        trace::count("explore.states_exhaustive", ts.expansions as u64);
        if ts.truncated {
            trace::count("explore.truncated", 1);
            return Err(format!("inconclusive: {name} traces truncated"));
        }
        Ok(ts)
    };
    let ts_src = traces(
        "source",
        trace::span("refine.traces", || collect_traces_preemptive(src, cfg)),
    )?;
    let ts_tgt = traces(
        "target",
        trace::span("refine.traces", || collect_traces_preemptive(&tgt, cfg)),
    )?;
    Ok(trace::span("refine.check", || {
        trace_refines(&ts_tgt, &ts_src)
    }))
}

/// A corpus program: (threads, lock dropped, generator seed).
type Key = (usize, bool, u64);

fn parse_expected() -> Result<Vec<(Key, Expected)>, String> {
    let word = |w: &str, yes: &str, no: &str| match w {
        _ if w == yes => Ok(true),
        _ if w == no => Ok(false),
        _ => Err(format!("expected `{yes}` or `{no}`, found `{w}`")),
    };
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let [threads, variant, seed, drf, npdrf, refine] = f[..] else {
                return Err(format!("bad verdicts line `{l}`"));
            };
            let threads = threads.parse().map_err(|e| format!("`{l}`: {e}"))?;
            let dropped = word(variant, "dropped", "locked")?;
            let seed = seed.parse().map_err(|e| format!("`{l}`: {e}"))?;
            let expected = Expected {
                drf: word(drf, "drf", "race")?,
                npdrf: word(npdrf, "npdrf", "race")?,
                refines: word(refine, "refines", "differs")?,
            };
            Ok(((threads, dropped, seed), expected))
        })
        .collect()
}

pub struct Verdicts {
    programs: Vec<Program>,
    /// One pass: (program index, query), in seeded order.
    plan: Vec<(usize, Query)>,
    reduced: ExploreCfg,
}

impl Verdicts {
    pub fn setup(seed: u64) -> Result<Verdicts, String> {
        let expected = parse_expected()?;
        let universe: Vec<Key> = UNIVERSE
            .iter()
            .flat_map(|&(threads, dropped, n)| (0..n).map(move |s| (threads, dropped, s)))
            .collect();
        if expected.iter().map(|(k, _)| *k).collect::<Vec<_>>() != universe {
            return Err("data/verdicts.txt does not list the corpus; regenerate it".to_string());
        }
        let programs: Vec<Program> = expected
            .into_iter()
            .map(|((threads, dropped, s), expected)| {
                let (client, ge, entries) = generate(threads, dropped, s);
                Program {
                    src: link_src(&client, &ge, &entries),
                    client,
                    ge,
                    entries,
                    expected,
                }
            })
            .collect();
        let mut plan: Vec<(usize, Query)> = (0..programs.len())
            .flat_map(|p| QUERIES.map(|q| (p, q)))
            .collect();
        Rng::new(seed).shuffle(&mut plan);
        let v = Verdicts {
            programs,
            plan,
            reduced: cfg(Reduction::Ample, WORKERS),
        };
        // Warm-up, the same for every seed: each query on the first
        // program of each (threads, variant, DRF verdict) stratum.
        let mut seen = Vec::new();
        for (p, (&(threads, dropped, _), prog)) in universe.iter().zip(&v.programs).enumerate() {
            let stratum = (threads, dropped, prog.expected.drf);
            if !seen.contains(&stratum) {
                seen.push(stratum);
                for q in QUERIES {
                    v.query(p, q)?;
                }
            }
        }
        Ok(v)
    }

    fn query(&self, p: usize, q: Query) -> Result<(), String> {
        let prog = &self.programs[p];
        let cfg = &self.reduced;
        let explore = |r: Result<DrfReport, _>| -> Result<bool, String> {
            let r = r.map_err(|e| format!("load: {e:?}"))?;
            trace::count("explore.states", r.states as u64);
            if r.is_drf() {
                // No race: the exploration ran to exhaustion, so its
                // state count does not depend on scheduling.
                trace::count("explore.states_exhaustive", r.states as u64);
            }
            trace::count("explore.truncated", u64::from(r.truncated));
            verdict_of(&r)
        };
        let (got, want) = match q {
            Query::Drf => (
                explore(trace::span("race.drf", || check_drf_par(&prog.src, cfg)))?,
                prog.expected.drf,
            ),
            Query::Npdrf => (
                explore(trace::span("race.npdrf", || {
                    check_npdrf_par(&prog.src, cfg)
                }))?,
                prog.expected.npdrf,
            ),
            Query::Refine => (
                refines(&prog.src, &prog.client, &prog.ge, &prog.entries, cfg)?,
                prog.expected.refines,
            ),
        };
        if got != want {
            return Err(format!("{q:?} answered {got}, expected {want}"));
        }
        Ok(())
    }
}

impl Workload for Verdicts {
    fn pass_len(&self) -> usize {
        self.plan.len()
    }

    fn repeats_per_pass(&self) -> bool {
        true
    }

    fn class(&self, i: usize) -> &'static str {
        match self.plan[i].1 {
            Query::Drf => "drf",
            Query::Npdrf => "npdrf",
            Query::Refine => "refine",
        }
    }

    fn run(&mut self, _pass: usize, i: usize) -> Result<(), String> {
        let (p, q) = self.plan[i];
        self.query(p, q)
    }
}

/// Recomputes `data/verdicts.txt` with the unreduced sequential oracle
/// and prints it.
pub fn regenerate() {
    let naive = cfg(Reduction::Off, 1);
    println!("# Expected verdicts of the `verdict` workload, computed by the unreduced");
    println!("# sequential oracle (Reduction::Off). Regenerate with");
    println!("#   cargo run --release --manifest-path perfbench/Cargo.toml -- \\");
    println!("#     --workload regen-verdicts > perfbench/data/verdicts.txt");
    println!("# threads variant seed drf npdrf refinement");
    for (threads, dropped, n) in UNIVERSE {
        for s in 0..n {
            let (client, ge, entries) = generate(threads, dropped, s);
            let src = link_src(&client, &ge, &entries);
            let drf = verdict_of(&check_drf(&src, &naive).expect("loads")).expect("conclusive");
            let npdrf = verdict_of(&check_npdrf(&src, &naive).expect("loads")).expect("conclusive");
            let refine = refines(&src, &client, &ge, &entries, &naive).expect("conclusive");
            println!(
                "{threads} {} {s} {} {} {}",
                if dropped { "dropped" } else { "locked" },
                if drf { "drf" } else { "race" },
                if npdrf { "npdrf" } else { "race" },
                if refine { "refines" } else { "differs" },
            );
        }
    }
}
