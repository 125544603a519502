//! Static rely-guarantee certification vs whole-program exploration.
//!
//! Two measurements:
//!
//! 1. **Static vs exploration**: over a corpus of concurrent clients
//!    (lock-disciplined and racy, single- and multi-module), the full
//!    static path — per-module certificate inference, the trusted
//!    re-check, and the pairwise link-time compatibility check — is
//!    timed against `check_drf`'s exhaustive sequential exploration of the
//!    same linked program. Soundness is asserted on every row (a
//!    certified-stable program must never explore to a race: zero
//!    false negatives); static false positives are counted and
//!    reported honestly. An aborting gate requires the **median
//!    speedup on certifiable programs to be ≥ 10x**.
//! 2. **Incremental certification**: a 20-module program's
//!    certificates are built through the witness cache, one module is
//!    edited, and the rebuild must re-infer exactly 1 certificate (19
//!    re-checked hits) plus the link check — no whole-program
//!    re-exploration, enforced by aborting asserts.
//!
//! Run with: `cargo run --release -p ccc-bench --bin rg_cert`
//! (`--smoke` shrinks the corpus and exploration budgets for CI).
//! Results are written to `BENCH_rgcert.json` in the current
//! directory.

use ccc_analysis::rg_cert::CertOutcome;
use ccc_analysis::sepcomp::SepUnit;
use ccc_analysis::{
    infer_lock_model, infer_rg_cert, rg_cert_cached, rg_cert_violation, rg_incompatibilities,
    LockModel, RgCert,
};
use ccc_clight::gen::gen_concurrent_client;
use ccc_clight::ClightModule;
use ccc_compiler::cache::CompileCache;
use ccc_core::mem::GlobalEnv;
use ccc_core::race::check_drf;
use ccc_core::refine::ExploreCfg;
use ccc_fuzz::link::load_client;
use ccc_fuzz::spec::lower_prefixed;
use ccc_fuzz::{gen_program, FuzzProgram};
use ccc_sync::lock::lock_spec;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One corpus program: named modules (with their entries and globals)
/// whose merge is explored dynamically and certified statically.
struct Row {
    name: String,
    units: Vec<(String, ClightModule, GlobalEnv, Vec<String>)>,
}

impl Row {
    fn single(name: &str, m: ClightModule, ge: GlobalEnv, entries: Vec<String>) -> Row {
        Row {
            name: name.to_string(),
            units: vec![("m0".to_string(), m, ge, entries)],
        }
    }

    fn merged(&self) -> (ClightModule, GlobalEnv, Vec<String>) {
        let module = ClightModule::new(
            self.units
                .iter()
                .flat_map(|(_, m, _, _)| m.funcs.iter())
                .map(|(n, f)| (n.clone(), f.clone())),
        );
        let ge = GlobalEnv::link(self.units.iter().map(|(_, _, ge, _)| ge))
            .expect("unit environments link");
        let entries = self
            .units
            .iter()
            .flat_map(|(_, _, _, e)| e.iter().cloned())
            .collect();
        (module, ge, entries)
    }
}

fn sequential_programs(n: usize, size: u32, skip: usize) -> Vec<FuzzProgram> {
    let mut out = Vec::new();
    let mut seed = 0u64;
    let mut skipped = 0;
    while out.len() < n {
        let p = gen_program(seed, size);
        seed += 1;
        if p.is_sequential() {
            if skipped < skip {
                skipped += 1;
            } else {
                out.push(p);
            }
        }
    }
    out
}

fn units_of(programs: &[FuzzProgram]) -> Vec<SepUnit> {
    programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let (module, ge, entries) =
                lower_prefixed(p, &format!("m{i}_"), 0x2000 + 0x100 * i as u64);
            SepUnit {
                name: format!("m{i}"),
                module,
                ge,
                entries,
            }
        })
        .collect()
}

fn corpus(smoke: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let seeds: u64 = if smoke { 4 } else { 12 };
    for seed in 0..seeds {
        let threads = 2 + (seed as usize % 2);
        let (m, ge, entries) = gen_concurrent_client(seed, threads, &["s0", "s1"], false);
        rows.push(Row::single(
            &format!("locked{threads}_{seed}"),
            m,
            ge,
            entries,
        ));
        let (m, ge, entries) = gen_concurrent_client(seed, threads, &["s0"], true);
        rows.push(Row::single(
            &format!("racy{threads}_{seed}"),
            m,
            ge,
            entries,
        ));
    }
    // Multi-module compositions: 3 separately certified sequential
    // units, the shape `build_program_certified` serves.
    let size = if smoke { 6 } else { 10 };
    for k in 0..if smoke { 2 } else { 4 } {
        let units = units_of(&sequential_programs(3, size, 3 * k));
        rows.push(Row {
            name: format!("sep3_{k}"),
            units: units
                .into_iter()
                .map(|u| (u.name, u.module, u.ge, u.entries))
                .collect(),
        });
    }
    rows
}

/// The full static path, returning the whole-program verdict: per-unit
/// inference + trusted re-check + pairwise link compatibility.
fn static_verdict(row: &Row, model: &LockModel) -> (Vec<RgCert>, bool) {
    let certs: Vec<RgCert> = row
        .units
        .iter()
        .map(|(name, m, _, entries)| {
            let cert = infer_rg_cert(name, m, entries, model);
            assert!(
                rg_cert_violation(&cert, m, entries, model).is_none(),
                "fresh certificate rejected for {name}"
            );
            cert
        })
        .collect();
    let stable = certs.iter().all(RgCert::is_stable) && rg_incompatibilities(&certs).is_empty();
    (certs, stable)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    if xs.is_empty() {
        0.0
    } else {
        xs[xs.len() / 2]
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let explore_cfg = ExploreCfg {
        max_states: if smoke { 60_000 } else { 400_000 },
        ..ExploreCfg::default()
    };
    let (lock, _lock_ge) = lock_spec("L");
    let model = infer_lock_model(&lock);

    println!("static rely-guarantee certification vs whole-program exploration\n");
    println!(
        "  {:<14} {:>7} {:>9} {:>12} {:>10} {:>9}   verdicts",
        "program", "threads", "static", "explore", "states", "speedup"
    );

    let mut rows_json = Vec::new();
    let mut speedups_certifiable = Vec::new();
    let (mut certifiable, mut false_positives) = (0usize, 0usize);
    for row in corpus(smoke) {
        // Static side: min over reps (it is microseconds — timer noise
        // dominates a single rep).
        let reps = 5;
        let mut static_t = std::time::Duration::MAX;
        let mut verdict = None;
        for _ in 0..reps {
            let t = Instant::now();
            let v = static_verdict(&row, &model);
            static_t = static_t.min(t.elapsed());
            verdict = Some(v);
        }
        let (certs, stable) = verdict.expect("at least one rep");
        let guarantee_actions: usize = certs.iter().map(|c| c.guarantee.len()).sum();

        // Dynamic side: exhaustive exploration of the merged program.
        let (module, ge, entries) = row.merged();
        let threads = entries.len();
        let loaded = load_client(module, ge, entries);
        let t = Instant::now();
        let drf = check_drf(&loaded, &explore_cfg).expect("program loads");
        let explore_t = t.elapsed();
        let explored = if drf.is_drf() {
            if drf.truncated {
                None
            } else {
                Some(true)
            }
        } else {
            Some(false)
        };

        // Soundness: zero false negatives, on every row.
        assert!(
            !(stable && explored == Some(false)),
            "{}: certified stable but exploration found a race",
            row.name
        );
        if stable {
            certifiable += 1;
            speedups_certifiable.push(explore_t.as_secs_f64() / static_t.as_secs_f64());
        } else if explored == Some(true) {
            false_positives += 1;
        }

        let speedup = explore_t.as_secs_f64() / static_t.as_secs_f64();
        let verdicts = format!(
            "static {} / explored {}",
            if stable { "stable" } else { "may-interfere" },
            match explored {
                Some(true) => "drf",
                Some(false) => "race",
                None => "inconclusive",
            }
        );
        println!(
            "  {:<14} {threads:>7} {:>7.1}us {:>10.2}ms {:>10} {:>8.0}x   {verdicts}",
            row.name,
            static_t.as_secs_f64() * 1e6,
            explore_t.as_secs_f64() * 1e3,
            drf.states,
            speedup
        );
        let mut r = String::from("    {");
        write!(
            r,
            "\"name\": \"{}\", \"threads\": {threads}, \"guarantee_actions\": {guarantee_actions}, \
             \"certified_stable\": {stable}, \"explored\": \"{}\", \"static_us\": {:.2}, \
             \"explore_ms\": {:.3}, \"explored_states\": {}, \"speedup\": {speedup:.1}}}",
            row.name,
            match explored {
                Some(true) => "drf",
                Some(false) => "race",
                None => "inconclusive",
            },
            static_t.as_secs_f64() * 1e6,
            explore_t.as_secs_f64() * 1e3,
            drf.states,
        )
        .unwrap();
        rows_json.push(r);
    }
    let median_speedup = median(speedups_certifiable.clone());
    println!(
        "\n  {certifiable} certifiable programs, median speedup {median_speedup:.0}x, \
         {false_positives} static false positives, 0 false negatives (asserted)"
    );

    // --- Incremental certification through the witness cache.
    const MODULES: usize = 20;
    const EDITED: usize = 7;
    let size = if smoke { 6 } else { 10 };
    let programs = sequential_programs(MODULES, size, 0);
    let units = units_of(&programs);
    let disk_dir = Path::new("target").join("ccc-rgcert-cache");
    let _ = std::fs::remove_dir_all(&disk_dir);
    let cache = CompileCache::new()
        .with_disk(&disk_dir)
        .expect("create disk tier");

    let certify_all = |units: &[SepUnit]| -> (Vec<RgCert>, Vec<CertOutcome>) {
        units
            .iter()
            .map(|u| rg_cert_cached(&u.name, &u.module, &u.entries, &model, &cache))
            .unzip()
    };
    let t = Instant::now();
    let (cold_certs, cold_outcomes) = certify_all(&units);
    let link_bad = rg_incompatibilities(&cold_certs);
    let cold_t = t.elapsed();
    assert!(
        cold_outcomes.iter().all(|o| *o == CertOutcome::Miss),
        "cold build must infer every certificate"
    );
    assert!(link_bad.is_empty(), "corpus must be rely-compatible");

    let mut edited_programs = programs;
    edited_programs[EDITED] = sequential_programs(1, size, MODULES).remove(0);
    let edited_units = units_of(&edited_programs);
    cache.reset_stats();
    let t = Instant::now();
    let (incr_certs, incr_outcomes) = certify_all(&edited_units);
    let incr_bad = rg_incompatibilities(&incr_certs);
    let incr_t = t.elapsed();
    let stats = cache.stats();
    assert_eq!(stats.cert_misses, 1, "{stats:?}");
    assert_eq!(stats.cert_hits, (MODULES - 1) as u64, "{stats:?}");
    for (i, o) in incr_outcomes.iter().enumerate() {
        let expect = if i == EDITED {
            CertOutcome::Miss
        } else {
            CertOutcome::Hit
        };
        assert_eq!(*o, expect, "module m{i}");
    }
    assert!(incr_bad.is_empty(), "edited corpus must stay compatible");
    let incr_speedup = cold_t.as_secs_f64() / incr_t.as_secs_f64();
    println!(
        "\nincremental certification: {MODULES} modules, 1 edited\n  \
         cold certify   {:>8.2} ms\n  \
         rebuild        {:>8.2} ms   (1 re-inferred, {} re-checked hits + link check)   {incr_speedup:.1}x",
        cold_t.as_secs_f64() * 1e3,
        incr_t.as_secs_f64() * 1e3,
        MODULES - 1
    );

    // --- Report + gates.
    let mut json = String::from("{\n");
    write!(
        json,
        "  \"bench\": \"rgcert\",\n  \"smoke\": {smoke},\n  \"rows\": [\n{}\n  ],\n  \
         \"certifiable_rows\": {certifiable},\n  \"false_positives\": {false_positives},\n  \
         \"false_negatives\": 0,\n  \"median_speedup_certifiable\": {median_speedup:.1},\n  \
         \"incremental\": {{\"modules\": {MODULES}, \"cold_ms\": {:.3}, \"rebuild_ms\": {:.3}, \
         \"cert_hits\": {}, \"cert_misses\": 1, \"rebuild_speedup\": {incr_speedup:.2}}}\n}}\n",
        rows_json.join(",\n"),
        cold_t.as_secs_f64() * 1e3,
        incr_t.as_secs_f64() * 1e3,
        MODULES - 1,
    )
    .unwrap();
    std::fs::write("BENCH_rgcert.json", &json).expect("write BENCH_rgcert.json");
    println!("\nwrote BENCH_rgcert.json");

    assert!(
        certifiable >= 3,
        "only {certifiable} certifiable programs — corpus too weak for the gate"
    );
    assert!(
        median_speedup >= 10.0,
        "median static-vs-exploration speedup {median_speedup:.1}x below the 10x bar"
    );
}
