//! Precision and cost evaluation of the abstract-interpretation
//! framework (`ccc-analysis::absint`).
//!
//! Three measurements:
//!
//! 1. **RTL interval precision** — run the widened fixpoint
//!    ([`analyze_rtl_intervals`]) over the compiled generated corpus and
//!    count what it proves: program points covered, register facts,
//!    bounded (non-TOP) and singleton facts, and two-way branches whose
//!    outcome the intervals decide statically. The closure check
//!    ([`interval_facts_violation`]) re-validates every result, so the
//!    cost column includes what the translation validator pays.
//!
//! 2. **Lockset sharpening** — compare the baseline lockset analysis
//!    against the interval-sharpened variant
//!    ([`check_static_race_sharp`]) on generated clients plus a
//!    dead-branch family: race pairs before/after, false positives
//!    pruned, and the escape classification of every named global.
//!
//! 3. **Exploration impact** — states explored by the ample-set
//!    reduction with and without escape-analysis hints
//!    ([`ample_hints`]) on private-global clients: the "states
//!    before/after" effect of consuming absint results in the
//!    partial-order reduction.
//!
//! Run with: `cargo run --release -p ccc-bench --bin absint_precision`
//! (`--smoke` shrinks the corpus for CI). Results are also written to
//! `BENCH_absint.json` in the current directory.

use ccc_analysis::absint::ival_edges;
use ccc_analysis::{
    ample_hints, analyze_rtl_intervals, check_static_race, check_static_race_sharp,
    interval_facts_violation, LockModel, Sharing, StaticVerdict,
};
use ccc_clight::ast::{Binop, Expr, Function, Stmt};
use ccc_clight::gen::{gen_concurrent_client, gen_module, GenCfg};
use ccc_clight::{ClightLang, ClightModule};
use ccc_compiler::driver::compile_with_artifacts;
use ccc_compiler::rtl::Instr;
use ccc_core::lang::Prog;
use ccc_core::mem::{GlobalEnv, Val};
use ccc_core::race::check_drf;
use ccc_core::refine::ExploreCfg;
use ccc_core::world::Loaded;
use ccc_core::{AmpleHints, Interval, Reduction};
use ccc_sync::lock::lock_spec;
use std::fmt::Write as _;
use std::time::Instant;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0
}

#[derive(Default)]
struct RtlStats {
    funcs: usize,
    nodes: usize,
    facts: usize,
    bounded: usize,
    singleton: usize,
    cond_total: usize,
    cond_decided: usize,
    analyze_ms: f64,
    validate_ms: f64,
}

/// The dead-branch client of the lockset tests: thread 1's write to the
/// shared `s` hides in a branch its temp arithmetic rules out.
fn dead_branch_client() -> (ClightModule, Vec<String>) {
    let t0 = Function::simple(Stmt::Assign(Expr::var("s"), Expr::Const(1)));
    let t1 = Function::simple(Stmt::seq([
        Stmt::Set("t".into(), Expr::Const(3)),
        Stmt::If(
            Expr::bin(Binop::Lt, Expr::temp("t"), Expr::Const(2)),
            Box::new(Stmt::Assign(Expr::var("s"), Expr::Const(2))),
            Box::new(Stmt::Skip),
        ),
    ]));
    let m = ClightModule::new([("t0", t0), ("t1", t1)]);
    (m, vec!["t0".to_string(), "t1".to_string()])
}

/// Private-global client: each thread grinds its own global, then reads
/// the shared `s0` (same family as the `exploration` bench).
fn private_client(threads: usize, depth: usize) -> (Loaded<ClightLang>, AmpleHints) {
    let mut ge = GlobalEnv::new();
    ge.define("s0", Val::Int(0));
    let mut funcs = Vec::new();
    let mut entries = Vec::new();
    for t in 0..threads {
        let p = format!("p{t}");
        ge.define(p.clone(), Val::Int(0));
        let mut body = Vec::new();
        for _ in 0..depth {
            body.push(Stmt::Assign(
                Expr::var(p.clone()),
                Expr::add(Expr::var(p.clone()), Expr::Const(1)),
            ));
        }
        body.push(Stmt::Set("o".into(), Expr::var("s0")));
        body.push(Stmt::Return(None));
        let name = format!("w{t}");
        funcs.push((name.clone(), Function::simple(Stmt::seq(body))));
        entries.push(name);
    }
    let client = ClightModule::new(funcs);
    let hints = ample_hints(&client, &entries, &LockModel::default(), &ge);
    let loaded =
        Loaded::new(Prog::new(ClightLang, vec![(client, ge)], entries)).expect("client links");
    (loaded, hints)
}

fn pairs_of(v: &StaticVerdict) -> usize {
    match v {
        StaticVerdict::StaticDrf => 0,
        StaticVerdict::MayRace(ps) => ps.len(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // -----------------------------------------------------------------
    // 1. RTL interval precision over the compiled generated corpus.
    // -----------------------------------------------------------------
    let seeds = if smoke { 8 } else { 40 };
    let mut rtl = RtlStats::default();
    for seed in 0..seeds {
        let (m, _) = gen_module(seed, &GenCfg::default());
        let arts = compile_with_artifacts(&m).expect("compiles");
        for f in arts.rtl_renumber.funcs.values() {
            let t = Instant::now();
            let facts = analyze_rtl_intervals(f);
            rtl.analyze_ms += ms(t);
            let t = Instant::now();
            assert_eq!(
                interval_facts_violation(f, &facts),
                None,
                "seed {seed}: analysis not edge-closed"
            );
            rtl.validate_ms += ms(t);
            rtl.funcs += 1;
            rtl.nodes += facts.len();
            for (n, env) in &facts {
                rtl.facts += env.len();
                rtl.bounded += env.values().filter(|iv| **iv != Interval::TOP).count();
                rtl.singleton += env.values().filter(|iv| iv.as_const().is_some()).count();
                if let Some(i @ (Instr::Cond(..) | Instr::CondImm(..))) = f.code.get(n) {
                    rtl.cond_total += 1;
                    if ival_edges(i, env).len() == 1 {
                        rtl.cond_decided += 1;
                    }
                }
            }
        }
    }
    println!(
        "RTL interval analysis ({seeds} generated modules, {} functions)",
        rtl.funcs
    );
    println!(
        "  {} program points, {} register facts ({} bounded, {} singleton)",
        rtl.nodes, rtl.facts, rtl.bounded, rtl.singleton
    );
    println!(
        "  {}/{} two-way branches statically decided",
        rtl.cond_decided, rtl.cond_total
    );
    println!(
        "  analyze {:.2} ms, closure re-validation {:.2} ms\n",
        rtl.analyze_ms, rtl.validate_ms
    );
    assert!(rtl.bounded > 0, "interval analysis proved nothing");

    // -----------------------------------------------------------------
    // 2. Lockset sharpening: pairs before/after, false positives pruned.
    // -----------------------------------------------------------------
    let (lock_obj, _) = lock_spec("L");
    let lock_model = ccc_analysis::infer_lock_model(&lock_obj);
    let client_seeds = if smoke { 4 } else { 10 };
    let (mut base_pairs, mut sharp_pairs, mut pruned) = (0usize, 0usize, 0usize);
    let (mut base_ms, mut sharp_ms) = (0f64, 0f64);
    let mut escape_hist = [0usize; 4]; // thread-local, lock-protected, atomic-only, shared-free
    let mut programs = 0usize;
    let mut lockset_rows: Vec<(String, usize, usize, usize)> = Vec::new();
    let mut run_lockset =
        |name: String, client: &ClightModule, entries: &[String], model: &LockModel| {
            let t = Instant::now();
            let base = check_static_race(client, entries, model);
            base_ms += ms(t);
            let t = Instant::now();
            let sharp = check_static_race_sharp(client, entries, model);
            sharp_ms += ms(t);
            let (b, s, p) = (
                pairs_of(&base.verdict),
                pairs_of(&sharp.report.verdict),
                sharp.pruned.len(),
            );
            assert!(s <= b, "{name}: sharpening added pairs");
            base_pairs += b;
            sharp_pairs += s;
            pruned += p;
            for class in sharp.escape.globals.values() {
                let i = match class {
                    Sharing::ThreadLocal(_) => 0,
                    Sharing::LockProtected(_) => 1,
                    Sharing::AtomicOnly => 2,
                    Sharing::SharedFree => 3,
                };
                escape_hist[i] += 1;
            }
            programs += 1;
            lockset_rows.push((name, b, s, p));
        };
    for seed in 0..client_seeds {
        for racy in [false, true] {
            let (client, _, entries) = gen_concurrent_client(seed, 2, &["s0", "s1"], racy);
            let tag = if racy { "racy" } else { "locked" };
            run_lockset(format!("gen/s{seed}-{tag}"), &client, &entries, &lock_model);
        }
    }
    let (dead, dead_entries) = dead_branch_client();
    run_lockset(
        "dead-branch".to_string(),
        &dead,
        &dead_entries,
        &LockModel::default(),
    );
    println!("Lockset sharpening ({programs} programs)");
    println!(
        "  race pairs: {base_pairs} baseline -> {sharp_pairs} sharp ({pruned} false positives pruned)"
    );
    println!(
        "  escape classes: {} thread-local, {} lock-protected, {} atomic-only, {} shared-free",
        escape_hist[0], escape_hist[1], escape_hist[2], escape_hist[3]
    );
    println!("  baseline {base_ms:.2} ms, sharp {sharp_ms:.2} ms\n");
    assert!(pruned > 0, "the dead-branch family must prune a pair");

    // -----------------------------------------------------------------
    // 3. Exploration impact: ample states with and without hints.
    // -----------------------------------------------------------------
    let cfg = ExploreCfg {
        fuel: 400,
        max_states: 2_000_000,
        reduction: Reduction::Ample,
        ..Default::default()
    };
    let specs: &[(usize, usize)] = if smoke {
        &[(3, 2)]
    } else {
        &[(2, 4), (3, 3), (4, 2)]
    };
    let mut explore_rows = Vec::new();
    println!("Exploration impact (ample reduction, states before/after hints)");
    for &(threads, depth) in specs {
        let (loaded, hints) = private_client(threads, depth);
        let hinted_cfg = ExploreCfg {
            hints,
            ..cfg.clone()
        };
        let t = Instant::now();
        let plain = check_drf(&loaded, &cfg).expect("loads");
        let plain_ms = ms(t);
        let t = Instant::now();
        let hinted = check_drf(&loaded, &hinted_cfg).expect("loads");
        let hinted_ms = ms(t);
        assert!(plain.is_drf() && hinted.is_drf(), "family must be DRF");
        assert!(
            hinted.states <= plain.states,
            "{threads}t-d{depth}: hints cost states"
        );
        println!(
            "  {threads}t-d{depth}: {} -> {} states ({:.1}x), {plain_ms:.2} -> {hinted_ms:.2} ms",
            plain.states,
            hinted.states,
            plain.states as f64 / hinted.states.max(1) as f64,
        );
        explore_rows.push((
            threads,
            depth,
            plain.states,
            hinted.states,
            plain_ms,
            hinted_ms,
        ));
    }

    // -----------------------------------------------------------------
    // JSON artifact.
    // -----------------------------------------------------------------
    let mut json = String::from("{\n");
    write!(json, "  \"bench\": \"absint\",\n  \"smoke\": {smoke},\n").unwrap();
    writeln!(
        json,
        "  \"rtl_intervals\": {{\"seeds\": {}, \"funcs\": {}, \"nodes\": {}, \"facts\": {}, \
         \"bounded\": {}, \"singleton\": {}, \"branches\": {}, \"branches_decided\": {}, \
         \"analyze_ms\": {:.3}, \"validate_ms\": {:.3}}},",
        seeds,
        rtl.funcs,
        rtl.nodes,
        rtl.facts,
        rtl.bounded,
        rtl.singleton,
        rtl.cond_total,
        rtl.cond_decided,
        rtl.analyze_ms,
        rtl.validate_ms
    )
    .unwrap();
    writeln!(
        json,
        "  \"lockset\": {{\"programs\": {programs}, \"base_pairs\": {base_pairs}, \
         \"sharp_pairs\": {sharp_pairs}, \"pruned\": {pruned}, \
         \"escape\": {{\"thread_local\": {}, \"lock_protected\": {}, \"atomic_only\": {}, \
         \"shared_free\": {}}}, \"base_ms\": {base_ms:.3}, \"sharp_ms\": {sharp_ms:.3}, \
         \"rows\": [",
        escape_hist[0], escape_hist[1], escape_hist[2], escape_hist[3]
    )
    .unwrap();
    for (i, (name, b, s, p)) in lockset_rows.iter().enumerate() {
        write!(
            json,
            "    {{\"name\": \"{name}\", \"base_pairs\": {b}, \"sharp_pairs\": {s}, \"pruned\": {p}}}{}",
            if i + 1 < lockset_rows.len() { ",\n" } else { "\n" }
        )
        .unwrap();
    }
    json.push_str("  ]},\n  \"exploration\": [\n");
    for (i, (t, d, before, after, bms, ams)) in explore_rows.iter().enumerate() {
        write!(
            json,
            "    {{\"name\": \"absint/{t}t-d{d}\", \"states_before\": {before}, \
             \"states_after\": {after}, \"reduction_x\": {:.2}, \
             \"ms_before\": {bms:.3}, \"ms_after\": {ams:.3}}}{}",
            *before as f64 / (*after).max(1) as f64,
            if i + 1 < explore_rows.len() {
                ",\n"
            } else {
                "\n"
            }
        )
        .unwrap();
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_absint.json", &json).expect("write BENCH_absint.json");
    println!("\nwrote BENCH_absint.json");
}
