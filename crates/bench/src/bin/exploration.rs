//! Exploration-engine evaluation: exhaustive enumeration vs the
//! footprint-directed ample-set reduction on the memoised engine.
//!
//! Every program is explored three ways:
//!
//! * **naive** — `Reduction::Off`, the exhaustive sequential oracle;
//! * **ample** — `Reduction::Ample` on the engine (interned
//!   thread/memory components, memoised per-`(thread, memory)`
//!   expansions, early exit on the first race witness): threads whose
//!   next steps are all silent and scoped to their own free-list region
//!   are expanded alone;
//! * **absint** — the same, plus escape-analysis hints
//!   ([`ccc_analysis::ample_hints`]) in `ExploreCfg::hints`: globals the
//!   abstract interpretation proves thread-local count as private, so
//!   grinds on them collapse too (the engine monitors the hints and
//!   falls back on any violation).
//!
//! The verdicts must be identical everywhere — the reduction preserves
//! race reachability and trace sets — so the table is purely about
//! cost: states visited and wall-clock. On the 4-thread private-prefix
//! programs the ample reduction must visit at least 5x fewer states
//! than the oracle, for both `check_drf` and `collect_traces`; on every
//! race-free program the hinted reduction must visit no more states
//! than the plain one, and at least one program must improve by 2x or
//! better. The engine must beat the exhaustive oracle on wall-clock on
//! every row. On the corpus rows, `check_npdrf` on the engine (interned
//! non-preemptive worlds, memoised per-`(thread, memory, 𝕕)`
//! predictions) must never lose to the oracle on wall-clock, and on
//! race-free rows must visit exactly the oracle's states. The run
//! aborts otherwise.
//!
//! After each naive measurement the heap's free pages go back to the
//! kernel, untimed, so the next timed run does not pay for the oracle's
//! heap.
//!
//! Run with: `cargo run --release -p ccc-bench --bin exploration`
//! (`--smoke` shrinks the corpus for CI). Results are also written to
//! `BENCH_exploration.json` in the current directory.

use ccc_analysis::{ample_hints, infer_lock_model, LockModel};
use ccc_bench::corpus::concurrent_source_with;
use ccc_clight::ast::{Expr, Function, Stmt};
use ccc_clight::{ClightLang, ClightModule};
use ccc_core::lang::{Lang, Prog};
use ccc_core::mem::{GlobalEnv, Val};
use ccc_core::race::{check_drf, check_npdrf, collect_footprints};
use ccc_core::refine::{collect_traces_preemptive, ExploreCfg};
use ccc_core::toy::{toy_globals, toy_module, ToyInstr, ToyLang};
use ccc_core::world::Loaded;
use ccc_core::{AmpleHints, Reduction};
use ccc_machine::{litmus, X86Tso};
use ccc_sync::lock::lock_spec;
use std::fmt::Write as _;
use std::time::Instant;

/// One measured exploration: distinct states (or expansions) and time.
#[derive(Clone, Copy)]
struct Run {
    states: usize,
    ms: f64,
}

/// Hands the heap's free pages back to the kernel, untimed, after each
/// naive measurement. The oracle frees a heap of hundreds of megabytes;
/// left alone, glibc trims it during the next timed run, which then
/// reads up to 100x slower than it runs alone.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers and only releases free
    // heap pages; it is safe to call at any point.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64() * 1000.0)
}

/// Per-program results, serialized into `BENCH_exploration.json`.
struct Row {
    name: String,
    threads: usize,
    drf: bool,
    drf_naive: Run,
    drf_ample: Run,
    drf_absint: Run,
    traces: Option<(Run, Run)>, // (naive, ample), toy programs only
    npdrf: Option<(Run, Run)>,  // (oracle, engine), corpus programs only
}

impl Row {
    fn json(&self) -> String {
        let mut s = String::new();
        let run = |r: &Run| format!("{{\"states\": {}, \"ms\": {:.3}}}", r.states, r.ms);
        write!(
            s,
            "    {{\"name\": \"{}\", \"threads\": {}, \"drf\": {}, \
             \"drf_naive\": {}, \"drf_ample\": {}, \"drf_absint\": {}, \
             \"ample_vs_naive_x\": {:.2}, \
             \"drf_reduction_x\": {:.2}, \"absint_reduction_x\": {:.2}",
            self.name,
            self.threads,
            self.drf,
            run(&self.drf_naive),
            run(&self.drf_ample),
            run(&self.drf_absint),
            self.drf_naive.ms / self.drf_ample.ms.max(1e-6),
            self.drf_naive.states as f64 / self.drf_ample.states.max(1) as f64,
            self.drf_ample.states as f64 / self.drf_absint.states.max(1) as f64,
        )
        .unwrap();
        if let Some((n, a)) = &self.traces {
            write!(
                s,
                ", \"traces_naive\": {}, \"traces_ample\": {}, \"traces_reduction_x\": {:.2}",
                run(n),
                run(a),
                n.states as f64 / a.states.max(1) as f64,
            )
            .unwrap();
        }
        if let Some((oracle, engine)) = &self.npdrf {
            write!(
                s,
                ", \"npdrf\": {}, \"npdrf_engine\": {}",
                run(oracle),
                run(engine)
            )
            .unwrap();
        }
        s.push('}');
        s
    }
}

/// Each thread allocates a private cell, grinds on it for `depth`
/// rounds, then bumps a shared global — atomically when `sync`, racily
/// otherwise. The silent private prefixes are exactly what the ample
/// reduction collapses; the shared suffix keeps the program honest
/// (races must survive the reduction).
fn toy_private(threads: usize, depth: usize, sync: bool) -> Loaded<ToyLang> {
    let names: Vec<String> = (0..threads).map(|i| format!("t{i}")).collect();
    let mut funcs = Vec::new();
    for i in 0..threads {
        let mut body = vec![
            ToyInstr::AllocLocal,
            ToyInstr::Const(i as i64),
            ToyInstr::StoreL(0),
        ];
        for _ in 0..depth {
            body.push(ToyInstr::LoadL(0));
            body.push(ToyInstr::Add(1));
            body.push(ToyInstr::StoreL(0));
        }
        if sync {
            body.push(ToyInstr::EntAtom);
        }
        body.push(ToyInstr::LoadG("x".into()));
        body.push(ToyInstr::Add(1));
        body.push(ToyInstr::StoreG("x".into()));
        if sync {
            body.push(ToyInstr::ExtAtom);
        }
        body.push(ToyInstr::Ret(0));
        funcs.push(body);
    }
    let pairs: Vec<(&str, Vec<ToyInstr>)> = names
        .iter()
        .map(|n| n.as_str())
        .zip(funcs.iter().cloned())
        .collect();
    let (m, _) = toy_module(&pairs, &[]);
    Loaded::new(Prog::new(
        ToyLang,
        vec![(m, toy_globals(&[("x", 0)]))],
        names,
    ))
    .expect("toy links")
}

/// A Clight client whose threads grind on their *own* named global —
/// invisible to the plain ample reduction (globals are never in a
/// thread's free list) but proven thread-local by the escape analysis,
/// so the hinted reduction collapses the grinds. A final read of the
/// shared `s0` keeps every thread honest (read-read, so still DRF).
fn clight_private(threads: usize, depth: usize) -> (Loaded<ClightLang>, AmpleHints) {
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
    assert!(
        hints.private.iter().all(|s| s.len() == 1),
        "escape analysis must prove every p{{t}} thread-local"
    );
    let loaded =
        Loaded::new(Prog::new(ClightLang, vec![(client, ge)], entries)).expect("client links");
    (loaded, hints)
}

/// Runs the three DRF explorations (plus optional trace / NPDRF runs)
/// on one program and cross-checks every verdict. `hints` feeds the
/// absint run; pass empty hints for programs without escape results
/// (the absint run then coincides with the plain ample one).
fn measure<L: Lang>(
    name: &str,
    loaded: &Loaded<L>,
    cfg: &ExploreCfg,
    hints: &AmpleHints,
    with_traces: bool,
    with_npdrf: bool,
) -> Row {
    let naive_cfg = ExploreCfg {
        reduction: Reduction::Off,
        ..cfg.clone()
    };
    let ample_cfg = ExploreCfg {
        reduction: Reduction::Ample,
        ..naive_cfg.clone()
    };
    let absint_cfg = ExploreCfg {
        hints: hints.clone(),
        ..ample_cfg.clone()
    };

    let (naive, t_naive) = timed(|| check_drf(loaded, &naive_cfg).expect("loads"));
    trim_heap();
    let (ample, t_ample) = timed(|| check_drf(loaded, &ample_cfg).expect("loads"));
    let (absint, t_absint) = timed(|| check_drf(loaded, &absint_cfg).expect("loads"));
    assert!(
        !naive.truncated && !ample.truncated && !absint.truncated,
        "{name}: exploration truncated; raise max_states"
    );
    assert_eq!(
        naive.is_drf(),
        ample.is_drf(),
        "{name}: ample reduction changed the DRF verdict"
    );
    assert_eq!(
        naive.is_drf(),
        absint.is_drf(),
        "{name}: hinted reduction changed the DRF verdict"
    );

    // Footprint unions must also survive every engine.
    let fp_naive = collect_footprints(loaded, &naive_cfg).expect("loads");
    trim_heap();
    let fp_ample = collect_footprints(loaded, &ample_cfg).expect("loads");
    let fp_absint = collect_footprints(loaded, &absint_cfg).expect("loads");
    assert_eq!(
        fp_naive.fps, fp_ample.fps,
        "{name}: footprint unions differ (ample)"
    );
    assert_eq!(
        fp_naive.fps, fp_absint.fps,
        "{name}: footprint unions differ (absint)"
    );

    let traces = with_traces.then(|| {
        let (ts_naive, t_tn) =
            timed(|| collect_traces_preemptive(loaded, &naive_cfg).expect("loads"));
        trim_heap();
        let (ts_ample, t_ta) =
            timed(|| collect_traces_preemptive(loaded, &ample_cfg).expect("loads"));
        assert!(
            !ts_naive.truncated && !ts_ample.truncated,
            "{name}: traces truncated"
        );
        assert_eq!(
            ts_naive.traces, ts_ample.traces,
            "{name}: ample reduction changed the trace set"
        );
        (
            Run {
                states: ts_naive.expansions,
                ms: t_tn,
            },
            Run {
                states: ts_ample.expansions,
                ms: t_ta,
            },
        )
    });

    let npdrf = with_npdrf.then(|| {
        let (np_oracle, t_o) = timed(|| check_npdrf(loaded, &naive_cfg).expect("loads"));
        trim_heap();
        let (np_engine, t_e) = timed(|| check_npdrf(loaded, &ample_cfg).expect("loads"));
        assert_eq!(
            np_oracle.is_drf(),
            np_engine.is_drf(),
            "{name}: the engine changed the NPDRF verdict"
        );
        // The non-preemptive graph has no reduction: a race-free run
        // (explored to exhaustion) visits exactly the oracle's worlds.
        if np_oracle.is_drf() {
            assert_eq!(
                np_engine.states, np_oracle.states,
                "{name}: NPDRF engine and oracle visited different worlds"
            );
        }
        (
            Run {
                states: np_oracle.states,
                ms: t_o,
            },
            Run {
                states: np_engine.states,
                ms: t_e,
            },
        )
    });

    Row {
        name: name.to_string(),
        threads: loaded.prog.entries.len(),
        drf: naive.is_drf(),
        drf_naive: Run {
            states: naive.states,
            ms: t_naive,
        },
        drf_ample: Run {
            states: ample.states,
            ms: t_ample,
        },
        drf_absint: Run {
            states: absint.states,
            ms: t_absint,
        },
        traces,
        npdrf,
    }
}

fn main() {
    let mut smoke = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--smoke" => smoke = true,
            other => panic!("unknown flag {other:?} (expected --smoke)"),
        }
    }
    let cfg = ExploreCfg {
        fuel: 400,
        max_states: 8_000_000,
        ..Default::default()
    };

    println!("Exploration engines: naive vs ample vs escape-hinted ample");
    println!(
        "{:<22} {:>3} {:>5} | {:>9} {:>9} {:>7} | {:>9} {:>6} | {:>9} {:>9} {:>9}",
        "program",
        "thr",
        "drf",
        "st_naive",
        "st_ample",
        "red_x",
        "st_abs",
        "abs_x",
        "ms_naive",
        "ms_ample",
        "ms_abs"
    );
    println!("{}", "-".repeat(115));

    let mut rows = Vec::new();

    // Toy private-prefix programs: the reduction's home turf. Trace
    // sets are small enough to compare exhaustively.
    let toy_specs: &[(usize, usize, bool)] = if smoke {
        &[(2, 3, true), (3, 2, true), (4, 2, true), (4, 2, false)]
    } else {
        &[
            (2, 4, true),
            (3, 3, true),
            (4, 2, true),
            (4, 3, true),
            (2, 4, false),
            (4, 2, false),
        ]
    };
    for &(threads, depth, sync) in toy_specs {
        let name = format!(
            "toy/{}t-d{}-{}",
            threads,
            depth,
            if sync { "atomic" } else { "racy" }
        );
        let loaded = toy_private(threads, depth, sync);
        let with_traces = sync; // racy trace sets include every abort interleaving
        rows.push(measure(
            &name,
            &loaded,
            &cfg,
            &AmpleHints::default(),
            with_traces,
            false,
        ));
    }

    // Private-global Clight clients: the escape analysis proves each
    // thread's grind global thread-local, so only the hinted engine
    // collapses the prefixes (plain ample never treats globals as
    // private).
    let absint_specs: &[(usize, usize)] = if smoke {
        &[(3, 2)]
    } else {
        &[(2, 4), (3, 3), (4, 2)]
    };
    for &(threads, depth) in absint_specs {
        let name = format!("absint/{threads}t-d{depth}");
        let (loaded, hints) = clight_private(threads, depth);
        rows.push(measure(&name, &loaded, &cfg, &hints, false, false));
    }

    // Generated Clight clients + the CImp lock object: cross-language
    // corpus programs with real call/lock traffic. Hints come from the
    // same escape analysis, against the inferred lock protocol — a
    // shared global only one thread happens to touch still counts.
    let (lock_obj, _) = lock_spec("L");
    let lock_model = infer_lock_model(&lock_obj);
    let corpus_specs: &[(u64, usize, bool)] = if smoke {
        &[(0, 3, false)]
    } else {
        &[(0, 3, false), (1, 3, false), (0, 3, true)]
    };
    for &(seed, threads, racy) in corpus_specs {
        let name = format!(
            "clight/s{}-{}t{}",
            seed,
            threads,
            if racy { "-racy" } else { "" }
        );
        let (loaded, client, ge, entries) = concurrent_source_with(seed, threads, racy);
        let hints = ample_hints(&client, &entries, &lock_model, &ge);
        rows.push(measure(&name, &loaded, &cfg, &hints, false, true));
    }

    // x86-TSO litmus tests: the store-buffered machine is the weakest
    // semantics the engines explore (the TSO-robustness checks lean on
    // it), and its buffer contents defeat the ample condition — these
    // rows measure the engine on reduction-hostile state spaces.
    let litmus_names: &[&str] = if smoke { &["SB"] } else { &["SB", "MP", "LB"] };
    for l in litmus::corpus()
        .into_iter()
        .filter(|l| litmus_names.contains(&l.name))
    {
        let loaded = Loaded::new(Prog::new(X86Tso, vec![(l.module, l.ge)], l.entries))
            .expect("litmus links");
        rows.push(measure(
            &format!("tso/{}", l.name),
            &loaded,
            &cfg,
            &AmpleHints::default(),
            false,
            false,
        ));
    }

    for r in &rows {
        println!(
            "{:<22} {:>3} {:>5} | {:>9} {:>9} {:>6.1}x | {:>9} {:>5.1}x | {:>9.2} {:>9.2} {:>9.2}",
            r.name,
            r.threads,
            r.drf,
            r.drf_naive.states,
            r.drf_ample.states,
            r.drf_naive.states as f64 / r.drf_ample.states.max(1) as f64,
            r.drf_absint.states,
            r.drf_ample.states as f64 / r.drf_absint.states.max(1) as f64,
            r.drf_naive.ms,
            r.drf_ample.ms,
            r.drf_absint.ms,
        );
    }
    println!("{}", "-".repeat(115));

    // Acceptance gate: on the race-free 4-thread private-prefix
    // programs (racy runs early-exit at the first witness, so their
    // state counts measure luck, not reduction) the reduction must
    // visit >= 5x fewer states, for the DRF check and for trace
    // collection, without losing to the oracle on wall-clock.
    for r in rows
        .iter()
        .filter(|r| r.name.starts_with("toy/4t") && r.drf)
    {
        assert!(
            r.drf_naive.states >= 5 * r.drf_ample.states,
            "{}: check_drf reduction only {}/{} states",
            r.name,
            r.drf_ample.states,
            r.drf_naive.states
        );
        assert!(
            r.drf_ample.ms < r.drf_naive.ms,
            "{}: reduced check_drf slower than naive ({:.2}ms vs {:.2}ms)",
            r.name,
            r.drf_ample.ms,
            r.drf_naive.ms
        );
        if let Some((n, a)) = &r.traces {
            assert!(
                n.states >= 5 * a.states,
                "{}: collect_traces reduction only {}/{} expansions",
                r.name,
                a.states,
                n.states
            );
            assert!(
                a.ms < n.ms,
                "{}: reduced collect_traces slower than naive ({:.2}ms vs {:.2}ms)",
                r.name,
                a.ms,
                n.ms
            );
        }
    }
    println!("4-thread private-prefix programs: >=5x state reduction confirmed");

    // Escape-analysis gate: on race-free programs (racy explorations
    // early-exit at the first witness, so their counts measure search
    // order, not reduction) the hints must never cost states, and the
    // private-global family must improve on plain ample by >= 2x
    // somewhere.
    for r in rows.iter().filter(|r| r.drf) {
        assert!(
            r.drf_absint.states <= r.drf_ample.states,
            "{}: escape hints cost states ({} vs {})",
            r.name,
            r.drf_absint.states,
            r.drf_ample.states
        );
    }
    assert!(
        rows.iter()
            .any(|r| r.drf && r.drf_ample.states >= 2 * r.drf_absint.states),
        "no program improved >= 2x under escape-analysis hints"
    );
    println!("escape hints: never more states than plain ample, >=2x on the private-global family");

    // Engine gate: the reduced check_drf never loses to the exhaustive
    // oracle on wall-clock (small slack absorbs timer noise on
    // sub-millisecond rows).
    for r in &rows {
        assert!(
            r.drf_ample.ms <= r.drf_naive.ms * 1.05 + 0.25,
            "{}: reduced check_drf lost to the naive oracle ({:.2}ms vs {:.2}ms)",
            r.name,
            r.drf_ample.ms,
            r.drf_naive.ms
        );
    }
    println!("engine: never slower than naive");

    // NPDRF gate: the memoised engine never loses to the oracle on
    // wall-clock, with the slack of the DRF gate above.
    for r in &rows {
        if let Some((oracle, engine)) = &r.npdrf {
            assert!(
                engine.ms <= oracle.ms * 1.05 + 0.25,
                "{}: check_npdrf engine lost to the oracle ({:.2}ms vs {:.2}ms)",
                r.name,
                engine.ms,
                oracle.ms
            );
        }
    }
    println!("NPDRF engine: oracle's state count on race-free rows, never slower than the oracle");

    println!("all verdicts, footprint unions, and trace sets identical across engines");

    let mut json = String::from("{\n");
    write!(
        json,
        "  \"bench\": \"exploration\",\n  \"smoke\": {smoke},\n  \"programs\": [\n"
    )
    .unwrap();
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&r.json());
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_exploration.json", &json).expect("write BENCH_exploration.json");
    println!("wrote BENCH_exploration.json ({} programs)", rows.len());
}
