//! Differential battery for the exploration engine: on generated toy,
//! Clight, x86-TSO, and x86 (SC/TSO litmus) programs, the
//! footprint-directed ample reduction on the memoised engine must agree
//! with the naive exhaustive oracle on every observable: DRF and NPDRF
//! verdicts, per-thread footprint unions, and full trace sets. On
//! race-free programs the engine's NPDRF state count must also equal
//! the oracle's. Escape-analysis hints are checked too, and the
//! engine's state counts are pinned to those of the sequential engine
//! it replaced; on racy programs the reported witness and state count
//! are pinned as well.
//!
//! The file ends with two seeded mutants, each caught through both the
//! DRF check and trace collection: a deliberately overbroad ample
//! condition (`Reduction::AmpleOverbroad`, which also treats silent
//! *global* accesses as independent) must flip the DRF verdict on a
//! program whose race hides behind private prefixes and lose traces
//! that depend on a racing write, and a search that skips the seen-set
//! cycle re-expansion (`Reduction::AmpleIgnoreCycles`, the C3
//! "ignoring problem") must ample-loop through a silent spin, missing a
//! race and the prints every other engine reports — evidence that this
//! battery would catch an unsound independence relation or cycle
//! guard. Both mutants are also caught through the fused trace-and-DRF
//! walk (`check_drf_with_traces`), which must otherwise return exactly
//! the separate trace collection and the separate DRF verdict. A last
//! test pins the expansion and trace counts of the fuzz oracle's TSO
//! trace collection on three stream inputs.

use ccc_analysis::{ample_hints, LockModel};
use ccc_clight::ast::{Expr, Function, Stmt};
use ccc_clight::gen::gen_concurrent_client;
use ccc_clight::{ClightLang, ClightModule};
use ccc_compiler::compile_with_artifacts_mutated;
use ccc_core::lang::{Lang, Prog};
use ccc_core::mem::{GlobalEnv, Val};
use ccc_core::race::{check_drf, check_drf_with_traces, check_npdrf, collect_footprints};
use ccc_core::refine::{collect_traces_preemptive, ExploreCfg};
use ccc_core::toy::{toy_globals, toy_module, ToyInstr, ToyLang};
use ccc_core::world::Loaded;
use ccc_core::{AmpleHints, Reduction};
use ccc_fuzz::link::{link_with_lock, load_client, SrcLang};
use ccc_fuzz::mutation::stream_input;
use ccc_fuzz::toygen::{arb_toy_threads, toy_loaded, Op};
use ccc_fuzz::tsogen;
use ccc_fuzz::{lower, OracleCfg};
use ccc_machine::{litmus, AsmModule, X86Sc, X86Tso};
use proptest::prelude::*;

fn cfg_with(reduction: Reduction) -> ExploreCfg {
    ExploreCfg {
        fuel: 240,
        max_states: 600_000,
        reduction,
        ..Default::default()
    }
}

/// Runs the oracle and the engine on one program and cross-checks
/// every observable. `traces` additionally compares the full trace sets
/// (viable only when the interleaving space is small).
fn assert_engines_agree<L: Lang>(name: &str, loaded: &Loaded<L>, traces: bool) {
    let naive_cfg = cfg_with(Reduction::Off);
    let ample_cfg = cfg_with(Reduction::Ample);

    let naive = check_drf(loaded, &naive_cfg).expect("loads");
    assert!(
        !naive.truncated,
        "{name}: truncated exploration proves nothing"
    );
    let ample = check_drf(loaded, &ample_cfg).expect("loads");
    assert!(!ample.truncated, "{name}: engine exploration truncated");
    assert_eq!(naive.is_drf(), ample.is_drf(), "{name}: DRF verdict");

    // The non-preemptive graph has no reduction, so on a race-free
    // program (explored to exhaustion) the engine must visit exactly the
    // oracle's worlds.
    let np = check_npdrf(loaded, &naive_cfg).expect("loads");
    assert!(!np.truncated, "{name}: NPDRF truncated");
    let np_engine = check_npdrf(loaded, &ample_cfg).expect("loads");
    assert!(!np_engine.truncated, "{name}: NPDRF truncated");
    assert_eq!(np.is_drf(), np_engine.is_drf(), "{name}: NPDRF verdict");
    if np.is_drf() {
        assert_eq!(np.states, np_engine.states, "{name}: NPDRF state count");
    }

    let fp_naive = collect_footprints(loaded, &naive_cfg).expect("loads");
    assert!(
        !fp_naive.truncated,
        "{name}: footprint exploration truncated"
    );
    let fp_ample = collect_footprints(loaded, &ample_cfg).expect("loads");
    assert!(
        !fp_ample.truncated,
        "{name}: footprint exploration truncated"
    );
    assert_eq!(fp_naive.fps, fp_ample.fps, "{name}: footprint unions");

    if traces {
        let ts_naive = collect_traces_preemptive(loaded, &naive_cfg).expect("loads");
        let ts_ample = collect_traces_preemptive(loaded, &ample_cfg).expect("loads");
        assert!(
            !ts_naive.truncated && !ts_ample.truncated,
            "{name}: trace collection truncated"
        );
        assert_eq!(
            ts_naive.traces, ts_ample.traces,
            "{name}: trace sets (ample)"
        );
        // One walk for both facts: the trace set of the separate
        // collection, and the DRF verdict of the separate check.
        for (cfg, ts) in [(&naive_cfg, &ts_naive), (&ample_cfg, &ts_ample)] {
            let (fused_ts, fused_drf) = check_drf_with_traces(loaded, cfg).expect("loads");
            assert_eq!(
                &fused_ts, ts,
                "{name}: fused trace walk ({:?})",
                cfg.reduction
            );
            assert_eq!(
                fused_drf.is_drf(),
                naive.is_drf(),
                "{name}: fused DRF verdict ({:?})",
                cfg.reduction
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Generated toy programs (generator shared via ccc_fuzz::toygen)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn toy_engines_agree(threads in arb_toy_threads()) {
        let loaded = toy_loaded(&threads);
        assert_engines_agree("generated toy", &loaded, true);
    }
}

// ---------------------------------------------------------------------------
// Generated Clight clients + CImp lock object
// ---------------------------------------------------------------------------

fn clight_loaded(seed: u64, threads: usize, racy: bool) -> Loaded<SrcLang> {
    let (client, ge, entries) = gen_concurrent_client(seed, threads, &["s0", "s1"], racy);
    load_client(client, ge, entries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn clight_engines_agree(seed in any::<u64>(), racy in any::<bool>()) {
        let loaded = clight_loaded(seed, 2, racy);
        assert_engines_agree("generated clight", &loaded, true);
    }
}

// ---------------------------------------------------------------------------
// Generated x86-TSO programs (generator shared via ccc_fuzz::tsogen):
// store buffers give every state a machine component the ample
// condition cannot collapse, so these exercise the engines on
// reduction-hostile state spaces.
// ---------------------------------------------------------------------------

fn tso_loaded(t0: &[tsogen::Op], t1: &[tsogen::Op]) -> Loaded<X86Tso> {
    let m = AsmModule::new([("t0", tsogen::emit(t0)), ("t1", tsogen::emit(t1))]);
    let mut ge = GlobalEnv::new();
    for g in tsogen::GLOBALS {
        ge.define(g, Val::Int(0));
    }
    let entries = vec!["t0".to_string(), "t1".to_string()];
    Loaded::new(Prog::new(X86Tso, vec![(m, ge)], entries)).expect("tso links")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn tso_engines_agree(t0 in tsogen::arb_thread(), t1 in tsogen::arb_thread()) {
        assert_engines_agree("generated tso", &tso_loaded(&t0, &t1), true);
    }
}

// ---------------------------------------------------------------------------
// x86 litmus corpus, under both SC and TSO
// ---------------------------------------------------------------------------

#[test]
fn litmus_engines_agree_sc_and_tso() {
    // The observer threads of R and 2+2W spin; their buffered state
    // spaces dwarf the rest of the corpus for no extra coverage here.
    for l in litmus::corpus()
        .into_iter()
        .filter(|l| !matches!(l.name, "R" | "2+2W"))
    {
        let sc = Loaded::new(Prog::new(
            X86Sc,
            vec![(l.module.clone(), l.ge.clone())],
            l.entries.clone(),
        ))
        .expect("sc links");
        assert_engines_agree(&format!("{}/sc", l.name), &sc, true);

        let tso =
            Loaded::new(Prog::new(X86Tso, vec![(l.module, l.ge)], l.entries)).expect("tso links");
        assert_engines_agree(&format!("{}/tso", l.name), &tso, false);
    }
}

// ---------------------------------------------------------------------------
// Escape-analysis hints: collapse private globals, survive lies
// ---------------------------------------------------------------------------

/// `threads` threads each grinding on their own named global, then
/// reading the shared `s0` — DRF, but the grinds are invisible to the
/// plain ample reduction (globals are never in a thread's free list).
fn private_global_client(threads: usize, depth: usize) -> (Loaded<ClightLang>, AmpleHints) {
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

/// `cfg_with(Reduction::Ample)` carrying `hints`.
fn hinted_cfg(hints: &AmpleHints) -> ExploreCfg {
    ExploreCfg {
        hints: hints.clone(),
        ..cfg_with(Reduction::Ample)
    }
}

#[test]
fn escape_hints_collapse_private_globals_without_changing_observables() {
    for (threads, depth) in [(2, 3), (5, 1)] {
        let (loaded, hints) = private_global_client(threads, depth);
        assert!(hints.private.iter().all(|s| s.len() == 1));
        let naive_cfg = cfg_with(Reduction::Off);
        let naive = check_drf(&loaded, &naive_cfg).expect("loads");
        let fp_naive = collect_footprints(&loaded, &naive_cfg).expect("loads");
        assert!(!naive.truncated && naive.is_drf());
        let name = format!("{threads} threads");
        let ample = check_drf(&loaded, &cfg_with(Reduction::Ample)).expect("loads");
        let hinted = check_drf(&loaded, &hinted_cfg(&hints)).expect("loads");
        assert!(!hinted.truncated && hinted.is_drf(), "{name}");
        assert!(
            hinted.states < ample.states,
            "hints must collapse the global grinds ({name}: {} vs {} states)",
            hinted.states,
            ample.states
        );
        let fp_hinted = collect_footprints(&loaded, &hinted_cfg(&hints)).expect("loads");
        assert_eq!(fp_naive.fps, fp_hinted.fps, "footprint unions ({name})");
    }
}

#[test]
fn lying_hints_trip_the_monitor_and_keep_the_race() {
    // Both threads race on the global `x`; the hints falsely claim it
    // private to thread 0. The monitor catches thread 1's access (a
    // racing step is never ample, so it stays interleaved and visible)
    // and the checker falls back to the naive verdict.
    let racy: Vec<Op> = vec![Op::Priv(1), Op::Write(0)];
    let loaded = toy_loaded(&[racy.clone(), racy]);
    let x = loaded.prog.modules[0].ge.lookup("x").expect("x defined");
    let lying = AmpleHints {
        private: vec![[x].into(), [].into()],
    };
    let hinted = check_drf(&loaded, &hinted_cfg(&lying)).expect("loads");
    assert!(!hinted.truncated);
    assert!(!hinted.is_drf(), "the race must survive lying hints");
}

#[test]
fn non_disjoint_hints_are_dropped() {
    // Both threads claiming the same address violates the engine's
    // precondition; such hints are discarded wholesale, leaving the
    // plain ample reduction.
    let (loaded, _) = private_global_client(2, 2);
    let p0 = loaded.prog.modules[0].ge.lookup("p0").expect("p0 defined");
    let overlapping = AmpleHints {
        private: vec![[p0].into(), [p0].into()],
    };
    assert!(!overlapping.disjoint());
    let plain = check_drf(&loaded, &cfg_with(Reduction::Ample)).expect("loads");
    let hinted = check_drf(&loaded, &hinted_cfg(&overlapping)).expect("loads");
    assert_eq!(plain.states, hinted.states, "dropped hints change nothing");
    assert_eq!(plain.is_drf(), hinted.is_drf());
}

#[test]
fn one_worker_state_counts_match_the_sequential_engine() {
    // Recorded on the sequential `Engine` that the memoised engine
    // replaced: `check_drf` and `collect_footprints` states at
    // `Reduction::Ample`, plain and with escape hints. The search claims
    // states in the same depth-first order and makes the same ample
    // choices, so the counts must not move.
    let none = AmpleHints::default();
    for (depth, plain, hinted) in [(2, 43, 19), (3, 63, 21), (4, 87, 23)] {
        let (loaded, hints) = private_global_client(2, depth);
        for (h, want) in [(&none, plain), (&hints, hinted)] {
            let drf = check_drf(&loaded, &hinted_cfg(h)).expect("loads");
            let fp = collect_footprints(&loaded, &hinted_cfg(h)).expect("loads");
            assert!(drf.is_drf() && !drf.truncated && !fp.truncated);
            assert_eq!(
                (drf.states, fp.states),
                (want, want),
                "private_global_client({depth}), {} hints",
                if h.is_empty() { "no" } else { "escape" }
            );
        }
    }
    // (seed, racy, check_drf states, DRF, collect_footprints states).
    for (seed, racy, drf_states, is_drf, fp_states) in [
        (0, false, 251, true, 251),
        (0, true, 8, false, 87),
        (1, false, 251, true, 251),
        (2, false, 241, true, 241),
        (2, true, 57, true, 57),
        (3, true, 8, false, 87),
    ] {
        let loaded = clight_loaded(seed, 2, racy);
        let drf = check_drf(&loaded, &hinted_cfg(&none)).expect("loads");
        let fp = collect_footprints(&loaded, &hinted_cfg(&none)).expect("loads");
        assert_eq!(
            (drf.states, drf.is_drf(), fp.states),
            (drf_states, is_drf, fp_states),
            "clight_loaded({seed}, 2, {racy})"
        );
    }
}

#[test]
fn racy_explorations_report_one_witness() {
    // The search is single-threaded, so the first race it meets — and
    // with it the witness and the state count — is a function of the
    // program alone.
    for seed in [0, 3] {
        let loaded = clight_loaded(seed, 2, true);
        let cfg = cfg_with(Reduction::Ample);
        let first = check_drf(&loaded, &cfg).expect("loads");
        let race = first.race.as_ref().expect("racy");
        assert_eq!(
            (race.t1, race.t2, first.states, first.truncated),
            (0, 1, 8, false),
            "clight_loaded({seed}, 2, true)"
        );
        assert_eq!(check_drf(&loaded, &cfg).expect("loads"), first);
    }
}

// ---------------------------------------------------------------------------
// Mutation test: the battery catches an unsound independence relation
// ---------------------------------------------------------------------------

#[test]
fn overbroad_ample_condition_is_caught_by_the_differential() {
    // Two threads, each: a silent private prefix, then an unprotected
    // write to the same global. The race only shows at interleavings
    // where both threads are poised at the write; the overbroad ample
    // condition (silent global accesses treated as independent) runs
    // each thread to completion alone and never reaches one.
    let racy: Vec<Op> = vec![Op::Priv(1), Op::Priv(2), Op::Write(0)];
    let loaded = toy_loaded(&[racy.clone(), racy]);

    let naive = check_drf(&loaded, &cfg_with(Reduction::Off)).expect("loads");
    assert!(!naive.truncated);
    assert!(!naive.is_drf(), "the oracle must see the write-write race");

    let sound = check_drf(&loaded, &cfg_with(Reduction::Ample)).expect("loads");
    assert!(
        !sound.is_drf(),
        "the shipped ample condition keeps the race"
    );

    let mutated = check_drf(&loaded, &cfg_with(Reduction::AmpleOverbroad)).expect("loads");
    assert!(
        mutated.is_drf(),
        "the seeded commutativity bug must miss the race — if this fails, \
         the mutant is no longer a mutant and the battery's sensitivity \
         claim is untested"
    );
    assert_ne!(
        naive.is_drf(),
        mutated.is_drf(),
        "differential testing flags the unsound reduction"
    );

    // The fused trace-and-DRF walk is caught the same way.
    let fused = |r| check_drf_with_traces(&loaded, &cfg_with(r)).expect("loads");
    assert!(!fused(Reduction::Ample).1.is_drf());
    let (ts, drf) = fused(Reduction::AmpleOverbroad);
    assert!(!ts.truncated);
    assert!(
        drf.is_drf(),
        "the fused walk under the seeded commutativity bug must miss the race"
    );
}

#[test]
fn overbroad_ample_condition_is_caught_through_traces() {
    // Each thread writes its own value to the shared `x`, reads `x`
    // back and prints it. Only a write of the other thread between the
    // two silent global accesses makes a thread print the other's
    // value; the overbroad ample condition runs each thread alone up
    // to its print and loses those traces.
    let thread = |k: i64| vec![Op::Priv(k), Op::Write(0), Op::Read(0), Op::Print];
    let loaded = toy_loaded(&[thread(1), thread(2)]);

    let naive = collect_traces_preemptive(&loaded, &cfg_with(Reduction::Off)).expect("loads");
    let sound = collect_traces_preemptive(&loaded, &cfg_with(Reduction::Ample)).expect("loads");
    let mutated =
        collect_traces_preemptive(&loaded, &cfg_with(Reduction::AmpleOverbroad)).expect("loads");
    assert!(!naive.truncated && !sound.truncated && !mutated.truncated);
    assert_eq!(
        naive.traces, sound.traces,
        "the shipped ample condition keeps every trace"
    );
    assert!(
        mutated.traces.is_subset(&naive.traces) && mutated.traces.len() < naive.traces.len(),
        "the seeded commutativity bug must lose traces ({} of {})",
        mutated.traces.len(),
        naive.traces.len()
    );
}

/// t0 spins silently forever (`jmp 0`, a one-state cycle whose only
/// step is an ample candidate); t1 and t2 race on the global `x` and
/// print what they stored.
fn spin_and_race() -> Loaded<ToyLang> {
    let spin = vec![ToyInstr::Jmp(0)];
    let write = vec![
        ToyInstr::LoadG("x".into()),
        ToyInstr::Add(1),
        ToyInstr::StoreG("x".into()),
        ToyInstr::Print,
        ToyInstr::Ret(0),
    ];
    let (m, _) = toy_module(&[("t0", spin), ("t1", write.clone()), ("t2", write)], &[]);
    Loaded::new(Prog::new(
        ToyLang,
        vec![(m, toy_globals(&[("x", 0)]))],
        ["t0", "t1", "t2"],
    ))
    .expect("toy links")
}

#[test]
fn skipping_cycle_reexpansion_is_caught_by_the_differential() {
    // Soundness of the reduction hangs on the C3 "ignoring" guard: an
    // engine must refuse an ample set whose successor is already in
    // the visited set and fall back to full expansion, so the racing
    // threads get scheduled past the spin. `AmpleIgnoreCycles` is the
    // seeded unsoundness — a search that skips that re-expansion — and
    // must ample-loop on t0 and report DRF, while the sound engine keeps
    // the race.
    let loaded = spin_and_race();

    let naive = check_drf(&loaded, &cfg_with(Reduction::Off)).expect("loads");
    assert!(!naive.truncated);
    assert!(!naive.is_drf(), "the oracle must see the write-write race");

    let sound = check_drf(&loaded, &cfg_with(Reduction::Ample)).expect("loads");
    assert!(!sound.is_drf(), "the cycle guard keeps the race");

    let mutated = check_drf(&loaded, &cfg_with(Reduction::AmpleIgnoreCycles)).expect("loads");
    assert!(
        mutated.is_drf(),
        "the seeded cycle-skipping bug must miss the race — if this fails, \
         the mutant is no longer a mutant and the battery's sensitivity \
         claim is untested"
    );
    assert_ne!(
        naive.is_drf(),
        mutated.is_drf(),
        "differential testing flags the unsound cycle handling"
    );

    // The fused trace-and-DRF walk is caught the same way, on both facts.
    let fused = |r| check_drf_with_traces(&loaded, &cfg_with(r)).expect("loads");
    let (sound_ts, sound_drf) = fused(Reduction::Ample);
    assert!(!sound_drf.is_drf(), "the fused walk keeps the race");
    assert!(sound_ts.traces.iter().any(|t| !t.events.is_empty()));
    let (ts, drf) = fused(Reduction::AmpleIgnoreCycles);
    assert!(!ts.truncated);
    assert!(
        drf.is_drf() && ts.traces.iter().all(|t| t.events.is_empty()),
        "the fused walk under the seeded cycle-skipping bug must miss the \
         race and every print"
    );
}

#[test]
fn skipping_cycle_reexpansion_is_caught_through_traces() {
    // The same spin: a trace collector that ample-loops on t0 never
    // schedules t1 or t2 and sees only the silent divergence, while
    // every sound collection keeps their prints.
    let loaded = spin_and_race();
    let naive = collect_traces_preemptive(&loaded, &cfg_with(Reduction::Off)).expect("loads");
    let sound = collect_traces_preemptive(&loaded, &cfg_with(Reduction::Ample)).expect("loads");
    let mutated =
        collect_traces_preemptive(&loaded, &cfg_with(Reduction::AmpleIgnoreCycles)).expect("loads");
    assert!(!naive.truncated && !sound.truncated && !mutated.truncated);
    assert_eq!(
        naive.traces, sound.traces,
        "the cycle guard keeps every trace"
    );
    assert!(
        naive.traces.iter().any(|t| !t.events.is_empty()),
        "the racing threads print"
    );
    assert!(
        mutated.traces.iter().all(|t| t.events.is_empty()),
        "the seeded cycle-skipping bug must lose every print — if this \
         fails, the mutant is no longer a mutant: {:?}",
        mutated.traces
    );
}

// ---------------------------------------------------------------------------
// Pinned trace collection on the fuzz oracle's TSO stage
// ---------------------------------------------------------------------------

#[test]
fn tso_trace_collection_counts_are_pinned() {
    // Concurrent inputs of the fuzz stream, compiled by the extended
    // (unmutated) pipeline and linked against the lock object on the
    // TSO machine exactly as the oracle's Asm/TSO stage does, at its
    // default exploration budget. The counts were recorded on the
    // sequential `Engine`, before trace collection moved to the
    // memoised `ParEngine`: the same ample choices must expand the same
    // states and yield the same traces.
    let cfg = OracleCfg::default().explore;
    for (input, expansions, traces) in [(26, 1458, 5), (14, 5127, 4), (24, 8533, 3)] {
        let p = stream_input(input);
        assert!(!p.is_sequential(), "stream_input({input}) is concurrent");
        let (m, ge, entries) = lower(&p);
        let arts = compile_with_artifacts_mutated(&m, None).expect("compiles");
        let loaded = link_with_lock(X86Tso, arts.asm, ge, entries).expect("links");
        let ts = collect_traces_preemptive(&loaded, &cfg).expect("loads");
        assert!(!ts.truncated, "stream_input({input}) truncated");
        assert_eq!(
            (ts.expansions, ts.traces.len()),
            (expansions, traces),
            "stream_input({input}): (expansions, traces)"
        );
    }
}
