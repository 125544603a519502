//! Differential validation of the static TSO-robustness analysis
//! (`ccc-analysis::tso_robust`) against the executable `X86Sc`/`X86Tso`
//! machines.
//!
//! Soundness obligations, checked on the fixed litmus corpus and on a
//! battery of proptest-generated multi-threaded programs:
//!
//! * `Robust` ⟹ the SC and TSO trace sets are equal;
//! * every `MayViolateSC` witness names a genuinely reorderable
//!   store→load pair of the program text;
//! * fence insertion yields a robust program with SC-equal TSO
//!   behaviour;
//! * fence redundancy elimination never changes either trace set.
//!
//! `compile_with_robustness` reports only on validated compilations: a
//! malformed source is rejected with the failed obligations.

use ccc_analysis::tso_robust::{
    analyze, compile_with_robustness, eliminate_redundant_fences, insert_fences, CheckedError,
};
use ccc_clight::ast::{Expr, Function, Stmt};
use ccc_clight::ClightModule;
use ccc_core::lang::Prog;
use ccc_core::mem::{GlobalEnv, Val};
use ccc_core::refine::{collect_traces, trace_equiv, ExploreCfg, Preemptive, TraceSet};
use ccc_core::world::Loaded;
use ccc_machine::{litmus, AsmFunc, AsmModule, Instr, MemArg, Operand, Reg, X86Sc, X86Tso};
use proptest::prelude::*;

fn cfg() -> ExploreCfg {
    ExploreCfg {
        fuel: 200,
        max_states: 4_000_000,
        ..Default::default()
    }
}

fn sc_traces(module: &AsmModule, ge: &GlobalEnv, entries: &[String], cfg: &ExploreCfg) -> TraceSet {
    let p = Loaded::new(Prog::new(
        X86Sc,
        vec![(module.clone(), ge.clone())],
        entries.to_vec(),
    ))
    .expect("sc links");
    let ts = collect_traces(&Preemptive(&p), cfg).expect("sc traces");
    assert!(!ts.truncated, "SC exploration truncated");
    ts
}

fn tso_traces(
    module: &AsmModule,
    ge: &GlobalEnv,
    entries: &[String],
    cfg: &ExploreCfg,
) -> TraceSet {
    let p = Loaded::new(Prog::new(
        X86Tso,
        vec![(module.clone(), ge.clone())],
        entries.to_vec(),
    ))
    .expect("tso links");
    let ts = collect_traces(&Preemptive(&p), cfg).expect("tso traces");
    assert!(!ts.truncated, "TSO exploration truncated");
    ts
}

/// The static verdict on the litmus corpus is exactly the dynamic
/// TSO-observability, and the soundness direction holds at trace-set
/// level: `Robust` programs have SC-equal TSO behaviour.
#[test]
fn litmus_static_verdicts_are_dynamically_sound_and_exact() {
    let cfg = cfg();
    for l in litmus::corpus() {
        let report = analyze(&l.module, &l.entries);
        assert_eq!(
            report.is_robust(),
            !l.tso_observable,
            "{}: static verdict vs dynamic observability\n{report}",
            l.name
        );
        let sc = sc_traces(&l.module, &l.ge, &l.entries, &cfg);
        let tso = tso_traces(&l.module, &l.ge, &l.entries, &cfg);
        if report.is_robust() {
            assert!(trace_equiv(&sc, &tso), "{}: Robust but TSO ≠ SC", l.name);
        } else {
            assert!(
                !trace_equiv(&sc, &tso),
                "{}: flagged but dynamically SC-equal (verdict imprecise on corpus)",
                l.name
            );
        }
    }
}

/// Every witness on the corpus names a real store and a real load of
/// the program text, in the same thread, with distinct locations.
#[test]
fn litmus_witnesses_name_real_reorderable_pairs() {
    for l in litmus::corpus() {
        let report = analyze(&l.module, &l.entries);
        for w in report.witnesses() {
            let s = &w.pair.store;
            let ld = &w.pair.load;
            assert_eq!(s.thread, ld.thread, "{}: pair spans threads", l.name);
            assert!(
                matches!(l.module.funcs[&s.func].code[s.idx], Instr::Store(..)),
                "{}: witness store {s} is not a store instruction",
                l.name
            );
            assert!(
                matches!(l.module.funcs[&ld.func].code[ld.idx], Instr::Load(..)),
                "{}: witness load {ld} is not a load instruction",
                l.name
            );
            assert!(
                !s.loc.must_equal(&ld.loc),
                "{}: same-location pair is not reorderable (forwarding)",
                l.name
            );
        }
    }
}

/// Fence insertion makes every corpus program robust and — dynamically —
/// SC-equal, while leaving the SC behaviour itself unchanged.
#[test]
fn litmus_fence_insertion_restores_sc_equality() {
    let cfg = cfg();
    for l in litmus::corpus() {
        let fenced = insert_fences(&l.module, &l.entries);
        assert!(fenced.complete, "{}: uncoverable pair", l.name);
        assert!(
            analyze(&fenced.module, &l.entries).is_robust(),
            "{}: still not robust after fencing",
            l.name
        );
        if fenced.inserted.is_empty() {
            continue; // already robust, module unchanged
        }
        let sc = sc_traces(&l.module, &l.ge, &l.entries, &cfg);
        let sc_f = sc_traces(&fenced.module, &l.ge, &l.entries, &cfg);
        let tso_f = tso_traces(&fenced.module, &l.ge, &l.entries, &cfg);
        assert!(
            trace_equiv(&sc_f, &tso_f),
            "{}: fenced program still TSO-distinguishable",
            l.name
        );
        assert!(
            trace_equiv(&sc, &sc_f),
            "{}: fences changed the SC behaviour",
            l.name
        );
    }
}

/// On the corpus no fence is redundant (SB+mfence's fence separates a
/// store from a load and is load-bearing), and the fences the inserter
/// adds are never removable by the eliminator.
#[test]
fn litmus_fence_elimination_is_conservative() {
    for l in litmus::corpus() {
        let r = eliminate_redundant_fences(&l.module, &l.entries);
        assert!(r.removed.is_empty(), "{}: removed {:?}", l.name, r.removed);
        let fenced = insert_fences(&l.module, &l.entries);
        let r = eliminate_redundant_fences(&fenced.module, &l.entries);
        assert!(
            r.removed.is_empty(),
            "{}: inserter/eliminator disagree: {:?}",
            l.name,
            r.removed
        );
    }
}

/// A hand-built program with provably-dead fences: elimination strips
/// exactly those and preserves both trace sets on the nose.
#[test]
fn redundant_fence_elimination_preserves_trace_sets() {
    let mk = |mine: &str, theirs: &str| AsmFunc {
        code: vec![
            Instr::Mfence, // entry: buffer empty — dead
            Instr::Store(MemArg::Global(mine.into(), 0), Operand::Imm(1)),
            Instr::Mfence, // drains the store — load-bearing
            Instr::Mfence, // immediately after a drain — dead
            Instr::Load(Reg::Ecx, MemArg::Global(theirs.into(), 0)),
            Instr::Print(Reg::Ecx),
            Instr::Mov(Reg::Eax, Operand::Imm(0)),
            Instr::Ret,
        ],
        frame_slots: 0,
        arity: 0,
    };
    let m = AsmModule::new([("t0", mk("x", "y")), ("t1", mk("y", "x"))]);
    let mut ge = GlobalEnv::new();
    ge.define("x", Val::Int(0));
    ge.define("y", Val::Int(0));
    let entries = vec!["t0".to_string(), "t1".to_string()];

    let r = eliminate_redundant_fences(&m, &entries);
    assert_eq!(r.removed.len(), 4, "{:?}", r.removed);
    for f in r.module.funcs.values() {
        assert_eq!(
            f.code.iter().filter(|i| matches!(i, Instr::Mfence)).count(),
            1
        );
    }

    let cfg = cfg();
    let sc = sc_traces(&m, &ge, &entries, &cfg);
    let sc_e = sc_traces(&r.module, &ge, &entries, &cfg);
    let tso = tso_traces(&m, &ge, &entries, &cfg);
    let tso_e = tso_traces(&r.module, &ge, &entries, &cfg);
    assert!(trace_equiv(&sc, &sc_e), "SC trace set changed");
    assert!(trace_equiv(&tso, &tso_e), "TSO trace set changed");
    // And the surviving fence keeps the program SC-equal (this is SB
    // with fences): removing it would reintroduce the weak outcome.
    assert!(trace_equiv(&sc_e, &tso_e));
}

// ---------------------------------------------------------------------
// Generated battery: random loop-free multi-threaded programs through
// the full static/dynamic oracle.
// ---------------------------------------------------------------------

use ccc_fuzz::tsogen::{arb_thread, emit, GLOBALS};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full oracle on generated programs: soundness of `Robust`,
    /// fence insertion restoring SC-equality without disturbing SC
    /// behaviour, and elimination changing nothing.
    #[test]
    fn generated_programs_respect_the_robustness_oracle(
        t0 in arb_thread(),
        t1 in arb_thread(),
    ) {
        let m = AsmModule::new([("t0", emit(&t0)), ("t1", emit(&t1))]);
        let mut ge = GlobalEnv::new();
        for g in GLOBALS {
            ge.define(g, Val::Int(0));
        }
        let entries = vec!["t0".to_string(), "t1".to_string()];
        let cfg = cfg();

        let sc = sc_traces(&m, &ge, &entries, &cfg);
        let tso = tso_traces(&m, &ge, &entries, &cfg);
        let report = analyze(&m, &entries);
        if report.is_robust() {
            // The acceptance criterion: no program judged Robust may
            // exhibit a TSO-only behaviour.
            prop_assert!(trace_equiv(&sc, &tso), "Robust but TSO ≠ SC:\n{:?}", m);
        }

        // Fence insertion: robust afterwards, TSO ≈ SC afterwards, SC
        // behaviour undisturbed.
        let fenced = insert_fences(&m, &entries);
        prop_assert!(fenced.complete);
        prop_assert!(analyze(&fenced.module, &entries).is_robust());
        let (sc_f, tso_f) = if fenced.inserted.is_empty() {
            (sc.clone(), tso.clone())
        } else {
            (
                sc_traces(&fenced.module, &ge, &entries, &cfg),
                tso_traces(&fenced.module, &ge, &entries, &cfg),
            )
        };
        prop_assert!(trace_equiv(&sc_f, &tso_f), "fenced program not SC-equal:\n{:?}", fenced.module);
        prop_assert!(trace_equiv(&sc, &sc_f), "fences changed SC behaviour");

        // Elimination on the fenced module: trace sets must not move.
        let elim = eliminate_redundant_fences(&fenced.module, &entries);
        if !elim.removed.is_empty() {
            let sc_e = sc_traces(&elim.module, &ge, &entries, &cfg);
            let tso_e = tso_traces(&elim.module, &ge, &entries, &cfg);
            prop_assert!(trace_equiv(&sc_f, &sc_e), "elimination changed SC traces");
            prop_assert!(trace_equiv(&tso_f, &tso_e), "elimination changed TSO traces");
        }
    }
}

/// Compiles `f` through `compile_with_robustness`, which must reject it
/// with a failed `kind` obligation at `pass`.
fn assert_rejected_at(f: Function, pass: &str, kind: &str) {
    let m = ClightModule::new([("t0", f)]);
    match compile_with_robustness(&m, &["t0".to_string()]) {
        Err(CheckedError::Rejected(diags)) => assert!(
            diags
                .iter()
                .any(|d| d.pass == pass && d.message.starts_with(&format!("{kind} obligation"))),
            "no {kind} obligation failed at {pass}: {diags:?}"
        ),
        other => panic!("expected a rejection, got {other:?}"),
    }
}

#[test]
fn duplicate_local_is_rejected_by_frame_cover() {
    let f = Function {
        params: vec![],
        vars: vec!["v".into(), "v".into()],
        body: Stmt::seq([
            Stmt::Assign(Expr::var("v"), Expr::Const(1)),
            Stmt::Return(Some(Expr::var("v"))),
        ]),
    };
    assert_rejected_at(f, "Cshmgen/Cminorgen", "FrameCover");
}

#[test]
fn duplicate_parameter_is_rejected_by_param_map() {
    let f = Function {
        params: vec!["x".into(), "x".into()],
        vars: vec![],
        body: Stmt::Return(Some(Expr::temp("x"))),
    };
    assert_rejected_at(f, "Allocation", "ParamMap");
}
