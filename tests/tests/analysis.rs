//! Cross-validation of the `ccc-analysis` static passes against the
//! instrumented dynamic semantics.
//!
//! * **Footprint soundness**: on every corpus program, the concrete
//!   footprint of the instrumented run is contained in the statically
//!   inferred abstract footprint (`AbsFootprint::covers`), at both the
//!   Clight and RTL levels, sequentially and per thread under the
//!   preemptive exploration.
//! * **Race verdicts**: the lockset analysis and the exhaustive
//!   interleaving exploration agree — locked clients are `StaticDrf`
//!   and explore race-free; racy clients get the same verdict from both
//!   sides, and genuinely racing seeds are flagged.
//! * **Mutation coverage**: seeding one structural breakage into each
//!   of the 12 pipeline stage outputs (plus `Constprop`) makes
//!   translation validation reject the artifacts, only at the passes
//!   on either side of the broken stage, while clean artifacts
//!   validate.

use ccc_analysis::{
    check_static_race, check_static_race_sharp, infer_clight, infer_clight_with, infer_lock_model,
    infer_rtl, validate_artifacts, LockModel, Sharing,
};
use ccc_clight::gen::{gen_concurrent_client, gen_module, GenCfg};
use ccc_clight::ClightLang;
use ccc_compiler::driver::{
    compile_optimized_with_artifacts, compile_with_artifacts, CompilationArtifacts, PASS_NAMES,
};
use ccc_compiler::ops::{AddrMode, Cmp, Op};
use ccc_compiler::rtl::RtlLang;
use ccc_compiler::{cminorsel, linear, ltl, mach, rtl};
use ccc_core::mem::GlobalEnv;
use ccc_core::race::{check_drf, collect_footprints};
use ccc_core::refine::ExploreCfg;
use ccc_core::world::run_main_traced;
use ccc_fuzz::link::load_client;
use ccc_machine::asm;
use ccc_machine::{Cond, Reg};
use ccc_sync::lock::lock_spec;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Footprint soundness
// ---------------------------------------------------------------------

#[test]
fn static_footprints_cover_dynamic_sequential() {
    let mut checked = 0;
    for seed in 0..60u64 {
        let (m, ge) = gen_module(seed, &GenCfg::default());
        let arts = compile_with_artifacts(&m).expect("compiles");
        let cs = infer_clight(&m);
        let rs = infer_rtl(&arts.rtl);
        let (_, _, _, cfp) =
            run_main_traced(&ClightLang, &m, &ge, "f", &[], 1_000_000).expect("Clight terminates");
        let (_, _, _, rfp) =
            run_main_traced(&RtlLang, &arts.rtl, &ge, "f", &[], 1_000_000).expect("RTL terminates");
        let c = cs.footprint("f").expect("clight summary");
        let r = rs.footprint("f").expect("rtl summary");
        assert!(
            c.covers(&ge, &cfp),
            "seed {seed}: Clight {c} misses {cfp:?}"
        );
        assert!(r.covers(&ge, &rfp), "seed {seed}: RTL {r} misses {rfp:?}");
        checked += 1;
    }
    assert!(checked >= 50, "soundness corpus too small");
}

#[test]
fn static_footprints_cover_dynamic_per_thread() {
    let cfg = ExploreCfg::default();
    for seed in 0..6u64 {
        for racy in [false, true] {
            let (client, ge, entries) = gen_concurrent_client(seed, 2, &["s0", "s1"], racy);
            let (lock, lock_ge) = lock_spec("L");
            let linked = GlobalEnv::link([&ge, &lock_ge]).expect("environments link");
            let model = infer_lock_model(&lock);
            let summaries = infer_clight_with(&client, &model.external_footprints());
            let loaded = load_client(client, ge, entries.clone());
            let report = collect_footprints(&loaded, &cfg).expect("source loads");
            assert!(
                !report.truncated,
                "seed {seed} racy={racy}: dynamic exploration truncated at {} states — \
                 coverage against a partial footprint union proves nothing",
                report.states
            );
            for (t, entry) in entries.iter().enumerate() {
                let stat = summaries.footprint(entry).expect("entry summarized");
                assert!(
                    stat.covers(&linked, &report.fps[t]),
                    "seed {seed} racy={racy} thread {t}: {stat} misses {:?}",
                    report.fps[t]
                );
            }
        }
    }
}

proptest! {
    /// Randomized generator configurations: the soundness contract holds
    /// on arbitrary corpus shapes, and every clean pipeline validates.
    #[test]
    fn random_programs_have_sound_footprints(
        seed in 0u64..1_000_000,
        block_len in 1usize..8,
        depth in 0usize..3,
        num_temps in 1usize..6,
        num_vars in 0usize..4,
    ) {
        let cfg = GenCfg {
            block_len,
            depth,
            num_temps,
            num_vars,
            prints: seed % 2 == 0,
            ..GenCfg::default()
        };
        let (m, ge) = gen_module(seed, &cfg);
        let arts = compile_with_artifacts(&m).expect("compiles");
        prop_assert!(validate_artifacts(&arts).ok(), "clean pipeline rejected");
        let cs = infer_clight(&m);
        let rs = infer_rtl(&arts.rtl);
        let (_, _, _, cfp) =
            run_main_traced(&ClightLang, &m, &ge, "f", &[], 1_000_000).expect("terminates");
        let (_, _, _, rfp) =
            run_main_traced(&RtlLang, &arts.rtl, &ge, "f", &[], 1_000_000).expect("terminates");
        prop_assert!(cs.footprint("f").expect("summary").covers(&ge, &cfp));
        prop_assert!(rs.footprint("f").expect("summary").covers(&ge, &rfp));
    }
}

// ---------------------------------------------------------------------
// Race verdicts
// ---------------------------------------------------------------------

#[test]
fn static_race_verdicts_match_exploration() {
    let cfg = ExploreCfg::default();
    let mut racy_flagged = 0;
    for seed in 0..10u64 {
        for racy in [false, true] {
            let (client, ge, entries) = gen_concurrent_client(seed, 2, &["s0", "s1"], racy);
            let (lock, _) = lock_spec("L");
            let model = infer_lock_model(&lock);
            let report = check_static_race(&client, &entries, &model);
            let sharp = check_static_race_sharp(&client, &entries, &model);
            let loaded = load_client(client, ge, entries);
            let drf = check_drf(&loaded, &cfg).expect("source loads");
            assert!(!drf.truncated, "seed {seed}: exploration truncated");
            if !racy {
                // Locked clients must be *statically* DRF — the analysis
                // is precise enough for the lock discipline, not merely
                // sound.
                assert!(report.is_drf(), "seed {seed}: locked client flagged");
            }
            assert_eq!(
                report.is_drf(),
                drf.is_drf(),
                "seed {seed} racy={racy}: static and dynamic verdicts disagree"
            );
            // The interval-sharpened variant must stay sound (never DRF
            // on a dynamically racing program) while being at least as
            // precise as the baseline here.
            assert_eq!(
                sharp.is_drf(),
                drf.is_drf(),
                "seed {seed} racy={racy}: sharp and dynamic verdicts disagree"
            );
            if racy && !report.is_drf() {
                racy_flagged += 1;
            }
        }
    }
    // Most racy seeds really do race (some generate threads that touch
    // disjoint globals — both sides must call those DRF, asserted above).
    assert!(racy_flagged >= 4, "only {racy_flagged} racy seeds flagged");
}

/// The sharpened lockset analysis drops a false positive the baseline
/// flags — a write hidden in an interval-dead branch — and the dynamic
/// exploration confirms the sharp verdict is the truth.
#[test]
fn sharp_lockset_false_positive_drop_is_confirmed_by_exploration() {
    use ccc_clight::ast::{Binop, Expr, Function, Stmt};
    use ccc_clight::ClightModule;
    use ccc_core::lang::Prog;
    use ccc_core::world::Loaded;

    let mut ge = GlobalEnv::new();
    ge.define("s", ccc_core::mem::Val::Int(0));
    let t0 = Function::simple(Stmt::Assign(Expr::var("s"), Expr::Const(1)));
    let t1 = Function::simple(Stmt::seq([
        Stmt::Set("t".into(), Expr::Const(3)),
        Stmt::If(
            Expr::bin(Binop::Lt, Expr::temp("t"), Expr::Const(2)),
            Box::new(Stmt::Assign(Expr::var("s"), Expr::Const(2))),
            Box::new(Stmt::Skip),
        ),
    ]));
    let client = ClightModule::new([("t0", t0), ("t1", t1)]);
    let entries = ["t0".to_string(), "t1".to_string()];
    let model = LockModel::default();

    let base = check_static_race(&client, &entries, &model);
    assert!(!base.is_drf(), "baseline must flag the dead-branch write");
    let sharp = check_static_race_sharp(&client, &entries, &model);
    assert!(sharp.is_drf(), "sharp verdict: {:?}", sharp.report.verdict);
    assert!(!sharp.pruned.is_empty());
    assert_eq!(
        sharp.escape.globals.get("s"),
        Some(&Sharing::ThreadLocal(0)),
        "`s` must be certified non-escaping once the dead access is gone"
    );

    // Ground truth: the exhaustive exploration agrees with the sharp
    // verdict, so the dropped pair really was a false positive.
    let loaded = Loaded::new(Prog::new(
        ccc_clight::ClightLang,
        vec![(client, ge)],
        entries,
    ))
    .expect("client links");
    let drf = check_drf(&loaded, &ExploreCfg::default()).expect("loads");
    assert!(!drf.truncated);
    assert!(drf.is_drf(), "the program is genuinely race-free");
}

// ---------------------------------------------------------------------
// Malformed stages: clean pipelines validate, every seeded breakage is
// rejected by translation validation at a pass adjacent to it
// ---------------------------------------------------------------------

/// Every clean compilation of the corpus passes translation validation.
#[test]
fn clean_corpus_lints_clean() {
    for seed in 0..20u64 {
        let (m, _) = gen_module(seed, &GenCfg::default());
        let arts = compile_with_artifacts(&m).expect("compiles");
        let w = validate_artifacts(&arts);
        assert!(w.ok(), "seed {seed} rejected:\n{w}");
    }
    for seed in 0..5u64 {
        for racy in [false, true] {
            let (client, _, _) = gen_concurrent_client(seed, 2, &["s0", "s1"], racy);
            let arts = compile_with_artifacts(&client).expect("compiles");
            let w = validate_artifacts(&arts);
            assert!(w.ok(), "client seed {seed} rejected:\n{w}");
        }
    }
}

/// Asserts that `arts` is rejected, and only by passes in `allowed`.
fn assert_rejected_within(arts: &CompilationArtifacts, allowed: &[&str], what: &str) {
    let w = validate_artifacts(arts);
    let rejected: Vec<&str> = w.rejected().map(|sw| sw.pass.as_str()).collect();
    assert!(!rejected.is_empty(), "{what}: not rejected");
    assert!(
        rejected.iter().all(|p| allowed.contains(p)),
        "{what}: rejected at {rejected:?}, outside {allowed:?}:\n{w}"
    );
}

/// `r7 := r42 + 1; return` — `r42` is never defined.
fn rtl_use_before_def() -> rtl::Function {
    rtl::Function {
        params: vec![],
        stack_slots: 0,
        entry: 0,
        code: [
            (0, rtl::Instr::Op(Op::AddImm(1), vec![42], 7, 1)),
            (1, rtl::Instr::Return(None)),
        ]
        .into(),
    }
}

/// `if (p0 == 0) r5 := 1; print r5` — `r5` is undefined on the else
/// path.
fn rtl_one_branch_definition() -> rtl::Function {
    rtl::Function {
        params: vec![0],
        stack_slots: 0,
        entry: 0,
        code: [
            (0, rtl::Instr::CondImm(Cmp::Eq, 0, 0, 1, 2)),
            (1, rtl::Instr::Op(Op::Const(1), vec![], 5, 2)),
            (2, rtl::Instr::Print(5, 3)),
            (3, rtl::Instr::Return(None)),
        ]
        .into(),
    }
}

/// One structural breakage per row, keyed by the index `i` of the
/// broken stage (0 is the Clight source, `i > 0` the output of
/// `PASS_NAMES[i - 1]`). Translation validation must reject every row,
/// and only at the passes adjacent to stage `i`.
#[test]
fn each_stage_mutation_is_caught_and_attributed() {
    let (m, _) = gen_module(7, &GenCfg::default());
    let clean = compile_with_artifacts(&m).expect("compiles");
    let w = validate_artifacts(&clean);
    assert!(w.ok(), "baseline rejected:\n{w}");

    type Mutation = (usize, &'static str, Box<dyn Fn(&mut CompilationArtifacts)>);
    let mutations: Vec<Mutation> = vec![
        (
            0,
            "duplicate addressable local",
            Box::new(|a| a.clight.funcs.get_mut("f").unwrap().vars.push("v0".into())),
        ),
        (
            1,
            "frame shrunk under its AddrStack references",
            Box::new(|a| a.cminor.funcs.get_mut("f").unwrap().stack_slots = 0),
        ),
        (
            2,
            "operator applied below its arity",
            Box::new(|a| {
                let f = a.cminorsel.funcs.get_mut("f").unwrap();
                let body = std::mem::replace(&mut f.body, cminorsel::Stmt::Skip);
                f.body = cminorsel::Stmt::Seq(vec![
                    cminorsel::Stmt::Set("tbad".into(), cminorsel::Expr::Op(Op::Add, vec![])),
                    body,
                ]);
            }),
        ),
        (
            3,
            "entry outside the graph",
            Box::new(|a| a.rtl.funcs.get_mut("f").unwrap().entry = 999_999),
        ),
        (
            3,
            "dangling successor",
            Box::new(|a| {
                let f = a.rtl.funcs.get_mut("f").unwrap();
                let n = *f.code.keys().next().unwrap();
                f.code.insert(n, rtl::Instr::Nop(999_999));
            }),
        ),
        (
            4,
            "dangling successor",
            Box::new(|a| {
                let f = a.rtl_tailcall.funcs.get_mut("f").unwrap();
                let n = *f.code.keys().next().unwrap();
                f.code.insert(n, rtl::Instr::Nop(999_999));
            }),
        ),
        (
            4,
            "definition on only one branch",
            Box::new(|a| {
                a.rtl_tailcall
                    .funcs
                    .insert("f".into(), rtl_one_branch_definition());
            }),
        ),
        (
            5,
            "use of a never-defined register",
            Box::new(|a| {
                let f = a.rtl_renumber.funcs.get_mut("f").unwrap();
                for i in f.code.values_mut() {
                    if let rtl::Instr::Op(_, args, ..) = i {
                        if !args.is_empty() {
                            args[0] = 4242;
                            return;
                        }
                    }
                }
                panic!("no Op with arguments to mutate");
            }),
        ),
        (
            5,
            "use before definition",
            Box::new(|a| {
                a.rtl_renumber
                    .funcs
                    .insert("f".into(), rtl_use_before_def());
            }),
        ),
        (
            6,
            "out-of-bounds spill slot",
            Box::new(|a| {
                let f = a.ltl.funcs.get_mut("f").unwrap();
                let bad = ltl::Loc::Spill(f.spill_slots + 7);
                for i in f.code.values_mut() {
                    if let ltl::Instr::Op(_, args, ..) = i {
                        if !args.is_empty() {
                            args[0] = bad;
                            return;
                        }
                    }
                }
                panic!("no Op with arguments to mutate");
            }),
        ),
        (
            7,
            "dangling successor",
            Box::new(|a| {
                let f = a.ltl_tunneled.funcs.get_mut("f").unwrap();
                let entry = f.entry;
                f.code.insert(entry, ltl::Instr::Nop(999_999));
            }),
        ),
        (
            8,
            "jump to a missing label",
            Box::new(|a| {
                let f = a.linear.funcs.get_mut("f").unwrap();
                f.code.push(linear::Instr::Goto(31_337));
            }),
        ),
        (
            9,
            "duplicate label and a fall-through end",
            Box::new(|a| {
                let f = a.linear_clean.funcs.get_mut("f").unwrap();
                f.code.push(linear::Instr::Label(77_777));
                f.code.push(linear::Instr::Label(77_777));
            }),
        ),
        (
            9,
            "jump to a missing label",
            Box::new(|a| {
                let f = a.linear_clean.funcs.get_mut("f").unwrap();
                f.code.push(linear::Instr::Goto(31_337));
            }),
        ),
        (
            10,
            "frame access beyond the frame",
            Box::new(|a| {
                let f = a.mach.funcs.get_mut("f").unwrap();
                let slots = f.frame_slots;
                f.code
                    .insert(0, mach::Instr::Store(AddrMode::Stack(slots + 3), Reg::Eax));
            }),
        ),
        (
            11,
            "jump to a missing label",
            Box::new(|a| {
                let f = a.asm.funcs.get_mut("f").unwrap();
                f.code.insert(0, asm::Instr::Jmp("nowhere".into()));
            }),
        ),
        (
            11,
            "conditional jump to a missing label and a frame overflow",
            Box::new(|a| {
                let f = a.asm.funcs.get_mut("f").unwrap();
                let slots = f.frame_slots;
                f.code.insert(0, asm::Instr::Jcc(Cond::E, "nowhere".into()));
                f.code
                    .insert(0, asm::Instr::Load(Reg::Eax, asm::MemArg::Stack(slots + 3)));
            }),
        ),
    ];

    for &(i, what, ref mutate) in &mutations {
        let mut arts = clean.clone();
        mutate(&mut arts);
        // The pass that produced stage `i` and the one that consumes it.
        let last = PASS_NAMES.len() - 1;
        let allowed = &PASS_NAMES[i.saturating_sub(1)..=i.min(last)];
        assert_rejected_within(&arts, allowed, &format!("stage {i}: {what}"));
    }
}

/// Constprop is validated on the artifact the optimizing pipeline
/// really produced, so a breakage there is rejected by the passes on
/// either side of it.
#[test]
fn constprop_mutation_is_attributed_to_constprop() {
    let (m, _) = gen_module(7, &GenCfg::default());
    let mut arts = compile_optimized_with_artifacts(&m).expect("compiles");
    let w = validate_artifacts(&arts);
    assert!(w.ok(), "baseline rejected:\n{w}");
    let cp = arts.rtl_constprop.as_mut().expect("Constprop ran");
    let f = cp.funcs.get_mut("f").unwrap();
    let n = *f.code.keys().next().unwrap();
    f.code.insert(n, rtl::Instr::Nop(999_999));
    assert_rejected_within(&arts, &["Constprop", "Allocation"], "Constprop");
}

// ---------------------------------------------------------------------
// Absint soundness
// ---------------------------------------------------------------------

/// Concretely interprets one RTL function against its claimed interval
/// facts and returns the number of (node, register) claims checked.
///
/// The interpreter implements the *havoc* semantics the analysis is
/// sound for: loads, call returns and parameters take arbitrary
/// oracle-supplied integers (the analysis binds none of them), address
/// operators produce synthetic pointers, and any step the concrete
/// semantics gets stuck on (division by zero, an undefined comparison)
/// halts the run — a claim only speaks about nodes actually reached.
fn interpret_against_facts(
    f: &rtl::Function,
    facts: &ccc_analysis::IntervalFacts,
    oracle: &[i64],
) -> Result<usize, String> {
    use ccc_core::mem::{Addr, Val};
    let mut regs: std::collections::BTreeMap<rtl::PReg, Val> = std::collections::BTreeMap::new();
    let mut next_oracle = 0usize;
    let mut havoc = || {
        let v = oracle.get(next_oracle).copied().unwrap_or(1);
        next_oracle += 1;
        Val::Int(v)
    };
    for (i, &p) in f.params.iter().enumerate() {
        regs.insert(p, Val::Int(oracle.get(i).copied().unwrap_or(0)));
    }
    let mut checked = 0usize;
    let mut synth = 0u64;
    let mut node = f.entry;
    for _ in 0..4_000 {
        if let Some(env) = facts.get(&node) {
            for (r, iv) in env {
                match regs.get(r) {
                    Some(Val::Int(v)) if iv.contains(*v) => checked += 1,
                    got => {
                        return Err(format!(
                            "node {node}: claim r{r} in {iv:?} but concrete value is {got:?}"
                        ))
                    }
                }
            }
        }
        let Some(instr) = f.code.get(&node) else {
            return Err(format!("fell off the graph at node {node}"));
        };
        node = match instr {
            rtl::Instr::Nop(n) | rtl::Instr::Print(_, n) | rtl::Instr::Store(.., n) => *n,
            rtl::Instr::Op(op, args, dst, n) => {
                let v = match op {
                    Op::AddrGlobal(..) | Op::AddrStack(_) => {
                        synth += 1;
                        Some(Val::Ptr(Addr(0xABC0_0000 + synth)))
                    }
                    _ => {
                        let vals: Vec<Val> = args
                            .iter()
                            .map(|r| regs.get(r).copied().unwrap_or(Val::Undef))
                            .collect();
                        op.eval(&vals)
                    }
                };
                // `None` is a stuck/aborting concrete step (e.g. division
                // by zero): no further node is reached, nothing to check.
                match v {
                    Some(v) => regs.insert(*dst, v),
                    None => return Ok(checked),
                };
                *n
            }
            rtl::Instr::Load(_, dst, n) => {
                regs.insert(*dst, havoc());
                *n
            }
            rtl::Instr::Call(dst, _, _, n) => {
                if let Some(d) = dst {
                    regs.insert(*d, havoc());
                }
                *n
            }
            rtl::Instr::Cond(c, r1, r2, t, e) => {
                let (a, b) = (
                    regs.get(r1).copied().unwrap_or(Val::Undef),
                    regs.get(r2).copied().unwrap_or(Val::Undef),
                );
                match c.eval(a, b) {
                    Some(true) => *t,
                    Some(false) => *e,
                    None => return Ok(checked),
                }
            }
            rtl::Instr::CondImm(c, r, imm, t, e) => {
                let a = regs.get(r).copied().unwrap_or(Val::Undef);
                match c.eval(a, ccc_core::mem::Val::Int(*imm)) {
                    Some(true) => *t,
                    Some(false) => *e,
                    None => return Ok(checked),
                }
            }
            rtl::Instr::Tailcall(..) | rtl::Instr::Return(_) => return Ok(checked),
        };
    }
    Ok(checked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interval soundness, dynamically: on every node a concrete havoc
    /// interpretation of the compiled RTL reaches, every claimed
    /// register really holds an integer inside the claimed interval.
    #[test]
    fn interval_facts_bound_concrete_register_values(
        seed in 0u64..1_000_000,
        block_len in 1usize..8,
        depth in 0usize..3,
        oracle in proptest::collection::vec(
            prop_oneof![-8i64..9, any::<i64>()], 0..48),
    ) {
        let cfg = GenCfg { block_len, depth, ..GenCfg::default() };
        let (m, _) = gen_module(seed, &cfg);
        let arts = compile_with_artifacts(&m).expect("compiles");
        let mut checked = 0usize;
        for (name, f) in &arts.rtl_renumber.funcs {
            let facts = ccc_analysis::analyze_rtl_intervals(f);
            prop_assert_eq!(
                ccc_analysis::interval_facts_violation(f, &facts), None,
                "seed {} fn {}: facts not edge-closed", seed, name
            );
            match interpret_against_facts(f, &facts, &oracle) {
                Ok(n) => checked += n,
                Err(e) => prop_assert!(false, "seed {} fn {}: {}", seed, name, e),
            }
        }
        prop_assert!(checked > 0, "seed {seed}: no claim was ever exercised");
    }

    /// Escape soundness, dynamically: a global the escape analysis
    /// proves `ThreadLocal(t)` is never touched by any other thread in
    /// the exhaustive preemptive exploration.
    #[test]
    fn thread_local_globals_are_never_touched_by_other_threads(
        seed in 0u64..5_000,
        threads in 2usize..4,
        racy in any::<bool>(),
    ) {
        let (client, ge, entries) = gen_concurrent_client(seed, threads, &["s0", "s1"], racy);
        let (lock, _) = lock_spec("L");
        let model = infer_lock_model(&lock);
        let escape = ccc_analysis::escape_analysis(&client, &entries, &model);
        let loaded = load_client(client, ge.clone(), entries.clone());
        let cfg = ExploreCfg { max_states: 500_000, ..ExploreCfg::default() };
        let report = collect_footprints(&loaded, &cfg).expect("client loads");
        // A truncated union covers only a prefix — nothing to refute.
        if report.truncated {
            continue;
        }
        for (g, class) in &escape.globals {
            let ccc_analysis::Sharing::ThreadLocal(owner) = class else { continue };
            let Some(addr) = ge.lookup(g) else { continue };
            for (t, fp) in report.fps.iter().enumerate() {
                prop_assert!(
                    t == *owner || (!fp.rs.contains(&addr) && !fp.ws.contains(&addr)),
                    "seed {} racy={}: `{}` claimed thread-local to {} but thread {} touched it",
                    seed, racy, g, owner, t
                );
            }
        }
    }
}
