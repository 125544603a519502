//! Integration gates for the symbolic translation validator
//! (`ccc_analysis::transval`).
//!
//! * Zero false rejections: every clean compilation of the persisted
//!   regression corpus and of a proptest-generated program sample
//!   validates statically, with **every** pipeline stage validated and
//!   a witness for every pass the differential checker judges.
//! * Zero false acceptances on the seeded mutants: every compiled-
//!   pipeline mutant is rejected *statically* — no instruction is
//!   executed — and the rejection is localized to the mutated pass;
//!   the object-level `IdTrans` mutants are rejected by the dedicated
//!   `validate_id_trans` check.
//! * Hints are untrusted: a hand-seeded unsound block matching (one
//!   whose footprint cover would have to be over-wide) is rejected.
//! * Witnesses are durable: every `SimWitness` survives the hand-
//!   rolled JSON round-trip with all obligations intact, and the parser
//!   rejects hostile nesting with a byte offset instead of overflowing
//!   the stack.
//! * The static validator never disagrees with the differential
//!   co-execution check (`verify_passes`) on the corpus.

use ccc_analysis::transval::json::{
    parse, pipeline_from_json, pipeline_shape_from_json, pipeline_to_json, witness_from_json,
    witness_to_json, MAX_DEPTH,
};
use ccc_analysis::transval::passes::validate_rtl_matching;
use ccc_analysis::transval::ObligationKind;
use ccc_analysis::{validate_artifacts, validate_id_trans};
use ccc_clight::ast::{Expr as CExpr, Stmt as CStmt};
use ccc_clight::gen::{gen_module, GenCfg};
use ccc_compiler::driver::{compile_with_artifacts, CompilationArtifacts};
use ccc_compiler::ltl::{self, Loc};
use ccc_compiler::ops::{AddrMode, Op};
use ccc_compiler::rtl::{Function as RtlFn, Instr, RtlModule};
use ccc_compiler::stmt_sem::Stmt as SemStmt;
use ccc_compiler::verif::verify_passes;
use ccc_compiler::{cminor, cminorsel, linear, mach};
use ccc_compiler::{
    compile_with_artifacts_mutated, id_trans_drop_assert, id_trans_mutated, Mutant,
};
use ccc_fuzz::{gen_program, lower, CorpusEntry};
use ccc_machine::{asm, Reg};
use ccc_sync::lock::lock_spec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

fn corpus_entries() -> Vec<(PathBuf, CorpusEntry)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .filter_map(Result::ok)
        .map(|d| d.path())
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable corpus file");
            let entry =
                CorpusEntry::from_text(&text).unwrap_or_else(|e| panic!("{}: {e:?}", p.display()));
            (p, entry)
        })
        .collect()
}

/// Every mutant of the *compiled* pipeline (the object-level `IdTrans`
/// family goes through `validate_id_trans` instead), with the pass the
/// static validator must localize its rejection to.
const PIPELINE_MUTANTS: [Mutant; 17] = [
    Mutant::Cminorgen,
    Mutant::CminorgenSwap,
    Mutant::Selection,
    Mutant::SelectionCmpSwap,
    Mutant::Rtlgen,
    Mutant::RtlgenRetZero,
    Mutant::Tailcall,
    Mutant::Renumber,
    Mutant::Constprop,
    Mutant::Allocation,
    Mutant::Tunneling,
    Mutant::Linearize,
    Mutant::CleanupLabels,
    Mutant::Stacking,
    Mutant::StackingOffByOne,
    Mutant::Asmgen,
    Mutant::AsmgenDropCmp,
];

/// Every validated stage: the 11 pipeline stages, the Constprop
/// extension, and the object-level IdTrans check, in order.
const ALL_STAGES: [&str; 13] = [
    "Cshmgen/Cminorgen",
    "Selection",
    "RTLgen",
    "Tailcall",
    "Renumber",
    "Constprop",
    "Allocation",
    "Tunneling",
    "Linearize",
    "CleanupLabels",
    "Stacking",
    "Asmgen",
    "IdTrans",
];

#[test]
fn corpus_accepts_statically_with_every_stage_validated() {
    let entries = corpus_entries();
    assert!(entries.len() >= 22, "corpus incomplete: {}", entries.len());
    for (path, entry) in &entries {
        let (m, _ge, _entries) = lower(&entry.program);
        // The extended pipeline (with the Constprop stage) — the same
        // one the fuzz oracle validates.
        let arts = compile_with_artifacts_mutated(&m, None)
            .unwrap_or_else(|e| panic!("{}: clean compile failed: {e:?}", path.display()));
        let w = validate_artifacts(&arts);
        assert!(w.ok(), "{}: false rejection:\n{w}", path.display());
        // Full coverage: 12 witnesses (11 pipeline stages + the
        // Constprop extension; IdTrans is validated at the object
        // level), all validated.
        assert_eq!(
            w.witnesses.len(),
            12,
            "{}: wrong stage count",
            path.display()
        );
        for sw in &w.witnesses {
            assert!(
                sw.validated(),
                "{}: stage {} not statically validated:\n{w}",
                path.display(),
                sw.pass
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Zero false rejections over generated programs: any clean
    // compilation's artifacts must discharge all obligations of all 12
    // stages.
    #[test]
    fn generated_programs_accept_statically(seed in 0u64..1_000_000, size in 0u32..8) {
        let p = gen_program(seed, size);
        let (m, _ge, _entries) = lower(&p);
        let arts = compile_with_artifacts_mutated(&m, None).expect("generated programs compile");
        let w = validate_artifacts(&arts);
        prop_assert!(w.ok(), "false rejection on seed {seed}/{size}:\n{w}");
        prop_assert_eq!(w.witnesses.len(), 12);
    }

    // The object-level identity transformation validates for arbitrary
    // lock-global names (the only parameter `lock_spec` takes).
    #[test]
    fn id_trans_accepts_clean_lock_objects(name in "[A-Za-z][A-Za-z0-9_]{0,8}") {
        let (lock, _ge) = lock_spec(&name);
        let w = validate_id_trans(&lock, &lock);
        prop_assert!(w.validated(), "false rejection:\n{}", w);
    }
}

#[test]
fn pipeline_mutants_rejected_statically_at_their_stage() {
    for mutant in PIPELINE_MUTANTS {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("corpus")
            .join(format!("kill_{mutant:?}.txt").to_lowercase());
        let text = std::fs::read_to_string(&path).expect("corpus killer exists");
        let entry = CorpusEntry::from_text(&text).expect("parses");
        let (m, _ge, _entries) = lower(&entry.program);
        let arts =
            compile_with_artifacts_mutated(&m, Some(mutant)).expect("mutated pipeline compiles");
        let w = validate_artifacts(&arts);
        let rejected: Vec<_> = w.rejected().collect();
        assert!(
            !rejected.is_empty(),
            "{mutant:?} slipped past the static validator"
        );
        assert_eq!(
            rejected[0].pass,
            mutant.pass_name(),
            "{mutant:?} rejected at the wrong pass:\n{w}"
        );
    }
}

#[test]
fn id_trans_mutants_rejected_by_atomic_shape() {
    let (lock, _ge) = lock_spec("L");
    for (name, tgt) in [
        ("IdTrans", id_trans_mutated(&lock)),
        ("IdTransDropAssert", id_trans_drop_assert(&lock)),
    ] {
        let w = validate_id_trans(&lock, &tgt);
        assert!(!w.validated(), "{name} accepted:\n{w}");
        assert!(
            w.obligations
                .iter()
                .any(|o| o.kind == ObligationKind::AtomicShape && !o.discharged),
            "{name}: expected an undischarged AtomicShape obligation:\n{w}"
        );
    }
}

#[test]
fn unsound_matching_with_overwide_footprint_is_rejected() {
    // Source: f() { r1 := 1; return r1 } — no memory effects at all.
    let mut src = RtlModule::default();
    src.funcs.insert(
        "f".into(),
        RtlFn {
            params: vec![],
            stack_slots: 0,
            entry: 0,
            code: BTreeMap::from([
                (0, Instr::Op(ccc_compiler::ops::Op::Const(1), vec![], 1, 1)),
                (1, Instr::Return(Some(1))),
            ]),
        },
    );
    // Target: f() { r1 := [g+0]; return r1 } — reads a global the
    // source never touches. Any matching claiming this refines the
    // source needs an over-wide footprint cover; the validator must
    // refuse to discharge it.
    let mut tgt = RtlModule::default();
    tgt.funcs.insert(
        "f".into(),
        RtlFn {
            params: vec![],
            stack_slots: 0,
            entry: 0,
            code: BTreeMap::from([
                (
                    0,
                    Instr::Load(ccc_compiler::ops::AddrMode::Global("g".into(), 0), 1, 1),
                ),
                (1, Instr::Return(Some(1))),
            ]),
        },
    );
    let matching = BTreeMap::from([("f".to_string(), BTreeMap::from([(0u32, 0u32), (1, 1)]))]);
    let w = validate_rtl_matching("Renumber", &src, &tgt, &matching);
    assert!(!w.validated());
    assert!(
        w.obligations
            .iter()
            .any(|o| o.kind == ObligationKind::FootprintCover && !o.discharged),
        "expected an undischarged FootprintCover obligation:\n{w}"
    );
}

#[test]
fn static_board_kills_every_mutant_on_corpus() {
    // The 22-mutant board over the persisted corpus witnesses: every
    // mutant — front end, mid end, back end and the object level —
    // must die statically, with no dynamic oracle left in the loop.
    let witnesses: Vec<_> = Mutant::ALL
        .iter()
        .map(|&m| {
            let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("corpus")
                .join(format!("kill_{m:?}.txt").to_lowercase());
            let text = std::fs::read_to_string(&path).expect("corpus killer exists");
            (m, CorpusEntry::from_text(&text).expect("parses").program)
        })
        .collect();
    let board = ccc_fuzz::transval_corpus_board(&witnesses);
    let survivors: Vec<_> = board
        .iter()
        .filter(|k| !k.killed())
        .map(|k| k.mutant)
        .collect();
    assert!(
        survivors.is_empty(),
        "mutants surviving the static board: {survivors:?}\n{}",
        ccc_fuzz::static_board_markdown(&board)
    );
    assert_eq!(board.len(), Mutant::ALL.len());
}

#[test]
fn witnesses_round_trip_through_json_for_every_stage() {
    // One clean pipeline and one rejected one: every stage's witness —
    // including failure notes and node anchors — must survive
    // serialize → deserialize intact, so the verdict read off the
    // decoded obligations is the original one.
    let entries = corpus_entries();
    let (_, entry) = &entries[0];
    let (m, _ge, _entries) = lower(&entry.program);
    let pipelines = vec![
        validate_artifacts(&compile_with_artifacts_mutated(&m, None).expect("clean compile")),
        validate_artifacts(
            &compile_with_artifacts_mutated(&m, Some(Mutant::Rtlgen)).expect("mutated compile"),
        ),
    ];
    let (lock, _ge) = lock_spec("L");
    let mut seen_stages: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut witnesses: Vec<_> = pipelines.iter().flat_map(|p| p.witnesses.clone()).collect();
    witnesses.push(validate_id_trans(&lock, &lock));
    witnesses.push(validate_id_trans(&lock, &id_trans_mutated(&lock)));
    for sw in &witnesses {
        seen_stages.insert(sw.pass.clone());
        let json = witness_to_json(sw);
        let back = witness_from_json(&json)
            .unwrap_or_else(|e| panic!("stage {}: round trip failed: {e}\n{json}", sw.pass));
        assert_eq!(
            &back, sw,
            "stage {}: witness altered by round trip",
            sw.pass
        );
        assert!(
            !json.contains("\"verdict\":"),
            "stage {}: stored verdict",
            sw.pass
        );
    }
    for stage in ALL_STAGES {
        assert!(seen_stages.contains(stage), "no witness exercised {stage}");
    }
    // Whole-pipeline round trip too.
    for p in &pipelines {
        let json = pipeline_to_json(p);
        let back = pipeline_from_json(&json).expect("pipeline round trip");
        assert_eq!(back.witnesses, p.witnesses);
    }
}

/// Hostile nesting ends in a `JsonError` with the byte offset of the
/// first bracket past the limit — never a stack overflow, which would
/// abort the process rather than reject the document. The documents
/// here are 100 000 levels deep; a 2 MiB test thread overflows long
/// before that without the limit.
#[test]
fn deep_nesting_is_rejected_with_offset() {
    let deep = "[".repeat(100_000);
    let e = parse(&deep).expect_err("parse accepted hostile nesting");
    assert_eq!(e.offset, MAX_DEPTH, "{e}");
    assert!(e.msg.contains("nesting"), "{e}");

    // The shape scan reaches the same limit through an unknown key.
    let poisoned = format!("{{\"x\":{deep}");
    let e = pipeline_shape_from_json(&poisoned).expect_err("shape scan accepted it");
    assert!(e.msg.contains("nesting"), "{e}");
    assert!(
        (5..5 + MAX_DEPTH).contains(&e.offset),
        "offset {} outside the bracket run",
        e.offset
    );

    // The limit is exact: MAX_DEPTH levels still parse.
    let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    parse(&at_limit).expect("MAX_DEPTH levels parse");
    let past = format!("[{at_limit}]");
    assert_eq!(parse(&past).expect_err("past the limit").offset, MAX_DEPTH);
}

#[test]
fn static_mode_runs_no_differential_fallback() {
    // Static validation stands alone exactly when it judges every pass
    // the differential checker does: on the extended pipeline (with
    // Constprop) the witness names the same passes, in the same order,
    // and validates each.
    let corpus = corpus_entries();
    let (_, entry) = &corpus[0];
    let (m, ge, entries) = lower(&entry.program);
    let arts = compile_with_artifacts_mutated(&m, None).expect("clean compile");
    let w = validate_artifacts(&arts);
    let diff = verify_passes(&arts, &ge, &entries[0]);
    let static_passes: Vec<&str> = w.witnesses.iter().map(|sw| sw.pass.as_str()).collect();
    let diff_passes: Vec<&str> = diff.iter().map(|v| v.pass).collect();
    assert_eq!(
        static_passes, diff_passes,
        "a pass is judged only differentially"
    );
    assert!(w.ok(), "false rejection:\n{w}");
}

#[test]
fn both_mode_never_disagrees_on_corpus() {
    for (path, entry) in corpus_entries() {
        let (m, ge, entries) = lower(&entry.program);
        let arts = compile_with_artifacts(&m).expect("clean compile");
        let w = validate_artifacts(&arts);
        for f in &entries {
            for v in &verify_passes(&arts, &ge, f) {
                let sw = w
                    .get(v.pass)
                    .unwrap_or_else(|| panic!("{}: no witness for {}", path.display(), v.pass));
                assert_eq!(
                    sw.validated(),
                    v.ok(),
                    "{} ({f}): static/differential disagreement at {}: {sw}",
                    path.display(),
                    v.pass
                );
                assert!(v.ok(), "{} ({f}): rejected at {}", path.display(), v.pass);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Structural-corruption sweep: every malformed stage is rejected, next
// to where it broke, and the validator never panics on it
// ---------------------------------------------------------------------

/// The rule families of a structural well-formedness check of the IRs;
/// translation validation must reject a breach of each on its own.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Family {
    /// A successor or entry node outside the graph.
    Dangling,
    /// A read of a register, temporary or location nothing defines.
    Undefined,
    /// An operator applied to the wrong number of arguments.
    Arity,
    /// A stack, spill or frame slot outside the frame, or a local or
    /// parameter declared twice.
    OutOfBounds,
    /// A jump to a missing label, or a duplicate label.
    Label,
    /// Control falling off the end of a body, or an empty body.
    FallThrough,
    /// A call passing more arguments than the callee takes.
    CallArity,
}

use Family::*;

/// Every stage of the optimizing pipeline (the 12 stages plus
/// Constprop), the passes on either side of it — the only ones allowed
/// to reject its corruption — and the families that apply to its IR.
#[rustfmt::skip]
const SWEEP: [(&str, &[&str], &[Family]); 13] = [
    ("Clight", &["Cshmgen/Cminorgen"], &[Undefined, OutOfBounds, CallArity]),
    ("Cminor", &["Cshmgen/Cminorgen", "Selection"], &[Undefined, OutOfBounds, CallArity]),
    ("CminorSel", &["Selection", "RTLgen"], &[Undefined, Arity, OutOfBounds, CallArity]),
    ("RTL", &["RTLgen", "Tailcall"], GRAPH),
    ("RTL/tailcall", &["Tailcall", "Renumber"], GRAPH),
    ("RTL/renumber", &["Renumber", "Constprop"], GRAPH),
    ("Constprop", &["Constprop", "Allocation"], GRAPH),
    ("LTL", &["Allocation", "Tunneling"], GRAPH),
    ("LTL/tunneled", &["Tunneling", "Linearize"], GRAPH),
    ("Linear", &["Linearize", "CleanupLabels"], LINEAR),
    ("Linear/clean", &["CleanupLabels", "Stacking"], LINEAR),
    ("Mach", &["Stacking", "Asmgen"], &[Label, FallThrough, Arity, OutOfBounds, CallArity]),
    ("Asm", &["Asmgen"], &[Label, FallThrough, OutOfBounds, CallArity]),
];
const GRAPH: &[Family] = &[Dangling, Undefined, Arity, OutOfBounds, CallArity];
const LINEAR: &[Family] = &[Label, FallThrough, Undefined, Arity, OutOfBounds, CallArity];

const BAD_NODE: u32 = 999_999;
const BAD_LABEL: u32 = 31_337;
const UNDEF_REG: u32 = 4242;

/// Walks corruption sites in a fixed order, trying the corruption on a
/// copy of each, and commits it at the `k`-th site where it applies and
/// changes something.
struct Nth {
    k: usize,
    hit: bool,
}

impl Nth {
    fn visit<T: Clone + PartialEq>(&mut self, site: &mut T, corrupt: impl Fn(&mut T) -> bool) {
        if self.hit {
            return;
        }
        let mut probe = site.clone();
        if corrupt(&mut probe) && probe != *site {
            if self.k == 0 {
                *site = probe;
                self.hit = true;
            } else {
                self.k -= 1;
            }
        }
    }
}

fn set<T>(site: &mut T, v: T) -> bool {
    *site = v;
    true
}

fn dup_first<T: Clone>(v: &mut Vec<T>) -> bool {
    v.first().cloned().map(|x| v.push(x)).is_some()
}

/// Drops an operator's last argument, or gives a nullary one an argument.
fn break_arity<T>(args: &mut Vec<T>, filler: T) -> bool {
    if args.pop().is_none() {
        args.push(filler);
    }
    true
}

/// Duplicates the first label of a list-IR body.
fn dup_label<I: Clone>(code: &mut Vec<I>, is_label: fn(&I) -> bool) -> bool {
    let p = code.iter().position(is_label);
    p.map(|p| code.insert(p, code[p].clone())).is_some()
}

/// The body-level sites of the list IRs: a duplicated label, a dropped
/// final terminator, an emptied body.
fn body_sites<I: Clone + PartialEq>(
    nth: &mut Nth,
    code: &mut Vec<I>,
    family: Family,
    is_label: fn(&I) -> bool,
) {
    match family {
        Label => nth.visit(code, |c| dup_label(c, is_label)),
        FallThrough => {
            nth.visit(code, |c| c.pop().is_some());
            nth.visit(code, |c| set(c, Vec::new()));
        }
        _ => {}
    }
}

fn sem_stmts<E>(s: &mut SemStmt<E>, f: &mut dyn FnMut(&mut SemStmt<E>)) {
    f(s);
    match s {
        SemStmt::Seq(ss) => ss.iter_mut().for_each(|s| sem_stmts(s, f)),
        SemStmt::If(_, a, b) => {
            sem_stmts(a, f);
            sem_stmts(b, f);
        }
        SemStmt::While(_, b) => sem_stmts(b, f),
        _ => {}
    }
}

/// The expressions a Cminor/CminorSel statement evaluates itself.
fn sem_exprs<E>(s: &mut SemStmt<E>) -> Vec<&mut E> {
    match s {
        SemStmt::Set(_, e) | SemStmt::Print(e) | SemStmt::Return(Some(e)) => vec![e],
        SemStmt::If(e, ..) | SemStmt::While(e, _) => vec![e],
        SemStmt::Store(a, v) => vec![a, v],
        SemStmt::Call(_, _, args) => args.iter_mut().collect(),
        _ => vec![],
    }
}

/// A call over-applied by a copy of its first argument.
fn sem_call_over_arity<E: Clone>(s: &mut SemStmt<E>) -> bool {
    match s {
        SemStmt::Call(_, _, args) => dup_first(args),
        _ => false,
    }
}

fn clight_stmts(s: &mut CStmt, f: &mut dyn FnMut(&mut CStmt)) {
    f(s);
    match s {
        CStmt::Seq(ss) => ss.iter_mut().for_each(|s| clight_stmts(s, f)),
        CStmt::If(_, a, b) => {
            clight_stmts(a, f);
            clight_stmts(b, f);
        }
        CStmt::While(_, b) => clight_stmts(b, f),
        _ => {}
    }
}

/// The rvalues a Clight statement evaluates itself.
fn clight_rvalues(s: &mut CStmt) -> Vec<&mut CExpr> {
    match s {
        CStmt::Set(_, e) | CStmt::Print(e) | CStmt::Return(Some(e)) | CStmt::Assign(_, e) => {
            vec![e]
        }
        CStmt::If(e, ..) | CStmt::While(e, _) => vec![e],
        CStmt::Call(_, _, args) => args.iter_mut().collect(),
        _ => vec![],
    }
}

/// The first register an RTL instruction reads.
fn rtl_read(i: &mut Instr) -> Option<&mut u32> {
    match i {
        Instr::Op(_, args, ..) | Instr::Call(_, _, args, _) | Instr::Tailcall(_, args) => {
            args.first_mut()
        }
        Instr::Load(AddrMode::Based(r, _), ..) | Instr::Store(_, r, _) => Some(r),
        Instr::Cond(_, r, ..) | Instr::CondImm(_, r, ..) | Instr::Print(r, _) => Some(r),
        Instr::Return(r) => r.as_mut(),
        _ => None,
    }
}

fn rtl_corrupt(i: &mut Instr, family: Family, stack: u64) -> bool {
    match (family, i) {
        (Dangling, i) => {
            i.map_succs(|_| BAD_NODE);
            true
        }
        (Undefined, i) => rtl_read(i).map(|r| *r = UNDEF_REG).is_some(),
        (Arity, Instr::Op(_, args, ..)) => break_arity(args, 0),
        (
            OutOfBounds,
            Instr::Op(Op::AddrStack(s), ..)
            | Instr::Load(AddrMode::Stack(s), ..)
            | Instr::Store(AddrMode::Stack(s), ..),
        ) => set(s, stack + 3),
        (CallArity, Instr::Call(_, _, args, _) | Instr::Tailcall(_, args)) => dup_first(args),
        _ => false,
    }
}

/// The first location an LTL instruction reads.
fn ltl_read(i: &mut ltl::Instr) -> Option<&mut Loc> {
    use ltl::Instr as L;
    match i {
        L::Op(_, args, ..) | L::Call(_, _, args, _) | L::Tailcall(_, args) => args.first_mut(),
        L::Load(AddrMode::Based(l, _), ..) | L::Store(_, l, _) => Some(l),
        L::Cond(_, l, ..) | L::CondImm(_, l, ..) | L::Print(l, _) => Some(l),
        L::Return(l) => l.as_mut(),
        _ => None,
    }
}

/// `spill` is the first slot past the function's spill area; an
/// `Undefined` read of it is in bounds once the caller grows the area.
fn ltl_corrupt(i: &mut ltl::Instr, family: Family, stack: u64, spill: u32) -> bool {
    use ltl::Instr as L;
    match (family, i) {
        (Dangling, i) => {
            i.map_succs(|_| BAD_NODE);
            true
        }
        (Undefined, i) => ltl_read(i).map(|l| *l = Loc::Spill(spill)).is_some(),
        (Arity, L::Op(_, args, ..)) => break_arity(args, Loc::Spill(0)),
        (
            OutOfBounds,
            L::Op(Op::AddrStack(s), ..)
            | L::Load(AddrMode::Stack(s), ..)
            | L::Store(AddrMode::Stack(s), ..),
        ) => set(s, stack + 3),
        (OutOfBounds, i) => ltl_read(i).map(|l| *l = Loc::Spill(spill + 7)).is_some(),
        (CallArity, L::Call(_, _, args, _) | L::Tailcall(_, args)) => dup_first(args),
        _ => false,
    }
}

fn linear_read(i: &mut linear::Instr) -> Option<&mut Loc> {
    use linear::Instr as L;
    match i {
        L::Op(_, args, _) | L::Call(_, _, args) | L::Tailcall(_, args) => args.first_mut(),
        L::Load(AddrMode::Based(l, _), _) | L::Store(_, l) => Some(l),
        L::CondJump(_, l, ..) | L::CondImmJump(_, l, ..) | L::Print(l) => Some(l),
        L::Return(l) => l.as_mut(),
        _ => None,
    }
}

/// As [`ltl_corrupt`], for Linear.
fn linear_corrupt(i: &mut linear::Instr, family: Family, stack: u64, spill: u32) -> bool {
    use linear::Instr as L;
    match (family, i) {
        (Label, L::CondJump(.., l) | L::CondImmJump(.., l) | L::Goto(l)) => set(l, BAD_LABEL),
        (Undefined, i) => linear_read(i).map(|l| *l = Loc::Spill(spill)).is_some(),
        (Arity, L::Op(_, args, _)) => break_arity(args, Loc::Spill(0)),
        (
            OutOfBounds,
            L::Op(Op::AddrStack(s), ..)
            | L::Load(AddrMode::Stack(s), _)
            | L::Store(AddrMode::Stack(s), _),
        ) => set(s, stack + 3),
        (OutOfBounds, i) => linear_read(i).map(|l| *l = Loc::Spill(spill + 7)).is_some(),
        (CallArity, L::Call(_, _, args) | L::Tailcall(_, args)) => dup_first(args),
        _ => false,
    }
}

fn mach_corrupt(i: &mut mach::Instr, family: Family, frame: u64) -> bool {
    use mach::Instr as M;
    match (family, i) {
        (Label, M::CondJump(.., l) | M::CondImmJump(.., l) | M::Goto(l)) => set(l, BAD_LABEL),
        (Arity, M::Op(_, args, _)) => break_arity(args, Reg::Eax),
        (
            OutOfBounds,
            M::Op(Op::AddrStack(s), ..)
            | M::Load(AddrMode::Stack(s), _)
            | M::Store(AddrMode::Stack(s), _),
        ) => set(s, frame + 3),
        (CallArity, M::Call(_, n) | M::Tailcall(_, n)) => {
            *n += 1;
            true
        }
        _ => false,
    }
}

fn asm_corrupt(i: &mut asm::Instr, family: Family, frame: u64) -> bool {
    use asm::{Instr as A, MemArg};
    match (family, i) {
        (Label, A::Jmp(l) | A::Jcc(_, l)) => set(l, "nowhere".into()),
        (
            OutOfBounds,
            A::Load(_, MemArg::Stack(s))
            | A::Lea(_, MemArg::Stack(s))
            | A::Store(MemArg::Stack(s), _)
            | A::LockCmpxchg(MemArg::Stack(s), _),
        ) => set(s, frame + 3),
        (CallArity, A::Call(_, n)) => {
            *n += 1;
            true
        }
        _ => false,
    }
}

/// Applies a `family` corruption to the `k`-th site of stage `stage`
/// (an index into [`SWEEP`]); false when the stage has no such site.
/// Sites run over functions in name order, body-level sites before the
/// instructions of each body.
fn corrupt(a: &mut CompilationArtifacts, stage: usize, family: Family, k: usize) -> bool {
    let mut nth = Nth { k, hit: false };
    match stage {
        0 => {
            for f in a.clight.funcs.values_mut() {
                if family == OutOfBounds {
                    nth.visit(&mut f.vars, dup_first);
                    nth.visit(&mut f.params, dup_first);
                }
                clight_stmts(&mut f.body, &mut |s| match family {
                    Undefined => clight_rvalues(s)
                        .into_iter()
                        .for_each(|e| nth.visit(e, |e| set(e, CExpr::temp("t_undef")))),
                    CallArity => nth.visit(s, |s| match s {
                        CStmt::Call(_, _, args) => dup_first(args),
                        _ => false,
                    }),
                    _ => {}
                });
            }
        }
        1 => {
            for f in a.cminor.funcs.values_mut() {
                if family == OutOfBounds {
                    nth.visit(&mut f.stack_slots, |s| set(s, 0));
                }
                let slots = f.stack_slots;
                sem_stmts(&mut f.body, &mut |s| match family {
                    CallArity => nth.visit(s, sem_call_over_arity),
                    _ => sem_exprs(s).into_iter().for_each(|e| {
                        nth.visit(e, |e| match (family, e) {
                            (Undefined, e) => set(e, cminor::Expr::Temp("t_undef".into())),
                            (OutOfBounds, cminor::Expr::AddrStack(s)) => set(s, slots + 3),
                            _ => false,
                        })
                    }),
                });
            }
        }
        2 => {
            for f in a.cminorsel.funcs.values_mut() {
                let slots = f.stack_slots;
                sem_stmts(&mut f.body, &mut |s| match family {
                    CallArity => nth.visit(s, sem_call_over_arity),
                    _ => sem_exprs(s).into_iter().for_each(|e| {
                        nth.visit(e, |e| match (family, e) {
                            (Undefined, e) => set(e, cminorsel::Expr::Temp("t_undef".into())),
                            (Arity, cminorsel::Expr::Op(_, args)) => {
                                break_arity(args, cminorsel::Expr::Temp("t0".into()))
                            }
                            (
                                OutOfBounds,
                                cminorsel::Expr::Op(Op::AddrStack(s), _)
                                | cminorsel::Expr::Load(AddrMode::Stack(s)),
                            ) => set(s, slots + 3),
                            _ => false,
                        })
                    }),
                });
            }
        }
        3..=6 => {
            let m = match stage {
                3 => &mut a.rtl,
                4 => &mut a.rtl_tailcall,
                5 => &mut a.rtl_renumber,
                _ => a.rtl_constprop.as_mut().expect("optimizing pipeline"),
            };
            for f in m.funcs.values_mut() {
                if family == Dangling {
                    nth.visit(&mut f.entry, |e| set(e, BAD_NODE));
                }
                let stack = f.stack_slots;
                f.code
                    .values_mut()
                    .for_each(|i| nth.visit(i, |i| rtl_corrupt(i, family, stack)));
            }
        }
        7 | 8 => {
            let m = if stage == 7 {
                &mut a.ltl
            } else {
                &mut a.ltl_tunneled
            };
            for f in m.funcs.values_mut() {
                let before = nth.hit;
                if family == Dangling {
                    nth.visit(&mut f.entry, |e| set(e, BAD_NODE));
                }
                let (stack, spill) = (f.stack_slots, f.spill_slots);
                f.code
                    .values_mut()
                    .for_each(|i| nth.visit(i, |i| ltl_corrupt(i, family, stack, spill)));
                if family == Undefined && nth.hit && !before {
                    f.spill_slots += 1;
                }
            }
        }
        9 | 10 => {
            let m = if stage == 9 {
                &mut a.linear
            } else {
                &mut a.linear_clean
            };
            for f in m.funcs.values_mut() {
                let before = nth.hit;
                body_sites(&mut nth, &mut f.code, family, |i| {
                    matches!(i, linear::Instr::Label(_))
                });
                let (stack, spill) = (f.stack_slots, f.spill_slots);
                f.code
                    .iter_mut()
                    .for_each(|i| nth.visit(i, |i| linear_corrupt(i, family, stack, spill)));
                if family == Undefined && nth.hit && !before {
                    f.spill_slots += 1;
                }
            }
        }
        11 => {
            for f in a.mach.funcs.values_mut() {
                body_sites(&mut nth, &mut f.code, family, |i| {
                    matches!(i, mach::Instr::Label(_))
                });
                let frame = f.frame_slots;
                f.code
                    .iter_mut()
                    .for_each(|i| nth.visit(i, |i| mach_corrupt(i, family, frame)));
            }
        }
        _ => {
            for f in a.asm.funcs.values_mut() {
                body_sites(&mut nth, &mut f.code, family, |i| {
                    matches!(i, asm::Instr::Label(_))
                });
                let frame = f.frame_slots;
                f.code
                    .iter_mut()
                    .for_each(|i| nth.visit(i, |i| asm_corrupt(i, family, frame)));
            }
        }
    }
    nth.hit
}

/// Deterministic structural corruptions of every stage of the
/// optimizing pipeline, over generated programs with branches, loops
/// and calls. Each must be rejected, only by the passes on either side
/// of the broken stage, and validation must not panic.
#[test]
fn structural_corruptions_are_rejected_without_panicking() {
    const SEEDS: [u64; 2] = [45, 51];
    const SITES: usize = 3;
    let cfg = GenCfg {
        helpers: 2,
        ..GenCfg::default()
    };
    let mut fired = BTreeMap::new();
    let mut failures = Vec::new();
    for seed in SEEDS {
        let (m, _) = gen_module(seed, &cfg);
        let clean = compile_with_artifacts_mutated(&m, None).expect("compiles");
        let w = validate_artifacts(&clean);
        assert!(w.ok(), "seed {seed}: baseline rejected:\n{w}");
        for (stage, (name, allowed, families)) in SWEEP.iter().enumerate() {
            for &family in *families {
                for k in 0..SITES {
                    let mut arts = clean.clone();
                    if !corrupt(&mut arts, stage, family, k) {
                        break;
                    }
                    *fired.entry((*name, family)).or_insert(0) += 1;
                    let case = format!("seed {seed}, {name}, {family:?} site {k}");
                    match catch_unwind(AssertUnwindSafe(|| validate_artifacts(&arts))) {
                        Err(_) => failures.push(format!("{case}: validation panicked")),
                        Ok(w) => {
                            let rejected: Vec<&str> =
                                w.rejected().map(|sw| sw.pass.as_str()).collect();
                            if rejected.is_empty() {
                                failures.push(format!("{case}: accepted"));
                            } else if !rejected.iter().all(|p| allowed.contains(p)) {
                                failures.push(format!("{case}: rejected at {rejected:?}"));
                            }
                        }
                    }
                }
            }
        }
    }
    let total: usize = fired.values().sum();
    assert!(
        failures.is_empty(),
        "{} of {total} corruptions mishandled:\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert!(total >= 300, "only {total} corruptions ran");
    for (name, _, families) in SWEEP {
        for &family in families {
            assert!(
                fired.contains_key(&(name, family)),
                "{name} {family:?}: no program has a site for it"
            );
        }
    }
}
