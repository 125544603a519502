//! First-order fuzz-program representation and its lowering to Clight.
//!
//! The fuzzer does not generate [`ccc_clight::ast`] trees directly:
//! instead it generates a small first-order [`FuzzProgram`] value whose
//! every instance lowers to a *well-formed* Clight module (temporaries
//! initialized, addressable locals assigned before use, loops bounded,
//! lock/unlock always balanced). Keeping the representation first-order
//! is what makes the delta-debugging shrinker ([`crate::shrink()`]) and
//! the textual regression corpus ([`crate::corpus`]) simple: every
//! structural edit of a `FuzzProgram` is again a valid program.

use ccc_clight::ast::{Binop, ClightModule, Expr, Function, Stmt, Unop};
use ccc_core::mem::{GlobalEnv, Val};

/// Number of integer temporaries (`t0..`) every generated thread owns.
pub const NUM_TEMPS: u8 = 4;
/// Number of addressable locals (`v0..`) every generated thread owns.
pub const NUM_VARS: u8 = 2;

/// Binary operators of the fuzz expression language (a subset of
/// [`Binop`] that avoids division, whose UB makes differential runs
/// abort-heavy).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum SBin {
    Add,
    Sub,
    Mul,
    Eq,
    Ne,
    Lt,
    Le,
    And,
    Or,
    Xor,
}

impl SBin {
    /// All operators, for the generator to index into.
    pub const ALL: [SBin; 10] = [
        SBin::Add,
        SBin::Sub,
        SBin::Mul,
        SBin::Eq,
        SBin::Ne,
        SBin::Lt,
        SBin::Le,
        SBin::And,
        SBin::Or,
        SBin::Xor,
    ];

    /// The corresponding Clight operator.
    #[must_use]
    pub fn to_binop(self) -> Binop {
        match self {
            SBin::Add => Binop::Add,
            SBin::Sub => Binop::Sub,
            SBin::Mul => Binop::Mul,
            SBin::Eq => Binop::Eq,
            SBin::Ne => Binop::Ne,
            SBin::Lt => Binop::Lt,
            SBin::Le => Binop::Le,
            SBin::And => Binop::And,
            SBin::Or => Binop::Or,
            SBin::Xor => Binop::Xor,
        }
    }

    /// Lower-case token used by the textual corpus format.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            SBin::Add => "add",
            SBin::Sub => "sub",
            SBin::Mul => "mul",
            SBin::Eq => "eq",
            SBin::Ne => "ne",
            SBin::Lt => "lt",
            SBin::Le => "le",
            SBin::And => "and",
            SBin::Or => "or",
            SBin::Xor => "xor",
        }
    }
}

/// A fuzz expression. Indices are taken modulo the available resource
/// counts at lowering time, so *every* `SExpr` value is lowerable — the
/// shrinker never has to re-validate after an edit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SExpr {
    /// An integer literal.
    Const(i64),
    /// Temporary `t{i mod NUM_TEMPS}`.
    Temp(u8),
    /// Addressable local `v{i mod NUM_VARS}`.
    Var(u8),
    /// Shared global `g{i mod globals}` (falls back to a constant when
    /// the program declares no globals).
    Global(u8),
    /// Arithmetic negation.
    Neg(Box<SExpr>),
    /// Logical negation.
    Not(Box<SExpr>),
    /// A binary operation.
    Bin(SBin, Box<SExpr>, Box<SExpr>),
}

/// A fuzz statement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SStmt {
    /// `t{i} = e`.
    SetTemp(u8, SExpr),
    /// `v{i} = e`.
    SetVar(u8, SExpr),
    /// `g{i} = e`.
    SetGlobal(u8, SExpr),
    /// `p = &v{i}; *p = e` — a pointer roundtrip through an addressable
    /// local (the pointer lives in the dedicated temporary `p`).
    PtrWrite(u8, SExpr),
    /// `print(e)`.
    Print(SExpr),
    /// `if (e) { … } else { … }`.
    If(SExpr, Vec<SStmt>, Vec<SStmt>),
    /// A bounded counting loop running the body `n` times (`n` is
    /// clamped to `0..=4` at lowering, so programs always terminate).
    Loop(u8, Vec<SStmt>),
    /// `t{dst} = h{i}(e)` — call a pure helper, keeping the result.
    Call(u8, u8, SExpr),
    /// `h{i}(e)` — call a pure helper, discarding the result (the shape
    /// the Tailcall pass rewrites).
    CallDrop(u8, SExpr),
    /// `lock(); … unlock()` — a balanced critical section. Lock calls
    /// only ever appear through this constructor, so deleting or
    /// unwrapping statements can never unbalance the lock discipline.
    Locked(Vec<SStmt>),
}

/// A pure helper function `h{i}`: a fold of wrapping binary operations
/// over the single parameter `x`. Helpers have no locals, no globals,
/// no prints and no aborts, so a call site never changes the
/// abort-freedom of its caller.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct HelperSpec {
    /// The operation chain applied to the parameter.
    pub ops: Vec<(SBin, i64)>,
}

/// A whole fuzz program: shared globals, pure helpers, and one body per
/// thread. `threads.len() == 1` without [`SStmt::Locked`] is the
/// *sequential* shape driven through every IR interpreter; anything
/// else is the *concurrent* shape linked against the CImp lock object.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FuzzProgram {
    /// Number of shared globals `g0..` (initialized to `1, 2, …` so
    /// collapsing two globals is observable).
    pub globals: u8,
    /// Pure helpers callable from any thread.
    pub helpers: Vec<HelperSpec>,
    /// One statement list per thread.
    pub threads: Vec<Vec<SStmt>>,
}

impl FuzzProgram {
    /// True when any statement (recursively) is a [`SStmt::Locked`]
    /// section — such programs need the CImp lock object linked in.
    #[must_use]
    pub fn uses_lock(&self) -> bool {
        fn any_locked(ss: &[SStmt]) -> bool {
            ss.iter().any(|s| match s {
                SStmt::Locked(_) => true,
                SStmt::If(_, a, b) => any_locked(a) || any_locked(b),
                SStmt::Loop(_, b) => any_locked(b),
                _ => false,
            })
        }
        self.threads.iter().any(|t| any_locked(t))
    }

    /// True when the program can be driven through the per-stage
    /// sequential oracle (single thread, no lock object needed).
    #[must_use]
    pub fn is_sequential(&self) -> bool {
        self.threads.len() == 1 && !self.uses_lock()
    }

    /// Total number of statements, counted recursively — the size the
    /// shrinker minimizes.
    #[must_use]
    pub fn size(&self) -> usize {
        fn count(ss: &[SStmt]) -> usize {
            ss.iter()
                .map(|s| match s {
                    SStmt::If(_, a, b) => 1 + count(a) + count(b),
                    SStmt::Loop(_, b) | SStmt::Locked(b) => 1 + count(b),
                    _ => 1,
                })
                .sum()
        }
        self.threads.iter().map(|t| count(t)).sum()
    }
}

fn temp_name(i: u8) -> String {
    format!("t{}", i % NUM_TEMPS)
}

fn var_name(i: u8) -> String {
    format!("v{}", i % NUM_VARS)
}

fn global_name(p: &FuzzProgram, px: &str, i: u8) -> Option<String> {
    if p.globals == 0 {
        None
    } else {
        Some(format!("{px}g{}", i % p.globals))
    }
}

fn helper_name(p: &FuzzProgram, px: &str, i: u8) -> Option<String> {
    if p.helpers.is_empty() {
        None
    } else {
        Some(format!("{px}h{}", i as usize % p.helpers.len()))
    }
}

fn lower_expr(p: &FuzzProgram, px: &str, e: &SExpr) -> Expr {
    match e {
        SExpr::Const(k) => Expr::Const(*k),
        SExpr::Temp(i) => Expr::temp(temp_name(*i)),
        SExpr::Var(i) => Expr::var(var_name(*i)),
        SExpr::Global(i) => match global_name(p, px, *i) {
            Some(g) => Expr::var(g),
            None => Expr::Const(i64::from(*i)),
        },
        SExpr::Neg(a) => Expr::Unop(Unop::Neg, Box::new(lower_expr(p, px, a))),
        SExpr::Not(a) => Expr::Unop(Unop::Not, Box::new(lower_expr(p, px, a))),
        SExpr::Bin(op, a, b) => {
            Expr::bin(op.to_binop(), lower_expr(p, px, a), lower_expr(p, px, b))
        }
    }
}

fn lower_stmt(p: &FuzzProgram, px: &str, s: &SStmt, loop_id: &mut usize) -> Stmt {
    match s {
        SStmt::SetTemp(i, e) => Stmt::Set(temp_name(*i), lower_expr(p, px, e)),
        SStmt::SetVar(i, e) => Stmt::Assign(Expr::var(var_name(*i)), lower_expr(p, px, e)),
        SStmt::SetGlobal(i, e) => match global_name(p, px, *i) {
            Some(g) => Stmt::Assign(Expr::var(g), lower_expr(p, px, e)),
            None => Stmt::Skip,
        },
        SStmt::PtrWrite(i, e) => Stmt::seq([
            Stmt::Set("p".into(), Expr::Addrof(Box::new(Expr::var(var_name(*i))))),
            Stmt::Assign(Expr::Deref(Box::new(Expr::temp("p"))), lower_expr(p, px, e)),
        ]),
        SStmt::Print(e) => Stmt::Print(lower_expr(p, px, e)),
        SStmt::If(c, a, b) => Stmt::if_else(
            lower_expr(p, px, c),
            lower_block(p, px, a, loop_id),
            lower_block(p, px, b, loop_id),
        ),
        SStmt::Loop(n, body) => {
            // i = n; while (0 < i) { i = i - 1; body } — the `0 < i`
            // guard is a deliberate `Lt` whose operands meet at the
            // loop exit, so an off-by-one comparison in the back end
            // runs one extra iteration.
            let i = format!("loop{}", {
                *loop_id += 1;
                *loop_id
            });
            let k = i64::from((*n).min(4));
            Stmt::seq([
                Stmt::Set(i.clone(), Expr::Const(k)),
                Stmt::while_loop(
                    Expr::bin(Binop::Lt, Expr::Const(0), Expr::temp(i.clone())),
                    Stmt::seq([
                        Stmt::Set(
                            i.clone(),
                            Expr::bin(Binop::Sub, Expr::temp(i.clone()), Expr::Const(1)),
                        ),
                        lower_block(p, px, body, loop_id),
                    ]),
                ),
            ])
        }
        SStmt::Call(dst, h, e) => match helper_name(p, px, *h) {
            Some(h) => Stmt::Call(Some(temp_name(*dst)), h, vec![lower_expr(p, px, e)]),
            None => Stmt::Set(temp_name(*dst), lower_expr(p, px, e)),
        },
        SStmt::CallDrop(h, e) => match helper_name(p, px, *h) {
            Some(h) => Stmt::Call(None, h, vec![lower_expr(p, px, e)]),
            None => Stmt::Skip,
        },
        SStmt::Locked(body) => Stmt::seq([
            Stmt::call0("lock", vec![]),
            lower_block(p, px, body, loop_id),
            Stmt::call0("unlock", vec![]),
        ]),
    }
}

fn lower_block(p: &FuzzProgram, px: &str, ss: &[SStmt], loop_id: &mut usize) -> Stmt {
    Stmt::seq(ss.iter().map(|s| lower_stmt(p, px, s, loop_id)))
}

fn lower_thread(p: &FuzzProgram, px: &str, body: &[SStmt]) -> Function {
    let mut stmts = Vec::new();
    for i in 0..NUM_TEMPS {
        stmts.push(Stmt::Set(temp_name(i), Expr::Const(0)));
    }
    for i in 0..NUM_VARS {
        stmts.push(Stmt::Assign(Expr::var(var_name(i)), Expr::Const(0)));
    }
    let mut loop_id = 0;
    stmts.push(lower_block(p, px, body, &mut loop_id));
    // Print and return a state summary, to maximize the differential
    // sensitivity of every run.
    let mut ret = Expr::Const(0);
    for i in 0..NUM_TEMPS {
        ret = Expr::add(ret, Expr::temp(temp_name(i)));
    }
    for i in 0..NUM_VARS {
        ret = Expr::add(ret, Expr::var(var_name(i)));
    }
    stmts.push(Stmt::Print(ret.clone()));
    stmts.push(Stmt::Return(Some(ret)));
    Function {
        params: vec![],
        vars: (0..NUM_VARS).map(var_name).collect(),
        body: Stmt::seq(stmts),
    }
}

fn lower_helper(h: &HelperSpec) -> Function {
    let mut e = Expr::temp("x");
    for (op, k) in &h.ops {
        e = Expr::bin(op.to_binop(), e, Expr::Const(*k));
    }
    Function {
        params: vec!["x".into()],
        vars: vec![],
        body: Stmt::Return(Some(e)),
    }
}

/// Lowers a [`FuzzProgram`] to a well-formed Clight module, its global
/// environment, and the thread entry points (`thread0`, `thread1`, …).
/// Globals are initialized to distinct small values so collapsing two
/// of them is observable.
#[must_use]
pub fn lower(p: &FuzzProgram) -> (ClightModule, GlobalEnv, Vec<String>) {
    lower_prefixed(p, "", 8)
}

/// Like [`lower`], but namespaced for multi-module programs: every
/// cross-module name — globals `g{i}`, helpers `h{i}`, entries
/// `thread{t}` — is prefixed with `prefix` (e.g. `"m3_"`), and the
/// unit's globals are allocated from `base` upwards so separately
/// lowered units occupy disjoint address ranges and link. Calls to
/// `lock`/`unlock` stay unprefixed: they resolve to the shared
/// concurrent object at link time. Function-local names (temporaries,
/// addressable locals, loop counters) need no namespacing.
#[must_use]
pub fn lower_prefixed(
    p: &FuzzProgram,
    prefix: &str,
    base: u64,
) -> (ClightModule, GlobalEnv, Vec<String>) {
    let mut ge = GlobalEnv::with_base(base);
    for i in 0..p.globals {
        ge.define(format!("{prefix}g{i}"), Val::Int(i64::from(i) + 1));
    }
    let mut funcs = Vec::new();
    let mut entries = Vec::new();
    for (t, body) in p.threads.iter().enumerate() {
        let name = format!("{prefix}thread{t}");
        funcs.push((name.clone(), lower_thread(p, prefix, body)));
        entries.push(name);
    }
    for (i, h) in p.helpers.iter().enumerate() {
        funcs.push((format!("{prefix}h{i}"), lower_helper(h)));
    }
    (ClightModule::new(funcs), ge, entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_clight::ClightLang;
    use ccc_core::world::run_main;

    #[test]
    fn lowered_programs_are_well_formed_and_terminate() {
        let p = FuzzProgram {
            globals: 2,
            helpers: vec![HelperSpec {
                ops: vec![(SBin::Add, 3), (SBin::Mul, 2)],
            }],
            threads: vec![vec![
                SStmt::SetTemp(0, SExpr::Const(5)),
                SStmt::Loop(
                    3,
                    vec![SStmt::SetGlobal(
                        0,
                        SExpr::Bin(
                            SBin::Add,
                            Box::new(SExpr::Global(0)),
                            Box::new(SExpr::Temp(0)),
                        ),
                    )],
                ),
                SStmt::Call(1, 0, SExpr::Temp(0)),
                SStmt::CallDrop(0, SExpr::Const(1)),
                SStmt::PtrWrite(0, SExpr::Const(9)),
                SStmt::If(
                    SExpr::Bin(
                        SBin::Lt,
                        Box::new(SExpr::Const(0)),
                        Box::new(SExpr::Const(1)),
                    ),
                    vec![SStmt::Print(SExpr::Global(1))],
                    vec![],
                ),
            ]],
        };
        assert!(p.is_sequential());
        let (m, ge, entries) = lower(&p);
        m.validate().expect("well-formed");
        let (v, _, ev) =
            run_main(&ClightLang, &m, &ge, &entries[0], &[], 1_000_000).expect("terminates");
        // t0=5, loop adds 5 three times to g0(=1)=16, t1 = h0(5) = 16,
        // v0 = 9 via pointer; print(g1=2); summary = 5+16+9 = 30.
        assert_eq!(v, Val::Int(30));
        assert_eq!(ev.len(), 2, "{ev:?}");
    }

    #[test]
    fn out_of_range_indices_are_wrapped_not_rejected() {
        let p = FuzzProgram {
            globals: 1,
            helpers: vec![],
            threads: vec![vec![
                SStmt::SetTemp(200, SExpr::Global(77)),
                SStmt::SetVar(9, SExpr::Temp(200)),
                SStmt::Call(0, 3, SExpr::Const(1)), // no helpers: degrades to Set
                SStmt::CallDrop(3, SExpr::Const(1)), // no helpers: degrades to Skip
            ]],
        };
        let (m, ge, entries) = lower(&p);
        m.validate().expect("well-formed");
        assert!(run_main(&ClightLang, &m, &ge, &entries[0], &[], 100_000).is_some());
    }

    #[test]
    fn locked_sections_are_detected() {
        let p = FuzzProgram {
            globals: 1,
            helpers: vec![],
            threads: vec![vec![SStmt::Loop(
                2,
                vec![SStmt::Locked(vec![SStmt::SetGlobal(0, SExpr::Const(1))])],
            )]],
        };
        assert!(p.uses_lock());
        assert!(!p.is_sequential());
        assert_eq!(p.size(), 3);
    }
}
