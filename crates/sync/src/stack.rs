//! The Treiber stack \[30\]: a lock-free x86 implementation with benign
//! races, and its atomic CImp specification — the paper's example of
//! generalizing the extended framework beyond locks (§2.4: "πo could be
//! the Treiber stack implementation, and γo an atomic abstract stack").
//!
//! Representation (shared by spec and implementation):
//!
//! * `head` — the top node (`0` when empty);
//! * `nodes` — a pool of `2·CAPACITY` words (`[value, next]` pairs);
//! * `alloc` — bump index into the pool (nodes are never freed, so ABA
//!   does not arise).
//!
//! The implementation allocates a node by a CAS-based fetch-and-add on
//! `alloc`, initializes it (exclusively — the index is unique), then
//! publishes it with a CAS on `head`. The plain reads of `head`/`alloc`
//! in the retry loops race benignly with the locked writes, exactly
//! like the TTAS lock's spin read.

use ccc_cimp::{BinOp, CImpModule, Expr, Func, Stmt};
use ccc_core::mem::{GlobalEnv, Val};
use ccc_machine::{AsmFunc, AsmModule, Cond, Instr, MemArg, Operand, Reg};

/// Maximum number of pushes the node pool supports.
pub const CAPACITY: i64 = 8;

/// Base address of the stack object's globals.
pub const STACK_GLOBALS_BASE: u64 = 0x2000;

/// The value `pop` returns on an empty stack.
pub const EMPTY: i64 = -1;

fn stack_ge() -> GlobalEnv {
    let mut ge = GlobalEnv::with_base(STACK_GLOBALS_BASE);
    ge.define("stack_head", Val::Int(0));
    ge.define("stack_alloc", Val::Int(0));
    ge.define_block("stack_nodes", &vec![Val::Int(0); (2 * CAPACITY) as usize]);
    ge
}

/// The atomic CImp stack specification `γ_stack`: `push(v)` and `pop()`
/// whole-operation atomic blocks over the shared representation.
pub fn stack_spec() -> (CImpModule, GlobalEnv) {
    let head = || Expr::global("stack_head");
    let alloc = || Expr::global("stack_alloc");
    let nodes = || Expr::global("stack_nodes");
    let add = |a, b| Expr::Bin(BinOp::Add, Box::new(a), Box::new(b));
    let mul2 = |a| Expr::Bin(BinOp::Mul, Box::new(a), Box::new(Expr::Int(2)));

    // push(v) {
    //   < i := [alloc]; assert(i < CAP); [alloc] := i + 1;
    //     n := &nodes + 2*i; [n] := v; [n+1] := [head]; [head] := n; >
    //   return 0; }
    let push = Func {
        params: vec!["v".into()],
        body: Stmt::seq([
            Stmt::atomic(Stmt::seq([
                Stmt::Load("i".into(), alloc()),
                Stmt::Assert(Expr::Bin(
                    BinOp::Lt,
                    Box::new(Expr::reg("i")),
                    Box::new(Expr::Int(CAPACITY)),
                )),
                Stmt::Store(alloc(), add(Expr::reg("i"), Expr::Int(1))),
                Stmt::Assign("n".into(), add(nodes(), mul2(Expr::reg("i")))),
                Stmt::Store(Expr::reg("n"), Expr::reg("v")),
                Stmt::Load("h".into(), head()),
                Stmt::Store(add(Expr::reg("n"), Expr::Int(1)), Expr::reg("h")),
                Stmt::Store(head(), Expr::reg("n")),
            ])),
            Stmt::Return(Expr::Int(0)),
        ]),
    };

    // pop() {
    //   < h := [head];
    //     if (h == 0) { r := EMPTY } else { [head] := [h+1]; r := [h]; } >
    //   return r; }
    let pop = Func {
        params: vec![],
        body: Stmt::seq([
            Stmt::atomic(Stmt::if_else(
                Expr::eq(Expr::reg("h"), Expr::reg("h")), // placeholder, replaced below
                Stmt::Skip,
                Stmt::Skip,
            )),
            Stmt::Return(Expr::reg("r")),
        ]),
    };
    // Build pop's real body (the placeholder above keeps rustfmt tidy).
    let pop = Func {
        body: Stmt::seq([
            Stmt::atomic(Stmt::seq([
                Stmt::Load("h".into(), head()),
                Stmt::if_else(
                    Expr::eq(Expr::reg("h"), Expr::Int(0)),
                    Stmt::Assign("r".into(), Expr::Int(EMPTY)),
                    Stmt::seq([
                        Stmt::Load("nx".into(), add(Expr::reg("h"), Expr::Int(1))),
                        Stmt::Store(head(), Expr::reg("nx")),
                        Stmt::Load("r".into(), Expr::reg("h")),
                    ]),
                ),
            ])),
            Stmt::Return(Expr::reg("r")),
        ]),
        ..pop
    };

    (CImpModule::new([("push", push), ("pop", pop)]), stack_ge())
}

/// The lock-free x86 Treiber stack `π_stack`.
pub fn stack_impl() -> (AsmModule, GlobalEnv) {
    let head = |o| MemArg::Global("stack_head".to_string(), o);
    let alloc = |o| MemArg::Global("stack_alloc".to_string(), o);

    // push(v in %edi):
    //   mov eax, [alloc]
    // retry_idx:
    //   mov ebx, eax; add ebx, 1
    //   lock cmpxchg [alloc], ebx      ; eax := old on failure
    //   jne retry_idx
    //   cmp eax, CAP; jge overflow
    //   lea ecx, nodes; mov ebx, eax; imul ebx, 2; add ecx, ebx
    //   mov [ecx], edi                 ; node.value (exclusive)
    //   mov eax, [head]
    // retry_pub:
    //   mov [ecx+1], eax               ; node.next := head snapshot
    //   mov ebx, ecx
    //   lock cmpxchg [head], ebx
    //   jne retry_pub
    //   mov eax, 0; ret
    // overflow: div-by-zero abort (assert in the spec)
    let push = AsmFunc {
        code: vec![
            Instr::Load(Reg::Eax, alloc(0)),
            Instr::Label("retry_idx".into()),
            Instr::Mov(Reg::Ebx, Operand::Reg(Reg::Eax)),
            Instr::Add(Reg::Ebx, Operand::Imm(1)),
            Instr::LockCmpxchg(alloc(0), Reg::Ebx),
            Instr::Jcc(Cond::Ne, "retry_idx".into()),
            Instr::Cmp(Operand::Reg(Reg::Eax), Operand::Imm(CAPACITY)),
            Instr::Jcc(Cond::Ge, "overflow".into()),
            Instr::Lea(Reg::Ecx, MemArg::Global("stack_nodes".into(), 0)),
            Instr::Mov(Reg::Ebx, Operand::Reg(Reg::Eax)),
            Instr::Imul(Reg::Ebx, Operand::Imm(2)),
            Instr::Add(Reg::Ecx, Operand::Reg(Reg::Ebx)),
            Instr::Store(MemArg::BaseDisp(Reg::Ecx, 0), Operand::Reg(Reg::Edi)),
            Instr::Load(Reg::Eax, head(0)),
            Instr::Label("retry_pub".into()),
            Instr::Store(MemArg::BaseDisp(Reg::Ecx, 1), Operand::Reg(Reg::Eax)),
            Instr::Mov(Reg::Ebx, Operand::Reg(Reg::Ecx)),
            Instr::LockCmpxchg(head(0), Reg::Ebx),
            Instr::Jcc(Cond::Ne, "retry_pub".into()),
            Instr::Mov(Reg::Eax, Operand::Imm(0)),
            Instr::Ret,
            Instr::Label("overflow".into()),
            Instr::Mov(Reg::Eax, Operand::Imm(1)),
            Instr::Idiv(Reg::Eax, Operand::Imm(0)),
            Instr::Ret,
        ],
        frame_slots: 0,
        arity: 1,
    };

    // pop():
    //   mov eax, [head]
    // retry:
    //   cmp eax, 0; je empty
    //   mov ebx, [eax+1]               ; next
    //   lock cmpxchg [head], ebx       ; CAS(head, snapshot, next)
    //   jne retry
    //   mov eax, [eax]                 ; value of the popped node
    //   ret
    // empty: mov eax, EMPTY; ret
    let pop = AsmFunc {
        code: vec![
            Instr::Load(Reg::Eax, head(0)),
            Instr::Label("retry".into()),
            Instr::Cmp(Operand::Reg(Reg::Eax), Operand::Imm(0)),
            Instr::Jcc(Cond::E, "empty".into()),
            Instr::Load(Reg::Ebx, MemArg::BaseDisp(Reg::Eax, 1)),
            Instr::LockCmpxchg(head(0), Reg::Ebx),
            Instr::Jcc(Cond::Ne, "retry".into()),
            Instr::Load(Reg::Eax, MemArg::BaseDisp(Reg::Eax, 0)),
            Instr::Ret,
            Instr::Label("empty".into()),
            Instr::Mov(Reg::Eax, Operand::Imm(EMPTY)),
            Instr::Ret,
        ],
        frame_slots: 0,
        arity: 0,
    };

    (AsmModule::new([("push", push), ("pop", pop)]), stack_ge())
}

/// The stack as a [`crate::drf_guarantee::SyncObject`].
pub fn stack_object() -> crate::drf_guarantee::SyncObject {
    let (spec, spec_ge) = stack_spec();
    let (impl_asm, impl_ge) = stack_impl();
    crate::drf_guarantee::SyncObject {
        spec,
        spec_ge,
        impl_asm,
        impl_ge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drf_guarantee::check_drf_guarantee;
    use ccc_cimp::CImpLang;
    use ccc_core::lang::Prog;
    use ccc_core::refine::ExploreCfg;
    use ccc_core::world::{run_sequential, Loaded, RunEnd};
    use ccc_machine::X86Sc;

    #[test]
    fn spec_lifo_order_sequential() {
        // One thread: push 1; push 2; print(pop); print(pop); print(pop).
        let main = Func {
            params: vec![],
            body: Stmt::seq([
                Stmt::CallExt("z".into(), "push".into(), vec![Expr::Int(1)]),
                Stmt::CallExt("z".into(), "push".into(), vec![Expr::Int(2)]),
                Stmt::CallExt("a".into(), "pop".into(), vec![]),
                Stmt::Print(Expr::reg("a")),
                Stmt::CallExt("b".into(), "pop".into(), vec![]),
                Stmt::Print(Expr::reg("b")),
                Stmt::CallExt("c".into(), "pop".into(), vec![]),
                Stmt::Print(Expr::reg("c")),
                Stmt::Return(Expr::Int(0)),
            ]),
        };
        let (spec, spec_ge) = stack_spec();
        let clients = CImpModule::new([("main", main)]);
        let prog = Prog::new(
            CImpLang,
            vec![(clients, GlobalEnv::new()), (spec, spec_ge)],
            ["main"],
        );
        let loaded = Loaded::new(prog).expect("link");
        let r = run_sequential(&loaded, 10_000).expect("runs");
        assert_eq!(r.end, RunEnd::Done);
        use ccc_core::lang::Event::Print;
        assert_eq!(r.events, vec![Print(2), Print(1), Print(EMPTY)]);
    }

    #[test]
    fn impl_lifo_order_sequential() {
        let (imp, ge) = stack_impl();
        let main = AsmFunc {
            code: vec![
                Instr::Mov(Reg::Edi, Operand::Imm(1)),
                Instr::Call("push".into(), 1),
                Instr::Mov(Reg::Edi, Operand::Imm(2)),
                Instr::Call("push".into(), 1),
                Instr::Call("pop".into(), 0),
                Instr::Print(Reg::Eax),
                Instr::Call("pop".into(), 0),
                Instr::Print(Reg::Eax),
                Instr::Call("pop".into(), 0),
                Instr::Print(Reg::Eax),
                Instr::Mov(Reg::Eax, Operand::Imm(0)),
                Instr::Ret,
            ],
            frame_slots: 0,
            arity: 0,
        };
        let m = AsmModule::new([("main", main)]).link(&imp).expect("links");
        let prog = Prog::new(X86Sc, vec![(m, ge)], ["main"]);
        let loaded = Loaded::new(prog).expect("load");
        let r = run_sequential(&loaded, 10_000).expect("runs");
        assert_eq!(r.end, RunEnd::Done);
        use ccc_core::lang::Event::Print;
        assert_eq!(r.events, vec![Print(2), Print(1), Print(EMPTY)]);
    }

    #[test]
    fn lemma16_holds_for_concurrent_pushers() {
        // Two threads pushing distinct values then popping once each:
        // the TSO Treiber stack must refine the atomic spec.
        let client = |v: i64| AsmFunc {
            code: vec![
                Instr::Mov(Reg::Edi, Operand::Imm(v)),
                Instr::Call("push".into(), 1),
                Instr::Call("pop".into(), 0),
                Instr::Print(Reg::Eax),
                Instr::Mov(Reg::Eax, Operand::Imm(0)),
                Instr::Ret,
            ],
            frame_slots: 0,
            arity: 0,
        };
        let clients = AsmModule::new([("t1", client(1)), ("t2", client(2))]);
        let ge = GlobalEnv::new();
        let entries = vec!["t1".to_string(), "t2".to_string()];
        let cfg = ExploreCfg {
            fuel: 220,
            max_states: 4_000_000,
            ..Default::default()
        };
        let report =
            check_drf_guarantee(&clients, &ge, &entries, &stack_object(), &cfg).expect("checks");
        assert!(report.safe_sc, "spec-level program must be safe");
        assert!(report.drf_sc, "spec-level program must be DRF");
        assert!(report.refines, "Treiber under TSO refines the atomic stack");
    }
}
