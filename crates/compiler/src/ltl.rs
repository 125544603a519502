//! LTL: RTL after register allocation — instructions operate on
//! *locations*: machine registers or abstract spill slots.
//!
//! Spill slots are still abstract here (an environment, not memory);
//! the `Stacking` pass later maps them to concrete frame offsets. The
//! LTL interpreter instantiates [`Lang`] so the pass can be validated
//! with the framework's simulation checker like every other.

use crate::ops::{AddrMode, Cmp, Op};
use crate::rtl::Node;
use ccc_core::footprint::Footprint;
use ccc_core::lang::{Event, Lang, LocalStep, StepMsg};
use ccc_core::mem::{Addr, FreeList, GlobalEnv, Memory, Val};
use ccc_machine::Reg as MReg;
use std::collections::BTreeMap;

/// A location: a machine register or a spill slot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Loc {
    /// A machine register.
    Reg(MReg),
    /// An abstract spill slot.
    Spill(u32),
}

/// One LTL instruction (the RTL shapes over locations).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Instr {
    /// No-op.
    Nop(Node),
    /// `dst := op(args…)`.
    Op(Op, Vec<Loc>, Loc, Node),
    /// `dst := [mode]`.
    Load(AddrMode<Loc>, Loc, Node),
    /// `[mode] := src`.
    Store(AddrMode<Loc>, Loc, Node),
    /// `dst := f(args…)`; arguments are always spill slots (the
    /// allocator guarantees it, so argument marshalling at `Stacking`
    /// needs no parallel-move solver).
    Call(Option<Loc>, String, Vec<Loc>, Node),
    /// Tail call (same argument convention).
    Tailcall(String, Vec<Loc>),
    /// Two-way branch.
    Cond(Cmp, Loc, Loc, Node, Node),
    /// Two-way branch against an immediate.
    CondImm(Cmp, Loc, i64, Node, Node),
    /// Output.
    Print(Loc, Node),
    /// Return.
    Return(Option<Loc>),
}

impl Instr {
    /// Successor nodes.
    pub fn succs(&self) -> Vec<Node> {
        match self {
            Instr::Nop(n)
            | Instr::Op(.., n)
            | Instr::Load(.., n)
            | Instr::Store(.., n)
            | Instr::Call(.., n)
            | Instr::Print(_, n) => vec![*n],
            Instr::Cond(.., a, b) | Instr::CondImm(.., a, b) => vec![*a, *b],
            Instr::Tailcall(..) | Instr::Return(_) => vec![],
        }
    }

    /// Rewrites every successor through `f`.
    pub fn map_succs(&mut self, f: impl Fn(Node) -> Node) {
        match self {
            Instr::Nop(n)
            | Instr::Op(.., n)
            | Instr::Load(.., n)
            | Instr::Store(.., n)
            | Instr::Call(.., n)
            | Instr::Print(_, n) => *n = f(*n),
            Instr::Cond(.., a, b) | Instr::CondImm(.., a, b) => {
                *a = f(*a);
                *b = f(*b);
            }
            Instr::Tailcall(..) | Instr::Return(_) => {}
        }
    }
}

/// An LTL function.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Function {
    /// Parameter locations (always spill slots; see the allocator).
    pub params: Vec<Loc>,
    /// Source-level frame size in words (`AddrStack` slots).
    pub stack_slots: u64,
    /// Number of abstract spill slots in use.
    pub spill_slots: u32,
    /// Entry node.
    pub entry: Node,
    /// The graph.
    pub code: BTreeMap<Node, Instr>,
}

/// An LTL module.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LtlModule {
    /// Functions by name.
    pub funcs: BTreeMap<String, Function>,
}

/// The LTL core state.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LtlCore {
    fun: String,
    pc: Node,
    regs: BTreeMap<MReg, Val>,
    spills: BTreeMap<u32, Val>,
    frame: Option<Addr>,
    stack_slots: u64,
    awaiting: Option<Option<Loc>>,
}

impl LtlCore {
    fn get(&self, l: Loc) -> Val {
        match l {
            Loc::Reg(r) => self.regs.get(&r).copied().unwrap_or(Val::Undef),
            Loc::Spill(s) => self.spills.get(&s).copied().unwrap_or(Val::Undef),
        }
    }

    fn set(&mut self, l: Loc, v: Val) {
        match l {
            Loc::Reg(r) => {
                self.regs.insert(r, v);
            }
            Loc::Spill(s) => {
                self.spills.insert(s, v);
            }
        }
    }
}

/// The LTL language dispatcher.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LtlLang;

fn resolve_addr(am: &AddrMode<Loc>, core: &LtlCore, ge: &GlobalEnv) -> Option<Addr> {
    match am {
        AddrMode::Global(g, o) => Some(ge.lookup(g)?.offset(*o)),
        AddrMode::Stack(n) => {
            if *n >= core.stack_slots {
                return None;
            }
            Some(core.frame?.offset(*n))
        }
        AddrMode::Based(l, d) => match core.get(*l) {
            Val::Ptr(a) => Some(Addr(a.0.wrapping_add(*d as u64))),
            _ => None,
        },
    }
}

/// Reserved pc marking a completed tail call (see RTL).
const TAILCALL_RET_NODE: Node = u32::MAX;

impl Lang for LtlLang {
    type Module = LtlModule;
    type Core = LtlCore;

    fn name(&self) -> &'static str {
        "LTL"
    }

    fn exports(&self, module: &Self::Module) -> Vec<String> {
        module.funcs.keys().cloned().collect()
    }

    fn init_core(
        &self,
        module: &Self::Module,
        _ge: &GlobalEnv,
        entry: &str,
        args: &[Val],
    ) -> Option<Self::Core> {
        let f = module.funcs.get(entry)?;
        if args.len() > f.params.len() {
            return None;
        }
        let mut core = LtlCore {
            fun: entry.to_string(),
            pc: f.entry,
            regs: BTreeMap::new(),
            spills: BTreeMap::new(),
            frame: (f.stack_slots == 0).then_some(Addr(0)),
            stack_slots: f.stack_slots,
            awaiting: None,
        };
        for (&p, &v) in f.params.iter().zip(args) {
            core.set(p, v);
        }
        Some(core)
    }

    fn step(
        &self,
        module: &Self::Module,
        ge: &GlobalEnv,
        flist: &FreeList,
        core: &Self::Core,
        mem: &Memory,
    ) -> Vec<LocalStep<Self::Core>> {
        let tau = |core: LtlCore, mem: Memory, fp: Footprint| {
            vec![LocalStep::Step {
                msg: StepMsg::Tau,
                fp,
                core,
                mem,
            }]
        };
        let abort = || vec![LocalStep::Abort];
        let Some(f) = module.funcs.get(&core.fun) else {
            return abort();
        };
        let mut next = core.clone();
        if next.awaiting.is_some() {
            return abort();
        }
        if next.pc == TAILCALL_RET_NODE {
            return vec![LocalStep::Ret {
                val: core.get(Loc::Reg(MReg::Eax)),
            }];
        }
        if next.frame.is_none() {
            let base = crate::stmt_sem::first_free_block(flist, mem, next.stack_slots);
            let mut m = mem.clone();
            let mut fp = Footprint::emp();
            for k in 0..next.stack_slots {
                m.alloc(base.offset(k), Val::Undef);
                fp.extend(&Footprint::write(base.offset(k)));
            }
            next.frame = Some(base);
            return tau(next, m, fp);
        }
        let Some(instr) = f.code.get(&core.pc) else {
            return abort();
        };
        match instr {
            Instr::Nop(n) => {
                next.pc = *n;
                tau(next, mem.clone(), Footprint::emp())
            }
            Instr::Op(op, args, dst, n) => {
                let v = match op {
                    Op::AddrGlobal(g, o) => match ge.lookup(g) {
                        Some(a) => Val::Ptr(a.offset(*o)),
                        None => return abort(),
                    },
                    Op::AddrStack(s) => {
                        if *s >= next.stack_slots {
                            return abort();
                        }
                        Val::Ptr(next.frame.expect("allocated").offset(*s))
                    }
                    other => {
                        let vals: Vec<Val> = args.iter().map(|&l| core.get(l)).collect();
                        match other.eval(&vals) {
                            Some(v) => v,
                            None => return abort(),
                        }
                    }
                };
                next.set(*dst, v);
                next.pc = *n;
                tau(next, mem.clone(), Footprint::emp())
            }
            Instr::Load(am, dst, n) => {
                let Some(a) = resolve_addr(am, core, ge) else {
                    return abort();
                };
                let Some(v) = mem.load(a) else {
                    return abort();
                };
                next.set(*dst, v);
                next.pc = *n;
                tau(next, mem.clone(), Footprint::read(a))
            }
            Instr::Store(am, src, n) => {
                let Some(a) = resolve_addr(am, core, ge) else {
                    return abort();
                };
                let mut m = mem.clone();
                if !m.store(a, core.get(*src)) {
                    return abort();
                }
                next.pc = *n;
                tau(next, m, Footprint::write(a))
            }
            Instr::Call(dst, callee, args, n) => {
                next.pc = *n;
                next.awaiting = Some(*dst);
                vec![LocalStep::Call {
                    callee: callee.clone(),
                    args: args.iter().map(|&l| core.get(l)).collect(),
                    cont: next,
                }]
            }
            Instr::Tailcall(callee, args) => {
                next.awaiting = Some(None);
                next.pc = TAILCALL_RET_NODE;
                vec![LocalStep::Call {
                    callee: callee.clone(),
                    args: args.iter().map(|&l| core.get(l)).collect(),
                    cont: next,
                }]
            }
            Instr::Cond(c, l1, l2, a, b) => {
                let Some(t) = c.eval(core.get(*l1), core.get(*l2)) else {
                    return abort();
                };
                next.pc = if t { *a } else { *b };
                tau(next, mem.clone(), Footprint::emp())
            }
            Instr::CondImm(c, l, i, a, b) => {
                let Some(t) = c.eval(core.get(*l), Val::Int(*i)) else {
                    return abort();
                };
                next.pc = if t { *a } else { *b };
                tau(next, mem.clone(), Footprint::emp())
            }
            Instr::Print(l, n) => match core.get(*l) {
                Val::Int(i) => {
                    next.pc = *n;
                    vec![LocalStep::Step {
                        msg: StepMsg::Event(Event::Print(i)),
                        fp: Footprint::emp(),
                        core: next,
                        mem: mem.clone(),
                    }]
                }
                _ => abort(),
            },
            Instr::Return(l) => vec![LocalStep::Ret {
                val: l.map_or(Val::Int(0), |l| core.get(l)),
            }],
        }
    }

    fn resume(&self, _module: &Self::Module, core: &Self::Core, ret: Val) -> Option<Self::Core> {
        let mut next = core.clone();
        let dst = next.awaiting.take()?;
        if next.pc == TAILCALL_RET_NODE {
            next.set(Loc::Reg(MReg::Eax), ret);
            return Some(next);
        }
        if let Some(l) = dst {
            next.set(l, ret);
        }
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_core::world::run_main;

    #[test]
    fn locations_hold_values() {
        // r(ecx) := 6; spill0 := ecx * 7; return spill0
        let code = BTreeMap::from([
            (0, Instr::Op(Op::Const(6), vec![], Loc::Reg(MReg::Ecx), 1)),
            (
                1,
                Instr::Op(Op::MulImm(7), vec![Loc::Reg(MReg::Ecx)], Loc::Spill(0), 2),
            ),
            (2, Instr::Return(Some(Loc::Spill(0)))),
        ]);
        let m = LtlModule {
            funcs: [(
                "f".to_string(),
                Function {
                    params: vec![],
                    stack_slots: 0,
                    spill_slots: 1,
                    entry: 0,
                    code,
                },
            )]
            .into(),
        };
        let ge = GlobalEnv::new();
        let (v, _, _) = run_main(&LtlLang, &m, &ge, "f", &[], 100).expect("runs");
        assert_eq!(v, Val::Int(42));
    }

    #[test]
    fn spill_slots_are_not_memory() {
        // Writing a spill slot must produce no footprint and leave the
        // memory untouched.
        let code = BTreeMap::from([
            (0, Instr::Op(Op::Const(1), vec![], Loc::Spill(0), 1)),
            (1, Instr::Return(Some(Loc::Spill(0)))),
        ]);
        let m = LtlModule {
            funcs: [(
                "f".to_string(),
                Function {
                    params: vec![],
                    stack_slots: 0,
                    spill_slots: 1,
                    entry: 0,
                    code,
                },
            )]
            .into(),
        };
        let ge = GlobalEnv::new();
        let lang = LtlLang;
        let fl = FreeList::for_thread(0);
        let core = lang.init_core(&m, &ge, "f", &[]).expect("init");
        let steps = lang.step(&m, &ge, &fl, &core, &Memory::new());
        let LocalStep::Step { fp, mem, .. } = &steps[0] else {
            panic!("expected step");
        };
        assert!(fp.is_emp());
        assert!(mem.is_empty());
    }
}
