//! x86-TSO: the store-buffer relaxed memory model of Sewell et al. \[28\],
//! the target of the extended framework (§7.3, Fig. 3 of the paper).
//!
//! Each hardware thread owns a FIFO *store buffer* (part of the core
//! state). Ordinary stores enqueue; loads forward from the newest
//! matching buffered store, falling back to memory; at any moment the
//! oldest buffered store may nondeterministically *flush* to memory.
//! Lock-prefixed instructions and `mfence` execute only with an empty
//! buffer (the flush alternatives drain it first), which is what makes
//! them synchronizing.
//!
//! Footprints follow the real memory effects: a buffered store has an
//! empty footprint (memory is untouched); the flush performs the write;
//! buffer-forwarded loads read no memory. This keeps the language
//! well-defined in the sense of Def. 1.

use crate::asm::AsmModule;
use crate::exec::{step_instr, MemView, Outcome, X86Core};
use ccc_core::footprint::Footprint;
use ccc_core::lang::{Lang, LocalStep, StepMsg};
use ccc_core::mem::{Addr, FreeList, GlobalEnv, Memory, Val};
use std::collections::VecDeque;

/// The x86-TSO language dispatcher.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct X86Tso;

/// The TSO core: machine state plus the store buffer.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TsoCore {
    /// The underlying machine core.
    pub core: X86Core,
    /// The FIFO store buffer (front = oldest).
    pub buf: VecDeque<(Addr, Val)>,
}

struct TsoView {
    mem: Memory,
    buf: VecDeque<(Addr, Val)>,
    fp: Footprint,
}

impl MemView for TsoView {
    fn load(&mut self, a: Addr) -> Option<Val> {
        // Forward from the newest buffered store to this address.
        if let Some(&(_, v)) = self.buf.iter().rev().find(|&&(ba, _)| ba == a) {
            return Some(v);
        }
        let v = self.mem.load(a)?;
        self.fp.extend(&Footprint::read(a));
        Some(v)
    }

    fn store(&mut self, a: Addr, v: Val) -> bool {
        // Buffered: memory is untouched, so the footprint is empty and
        // no validity check happens here. A store to an unmapped address
        // faults at flush time (like real TSO, where the write becomes
        // architecturally visible asynchronously) — and the flush step
        // carries the write-set footprint.
        self.buf.push_back((a, v));
        true
    }

    fn store_direct(&mut self, a: Addr, v: Val) -> bool {
        // Hard machine invariant, not a debug assertion: a locked
        // operation's direct store with a non-empty buffer would let the
        // RMW overtake its own earlier stores. `requires_drain` makes
        // this unreachable from the dispatcher, but release-mode
        // exploration of a buggy caller must fault here rather than
        // silently reorder.
        if !self.buf.is_empty() {
            return false;
        }
        if self.mem.store(a, v) {
            self.fp.extend(&Footprint::write(a));
            true
        } else {
            false
        }
    }

    fn alloc(&mut self, a: Addr, v: Val) {
        self.mem.alloc(a, v);
        self.fp.extend(&Footprint::write(a));
    }

    fn contains(&self, a: Addr) -> bool {
        self.mem.contains(a) || self.buf.iter().any(|&(ba, _)| ba == a)
    }
}

impl Lang for X86Tso {
    type Module = AsmModule;
    type Core = TsoCore;

    fn name(&self) -> &'static str {
        "x86-TSO"
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
        Some(TsoCore {
            core: X86Core::entry(module, entry, args)?,
            buf: VecDeque::new(),
        })
    }

    fn step(
        &self,
        module: &Self::Module,
        ge: &GlobalEnv,
        flist: &FreeList,
        core: &Self::Core,
        mem: &Memory,
    ) -> Vec<LocalStep<Self::Core>> {
        let mut out = Vec::new();

        // Alternative 1: flush the oldest buffered store.
        if let Some(&(a, v)) = core.buf.front() {
            let mut m = mem.clone();
            if m.store(a, v) {
                let mut c = core.clone();
                c.buf.pop_front();
                out.push(LocalStep::Step {
                    msg: StepMsg::Tau,
                    fp: Footprint::write(a),
                    core: c,
                    mem: m,
                });
            } else {
                out.push(LocalStep::Abort);
            }
        }

        // Alternative 2: execute the next instruction, unless it needs a
        // drained buffer.
        if core.buf.is_empty() || !core.core.requires_drain(module) {
            let mut view = TsoView {
                mem: mem.clone(),
                buf: core.buf.clone(),
                fp: Footprint::emp(),
            };
            match step_instr(module, ge, flist, &core.core, &mut view) {
                Outcome::Next(c) => out.push(LocalStep::Step {
                    msg: StepMsg::Tau,
                    fp: view.fp,
                    core: TsoCore {
                        core: c,
                        buf: view.buf,
                    },
                    mem: view.mem,
                }),
                Outcome::Event(c, e) => out.push(LocalStep::Step {
                    msg: StepMsg::Event(e),
                    fp: view.fp,
                    core: TsoCore {
                        core: c,
                        buf: view.buf,
                    },
                    mem: view.mem,
                }),
                Outcome::CallExt { callee, args, cont } => out.push(LocalStep::Call {
                    callee,
                    args,
                    cont: TsoCore {
                        core: cont,
                        buf: view.buf,
                    },
                }),
                Outcome::Done(v) => out.push(LocalStep::Ret { val: v }),
                Outcome::Abort => out.push(LocalStep::Abort),
            }
        }

        out
    }

    fn resume(&self, _module: &Self::Module, core: &Self::Core, ret: Val) -> Option<Self::Core> {
        let mut next = core.clone();
        next.core.set_reg(crate::asm::Reg::Eax, ret);
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{AsmFunc, Instr, MemArg, Operand, Reg};
    use ccc_core::lang::Prog;
    use ccc_core::refine::{collect_traces, ExploreCfg, Preemptive, Terminal};
    use ccc_core::wd::check_wd;
    use ccc_core::world::Loaded;

    fn func(code: Vec<Instr>, frame_slots: u64, arity: usize) -> AsmFunc {
        AsmFunc {
            code,
            frame_slots,
            arity,
        }
    }

    /// The store-buffering (SB) litmus test:
    ///   thread 0: x := 1; print(y)
    ///   thread 1: y := 1; print(x)
    /// Under SC the outcome print(0)/print(0) is impossible; under TSO
    /// it is observable — both stores sit in the buffers past the loads.
    fn sb_program<L: Lang + Clone>(
        lang: L,
        module_of: impl Fn(AsmModule) -> L::Module,
    ) -> Loaded<L> {
        let mut ge = GlobalEnv::new();
        ge.define("x", Val::Int(0));
        ge.define("y", Val::Int(0));
        let t0 = func(
            vec![
                Instr::Store(MemArg::Global("x".into(), 0), Operand::Imm(1)),
                Instr::Load(Reg::Eax, MemArg::Global("y".into(), 0)),
                Instr::Print(Reg::Eax),
                Instr::Ret,
            ],
            0,
            0,
        );
        let t1 = func(
            vec![
                Instr::Store(MemArg::Global("y".into(), 0), Operand::Imm(1)),
                Instr::Load(Reg::Eax, MemArg::Global("x".into(), 0)),
                Instr::Print(Reg::Eax),
                Instr::Ret,
            ],
            0,
            0,
        );
        let m = AsmModule::new([("t0", t0), ("t1", t1)]);
        Loaded::new(Prog::new(lang, vec![(module_of(m), ge)], ["t0", "t1"])).expect("link")
    }

    fn has_zero_zero(traces: &ccc_core::refine::TraceSet) -> bool {
        use ccc_core::lang::Event;
        traces
            .traces
            .iter()
            .any(|t| t.end == Terminal::Done && t.events == vec![Event::Print(0), Event::Print(0)])
    }

    #[test]
    fn sb_litmus_relaxed_under_tso_but_not_sc() {
        let cfg = ExploreCfg::default();
        let sc = sb_program(crate::sc::X86Sc, |m| m);
        let sc_traces = collect_traces(&Preemptive(&sc), &cfg).expect("sc traces");
        assert!(
            !has_zero_zero(&sc_traces),
            "0/0 must be impossible under SC"
        );

        let tso = sb_program(X86Tso, |m| m);
        let tso_traces = collect_traces(&Preemptive(&tso), &cfg).expect("tso traces");
        assert!(
            has_zero_zero(&tso_traces),
            "0/0 must be observable under TSO"
        );
    }

    #[test]
    fn mfence_restores_sc_for_sb() {
        let mut ge = GlobalEnv::new();
        ge.define("x", Val::Int(0));
        ge.define("y", Val::Int(0));
        let mk = |mine: &str, theirs: &str| {
            func(
                vec![
                    Instr::Store(MemArg::Global(mine.into(), 0), Operand::Imm(1)),
                    Instr::Mfence,
                    Instr::Load(Reg::Eax, MemArg::Global(theirs.into(), 0)),
                    Instr::Print(Reg::Eax),
                    Instr::Ret,
                ],
                0,
                0,
            )
        };
        let m = AsmModule::new([("t0", mk("x", "y")), ("t1", mk("y", "x"))]);
        let loaded = Loaded::new(Prog::new(X86Tso, vec![(m, ge)], ["t0", "t1"])).expect("link");
        let traces = collect_traces(&Preemptive(&loaded), &ExploreCfg::default()).expect("traces");
        assert!(!has_zero_zero(&traces), "mfence forbids the 0/0 outcome");
    }

    #[test]
    fn buffered_store_forwards_to_own_loads() {
        let mut ge = GlobalEnv::new();
        ge.define("x", Val::Int(0));
        // Store 5 to x (buffered), immediately load x: must see 5 even
        // before any flush.
        let m = AsmModule::new([(
            "f",
            func(
                vec![
                    Instr::Store(MemArg::Global("x".into(), 0), Operand::Imm(5)),
                    Instr::Load(Reg::Eax, MemArg::Global("x".into(), 0)),
                    Instr::Ret,
                ],
                0,
                0,
            ),
        )]);
        let lang = X86Tso;
        let fl = FreeList::for_thread(0);
        let mut core = lang.init_core(&m, &ge, "f", &[]).expect("init");
        let mut mem = ge.initial_memory();
        // Drive the instruction alternative (never flush) until Ret.
        for _ in 0..10 {
            let steps = lang.step(&m, &ge, &fl, &core, &mem);
            let instr_step = steps.into_iter().last().expect("a step");
            match instr_step {
                LocalStep::Step {
                    core: c, mem: m2, ..
                } => {
                    core = c;
                    mem = m2;
                }
                LocalStep::Ret { val } => {
                    assert_eq!(val, Val::Int(5), "store-to-load forwarding");
                    return;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        panic!("did not finish");
    }

    #[test]
    fn ret_requires_drained_buffer() {
        let mut ge = GlobalEnv::new();
        ge.define("x", Val::Int(0));
        let m = AsmModule::new([(
            "f",
            func(
                vec![
                    Instr::Store(MemArg::Global("x".into(), 0), Operand::Imm(1)),
                    Instr::Ret,
                ],
                0,
                0,
            ),
        )]);
        let lang = X86Tso;
        let fl = FreeList::for_thread(0);
        let core = lang.init_core(&m, &ge, "f", &[]).expect("init");
        let mem = ge.initial_memory();
        // Execute the store (instruction alternative).
        let steps = lang.step(&m, &ge, &fl, &core, &mem);
        let LocalStep::Step {
            core: c1,
            mem: m1,
            fp,
            ..
        } = steps.into_iter().last().expect("step")
        else {
            panic!("expected step");
        };
        assert!(fp.is_emp(), "buffered store touches no memory");
        assert_eq!(m1.load(ge.lookup("x").unwrap()), Some(Val::Int(0)));
        // Now at Ret with non-empty buffer: the only alternative is a flush.
        let steps = lang.step(&m, &ge, &fl, &c1, &m1);
        assert_eq!(steps.len(), 1);
        let LocalStep::Step {
            fp,
            mem: m2,
            core: c2,
            ..
        } = steps.into_iter().next().expect("flush")
        else {
            panic!("expected flush step");
        };
        assert!(!fp.ws.is_empty(), "flush writes memory");
        assert_eq!(m2.load(ge.lookup("x").unwrap()), Some(Val::Int(1)));
        // After the drain, Ret fires.
        let steps = lang.step(&m, &ge, &fl, &c2, &m2);
        assert!(matches!(steps[0], LocalStep::Ret { .. }));
    }

    #[test]
    fn direct_store_with_nonempty_buffer_faults() {
        // Regression for the promoted invariant: `store_direct` against
        // a view whose buffer is non-empty must fault (return false and
        // leave memory untouched), not reorder the locked write ahead of
        // the buffered one — in release builds too, where the old
        // `debug_assert!` compiled away.
        let mut ge = GlobalEnv::new();
        let x = ge.define("x", Val::Int(0));
        let mut view = TsoView {
            mem: ge.initial_memory(),
            buf: VecDeque::from([(x, Val::Int(7))]),
            fp: Footprint::emp(),
        };
        use crate::exec::MemView;
        assert!(!view.store_direct(x, Val::Int(9)), "must fault");
        assert_eq!(view.mem.load(x), Some(Val::Int(0)), "memory untouched");
        // With a drained buffer the same store goes through.
        view.buf.clear();
        assert!(view.store_direct(x, Val::Int(9)));
        assert_eq!(view.mem.load(x), Some(Val::Int(9)));
    }

    #[test]
    fn tso_is_well_defined() {
        let mut ge = GlobalEnv::new();
        ge.define("x", Val::Int(2));
        let m = AsmModule::new([(
            "f",
            func(
                vec![
                    Instr::Load(Reg::Eax, MemArg::Global("x".into(), 0)),
                    Instr::Store(MemArg::Global("x".into(), 0), Operand::Imm(9)),
                    Instr::Load(Reg::Ebx, MemArg::Global("x".into(), 0)),
                    Instr::Mfence,
                    Instr::Ret,
                ],
                0,
                0,
            ),
        )]);
        check_wd(
            &X86Tso,
            &m,
            &ge,
            "f",
            &ge.initial_memory(),
            &ExploreCfg::default(),
        )
        .expect("wd(x86-TSO)");
    }
}
