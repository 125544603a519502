//! Rely/guarantee conditions and related invariants (Fig. 8 of the
//! paper), plus the `ReachClose` obligation (Def. 4).
//!
//! The rely condition [`rely`] describes what a module may assume about
//! environment steps at switch points: its local memory (the free list
//! `F`) is untouched, the shared memory stays closed and only grows, and
//! the source/target memories remain related by the invariant [`inv`].
//! The guarantees [`hg`] (source level) and [`lg`] (target level) are
//! what the module promises in return — in particular [`lg`] carries the
//! footprint-consistency obligation `FPmatch` central to DRF
//! preservation.

use crate::explore::{gains_fuel, FxHashMap};
use crate::footprint::{fp_match, mem_eq_on, Footprint, Mu};
use crate::lang::{Lang, StepMsg};
use crate::mem::{forward, Addr, FreeList, GlobalEnv, Memory, Val};
use crate::refine::ExploreCfg;
use crate::world::{Frame, Loaded, ThreadState, ThreadStep};
use std::collections::BTreeSet;

/// `f̂(v)` (Fig. 8): value transformation along an address mapping —
/// integers and `undef` map to themselves, pointers through `f`.
/// `None` if `v` is a pointer outside `dom(f)`.
pub fn map_val(mu: &Mu, v: Val) -> Option<Val> {
    match v {
        Val::Ptr(a) => mu.map(a).map(Val::Ptr),
        other => Some(other),
    }
}

/// `Inv(f, Σ, σ)` (Fig. 8): every mapped source location is allocated at
/// the target and holds the mapped value — the framework's analogue of
/// CompCert's memory injection.
pub fn inv(mu: &Mu, src: &Memory, tgt: &Memory) -> bool {
    src.iter().all(|(l, v)| match mu.map(l) {
        None => true,
        Some(l2) => match tgt.load(l2) {
            None => false,
            Some(v2) => map_val(mu, v) == Some(v2),
        },
    })
}

/// `HG(∆, Σ, F, S)` (Fig. 8): the high-level (source) guarantee — the
/// footprint stays within the module's own free list and the shared
/// memory, and the shared memory remains closed.
pub fn hg(fp: &Footprint, mem: &Memory, flist: &FreeList, shared: &BTreeSet<Addr>) -> bool {
    fp.within(|a| flist.contains(a) || shared.contains(&a))
        && mem.closed_on(|a| shared.contains(&a))
}

/// `LG(µ, (δ, σ, F), (∆, Σ))` (Fig. 8): the low-level (target)
/// guarantee — scoping, closedness, footprint consistency with the
/// source, and the memory invariant.
pub fn lg(
    mu: &Mu,
    tgt_fp: &Footprint,
    tgt_mem: &Memory,
    tgt_flist: &FreeList,
    src_fp: &Footprint,
    src_mem: &Memory,
) -> bool {
    tgt_fp.within(|a| tgt_flist.contains(a) || mu.s_tgt.contains(&a))
        && tgt_mem.closed_on(|a| mu.s_tgt.contains(&a))
        && fp_match(mu, src_fp, tgt_fp)
        && inv(mu, src_mem, tgt_mem)
}

/// `R(Σ, Σ′, F, S)` (Fig. 8): one level of the rely — the environment
/// step preserves the module's free-list memory, keeps the shared part
/// closed, and only grows the domain.
pub fn r_cond(pre: &Memory, post: &Memory, flist: &FreeList, shared: &BTreeSet<Addr>) -> bool {
    let flist_cells: Vec<Addr> = pre
        .dom()
        .chain(post.dom())
        .filter(|&a| flist.contains(a))
        .collect();
    mem_eq_on(pre, post, &flist_cells)
        && post.closed_on(|a| shared.contains(&a))
        && forward(pre, post)
}

/// `Rely(µ, (Σ, Σ′, F), (σ, σ′, F))` (Fig. 8): the full two-level rely
/// condition at a switch point.
pub fn rely(
    mu: &Mu,
    src_pre: &Memory,
    src_post: &Memory,
    src_flist: &FreeList,
    tgt_pre: &Memory,
    tgt_post: &Memory,
    tgt_flist: &FreeList,
) -> bool {
    r_cond(src_pre, src_post, src_flist, &mu.s_src)
        && r_cond(tgt_pre, tgt_post, tgt_flist, &mu.s_tgt)
        && inv(mu, src_post, tgt_post)
}

/// `⌊φ⌋(ge)` (Fig. 8): transforms a global environment along an address
/// mapping. `None` if some global address or stored pointer is unmapped.
pub fn map_ge(mu: &Mu, ge: &GlobalEnv) -> Option<GlobalEnv> {
    let mut symbols = Vec::new();
    for (name, addr) in ge.symbol_iter() {
        symbols.push((name.to_string(), mu.map(addr)?));
    }
    let mut init = Vec::new();
    for (addr, v) in ge.init_iter() {
        init.push((mu.map(addr)?, map_val(mu, v)?));
    }
    GlobalEnv::from_parts(symbols, init)
}

/// `initM(φ, ge, Σ, σ)` (Fig. 8): the initial-memory relation of the
/// module-local simulation — the source memory contains the globals and
/// is closed, and the target memory is exactly the `φ`-image of the
/// source, related by [`inv`].
pub fn init_m(mu: &Mu, ge: &GlobalEnv, src: &Memory, tgt: &Memory) -> bool {
    let ge_contained = ge.init_iter().all(|(a, v)| src.load(a) == Some(v));
    let dom_matches = {
        let img: BTreeSet<Addr> = src.dom().filter_map(|a| mu.map(a)).collect();
        let tdom: BTreeSet<Addr> = tgt.dom().collect();
        img == tdom
    };
    ge_contained && src.closed() && dom_matches && inv(mu, src, tgt)
}

/// A violation of the `ReachClose` obligation (Def. 4).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RcViolation {
    /// Human-readable description of the failing condition.
    pub reason: String,
    /// The offending footprint, if footprint scoping failed.
    pub fp: Option<Footprint>,
}

/// Environment perturbations used when checking `ReachClose` and the
/// module-local simulation: sampled stand-ins for the universally
/// quantified rely steps (see DESIGN.md, "Limitations").
///
/// A perturbation receives the shared-location set and may mutate shared
/// values; implementations must satisfy `R` (they must not touch
/// free-list memory, must keep the shared part closed, and must not
/// shrink the domain).
pub type EnvPerturbation = dyn Fn(&mut Memory, &BTreeSet<Addr>) + Sync;

/// Checks `ReachClose(sl, ge, γ)` (Def. 4) for one module entry by
/// bounded exploration: along every execution path — with sampled
/// environment perturbations applied at switch points — each step's
/// footprint satisfies `HG` against the shared set `S = dom(Σ)`.
///
/// External calls are answered with `Val::Int(0)` (objects under test
/// export closed entry points; clients' external calls are switch
/// points whose return value is part of the environment, sampled here).
/// A configuration reached again with more fuel than it was first
/// expanded with is expanded again, so the verdict does not depend on
/// which of two paths to it the search takes first.
///
/// # Errors
///
/// Returns the first violation found.
#[allow(clippy::too_many_arguments)]
pub fn check_reach_close<L: Lang + Clone>(
    lang: &L,
    module: &L::Module,
    ge: &GlobalEnv,
    entry: &str,
    init_mem: &Memory,
    flist: FreeList,
    perturbations: &[&EnvPerturbation],
    cfg: &ExploreCfg,
) -> Result<(), RcViolation> {
    let (shared, loaded, thread) = rc_setup(lang, module, ge, entry, init_mem, flist)?;
    let mut stack = vec![(thread, init_mem.clone(), cfg.fuel)];
    let mut seen = FxHashMap::default();
    while let Some((thread, mem, fuel)) = stack.pop() {
        if fuel == 0 || !gains_fuel(&mut seen, (thread.clone(), mem.clone()), fuel) {
            continue;
        }
        if seen.len() >= cfg.max_states {
            break;
        }
        stack.extend(rc_expand(
            &loaded,
            flist,
            &shared,
            perturbations,
            &thread,
            &mem,
            fuel,
        )?);
    }
    Ok(())
}

/// Setup of [`check_reach_close`]: the shared set `S`, the one-module
/// program context, and the initial thread state.
#[allow(clippy::type_complexity)]
fn rc_setup<L: Lang + Clone>(
    lang: &L,
    module: &L::Module,
    ge: &GlobalEnv,
    entry: &str,
    init_mem: &Memory,
    flist: FreeList,
) -> Result<(BTreeSet<Addr>, Loaded<L>, ThreadState<L>), RcViolation> {
    // The shared set S (Fig. 5): the statically allocated globals. Cells
    // of `init_mem` lying in other threads' free-list regions (their
    // stacks) are *not* shared — touching them is exactly what
    // ReachClose must reject.
    let shared: BTreeSet<Addr> = init_mem.dom().filter(|a| a.is_global()).collect();
    let ge_ok = ge.init_iter().all(|(a, v)| init_mem.load(a) == Some(v));
    if !ge_ok || !init_mem.closed() {
        return Err(RcViolation {
            reason: "initial memory does not contain ge or is not closed".into(),
            fp: None,
        });
    }
    let Some(core) = lang.init_core(module, ge, entry, &[]) else {
        return Err(RcViolation {
            reason: format!("InitCore failed for `{entry}`"),
            fp: None,
        });
    };
    // Reuse the single-module thread-step machinery via a one-module
    // program context.
    let prog = crate::lang::Prog::new(lang.clone(), vec![(module.clone(), ge.clone())], [entry]);
    let loaded = crate::world::Loaded::new(prog).map_err(|e| RcViolation {
        reason: format!("load failed: {e}"),
        fp: None,
    })?;
    let thread = ThreadState::<L> {
        frames: vec![Frame { module: 0, core }],
        flist,
    };
    Ok((shared, loaded, thread))
}

/// Expands one configuration of the `ReachClose` exploration: checks
/// `HG` on every step and returns the successor configurations
/// (including perturbed memories at switch points).
fn rc_expand<L: Lang>(
    loaded: &Loaded<L>,
    flist: FreeList,
    shared: &BTreeSet<Addr>,
    perturbations: &[&EnvPerturbation],
    thread: &ThreadState<L>,
    mem: &Memory,
    fuel: usize,
) -> Result<Vec<(ThreadState<L>, Memory, usize)>, RcViolation> {
    let mut out = Vec::new();
    for ts in loaded.local_thread_steps(thread, mem) {
        match ts {
            ThreadStep::Internal {
                msg,
                fp,
                frames,
                mem: m,
            } => {
                if !hg(&fp, &m, &flist, shared) {
                    return Err(RcViolation {
                        reason: "HG violated".into(),
                        fp: Some(fp),
                    });
                }
                let next = ThreadState {
                    frames,
                    flist: thread.flist,
                };
                // At switch points, sample environment interference.
                if msg != StepMsg::Tau {
                    for p in perturbations {
                        let mut m2 = m.clone();
                        p(&mut m2, shared);
                        debug_assert!(r_cond(&m, &m2, &flist, shared), "perturbation violates R");
                        out.push((next.clone(), m2, fuel - 1));
                    }
                }
                out.push((next, m, fuel - 1));
            }
            ThreadStep::Terminated => {}
            ThreadStep::Abort => {
                // Aborting is a safety issue, not a ReachClose one.
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::Footprint;
    use crate::toy::{toy_globals, toy_module, ToyInstr};

    fn addr(n: u64) -> Addr {
        Addr(n)
    }

    #[test]
    fn inv_relates_mapped_cells() {
        let mu = Mu::from_map([(addr(8), addr(16))]);
        let mut src = Memory::new();
        src.alloc(addr(8), Val::Int(3));
        let mut tgt = Memory::new();
        tgt.alloc(addr(16), Val::Int(3));
        assert!(inv(&mu, &src, &tgt));
        assert!(tgt.store(addr(16), Val::Int(4)));
        assert!(!inv(&mu, &src, &tgt));
    }

    #[test]
    fn inv_maps_pointers_through_f() {
        let mu = Mu::from_map([(addr(8), addr(16)), (addr(9), addr(17))]);
        let mut src = Memory::new();
        src.alloc(addr(8), Val::Ptr(addr(9)));
        src.alloc(addr(9), Val::Int(0));
        let mut tgt = Memory::new();
        tgt.alloc(addr(16), Val::Ptr(addr(17)));
        tgt.alloc(addr(17), Val::Int(0));
        assert!(inv(&mu, &src, &tgt));
        assert!(tgt.store(addr(16), Val::Ptr(addr(16))));
        assert!(!inv(&mu, &src, &tgt));
    }

    #[test]
    fn hg_scopes_footprints() {
        let fl = FreeList::for_thread(0);
        let shared: BTreeSet<Addr> = [addr(8)].into();
        let mem = Memory::new();
        assert!(hg(&Footprint::read(addr(8)), &mem, &fl, &shared));
        assert!(hg(&Footprint::write(fl.addr_at(0)), &mem, &fl, &shared));
        assert!(!hg(&Footprint::read(addr(64)), &mem, &fl, &shared));
    }

    #[test]
    fn r_cond_protects_flist_memory() {
        let fl = FreeList::for_thread(0);
        let shared: BTreeSet<Addr> = [addr(8)].into();
        let mut pre = Memory::new();
        pre.alloc(addr(8), Val::Int(0));
        pre.alloc(fl.addr_at(0), Val::Int(1));
        let mut post = pre.clone();
        assert!(post.store(addr(8), Val::Int(9)));
        assert!(r_cond(&pre, &post, &fl, &shared));
        assert!(post.store(fl.addr_at(0), Val::Int(9)));
        assert!(!r_cond(&pre, &post, &fl, &shared));
    }

    #[test]
    fn init_m_requires_exact_image() {
        let mu = Mu::from_map([(addr(8), addr(8))]);
        let mut ge = GlobalEnv::new();
        ge.define("x", Val::Int(1)); // lands at addr 8
        let src = ge.initial_memory();
        let tgt = src.clone();
        assert!(init_m(&mu, &ge, &src, &tgt));
        let mut bigger = tgt.clone();
        bigger.alloc(addr(16), Val::Int(0));
        assert!(!init_m(&mu, &ge, &src, &bigger));
    }

    #[test]
    fn reach_close_holds_for_shared_only_module() {
        let ge = toy_globals(&[("x", 0)]);
        let (m, _) = toy_module(
            &[(
                "f",
                vec![
                    ToyInstr::LoadG("x".into()),
                    ToyInstr::Add(1),
                    ToyInstr::StoreG("x".into()),
                    ToyInstr::Ret(0),
                ],
            )],
            &[],
        );
        let mem = ge.initial_memory();
        let res = check_reach_close(
            &crate::toy::ToyLang,
            &m,
            &ge,
            "f",
            &mem,
            FreeList::for_thread(0),
            &[],
            &ExploreCfg::default(),
        );
        assert!(res.is_ok(), "{res:?}");
    }

    /// A language whose single step reads a fixed *foreign-region*
    /// address (another thread's stack cell) — a ReachClose violation.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct TrespassingLang;

    impl crate::lang::Lang for TrespassingLang {
        type Module = ();
        type Core = u8;

        fn name(&self) -> &'static str {
            "trespassing"
        }
        fn exports(&self, _m: &()) -> Vec<String> {
            vec!["f".into()]
        }
        fn init_core(&self, _m: &(), _ge: &GlobalEnv, entry: &str, _args: &[Val]) -> Option<u8> {
            (entry == "f").then_some(0)
        }
        fn step(
            &self,
            _m: &(),
            _ge: &GlobalEnv,
            _fl: &FreeList,
            core: &u8,
            mem: &Memory,
        ) -> Vec<crate::lang::LocalStep<u8>> {
            use crate::lang::{LocalStep, StepMsg};
            match core {
                0 => {
                    let foreign = FreeList::for_thread(9).addr_at(0);
                    match mem.load(foreign) {
                        Some(_) => vec![LocalStep::Step {
                            msg: StepMsg::Tau,
                            fp: Footprint::read(foreign),
                            core: 1,
                            mem: mem.clone(),
                        }],
                        None => vec![LocalStep::Abort],
                    }
                }
                _ => vec![LocalStep::Ret { val: Val::Int(0) }],
            }
        }
        fn resume(&self, _m: &(), _c: &u8, _ret: Val) -> Option<u8> {
            None
        }
    }

    #[test]
    fn reach_close_rejects_foreign_region_access() {
        // The initial memory contains a cell another thread allocated on
        // its stack; reading it is outside F ∪ S and must violate HG.
        let ge = GlobalEnv::new();
        let mut mem = ge.initial_memory();
        mem.alloc(FreeList::for_thread(9).addr_at(0), Val::Int(7));
        let err = check_reach_close(
            &TrespassingLang,
            &(),
            &ge,
            "f",
            &mem,
            FreeList::for_thread(0),
            &[],
            &ExploreCfg::default(),
        )
        .expect_err("foreign access must be rejected");
        assert!(err.reason.contains("HG"), "{err:?}");
    }

    /// [`TrespassingLang`]'s foreign read behind a detour: core 0 steps
    /// silently to 1 and to 2, which also steps to 1; 1 steps to 3,
    /// whose step reads another thread's stack cell. With fuel 3 the
    /// read is in reach only over the direct edge, and the search takes
    /// the detour first.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct DetourLang;

    impl crate::lang::Lang for DetourLang {
        type Module = ();
        type Core = u8;

        fn name(&self) -> &'static str {
            "detour"
        }
        fn exports(&self, _m: &()) -> Vec<String> {
            vec!["f".into()]
        }
        fn init_core(&self, _m: &(), _ge: &GlobalEnv, entry: &str, _args: &[Val]) -> Option<u8> {
            (entry == "f").then_some(0)
        }
        fn step(
            &self,
            _m: &(),
            _ge: &GlobalEnv,
            _fl: &FreeList,
            core: &u8,
            mem: &Memory,
        ) -> Vec<crate::lang::LocalStep<u8>> {
            let step = |fp, core| crate::lang::LocalStep::Step {
                msg: StepMsg::Tau,
                fp,
                core,
                mem: mem.clone(),
            };
            match core {
                0 => vec![step(Footprint::emp(), 1), step(Footprint::emp(), 2)],
                2 => vec![step(Footprint::emp(), 1)],
                1 => vec![step(Footprint::emp(), 3)],
                _ => vec![step(Footprint::read(FreeList::for_thread(9).addr_at(0)), 4)],
            }
        }
        fn resume(&self, _m: &(), _c: &u8, _ret: Val) -> Option<u8> {
            None
        }
    }

    #[test]
    fn foreign_access_behind_a_detour_is_rejected() {
        let ge = GlobalEnv::new();
        let err = check_reach_close(
            &DetourLang,
            &(),
            &ge,
            "f",
            &ge.initial_memory(),
            FreeList::for_thread(0),
            &[],
            &ExploreCfg::with_fuel(3),
        )
        .expect_err("the foreign read is three steps away over the direct edge");
        assert!(err.reason.contains("HG"), "{err:?}");
    }

    #[test]
    fn reach_close_perturbations_are_applied() {
        // A module whose behaviour after a print depends on a shared
        // global still satisfies RC under perturbation (its accesses stay
        // in scope whatever the environment writes).
        let ge = toy_globals(&[("x", 0)]);
        let (m, _) = toy_module(
            &[(
                "f",
                vec![
                    ToyInstr::Const(3),
                    ToyInstr::Print,
                    ToyInstr::LoadG("x".into()),
                    ToyInstr::StoreG("x".into()),
                    ToyInstr::Ret(0),
                ],
            )],
            &[],
        );
        let mem = ge.initial_memory();
        let bump: &EnvPerturbation = &|m: &mut Memory, s: &BTreeSet<Addr>| {
            for &a in s {
                let _ = m.store(a, Val::Int(41));
            }
        };
        check_reach_close(
            &crate::toy::ToyLang,
            &m,
            &ge,
            "f",
            &mem,
            FreeList::for_thread(0),
            &[bump],
            &ExploreCfg::default(),
        )
        .expect("stays reach-closed under environment writes");
    }
}
