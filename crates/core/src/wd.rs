//! The well-definedness checker for language instantiations (Def. 1 of
//! the paper) and the determinism check `det(tl)` used by the Flip step.
//!
//! Def. 1 gives an *extensional* interpretation of footprints: a
//! language is well-defined when every step
//! `F ⊢ (κ, σ) −ι/δ→ (κ′, σ′)` satisfies
//!
//! 1. `forward(σ, σ′)` — the domain only grows;
//! 2. `LEffect(σ, σ′, δ, F)` — effects are confined to the write set,
//!    and fresh cells come from `F`;
//! 3. the step is *reproducible* on any `LEqPre`-equivalent memory, with
//!    an `LEqPost`-equivalent result;
//! 4. the step's nondeterminism is insensitive to memory outside the
//!    union of all its `τ`-read-sets.
//!
//! The paper proves these in Coq for Clight, Cminor, and x86; here they
//! are checked dynamically on explored configurations against generated
//! memory perturbations, which is how every language crate in this
//! workspace validates its `Lang` instance.

use crate::explore::{gains_fuel, FxHashMap, FxHashSet};
use crate::footprint::{leffect, leq_post, leq_pre, Footprint};
use crate::lang::{Lang, LocalStep, StepMsg};
use crate::mem::{forward, Addr, FreeList, GlobalEnv, Memory, Val};
use crate::refine::ExploreCfg;

/// A violation of one of the four well-definedness conditions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WdViolation {
    /// Which Def. 1 item failed (1–4).
    pub item: u8,
    /// Human-readable details.
    pub detail: String,
}

impl std::fmt::Display for WdViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Def. 1 item ({}) violated: {}", self.item, self.detail)
    }
}

impl std::error::Error for WdViolation {}

/// Statistics from a successful well-definedness check.
#[derive(Clone, Copy, Default, Debug)]
pub struct WdReport {
    /// Configurations `(κ, σ)` examined.
    pub configs: usize,
    /// Individual steps checked against items (1) and (2).
    pub steps: usize,
    /// Perturbed re-executions checked against items (3) and (4).
    pub perturbed_runs: usize,
}

/// Memory perturbations used for items (3) and (4): ways of building a
/// `σ1` that is `LEqPre`-equivalent to `σ` for a given footprint.
fn perturb_outside(mem: &Memory, protect: &Footprint, flist: &FreeList) -> Vec<Memory> {
    let keep = |a: Addr| protect.rs.contains(&a) || protect.ws.contains(&a) || flist.contains(a);
    let mut out = Vec::new();
    // (a) Scramble the value of every unprotected cell.
    let mut scrambled = mem.clone();
    let mut changed = false;
    for (a, v) in mem.iter() {
        if !keep(a) {
            let nv = match v {
                Val::Int(i) => Val::Int(i.wrapping_add(1)),
                Val::Ptr(_) => Val::Int(0),
                Val::Undef => Val::Int(42),
            };
            assert!(scrambled.store(a, nv));
            changed = true;
        }
    }
    if changed {
        out.push(scrambled);
    }
    // (b) Remove one unprotected cell.
    if let Some(victim) = mem.dom().find(|&a| !keep(a)) {
        let mut smaller = mem.clone();
        smaller.remove(victim);
        out.push(smaller);
    }
    // (c) Add a cell in a region that is neither `F` nor protected (a
    // far-away foreign region).
    let foreign = Addr(0x7fff * FreeList::REGION_SIZE + 8);
    if !keep(foreign) && !mem.contains(foreign) {
        let mut bigger = mem.clone();
        bigger.alloc(foreign, Val::Int(99));
        out.push(bigger);
    }
    out
}

/// Two steps are "the same" for Def. 1 purposes: same message, footprint,
/// and successor core (memories are compared via `LEqPost` separately).
fn same_step_shape<C: PartialEq>(a: &LocalStep<C>, b: &LocalStep<C>) -> bool {
    match (a, b) {
        (
            LocalStep::Step {
                msg: m1,
                fp: f1,
                core: c1,
                ..
            },
            LocalStep::Step {
                msg: m2,
                fp: f2,
                core: c2,
                ..
            },
        ) => m1 == m2 && f1 == f2 && c1 == c2,
        (
            LocalStep::Call {
                callee: n1,
                args: a1,
                cont: c1,
            },
            LocalStep::Call {
                callee: n2,
                args: a2,
                cont: c2,
            },
        ) => n1 == n2 && a1 == a2 && c1 == c2,
        (LocalStep::Ret { val: v1 }, LocalStep::Ret { val: v2 }) => v1 == v2,
        (LocalStep::Abort, LocalStep::Abort) => true,
        _ => false,
    }
}

/// Checks Def. 1 for one language instance along the executions of
/// `entry`, answering external calls with `Int(0)`. A configuration
/// reached again with more fuel than it was first expanded with is
/// expanded (and checked) again, so the verdict does not depend on
/// which of two paths to it the search takes first.
///
/// # Errors
///
/// Returns the first [`WdViolation`] found.
///
/// # Examples
///
/// ```
/// use ccc_core::refine::ExploreCfg;
/// use ccc_core::toy::{toy_globals, toy_module, ToyInstr, ToyLang};
/// use ccc_core::wd::check_wd;
/// let ge = toy_globals(&[("x", 1)]);
/// let (m, _) = toy_module(
///     &[("f", vec![ToyInstr::LoadG("x".into()), ToyInstr::StoreG("x".into()), ToyInstr::Ret(0)])],
///     &[],
/// );
/// let report = check_wd(&ToyLang, &m, &ge, "f", &ge.initial_memory(), &ExploreCfg::default())?;
/// assert!(report.steps > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_wd<L: Lang>(
    lang: &L,
    module: &L::Module,
    ge: &GlobalEnv,
    entry: &str,
    init_mem: &Memory,
    cfg: &ExploreCfg,
) -> Result<WdReport, WdViolation> {
    let flist = FreeList::for_thread(0);
    let mut report = WdReport::default();
    let Some(core) = lang.init_core(module, ge, entry, &[]) else {
        return Err(WdViolation {
            item: 0,
            detail: format!("InitCore failed for `{entry}`"),
        });
    };
    let mut stack: Vec<(L::Core, Memory, usize)> = vec![(core, init_mem.clone(), cfg.fuel)];
    let mut seen: FxHashMap<(L::Core, Memory), usize> = FxHashMap::default();
    while let Some((core, mem, fuel)) = stack.pop() {
        if fuel == 0 || !gains_fuel(&mut seen, (core.clone(), mem.clone()), fuel) {
            continue;
        }
        if seen.len() >= cfg.max_states {
            break;
        }
        let steps = wd_check_config(lang, module, ge, &flist, &core, &mem, &mut report)?;

        // Explore onward: follow Step outcomes; answer calls with Int(0).
        for s in steps {
            match s {
                LocalStep::Step { core, mem, .. } => stack.push((core, mem, fuel - 1)),
                LocalStep::Call { cont, .. } => {
                    if let Some(resumed) = lang.resume(module, &cont, Val::Int(0)) {
                        stack.push((resumed, mem.clone(), fuel - 1));
                    }
                }
                LocalStep::Ret { .. } | LocalStep::Abort => {}
            }
        }
    }
    Ok(report)
}

/// Runs the four Def. 1 item checks on one configuration `(κ, σ)` of
/// [`check_wd`] and returns its step outcomes.
fn wd_check_config<L: Lang>(
    lang: &L,
    module: &L::Module,
    ge: &GlobalEnv,
    flist: &FreeList,
    core: &L::Core,
    mem: &Memory,
    report: &mut WdReport,
) -> Result<Vec<LocalStep<L::Core>>, WdViolation> {
    report.configs += 1;
    let steps = lang.step(module, ge, flist, core, mem);

    // Items (1) and (2) on every outcome, and collect δ0 for item (4).
    let mut delta0 = Footprint::emp();
    for s in &steps {
        if let LocalStep::Step {
            msg, fp, mem: post, ..
        } = s
        {
            report.steps += 1;
            if !forward(mem, post) {
                return Err(WdViolation {
                    item: 1,
                    detail: format!("domain shrank on a step of `{}`", lang.name()),
                });
            }
            if !leffect(mem, post, fp, |a| flist.contains(a)) {
                return Err(WdViolation {
                    item: 2,
                    detail: format!(
                        "LEffect violated on a step of `{}` (fp {fp:?})",
                        lang.name()
                    ),
                });
            }
            if *msg == StepMsg::Tau {
                delta0.extend(fp);
            }
        }
    }

    // Item (3): each Step outcome must be reproducible on an
    // LEqPre-equivalent memory.
    for s in &steps {
        let LocalStep::Step {
            msg,
            fp,
            core: c2,
            mem: post,
        } = s
        else {
            continue;
        };
        for m1 in perturb_outside(mem, fp, flist) {
            if !leq_pre(mem, &m1, fp, |a| flist.contains(a)) {
                continue; // perturbation out of LEqPre range; skip
            }
            report.perturbed_runs += 1;
            let steps1 = lang.step(module, ge, flist, core, &m1);
            let matched = steps1.iter().any(|s1| {
                if let LocalStep::Step {
                    msg: m2,
                    fp: f2,
                    core: cc,
                    mem: post1,
                } = s1
                {
                    m2 == msg
                        && f2 == fp
                        && cc == c2
                        && leq_post(post, post1, fp, |a| flist.contains(a))
                } else {
                    false
                }
            });
            if !matched {
                return Err(WdViolation {
                    item: 3,
                    detail: format!(
                        "step not reproducible on LEqPre-equivalent memory ({}, fp {fp:?})",
                        lang.name()
                    ),
                });
            }
        }
    }

    // Item (4): nondeterminism is insensitive to memory outside δ0.rs.
    {
        let protect = Footprint {
            rs: delta0.locs(),
            ws: delta0.locs(),
        };
        for m1 in perturb_outside(mem, &protect, flist) {
            if !leq_pre(mem, &m1, &delta0, |a| flist.contains(a)) {
                continue;
            }
            report.perturbed_runs += 1;
            let steps1 = lang.step(module, ge, flist, core, &m1);
            for s1 in &steps1 {
                // Only the step *shape* must be reproducible from σ.
                let matched = steps.iter().any(|s| same_step_shape(s, s1))
                    || matches!(s1, LocalStep::Step { .. })
                        && steps.iter().any(|s| match (s, s1) {
                            (
                                LocalStep::Step {
                                    msg: m,
                                    fp: f,
                                    core: c,
                                    ..
                                },
                                LocalStep::Step {
                                    msg: m1,
                                    fp: f1,
                                    core: c1,
                                    ..
                                },
                            ) => m == m1 && f == f1 && c == c1,
                            _ => false,
                        });
                if !matched {
                    return Err(WdViolation {
                        item: 4,
                        detail: format!(
                            "nondeterminism affected by memory outside δ0.rs ({})",
                            lang.name()
                        ),
                    });
                }
            }
        }
    }
    Ok(steps)
}

/// Checks `det(tl)` — every configuration reached from `entry` has at
/// most one outcome — dynamically along the module's executions.
///
/// # Errors
///
/// Returns a description of the first nondeterministic configuration.
pub fn check_det<L: Lang>(
    lang: &L,
    module: &L::Module,
    ge: &GlobalEnv,
    entry: &str,
    init_mem: &Memory,
    cfg: &ExploreCfg,
) -> Result<usize, String> {
    let flist = FreeList::for_thread(0);
    let Some(core) = lang.init_core(module, ge, entry, &[]) else {
        return Err(format!("InitCore failed for `{entry}`"));
    };
    let mut stack = vec![(core, init_mem.clone(), cfg.fuel)];
    let mut seen = FxHashSet::default();
    let mut checked = 0;
    while let Some((core, mem, fuel)) = stack.pop() {
        if fuel == 0 || !seen.insert((core.clone(), mem.clone())) {
            continue;
        }
        let steps = lang.step(module, ge, &flist, &core, &mem);
        if steps.len() > 1 {
            return Err(format!(
                "nondeterministic configuration in `{}` ({} outcomes)",
                lang.name(),
                steps.len()
            ));
        }
        checked += 1;
        for s in steps {
            match s {
                LocalStep::Step { core, mem, .. } => stack.push((core, mem, fuel - 1)),
                LocalStep::Call { cont, .. } => {
                    if let Some(resumed) = lang.resume(module, &cont, Val::Int(0)) {
                        stack.push((resumed, mem.clone(), fuel - 1));
                    }
                }
                LocalStep::Ret { .. } | LocalStep::Abort => {}
            }
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{toy_globals, toy_module, ToyInstr, ToyLang};

    #[test]
    fn toy_lang_is_well_defined() {
        let ge = toy_globals(&[("x", 1), ("y", 2)]);
        let (m, _) = toy_module(
            &[(
                "f",
                vec![
                    ToyInstr::AllocLocal,
                    ToyInstr::LoadG("x".into()),
                    ToyInstr::StoreL(0),
                    ToyInstr::LoadL(0),
                    ToyInstr::Add(1),
                    ToyInstr::StoreG("y".into()),
                    ToyInstr::EntAtom,
                    ToyInstr::LoadG("y".into()),
                    ToyInstr::ExtAtom,
                    ToyInstr::Choice,
                    ToyInstr::RetAcc,
                ],
            )],
            &[],
        );
        let report = check_wd(
            &ToyLang,
            &m,
            &ge,
            "f",
            &ge.initial_memory(),
            &ExploreCfg::default(),
        )
        .expect("toy is well-defined");
        assert!(report.configs >= 10);
        assert!(report.perturbed_runs > 0);
    }

    #[test]
    fn det_flags_choice() {
        let ge = toy_globals(&[]);
        let (m, _) = toy_module(&[("f", vec![ToyInstr::Choice, ToyInstr::RetAcc])], &[]);
        let err = check_det(
            &ToyLang,
            &m,
            &ge,
            "f",
            &ge.initial_memory(),
            &ExploreCfg::default(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn det_accepts_straightline() {
        let ge = toy_globals(&[("x", 0)]);
        let (m, _) = toy_module(
            &[(
                "f",
                vec![
                    ToyInstr::Const(1),
                    ToyInstr::StoreG("x".into()),
                    ToyInstr::Ret(0),
                ],
            )],
            &[],
        );
        let n = check_det(
            &ToyLang,
            &m,
            &ge,
            "f",
            &ge.initial_memory(),
            &ExploreCfg::default(),
        )
        .expect("deterministic");
        assert!(n >= 3);
    }

    /// A deliberately ill-defined language: reports an empty footprint
    /// while writing memory. The checker must flag item (2).
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct LyingLang;

    impl Lang for LyingLang {
        type Module = ();
        type Core = u8;

        fn name(&self) -> &'static str {
            "lying"
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
        ) -> Vec<LocalStep<u8>> {
            match core {
                0 => {
                    let mut m = mem.clone();
                    let a = crate::toy::toy_global_addr("x");
                    if !m.store(a, Val::Int(777)) {
                        return vec![LocalStep::Abort];
                    }
                    vec![LocalStep::Step {
                        msg: StepMsg::Tau,
                        fp: Footprint::emp(), // lie: the write is unreported
                        core: 1,
                        mem: m,
                    }]
                }
                _ => vec![LocalStep::Ret { val: Val::Int(0) }],
            }
        }
        fn resume(&self, _m: &(), _c: &u8, _ret: Val) -> Option<u8> {
            None
        }
    }

    /// [`LyingLang`]'s lie behind a detour: core 0 steps silently to 1
    /// and to 2, which also steps to 1; 1 steps to 3, whose step lies.
    /// With fuel 3 the lie is in reach only over the direct edge, and
    /// the search takes the detour first.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct DetourLang;

    impl Lang for DetourLang {
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
            ge: &GlobalEnv,
            fl: &FreeList,
            core: &u8,
            mem: &Memory,
        ) -> Vec<LocalStep<u8>> {
            let tau = |core| LocalStep::Step {
                msg: StepMsg::Tau,
                fp: Footprint::emp(),
                core,
                mem: mem.clone(),
            };
            match core {
                0 => vec![tau(1), tau(2)],
                2 => vec![tau(1)],
                1 => vec![tau(3)],
                _ => LyingLang.step(&(), ge, fl, &0, mem),
            }
        }
        fn resume(&self, _m: &(), _c: &u8, _ret: Val) -> Option<u8> {
            None
        }
    }

    #[test]
    fn lie_behind_a_detour_is_caught() {
        let ge = toy_globals(&[("x", 1)]);
        let err = check_wd(
            &DetourLang,
            &(),
            &ge,
            "f",
            &ge.initial_memory(),
            &ExploreCfg::with_fuel(3),
        )
        .expect_err("the lie is three steps away over the direct edge");
        assert_eq!(err.item, 2);
    }

    #[test]
    fn lying_language_is_caught() {
        let ge = toy_globals(&[("x", 1)]);
        let err = check_wd(
            &LyingLang,
            &(),
            &ge,
            "f",
            &ge.initial_memory(),
            &ExploreCfg::default(),
        )
        .expect_err("must be flagged");
        assert_eq!(err.item, 2);
    }

    /// A language whose behaviour depends on memory it never reads
    /// (violates item (3)/(4)).
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct PeekingLang;

    impl Lang for PeekingLang {
        type Module = ();
        type Core = u8;

        fn name(&self) -> &'static str {
            "peeking"
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
        ) -> Vec<LocalStep<u8>> {
            match core {
                0 => {
                    // Branch on a value without reporting the read.
                    let a = crate::toy::toy_global_addr("x");
                    let next = match mem.load(a) {
                        Some(Val::Int(i)) if i > 0 => 1,
                        _ => 2,
                    };
                    vec![LocalStep::Step {
                        msg: StepMsg::Tau,
                        fp: Footprint::emp(),
                        core: next,
                        mem: mem.clone(),
                    }]
                }
                _ => vec![LocalStep::Ret { val: Val::Int(0) }],
            }
        }
        fn resume(&self, _m: &(), _c: &u8, _ret: Val) -> Option<u8> {
            None
        }
    }

    #[test]
    fn peeking_language_is_caught() {
        let ge = toy_globals(&[("x", 1)]);
        let err = check_wd(
            &PeekingLang,
            &(),
            &ge,
            "f",
            &ge.initial_memory(),
            &ExploreCfg::default(),
        )
        .expect_err("must be flagged");
        assert!(err.item == 3 || err.item == 4, "{err}");
    }
}
