//! Data-race-freedom: DRF and NPDRF (§5, Fig. 9 of the paper).
//!
//! A configuration *predicts* a footprint for a thread either by one
//! `τ`-step outside atomic blocks (`Predict-0`, atomic bit 0) or by
//! entering an atomic block and accumulating any `τ*` prefix inside it
//! (`Predict-1`, atomic bit 1). A world steps to `Race` when two
//! distinct threads predict conflicting instrumented footprints; `DRF(P)`
//! holds when no reachable world races.
//!
//! `NPDRF` is the same notion over the non-preemptive semantics; the
//! framework's step ⑥/⑧ (Fig. 2) is their equivalence, validated here by
//! exhaustive checking on bounded programs.

use crate::explore::{
    ws_explore_until, AmpleHints, FxHashSet, INpWorld, IStep, IWorld, ParEngine, ParPreemptive,
    Reduction, ShardedCache, VisitedSet,
};
use crate::footprint::{AtomicBit, Footprint, TaggedFootprint};
use crate::lang::{Lang, StepMsg};
use crate::mem::Memory;
use crate::npworld::{NpStep, NpWorld};
use crate::refine::{collect_traces, ExploreCfg, Preemptive, Semantics, SuccStep, TraceSet};
use crate::world::{GStep, LoadError, Loaded, ThreadId, ThreadState, ThreadStep};
use std::cell::RefCell;
use std::sync::Arc;

/// Predictions memoised per interned `(thread, memory, 𝕕)` triple.
type PredCache = ShardedCache<Arc<[TaggedFootprint]>>;

/// A witness that two threads race.
///
/// `Ord` orders witnesses lexicographically by thread pair and footprint;
/// the engine uses it to merge per-worker findings into the minimum
/// witness.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct RaceWitness {
    /// The first racing thread.
    pub t1: ThreadId,
    /// The second racing thread.
    pub t2: ThreadId,
    /// The first thread's predicted footprint.
    pub fp1: TaggedFootprint,
    /// The second thread's predicted footprint.
    pub fp2: TaggedFootprint,
}

/// The result of a (NP)DRF check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DrfReport {
    /// A race witness, if one was found.
    pub race: Option<RaceWitness>,
    /// Number of distinct worlds visited.
    pub states: usize,
    /// True if the state budget was exhausted (the verdict is then only
    /// valid up to the bound).
    pub truncated: bool,
}

impl DrfReport {
    /// True if no race was found.
    pub fn is_drf(&self) -> bool {
        self.race.is_none()
    }
}

/// `predict(W, t, (δ, d))` (Fig. 9) for one thread against memory `mem`
/// under the *preemptive* semantics: all footprints the thread may be
/// about to generate, instrumented with the atomic bit — one `τ`-step
/// outside atomic blocks (`Predict-0`), or the `τ*` prefixes of an
/// atomic block it is entering (`Predict-1`).
pub fn predict<L: Lang>(
    loaded: &Loaded<L>,
    thread: &ThreadState<L>,
    mem: &Memory,
    cfg: &ExploreCfg,
) -> Vec<TaggedFootprint> {
    let mut out = Vec::new();
    for ts in loaded.local_thread_steps(thread, mem) {
        match ts {
            // Predict-0: a τ-step outside atomic blocks.
            ThreadStep::Internal {
                msg: StepMsg::Tau,
                fp,
                ..
            } => out.push(TaggedFootprint {
                fp,
                bit: AtomicBit::Outside,
            }),
            // Predict-1: enter the atomic block, then accumulate τ*.
            ThreadStep::Internal {
                msg: StepMsg::EntAtom,
                frames,
                mem: m,
                ..
            } => {
                let inner = ThreadState {
                    frames,
                    flist: thread.flist,
                };
                for fp in accumulate_block(loaded, inner, m, cfg.atomic_fuel, false) {
                    out.push(TaggedFootprint {
                        fp,
                        bit: AtomicBit::Inside,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// The non-preemptive prediction: the footprints of the thread's entire
/// *next execution block* — everything it will do before its next switch
/// point (atomic boundary or termination).
///
/// In the non-preemptive semantics other threads are parked at switch
/// points, so a one-step prediction would never observe two conflicting
/// accesses "at the same time"; predicting whole blocks restores the
/// equivalence with the preemptive DRF (the content of steps ⑥/⑧ of
/// Fig. 2; cf. Xiao et al. \[33\]). A thread parked inside an atomic block
/// (`𝕕(t) = 1`) contributes its pending block with atomic bit 1.
pub fn predict_np<L: Lang>(
    loaded: &Loaded<L>,
    thread: &ThreadState<L>,
    mem: &Memory,
    mid_atomic: bool,
    cfg: &ExploreCfg,
) -> Vec<TaggedFootprint> {
    let bit = if mid_atomic {
        AtomicBit::Inside
    } else {
        AtomicBit::Outside
    };
    accumulate_block(loaded, thread.clone(), mem.clone(), cfg.atomic_fuel, true)
        .into_iter()
        .map(|fp| TaggedFootprint { fp, bit })
        .collect()
}

/// Accumulated footprints of all executions of one block from a thread
/// state, one per maximal explored path (conflict detection is monotone
/// in the accumulated footprint, so maximal accumulations suffice). The
/// block ends at atomic boundaries and termination; with
/// `through_events` set, observable events do not end it (non-preemptive
/// blocks run through events).
fn accumulate_block<L: Lang>(
    loaded: &Loaded<L>,
    thread: ThreadState<L>,
    mem: Memory,
    fuel: usize,
    through_events: bool,
) -> Vec<Footprint> {
    let mut results = Vec::new();
    let mut stack = vec![(thread, mem, Footprint::emp(), fuel)];
    while let Some((thread, mem, acc, fuel)) = stack.pop() {
        if fuel == 0 || thread.is_done() {
            results.push(acc);
            continue;
        }
        let steps = loaded.local_thread_steps(&thread, &mem);
        let mut extended = false;
        for ts in steps {
            if let ThreadStep::Internal {
                msg,
                fp,
                frames,
                mem: m,
            } = ts
            {
                let in_block = match msg {
                    StepMsg::Tau => true,
                    StepMsg::Event(_) => through_events,
                    StepMsg::EntAtom | StepMsg::ExtAtom => false,
                };
                if in_block {
                    let next = ThreadState {
                        frames,
                        flist: thread.flist,
                    };
                    stack.push((next, m, acc.union(&fp), fuel - 1));
                    extended = true;
                }
            }
        }
        if !extended {
            // Reached an atomic boundary, an event, termination, abort,
            // or a stuck state: the accumulation ends here.
            results.push(acc);
        }
    }
    results
}

/// The first pair of threads whose predictions conflict (the `Race`
/// rule), over owned or memoised per-thread predictions.
fn find_conflict<P: AsRef<[TaggedFootprint]>>(preds: &[P]) -> Option<RaceWitness> {
    for (t1, p1) in preds.iter().enumerate() {
        for (t2, p2) in preds.iter().enumerate().skip(t1 + 1) {
            for fp1 in p1.as_ref() {
                for fp2 in p2.as_ref() {
                    if fp1.conflicts(fp2) {
                        return Some(RaceWitness {
                            t1,
                            t2,
                            fp1: fp1.clone(),
                            fp2: fp2.clone(),
                        });
                    }
                }
            }
        }
    }
    None
}

/// `DRF(P)` (Fig. 9): explores all reachable preemptive worlds and
/// checks the `Race` rule at each world whose atomic bit is 0.
///
/// `cfg.reduction` picks the explorer. [`Reduction::Off`] runs the
/// exhaustive sequential oracle (`cfg.threads`, `cfg.visited` and
/// `cfg.hints` do not apply). Any other reduction runs the
/// [`ParEngine`] on the work-stealing frontier with `cfg.threads`
/// workers over a `cfg.visited` visited set: the reduction runs inside
/// each worker, widened by `cfg.hints`, and each claimed world is
/// race-checked against predictions read off the engine's memoised
/// per-`(thread, memory)` expansions. A
/// race found in the reduced graph is always real (every reduced path
/// is a path of the full graph); a DRF verdict also relies on the
/// scoping discipline and the hints, so if the engine's monitor saw
/// either violated, the check re-runs on the oracle.
///
/// Both explorers exit at the first race found. The *verdict* is
/// deterministic whenever the exploration is not truncated
/// (finding-a-race is monotone), but with more than one worker the
/// reported witness and state count of a racy program depend on
/// scheduling — only a full DRF run visits the whole graph. For the
/// trace set too, from the same walk, see [`check_drf_with_traces`].
///
/// # Errors
///
/// Propagates `Load` failures.
///
/// # Examples
///
/// ```
/// use ccc_core::lang::Prog;
/// use ccc_core::race::check_drf;
/// use ccc_core::refine::ExploreCfg;
/// use ccc_core::toy::{toy_globals, toy_module, ToyInstr, ToyLang};
/// use ccc_core::world::Loaded;
/// // Two unsynchronized writers to the same global: racy.
/// let body = vec![ToyInstr::Const(1), ToyInstr::StoreG("x".into()), ToyInstr::Ret(0)];
/// let (m, _) = toy_module(&[("a", body.clone()), ("b", body)], &[]);
/// let l = Loaded::new(Prog::new(ToyLang, vec![(m, toy_globals(&[("x", 0)]))], ["a", "b"]))?;
/// assert!(!check_drf(&l, &ExploreCfg::default())?.is_drf());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_drf<L>(loaded: &Loaded<L>, cfg: &ExploreCfg) -> Result<DrfReport, LoadError>
where
    L: Lang + Sync,
    L::Module: Sync,
    L::Core: Send + Sync,
{
    if cfg.reduction == Reduction::Off {
        return check_drf_naive(loaded, cfg);
    }
    let eng = ParEngine::new(loaded, cfg.reduction, &cfg.hints);
    let init = eng.load()?;
    let visited = VisitedSet::new(cfg.visited);
    let pred_cache = PredCache::new();
    let (eng_ref, cache_ref, visited_ref) = (&eng, &pred_cache, &visited);
    let out = ws_explore_until(
        &visited,
        vec![init],
        cfg.threads,
        cfg.max_states,
        |_wid| {
            let mut steps: Vec<IStep> = Vec::new();
            move |w, acc: &mut Option<RaceWitness>, buf| {
                if !w.atom {
                    merge_witness(acc, race_at(eng_ref, cache_ref, w, cfg.atomic_fuel));
                }
                eng_ref.successors_into(w, visited_ref, &mut steps);
                buf.extend(steps.drain(..).filter_map(|s| match s {
                    IStep::Next { world, .. } => Some(world),
                    IStep::Abort => None,
                }));
            }
        },
        merge_witness,
        |acc| acc.is_some(),
    );
    if out.acc.is_none() && !eng.scoping_ok() {
        return check_drf_naive(loaded, cfg);
    }
    Ok(DrfReport {
        race: out.acc,
        states: out.states,
        truncated: out.truncated,
    })
}

// The benchmark package (`perfbench/`) still imports the old name.
#[doc(hidden)]
pub use self::check_drf as check_drf_par;

/// The `Race` rule at interned world `w` (atomic bit 0), over
/// predictions read off the engine's memo and memoised in `cache`.
fn race_at<L: Lang>(
    eng: &ParEngine<'_, L>,
    cache: &PredCache,
    w: &IWorld,
    atomic_fuel: usize,
) -> Option<RaceWitness> {
    let preds: Vec<_> = w
        .threads
        .iter()
        .map(|&tid| {
            eng.memoised(cache, tid, w.mem, false, || {
                eng.predict(tid, w.mem, atomic_fuel).into()
            })
        })
        .collect();
    find_conflict(&preds)
}

/// The reduced trace walk with the `Race` rule checked at every world
/// it expands whose atomic bit is 0, until the first race.
struct RaceChecked<'a, L: Lang> {
    sem: ParPreemptive<'a, L>,
    atomic_fuel: usize,
    cache: PredCache,
    race: RefCell<Option<RaceWitness>>,
}

impl<L: Lang> Semantics for RaceChecked<'_, L> {
    type State = IWorld;

    fn initials(&self) -> Result<Vec<IWorld>, LoadError> {
        self.sem.initials()
    }

    fn successors(&self, w: &IWorld) -> Vec<SuccStep<IWorld>> {
        if !w.atom && self.race.borrow().is_none() {
            *self.race.borrow_mut() = race_at(&self.sem.engine, &self.cache, w, self.atomic_fuel);
        }
        self.sem.successors(w)
    }

    fn is_done(&self, w: &IWorld) -> bool {
        self.sem.is_done(w)
    }
}

/// [`collect_traces_preemptive`](crate::refine::collect_traces_preemptive)
/// and [`check_drf`] from one exploration: the reduced trace walk also
/// checks the `Race` rule at every world it expands whose atomic bit is
/// 0. The trace set (with `expansions` and
/// `truncated`) is exactly `collect_traces_preemptive`'s, and the
/// verdict is `check_drf`'s wherever that is untruncated: the walk
/// explores a reduced graph under the same claim-before-expand cycle
/// guard (DESIGN.md, "One walk for traces and DRF"). The report's
/// `states` is the walk's `expansions`. [`Reduction::Off`] runs the two
/// oracles; a tripped scoping monitor re-collects the traces, and a
/// clean verdict, on the oracles; a walk truncated without a race hands
/// the verdict to `check_drf` (on `cfg.threads` workers), so a race past
/// the walk's budget is still found.
///
/// # Errors
///
/// Propagates `Load` failures.
pub fn check_drf_with_traces<L>(
    loaded: &Loaded<L>,
    cfg: &ExploreCfg,
) -> Result<(TraceSet, DrfReport), LoadError>
where
    L: Lang + Sync,
    L::Module: Sync,
    L::Core: Send + Sync,
{
    if cfg.reduction == Reduction::Off {
        let ts = collect_traces(&Preemptive(loaded), cfg)?;
        return Ok((ts, check_drf_naive(loaded, cfg)?));
    }
    let sem = RaceChecked {
        sem: ParPreemptive::new(loaded, cfg.reduction, &cfg.hints),
        atomic_fuel: cfg.atomic_fuel,
        cache: PredCache::new(),
        race: RefCell::new(None),
    };
    let mut ts = collect_traces(&sem, cfg)?;
    let (race, scoped) = (sem.race.into_inner(), sem.sem.engine.scoping_ok());
    let drf = match race {
        None if !scoped => check_drf_naive(loaded, cfg)?,
        None if ts.truncated => check_drf(loaded, cfg)?,
        race => DrfReport {
            race,
            states: ts.expansions,
            truncated: ts.truncated,
        },
    };
    if !scoped {
        ts = collect_traces(&Preemptive(loaded), cfg)?;
    }
    Ok((ts, drf))
}

/// The exhaustive oracle: plain DFS over owned worlds, no interning, no
/// reduction. Kept verbatim so the engine has a trusted baseline to
/// differ against.
fn check_drf_naive<L: Lang>(loaded: &Loaded<L>, cfg: &ExploreCfg) -> Result<DrfReport, LoadError> {
    let mut visited = FxHashSet::default();
    let mut stack = vec![loaded.load()?];
    let mut truncated = false;
    while let Some(w) = stack.pop() {
        if !visited.insert(w.clone()) {
            continue;
        }
        if visited.len() >= cfg.max_states {
            truncated = true;
            break;
        }
        if !w.atom {
            let preds: Vec<_> = w
                .threads
                .iter()
                .map(|t| predict(loaded, t, &w.mem, cfg))
                .collect();
            if let Some(witness) = find_conflict(&preds) {
                return Ok(DrfReport {
                    race: Some(witness),
                    states: visited.len(),
                    truncated,
                });
            }
        }
        for step in loaded.step_preemptive(&w) {
            if let GStep::Next { world, .. } = step {
                if !visited.contains(&world) {
                    stack.push(world);
                }
            }
            // Aborting executions cannot race further down this path.
        }
    }
    Ok(DrfReport {
        race: None,
        states: visited.len(),
        truncated,
    })
}

/// Merges two optional race witnesses, keeping the minimum (a
/// commutative, associative monoid — the parallel merge step).
fn merge_witness(total: &mut Option<RaceWitness>, other: Option<RaceWitness>) {
    *total = total.take().into_iter().chain(other).min();
}

/// The per-thread dynamic footprint unions of [`collect_footprints`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FootprintReport {
    /// Per-thread footprint unions, indexed like `prog.entries`.
    pub fps: Vec<Footprint>,
    /// Number of distinct worlds visited.
    pub states: usize,
    /// True if the state budget was exhausted: the unions then cover
    /// only the explored prefix of the behaviour, and soundness
    /// arguments built on them (e.g. static-footprint coverage) must
    /// not trust a truncated report.
    pub truncated: bool,
}

/// Explores all reachable preemptive worlds (bounded by
/// `cfg.max_states`, like [`check_drf`]) and accumulates, per thread,
/// the union of the footprints of every transition that thread takes in
/// any explored interleaving. Picks its explorer from `cfg` exactly as
/// [`check_drf`] does, with the same monitored fallback (under the
/// scoping discipline the reduction only reorders thread-private steps,
/// so every thread still takes every local transition it can and the
/// per-thread unions are unchanged). Per-worker unions are merged
/// elementwise, a commutative monoid, so the report is deterministic
/// whenever it is not truncated.
///
/// This is the concurrent counterpart of
/// [`run_main_traced`](crate::world::run_main_traced): the dynamic
/// ground truth against which `ccc-analysis` validates its per-entry
/// static footprints.
///
/// # Errors
///
/// Propagates `Load` failures.
pub fn collect_footprints<L>(
    loaded: &Loaded<L>,
    cfg: &ExploreCfg,
) -> Result<FootprintReport, LoadError>
where
    L: Lang + Sync,
    L::Module: Sync,
    L::Core: Send + Sync,
{
    if cfg.reduction == Reduction::Off {
        return collect_footprints_naive(loaded, cfg);
    }
    let n = loaded.prog.entries.len();
    let eng = ParEngine::new(loaded, cfg.reduction, &cfg.hints);
    let init = eng.load()?;
    let visited = VisitedSet::new(cfg.visited);
    let (eng_ref, visited_ref) = (&eng, &visited);
    let out = ws_explore_until(
        &visited,
        vec![init],
        cfg.threads,
        cfg.max_states,
        |_wid| {
            let mut steps: Vec<IStep> = Vec::new();
            move |w, acc: &mut Vec<Footprint>, buf| {
                if acc.is_empty() {
                    *acc = vec![Footprint::emp(); n];
                }
                eng_ref.successors_into(w, visited_ref, &mut steps);
                for s in steps.drain(..) {
                    if let IStep::Next { fp, tid, world, .. } = s {
                        acc[tid].extend(&fp);
                        buf.push(world);
                    }
                }
            }
        },
        merge_fps,
        |_: &Vec<Footprint>| false,
    );
    if !eng.scoping_ok() {
        return collect_footprints_naive(loaded, cfg);
    }
    let fps = if out.acc.is_empty() {
        vec![Footprint::emp(); n]
    } else {
        out.acc
    };
    Ok(FootprintReport {
        fps,
        states: out.states,
        truncated: out.truncated,
    })
}

fn collect_footprints_naive<L: Lang>(
    loaded: &Loaded<L>,
    cfg: &ExploreCfg,
) -> Result<FootprintReport, LoadError> {
    let mut fps = vec![Footprint::emp(); loaded.prog.entries.len()];
    let mut visited = FxHashSet::default();
    let mut stack = vec![loaded.load()?];
    let mut truncated = false;
    while let Some(w) = stack.pop() {
        if !visited.insert(w.clone()) {
            continue;
        }
        if visited.len() >= cfg.max_states {
            truncated = true;
            break;
        }
        // Under the fused-switch semantics each successor world's `cur`
        // is the thread that took the step, so footprints can be
        // attributed without re-deriving the scheduler choice.
        for step in loaded.step_preemptive_sched(&w) {
            if let GStep::Next { fp, world, .. } = step {
                fps[world.cur].extend(&fp);
                if !visited.contains(&world) {
                    stack.push(world);
                }
            }
        }
    }
    Ok(FootprintReport {
        fps,
        states: visited.len(),
        truncated,
    })
}

/// Elementwise union of per-worker footprint vectors (a commutative
/// monoid; the empty vector is the identity).
fn merge_fps(total: &mut Vec<Footprint>, part: Vec<Footprint>) {
    if total.is_empty() {
        *total = part;
    } else if !part.is_empty() {
        for (t, p) in total.iter_mut().zip(part) {
            t.extend(&p);
        }
    }
}

/// `NPDRF(P)`: the race check over the non-preemptive semantics. Threads
/// parked inside an atomic block (their bit in `𝕕` is 1) contribute the
/// `τ*` suffix of their pending block as an atomic prediction.
///
/// [`Reduction::Off`] runs the exhaustive sequential oracle; any other
/// `cfg.reduction` runs the engine: interned worlds
/// ([`ParEngine::intern_np_world`]) stepped over the memoised
/// per-`(thread, memory)` expansions ([`ParEngine::np_successors_into`])
/// on the work-stealing frontier, with `cfg.threads` workers over a
/// `cfg.visited` visited set, and [`predict_np`]'s block predictions
/// read off the memoised expansions and memoised per interned
/// `(thread, memory, 𝕕)` triple. The non-preemptive graph is already
/// interleaving-minimal (switch points only at atomic boundaries and
/// termination), so the engine visits exactly the oracle's worlds:
/// neither `cfg.reduction` nor `cfg.hints` applies. Exits at the first
/// race found, with the same caveats as [`check_drf`].
///
/// # Errors
///
/// Propagates `Load` failures.
pub fn check_npdrf<L>(loaded: &Loaded<L>, cfg: &ExploreCfg) -> Result<DrfReport, LoadError>
where
    L: Lang + Sync,
    L::Module: Sync,
    L::Core: Send + Sync,
{
    let initials = (0..loaded.prog.entries.len())
        .map(|t| loaded.np_load_with_first(t))
        .collect::<Result<Vec<_>, _>>()?;
    if cfg.reduction == Reduction::Off {
        return Ok(check_npdrf_naive(loaded, initials, cfg));
    }
    let eng = ParEngine::new(loaded, Reduction::Off, &AmpleHints::default());
    let pred_cache = PredCache::new();
    let (eng_ref, cache_ref) = (&eng, &pred_cache);
    let out = ws_explore_until(
        &VisitedSet::new(cfg.visited),
        initials
            .into_iter()
            .map(|w| eng.intern_np_world(w))
            .collect(),
        cfg.threads,
        cfg.max_states,
        |_wid| {
            let mut preds = Vec::new();
            move |w: &INpWorld, acc: &mut Option<RaceWitness>, buf: &mut Vec<INpWorld>| {
                preds.clear();
                preds.extend(w.threads.iter().zip(&w.dbits).map(|(&tid, &d)| {
                    let bit = [AtomicBit::Outside, AtomicBit::Inside][usize::from(d)];
                    eng_ref.memoised(cache_ref, tid, w.mem, d, || {
                        eng_ref
                            .block_predictions(tid, w.mem, cfg.atomic_fuel, true, bit)
                            .into()
                    })
                }));
                merge_witness(acc, find_conflict(&preds));
                eng_ref.np_successors_into(w, buf);
            }
        },
        merge_witness,
        |acc| acc.is_some(),
    );
    Ok(DrfReport {
        race: out.acc,
        states: out.states,
        truncated: out.truncated,
    })
}

// The benchmark package (`perfbench/`) still imports the old name.
#[doc(hidden)]
pub use self::check_npdrf as check_npdrf_par;

/// The exhaustive NPDRF oracle: plain DFS over owned worlds from every
/// initial thread choice.
fn check_npdrf_naive<L: Lang>(
    loaded: &Loaded<L>,
    mut stack: Vec<NpWorld<L>>,
    cfg: &ExploreCfg,
) -> DrfReport {
    let mut visited = FxHashSet::default();
    let mut truncated = false;
    while let Some(w) = stack.pop() {
        if !visited.insert(w.clone()) {
            continue;
        }
        if visited.len() >= cfg.max_states {
            truncated = true;
            break;
        }
        let preds: Vec<_> = w
            .threads
            .iter()
            .enumerate()
            .map(|(t, ts)| predict_np(loaded, ts, &w.mem, w.dbits[t], cfg))
            .collect();
        if let Some(witness) = find_conflict(&preds) {
            return DrfReport {
                race: Some(witness),
                states: visited.len(),
                truncated,
            };
        }
        for step in loaded.step_np(&w) {
            if let NpStep::Next { world, .. } = step {
                if !visited.contains(&world) {
                    stack.push(world);
                }
            }
        }
    }
    DrfReport {
        race: None,
        states: visited.len(),
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::VisitedMode;
    use crate::lang::Prog;
    use crate::toy::{toy_globals, toy_module, ToyInstr, ToyLang};
    use ToyInstr::{Add, Bnz, Const, EntAtom, ExtAtom, Jmp, Print, Ret};

    fn ld(global: &str) -> ToyInstr {
        ToyInstr::LoadG(global.into())
    }

    fn st(global: &str) -> ToyInstr {
        ToyInstr::StoreG(global.into())
    }

    fn loaded(
        funcs: &[(&str, Vec<ToyInstr>)],
        globals: &[(&str, i64)],
        entries: &[&str],
    ) -> Loaded<ToyLang> {
        let (m, _) = toy_module(funcs, &[]);
        Loaded::new(Prog::new(
            ToyLang,
            vec![(m, toy_globals(globals))],
            entries.iter().map(|s| s.to_string()),
        ))
        .expect("link")
    }

    /// The oracle's `(DRF, NPDRF)` verdicts, after checking that the
    /// engine gives the same ones at 1 and 2 workers, and on a race-free
    /// program the same NPDRF state count.
    fn verdicts(l: &Loaded<ToyLang>) -> (bool, bool) {
        let oracle = ExploreCfg::default();
        let drf = check_drf(l, &oracle).expect("drf").is_drf();
        let np = check_npdrf(l, &oracle).expect("npdrf");
        for threads in [1, 2] {
            let cfg = ExploreCfg {
                reduction: Reduction::Ample,
                threads,
                visited: VisitedMode::Exact,
                ..oracle.clone()
            };
            assert_eq!(check_drf(l, &cfg).expect("drf").is_drf(), drf, "{threads}");
            let e = check_npdrf(l, &cfg).expect("npdrf");
            assert_eq!(e.is_drf(), np.is_drf(), "NPDRF at {threads} workers");
            assert!(!np.is_drf() || e.states == np.states, "{threads} workers");
        }
        (drf, np.is_drf())
    }

    /// Threads `a` and `b` both running `body`, over a global `x = 0`.
    fn twins(body: Vec<ToyInstr>) -> Loaded<ToyLang> {
        let funcs = [("a", body.clone()), ("b", body)];
        loaded(&funcs, &[("x", 0)], &["a", "b"])
    }

    fn unsync_writers() -> Loaded<ToyLang> {
        twins(vec![Const(1), st("x"), Ret(0)])
    }

    fn atomic_writers() -> Loaded<ToyLang> {
        let body = vec![EntAtom, ld("x"), Add(1), st("x"), ExtAtom, Ret(0)];
        twins(body)
    }

    #[test]
    fn unsynchronized_writes_race() {
        // NPDRF must also catch the race.
        assert_eq!(verdicts(&unsync_writers()), (false, false));
    }

    #[test]
    fn atomic_writes_are_race_free() {
        assert_eq!(verdicts(&atomic_writers()), (true, true));
    }

    #[test]
    fn read_read_is_not_a_race() {
        assert_eq!(verdicts(&twins(vec![ld("x"), Ret(0)])), (true, true));
    }

    #[test]
    fn atomic_vs_plain_access_races() {
        // One thread writes x inside an atomic block, the other reads it
        // with a plain access: still a race ((δ1,1) ⌢ (δ2,0)).
        let writer = vec![EntAtom, Const(1), st("x"), ExtAtom, Ret(0)];
        let reader = vec![ld("x"), Ret(0)];
        let l = loaded(&[("w", writer), ("r", reader)], &[("x", 0)], &["w", "r"]);
        assert_eq!(verdicts(&l), (false, false));
    }

    #[test]
    fn local_accesses_never_race() {
        let body = vec![
            ToyInstr::AllocLocal,
            Const(5),
            ToyInstr::StoreL(0),
            ToyInstr::LoadL(0),
            ToyInstr::RetAcc,
        ];
        assert_eq!(verdicts(&twins(body)), (true, true));
    }

    #[test]
    fn drf_and_npdrf_agree_on_corpus() {
        for l in [unsync_writers(), atomic_writers()] {
            let (d, n) = verdicts(&l);
            assert_eq!(d, n, "DRF ⟺ NPDRF violated");
        }
    }

    #[test]
    fn engine_predictions_equal_the_interpreters() {
        // Every `(thread, memory)` pair the engine expands on the
        // programs above, preemptive and non-preemptive, at the default
        // atomic fuel and at one that cuts blocks short: the predictions
        // read off the memo are `predict`'s and `predict_np`'s, in order.
        let a = vec![EntAtom, ld("g"), Bnz(5), Const(1), st("x"), ExtAtom, Ret(0)];
        let b = vec![EntAtom, Const(1), st("g"), ExtAtom, Ret(0)];
        let progs = [
            unsync_writers(),
            atomic_writers(),
            twins(vec![ld("x"), Ret(0)]),
            twins(vec![Const(0), EntAtom, Jmp(4), ExtAtom, st("x"), Jmp(3)]),
            // An event inside the block: `Predict-1` stops at it.
            twins(vec![EntAtom, ld("x"), Print, st("x"), ExtAtom, Ret(0)]),
            loaded(&[("a", a), ("b", b)], &[("g", 0), ("x", 0)], &["a", "b"]),
        ];
        for (i, l) in progs.iter().enumerate() {
            for atomic_fuel in [64, 2] {
                let cfg = ExploreCfg {
                    atomic_fuel,
                    ..ExploreCfg::default()
                };
                let eng = ParEngine::new(l, Reduction::Off, &AmpleHints::default());
                let visited = VisitedSet::new(VisitedMode::Exact);
                let mut stack = vec![eng.load().expect("load")];
                let mut steps = Vec::new();
                while let Some(w) = stack.pop() {
                    if visited.insert(&w) {
                        eng.successors_into(&w, &visited, &mut steps);
                        stack.extend(steps.drain(..).filter_map(|s| match s {
                            IStep::Next { world, .. } => Some(world),
                            IStep::Abort => None,
                        }));
                    }
                }
                let np_visited = VisitedSet::new(VisitedMode::Exact);
                let mut np_stack: Vec<INpWorld> = (0..2)
                    .map(|t| eng.intern_np_world(l.np_load_with_first(t).expect("load")))
                    .collect();
                while let Some(w) = np_stack.pop() {
                    if np_visited.insert(&w) {
                        eng.np_successors_into(&w, &mut np_stack);
                    }
                }
                let pairs = eng.expanded_pairs();
                assert!(pairs.len() > 4, "program {i}: {} pairs", pairs.len());
                for (tid, mid, t) in pairs {
                    let m = eng.memory(mid);
                    assert_eq!(
                        eng.predict(tid, mid, atomic_fuel),
                        predict(l, &t, &m, &cfg),
                        "program {i}, pair ({tid}, {mid}), fuel {atomic_fuel}"
                    );
                    for (d, bit) in [(false, AtomicBit::Outside), (true, AtomicBit::Inside)] {
                        assert_eq!(
                            eng.block_predictions(tid, mid, atomic_fuel, true, bit),
                            predict_np(l, &t, &m, d, &cfg),
                            "program {i}, pair ({tid}, {mid}), 𝕕 {d}, fuel {atomic_fuel}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prediction_memo_key_has_the_memory() {
        // `a` parks inside its atomic block, first with g = 0; `b` then
        // sets g and writes x. `a` writes x only after reading g = 0, so
        // a prediction kept from g = 0 shows a race the program lacks.
        let a = vec![EntAtom, ld("g"), Bnz(5), Const(1), st("x"), ExtAtom, Ret(0)];
        let b = vec![
            EntAtom,
            Const(1),
            st("g"),
            ExtAtom,
            Const(2),
            st("x"),
            Ret(0),
        ];
        let l = loaded(&[("a", a), ("b", b)], &[("g", 0), ("x", 0)], &["a", "b"]);
        assert_eq!(verdicts(&l), (true, true));
    }

    #[test]
    fn prediction_memo_key_has_the_atomic_bit() {
        // `a` reaches its `StoreG x` first inside an atomic block, then
        // outside it (after the `ExtAtom` at 3) with the same state and
        // memory. Only the second, plain write races with `b`'s atomic
        // read: a prediction kept from 𝕕 = 1 hides it.
        let a = vec![Const(0), EntAtom, Jmp(4), ExtAtom, st("x"), Jmp(3)];
        let b = vec![EntAtom, ld("x"), ExtAtom, Ret(0)];
        let l = loaded(&[("a", a), ("b", b)], &[("x", 0)], &["a", "b"]);
        assert_eq!(verdicts(&l), (false, false));
    }
}
