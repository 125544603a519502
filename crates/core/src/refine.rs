//! Event traces, refinement `⊑`, and equivalence `≈` (§3.2 of the paper).
//!
//! An externally observable event trace `B` is a sequence of events,
//! possibly ending with a termination marker `done` or an abortion
//! marker `abort`. `P ⊑ P̃` holds when every trace of `P` is a trace of
//! `P̃`, and `P ≈ P̃` when the trace sets coincide.
//!
//! Trace sets are computed by exhaustive, *bounded* exploration of the
//! global semantics (all schedules and all internal nondeterminism).
//! Executions cut off by the step budget yield [`Terminal::Cut`] traces,
//! which refinement checking treats as extendable prefixes. The bound is
//! the executable substitute for the paper's coinductive trace
//! definitions (see DESIGN.md, "Limitations").
//!
//! The module is generic over a [`Semantics`]: both the preemptive
//! ([`Preemptive`]) and non-preemptive ([`NonPreemptive`]) global
//! semantics instantiate it, which is how the framework states the
//! equivalence `let Π in f1 | … | fn ≈ let Π in f1 ∥ … ∥ fn` for DRF
//! programs (Lem. 9, steps ① and ② of Fig. 2).

use crate::explore::{AmpleHints, FxHashMap, FxHashSet, ParPreemptive, Reduction, VisitedMode};
use crate::lang::{Event, Lang};
use crate::npworld::{NpStep, NpWorld};
use crate::world::{GLabel, GStep, LoadError, Loaded, World};
use std::collections::BTreeSet;
use std::hash::Hash;
use std::rc::Rc;

/// Exploration bounds shared by the trace, safety, and race checkers.
#[derive(Clone, Debug)]
pub struct ExploreCfg {
    /// Maximum number of global steps along any single path.
    pub fuel: usize,
    /// Overall budget on expanded / visited states.
    pub max_states: usize,
    /// Bound on `τ*` lookahead inside atomic blocks (race prediction).
    pub atomic_fuel: usize,
    /// Which explorer runs ([`crate::race::check_drf`],
    /// [`crate::race::collect_footprints`], [`crate::race::check_npdrf`],
    /// [`collect_traces_preemptive`]): `Off` is the exhaustive
    /// sequential oracle, anything else the interned, memoised engine
    /// ([`crate::explore::ParEngine`]) with that partial-order reduction
    /// (NPDRF has none and runs the engine on non-preemptive worlds
    /// unreduced).
    pub reduction: Reduction,
    /// Workers of the engine's work-stealing frontier; `0` and `1` both
    /// mean one worker, run inline on the calling thread. The oracle
    /// (`Reduction::Off`), trace collection, and the `check_safe`,
    /// `count_states`, `ReachClose` and well-definedness checks are
    /// sequential and ignore it.
    pub threads: usize,
    /// How the engine's frontier stores its visited set: compact
    /// 64-bit fingerprints (the default) or exact states — see
    /// [`crate::explore::VisitedMode`] for the collision trade-off.
    /// Soundness-sensitive callers (the fuzz oracle) pick `Exact`. The
    /// sequential explorers always store exact states.
    pub visited: VisitedMode,
    /// Untrusted per-thread privacy hints that widen the ample
    /// criterion (see [`AmpleHints`]); empty by default. The engine
    /// monitors them and falls back to the oracle when one is violated,
    /// so a wrong hint costs time, never soundness.
    pub hints: AmpleHints,
}

impl Default for ExploreCfg {
    fn default() -> ExploreCfg {
        ExploreCfg {
            fuel: 120,
            max_states: 1_000_000,
            atomic_fuel: 64,
            reduction: Reduction::Off,
            threads: 1,
            visited: VisitedMode::Fingerprint,
            hints: AmpleHints::default(),
        }
    }
}

impl ExploreCfg {
    /// A configuration with the given per-path fuel and default budgets.
    pub fn with_fuel(fuel: usize) -> ExploreCfg {
        ExploreCfg {
            fuel,
            ..ExploreCfg::default()
        }
    }
}

/// How a (bounded) execution ended.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Terminal {
    /// All threads terminated (`done`).
    Done,
    /// The execution aborted (`abort`).
    Abort,
    /// The execution entered a cycle: it diverges, emitting no further
    /// events (e.g. an unfairly scheduled spin loop). This is *exact*
    /// knowledge, unlike [`Terminal::Cut`].
    Diverge,
    /// The step budget ran out; the trace is a prefix of some longer,
    /// unknown behaviour.
    Cut,
}

/// One observable event trace `B`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Trace {
    /// The events, in order.
    pub events: Vec<Event>,
    /// The trace's terminal marker.
    pub end: Terminal,
}

impl Trace {
    /// The trace `⟨⟩ · end`.
    pub fn just(end: Terminal) -> Trace {
        Trace {
            events: Vec::new(),
            end,
        }
    }

    fn cons(e: Option<Event>, mut t: Trace) -> Trace {
        if let Some(e) = e {
            t.events.insert(0, e);
        }
        t
    }
}

/// A set of traces together with exploration metadata.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceSet {
    /// The traces.
    pub traces: BTreeSet<Trace>,
    /// True if the exploration budget was exhausted somewhere (some
    /// behaviours may be missing beyond the recorded `Cut` prefixes).
    pub truncated: bool,
    /// Number of distinct states expanded (the collector memoises
    /// suffix traces per state, so each is expanded at most once).
    pub expansions: usize,
}

impl TraceSet {
    /// True if some trace aborts.
    pub fn has_abort(&self) -> bool {
        self.traces.iter().any(|t| t.end == Terminal::Abort)
    }
}

/// One successor in the generic exploration interface.
#[derive(Debug)]
pub enum SuccStep<S> {
    /// A successor state, with the event it emitted (if any).
    Next {
        /// The emitted event, if the step was observable.
        event: Option<Event>,
        /// The successor state.
        state: S,
    },
    /// The step aborts.
    Abort,
}

/// A global semantics viewed abstractly: initial states, successors,
/// termination. Implemented by [`Preemptive`] and [`NonPreemptive`].
pub trait Semantics {
    /// Global states.
    type State: Clone + Eq + Hash;

    /// All initial states (the `Load` rule, including its
    /// nondeterministic choice of first thread where it matters).
    ///
    /// # Errors
    ///
    /// Propagates the `Load` rule's side-condition failures.
    fn initials(&self) -> Result<Vec<Self::State>, LoadError>;

    /// All successor steps of `s`.
    fn successors(&self, s: &Self::State) -> Vec<SuccStep<Self::State>>;

    /// True if `s` is a terminated (done) state.
    fn is_done(&self, s: &Self::State) -> bool;
}

/// The preemptive semantics of a loaded program (Fig. 7 top).
#[derive(Debug)]
pub struct Preemptive<'a, L: Lang>(pub &'a Loaded<L>);

impl<L: Lang> Semantics for Preemptive<'_, L> {
    type State = World<L>;

    fn initials(&self) -> Result<Vec<World<L>>, LoadError> {
        // Switches may fire before the first step, so the initial choice
        // of thread is immaterial under preemption.
        Ok(vec![self.0.load()?])
    }

    fn successors(&self, s: &World<L>) -> Vec<SuccStep<World<L>>> {
        self.0
            .step_preemptive_sched(s)
            .into_iter()
            .map(|g| match g {
                GStep::Next { label, world, .. } => SuccStep::Next {
                    event: match label {
                        GLabel::Ev(e) => Some(e),
                        _ => None,
                    },
                    state: world,
                },
                GStep::Abort => SuccStep::Abort,
            })
            .collect()
    }

    fn is_done(&self, s: &World<L>) -> bool {
        s.is_done()
    }
}

/// The non-preemptive semantics of a loaded program (Fig. 7 bottom).
#[derive(Debug)]
pub struct NonPreemptive<'a, L: Lang>(pub &'a Loaded<L>);

impl<L: Lang> Semantics for NonPreemptive<'_, L> {
    type State = NpWorld<L>;

    fn initials(&self) -> Result<Vec<NpWorld<L>>, LoadError> {
        // The initial thread choice is a real nondeterminism source here.
        let n = self.0.prog.entries.len();
        (0..n).map(|t| self.0.np_load_with_first(t)).collect()
    }

    fn successors(&self, s: &NpWorld<L>) -> Vec<SuccStep<NpWorld<L>>> {
        self.0
            .step_np(s)
            .into_iter()
            .map(|g| match g {
                NpStep::Next { label, world, .. } => SuccStep::Next {
                    event: match label {
                        GLabel::Ev(e) => Some(e),
                        _ => None,
                    },
                    state: world,
                },
                NpStep::Abort => SuccStep::Abort,
            })
            .collect()
    }

    fn is_done(&self, s: &NpWorld<L>) -> bool {
        s.is_done()
    }
}

/// A suffix-trace set, shared between the memo and every frame that
/// has not had to copy it (see [`merge_suffixes`]).
type Suffixes = Rc<BTreeSet<Trace>>;

/// Folds `sub`, the suffix traces of a successor reached over `edge`,
/// into a frame's accumulated `out`. Over an event-free edge the sets
/// are shared, not copied: an empty `out` takes `sub` itself, and a set
/// contained in the other keeps the larger one. A copy is made only
/// when a second, different set is merged in, or when `edge`'s event
/// has to be prepended to every trace.
fn merge_suffixes(out: &mut Option<Suffixes>, edge: Option<Event>, sub: &Suffixes) {
    match (edge, out.as_mut()) {
        (None, None) => *out = Some(Rc::clone(sub)),
        (None, Some(cur)) => {
            if Rc::ptr_eq(cur, sub) || sub.is_subset(cur) {
                return;
            }
            if cur.is_subset(sub) {
                *cur = Rc::clone(sub);
                return;
            }
            let set = Rc::make_mut(cur);
            for t in sub.iter() {
                if !set.contains(t) {
                    set.insert(t.clone());
                }
            }
        }
        (Some(e), _) => {
            let set = Rc::make_mut(out.get_or_insert_with(Suffixes::default));
            set.extend(sub.iter().map(|t| Trace::cons(Some(e), t.clone())));
        }
    }
}

struct Collector<'a, S: Semantics> {
    sem: &'a S,
    cfg: &'a ExploreCfg,
    memo: FxHashMap<S::State, Suffixes>,
    /// The singleton set `{⟨⟩ · end}` for each [`Terminal`], indexed by
    /// its discriminant, shared by every leaf that resolves to it.
    ends: [Suffixes; 4],
    /// States on the current DFS path (cycle detection).
    on_path: FxHashSet<S::State>,
    expansions: usize,
    truncated: bool,
}

/// One open node of the iterative trace DFS: a state mid-expansion, the
/// event on the edge from its parent, its pending successors, and the
/// suffix traces accumulated so far.
struct TraceFrame<St> {
    state: St,
    edge: Option<Event>,
    succs: Vec<SuccStep<St>>,
    next: usize,
    out: Option<Suffixes>,
}

impl<S: Semantics> Collector<'_, S> {
    fn just(&self, end: Terminal) -> Suffixes {
        Rc::clone(&self.ends[end as usize])
    }

    /// Resolves `s` without expanding it, if possible: memo hit, cycle
    /// (diverges), terminated, or budget exhausted. `None` means the
    /// state needs expansion.
    fn resolve_leaf(&mut self, s: &S::State) -> Option<Suffixes> {
        if let Some(hit) = self.memo.get(s) {
            return Some(hit.clone());
        }
        if self.on_path.contains(s) {
            // A cycle: this schedule diverges (no new events past the
            // revisit, since the loop body's events were already
            // prepended on the way in). Exact, so not a truncation.
            return Some(self.just(Terminal::Diverge));
        }
        if self.sem.is_done(s) {
            let rc = self.just(Terminal::Done);
            self.memo.insert(s.clone(), rc.clone());
            return Some(rc);
        }
        if self.expansions >= self.cfg.max_states {
            self.truncated = true;
            return Some(self.just(Terminal::Cut));
        }
        None
    }

    /// Starts expanding `s`: counts it, puts it on the DFS path, and
    /// fetches its successors (an empty successor set is stuck, which we
    /// treat as abort).
    fn open_frame(&mut self, state: S::State, edge: Option<Event>) -> TraceFrame<S::State> {
        self.expansions += 1;
        self.on_path.insert(state.clone());
        let succs = self.sem.successors(&state);
        let out = succs.is_empty().then(|| self.just(Terminal::Abort));
        TraceFrame {
            state,
            edge,
            succs,
            next: 0,
            out,
        }
    }

    /// The suffix traces of `s`, memoized per state. A state revisited
    /// on the current DFS path marks a cycle: that occurrence
    /// contributes a [`Terminal::Diverge`] (the executable stand-in for
    /// the infinite behaviours through the cycle). This keeps the
    /// computation linear in the size of the (bounded) state graph
    /// instead of `states × fuel`, and the DFS runs on an explicit heap
    /// stack so deep state graphs cannot overflow the call stack before
    /// reaching `max_states`.
    fn traces(&mut self, root: &S::State) -> Suffixes {
        if let Some(rc) = self.resolve_leaf(root) {
            return rc;
        }
        let mut stack = vec![self.open_frame(root.clone(), None)];
        loop {
            // Advance the top frame past every child resolvable in
            // place; descend at the first child that needs expansion.
            let mut descend: Option<(S::State, Option<Event>)> = None;
            {
                let top = stack.last_mut().expect("stack nonempty");
                while top.next < top.succs.len() {
                    let i = top.next;
                    top.next += 1;
                    // Take the successor out of the frame (leaving an
                    // inert placeholder) so `self` can be borrowed.
                    match std::mem::replace(&mut top.succs[i], SuccStep::Abort) {
                        SuccStep::Abort => {
                            merge_suffixes(&mut top.out, None, &self.just(Terminal::Abort));
                        }
                        SuccStep::Next { event, state } => {
                            if let Some(sub) = self.resolve_leaf(&state) {
                                merge_suffixes(&mut top.out, event, &sub);
                            } else {
                                descend = Some((state, event));
                                break;
                            }
                        }
                    }
                }
            }
            if let Some((state, event)) = descend {
                let frame = self.open_frame(state, event);
                stack.push(frame);
                continue;
            }
            // The top frame is fully explored: memoize and fold its
            // traces into the parent (or return at the root).
            let done = stack.pop().expect("stack nonempty");
            self.on_path.remove(&done.state);
            let rc = done.out.unwrap_or_default();
            self.memo.insert(done.state, rc.clone());
            match stack.last_mut() {
                None => return rc,
                Some(parent) => merge_suffixes(&mut parent.out, done.edge, &rc),
            }
        }
    }
}

/// Collects the bounded trace set of a semantics instance.
///
/// # Errors
///
/// Propagates `Load` failures.
///
/// # Examples
///
/// ```
/// use ccc_core::lang::Prog;
/// use ccc_core::refine::{collect_traces, ExploreCfg, Preemptive, Terminal};
/// use ccc_core::toy::{toy_module, ToyInstr, ToyLang};
/// use ccc_core::world::Loaded;
/// let (m, ge) = toy_module(&[("main", vec![ToyInstr::Const(1), ToyInstr::Print, ToyInstr::Ret(0)])], &[]);
/// let loaded = Loaded::new(Prog::new(ToyLang, vec![(m, ge)], ["main"]))?;
/// let ts = collect_traces(&Preemptive(&loaded), &ExploreCfg::default())?;
/// assert!(ts.traces.iter().all(|t| t.end == Terminal::Done));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn collect_traces<S: Semantics>(sem: &S, cfg: &ExploreCfg) -> Result<TraceSet, LoadError> {
    let mut c = Collector {
        sem,
        cfg,
        memo: FxHashMap::default(),
        ends: [
            Terminal::Done,
            Terminal::Abort,
            Terminal::Diverge,
            Terminal::Cut,
        ]
        .map(|end| Rc::new([Trace::just(end)].into())),
        on_path: FxHashSet::default(),
        expansions: 0,
        truncated: false,
    };
    let mut traces = BTreeSet::new();
    for init in sem.initials()? {
        traces.extend(c.traces(&init).iter().cloned());
    }
    Ok(TraceSet {
        traces,
        truncated: c.truncated,
        expansions: c.expansions,
    })
}

/// Collects the bounded trace set of a loaded program under the
/// preemptive semantics, honouring `cfg.reduction` and `cfg.hints`:
/// with [`Reduction::Off`] this is exactly
/// `collect_traces(&Preemptive(l))`; otherwise [`collect_traces`] runs
/// single-threaded over the interned, memoised, partial-order-reducing
/// [`ParEngine`](crate::explore::ParEngine) — the engine the DRF checks
/// use — and if its scoping monitor trips (a step's footprint escaped
/// its thread's region or a hint, voiding the independence argument)
/// the exhaustive exploration is re-run so the result is always sound.
/// `cfg.threads` and `cfg.visited` do not apply: the ample cycle guard
/// always checks an exact set of expanded states.
///
/// # Errors
///
/// Propagates `Load` failures.
pub fn collect_traces_preemptive<L: Lang>(
    loaded: &Loaded<L>,
    cfg: &ExploreCfg,
) -> Result<TraceSet, LoadError> {
    if cfg.reduction == Reduction::Off {
        return collect_traces(&Preemptive(loaded), cfg);
    }
    let sem = ParPreemptive::new(loaded, cfg.reduction, &cfg.hints);
    let ts = collect_traces(&sem, cfg)?;
    if sem.engine.scoping_ok() {
        Ok(ts)
    } else {
        collect_traces(&Preemptive(loaded), cfg)
    }
}

/// True if trace `t` is accounted for by the trace set `src`,
/// interpreting `Cut` (budget truncation) as "extendable prefix" on
/// either side. `Diverge` is exact knowledge and matches only itself
/// (or a source truncation).
fn trace_matches(t: &Trace, src: &TraceSet) -> bool {
    if src.traces.contains(t) {
        return true;
    }
    // A complete target trace may extend a truncated source exploration.
    let cut_prefix = src
        .traces
        .iter()
        .any(|s| s.end == Terminal::Cut && t.events.starts_with(&s.events));
    match t.end {
        Terminal::Done | Terminal::Abort | Terminal::Diverge => cut_prefix,
        Terminal::Cut => cut_prefix || src.traces.iter().any(|s| s.events.starts_with(&t.events)),
    }
}

/// Event-trace refinement `tgt ⊑ src` on bounded trace sets: every
/// target trace is a source trace (modulo `Cut`-prefix extension).
pub fn trace_refines(tgt: &TraceSet, src: &TraceSet) -> bool {
    tgt.traces.iter().all(|t| trace_matches(t, src))
}

/// Event-trace equivalence `≈` on bounded trace sets.
pub fn trace_equiv(a: &TraceSet, b: &TraceSet) -> bool {
    trace_refines(a, b) && trace_refines(b, a)
}

/// The termination-insensitive refinement `⊑′` of §7.3: like
/// [`trace_refines`] except that a *diverging* target trace needs only
/// an event-prefix in the source. The object simulation `4ᵒ` does not
/// preserve termination, so the relaxed target may hang where the
/// abstract source would go on (the canonical case: a spin lock whose
/// release store sits unflushed in a TSO buffer forever under an unfair
/// schedule). Completed and aborting target traces are still matched
/// strictly.
pub fn trace_refines_nonterm(tgt: &TraceSet, src: &TraceSet) -> bool {
    tgt.traces.iter().all(|t| {
        trace_matches(t, src)
            || (t.end == Terminal::Diverge
                && src.traces.iter().any(|s| s.events.starts_with(&t.events)))
    })
}

/// Result of a reachability safety check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SafetyReport {
    /// True if no abort is reachable within the budget.
    pub safe: bool,
    /// Number of distinct states visited.
    pub states: usize,
    /// True if the state budget was exhausted.
    pub truncated: bool,
}

/// `Safe(P)`: no reachable abort under the given semantics (used as a
/// premise of the final theorem, Def. 11).
///
/// # Errors
///
/// Propagates `Load` failures.
pub fn check_safe<S: Semantics>(sem: &S, cfg: &ExploreCfg) -> Result<SafetyReport, LoadError> {
    let mut visited: FxHashSet<S::State> = FxHashSet::default();
    let mut stack = sem.initials()?;
    let mut truncated = false;
    while let Some(s) = stack.pop() {
        if !visited.insert(s.clone()) {
            continue;
        }
        if visited.len() >= cfg.max_states {
            truncated = true;
            break;
        }
        for succ in sem.successors(&s) {
            match succ {
                SuccStep::Next { state, .. } => {
                    if !visited.contains(&state) {
                        stack.push(state);
                    }
                }
                SuccStep::Abort => {
                    return Ok(SafetyReport {
                        safe: false,
                        states: visited.len(),
                        truncated,
                    })
                }
            }
        }
    }
    Ok(SafetyReport {
        safe: true,
        states: visited.len(),
        truncated,
    })
}

/// Counts the reachable states of a semantics (used by the benchmark
/// harness to contrast preemptive and non-preemptive state spaces).
///
/// # Errors
///
/// Propagates `Load` failures.
pub fn count_states<S: Semantics>(sem: &S, cfg: &ExploreCfg) -> Result<SafetyReport, LoadError> {
    let mut visited: FxHashSet<S::State> = FxHashSet::default();
    let mut stack = sem.initials()?;
    let mut truncated = false;
    while let Some(s) = stack.pop() {
        if !visited.insert(s.clone()) {
            continue;
        }
        if visited.len() >= cfg.max_states {
            truncated = true;
            break;
        }
        for succ in sem.successors(&s) {
            if let SuccStep::Next { state, .. } = succ {
                if !visited.contains(&state) {
                    stack.push(state);
                }
            }
        }
    }
    Ok(SafetyReport {
        safe: true,
        states: visited.len(),
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::Prog;
    use crate::toy::{toy_globals, toy_module, ToyInstr, ToyLang};

    fn loaded(prog: Prog<ToyLang>) -> Loaded<ToyLang> {
        Loaded::new(prog).expect("link")
    }

    fn print_prog(values: &[i64]) -> Prog<ToyLang> {
        // One thread per value, printing inside an atomic block so the
        // non-preemptive semantics also interleaves them.
        let mut funcs = Vec::new();
        let names: Vec<String> = values.iter().map(|v| format!("t{v}")).collect();
        for (v, name) in values.iter().zip(&names) {
            funcs.push((
                name.as_str(),
                vec![
                    ToyInstr::EntAtom,
                    ToyInstr::Const(*v),
                    ToyInstr::Print,
                    ToyInstr::ExtAtom,
                    ToyInstr::Ret(0),
                ],
            ));
        }
        let (m, _) = toy_module(
            &funcs
                .iter()
                .map(|(n, i)| (*n, i.clone()))
                .collect::<Vec<_>>(),
            &[],
        );
        Prog::new(ToyLang, vec![(m, toy_globals(&[]))], names)
    }

    #[test]
    fn preemptive_traces_include_both_orders() {
        let l = loaded(print_prog(&[1, 2]));
        let ts = collect_traces(&Preemptive(&l), &ExploreCfg::default()).expect("traces");
        assert!(!ts.truncated);
        let events: Vec<Vec<Event>> = ts.traces.iter().map(|t| t.events.clone()).collect();
        assert!(events.contains(&vec![Event::Print(1), Event::Print(2)]));
        assert!(events.contains(&vec![Event::Print(2), Event::Print(1)]));
        assert!(ts.traces.iter().all(|t| t.end == Terminal::Done));
    }

    #[test]
    fn np_traces_equal_preemptive_for_drf_program() {
        let l = loaded(print_prog(&[1, 2]));
        let cfg = ExploreCfg::default();
        let p = collect_traces(&Preemptive(&l), &cfg).expect("p traces");
        let np = collect_traces(&NonPreemptive(&l), &cfg).expect("np traces");
        assert!(
            trace_equiv(&p, &np),
            "Lem. 9 instance failed:\np: {p:?}\nnp: {np:?}"
        );
    }

    #[test]
    fn np_state_space_is_smaller() {
        // Threads with long silent prefixes: preemption interleaves every
        // τ-step, the non-preemptive semantics runs each prefix as one
        // block.
        let mut funcs = Vec::new();
        let names = ["a", "b", "c"];
        for (i, name) in names.iter().enumerate() {
            funcs.push((
                *name,
                vec![
                    ToyInstr::Const(i as i64),
                    ToyInstr::Add(1),
                    ToyInstr::Add(2),
                    ToyInstr::Add(3),
                    ToyInstr::EntAtom,
                    ToyInstr::Print,
                    ToyInstr::ExtAtom,
                    ToyInstr::Ret(0),
                ],
            ));
        }
        let (m, _) = toy_module(&funcs, &[]);
        let l = loaded(Prog::new(ToyLang, vec![(m, toy_globals(&[]))], names));
        let cfg = ExploreCfg::default();
        let p = count_states(&Preemptive(&l), &cfg).expect("p");
        let np = count_states(&NonPreemptive(&l), &cfg).expect("np");
        assert!(np.states < p.states, "np {} !< p {}", np.states, p.states);
    }

    #[test]
    fn refinement_detects_new_behaviour() {
        let l12 = loaded(print_prog(&[1, 2]));
        let l1 = loaded(print_prog(&[1]));
        let cfg = ExploreCfg::default();
        let big = collect_traces(&Preemptive(&l12), &cfg).expect("big");
        let small = collect_traces(&Preemptive(&l1), &cfg).expect("small");
        assert!(!trace_refines(&small, &big));
        assert!(!trace_refines(&big, &small));
    }

    #[test]
    fn abort_appears_in_traces() {
        let (m, _) = toy_module(&[("t", vec![ToyInstr::Add(1)])], &[]);
        // Add on an undef accumulator? acc starts Int(0), Add ok, then pc
        // runs off the end: stuck => abort.
        let l = loaded(Prog::new(ToyLang, vec![(m, toy_globals(&[]))], ["t"]));
        let ts = collect_traces(&Preemptive(&l), &ExploreCfg::default()).expect("traces");
        assert!(ts.has_abort());
        let safety = check_safe(&Preemptive(&l), &ExploreCfg::default()).expect("safe");
        assert!(!safety.safe);
    }

    #[test]
    fn cut_traces_match_as_prefixes() {
        let mut src = TraceSet {
            traces: BTreeSet::new(),
            truncated: true,
            expansions: 0,
        };
        src.traces.insert(Trace {
            events: vec![Event::Print(1)],
            end: Terminal::Cut,
        });
        let tgt = TraceSet {
            traces: [Trace {
                events: vec![Event::Print(1), Event::Print(2)],
                end: Terminal::Done,
            }]
            .into(),
            truncated: false,
            expansions: 0,
        };
        assert!(trace_refines(&tgt, &src));
    }

    #[test]
    fn safe_program_reported_safe() {
        let l = loaded(print_prog(&[1, 2]));
        let r = check_safe(&Preemptive(&l), &ExploreCfg::default()).expect("safe");
        assert!(r.safe);
        assert!(!r.truncated);
    }

    #[test]
    fn suffix_sets_are_shared_until_they_differ() {
        let done = Trace::just(Terminal::Done);
        let printed = Trace::cons(Some(Event::Print(1)), done.clone());
        let a: Suffixes = Rc::new([done.clone()].into());
        let ab: Suffixes = Rc::new([done.clone(), printed.clone()].into());

        // τ-edges share: the first set is taken as is, a contained one
        // changes nothing, a containing one replaces it.
        let mut out = None;
        merge_suffixes(&mut out, None, &a);
        assert!(Rc::ptr_eq(out.as_ref().unwrap(), &a));
        merge_suffixes(&mut out, None, &a.clone());
        merge_suffixes(&mut out, None, &ab);
        assert!(Rc::ptr_eq(out.as_ref().unwrap(), &ab));
        merge_suffixes(&mut out, None, &a);
        assert!(Rc::ptr_eq(out.as_ref().unwrap(), &ab));

        // A second, different set copies, leaving the shared ones intact.
        let diverge: Suffixes = Rc::new([Trace::just(Terminal::Diverge)].into());
        merge_suffixes(&mut out, None, &diverge);
        assert_eq!(out.as_ref().unwrap().len(), 3);
        assert_eq!(ab.len(), 2);
        assert_eq!(diverge.len(), 1);

        // An event edge prepends, so it always copies.
        let mut out = None;
        merge_suffixes(&mut out, Some(Event::Print(1)), &a);
        assert_eq!(*out.unwrap(), [printed].into());
        assert_eq!(*a, [done].into());
    }
}
