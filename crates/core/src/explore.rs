//! The shared exploration engine.
//!
//! Every checker that substitutes for a Coq proof in this reproduction —
//! DRF/NPDRF ([`crate::race`]), trace refinement ([`crate::refine`]),
//! `ReachClose` ([`crate::rg`]), well-definedness ([`crate::wd`]) —
//! bottoms out in exhaustive exploration of a state graph. This module
//! provides the layers they build on:
//!
//! 1. **State interning** ([`ParEngine`]): worlds are hash-consed
//!    into [`IWorld`]s whose thread and memory components are
//!    structurally shared behind [`Rc`]s, so a visited set stores a
//!    handful of 32-bit ids instead of deep-cloned worlds, and successor
//!    dedup re-hashes only the *changed* component of a step (one thread
//!    state, and the memory only when it actually changed) instead of
//!    the whole world. The engine also memoises each interned
//!    `(thread, memory)` pair's local expansion. It is the only reduced
//!    engine: the DRF, NPDRF and footprint checkers and trace collection
//!    ([`collect_traces_preemptive`](crate::refine::collect_traces_preemptive))
//!    all run it, NPDRF over interned non-preemptive worlds
//!    ([`INpWorld`], [`ParEngine::np_successors_into`]) and without a
//!    reduction. Both race checkers read their predictions off the
//!    memoised expansions and memoise them per `(thread, memory, 𝕕)`
//!    ([`ParEngine::memoised`]).
//!
//! 2. **Footprint-directed partial-order reduction**
//!    ([`Reduction::Ample`]): the paper's own instrumented footprints
//!    (§5) are precisely an independence relation. A thread is selected
//!    as an *ample set* at a state only if every step it can take is an
//!    invisible `τ`-step whose footprint lies entirely inside the
//!    thread's own free-list region — under the `HG` scoping discipline
//!    (Fig. 8) no other thread ever touches that region, so such steps
//!    commute with every step of every other thread, now and forever.
//!    Events, atomic-block boundaries, thread termination, and any
//!    shared-region access stay fully interleaved, which preserves
//!    event-trace sets and race reachability. Soundness is
//!    unconditional: the engine *monitors* the scoping discipline while
//!    exploring (see [`ParEngine::scoping_ok`]) and callers fall back to
//!    the unreduced exploration if a step ever escapes its region; the
//!    "ignoring" problem of ample-set reduction is handled by fully
//!    expanding any state whose ample successor was already expanded,
//!    which guarantees every cycle of the reduced graph contains a
//!    fully-expanded state.
//!
//! 3. **One single-threaded search.** The race and footprint checkers
//!    run a depth-first search that claims each state in an exact
//!    visited set before expanding it — the order the cycle guard
//!    relies on. Every exploration is a deterministic function of the
//!    program and the configuration: state counts, truncation points
//!    and race witnesses do not depend on scheduling.
//!
//! The naive sequential explorers remain available behind
//! `ExploreCfg { reduction: Reduction::Off, .. }` and serve as the
//! single trusted differential oracle: on the whole corpus the engine
//! must produce the same verdicts, trace sets, and footprint unions
//! (`tests/tests/explore.rs`).

use crate::footprint::{AtomicBit, Footprint, TaggedFootprint};
use crate::lang::{Event, Lang, StepMsg};
use crate::mem::{Addr, Memory};
use crate::npworld::NpWorld;
use crate::refine::{Semantics, SuccStep};
use crate::world::{GLabel, LoadError, Loaded, ThreadId, ThreadState, ThreadStep, World};
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Fast non-cryptographic hashing (FxHash-style, implemented in-repo)
// ---------------------------------------------------------------------------

/// The multiplier of the Firefox `FxHasher` (a gxhash/FNV-style mixing
/// constant: `π`'s fractional bits, truncated to 64 bits and made odd).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const FX_ROTATE: u32 = 5;

/// A fast, deterministic, non-cryptographic hasher (the `FxHash`
/// algorithm used by rustc, re-implemented here to avoid a dependency).
///
/// Exploration dominates every checker's runtime and hashing dominates
/// exploration, so all visited sets and the interner use this instead of
/// the DoS-resistant (but much slower, and randomly seeded) SipHash of
/// `std`. Determinism matters: it makes state counts and truncation
/// points reproducible across runs, which the differential suite and the
/// benchmark harness rely on.
#[derive(Clone, Copy, Default, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(FX_ROTATE) ^ i).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf) ^ rem.len() as u64);
        }
    }
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` using the fast deterministic hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` using the fast deterministic hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Hashes one value with [`FxHasher`].
pub fn fx_hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// Records that `state` is about to be expanded with `fuel > 0` steps
/// left; false when an earlier expansion had at least as much fuel. A
/// fuel-bounded search must re-expand a state that arrives again with
/// more fuel: what the first, smaller budget cut off may lie within the
/// larger one. (A fuel-blind visited set misses a violation reachable
/// only over the shorter of two paths whenever the longer is explored
/// first.)
pub(crate) fn gains_fuel<S: Eq + Hash>(
    expanded: &mut FxHashMap<S, usize>,
    state: S,
    fuel: usize,
) -> bool {
    let best = expanded.entry(state).or_insert(0);
    if fuel <= *best {
        return false;
    }
    *best = fuel;
    true
}

// ---------------------------------------------------------------------------
// Reduction modes
// ---------------------------------------------------------------------------

/// Which partial-order reduction the preemptive explorers apply.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Reduction {
    /// No reduction: the exhaustive sequential explorers, the single
    /// trusted differential oracle.
    #[default]
    Off,
    /// Footprint-directed ample-set reduction over interned states (see
    /// the module documentation for the soundness argument).
    Ample,
    /// A deliberately *unsound* ample criterion that also treats
    /// shared-global accesses as independent. Exists only so the
    /// differential test suite can prove it catches a bad independence
    /// judgment; never use it for real checking.
    #[doc(hidden)]
    AmpleOverbroad,
    /// A deliberately *unsound* variant of [`Reduction::Ample`] that
    /// skips the seen-set cycle re-expansion (the C3 "ignoring" guard).
    /// Exists only so the differential test suite can prove that a
    /// search which stops re-expanding around cycles is caught — it
    /// ample-loops through silent cycles forever and misses races other
    /// threads would exhibit. Never use it for real checking.
    #[doc(hidden)]
    AmpleIgnoreCycles,
}

impl Reduction {
    fn is_ample(self) -> bool {
        matches!(
            self,
            Reduction::Ample | Reduction::AmpleOverbroad | Reduction::AmpleIgnoreCycles
        )
    }

    fn ignores_cycles(self) -> bool {
        matches!(self, Reduction::AmpleIgnoreCycles)
    }
}

/// Static per-thread privacy hints for the ample-set reduction.
///
/// `private[t]` is a set of addresses (typically shared globals) that a
/// static escape analysis proved are only ever accessed by thread `t`
/// (see `ccc-analysis`' `absint::escape_analysis`). A hinted engine also
/// accepts `τ`-steps of `t` whose footprints stay inside
/// `flist(t) ∪ private[t]` as ample, extending the reduction beyond the
/// free-list scoping discipline to proven-thread-local globals.
///
/// The hints are **untrusted**: the engine requires the per-thread sets
/// to be pairwise disjoint up front (overlapping claims are contradictory
/// and the hints are dropped), and monitors every explored step against
/// every *other* thread's private set. A violating access can never
/// itself be an ample step — its address lies outside the stepping
/// thread's free list and (by disjointness) outside its private set — so
/// it stays fully interleaved and trips the monitor, flipping
/// [`ParEngine::scoping_ok`]; callers then discard the reduced result and
/// fall back exactly as for a free-list scoping violation.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct AmpleHints {
    /// Addresses proven private to each thread, indexed by thread id
    /// (missing tail entries mean "no hints for that thread").
    pub private: Vec<BTreeSet<Addr>>,
}

impl AmpleHints {
    /// True when no thread has any hinted-private address.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.private.iter().all(BTreeSet::is_empty)
    }

    /// True when the per-thread sets are pairwise disjoint — the
    /// well-formedness requirement of the privacy claim.
    #[must_use]
    pub fn disjoint(&self) -> bool {
        let mut seen = BTreeSet::new();
        self.private.iter().flatten().all(|a| seen.insert(*a))
    }

    /// The hinted-private set of thread `t` (empty if unhinted).
    fn private_of(&self, t: ThreadId) -> Option<&BTreeSet<Addr>> {
        self.private.get(t).filter(|s| !s.is_empty())
    }

    /// True when a step of thread `t` with footprint `fp` touches an
    /// address hinted private to a *different* thread.
    fn violated_by(&self, t: ThreadId, fp: &Footprint) -> bool {
        self.private
            .iter()
            .enumerate()
            .any(|(u, set)| u != t && !set.is_empty() && fp.locs().iter().any(|a| set.contains(a)))
    }
}

// ---------------------------------------------------------------------------
// Hash-consing pools
// ---------------------------------------------------------------------------

/// A hash-consing pool: interns values behind [`Rc`]s, assigning dense
/// ids below `2^ID_BITS`, with each value's hash computed exactly once.
struct Pool<T> {
    items: Vec<Rc<T>>,
    /// hash → candidate ids (collision bucket).
    table: FxHashMap<u64, Vec<u32>>,
}

impl<T: Eq + Hash> Pool<T> {
    fn new() -> Pool<T> {
        Pool {
            items: Vec::new(),
            table: FxHashMap::default(),
        }
    }

    fn intern(&mut self, value: T) -> u32 {
        let h = fx_hash_of(&value);
        if let Some(cands) = self.table.get(&h) {
            for &id in cands {
                if *self.items[id as usize] == value {
                    return id;
                }
            }
        }
        assert!(self.items.len() < 1 << ID_BITS, "interner overflow");
        let id = self.items.len() as u32;
        self.items.push(Rc::new(value));
        self.table.entry(h).or_default().push(id);
        id
    }

    fn get(&self, id: u32) -> &Rc<T> {
        &self.items[id as usize]
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

impl<T> fmt::Debug for Pool<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pool({} items)", self.items.len())
    }
}

// ---------------------------------------------------------------------------
// Interned worlds
// ---------------------------------------------------------------------------

/// An interned preemptive world: the same data as
/// [`World`], with the thread states and the memory
/// replaced by pool ids. Hashing and comparing an `IWorld` touches a few
/// machine words instead of the whole heap structure.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct IWorld {
    /// Pool id of each thread's state (index = thread id).
    pub threads: Vec<u32>,
    /// The current thread.
    pub cur: ThreadId,
    /// The atomic bit `d`.
    pub atom: bool,
    /// Pool id of the shared memory.
    pub mem: u32,
}

/// One global step over interned worlds.
#[derive(Clone, Debug)]
pub enum IStep {
    /// A successor world.
    Next {
        /// The step label.
        label: GLabel,
        /// The footprint of the underlying local step.
        fp: Footprint,
        /// The thread that took the step (`== world.cur`).
        tid: ThreadId,
        /// The successor world.
        world: IWorld,
    },
    /// The step aborts.
    Abort,
}

/// An interned non-preemptive world: the same data as [`NpWorld`], with
/// the thread states and the memory replaced by the ids of the same
/// pools [`IWorld`] uses.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct INpWorld {
    /// Pool id of each thread's state (index = thread id).
    pub threads: Vec<u32>,
    /// The current thread `t`.
    pub cur: ThreadId,
    /// The atomic-bit map `𝕕`.
    pub dbits: Vec<bool>,
    /// Pool id of the shared memory.
    pub mem: u32,
}

// ---------------------------------------------------------------------------
// The claim-before-expand depth-first search
// ---------------------------------------------------------------------------

/// Pool ids stay below `2^ID_BITS`, so a packed `(thread, memory)` memo
/// key keeps its top bit free for a flag (see [`ParEngine::memoised`]).
const ID_BITS: u32 = 31;

/// The memo key of interned pair `(tid, mid)` with a one-bit `flag`.
fn memo_key(tid: u32, mid: u32, flag: bool) -> u64 {
    (u64::from(flag) << 63) | (u64::from(tid) << 32) | u64::from(mid)
}

/// How a [`dfs_until`] search ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Explored {
    /// Number of distinct states claimed.
    pub(crate) states: usize,
    /// True if the state budget was exhausted.
    pub(crate) truncated: bool,
}

/// Depth-first search over the graph that `expand` generates from
/// `initials`, claiming each distinct state once.
///
/// Initial states are taken in order, each searched to exhaustion before
/// the next; successors are popped last in, first out. A popped state is
/// *claimed* — inserted into the visited set and counted — before
/// `expand(state, visited, stack)` pushes its successors onto `stack`:
/// the ample cycle guard ([`ParEngine::successors_into`]) asks the
/// visited set about candidate successors, and relies on that order. The
/// search stops, truncated, once the count reaches `max_states` (the last
/// state claimed is not expanded), and early, untruncated, when `expand`
/// returns true.
pub(crate) fn dfs_until<S: Clone + Eq + Hash>(
    initials: Vec<S>,
    max_states: usize,
    mut expand: impl FnMut(&S, &FxHashSet<S>, &mut Vec<S>) -> bool,
) -> Explored {
    let mut visited = FxHashSet::default();
    let mut stack: Vec<S> = initials.into_iter().rev().collect();
    while let Some(s) = stack.pop() {
        if visited.contains(&s) {
            continue;
        }
        visited.insert(s.clone());
        if visited.len() >= max_states {
            return Explored {
                states: visited.len(),
                truncated: true,
            };
        }
        if expand(&s, &visited, &mut stack) {
            break;
        }
    }
    Explored {
        states: visited.len(),
        truncated: false,
    }
}

// ---------------------------------------------------------------------------
// The POR engine
// ---------------------------------------------------------------------------

/// The kind of one cached raw successor, interpreted relative to the
/// atomic bit of the world it is instantiated at.
#[derive(Clone, Debug)]
enum RawKind {
    Tau,
    Ev(Event),
    EntAtom,
    ExtAtom,
    /// The thread terminated (a silent step to empty frames).
    Term,
}

/// One memoized local successor of an interned `(thread, memory)` pair.
#[derive(Clone, Debug)]
struct RawSucc {
    kind: RawKind,
    fp: Footprint,
    /// Interned successor thread state.
    tid: u32,
    /// Interned successor memory (the incoming memory id when unchanged).
    mid: u32,
}

/// The memoized expansion of one interned `(thread, memory)` pair:
/// everything about a thread's local steps that does not depend on the
/// rest of the world. Keyed on `(tid, mid)` alone — sound because a
/// thread state's free list identifies its thread
/// ([`crate::mem::FreeList::thread_index`]), so per-thread facts (hinted
/// private sets, the scoping monitor) are functions of the key.
#[derive(Debug)]
struct ExpandEntry {
    /// The thread has terminated (no steps at all).
    done: bool,
    /// Some local step aborts (or would, depending on the atomic bit).
    has_abort: bool,
    /// Every step is an invisible `τ` whose footprint stays inside the
    /// thread's free list ∪ its hinted-private set — the thread is an
    /// ample candidate at any world with this `(thread, memory)` pair,
    /// subject to the cycle guard.
    ample_ok: bool,
    succs: Vec<RawSucc>,
}

/// The interning + partial-order-reducing exploration engine over the
/// preemptive semantics (fused-switch variant, like
/// [`Loaded::step_preemptive_sched`]) and, unreduced, the
/// non-preemptive one (like [`Loaded::step_np`]): hash-consing pools
/// and the footprint-directed ample reduction, used by one
/// single-threaded search at a time.
///
/// - **Memoized expansion.** A thread's local steps depend only on its
///   own state and the memory, both interned — so expansion is cached
///   per `(tid, mid)` pair, and race prediction ([`crate::race`]) walks
///   those expansions, memoised per `(tid, mid, 𝕕)` triple through
///   [`ParEngine::memoised`] (the `𝕕` bit tags NPDRF's predictions; DRF
///   passes 0). Each distinct pair runs the interpreter once, however
///   many worlds share it: on cache-friendly graphs the dominant saving.
///
/// - **Users.** DRF and footprint collection step interned preemptive
///   worlds ([`ParEngine::successors_into`]); NPDRF steps interned
///   non-preemptive worlds ([`ParEngine::np_successors_into`]) over the
///   same pools and expansion memo; trace collection, alone or fused
///   with the DRF check, steps the preemptive worlds through the
///   engine's [`Semantics`] instance.
///
/// - **The "ignoring" guard.** The engine refuses an ample set whose
///   successor was already claimed for expansion, so every cycle of the
///   reduced graph keeps one fully-expanded state. The check asks the
///   search which states it has claimed (the engine keeps no set of
///   states of its own), and the search claims each state *before*
///   expanding it, which makes the guard sound: suppose some
///   cycle `s₁ → s₂ → … → sₙ → s₁` of the reduced graph were expanded
///   entirely ample. Each `sᵢ` was claimed before its expansion checked
///   `sᵢ₊₁` unclaimed, so claim(`sᵢ`) < check(`sᵢ₊₁`) < claim(`sᵢ₊₁`) <
///   check(`sᵢ₊₂`) < … — a strictly increasing chain around the cycle
///   ending in claim(`s₁`) *after* claim(`s₁`), a contradiction.
pub struct ParEngine<'a, L: Lang> {
    loaded: &'a Loaded<L>,
    threads: RefCell<Pool<ThreadState<L>>>,
    mems: RefCell<Pool<Memory>>,
    expand: RefCell<FxHashMap<u64, Rc<ExpandEntry>>>,
    reduction: Reduction,
    hints: AmpleHints,
    scoping_ok: Cell<bool>,
}

impl<L: Lang> fmt::Debug for ParEngine<'_, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParEngine")
            .field("threads", &self.threads)
            .field("mems", &self.mems)
            .field("reduction", &self.reduction)
            .finish_non_exhaustive()
    }
}

impl<'a, L: Lang> ParEngine<'a, L> {
    /// Creates an engine over a loaded program. Its ample
    /// criterion also accepts steps inside each thread's `hints`-private
    /// address set; hints with overlapping per-thread sets are
    /// contradictory and are dropped (the engine then reduces exactly as
    /// with empty hints).
    pub fn new(
        loaded: &'a Loaded<L>,
        reduction: Reduction,
        hints: &AmpleHints,
    ) -> ParEngine<'a, L> {
        let hints = if hints.disjoint() {
            hints.clone()
        } else {
            AmpleHints::default()
        };
        ParEngine {
            loaded,
            threads: RefCell::new(Pool::new()),
            mems: RefCell::new(Pool::new()),
            expand: RefCell::default(),
            reduction,
            hints,
            scoping_ok: Cell::new(true),
        }
    }

    /// Interns the initial world (the `Load` rule).
    ///
    /// # Errors
    ///
    /// Propagates [`LoadError`].
    pub fn load(&self) -> Result<IWorld, LoadError> {
        Ok(self.intern_world(self.loaded.load()?))
    }

    /// Interns an arbitrary world.
    pub fn intern_world(&self, w: World<L>) -> IWorld {
        let mut pool = self.threads.borrow_mut();
        IWorld {
            threads: w.threads.into_iter().map(|t| pool.intern(t)).collect(),
            cur: w.cur,
            atom: w.atom,
            mem: self.mems.borrow_mut().intern(w.mem),
        }
    }

    /// False if some explored step's footprint escaped its thread's own
    /// free-list region ∪ the global region, or touched an address the
    /// [`AmpleHints`] claim private to a *different* thread. The
    /// ample-set independence argument assumes the `HG` scoping
    /// discipline (and, when hinted, the privacy claims); when this
    /// monitor trips, callers must discard the reduced result and re-run
    /// with [`Reduction::Off`].
    pub fn scoping_ok(&self) -> bool {
        self.scoping_ok.get()
    }

    /// Every interned `(thread, memory)` pair expanded so far, with its
    /// thread state (test support).
    #[cfg(test)]
    pub(crate) fn expanded_pairs(&self) -> Vec<(u32, u32, Rc<ThreadState<L>>)> {
        let memo = self.expand.borrow();
        let pairs = memo.keys().map(|&k| ((k >> 32) as u32, k as u32));
        pairs.map(|(t, m)| (t, m, self.thread(t))).collect()
    }

    /// The interned memory `mid` (test support).
    #[cfg(test)]
    pub(crate) fn memory(&self, mid: u32) -> Rc<Memory> {
        Rc::clone(self.mems.borrow().get(mid))
    }

    /// The interned thread state `tid`.
    fn thread(&self, tid: u32) -> Rc<ThreadState<L>> {
        Rc::clone(self.threads.borrow().get(tid))
    }

    /// Number of distinct (thread, memory) components interned so far.
    pub fn interned_components(&self) -> (usize, usize) {
        (self.threads.borrow().len(), self.mems.borrow().len())
    }

    /// The memoized local expansion of interned pair `(tid, mid)`.
    fn entry(&self, tid: u32, mid: u32) -> Rc<ExpandEntry> {
        let key = memo_key(tid, mid, false);
        if let Some(e) = self.expand.borrow().get(&key) {
            return Rc::clone(e);
        }
        let thread = self.thread(tid);
        let mem = Rc::clone(self.mems.borrow().get(mid));
        let t = thread.flist.thread_index().unwrap_or(0);
        let overbroad = self.reduction == Reduction::AmpleOverbroad;
        let private = self.hints.private_of(t);
        let steps = self.loaded.local_thread_steps(&thread, &mem);
        let mut succs = Vec::with_capacity(steps.len());
        let mut has_abort = false;
        let mut ample_ok = !steps.is_empty();
        for ts in steps {
            match ts {
                ThreadStep::Internal {
                    msg,
                    fp,
                    frames,
                    mem: m,
                } => {
                    if !fp.within(|a| a.is_global() || thread.flist.contains(a))
                        || self.hints.violated_by(t, &fp)
                    {
                        self.scoping_ok.set(false);
                    }
                    let kind = match msg {
                        StepMsg::Tau => RawKind::Tau,
                        StepMsg::Event(e) => RawKind::Ev(e),
                        StepMsg::EntAtom => RawKind::EntAtom,
                        StepMsg::ExtAtom => RawKind::ExtAtom,
                    };
                    ample_ok &= matches!(kind, RawKind::Tau)
                        && fp.within(|a| {
                            thread.flist.contains(a)
                                || private.is_some_and(|p| p.contains(&a))
                                || (overbroad && a.is_global())
                        });
                    let stid = self.threads.borrow_mut().intern(ThreadState {
                        frames,
                        flist: thread.flist,
                    });
                    let smid = if m == *mem {
                        mid
                    } else {
                        self.mems.borrow_mut().intern(m)
                    };
                    succs.push(RawSucc {
                        kind,
                        fp,
                        tid: stid,
                        mid: smid,
                    });
                }
                ThreadStep::Terminated => {
                    ample_ok = false;
                    let stid = self.threads.borrow_mut().intern(ThreadState {
                        frames: Vec::new(),
                        flist: thread.flist,
                    });
                    succs.push(RawSucc {
                        kind: RawKind::Term,
                        fp: Footprint::emp(),
                        tid: stid,
                        mid,
                    });
                }
                ThreadStep::Abort => {
                    ample_ok = false;
                    has_abort = true;
                }
            }
        }
        let entry = Rc::new(ExpandEntry {
            done: thread.is_done(),
            has_abort,
            ample_ok,
            succs,
        });
        self.expand.borrow_mut().insert(key, Rc::clone(&entry));
        entry
    }

    /// Instantiates the memoized steps of thread `t` at world `w`.
    fn emit(&self, w: &IWorld, t: ThreadId, entry: &ExpandEntry, out: &mut Vec<IStep>) {
        if entry.has_abort {
            out.push(IStep::Abort);
        }
        for rs in &entry.succs {
            let (label, atom) = match rs.kind {
                RawKind::Tau | RawKind::Term => (GLabel::Tau, w.atom),
                RawKind::Ev(e) => (GLabel::Ev(e), w.atom),
                RawKind::EntAtom => {
                    if w.atom {
                        out.push(IStep::Abort); // nested atomic: no rule
                        continue;
                    }
                    (GLabel::Tau, true)
                }
                RawKind::ExtAtom => {
                    if !w.atom {
                        out.push(IStep::Abort);
                        continue;
                    }
                    (GLabel::Tau, false)
                }
            };
            let mut threads = w.threads.clone();
            threads[t] = rs.tid;
            out.push(IStep::Next {
                label,
                fp: rs.fp.clone(),
                tid: t,
                world: IWorld {
                    threads,
                    cur: t,
                    atom,
                    mem: rs.mid,
                },
            });
        }
    }

    /// All successors of `w` under the configured reduction, written
    /// into `out` (reused across calls by the search). `claimed` tells
    /// which states the search has claimed for expansion (`w` among
    /// them); it backs the ample cycle guard — see the type docs.
    pub fn successors_into(
        &self,
        w: &IWorld,
        claimed: &dyn Fn(&IWorld) -> bool,
        out: &mut Vec<IStep>,
    ) {
        out.clear();
        if w.atom {
            let entry = self.entry(w.threads[w.cur], w.mem);
            self.emit(w, w.cur, &entry, out);
            return;
        }
        let live: Vec<(ThreadId, Rc<ExpandEntry>)> = (0..w.threads.len())
            .map(|t| (t, self.entry(w.threads[t], w.mem)))
            .filter(|(_, e)| !e.done)
            .collect();
        if self.reduction.is_ample() && live.len() > 1 {
            'candidate: for (t, entry) in &live {
                if !entry.ample_ok {
                    continue;
                }
                out.clear();
                self.emit(w, *t, entry, out);
                if !self.reduction.ignores_cycles() {
                    for step in out.iter() {
                        if let IStep::Next { world, .. } = step {
                            if claimed(world) {
                                continue 'candidate;
                            }
                        }
                    }
                }
                return;
            }
            out.clear();
        }
        for (t, entry) in &live {
            self.emit(w, *t, entry, out);
        }
    }

    /// True if every thread of `w` has terminated.
    pub fn is_done(&self, w: &IWorld) -> bool {
        let pool = self.threads.borrow();
        w.threads.iter().all(|&t| pool.get(t).is_done())
    }

    /// `f()` memoised in `cache` per `(tid, mid, flag)`: each distinct
    /// triple runs `f` once. `f` must be a pure function of interned
    /// thread `tid`, memory `mid` and `flag` — the race checkers memoise
    /// their predictions here, with the thread's `𝕕` bit as the flag.
    pub fn memoised<V: Clone>(
        &self,
        cache: &RefCell<FxHashMap<u64, V>>,
        tid: u32,
        mid: u32,
        flag: bool,
        f: impl FnOnce() -> V,
    ) -> V {
        let key = memo_key(tid, mid, flag);
        if let Some(v) = cache.borrow().get(&key) {
            return v.clone();
        }
        let v = f();
        cache.borrow_mut().insert(key, v.clone());
        v
    }

    /// [`crate::race::predict`] of interned pair `(tid, mid)`, read off
    /// the memoised expansions: the same footprints in the same order.
    pub(crate) fn predict(&self, tid: u32, mid: u32, atomic_fuel: usize) -> Vec<TaggedFootprint> {
        let entry = self.entry(tid, mid);
        let bit = AtomicBit::Inside;
        let per_step = |rs: &RawSucc| match rs.kind {
            RawKind::Tau => vec![TaggedFootprint {
                fp: rs.fp.clone(),
                bit: AtomicBit::Outside,
            }],
            RawKind::EntAtom => self.block_predictions(rs.tid, rs.mid, atomic_fuel, false, bit),
            _ => Vec::new(),
        };
        entry.succs.iter().flat_map(per_step).collect()
    }

    /// The walk of `race::accumulate_block` over the memoised
    /// expansions, its footprints tagged with `bit`: one accumulated
    /// footprint per maximal path of `τ`-steps (and, with
    /// `through_events`, event steps) from `(tid, mid)` at most `fuel`
    /// steps long, in the same order. With `through_events` set this is
    /// [`crate::race::predict_np`].
    pub(crate) fn block_predictions(
        &self,
        tid: u32,
        mid: u32,
        fuel: usize,
        through_events: bool,
        bit: AtomicBit,
    ) -> Vec<TaggedFootprint> {
        let mut out = Vec::new();
        let mut stack = vec![(tid, mid, Footprint::emp(), fuel)];
        while let Some((tid, mid, fp, fuel)) = stack.pop() {
            let entry = (fuel > 0).then(|| self.entry(tid, mid));
            let before = stack.len();
            for rs in entry.iter().filter(|e| !e.done).flat_map(|e| &e.succs) {
                if matches!(rs.kind, RawKind::Tau)
                    || (through_events && matches!(rs.kind, RawKind::Ev(_)))
                {
                    stack.push((rs.tid, rs.mid, fp.union(&rs.fp), fuel - 1));
                }
            }
            if stack.len() == before {
                out.push(TaggedFootprint { fp, bit });
            }
        }
        out
    }

    /// Interns a non-preemptive world.
    pub fn intern_np_world(&self, w: NpWorld<L>) -> INpWorld {
        let mut pool = self.threads.borrow_mut();
        INpWorld {
            threads: w.threads.into_iter().map(|t| pool.intern(t)).collect(),
            cur: w.cur,
            dbits: w.dbits,
            mem: self.mems.borrow_mut().intern(w.mem),
        }
    }

    /// Appends the successors of `w` under the non-preemptive semantics
    /// to `out`: the rules of [`Loaded::step_np`] over the memoised
    /// expansion of the current thread, with aborting steps dropped. The
    /// engine's reduction does not apply.
    pub fn np_successors_into(&self, w: &INpWorld, out: &mut Vec<INpWorld>) {
        let cur = w.cur;
        let entry = self.entry(w.threads[cur], w.mem);
        if entry.done {
            // Only an initial choice leaves a done thread current.
            self.np_switch(w, out);
            return;
        }
        for rs in &entry.succs {
            let mut next = w.clone();
            next.threads[cur] = rs.tid;
            next.mem = rs.mid;
            match rs.kind {
                RawKind::Tau | RawKind::Ev(_) => out.push(next),
                RawKind::EntAtom | RawKind::ExtAtom => {
                    let entering = matches!(rs.kind, RawKind::EntAtom);
                    // A nested entry or a stray exit aborts.
                    if w.dbits[cur] != entering {
                        next.dbits[cur] = entering;
                        self.np_switch(&next, out);
                    }
                }
                RawKind::Term => {
                    let before = out.len();
                    self.np_switch(&next, out);
                    if out.len() == before {
                        out.push(next); // every thread is done
                    }
                }
            }
        }
    }

    /// Switches from `w` to each of its live threads (possibly the
    /// current one).
    fn np_switch(&self, w: &INpWorld, out: &mut Vec<INpWorld>) {
        let pool = self.threads.borrow();
        for (t, &tid) in w.threads.iter().enumerate() {
            if !pool.get(tid).is_done() {
                out.push(INpWorld {
                    cur: t,
                    ..w.clone()
                });
            }
        }
    }
}

/// The reduced, interned preemptive semantics, so
/// [`collect_traces`](crate::refine::collect_traces) runs on the
/// memoised expansions unchanged. The collector claims each state before
/// expanding it, and its `expanded` query backs the ample cycle guard.
impl<L: Lang> Semantics for ParEngine<'_, L> {
    type State = IWorld;

    fn initials(&self) -> Result<Vec<IWorld>, LoadError> {
        Ok(vec![self.load()?])
    }

    fn successors(&self, s: &IWorld, expanded: &dyn Fn(&IWorld) -> bool) -> Vec<SuccStep<IWorld>> {
        let mut out = Vec::new();
        self.successors_into(s, expanded, &mut out);
        out.into_iter()
            .map(|g| match g {
                IStep::Next { label, world, .. } => SuccStep::Next {
                    event: match label {
                        GLabel::Ev(e) => Some(e),
                        _ => None,
                    },
                    state: world,
                },
                IStep::Abort => SuccStep::Abort,
            })
            .collect()
    }

    fn is_done(&self, s: &IWorld) -> bool {
        ParEngine::is_done(self, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::Prog;
    use crate::race::check_drf;
    use crate::refine::{
        collect_traces, collect_traces_preemptive, trace_equiv, ExploreCfg, Preemptive,
    };
    use crate::toy::{toy_globals, toy_module, ToyInstr, ToyLang};

    #[test]
    fn fx_hash_is_stable() {
        // The hasher must be deterministic across runs, processes, and
        // platforms — state counts and truncation points depend on it.
        assert_eq!(fx_hash_of(&0u64), 0);
        assert_eq!(fx_hash_of(&1u64), FX_SEED);
        assert_eq!(fx_hash_of(&0x1234_5678_9abc_def0u64), 0x6cc4_aad9_9c83_21b0);
        assert_eq!(fx_hash_of("footprint"), 0x48f0_5578_aec0_314c);
        assert_eq!(fx_hash_of(&(3usize, true, 7u8)), 0x3b98_a6b6_b257_fd88);
        let v: Vec<u32> = vec![1, 2, 3];
        assert_eq!(fx_hash_of(&v), fx_hash_of(&[1u32, 2, 3][..]));
    }

    #[test]
    fn fx_hash_distinguishes_close_inputs() {
        assert_ne!(fx_hash_of(&1u64), fx_hash_of(&2u64));
        assert_ne!(fx_hash_of("ab"), fx_hash_of("ba"));
        assert_ne!(fx_hash_of(&(1u8, 2u8)), fx_hash_of(&(2u8, 1u8)));
    }

    fn private_prefix_prog(threads: usize) -> Loaded<ToyLang> {
        // Long silent register-only prefixes followed by one atomic
        // print: the worst case for naive preemption, the best case for
        // ample reduction.
        let mut funcs = Vec::new();
        let names: Vec<String> = (0..threads).map(|i| format!("t{i}")).collect();
        for (i, _) in names.iter().enumerate() {
            funcs.push(vec![
                ToyInstr::Const(i as i64),
                ToyInstr::Add(1),
                ToyInstr::Add(2),
                ToyInstr::Add(3),
                ToyInstr::EntAtom,
                ToyInstr::Print,
                ToyInstr::ExtAtom,
                ToyInstr::Ret(0),
            ]);
        }
        let pairs: Vec<(&str, Vec<ToyInstr>)> = names
            .iter()
            .map(|n| n.as_str())
            .zip(funcs.iter().cloned())
            .collect();
        let (m, _) = toy_module(&pairs, &[]);
        Loaded::new(Prog::new(ToyLang, vec![(m, toy_globals(&[]))], names)).expect("link")
    }

    #[test]
    fn interning_dedups_components() {
        let l = private_prefix_prog(2);
        let eng = ParEngine::new(&l, Reduction::Off, &AmpleHints::default());
        let init = eng.load().expect("load");
        let mut succs = Vec::new();
        eng.successors_into(&init, &|_| false, &mut succs);
        // Both threads stepped once each; only the stepping thread's
        // component is fresh, and the memory id is shared (no step
        // touched memory).
        for s in &succs {
            let IStep::Next { world, .. } = s else {
                panic!("no aborts expected")
            };
            assert_eq!(world.mem, init.mem, "silent steps share the memory id");
        }
        let (threads, mems) = eng.interned_components();
        assert_eq!(mems, 1);
        assert_eq!(threads, 2 + succs.len());
    }

    #[test]
    fn reduced_traces_match_naive() {
        let l = private_prefix_prog(3);
        let cfg = ExploreCfg::default();
        let naive = collect_traces(&Preemptive(&l), &cfg).expect("naive");
        let red = ParEngine::new(&l, Reduction::Ample, &AmpleHints::default());
        let reduced = collect_traces(&red, &cfg).expect("reduced");
        assert!(red.scoping_ok());
        assert!(trace_equiv(&naive, &reduced));
        assert_eq!(naive.traces, reduced.traces, "trace sets must be identical");
        assert!(
            reduced.expansions * 2 < naive.expansions,
            "reduction must shrink the exploration ({} vs {})",
            reduced.expansions,
            naive.expansions
        );
        let cfg = ExploreCfg {
            reduction: Reduction::Ample,
            ..cfg
        };
        assert_eq!(
            collect_traces_preemptive(&l, &cfg).expect("reduced"),
            reduced
        );
    }

    #[test]
    fn reduction_preserves_drf_verdicts() {
        let racy_body = vec![
            ToyInstr::Const(1),
            ToyInstr::Add(1),
            ToyInstr::StoreG("x".into()),
            ToyInstr::Ret(0),
        ];
        let (m, _) = toy_module(&[("a", racy_body.clone()), ("b", racy_body)], &[]);
        let l = Loaded::new(Prog::new(
            ToyLang,
            vec![(m, toy_globals(&[("x", 0)]))],
            ["a", "b"],
        ))
        .expect("link");
        let naive = check_drf(&l, &ExploreCfg::default()).expect("naive");
        let reduced = check_drf(
            &l,
            &ExploreCfg {
                reduction: Reduction::Ample,
                ..Default::default()
            },
        )
        .expect("reduced");
        assert_eq!(naive.is_drf(), reduced.is_drf());
        assert!(!reduced.is_drf());
    }

    #[test]
    fn dfs_counts_states_in_claim_order() {
        // A diamond graph over u32 pairs: (i, j) -> (i+1, j), (i, j+1)
        // for i, j < 8. 81 states, each contributing its coordinate sum.
        let mut sum = 0u64;
        let out = dfs_until(vec![(0u32, 0u32)], 1_000_000, |&(i, j), _, succ| {
            sum += u64::from(i + j);
            if i < 8 {
                succ.push((i + 1, j));
            }
            if j < 8 {
                succ.push((i, j + 1));
            }
            false
        });
        assert_eq!(
            out,
            Explored {
                states: 81,
                truncated: false
            }
        );
        // Σ (i + j) over the 9×9 grid = 2 · 9 · Σ0..8 = 648.
        assert_eq!(sum, 648);

        // Initial states in order, each searched to exhaustion first;
        // successors last in, first out; a claimed state is skipped.
        let mut order = Vec::new();
        dfs_until(vec![10u32, 20, 11], 100, |&n, visited, succ| {
            assert!(visited.contains(&n), "{n} is claimed before expansion");
            order.push(n);
            if n % 10 == 0 {
                succ.extend([n + 1, n + 2]);
            }
            false
        });
        assert_eq!(order, [10, 12, 11, 20, 22, 21]);
    }

    #[test]
    fn dfs_stops_at_the_budget_and_on_request() {
        let chain = |stop_at: u64| {
            let mut expanded = 0;
            let out = dfs_until(vec![0u64], 100, |&n, _, succ| {
                expanded += 1;
                succ.push(n + 1);
                n == stop_at
            });
            (out, expanded)
        };
        // The 100th state is claimed and counted, but not expanded.
        let full = Explored {
            states: 100,
            truncated: true,
        };
        assert_eq!(chain(u64::MAX), (full, 99));
        let early = Explored {
            states: 6,
            truncated: false,
        };
        assert_eq!(chain(5), (early, 6));
    }
}
