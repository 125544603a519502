//! The shared high-performance exploration engine.
//!
//! Every checker that substitutes for a Coq proof in this reproduction —
//! DRF/NPDRF ([`crate::race`]), trace refinement ([`crate::refine`]),
//! `ReachClose` ([`crate::rg`]), well-definedness ([`crate::wd`]) —
//! bottoms out in exhaustive exploration of a state graph. This module
//! provides the three cooperating layers they build on:
//!
//! 1. **State interning** ([`ParEngine`]): worlds are hash-consed
//!    into [`IWorld`]s whose thread and memory components are
//!    structurally shared behind [`Arc`]s, so a visited set stores a
//!    handful of 32-bit ids instead of deep-cloned worlds, and successor
//!    dedup re-hashes only the *changed* component of a step (one thread
//!    state, and the memory only when it actually changed) instead of
//!    the whole world. The engine also memoises each interned
//!    `(thread, memory)` pair's local expansion. It is the only reduced
//!    engine: the DRF and footprint checkers run it on the frontier
//!    below, and trace collection
//!    ([`collect_traces_preemptive`](crate::refine::collect_traces_preemptive))
//!    runs it single-threaded.
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
//! 3. **A work-stealing frontier** ([`ws_explore_until`]): per-worker deques with a shared injector and
//!    steal-half semantics, hand-rolled on `std::thread`. The ample
//!    reduction runs *inside* each worker via a shared [`ParEngine`]
//!    (concurrent interning pools, memoized `(thread, memory)`
//!    expansions, and a cross-worker "ignoring" guard backed by the
//!    shared [`VisitedSet`] — which stores compact 64-bit fingerprints
//!    by default, or full states for soundness-sensitive callers; see
//!    [`VisitedMode`]). One worker is the sequential case: it runs
//!    inline on the calling thread and spawns nothing, and with more
//!    workers a sequential burst on the main thread keeps small graphs
//!    spawn-free. Results are merged deterministically:
//!    each worker folds its local findings into a commutative monoid
//!    (footprint unions, minimal race witness) so the merged outcome is
//!    independent of scheduling whenever the exploration completes
//!    within its state budget.
//!
//! The naive sequential explorers remain available behind
//! `ExploreCfg { reduction: Reduction::Off, .. }` and serve as the
//! single trusted differential oracle: on the whole corpus the engine,
//! at every worker count, must produce the same verdicts, trace sets,
//! and footprint unions (`tests/tests/explore.rs`).

use crate::footprint::Footprint;
use crate::lang::{Event, Lang, StepMsg};
use crate::mem::{Addr, Memory};
use crate::refine::{Semantics, SuccStep};
use crate::world::{GLabel, LoadError, Loaded, ThreadId, ThreadState, ThreadStep, World};
use std::collections::BTreeSet;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

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
    /// worker which stops re-expanding around cycles is caught — it
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

/// A hash-consing pool: interns values behind [`Arc`]s, assigning dense
/// 32-bit ids, with each value's hash computed exactly once.
struct Pool<T> {
    items: Vec<Arc<T>>,
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
        let id = u32::try_from(self.items.len()).expect("interner overflow");
        self.items.push(Arc::new(value));
        self.table.entry(h).or_default().push(id);
        id
    }

    fn get(&self, id: u32) -> &Arc<T> {
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

// ---------------------------------------------------------------------------
// Compact visited sets
// ---------------------------------------------------------------------------

/// Number of visited-set / pool / cache shards (a power of two; indexed
/// by the low bits of the state hash).
const VISITED_SHARDS: usize = 64;
const SHARD_BITS: u32 = 6;

/// How a [`VisitedSet`] stores membership.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum VisitedMode {
    /// SPIN-style hash compaction: only the 64-bit [`fx_hash_of`]
    /// fingerprint of each state is stored, in a compact open-addressed
    /// table (8 bytes per state instead of a deep-cloned state). Two
    /// distinct states colliding on all 64 bits would merge — one of
    /// them would silently not be explored — so a completed exploration
    /// is exhaustive only up to fingerprint collisions (probability
    /// ≈ `n²/2⁶⁵` for `n` states; ~10⁻¹¹ at a million states). This is
    /// the default for the bulk checkers.
    #[default]
    Fingerprint,
    /// Full states are stored and compared; no collision risk.
    /// Soundness-sensitive callers (the fuzz oracle's differential
    /// comparisons) opt into this.
    Exact,
}

/// One shard of the fingerprint table: open addressing with linear
/// probing, `0` as the empty sentinel (fingerprint `0` is remapped to
/// `1`), growing at 7/8 load so a probe always terminates. The table is
/// allocated on the first insert, so a small exploration touches only
/// the shards its states hash to.
struct FpShard {
    slots: Vec<u64>,
    len: usize,
}

impl FpShard {
    fn new() -> FpShard {
        FpShard {
            slots: Vec::new(),
            len: 0,
        }
    }

    fn slot_of(&self, fp: u64) -> (bool, usize) {
        let mask = self.slots.len() - 1;
        let mut i = ((fp >> SHARD_BITS) as usize) & mask;
        loop {
            match self.slots[i] {
                0 => return (false, i),
                s if s == fp => return (true, i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn contains(&self, fp: u64) -> bool {
        !self.slots.is_empty() && self.slot_of(fp).0
    }

    fn insert(&mut self, fp: u64) -> bool {
        if self.slots.is_empty() {
            self.slots = vec![0; 64];
        }
        let (found, i) = self.slot_of(fp);
        if found {
            return false;
        }
        self.slots[i] = fp;
        self.len += 1;
        if self.len * 8 >= self.slots.len() * 7 {
            let doubled = self.slots.len() * 2;
            let old = std::mem::replace(&mut self.slots, vec![0; doubled]);
            for f in old {
                if f != 0 {
                    let (_, j) = self.slot_of(f);
                    self.slots[j] = f;
                }
            }
        }
        true
    }
}

enum VisitedInner<S> {
    Fp(Vec<Mutex<FpShard>>),
    Exact(Vec<Mutex<FxHashSet<S>>>),
}

/// A sharded concurrent visited set, in either fingerprint (compact,
/// lossy) or exact mode — see [`VisitedMode`].
///
/// Beyond membership, the set doubles as the work-stealing engine's
/// *claim* structure: a state is inserted when a worker claims it for
/// expansion, and the ample "ignoring" guard asks [`VisitedSet::contains`]
/// about candidate successors. See [`ParEngine`] for why that ordering
/// makes the cycle guard sound across workers.
pub struct VisitedSet<S> {
    inner: VisitedInner<S>,
}

impl<S> fmt::Debug for VisitedSet<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VisitedSet({:?})", self.mode())
    }
}

impl<S> VisitedSet<S> {
    /// The storage mode.
    #[must_use]
    pub fn mode(&self) -> VisitedMode {
        match &self.inner {
            VisitedInner::Fp(_) => VisitedMode::Fingerprint,
            VisitedInner::Exact(_) => VisitedMode::Exact,
        }
    }
}

impl<S: Eq + Hash + Clone> VisitedSet<S> {
    /// An empty visited set in the given mode.
    #[must_use]
    pub fn new(mode: VisitedMode) -> VisitedSet<S> {
        VisitedSet {
            inner: match mode {
                VisitedMode::Fingerprint => VisitedInner::Fp(
                    (0..VISITED_SHARDS)
                        .map(|_| Mutex::new(FpShard::new()))
                        .collect(),
                ),
                VisitedMode::Exact => VisitedInner::Exact(
                    (0..VISITED_SHARDS)
                        .map(|_| Mutex::new(FxHashSet::default()))
                        .collect(),
                ),
            },
        }
    }

    /// Inserts `s`; true if it was fresh.
    pub fn insert(&self, s: &S) -> bool {
        let h = fx_hash_of(s);
        let shard = (h as usize) & (VISITED_SHARDS - 1);
        match &self.inner {
            VisitedInner::Fp(shards) => {
                let fp = if h == 0 { 1 } else { h };
                shards[shard].lock().expect("visited shard").insert(fp)
            }
            VisitedInner::Exact(shards) => {
                let mut set = shards[shard].lock().expect("visited shard");
                if set.contains(s) {
                    false
                } else {
                    set.insert(s.clone());
                    true
                }
            }
        }
    }

    /// True if `s` (or, in fingerprint mode, a state with its
    /// fingerprint) has been inserted.
    pub fn contains(&self, s: &S) -> bool {
        let h = fx_hash_of(s);
        let shard = (h as usize) & (VISITED_SHARDS - 1);
        match &self.inner {
            VisitedInner::Fp(shards) => {
                let fp = if h == 0 { 1 } else { h };
                shards[shard].lock().expect("visited shard").contains(fp)
            }
            VisitedInner::Exact(shards) => shards[shard].lock().expect("visited shard").contains(s),
        }
    }
}

// ---------------------------------------------------------------------------
// Concurrent interning and memo caches
// ---------------------------------------------------------------------------

/// A concurrent hash-consing pool: a hash-consing `Pool` sharded behind mutexes, with
/// the shard index folded into the low bits of the id so lookups are
/// addressed directly. Append-only, so ids handed out are never
/// invalidated and [`SharedPool::get`] clones an `Arc` without blocking
/// interners on other shards.
pub struct SharedPool<T> {
    shards: Vec<Mutex<Pool<T>>>,
}

impl<T> fmt::Debug for SharedPool<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let items: usize = self
            .shards
            .iter()
            .map(|s| s.lock().expect("pool shard").items.len())
            .sum();
        write!(f, "SharedPool({items} items)")
    }
}

impl<T: Eq + Hash> SharedPool<T> {
    fn new() -> SharedPool<T> {
        SharedPool {
            shards: (0..VISITED_SHARDS)
                .map(|_| Mutex::new(Pool::new()))
                .collect(),
        }
    }

    /// Interns `value`, returning its dense id.
    pub fn intern(&self, value: T) -> u32 {
        let shard = (fx_hash_of(&value) as usize) & (VISITED_SHARDS - 1);
        let local = self.shards[shard].lock().expect("pool shard").intern(value);
        assert!(local < (1 << (32 - SHARD_BITS)), "interner overflow");
        (local << SHARD_BITS) | shard as u32
    }

    /// The interned value behind `id`.
    pub fn get(&self, id: u32) -> Arc<T> {
        let shard = (id as usize) & (VISITED_SHARDS - 1);
        self.shards[shard]
            .lock()
            .expect("pool shard")
            .get(id >> SHARD_BITS)
            .clone()
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("pool shard").len())
            .sum()
    }
}

/// A sharded insert-once memo cache keyed by `u64` (the parallel
/// engine's packed `(thread id, memory id)` keys). The first writer of a
/// key wins; later writers get the stored value back, so all workers
/// agree on one memoized result per key.
pub struct ShardedCache<V> {
    shards: Vec<Mutex<FxHashMap<u64, V>>>,
}

impl<V> fmt::Debug for ShardedCache<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ShardedCache")
    }
}

impl<V: Clone> Default for ShardedCache<V> {
    fn default() -> Self {
        ShardedCache::new()
    }
}

impl<V: Clone> ShardedCache<V> {
    /// An empty cache.
    #[must_use]
    pub fn new() -> ShardedCache<V> {
        ShardedCache {
            shards: (0..VISITED_SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
        }
    }

    fn shard(&self, k: u64) -> &Mutex<FxHashMap<u64, V>> {
        &self.shards[(fx_hash_of(&k) as usize) & (VISITED_SHARDS - 1)]
    }

    /// The cached value for `k`, if any.
    pub fn get(&self, k: u64) -> Option<V> {
        self.shard(k).lock().expect("cache shard").get(&k).cloned()
    }

    /// Caches `v` under `k` unless a value is already present; returns
    /// the winning value.
    pub fn insert(&self, k: u64, v: V) -> V {
        self.shard(k)
            .lock()
            .expect("cache shard")
            .entry(k)
            .or_insert(v)
            .clone()
    }
}

/// The outcome of a parallel exploration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ParOutcome<A> {
    /// The merged per-worker accumulators.
    pub acc: A,
    /// Number of distinct states visited.
    pub states: usize,
    /// True if the state budget was exhausted.
    pub truncated: bool,
}

/// States the main thread claims inline before spawning workers: tiny
/// graphs (and the prefix of big ones) explore sequentially at zero
/// thread-spawn and steal cost, so extra workers never make a small
/// program slower than one worker.
const SEQ_BURST: usize = 256;

/// Shared control block of one work-stealing exploration.
struct WsCtl<S> {
    /// Per-worker deques. Owners pop from the back (depth-first-ish, hot
    /// caches); thieves steal half from the front (the oldest, widest
    /// subtrees, minimizing steal frequency).
    locals: Vec<Mutex<VecDeque<S>>>,
    /// Seed queue (the initial states); drained before stealing.
    injector: Mutex<VecDeque<S>>,
    /// States enqueued but not yet fully processed. `0` ⇒ exploration
    /// complete (incremented before every push, decremented after the
    /// claim/expand of each popped state).
    pending: AtomicUsize,
    /// Set on completion, budget exhaustion, or early exit.
    stop: AtomicBool,
    truncated: AtomicBool,
    /// Distinct states claimed.
    count: AtomicUsize,
    /// Workers currently parked (push only signals when someone waits).
    idle: AtomicUsize,
    park: Mutex<()>,
    cv: Condvar,
    max_states: usize,
}

impl<S> WsCtl<S> {
    fn new(nworkers: usize, max_states: usize, initials: Vec<S>) -> WsCtl<S> {
        let pending = AtomicUsize::new(initials.len());
        WsCtl {
            locals: (0..nworkers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(initials.into()),
            pending,
            stop: AtomicBool::new(false),
            truncated: AtomicBool::new(false),
            count: AtomicUsize::new(0),
            idle: AtomicUsize::new(0),
            park: Mutex::new(()),
            cv: Condvar::new(),
            max_states,
        }
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _guard = self.park.lock().expect("park lock");
        self.cv.notify_all();
    }

    /// One state fully processed; the last one shuts the exploration down.
    fn finish_one(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shutdown();
        }
    }

    fn push_batch(&self, wid: usize, buf: &mut Vec<S>) {
        if buf.is_empty() {
            return;
        }
        self.pending.fetch_add(buf.len(), Ordering::SeqCst);
        self.locals[wid]
            .lock()
            .expect("local deque")
            .extend(buf.drain(..));
        if self.idle.load(Ordering::SeqCst) > 0 {
            let _guard = self.park.lock().expect("park lock");
            self.cv.notify_all();
        }
    }

    /// Pops from the own deque, then the injector, then steals half of a
    /// victim's deque (oldest states first).
    fn take(&self, wid: usize) -> Option<S> {
        if let Some(s) = self.locals[wid].lock().expect("local deque").pop_back() {
            return Some(s);
        }
        if let Some(s) = self.injector.lock().expect("injector").pop_front() {
            return Some(s);
        }
        let n = self.locals.len();
        for off in 1..n {
            let victim = (wid + off) % n;
            let mut stolen: VecDeque<S> = {
                let mut vq = self.locals[victim].lock().expect("victim deque");
                let half = vq.len().div_ceil(2);
                if half == 0 {
                    continue;
                }
                vq.drain(..half).collect()
            };
            let first = stolen.pop_front();
            if !stolen.is_empty() {
                self.locals[wid].lock().expect("local deque").extend(stolen);
            }
            return first;
        }
        None
    }
}

/// One worker's claim-expand loop. `claim_limit` bounds how many states
/// this call claims (the sequential burst); queued leftovers stay for
/// other workers.
fn ws_run<S, A, W, FS>(
    ctl: &WsCtl<S>,
    visited: &VisitedSet<S>,
    wid: usize,
    mut expand: W,
    stop: &FS,
    acc: &mut A,
    claim_limit: usize,
) where
    S: Clone + Eq + Hash,
    W: FnMut(&S, &mut A, &mut Vec<S>),
    FS: Fn(&A) -> bool,
{
    let mut buf: Vec<S> = Vec::new();
    let mut claimed = 0usize;
    while claimed < claim_limit && !ctl.stop.load(Ordering::SeqCst) {
        let Some(s) = ctl.take(wid) else {
            if ctl.stop.load(Ordering::SeqCst) || ctl.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            // Someone is still expanding; park briefly. The timeout
            // backstops a push that raced the idle bookkeeping.
            ctl.idle.fetch_add(1, Ordering::SeqCst);
            let guard = ctl.park.lock().expect("park lock");
            if !ctl.stop.load(Ordering::SeqCst) {
                let _ = ctl
                    .cv
                    .wait_timeout(guard, std::time::Duration::from_micros(500));
            }
            ctl.idle.fetch_sub(1, Ordering::SeqCst);
            continue;
        };
        // Claim *before* expanding: the ample cycle guard asks the
        // visited set about candidate successors, and this ordering is
        // what makes the guard sound across workers (see [`ParEngine`]).
        if !visited.insert(&s) {
            ctl.finish_one();
            continue;
        }
        let n = ctl.count.fetch_add(1, Ordering::SeqCst) + 1;
        claimed += 1;
        if n >= ctl.max_states {
            ctl.truncated.store(true, Ordering::SeqCst);
            ctl.shutdown();
            ctl.finish_one();
            return;
        }
        buf.clear();
        expand(&s, acc, &mut buf);
        if stop(acc) {
            ctl.shutdown();
            ctl.finish_one();
            return;
        }
        ctl.push_batch(wid, &mut buf);
        ctl.finish_one();
    }
}

/// The work-stealing parallel frontier: explores the graph generated by
/// per-worker `expand` closures from `initials` with `nworkers` workers
/// over the shared `visited` set.
///
/// `make_worker(wid)` builds one expansion closure per worker (letting
/// each keep reusable scratch buffers); the closure receives each
/// distinct state exactly once — `(state, accumulator, successor
/// buffer)` — and pushes the successors into the buffer. The main
/// thread first claims up to `SEQ_BURST` (256) states inline (all of them
/// when `nworkers == 1`), so small graphs never pay thread-spawn cost;
/// only then are workers spawned over the per-worker deques with
/// steal-half semantics.
///
/// Determinism: as with the sequential oracles, the *reachable set* (and
/// so `states`) is scheduling-independent whenever the exploration
/// completes within `max_states` and expansion is a pure function of the
/// state — which holds for the naive expanders, and for the ample
/// engine's up to cycle-guard timing (the guard can only force extra
/// *full* expansions, never drop states). Accumulators are folded with
/// `merge`, which must be commutative and associative together with the
/// accumulation in `expand` (footprint unions, minimal witnesses, sums).
/// `stop` early-exits every worker once a worker's local accumulator
/// satisfies it; verdicts stay deterministic when `stop` is monotone.
pub fn ws_explore_until<S, A, FW, W, FM, FS>(
    visited: &VisitedSet<S>,
    initials: Vec<S>,
    nworkers: usize,
    max_states: usize,
    mut make_worker: FW,
    merge: FM,
    stop: FS,
) -> ParOutcome<A>
where
    S: Clone + Eq + Hash + Send,
    A: Default + Send,
    FW: FnMut(usize) -> W,
    W: FnMut(&S, &mut A, &mut Vec<S>) + Send,
    FM: Fn(&mut A, A),
    FS: Fn(&A) -> bool + Sync,
{
    let nworkers = nworkers.max(1);
    let ctl = WsCtl::new(nworkers, max_states, initials);
    let mut acc = A::default();
    let burst = if nworkers == 1 { usize::MAX } else { SEQ_BURST };
    ws_run(&ctl, visited, 0, make_worker(0), &stop, &mut acc, burst);
    if nworkers > 1 && !ctl.stop.load(Ordering::SeqCst) && ctl.pending.load(Ordering::SeqCst) > 0 {
        let ctl_ref = &ctl;
        let stop_ref = &stop;
        let worker_accs = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..nworkers)
                .map(|wid| {
                    let w = make_worker(wid);
                    scope.spawn(move || {
                        let mut wacc = A::default();
                        ws_run(ctl_ref, visited, wid, w, stop_ref, &mut wacc, usize::MAX);
                        wacc
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("exploration worker panicked"))
                .collect::<Vec<A>>()
        });
        for wacc in worker_accs {
            merge(&mut acc, wacc);
        }
    }
    ParOutcome {
        acc,
        states: ctl.count.load(Ordering::SeqCst),
        truncated: ctl.truncated.load(Ordering::SeqCst),
    }
}

// ---------------------------------------------------------------------------
// The parallel POR engine
// ---------------------------------------------------------------------------

/// The kind of one cached raw successor, interpreted relative to the
/// atomic bit of the world it is instantiated at.
#[derive(Clone, Debug)]
enum RawKind {
    Tau,
    Ev(Event),
    EntAtom,
    ExtAtom,
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
/// [`Loaded::step_preemptive_sched`]): hash-consing pools and the
/// footprint-directed ample reduction, shared by every worker of an
/// exploration (`&ParEngine` is `Sync`). One worker is the sequential
/// case.
///
/// - **Memoized expansion.** A thread's local steps depend only on its
///   own state and the memory, both interned — so expansion (and, in
///   [`crate::race`], race prediction) is cached per `(tid, mid)` pair in
///   a [`ShardedCache`]. Each distinct `(tid, mid)` pair runs the
///   interpreter once, however many worlds share it, which on
///   cache-friendly graphs (many worlds sharing thread/memory
///   components) is the dominant saving.
///
/// - **A cross-worker "ignoring" guard.** The engine refuses an ample
///   set whose successor was already claimed for expansion, so every
///   cycle of the reduced graph keeps one fully-expanded state. The
///   check runs against the shared [`VisitedSet`], and the claim ordering in [`ws_explore_until`] (a worker *inserts* a
///   state before expanding it) makes it sound: suppose some cycle
///   `s₁ → s₂ → … → sₙ → s₁` of the reduced graph were expanded entirely
///   ample. Each `sᵢ` was inserted before its expansion checked
///   `sᵢ₊₁ ∉ visited`, so insert(`sᵢ`) < contains(`sᵢ₊₁`) <
///   insert(`sᵢ₊₁`) < contains(`sᵢ₊₂`) < … — a strictly increasing chain
///   around the cycle ending in insert(`s₁`) *after* insert(`s₁`),
///   a contradiction. In fingerprint mode a collision can only make
///   `contains` spuriously true, forcing an extra full expansion — sound.
pub struct ParEngine<'a, L: Lang> {
    loaded: &'a Loaded<L>,
    threads: SharedPool<ThreadState<L>>,
    mems: SharedPool<Memory>,
    expand: ShardedCache<Arc<ExpandEntry>>,
    reduction: Reduction,
    hints: AmpleHints,
    scoping_ok: AtomicBool,
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
    /// Creates a shared engine over a loaded program. Its ample
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
            threads: SharedPool::new(),
            mems: SharedPool::new(),
            expand: ShardedCache::new(),
            reduction,
            hints,
            scoping_ok: AtomicBool::new(true),
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
        IWorld {
            threads: w
                .threads
                .into_iter()
                .map(|t| self.threads.intern(t))
                .collect(),
            cur: w.cur,
            atom: w.atom,
            mem: self.mems.intern(w.mem),
        }
    }

    /// The interned thread state behind `id`.
    pub fn thread(&self, id: u32) -> Arc<ThreadState<L>> {
        self.threads.get(id)
    }

    /// The interned memory behind `id`.
    pub fn memory(&self, id: u32) -> Arc<Memory> {
        self.mems.get(id)
    }

    /// False if some explored step's footprint escaped its thread's own
    /// free-list region ∪ the global region, or touched an address the
    /// [`AmpleHints`] claim private to a *different* thread. The
    /// ample-set independence argument assumes the `HG` scoping
    /// discipline (and, when hinted, the privacy claims); when this
    /// monitor trips, callers must discard the reduced result and re-run
    /// with [`Reduction::Off`]. Shared across workers.
    pub fn scoping_ok(&self) -> bool {
        self.scoping_ok.load(Ordering::SeqCst)
    }

    /// Number of distinct (thread, memory) components interned so far.
    pub fn interned_components(&self) -> (usize, usize) {
        (self.threads.len(), self.mems.len())
    }

    /// The memoized local expansion of interned pair `(tid, mid)`.
    fn entry(&self, tid: u32, mid: u32) -> Arc<ExpandEntry> {
        let key = (u64::from(tid) << 32) | u64::from(mid);
        if let Some(e) = self.expand.get(key) {
            return e;
        }
        let thread = self.threads.get(tid);
        let mem = self.mems.get(mid);
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
                        self.scoping_ok.store(false, Ordering::SeqCst);
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
                    let stid = self.threads.intern(ThreadState {
                        frames,
                        flist: thread.flist,
                    });
                    let smid = if m == *mem { mid } else { self.mems.intern(m) };
                    succs.push(RawSucc {
                        kind,
                        fp,
                        tid: stid,
                        mid: smid,
                    });
                }
                ThreadStep::Terminated => {
                    ample_ok = false;
                    let stid = self.threads.intern(ThreadState {
                        frames: Vec::new(),
                        flist: thread.flist,
                    });
                    succs.push(RawSucc {
                        kind: RawKind::Tau,
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
        self.expand.insert(
            key,
            Arc::new(ExpandEntry {
                done: thread.is_done(),
                has_abort,
                ample_ok,
                succs,
            }),
        )
    }

    /// Instantiates the memoized steps of thread `t` at world `w`.
    fn emit(&self, w: &IWorld, t: ThreadId, entry: &ExpandEntry, out: &mut Vec<IStep>) {
        if entry.has_abort {
            out.push(IStep::Abort);
        }
        for rs in &entry.succs {
            let (label, atom) = match rs.kind {
                RawKind::Tau => (GLabel::Tau, w.atom),
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
    /// into `out` (reused across calls by the worker). The `visited` set
    /// backs the cross-worker ample cycle guard — see the type docs.
    pub fn successors_into(&self, w: &IWorld, visited: &VisitedSet<IWorld>, out: &mut Vec<IStep>) {
        out.clear();
        if w.atom {
            let entry = self.entry(w.threads[w.cur], w.mem);
            self.emit(w, w.cur, &entry, out);
            return;
        }
        let live: Vec<(ThreadId, Arc<ExpandEntry>)> = (0..w.threads.len())
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
                            if visited.contains(world) {
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
        w.threads.iter().all(|&t| self.threads.get(t).is_done())
    }
}

/// The reduced, interned preemptive semantics as a single-threaded
/// [`Semantics`] instance over a [`ParEngine`], so
/// [`collect_traces`](crate::refine::collect_traces) runs on the
/// memoised expansions unchanged.
///
/// The ample "ignoring" guard asks an exact set of already-expanded
/// states; `successors` inserts each state before expanding it — the
/// claim-before-expand order of [`ws_explore_until`], which is what
/// makes the guard sound.
pub(crate) struct ParPreemptive<'a, L: Lang> {
    engine: ParEngine<'a, L>,
    expanded: VisitedSet<IWorld>,
}

impl<'a, L: Lang> ParPreemptive<'a, L> {
    pub(crate) fn new(
        loaded: &'a Loaded<L>,
        reduction: Reduction,
        hints: &AmpleHints,
    ) -> ParPreemptive<'a, L> {
        ParPreemptive {
            engine: ParEngine::new(loaded, reduction, hints),
            expanded: VisitedSet::new(VisitedMode::Exact),
        }
    }

    /// See [`ParEngine::scoping_ok`].
    pub(crate) fn scoping_ok(&self) -> bool {
        self.engine.scoping_ok()
    }
}

impl<L: Lang> Semantics for ParPreemptive<'_, L> {
    type State = IWorld;

    fn initials(&self) -> Result<Vec<IWorld>, LoadError> {
        Ok(vec![self.engine.load()?])
    }

    fn successors(&self, s: &IWorld) -> Vec<SuccStep<IWorld>> {
        self.expanded.insert(s);
        let mut out = Vec::new();
        self.engine.successors_into(s, &self.expanded, &mut out);
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
        self.engine.is_done(s)
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
        eng.successors_into(&init, &VisitedSet::new(VisitedMode::Exact), &mut succs);
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
        let red = ParPreemptive::new(&l, Reduction::Ample, &AmpleHints::default());
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
    fn ws_explore_counts_states_and_merges() {
        // A diamond graph over u32 pairs: (i, j) -> (i+1, j), (i, j+1)
        // for i, j < 8. 81 states, each contributing its coordinate sum.
        for workers in [1, 4] {
            let out = ws_explore_until(
                &VisitedSet::new(VisitedMode::Exact),
                vec![(0u32, 0u32)],
                workers,
                1_000_000,
                |_wid| {
                    |&(i, j): &(u32, u32), acc: &mut u64, succ: &mut Vec<(u32, u32)>| {
                        *acc += u64::from(i + j);
                        if i < 8 {
                            succ.push((i + 1, j));
                        }
                        if j < 8 {
                            succ.push((i, j + 1));
                        }
                    }
                },
                |a, b| *a += b,
                |_| false,
            );
            assert_eq!(out.states, 81);
            assert!(!out.truncated);
            // Σ (i + j) over the 9×9 grid = 2 · 9 · Σ0..8 = 648.
            assert_eq!(out.acc, 648);
        }
    }

    #[test]
    fn ws_explore_respects_budget() {
        for workers in [1, 2] {
            let out = ws_explore_until(
                &VisitedSet::new(VisitedMode::Fingerprint),
                vec![0u64],
                workers,
                100,
                |_wid| |&n: &u64, _: &mut (), succ: &mut Vec<u64>| succ.push(n + 1),
                |_, ()| {},
                |_| false,
            );
            assert!(out.truncated);
            assert!(out.states >= 100);
        }
    }
}
