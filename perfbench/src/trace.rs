//! In-memory span and counter recorder for the traced run.
//!
//! A span is `(name, id, parent, op, start, end)`: `parent` is the span
//! open on the same thread when this one started (0 for none) and `op`
//! the benchmark operation it belongs to (0 for work outside any
//! operation, such as set-up or the side-priced layers). Spans are kept
//! in memory and written out once, at exit. When tracing is off every
//! entry point is a single relaxed load and a branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static CURRENT_OP: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static COUNTS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).expect("run shorter than 584 years")
}

pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drops everything recorded so far (set-up work is not measured).
pub fn reset() {
    SPANS.lock().expect("span store").clear();
    COUNTS.lock().expect("count store").clear();
}

/// Marks the operation that subsequent spans belong to (0: none).
pub fn set_op(op: u64) {
    CURRENT_OP.store(op, Ordering::Relaxed);
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span_by(f, |_| name)
}

/// Runs `f` inside a span whose name is chosen from its result (for
/// layers whose cost class is only known afterwards, such as a cache
/// lookup that turned out to be a hit or a miss).
pub fn span_by<R>(f: impl FnOnce() -> R, name: impl FnOnce(&R) -> &'static str) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let p = s.last().copied().unwrap_or(0);
        s.push(id);
        p
    });
    let start_ns = now_ns();
    let r = f();
    let end_ns = now_ns();
    OPEN.with(|s| s.borrow_mut().pop());
    let span = Span {
        name: name(&r),
        id,
        parent,
        op: CURRENT_OP.load(Ordering::Relaxed),
        start_ns,
        end_ns,
    };
    SPANS.lock().expect("span store").push(span);
    r
}

/// Adds `n` to the counter `name`.
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        *COUNTS.lock().expect("count store").entry(name).or_insert(0) += n;
    }
}

pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span store").clone()
}

pub fn counts() -> BTreeMap<&'static str, u64> {
    COUNTS.lock().expect("count store").clone()
}

/// The recorded spans and counts as one JSON document.
pub fn to_json(spans: &[Span], counts: &BTreeMap<&'static str, u64>) -> String {
    let mut out = String::from("{\"counts\": {");
    for (i, (k, v)) in counts.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(out, "{sep}\"{k}\": {v}").expect("write to string");
    }
    out.push_str("},\n\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        write!(
            out,
            "{sep}{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"op\": {}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.id, s.parent, s.op, s.start_ns, s.end_ns
        )
        .expect("write to string");
    }
    out.push_str("\n]}\n");
    out
}
