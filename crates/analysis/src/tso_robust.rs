//! Static SC-robustness analysis and fence inference for x86-TSO
//! assembly.
//!
//! On x86-TSO the *only* relaxation over SC is the store buffer: a
//! plain store may be delayed past program-order-later loads of other
//! locations. A program whose behaviours are nevertheless SC-equal is
//! called *robust*. By the Shasha–Snir/Owens characterisation, a
//! non-SC TSO behaviour requires a **critical cycle**: a cycle through
//! program order and inter-thread conflicts that traverses at least one
//! store→load pair which really executed with the store still buffered
//! (an Owens-style *triangular race*).
//!
//! [`analyze`] over-approximates that criterion statically on the
//! expanded per-thread CFGs of [`crate::asm_cfg`]:
//!
//! 1. a **reorderable pair** is a buffered store and a load of a
//!    possibly-different location, the load reachable from the store
//!    along some drain-free path (`mfence`, lock-prefixed RMW, external
//!    calls, and the final `ret` drain);
//! 2. the pair is **critical** if the load reaches the store back
//!    through the global graph of program-order edges and inter-thread
//!    conflict edges (same location, at least one write), using at
//!    least one conflict edge.
//!
//! No critical pair ⟹ [`Verdict::Robust`], which soundly implies
//! SC-equal trace sets (checked differentially in `tests/` against the
//! executable `X86Sc`/`X86Tso` machines over the litmus corpus and a
//! proptest-generated program battery). Otherwise the verdict is
//! [`Verdict::MayViolateSC`] with the critical pairs and their cycles
//! as witnesses — possibly spurious (the analysis is a may-analysis),
//! but each witness always names a genuinely reorderable store→load
//! pair of the program text.
//!
//! One caveat, inherent to any robustness notion: for programs with
//! spin loops, an *unfair* schedule can starve a thread with stores
//! still buffered, adding TSO-only divergences (with identical event
//! prefixes) that no fence can remove — the exact artifact for which
//! the paper's §7.3 refinement `⊑′` is termination-insensitive.
//! `Robust` therefore promises SC-equality of event behaviour: full
//! trace-set equality on loop-free programs, and mutual refinement up
//! to divergence (`trace_refines` one way, `trace_refines_nonterm` the
//! other) in general.
//!
//! Two transforms complete the story:
//!
//! * [`insert_fences`] — a greedy-minimal `mfence` insertion that cuts
//!   every critical pair (restoring robustness, hence SC-equal
//!   behaviour);
//! * [`eliminate_redundant_fences`] — removes every `mfence` at which a
//!   forward buffer-emptiness dataflow proves the store buffer is
//!   already drained (dominated by a draining instruction — or the
//!   thread entry — with no intervening store), a behaviour-preserving
//!   cleanup.
//!
//! [`compile_with_robustness`] wires the verdict into the compilation
//! driver as a post-Asmgen report, on artifacts translation validation
//! has accepted.

use crate::asm_cfg::{thread_cfg, NodeKind, StaticLoc, ThreadCfg, SYNTHETIC};
use crate::diag::Diagnostic;
use crate::transval::validate_artifacts;
use ccc_clight::ast::ClightModule;
use ccc_compiler::driver::{compile_with_artifacts, CompilationArtifacts, CompileError};
use ccc_machine::{AsmModule, Instr};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;

/// One static shared-memory access, as reported in witnesses.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AccessRef {
    /// Index of the thread (position in the entry list).
    pub thread: usize,
    /// Function holding the instruction.
    pub func: String,
    /// Instruction index within the function ([`SYNTHETIC`] for
    /// accesses summarising unseen code).
    pub idx: usize,
    /// The abstract location.
    pub loc: StaticLoc,
    /// Write access (else read).
    pub write: bool,
}

impl fmt::Display for AccessRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.write { "store" } else { "load" };
        if self.idx == SYNTHETIC {
            write!(
                f,
                "t{}: {} {} in ⟨{}⟩",
                self.thread, kind, self.loc, self.func
            )
        } else {
            write!(
                f,
                "t{}: {} {} at {}:{}",
                self.thread, kind, self.loc, self.func, self.idx
            )
        }
    }
}

/// A store→load pair the TSO buffer may reorder.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReorderablePair {
    /// The buffered store.
    pub store: AccessRef,
    /// The load some drain-free path reaches from the store.
    pub load: AccessRef,
}

impl fmt::Display for ReorderablePair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ⇢ {}", self.store, self.load)
    }
}

/// A critical cycle: a reorderable pair plus the conflict/program-order
/// path closing the cycle from the load back to the store.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CriticalCycle {
    /// The reordered pair the cycle traverses.
    pub pair: ReorderablePair,
    /// The closing path (load … store), through other threads.
    pub path: Vec<AccessRef>,
}

impl fmt::Display for CriticalCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pair)?;
        for a in &self.path {
            write!(f, " → {a}")?;
        }
        Ok(())
    }
}

/// The robustness verdict.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// No critical cycle: every TSO behaviour is SC-explainable.
    Robust,
    /// Some reorderable pair closes a critical cycle; TSO may exhibit
    /// non-SC behaviour.
    MayViolateSC {
        /// One witness cycle per critical pair.
        witnesses: Vec<CriticalCycle>,
    },
}

/// The result of [`analyze`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RobustReport {
    /// The verdict.
    pub verdict: Verdict,
    /// Every reorderable store→load pair (critical or not).
    pub pairs: Vec<ReorderablePair>,
    /// Number of static shared-memory accesses considered.
    pub accesses: usize,
    /// Number of threads analysed.
    pub threads: usize,
}

impl RobustReport {
    /// True if the verdict is [`Verdict::Robust`].
    pub fn is_robust(&self) -> bool {
        matches!(self.verdict, Verdict::Robust)
    }

    /// The witnesses, if any.
    pub fn witnesses(&self) -> &[CriticalCycle] {
        match &self.verdict {
            Verdict::Robust => &[],
            Verdict::MayViolateSC { witnesses } => witnesses,
        }
    }
}

impl fmt::Display for RobustReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.verdict {
            Verdict::Robust => write!(
                f,
                "Robust ({} accesses, {} reorderable pair(s), no critical cycle)",
                self.accesses,
                self.pairs.len()
            ),
            Verdict::MayViolateSC { witnesses } => {
                writeln!(f, "MayViolateSC ({} critical cycle(s)):", witnesses.len())?;
                for w in witnesses {
                    writeln!(f, "  {w}")?;
                }
                Ok(())
            }
        }
    }
}

/// An access node of one thread's expanded CFG, with its reachability
/// rows.
struct Acc {
    node: usize,
    loc: StaticLoc,
    write: bool,
    buffered: bool,
    /// Nodes reachable through drains (program order).
    reach: Vec<bool>,
    /// Nodes reachable along drain-free paths.
    reach_nodrain: Vec<bool>,
}

struct ThreadInfo {
    cfg: ThreadCfg,
    accs: Vec<Acc>,
    /// node id → position in `accs`.
    by_node: HashMap<usize, usize>,
}

fn thread_info(cfg: ThreadCfg) -> ThreadInfo {
    let mut accs = Vec::new();
    let mut by_node = HashMap::new();
    for n in cfg.accesses() {
        let NodeKind::Access {
            loc,
            write,
            buffered,
        } = &cfg.nodes[n].kind
        else {
            unreachable!()
        };
        by_node.insert(n, accs.len());
        accs.push(Acc {
            node: n,
            loc: loc.clone(),
            write: *write,
            buffered: *buffered,
            reach: cfg.reachable(n, true, None),
            reach_nodrain: cfg.reachable(n, false, None),
        });
    }
    ThreadInfo { cfg, accs, by_node }
}

fn access_ref(info: &ThreadInfo, a: &Acc) -> AccessRef {
    let n = &info.cfg.nodes[a.node];
    AccessRef {
        thread: info.cfg.thread,
        func: n.func.clone(),
        idx: n.idx,
        loc: a.loc.clone(),
        write: a.write,
    }
}

/// Searches for a path closing the cycle of the pair `(u, v)` of thread
/// `t`: from the load `v` back to the store `u` through program-order
/// edges and at least one inter-thread conflict edge. Returns the path
/// of accesses (excluding `v` and `u` themselves) on success.
fn closing_path(threads: &[ThreadInfo], t: usize, u: usize, v: usize) -> Option<Vec<AccessRef>> {
    // BFS states: (thread, access index, crossed a conflict edge yet).
    type State = (usize, usize, bool);
    let start: State = (t, v, false);
    let goal: State = (t, u, true);
    let mut parent: HashMap<State, State> = HashMap::new();
    let mut queue: VecDeque<State> = VecDeque::new();
    parent.insert(start, start);
    queue.push_back(start);
    while let Some(s @ (st, sa, crossed)) = queue.pop_front() {
        if s == goal {
            let mut path = Vec::new();
            let mut cur = s;
            while cur != start {
                let (pt, pa, _) = cur;
                path.push(access_ref(&threads[pt], &threads[pt].accs[pa]));
                cur = parent[&cur];
            }
            path.reverse();
            path.pop(); // drop the store itself; it is named by the pair
            return Some(path);
        }
        let info = &threads[st];
        let acc = &info.accs[sa];
        let visit =
            |nxt: State, parent: &mut HashMap<State, State>, queue: &mut VecDeque<State>| {
                if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(nxt) {
                    e.insert(s);
                    queue.push_back(nxt);
                }
            };
        // Program-order edges within the thread.
        for (bi, b) in info.accs.iter().enumerate() {
            if acc.reach[b.node] {
                visit((st, bi, crossed), &mut parent, &mut queue);
            }
        }
        // Conflict edges to other threads.
        for (ot, oinfo) in threads.iter().enumerate() {
            if ot == st {
                continue;
            }
            for (bi, b) in oinfo.accs.iter().enumerate() {
                if (acc.write || b.write) && acc.loc.may_alias(&b.loc) {
                    visit((ot, bi, true), &mut parent, &mut queue);
                }
            }
        }
    }
    None
}

/// Runs the robustness analysis on `module` with one thread per entry.
pub fn analyze(module: &AsmModule, entries: &[String]) -> RobustReport {
    let threads: Vec<ThreadInfo> = entries
        .iter()
        .enumerate()
        .map(|(t, e)| thread_info(thread_cfg(module, t, e)))
        .collect();

    let mut pairs = Vec::new();
    let mut witnesses = Vec::new();
    for (t, info) in threads.iter().enumerate() {
        for u in &info.accs {
            if !(u.write && u.buffered) {
                continue;
            }
            for (vi, v) in info.accs.iter().enumerate() {
                if v.write || !u.reach_nodrain[v.node] || u.loc.must_equal(&v.loc) {
                    continue;
                }
                let pair = ReorderablePair {
                    store: access_ref(info, u),
                    load: access_ref(info, v),
                };
                pairs.push(pair.clone());
                let ui = info.by_node[&u.node];
                if let Some(path) = closing_path(&threads, t, ui, vi) {
                    witnesses.push(CriticalCycle { pair, path });
                }
            }
        }
    }

    RobustReport {
        verdict: if witnesses.is_empty() {
            Verdict::Robust
        } else {
            Verdict::MayViolateSC { witnesses }
        },
        pairs,
        accesses: threads.iter().map(|i| i.accs.len()).sum(),
        threads: threads.len(),
    }
}

/// A fence placement: insert `mfence` at index `at` of `func` (indices
/// refer to the *original* code; the store the fence follows, or the
/// load it precedes, is at `at - 1` resp. `at`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct FencePoint {
    /// Function to patch.
    pub func: String,
    /// Insertion index in the original instruction sequence.
    pub at: usize,
}

/// The result of [`insert_fences`].
#[derive(Clone, Debug)]
pub struct FenceInsertion {
    /// The fenced module.
    pub module: AsmModule,
    /// Where fences were inserted.
    pub inserted: Vec<FencePoint>,
    /// False if some critical pair had no concrete instruction to fence
    /// (both endpoints summarised unseen code) — robustness could not
    /// be enforced.
    pub complete: bool,
}

/// Candidate placements: after a store instruction or before a load
/// instruction (stores fall through, and jumps only target labels, so
/// either placement intercepts every path through the instruction).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Side {
    AfterStore,
    BeforeLoad,
}

/// Does placing a fence at (`func`, `idx`, `side`) cut the critical
/// pair `(u, v)` of `info`? It does iff the fenced instruction is the
/// pair's own endpoint, or every drain-free path from `u` to `v` passes
/// through a node of that instruction.
fn cuts(info: &ThreadInfo, u: &Acc, v: &Acc, func: &str, idx: usize, side: Side) -> bool {
    let un = &info.cfg.nodes[u.node];
    let vn = &info.cfg.nodes[v.node];
    match side {
        Side::AfterStore if un.func == func && un.idx == idx => return true,
        Side::BeforeLoad if vn.func == func && vn.idx == idx => return true,
        _ => {}
    }
    let excluded = |n: &crate::asm_cfg::CfgNode| n.func == func && n.idx == idx;
    !info.cfg.reachable(u.node, false, Some(&excluded))[v.node]
}

/// Breaks every critical cycle by inserting `mfence`s, choosing
/// placements greedily by how many still-uncut critical pairs each one
/// cuts (a standard set-cover approximation of the minimal fence set).
pub fn insert_fences(module: &AsmModule, entries: &[String]) -> FenceInsertion {
    let threads: Vec<ThreadInfo> = entries
        .iter()
        .enumerate()
        .map(|(t, e)| thread_info(thread_cfg(module, t, e)))
        .collect();

    // Critical pairs, as (thread, store acc index, load acc index).
    let mut uncut: Vec<(usize, usize, usize)> = Vec::new();
    for (t, info) in threads.iter().enumerate() {
        for (ui, u) in info.accs.iter().enumerate() {
            if !(u.write && u.buffered) {
                continue;
            }
            for (vi, v) in info.accs.iter().enumerate() {
                if v.write || !u.reach_nodrain[v.node] || u.loc.must_equal(&v.loc) {
                    continue;
                }
                if closing_path(&threads, t, ui, vi).is_some() {
                    uncut.push((t, ui, vi));
                }
            }
        }
    }

    // Candidate placements from the concrete endpoints of the pairs.
    let mut candidates: BTreeSet<(String, usize, Side)> = BTreeSet::new();
    for &(t, ui, vi) in &uncut {
        let info = &threads[t];
        let sn = &info.cfg.nodes[info.accs[ui].node];
        if sn.idx != SYNTHETIC && matches!(module.funcs[&sn.func].code[sn.idx], Instr::Store(..)) {
            candidates.insert((sn.func.clone(), sn.idx, Side::AfterStore));
        }
        let ln = &info.cfg.nodes[info.accs[vi].node];
        if ln.idx != SYNTHETIC && matches!(module.funcs[&ln.func].code[ln.idx], Instr::Load(..)) {
            candidates.insert((ln.func.clone(), ln.idx, Side::BeforeLoad));
        }
    }

    let mut chosen: Vec<(String, usize, Side)> = Vec::new();
    let mut complete = true;
    while !uncut.is_empty() {
        let best = candidates
            .iter()
            .map(|c| {
                let n = uncut
                    .iter()
                    .filter(|&&(t, ui, vi)| {
                        let info = &threads[t];
                        cuts(info, &info.accs[ui], &info.accs[vi], &c.0, c.1, c.2)
                    })
                    .count();
                (n, c.clone())
            })
            .max_by(|a, b| a.0.cmp(&b.0).then_with(|| b.1.cmp(&a.1)));
        match best {
            Some((n, c)) if n > 0 => {
                uncut.retain(|&(t, ui, vi)| {
                    let info = &threads[t];
                    !cuts(info, &info.accs[ui], &info.accs[vi], &c.0, c.1, c.2)
                });
                candidates.remove(&c);
                chosen.push(c);
            }
            _ => {
                // Pairs without a concrete instruction to fence.
                complete = false;
                break;
            }
        }
    }

    // Materialise: per function, insert at the computed indices.
    let mut by_func: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    let mut inserted = Vec::new();
    for (func, idx, side) in chosen {
        let at = match side {
            Side::AfterStore => idx + 1,
            Side::BeforeLoad => idx,
        };
        if by_func.entry(func.clone()).or_default().insert(at) {
            inserted.push(FencePoint { func, at });
        }
    }
    let mut out = module.clone();
    for (fname, ats) in &by_func {
        let f = out.funcs.get_mut(fname).expect("candidate func exists");
        for &at in ats.iter().rev() {
            f.code.insert(at, Instr::Mfence);
        }
    }
    inserted.sort();
    FenceInsertion {
        module: out,
        inserted,
        complete,
    }
}

/// The result of [`eliminate_redundant_fences`].
#[derive(Clone, Debug)]
pub struct FenceElimination {
    /// The cleaned module.
    pub module: AsmModule,
    /// The removed fences, as (function, original index).
    pub removed: Vec<(String, usize)>,
}

/// Buffer state of the forward emptiness dataflow.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Buf {
    /// The store buffer is provably empty here.
    Empty,
    /// It may hold pending stores.
    Maybe,
}

impl Buf {
    fn join(self, other: Buf) -> Buf {
        if self == other {
            self
        } else {
            Buf::Maybe
        }
    }
}

/// Removes every `mfence` whose store buffer is provably empty: fences
/// reachable only along paths where the last buffer-filling store is
/// followed by a draining instruction (or where no store happened since
/// thread entry). Such a fence is a no-op under both SC and TSO, so the
/// transform preserves trace sets exactly — the differential tests
/// check this on the litmus corpus and the generated battery.
pub fn eliminate_redundant_fences(module: &AsmModule, entries: &[String]) -> FenceElimination {
    // A function's buffer can start empty only if it is a thread entry
    // and is never called from inside the module (a caller might leave
    // buffered stores behind).
    let mut called: BTreeSet<&String> = BTreeSet::new();
    for f in module.funcs.values() {
        for i in &f.code {
            if let Instr::Call(g, _) = i {
                called.insert(g);
            }
        }
    }

    let mut out = module.clone();
    let mut removed = Vec::new();
    for (fname, f) in &module.funcs {
        let entry_state = if entries.contains(fname) && !called.contains(fname) {
            Buf::Empty
        } else {
            Buf::Maybe
        };
        let n = f.code.len();
        if n == 0 {
            continue;
        }
        let mut input: Vec<Option<Buf>> = vec![None; n];
        input[0] = Some(entry_state);
        let mut work: VecDeque<usize> = VecDeque::from([0]);
        while let Some(i) = work.pop_front() {
            let inb = input[i].expect("queued with a state");
            let outb = match &f.code[i] {
                Instr::Store(..) => Buf::Maybe,
                Instr::Mfence | Instr::LockCmpxchg(..) => Buf::Empty,
                // A callee (or external code) may buffer stores.
                Instr::Call(..) => Buf::Maybe,
                _ => inb,
            };
            for s in f.succs(i) {
                let joined = match input[s] {
                    None => outb,
                    Some(cur) => cur.join(outb),
                };
                if input[s] != Some(joined) {
                    input[s] = Some(joined);
                    work.push_back(s);
                }
            }
        }
        let dead: Vec<usize> = (0..n)
            .filter(|&i| matches!(f.code[i], Instr::Mfence) && input[i] == Some(Buf::Empty))
            .collect();
        if dead.is_empty() {
            continue;
        }
        let g = out.funcs.get_mut(fname).expect("same module");
        for &i in dead.iter().rev() {
            g.code.remove(i);
            removed.push((fname.clone(), i));
        }
    }
    removed.sort();
    FenceElimination {
        module: out,
        removed,
    }
}

/// The error of [`compile_with_robustness`]: either the pipeline itself
/// failed, or translation validation rejected one of its passes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckedError {
    /// A pass reported failure.
    Compile(CompileError),
    /// The pipeline ran, but some passes failed validation: one
    /// diagnostic per undischarged obligation.
    Rejected(Vec<Diagnostic>),
}

impl fmt::Display for CheckedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckedError::Compile(e) => write!(f, "compilation failed: {e:?}"),
            CheckedError::Rejected(diags) => {
                writeln!(f, "{} failed obligation(s):", diags.len())?;
                for d in diags {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CheckedError {}

/// Compiles a Clight module, validates every pass of the compilation,
/// and runs the robustness analysis on the final assembly — the
/// post-Asmgen report of the driver, with `entries` naming the
/// functions that will run as threads.
///
/// # Errors
///
/// Propagates compilation failures, and the failed obligations of any
/// pass translation validation rejects.
pub fn compile_with_robustness(
    m: &ClightModule,
    entries: &[String],
) -> Result<(CompilationArtifacts, RobustReport), CheckedError> {
    let arts = compile_with_artifacts(m).map_err(CheckedError::Compile)?;
    let witness = validate_artifacts(&arts);
    if !witness.ok() {
        return Err(CheckedError::Rejected(witness.diagnostics()));
    }
    let report = analyze(&arts.asm, entries);
    Ok((arts, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_machine::litmus;
    use ccc_machine::{AsmFunc, MemArg, Operand, Reg};

    fn entries(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn func(code: Vec<Instr>) -> AsmFunc {
        AsmFunc {
            code,
            frame_slots: 0,
            arity: 0,
        }
    }

    #[test]
    fn litmus_verdicts_are_exact() {
        // On the fixed corpus the may-analysis is in fact exact: it
        // flags precisely the TSO-observable tests.
        for l in litmus::corpus() {
            let report = analyze(&l.module, &l.entries);
            assert_eq!(
                !report.is_robust(),
                l.tso_observable,
                "{}: {report}",
                l.name
            );
        }
    }

    #[test]
    fn sb_witness_names_the_real_pair() {
        let sb = &litmus::corpus()[0];
        let report = analyze(&sb.module, &sb.entries);
        let ws = report.witnesses();
        assert!(!ws.is_empty());
        for w in ws {
            // The witness points at the actual store and load
            // instructions of the program text.
            let sf = &sb.module.funcs[&w.pair.store.func];
            assert!(matches!(sf.code[w.pair.store.idx], Instr::Store(..)));
            let lf = &sb.module.funcs[&w.pair.load.func];
            assert!(matches!(lf.code[w.pair.load.idx], Instr::Load(..)));
            assert_eq!(w.pair.store.thread, w.pair.load.thread);
            assert!(!w.pair.store.loc.must_equal(&w.pair.load.loc));
        }
    }

    #[test]
    fn fence_insertion_restores_robustness_minimally_on_sb() {
        let sb = &litmus::corpus()[0];
        let fenced = insert_fences(&sb.module, &sb.entries);
        assert!(fenced.complete);
        // One fence per thread, between the store and the load.
        assert_eq!(fenced.inserted.len(), 2);
        for p in &fenced.inserted {
            assert_eq!(p.at, 1, "between store (0) and load (1)");
        }
        assert!(analyze(&fenced.module, &sb.entries).is_robust());
    }

    #[test]
    fn one_fence_can_cut_many_pairs() {
        // In t0 the pairs (st x, ld z) and (st y, ld z) share every
        // path suffix: a single fence covers both.
        let t0 = func(vec![
            Instr::Store(MemArg::Global("x".into(), 0), Operand::Imm(1)),
            Instr::Store(MemArg::Global("y".into(), 0), Operand::Imm(1)),
            Instr::Load(Reg::Ecx, MemArg::Global("z".into(), 0)),
            Instr::Print(Reg::Ecx),
            Instr::Mov(Reg::Eax, Operand::Imm(0)),
            Instr::Ret,
        ]);
        let t1 = func(vec![
            Instr::Store(MemArg::Global("z".into(), 0), Operand::Imm(1)),
            Instr::Load(Reg::Ecx, MemArg::Global("x".into(), 0)),
            Instr::Load(Reg::Edx, MemArg::Global("y".into(), 0)),
            Instr::Mov(Reg::Eax, Operand::Imm(0)),
            Instr::Ret,
        ]);
        let m = AsmModule::new([("t0", t0), ("t1", t1)]);
        let es = entries(&["t0", "t1"]);
        let report = analyze(&m, &es);
        assert!(!report.is_robust());
        let fenced = insert_fences(&m, &es);
        assert!(analyze(&fenced.module, &es).is_robust());
        // One fence in each thread suffices — greedy cover finds it.
        assert_eq!(fenced.inserted.len(), 2, "{:?}", fenced.inserted);
    }

    #[test]
    fn redundant_fences_are_removed_and_needed_ones_kept() {
        let t = func(vec![
            Instr::Mfence, // buffer empty at entry: redundant
            Instr::Load(Reg::Eax, MemArg::Global("x".into(), 0)),
            Instr::Mfence, // still no store: redundant
            Instr::Store(MemArg::Global("x".into(), 0), Operand::Imm(1)),
            Instr::Mfence, // drains the store: kept
            Instr::Mfence, // immediately after a drain: redundant
            Instr::Mov(Reg::Eax, Operand::Imm(0)),
            Instr::Ret,
        ]);
        let m = AsmModule::new([("t", t)]);
        let es = entries(&["t"]);
        let r = eliminate_redundant_fences(&m, &es);
        assert_eq!(
            r.removed,
            vec![
                ("t".to_string(), 0),
                ("t".to_string(), 2),
                ("t".to_string(), 5)
            ]
        );
        let fences = r.module.funcs["t"]
            .code
            .iter()
            .filter(|i| matches!(i, Instr::Mfence))
            .count();
        assert_eq!(fences, 1);
    }

    #[test]
    fn callee_entry_is_not_assumed_drained() {
        // `t` buffers a store and calls `g`; the mfence inside `g` is
        // load-bearing and must survive.
        let t = func(vec![
            Instr::Store(MemArg::Global("x".into(), 0), Operand::Imm(1)),
            Instr::Call("g".into(), 0),
            Instr::Ret,
        ]);
        let g = func(vec![
            Instr::Mfence,
            Instr::Load(Reg::Eax, MemArg::Global("y".into(), 0)),
            Instr::Ret,
        ]);
        let m = AsmModule::new([("t", t), ("g", g)]);
        let r = eliminate_redundant_fences(&m, &entries(&["t"]));
        assert!(r.removed.is_empty(), "{:?}", r.removed);
    }

    #[test]
    fn loops_keep_fences_alive() {
        // The fence is redundant on the path from entry but not on the
        // back edge after the store: it must be kept.
        let t = func(vec![
            Instr::Label("top".into()),
            Instr::Mfence,
            Instr::Load(Reg::Eax, MemArg::Global("x".into(), 0)),
            Instr::Store(MemArg::Global("x".into(), 0), Operand::Imm(1)),
            Instr::Cmp(Operand::Reg(Reg::Eax), Operand::Imm(0)),
            Instr::Jcc(ccc_machine::Cond::E, "top".into()),
            Instr::Ret,
        ]);
        let m = AsmModule::new([("t", t)]);
        let r = eliminate_redundant_fences(&m, &entries(&["t"]));
        assert!(r.removed.is_empty(), "{:?}", r.removed);
    }

    #[test]
    fn compiled_modules_get_a_post_asmgen_report() {
        use ccc_clight::ast::{Expr as E, Function as CF, Stmt};
        // Two threads incrementing distinct globals: no shared store→load
        // pair survives, the compiled program is robust.
        let th = |g: &str| {
            CF::simple(Stmt::seq([
                Stmt::Assign(E::var(g), E::Const(1)),
                Stmt::Return(Some(E::Const(0))),
            ]))
        };
        let m = ClightModule::new([("t0", th("a")), ("t1", th("b"))]);
        let (arts, report) =
            compile_with_robustness(&m, &entries(&["t0", "t1"])).expect("compiles");
        assert!(!arts.asm.funcs.is_empty());
        assert!(report.is_robust(), "{report}");
    }
}
