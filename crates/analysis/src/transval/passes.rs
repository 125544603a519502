//! Per-pass symbolic validators.
//!
//! Each validator receives the source and target IR of one pass run,
//! derives a candidate block matching from the structural hint the pass
//! itself exposes (Renumber's permutation, Allocation's assignment and
//! liveness, Tunneling's branch-chase, Linearize's layout, CleanupLabels'
//! referenced-label set), and discharges per-block simulation
//! obligations by symbolic execution ([`super::sym`]).
//!
//! The hints are *untrusted*: every obligation is checked independently
//! of how the matching was obtained, so a wrong (or mutated) hint can
//! only cause a false rejection, never a false acceptance. Constprop's
//! dataflow facts get the same treatment — they are re-verified
//! inductive ([`ObligationKind::FactsInductive`]) before any block is
//! allowed to assume them.

use super::sym::{
    covered, exec_linear_seg, exec_ltl, exec_rtl, footprint, BlockOut, ExecState, SLoc, SymVal,
};
use super::{Obligation, ObligationKind, SimWitness};
use ccc_compiler::allocation::{assignment, liveness};
use ccc_compiler::cleanuplabels::referenced_labels;
use ccc_compiler::constprop::{constant_facts, interval_facts};
use ccc_compiler::linear::{Instr as LinInstr, LinearModule};
use ccc_compiler::linearize::layout;
use ccc_compiler::ltl::{Instr as LtlInstr, Loc, LtlModule};
use ccc_compiler::ops::{AddrMode, Cmp, Op};
use ccc_compiler::renumber::renumber_permutation;
use ccc_compiler::rtl::{Function as RtlFunction, Instr as RtlInstr, Node, PReg, RtlModule};
use ccc_compiler::tailcall::skip_nops;
use ccc_compiler::tunneling::branch_target;
use ccc_core::mem::Val;
use ccc_core::Interval;
use std::collections::{BTreeMap, BTreeSet};

/// Obligation accumulator: one per witness under construction. Shared
/// with the cross-IR validators of [`super::frontend`],
/// [`super::backend`] and [`super::object`].
pub(crate) struct Obls {
    list: Vec<Obligation>,
    pub(crate) blocks: usize,
}

impl Obls {
    pub(crate) fn new() -> Self {
        Obls {
            list: Vec::new(),
            blocks: 0,
        }
    }

    /// Records one obligation; the note is only rendered on failure.
    pub(crate) fn check(
        &mut self,
        kind: ObligationKind,
        function: &str,
        node: Option<Node>,
        discharged: bool,
        note: impl FnOnce() -> String,
    ) {
        self.list.push(Obligation {
            kind,
            function: function.to_string(),
            node,
            discharged,
            note: if discharged { String::new() } else { note() },
        });
    }

    pub(crate) fn into_witness(self, pass: &'static str) -> SimWitness {
        SimWitness::conclude(pass, self.blocks, self.list)
    }
}

pub(crate) fn check_same_funcs(o: &mut Obls, src: BTreeSet<&String>, tgt: BTreeSet<&String>) {
    o.check(
        ObligationKind::InterfacePreserved,
        "",
        None,
        src == tgt,
        || format!("module function sets differ: source {src:?}, target {tgt:?}"),
    );
}

/// The block-exit obligation: target control refines source control
/// through the matching. Branches are compared up to the four sound
/// presentations of the same test — exact; negated condition with
/// swapped targets (Linearize's fallthrough negation); swapped
/// comparison with swapped operands (Constprop's `Cond` with a constant
/// left operand becoming `CondImm` via [`ccc_compiler::ops::Cmp::swap`]);
/// and both at once.
fn control_match(
    so: &BlockOut,
    to: &BlockOut,
    map: &dyn Fn(Node) -> Option<Node>,
) -> Result<(), String> {
    match (so, to) {
        (BlockOut::Goto(s), BlockOut::Goto(t)) => {
            if map(*s) == Some(*t) {
                Ok(())
            } else {
                Err(format!(
                    "source continues at {s} (maps to {:?}), target continues at {t}",
                    map(*s)
                ))
            }
        }
        (BlockOut::Branch(c, a, b, st, se), BlockOut::Branch(tc, ta, tb, tt, te)) => {
            let (mt, me) = (map(*st), map(*se));
            let ok = (tc == c && ta == a && tb == b && Some(*tt) == mt && Some(*te) == me)
                || (*tc == c.negate() && ta == a && tb == b && Some(*tt) == me && Some(*te) == mt)
                || (*tc == c.swap() && ta == b && tb == a && Some(*tt) == mt && Some(*te) == me)
                || (*tc == c.swap().negate()
                    && ta == b
                    && tb == a
                    && Some(*tt) == me
                    && Some(*te) == mt);
            if ok {
                Ok(())
            } else {
                Err(format!("branches differ: source {so:?}, target {to:?}"))
            }
        }
        (BlockOut::Return(a), BlockOut::Return(b)) if a == b => Ok(()),
        (BlockOut::Tailcall(f1, a1), BlockOut::Tailcall(f2, a2)) if f1 == f2 && a1 == a2 => Ok(()),
        _ => Err(format!("block exits differ: source {so:?}, target {to:?}")),
    }
}

/// Discharges the four per-block obligations for an executed pair:
/// effect-trace refinement, footprint cover (Defs. 10–11), post-state
/// agreement (environment equality — both sides live in the same
/// location space), and the control match.
#[allow(clippy::too_many_arguments)]
fn finish_pair(
    o: &mut Obls,
    fname: &str,
    ns: Node,
    ss: &ExecState,
    ts: &ExecState,
    so: &BlockOut,
    to: &BlockOut,
    map: &dyn Fn(Node) -> Option<Node>,
) {
    o.check(
        ObligationKind::EffectsRefine,
        fname,
        Some(ns),
        ts.effects == ss.effects,
        || {
            format!(
                "target effects {:?} do not refine source effects {:?}",
                ts.effects, ss.effects
            )
        },
    );
    let (sfp, tfp) = (footprint(&ss.effects), footprint(&ts.effects));
    o.check(
        ObligationKind::FootprintCover,
        fname,
        Some(ns),
        covered(&tfp, &sfp),
        || format!("target footprint {tfp:?} not covered by source footprint {sfp:?}"),
    );
    o.check(
        ObligationKind::PostState,
        fname,
        Some(ns),
        ss.env == ts.env,
        || {
            format!(
                "post-states differ: source {:?}, target {:?}",
                ss.env, ts.env
            )
        },
    );
    let ctl = control_match(so, to, map);
    o.check(
        ObligationKind::ControlMatch,
        fname,
        Some(ns),
        ctl.is_ok(),
        || ctl.err().unwrap_or_default(),
    );
}

/// Executes a matched RTL node pair and discharges its obligations.
/// `seed` optionally pre-loads *both* environments with dataflow facts
/// (Constprop); the facts must separately be proven inductive.
fn check_rtl_pair(
    o: &mut Obls,
    fname: &str,
    sf: &RtlFunction,
    tf: &RtlFunction,
    (ns, nt): (Node, Node),
    map: &dyn Fn(Node) -> Option<Node>,
    seed: Option<&BTreeMap<PReg, i64>>,
) {
    let (Some(si), Some(ti)) = (sf.code.get(&ns), tf.code.get(&nt)) else {
        o.check(ObligationKind::ControlMatch, fname, Some(ns), false, || {
            format!("matched pair ({ns}, {nt}) is missing an instruction")
        });
        return;
    };
    let mut ss = ExecState::new(false);
    let mut ts = ExecState::new(false);
    if let Some(facts) = seed {
        for (&r, &c) in facts {
            ss.set(SLoc::PReg(r), SymVal::Int(c));
            ts.set(SLoc::PReg(r), SymVal::Int(c));
        }
    }
    let so = exec_rtl(&mut ss, si);
    let to = exec_rtl(&mut ts, ti);
    finish_pair(o, fname, ns, &ss, &ts, &so, &to, map);
}

/// Validates a Tailcall run: every node is either unchanged (symbolic
/// pair check) or a `Call`-then-`Return`-of-the-result rewritten into a
/// `Tailcall` of the same callee and arguments.
pub fn validate_tailcall(src: &RtlModule, tgt: &RtlModule) -> SimWitness {
    let mut o = Obls::new();
    check_same_funcs(
        &mut o,
        src.funcs.keys().collect(),
        tgt.funcs.keys().collect(),
    );
    for (name, sf) in &src.funcs {
        let Some(tf) = tgt.funcs.get(name) else {
            continue;
        };
        o.check(
            ObligationKind::InterfacePreserved,
            name,
            None,
            sf.params == tf.params
                && sf.stack_slots == tf.stack_slots
                && sf.entry == tf.entry
                && sf.code.keys().eq(tf.code.keys()),
            || "function interface or node set changed".to_string(),
        );
        for (&n, si) in &sf.code {
            o.blocks += 1;
            match (si, tf.code.get(&n)) {
                (
                    RtlInstr::Call(Some(dst), callee, args, succ),
                    Some(RtlInstr::Tailcall(tc, ta)),
                ) => {
                    let ret = skip_nops(sf, *succ);
                    let pattern_ok = matches!(
                        sf.code.get(&ret),
                        Some(RtlInstr::Return(Some(r))) if r == dst
                    ) && tc == callee
                        && ta == args;
                    o.check(
                        ObligationKind::TailcallPattern,
                        name,
                        Some(n),
                        pattern_ok,
                        || {
                            format!(
                                "call at node {n} became a tail call without the \
                             call-then-return-of-result pattern"
                            )
                        },
                    );
                }
                (_, Some(ti)) if si == ti => {
                    check_rtl_pair(&mut o, name, sf, tf, (n, n), &|s| Some(s), None);
                }
                (_, other) => {
                    o.check(ObligationKind::CodeEqual, name, Some(n), false, || {
                        format!("unexpected rewrite at node {n}: {si:?} became {other:?}")
                    });
                }
            }
        }
    }
    o.into_witness("Tailcall")
}

/// Validates an RTL→RTL run under a caller-supplied block matching
/// (source node → target node, per function). Unmatched successor ids
/// pass through unchanged, mirroring how Renumber treats dangling
/// edges. This is both the engine behind [`validate_renumber`] and the
/// injection point for the unsound-matching regression tests: the
/// matching is untrusted, so a wrong one must fail an obligation.
pub fn validate_rtl_matching(
    pass: &'static str,
    src: &RtlModule,
    tgt: &RtlModule,
    matchings: &BTreeMap<String, BTreeMap<Node, Node>>,
) -> SimWitness {
    let mut o = Obls::new();
    check_same_funcs(
        &mut o,
        src.funcs.keys().collect(),
        tgt.funcs.keys().collect(),
    );
    let empty = BTreeMap::new();
    for (name, sf) in &src.funcs {
        let Some(tf) = tgt.funcs.get(name) else {
            continue;
        };
        let m = matchings.get(name).unwrap_or(&empty);
        o.check(
            ObligationKind::EntryMap,
            name,
            None,
            m.get(&sf.entry) == Some(&tf.entry),
            || {
                format!(
                    "entry {} maps to {:?}, but the target entry is {}",
                    sf.entry,
                    m.get(&sf.entry),
                    tf.entry
                )
            },
        );
        o.check(
            ObligationKind::InterfacePreserved,
            name,
            None,
            sf.params == tf.params && sf.stack_slots == tf.stack_slots,
            || "function interface changed".to_string(),
        );
        let map = |s: Node| Some(m.get(&s).copied().unwrap_or(s));
        for (&ns, &nt) in m {
            o.blocks += 1;
            check_rtl_pair(&mut o, name, sf, tf, (ns, nt), &map, None);
        }
    }
    o.into_witness(pass)
}

/// Validates a Renumber run against the pass's own permutation hint
/// ([`renumber_permutation`]).
pub fn validate_renumber(src: &RtlModule, tgt: &RtlModule) -> SimWitness {
    let matchings = src
        .funcs
        .iter()
        .map(|(n, f)| (n.clone(), renumber_permutation(f)))
        .collect();
    validate_rtl_matching("Renumber", src, tgt, &matchings)
}

/// One step of the constant-propagation transfer function, used to
/// re-verify the pass's facts independently of its own analysis.
fn fact_transfer(i: &RtlInstr, env: &BTreeMap<PReg, i64>) -> BTreeMap<PReg, i64> {
    let mut out = env.clone();
    match i {
        RtlInstr::Op(op, args, dst, _) => {
            let vals: Option<Vec<Val>> = args
                .iter()
                .map(|r| env.get(r).map(|&c| Val::Int(c)))
                .collect();
            let folded = vals.and_then(|vs| match op.eval(&vs) {
                Some(Val::Int(c)) => Some(c),
                _ => None,
            });
            match folded {
                Some(c) => {
                    out.insert(*dst, c);
                }
                None => {
                    out.remove(dst);
                }
            }
        }
        RtlInstr::Load(_, dst, _) => {
            out.remove(dst);
        }
        RtlInstr::Call(Some(dst), ..) => {
            out.remove(dst);
        }
        _ => {}
    }
    out
}

/// Checks that the per-node facts are inductive: empty at entry, and
/// every fact claimed at a successor is justified by the transfer of
/// the predecessor's facts through its instruction. Returns the first
/// violation.
fn facts_violation(f: &RtlFunction, facts: &BTreeMap<Node, BTreeMap<PReg, i64>>) -> Option<String> {
    if facts.get(&f.entry).is_some_and(|m| !m.is_empty()) {
        return Some("facts at the function entry are not empty".to_string());
    }
    for (n, nf) in facts {
        let Some(i) = f.code.get(n) else {
            continue;
        };
        let out = fact_transfer(i, nf);
        for s in i.succs() {
            if let Some(claimed) = facts.get(&s) {
                for (r, c) in claimed {
                    if out.get(r) != Some(c) {
                        return Some(format!(
                            "fact r{r} = {c} at node {s} is not justified by predecessor {n}"
                        ));
                    }
                }
            }
        }
    }
    None
}

/// The interval-justified branch-prune obligation: `Cond`/`CondImm`
/// became `Nop(x)`, so the verified interval facts must decide the
/// comparison, and the surviving arm must be the decided one.
#[allow(clippy::too_many_arguments)]
fn check_pruned_branch(
    o: &mut Obls,
    fname: &str,
    n: Node,
    c: Cmp,
    a: Option<Interval>,
    b: Option<Interval>,
    (t, e): (Node, Node),
    x: Node,
    unreachable: bool,
) {
    let decided = match (a, b) {
        (Some(a), Some(b)) => crate::absint::decide_cmp(c, &a, &b),
        _ => None,
    };
    let ok = unreachable || (decided == Some(true) && x == t) || (decided == Some(false) && x == e);
    o.check(ObligationKind::ValueRange, fname, Some(n), ok, || {
        format!(
            "branch {c:?} at node {n} pruned to {x}, but the verified interval \
             facts decide {decided:?} (arms {t}/{e})"
        )
    });
}

/// True if any instruction of the target function loads from frame
/// slot `s` — the observation that makes a frame store live.
fn loads_stack_slot(f: &RtlFunction, s: u64) -> bool {
    f.code
        .values()
        .any(|i| matches!(i, RtlInstr::Load(AddrMode::Stack(x), ..) if *x == s))
}

/// Validates a Constprop run. The pass's two kinds of dataflow claims
/// are re-proven first — constant facts inductive
/// ([`ObligationKind::FactsInductive`]) and interval facts edge-closed
/// under the validator's independent abstract interpreter
/// ([`ObligationKind::ValueRange`] via
/// [`crate::absint::interval_facts_violation`]). Identical node pairs
/// are then executed symbolically with both environments seeded by the
/// verified facts; the three rewrite shapes the proven facts justify
/// beyond symbolic equality each discharge a dedicated `ValueRange`
/// obligation:
///
/// * a decided branch pruned to `Nop` — the validator's facts must
///   decide the same arm (`check_pruned_branch`);
/// * an operation folded to a constant the symbolic engine cannot
///   equate (the fold is range- rather than constant-derived) — the
///   validator's abstract evaluation must produce that singleton;
/// * a dead frame store dropped to `Nop` — sound only while no frame
///   address is ever taken (module-wide) and no load of the slot
///   remains, so the store is unobservable.
pub fn validate_constprop(src: &RtlModule, tgt: &RtlModule) -> SimWitness {
    let mut o = Obls::new();
    check_same_funcs(
        &mut o,
        src.funcs.keys().collect(),
        tgt.funcs.keys().collect(),
    );
    let frame_escapes = tgt.funcs.values().any(|f| {
        f.code
            .values()
            .any(|i| matches!(i, RtlInstr::Op(Op::AddrStack(_), ..)))
    });
    for (name, sf) in &src.funcs {
        let Some(tf) = tgt.funcs.get(name) else {
            continue;
        };
        o.check(
            ObligationKind::InterfacePreserved,
            name,
            None,
            sf.params == tf.params
                && sf.stack_slots == tf.stack_slots
                && sf.entry == tf.entry
                && sf.code.keys().eq(tf.code.keys()),
            || "function interface or node set changed".to_string(),
        );
        let facts = constant_facts(sf);
        let violation = facts_violation(sf, &facts);
        o.check(
            ObligationKind::FactsInductive,
            name,
            None,
            violation.is_none(),
            || violation.unwrap_or_default(),
        );
        let ifacts = interval_facts(sf);
        let iviolation = crate::absint::interval_facts_violation(sf, &ifacts);
        o.check(
            ObligationKind::ValueRange,
            name,
            None,
            iviolation.is_none(),
            || iviolation.unwrap_or_default(),
        );
        for (&n, si) in &sf.code {
            o.blocks += 1;
            let cenv = facts.get(&n);
            let ienv = ifacts.get(&n);
            // The verified interval of a register: a proven constant is
            // the sharpest claim; otherwise the proven range.
            let itv = |r: PReg| -> Option<Interval> {
                cenv.and_then(|e| e.get(&r).map(|&c| Interval::constant(c)))
                    .or_else(|| ienv.and_then(|e| e.get(&r).copied()))
            };
            // Symbolic seed: proven constants plus proven singletons.
            let seed = || -> BTreeMap<PReg, i64> {
                let mut s = cenv.cloned().unwrap_or_default();
                for (r, iv) in ienv.into_iter().flatten() {
                    if let Some(c) = iv.as_const() {
                        s.entry(*r).or_insert(c);
                    }
                }
                s
            };
            match (si, tf.code.get(&n)) {
                (_, Some(ti)) if si == ti => {
                    check_rtl_pair(&mut o, name, sf, tf, (n, n), &|s| Some(s), Some(&seed()));
                }
                (RtlInstr::Cond(c, r1, r2, t, e), Some(RtlInstr::Nop(x))) => {
                    check_pruned_branch(
                        &mut o,
                        name,
                        n,
                        *c,
                        itv(*r1),
                        itv(*r2),
                        (*t, *e),
                        *x,
                        ienv.is_none(),
                    );
                }
                (RtlInstr::CondImm(c, r, imm, t, e), Some(RtlInstr::Nop(x))) => {
                    check_pruned_branch(
                        &mut o,
                        name,
                        n,
                        *c,
                        itv(*r),
                        Some(Interval::constant(*imm)),
                        (*t, *e),
                        *x,
                        ienv.is_none(),
                    );
                }
                (RtlInstr::Store(AddrMode::Stack(s), _, succ), Some(RtlInstr::Nop(x))) => {
                    let ok = x == succ
                        && *s < tf.stack_slots
                        && !frame_escapes
                        && !loads_stack_slot(tf, *s);
                    o.check(ObligationKind::ValueRange, name, Some(n), ok, || {
                        format!(
                            "elimination of the store to frame slot {s} at node {n} \
                             is not justified (escaping frame or remaining load)"
                        )
                    });
                }
                (
                    RtlInstr::Op(op, args, dst, succ),
                    Some(RtlInstr::Op(Op::Const(c), ta, dst2, succ2)),
                ) if ta.is_empty() && !matches!(op, Op::Const(_)) => {
                    let iargs: Vec<Option<Interval>> = args.iter().map(|&r| itv(r)).collect();
                    let folded = crate::absint::ival_op(op, &iargs).and_then(|iv| iv.as_const());
                    let ok = dst == dst2 && succ == succ2 && (ienv.is_none() || folded == Some(*c));
                    o.check(ObligationKind::ValueRange, name, Some(n), ok, || {
                        format!(
                            "fold of {op:?} to constant {c} at node {n} is not justified: \
                             the verified facts evaluate it to {folded:?}"
                        )
                    });
                }
                _ => {
                    check_rtl_pair(&mut o, name, sf, tf, (n, n), &|s| Some(s), Some(&seed()));
                }
            }
        }
    }
    o.into_witness("Constprop")
}

/// Validates an Allocation run (RTL → LTL) against the allocator's own
/// assignment and liveness hints. The per-block invariant is: for every
/// register live into the block, its assigned location holds its value;
/// the block check re-establishes it for every register live out
/// ([`ObligationKind::PostState`]). Call-argument routing through fresh
/// spill slots shows up as a target-side move chain, executed to the
/// chain's exit before comparing ([`ObligationKind::Stutter`] territory:
/// many target steps to one source step).
pub fn validate_allocation(src: &RtlModule, tgt: &LtlModule) -> SimWitness {
    let mut o = Obls::new();
    check_same_funcs(
        &mut o,
        src.funcs.keys().collect(),
        tgt.funcs.keys().collect(),
    );
    for (name, sf) in &src.funcs {
        let Some(tf) = tgt.funcs.get(name) else {
            continue;
        };
        let assign = assignment(sf);
        let live = liveness(sf);
        o.check(
            ObligationKind::EntryMap,
            name,
            None,
            sf.entry == tf.entry,
            || format!("entry moved from {} to {}", sf.entry, tf.entry),
        );
        o.check(
            ObligationKind::InterfacePreserved,
            name,
            None,
            sf.stack_slots == tf.stack_slots,
            || "stack slot count changed".to_string(),
        );
        let params_distinct = tf.params.iter().collect::<BTreeSet<_>>().len() == tf.params.len();
        let params_ok = params_distinct
            && sf.params.len() == tf.params.len()
            && sf
                .params
                .iter()
                .zip(&tf.params)
                .all(|(p, l)| assign.get(p) == Some(l));
        o.check(ObligationKind::ParamMap, name, None, params_ok, || {
            format!(
                "parameter locations {:?} do not follow the assignment of {:?}",
                tf.params, sf.params
            )
        });
        for (&n, si) in &sf.code {
            o.blocks += 1;
            check_alloc_block(&mut o, name, sf, tf, &assign, &live, n, si);
        }
    }
    o.into_witness("Allocation")
}

#[allow(clippy::too_many_arguments)]
fn check_alloc_block(
    o: &mut Obls,
    name: &str,
    sf: &RtlFunction,
    tf: &ccc_compiler::ltl::Function,
    assign: &BTreeMap<PReg, Loc>,
    live: &BTreeMap<Node, BTreeSet<PReg>>,
    n: Node,
    si: &RtlInstr,
) {
    let lo: BTreeSet<PReg> = live.get(&n).cloned().unwrap_or_default();
    let mut li = lo.clone();
    if let Some(d) = si.def() {
        li.remove(&d);
    }
    for u in si.uses() {
        li.insert(u);
    }

    // Every register live around this block must have an assigned
    // location — the canonical naming below needs one.
    let missing = li.union(&lo).find(|r| !assign.contains_key(r));
    o.check(
        ObligationKind::LiveMapped,
        name,
        Some(n),
        missing.is_none(),
        || {
            format!(
                "live register r{} has no assigned location",
                missing.unwrap()
            )
        },
    );
    if missing.is_some() {
        return;
    }

    // Canonical naming: the block-entry value of a live-in register *is*
    // the block-entry content of its assigned location. This encodes
    // exactly the per-point simulation invariant (`src[r] =
    // tgt[assign[r]]` for every live-in `r`) — no more: registers that
    // share a location get the same symbol, which is justified because
    // the predecessors' PostState obligations prove both equalities
    // (and at entry, parameters live in pairwise-distinct slots while
    // never-defined registers hold the same default on both sides).
    // Real interference still rejects: a define of one sharer makes the
    // other's PostState comparison fail at this very block.
    let mut ss = ExecState::new(false);
    let mut ts = ExecState::new(false);
    for &r in &li {
        if let Some(&l) = assign.get(&r) {
            ss.set(SLoc::PReg(r), SymVal::Init(SLoc::Loc(l)));
        }
    }
    let so = exec_rtl(&mut ss, si);

    if !tf.code.contains_key(&n) {
        o.check(ObligationKind::ControlMatch, name, Some(n), false, || {
            format!("node {n} is missing in the target")
        });
        return;
    }
    // Walk the target's move/call chain: freshly numbered internal
    // nodes (absent from the source CFG) belong to this block.
    let mut cur = n;
    let mut out = None;
    for _ in 0..=tf.code.len() {
        let Some(ti) = tf.code.get(&cur) else {
            break;
        };
        match exec_ltl(&mut ts, ti) {
            BlockOut::Goto(m) if !sf.code.contains_key(&m) && tf.code.contains_key(&m) => cur = m,
            other => {
                out = Some(other);
                break;
            }
        }
    }
    let Some(to) = out else {
        o.check(ObligationKind::Stutter, name, Some(n), false, || {
            "target move/call chain does not terminate".to_string()
        });
        return;
    };

    o.check(
        ObligationKind::EffectsRefine,
        name,
        Some(n),
        ts.effects == ss.effects,
        || {
            format!(
                "target effects {:?} do not refine source effects {:?}",
                ts.effects, ss.effects
            )
        },
    );
    let (sfp, tfp) = (footprint(&ss.effects), footprint(&ts.effects));
    o.check(
        ObligationKind::FootprintCover,
        name,
        Some(n),
        covered(&tfp, &sfp),
        || format!("target footprint {tfp:?} not covered by source footprint {sfp:?}"),
    );
    let ctl = control_match(&so, &to, &|s| Some(s));
    o.check(
        ObligationKind::ControlMatch,
        name,
        Some(n),
        ctl.is_ok(),
        || ctl.err().unwrap_or_default(),
    );
    let mut post = Ok(());
    for &r in &lo {
        let Some(&l) = assign.get(&r) else {
            continue; // unreachable: injectivity already required it
        };
        let sv = ss.get(SLoc::PReg(r));
        let tv = ts.get(SLoc::Loc(l));
        if sv != tv {
            post = Err(format!(
                "live-out r{r}: source value {sv:?}, target at {l:?} holds {tv:?}"
            ));
            break;
        }
    }
    let post_ok = post.is_ok();
    o.check(ObligationKind::PostState, name, Some(n), post_ok, || {
        post.err().unwrap_or_default()
    });
}

/// Validates a Tunneling run against the pass's own branch-chase hint
/// ([`branch_target`]): `Nop` chain members collapse into their chase
/// target (a stutter — they have no effects), every other reachable
/// node must survive with its successors rewritten through the chase.
pub fn validate_tunneling(src: &LtlModule, tgt: &LtlModule) -> SimWitness {
    let mut o = Obls::new();
    check_same_funcs(
        &mut o,
        src.funcs.keys().collect(),
        tgt.funcs.keys().collect(),
    );
    for (name, sf) in &src.funcs {
        let Some(tf) = tgt.funcs.get(name) else {
            continue;
        };
        let chase = |n: Node| branch_target(sf, n);
        o.check(
            ObligationKind::EntryMap,
            name,
            None,
            chase(sf.entry) == tf.entry,
            || {
                format!(
                    "entry {} chases to {}, but the target entry is {}",
                    sf.entry,
                    chase(sf.entry),
                    tf.entry
                )
            },
        );
        o.check(
            ObligationKind::InterfacePreserved,
            name,
            None,
            sf.params == tf.params
                && sf.stack_slots == tf.stack_slots
                && sf.spill_slots == tf.spill_slots,
            || "function interface changed".to_string(),
        );
        let mut seen = BTreeSet::new();
        let mut stack = vec![sf.entry];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if let Some(i) = sf.code.get(&n) {
                stack.extend(i.succs());
            }
        }
        for &n in &seen {
            let Some(si) = sf.code.get(&n) else {
                continue;
            };
            o.blocks += 1;
            if let LtlInstr::Nop(_) = si {
                if chase(n) != n {
                    // A chain member: no effects, collapses into its
                    // chase target; predecessors' ControlMatch
                    // obligations route around it.
                    o.check(ObligationKind::Stutter, name, Some(n), true, String::new);
                    continue;
                }
            }
            let Some(ti) = tf.code.get(&n) else {
                o.check(ObligationKind::ControlMatch, name, Some(n), false, || {
                    format!("node {n} is missing in the target")
                });
                continue;
            };
            let mut ss = ExecState::new(false);
            let mut ts = ExecState::new(false);
            let so = exec_ltl(&mut ss, si);
            let to = exec_ltl(&mut ts, ti);
            finish_pair(&mut o, name, n, &ss, &ts, &so, &to, &|s| Some(chase(s)));
        }
    }
    o.into_witness("Tunneling")
}

/// Validates a Linearize run (LTL → Linear) against the pass's own
/// block layout hint ([`layout`]): the target must be exactly the
/// laid-out sequence of labelled segments, and each segment must refine
/// its source node — with the branch-negation-on-fallthrough emission
/// accepted through the four-variant branch equivalence.
pub fn validate_linearize(src: &LtlModule, tgt: &LinearModule) -> SimWitness {
    let mut o = Obls::new();
    check_same_funcs(
        &mut o,
        src.funcs.keys().collect(),
        tgt.funcs.keys().collect(),
    );
    for (name, sf) in &src.funcs {
        let Some(tf) = tgt.funcs.get(name) else {
            continue;
        };
        o.check(
            ObligationKind::InterfacePreserved,
            name,
            None,
            sf.params == tf.params
                && sf.stack_slots == tf.stack_slots
                && sf.spill_slots == tf.spill_slots,
            || "function interface changed".to_string(),
        );
        let order = layout(sf);
        let mut segs: Vec<(Node, Vec<LinInstr>)> = Vec::new();
        let mut pre_label = false;
        for i in &tf.code {
            if let LinInstr::Label(l) = i {
                segs.push((*l, Vec::new()));
            } else if let Some((_, body)) = segs.last_mut() {
                body.push(i.clone());
            } else {
                pre_label = true;
            }
        }
        let labels: Vec<Node> = segs.iter().map(|(l, _)| *l).collect();
        let layout_ok = !pre_label && labels == order;
        o.check(ObligationKind::EntryMap, name, None, layout_ok, || {
            format!("target block layout {labels:?} does not follow the source layout {order:?}")
        });
        if !layout_ok {
            continue;
        }
        for (idx, (n, body)) in segs.iter().enumerate() {
            o.blocks += 1;
            let Some(si) = sf.code.get(n) else {
                o.check(ObligationKind::ControlMatch, name, Some(*n), false, || {
                    format!("laid-out node {n} has no source instruction")
                });
                continue;
            };
            let fall = segs.get(idx + 1).map(|(l, _)| *l);
            let mut ss = ExecState::new(false);
            let mut ts = ExecState::new(false);
            let so = exec_ltl(&mut ss, si);
            match exec_linear_seg(&mut ts, body, fall) {
                Ok(to) => finish_pair(&mut o, name, *n, &ss, &ts, &so, &to, &|s| Some(s)),
                Err(e) => o.check(
                    ObligationKind::CodeEqual,
                    name,
                    Some(*n),
                    false,
                    move || format!("malformed block segment: {e}"),
                ),
            }
        }
    }
    o.into_witness("Linearize")
}

/// Validates a CleanupLabels run: the target must literally be the
/// source with the unreferenced label definitions removed, where the
/// referenced-label set is recomputed from the source's jumps
/// ([`referenced_labels`]) rather than trusted from the pass.
pub fn validate_cleanup(src: &LinearModule, tgt: &LinearModule) -> SimWitness {
    let mut o = Obls::new();
    check_same_funcs(
        &mut o,
        src.funcs.keys().collect(),
        tgt.funcs.keys().collect(),
    );
    for (name, sf) in &src.funcs {
        let Some(tf) = tgt.funcs.get(name) else {
            continue;
        };
        o.check(
            ObligationKind::InterfacePreserved,
            name,
            None,
            sf.params == tf.params
                && sf.stack_slots == tf.stack_slots
                && sf.spill_slots == tf.spill_slots,
            || "function interface changed".to_string(),
        );
        let used = referenced_labels(sf);
        o.blocks += used.len().max(1);
        let expected: Vec<LinInstr> = sf
            .code
            .iter()
            .filter(|i| match i {
                LinInstr::Label(l) => used.contains(l),
                _ => true,
            })
            .cloned()
            .collect();
        let ok = expected == tf.code;
        o.check(ObligationKind::CodeEqual, name, None, ok, || {
            let idx = expected
                .iter()
                .zip(&tf.code)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| expected.len().min(tf.code.len()));
            format!(
                "target code diverges from the label-filtered source at instruction {idx} \
                 (expected {} instructions, got {})",
                expected.len(),
                tf.code.len()
            )
        });
    }
    o.into_witness("CleanupLabels")
}
