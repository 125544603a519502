//! Static footprint inference for RTL.
//!
//! A forward worklist dataflow analysis per function: each pseudo
//! register is tracked with an [`AbsVal`] (integer / pointer-into-region
//! / unknown) abstract value, joined at control-flow merges; every node
//! then gets an [`AbsFootprint`] describing the memory its instruction
//! may touch, computed from its addressing mode and the state reaching
//! it. Function summaries union all node footprints plus the frame
//! allocation, and an interprocedural fixpoint resolves in-module calls.
//!
//! The per-node results are also what `examples/ir_dump.rs` prints next
//! to the RTL code, and the function summaries are cross-validated in
//! `tests/` against the instrumented dynamic footprints of the same
//! programs (static ⊇ dynamic, on every corpus seed).

use crate::region::{AbsFootprint, AbsVal, Region};
use ccc_compiler::ops::{AddrMode, Op};
use ccc_compiler::rtl::{Function, Instr, Node, PReg, RtlModule};
use std::collections::{BTreeMap, VecDeque};

/// The inference result for one RTL function.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RtlFnFootprints {
    /// Per-node footprint of the instruction at that node.
    pub per_node: BTreeMap<Node, AbsFootprint>,
    /// Whole-function summary: union of all nodes, callee summaries, and
    /// the frame allocation.
    pub summary: AbsFootprint,
}

/// Per-function abstract footprints of one RTL module.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RtlSummaries {
    /// Function name → inference result.
    pub funcs: BTreeMap<String, RtlFnFootprints>,
}

impl RtlSummaries {
    /// The summary footprint of `name`, if defined.
    pub fn footprint(&self, name: &str) -> Option<&AbsFootprint> {
        self.funcs.get(name).map(|f| &f.summary)
    }
}

/// Infers per-function footprints, treating out-of-module calls as ⊤.
pub fn infer_rtl(m: &RtlModule) -> RtlSummaries {
    infer_rtl_with(m, &BTreeMap::new())
}

/// Infers per-function footprints with summaries for external functions.
pub fn infer_rtl_with(m: &RtlModule, externals: &BTreeMap<String, AbsFootprint>) -> RtlSummaries {
    let states: BTreeMap<&String, BTreeMap<Node, RegState>> = m
        .funcs
        .iter()
        .map(|(name, f)| (name, reg_states(f)))
        .collect();
    let mut summaries: BTreeMap<String, AbsFootprint> = m
        .funcs
        .keys()
        .map(|n| (n.clone(), AbsFootprint::emp()))
        .collect();
    let mut result: BTreeMap<String, RtlFnFootprints> = BTreeMap::new();
    loop {
        let mut changed = false;
        for (name, f) in &m.funcs {
            let r = fn_footprints(f, &states[name], &summaries, externals);
            if summaries[name] != r.summary {
                summaries.insert(name.clone(), r.summary.clone());
                changed = true;
            }
            result.insert(name.clone(), r);
        }
        if !changed {
            return RtlSummaries { funcs: result };
        }
    }
}

type RegState = BTreeMap<PReg, AbsVal>;

fn get(state: &RegState, r: PReg) -> AbsVal {
    state.get(&r).cloned().unwrap_or(AbsVal::Bot)
}

fn join_into(dst: &mut RegState, src: &RegState) -> bool {
    let mut changed = false;
    for (&r, v) in src {
        let cur = get(dst, r);
        let j = cur.join(v);
        if j != cur {
            dst.insert(r, j);
            changed = true;
        }
    }
    changed
}

/// Abstract transfer of one instruction's register effect.
fn transfer(state: &RegState, instr: &Instr) -> RegState {
    let mut out = state.clone();
    let def = match instr {
        Instr::Op(op, args, dst, _) => {
            let v = match op {
                Op::Const(_) => AbsVal::Int,
                Op::AddrGlobal(g, o) => {
                    // A nonzero offset may already point past the block.
                    if *o == 0 {
                        AbsVal::Ptr(Region::Global(g.clone()))
                    } else {
                        AbsVal::Ptr(Region::AnyGlobal)
                    }
                }
                Op::AddrStack(_) => AbsVal::Ptr(Region::StackLocal),
                // Guard the argument accesses: an arity violation is
                // translation validation's to reject, not ours to
                // panic on.
                Op::Move => args.first().map_or(AbsVal::Bot, |&a| get(state, a)),
                Op::AddImm(_) => args.first().map_or(AbsVal::Bot, |&a| get(state, a).arith()),
                Op::Add | Op::Sub => args
                    .iter()
                    .map(|&a| get(state, a).arith())
                    .fold(AbsVal::Bot, |acc, v| acc.join(&v)),
                // Every other operator produces an integer (or aborts).
                _ => AbsVal::Int,
            };
            Some((*dst, v))
        }
        // Loaded values and call results are unknown.
        Instr::Load(_, dst, _) => Some((*dst, AbsVal::Ptr(Region::Top))),
        Instr::Call(dst, ..) => dst.map(|d| (d, AbsVal::Ptr(Region::Top))),
        _ => None,
    };
    if let Some((d, v)) = def {
        out.insert(d, v);
    }
    out
}

/// The region an addressing mode may resolve into, given the state.
fn am_region(am: &AddrMode<PReg>, state: &RegState) -> Option<Region> {
    match am {
        AddrMode::Global(g, o) => Some(if *o == 0 {
            Region::Global(g.clone())
        } else {
            Region::AnyGlobal
        }),
        AddrMode::Stack(_) => Some(Region::StackLocal),
        // A based access is a dereference plus displacement: widen the
        // base's region as arithmetic does.
        AddrMode::Based(r, d) => {
            let base = if *d == 0 {
                get(state, *r)
            } else {
                get(state, *r).arith()
            };
            base.ptr_region()
        }
    }
}

/// Forward dataflow: the abstract register state reaching each node.
fn reg_states(f: &Function) -> BTreeMap<Node, RegState> {
    let mut states: BTreeMap<Node, RegState> = BTreeMap::new();
    let entry: RegState = f
        .params
        .iter()
        .map(|&p| (p, AbsVal::Ptr(Region::Top)))
        .collect();
    states.insert(f.entry, entry);
    let mut work: VecDeque<Node> = VecDeque::from([f.entry]);
    while let Some(n) = work.pop_front() {
        let Some(instr) = f.code.get(&n) else {
            continue; // dangling node: translation validation rejects it
        };
        let out = transfer(&states[&n], instr);
        for s in instr.succs() {
            let changed = match states.get_mut(&s) {
                Some(st) => join_into(st, &out),
                None => {
                    states.insert(s, out.clone());
                    true
                }
            };
            if changed {
                work.push_back(s);
            }
        }
    }
    states
}

fn fn_footprints(
    f: &Function,
    states: &BTreeMap<Node, RegState>,
    summaries: &BTreeMap<String, AbsFootprint>,
    externals: &BTreeMap<String, AbsFootprint>,
) -> RtlFnFootprints {
    let mut per_node = BTreeMap::new();
    let mut summary = AbsFootprint::emp();
    if f.stack_slots > 0 {
        // Frame allocation writes the fresh thread-private slots.
        summary.extend(&AbsFootprint::write(Region::StackLocal));
    }
    for (&n, instr) in &f.code {
        let Some(state) = states.get(&n) else {
            // Unreachable node: contributes nothing to any execution.
            per_node.insert(n, AbsFootprint::emp());
            continue;
        };
        let mut fp = AbsFootprint::emp();
        match instr {
            Instr::Load(am, ..) => {
                if let Some(r) = am_region(am, state) {
                    fp.extend(&AbsFootprint::read(r));
                }
            }
            Instr::Store(am, ..) => {
                if let Some(r) = am_region(am, state) {
                    fp.extend(&AbsFootprint::write(r));
                }
            }
            Instr::Call(_, callee, ..) | Instr::Tailcall(callee, _) => {
                if let Some(s) = summaries.get(callee) {
                    fp.extend(s);
                } else if let Some(s) = externals.get(callee) {
                    fp.extend(s);
                } else {
                    fp.extend(&AbsFootprint::top());
                }
            }
            _ => {}
        }
        summary.extend(&fp);
        per_node.insert(n, fp);
    }
    RtlFnFootprints { per_node, summary }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_clight::gen::{gen_module, GenCfg};
    use ccc_compiler::driver::compile_with_artifacts;

    #[test]
    fn generated_programs_touch_only_their_globals_and_stack() {
        for seed in 0..10 {
            let (m, _) = gen_module(seed, &GenCfg::default());
            let arts = compile_with_artifacts(&m).expect("compiles");
            let s = infer_rtl(&arts.rtl);
            let fp = s.footprint("f").expect("f analyzed");
            // Generated functions call nothing external, so no region
            // should have widened to ⊤.
            assert!(
                !fp.regions().contains(&Region::Top),
                "seed {seed}: unexpected ⊤ in {fp}"
            );
        }
    }

    #[test]
    fn per_node_footprints_cover_loads_and_stores() {
        let (m, _) = gen_module(3, &GenCfg::default());
        let arts = compile_with_artifacts(&m).expect("compiles");
        let s = infer_rtl(&arts.rtl);
        let f = &s.funcs["f"];
        let code = &arts.rtl.funcs["f"].code;
        for (n, instr) in code {
            let fp = &f.per_node[n];
            match instr {
                Instr::Load(..) => assert!(!fp.reads.is_empty(), "load at {n} has no read region"),
                Instr::Store(..) => {
                    assert!(!fp.writes.is_empty(), "store at {n} has no write region")
                }
                _ => {}
            }
        }
    }
}
