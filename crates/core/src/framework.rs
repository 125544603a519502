//! The proof framework of Fig. 2 (and its soundness content) as an
//! executable validation harness.
//!
//! Fig. 2 derives whole-program semantics preservation for preemptive
//! concurrency from module-local simulations through eight steps:
//!
//! 1. `S1 ∥ … ∥ Sn ≈ S1 | … | Sn` for DRF sources (preemptive ≈
//!    non-preemptive, Lem. 9);
//! 2. the same equivalence at the target;
//! 3. soundness: the non-preemptive simulation implies refinement
//!    (Lem. 7);
//! 4. the Flip lemma (with deterministic targets);
//! 5. compositionality (Lem. 6);
//! 6. `DRF ⟺ NPDRF` at the source;
//! 7. NPDRF preservation by the simulation (Lem. 8);
//! 8. `NPDRF ⟺ DRF` at the target.
//!
//! [`validate_fig2`] executes the *observable content* of every step on
//! a concrete source/target program pair: the trace-set equivalences and
//! refinements (steps 1–5) and the race-freedom transfers (steps 6–8).
//! Each boolean in [`Fig2Report`] corresponds to one arrow of the
//! figure; [`Fig2Report::all_hold`] is the end-to-end conclusion
//! `S1∥…∥Sn ≈ C1∥…∥Cn`.

use crate::lang::Lang;
use crate::race::{check_drf, check_npdrf};
use crate::refine::{
    collect_traces, trace_equiv, trace_refines, ExploreCfg, NonPreemptive, Preemptive,
};
use crate::world::{LoadError, Loaded};

/// The outcome of validating the Fig. 2 framework on one program pair.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fig2Report {
    /// `DRF(S1 ∥ … ∥ Sn)` — the framework's input condition.
    pub drf_src: bool,
    /// `NPDRF(S1 | … | Sn)` (step ⑥: must equal `drf_src`).
    pub npdrf_src: bool,
    /// `NPDRF(C1 | … | Cn)` (step ⑦: preservation, must hold when
    /// `npdrf_src` does and the compilation simulates).
    pub npdrf_tgt: bool,
    /// `DRF(C1 ∥ … ∥ Cn)` (step ⑧: must equal `npdrf_tgt`).
    pub drf_tgt: bool,
    /// Step ①: preemptive ≈ non-preemptive at the source.
    pub src_np_equiv: bool,
    /// Step ②: preemptive ≈ non-preemptive at the target.
    pub tgt_np_equiv: bool,
    /// Steps ③–⑤ (observable content): non-preemptive target refines
    /// non-preemptive source.
    pub np_refines: bool,
    /// Step ④ (flip, with `det` targets): the reverse non-preemptive
    /// refinement, giving `≈`.
    pub np_equiv: bool,
    /// The conclusion: preemptive `S1∥…∥Sn ≈ C1∥…∥Cn`.
    pub preemptive_equiv: bool,
    /// True if any exploration was truncated (verdicts hold only up to
    /// the bounds).
    pub truncated: bool,
}

impl Fig2Report {
    /// True if every arrow of Fig. 2 validated.
    pub fn all_hold(&self) -> bool {
        self.drf_src
            && self.npdrf_src
            && self.npdrf_tgt
            && self.drf_tgt
            && self.src_np_equiv
            && self.tgt_np_equiv
            && self.np_refines
            && self.np_equiv
            && self.preemptive_equiv
    }

    /// The names of the arrows that failed, for diagnostics.
    pub fn failures(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        let checks: [(&str, bool); 9] = [
            ("DRF(source)", self.drf_src),
            ("NPDRF(source) [step 6]", self.npdrf_src),
            ("NPDRF(target) [step 7]", self.npdrf_tgt),
            ("DRF(target) [step 8]", self.drf_tgt),
            ("source np-equivalence [step 1]", self.src_np_equiv),
            ("target np-equivalence [step 2]", self.tgt_np_equiv),
            ("np refinement [steps 3,5]", self.np_refines),
            ("np equivalence (flip) [step 4]", self.np_equiv),
            ("preemptive equivalence [conclusion]", self.preemptive_equiv),
        ];
        for (name, ok) in checks {
            if !ok {
                out.push(name);
            }
        }
        out
    }
}

/// Validates every step of Fig. 2 on a compiled program pair.
///
/// The source and the target must have the same thread entries. The
/// verdicts are exact for programs whose bounded exploration completes
/// (check [`Fig2Report::truncated`]).
///
/// # Errors
///
/// Propagates `Load` failures from either program.
pub fn validate_fig2<S, T>(
    src: &Loaded<S>,
    tgt: &Loaded<T>,
    cfg: &ExploreCfg,
) -> Result<Fig2Report, LoadError>
where
    S: Lang,
    T: Lang,
{
    let drf_s = check_drf(src, cfg)?;
    let npdrf_s = check_npdrf(src, cfg)?;
    let drf_t = check_drf(tgt, cfg)?;
    let npdrf_t = check_npdrf(tgt, cfg)?;

    let p_src = collect_traces(&Preemptive(src), cfg)?;
    let np_src = collect_traces(&NonPreemptive(src), cfg)?;
    let p_tgt = collect_traces(&Preemptive(tgt), cfg)?;
    let np_tgt = collect_traces(&NonPreemptive(tgt), cfg)?;

    Ok(Fig2Report {
        drf_src: drf_s.is_drf(),
        npdrf_src: npdrf_s.is_drf(),
        npdrf_tgt: npdrf_t.is_drf(),
        drf_tgt: drf_t.is_drf(),
        src_np_equiv: trace_equiv(&p_src, &np_src),
        tgt_np_equiv: trace_equiv(&p_tgt, &np_tgt),
        np_refines: trace_refines(&np_tgt, &np_src),
        np_equiv: trace_equiv(&np_tgt, &np_src),
        preemptive_equiv: trace_equiv(&p_tgt, &p_src),
        truncated: drf_s.truncated
            || npdrf_s.truncated
            || drf_t.truncated
            || npdrf_t.truncated
            || p_src.truncated
            || np_src.truncated
            || p_tgt.truncated
            || np_tgt.truncated,
    })
}

/// Validates only the refinement conclusion `tgt ⊑ src` (preemptive), the
/// statement of `GCorrect` (Def. 11).
///
/// # Errors
///
/// Propagates `Load` failures from either program.
pub fn validate_refinement<S: Lang, T: Lang>(
    src: &Loaded<S>,
    tgt: &Loaded<T>,
    cfg: &ExploreCfg,
) -> Result<bool, LoadError> {
    let p_src = collect_traces(&Preemptive(src), cfg)?;
    let p_tgt = collect_traces(&Preemptive(tgt), cfg)?;
    Ok(trace_refines(&p_tgt, &p_src))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::Prog;
    use crate::toy::{toy_globals, toy_module, ToyInstr, ToyLang};

    fn counter_prog(extra_print: bool) -> Loaded<ToyLang> {
        let mut body = vec![
            ToyInstr::EntAtom,
            ToyInstr::LoadG("x".into()),
            ToyInstr::Add(1),
            ToyInstr::StoreG("x".into()),
            ToyInstr::Print,
            ToyInstr::ExtAtom,
            ToyInstr::Ret(0),
        ];
        if extra_print {
            body.insert(5, ToyInstr::Print);
        }
        let (m, _) = toy_module(&[("a", body.clone()), ("b", body)], &[]);
        Loaded::new(Prog::new(
            ToyLang,
            vec![(m, toy_globals(&[("x", 0)]))],
            ["a", "b"],
        ))
        .expect("link")
    }

    #[test]
    fn identity_compilation_validates_fig2() {
        let src = counter_prog(false);
        let tgt = counter_prog(false);
        let report = validate_fig2(&src, &tgt, &ExploreCfg::default()).expect("validate");
        assert!(report.all_hold(), "failures: {:?}", report.failures());
        assert!(!report.truncated);
    }

    #[test]
    fn behaviour_change_is_detected() {
        let src = counter_prog(false);
        let tgt = counter_prog(true); // target prints twice per thread
        let report = validate_fig2(&src, &tgt, &ExploreCfg::default()).expect("validate");
        assert!(!report.np_refines);
        assert!(!report.preemptive_equiv);
        assert!(!report.all_hold());
    }
}
