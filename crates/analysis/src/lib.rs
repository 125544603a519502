//! `ccc-analysis` — static analyses over the CASCompCert reproduction.
//!
//! Three cooperating passes, all validated against the instrumented
//! dynamic semantics in `ccc-core`:
//!
//! * **Footprint inference** ([`clight_fp`], [`rtl_fp`]): per-function
//!   abstract read/write sets over symbolic [`region::Region`]s, at the
//!   source (Clight) and register-transfer (RTL) levels. Soundness
//!   contract: the concrete footprint of every instrumented execution is
//!   [`region::AbsFootprint::covers`]-contained in the inferred one
//!   (cross-validated in `tests/` on the generated corpus).
//!
//! * **Lockset race analysis** ([`lockset`]): an Eraser-style must-hold
//!   lockset analysis of Clight clients against a lock protocol inferred
//!   from a CImp object module, yielding `StaticDrf` / `MayRace`
//!   verdicts that are cross-checked both directions against the
//!   exhaustive interleaving exploration of `ccc_core::race::check_drf`.
//!
//! * **Abstract interpretation** ([`absint`]): a flow-sensitive
//!   interval analysis over RTL with branch refinement, infeasible-edge
//!   pruning and widening — plus a region-based escape analysis
//!   classifying every global of a concurrent client as thread-local,
//!   lock-protected, atomic-only or shared-free. The interval engine is
//!   the validator's independent re-checker for the optimizer's
//!   `ValueRange` claims; the escape results power the ample-set
//!   reduction of `ccc_core::explore` and sharpen the lockset analysis.
//!
//! * **Symbolic translation validation** ([`transval`]): per-pass
//!   certificate checking of one compilation's artifacts — matched
//!   basic blocks are executed symbolically and per-block simulation
//!   obligations (effect-trace refinement, footprint cover per
//!   Defs. 10–11, post-state agreement, control match) are discharged,
//!   guided by untrusted structural hints the passes expose. Every
//!   pipeline stage is covered statically — the cross-IR front end and
//!   back end by lockstep symbolic evaluation and re-derivation
//!   hints, the object-level `IdTrans` by atomic-shape preservation.
//!   A pass's verdict is its obligations: it validates exactly when
//!   every one is discharged, and stored witnesses carry nothing else.
//!
//! * **Rely-guarantee certification** ([`rg_cert`]): a static
//!   per-module interference certificate — guarantee as action
//!   summaries (region × access kind × lock/atomic context), rely as
//!   its complement — inferred by an untrusted solver, re-admitted only
//!   by an independent trusted checker, serialized through the
//!   dependency-free JSON machinery into the witness cache, and
//!   composed at link time by the `RgCompatible` obligation of
//!   [`sepcomp`] with no whole-program exploration.
//!
//! * **TSO robustness** ([`asm_cfg`], [`tso_robust`]): a Shasha–Snir
//!   critical-cycle analysis over per-thread assembly CFGs deciding
//!   whether a program's x86-TSO behaviours are SC-equal
//!   (`Robust` / `MayViolateSC` with witnesses), plus minimal fence
//!   insertion and fence redundancy elimination — all differentially
//!   validated against the executable `X86Sc`/`X86Tso` machines.

pub mod absint;
pub mod asm_cfg;
pub mod clight_fp;
pub mod diag;
#[cfg(test)]
#[path = "malformed_ir_tests.rs"]
mod lint;
pub mod lockset;
pub mod region;
pub mod rg_cert;
pub mod rtl_fp;
pub mod sepcomp;
pub mod transval;
pub mod tso_robust;

pub use absint::{
    ample_hints, analyze_rtl_intervals, classify_accesses, escape_analysis,
    interval_facts_violation, EscapeReport, IntervalEnv, IntervalFacts, Sharing,
};
pub use clight_fp::{infer_clight, infer_clight_with, ClightSummaries};
pub use diag::Diagnostic;
pub use lockset::{
    check_static_race, check_static_race_sharp, infer_lock_model, Access, LockModel, ObjectSummary,
    RacePair, SharpRaceReport, StaticRaceReport, StaticVerdict,
};
pub use region::{AbsFootprint, AbsVal, Region};
pub use rg_cert::{
    derive_rely, infer_rg_cert, rg_cert_cached, rg_cert_from_json, rg_cert_to_json,
    rg_cert_violation, rg_incompatibilities, ActionSummary, CertOutcome, RelyClause, RgCert,
};
pub use rtl_fp::{infer_rtl, infer_rtl_with, RtlFnFootprints, RtlSummaries};
pub use sepcomp::{
    build_program, build_program_certified, build_workers, check_link_obligations,
    check_link_obligations_with_certs, check_rg_compatible, expected_passes, recheck_pipeline,
    recheck_shape, LinkObligation, LinkObligationKind, LinkReport, SepUnit, SepcompCertResult,
    SepcompResult, TransvalCertifier,
};
pub use transval::object::validate_id_trans;
pub use transval::{validate_artifacts, PipelineWitness, SimWitness};
pub use tso_robust::{
    analyze, compile_with_robustness, eliminate_redundant_fences, insert_fences, AccessRef,
    CheckedError, CriticalCycle, FenceElimination, FenceInsertion, FencePoint, ReorderablePair,
    RobustReport, Verdict,
};
