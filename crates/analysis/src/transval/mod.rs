//! Symbolic translation validation for the compilation pipeline.
//!
//! Given the [`CompilationArtifacts`] of one pipeline run, the
//! validator checks each supported pass *statically*: matched basic
//! blocks of the source and target IR are executed symbolically
//! ([`sym`]), guided by the structural hint each pass already exposes
//! (Renumber's permutation, Allocation's assignment, Tunneling's
//! branch-chase, Linearize's layout, CleanupLabels' referenced-label
//! set), and per-block simulation obligations are discharged
//! ([`passes`]): the target's effect trace refines the source's, the
//! target's footprint is covered by the source's (the `fp_match`
//! condition of Defs. 10–11 of the paper, with the identity location
//! transformer), post-states agree, and block exits match.
//!
//! The result is a serializable [`SimWitness`] per pass — the matching
//! size, every obligation with its discharge status, and a
//! [`Verdict`]. Every pipeline stage is covered: the cross-IR front
//! end ([`frontend`]: Cshmgen/Cminorgen and Selection by lockstep
//! symbolic expression evaluation), the seven same-IR mid-end passes
//! ([`passes`]), RTLgen and the back end ([`backend`]: re-derivation
//! hints plus independent frame-cover and flag-discipline
//! obligations), and the object-level `IdTrans` ([`object`]: atomic
//! bracketing preserved bit-for-bit). Under
//! [`Validation::Static`] nothing falls back to the differential
//! co-execution check of `ccc_compiler::verif`; a pass would have to
//! report [`Verdict::Unsupported`] for that, and none does.
//!
//! Hints are untrusted: a wrong hint fails an obligation (false
//! rejection at worst), it can never make an unsound run validate.

pub mod backend;
pub mod frontend;
pub mod json;
pub mod object;
pub mod passes;
pub mod sym;

use crate::diag::Diagnostic;
use ccc_compiler::driver::CompilationArtifacts;
use ccc_compiler::verif::{verify_passes, verify_passes_filtered, PipelineVerdict};
use ccc_core::mem::GlobalEnv;
use std::collections::BTreeSet;
use std::fmt;

/// The outcome of validating one pass run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Every obligation discharged: the run refines its source.
    Validated,
    /// At least one obligation failed. Either a miscompilation or a
    /// matching the validator cannot justify — never silently ignored.
    Rejected,
    /// The pass is outside the validator's scope; use the differential
    /// fallback.
    Unsupported,
}

impl Verdict {
    /// Stable lowercase-free name, used in JSON and display output.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Validated => "Validated",
            Verdict::Rejected => "Rejected",
            Verdict::Unsupported => "Unsupported",
        }
    }

    /// Inverse of [`Verdict::name`], for deserialization.
    #[must_use]
    pub fn parse(s: &str) -> Option<Verdict> {
        [Verdict::Validated, Verdict::Rejected, Verdict::Unsupported]
            .into_iter()
            .find(|v| v.name() == s)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The kind of a per-block (or per-function) proof obligation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ObligationKind {
    /// The target block's effect trace equals the source block's.
    EffectsRefine,
    /// The target block's footprint is covered by the source block's
    /// (target reads from source reads ∪ writes, target writes from
    /// source writes) — Defs. 10–11 with `µ = id`.
    FootprintCover,
    /// The block exits agree through the matching (up to the four
    /// sound branch presentations).
    ControlMatch,
    /// The post-block environments agree (on the live registers, for
    /// Allocation).
    PostState,
    /// A target- or source-side-only step sequence with no observable
    /// effects (dropped `Nop` chains, call-argument move chains).
    Stutter,
    /// A `Call` followed by `Return` of the result was rewritten into a
    /// `Tailcall` of the same callee and arguments.
    TailcallPattern,
    /// The function entry nodes correspond under the matching.
    EntryMap,
    /// Parameter locations follow the register assignment.
    ParamMap,
    /// Every register live around a block has an assigned location, so
    /// its block-entry value can be named canonically by that location.
    LiveMapped,
    /// Constprop's dataflow facts are inductive (empty at entry,
    /// preserved by every edge's transfer).
    FactsInductive,
    /// The target code is literally the source code minus the removed
    /// instructions (CleanupLabels).
    CodeEqual,
    /// Module- and function-level interfaces are preserved (function
    /// sets, parameters, slot counts).
    InterfacePreserved,
    /// The symbolic value of a source expression tree equals the
    /// symbolic value of its translation (front-end passes).
    ExprSem,
    /// Frame accesses stay inside the declared frame region, and the
    /// frame-layout hint is an injective in-frame renaming — Def. 10's
    /// footprint condition for the thread-private stack block.
    FrameCover,
    /// `EntAtom`/`ExtAtom` bracketing survives the object-level
    /// transformation bit-for-bit (§5).
    AtomicShape,
    /// An interval-justified rewrite (Constprop's SCCP extension): the
    /// claimed per-node interval facts are edge-closed under the
    /// validator's own abstract interpreter (`crate::absint`), and each
    /// pruned branch / folded operator / eliminated dead frame store is
    /// decided by those re-checked ranges.
    ValueRange,
}

impl ObligationKind {
    /// Stable name, used in JSON and display output.
    pub fn name(self) -> &'static str {
        match self {
            ObligationKind::EffectsRefine => "EffectsRefine",
            ObligationKind::FootprintCover => "FootprintCover",
            ObligationKind::ControlMatch => "ControlMatch",
            ObligationKind::PostState => "PostState",
            ObligationKind::Stutter => "Stutter",
            ObligationKind::TailcallPattern => "TailcallPattern",
            ObligationKind::EntryMap => "EntryMap",
            ObligationKind::ParamMap => "ParamMap",
            ObligationKind::LiveMapped => "LiveMapped",
            ObligationKind::FactsInductive => "FactsInductive",
            ObligationKind::CodeEqual => "CodeEqual",
            ObligationKind::InterfacePreserved => "InterfacePreserved",
            ObligationKind::ExprSem => "ExprSem",
            ObligationKind::FrameCover => "FrameCover",
            ObligationKind::AtomicShape => "AtomicShape",
            ObligationKind::ValueRange => "ValueRange",
        }
    }

    /// Inverse of [`ObligationKind::name`], for deserialization.
    #[must_use]
    pub fn parse(s: &str) -> Option<ObligationKind> {
        ObligationKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Every obligation kind, in declaration order.
    pub const ALL: [ObligationKind; 16] = [
        ObligationKind::EffectsRefine,
        ObligationKind::FootprintCover,
        ObligationKind::ControlMatch,
        ObligationKind::PostState,
        ObligationKind::Stutter,
        ObligationKind::TailcallPattern,
        ObligationKind::EntryMap,
        ObligationKind::ParamMap,
        ObligationKind::LiveMapped,
        ObligationKind::FactsInductive,
        ObligationKind::CodeEqual,
        ObligationKind::InterfacePreserved,
        ObligationKind::ExprSem,
        ObligationKind::FrameCover,
        ObligationKind::AtomicShape,
        ObligationKind::ValueRange,
    ];
}

/// One proof obligation of a pass run's simulation argument.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Obligation {
    /// What had to hold.
    pub kind: ObligationKind,
    /// The function it concerns (empty for module-level obligations).
    pub function: String,
    /// The source CFG node (or label) it anchors to, when block-local.
    pub node: Option<u32>,
    /// Whether it was discharged.
    pub discharged: bool,
    /// Failure detail; empty when discharged.
    pub note: String,
}

/// The serializable witness of one pass run's validation: the matching
/// size, the full obligation list, and the verdict.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SimWitness {
    /// The pass name (matches `ccc_compiler::verif` pass names).
    pub pass: String,
    /// Matched source blocks (tail-call patterns and stutters count).
    pub matched_blocks: usize,
    /// Every obligation, in the order it was checked.
    pub obligations: Vec<Obligation>,
    /// The verdict: [`Verdict::Validated`] iff all obligations held.
    pub verdict: Verdict,
}

impl SimWitness {
    /// Builds a witness from an obligation list: `Validated` iff all
    /// obligations are discharged.
    pub(crate) fn conclude(
        pass: &'static str,
        matched_blocks: usize,
        obligations: Vec<Obligation>,
    ) -> Self {
        let verdict = if obligations.iter().all(|o| o.discharged) {
            Verdict::Validated
        } else {
            Verdict::Rejected
        };
        SimWitness {
            pass: pass.to_string(),
            matched_blocks,
            obligations,
            verdict,
        }
    }

    /// A witness for a pass the validator does not cover.
    pub fn unsupported(pass: &str) -> Self {
        SimWitness {
            pass: pass.to_string(),
            matched_blocks: 0,
            obligations: Vec::new(),
            verdict: Verdict::Unsupported,
        }
    }

    /// The number of discharged obligations.
    pub fn discharged(&self) -> usize {
        self.obligations.iter().filter(|o| o.discharged).count()
    }

    /// The obligations that failed.
    pub fn failures(&self) -> impl Iterator<Item = &Obligation> {
        self.obligations.iter().filter(|o| !o.discharged)
    }

    /// Renders the failed obligations as structured [`Diagnostic`]s,
    /// pass-tagged for the fuzz oracle and `ir_dump --validate`.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.failures()
            .map(|o| {
                let d = Diagnostic::new(
                    self.pass.clone(),
                    o.function.clone(),
                    format!("{} obligation failed: {}", o.kind.name(), o.note),
                );
                match o.node {
                    Some(n) => d.at(n),
                    None => d,
                }
            })
            .collect()
    }
}

impl fmt::Display for SimWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.verdict {
            Verdict::Unsupported => {
                write!(f, "pass {}: Unsupported (differential fallback)", self.pass)
            }
            v => write!(
                f,
                "pass {}: {} — {} blocks, {}/{} obligations",
                self.pass,
                v,
                self.matched_blocks,
                self.discharged(),
                self.obligations.len()
            ),
        }
    }
}

/// The witnesses for every pipeline pass of one compilation, in
/// pipeline order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PipelineWitness {
    /// One witness per pass.
    pub witnesses: Vec<SimWitness>,
}

impl PipelineWitness {
    /// True if no pass was rejected (unsupported passes are not
    /// rejections — they are delegated to the differential fallback).
    pub fn ok(&self) -> bool {
        self.witnesses
            .iter()
            .all(|w| w.verdict != Verdict::Rejected)
    }

    /// The rejected witnesses, in pipeline order.
    pub fn rejected(&self) -> impl Iterator<Item = &SimWitness> {
        self.witnesses
            .iter()
            .filter(|w| w.verdict == Verdict::Rejected)
    }

    /// The witness for a pass, by `ccc_compiler::verif` pass name.
    pub fn get(&self, pass: &str) -> Option<&SimWitness> {
        self.witnesses.iter().find(|w| w.pass == pass)
    }

    /// The names of the passes the validator does not cover.
    pub fn unsupported_passes(&self) -> BTreeSet<String> {
        self.witnesses
            .iter()
            .filter(|w| w.verdict == Verdict::Unsupported)
            .map(|w| w.pass.clone())
            .collect()
    }

    /// All failed obligations as structured diagnostics.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.witnesses
            .iter()
            .flat_map(SimWitness::diagnostics)
            .collect()
    }

    /// Hand-rolled JSON rendering (the repository vendors no serde):
    /// per-pass verdicts, obligation counts, and failure details.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"passes\":[");
        for (i, w) in self.witnesses.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"pass\":\"{}\",\"verdict\":\"{}\",\"matched_blocks\":{},\
                 \"obligations\":{},\"discharged\":{},\"failures\":[",
                json_escape(&w.pass),
                w.verdict.name(),
                w.matched_blocks,
                w.obligations.len(),
                w.discharged()
            ));
            for (j, o) in w.failures().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"kind\":\"{}\",\"function\":\"{}\",\"node\":{},\"note\":\"{}\"}}",
                    o.kind.name(),
                    json_escape(&o.function),
                    o.node.map_or("null".to_string(), |n| n.to_string()),
                    json_escape(&o.note)
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for PipelineWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for w in &self.witnesses {
            writeln!(f, "{w}")?;
        }
        Ok(())
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Statically validates every pass of one compilation, producing a
/// witness per pipeline pass — from Cshmgen/Cminorgen down to Asmgen,
/// nothing is left to a differential fallback. When the artifacts
/// carry the Constprop extension stage it is validated too, and
/// Allocation is checked against the constant-propagated RTL — the
/// same sourcing `verify_passes` uses.
pub fn validate_artifacts(arts: &CompilationArtifacts) -> PipelineWitness {
    let mut ws = vec![
        frontend::validate_cminorgen(&arts.clight, &arts.cminor),
        frontend::validate_selection(&arts.cminor, &arts.cminorsel),
        backend::validate_rtlgen(&arts.cminorsel, &arts.rtl),
    ];
    ws.push(passes::validate_tailcall(&arts.rtl, &arts.rtl_tailcall));
    ws.push(passes::validate_renumber(
        &arts.rtl_tailcall,
        &arts.rtl_renumber,
    ));
    let alloc_src = match &arts.rtl_constprop {
        Some(cp) => {
            ws.push(passes::validate_constprop(&arts.rtl_renumber, cp));
            cp
        }
        None => &arts.rtl_renumber,
    };
    ws.push(passes::validate_allocation(alloc_src, &arts.ltl));
    ws.push(passes::validate_tunneling(&arts.ltl, &arts.ltl_tunneled));
    ws.push(passes::validate_linearize(&arts.ltl_tunneled, &arts.linear));
    ws.push(passes::validate_cleanup(&arts.linear, &arts.linear_clean));
    ws.push(backend::validate_stacking(&arts.linear_clean, &arts.mach));
    ws.push(backend::validate_asmgen(&arts.mach, &arts.asm));
    PipelineWitness { witnesses: ws }
}

/// How to validate one compilation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Validation {
    /// Symbolic validation for the supported passes; differential
    /// co-execution only for the unsupported remainder.
    Static,
    /// Differential co-execution for every pass (the pre-existing
    /// check).
    Differential,
    /// Both, plus a disagreement report — the fuzz oracle's mode, so
    /// any divergence between the two checkers is itself a finding.
    Both,
}

impl Validation {
    /// Parses a `--validate=` argument: `static`, `diff`
    /// (or `differential`), `both`.
    pub fn parse(s: &str) -> Option<Validation> {
        match s {
            "static" => Some(Validation::Static),
            "diff" | "differential" => Some(Validation::Differential),
            "both" => Some(Validation::Both),
            _ => None,
        }
    }
}

/// The combined result of [`validate_with_mode`].
#[derive(Debug)]
pub struct ValidationReport {
    /// The mode that produced this report.
    pub mode: Validation,
    /// Static witnesses (absent in [`Validation::Differential`] mode).
    pub witness: Option<PipelineWitness>,
    /// Differential verdicts (in [`Validation::Static`] mode, only the
    /// passes the static validator reported `Unsupported`).
    pub differential: Option<PipelineVerdict>,
    /// Passes where the two checkers disagree (only populated in
    /// [`Validation::Both`] mode). Any entry is a bug in one of the
    /// checkers — or a miscompilation exactly one of them can see.
    pub disagreements: Vec<String>,
}

impl ValidationReport {
    /// True if nothing was rejected by any checker that ran and the
    /// checkers agree.
    pub fn ok(&self) -> bool {
        self.witness.as_ref().is_none_or(PipelineWitness::ok)
            && self.differential.as_ref().is_none_or(PipelineVerdict::ok)
            && self.disagreements.is_empty()
    }
}

/// Validates one compilation in the requested mode. `ge` and `entry`
/// parameterize the differential co-execution (they are ignored by the
/// purely static witnesses).
pub fn validate_with_mode(
    arts: &CompilationArtifacts,
    ge: &GlobalEnv,
    entry: &str,
    mode: Validation,
) -> ValidationReport {
    match mode {
        Validation::Static => {
            let witness = validate_artifacts(arts);
            // Differential fallback only for passes the static
            // validator declares itself unable to judge. With full
            // pipeline coverage the set is empty and *nothing* runs
            // differentially — `differential: None` makes any silent
            // fallback visible to callers (and to CI, which fails on
            // it).
            let unsupported = witness.unsupported_passes();
            let differential = if unsupported.is_empty() {
                None
            } else {
                Some(verify_passes_filtered(arts, ge, entry, &|p| {
                    unsupported.contains(p)
                }))
            };
            ValidationReport {
                mode,
                witness: Some(witness),
                differential,
                disagreements: Vec::new(),
            }
        }
        Validation::Differential => ValidationReport {
            mode,
            witness: None,
            differential: Some(verify_passes(arts, ge, entry)),
            disagreements: Vec::new(),
        },
        Validation::Both => {
            let witness = validate_artifacts(arts);
            let differential = verify_passes(arts, ge, entry);
            let mut disagreements = Vec::new();
            for w in &witness.witnesses {
                if w.verdict == Verdict::Unsupported {
                    continue;
                }
                let Some(v) = differential.iter().find(|v| v.pass == w.pass) else {
                    continue;
                };
                match (w.verdict, v.ok()) {
                    (Verdict::Validated, false) => disagreements.push(format!(
                        "pass {}: static validator accepted, differential check failed: {}",
                        w.pass,
                        v.result
                            .as_ref()
                            .err()
                            .map_or_else(String::new, ToString::to_string)
                    )),
                    (Verdict::Rejected, true) => disagreements.push(format!(
                        "pass {}: static validator rejected ({} undischarged obligations), \
                         differential check passed",
                        w.pass,
                        w.failures().count()
                    )),
                    _ => {}
                }
            }
            ValidationReport {
                mode,
                witness: Some(witness),
                differential: Some(differential),
                disagreements,
            }
        }
    }
}
