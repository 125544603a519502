//! Symbolic translation validation for the compilation pipeline.
//!
//! Given the [`CompilationArtifacts`] of one pipeline run, the
//! validator checks each pass *statically*: matched basic blocks of the
//! source and target IR are executed symbolically ([`sym`]), guided by
//! the structural hint each pass already exposes (Renumber's
//! permutation, Allocation's assignment, Tunneling's branch-chase,
//! Linearize's layout, CleanupLabels' referenced-label set), and
//! per-block simulation obligations are discharged ([`passes`]): the
//! target's effect trace refines the source's, the target's footprint
//! is covered by the source's (the `fp_match` condition of Defs. 10–11
//! of the paper, with the identity location transformer), post-states
//! agree, and block exits match.
//!
//! The result is a serializable [`SimWitness`] per pass: the matching
//! size and every obligation with its discharge status. A witness
//! carries no separate verdict — [`SimWitness::validated`] holds
//! exactly when every obligation is discharged, the per-pass
//! correctness fact of Lem. 13. Every pipeline stage is covered: the
//! cross-IR front end ([`frontend`]: Cshmgen/Cminorgen and Selection by
//! lockstep symbolic expression evaluation), the seven same-IR mid-end
//! passes ([`passes`]), RTLgen and the back end ([`backend`]:
//! re-derivation hints plus independent frame-cover and flag-discipline
//! obligations), and the object-level `IdTrans` ([`object`]: atomic
//! bracketing preserved bit-for-bit).
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
use std::fmt;

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
/// size and the full obligation list. Its verdict is
/// [`SimWitness::validated`], read off the obligations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SimWitness {
    /// The pass name (matches `ccc_compiler::verif` pass names).
    pub pass: String,
    /// Matched source blocks (tail-call patterns and stutters count).
    pub matched_blocks: usize,
    /// Every obligation, in the order it was checked.
    pub obligations: Vec<Obligation>,
}

impl SimWitness {
    /// Builds a witness from an obligation list.
    pub(crate) fn conclude(
        pass: &'static str,
        matched_blocks: usize,
        obligations: Vec<Obligation>,
    ) -> Self {
        SimWitness {
            pass: pass.to_string(),
            matched_blocks,
            obligations,
        }
    }

    /// The verdict: true iff every obligation is discharged, i.e. the
    /// run refines its source. A `false` is a miscompilation or a
    /// matching the validator cannot justify — never silently ignored.
    pub fn validated(&self) -> bool {
        self.obligations.iter().all(|o| o.discharged)
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
        write!(
            f,
            "pass {}: {} — {} blocks, {}/{} obligations",
            self.pass,
            if self.validated() {
                "Validated"
            } else {
                "Rejected"
            },
            self.matched_blocks,
            self.discharged(),
            self.obligations.len()
        )
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
    /// True if every pass validated.
    pub fn ok(&self) -> bool {
        self.witnesses.iter().all(SimWitness::validated)
    }

    /// The rejected witnesses, in pipeline order.
    pub fn rejected(&self) -> impl Iterator<Item = &SimWitness> {
        self.witnesses.iter().filter(|w| !w.validated())
    }

    /// The witness for a pass, by `ccc_compiler::verif` pass name.
    pub fn get(&self, pass: &str) -> Option<&SimWitness> {
        self.witnesses.iter().find(|w| w.pass == pass)
    }

    /// All failed obligations as structured diagnostics.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.witnesses
            .iter()
            .flat_map(SimWitness::diagnostics)
            .collect()
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

/// Statically validates every pass of one compilation, producing a
/// witness per pipeline pass, from Cshmgen/Cminorgen down to Asmgen.
/// When the artifacts carry the Constprop extension stage it is
/// validated too, and Allocation is checked against the
/// constant-propagated RTL — the same sourcing `verify_passes` uses.
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
