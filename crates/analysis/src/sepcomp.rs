//! Separate compilation over the witness cache: the `ccc-analysis`
//! half of ROADMAP item 2.
//!
//! `ccc_compiler::cache` is deliberately ignorant of the validator (the
//! compiler crate cannot depend on the analyses), so this module
//! supplies the real [`Certifier`]: [`TransvalCertifier`] certifies a
//! fresh compilation by running the full symbolic translation validator
//! and re-checks a stored witness on a cache hit *statically* — parse
//! the JSON, match the pass list against what the pipeline must have
//! produced, require every obligation discharged — without recompiling
//! or re-validating ([`RecheckDepth::Structural`]), or by re-deriving
//! the whole witness for audit-grade paranoia ([`RecheckDepth::Full`]).
//!
//! The second half is the paper's actual theorem: per-module witnesses
//! only compose into whole-program correctness when the *link-time*
//! side conditions hold. [`check_link_obligations`] re-discharges them
//! across the mix of cached and fresh modules on every build:
//!
//! * **EnvDisjoint** — function names and global layouts of all units
//!   (and the object) are compatible, i.e. the program links at all;
//! * **FootprintDisjoint** — no unit writes a global another unit
//!   touches outside the object's mediation (object calls are exempt:
//!   their footprints are the object's business, covered by its own
//!   atomic blocks — the paper's footprint-preservation story);
//! * **AtomicShape** — the object module survived `IdTrans` with its
//!   atomic blocks bit-for-bit intact (`validate_id_trans`);
//! * **LockDiscipline** — the Eraser-style lockset analysis finds the
//!   merged client statically race-free under the object's inferred
//!   lock protocol (the rely/guarantee side condition's static stand-in).
//!
//! [`build_program`] drives both halves: every unit goes through the
//! cache (hits re-checked, misses certified), then the link obligations
//! are discharged over the results. Units are independent until link
//! time, so the per-unit half runs on all available cores
//! ([`build_workers`]); its results do not depend on the worker count.

use crate::lockset::{infer_lock_model, LockModel, StaticVerdict};
use crate::region::AbsFootprint;
use crate::rg_cert::{rg_cert_cached, rg_incompatibilities, CertOutcome, RgCert};
use crate::transval::json::{
    pipeline_from_json, pipeline_shape_from_json, pipeline_to_json, WitnessShape,
};
use crate::transval::object::validate_id_trans;
use crate::transval::{validate_artifacts, PipelineWitness};
use ccc_cimp::CImpModule;
use ccc_clight::ClightModule;
use ccc_compiler::cache::{
    module_hash, CacheError, CachedCompilation, Certifier, CompileCache, RecheckDepth,
};
use ccc_compiler::CompilationArtifacts;
use ccc_core::explore::FxHashSet;
use ccc_core::mem::GlobalEnv;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The pass names the validator must have produced for these artifacts,
/// in pipeline order (the Constprop extension stage appears exactly
/// when the artifacts carry it).
#[must_use]
pub fn expected_passes(arts: &CompilationArtifacts) -> Vec<&'static str> {
    let mut out = vec![
        "Cshmgen/Cminorgen",
        "Selection",
        "RTLgen",
        "Tailcall",
        "Renumber",
    ];
    if arts.rtl_constprop.is_some() {
        out.push("Constprop");
    }
    out.extend([
        "Allocation",
        "Tunneling",
        "Linearize",
        "CleanupLabels",
        "Stacking",
        "Asmgen",
    ]);
    out
}

/// Re-checks a decoded pipeline witness against artifacts.
///
/// The structural rules are [`recheck_shape`]'s, applied to the
/// witness's [`WitnessShape`]. At [`RecheckDepth::Full`] the whole
/// witness is then re-derived from the artifacts and compared for
/// equality, which additionally catches a witness swapped in from a
/// *different* validated compilation.
///
/// # Errors
///
/// Describes the first inconsistency found.
pub fn recheck_pipeline(
    arts: &CompilationArtifacts,
    stored: &PipelineWitness,
    depth: RecheckDepth,
) -> Result<(), String> {
    recheck_shape(arts, &WitnessShape::of(stored))?;
    if depth == RecheckDepth::Full && validate_artifacts(arts) != *stored {
        return Err("stored witness differs from one re-derived from the artifacts".into());
    }
    Ok(())
}

/// The structural re-check of a stored witness: the stored pass list
/// must match [`expected_passes`] and no obligation may be
/// undischarged — the stored witness must validate. This is the whole
/// [`RecheckDepth::Structural`] check, run on every cache hit over the
/// allocation-light [`WitnessShape`] scan (hits are the hot path — a
/// warm service request is nothing *but* this check).
///
/// # Errors
///
/// Describes the first inconsistency found.
pub fn recheck_shape(arts: &CompilationArtifacts, shape: &WitnessShape) -> Result<(), String> {
    let expected = expected_passes(arts);
    if shape.passes != expected {
        return Err(format!(
            "stored pass list {:?} does not match expected {expected:?}",
            shape.passes
        ));
    }
    if shape.undischarged > 0 {
        return Err(format!(
            "stored witness has {} undischarged obligation(s)",
            shape.undischarged
        ));
    }
    Ok(())
}

/// The real [`Certifier`]: full symbolic validation on a miss, static
/// witness re-checking on a hit.
#[derive(Clone, Copy, Default, Debug)]
pub struct TransvalCertifier;

impl Certifier for TransvalCertifier {
    fn certify(&self, arts: &CompilationArtifacts) -> Result<String, String> {
        let w = validate_artifacts(arts);
        if let Some(bad) = w.rejected().next() {
            return Err(format!("pass {} was Rejected", bad.pass));
        }
        Ok(pipeline_to_json(&w))
    }

    fn recheck(
        &self,
        arts: &CompilationArtifacts,
        witness_json: &str,
        depth: RecheckDepth,
    ) -> Result<(), String> {
        // Both parses report syntax errors with byte offsets, so a
        // truncated or bit-rotted disk entry says *where* it broke.
        match depth {
            RecheckDepth::Structural => {
                // The shape scan syntax-checks the whole document but
                // materializes none of the (thousands of) obligations —
                // this is what keeps a hit ~10x cheaper than a cold
                // compile+certify. Syntax errors surface in the shared
                // diagnostic format, byte offset preserved.
                let shape = pipeline_shape_from_json(witness_json).map_err(|e| {
                    crate::diag::Diagnostic::from_json_error("Witness", &e).to_string()
                })?;
                recheck_shape(arts, &shape)
            }
            RecheckDepth::Full => {
                let stored = pipeline_from_json(witness_json)?;
                recheck_pipeline(arts, &stored, depth)
            }
        }
    }
}

/// One separately compiled translation unit and its link-time
/// interface.
#[derive(Clone, Debug)]
pub struct SepUnit {
    /// A human-readable unit name for diagnostics.
    pub name: String,
    /// The Clight source.
    pub module: ClightModule,
    /// The unit's global definitions.
    pub ge: GlobalEnv,
    /// The thread entry points the unit contributes.
    pub entries: Vec<String>,
}

/// The link-time side conditions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkObligationKind {
    /// Function names and global layouts are compatible across units.
    EnvDisjoint,
    /// No unit writes a global that another unit touches outside the
    /// object's mediation.
    FootprintDisjoint,
    /// The object module's atomic blocks survived `IdTrans` intact.
    AtomicShape,
    /// The merged client is statically race-free under the object's
    /// lock protocol.
    LockDiscipline,
    /// Every module's guarantee is allowed by every other module's rely
    /// (and each module is self-stable): the compositional
    /// rely-guarantee side condition, discharged from per-module
    /// [`RgCert`]s with no whole-program exploration.
    RgCompatible,
}

impl LinkObligationKind {
    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LinkObligationKind::EnvDisjoint => "EnvDisjoint",
            LinkObligationKind::FootprintDisjoint => "FootprintDisjoint",
            LinkObligationKind::AtomicShape => "AtomicShape",
            LinkObligationKind::LockDiscipline => "LockDiscipline",
            LinkObligationKind::RgCompatible => "RgCompatible",
        }
    }
}

/// One discharged-or-not link obligation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LinkObligation {
    /// Which side condition.
    pub kind: LinkObligationKind,
    /// Whether it holds for this program.
    pub discharged: bool,
    /// Diagnostics (the offending pair, the race count, …).
    pub note: String,
}

/// Every link obligation of one program, in a fixed order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LinkReport {
    /// The obligations, in [`LinkObligationKind`] declaration order.
    pub obligations: Vec<LinkObligation>,
}

impl LinkReport {
    /// True when every obligation is discharged.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.obligations.iter().all(|o| o.discharged)
    }

    /// The undischarged obligations.
    #[must_use]
    pub fn failed(&self) -> Vec<&LinkObligation> {
        self.obligations.iter().filter(|o| !o.discharged).collect()
    }
}

fn check_env_disjoint(
    units: &[SepUnit],
    object: &CImpModule,
    object_ge: &GlobalEnv,
) -> LinkObligation {
    let mut seen: BTreeMap<&str, &str> = BTreeMap::new();
    let mut clashes = Vec::new();
    for u in units {
        for f in u.module.funcs.keys() {
            if let Some(prev) = seen.insert(f.as_str(), u.name.as_str()) {
                clashes.push(format!(
                    "function `{f}` defined in `{prev}` and `{}`",
                    u.name
                ));
            }
        }
    }
    for f in object.funcs.keys() {
        if let Some(prev) = seen.insert(f.as_str(), "<object>") {
            clashes.push(format!("function `{f}` defined in `{prev}` and the object"));
        }
    }
    let linked = GlobalEnv::link(units.iter().map(|u| &u.ge).chain([object_ge]));
    if linked.is_none() {
        clashes.push("global environments do not link (conflicting symbol or init)".to_string());
    }
    LinkObligation {
        kind: LinkObligationKind::EnvDisjoint,
        discharged: clashes.is_empty(),
        note: if clashes.is_empty() {
            format!("{} units link cleanly", units.len())
        } else {
            clashes.join("; ")
        },
    }
}

fn unit_footprint(u: &SepUnit, externals: &BTreeMap<String, AbsFootprint>) -> AbsFootprint {
    let summaries = crate::clight_fp::infer_clight_with(&u.module, externals);
    let mut fp = AbsFootprint::default();
    for e in &u.entries {
        if let Some(f) = summaries.funcs.get(e) {
            fp.reads.extend(f.reads.iter().cloned());
            fp.writes.extend(f.writes.iter().cloned());
        }
    }
    fp
}

fn check_footprint_disjoint(units: &[SepUnit], object: &CImpModule) -> LinkObligation {
    // Object calls are exempt from the unit footprint: access through
    // the object is serialized by its atomic blocks, which is exactly
    // what AtomicShape + LockDiscipline certify. Giving the object
    // functions empty external footprints encodes that.
    let externals: BTreeMap<String, AbsFootprint> = object
        .funcs
        .keys()
        .map(|n| (n.clone(), AbsFootprint::default()))
        .collect();
    let fps: Vec<AbsFootprint> = units
        .iter()
        .map(|u| unit_footprint(u, &externals))
        .collect();
    let mut clashes = Vec::new();
    for i in 0..units.len() {
        for j in 0..units.len() {
            if i == j {
                continue;
            }
            for w in &fps[i].writes {
                for r in fps[j].reads.iter().chain(&fps[j].writes) {
                    if w.may_overlap_cross_thread(r) {
                        clashes.push(format!(
                            "`{}` writes {w:?} which `{}` touches via {r:?}",
                            units[i].name, units[j].name
                        ));
                    }
                }
            }
        }
    }
    clashes.sort();
    clashes.dedup();
    LinkObligation {
        kind: LinkObligationKind::FootprintDisjoint,
        discharged: clashes.is_empty(),
        note: if clashes.is_empty() {
            "pairwise unit footprints disjoint outside the object".to_string()
        } else {
            clashes.join("; ")
        },
    }
}

fn check_atomic_shape(object_src: &CImpModule, object_tgt: &CImpModule) -> LinkObligation {
    let w = validate_id_trans(object_src, object_tgt);
    LinkObligation {
        kind: LinkObligationKind::AtomicShape,
        discharged: w.validated(),
        note: w.to_string(),
    }
}

fn check_lock_discipline(units: &[SepUnit], object_src: &CImpModule) -> LinkObligation {
    let merged = ClightModule::new(
        units
            .iter()
            .flat_map(|u| u.module.funcs.iter())
            .map(|(n, f)| (n.clone(), f.clone())),
    );
    let entries: Vec<String> = units.iter().flat_map(|u| u.entries.clone()).collect();
    let model = infer_lock_model(object_src);
    let report = crate::lockset::check_static_race(&merged, &entries, &model);
    let (discharged, note) = match &report.verdict {
        StaticVerdict::StaticDrf => (true, "merged client statically race-free".to_string()),
        StaticVerdict::MayRace(pairs) => (
            false,
            format!("{} potentially racing access pair(s)", pairs.len()),
        ),
    };
    LinkObligation {
        kind: LinkObligationKind::LockDiscipline,
        discharged,
        note,
    }
}

/// Discharges the `RgCompatible` obligation from per-module
/// certificates: every module must be self-stable, and every module's
/// guarantee must be allowed by every other module's rely
/// ([`rg_incompatibilities`]). Purely a check over the (already
/// trusted-checked) certificates — no unit is re-analyzed, which is
/// what makes the verdict incremental: editing one module re-infers one
/// certificate, then this check re-runs over N summaries.
#[must_use]
pub fn check_rg_compatible(certs: &[RgCert]) -> LinkObligation {
    let bad = rg_incompatibilities(certs);
    let actions: usize = certs.iter().map(|c| c.guarantee.len()).sum();
    LinkObligation {
        kind: LinkObligationKind::RgCompatible,
        discharged: bad.is_empty(),
        note: if bad.is_empty() {
            format!(
                "{} certificates ({actions} guarantee actions) pairwise rely-compatible",
                certs.len()
            )
        } else {
            bad.iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        },
    }
}

/// Re-discharges every link-time side condition for a program made of
/// `units` linked against a concurrent object (`object_src` as written,
/// `object_tgt` as emitted by `IdTrans`).
#[must_use]
pub fn check_link_obligations(
    units: &[SepUnit],
    object_src: &CImpModule,
    object_tgt: &CImpModule,
    object_ge: &GlobalEnv,
) -> LinkReport {
    LinkReport {
        obligations: vec![
            check_env_disjoint(units, object_src, object_ge),
            check_footprint_disjoint(units, object_src),
            check_atomic_shape(object_src, object_tgt),
            check_lock_discipline(units, object_src),
        ],
    }
}

/// [`check_link_obligations`] plus the certificate-based
/// [`LinkObligationKind::RgCompatible`] obligation. `certs[i]` must be
/// the (trusted-checked) certificate of `units[i]`.
#[must_use]
pub fn check_link_obligations_with_certs(
    units: &[SepUnit],
    certs: &[RgCert],
    object_src: &CImpModule,
    object_tgt: &CImpModule,
    object_ge: &GlobalEnv,
) -> LinkReport {
    let mut report = check_link_obligations(units, object_src, object_tgt, object_ge);
    report.obligations.push(check_rg_compatible(certs));
    report
}

/// The index of the first unit of each distinct module, in unit order.
fn first_units(units: &[SepUnit]) -> Vec<usize> {
    let mut seen = FxHashSet::default();
    (0..units.len())
        .filter(|&i| seen.insert(module_hash(&units[i].module)))
        .collect()
}

/// How many workers [`build_program`] and [`build_program_certified`]
/// build `units` on: the machine's available parallelism, capped at the
/// number of distinct modules. One worker means the units are built
/// inline, on the calling thread.
#[must_use]
pub fn build_workers(units: &[SepUnit]) -> usize {
    workers_for(first_units(units).len())
}

fn workers_for(distinct: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(distinct)
}

/// Runs `build` on every unit and returns the results in unit order,
/// or the first error in unit order.
///
/// The first unit of each module is built on [`build_workers`] scoped
/// workers (the calling thread is one of them), each taking the next
/// unit index in turn; after an error no worker takes a new unit. A
/// unit that repeats an earlier module is built afterwards, in unit
/// order, so it is served from the cache exactly as in a sequential
/// loop. Units never share a module hash while the workers run, so
/// per-unit outcomes and cache counters do not depend on the worker
/// count; on an error, units after the failing one may already have
/// been built and cached.
fn build_units<T: Send>(
    units: &[SepUnit],
    build: impl Fn(&SepUnit) -> Result<T, CacheError> + Sync,
) -> Result<Vec<T>, CacheError> {
    let firsts = first_units(units);
    let mut built: Vec<Option<Result<T, CacheError>>> = units.iter().map(|_| None).collect();
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let work = || {
        let mut out = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let Some(&i) = firsts.get(next.fetch_add(1, Ordering::Relaxed)) else {
                break;
            };
            let r = build(&units[i]);
            if r.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            out.push((i, r));
        }
        out
    };
    let done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers_for(firsts.len()))
            .map(|_| s.spawn(work))
            .collect();
        let mut done = work();
        for h in helpers {
            done.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        done
    });
    for (i, r) in done {
        built[i] = Some(r);
    }
    // Every unit before the first error is built: workers take units in
    // order, and a repeated module is served here, after its first unit.
    built
        .into_iter()
        .zip(units)
        .map(|(r, u)| r.unwrap_or_else(|| build(u)))
        .collect()
}

/// The result of one whole-program incremental build.
#[derive(Clone, Debug)]
pub struct SepcompResult {
    /// Per-unit compilations, in `units` order (each one a hit, disk
    /// hit, miss, or rejected-and-recompiled — see
    /// `ccc_compiler::cache::CacheOutcome`).
    pub modules: Vec<CachedCompilation>,
    /// The re-discharged link obligations over the mix of cached and
    /// fresh modules.
    pub link: LinkReport,
}

/// Builds a whole program through the cache: every unit is compiled
/// (or served and re-checked), then the link-time obligations are
/// re-discharged across all units.
///
/// Units are built on [`build_workers`] threads, one distinct module
/// per worker at a time; a unit that repeats an earlier module is
/// served afterwards, in unit order. Per-unit outcomes and the cache
/// counters therefore equal those of a sequential loop over `units`,
/// whatever the worker count. The link obligations run once, after
/// every unit is built.
///
/// # Errors
///
/// Propagates the first unit, in unit order, whose *fresh* compilation
/// fails to compile or certify; poisoned cache entries degrade to
/// recompilation and are visible per-unit as `CacheOutcome::Rejected`.
/// Units after the failing one may already have been built and cached
/// by then.
pub fn build_program(
    units: &[SepUnit],
    object_src: &CImpModule,
    object_tgt: &CImpModule,
    object_ge: &GlobalEnv,
    cache: &CompileCache,
    certifier: &dyn Certifier,
    depth: RecheckDepth,
) -> Result<SepcompResult, CacheError> {
    let modules = build_units(units, |u| cache.compile_cached(&u.module, certifier, depth))?;
    Ok(SepcompResult {
        modules,
        link: check_link_obligations(units, object_src, object_tgt, object_ge),
    })
}

/// The result of one whole-program incremental build with interference
/// certification enabled.
#[derive(Clone, Debug)]
pub struct SepcompCertResult {
    /// Per-unit compilations, in `units` order.
    pub modules: Vec<CachedCompilation>,
    /// Per-unit rely-guarantee certificates, in `units` order (each one
    /// served from the witness cache and re-checked, or freshly
    /// inferred).
    pub certs: Vec<RgCert>,
    /// How each certificate was served.
    pub cert_outcomes: Vec<CertOutcome>,
    /// The link obligations including
    /// [`LinkObligationKind::RgCompatible`].
    pub link: LinkReport,
}

/// [`build_program`] with per-module rely-guarantee certification:
/// every unit's [`RgCert`] goes through the witness cache (stored
/// certificates are re-admitted only after the trusted checker passes
/// against the presented module), then the link obligations — now
/// including `RgCompatible` — are discharged over the certificates.
/// Editing 1 of N modules therefore re-infers exactly 1 certificate;
/// the other N−1 are cache hits whose re-check is a lockset walk, not
/// an exploration.
///
/// Each unit's certificate and compilation are built together, by one
/// worker, with the workers, ordering and duplicate handling of
/// [`build_program`]: per-unit outcomes, certificates and cache counters
/// equal those of a sequential loop that runs `rg_cert_cached` and then
/// `compile_cached` on each unit in turn.
///
/// # Errors
///
/// As [`build_program`]: the first error in unit order, with later
/// units possibly already built and cached.
pub fn build_program_certified(
    units: &[SepUnit],
    object_src: &CImpModule,
    object_tgt: &CImpModule,
    object_ge: &GlobalEnv,
    cache: &CompileCache,
    certifier: &dyn Certifier,
    depth: RecheckDepth,
) -> Result<SepcompCertResult, CacheError> {
    let model: LockModel = infer_lock_model(object_src);
    let (certified, modules): (Vec<_>, Vec<_>) = build_units(units, |u| {
        let cert = rg_cert_cached(&u.name, &u.module, &u.entries, &model, cache);
        Ok((cert, cache.compile_cached(&u.module, certifier, depth)?))
    })?
    .into_iter()
    .unzip();
    let (certs, cert_outcomes): (Vec<_>, Vec<_>) = certified.into_iter().unzip();
    Ok(SepcompCertResult {
        modules,
        link: check_link_obligations_with_certs(units, &certs, object_src, object_tgt, object_ge),
        certs,
        cert_outcomes,
    })
}
