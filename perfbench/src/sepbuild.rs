//! `sepbuild`: certified separate builds of the seeded 20-module
//! program through `build_program_certified`, with three operation
//! classes interleaved round-robin:
//!
//! - `edit`: one unit is replaced by its seeded variant, giving exactly
//!   1 miss and 19 memory hits for both artifacts and certificates;
//! - `restart`: the memory tier is dropped and every unit is served
//!   from the disk tier;
//! - `cold`: an empty cache builds everything.
//!
//! The disk tier lives in a private directory removed when the workload
//! is dropped.
//!
//! A traced build cannot wrap spans around the calls
//! `build_program_certified` makes inside the library, so it makes the
//! same public calls itself (see [`build`]). That copy must be kept in
//! step with `ccc_analysis::sepcomp::build_program_certified`; a traced
//! set-up checks that both give the same results ([`check_mirror`]).

use crate::layers;
use crate::program::{self, Object, MODULES};
use crate::trace;
use crate::Workload;
use ccc_analysis::rg_cert::{rg_cert_cached, rg_cert_violation, CertOutcome};
use ccc_analysis::sepcomp::{
    build_program_certified, check_link_obligations_with_certs, LinkObligationKind, SepUnit,
    SepcompCertResult,
};
use ccc_analysis::transval::json::pipeline_shape_from_json;
use ccc_analysis::{infer_lock_model, LockModel};
use ccc_compiler::cache::{CacheOutcome, CacheStats, Certifier, CompileCache, RecheckDepth};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const CLASSES: [&str; 3] = ["edit", "restart", "cold"];

/// A directory removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Result<TempDir, String> {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = crate::out_dir().join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One whole-program build. Untraced it is the library's
/// `build_program_certified`; traced it is [`traced_build`].
pub fn build(
    units: &[SepUnit],
    object: &Object,
    cache: &CompileCache,
    certifier: &dyn Certifier,
) -> Result<SepcompCertResult, String> {
    if trace::enabled() {
        traced_build(units, object, cache, certifier)
    } else {
        build_program_certified(
            units,
            &object.src,
            &object.tgt,
            &object.ge,
            cache,
            certifier,
            RecheckDepth::Structural,
        )
        .map_err(|e| format!("build: {e:?}"))
    }
}

/// The public calls `build_program_certified` makes, in the same order,
/// each inside a span. A certificate served from the cache is an
/// `rg_cert.hit` span (lookup, parse and `rg_cert_violation`); the
/// checker alone is priced outside the operation, as `rg_cert.check`.
fn traced_build(
    units: &[SepUnit],
    object: &Object,
    cache: &CompileCache,
    certifier: &dyn Certifier,
) -> Result<SepcompCertResult, String> {
    let model = infer_lock_model(&object.src);
    let (certs, cert_outcomes): (Vec<_>, Vec<_>) = units
        .iter()
        .map(|u| {
            trace::span_by(
                || rg_cert_cached(&u.name, &u.module, &u.entries, &model, cache),
                |(_, o)| match o {
                    CertOutcome::Hit => "rg_cert.hit",
                    _ => "rg_cert.infer",
                },
            )
        })
        .unzip();
    for c in &certs {
        trace::count("rg_cert.summaries", c.guarantee.len() as u64);
    }
    let modules = units
        .iter()
        .map(|u| {
            trace::span_by(
                || cache.compile_cached(&u.module, certifier, RecheckDepth::Structural),
                |r| match r.as_ref().map(|c| &c.outcome) {
                    Ok(CacheOutcome::Hit) => "cache.hit",
                    Ok(CacheOutcome::DiskHit) => "cache.disk_hit",
                    _ => "cache.miss",
                },
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("build: {e:?}"))?;
    let link = trace::span("sepcomp.link", || {
        check_link_obligations_with_certs(units, &certs, &object.src, &object.tgt, &object.ge)
    });
    trace::count("sepcomp.obligations", link.obligations.len() as u64);
    Ok(SepcompCertResult {
        modules,
        certs,
        cert_outcomes,
        link,
    })
}

/// Builds `programs` in turn with the library's `build_program_certified`
/// and with [`traced_build`], each on a fresh cache with a private disk
/// tier, dropping the memory tier before the last build; fails unless
/// both give the same per-unit outcomes, witnesses, certificates,
/// certificate outcomes, link reports and cache counters.
fn check_mirror(programs: &[&[SepUnit]], object: &Object) -> Result<(), String> {
    let certifier = layers::certifier();
    let (lib_dir, traced_dir) = (TempDir::new("mirror-lib")?, TempDir::new("mirror-traced")?);
    let disk_tier = |e: std::io::Error| format!("disk tier: {e}");
    let lib = CompileCache::new()
        .with_disk(&lib_dir.0)
        .map_err(disk_tier)?;
    let traced = layers::cache()
        .with_disk(&traced_dir.0)
        .map_err(disk_tier)?;
    for (k, units) in programs.iter().enumerate() {
        if k + 1 == programs.len() {
            lib.clear_memory();
            traced.clear_memory();
        }
        let a = build_program_certified(
            units,
            &object.src,
            &object.tgt,
            &object.ge,
            &lib,
            &*certifier,
            RecheckDepth::Structural,
        )
        .map_err(|e| format!("build: {e:?}"))?;
        let b = traced_build(units, object, &traced, &*certifier)?;
        let served = |r: &SepcompCertResult| -> Vec<(CacheOutcome, String)> {
            r.modules
                .iter()
                .map(|m| (m.outcome.clone(), m.witness_json.clone()))
                .collect()
        };
        let same = served(&a) == served(&b)
            && a.certs == b.certs
            && a.cert_outcomes == b.cert_outcomes
            && a.link == b.link
            && lib.stats() == traced.stats();
        if !same {
            return Err(format!(
                "traced build {k} differs from build_program_certified: \
                 certificates {:?} vs {:?}, link {:?} vs {:?}",
                a.cert_outcomes, b.cert_outcomes, a.link, b.link,
            ));
        }
    }
    Ok(())
}

/// The outcome every unit of a build must have.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Served {
    Hit,
    DiskHit,
    Miss,
}

/// Checks a build: per-unit outcomes (`edited` is the one miss of an
/// edit), the cache counters, and the link report.
fn check(
    r: &SepcompCertResult,
    all: Served,
    edited: Option<usize>,
    delta: CacheStats,
) -> Result<(), String> {
    for (i, (m, c)) in r.modules.iter().zip(&r.cert_outcomes).enumerate() {
        let want = if Some(i) == edited { Served::Miss } else { all };
        let (want_m, want_c) = match want {
            Served::Hit => (CacheOutcome::Hit, CertOutcome::Hit),
            Served::DiskHit => (CacheOutcome::DiskHit, CertOutcome::Hit),
            Served::Miss => (CacheOutcome::Miss, CertOutcome::Miss),
        };
        if m.outcome != want_m || *c != want_c {
            return Err(format!(
                "unit m{i}: served {:?}/{c:?}, expected {want_m:?}/{want_c:?}",
                m.outcome
            ));
        }
    }
    let n = MODULES as u64;
    let misses = match (all, edited) {
        (Served::Miss, _) => n,
        (_, Some(_)) => 1,
        _ => 0,
    };
    let want = CacheStats {
        hits: if all == Served::Hit { n - misses } else { 0 },
        disk_hits: if all == Served::DiskHit { n } else { 0 },
        misses,
        rejected: 0,
        cert_hits: n - misses,
        cert_misses: misses,
    };
    if delta != want {
        return Err(format!(
            "cache counters moved by {delta:?}, expected {want:?}"
        ));
    }
    if !r.link.ok() {
        return Err(format!("link obligations failed: {:?}", r.link.failed()));
    }
    if !r
        .link
        .obligations
        .iter()
        .any(|o| o.kind == LinkObligationKind::RgCompatible && o.discharged)
    {
        return Err("RgCompatible was not discharged".to_string());
    }
    Ok(())
}

pub struct SepBuild {
    /// Traced runs only: the last operation's build and the slot it
    /// edited, which [`Workload::price`] prices outside the operation.
    last: Option<(SepcompCertResult, Option<usize>)>,
    units: Vec<SepUnit>,
    /// `edited[k]`: the program with unit `k` replaced by its variant.
    edited: Vec<Vec<SepUnit>>,
    object: Object,
    /// The lock object's model, for pricing `rg_cert_violation`.
    model: LockModel,
    certifier: Arc<dyn Certifier>,
    cache: CompileCache,
    // Declared after the cache so the directory outlives it.
    _disk: TempDir,
}

impl SepBuild {
    pub fn setup(seed: u64) -> Result<SepBuild, String> {
        let units = program::units(seed);
        let variants = program::variants(seed);
        for (u, v) in units.iter().zip(&variants) {
            if ccc_compiler::module_hash(&u.module) == ccc_compiler::module_hash(&v.module) {
                return Err(format!("variant of {} equals the unit", u.name));
            }
        }
        let edited: Vec<Vec<SepUnit>> = variants
            .into_iter()
            .enumerate()
            .map(|(k, v)| {
                let mut p = units.clone();
                p[k] = v;
                p
            })
            .collect();
        let object = Object::lock();
        if trace::enabled() {
            check_mirror(&[&units, &edited[0], &units], &object)?;
        }
        let disk = TempDir::new("sepbuild-disk")?;
        let cache = layers::cache()
            .with_disk(&disk.0)
            .map_err(|e| format!("disk tier: {e}"))?;
        let mut w = SepBuild {
            last: None,
            units,
            edited,
            model: infer_lock_model(&object.src),
            object,
            certifier: layers::certifier(),
            cache,
            _disk: disk,
        };
        // Populate both tiers, then one warm-up round.
        let before = w.cache.stats();
        let r = build(&w.units, &w.object, &w.cache, &*w.certifier)?;
        check(
            &r,
            Served::Miss,
            None,
            layers::cache_delta(&before, &w.cache.stats()),
        )?;
        for i in 0..CLASSES.len() {
            w.run(0, i)?;
        }
        Ok(w)
    }

    fn edit(&mut self, slot: usize) -> Result<(), String> {
        let units = &self.edited[slot];
        let before = self.cache.stats();
        let r = build(units, &self.object, &self.cache, &*self.certifier)?;
        // Forget the variant so the next edit of this slot misses again.
        self.cache
            .evict(ccc_compiler::module_hash(&units[slot].module));
        let delta = layers::cache_delta(&before, &self.cache.stats());
        self.checked(r, Served::Hit, Some(slot), delta)
    }

    fn restart(&mut self) -> Result<(), String> {
        self.cache.clear_memory();
        let before = self.cache.stats();
        let r = build(&self.units, &self.object, &self.cache, &*self.certifier)?;
        let delta = layers::cache_delta(&before, &self.cache.stats());
        self.checked(r, Served::DiskHit, None, delta)
    }

    fn cold(&mut self) -> Result<(), String> {
        let cache = layers::cache();
        let r = build(&self.units, &self.object, &cache, &*self.certifier)?;
        let delta = layers::cache_delta(&CacheStats::default(), &cache.stats());
        self.checked(r, Served::Miss, None, delta)
    }

    fn checked(
        &mut self,
        r: SepcompCertResult,
        all: Served,
        edited: Option<usize>,
        delta: CacheStats,
    ) -> Result<(), String> {
        check(&r, all, edited, delta)?;
        if trace::enabled() {
            self.last = Some((r, edited));
        }
        Ok(())
    }
}

impl Workload for SepBuild {
    fn pass_len(&self) -> usize {
        CLASSES.len()
    }

    fn class(&self, i: usize) -> &'static str {
        CLASSES[i]
    }

    fn latency_class(&self) -> Option<&'static str> {
        Some("edit")
    }

    fn run(&mut self, pass: usize, i: usize) -> Result<(), String> {
        match CLASSES[i] {
            "edit" => self.edit(pass % MODULES),
            "restart" => self.restart(),
            _ => self.cold(),
        }
    }

    fn price(&mut self, _pass: usize, _i: usize) -> Result<(), String> {
        let Some((r, edited)) = self.last.take() else {
            return Ok(());
        };
        for m in r.modules.iter().filter(|m| !m.outcome.is_hit()) {
            let shape = pipeline_shape_from_json(&m.witness_json)
                .map_err(|e| format!("stored witness: {e:?}"))?;
            trace::count("transval.obligations", shape.obligations as u64);
        }
        let units = edited.map_or(&self.units, |k| &self.edited[k]);
        let hits = r.certs.iter().zip(&r.cert_outcomes).zip(units);
        for ((cert, _), u) in hits.filter(|((_, o), _)| **o == CertOutcome::Hit) {
            let violation = trace::span("rg_cert.check", || {
                rg_cert_violation(cert, &u.module, &u.entries, &self.model)
            });
            if let Some(d) = violation {
                return Err(format!(
                    "served certificate of {} fails its checker: {d}",
                    u.name
                ));
            }
        }
        Ok(())
    }
}
