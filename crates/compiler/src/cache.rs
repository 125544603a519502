//! Content-addressed incremental compilation cache (ROADMAP item 2).
//!
//! The paper's point is *separate* compilation: each module carries its
//! own correctness witness, and witnesses compose at link time. This
//! module makes that operational. A compilation is keyed on a stable
//! structural hash of its Clight source ([`module_hash`]); the cache
//! maps that key to the full per-stage artifacts plus the serialized
//! `PipelineWitness` produced by the symbolic validator, so recompiling
//! a 20-module program in which one module changed re-runs the pipeline
//! for exactly that module.
//!
//! ## Trust discipline
//!
//! A cache hit is **never** trusted blindly. Before an entry is served:
//!
//! 1. the stored source stage is compared bit-for-bit against the
//!    requested module (guards both hash collisions and poisoned
//!    entries whose artifacts were swapped);
//! 2. the stored witness JSON is parsed and statically re-checked
//!    against the stored artifacts by the [`Certifier`] — the cheap
//!    side of validation only, no recompilation (see [`RecheckDepth`]).
//!    The memory tier runs this once per *admission* and reuses the
//!    verdict while the slot is unchanged (see `MemEntry`); the disk
//!    tier re-parses on every load;
//! 3. link-time obligations are re-discharged *outside* this module,
//!    across the mix of cached and fresh modules
//!    (`ccc_analysis::sepcomp`).
//!
//! An entry failing any of these is evicted and the module is
//! recompiled and re-certified from scratch ([`CacheOutcome::Rejected`]).
//!
//! ## Layering
//!
//! `ccc-compiler` cannot depend on `ccc-analysis` (the analyses depend
//! on the compiler), so the validator is abstracted behind the
//! [`Certifier`] trait; `ccc_analysis::sepcomp::TransvalCertifier` is
//! the real implementation, and [`TrustingCertifier`] is the
//! no-validation baseline used by unit tests and cold-compile
//! benchmarks.
//!
//! ## Disk tier
//!
//! The on-disk format under `target/ccc-cache/` stores the module hash,
//! one digest per pipeline stage, and the witness JSON — *not* the
//! artifacts themselves (the IRs have no parsers). A disk hit therefore
//! recompiles the (deterministic) pipeline, checks every stage digest
//! against the stored ones, and re-checks the stored witness — skipping
//! only the expensive certification step. That makes the disk tier a
//! witness cache rather than an artifact cache; the memory tier caches
//! both.

use crate::driver::{compile_with_artifacts, CompilationArtifacts, CompileError};
use ccc_clight::ClightModule;
use ccc_core::explore::{fx_hash_of, FxHashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Version stamp mixed into every [`module_hash`] and written as the
/// first line of every disk entry. Bump it whenever the Clight AST, the
/// `Hash` derivation, the digest scheme, or the disk layout changes:
/// old entries then miss instead of being misinterpreted.
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// The content address of a module under an explicit format version
/// (exposed so tests can demonstrate that bumping the version invalidates
/// every address).
#[must_use]
pub fn module_hash_with_version(version: u32, m: &ClightModule) -> u64 {
    fx_hash_of(&(version, m))
}

/// The content address of a module: a deterministic structural FxHash
/// of the whole Clight AST, mixed with [`CACHE_FORMAT_VERSION`].
///
/// Stability contract (regression-tested in `tests/tests/sepcomp.rs`):
/// structurally equal modules hash equal regardless of how they were
/// built (the AST holds functions in a `BTreeMap`), and the in-repo
/// FxHash is seed-fixed, so the address is stable across runs and
/// platforms with the same format version.
#[must_use]
pub fn module_hash(m: &ClightModule) -> u64 {
    module_hash_with_version(CACHE_FORMAT_VERSION, m)
}

/// One `(stage name, digest)` pair per pipeline stage of one
/// compilation, in pipeline order (the Constprop extension stage is
/// included when present). Digests are FxHashes of the stage's `Debug`
/// form — every IR keeps its functions in `BTreeMap`s, so the rendering
/// is canonical.
#[must_use]
pub fn artifact_digests(arts: &CompilationArtifacts) -> Vec<(String, u64)> {
    fn d<T: std::fmt::Debug>(name: &str, v: &T) -> (String, u64) {
        (name.to_string(), fx_hash_of(format!("{v:?}").as_str()))
    }
    let mut out = vec![
        d("Clight", &arts.clight),
        d("Cminor", &arts.cminor),
        d("CminorSel", &arts.cminorsel),
        d("RTL", &arts.rtl),
        d("RTL/tailcall", &arts.rtl_tailcall),
        d("RTL/renumber", &arts.rtl_renumber),
    ];
    if let Some(cp) = &arts.rtl_constprop {
        out.push(d("RTL/constprop", cp));
    }
    out.extend([
        d("LTL", &arts.ltl),
        d("LTL/tunneled", &arts.ltl_tunneled),
        d("Linear", &arts.linear),
        d("Linear/clean", &arts.linear_clean),
        d("Mach", &arts.mach),
        d("Asm", &arts.asm),
    ]);
    out
}

/// How much of a stored witness is re-established on a cache hit.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RecheckDepth {
    /// The cheap static re-check (the default): parse the stored
    /// witness, require the pass list to match what the pipeline must
    /// have produced, require every obligation discharged and every
    /// verdict `Validated`, and require verdicts consistent with their
    /// obligations. Trusts that the stored witness was *derived from*
    /// the stored artifacts (the source binding is always checked
    /// regardless of depth, and disk-tier artifacts are additionally
    /// digest-matched against a deterministic recompilation).
    #[default]
    Structural,
    /// Additionally re-derive the whole `PipelineWitness` from the
    /// stored artifacts and require it to equal the stored one —
    /// detects a witness swapped between two entries. Costs about as
    /// much as fresh validation, so it is a paranoia mode for audits
    /// and the poisoned-cache tests, not the hot path.
    Full,
}

/// The validation oracle the cache defers to. Implemented over the
/// symbolic translation validator in `ccc_analysis::sepcomp`; the
/// compiler crate only sees this interface (it cannot depend on the
/// analyses).
pub trait Certifier: Send + Sync {
    /// Fully validates freshly compiled artifacts, returning the
    /// serialized witness to store.
    ///
    /// # Errors
    ///
    /// Describes the rejected passes when validation fails — the
    /// compilation result must then not be used.
    fn certify(&self, arts: &CompilationArtifacts) -> Result<String, String>;

    /// Statically re-checks a stored witness against stored artifacts
    /// on a cache hit (no recompilation). A [`RecheckDepth::Full`]
    /// re-check must subsume the [`RecheckDepth::Structural`] one — the
    /// cache records a passing `Full` verdict as the slot's structural
    /// admission.
    ///
    /// # Errors
    ///
    /// Describes why the entry cannot be trusted; the cache evicts it
    /// and recompiles.
    fn recheck(
        &self,
        arts: &CompilationArtifacts,
        witness_json: &str,
        depth: RecheckDepth,
    ) -> Result<(), String>;
}

/// A [`Certifier`] that certifies everything with an empty witness and
/// re-checks nothing. Baseline for unit tests and for benchmarking the
/// pure compilation cost; never use it where correctness matters.
#[derive(Clone, Copy, Default, Debug)]
pub struct TrustingCertifier;

impl Certifier for TrustingCertifier {
    fn certify(&self, _arts: &CompilationArtifacts) -> Result<String, String> {
        Ok(String::new())
    }

    fn recheck(
        &self,
        _arts: &CompilationArtifacts,
        _witness_json: &str,
        _depth: RecheckDepth,
    ) -> Result<(), String> {
        Ok(())
    }
}

/// A failure of [`CompileCache::compile_cached`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CacheError {
    /// The pipeline itself failed.
    Compile(CompileError),
    /// The pipeline succeeded but the certifier rejected the fresh
    /// compilation (a miscompilation — nothing was cached).
    Certify(String),
    /// The disk tier could not be written.
    Io(String),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Compile(e) => write!(f, "compilation failed: {e}"),
            CacheError::Certify(e) => write!(f, "fresh compilation rejected: {e}"),
            CacheError::Io(e) => write!(f, "cache disk tier: {e}"),
        }
    }
}

impl std::error::Error for CacheError {}

/// How a [`CachedCompilation`] was obtained.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CacheOutcome {
    /// Served from the memory tier: source binding checked on this
    /// request, stored witness statically re-checked on the slot's
    /// first hit (the admitted verdict is reused until the slot is
    /// replaced), no recompilation.
    Hit,
    /// Served via the disk tier: the pipeline was re-run
    /// (deterministically), every stage digest matched the stored
    /// entry, and the stored witness was re-checked — certification was
    /// skipped.
    DiskHit,
    /// Nothing cached: compiled and certified from scratch.
    Miss,
    /// A cached entry existed but failed re-validation (poisoned,
    /// corrupt, or stale); it was evicted and the module was compiled
    /// and certified from scratch. The payload says what was wrong with
    /// the rejected entry.
    Rejected(String),
}

impl CacheOutcome {
    /// True when the expensive certify step was skipped (memory or disk
    /// hit).
    #[must_use]
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheOutcome::Hit | CacheOutcome::DiskHit)
    }
}

/// One compile-and-validate result, however it was obtained. The
/// artifacts and witness of a hit are bit-identical to what a cold
/// build produces (asserted by the sepcomp battery).
#[derive(Clone, Debug)]
pub struct CachedCompilation {
    /// The content address the result is filed under.
    pub hash: u64,
    /// Every intermediate program, shared with the cache slot it was
    /// served from (hits must not pay a deep artifact clone).
    pub arts: Arc<CompilationArtifacts>,
    /// The serialized `PipelineWitness` ([`Certifier::certify`] output).
    pub witness_json: String,
    /// How the result was obtained.
    pub outcome: CacheOutcome,
}

/// One stored cache entry (exposed so tests can inject poisoned
/// entries).
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// [`module_hash`] of the source at store time.
    pub module_hash: u64,
    /// The full artifacts (shared, so planting and serving entries
    /// never deep-copies the IRs).
    pub arts: Arc<CompilationArtifacts>,
    /// The serialized witness.
    pub witness_json: String,
    /// [`artifact_digests`] of `arts` at store time.
    pub digests: Vec<(String, u64)>,
}

/// A memory-tier slot: the public [`CacheEntry`] plus its admission
/// record.
///
/// `admitted` caches the certifier's structural verdict over
/// `entry.witness_json`. It is `None` until the stored witness has been
/// parsed and structurally re-checked once, and every path that can
/// change a slot ([`CompileCache::put_entry`], a fresh insert, a disk
/// promotion) starts a new admission, so a cached verdict always refers
/// to exactly the witness bytes stored beside it: the map owns its
/// slots behind the cache mutex and nothing else can mutate them. This
/// is what makes warm hits ~20x cheaper than a cold compile+certify —
/// the full witness parse is paid once per admission, not once per hit.
struct MemEntry {
    entry: CacheEntry,
    admitted: Option<Result<(), String>>,
}

/// What a disk entry stores: everything but the artifacts.
struct DiskEntry {
    module_hash: u64,
    digests: Vec<(String, u64)>,
    witness_json: String,
}

/// Counters accumulated by one [`CompileCache`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Memory-tier hits.
    pub hits: u64,
    /// Disk-tier hits (recompiled, digest-matched, certify skipped).
    pub disk_hits: u64,
    /// Full compiles + certifications.
    pub misses: u64,
    /// Entries evicted because re-validation failed.
    pub rejected: u64,
    /// Per-module interference certificates served from the cache and
    /// successfully re-checked by their trusted checker (the analysis
    /// layer owns the check; the cache only stores and counts).
    pub cert_hits: u64,
    /// Certificates freshly inferred and stored (either not cached, or
    /// cached but rejected by the re-check and evicted).
    pub cert_misses: u64,
}

/// The content-addressed compilation cache. Thread-safe: the batch
/// service shares one instance across all workers.
pub struct CompileCache {
    pipeline: fn(&ClightModule) -> Result<CompilationArtifacts, CompileError>,
    mem: Mutex<FxHashMap<u64, MemEntry>>,
    certs: Mutex<FxHashMap<u64, String>>,
    disk: Option<PathBuf>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    cert_hits: AtomicU64,
    cert_misses: AtomicU64,
}

impl std::fmt::Debug for CompileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileCache")
            .field("entries", &self.len())
            .field("disk", &self.disk)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for CompileCache {
    fn default() -> CompileCache {
        CompileCache::new()
    }
}

impl CompileCache {
    /// A memory-only cache over the standard pipeline.
    #[must_use]
    pub fn new() -> CompileCache {
        CompileCache::with_pipeline(compile_with_artifacts)
    }

    /// A memory-only cache over an explicit pipeline (e.g.
    /// `compile_optimized_with_artifacts` for the Constprop extension).
    #[must_use]
    pub fn with_pipeline(
        pipeline: fn(&ClightModule) -> Result<CompilationArtifacts, CompileError>,
    ) -> CompileCache {
        CompileCache {
            pipeline,
            mem: Mutex::new(FxHashMap::default()),
            certs: Mutex::new(FxHashMap::default()),
            disk: None,
            hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            cert_hits: AtomicU64::new(0),
            cert_misses: AtomicU64::new(0),
        }
    }

    /// Attaches an on-disk tier rooted at `dir` (created if missing).
    /// The conventional location is [`default_disk_dir`].
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn with_disk(mut self, dir: impl Into<PathBuf>) -> std::io::Result<CompileCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        self.disk = Some(dir);
        Ok(self)
    }

    /// The file a given content address persists to, when a disk tier
    /// is attached (exposed so the poisoned-cache tests can corrupt it).
    #[must_use]
    pub fn disk_path(&self, hash: u64) -> Option<PathBuf> {
        self.disk
            .as_ref()
            .map(|d| d.join(format!("{hash:016x}.ccc")))
    }

    /// Number of entries in the memory tier.
    #[must_use]
    pub fn len(&self) -> usize {
        self.mem.lock().expect("cache lock").len()
    }

    /// True when the memory tier is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            cert_hits: self.cert_hits.load(Ordering::Relaxed),
            cert_misses: self.cert_misses.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the hit/miss counters (the bench does this between
    /// phases).
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.disk_hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.rejected.store(0, Ordering::Relaxed);
        self.cert_hits.store(0, Ordering::Relaxed);
        self.cert_misses.store(0, Ordering::Relaxed);
    }

    /// The stored entry for `hash`, if any (test hook).
    #[must_use]
    pub fn entry(&self, hash: u64) -> Option<CacheEntry> {
        self.mem
            .lock()
            .expect("cache lock")
            .get(&hash)
            .map(|me| me.entry.clone())
    }

    /// Overwrites the entry for `entry.module_hash` (test hook — this
    /// is how the poisoning tests plant corrupted witnesses and swapped
    /// artifacts). The new slot starts un-admitted: the next hit must
    /// fully parse and re-check the stored witness.
    pub fn put_entry(&self, entry: CacheEntry) {
        self.mem.lock().expect("cache lock").insert(
            entry.module_hash,
            MemEntry {
                entry,
                admitted: None,
            },
        );
    }

    /// Drops `hash` from both tiers (compilation entry and any stored
    /// certificate).
    pub fn evict(&self, hash: u64) {
        self.mem.lock().expect("cache lock").remove(&hash);
        self.remove_disk(hash);
        self.cert_evict(hash);
    }

    /// Drops every memory-tier entry, keeping the disk tier (the bench
    /// uses this to exercise the disk path).
    pub fn clear_memory(&self) {
        self.mem.lock().expect("cache lock").clear();
        self.certs.lock().expect("cert lock").clear();
    }

    // -- Certificate side-store ------------------------------------------
    //
    // Per-module interference certificates (`ccc-analysis::rg_cert`)
    // ride the same content-addressed cache: keyed by `module_hash`,
    // memory tier + one `.rgc` file per entry on the disk tier. The
    // cache stores opaque single-line JSON and counts hits/misses; the
    // *trusted re-check* of a served certificate is the analysis
    // layer's job (same inversion as [`Certifier`] — the compiler crate
    // cannot depend on the analyses), which is why admission counting
    // is explicit ([`Self::note_cert_hit`]) rather than implicit in
    // [`Self::cert_get`].

    /// The file a certificate for `hash` persists to, when a disk tier
    /// is attached (exposed so poisoning tests can corrupt it).
    #[must_use]
    pub fn cert_disk_path(&self, hash: u64) -> Option<PathBuf> {
        self.disk
            .as_ref()
            .map(|d| d.join(format!("{hash:016x}.rgc")))
    }

    /// The stored certificate JSON for `hash`, memory tier first, then
    /// disk (promoted into memory on a disk read). The caller must
    /// re-check it before trusting it, then report the admission via
    /// [`Self::note_cert_hit`] / [`Self::note_cert_miss`].
    #[must_use]
    pub fn cert_get(&self, hash: u64) -> Option<String> {
        if let Some(j) = self.certs.lock().expect("cert lock").get(&hash) {
            return Some(j.clone());
        }
        let path = self.cert_disk_path(hash)?;
        let text = std::fs::read_to_string(path).ok()?;
        let mut lines = text.lines();
        let header = format!("ccc-cert {CACHE_FORMAT_VERSION}");
        if lines.next() != Some(header.as_str()) {
            return None;
        }
        let json = lines.next()?.to_string();
        self.certs
            .lock()
            .expect("cert lock")
            .insert(hash, json.clone());
        Some(json)
    }

    /// Stores a certificate for `hash` in both tiers. `json` must be
    /// single-line (the serializer escapes newlines); a multi-line
    /// document is stored in memory only.
    pub fn cert_put(&self, hash: u64, json: &str) {
        self.certs
            .lock()
            .expect("cert lock")
            .insert(hash, json.to_string());
        if json.contains('\n') {
            return;
        }
        if let Some(path) = self.cert_disk_path(hash) {
            let tmp = path.with_extension("rgc.tmp");
            let body = format!("ccc-cert {CACHE_FORMAT_VERSION}\n{json}\n");
            if std::fs::write(&tmp, body).is_ok() {
                let _ = std::fs::rename(&tmp, &path);
            }
        }
    }

    /// Drops the certificate for `hash` from both tiers.
    pub fn cert_evict(&self, hash: u64) {
        self.certs.lock().expect("cert lock").remove(&hash);
        if let Some(p) = self.cert_disk_path(hash) {
            let _ = std::fs::remove_file(p);
        }
    }

    /// Records a served-and-re-checked certificate (counted in
    /// [`CacheStats::cert_hits`]).
    pub fn note_cert_hit(&self) {
        self.cert_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a freshly inferred certificate (counted in
    /// [`CacheStats::cert_misses`]).
    pub fn note_cert_miss(&self) {
        self.cert_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Compiles `m` through the cache. On a hit the stored entry is
    /// re-validated per the module-level trust discipline before being
    /// served; a rejected entry is evicted and the module recompiled.
    ///
    /// # Errors
    ///
    /// [`CacheError::Compile`] when the pipeline fails,
    /// [`CacheError::Certify`] when a *fresh* compilation fails
    /// validation, [`CacheError::Io`] when the disk tier cannot be
    /// written. A poisoned cache entry is never an error — it degrades
    /// to recompilation ([`CacheOutcome::Rejected`]).
    pub fn compile_cached(
        &self,
        m: &ClightModule,
        certifier: &dyn Certifier,
        depth: RecheckDepth,
    ) -> Result<CachedCompilation, CacheError> {
        let hash = module_hash(m);
        let mut rejection: Option<String> = None;

        // Memory tier: artifacts + witness are in hand; re-check, never
        // recompile. The source binding runs on every hit; the witness
        // re-check runs on first admission of a slot and its verdict is
        // reused until the slot is replaced (see [`MemEntry`]). No
        // digest recompute here: the in-memory artifacts are the very
        // values the digests were derived from at insert time, so
        // re-hashing them compares a value against itself — cross-entry
        // artifact swaps are what the source binding catches. The disk
        // tier, whose artifacts are *recompiled*, does match digests.
        {
            let mut mem = self.mem.lock().expect("cache lock");
            if let Some(me) = mem.get_mut(&hash) {
                if me.entry.module_hash != hash || me.entry.arts.clight != *m {
                    rejection = Some("stored source does not match requested module".to_string());
                } else {
                    let verdict = match depth {
                        // Paranoia depth re-derives per hit, always.
                        RecheckDepth::Full => {
                            certifier.recheck(&me.entry.arts, &me.entry.witness_json, depth)
                        }
                        RecheckDepth::Structural => match &me.admitted {
                            Some(v) => v.clone(),
                            None => {
                                let v = certifier.recheck(
                                    &me.entry.arts,
                                    &me.entry.witness_json,
                                    depth,
                                );
                                me.admitted = Some(v.clone());
                                v
                            }
                        },
                    };
                    match verdict {
                        Ok(()) => {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            return Ok(CachedCompilation {
                                hash,
                                arts: me.entry.arts.clone(),
                                witness_json: me.entry.witness_json.clone(),
                                outcome: CacheOutcome::Hit,
                            });
                        }
                        Err(why) => rejection = Some(why),
                    }
                }
            }
        }
        if rejection.is_some() {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            self.evict(hash);
        }

        // Disk tier: witness + digests only; recompile deterministically
        // and bind the stored witness to the fresh artifacts through the
        // digests.
        if rejection.is_none() && self.disk.is_some() {
            match self.load_disk(hash) {
                Ok(None) => {}
                Ok(Some(stored)) => {
                    let arts = Arc::new((self.pipeline)(m).map_err(CacheError::Compile)?);
                    let digests = artifact_digests(&arts);
                    if stored.module_hash != hash {
                        rejection = Some("disk entry module hash mismatch".to_string());
                    } else if stored.digests != digests {
                        rejection =
                            Some("disk entry stage digests do not match recompilation".to_string());
                    } else if let Err(why) = certifier.recheck(&arts, &stored.witness_json, depth) {
                        rejection = Some(why);
                    } else {
                        self.disk_hits.fetch_add(1, Ordering::Relaxed);
                        // The recheck above ran against these exact
                        // artifacts and witness bytes, so the promoted
                        // slot is already admitted.
                        self.mem.lock().expect("cache lock").insert(
                            hash,
                            MemEntry {
                                entry: CacheEntry {
                                    module_hash: hash,
                                    arts: arts.clone(),
                                    witness_json: stored.witness_json.clone(),
                                    digests,
                                },
                                admitted: Some(Ok(())),
                            },
                        );
                        return Ok(CachedCompilation {
                            hash,
                            arts,
                            witness_json: stored.witness_json,
                            outcome: CacheOutcome::DiskHit,
                        });
                    }
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    self.remove_disk(hash);
                }
                Err(why) => {
                    rejection = Some(why);
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    self.remove_disk(hash);
                }
            }
        }

        // Miss (or poisoned entry just evicted): full compile + certify.
        let arts = Arc::new((self.pipeline)(m).map_err(CacheError::Compile)?);
        let witness_json = certifier.certify(&arts).map_err(CacheError::Certify)?;
        let digests = artifact_digests(&arts);
        let entry = CacheEntry {
            module_hash: hash,
            arts: arts.clone(),
            witness_json: witness_json.clone(),
            digests,
        };
        self.store_disk(&entry)?;
        // The witness was derived by `certify` from these exact
        // artifacts just now, so the slot is admitted on insert —
        // re-parsing our own serialization would re-establish nothing.
        // Entries of out-of-process provenance (disk, `put_entry`) are
        // the ones that must earn admission through a full parse.
        self.mem.lock().expect("cache lock").insert(
            hash,
            MemEntry {
                entry,
                admitted: Some(Ok(())),
            },
        );
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(CachedCompilation {
            hash,
            arts,
            witness_json,
            outcome: match rejection {
                Some(why) => CacheOutcome::Rejected(why),
                None => CacheOutcome::Miss,
            },
        })
    }

    fn remove_disk(&self, hash: u64) {
        if let Some(p) = self.disk_path(hash) {
            let _ = std::fs::remove_file(p);
        }
    }

    /// Serializes `entry` into the line-based disk format. Witness JSON
    /// is single-line by construction (`escape_into` escapes newlines),
    /// so one `witness` line always suffices; a defensive check guards
    /// the format anyway.
    fn store_disk(&self, entry: &CacheEntry) -> Result<(), CacheError> {
        let Some(path) = self.disk_path(entry.module_hash) else {
            return Ok(());
        };
        if entry.witness_json.contains('\n') {
            return Err(CacheError::Io(
                "witness JSON is not single-line".to_string(),
            ));
        }
        let mut out = format!("ccc-cache {CACHE_FORMAT_VERSION}\n");
        out.push_str(&format!("module {:016x}\n", entry.module_hash));
        for (name, d) in &entry.digests {
            out.push_str(&format!("digest {name} {d:016x}\n"));
        }
        out.push_str(&format!("witness {}\n", entry.witness_json));
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, out).map_err(|e| CacheError::Io(e.to_string()))?;
        std::fs::rename(&tmp, &path).map_err(|e| CacheError::Io(e.to_string()))
    }

    /// Loads and syntactically checks the disk entry for `hash`.
    /// `Ok(None)` when absent; `Err` describes a malformed file (which
    /// the caller treats as a poisoned entry, not a hard failure).
    fn load_disk(&self, hash: u64) -> Result<Option<DiskEntry>, String> {
        let Some(path) = self.disk_path(hash) else {
            return Ok(None);
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("unreadable disk entry: {e}")),
        };
        let mut lines = text.lines();
        match lines.next() {
            Some(l) if l == format!("ccc-cache {CACHE_FORMAT_VERSION}") => {}
            other => return Err(format!("bad disk entry header {other:?}")),
        }
        let module_hash = match lines.next().and_then(|l| l.strip_prefix("module ")) {
            Some(h) => {
                u64::from_str_radix(h, 16).map_err(|e| format!("bad module hash {h:?}: {e}"))?
            }
            None => return Err("missing module line".to_string()),
        };
        let mut digests = Vec::new();
        let mut witness_json = None;
        for l in lines {
            if let Some(rest) = l.strip_prefix("digest ") {
                let (name, d) = rest
                    .rsplit_once(' ')
                    .ok_or_else(|| format!("bad digest line {l:?}"))?;
                let d = u64::from_str_radix(d, 16).map_err(|e| format!("bad digest {d:?}: {e}"))?;
                digests.push((name.to_string(), d));
            } else if let Some(w) = l.strip_prefix("witness ") {
                if witness_json.replace(w.to_string()).is_some() {
                    return Err("duplicate witness line".to_string());
                }
            } else {
                return Err(format!("unrecognized disk entry line {l:?}"));
            }
        }
        let witness_json = witness_json.ok_or_else(|| "missing witness line".to_string())?;
        Ok(Some(DiskEntry {
            module_hash,
            digests,
            witness_json,
        }))
    }
}

/// The conventional disk-tier location, `target/ccc-cache/`.
#[must_use]
pub fn default_disk_dir() -> PathBuf {
    Path::new("target").join("ccc-cache")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_clight::ast::{Expr, Function, Stmt};

    fn module(k: i64) -> ClightModule {
        ClightModule::new([(
            "f",
            Function::simple(Stmt::Return(Some(Expr::add(
                Expr::Const(k),
                Expr::Const(2),
            )))),
        )])
    }

    #[test]
    fn hit_after_miss_returns_identical_artifacts() {
        let cache = CompileCache::new();
        let m = module(40);
        let a = cache
            .compile_cached(&m, &TrustingCertifier, RecheckDepth::Structural)
            .expect("compiles");
        assert_eq!(a.outcome, CacheOutcome::Miss);
        let b = cache
            .compile_cached(&m, &TrustingCertifier, RecheckDepth::Structural)
            .expect("compiles");
        assert_eq!(b.outcome, CacheOutcome::Hit);
        assert_eq!(a.arts, b.arts);
        assert_eq!(a.hash, b.hash);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn distinct_modules_get_distinct_addresses() {
        assert_ne!(module_hash(&module(1)), module_hash(&module(2)));
        assert_eq!(module_hash(&module(1)), module_hash(&module(1)));
    }

    #[test]
    fn version_bump_invalidates_addresses() {
        let m = module(7);
        assert_ne!(
            module_hash_with_version(CACHE_FORMAT_VERSION, &m),
            module_hash_with_version(CACHE_FORMAT_VERSION + 1, &m)
        );
    }

    #[test]
    fn swapped_artifacts_are_rejected_by_the_source_binding() {
        let cache = CompileCache::new();
        let m1 = module(1);
        let m2 = module(2);
        let a1 = cache
            .compile_cached(&m1, &TrustingCertifier, RecheckDepth::Structural)
            .expect("compiles");
        let a2 = cache
            .compile_cached(&m2, &TrustingCertifier, RecheckDepth::Structural)
            .expect("compiles");
        // Plant m2's artifacts under m1's address.
        let mut poisoned = cache.entry(a2.hash).expect("entry");
        poisoned.module_hash = a1.hash;
        cache.put_entry(poisoned);
        let again = cache
            .compile_cached(&m1, &TrustingCertifier, RecheckDepth::Structural)
            .expect("recovers by recompiling");
        assert!(matches!(again.outcome, CacheOutcome::Rejected(_)));
        assert_eq!(again.arts, a1.arts);
    }
}
