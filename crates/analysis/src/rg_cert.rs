//! Static rely-guarantee certification: per-module interference
//! certificates checked at link time.
//!
//! The dynamic RG layer (`ccc_core::rg`) establishes the paper's
//! rely/guarantee conditions by bounded exploration, so nothing
//! interference-related can be cached per module. This pass makes the
//! RG story *static and separate*: each module carries an [`RgCert`] —
//! a checkable summary of what it guarantees (its possible actions on
//! shared regions) and what it relies on (the complement: every
//! environment action that does not conflict with its own) — and
//! linking discharges pairwise compatibility without re-exploring the
//! composed program.
//!
//! A **guarantee** is a set of [`ActionSummary`]s: location region ×
//! access kind × lock/atomic context × performing threads, derived from
//! the Eraser-style lockset walk ([`crate::lockset`]), which itself
//! rides on the footprint inference ([`crate::clight_fp`]) and the
//! region lattice ([`crate::region`]). Thread-private regions
//! ([`Region::StackLocal`]) never participate in cross-thread
//! interference and are excluded by construction. The **rely** is
//! derived as the complement over shared regions: one [`RelyClause`]
//! per guarantee action, stating the exact synchronization an
//! environment access overlapping that action must carry.
//!
//! **Trust discipline** (the `interval_facts_violation` pattern): the
//! inference ([`infer_rg_cert`]) is an untrusted solver. Its output —
//! possibly deserialized from the witness cache, possibly produced by a
//! buggy or malicious certifier — is only admitted after the
//! independent checker [`rg_cert_violation`] re-establishes the
//! soundness conditions against the module itself:
//!
//! 1. the certificate is content-bound to the module (`module_hash`);
//! 2. **coverage** — every abstract access the module can perform is
//!    over-approximated by some guarantee action (region ⊒, write ⊒,
//!    claimed locks ⊆ held locks, claimed atomicity ⊑ actual, thread ∈
//!    claimed threads);
//! 3. the rely is exactly the canonical complement of the guarantee;
//! 4. the `self_stable` / `scoped` verdict bits are implied by the
//!    guarantee.
//!
//! A certificate that passes the checker is sound *however it was
//! produced*; the seeded-unsoundness mutant [`infer_rg_cert_mutated`]
//! (drops an action summary) exists so the test battery can demonstrate
//! the checker actually kills bad certifiers.
//!
//! Link-time compatibility ([`rg_incompatibilities`]) is the paper's
//! side condition made static: every module's guarantee must be allowed
//! by every other module's rely. Together with per-module
//! `self_stable`, this yields a compositional DRF/stability verdict for
//! the whole program with no exploration — cross-validated against
//! `ccc_core::race::check_drf` and the dynamic `rg` checker in
//! `tests/` and the fuzz oracle.

use crate::diag::Diagnostic;
use crate::lockset::{check_static_race, Access, LockModel};
use crate::region::Region;
use crate::transval::json::{escape_into, parse, Json};
use ccc_clight::ClightModule;
use ccc_compiler::module_hash;
use std::collections::{BTreeMap, BTreeSet};

/// The diagnostic pass name every rejection reports under.
pub const RG_CERT_PASS: &str = "RgCert";

/// One action summary of a module's guarantee: the module may perform
/// accesses of this shape, and promises nothing else (outside
/// thread-private memory).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct ActionSummary {
    /// The abstract region accessed.
    pub region: Region,
    /// True when the action may write (a `write: true` summary also
    /// covers reads — it is the more conservative claim).
    pub write: bool,
    /// Locks the module promises to hold at every such access
    /// (claiming *fewer* locks than actually held is sound: it only
    /// makes the action conflict with more environment actions).
    pub locks: BTreeSet<String>,
    /// True when every such access happens inside an atomic block.
    pub atomic: bool,
    /// Module-local thread (entry) indices that may perform the action
    /// (claiming *more* threads is sound).
    pub threads: BTreeSet<usize>,
}

/// One clause of a module's rely: the exact synchronization an
/// environment access must carry to be permitted near one of the
/// module's own actions. Structurally an [`ActionSummary`] without the
/// thread set — the environment's threads are all foreign.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct RelyClause {
    /// The module's own region this clause protects.
    pub region: Region,
    /// Whether the module's own action here may write.
    pub write: bool,
    /// Locks the module holds at its own action.
    pub locks: BTreeSet<String>,
    /// Whether the module's own action is atomic.
    pub atomic: bool,
}

/// Do two action shapes conflict (the static analogue of a data race
/// between them)? Mirrors `lockset::may_race`: both touch a common
/// address cross-thread, at least one writes, they are not both atomic,
/// and they share no lock.
#[must_use]
pub fn conflicts(
    (ar, aw, al, aa): (&Region, bool, &BTreeSet<String>, bool),
    (br, bw, bl, ba): (&Region, bool, &BTreeSet<String>, bool),
) -> bool {
    (aw || bw) && !(aa && ba) && al.is_disjoint(bl) && ar.may_overlap_cross_thread(br)
}

impl ActionSummary {
    fn shape(&self) -> (&Region, bool, &BTreeSet<String>, bool) {
        (&self.region, self.write, &self.locks, self.atomic)
    }
}

impl RelyClause {
    /// Does this rely clause allow an environment action of the given
    /// summary shape? Allowed iff it cannot conflict with the module's
    /// own action the clause describes.
    #[must_use]
    pub fn allows(&self, env: &ActionSummary) -> bool {
        !conflicts(
            (&self.region, self.write, &self.locks, self.atomic),
            env.shape(),
        )
    }
}

/// A static per-module rely-guarantee certificate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RgCert {
    /// Human-readable module (unit) name, for diagnostics.
    pub module: String,
    /// Content address of the certified module
    /// ([`ccc_compiler::module_hash`]); the checker refuses a
    /// certificate presented for a different module.
    pub module_hash: u64,
    /// The thread entry points the certificate covers, in thread order.
    pub entries: Vec<String>,
    /// The guarantee: every action the module may perform on
    /// non-thread-private memory, over-approximated.
    pub guarantee: Vec<ActionSummary>,
    /// The rely: the canonical complement of the guarantee (one clause
    /// per guarantee action shape).
    pub rely: Vec<RelyClause>,
    /// True when the module's own threads cannot interfere with each
    /// other (module-local stability — pairwise non-conflict of the
    /// guarantee across distinct threads).
    pub self_stable: bool,
    /// True when every guarantee region is provably within the shared
    /// globals or thread-private memory (no ⊤ region) — the static
    /// analogue of the dynamic `HG` scoping condition of
    /// `ccc_core::rg`.
    pub scoped: bool,
}

impl RgCert {
    /// The static per-module verdict this certificate carries: stable
    /// iff the module's own threads cannot interfere. Whole-program
    /// stability additionally needs [`rg_incompatibilities`] to come
    /// back empty.
    #[must_use]
    pub fn is_stable(&self) -> bool {
        self.self_stable
    }
}

/// Derives the canonical rely from a guarantee: one clause per distinct
/// guarantee action shape, sorted and deduplicated. Any environment
/// action every clause allows is compatible with the module.
#[must_use]
pub fn derive_rely(guarantee: &[ActionSummary]) -> Vec<RelyClause> {
    let mut out: Vec<RelyClause> = guarantee
        .iter()
        .map(|s| RelyClause {
            region: s.region.clone(),
            write: s.write,
            locks: s.locks.clone(),
            atomic: s.atomic,
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Can a pair of distinct threads perform actions `a` and `b`
/// respectively? (For `a == b` positionally, the summary must name two
/// threads.)
fn distinct_threads(a: &ActionSummary, b: &ActionSummary, same: bool) -> bool {
    if same {
        a.threads.len() >= 2
    } else {
        // Only impossible when both are the same singleton thread.
        !(a.threads.len() == 1 && a.threads == b.threads)
    }
}

/// Module-local stability: no two guarantee actions of *distinct*
/// threads of this module conflict.
#[must_use]
pub fn self_stable_of(guarantee: &[ActionSummary]) -> bool {
    for (i, a) in guarantee.iter().enumerate() {
        for (j, b) in guarantee.iter().enumerate().skip(i) {
            if distinct_threads(a, b, i == j) && conflicts(a.shape(), b.shape()) {
                return false;
            }
        }
    }
    true
}

/// Scoping: every guarantee region stays within the shared-global or
/// thread-private areas (no ⊤).
#[must_use]
pub fn scoped_of(guarantee: &[ActionSummary]) -> bool {
    guarantee.iter().all(|s| s.region != Region::Top)
}

/// Folds an abstract access stream into a guarantee: group by (region,
/// kind, lock/atomic context), merge thread sets, drop thread-private
/// regions (they cannot participate in any cross-thread conflict by
/// [`Region::may_overlap_cross_thread`]).
#[must_use]
pub fn summarize_accesses(accesses: &[Access]) -> Vec<ActionSummary> {
    let mut grouped: BTreeMap<(Region, bool, BTreeSet<String>, bool), BTreeSet<usize>> =
        BTreeMap::new();
    for a in accesses {
        if a.region == Region::StackLocal {
            continue;
        }
        grouped
            .entry((a.region.clone(), a.write, a.locks.clone(), a.atomic))
            .or_default()
            .insert(a.thread);
    }
    grouped
        .into_iter()
        .map(|((region, write, locks, atomic), threads)| ActionSummary {
            region,
            write,
            locks,
            atomic,
            threads,
        })
        .collect()
}

/// The untrusted solver: infers a rely-guarantee certificate for one
/// module from the lockset walk's abstract access stream. The result
/// must still pass [`rg_cert_violation`] before anything may rely on
/// it.
#[must_use]
pub fn infer_rg_cert(
    name: &str,
    module: &ClightModule,
    entries: &[String],
    model: &LockModel,
) -> RgCert {
    let report = check_static_race(module, entries, model);
    let guarantee = summarize_accesses(&report.accesses);
    let rely = derive_rely(&guarantee);
    let self_stable = self_stable_of(&guarantee);
    let scoped = scoped_of(&guarantee);
    RgCert {
        module: name.to_string(),
        module_hash: module_hash(module),
        entries: entries.to_vec(),
        guarantee,
        rely,
        self_stable,
        scoped,
    }
}

/// **Seeded-unsoundness mutant** (test battery target, never a real
/// entry point): a certifier that silently drops the last action
/// summary from the guarantee and re-derives the rest of the
/// certificate from the truncated guarantee. The trusted checker must
/// reject its output on any module with a non-empty guarantee — the
/// dropped action is exactly an uncovered access.
#[doc(hidden)]
#[must_use]
pub fn infer_rg_cert_mutated(
    name: &str,
    module: &ClightModule,
    entries: &[String],
    model: &LockModel,
) -> RgCert {
    let mut cert = infer_rg_cert(name, module, entries, model);
    cert.guarantee.pop();
    cert.rely = derive_rely(&cert.guarantee);
    cert.self_stable = self_stable_of(&cert.guarantee);
    cert.scoped = scoped_of(&cert.guarantee);
    cert
}

/// Does summary `s` cover abstract access `a`? Every field must be on
/// the conservative side: region ⊒ (lub-subsumption in the region
/// lattice), write ⊒, claimed locks ⊆ held locks, claimed atomicity
/// only if actually atomic, performing thread claimed.
fn covers(s: &ActionSummary, a: &Access) -> bool {
    a.region.lub(&s.region) == s.region
        && (s.write || !a.write)
        && s.locks.is_subset(&a.locks)
        && (!s.atomic || a.atomic)
        && s.threads.contains(&a.thread)
}

fn reject(module: &str, msg: impl Into<String>) -> Diagnostic {
    Diagnostic::new(RG_CERT_PASS, module, msg)
}

/// The trusted certificate checker. Re-establishes every soundness
/// condition of `cert` against the module itself; the certificate's
/// provenance (fresh inference, cache, hand-written) is irrelevant.
/// Returns the first violation as a structured [`Diagnostic`]
/// (`[RgCert] module: reason`), or `None` when the certificate is
/// admissible.
#[must_use]
pub fn rg_cert_violation(
    cert: &RgCert,
    module: &ClightModule,
    entries: &[String],
    model: &LockModel,
) -> Option<Diagnostic> {
    let hash = module_hash(module);
    if cert.module_hash != hash {
        return Some(reject(
            &cert.module,
            format!(
                "certificate is bound to module {:016x}, presented module is {hash:016x}",
                cert.module_hash
            ),
        ));
    }
    if cert.entries != entries {
        return Some(reject(
            &cert.module,
            format!(
                "certificate covers entries {:?}, presented program runs {entries:?}",
                cert.entries
            ),
        ));
    }
    // Coverage: re-collect the abstract access stream and require every
    // non-thread-private access to be over-approximated by some
    // guarantee action. This is what kills a certifier that drops (or
    // weakens) an action summary.
    let report = check_static_race(module, entries, model);
    for a in &report.accesses {
        if a.region == Region::StackLocal {
            continue;
        }
        if !cert.guarantee.iter().any(|s| covers(s, a)) {
            return Some(
                reject(
                    &cert.module,
                    format!(
                        "uncovered access: thread {} {} {} in `{}` (locks {:?}, atomic {})",
                        a.thread,
                        if a.write { "writes" } else { "reads" },
                        a.region,
                        a.func,
                        a.locks,
                        a.atomic
                    ),
                )
                .at(u32::try_from(a.thread).unwrap_or(u32::MAX)),
            );
        }
    }
    // The rely must be the canonical complement of the guarantee — a
    // weakened rely would let the link check wrongly admit a peer.
    if cert.rely != derive_rely(&cert.guarantee) {
        return Some(reject(
            &cert.module,
            "rely is not the canonical complement of the guarantee",
        ));
    }
    // Verdict bits must be implied by the (now coverage-checked)
    // guarantee. Claiming *less* than provable is conservative and
    // admissible; claiming more is a rejection.
    if cert.self_stable && !self_stable_of(&cert.guarantee) {
        return Some(reject(
            &cert.module,
            "claims self_stable but the guarantee has conflicting same-module actions",
        ));
    }
    if cert.scoped && !scoped_of(&cert.guarantee) {
        return Some(reject(
            &cert.module,
            "claims scoped but the guarantee contains a ⊤ region",
        ));
    }
    None
}

// ---------------------------------------------------------------------------
// Link-time compatibility
// ---------------------------------------------------------------------------

/// Every way the certificates fail to compose, as diagnostics: a module
/// that is not self-stable, or a pair `(i, j)` where some guarantee
/// action of `j` is not allowed by module `i`'s rely. Empty means the
/// composed program is statically DRF/stable — the whole-program RG
/// verdict, with no exploration.
#[must_use]
pub fn rg_incompatibilities(certs: &[RgCert]) -> Vec<Diagnostic> {
    rg_incompatibilities_inner(certs, None)
}

/// **Seeded-unsoundness mutant** (test battery target, never a real
/// entry point): the link check with one module pair skipped. The
/// differential battery must kill it: on a program where exactly the
/// skipped pair conflicts, this accepts while exploration finds the
/// race.
#[doc(hidden)]
#[must_use]
pub fn rg_incompatibilities_mutated(certs: &[RgCert], skip: (usize, usize)) -> Vec<Diagnostic> {
    rg_incompatibilities_inner(certs, Some(skip))
}

fn rg_incompatibilities_inner(certs: &[RgCert], skip: Option<(usize, usize)>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, c) in certs.iter().enumerate() {
        if !c.self_stable {
            out.push(reject(
                &c.module,
                "module is not self-stable (its own threads may interfere)",
            ));
        }
        for (j, d) in certs.iter().enumerate() {
            if i >= j || skip == Some((i, j)) || skip == Some((j, i)) {
                continue;
            }
            // Symmetric: i's guarantee against j's rely and vice versa.
            // `conflicts` is symmetric, so one direction suffices — but
            // the check is phrased through `RelyClause::allows` to stay
            // literally "every guarantee allowed by every rely".
            for clause in &c.rely {
                for g in &d.guarantee {
                    if !clause.allows(g) {
                        out.push(reject(
                            &c.module,
                            format!(
                                "rely on {} ({}locks {:?}, atomic {}) does not allow `{}` {} it \
                                 (locks {:?}, atomic {})",
                                clause.region,
                                if clause.write { "write, " } else { "" },
                                clause.locks,
                                clause.atomic,
                                d.module,
                                if g.write { "writing" } else { "reading" },
                                g.locks,
                                g.atomic
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Serialization (transval::json machinery, dependency-free)
// ---------------------------------------------------------------------------

fn region_tag(r: &Region) -> String {
    match r {
        Region::Global(g) => format!("g:{g}"),
        Region::AnyGlobal => "*globals".to_string(),
        Region::StackLocal => "*stack".to_string(),
        Region::Top => "*top".to_string(),
    }
}

fn region_from_tag(s: &str) -> Option<Region> {
    match s {
        "*globals" => Some(Region::AnyGlobal),
        "*stack" => Some(Region::StackLocal),
        "*top" => Some(Region::Top),
        _ => s.strip_prefix("g:").map(|g| Region::Global(g.to_string())),
    }
}

fn action_to_json(
    out: &mut String,
    region: &Region,
    write: bool,
    locks: &BTreeSet<String>,
    atomic: bool,
    threads: Option<&BTreeSet<usize>>,
) {
    out.push_str("{\"region\":");
    escape_into(out, &region_tag(region));
    out.push_str(&format!(",\"write\":{write},\"locks\":["));
    for (k, l) in locks.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        escape_into(out, l);
    }
    out.push_str(&format!("],\"atomic\":{atomic}"));
    if let Some(ts) = threads {
        out.push_str(",\"threads\":[");
        for (k, t) in ts.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&t.to_string());
        }
        out.push(']');
    }
    out.push('}');
}

/// Serializes a certificate as a single-line JSON document (the witness
/// cache stores it verbatim; [`rg_cert_from_json`] round-trips it).
#[must_use]
pub fn rg_cert_to_json(c: &RgCert) -> String {
    let mut out = String::from("{\"module\":");
    escape_into(&mut out, &c.module);
    out.push_str(&format!(",\"hash\":\"{:016x}\"", c.module_hash));
    out.push_str(",\"entries\":[");
    for (k, e) in c.entries.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        escape_into(&mut out, e);
    }
    out.push_str(&format!(
        "],\"self_stable\":{},\"scoped\":{},\"guarantee\":[",
        c.self_stable, c.scoped
    ));
    for (k, s) in c.guarantee.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        action_to_json(
            &mut out,
            &s.region,
            s.write,
            &s.locks,
            s.atomic,
            Some(&s.threads),
        );
    }
    out.push_str("],\"rely\":[");
    for (k, r) in c.rely.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        action_to_json(&mut out, &r.region, r.write, &r.locks, r.atomic, None);
    }
    out.push_str("]}");
    out
}

fn sem(module: &str, msg: impl Into<String>) -> Diagnostic {
    reject(module, msg)
}

fn json_str<'a>(j: &'a Json, key: &str, module: &str) -> Result<&'a str, Diagnostic> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| sem(module, format!("missing or non-string `{key}`")))
}

fn json_bool(j: &Json, key: &str, module: &str) -> Result<bool, Diagnostic> {
    match j.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(sem(module, format!("missing or non-bool `{key}`"))),
    }
}

fn json_arr<'a>(j: &'a Json, key: &str, module: &str) -> Result<&'a [Json], Diagnostic> {
    match j.get(key) {
        Some(Json::Arr(a)) => Ok(a),
        _ => Err(sem(module, format!("missing or non-array `{key}`"))),
    }
}

/// The fields of one serialized action: (region, write, locks, atomic,
/// threads).
type ActionFields = (Region, bool, BTreeSet<String>, bool, BTreeSet<usize>);

fn action_from_json(
    j: &Json,
    module: &str,
    with_threads: bool,
) -> Result<ActionFields, Diagnostic> {
    let tag = json_str(j, "region", module)?;
    let region =
        region_from_tag(tag).ok_or_else(|| sem(module, format!("unknown region tag `{tag}`")))?;
    let write = json_bool(j, "write", module)?;
    let atomic = json_bool(j, "atomic", module)?;
    let locks = json_arr(j, "locks", module)?
        .iter()
        .map(|l| {
            l.as_str()
                .map(str::to_string)
                .ok_or_else(|| sem(module, "non-string lock name"))
        })
        .collect::<Result<BTreeSet<_>, _>>()?;
    let threads = if with_threads {
        json_arr(j, "threads", module)?
            .iter()
            .map(|t| {
                t.as_num()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| sem(module, "non-integer thread index"))
            })
            .collect::<Result<BTreeSet<_>, _>>()?
    } else {
        BTreeSet::new()
    };
    Ok((region, write, locks, atomic, threads))
}

/// Deserializes a certificate. Syntax errors arrive as
/// [`crate::transval::json::JsonError`]s routed through
/// [`Diagnostic`] with their byte offset preserved; semantic errors
/// name the offending field.
///
/// # Errors
///
/// A `[RgCert]` diagnostic describing the first problem found.
pub fn rg_cert_from_json(s: &str) -> Result<RgCert, Diagnostic> {
    let j = parse(s).map_err(|e| Diagnostic::from_json_error(RG_CERT_PASS, &e))?;
    let module = json_str(&j, "module", "")?.to_string();
    let hash = json_str(&j, "hash", &module)?;
    let module_hash = u64::from_str_radix(hash, 16)
        .map_err(|_| sem(&module, format!("malformed module hash `{hash}`")))?;
    let entries = json_arr(&j, "entries", &module)?
        .iter()
        .map(|e| {
            e.as_str()
                .map(str::to_string)
                .ok_or_else(|| sem(&module, "non-string entry name"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let self_stable = json_bool(&j, "self_stable", &module)?;
    let scoped = json_bool(&j, "scoped", &module)?;
    let guarantee = json_arr(&j, "guarantee", &module)?
        .iter()
        .map(|a| {
            action_from_json(a, &module, true).map(|(region, write, locks, atomic, threads)| {
                ActionSummary {
                    region,
                    write,
                    locks,
                    atomic,
                    threads,
                }
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let rely = json_arr(&j, "rely", &module)?
        .iter()
        .map(|a| {
            action_from_json(a, &module, false).map(|(region, write, locks, atomic, _)| {
                RelyClause {
                    region,
                    write,
                    locks,
                    atomic,
                }
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RgCert {
        module,
        module_hash,
        entries,
        guarantee,
        rely,
        self_stable,
        scoped,
    })
}

// ---------------------------------------------------------------------------
// Witness-cache integration
// ---------------------------------------------------------------------------

/// How a cached certificate request was served (mirrors
/// `ccc_compiler::cache::CacheOutcome` for the certificate artifact
/// kind).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CertOutcome {
    /// Served from the cache; the stored certificate passed the trusted
    /// re-check against the presented module.
    Hit,
    /// Not cached (or evicted): freshly inferred, checked, and stored.
    Miss,
    /// A stored certificate failed the re-check (poisoned or stale) and
    /// was evicted; the module was re-certified. The payload is the
    /// rejection diagnostic.
    Rejected(String),
}

/// Serves one module's certificate through the witness cache
/// ([`ccc_compiler::cache::CompileCache`]): a stored certificate is
/// parsed and re-admitted only after [`rg_cert_violation`] passes
/// against the *presented* module (solver untrusted, checker trusted —
/// a tampered or stale entry degrades to re-inference, never to
/// acceptance). Hits and misses land in the cache's
/// `cert_hits`/`cert_misses` counters, so the incremental bench can
/// assert that editing 1 of N modules re-infers exactly one
/// certificate.
///
/// # Panics
///
/// Panics if a *freshly inferred* certificate fails its own checker —
/// that is an internal soundness bug, not an input condition.
#[must_use]
pub fn rg_cert_cached(
    name: &str,
    module: &ClightModule,
    entries: &[String],
    model: &LockModel,
    cache: &ccc_compiler::cache::CompileCache,
) -> (RgCert, CertOutcome) {
    let hash = module_hash(module);
    let mut rejection = None;
    if let Some(json) = cache.cert_get(hash) {
        match rg_cert_from_json(&json) {
            Ok(cert) => match rg_cert_violation(&cert, module, entries, model) {
                None => {
                    cache.note_cert_hit();
                    return (cert, CertOutcome::Hit);
                }
                Some(d) => rejection = Some(d.to_string()),
            },
            Err(d) => rejection = Some(d.to_string()),
        }
        cache.cert_evict(hash);
    }
    let cert = infer_rg_cert(name, module, entries, model);
    assert!(
        rg_cert_violation(&cert, module, entries, model).is_none(),
        "freshly inferred certificate for `{name}` failed its own checker"
    );
    cache.cert_put(hash, &rg_cert_to_json(&cert));
    cache.note_cert_miss();
    let outcome = match rejection {
        Some(r) => CertOutcome::Rejected(r),
        None => CertOutcome::Miss,
    };
    (cert, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_clight::gen::gen_concurrent_client;
    use ccc_sync::lock::lock_spec;

    fn model() -> LockModel {
        crate::lockset::infer_lock_model(&lock_spec("L").0)
    }

    #[test]
    fn locked_client_certifies_stable() {
        let (m, _ge, entries) = gen_concurrent_client(5, 3, &["s0", "s1"], false);
        let cert = infer_rg_cert("client", &m, &entries, &model());
        assert!(cert.self_stable, "{:?}", cert.guarantee);
        assert!(cert.scoped);
        assert!(rg_cert_violation(&cert, &m, &entries, &model()).is_none());
        // The summary-level verdict agrees with the access-level one.
        let report = check_static_race(&m, &entries, &model());
        assert!(report.is_drf());
    }

    #[test]
    fn racy_client_certifies_unstable() {
        let (m, _ge, entries) = gen_concurrent_client(5, 2, &["s0"], true);
        let cert = infer_rg_cert("client", &m, &entries, &model());
        assert!(!cert.self_stable);
        // The certificate itself is still valid — it honestly reports
        // the interference.
        assert!(rg_cert_violation(&cert, &m, &entries, &model()).is_none());
        assert!(!check_static_race(&m, &entries, &model()).is_drf());
    }

    #[test]
    fn json_round_trip_is_identity() {
        let (m, _ge, entries) = gen_concurrent_client(9, 2, &["s0", "s1"], false);
        let cert = infer_rg_cert("rt", &m, &entries, &model());
        let back = rg_cert_from_json(&rg_cert_to_json(&cert)).expect("parses");
        assert_eq!(cert, back);
    }

    #[test]
    fn json_syntax_error_carries_offset_diag() {
        let err = rg_cert_from_json("{\"module\":").expect_err("truncated");
        assert_eq!(err.pass, RG_CERT_PASS);
        assert!(err.offset.is_some(), "{err}");
        assert!(err.to_string().contains("byte"), "{err}");
    }

    #[test]
    fn dropped_summary_mutant_is_rejected_by_checker() {
        let (m, _ge, entries) = gen_concurrent_client(3, 2, &["s0"], false);
        let good = infer_rg_cert("m", &m, &entries, &model());
        assert!(!good.guarantee.is_empty());
        let bad = infer_rg_cert_mutated("m", &m, &entries, &model());
        assert_eq!(bad.guarantee.len() + 1, good.guarantee.len());
        let d = rg_cert_violation(&bad, &m, &entries, &model()).expect("checker must reject");
        assert!(d.message.contains("uncovered access"), "{d}");
    }

    #[test]
    fn wrong_module_hash_is_rejected() {
        let (m, _ge, entries) = gen_concurrent_client(3, 2, &["s0"], false);
        let (other, _oge, oentries) = gen_concurrent_client(4, 2, &["s0"], false);
        let cert = infer_rg_cert("m", &m, &entries, &model());
        assert!(rg_cert_violation(&cert, &other, &oentries, &model()).is_some());
    }

    #[test]
    fn incompatible_guarantees_are_flagged_pairwise() {
        // Two single-thread modules both writing the same global with
        // no lock: each is self-stable, the pair conflicts.
        let mk = |seed| {
            let (m, _ge, entries) = gen_concurrent_client(seed, 1, &["shared"], true);
            infer_rg_cert(&format!("u{seed}"), &m, &entries, &model())
        };
        let certs = vec![mk(1), mk(2)];
        assert!(certs.iter().all(RgCert::is_stable));
        let bad = rg_incompatibilities(&certs);
        assert!(!bad.is_empty());
        // The skip-pair mutant silently accepts the same program.
        assert!(rg_incompatibilities_mutated(&certs, (0, 1)).is_empty());
    }

    #[test]
    fn disjoint_modules_are_compatible() {
        let mk = |seed, g: &str| {
            let (m, _ge, entries) = gen_concurrent_client(seed, 1, &[g], false);
            infer_rg_cert("u", &m, &entries, &model())
        };
        let certs = vec![mk(1, "g0"), mk(2, "g1")];
        assert!(rg_incompatibilities(&certs).is_empty());
    }

    #[test]
    fn lock_protected_modules_are_compatible_on_shared_region() {
        let mk = |seed| {
            let (m, _ge, entries) = gen_concurrent_client(seed, 1, &["shared"], false);
            infer_rg_cert("u", &m, &entries, &model())
        };
        let certs = vec![mk(1), mk(2)];
        assert!(
            rg_incompatibilities(&certs).is_empty(),
            "lock-protected writes to a common global must compose"
        );
    }
}
