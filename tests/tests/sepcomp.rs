//! Integration battery for incremental separate compilation: the
//! content-addressed witness cache, its trust discipline, hash
//! stability, the disk tier, and the batch compile-and-validate
//! service.
//!
//! The load-bearing property is *bit-identity*: however a module's
//! result was obtained — cold compile, memory hit, disk hit, or
//! rejected-and-recompiled — the artifacts, the serialized witness and
//! the re-discharged link obligations must equal what a cold full
//! build produces. The proptest battery checks that over random
//! multi-module programs with one random module edited; the
//! deterministic tests poison the cache in every way the trust
//! argument claims to catch.

use ccc_analysis::sepcomp::{
    build_program, build_program_certified, build_workers, check_link_obligations,
    check_link_obligations_with_certs, SepUnit, SepcompCertResult, TransvalCertifier,
};
use ccc_analysis::{infer_lock_model, rg_cert_cached};
use ccc_cimp::CImpModule;
use ccc_clight::ast::ClightModule;
use ccc_compiler::driver::{compile_with_artifacts, id_trans};
use ccc_compiler::{
    module_hash, module_hash_with_version, CacheError, CacheOutcome, Certifier,
    CompilationArtifacts, CompileCache, CompileService, RecheckDepth, ServiceCfg,
    TrustingCertifier, CACHE_FORMAT_VERSION,
};
use ccc_core::mem::GlobalEnv;
use ccc_fuzz::{
    check_cached_vs_fresh_seeded, gen_program, lower_prefixed, parse_program, program_to_text,
    CorpusEntry, FuzzProgram,
};
use ccc_sync::lock::lock_spec;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Units per generated program in the multi-module battery.
const UNITS: usize = 4;

fn programs_from(seed: u64, n: usize, size: u32) -> Vec<FuzzProgram> {
    (0..n as u64)
        .map(|i| gen_program(seed.wrapping_add(i), size))
        .collect()
}

/// Lowers each program into its own namespace and address range, the
/// way a build system hands separately compiled units to the linker.
fn units_of(programs: &[FuzzProgram]) -> Vec<SepUnit> {
    programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let (module, ge, entries) =
                lower_prefixed(p, &format!("m{i}_"), 0x2000 + 0x100 * i as u64);
            SepUnit {
                name: format!("m{i}"),
                module,
                ge,
                entries,
            }
        })
        .collect()
}

fn module_of(seed: u64, size: u32) -> ClightModule {
    lower_prefixed(&gen_program(seed, size), "m0_", 0x2000).0
}

/// The no-cache reference: full pipeline + full certification per unit.
fn cold_build(units: &[SepUnit]) -> Vec<(CompilationArtifacts, String)> {
    units
        .iter()
        .map(|u| {
            let arts = compile_with_artifacts(&u.module).expect("unit compiles");
            let witness = TransvalCertifier.certify(&arts).expect("unit validates");
            (arts, witness)
        })
        .collect()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Edit one random module of a multi-module program: the
    /// incremental rebuild must recompile exactly that module, serve
    /// the rest as hits, and produce artifacts, witnesses and link
    /// obligations bit-identical to a cold full build of the edited
    /// program.
    #[test]
    fn incremental_rebuild_is_bit_identical_to_cold_build(
        seed in any::<u64>(),
        size in 4u32..8,
        full_depth in any::<bool>(),
    ) {
        let progs = programs_from(seed, UNITS + 1, size);
        // The edit replaces one random slot with the extra program.
        // Skip the (rare) draws where generated programs coincide —
        // the hit/miss split below assumes distinct content addresses.
        let texts: BTreeSet<String> = progs.iter().map(program_to_text).collect();
        if texts.len() != progs.len() {
            return; // coincident programs: the split below is undefined
        }
        let edit = (seed % UNITS as u64) as usize;
        let mut edited = progs[..UNITS].to_vec();
        edited[edit] = progs[UNITS].clone();

        let base_units = units_of(&progs[..UNITS]);
        let edited_units = units_of(&edited);
        let (object_src, object_ge) = lock_spec("L");
        let object_tgt = id_trans(&object_src);

        let cold = cold_build(&edited_units);
        let cold_link =
            check_link_obligations(&edited_units, &object_src, &object_tgt, &object_ge);

        let depth = if full_depth { RecheckDepth::Full } else { RecheckDepth::Structural };
        let cache = CompileCache::new();
        let warm = build_program(
            &base_units, &object_src, &object_tgt, &object_ge, &cache, &TransvalCertifier, depth,
        )
        .expect("warm build");
        for m in &warm.modules {
            prop_assert_eq!(&m.outcome, &CacheOutcome::Miss);
        }

        let incr = build_program(
            &edited_units, &object_src, &object_tgt, &object_ge, &cache, &TransvalCertifier, depth,
        )
        .expect("incremental build");
        let stats = cache.stats();
        prop_assert_eq!(stats.misses, UNITS as u64 + 1, "{:?}", stats);
        prop_assert_eq!(stats.hits, UNITS as u64 - 1, "{:?}", stats);
        prop_assert_eq!(stats.rejected, 0, "{:?}", stats);
        for (i, m) in incr.modules.iter().enumerate() {
            let expected = if i == edit { CacheOutcome::Miss } else { CacheOutcome::Hit };
            prop_assert_eq!(&m.outcome, &expected, "unit m{}", i);
            let (cold_arts, cold_witness) = &cold[i];
            prop_assert!(*m.arts == *cold_arts, "unit m{} artifacts differ from cold build", i);
            prop_assert_eq!(&m.witness_json, cold_witness, "unit m{} witness differs", i);
        }
        prop_assert_eq!(incr.link, cold_link);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The single-module cold/miss/hit/poison/recover cycle
    /// (`ccc_fuzz::cachediff`) over random seeds at both re-check
    /// depths.
    #[test]
    fn cachediff_cycle_holds(seed in any::<u64>(), full_depth in any::<bool>()) {
        let depth = if full_depth { RecheckDepth::Full } else { RecheckDepth::Structural };
        if let Err(e) = check_cached_vs_fresh_seeded(seed, 6, depth) {
            prop_assert!(false, "seed {}: {}", seed, e);
        }
    }
}

// --- Poisoned-cache mutation tests: each corruption the trust
// --- argument claims to catch, exercised end to end.

#[test]
fn flipped_obligation_is_rejected_and_recompiled() {
    let m = module_of(1, 6);
    let cache = CompileCache::new();
    let cold = cache
        .compile_cached(&m, &TransvalCertifier, RecheckDepth::Structural)
        .expect("cold compile");
    assert_eq!(cold.outcome, CacheOutcome::Miss);

    let mut e = cache.entry(module_hash(&m)).expect("cached entry");
    assert!(e.witness_json.contains("\"discharged\":true"));
    e.witness_json = e
        .witness_json
        .replacen("\"discharged\":true", "\"discharged\":false", 1);
    cache.put_entry(e);

    let r = cache
        .compile_cached(&m, &TransvalCertifier, RecheckDepth::Structural)
        .expect("recovers by recompiling");
    let CacheOutcome::Rejected(why) = &r.outcome else {
        panic!("poisoned entry served as {:?}", r.outcome);
    };
    assert!(why.contains("undischarged"), "unexpected rejection: {why}");
    assert!(
        *r.arts == *cold.arts,
        "recovered artifacts differ from cold build"
    );
    assert_eq!(r.witness_json, cold.witness_json);

    // The healed slot serves clean hits again.
    let again = cache
        .compile_cached(&m, &TransvalCertifier, RecheckDepth::Structural)
        .expect("healed");
    assert_eq!(again.outcome, CacheOutcome::Hit);
}

#[test]
fn truncated_witness_is_rejected_with_byte_offset() {
    let m = module_of(2, 6);
    let cache = CompileCache::new();
    cache
        .compile_cached(&m, &TransvalCertifier, RecheckDepth::Structural)
        .expect("cold compile");

    let mut e = cache.entry(module_hash(&m)).expect("cached entry");
    let cut = e.witness_json.len() / 2;
    e.witness_json.truncate(cut);
    cache.put_entry(e);

    let r = cache
        .compile_cached(&m, &TransvalCertifier, RecheckDepth::Structural)
        .expect("recovers by recompiling");
    let CacheOutcome::Rejected(why) = &r.outcome else {
        panic!("truncated witness served as {:?}", r.outcome);
    };
    assert!(
        why.contains(" at byte "),
        "parse rejection should carry a byte offset: {why}"
    );
}

#[test]
fn swapped_artifacts_are_rejected_by_the_source_binding() {
    let (ma, mb) = (module_of(3, 6), module_of(4, 6));
    assert_ne!(module_hash(&ma), module_hash(&mb));
    let cache = CompileCache::new();
    let cold_a = cache
        .compile_cached(&ma, &TransvalCertifier, RecheckDepth::Structural)
        .expect("compile a");
    cache
        .compile_cached(&mb, &TransvalCertifier, RecheckDepth::Structural)
        .expect("compile b");

    // File b's artifacts and witness under a's content address: the
    // hash key matches, the stored source does not.
    let eb = cache.entry(module_hash(&mb)).expect("entry b");
    let mut poison = cache.entry(module_hash(&ma)).expect("entry a");
    poison.arts = eb.arts;
    poison.witness_json = eb.witness_json;
    poison.digests = eb.digests;
    cache.put_entry(poison);

    let r = cache
        .compile_cached(&ma, &TransvalCertifier, RecheckDepth::Structural)
        .expect("recovers by recompiling");
    let CacheOutcome::Rejected(why) = &r.outcome else {
        panic!("swapped artifacts served as {:?}", r.outcome);
    };
    assert!(why.contains("does not match requested module"), "{why}");
    assert!(
        *r.arts == *cold_a.arts,
        "recovery must rebuild a's artifacts"
    );
}

#[test]
fn swapped_witness_is_rejected_at_full_depth() {
    let (ma, mb) = (module_of(5, 6), module_of(6, 6));
    let cache = CompileCache::new();
    let cold_a = cache
        .compile_cached(&ma, &TransvalCertifier, RecheckDepth::Full)
        .expect("compile a");
    let cold_b = cache
        .compile_cached(&mb, &TransvalCertifier, RecheckDepth::Full)
        .expect("compile b");
    assert_ne!(cold_a.witness_json, cold_b.witness_json);

    // a's artifacts with b's witness: the source binding holds and the
    // witness is well-formed, so only the full re-derivation — which
    // re-validates a's artifacts and compares — can catch it.
    let mut poison = cache.entry(module_hash(&ma)).expect("entry a");
    poison.witness_json = cold_b.witness_json.clone();
    cache.put_entry(poison);

    let r = cache
        .compile_cached(&ma, &TransvalCertifier, RecheckDepth::Full)
        .expect("recovers by recompiling");
    assert!(
        matches!(r.outcome, CacheOutcome::Rejected(_)),
        "swapped witness served as {:?}",
        r.outcome
    );
    assert!(*r.arts == *cold_a.arts);
    assert_eq!(r.witness_json, cold_a.witness_json);
}

// --- Hash stability: the content address must survive serialization
// --- and separate structurally distinct modules.

#[test]
fn module_hash_is_stable_across_text_round_trip() {
    for seed in 0..16u64 {
        let p = gen_program(seed, 6);
        let text = program_to_text(&p);
        let p2 = parse_program(&text).expect("round trip parses");
        assert_eq!(p, p2, "seed {seed}: round trip changed the program");
        let (m, _, _) = lower_prefixed(&p, "m0_", 0x2000);
        let (m2, _, _) = lower_prefixed(&p2, "m0_", 0x2000);
        assert_eq!(module_hash(&m), module_hash(&m2), "seed {seed}");
    }
}

#[test]
fn distinct_modules_get_distinct_hashes() {
    // Generated stream plus every regression-corpus program: equal
    // hashes must mean equal modules.
    let mut programs: Vec<FuzzProgram> = (0..32).map(|s| gen_program(s, 6)).collect();
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    for entry in std::fs::read_dir(&corpus).expect("corpus dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "txt") {
            let text = std::fs::read_to_string(&path).expect("readable");
            programs.push(CorpusEntry::from_text(&text).expect("parses").program);
        }
    }
    assert!(programs.len() > 50, "expected generated + corpus programs");
    let mut by_hash: BTreeMap<u64, ClightModule> = BTreeMap::new();
    for p in &programs {
        let (m, _, _) = lower_prefixed(p, "c_", 0x2000);
        let h = module_hash(&m);
        if let Some(prev) = by_hash.insert(h, m.clone()) {
            assert_eq!(prev, m, "hash collision {h:#x} between distinct modules");
        }
    }
    assert!(
        by_hash.len() > 30,
        "the stream collapsed to too few distinct modules"
    );
}

#[test]
fn module_hash_is_cache_format_versioned() {
    let m = module_of(7, 6);
    assert_eq!(
        module_hash_with_version(CACHE_FORMAT_VERSION, &m),
        module_hash(&m),
        "module_hash must hash under the current cache format version"
    );
    assert_ne!(
        module_hash_with_version(CACHE_FORMAT_VERSION + 1, &m),
        module_hash(&m),
        "bumping the cache format version must invalidate every address"
    );
}

// --- Disk tier: round trip, promotion, and corruption.

#[test]
fn disk_tier_round_trips_and_promotes() {
    let cache = CompileCache::new()
        .with_disk(tmp_dir("sepcomp_disk_roundtrip"))
        .expect("disk tier");
    let m = module_of(8, 6);
    let miss = cache
        .compile_cached(&m, &TransvalCertifier, RecheckDepth::Structural)
        .expect("cold compile");
    assert_eq!(miss.outcome, CacheOutcome::Miss);

    cache.clear_memory();
    let disk = cache
        .compile_cached(&m, &TransvalCertifier, RecheckDepth::Structural)
        .expect("disk rebuild");
    assert_eq!(disk.outcome, CacheOutcome::DiskHit);
    assert!(
        *disk.arts == *miss.arts,
        "disk rebuild differs from cold build"
    );
    assert_eq!(disk.witness_json, miss.witness_json);

    // The disk hit promotes the entry back into the memory tier.
    let again = cache
        .compile_cached(&m, &TransvalCertifier, RecheckDepth::Structural)
        .expect("promoted");
    assert_eq!(again.outcome, CacheOutcome::Hit);
}

#[test]
fn corrupt_disk_entries_are_rejected_and_rewritten() {
    let cache = CompileCache::new()
        .with_disk(tmp_dir("sepcomp_disk_corrupt"))
        .expect("disk tier");
    let m = module_of(9, 6);
    cache
        .compile_cached(&m, &TransvalCertifier, RecheckDepth::Structural)
        .expect("cold compile");
    let path = cache.disk_path(module_hash(&m)).expect("disk path");

    // A file that is not a cache entry at all.
    std::fs::write(&path, "garbage\n").expect("overwrite entry");
    cache.clear_memory();
    let r = cache
        .compile_cached(&m, &TransvalCertifier, RecheckDepth::Structural)
        .expect("recovers");
    let CacheOutcome::Rejected(why) = &r.outcome else {
        panic!("garbage disk entry served as {:?}", r.outcome);
    };
    assert!(why.contains("disk entry"), "{why}");

    // The recovery rewrote a valid entry; tamper one stage digest.
    let text = std::fs::read_to_string(&path).expect("rewritten entry");
    let tampered: String = text
        .lines()
        .map(|l| {
            if l.starts_with("digest Clight ") {
                let flip = if l.ends_with('0') { "1" } else { "0" };
                format!("{}{flip}\n", &l[..l.len() - 1])
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    assert_ne!(text, tampered, "no Clight digest line to tamper");
    std::fs::write(&path, tampered).expect("tamper entry");
    cache.clear_memory();
    let r = cache
        .compile_cached(&m, &TransvalCertifier, RecheckDepth::Structural)
        .expect("recovers");
    let CacheOutcome::Rejected(why) = &r.outcome else {
        panic!("tampered digest served as {:?}", r.outcome);
    };
    assert!(why.contains("digest"), "{why}");
}

/// A disk entry whose witness line is nested 100 000 levels deep is
/// rejected and recompiled — the shape scan stops at the nesting limit
/// instead of overflowing the stack of the thread serving the hit.
#[test]
fn deeply_nested_disk_witness_is_rejected() {
    let cache = CompileCache::new()
        .with_disk(tmp_dir("sepcomp_disk_deep"))
        .expect("disk tier");
    let m = module_of(12, 6);
    let cold = cache
        .compile_cached(&m, &TransvalCertifier, RecheckDepth::Structural)
        .expect("cold compile");
    let path = cache.disk_path(module_hash(&m)).expect("disk path");
    let text = std::fs::read_to_string(&path).expect("entry");
    let deep = format!("witness {{\"x\":{}", "[".repeat(100_000));
    let poisoned: String = text
        .lines()
        .map(|l| {
            if l.starts_with("witness ") {
                format!("{deep}\n")
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    std::fs::write(&path, poisoned).expect("poison entry");
    cache.clear_memory();
    let r = cache
        .compile_cached(&m, &TransvalCertifier, RecheckDepth::Structural)
        .expect("recovers");
    let CacheOutcome::Rejected(why) = &r.outcome else {
        panic!("deeply nested witness served as {:?}", r.outcome);
    };
    assert!(why.contains("nesting"), "{why}");
    assert_eq!(
        r.witness_json, cold.witness_json,
        "recompiled witness differs"
    );
}

// --- The batch service end to end over a shared cache.

#[test]
fn service_serves_warm_hits_bit_identical_to_cold() {
    let programs = programs_from(10, 3, 6);
    let units = units_of(&programs);
    let cold = cold_build(&units);
    let cache = Arc::new(CompileCache::new());
    let svc = CompileService::start(
        Arc::clone(&cache),
        Arc::new(TransvalCertifier),
        &ServiceCfg {
            workers: 2,
            queue_cap: 8,
            depth: RecheckDepth::Structural,
        },
    );

    // Warm sequentially (concurrent first-requests for the same module
    // may both miss; the cache dedups by address, not in-flight work).
    for u in &units {
        let served = svc
            .submit(u.module.clone())
            .recv()
            .expect("reply")
            .expect("compiles");
        assert_eq!(served.outcome, CacheOutcome::Miss);
    }

    cache.reset_stats();
    let replies: Vec<_> = (0..12)
        .map(|i| svc.submit(units[i % units.len()].module.clone()))
        .collect();
    for (i, r) in replies.into_iter().enumerate() {
        let served = r.recv().expect("reply").expect("compiles");
        assert!(
            served.outcome.is_hit(),
            "request {i} missed: {:?}",
            served.outcome
        );
        let (cold_arts, cold_witness) = &cold[i % units.len()];
        assert!(*served.arts == *cold_arts, "request {i} artifacts differ");
        assert_eq!(
            &served.witness_json, cold_witness,
            "request {i} witness differs"
        );
    }
    assert_eq!(cache.stats().hits, 12);
    svc.shutdown();
}

// --- Concurrent writers of one disk entry.

/// Two threads that miss on the same module at once both write its
/// disk entry and certificate. Each writer has its own temp file, so
/// every call succeeds, the entry on disk parses afterwards, and no
/// temp file is left behind.
#[test]
fn concurrent_same_module_misses_all_succeed() {
    let dir = tmp_dir("sepcomp_disk_race");
    let m = module_of(11, 6);
    let hash = module_hash(&m);
    let cert = "{\"module\":\"m0\"}";
    let mut failures = Vec::new();
    for round in 0..100 {
        let cache = CompileCache::new().with_disk(&dir).expect("disk tier");
        for p in [cache.disk_path(hash), cache.cert_disk_path(hash)]
            .into_iter()
            .flatten()
        {
            let _ = std::fs::remove_file(p);
        }
        let barrier = Barrier::new(2);
        let results: Vec<_> = std::thread::scope(|s| {
            let writers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.cert_put(hash, cert);
                        cache.compile_cached(&m, &TransvalCertifier, RecheckDepth::Structural)
                    })
                })
                .collect();
            writers
                .into_iter()
                .map(|w| w.join().expect("writer panicked"))
                .collect()
        });
        for r in results {
            if let Err(e) = r {
                failures.push(format!("round {round}: {e}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of 200 concurrent misses failed: {failures:?}",
        failures.len()
    );
    let cache = CompileCache::new().with_disk(&dir).expect("disk tier");
    let served = cache
        .compile_cached(&m, &TransvalCertifier, RecheckDepth::Structural)
        .expect("disk entry");
    assert_eq!(served.outcome, CacheOutcome::DiskHit);
    assert_eq!(cache.cert_get(hash).as_deref(), Some(cert));
    let temps: Vec<_> = std::fs::read_dir(&dir)
        .expect("disk tier directory")
        .map(|e| e.expect("directory entry").file_name())
        .filter(|n| n.to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(temps.is_empty(), "temp files left behind: {temps:?}");
}

// --- Parallel builds against the sequential loop they replace.

struct Object {
    src: CImpModule,
    tgt: CImpModule,
    ge: GlobalEnv,
}

fn lock_object() -> Object {
    let (src, ge) = lock_spec("L");
    Object {
        tgt: id_trans(&src),
        src,
        ge,
    }
}

fn certified(units: &[SepUnit], object: &Object, cache: &CompileCache) -> SepcompCertResult {
    build_program_certified(
        units,
        &object.src,
        &object.tgt,
        &object.ge,
        cache,
        &TransvalCertifier,
        RecheckDepth::Structural,
    )
    .expect("certified build")
}

/// The sequential reference: `rg_cert_cached` then `compile_cached` on
/// each unit in turn, then the link obligations.
fn sequential_certified(
    units: &[SepUnit],
    object: &Object,
    cache: &CompileCache,
) -> SepcompCertResult {
    let model = infer_lock_model(&object.src);
    let (mut modules, mut certs, mut cert_outcomes) = (Vec::new(), Vec::new(), Vec::new());
    for u in units {
        let (cert, outcome) = rg_cert_cached(&u.name, &u.module, &u.entries, &model, cache);
        certs.push(cert);
        cert_outcomes.push(outcome);
        modules.push(
            cache
                .compile_cached(&u.module, &TransvalCertifier, RecheckDepth::Structural)
                .expect("unit builds"),
        );
    }
    SepcompCertResult {
        link: check_link_obligations_with_certs(
            units,
            &certs,
            &object.src,
            &object.tgt,
            &object.ge,
        ),
        modules,
        certs,
        cert_outcomes,
    }
}

fn assert_same_build(
    what: &str,
    got: &SepcompCertResult,
    want: &SepcompCertResult,
    got_cache: &CompileCache,
    want_cache: &CompileCache,
) {
    assert_eq!(got.modules.len(), want.modules.len(), "{what}: unit count");
    for (i, (a, b)) in got.modules.iter().zip(&want.modules).enumerate() {
        assert_eq!(a.outcome, b.outcome, "{what}: unit {i} outcome");
        assert_eq!(a.hash, b.hash, "{what}: unit {i} hash");
        assert!(*a.arts == *b.arts, "{what}: unit {i} artifacts differ");
        assert_eq!(a.witness_json, b.witness_json, "{what}: unit {i} witness");
    }
    assert_eq!(got.certs, want.certs, "{what}: certificates");
    assert_eq!(
        got.cert_outcomes, want.cert_outcomes,
        "{what}: cert outcomes"
    );
    assert_eq!(got.link, want.link, "{what}: link report");
    assert_eq!(
        got_cache.stats(),
        want_cache.stats(),
        "{what}: cache counters"
    );
}

/// A 20-module program on a disk-backed cache, built cold, after an
/// edit of one module and after a restart: every build equals the
/// sequential reference loop's, unit for unit, and the cache counters
/// move the same way.
#[test]
fn parallel_certified_build_equals_sequential_loop() {
    const N: usize = 20;
    const EDIT: usize = 13;
    let programs = programs_from(300, N + 1, 5);
    let base = units_of(&programs[..N]);
    let mut edited_programs = programs[..N].to_vec();
    edited_programs[EDIT] = programs[N].clone();
    let edited = units_of(&edited_programs);
    assert_ne!(
        module_hash(&base[EDIT].module),
        module_hash(&edited[EDIT].module)
    );
    let object = lock_object();
    let par = CompileCache::new()
        .with_disk(tmp_dir("sepcomp_par_build"))
        .expect("disk tier");
    let seq = CompileCache::new()
        .with_disk(tmp_dir("sepcomp_seq_build"))
        .expect("disk tier");

    let (a, b) = (
        certified(&base, &object, &par),
        sequential_certified(&base, &object, &seq),
    );
    assert_same_build("cold", &a, &b, &par, &seq);
    assert!(a.modules.iter().all(|m| m.outcome == CacheOutcome::Miss));

    let (a, b) = (
        certified(&edited, &object, &par),
        sequential_certified(&edited, &object, &seq),
    );
    assert_same_build("edit", &a, &b, &par, &seq);
    for (i, m) in a.modules.iter().enumerate() {
        let want = if i == EDIT {
            CacheOutcome::Miss
        } else {
            CacheOutcome::Hit
        };
        assert_eq!(m.outcome, want, "edit: unit {i}");
    }

    par.clear_memory();
    seq.clear_memory();
    let (a, b) = (
        certified(&base, &object, &par),
        sequential_certified(&base, &object, &seq),
    );
    assert_same_build("restart", &a, &b, &par, &seq);
    assert!(a.modules.iter().all(|m| m.outcome == CacheOutcome::DiskHit));
}

/// A unit that repeats an earlier module is served from the cache after
/// that module's first unit, in unit order: one miss per distinct
/// module, then hits, whatever the worker count.
#[test]
fn repeated_modules_are_served_in_unit_order() {
    let programs = programs_from(500, 3, 5);
    let distinct = units_of(&programs);
    let order = [0, 1, 0, 2, 1, 0];
    let units: Vec<SepUnit> = order.iter().map(|&k| distinct[k].clone()).collect();
    assert_eq!(build_workers(&units), build_workers(&distinct));
    let object = lock_object();

    let par = CompileCache::new();
    let seq = CompileCache::new();
    let (a, b) = (
        certified(&units, &object, &par),
        sequential_certified(&units, &object, &seq),
    );
    assert_same_build("repeats", &a, &b, &par, &seq);
    for (i, m) in a.modules.iter().enumerate() {
        let first = order[..i].iter().all(|&k| k != order[i]);
        let want = if first {
            CacheOutcome::Miss
        } else {
            CacheOutcome::Hit
        };
        assert_eq!(m.outcome, want, "unit {i}");
    }
    let stats = par.stats();
    assert_eq!((stats.misses, stats.hits), (3, 3), "{stats:?}");
    assert_eq!((stats.cert_misses, stats.cert_hits), (3, 3), "{stats:?}");

    let plain = CompileCache::new();
    let r = build_program(
        &units,
        &object.src,
        &object.tgt,
        &object.ge,
        &plain,
        &TransvalCertifier,
        RecheckDepth::Structural,
    )
    .expect("build");
    let outcomes: Vec<_> = r.modules.iter().map(|m| m.outcome.clone()).collect();
    let want: Vec<_> = a.modules.iter().map(|m| m.outcome.clone()).collect();
    assert_eq!(outcomes, want);
    assert_eq!((plain.stats().misses, plain.stats().hits), (3, 3));
}

/// Rejects two chosen modules. The earlier one is rejected only after a
/// pause, so on more than one worker the later rejection is usually
/// reached first.
struct RejectTwo {
    early: u64,
    late: u64,
}

impl Certifier for RejectTwo {
    fn certify(&self, arts: &CompilationArtifacts) -> Result<String, String> {
        let h = module_hash(&arts.clight);
        if h == self.early {
            std::thread::sleep(Duration::from_millis(30));
        }
        if h == self.early || h == self.late {
            return Err(format!("rejected {h:016x}"));
        }
        TrustingCertifier.certify(arts)
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

/// With two failing units, both builds return the error of the earlier
/// one in unit order, on every run.
#[test]
fn build_error_is_the_first_in_unit_order() {
    let units = units_of(&programs_from(700, 8, 5));
    let early = module_hash(&units[1].module);
    let certifier = RejectTwo {
        early,
        late: module_hash(&units[6].module),
    };
    let want = CacheError::Certify(format!("rejected {early:016x}"));
    let object = lock_object();
    for run in 0..5 {
        let r = build_program_certified(
            &units,
            &object.src,
            &object.tgt,
            &object.ge,
            &CompileCache::new(),
            &certifier,
            RecheckDepth::Structural,
        );
        assert_eq!(r.err(), Some(want.clone()), "certified run {run}");
        let r = build_program(
            &units,
            &object.src,
            &object.tgt,
            &object.ge,
            &CompileCache::new(),
            &certifier,
            RecheckDepth::Structural,
        );
        assert_eq!(r.err(), Some(want.clone()), "plain run {run}");
    }
}
