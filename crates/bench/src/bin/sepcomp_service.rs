//! Incremental separate compilation and the batch compile-and-validate
//! service: the production story of ROADMAP item 2.
//!
//! Three measurements over a 20-module program built from generated
//! translation units linked against the CImp lock object:
//!
//! 1. **Edit-1-of-20**: after a warm build, one module is edited and
//!    the program rebuilt through the content-addressed witness cache.
//!    Exactly one module may re-run the full pipeline (the other 19 are
//!    hits whose stored witnesses are statically re-checked), and the
//!    rebuild must be at least 5x faster than the cold
//!    compile+certify — both enforced by aborting gates.
//! 2. **Disk tier**: the memory tier is dropped and the program rebuilt
//!    from `target/ccc-cache/` — every module must be a disk hit
//!    (deterministic recompile, stage digests matched, certification
//!    skipped).
//! 3. **Warm throughput**: a worker-pool service over the shared cache
//!    serves round-robin requests against all 20 modules; sustained
//!    requests/sec with a warm cache is recorded, and every request
//!    must be a re-validated hit.
//!
//! A poisoned-entry spot check (tampered stored witness must be
//! rejected and transparently recompiled) guards the trust discipline.
//!
//! The cold reference is a hand-written sequential loop. Beside it,
//! `cold_build_ms` times the library's own `build_program_certified` on
//! an empty cache, which builds units on `build_workers` threads; the
//! incremental and disk-tier rebuilds go through the same parallel
//! build, so their speedups over the sequential reference include it.
//!
//! Every figure is timed over [`REPS`] interleaved rounds (each round
//! times cold reference, cold library build, incremental rebuild,
//! disk-tier rebuild and warm service once, in that order), so a burst
//! of host load lands on all of them alike. The JSON reports each
//! figure's median (`p50`) with its `p25`/`p75`, and the gates compare
//! medians.
//!
//! Interference certification is **enabled throughout**: every build
//! runs [`build_program_certified`], so each unit's `RgCert` rides the
//! same cache (the edit-1-of-20 phase must show exactly 1 certificate
//! miss + 19 re-checked certificate hits, and the link report must
//! discharge `RgCompatible`) — the no-regression gate for the
//! certificate artifact kind.
//!
//! Run with: `cargo run --release -p ccc-bench --bin sepcomp_service`
//! (`--smoke` shrinks module sizes and the request count for CI).
//! Results are written to `BENCH_sepcomp.json` in the current
//! directory.

use ccc_analysis::rg_cert::{infer_rg_cert, CertOutcome};
use ccc_analysis::sepcomp::{
    build_program_certified, build_workers, LinkObligationKind, SepUnit, TransvalCertifier,
};
use ccc_analysis::{check_link_obligations_with_certs, infer_lock_model};
use ccc_compiler::cache::{default_disk_dir, CacheOutcome, Certifier, CompileCache, RecheckDepth};
use ccc_compiler::driver::compile_with_artifacts;
use ccc_compiler::{CompileService, ServiceCfg};
use ccc_fuzz::gen_program;
use ccc_fuzz::spec::lower_prefixed;
use ccc_fuzz::FuzzProgram;
use ccc_sync::lock::lock_spec;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

const MODULES: usize = 20;
const EDITED: usize = 7;
/// Interleaved timing rounds per figure.
const REPS: usize = 7;

/// The first `n` *sequential* generated programs from the fixed seed
/// stream (sequential units keep the link obligations deterministically
/// discharged: each unit only touches its own namespaced globals).
fn sequential_programs(n: usize, size: u32, skip: usize) -> Vec<FuzzProgram> {
    let mut out = Vec::new();
    let mut seed = 0u64;
    let mut skipped = 0;
    while out.len() < n {
        let p = gen_program(seed, size);
        seed += 1;
        if p.is_sequential() {
            if skipped < skip {
                skipped += 1;
            } else {
                out.push(p);
            }
        }
    }
    out
}

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

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// `(p25, p50, p75)` of a sample, nearest rank.
fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
    (at(0.25), at(0.5), at(0.75))
}

/// A figure's quartiles as a JSON object.
fn spread_json(xs: &[f64]) -> String {
    let (p25, p50, p75) = quartiles(xs);
    format!("{{\"p25\": {p25:.2}, \"p50\": {p50:.2}, \"p75\": {p75:.2}}}")
}

/// A figure's median and quartiles for the printed table.
fn spread_text(xs: &[f64]) -> String {
    let (p25, p50, p75) = quartiles(xs);
    format!("{p50:>9.1} [{p25:.1}–{p75:.1}]")
}

#[allow(clippy::too_many_lines)]
fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (size, requests): (u32, usize) = if smoke { (8, 80) } else { (14, 400) };
    let certifier = TransvalCertifier;

    println!("incremental separate compilation: {MODULES}-module program, 1 module edited");
    println!("(unit size {size}, structural hit re-checking, disk tier under target/ccc-cache)\n");

    let programs = sequential_programs(MODULES, size, 0);
    let units = units_of(&programs);
    let (object_src, object_ge) = lock_spec("L");
    let object_tgt = ccc_compiler::driver::id_trans(&object_src);

    let model = infer_lock_model(&object_src);
    let build_threads = build_workers(&units);

    // --- Warm build populates both cache tiers.
    let disk_dir = default_disk_dir();
    let _ = std::fs::remove_dir_all(&disk_dir);
    let cache = Arc::new(
        CompileCache::new()
            .with_disk(&disk_dir)
            .expect("create disk tier"),
    );
    let warm = build_program_certified(
        &units,
        &object_src,
        &object_tgt,
        &object_ge,
        &cache,
        &certifier,
        RecheckDepth::Structural,
    )
    .expect("warm build");
    assert!(
        warm.modules.iter().all(|m| m.outcome == CacheOutcome::Miss),
        "warm build must compile everything"
    );
    assert!(
        warm.cert_outcomes.iter().all(|o| *o == CertOutcome::Miss),
        "warm build must infer every certificate"
    );

    // --- The edited program: one module replaced.
    let edited_program = sequential_programs(1, size, MODULES).remove(0);
    let mut edited_programs = programs.clone();
    edited_programs[EDITED] = edited_program;
    let edited_units = units_of(&edited_programs);
    let edited_hash = ccc_compiler::module_hash(&edited_units[EDITED].module);
    assert_ne!(
        ccc_compiler::module_hash(&units[EDITED].module),
        edited_hash,
        "the edit must change the module's content address"
    );

    let workers = 4;
    let mut cold_ms = Vec::new();
    let mut cold_build_ms = Vec::new();
    let mut incremental_ms = Vec::new();
    let mut disk_ms = Vec::new();
    let mut warm_rps = Vec::new();
    let mut incr = None;
    for _ in 0..REPS {
        // Cold reference: full pipeline + full certification + fresh
        // interference certificates, no cache.
        let t = Instant::now();
        for u in &units {
            let arts = compile_with_artifacts(&u.module).expect("unit compiles");
            certifier.certify(&arts).expect("unit validates");
        }
        let cold_certs: Vec<_> = units
            .iter()
            .map(|u| infer_rg_cert(&u.name, &u.module, &u.entries, &model))
            .collect();
        let cold_link = check_link_obligations_with_certs(
            &units,
            &cold_certs,
            &object_src,
            &object_tgt,
            &object_ge,
        );
        cold_ms.push(ms(t.elapsed()));
        assert!(
            cold_link.ok(),
            "cold link obligations: {:?}",
            cold_link.failed()
        );

        // The library's cold build: `build_program_certified` on an
        // empty memory-only cache, on `build_workers` threads.
        let empty = CompileCache::new();
        let t = Instant::now();
        let r = build_program_certified(
            &units,
            &object_src,
            &object_tgt,
            &object_ge,
            &empty,
            &certifier,
            RecheckDepth::Structural,
        )
        .expect("cold build");
        cold_build_ms.push(ms(t.elapsed()));
        assert!(
            r.modules.iter().all(|m| m.outcome == CacheOutcome::Miss),
            "a build on an empty cache must compile everything"
        );

        // Incremental rebuild: the edited module's entry is evicted from
        // both tiers first, so every round really is 19 hits + 1 full
        // recompile. The hit/miss split is asserted on every round.
        cache.evict(edited_hash);
        cache.reset_stats();
        let t = Instant::now();
        let run = build_program_certified(
            &edited_units,
            &object_src,
            &object_tgt,
            &object_ge,
            &cache,
            &certifier,
            RecheckDepth::Structural,
        )
        .expect("incremental build");
        incremental_ms.push(ms(t.elapsed()));
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, (MODULES - 1) as u64, "{stats:?}");
        assert_eq!(stats.rejected, 0, "{stats:?}");
        // Certificates ride the same cache: the edit re-infers exactly
        // one, the other 19 are served and re-checked.
        assert_eq!(stats.cert_misses, 1, "{stats:?}");
        assert_eq!(stats.cert_hits, (MODULES - 1) as u64, "{stats:?}");
        incr = Some(run);

        // Disk tier: drop the memory tier, rebuild from target/ccc-cache.
        cache.clear_memory();
        cache.reset_stats();
        let t = Instant::now();
        let disk = build_program_certified(
            &edited_units,
            &object_src,
            &object_tgt,
            &object_ge,
            &cache,
            &certifier,
            RecheckDepth::Structural,
        )
        .expect("disk rebuild");
        disk_ms.push(ms(t.elapsed()));
        assert!(
            disk.modules
                .iter()
                .all(|m| m.outcome == CacheOutcome::DiskHit),
            "disk rebuild must serve every module from the disk tier"
        );
        assert!(
            disk.cert_outcomes.iter().all(|o| *o == CertOutcome::Hit),
            "disk rebuild must serve every certificate from the disk tier"
        );

        // Warm throughput under the worker-pool service.
        cache.reset_stats();
        let svc = CompileService::start(
            Arc::clone(&cache),
            Arc::new(TransvalCertifier),
            &ServiceCfg {
                workers,
                queue_cap: 64,
                depth: RecheckDepth::Structural,
            },
        );
        let t = Instant::now();
        let replies: Vec<_> = (0..requests)
            .map(|i| svc.submit(edited_units[i % MODULES].module.clone()))
            .collect();
        for r in replies {
            let served = r.recv().expect("reply").expect("compiles");
            assert!(
                served.outcome.is_hit(),
                "warm request missed: {:?}",
                served.outcome
            );
        }
        warm_rps.push(requests as f64 / t.elapsed().as_secs_f64());
        svc.shutdown();
        let stats = cache.stats();
        assert_eq!(stats.hits, requests as u64, "{stats:?}");
    }

    let incr = incr.expect("at least one round");
    for (i, m) in incr.modules.iter().enumerate() {
        if i == EDITED {
            assert_eq!(
                m.outcome,
                CacheOutcome::Miss,
                "edited module must recompile"
            );
        } else {
            assert_eq!(m.outcome, CacheOutcome::Hit, "module m{i} must be a hit");
        }
    }
    for (i, o) in incr.cert_outcomes.iter().enumerate() {
        if i == EDITED {
            assert_eq!(*o, CertOutcome::Miss, "edited module must re-certify");
        } else {
            assert_eq!(*o, CertOutcome::Hit, "certificate m{i} must be a hit");
        }
    }
    assert!(
        incr.link.ok(),
        "incremental link obligations: {:?}",
        incr.link.failed()
    );
    let rg_ok = incr
        .link
        .obligations
        .iter()
        .any(|o| o.kind == LinkObligationKind::RgCompatible && o.discharged);
    assert!(rg_ok, "RgCompatible must be discharged: {:?}", incr.link);

    let median = |xs: &[f64]| quartiles(xs).1;
    let speedup = median(&cold_ms) / median(&incremental_ms);
    let disk_speedup = median(&cold_ms) / median(&disk_ms);
    println!("  median [p25–p75] of {REPS} interleaved rounds");
    println!(
        "  cold build          {} ms   ({MODULES} modules compiled + certified)",
        spread_text(&cold_ms)
    );
    println!(
        "  cold build (library){} ms   (build_program_certified, {build_threads} worker(s))",
        spread_text(&cold_build_ms)
    );
    println!(
        "  incremental rebuild {} ms   (1 miss, {} re-checked hits)   {speedup:.1}x",
        spread_text(&incremental_ms),
        MODULES - 1
    );
    println!(
        "  disk-tier rebuild   {} ms   (recompiled, certification skipped)   {disk_speedup:.1}x",
        spread_text(&disk_ms)
    );
    println!(
        "  service throughput  {} req/s  ({requests} requests, {workers} workers, warm cache)",
        spread_text(&warm_rps)
    );

    // --- Poisoned-entry spot check: a tampered stored witness must be
    // rejected and transparently recompiled, never served.
    let victim = &edited_units[3].module;
    let hash = ccc_compiler::module_hash(victim);
    let mut entry = cache.entry(hash).expect("victim entry");
    entry.witness_json =
        entry
            .witness_json
            .replacen("\"discharged\":true", "\"discharged\":false", 1);
    cache.put_entry(entry);
    let recovered = cache
        .compile_cached(victim, &certifier, RecheckDepth::Structural)
        .expect("recovers");
    assert!(
        matches!(recovered.outcome, CacheOutcome::Rejected(_)),
        "poisoned entry served as {:?}",
        recovered.outcome
    );
    println!("  poisoned entry      rejected and recompiled (trust discipline holds)");

    // --- Report.
    let mut json = String::from("{\n");
    write!(
        json,
        "  \"bench\": \"sepcomp\",\n  \"smoke\": {smoke},\n  \"modules\": {MODULES},\n  \
         \"unit_size\": {size},\n  \"reps\": {REPS},\n  \"cold_ms\": {},\n  \
         \"cold_build_ms\": {},\n  \"build_workers\": {build_threads},\n  \
         \"incremental_ms\": {},\n  \"incremental_speedup\": {speedup:.2},\n  \
         \"incremental_hits\": {},\n  \"incremental_misses\": 1,\n  \"cert_hits\": {},\n  \
         \"cert_misses\": 1,\n  \"rg_compatible\": {rg_ok},\n  \"disk_rebuild_ms\": {},\n  \
         \"disk_speedup\": {disk_speedup:.2},\n  \"link_ok\": {},\n  \
         \"service_workers\": {workers},\n  \"service_requests\": {requests},\n  \
         \"warm_rps\": {}\n}}\n",
        spread_json(&cold_ms),
        spread_json(&cold_build_ms),
        spread_json(&incremental_ms),
        MODULES - 1,
        MODULES - 1,
        spread_json(&disk_ms),
        incr.link.ok(),
        spread_json(&warm_rps),
    )
    .unwrap();
    std::fs::write("BENCH_sepcomp.json", &json).expect("write BENCH_sepcomp.json");
    println!("\nwrote BENCH_sepcomp.json");

    assert!(
        speedup >= 5.0,
        "median incremental rebuild speedup {speedup:.1}x below the 5x bar"
    );
}
