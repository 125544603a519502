//! Integration battery for the compositional rely-guarantee certifier
//! (`ccc_analysis::rg_cert`): the static per-module interference
//! certificates, their trusted checker, the link-time `RgCompatible`
//! obligation, and the witness-cache integration.
//!
//! The load-bearing property is *soundness with zero false negatives*:
//! a certificate the trusted checker admits as self-stable must
//! describe a module whose exploration (`check_drf`) never finds a
//! race, and a scoped certificate must imply the dynamic rely-guarantee
//! reach-closure check of `ccc_core::rg`. The battery also kills both
//! seeded-unsoundness mutants — a certifier that drops an action
//! summary and a link check that skips a module pair — proving the
//! checker and the differential harness actually carry the trust.

use ccc_analysis::rg_cert::{infer_rg_cert_mutated, rg_incompatibilities_mutated};
use ccc_analysis::sepcomp::{SepUnit, TransvalCertifier};
use ccc_analysis::{
    build_program_certified, check_static_race, infer_lock_model, infer_rg_cert, rg_cert_cached,
    rg_cert_from_json, rg_cert_to_json, rg_cert_violation, rg_incompatibilities, CertOutcome,
    LockModel,
};
use ccc_clight::ast::{Expr, Function, Stmt};
use ccc_clight::gen::gen_concurrent_client;
use ccc_clight::{ClightLang, ClightModule};
use ccc_compiler::driver::id_trans;
use ccc_compiler::{module_hash, CompileCache, RecheckDepth};
use ccc_core::lang::Prog;
use ccc_core::mem::{FreeList, GlobalEnv, Val};
use ccc_core::race::check_drf;
use ccc_core::refine::ExploreCfg;
use ccc_core::rg::check_reach_close;
use ccc_core::world::Loaded;
use ccc_fuzz::{check_rg_vs_exploration, gen_program, lower_prefixed, FuzzProgram};
use ccc_sync::lock::lock_spec;
use proptest::prelude::*;
use std::path::PathBuf;

fn lock_model() -> LockModel {
    infer_lock_model(&lock_spec("L").0)
}

fn explore_cfg() -> ExploreCfg {
    ExploreCfg {
        max_states: 20_000,
        ..ExploreCfg::default()
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two single-threaded modules that both write the same unprotected
/// global: each is self-stable alone, and exactly the cross-module
/// pair conflicts — the shape the pair-skipping link mutant must be
/// killed on.
fn conflicting_pair() -> (ClightModule, ClightModule) {
    let writer = || Function::simple(Stmt::Assign(Expr::var("s"), Expr::Const(1)));
    (
        ClightModule::new([("a", writer())]),
        ClightModule::new([("b", writer())]),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline soundness property, 64 random programs strong: a
    /// module whose certificate the trusted checker admits as
    /// self-stable is DRF under the exhaustive `check_drf`
    /// exploration. `check_rg_vs_exploration` fails on any checker
    /// rejection of a fresh certificate and on any static false
    /// negative; imprecision (static `MayInterfere`, dynamic DRF) is
    /// allowed and merely reported.
    #[test]
    fn admitted_certificates_have_no_false_negatives(
        seed in any::<u64>(),
        size in 4u32..12,
    ) {
        let p: FuzzProgram = gen_program(seed, size);
        let r = check_rg_vs_exploration(&p, &explore_cfg())
            .expect("static RG verdict must over-approximate exploration");
        // The two verdict sources must never contradict in the unsound
        // direction; sanity-check the report is self-consistent too.
        if r.certified_stable {
            prop_assert_ne!(r.explored_drf, Some(false));
        }
    }
}

/// Static self-stability coincides with the lockset analysis it is
/// derived from — the certificate is a faithful, serializable carrier
/// of that verdict, not a reinterpretation.
#[test]
fn stability_agrees_with_lockset_verdict() {
    let model = lock_model();
    for seed in 0..12u64 {
        for racy in [false, true] {
            let (m, _ge, entries) =
                gen_concurrent_client(seed, 2 + (seed % 2) as usize, &["s0", "s1"], racy);
            let cert = infer_rg_cert("client", &m, &entries, &model);
            let report = check_static_race(&m, &entries, &model);
            assert_eq!(
                cert.is_stable(),
                report.is_drf(),
                "seed {seed} racy {racy}: certificate and lockset disagree"
            );
            assert!(
                rg_cert_violation(&cert, &m, &entries, &model).is_none(),
                "seed {seed} racy {racy}: fresh certificate rejected"
            );
        }
    }
}

/// Mutant 1 — the certifier that silently drops the last action
/// summary. Its output must be rejected by the trusted checker on any
/// module with a non-empty guarantee: the dropped action is exactly an
/// uncovered access.
#[test]
fn dropped_summary_mutant_is_killed_by_the_checker() {
    let model = lock_model();
    let mut killed = 0;
    for seed in 0..6u64 {
        for racy in [false, true] {
            let (m, _ge, entries) = gen_concurrent_client(seed, 2, &["s0", "s1"], racy);
            let honest = infer_rg_cert("client", &m, &entries, &model);
            assert!(rg_cert_violation(&honest, &m, &entries, &model).is_none());
            if honest.guarantee.is_empty() {
                continue; // nothing to drop — the mutant is the identity here
            }
            let mutated = infer_rg_cert_mutated("client", &m, &entries, &model);
            let d = rg_cert_violation(&mutated, &m, &entries, &model)
                .expect("checker must reject a certificate missing an action summary");
            assert_eq!(d.pass, "RgCert");
            killed += 1;
        }
    }
    assert!(
        killed >= 6,
        "mutant only exercised {killed} times — battery too weak"
    );
}

/// Mutant 2 — the link check that skips one module pair. On a program
/// where exactly that pair conflicts, the mutant accepts while the
/// honest check rejects and the exploration of the composition finds
/// the race: the differential battery kills it.
#[test]
fn pair_skipping_link_mutant_is_killed_differentially() {
    let model = LockModel::default();
    let (ma, mb) = conflicting_pair();
    let ca = infer_rg_cert("A", &ma, &["a".to_string()], &model);
    let cb = infer_rg_cert("B", &mb, &["b".to_string()], &model);
    assert!(
        ca.is_stable() && cb.is_stable(),
        "each module alone is quiet"
    );
    let certs = [ca, cb];

    // Honest link check: the cross-module write/write conflict on `s`
    // is reported.
    let honest = rg_incompatibilities(&certs);
    assert!(
        !honest.is_empty(),
        "honest link check must reject the composition"
    );

    // The mutant skips exactly the conflicting pair and accepts.
    let mutated = rg_incompatibilities_mutated(&certs, (0, 1));
    assert!(
        mutated.is_empty(),
        "mutant fails to be unsound — test is vacuous"
    );

    // The kill: the composed program really does race, so the mutant's
    // verdict contradicts the exploration ground truth.
    let merged = ClightModule::new([
        (
            "a",
            Function::simple(Stmt::Assign(Expr::var("s"), Expr::Const(1))),
        ),
        (
            "b",
            Function::simple(Stmt::Assign(Expr::var("s"), Expr::Const(1))),
        ),
    ]);
    let mut ge = GlobalEnv::new();
    ge.define("s", Val::Int(0));
    let entries = vec!["a".to_string(), "b".to_string()];
    let loaded = Loaded::new(Prog::new(ClightLang, vec![(merged, ge)], entries)).expect("links");
    let drf = check_drf(&loaded, &explore_cfg()).expect("explores");
    assert!(
        !drf.is_drf(),
        "composition must race — otherwise the mutant survives"
    );
}

/// Scoped certificates imply the *dynamic* rely-guarantee check of
/// `ccc_core::rg`: a module whose guarantee names no `Top` region
/// stays reach-closed (every footprint inside its own free list plus
/// the shared globals) on every entry, even under environment
/// perturbation of the shared cells — the static counterpart of the
/// `HG`/`R` side conditions.
#[test]
fn scoped_certificates_imply_dynamic_reach_closure() {
    let private = Function {
        params: vec![],
        vars: vec!["l".into()],
        body: Stmt::seq([
            Stmt::Assign(Expr::var("l"), Expr::Const(7)),
            Stmt::Assign(Expr::var("s"), Expr::var("l")),
            Stmt::Return(None),
        ]),
    };
    let reader = Function::simple(Stmt::seq([
        Stmt::Set("t".into(), Expr::var("s")),
        Stmt::Return(Some(Expr::temp("t"))),
    ]));
    let m = ClightModule::new([("w", private), ("r", reader)]);
    let mut ge = GlobalEnv::new();
    ge.define("s", Val::Int(0));
    let entries = vec!["w".to_string(), "r".to_string()];

    let cert = infer_rg_cert("scoped", &m, &entries, &LockModel::default());
    assert!(
        cert.scoped,
        "guarantee should name only concrete regions: {:?}",
        cert.guarantee
    );

    let cfg = ExploreCfg::default();
    let bump: &ccc_core::rg::EnvPerturbation = &|mem, shared| {
        for &a in shared {
            let _ = mem.store(a, Val::Int(41));
        }
    };
    for (i, entry) in entries.iter().enumerate() {
        check_reach_close(
            &ClightLang,
            &m,
            &ge,
            entry,
            &ge.initial_memory(),
            FreeList::for_thread(i),
            &[bump],
            &cfg,
        )
        .unwrap_or_else(|e| panic!("scoped cert but `{entry}` not reach-closed: {e:?}"));
    }
}

/// Certificates survive the wire format byte-for-byte, and a broken
/// document is rejected with the byte offset routed through
/// [`ccc_analysis::Diagnostic`].
#[test]
fn certificate_json_round_trips_and_rejects_with_offset() {
    let model = lock_model();
    let (m, _ge, entries) = gen_concurrent_client(3, 3, &["s0", "s1"], false);
    let cert = infer_rg_cert("client", &m, &entries, &model);
    let json = rg_cert_to_json(&cert);
    assert!(!json.contains('\n'), "disk format is single-line");
    let back = rg_cert_from_json(&json).expect("round-trips");
    assert_eq!(back, cert);
    assert_eq!(rg_cert_to_json(&back), json, "serialization is canonical");

    let err = rg_cert_from_json(&json[..json.len() / 2]).expect_err("truncated document");
    assert_eq!(err.pass, "RgCert");
    assert!(
        err.offset.is_some(),
        "JSON error must carry its byte offset: {err}"
    );
}

/// The witness-cache integration end to end: miss on first sight, hit
/// afterwards (including across the disk tier), eviction of poisoned
/// entries with re-inference — the trusted checker, not the cache, is
/// the authority.
#[test]
fn cached_certificates_obey_the_trust_discipline() {
    let model = lock_model();
    let (m, _ge, entries) = gen_concurrent_client(7, 2, &["s0", "s1"], false);
    let hash = module_hash(&m);
    let dir = tmp_dir("rgcert-disk");
    let cache = CompileCache::new().with_disk(&dir).expect("disk tier");

    let (c1, o1) = rg_cert_cached("client", &m, &entries, &model, &cache);
    assert!(matches!(o1, CertOutcome::Miss));
    let (c2, o2) = rg_cert_cached("client", &m, &entries, &model, &cache);
    assert!(matches!(o2, CertOutcome::Hit));
    assert_eq!(c1, c2);
    let stats = cache.stats();
    assert_eq!((stats.cert_misses, stats.cert_hits), (1, 1));

    // Disk tier: a cold cache over the same directory serves the
    // certificate as a hit after the trusted re-check.
    let cold = CompileCache::new().with_disk(&dir).expect("disk tier");
    let (c3, o3) = rg_cert_cached("client", &m, &entries, &model, &cold);
    assert!(
        matches!(o3, CertOutcome::Hit),
        "disk entry not served: {o3:?}"
    );
    assert_eq!(c3, c1);

    // Poison 1: syntactically valid certificate for the *wrong module*
    // (the dropped-summary mutant's output) planted under the right
    // hash — rejected, evicted, re-inferred.
    let mutated = infer_rg_cert_mutated("client", &m, &entries, &model);
    if mutated != c1 {
        cache.cert_put(hash, &rg_cert_to_json(&mutated));
        let (c4, o4) = rg_cert_cached("client", &m, &entries, &model, &cache);
        assert!(
            matches!(o4, CertOutcome::Rejected(_)),
            "poisoned entry admitted: {o4:?}"
        );
        assert_eq!(c4, c1, "re-inference must restore the honest certificate");
    }

    // Poison 2: garbage bytes — the JSON parser rejects, the outcome
    // degrades to re-inference, never to acceptance.
    cache.cert_put(hash, "{\"module\": \"client\"");
    let (c5, o5) = rg_cert_cached("client", &m, &entries, &model, &cache);
    assert!(matches!(o5, CertOutcome::Rejected(_)));
    assert_eq!(c5, c1);
}

/// Editing 1 of N modules re-infers exactly one certificate; every
/// other module's certificate is served from the cache and re-checked,
/// and the link obligations (including `RgCompatible`) are
/// re-discharged without any whole-program exploration.
#[test]
fn editing_one_module_reinfers_exactly_one_certificate() {
    const UNITS: usize = 5;
    let units_of = |progs: &[FuzzProgram]| -> Vec<SepUnit> {
        progs
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
    };
    let progs: Vec<FuzzProgram> = (0..=UNITS as u64).map(|i| gen_program(40 + i, 6)).collect();
    let base = units_of(&progs[..UNITS]);
    let mut edited_progs = progs[..UNITS].to_vec();
    edited_progs[2] = progs[UNITS].clone();
    let edited = units_of(&edited_progs);

    let (object_src, object_ge) = lock_spec("L");
    let object_tgt = id_trans(&object_src);
    let cache = CompileCache::new();

    let warm = build_program_certified(
        &base,
        &object_src,
        &object_tgt,
        &object_ge,
        &cache,
        &TransvalCertifier,
        RecheckDepth::Structural,
    )
    .expect("warm build");
    assert!(warm
        .cert_outcomes
        .iter()
        .all(|o| matches!(o, CertOutcome::Miss)));
    assert!(warm.link.ok(), "base program must link: {:?}", warm.link);

    cache.reset_stats();
    let incr = build_program_certified(
        &edited,
        &object_src,
        &object_tgt,
        &object_ge,
        &cache,
        &TransvalCertifier,
        RecheckDepth::Structural,
    )
    .expect("incremental build");
    let stats = cache.stats();
    assert_eq!(
        (stats.cert_misses, stats.cert_hits),
        (1, UNITS as u64 - 1),
        "editing 1 of {UNITS} must re-infer exactly one certificate"
    );
    for (i, o) in incr.cert_outcomes.iter().enumerate() {
        if i == 2 {
            assert!(
                matches!(o, CertOutcome::Miss),
                "edited module {i} served stale: {o:?}"
            );
        } else {
            assert!(
                matches!(o, CertOutcome::Hit),
                "unedited module {i} re-inferred: {o:?}"
            );
        }
    }
    let rg = incr
        .link
        .obligations
        .iter()
        .find(|o| o.kind == ccc_analysis::sepcomp::LinkObligationKind::RgCompatible)
        .expect("RgCompatible obligation present");
    assert!(rg.discharged, "{}", rg.note);
    assert_eq!(incr.certs.len(), UNITS);
}
