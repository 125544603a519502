//! Static translation validation vs differential co-execution, per
//! pass: how much cheaper is discharging the symbolic simulation
//! obligations of `ccc_analysis::transval` than co-executing the two
//! IRs under the footprint-preserving simulation of
//! `ccc_compiler::verif`?
//!
//! For every pipeline pass — front end, mid end and back end — each
//! generated module's pass run is checked twice: once by the symbolic
//! validator, once by the differential checker restricted to exactly
//! that pass. Both sides must accept. The run aborts unless the median
//! per-pass speedup is at least 10x, both overall and over the
//! newly-covered cross-IR stages (the economics the fuzz oracle's
//! `Validation::Static` mode relies on), and unless
//! `validate_artifacts` produces a validated witness for exactly the
//! passes `expected_passes` names — the CI gate against any stage
//! silently dropping out of static validation.
//!
//! Run with: `cargo run --release -p ccc-bench --bin transval_speed`
//! (`--smoke` shrinks the seed count for CI). Results are written to
//! `BENCH_transval.json` in the current directory.

use ccc_analysis::transval::{backend, frontend, passes as tv};
use ccc_analysis::{recheck_pipeline, validate_artifacts, SimWitness};
use ccc_clight::ast::{Binop, Expr as E, Function, Stmt};
use ccc_clight::ClightModule;
use ccc_compiler::cache::RecheckDepth;
use ccc_compiler::compile_with_artifacts_mutated;
use ccc_compiler::driver::CompilationArtifacts;
use ccc_compiler::verif::verify_passes_filtered;
use ccc_core::mem::{GlobalEnv, Val};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A module whose `f` runs a few thousand loop iterations: the
/// differential checker co-executes every one of them (twice, plus the
/// rely perturbations), while the symbolic validator's cost depends
/// only on the code size. The `seed` varies the constants and the loop
/// body shape so no two modules are identical.
fn bench_module(seed: u64, iters: i64) -> (ClightModule, GlobalEnv) {
    let k = (seed % 5) as i64 + 1;
    let body = if seed.is_multiple_of(2) {
        Stmt::Assign(
            E::var("acc"),
            E::add(E::var("acc"), E::bin(Binop::Mul, E::temp("n"), E::Const(k))),
        )
    } else {
        Stmt::Assign(
            E::var("acc"),
            E::bin(Binop::Xor, E::var("acc"), E::add(E::temp("n"), E::Const(k))),
        )
    };
    let f = Function {
        params: vec![],
        vars: vec!["acc".into()],
        body: Stmt::seq([
            Stmt::Assign(E::var("acc"), E::Const(k)),
            Stmt::Set("n".into(), E::Const(iters + (seed % 7) as i64)),
            Stmt::while_loop(
                E::bin(Binop::Lt, E::Const(0), E::temp("n")),
                Stmt::seq([
                    body,
                    Stmt::Assign(E::var("g"), E::var("acc")),
                    Stmt::Set("n".into(), E::bin(Binop::Sub, E::temp("n"), E::Const(1))),
                ]),
            ),
            Stmt::Call(Some("t".into()), "h".into(), vec![E::var("acc")]),
            Stmt::Print(E::temp("t")),
            Stmt::Return(Some(E::temp("t"))),
        ]),
    };
    let h = Function {
        params: vec!["x".into()],
        vars: vec![],
        body: Stmt::Return(Some(E::bin(Binop::Sub, E::temp("x"), E::Const(k * 3)))),
    };
    let mut ge = GlobalEnv::new();
    ge.define("g", Val::Int(0));
    (ClightModule::new([("f", f), ("h", h)]), ge)
}

/// A pass's symbolic-validator entry point over the artifacts.
type Validator = fn(&CompilationArtifacts) -> SimWitness;

/// Every pipeline pass in order, with its validator entry point and
/// whether it is one of the newly-covered cross-IR stages (the
/// original validator handled only the seven RTL-family passes).
const PASSES: [(&str, Validator, bool); 12] = [
    (
        "Cshmgen/Cminorgen",
        |a| frontend::validate_cminorgen(&a.clight, &a.cminor),
        true,
    ),
    (
        "Selection",
        |a| frontend::validate_selection(&a.cminor, &a.cminorsel),
        true,
    ),
    (
        "RTLgen",
        |a| backend::validate_rtlgen(&a.cminorsel, &a.rtl),
        true,
    ),
    (
        "Tailcall",
        |a| tv::validate_tailcall(&a.rtl, &a.rtl_tailcall),
        false,
    ),
    (
        "Renumber",
        |a| tv::validate_renumber(&a.rtl_tailcall, &a.rtl_renumber),
        false,
    ),
    (
        "Constprop",
        |a| tv::validate_constprop(&a.rtl_renumber, a.rtl_constprop.as_ref().expect("extended")),
        false,
    ),
    (
        "Allocation",
        |a| tv::validate_allocation(a.rtl_constprop.as_ref().expect("extended"), &a.ltl),
        false,
    ),
    (
        "Tunneling",
        |a| tv::validate_tunneling(&a.ltl, &a.ltl_tunneled),
        false,
    ),
    (
        "Linearize",
        |a| tv::validate_linearize(&a.ltl_tunneled, &a.linear),
        false,
    ),
    (
        "CleanupLabels",
        |a| tv::validate_cleanup(&a.linear, &a.linear_clean),
        false,
    ),
    (
        "Stacking",
        |a| backend::validate_stacking(&a.linear_clean, &a.mach),
        true,
    ),
    (
        "Asmgen",
        |a| backend::validate_asmgen(&a.mach, &a.asm),
        true,
    ),
];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (seeds, iters): (u64, i64) = if smoke { (4, 2_000) } else { (12, 10_000) };

    println!("translation validation: symbolic vs differential, per pass");
    println!("({seeds} loop-heavy modules of ~{iters} iterations, both checkers must accept)\n");

    let modules: Vec<_> = (0..seeds)
        .map(|seed| {
            let (m, ge) = bench_module(seed, iters);
            // The extended pipeline, so the Constprop stage is present.
            let arts = compile_with_artifacts_mutated(&m, None).expect("compiles");
            (arts, ge)
        })
        .collect();

    // The coverage gate: the full pipeline validator must produce a
    // validated witness for every pass the pipeline ran — the same
    // structural rules a cache hit re-checks.
    for (seed, (arts, _)) in modules.iter().enumerate() {
        let w = validate_artifacts(arts);
        if let Err(e) = recheck_pipeline(arts, &w, RecheckDepth::Structural) {
            panic!("seed {seed}: pipeline witness incomplete: {e}");
        }
    }

    let mut rows = Vec::new();
    for (pass, validate, new_stage) in PASSES {
        let mut t_static = Duration::ZERO;
        let mut t_diff = Duration::ZERO;
        for (seed, (arts, ge)) in modules.iter().enumerate() {
            let t = Instant::now();
            let w = validate(arts);
            t_static += t.elapsed();
            assert!(
                w.validated(),
                "seed {seed}: static validator rejected {pass}:\n{w}"
            );

            let t = Instant::now();
            let pv = verify_passes_filtered(arts, ge, "f", &|p| p == pass);
            t_diff += t.elapsed();
            assert!(pv.ok(), "seed {seed}: differential check failed {pass}");
        }
        let speedup = t_diff.as_secs_f64() / t_static.as_secs_f64();
        println!(
            "  {pass:<17} static {:>9.3} ms   differential {:>9.3} ms   {speedup:>7.1}x{}",
            ms(t_static),
            ms(t_diff),
            if new_stage { "   (new)" } else { "" }
        );
        rows.push((pass, ms(t_static), ms(t_diff), speedup, new_stage));
    }

    let median_of = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let median = median_of(rows.iter().map(|r| r.3).collect());
    let median_new = median_of(rows.iter().filter(|r| r.4).map(|r| r.3).collect());
    println!("\nmedian speedup: {median:.1}x (newly covered stages: {median_new:.1}x)");

    let mut json = String::from("{\n");
    write!(
        json,
        "  \"bench\": \"transval\",\n  \"smoke\": {smoke},\n  \"seeds\": {seeds},\n  \
         \"median_speedup\": {median:.2},\n  \"median_speedup_new_stages\": {median_new:.2},\n  \
         \"passes\": [\n"
    )
    .unwrap();
    for (i, (pass, st, df, sp, new_stage)) in rows.iter().enumerate() {
        write!(
            json,
            "    {{\"pass\": \"{pass}\", \"static_ms\": {st:.4}, \
             \"differential_ms\": {df:.4}, \"speedup\": {sp:.2}, \"new_stage\": {new_stage}}}"
        )
        .unwrap();
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_transval.json", &json).expect("write BENCH_transval.json");
    println!(
        "wrote BENCH_transval.json ({} passes, {seeds} modules)",
        rows.len()
    );

    assert!(
        median >= 10.0,
        "median static-vs-differential speedup {median:.1}x below the 10x bar"
    );
    assert!(
        median_new >= 10.0,
        "median speedup on newly covered stages {median_new:.1}x below the 10x bar"
    );
}
