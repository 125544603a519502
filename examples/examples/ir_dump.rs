//! Dumps every intermediate representation of one compilation — the
//! pipeline of Fig. 11 made visible. Useful for seeing what each pass
//! (including the Constprop extension) actually does to the code, and
//! what the static footprint analysis infers about it.
//!
//! Run with: `cargo run -p ccc-examples --example ir_dump`
//!
//! Pass `--validate` to additionally run both translation validators
//! over this compilation and print a per-stage table: the symbolic
//! validator of `ccc_analysis::transval` (static) beside the
//! co-execution simulation check of `ccc_compiler::verif`
//! (differential). Each row shows both verdicts and the wall-clock
//! each checker spent on that stage; a row where they disagree is
//! flagged `DISAGREE`. A run that prints a rejection — a `REJECTED` or
//! `FAILED` verdict, a disagreement, or an RG certificate the trusted
//! checker refuses — exits with status 1.

use ccc_analysis::transval::{backend, frontend, passes as tv};
use ccc_analysis::{infer_clight, infer_rtl, SimWitness};
use ccc_clight::ast::{Binop, Expr as E, Function, Stmt};
use ccc_clight::ClightModule;
use ccc_compiler::constprop::constprop;
use ccc_compiler::driver::{compile_with_artifacts, CompilationArtifacts};
use ccc_compiler::pretty::{dump_artifacts, rtl_module};
use ccc_compiler::verif::verify_passes_filtered;
use ccc_core::mem::GlobalEnv;
use std::time::Instant;

/// Every pipeline stage the validators judge, in order, with its
/// symbolic validator entry point. The Constprop stage is skipped when
/// the plain pipeline did not produce its artifact.
type StageValidator = fn(&CompilationArtifacts) -> Option<SimWitness>;

const STAGES: [(&str, StageValidator); 12] = [
    ("Cshmgen/Cminorgen", |a| {
        Some(frontend::validate_cminorgen(&a.clight, &a.cminor))
    }),
    ("Selection", |a| {
        Some(frontend::validate_selection(&a.cminor, &a.cminorsel))
    }),
    ("RTLgen", |a| {
        Some(backend::validate_rtlgen(&a.cminorsel, &a.rtl))
    }),
    ("Tailcall", |a| {
        Some(tv::validate_tailcall(&a.rtl, &a.rtl_tailcall))
    }),
    ("Renumber", |a| {
        Some(tv::validate_renumber(&a.rtl_tailcall, &a.rtl_renumber))
    }),
    ("Constprop", |a| {
        a.rtl_constprop
            .as_ref()
            .map(|cp| tv::validate_constprop(&a.rtl_renumber, cp))
    }),
    ("Allocation", |a| {
        Some(tv::validate_allocation(
            a.rtl_constprop.as_ref().unwrap_or(&a.rtl_renumber),
            &a.ltl,
        ))
    }),
    ("Tunneling", |a| {
        Some(tv::validate_tunneling(&a.ltl, &a.ltl_tunneled))
    }),
    ("Linearize", |a| {
        Some(tv::validate_linearize(&a.ltl_tunneled, &a.linear))
    }),
    ("CleanupLabels", |a| {
        Some(tv::validate_cleanup(&a.linear, &a.linear_clean))
    }),
    ("Stacking", |a| {
        Some(backend::validate_stacking(&a.linear_clean, &a.mach))
    }),
    ("Asmgen", |a| {
        Some(backend::validate_asmgen(&a.mach, &a.asm))
    }),
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut validate = false;
    for arg in std::env::args().skip(1) {
        if arg == "--validate" {
            validate = true;
        } else {
            eprintln!("usage: ir_dump [--validate]");
            std::process::exit(2);
        }
    }
    // sum(n) — a small function with a loop, a local, a call and a print.
    let sum = Function {
        params: vec!["n".into()],
        vars: vec!["acc".into()],
        body: Stmt::seq([
            Stmt::Assign(E::var("acc"), E::Const(0)),
            Stmt::while_loop(
                E::bin(Binop::Lt, E::Const(0), E::temp("n")),
                Stmt::seq([
                    Stmt::Assign(E::var("acc"), E::add(E::var("acc"), E::temp("n"))),
                    Stmt::Set("n".into(), E::bin(Binop::Sub, E::temp("n"), E::Const(1))),
                ]),
            ),
            Stmt::Return(Some(E::var("acc"))),
        ]),
    };
    let main_fn = Function::simple(Stmt::seq([
        Stmt::Call(
            Some("t".into()),
            "sum".into(),
            vec![E::bin(Binop::Mul, E::Const(2), E::Const(5))],
        ),
        Stmt::Print(E::temp("t")),
        Stmt::Return(Some(E::temp("t"))),
    ]));
    let m = ClightModule::new([("main", main_fn), ("sum", sum)]);

    let arts = compile_with_artifacts(&m)?;
    println!("{}", dump_artifacts(&arts));

    println!("=== RTL after the Constprop extension ===");
    println!("{}", rtl_module(&constprop(&arts.rtl_renumber)));
    println!("(note `2 * 5` folded to 10 before reaching the call)");

    println!("=== Static footprints (ccc-analysis) ===\n");
    let cs = infer_clight(&m);
    println!("Clight summaries (regions each function may read/write):");
    for (name, fp) in &cs.funcs {
        println!("  {name}: {fp}");
    }
    let rs = infer_rtl(&arts.rtl);
    println!("\nRTL, with the inferred footprint next to each memory-touching node:");
    for (name, r) in &rs.funcs {
        println!("  {name}:");
        for (n, instr) in &arts.rtl.funcs[name].code {
            let fp = &r.per_node[n];
            if fp.is_emp() {
                println!("    {n:>3}: {instr:?}");
            } else {
                println!("    {n:>3}: {instr:?}   ; {fp}");
            }
        }
        println!("    summary: {}", r.summary);
    }
    println!("\n(`stack` is the thread-private area; a dynamic run can only touch");
    println!("addresses inside these regions — checked for every corpus program.)");

    if validate {
        println!("\n=== Translation validation (static and differential) ===\n");
        let ge = GlobalEnv::new();
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1000.0;

        // Per-stage table: each checker's verdict and the wall-clock it
        // spent on that stage alone.
        println!("  {:<17} {:>22} {:>26}", "stage", "static", "differential");
        let mut witnesses = Vec::new();
        let mut disagreements = 0;
        for (stage, validate_stage) in STAGES {
            let t = Instant::now();
            let Some(w) = validate_stage(&arts) else {
                println!("  {stage:<17} {:>22} {:>26}", "(stage not run)", "—");
                continue;
            };
            let static_ms = ms(t);
            let t = Instant::now();
            let simulated = verify_passes_filtered(&arts, &ge, "main", &|p| p == stage).ok();
            let diff_ms = ms(t);
            let agree = w.validated() == simulated;
            if !agree {
                disagreements += 1;
            }
            println!(
                "  {stage:<17} {:>22} {:>26}{}",
                format!(
                    "{} {static_ms:>8.3} ms",
                    if w.validated() {
                        "validated"
                    } else {
                        "REJECTED"
                    }
                ),
                format!(
                    "{} {diff_ms:>8.3} ms",
                    if simulated { "simulated OK" } else { "FAILED" }
                ),
                if agree { "" } else { "   DISAGREE" }
            );
            witnesses.push((w, simulated));
        }

        println!("\nSymbolic validator (per-pass SimWitness):");
        for (w, _) in &witnesses {
            println!("  {w}");
        }
        let accepted = witnesses
            .iter()
            .all(|(w, simulated)| w.validated() && *simulated);
        let mut failed = !accepted;
        println!(
            "\nverdict: {}",
            if accepted { "accepted" } else { "REJECTED" }
        );
        if disagreements > 0 {
            println!("static/differential DISAGREEMENTS: {disagreements} stage(s)");
        }

        // The module's rely-guarantee certificate — the per-module
        // interference summary the link-time RgCompatible obligation
        // consumes (ccc_analysis::rg_cert). A sequential module like
        // this one publishes an empty guarantee: it touches only its
        // own stack, so any environment is a valid rely.
        let entries = vec!["main".to_string()];
        let model = ccc_analysis::LockModel::default();
        let cert = ccc_analysis::infer_rg_cert("ir_dump", &m, &entries, &model);
        let admitted = ccc_analysis::rg_cert_violation(&cert, &m, &entries, &model).is_none();
        failed |= !admitted;
        println!("\nRG certificate (static interference summary):");
        println!(
            "  guarantee: {} action(s)   rely: {} clause(s)   self-stable: {}   scoped: {}",
            cert.guarantee.len(),
            cert.rely.len(),
            cert.self_stable,
            cert.scoped
        );
        for a in &cert.guarantee {
            println!(
                "    {} {} locks={:?} atomic={}",
                if a.write { "write" } else { "read" },
                a.region,
                a.locks,
                a.atomic
            );
        }
        println!(
            "  verdict: {}   trusted checker: {}",
            if cert.is_stable() {
                "Stable"
            } else {
                "MayInterfere"
            },
            if admitted { "admitted" } else { "REJECTED" }
        );
        if failed {
            std::process::exit(1);
        }
    }
    Ok(())
}
