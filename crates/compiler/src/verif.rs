//! Per-pass validation against the footprint-preserving module-local
//! simulation — the executable reading of `Correct(CompCert)` (Lem. 13
//! of the paper).
//!
//! For every pass, the source and target IR programs of one compilation
//! are checked against `4φ` (Defs. 2–3) by
//! [`ccc_core::sim::check_module_sim`]: lockstep execution between
//! switch points, `FPmatch`/`LG` at every switch point, sampled rely
//! perturbations of the shared globals, and termination preservation.
//! `φ` is the identity — the pipeline preserves the global layout.

use crate::driver::CompilationArtifacts;
use ccc_core::footprint::Mu;
use ccc_core::mem::{Addr, GlobalEnv, Val};
use ccc_core::sim::{check_module_sim, ModuleCtx, SimError, SimOptions, SimReport};

/// The verdict for one pass of one compilation.
#[derive(Debug)]
pub struct PassVerdict {
    /// The pass name (see [`crate::PASS_NAMES`]).
    pub pass: &'static str,
    /// The simulation check outcome.
    pub result: Result<SimReport, SimError>,
}

impl PassVerdict {
    /// True if the simulation held.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// The verdicts of every pass of one compilation, in pipeline order.
///
/// Unlike a bare bool, the verdict names the first *failing pass*, so a
/// broken compilation localizes itself.
#[derive(Debug)]
pub struct PipelineVerdict {
    /// One verdict per pass, in pipeline order.
    pub verdicts: Vec<PassVerdict>,
}

impl PipelineVerdict {
    /// True if every pass's simulation held.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.verdicts.iter().all(PassVerdict::ok)
    }

    /// The first failing verdict, if any.
    pub fn failing(&self) -> Option<&PassVerdict> {
        self.verdicts.iter().find(|v| !v.ok())
    }

    /// The name of the first failing pass, if any.
    pub fn failing_pass(&self) -> Option<&'static str> {
        self.failing().map(|v| v.pass)
    }

    /// Iterates the per-pass verdicts.
    pub fn iter(&self) -> std::slice::Iter<'_, PassVerdict> {
        self.verdicts.iter()
    }
}

impl IntoIterator for PipelineVerdict {
    type Item = PassVerdict;
    type IntoIter = std::vec::IntoIter<PassVerdict>;
    fn into_iter(self) -> Self::IntoIter {
        self.verdicts.into_iter()
    }
}

impl<'a> IntoIterator for &'a PipelineVerdict {
    type Item = &'a PassVerdict;
    type IntoIter = std::slice::Iter<'a, PassVerdict>;
    fn into_iter(self) -> Self::IntoIter {
        self.verdicts.iter()
    }
}

/// Default rely perturbations: a couple of integer writes to each shared
/// global (exercising Def. 3 case 2(c) with concrete environment steps).
pub fn default_perturbations(ge: &GlobalEnv) -> Vec<Vec<(Addr, Val)>> {
    let cells: Vec<Addr> = ge.init_iter().map(|(a, _)| a).collect();
    if cells.is_empty() {
        return Vec::new();
    }
    let all_5: Vec<(Addr, Val)> = cells.iter().map(|&a| (a, Val::Int(5))).collect();
    let all_m1: Vec<(Addr, Val)> = cells.iter().map(|&a| (a, Val::Int(-1))).collect();
    vec![all_5, all_m1]
}

/// Checks the simulation for every pass of a compilation, on entry
/// `entry`, with the given shared global environment (used on both
/// sides — the pipeline preserves the layout, so `φ = id`). When the
/// artifacts carry the Constprop extension stage, it is verified too.
pub fn verify_passes(arts: &CompilationArtifacts, ge: &GlobalEnv, entry: &str) -> PipelineVerdict {
    verify_passes_filtered(arts, ge, entry, &|_| true)
}

/// Like [`verify_passes`], but only runs the passes whose name `keep`
/// accepts, skipping the (expensive) co-execution of the rest. Used to
/// check and time one stage at a time beside its static validator
/// (`ir_dump --validate`, the `transval_speed` bench).
pub fn verify_passes_filtered(
    arts: &CompilationArtifacts,
    ge: &GlobalEnv,
    entry: &str,
    keep: &dyn Fn(&str) -> bool,
) -> PipelineVerdict {
    let mu = Mu::identity(ge.initial_memory().dom());
    let perturbations = default_perturbations(ge);
    let opts = SimOptions {
        perturbations,
        call_oracle: &|_, _, i| Val::Int(i as i64),
        fuel: 2_000_000,
    };

    let clight = ccc_clight::ClightLang;
    let cminor = crate::cminor::CMINOR;
    let cminorsel = crate::cminorsel::CMINORSEL;
    let rtl = crate::rtl::RtlLang;
    let ltl = crate::ltl::LtlLang;
    let linear = crate::linear::LinearLang;
    let mach = crate::mach::MachLang;
    let asm = ccc_machine::X86Sc;

    macro_rules! ctx {
        ($lang:expr, $m:expr) => {
            ModuleCtx {
                lang: &$lang,
                module: $m,
                ge,
            }
        };
    }
    let mut verdicts = Vec::new();
    macro_rules! pass {
        ($name:expr, $sl:expr, $sm:expr, $tl:expr, $tm:expr) => {
            if keep($name) {
                verdicts.push(PassVerdict {
                    pass: $name,
                    result: check_module_sim(
                        &ctx!($sl, $sm),
                        &ctx!($tl, $tm),
                        &mu,
                        entry,
                        &[],
                        &opts,
                    ),
                });
            }
        };
    }

    pass!(
        "Cshmgen/Cminorgen",
        clight,
        &arts.clight,
        cminor,
        &arts.cminor
    );
    pass!(
        "Selection",
        cminor,
        &arts.cminor,
        cminorsel,
        &arts.cminorsel
    );
    pass!("RTLgen", cminorsel, &arts.cminorsel, rtl, &arts.rtl);
    pass!("Tailcall", rtl, &arts.rtl, rtl, &arts.rtl_tailcall);
    pass!("Renumber", rtl, &arts.rtl_tailcall, rtl, &arts.rtl_renumber);
    // Allocation consumes the Constprop output when that stage ran.
    let alloc_src = match &arts.rtl_constprop {
        Some(cp) => {
            pass!("Constprop", rtl, &arts.rtl_renumber, rtl, cp);
            cp
        }
        None => &arts.rtl_renumber,
    };
    pass!("Allocation", rtl, alloc_src, ltl, &arts.ltl);
    pass!("Tunneling", ltl, &arts.ltl, ltl, &arts.ltl_tunneled);
    pass!("Linearize", ltl, &arts.ltl_tunneled, linear, &arts.linear);
    pass!(
        "CleanupLabels",
        linear,
        &arts.linear,
        linear,
        &arts.linear_clean
    );
    pass!("Stacking", linear, &arts.linear_clean, mach, &arts.mach);
    pass!("Asmgen", mach, &arts.mach, asm, &arts.asm);
    PipelineVerdict { verdicts }
}

/// Checks the *composed* simulation source-to-target directly (the
/// content of Lem. 5, transitivity: the composition of the per-pass
/// simulations).
pub fn verify_end_to_end(
    arts: &CompilationArtifacts,
    ge: &GlobalEnv,
    entry: &str,
) -> Result<SimReport, SimError> {
    let mu = Mu::identity(ge.initial_memory().dom());
    let opts = SimOptions {
        perturbations: default_perturbations(ge),
        call_oracle: &|_, _, i| Val::Int(i as i64),
        fuel: 2_000_000,
    };
    check_module_sim(
        &ModuleCtx {
            lang: &ccc_clight::ClightLang,
            module: &arts.clight,
            ge,
        },
        &ModuleCtx {
            lang: &ccc_machine::X86Sc,
            module: &arts.asm,
            ge,
        },
        &mu,
        entry,
        &[],
        &opts,
    )
}

/// Why [`verify_end_to_end_tso`] failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TsoVerifyError {
    /// Loading one side failed.
    Load(String),
    /// Trace-set comparison failed (or was truncated, proving nothing).
    Traces(String),
    /// The executions disagree on value, events, or shared memory.
    Result(String),
}

impl std::fmt::Display for TsoVerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsoVerifyError::Load(e) => write!(f, "tso verify: load failed: {e}"),
            TsoVerifyError::Traces(e) => write!(f, "tso verify: {e}"),
            TsoVerifyError::Result(e) => write!(f, "tso verify: {e}"),
        }
    }
}

impl std::error::Error for TsoVerifyError {}

/// Checks the end-to-end compilation against the **TSO** machine.
///
/// The lockstep checker of [`verify_end_to_end`] needs deterministic
/// sides, and the TSO machine is not (every buffered store adds a flush
/// alternative), so this check compares behaviours instead: the full
/// trace set of the closed single-module program on the Clight source
/// must equal the trace set on the TSO target, and the deterministic
/// driver runs must agree on value, events, and shared memory. For a
/// single thread the store buffer is invisible (loads forward from it,
/// and returns drain it), so equality — not just refinement — is the
/// right relation.
///
/// # Errors
///
/// Returns which comparison failed.
pub fn verify_end_to_end_tso(
    arts: &CompilationArtifacts,
    ge: &GlobalEnv,
    entry: &str,
) -> Result<(), TsoVerifyError> {
    use ccc_core::lang::Prog;
    use ccc_core::refine::{collect_traces_preemptive, trace_equiv, ExploreCfg};
    use ccc_core::world::{run_main, Loaded};

    let cfg = ExploreCfg {
        fuel: 6000,
        ..Default::default()
    };
    let load = |e: &dyn std::fmt::Debug| TsoVerifyError::Load(format!("{e:?}"));
    let src = Loaded::new(Prog::new(
        ccc_clight::ClightLang,
        vec![(arts.clight.clone(), ge.clone())],
        vec![entry.to_string()],
    ))
    .map_err(|e| load(&e))?;
    let tgt = Loaded::new(Prog::new(
        ccc_machine::X86Tso,
        vec![(arts.asm.clone(), ge.clone())],
        vec![entry.to_string()],
    ))
    .map_err(|e| load(&e))?;
    let ts_src = collect_traces_preemptive(&src, &cfg).map_err(|e| load(&e))?;
    let ts_tgt = collect_traces_preemptive(&tgt, &cfg).map_err(|e| load(&e))?;
    if ts_src.truncated || ts_tgt.truncated {
        return Err(TsoVerifyError::Traces(
            "trace exploration truncated".to_string(),
        ));
    }
    if !trace_equiv(&ts_src, &ts_tgt) {
        return Err(TsoVerifyError::Traces(format!(
            "trace sets differ: source {:?} vs TSO target {:?}",
            ts_src.traces, ts_tgt.traces
        )));
    }

    let s = run_main(
        &ccc_clight::ClightLang,
        &arts.clight,
        ge,
        entry,
        &[],
        2_000_000,
    );
    let t = run_main(&ccc_machine::X86Tso, &arts.asm, ge, entry, &[], 2_000_000);
    match (s, t) {
        (Some((sv, sm, se)), Some((tv, tm, te))) => {
            if sv != tv {
                return Err(TsoVerifyError::Result(format!(
                    "values differ: {sv:?} vs {tv:?}"
                )));
            }
            if se != te {
                return Err(TsoVerifyError::Result(format!(
                    "events differ: {se:?} vs {te:?}"
                )));
            }
            for (a, _) in ge.initial_memory().iter() {
                if sm.load(a) != tm.load(a) {
                    return Err(TsoVerifyError::Result(format!("global {a} differs")));
                }
            }
            Ok(())
        }
        (None, None) => Ok(()),
        (s, t) => Err(TsoVerifyError::Result(format!(
            "one side aborted: source {:?}, target {:?}",
            s.is_some(),
            t.is_some()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::compile_with_artifacts;
    use ccc_clight::gen::{gen_module, GenCfg};

    #[test]
    fn every_pass_simulates_on_random_programs() {
        for seed in 0..12 {
            let (m, ge) = gen_module(seed, &GenCfg::default());
            let arts = compile_with_artifacts(&m).expect("compiles");
            let pv = verify_passes(&arts, &ge, "f");
            assert!(pv.ok(), "seed {seed}: pass {:?} failed", pv.failing_pass());
        }
    }

    #[test]
    fn end_to_end_simulation_holds() {
        for seed in [2u64, 9, 31] {
            let (m, ge) = gen_module(seed, &GenCfg::default());
            let arts = compile_with_artifacts(&m).expect("compiles");
            let r =
                verify_end_to_end(&arts, &ge, "f").unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(!r.truncated);
        }
    }

    #[test]
    fn constprop_extension_simulates_and_agrees() {
        use crate::constprop::constprop;
        use crate::driver::compile_optimized;
        use ccc_core::world::run_main;
        for seed in 0..8 {
            let (m, ge) = gen_module(seed, &GenCfg::default());
            let arts = compile_with_artifacts(&m).expect("compiles");
            let opt_rtl = constprop(&arts.rtl_renumber);
            // The pass satisfies the module-local simulation…
            let mu = ccc_core::footprint::Mu::identity(ge.initial_memory().dom());
            let opts = SimOptions {
                perturbations: default_perturbations(&ge),
                call_oracle: &|_, _, i| Val::Int(i as i64),
                fuel: 2_000_000,
            };
            let lang = crate::rtl::RtlLang;
            check_module_sim(
                &ModuleCtx {
                    lang: &lang,
                    module: &arts.rtl_renumber,
                    ge: &ge,
                },
                &ModuleCtx {
                    lang: &lang,
                    module: &opt_rtl,
                    ge: &ge,
                },
                &mu,
                "f",
                &[],
                &opts,
            )
            .unwrap_or_else(|e| panic!("seed {seed}: constprop simulation failed: {e}"));
            // …and the optimized end-to-end pipeline agrees with the source.
            let asm = compile_optimized(&m).expect("compiles optimized");
            let s = run_main(&ccc_clight::ClightLang, &m, &ge, "f", &[], 1_000_000)
                .expect("source runs");
            let t = run_main(&ccc_machine::X86Sc, &asm, &ge, "f", &[], 1_000_000)
                .expect("optimized target runs");
            assert_eq!(s.0, t.0, "seed {seed}: values");
            assert_eq!(s.2, t.2, "seed {seed}: events");
        }
    }

    #[test]
    fn simulation_checker_catches_a_broken_pass() {
        use ccc_clight::ast::{Expr as E, Function, Stmt};
        // A module printing a global; "miscompile" it by printing a
        // constant instead, and check the Selection-level simulation
        // flags the mismatch once the rely perturbs the global.
        let mut ge = GlobalEnv::new();
        ge.define("x", Val::Int(0));
        let good = ccc_clight::ClightModule::new([(
            "f",
            Function::simple(Stmt::seq([
                Stmt::call0("sync_point", vec![]),
                Stmt::Print(E::var("x")),
                Stmt::Return(None),
            ])),
        )]);
        let bad = ccc_clight::ClightModule::new([(
            "f",
            Function::simple(Stmt::seq([
                Stmt::call0("sync_point", vec![]),
                Stmt::Print(E::Const(0)),
                Stmt::Return(None),
            ])),
        )]);
        let mu = Mu::identity(ge.initial_memory().dom());
        let opts = SimOptions {
            perturbations: default_perturbations(&ge),
            call_oracle: &|_, _, _| Val::Int(0),
            fuel: 10_000,
        };
        let lang = ccc_clight::ClightLang;
        let err = check_module_sim(
            &ModuleCtx {
                lang: &lang,
                module: &good,
                ge: &ge,
            },
            &ModuleCtx {
                lang: &lang,
                module: &bad,
                ge: &ge,
            },
            &mu,
            "f",
            &[],
            &opts,
        )
        .expect_err("miscompilation must be caught");
        assert!(matches!(err, SimError::MsgMismatch { .. }), "{err}");
    }
}
