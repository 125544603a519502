//! The compilation driver: the full CompCert-shaped pipeline of Fig. 11
//! and its per-pass validation hooks.
//!
//! `Comp` of §7.2: concurrent Clight client modules are compiled with
//! [`compile`] (all twelve passes); object modules (CImp) go through the
//! identity transformation `IdTrans` — syntactically unchanged, only
//! their semantics is reinterpreted at link time.
//!
//! Every intermediate program of a compilation is kept in
//! [`CompilationArtifacts`], so tests, the simulation checker, and the
//! benchmark harness can validate and time each pass individually (the
//! per-pass structure of the paper's Fig. 13).

use crate::allocation::allocation;
use crate::asmgen::{asmgen, AsmgenError};
use crate::cleanuplabels::cleanup_labels;
use crate::cminor::CminorModule;
use crate::cminorgen::{cminorgen, CminorgenError};
use crate::cminorsel::CminorSelModule;
use crate::linear::LinearModule;
use crate::linearize::linearize;
use crate::ltl::LtlModule;
use crate::mach::MachModule;
use crate::renumber::renumber;
use crate::rtl::RtlModule;
use crate::rtlgen::rtlgen;
use crate::selection::selection;
use crate::stacking::{stacking, StackingError};
use crate::tailcall::tailcall;
use crate::tunneling::tunneling;
use ccc_clight::ClightModule;
use ccc_machine::AsmModule;

/// A compilation failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CompileError {
    /// The front-end rejected the program.
    Cminorgen(CminorgenError),
    /// Frame layout failed.
    Stacking(StackingError),
    /// Assembly generation failed.
    Asmgen(AsmgenError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Cminorgen(e) => e.fmt(f),
            CompileError::Stacking(e) => e.fmt(f),
            CompileError::Asmgen(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CompileError {}

/// The names of the pipeline passes, in order (Fig. 11).
pub const PASS_NAMES: [&str; 11] = [
    "Cshmgen/Cminorgen",
    "Selection",
    "RTLgen",
    "Tailcall",
    "Renumber",
    "Allocation",
    "Tunneling",
    "Linearize",
    "CleanupLabels",
    "Stacking",
    "Asmgen",
];

/// Every intermediate program of one compilation.
///
/// `PartialEq` is load-bearing for the incremental cache ([`crate::cache`]):
/// a cache hit is only trusted after the stored source stage is compared
/// bit-for-bit against the requested module, and the sepcomp test
/// battery asserts whole-artifact equality between cached and cold
/// builds.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompilationArtifacts {
    /// The source.
    pub clight: ClightModule,
    /// After Cshmgen/Cminorgen.
    pub cminor: CminorModule,
    /// After Selection.
    pub cminorsel: CminorSelModule,
    /// After RTLgen.
    pub rtl: RtlModule,
    /// After Tailcall.
    pub rtl_tailcall: RtlModule,
    /// After Renumber.
    pub rtl_renumber: RtlModule,
    /// After the optional Constprop extension pass (`None` in the
    /// standard pipeline; `Some` under
    /// [`compile_optimized_with_artifacts`] and the mutation harness).
    /// When present, it is the input `Allocation` consumed.
    pub rtl_constprop: Option<RtlModule>,
    /// After Allocation.
    pub ltl: LtlModule,
    /// After Tunneling.
    pub ltl_tunneled: LtlModule,
    /// After Linearize.
    pub linear: LinearModule,
    /// After CleanupLabels.
    pub linear_clean: LinearModule,
    /// After Stacking.
    pub mach: MachModule,
    /// The final assembly.
    pub asm: AsmModule,
}

/// Runs the whole pipeline, keeping every intermediate program.
///
/// # Errors
///
/// Propagates the failing pass's error.
pub fn compile_with_artifacts(m: &ClightModule) -> Result<CompilationArtifacts, CompileError> {
    let cminor = cminorgen(m).map_err(CompileError::Cminorgen)?;
    let cminorsel = selection(&cminor);
    let rtl = rtlgen(&cminorsel);
    let rtl_tailcall = tailcall(&rtl);
    let rtl_renumber = renumber(&rtl_tailcall);
    let ltl = allocation(&rtl_renumber);
    let ltl_tunneled = tunneling(&ltl);
    let linear = linearize(&ltl_tunneled);
    let linear_clean = cleanup_labels(&linear);
    let mach = stacking(&linear_clean).map_err(CompileError::Stacking)?;
    let asm = asmgen(&mach).map_err(CompileError::Asmgen)?;
    Ok(CompilationArtifacts {
        clight: m.clone(),
        cminor,
        cminorsel,
        rtl,
        rtl_tailcall,
        rtl_renumber,
        rtl_constprop: None,
        ltl,
        ltl_tunneled,
        linear,
        linear_clean,
        mach,
        asm,
    })
}

/// `CompCert(γ)` — compiles a Clight client module to x86 assembly.
///
/// # Errors
///
/// Propagates the failing pass's error.
///
/// # Examples
///
/// ```
/// use ccc_clight::{ClightModule, Expr, Function, Stmt};
/// use ccc_compiler::driver::compile;
/// use ccc_core::mem::{GlobalEnv, Val};
/// use ccc_core::world::run_main;
/// use ccc_machine::X86Sc;
///
/// let m = ClightModule::new([(
///     "f",
///     Function::simple(Stmt::Return(Some(Expr::add(Expr::Const(40), Expr::Const(2))))),
/// )]);
/// let asm = compile(&m)?;
/// let ge = GlobalEnv::new();
/// let (v, _, _) = run_main(&X86Sc, &asm, &ge, "f", &[], 1000).expect("runs");
/// assert_eq!(v, Val::Int(42));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compile(m: &ClightModule) -> Result<AsmModule, CompileError> {
    Ok(compile_with_artifacts(m)?.asm)
}

/// `IdTrans` — the identity transformation used for object modules
/// (§7.2): returns the module unchanged.
pub fn id_trans<M: Clone>(m: &M) -> M {
    m.clone()
}

/// The *extension* pipeline: the standard passes plus RTL constant
/// propagation after `Renumber` (one of the optimization passes the
/// paper leaves as future work; validated with the same simulation
/// machinery as the others).
///
/// # Errors
///
/// Propagates the failing pass's error.
pub fn compile_optimized(m: &ClightModule) -> Result<AsmModule, CompileError> {
    Ok(compile_optimized_with_artifacts(m)?.asm)
}

/// Like [`compile_with_artifacts`], but running the extension pipeline
/// (Constprop after Renumber); the artifacts carry the Constprop stage
/// in [`CompilationArtifacts::rtl_constprop`].
///
/// # Errors
///
/// Propagates the failing pass's error.
pub fn compile_optimized_with_artifacts(
    m: &ClightModule,
) -> Result<CompilationArtifacts, CompileError> {
    crate::mutant::compile_with_artifacts_mutated(m, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_clight::gen::{gen_module, GenCfg};
    use ccc_clight::ClightLang;
    use ccc_core::world::run_main;
    use ccc_machine::X86Sc;

    #[test]
    fn end_to_end_random_differential() {
        for seed in 0..60 {
            let (m, ge) = gen_module(seed, &GenCfg::default());
            let asm = compile(&m).expect("compiles");
            let s = run_main(&ClightLang, &m, &ge, "f", &[], 1_000_000)
                .unwrap_or_else(|| panic!("seed {seed}: source aborted"));
            let t = run_main(&X86Sc, &asm, &ge, "f", &[], 1_000_000)
                .unwrap_or_else(|| panic!("seed {seed}: target aborted"));
            assert_eq!(s.0, t.0, "seed {seed}: return values");
            assert_eq!(s.2, t.2, "seed {seed}: events");
            for (a, _) in ge.initial_memory().iter() {
                assert_eq!(s.1.load(a), t.1.load(a), "seed {seed}: global {a}");
            }
        }
    }

    #[test]
    fn every_intermediate_stage_agrees() {
        use crate::cminor::CMINOR;
        use crate::cminorsel::CMINORSEL;
        use crate::linear::LinearLang;
        use crate::ltl::LtlLang;
        use crate::mach::MachLang;
        use crate::rtl::RtlLang;

        for seed in [1u64, 7, 13, 23] {
            let (m, ge) = gen_module(seed, &GenCfg::default());
            let a = compile_with_artifacts(&m).expect("compiles");
            let reference =
                run_main(&ClightLang, &m, &ge, "f", &[], 1_000_000).expect("source runs");
            macro_rules! check_stage {
                ($lang:expr, $module:expr, $name:literal) => {{
                    let r = run_main(&$lang, $module, &ge, "f", &[], 1_000_000)
                        .unwrap_or_else(|| panic!("seed {seed}: {} aborted", $name));
                    assert_eq!(reference.0, r.0, "seed {seed}: {} value", $name);
                    assert_eq!(reference.2, r.2, "seed {seed}: {} events", $name);
                }};
            }
            check_stage!(CMINOR, &a.cminor, "Cminor");
            check_stage!(CMINORSEL, &a.cminorsel, "CminorSel");
            check_stage!(RtlLang, &a.rtl, "RTL");
            check_stage!(RtlLang, &a.rtl_tailcall, "RTL/tailcall");
            check_stage!(RtlLang, &a.rtl_renumber, "RTL/renumber");
            check_stage!(LtlLang, &a.ltl, "LTL");
            check_stage!(LtlLang, &a.ltl_tunneled, "LTL/tunneled");
            check_stage!(LinearLang, &a.linear, "Linear");
            check_stage!(LinearLang, &a.linear_clean, "Linear/clean");
            check_stage!(MachLang, &a.mach, "Mach");
            check_stage!(X86Sc, &a.asm, "Asm");
        }
    }

    #[test]
    fn compiled_code_is_wd_and_det() {
        let (m, ge) = gen_module(5, &GenCfg::default());
        let asm = compile(&m).expect("compiles");
        let cfg = ccc_core::refine::ExploreCfg {
            fuel: 5000,
            ..Default::default()
        };
        ccc_core::wd::check_wd(&X86Sc, &asm, &ge, "f", &ge.initial_memory(), &cfg)
            .expect("wd(compiled x86)");
        ccc_core::wd::check_det(&X86Sc, &asm, &ge, "f", &ge.initial_memory(), &cfg)
            .expect("det(compiled x86)");
    }

    #[test]
    fn internal_calls_compile() {
        use ccc_clight::ast::{Expr as E, Function as CF, Stmt};
        let g = CF {
            params: vec!["a".into()],
            vars: vec![],
            body: Stmt::Return(Some(E::add(E::temp("a"), E::Const(1)))),
        };
        let f = CF::simple(Stmt::seq([
            Stmt::Call(Some("t".into()), "g".into(), vec![E::Const(41)]),
            Stmt::Return(Some(E::temp("t"))),
        ]));
        let m = ClightModule::new([("f", f), ("g", g)]);
        let asm = compile(&m).expect("compiles");
        let ge = ccc_core::mem::GlobalEnv::new();
        let (v, _, _) = run_main(&X86Sc, &asm, &ge, "f", &[], 10_000).expect("runs");
        assert_eq!(v, ccc_core::mem::Val::Int(42));
    }

    #[test]
    fn external_calls_surface_at_asm_level() {
        use ccc_clight::ast::{Expr as E, Function as CF, Stmt};
        // Calls to `lock`/`unlock` are not defined in the module: they
        // must remain external calls in the assembly.
        let f = CF::simple(Stmt::seq([
            Stmt::call0("lock", vec![]),
            Stmt::call0("unlock", vec![]),
            Stmt::Return(Some(E::Const(0))),
        ]));
        let m = ClightModule::new([("f", f)]);
        let asm = compile(&m).expect("compiles");
        let names: Vec<_> = asm.funcs["f"]
            .code
            .iter()
            .filter_map(|i| match i {
                ccc_machine::Instr::Call(n, _) => Some(n.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["lock".to_string(), "unlock".to_string()]);
    }
}
