//! The pipeline-wide differential oracle.
//!
//! [`check_program`] lowers a [`FuzzProgram`], compiles it through the
//! (optionally mutated) extended pipeline, and cross-checks **every**
//! IR's footprint-instrumented interpreter plus the SC and TSO machines
//! against the Clight source:
//!
//! * **sequential shape** — each stage is executed deterministically
//!   and must agree with the source on return value, event trace,
//!   final shared memory, and (via `fp_match` with the identity `µ`)
//!   the global part of the dynamic footprint;
//! * **concurrent shape** — each stage is linked against the CImp lock
//!   object and explored exhaustively; its preemptive trace set and DRF
//!   verdict must agree with the source's, and when the source is DRF
//!   the TSO machine must agree with the SC machine on the final
//!   assembly (TSO robustness of lock-disciplined clients);
//! * both shapes additionally exercise the schedule record/replay API:
//!   a recorded random schedule must replay to the identical run, and a
//!   completed recorded run must appear in the exhaustively collected
//!   trace set.
//!
//! The first disagreeing stage *localizes* the failure: stages are
//! compared in pipeline order, so the owning pass is the one between
//! the last agreeing IR and the first disagreeing one.

use crate::spec::{lower, FuzzProgram};
use ccc_analysis::{validate_artifacts, validate_id_trans};
use ccc_clight::ClightLang;
use ccc_compiler::driver::CompilationArtifacts;
use ccc_compiler::{
    compile_with_artifacts_mutated, id_trans_drop_assert, id_trans_mutated, Mutant,
};
use ccc_core::footprint::{fp_match, Mu};
use ccc_core::lang::Lang;
use ccc_core::mem::GlobalEnv;
use ccc_core::race::check_drf_with_traces;
use ccc_core::refine::{collect_traces_preemptive, trace_equiv, ExploreCfg, Terminal, Trace};
use ccc_core::world::{replay_schedule, run_main_traced, run_schedule_recorded, Loaded, RunEnd};
use ccc_core::Reduction;
use ccc_machine::{X86Sc, X86Tso};
use ccc_sync::lock::lock_spec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which checkers judge each compiled stage.
///
/// Both modes run static translation validation (`transval`) first; a
/// rejection kills the input at `transval/<pass>` before any code runs.
/// They differ in what executes afterwards.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Validation {
    /// Transval alone judges the compiled stages: their differential
    /// co-execution is skipped, and only the TSO machine comparison and
    /// the schedule record/replay probe still execute code.
    Static,
    /// Transval, then differential co-execution of every stage. A
    /// differential failure at a stage transval validated is reported
    /// as a static/differential disagreement: one of the two checkers
    /// is wrong, or sees a miscompilation the other cannot.
    Both,
}

/// Tuning for one oracle invocation.
#[derive(Clone, Debug)]
pub struct OracleCfg {
    /// Fuel for the deterministic per-stage runs (sequential shape).
    pub seq_fuel: usize,
    /// Exploration budget for the concurrent shape. Each stage's trace
    /// set and DRF verdict come from one walk
    /// ([`check_drf_with_traces`]); the TSO stage collects traces
    /// alone.
    pub explore: ExploreCfg,
    /// Step bound for the schedule record/replay probe.
    pub schedule_steps: usize,
    /// Seed for the random schedule of the record/replay probe.
    pub schedule_seed: u64,
    /// How to validate each compilation (default
    /// [`Validation::Both`]).
    pub validation: Validation,
}

impl Default for OracleCfg {
    fn default() -> OracleCfg {
        OracleCfg {
            seq_fuel: 1_000_000,
            // The state cap doubles as the memory/time bound per stage:
            // explorations that hit it are *inconclusive* (the oracle
            // treats them as agreement rather than risking false kills),
            // so a tighter cap only converts pathological inputs into
            // fast no-ops. 40k states keeps the worst TSO store-buffer
            // blowup under 0.12 s: a truncated Asm/TSO trace collection,
            // the slowest over the 80 concurrent inputs of
            // `stream_input(0..300)` on a 2-core Xeon.
            // Ample reduction and one walk per stage for traces and
            // DRF keep the per-stage cost low.
            explore: ExploreCfg {
                fuel: 400,
                max_states: 40_000,
                reduction: Reduction::Ample,
                ..ExploreCfg::default()
            },
            schedule_steps: 100_000,
            schedule_seed: 7,
            validation: Validation::Both,
        }
    }
}

/// The pipeline pass whose symbolic validation covers a differential
/// stage name. Every compiled stage is covered; only the TSO machine
/// comparison (`Asm/TSO`) and the schedule replay probe have no static
/// counterpart.
fn owning_pass(stage: &str) -> Option<&'static str> {
    match stage {
        "Cminor" => Some("Cshmgen/Cminorgen"),
        "CminorSel" => Some("Selection"),
        "RTL" => Some("RTLgen"),
        "RTL/tailcall" => Some("Tailcall"),
        "RTL/renumber" => Some("Renumber"),
        "Constprop" => Some("Constprop"),
        "LTL" => Some("Allocation"),
        "LTL/tunneled" => Some("Tunneling"),
        "Linear" => Some("Linearize"),
        "Linear/clean" => Some("CleanupLabels"),
        "Mach" => Some("Stacking"),
        "Asm/SC" => Some("Asmgen"),
        _ => None,
    }
}

/// A differential disagreement, localized to the first stage that
/// diverged from the Clight source.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FuzzFailure {
    /// The first disagreeing stage (e.g. `"RTL/tailcall"`, `"Asm/TSO"`,
    /// `"schedule-replay"`).
    pub stage: String,
    /// What disagreed.
    pub detail: String,
}

impl std::fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.stage, self.detail)
    }
}

fn fail(stage: &str, detail: impl Into<String>) -> FuzzFailure {
    FuzzFailure {
        stage: stage.to_string(),
        detail: detail.into(),
    }
}

/// One deterministic instrumented run: value, events, final values of
/// the shared globals, and the global part of the dynamic footprint.
type SeqObs = Option<(
    ccc_core::mem::Val,
    Vec<ccc_core::lang::Event>,
    Vec<Option<ccc_core::mem::Val>>,
    ccc_core::footprint::Footprint,
)>;

fn observe_seq<L: Lang>(
    lang: &L,
    module: &L::Module,
    ge: &GlobalEnv,
    entry: &str,
    fuel: usize,
) -> SeqObs {
    let (v, mem, events, fp) = run_main_traced(lang, module, ge, entry, &[], fuel)?;
    let globals: Vec<_> = ge.initial_memory().dom().map(|a| mem.load(a)).collect();
    let keep: std::collections::BTreeSet<_> = ge.initial_memory().dom().collect();
    let gfp = ccc_core::footprint::Footprint {
        rs: fp.rs.intersection(&keep).copied().collect(),
        ws: fp.ws.intersection(&keep).copied().collect(),
    };
    Some((v, events, globals, gfp))
}

fn compare_seq(stage: &str, src: &SeqObs, tgt: &SeqObs, mu: &Mu) -> Result<(), FuzzFailure> {
    match (src, tgt) {
        (None, None) => Ok(()),
        (Some(_), None) => Err(fail(stage, "stage aborted where the source terminated")),
        (None, Some(_)) => Err(fail(stage, "stage terminated where the source did not")),
        (Some((sv, se, sg, sfp)), Some((tv, te, tg, tfp))) => {
            if sv != tv {
                return Err(fail(
                    stage,
                    format!("return values differ: {sv:?} vs {tv:?}"),
                ));
            }
            if se != te {
                return Err(fail(
                    stage,
                    format!("event traces differ: {se:?} vs {te:?}"),
                ));
            }
            if sg != tg {
                return Err(fail(
                    stage,
                    format!("final globals differ: {sg:?} vs {tg:?}"),
                ));
            }
            if !fp_match(mu, sfp, tfp) {
                return Err(fail(
                    stage,
                    format!("global footprints inconsistent: {sfp:?} vs {tfp:?}"),
                ));
            }
            Ok(())
        }
    }
}

/// Exhaustive observation of one linked concurrent stage: trace set and
/// DRF verdict, from one exploration ([`check_drf_with_traces`]). Each
/// component is `None` when its exploration budget
/// was exhausted — inconclusive, so no comparison is made against it.
/// The two are tracked separately because they truncate differently: a
/// racing spin loop can blow up the trace set while the race itself is
/// found within a handful of states.
struct ConcObs {
    traces: Option<ccc_core::refine::TraceSet>,
    drf: Option<bool>,
}

fn observe_conc<L: Lang>(loaded: &Loaded<L>, cfg: &ExploreCfg) -> Result<ConcObs, String> {
    let (ts, drf) = check_drf_with_traces(loaded, cfg).map_err(|e| format!("{e:?}"))?;
    Ok(ConcObs {
        traces: (!ts.truncated).then_some(ts),
        // A found race is a definite verdict even if the exploration
        // stopped early — only a raceless truncated search is open.
        drf: if !drf.is_drf() {
            Some(false)
        } else {
            (!drf.truncated).then_some(true)
        },
    })
}

fn compare_conc(stage: &str, src: &ConcObs, tgt: &ConcObs) -> Result<(), FuzzFailure> {
    if let (Some(s), Some(t)) = (&src.traces, &tgt.traces) {
        if !trace_equiv(s, t) {
            return Err(fail(
                stage,
                format!(
                    "trace sets differ: {} source traces vs {} stage traces",
                    s.traces.len(),
                    t.traces.len()
                ),
            ));
        }
    }
    if let (Some(s), Some(t)) = (src.drf, tgt.drf) {
        if s != t {
            return Err(fail(
                stage,
                format!("DRF verdicts differ: source {s} vs stage {t}"),
            ));
        }
    }
    Ok(())
}

/// Probes the schedule record/replay API on a loaded program: a random
/// recorded schedule must replay to the identical run, and (when the
/// exhaustive trace set is available) a completed run must appear in it.
fn check_schedule_replay<L: Lang>(
    loaded: &Loaded<L>,
    traces: Option<&ccc_core::refine::TraceSet>,
    cfg: &OracleCfg,
) -> Result<(), FuzzFailure> {
    let stage = "schedule-replay";
    let mut rng = StdRng::seed_from_u64(cfg.schedule_seed);
    let w = loaded
        .load()
        .map_err(|e| fail(stage, format!("load failed: {e:?}")))?;
    let (r1, sched) = run_schedule_recorded(loaded, w, cfg.schedule_steps, |n| rng.gen_range(0..n));
    let r2 = replay_schedule(loaded, cfg.schedule_steps, &sched)
        .map_err(|e| fail(stage, format!("replay load failed: {e:?}")))?;
    if r1 != r2 {
        return Err(fail(
            stage,
            format!("recorded run and its replay differ: {r1:?} vs {r2:?}"),
        ));
    }
    if let (RunEnd::Done, Some(ts)) = (r1.end, traces) {
        let t = Trace {
            events: r1.events,
            end: Terminal::Done,
        };
        if !ts.traces.contains(&t) {
            return Err(fail(
                stage,
                format!("scheduled run produced a trace outside the exhaustive set: {t:?}"),
            ));
        }
    }
    Ok(())
}

/// Runs the full differential oracle on one program, optionally with a
/// pipeline mutant enabled.
///
/// `Ok(())` means every comparison agreed (or was inconclusive because
/// an exploration budget was exhausted, which is reported as agreement
/// to avoid false kills).
///
/// # Errors
///
/// Returns the first localized disagreement.
pub fn check_program(
    p: &FuzzProgram,
    mutant: Option<Mutant>,
    cfg: &OracleCfg,
) -> Result<(), FuzzFailure> {
    let (m, ge, entries) = lower(p);
    let arts = compile_with_artifacts_mutated(&m, mutant)
        .map_err(|e| fail("compile", format!("{e:?}")))?;

    // Static translation validation first: every pass's run must
    // discharge its per-block simulation obligations. A rejection kills
    // the input without executing a single instruction, and is
    // localized to the owning pass via the `transval/<pass>` stage.
    if let Some(rej) = validate_artifacts(&arts).rejected().next() {
        let first = rej
            .diagnostics()
            .into_iter()
            .next()
            .map_or_else(String::new, |d| d.to_string());
        return Err(fail(
            &format!("transval/{}", rej.pass),
            format!(
                "static validation rejected ({} undischarged obligations): {first}",
                rej.failures().count()
            ),
        ));
    }

    let result = check_differential(p, &arts, &ge, &entries, mutant, cfg);
    // Every pass validated statically (a rejection returned above), so
    // in `Both` mode a dynamic failure at a stage some pass owns is a
    // disagreement between the two checkers — one of them is wrong (or
    // sees a miscompilation the other cannot). Annotate it so the
    // shrunk, persisted counterexample carries the disagreement.
    match result {
        Err(f) if cfg.validation == Validation::Both => match owning_pass(&f.stage) {
            Some(pass) => Err(FuzzFailure {
                stage: f.stage.clone(),
                detail: format!(
                    "static/differential disagreement: transval validated pass {pass} \
                         but the differential oracle failed: {}",
                    f.detail
                ),
            }),
            None => Err(f),
        },
        r => r,
    }
}

fn check_differential(
    p: &FuzzProgram,
    arts: &CompilationArtifacts,
    ge: &GlobalEnv,
    entries: &[String],
    mutant: Option<Mutant>,
    cfg: &OracleCfg,
) -> Result<(), FuzzFailure> {
    // In `Static` mode the statically validated passes are not
    // re-checked differentially — only the TSO machine comparison and
    // the schedule record/replay probe still execute code.
    let skip = |s: &str| cfg.validation == Validation::Static && owning_pass(s).is_some();
    let cp = arts
        .rtl_constprop
        .as_ref()
        .expect("extended pipeline always runs Constprop");

    if p.is_sequential() {
        let entry = &entries[0];
        let mu = Mu::identity(ge.initial_memory().dom());
        let src = observe_seq(&ClightLang, &arts.clight, ge, entry, cfg.seq_fuel);
        if src.is_none() {
            return Err(fail(
                "Clight",
                "the source itself aborted or ran out of fuel",
            ));
        }
        macro_rules! stage {
            ($name:expr, $lang:expr, $module:expr) => {
                if !skip($name) {
                    compare_seq(
                        $name,
                        &src,
                        &observe_seq(&$lang, $module, ge, entry, cfg.seq_fuel),
                        &mu,
                    )?;
                }
            };
        }
        stage!("Cminor", ccc_compiler::cminor::CMINOR, &arts.cminor);
        stage!(
            "CminorSel",
            ccc_compiler::cminorsel::CMINORSEL,
            &arts.cminorsel
        );
        stage!("RTL", ccc_compiler::rtl::RtlLang, &arts.rtl);
        stage!(
            "RTL/tailcall",
            ccc_compiler::rtl::RtlLang,
            &arts.rtl_tailcall
        );
        stage!(
            "RTL/renumber",
            ccc_compiler::rtl::RtlLang,
            &arts.rtl_renumber
        );
        stage!("Constprop", ccc_compiler::rtl::RtlLang, cp);
        stage!("LTL", ccc_compiler::ltl::LtlLang, &arts.ltl);
        stage!(
            "LTL/tunneled",
            ccc_compiler::ltl::LtlLang,
            &arts.ltl_tunneled
        );
        stage!("Linear", ccc_compiler::linear::LinearLang, &arts.linear);
        stage!(
            "Linear/clean",
            ccc_compiler::linear::LinearLang,
            &arts.linear_clean
        );
        stage!("Mach", ccc_compiler::mach::MachLang, &arts.mach);
        stage!("Asm/SC", X86Sc, &arts.asm);
        stage!("Asm/TSO", X86Tso, &arts.asm);

        // Schedule record/replay probe on the closed source program.
        let loaded = Loaded::new(ccc_core::lang::Prog::new(
            ClightLang,
            vec![(arts.clight.clone(), ge.clone())],
            vec![entry.clone()],
        ))
        .map_err(|e| fail("Clight", format!("source load failed: {e:?}")))?;
        check_schedule_replay(&loaded, None, cfg)?;
        return Ok(());
    }

    // --- Concurrent shape: link every stage against the lock object ---
    let (lock, lock_ge) = lock_spec("L");
    // The object module goes through the identity transformation; one
    // mutant strips the atomic blocks, the other erases the asserts
    // inside them.
    let tgt_lock = match mutant {
        Some(Mutant::IdTrans) => id_trans_mutated(&lock),
        Some(Mutant::IdTransDropAssert) => id_trans_drop_assert(&lock),
        _ => lock.clone(),
    };

    // Static validation of the object-level transformation: atomic
    // bracketing (and everything inside it) must survive bit-for-bit.
    let w = validate_id_trans(&lock, &tgt_lock);
    if !w.validated() {
        let first = w
            .diagnostics()
            .into_iter()
            .next()
            .map_or_else(String::new, |d| d.to_string());
        return Err(fail(
            "transval/IdTrans",
            format!(
                "static validation rejected ({} undischarged obligations): {first}",
                w.failures().count()
            ),
        ));
    }

    let src_loaded = crate::link::link_with_object(
        ClightLang,
        arts.clight.clone(),
        ge.clone(),
        lock.clone(),
        lock_ge.clone(),
        entries.to_vec(),
    )
    .map_err(|e| fail("Clight", format!("source link failed: {e:?}")))?;
    let src = observe_conc(&src_loaded, &cfg.explore)
        .map_err(|e| fail("Clight", format!("source exploration failed: {e}")))?;
    if src.traces.is_none() && src.drf.is_none() {
        return Ok(()); // inconclusive: budget exhausted on the source
    }

    // Static rely-guarantee probe: infer the source module's
    // interference certificate and compare its verdict against the
    // exploration. The static verdict may be *stricter* (false
    // positives are honest imprecision) but never more permissive — a
    // self-stable certificate on a program whose exploration finds a
    // race is a certifier soundness bug, as is a fresh certificate the
    // trusted checker rejects.
    let model = ccc_analysis::infer_lock_model(&lock);
    let cert = ccc_analysis::infer_rg_cert("client", &arts.clight, entries, &model);
    if let Some(d) = ccc_analysis::rg_cert_violation(&cert, &arts.clight, entries, &model) {
        return Err(fail(
            "rg_cert",
            format!("inferred certificate rejected by its own checker: {d}"),
        ));
    }
    if cert.is_stable() && src.drf == Some(false) {
        return Err(fail(
            "rg_cert",
            "static RG certificate is self-stable but source exploration found a race",
        ));
    }

    macro_rules! conc_stage {
        ($name:expr, $lang:expr, $module:expr) => {{
            if skip($name) {
                None
            } else {
                let loaded = crate::link::link_with_object(
                    $lang,
                    $module.clone(),
                    ge.clone(),
                    tgt_lock.clone(),
                    lock_ge.clone(),
                    entries.to_vec(),
                )
                .map_err(|e| fail($name, format!("stage link failed: {e:?}")))?;
                let obs = observe_conc(&loaded, &cfg.explore)
                    .map_err(|e| fail($name, format!("stage exploration failed: {e}")))?;
                compare_conc($name, &src, &obs)?;
                Some(obs)
            }
        }};
    }

    let _ = conc_stage!("Cminor", ccc_compiler::cminor::CMINOR, &arts.cminor);
    let _ = conc_stage!(
        "CminorSel",
        ccc_compiler::cminorsel::CMINORSEL,
        &arts.cminorsel
    );
    let _ = conc_stage!("RTL", ccc_compiler::rtl::RtlLang, &arts.rtl);
    let _ = conc_stage!(
        "RTL/tailcall",
        ccc_compiler::rtl::RtlLang,
        &arts.rtl_tailcall
    );
    let _ = conc_stage!(
        "RTL/renumber",
        ccc_compiler::rtl::RtlLang,
        &arts.rtl_renumber
    );
    let _ = conc_stage!("Constprop", ccc_compiler::rtl::RtlLang, cp);
    let _ = conc_stage!("LTL", ccc_compiler::ltl::LtlLang, &arts.ltl);
    let _ = conc_stage!(
        "LTL/tunneled",
        ccc_compiler::ltl::LtlLang,
        &arts.ltl_tunneled
    );
    let _ = conc_stage!("Linear", ccc_compiler::linear::LinearLang, &arts.linear);
    let _ = conc_stage!(
        "Linear/clean",
        ccc_compiler::linear::LinearLang,
        &arts.linear_clean
    );
    let _ = conc_stage!("Mach", ccc_compiler::mach::MachLang, &arts.mach);
    let sc = conc_stage!("Asm/SC", X86Sc, &arts.asm);

    // TSO robustness: a DRF lock-disciplined client must show exactly
    // its SC behaviour on the TSO machine (Thm. of §2 / the TSO story
    // of the Asm machines). Racy clients may legitimately differ. In
    // `Static` mode the SC stage comparison above was skipped, so the
    // SC trace set is computed here just for the TSO comparison.
    if src.drf == Some(true) {
        let computed;
        let sc_traces = match &sc {
            Some(obs) => obs.traces.as_ref(),
            None => {
                let sc_loaded = crate::link::link_with_object(
                    X86Sc,
                    arts.asm.clone(),
                    ge.clone(),
                    tgt_lock.clone(),
                    lock_ge.clone(),
                    entries.to_vec(),
                )
                .map_err(|e| fail("Asm/TSO", format!("sc link failed: {e:?}")))?;
                computed = collect_traces_preemptive(&sc_loaded, &cfg.explore)
                    .map_err(|e| fail("Asm/TSO", format!("sc exploration failed: {e:?}")))?;
                (!computed.truncated).then_some(&computed)
            }
        };
        if let Some(sc_traces) = sc_traces {
            let tso_loaded = crate::link::link_with_object(
                X86Tso,
                arts.asm.clone(),
                ge.clone(),
                tgt_lock.clone(),
                lock_ge.clone(),
                entries.to_vec(),
            )
            .map_err(|e| fail("Asm/TSO", format!("stage link failed: {e:?}")))?;
            let tso = collect_traces_preemptive(&tso_loaded, &cfg.explore)
                .map_err(|e| fail("Asm/TSO", format!("stage exploration failed: {e:?}")))?;
            if !tso.truncated && !trace_equiv(sc_traces, &tso) {
                return Err(fail(
                    "Asm/TSO",
                    format!(
                        "DRF client shows TSO-only behaviour: {} SC traces vs {} TSO traces",
                        sc_traces.traces.len(),
                        tso.traces.len()
                    ),
                ));
            }
        }
    }

    check_schedule_replay(&src_loaded, src.traces.as_ref(), cfg)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_program;

    #[test]
    fn clean_pipeline_passes_the_oracle() {
        let cfg = OracleCfg::default();
        for seed in 0..30u64 {
            let p = gen_program(seed, (seed % 8) as u32);
            if let Err(e) = check_program(&p, None, &cfg) {
                panic!(
                    "seed {seed}: clean pipeline failed the oracle: {e}\n{}",
                    crate::text::program_to_text(&p)
                );
            }
        }
    }

    #[test]
    fn a_mutant_is_killed_and_localized() {
        let cfg = OracleCfg::default();
        // The Rtlgen mutant swaps If branches; find a killing input and
        // check the failure is localized no earlier than RTL.
        for seed in 0..200u64 {
            let p = gen_program(seed, (seed % 8) as u32);
            if let Err(e) = check_program(&p, Some(Mutant::Rtlgen), &cfg) {
                assert!(
                    !matches!(e.stage.as_str(), "Cminor" | "CminorSel"),
                    "Rtlgen mutant localized before RTL: {e}"
                );
                return;
            }
        }
        panic!("Rtlgen mutant survived 200 inputs");
    }
}
