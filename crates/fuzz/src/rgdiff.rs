//! Differential harness for the static rely-guarantee certifier: the
//! static per-module verdict ([`ccc_analysis::rg_cert`]) against the
//! exhaustive exploration (`ccc_core::race::check_drf`).
//!
//! The contract is one-directional, like every static/dynamic pair in
//! the repo: the static verdict must *over-approximate* interference.
//! A certificate that comes back self-stable on a program whose
//! exploration finds a race is a soundness bug; the converse (static
//! `MayInterfere`, dynamic DRF) is honest imprecision and is merely
//! counted.

use crate::spec::{lower, FuzzProgram};
use ccc_analysis::{infer_lock_model, infer_rg_cert, rg_cert_violation, RgCert};
use ccc_core::race::check_drf;
use ccc_core::refine::ExploreCfg;
use ccc_sync::lock::lock_spec;

/// One static-vs-dynamic comparison.
#[derive(Clone, Debug)]
pub struct RgDiffReport {
    /// The (checker-admitted) certificate of the client module.
    pub cert: RgCert,
    /// The static verdict: the module's own threads cannot interfere.
    pub certified_stable: bool,
    /// The exploration's DRF verdict; `None` when the budget was
    /// exhausted without finding a race (inconclusive).
    pub explored_drf: Option<bool>,
    /// States the exploration visited (the cost the static side
    /// avoided).
    pub explored_states: usize,
}

/// Certifies the lowered client of `p` statically and explores it
/// dynamically against the standard lock object, failing on any
/// soundness violation: the fresh certificate must pass its trusted
/// checker, and a self-stable verdict must never coexist with a found
/// race.
///
/// # Errors
///
/// Describes the violation (a checker rejection or a static false
/// negative).
pub fn check_rg_vs_exploration(p: &FuzzProgram, cfg: &ExploreCfg) -> Result<RgDiffReport, String> {
    let (module, ge, entries) = lower(p);
    let (lock, _lock_ge) = lock_spec("L");
    let model = infer_lock_model(&lock);
    let cert = infer_rg_cert("client", &module, &entries, &model);
    if let Some(d) = rg_cert_violation(&cert, &module, &entries, &model) {
        return Err(format!("fresh certificate rejected by its checker: {d}"));
    }
    let certified_stable = cert.is_stable();
    let loaded = crate::link::load_client(module, ge, entries);
    let drf = check_drf(&loaded, cfg).map_err(|e| format!("load failed: {e:?}"))?;
    let explored_drf = if drf.is_drf() {
        (!drf.truncated).then_some(true)
    } else {
        Some(false)
    };
    if certified_stable && explored_drf == Some(false) {
        return Err(format!(
            "static RG certificate is self-stable but exploration found a race \
             ({} states): {:?}",
            drf.states, cert.guarantee
        ));
    }
    Ok(RgDiffReport {
        cert,
        certified_stable,
        explored_drf,
        explored_states: drf.states,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_program;

    #[test]
    fn generated_corpus_has_no_static_false_negatives() {
        let cfg = ExploreCfg {
            max_states: 20_000,
            ..ExploreCfg::default()
        };
        let mut stable = 0;
        for seed in 0..40 {
            let p = gen_program(seed, 10);
            let r = check_rg_vs_exploration(&p, &cfg).expect("sound");
            if r.certified_stable {
                stable += 1;
            }
        }
        assert!(stable > 0, "corpus never certifies — vacuous differential");
    }
}
