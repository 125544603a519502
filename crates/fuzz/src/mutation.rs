//! Mutation-kill scoreboard: every pipeline pass has one intentionally
//! wrong variant behind [`Mutant`]; the scoreboard proves each is
//! killed by the differential oracle within a bounded fuzz budget and
//! reports the kill rate and mean inputs-to-kill.
//!
//! All mutants face the *same* deterministic input stream, so the
//! inputs-to-kill numbers are comparable across passes. A campaign can
//! additionally be seeded with the persisted regression corpus
//! ([`run_scoreboard_seeded`]): each mutant first replays its own
//! corpus witnesses before drawing from the random stream, so every
//! historically-caught miscompilation stays caught even when the
//! generator rarely produces the shape that exposes it.

use crate::corpus::CorpusEntry;
use crate::gen::gen_program;
use crate::oracle::{check_program, FuzzFailure, OracleCfg};
use crate::spec::{lower, FuzzProgram};
use ccc_analysis::{validate_artifacts, validate_id_trans};
use ccc_compiler::{
    compile_with_artifacts_mutated, id_trans_drop_assert, id_trans_mutated, Mutant,
};
use ccc_sync::lock::lock_spec;

/// The `i`-th input of the shared scoreboard stream.
#[must_use]
pub fn stream_input(i: usize) -> FuzzProgram {
    gen_program(i as u64, (i % 8) as u32)
}

/// The outcome for one mutant.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MutantScore {
    /// Which pass was mutated.
    pub mutant: Mutant,
    /// Number of inputs consumed, including the killing one (equals the
    /// budget when the mutant survived). Corpus seeds count as inputs
    /// and precede the random stream.
    pub inputs: usize,
    /// The localized failure that killed it, if any.
    pub kill: Option<FuzzFailure>,
    /// The program that killed it, if any — a corpus seed or a stream
    /// input. Carried so downstream consumers (the static-validator
    /// board, corpus shrinking) see the *actual* witness rather than
    /// re-deriving it from an input index.
    pub witness: Option<FuzzProgram>,
}

impl MutantScore {
    /// True when the oracle caught the mutant within budget.
    #[must_use]
    pub fn killed(&self) -> bool {
        self.kill.is_some()
    }

    /// True when the kill came from the *static* translation validator
    /// (a `transval/<pass>` stage) rather than the dynamic differential
    /// oracle — the mutant was rejected without executing the program.
    #[must_use]
    pub fn static_kill(&self) -> bool {
        self.kill
            .as_ref()
            .is_some_and(|f| f.stage.starts_with("transval/"))
    }
}

/// The scoreboard over all pipeline mutants.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Scoreboard {
    /// One score per mutant, in pipeline order.
    pub scores: Vec<MutantScore>,
    /// The per-mutant input budget that was applied.
    pub budget: usize,
}

impl Scoreboard {
    /// Fraction of mutants killed, in `0.0..=1.0`.
    #[must_use]
    pub fn kill_rate(&self) -> f64 {
        if self.scores.is_empty() {
            return 1.0;
        }
        let killed = self.scores.iter().filter(|s| s.killed()).count();
        killed as f64 / self.scores.len() as f64
    }

    /// Mean number of inputs needed to kill, over the killed mutants.
    #[must_use]
    pub fn mean_inputs_to_kill(&self) -> f64 {
        let killed: Vec<_> = self.scores.iter().filter(|s| s.killed()).collect();
        if killed.is_empty() {
            return f64::NAN;
        }
        killed.iter().map(|s| s.inputs as f64).sum::<f64>() / killed.len() as f64
    }

    /// Mutants that survived the whole budget.
    pub fn survivors(&self) -> impl Iterator<Item = Mutant> + '_ {
        self.scores.iter().filter(|s| !s.killed()).map(|s| s.mutant)
    }

    /// Renders the scoreboard as a markdown table (the artifact the
    /// evaluation docs embed).
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::from(
            "| Pass | Mutant | Killed | Static kill | Inputs to kill | Localized at |\n\
             |---|---|---|---|---|---|\n",
        );
        for s in &self.scores {
            let (killed, at) = match &s.kill {
                Some(f) => ("yes", f.stage.clone()),
                None => ("**no**", "—".into()),
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} |\n",
                s.mutant.pass_name(),
                s.mutant.describe(),
                killed,
                if s.static_kill() { "yes" } else { "no" },
                s.inputs,
                at
            ));
        }
        out.push_str(&format!(
            "\nKill rate: {:.0}% ({}/{}); mean inputs-to-kill: {:.1} (budget {} per mutant).\n",
            self.kill_rate() * 100.0,
            self.scores.iter().filter(|s| s.killed()).count(),
            self.scores.len(),
            self.mean_inputs_to_kill(),
            self.budget
        ));
        out
    }
}

/// Runs one mutant against the shared stream until the oracle kills it
/// or the budget runs out. A kill only counts when the *clean* pipeline
/// accepts the same input — a disagreement the reference pipeline also
/// shows would be a generator or oracle artifact, not a detection.
#[must_use]
pub fn kill_one(mutant: Mutant, budget: usize, cfg: &OracleCfg) -> MutantScore {
    kill_one_seeded(mutant, &[], budget, cfg)
}

/// Like [`kill_one`], but the mutant first faces `seeds` (the persisted
/// corpus witnesses for this mutant) before the random stream. Seeds
/// count toward `inputs`, so a corpus-killed mutant reports how many
/// seeds it consumed; the stream budget is unchanged.
#[must_use]
pub fn kill_one_seeded(
    mutant: Mutant,
    seeds: &[FuzzProgram],
    budget: usize,
    cfg: &OracleCfg,
) -> MutantScore {
    let candidates = seeds.iter().cloned().chain((0..budget).map(stream_input));
    for (i, p) in candidates.enumerate() {
        if let Err(f) = check_program(&p, Some(mutant), cfg) {
            if check_program(&p, None, cfg).is_ok() {
                return MutantScore {
                    mutant,
                    inputs: i + 1,
                    kill: Some(f),
                    witness: Some(p),
                };
            }
        }
    }
    MutantScore {
        mutant,
        inputs: seeds.len() + budget,
        kill: None,
        witness: None,
    }
}

/// Verdict of running the symbolic translation validator *alone* over
/// one mutant's compilation of a witness program — no execution, no
/// differential comparison.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StaticKill {
    /// Which pass was mutated.
    pub mutant: Mutant,
    /// The pass whose [`ccc_analysis::SimWitness`] was rejected, if
    /// any; `None` means the mutant needs the dynamic oracle.
    pub rejected_at: Option<String>,
    /// The first undischarged obligation's diagnostic (empty if none).
    pub detail: String,
}

impl StaticKill {
    /// True when the validator rejected the mutated compilation.
    #[must_use]
    pub fn killed(&self) -> bool {
        self.rejected_at.is_some()
    }
}

/// Runs the symbolic validator over each `(mutant, witness program)`
/// pair: the program is compiled with the mutant enabled and the
/// artifacts are checked statically. Used with the persisted corpus
/// witnesses to measure which mutants die without the dynamic oracle.
#[must_use]
pub fn transval_corpus_board(witnesses: &[(Mutant, FuzzProgram)]) -> Vec<StaticKill> {
    witnesses
        .iter()
        .map(|(mutant, p)| {
            // The object-level mutants never touch the Clight pipeline
            // the witness program compiles through; their static check
            // is the IdTrans validator over the lock object itself.
            let object_tgt = match mutant {
                Mutant::IdTrans => Some(id_trans_mutated(&lock_spec("L").0)),
                Mutant::IdTransDropAssert => Some(id_trans_drop_assert(&lock_spec("L").0)),
                _ => None,
            };
            if let Some(tgt) = object_tgt {
                let (lock, _lock_ge) = lock_spec("L");
                let w = validate_id_trans(&lock, &tgt);
                return StaticKill {
                    mutant: *mutant,
                    rejected_at: (!w.validated()).then(|| w.pass.clone()),
                    detail: w
                        .diagnostics()
                        .first()
                        .map(ToString::to_string)
                        .unwrap_or_default(),
                };
            }
            let (m, _ge, _entries) = lower(p);
            match compile_with_artifacts_mutated(&m, Some(*mutant)) {
                Err(e) => StaticKill {
                    mutant: *mutant,
                    rejected_at: Some("compile".into()),
                    detail: format!("{e:?}"),
                },
                Ok(arts) => {
                    let w = validate_artifacts(&arts);
                    let first = w.rejected().next().cloned();
                    match first {
                        Some(sw) => StaticKill {
                            mutant: *mutant,
                            rejected_at: Some(sw.pass.clone()),
                            detail: sw
                                .diagnostics()
                                .first()
                                .map(ToString::to_string)
                                .unwrap_or_default(),
                        },
                        None => StaticKill {
                            mutant: *mutant,
                            rejected_at: None,
                            detail: String::new(),
                        },
                    }
                }
            }
        })
        .collect()
}

/// Renders a [`transval_corpus_board`] result as a markdown table,
/// ending with the list of mutants that still need the dynamic oracle.
#[must_use]
pub fn static_board_markdown(board: &[StaticKill]) -> String {
    let mut out = String::from(
        "| Pass | Static kill | Rejected at | First failed obligation |\n\
         |---|---|---|---|\n",
    );
    for k in board {
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            k.mutant.pass_name(),
            if k.killed() { "yes" } else { "**no**" },
            k.rejected_at.as_deref().unwrap_or("—"),
            if k.detail.is_empty() {
                "—"
            } else {
                &k.detail
            },
        ));
    }
    let dynamic_only: Vec<_> = board
        .iter()
        .filter(|k| !k.killed())
        .map(|k| k.mutant.pass_name())
        .collect();
    if dynamic_only.is_empty() {
        out.push_str("\nEvery mutant dies statically.\n");
    } else {
        out.push_str(&format!(
            "\nStill need the dynamic oracle: {}.\n",
            dynamic_only.join(", ")
        ));
    }
    out
}

/// Runs the whole scoreboard: every mutant of [`Mutant::ALL`] against
/// the shared stream with the given per-mutant budget.
#[must_use]
pub fn run_scoreboard(budget: usize, cfg: &OracleCfg) -> Scoreboard {
    run_scoreboard_seeded(budget, cfg, &[])
}

/// Like [`run_scoreboard`], but each mutant is first seeded with its
/// own entries from the persisted regression corpus (entries tagged
/// with a different mutant, or with `none`, are ignored for that
/// mutant). This keeps the scoreboard deterministic for mutants whose
/// killing shape the random generator rarely produces: once a witness
/// is in the corpus, its mutant can never silently start surviving.
#[must_use]
pub fn run_scoreboard_seeded(budget: usize, cfg: &OracleCfg, corpus: &[CorpusEntry]) -> Scoreboard {
    Scoreboard {
        scores: Mutant::ALL
            .iter()
            .map(|&m| {
                let seeds: Vec<FuzzProgram> = corpus
                    .iter()
                    .filter(|e| e.mutant == Some(m))
                    .map(|e| e.program.clone())
                    .collect();
                kill_one_seeded(m, &seeds, budget, cfg)
            })
            .collect(),
        budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoreboard_math() {
        let sb = Scoreboard {
            scores: vec![
                MutantScore {
                    mutant: Mutant::Rtlgen,
                    inputs: 2,
                    kill: Some(FuzzFailure {
                        stage: "RTL".into(),
                        detail: "x".into(),
                    }),
                    witness: Some(stream_input(1)),
                },
                MutantScore {
                    mutant: Mutant::Asmgen,
                    inputs: 10,
                    kill: None,
                    witness: None,
                },
            ],
            budget: 10,
        };
        assert!((sb.kill_rate() - 0.5).abs() < 1e-9);
        assert!((sb.mean_inputs_to_kill() - 2.0).abs() < 1e-9);
        assert_eq!(sb.survivors().collect::<Vec<_>>(), vec![Mutant::Asmgen]);
        assert!(sb.to_markdown().contains("| RTL |"));
    }
}
