//! Integration gates for the differential fuzzer.
//!
//! * The persisted regression corpus (`tests/corpus/*.txt`) replays
//!   deterministically: every mutant witness still kills its mutant
//!   while passing the clean pipeline, and every `none` entry stays
//!   fixed.
//! * A scoreboard slice over the shared input stream proves the
//!   mutation-kill machinery end to end (the full 22-mutant board runs
//!   in release mode via `ccc-bench --bin fuzz_throughput`).
//! * The oracle's `Validation::Static` mode, which skips the per-stage
//!   co-execution, kills every corpus mutant at the same stage as the
//!   default `Validation::Both` and passes every clean replay.

use ccc_fuzz::{check_program, CorpusEntry, OracleCfg, Validation};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// The corpus files, sorted.
fn corpus_paths() -> Vec<PathBuf> {
    let dir = corpus_dir();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .filter_map(Result::ok)
        .map(|d| d.path())
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        .collect();
    entries.sort();
    entries
}

#[test]
fn regression_corpus_replays() {
    let entries = corpus_paths();
    assert!(
        entries.len() >= 22,
        "corpus incomplete: {} entries (need one witness per mutant)",
        entries.len()
    );
    let cfg = OracleCfg::default();
    let mut seen = std::collections::BTreeSet::new();
    for path in &entries {
        let text = std::fs::read_to_string(path).expect("readable corpus file");
        let entry =
            CorpusEntry::from_text(&text).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
        entry
            .replay(&cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if let Some(m) = entry.mutant {
            seen.insert(format!("{m:?}"));
        }
    }
    assert_eq!(
        seen.len(),
        22,
        "corpus covers {}/22 mutants: {seen:?}",
        seen.len()
    );
}

#[test]
fn scoreboard_kills_a_frontend_and_a_backend_mutant() {
    // One early-pipeline and one late-pipeline mutant through the real
    // kill loop (budget small: their witnesses sit early in the stream).
    use ccc_compiler::Mutant;
    use ccc_fuzz::kill_one;

    let cfg = OracleCfg::default();
    for m in [Mutant::Cminorgen, Mutant::Asmgen] {
        let score = kill_one(m, 60, &cfg);
        assert!(score.killed(), "{m} survived 60 inputs");
    }
}

#[test]
fn static_mode_kills_corpus_mutants_at_the_same_stage() {
    let both = OracleCfg::default();
    assert_eq!(both.validation, Validation::Both, "the default mode");
    let stat = OracleCfg {
        validation: Validation::Static,
        ..OracleCfg::default()
    };
    let mut mutants = 0;
    for path in corpus_paths() {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let entry =
            CorpusEntry::from_text(&text).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
        if let Err(e) = check_program(&entry.program, None, &stat) {
            panic!("{}: clean replay failed under Static: {e}", path.display());
        }
        let Some(m) = entry.mutant else { continue };
        let killed = |cfg: &OracleCfg| {
            check_program(&entry.program, Some(m), cfg)
                .err()
                .unwrap_or_else(|| panic!("{}: {m} survived", path.display()))
        };
        let (s, b) = (killed(&stat), killed(&both));
        assert_eq!(
            s.stage,
            b.stage,
            "{}: {m} killed at another stage under Static",
            path.display()
        );
        mutants += 1;
    }
    assert_eq!(mutants, 22, "one witness per mutant");
}
