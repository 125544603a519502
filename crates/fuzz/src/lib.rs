//! # ccc-fuzz — pipeline-wide differential fuzzing
//!
//! The executable substitute for "the theorem quantifies over all
//! programs": a structured generator of well-formed concurrent Clight
//! modules ([`gen`], over the first-order representation of [`spec`]),
//! a differential oracle that drives every IR's footprint-instrumented
//! interpreter plus the SC and TSO machines and localizes the first
//! disagreeing pass ([`oracle`]), a delta-debugging shrinker
//! ([`shrink()`]), a persisted regression corpus ([`corpus`], [`text`]),
//! and a mutation-kill scoreboard proving every pipeline mutant of
//! [`ccc_compiler::Mutant`] is caught within a bounded fuzz budget,
//! optionally seeded with the corpus witnesses ([`mutation`]).
//!
//! The crate also hosts the shared program generators for the wider
//! test suite ([`toygen`], [`tsogen`], [`link`]), which used to be
//! duplicated across the integration tests.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cachediff;
pub mod corpus;
pub mod gen;
pub mod link;
pub mod mutation;
pub mod oracle;
pub mod rgdiff;
pub mod shrink;
pub mod spec;
pub mod text;
pub mod toygen;
pub mod tsogen;

pub use cachediff::{check_cached_vs_fresh, check_cached_vs_fresh_seeded};
pub use corpus::{shrink_to_entry, CorpusEntry};
pub use gen::gen_program;
pub use mutation::{
    kill_one, kill_one_seeded, run_scoreboard, run_scoreboard_seeded, static_board_markdown,
    transval_corpus_board, MutantScore, Scoreboard, StaticKill,
};
pub use oracle::{check_program, FuzzFailure, OracleCfg, Validation};
pub use rgdiff::{check_rg_vs_exploration, RgDiffReport};
pub use shrink::shrink;
pub use spec::{lower, lower_prefixed, FuzzProgram, SStmt};
pub use text::{parse_program, program_to_text};
