//! # ccc-core — a framework for certified separate compilation of concurrent programs
//!
//! An executable Rust reproduction of the language-independent
//! verification framework of *"Towards Certified Separate Compilation
//! for Concurrent Programs"* (Jiang, Liang, Xiao, Zha, Feng — PLDI
//! 2019), the theory behind **CASCompCert**.
//!
//! The paper bridges the gap between compiler correctness for
//! *sequential* modules and for *data-race-free concurrent* programs.
//! Its key ingredients, all implemented here:
//!
//! * an abstract module language with footprint-labelled steps
//!   ([`lang`], [`mem`], [`footprint`] — Fig. 4);
//! * *well-definedness* of language instantiations, an extensional
//!   reading of footprints ([`wd`] — Def. 1);
//! * global preemptive and non-preemptive semantics ([`world`],
//!   [`npworld`] — Fig. 7) and their trace equivalence for DRF programs
//!   ([`refine`] — Lem. 9);
//! * data-race-freedom by footprint prediction and its non-preemptive
//!   twin NPDRF ([`race`] — Fig. 9);
//! * rely/guarantee conditions and the `ReachClose` obligation ([`rg`] —
//!   Fig. 8, Def. 4);
//! * the footprint-preserving compositional module-local simulation
//!   ([`sim`] — Defs. 2–3), the paper's central contribution;
//! * the Fig. 2 proof-framework steps ①–⑧ packaged as an executable
//!   validation harness ([`framework`]).
//!
//! The original artifact is a Coq development; this crate replaces the
//! mechanized proofs with *checkers* — exhaustive bounded exploration
//! and differential testing — as catalogued in the repository's
//! `DESIGN.md`.
//!
//! ## Quick start
//!
//! ```
//! use ccc_core::lang::Prog;
//! use ccc_core::race::check_drf;
//! use ccc_core::refine::{collect_traces, trace_equiv, ExploreCfg, NonPreemptive, Preemptive};
//! use ccc_core::toy::{toy_globals, toy_module, ToyInstr, ToyLang};
//! use ccc_core::world::Loaded;
//!
//! // Two threads incrementing a shared counter inside atomic blocks.
//! let body = vec![
//!     ToyInstr::EntAtom,
//!     ToyInstr::LoadG("x".into()),
//!     ToyInstr::Add(1),
//!     ToyInstr::StoreG("x".into()),
//!     ToyInstr::ExtAtom,
//!     ToyInstr::Ret(0),
//! ];
//! let (m, _) = toy_module(&[("a", body.clone()), ("b", body)], &[]);
//! let prog = Prog::new(ToyLang, vec![(m, toy_globals(&[("x", 0)]))], ["a", "b"]);
//! let loaded = Loaded::new(prog)?;
//! let cfg = ExploreCfg::default();
//!
//! // The program is race-free…
//! assert!(check_drf(&loaded, &cfg)?.is_drf());
//! // …so its preemptive and non-preemptive behaviours coincide (Lem. 9).
//! let p = collect_traces(&Preemptive(&loaded), &cfg)?;
//! let np = collect_traces(&NonPreemptive(&loaded), &cfg)?;
//! assert!(trace_equiv(&p, &np));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compcert_mem;
pub mod explore;
pub mod footprint;
pub mod framework;
pub mod interval;
pub mod lang;
pub mod mem;
pub mod npworld;
pub mod race;
pub mod refine;
pub mod rg;
pub mod sim;
pub mod toy;
pub mod wd;
pub mod world;

pub use explore::{AmpleHints, FxHashMap, FxHashSet, Reduction};
pub use footprint::{Footprint, Mu};
pub use interval::Interval;
pub use lang::{Event, Lang, LocalStep, Prog, StepMsg, Sum, SumLang};
pub use mem::{Addr, FreeList, GlobalEnv, Memory, Val};
pub use refine::ExploreCfg;
pub use world::Loaded;
