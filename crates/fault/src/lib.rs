//! Single stuck-at fault modelling and fault simulation.
//!
//! This crate supplies the "fault simulator" role that the LAMP system played
//! in the paper's Section 7 experiment:
//!
//! * [`model`] — stuck-at faults on gate outputs and input pins,
//! * [`universe`] — enumeration of the complete fault universe `N`,
//! * [`collapse`] — structural equivalence and dominance collapsing,
//! * [`list`] — fault lists with detection status and coverage accounting,
//! * [`simulator`] — the [`FaultSimulator`] trait every engine implements,
//! * [`serial`], [`deductive`], [`incremental`] — three independent
//!   fault-simulation algorithms (the serial reference, the deductive
//!   oracle, and the production engine's event-driven cone propagation),
//!   which cross-check each other in the test suites; the architecture
//!   guide comparing them is `docs/ENGINES.md` at the repository root,
//! * [`cone`] — the event-driven fanout-cone kernel behind the production
//!   engine and the BIST signature dictionaries: per (fault, chunk) it
//!   yields the disturbed primary outputs' error words,
//! * [`coverage`] — cumulative fault-coverage curves as a function of the
//!   number of applied patterns (the paper's `f` axis), and
//! * [`dictionary`] — per-fault first-failing-pattern records, the raw
//!   material of the paper's Table 1.
//!
//! # Quick example
//!
//! ```
//! use lsiq_netlist::library;
//! use lsiq_sim::pattern::{Pattern, PatternSet};
//! use lsiq_fault::universe::FaultUniverse;
//! use lsiq_fault::incremental::IncrementalSimulator;
//! use lsiq_fault::simulator::FaultSimulator;
//!
//! let circuit = library::c17();
//! let universe = FaultUniverse::full(&circuit);
//! let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
//! let result = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
//! assert!(result.coverage() > 0.99); // exhaustive patterns detect everything
//! ```

mod classes;
mod telemetry;

pub mod collapse;
pub mod cone;
pub mod coverage;
pub mod deductive;
pub mod dictionary;
pub mod incremental;
pub mod inject;
pub mod list;
pub mod model;
pub mod serial;
pub mod simulator;
pub mod universe;

pub use coverage::CoverageCurve;
pub use incremental::IncrementalSimulator;
pub use list::{DetectionState, FaultList, ListArena, ListRef};
pub use model::{Fault, FaultSite, StuckValue};
pub use simulator::{BuildEngine, EngineKind, FaultSimulator};
pub use universe::{FaultUniverse, SiteTable};
