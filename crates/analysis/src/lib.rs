//! `ivy-analysis` — static analysis infrastructure shared by the Ivy tools.
//!
//! The paper's three analyses (Deputy, CCount, BlockStop) and the proposed
//! extensions (§3.1) all sit on the same substrate:
//!
//! * [`pointsto`] — whole-program points-to analysis in three precision
//!   levels (Steensgaard, Andersen, Andersen + field-based field
//!   sensitivity), used to resolve function-pointer calls. Solved by an
//!   interned worklist engine with difference propagation; per-function
//!   constraint batches can be cached across programs
//!   ([`pointsto::ConstraintCache`]) for incremental re-solves, and a
//!   naive reference solver is retained for differential testing.
//! * [`callgraph`] — call-graph construction (direct + indirect edges),
//!   backwards property propagation, reachability, and weighted depth
//!   queries for the stack-bound extension (BlockStop reads its call
//!   edges off its own call sites instead).
//! * [`summary`] — the `fnv1a`/`mix` content-hashing primitives every
//!   cache and persist key is built from.
//!
//! # Examples
//!
//! ```
//! use ivy_analysis::callgraph::CallGraph;
//! use ivy_analysis::pointsto::{analyze, Sensitivity};
//! use ivy_cmir::parser::parse_program;
//! use std::collections::BTreeSet;
//!
//! let program = parse_program(
//!     r#"
//!     #[blocking]
//!     fn msleep(ms: u32) { }
//!     fn flush_queue() { msleep(1); }
//!     fn irq_path() { }
//!     "#,
//! )
//! .unwrap();
//! let pts = analyze(&program, Sensitivity::AndersenField);
//! let cg = CallGraph::build(&program, &pts);
//! let may_block = cg.propagate_backwards(&BTreeSet::from(["msleep".to_string()]));
//! assert!(may_block.contains("flush_queue"));
//! assert!(!may_block.contains("irq_path"));
//! ```

#![warn(missing_docs)]

pub mod callgraph;
pub mod pointsto;
pub mod summary;

pub use callgraph::CallGraph;
pub use pointsto::{
    analyze, analyze_incremental, analyze_naive, ConstraintCache, Loc, PointsToResult, Sensitivity,
};
