//! Ivy — sound program analysis for a Linux-like kernel.
//!
//! This is the umbrella crate of the workspace reproducing *"Beyond
//! Bug-Finding: Sound Program Analysis for Linux"* (HotOS 2007). It
//! re-exports the individual crates so downstream users can depend on a
//! single package:
//!
//! * [`cmir`] — the KC (kernel C subset) language front end.
//! * [`analysis`] — points-to, call-graph, and content-hashing
//!   infrastructure.
//! * [`engine`] — the incremental, plugin-based analysis engine
//!   all checkers run on.
//! * [`daemon`] — the resident analysis service: the engine behind a
//!   Unix-domain socket, with content-keyed invalidation across edits.
//! * [`vm`] — the execution substrate (memory model, interpreter, cost model).
//! * [`deputy`] — the Deputy dependent type system (§2.1).
//! * [`ccount`] — CCount reference-count checking of manual memory
//!   management (§2.2).
//! * [`blockstop`] — BlockStop, no-blocking-with-interrupts-disabled (§2.3).
//! * [`kernelgen`] — the synthetic kernel corpus and workloads.
//! * [`oracle`] — the dynamic soundness oracle: VM-traced differential
//!   validation of every static analysis, with per-sensitivity precision.
//! * [`telemetry`] — zero-dependency structured tracing and metrics:
//!   spans, counters, Prometheus text, and Chrome trace-event export.
//! * [`core`] — the combined pipeline, experiment harness, annotation
//!   repository, and extension analyses.
//!
//! # Examples
//!
//! ```
//! use ivy::deputy::Deputy;
//! use ivy::cmir::parser::parse_program;
//!
//! let program = parse_program(
//!     "fn get(buf: u8 * count(n), n: u32, i: u32) -> u8 { return buf[i]; }",
//! )
//! .unwrap();
//! let conversion = Deputy::new().convert(&program);
//! assert!(conversion.report.accepted());
//! ```

#![warn(missing_docs)]

pub use ivy_analysis as analysis;
pub use ivy_blockstop as blockstop;
pub use ivy_ccount as ccount;
pub use ivy_cmir as cmir;
pub use ivy_core as core;
pub use ivy_daemon as daemon;
pub use ivy_deputy as deputy;
pub use ivy_engine as engine;
pub use ivy_kernelgen as kernelgen;
pub use ivy_oracle as oracle;
pub use ivy_telemetry as telemetry;
pub use ivy_vm as vm;
