//! `ivy-core` — the unified Ivy driver: pipeline, experiment harness,
//! annotation repository, and the §3.1 extension analyses.
//!
//! The paper's thesis is that *sound* analyses — Deputy, CCount, BlockStop —
//! can be applied together to a whole kernel with modest effort. This crate
//! is where the three tools meet:
//!
//! * [`pipeline`] — applies all three tools to a kernel in one pass via
//!   `ivy-engine` (shared analysis context, per-function scheduling,
//!   incremental cache), producing a "hardened" program plus the combined
//!   reports.
//! * [`experiments`] — one function per table/experiment of the paper
//!   (Table 1, annotation burden, free verification, CCount overhead,
//!   BlockStop findings, the points-to ablation, and the extension
//!   analyses).
//! * [`repository`] — the shared annotation repository of §3.2.
//! * [`extensions`] — lock safety, stack-depth bounding, and error-code
//!   checking (§3.1).
//!
//! # Examples
//!
//! ```
//! use ivy_core::pipeline::Pipeline;
//! use ivy_kernelgen::{KernelBuild, KernelConfig};
//!
//! let build = KernelBuild::generate(&KernelConfig::small());
//! let hardened = Pipeline::new().run(&build);
//! assert!(hardened.deputy.accepted());
//! // The run-time assertions silence the false positives; only the findings
//! // for the seeded real bugs remain.
//! assert!(hardened.blockstop_after.findings.len() < hardened.blockstop_before.findings.len());
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod extensions;
pub mod pipeline;
pub mod repository;

pub use experiments::Scale;
pub use pipeline::{Hardened, Pipeline};
pub use repository::Repository;
