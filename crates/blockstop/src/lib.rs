//! `ivy-blockstop` — BlockStop, the call-graph analysis that the kernel never
//! calls blocking functions while interrupts are disabled (§2.3 of the paper).
//!
//! The analysis collects every call site of the program (resolving
//! function-pointer calls with `ivy-analysis`'s points-to analysis), whose
//! targets form its call graph, propagates a seed set of
//! blocking functions backwards, tracks which call sites run in atomic
//! context (interrupt handlers, IRQ-disabled and spinlocked regions, and
//! everything reachable from them), and reports every atomic call site whose
//! targets may block.
//!
//! False positives — unavoidable with a conservative points-to analysis — are
//! silenced the way the paper does it: insert a run-time assertion
//! ([`insert_asserts`]) at the entry of the function the analysis wrongly
//! believes reachable, and tell the analysis about it
//! ([`BlockStopConfig::asserted_functions`]).
//!
//! # Examples
//!
//! ```
//! use ivy_blockstop::BlockStop;
//! use ivy_cmir::parser::parse_program;
//!
//! let program = parse_program(
//!     r#"
//!     #[blocking]
//!     extern fn msleep(ms: u32);
//!     extern fn local_irq_disable();
//!     extern fn local_irq_enable();
//!     fn settle() { msleep(10); }
//!     fn probe_device() {
//!         local_irq_disable();
//!         settle();            // BUG: may sleep with interrupts off
//!         local_irq_enable();
//!     }
//!     "#,
//! )
//! .unwrap();
//! let report = BlockStop::new().analyze(&program);
//! assert!(report.may_block.contains("settle"));
//! // Both the atomic call site in probe_device and the sleep reached through
//! // settle (which now runs in atomic context) are reported.
//! assert!(report.findings.iter().any(|f| f.caller == "probe_device"));
//! assert!(report.findings.iter().all(|f| f.caller != "irrelevant"));
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod plugin;

pub use analysis::{
    insert_asserts, AtomicReason, BlockStop, BlockStopConfig, BlockStopReport, Finding, GFP_WAIT,
};
pub use plugin::BlockStopChecker;
