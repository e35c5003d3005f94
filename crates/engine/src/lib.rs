//! `ivy-engine` — the incremental, plugin-based analysis engine.
//!
//! The paper's central claim is that sound analyses share one substrate and
//! can be applied *together* to a whole kernel. This crate is that substrate
//! turned into an execution engine. It has five layers:
//!
//! 1. **Queries** — the typed, demand-driven [`query`] subsystem: every
//!    artifact (points-to results, checker-owned precomputations) is a
//!    [`query::Query`] with a typed key and value,
//!    memoized per `(query, key)` in a [`query::QueryDb`] under a
//!    *content key*: a hash of what the result was computed from (the
//!    whole program by default; a function's content, or that and the
//!    type environment, for per-function queries that declare it).
//!    [`QueryDb::apply_edit`] / [`Engine::apply_edit`] derive a db for an
//!    edited program by carrying exactly the entries whose content key is
//!    unchanged, which is what keeps a resident daemon warm across
//!    edits. Each db holds its program's identity
//!    ([`ProgramHashes`](ivy_cmir::content::ProgramHashes): env hash,
//!    per-function content hashes, program hash), computed once per
//!    program state; every context and cache key derives from it.
//!    [`Engine::apply_source_edit`] takes an edit as source text and
//!    re-parses and re-hashes only the edited function when it can.
//!    [`AnalysisCtx`] is the `QueryDb`; the old string-keyed `Any` memo
//!    table (and its runtime type-confusion panics) is gone.
//! 2. **Plugins** — the [`Checker`] trait: a name, a required points-to
//!    [`Sensitivity`](ivy_analysis::pointsto::Sensitivity), and a
//!    per-function `check_function`. Deputy, CCount, and BlockStop register
//!    through adapter impls in their own crates and define their own typed
//!    queries; new checkers need no engine changes (the STANSE-style
//!    framework/plugin split).
//! 3. **Scheduler** — [`Engine::analyze`] visits each function name once,
//!    in program order, on the calling thread. No checker reads a callee's
//!    body, so no order between functions is needed. Concurrency comes
//!    from callers: a daemon serves each connection on its own thread over
//!    one shared engine.
//! 4. **Incremental + persistent reuse** — one memo: every checker reads
//!    its per-function facts through queries, and each analyze calls
//!    `check_function` for every (function, checker), so the query db's
//!    content keys alone decide what is recomputed. After an edit only the
//!    queries whose content key changed recompute, and re-analyzing an
//!    unchanged kernel computes no query at all. With a [`PersistLayer`]
//!    attached ([`Engine::with_persist`]), every [`query::DurableQuery`]
//!    result additionally spills to versioned JSON under
//!    `target/ivy-cache/`, so a *separate process* (a CI run, a fleet
//!    worker) starts warm and can reproduce a report without solving
//!    points-to at all.
//! 5. **Reports** — the unified [`Diagnostic`]/[`Report`] model with
//!    stable-ordered JSON and SARIF serialization; fresh engines produce
//!    byte-identical reports, and warm (persist-served) runs reproduce
//!    cold reports byte-identically.
//!
//! # Examples
//!
//! ```
//! use ivy_engine::{AnalysisCtx, Checker, Diagnostic, Engine, Severity};
//! use ivy_cmir::ast::Function;
//! use ivy_cmir::parser::parse_program;
//! use std::sync::Arc;
//!
//! /// A toy plugin flagging functions with more than two parameters.
//! struct ParamCount;
//!
//! impl Checker for ParamCount {
//!     fn name(&self) -> &'static str {
//!         "param-count"
//!     }
//!     fn check_function(&self, _ctx: &AnalysisCtx, func: &Function) -> Vec<Diagnostic> {
//!         if func.params.len() <= 2 {
//!             return Vec::new();
//!         }
//!         vec![Diagnostic {
//!             checker: "param-count".into(),
//!             code: "param-count/too-many".into(),
//!             function: func.name.clone(),
//!             severity: Severity::Warning,
//!             message: format!("{} parameters", func.params.len()),
//!             span: Some(func.span),
//!             fix_hint: None,
//!             evidence: Vec::new(),
//!         }]
//!     }
//! }
//!
//! let program = parse_program("fn f(a: u32, b: u32, c: u32) { }").unwrap();
//! let engine = Engine::new().with_checker(Arc::new(ParamCount));
//! let report = engine.analyze(&program);
//! assert_eq!(report.diagnostics.len(), 1);
//! // A second run over the unchanged program reuses its context, and
//! // this checker demands no query, so neither run computed anything.
//! let again = engine.analyze(&program);
//! assert!(again.stats.ctx_reused);
//! assert_eq!(again.stats.cache_misses, 0);
//! assert_eq!(again.diagnostics, report.diagnostics);
//! ```

#![warn(missing_docs)]

pub mod checker;
pub mod diag;
mod engine;
pub mod persist;
pub mod query;

pub use checker::Checker;
pub use diag::{Diagnostic, EngineStats, Evidence, Report, Severity};
pub use engine::{CtxStore, Engine, SourceEdit};
pub use persist::PersistLayer;
pub use query::{DurableQuery, InvalidationStats, Query, QueryDb, QueryKey};

/// The shared analysis context every checker receives: one [`QueryDb`]
/// per program state, built once and handed to every checker. Points-to
/// results (one per sensitivity) are the built-in query, computed on first
/// demand; checker-owned precomputations are [`Query`] impls in the
/// checker crates.
pub type AnalysisCtx = QueryDb;

/// Re-export of the JSON value model used by report serialization (the
/// vendored `serde_json` shim; see `vendor/serde_json`).
pub use serde_json as json;

/// Content-hashing helpers shared with checker plugins (re-exported from
/// `ivy_analysis::summary` so plugins need no direct `ivy-analysis` dep).
pub mod hash {
    pub use ivy_analysis::summary::{fnv1a, mix};
}
