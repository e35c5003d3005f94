//! The checker plugin interface.
//!
//! Every analysis tool registers with the engine as a [`Checker`]: a name, a
//! required points-to [`Sensitivity`], and a per-function entry point that
//! reads shared state from the [`AnalysisCtx`] and returns [`Diagnostic`]s.
//! Scheduling a checker per *function* (rather than per program, as the seed
//! pipeline did) is what lets the engine cache results per function across
//! runs.

use crate::diag::Diagnostic;
use crate::AnalysisCtx;
use ivy_analysis::pointsto::Sensitivity;
use ivy_cmir::ast::Function;

/// An analysis plugin.
pub trait Checker: Send + Sync {
    /// Stable name; used as the cache namespace and the `checker` field of
    /// produced diagnostics.
    fn name(&self) -> &'static str;

    /// The points-to precision this checker needs from the shared context.
    /// A report carries the points-to statistics of the most precise level
    /// any registered checker requires.
    fn sensitivity(&self) -> Sensitivity {
        Sensitivity::Steensgaard
    }

    /// A fingerprint of everything this checker's per-function result
    /// depends on *beyond* the function's own definitions: configuration,
    /// the type environment, points-to facts, caller-derived context, ...
    ///
    /// The incremental cache key for `(checker, function)` is a hash of
    /// every definition of the function's name plus this fingerprint. A
    /// callee's body is not part of the key: a checker whose result reads
    /// it, or any other state neither covers, must fold that state in
    /// here, or stale diagnostics will be replayed.
    fn context_fingerprint(&self, _ctx: &AnalysisCtx, _func: &Function) -> u64 {
        0
    }

    /// Checks one function: the first definition of each name, in program
    /// order, possibly from several engine callers (daemon connections) at
    /// once; implementations must only go through `ctx` for shared state.
    fn check_function(&self, ctx: &AnalysisCtx, func: &Function) -> Vec<Diagnostic>;

    /// Program-level diagnostics that are not attributable to any scheduled
    /// function (e.g. annotation errors on composite fields or globals).
    /// Called once per analysis, before the per-function wave; not cached
    /// (implementations should derive these from context-memoized state).
    fn check_program(&self, _ctx: &AnalysisCtx) -> Vec<Diagnostic> {
        Vec::new()
    }
}

/// Orders sensitivities by precision so the engine can take the max the
/// registered checkers require.
pub fn sensitivity_rank(s: Sensitivity) -> u8 {
    match s {
        Sensitivity::Steensgaard => 0,
        Sensitivity::Andersen => 1,
        Sensitivity::AndersenField => 2,
    }
}
