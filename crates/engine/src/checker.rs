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
    /// The engine computes the scheduling call graph at the most precise
    /// level any registered checker requires.
    fn sensitivity(&self) -> Sensitivity {
        Sensitivity::Steensgaard
    }

    /// A fingerprint of everything this checker's per-function result
    /// depends on *beyond* the function's own transitive-callee cone:
    /// configuration, the type environment, caller-derived context, ...
    ///
    /// The incremental cache key for `(checker, function)` is the pair of
    /// the function's cone hash and this fingerprint; a checker whose
    /// results depend on state not captured by either must fold that state
    /// in here, or stale diagnostics will be replayed.
    fn context_fingerprint(&self, _ctx: &AnalysisCtx, _func: &Function) -> u64 {
        0
    }

    /// Checks one function. Called bottom-up over the condensed call graph,
    /// possibly from several engine callers (daemon connections) at once;
    /// implementations must only go through `ctx` for shared state.
    fn check_function(&self, ctx: &AnalysisCtx, func: &Function) -> Vec<Diagnostic>;

    /// Program-level diagnostics that are not attributable to any scheduled
    /// function (e.g. annotation errors on composite fields or globals).
    /// Called once per analysis, before the per-function waves; not cached
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
