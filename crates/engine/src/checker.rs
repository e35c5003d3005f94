//! The checker plugin interface.
//!
//! Every analysis tool registers with the engine as a [`Checker`]: a name, a
//! required points-to [`Sensitivity`], and a per-function entry point that
//! reads shared state from the [`AnalysisCtx`] and returns [`Diagnostic`]s.
//! The engine keeps no result of its own: a checker's per-function facts
//! are [`Query`](crate::Query) results, reused exactly while their content
//! keys are unchanged.

use crate::diag::Diagnostic;
use crate::AnalysisCtx;
use ivy_analysis::pointsto::Sensitivity;
use ivy_cmir::ast::Function;

/// An analysis plugin.
pub trait Checker: Send + Sync {
    /// Stable name; the `checker` field of produced diagnostics.
    fn name(&self) -> &'static str;

    /// The points-to precision this checker needs from the shared context.
    /// A report carries the points-to statistics of the most precise level
    /// any registered checker requires.
    fn sensitivity(&self) -> Sensitivity {
        Sensitivity::Steensgaard
    }

    /// Checks one function: the first definition of each name, in program
    /// order, possibly from several engine callers (daemon connections) at
    /// once; implementations must only go through `ctx` for shared state.
    ///
    /// Runs for every function on every analyze, and its result is not
    /// kept. Anything costly belongs behind a [`Query`](crate::Query),
    /// whose content key decides when it is reused (across runs, edits
    /// and, for a durable query, processes); what remains here should be
    /// building diagnostics from those results and the function's current
    /// syntax, spans included.
    fn check_function(&self, ctx: &AnalysisCtx, func: &Function) -> Vec<Diagnostic>;

    /// Program-level diagnostics that are not attributable to any scheduled
    /// function (e.g. annotation errors on composite fields or globals).
    /// Called once per analysis, before the per-function wave (like
    /// `check_function`, implementations should derive these from query
    /// results).
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
