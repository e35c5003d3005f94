//! The CCount checker plugin for `ivy-engine`.
//!
//! CCount's static side is function-local — which pointer writes get the
//! refcount rewrite, which free/memcpy/memset sites need type information —
//! so the adapter simply drives [`analyze_function`] per scheduled function
//! and reports the instrumentation facts as diagnostics. Free sites whose
//! argument carries no static type are surfaced as warnings: those are the
//! places the paper's porting effort went (explicit run-time type
//! information), and the fix hint says so.

use crate::analyze::{analyze, analyze_function, InstrumentationReport};
use ivy_analysis::pointsto::{Loc, Sensitivity};
use ivy_cmir::ast::Function;
use ivy_engine::hash::{fnv1a, mix};
use ivy_engine::json::Value;
use ivy_engine::persist::{string_set_from_value, strings_to_value};
use ivy_engine::{
    AnalysisCtx, Checker, Diagnostic, DurableQuery, Query, QueryDb, QueryKey, Severity,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The whole-program CCount instrumentation report (used by the pipeline;
/// per-function checking uses [`FnReportQuery`]).
pub struct ProgramReportQuery;

impl Query for ProgramReportQuery {
    type Key = ();
    type Value = InstrumentationReport;
    const NAME: &'static str = "ccount/report";

    fn compute(db: &QueryDb, _key: &()) -> InstrumentationReport {
        analyze(&db.program)
    }
}

/// The per-function instrumentation report, keyed by function name — the
/// cache fingerprint and the per-function check both need it, and
/// fingerprints run on every engine pass, so one AST traversal per
/// function per db must suffice.
pub struct FnReportQuery;

impl Query for FnReportQuery {
    type Key = String;
    type Value = InstrumentationReport;
    const NAME: &'static str = "ccount/fn-report";

    fn compute(db: &QueryDb, key: &String) -> InstrumentationReport {
        let func = db
            .program
            .function(key)
            .expect("fn-report queried for a known function");
        analyze_function(&db.program, func)
    }

    /// Per-function, but resolved against the type environment: the
    /// function's content and the env hash.
    fn content_key(db: &QueryDb, key: &String) -> u64 {
        mix(mix(key.stable_hash(), db.fn_content(key)), db.env_hash())
    }
}

/// Alias query against the shared points-to substrate: the candidate heap
/// allocation sites of every pointer the function frees as a raw `void *`.
/// These are exactly the objects whose layout would have to be registered
/// with CCount, so the untyped-free warning can name them. Durable, with
/// the default (whole-program) content key: the fingerprint reads it on
/// every pass for a function that frees untyped pointers, and a warm
/// process must serve it without solving points-to.
pub struct UntypedFreeSitesQuery;

impl Query for UntypedFreeSitesQuery {
    type Key = String;
    type Value = BTreeSet<String>;
    const NAME: &'static str = "ccount/untyped-free-sites";

    fn compute(db: &QueryDb, key: &String) -> BTreeSet<String> {
        let vars = db.get::<FnReportQuery>(key).untyped_free_roots.clone();
        if vars.is_empty() {
            return BTreeSet::new();
        }
        let pts = db.pointsto(CCountChecker.sensitivity());
        let mut sites = BTreeSet::new();
        for var in vars {
            let loc = if db.program.global(&var).is_some() {
                Loc::Global(var)
            } else {
                Loc::Local {
                    func: key.clone(),
                    var,
                }
            };
            sites.extend(pts.points_to(&loc).into_iter().filter_map(|l| match l {
                Loc::Alloc { site } => Some(site),
                _ => None,
            }));
        }
        sites
    }
}

impl DurableQuery for UntypedFreeSitesQuery {
    const FORMAT_VERSION: u32 = 1;

    fn encode(sites: &BTreeSet<String>) -> Value {
        strings_to_value(sites)
    }

    fn decode(raw: &Value) -> Option<BTreeSet<String>> {
        string_set_from_value(raw)
    }
}

/// CCount as an engine plugin.
#[derive(Debug, Clone, Copy, Default)]
pub struct CCountChecker;

impl CCountChecker {
    /// Creates the plugin.
    pub fn new() -> CCountChecker {
        CCountChecker
    }

    /// The whole-program instrumentation report for a shared context.
    pub fn report(&self, ctx: &AnalysisCtx) -> Arc<InstrumentationReport> {
        ctx.get::<ProgramReportQuery>(&())
    }

    fn function_report(&self, ctx: &AnalysisCtx, func: &Function) -> Arc<InstrumentationReport> {
        ctx.get::<FnReportQuery>(&func.name)
    }

    fn alloc_sites_of_untyped_frees(
        &self,
        ctx: &AnalysisCtx,
        func: &Function,
    ) -> Arc<BTreeSet<String>> {
        ctx.get_durable::<UntypedFreeSitesQuery>(&func.name)
    }
}

impl Checker for CCountChecker {
    fn name(&self) -> &'static str {
        "ccount"
    }

    fn sensitivity(&self) -> Sensitivity {
        // The alloc-site hints only distinguish allocation sites, which
        // every precision level models identically; the cheapest suffices.
        Sensitivity::Steensgaard
    }

    fn context_fingerprint(&self, ctx: &AnalysisCtx, func: &Function) -> u64 {
        // Pointer-ness of writes is resolved against composites/typedefs
        // and global/param types; the env hash covers those. The untyped-
        // free hints additionally read points-to sets, which can change
        // with *any* body edit — fold the queried sites in so cached
        // diagnostics are replayed only when the hints would reproduce. A
        // function with no untyped free roots has no sites to fold in.
        let mut h = mix(0xcc0417, ctx.env_hash());
        if self
            .function_report(ctx, func)
            .untyped_free_roots
            .is_empty()
        {
            return h;
        }
        for site in self.alloc_sites_of_untyped_frees(ctx, func).iter() {
            h = mix(h, fnv1a(site.as_bytes()));
        }
        h
    }

    fn check_function(&self, ctx: &AnalysisCtx, func: &Function) -> Vec<Diagnostic> {
        if func.body.is_none() {
            return Vec::new();
        }
        let report = self.function_report(ctx, func);
        let mut out = Vec::new();
        if report.runtime_type_info_sites > 0 {
            let sites = self.alloc_sites_of_untyped_frees(ctx, func);
            let fix_hint = if sites.is_empty() {
                "free through a typed pointer, or register the object's layout with CCount"
                    .to_string()
            } else {
                format!(
                    "free through a typed pointer, or register the layout of the object(s) allocated at: {}",
                    sites.iter().cloned().collect::<Vec<_>>().join(", ")
                )
            };
            out.push(Diagnostic {
                checker: "ccount".into(),
                code: "ccount/untyped-free".into(),
                function: func.name.clone(),
                severity: Severity::Warning,
                message: format!(
                    "{} free site(s) of untyped (`void *`) pointers need explicit run-time type information",
                    report.runtime_type_info_sites
                ),
                span: Some(func.span),
                fix_hint: Some(fix_hint),
                // Cite the points-to facts behind the hint: the alloc
                // sites the freed `void *` pointers may reach.
                evidence: sites
                    .iter()
                    .map(|site| {
                        ivy_engine::Evidence::new(
                            "alloc-site",
                            func.name.clone(),
                            format!("freed pointer may point to alloc@{site}"),
                        )
                    })
                    .collect(),
            });
        }
        if report.counted_pointer_writes > 0 || report.free_sites > 0 {
            out.push(Diagnostic {
                checker: "ccount".into(),
                code: "ccount/instrumentation".into(),
                function: func.name.clone(),
                severity: Severity::Info,
                message: format!(
                    "{} counted pointer write(s), {} local write(s), {} free site(s), {} alloc site(s), {} memcpy/memset site(s)",
                    report.counted_pointer_writes,
                    report.local_pointer_writes,
                    report.free_sites,
                    report.alloc_sites,
                    report.memcpy_sites + report.memset_sites
                ),
                span: Some(func.span),
                fix_hint: None,
                evidence: Vec::new(),
            });
        }
        out
    }
}
