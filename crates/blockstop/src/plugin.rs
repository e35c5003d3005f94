//! The BlockStop checker plugin for `ivy-engine`.
//!
//! BlockStop is inherently whole-program — atomic context flows *down* the
//! call graph from interrupt handlers, may-block facts flow *up* from
//! sleeping primitives — so the adapter demands one [`BlockStopReport`]
//! through the typed query layer ([`ReportQuery`], keyed by the analysis
//! configuration, reusing the db's points-to results) and attributes
//! findings to their caller function at the flagged call-site span. The
//! report is a fold over the db's per-function facts (`engine/fn-facts`):
//! their call sites are also its call graph, and it reads no body, so an
//! edit re-walks only the edited function. The report is a
//! [`DurableQuery`]: with a persist layer attached,
//! a warm process reloads it from `target/ivy-cache/` instead of solving
//! points-to again. Each analyze turns the memoized report's findings for
//! a function into diagnostics, so a finding's span is the report's call
//! site span, as current as the report itself.

use crate::analysis::{AtomicReason, BlockStop, BlockStopConfig, BlockStopReport, Finding};
use ivy_analysis::pointsto::Sensitivity;
use ivy_analysis::summary::{fnv1a, mix};
use ivy_cmir::ast::Function;
use ivy_engine::json::{Map, Value};
use ivy_engine::persist::{
    span_from_value, span_to_value, string_set_from_value, string_vec_from_value, strings_to_value,
};
use ivy_engine::{
    AnalysisCtx, Checker, Diagnostic, DurableQuery, Query, QueryDb, QueryKey, Severity,
};
use std::sync::Arc;

impl QueryKey for BlockStopConfig {
    fn stable_hash(&self) -> u64 {
        let mut h = fnv1a(self.sensitivity.name().as_bytes());
        for name in &self.asserted_functions {
            h = mix(h, fnv1a(name.as_bytes()));
        }
        h
    }
}

/// The whole-program BlockStop report as a typed query, keyed by the
/// analysis configuration.
pub struct ReportQuery;

impl Query for ReportQuery {
    type Key = BlockStopConfig;
    type Value = BlockStopReport;
    const NAME: &'static str = "blockstop/report";

    fn compute(db: &QueryDb, key: &BlockStopConfig) -> BlockStopReport {
        let pts = db.pointsto(key.sensitivity);
        BlockStop::with_config(key.clone()).analyze_facts(&db.program, &db.fn_facts(), &pts)
    }
}

impl DurableQuery for ReportQuery {
    /// Version 2: version 1 also carried the call-graph edge count and the
    /// unresolved indirect-site count.
    const FORMAT_VERSION: u32 = 2;

    fn encode(report: &BlockStopReport) -> Value {
        let findings: Vec<Value> = report
            .findings
            .iter()
            .map(|f| {
                let mut m = Map::new();
                m.insert("caller".into(), Value::from(f.caller.as_str()));
                m.insert("callee_text".into(), Value::from(f.callee_text.as_str()));
                m.insert(
                    "blocking_targets".into(),
                    strings_to_value(&f.blocking_targets),
                );
                m.insert("reason".into(), Value::from(f.reason.name()));
                m.insert("example_chain".into(), strings_to_value(&f.example_chain));
                m.insert("span".into(), span_to_value(&f.span));
                Value::Object(m)
            })
            .collect();
        let mut root = Map::new();
        root.insert("may_block".into(), strings_to_value(&report.may_block));
        root.insert("seeds".into(), strings_to_value(&report.seeds));
        root.insert(
            "atomic_functions".into(),
            strings_to_value(&report.atomic_functions),
        );
        root.insert("findings".into(), Value::Array(findings));
        root.insert(
            "suppressed_by_assert".into(),
            Value::from(report.suppressed_by_assert),
        );
        Value::Object(root)
    }

    fn decode(raw: &Value) -> Option<BlockStopReport> {
        let findings = raw
            .get("findings")?
            .as_array()?
            .iter()
            .map(|f| {
                Some(Finding {
                    caller: f.get("caller")?.as_str()?.to_string(),
                    callee_text: f.get("callee_text")?.as_str()?.to_string(),
                    blocking_targets: string_set_from_value(f.get("blocking_targets")?)?,
                    reason: AtomicReason::from_name(f.get("reason")?.as_str()?)?,
                    example_chain: string_vec_from_value(f.get("example_chain")?)?,
                    span: span_from_value(f.get("span")?)?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(BlockStopReport {
            may_block: string_set_from_value(raw.get("may_block")?)?,
            seeds: string_set_from_value(raw.get("seeds")?)?,
            atomic_functions: string_set_from_value(raw.get("atomic_functions")?)?,
            findings,
            suppressed_by_assert: raw.get("suppressed_by_assert")?.as_u64()?,
        })
    }
}

/// BlockStop as an engine plugin.
#[derive(Debug, Clone, Default)]
pub struct BlockStopChecker {
    /// The analysis configuration (sensitivity, asserted functions).
    pub config: BlockStopConfig,
}

impl BlockStopChecker {
    /// A plugin with the default configuration.
    pub fn new() -> BlockStopChecker {
        BlockStopChecker::default()
    }

    /// A plugin with a specific configuration.
    pub fn with_config(config: BlockStopConfig) -> BlockStopChecker {
        BlockStopChecker { config }
    }

    /// The whole-program report for a shared context, demanded through the
    /// durable query layer. Exposed so the pipeline can reuse the exact
    /// report the plugin produced.
    pub fn report(&self, ctx: &AnalysisCtx) -> Arc<BlockStopReport> {
        ctx.get_durable::<ReportQuery>(&self.config)
    }

    fn finding_to_diagnostic(&self, finding: &Finding) -> Diagnostic {
        let targets: Vec<&str> = finding
            .blocking_targets
            .iter()
            .map(String::as_str)
            .collect();
        let chain = finding.example_chain.join(" -> ");
        Diagnostic {
            checker: "blockstop".into(),
            code: "blockstop/atomic-call".into(),
            function: finding.caller.clone(),
            severity: Severity::Error,
            message: format!(
                "call to `{}` may block in atomic context ({:?}); blocking targets: [{}]; example chain: {}",
                finding.callee_text,
                finding.reason,
                targets.join(", "),
                chain
            ),
            span: finding.span.is_real().then_some(finding.span),
            fix_hint: Some(format!(
                "fix the call path, or insert a run-time `__assert_may_block` at the entry of `{}` and list it in BlockStopConfig::asserted_functions if this is a false positive",
                finding.blocking_targets.iter().next().unwrap_or(&finding.callee_text)
            )),
            // Cite what the verdict rests on: the atomic-region call path
            // that reaches a blocking primitive, and (for indirect calls)
            // the resolved target set — a points-to fact `ivy-client
            // explain` can expand into a full derivation chain.
            evidence: {
                let mut ev = vec![ivy_engine::Evidence::new(
                    "atomic-path",
                    finding.caller.clone(),
                    chain.clone(),
                )];
                if !finding.blocking_targets.is_empty() {
                    ev.push(ivy_engine::Evidence::new(
                        "indirect-targets",
                        format!("{}::{}", finding.caller, finding.callee_text),
                        targets.join(", "),
                    ));
                }
                ev
            },
        }
    }
}

impl Checker for BlockStopChecker {
    fn name(&self) -> &'static str {
        "blockstop"
    }

    fn sensitivity(&self) -> Sensitivity {
        self.config.sensitivity
    }

    fn check_function(&self, ctx: &AnalysisCtx, func: &Function) -> Vec<Diagnostic> {
        let report = self.report(ctx);
        report
            .findings
            .iter()
            .filter(|f| f.caller == func.name)
            .map(|f| self.finding_to_diagnostic(f))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_cmir::parser::parse_program;

    #[test]
    fn report_roundtrips_through_the_durable_encoding() {
        let p = parse_program(
            r#"
            extern fn spin_lock_irqsave(l: u32 *);
            extern fn spin_unlock_irqrestore(l: u32 *);
            #[blocking]
            extern fn wait_for_completion(x: u32 *);
            global lock: u32 = 0;
            global done: u32 = 0;
            fn bad() {
                spin_lock_irqsave(&lock);
                wait_for_completion(&done);
                spin_unlock_irqrestore(&lock);
            }
            "#,
        )
        .unwrap();
        let report = BlockStop::new().analyze(&p);
        assert!(!report.findings.is_empty());
        let decoded = <ReportQuery as DurableQuery>::decode(&ReportQuery::encode(&report))
            .expect("well-formed encoding decodes");
        assert_eq!(decoded.findings, report.findings);
        assert_eq!(decoded.may_block, report.may_block);
        assert_eq!(decoded.atomic_functions, report.atomic_functions);
        assert_eq!(decoded.suppressed_by_assert, report.suppressed_by_assert);
        // Spans survive the roundtrip (they feed SARIF line accuracy).
        assert!(decoded.findings[0].span.is_real());
        // Tampering is rejected.
        assert!(<ReportQuery as DurableQuery>::decode(&Value::from(3u64)).is_none());
    }

    #[test]
    fn diagnostics_carry_call_site_spans() {
        let p = parse_program(
            r#"
            #[blocking]
            extern fn msleep(ms: u32);
            #[irq_handler]
            fn tick() {
                msleep(10);
            }
            "#,
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let checker = BlockStopChecker::new();
        let func = ctx.program.function("tick").unwrap();
        let diags = checker.check_function(&ctx, func);
        assert_eq!(diags.len(), 1);
        let span = diags[0].span.expect("parsed program yields a span");
        assert_ne!(
            span, func.span,
            "the diagnostic points at the call statement, not the function"
        );
    }
}
