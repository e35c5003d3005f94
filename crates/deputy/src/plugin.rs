//! The Deputy checker plugin for `ivy-engine`.
//!
//! Deputy checking decomposes cleanly per function: validation and the
//! defaulted environment are prepared once per program ([`PreparedQuery`]),
//! then each function is defaulted and instrumented independently
//! ([`InstrumentedQuery`]) — call-site obligations only consult
//! *signatures* of callees, never their bodies. The environment is
//! body-free (signatures, globals, composites, typedefs), and the
//! per-function query keeps only the function's [`ConversionReport`]: the
//! instrumented body is built, read for its report, and dropped, so a
//! context holds its program once and no Deputy body besides. The
//! instrumented program itself is [`Deputy::convert`]'s job.
//!
//! The instrumented query is a [`DurableQuery`] keyed by the function's
//! span-insensitive content hash and the whole-program type environment
//! hash: with a persist layer attached, re-checking after a one-function
//! edit re-instruments exactly the edited function — in this process or a
//! later one. The cache fingerprint for per-function diagnostics is the
//! env hash for the same reason: a body edit leaves every other function's
//! Deputy result cached, which is exactly the dirty-cone behaviour the
//! engine's incremental loop relies on.

use crate::instrument::{convert_function, Deputy};
use crate::report::{ConversionReport, DeputyDiagnostic, Severity as DeputySeverity};
use ivy_analysis::callgraph::calls_in;
use ivy_analysis::pointsto::Sensitivity;
use ivy_cmir::ast::{Expr, Function, Program};
use ivy_cmir::content::function_content_hash;
use ivy_cmir::pretty::{expr_str, type_str};
use ivy_engine::hash::{fnv1a, mix};
use ivy_engine::json::{Map, Value};
use ivy_engine::persist::{span_from_value, span_to_value};
use ivy_engine::{
    AnalysisCtx, Checker, Diagnostic, DurableQuery, Query, QueryDb, QueryKey, Severity,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Configuration of the Deputy engine plugin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeputyConfig {
    /// Check that the resolved targets of every indirect call agree on
    /// their parameter types and annotations (the check queries the shared
    /// points-to analysis). Off by default — it warns about latent
    /// interface drift rather than definite type errors.
    pub check_indirect_annotations: bool,
}

/// Deputy as an engine plugin.
#[derive(Debug, Clone, Default)]
pub struct DeputyChecker {
    /// The conversion configuration.
    pub config: DeputyConfig,
}

/// The prepared result: the defaulted, body-free environment, plus the
/// validation/inference report.
pub struct Prepared {
    /// Composites, typedefs, globals and function signatures, with
    /// defaults inferred and no function bodies (see [`Deputy::prepare`]).
    pub env: Program,
    /// Validation diagnostics and inference counts.
    pub report: ConversionReport,
}

/// Validation + the defaulted environment for a whole program.
pub struct PreparedQuery;

impl Query for PreparedQuery {
    type Key = ();
    type Value = Prepared;
    const NAME: &'static str = "deputy/prepared";

    fn compute(db: &QueryDb, _: &()) -> Prepared {
        // Preparation reads every annotation in the program directly, so
        // dependency-driven invalidation must see the whole-program read.
        db.depend_on_program();
        let (env, report) = Deputy::new().prepare(&db.program);
        Prepared { env, report }
    }
}

/// Key of [`InstrumentedQuery`]: content-addressed, so a durable entry is
/// valid exactly as long as the function's own definition and the
/// whole-program type environment (the two inputs instrumentation reads)
/// are unchanged — a one-function edit invalidates one entry.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrumentedKey {
    /// Function name.
    pub function: String,
    /// Span-insensitive structural hash of the function definition.
    pub content_hash: u64,
    /// Whole-program type environment hash (callee signatures, composites).
    pub env_hash: u64,
}

impl QueryKey for InstrumentedKey {
    fn stable_hash(&self) -> u64 {
        let h = mix(fnv1a(self.function.as_bytes()), self.content_hash);
        mix(h, self.env_hash)
    }
}

/// The conversion report of one function instrumented against the
/// prepared environment (see [`convert_function`]): its check counts,
/// static discharges and diagnostics. The instrumented body is not kept.
pub struct InstrumentedQuery;

impl Query for InstrumentedQuery {
    type Key = InstrumentedKey;
    type Value = ConversionReport;
    const NAME: &'static str = "deputy/instrumented";

    fn compute(db: &QueryDb, key: &InstrumentedKey) -> ConversionReport {
        let prepared = db.get::<PreparedQuery>(&());
        let subject = db
            .program
            .function(&key.function)
            .expect("instrumented query demanded for a known function");
        convert_function(&prepared.env, subject).1
    }
}

impl DurableQuery for InstrumentedQuery {
    /// Version 2: the report alone. Version 1 also carried the
    /// instrumented body as pretty-printed KC source.
    const FORMAT_VERSION: u32 = 2;

    /// The key's stable hash mixed with the function's content in `db`.
    /// An entry for the current content keeps its durable key across
    /// edits to other functions; an entry whose function has since been
    /// edited gets a different one under the edited program, fails
    /// revalidation and is dropped instead of being carried into every
    /// later context.
    fn durable_key(db: &QueryDb, key: &InstrumentedKey) -> u64 {
        mix(key.stable_hash(), db.fn_content(&key.function))
    }

    fn encode(value: &ConversionReport) -> Value {
        report_to_value(value)
    }

    fn decode(raw: &Value) -> Option<ConversionReport> {
        report_from_value(raw)
    }
}

/// Resolved indirect-call target groups per function (see
/// [`DeputyChecker::indirect_signature_groups`]); keyed by function name.
/// Not durable: it reads points-to target sets, and is only demanded when
/// the (off-by-default) drift check is enabled.
pub struct IndirectGroupsQuery;

impl Query for IndirectGroupsQuery {
    type Key = String;
    type Value = BTreeMap<String, BTreeMap<String, BTreeSet<String>>>;
    const NAME: &'static str = "deputy/indirect-groups";

    fn compute(db: &QueryDb, key: &String) -> Self::Value {
        // The groups read this function's call sites plus whole-program
        // points-to targets (demanded below through the db); anchor the
        // direct body read to the function's content.
        db.fn_content(key);
        let Some(func) = db.program.function(key) else {
            return BTreeMap::new();
        };
        DeputyChecker::new().compute_indirect_signature_groups(db, func)
    }
}

/// Encodes a [`ConversionReport`] for persistence.
fn report_to_value(report: &ConversionReport) -> Value {
    let mut runtime = Map::new();
    for (kind, n) in &report.runtime_checks {
        runtime.insert(kind.clone(), Value::from(*n));
    }
    let mut per_fn = Map::new();
    for (function, n) in &report.checks_per_function {
        per_fn.insert(function.clone(), Value::from(*n));
    }
    let diagnostics: Vec<Value> = report
        .diagnostics
        .iter()
        .map(|d| {
            let mut m = Map::new();
            m.insert("function".into(), Value::from(d.function.as_str()));
            m.insert("message".into(), Value::from(d.message.as_str()));
            m.insert(
                "severity".into(),
                Value::from(match d.severity {
                    DeputySeverity::Error => "error",
                    DeputySeverity::Note => "note",
                }),
            );
            if let Some(span) = &d.span {
                m.insert("span".into(), span_to_value(span));
            }
            Value::Object(m)
        })
        .collect();
    let mut root = Map::new();
    root.insert(
        "static_discharged".into(),
        Value::from(report.static_discharged),
    );
    root.insert(
        "checks_optimized_away".into(),
        Value::from(report.checks_optimized_away),
    );
    root.insert("trusted_sites".into(), Value::from(report.trusted_sites));
    root.insert(
        "inferred_defaults".into(),
        Value::from(report.inferred_defaults),
    );
    root.insert("runtime_checks".into(), Value::Object(runtime));
    root.insert("checks_per_function".into(), Value::Object(per_fn));
    root.insert("diagnostics".into(), Value::Array(diagnostics));
    Value::Object(root)
}

/// Decodes a [`ConversionReport`] from its persisted form.
fn report_from_value(v: &Value) -> Option<ConversionReport> {
    let u64_map = |value: &Value| -> Option<BTreeMap<String, u64>> {
        value
            .as_object()?
            .iter()
            .map(|(k, n)| n.as_u64().map(|n| (k.clone(), n)))
            .collect()
    };
    let diagnostics = v
        .get("diagnostics")?
        .as_array()?
        .iter()
        .map(|d| {
            Some(DeputyDiagnostic {
                function: d.get("function")?.as_str()?.to_string(),
                message: d.get("message")?.as_str()?.to_string(),
                severity: match d.get("severity")?.as_str()? {
                    "error" => DeputySeverity::Error,
                    "note" => DeputySeverity::Note,
                    _ => return None,
                },
                // Present-but-undecodable spans reject the entry (forcing
                // recompute) instead of decaying to a spanless diagnostic.
                span: match d.get("span") {
                    Some(raw) => Some(span_from_value(raw)?),
                    None => None,
                },
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(ConversionReport {
        static_discharged: v.get("static_discharged")?.as_u64()?,
        runtime_checks: u64_map(v.get("runtime_checks")?)?,
        checks_optimized_away: v.get("checks_optimized_away")?.as_u64()?,
        trusted_sites: v.get("trusted_sites")?.as_u64()?,
        inferred_defaults: v.get("inferred_defaults")?.as_u64()?,
        diagnostics,
        checks_per_function: u64_map(v.get("checks_per_function")?)?,
    })
}

impl DeputyChecker {
    /// A plugin with the default configuration.
    pub fn new() -> DeputyChecker {
        DeputyChecker::default()
    }

    /// A plugin with a specific configuration.
    pub fn with_config(config: DeputyConfig) -> DeputyChecker {
        DeputyChecker { config }
    }

    /// The prepared environment for a shared context, computed once.
    pub fn prepared(&self, ctx: &AnalysisCtx) -> Arc<Prepared> {
        ctx.get::<PreparedQuery>(&())
    }

    /// The conversion report of one function (instrumented against the
    /// prepared environment), demanded through the durable query layer so
    /// the per-function checking pass and warm-started processes share the
    /// work.
    pub fn instrumented(&self, ctx: &AnalysisCtx, func: &Function) -> Arc<ConversionReport> {
        let key = InstrumentedKey {
            function: func.name.clone(),
            content_hash: function_content_hash(func),
            env_hash: ctx.env_hash(),
        };
        ctx.get_durable::<InstrumentedQuery>(&key)
    }

    /// Query path into the shared points-to substrate: for every indirect
    /// call in `func`, the resolved targets grouped by their parameter
    /// signature (types *and* Deputy annotations). More than one group
    /// means the function-pointer interface is inconsistent — some target
    /// will be entered with obligations its annotations do not state.
    /// Demanded as a query: the cache fingerprint and the per-function
    /// check both read it, and fingerprints run on every engine pass.
    fn indirect_signature_groups(
        &self,
        ctx: &AnalysisCtx,
        func: &Function,
    ) -> Arc<BTreeMap<String, BTreeMap<String, BTreeSet<String>>>> {
        ctx.get::<IndirectGroupsQuery>(&func.name)
    }

    fn compute_indirect_signature_groups(
        &self,
        db: &QueryDb,
        func: &Function,
    ) -> BTreeMap<String, BTreeMap<String, BTreeSet<String>>> {
        let pts = db.pointsto(self.sensitivity());
        let mut out: BTreeMap<String, BTreeMap<String, BTreeSet<String>>> = BTreeMap::new();
        for (callee_expr, _argc) in calls_in(func) {
            if matches!(callee_expr, Expr::Var(name) if db.program.function(name).is_some()) {
                continue; // direct call
            }
            let text = expr_str(callee_expr);
            if out.contains_key(&text) {
                continue;
            }
            let Some(targets) = pts.indirect_targets_for(&func.name, &text) else {
                continue;
            };
            let mut groups: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
            for target in targets {
                let Some(f) = db.program.function(target) else {
                    continue;
                };
                let sig: String = f
                    .params
                    .iter()
                    .map(|p| type_str(&p.ty))
                    .collect::<Vec<_>>()
                    .join(", ");
                groups.entry(sig).or_default().insert(target.clone());
            }
            if !groups.is_empty() {
                out.insert(text, groups);
            }
        }
        out
    }

    fn to_diagnostic(d: &DeputyDiagnostic) -> Diagnostic {
        Diagnostic {
            checker: "deputy".into(),
            code: match d.severity {
                DeputySeverity::Error => "deputy/type-error".into(),
                DeputySeverity::Note => "deputy/note".into(),
            },
            function: d.function.clone(),
            severity: match d.severity {
                DeputySeverity::Error => Severity::Error,
                DeputySeverity::Note => Severity::Info,
            },
            message: d.message.clone(),
            span: d.span,
            fix_hint: match d.severity {
                DeputySeverity::Error => {
                    Some("annotate the pointer, rewrite the construct, or mark it trusted".into())
                }
                DeputySeverity::Note => None,
            },
            // Validation and instrumentation findings read only the
            // function's own syntax and annotations — no analysis facts.
            evidence: Vec::new(),
        }
    }
}

impl Checker for DeputyChecker {
    fn name(&self) -> &'static str {
        "deputy"
    }

    fn sensitivity(&self) -> Sensitivity {
        // The indirect-annotation check only needs target *sets*; the
        // cheapest level suffices (and is shared with the other checkers).
        Sensitivity::Steensgaard
    }

    fn context_fingerprint(&self, ctx: &AnalysisCtx, func: &Function) -> u64 {
        // Per-function instrumentation reads callee *signatures* (and
        // composite layouts) from the prepared program; the env hash covers
        // exactly that. Bodies are covered by the cone hash. The indirect-
        // annotation check additionally reads points-to target sets, which
        // any body edit can change — fold the resolved groups in.
        let check_indirect = u64::from(self.config.check_indirect_annotations);
        let mut h = mix(check_indirect, ctx.env_hash());
        if self.config.check_indirect_annotations && func.body.is_some() {
            for (text, groups) in self.indirect_signature_groups(ctx, func).iter() {
                h = mix(h, fnv1a(text.as_bytes()));
                for (sig, targets) in groups {
                    h = mix(h, fnv1a(sig.as_bytes()));
                    for t in targets {
                        h = mix(h, fnv1a(t.as_bytes()));
                    }
                }
            }
        }
        h
    }

    fn check_program(&self, ctx: &AnalysisCtx) -> Vec<Diagnostic> {
        // Validation diagnostics attributed to non-function subjects
        // (composite fields read `Type::field`, globals read `global g`)
        // would be dropped by the per-function filter below; surface them
        // at program level.
        let prepared = self.prepared(ctx);
        prepared
            .report
            .diagnostics
            .iter()
            .filter(|d| ctx.program.function(&d.function).is_none())
            .map(Self::to_diagnostic)
            .collect()
    }

    fn check_function(&self, ctx: &AnalysisCtx, func: &Function) -> Vec<Diagnostic> {
        let prepared = self.prepared(ctx);
        let mut out: Vec<Diagnostic> = prepared
            .report
            .diagnostics
            .iter()
            .filter(|d| d.function == func.name)
            .map(Self::to_diagnostic)
            .collect();

        if func.body.is_some() && self.config.check_indirect_annotations {
            for (text, groups) in self.indirect_signature_groups(ctx, func).iter() {
                if groups.len() < 2 {
                    continue;
                }
                let variants: Vec<String> = groups
                    .iter()
                    .map(|(sig, targets)| {
                        format!(
                            "({sig}) <- {}",
                            targets.iter().cloned().collect::<Vec<_>>().join(", ")
                        )
                    })
                    .collect();
                out.push(Diagnostic {
                    checker: "deputy".into(),
                    code: "deputy/indirect-annot".into(),
                    function: func.name.clone(),
                    severity: Severity::Warning,
                    message: format!(
                        "indirect call `{text}` resolves to targets with {} incompatible parameter signatures: {}",
                        groups.len(),
                        variants.join("; ")
                    ),
                    span: Some(func.span),
                    fix_hint: Some(
                        "unify the annotations of every function assigned to this function pointer"
                            .into(),
                    ),
                    // Cite the points-to facts this finding rests on: the
                    // resolved target set of the call site, and the
                    // signature group each target fell into. `ivy-client
                    // explain` turns the first citation into a derivation
                    // chain.
                    evidence: {
                        let mut ev = vec![ivy_engine::Evidence::new(
                            "indirect-targets",
                            format!("{}::{text}", func.name),
                            groups
                                .values()
                                .flat_map(|targets| targets.iter().cloned())
                                .collect::<Vec<_>>()
                                .join(", "),
                        )];
                        ev.extend(groups.iter().map(|(sig, targets)| {
                            ivy_engine::Evidence::new(
                                "signature-group",
                                format!("({sig})"),
                                targets.iter().cloned().collect::<Vec<_>>().join(", "),
                            )
                        }));
                        ev
                    },
                });
            }
        }

        if func.body.is_some() {
            // Demanded through the durable query so warm processes reuse
            // the work.
            let report = self.instrumented(ctx, func);
            out.extend(report.diagnostics.iter().map(Self::to_diagnostic));
            if report.total_runtime_checks() > 0 || report.static_discharged > 0 {
                let kinds: Vec<String> = report
                    .runtime_checks
                    .iter()
                    .map(|(kind, n)| format!("{kind}:{n}"))
                    .collect();
                out.push(Diagnostic {
                    checker: "deputy".into(),
                    code: "deputy/instrumentation".into(),
                    function: func.name.clone(),
                    severity: Severity::Info,
                    message: format!(
                        "{} run-time checks inserted ({}), {} sites discharged statically, {} trusted",
                        report.total_runtime_checks(),
                        kinds.join(", "),
                        report.static_discharged,
                        report.trusted_sites
                    ),
                    span: Some(func.span),
                    fix_hint: None,
                    evidence: Vec::new(),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_cmir::parser::parse_program;

    const SRC: &str = r#"
        struct buf { n: u32; data: u8 * count(n); }
        global pool: struct buf *;
        fn get(b: struct buf * nonnull, i: u32) -> u8 { return b->data[i]; }
        fn sum(b: struct buf * nonnull) -> u32 {
            let acc: u32 = 0;
            let i: u32 = 0;
            while (i < b->n) {
                acc = acc + b->data[i];
                i = i + 1;
            }
            return acc;
        }
    "#;

    #[test]
    fn instrumented_reports_roundtrip_through_the_durable_encoding() {
        let p = parse_program(SRC).unwrap();
        let ctx = AnalysisCtx::new(&p);
        let checker = DeputyChecker::new();
        let sum = ctx.program.function("sum").unwrap();
        let report = checker.instrumented(&ctx, sum);
        assert!(report.total_runtime_checks() + report.static_discharged > 0);
        let encoded = InstrumentedQuery::encode(&report);
        let decoded = <InstrumentedQuery as DurableQuery>::decode(&encoded).expect("decodes");
        assert_eq!(decoded, *report);
        // Tampering is rejected.
        assert!(<InstrumentedQuery as DurableQuery>::decode(&Value::from(1u64)).is_none());
        let Value::Object(mut root) = encoded else {
            unreachable!("reports encode as an object")
        };
        root.insert("static_discharged".into(), Value::from("many"));
        assert!(<InstrumentedQuery as DurableQuery>::decode(&Value::Object(root)).is_none());
    }

    #[test]
    fn indirect_annotation_check_flags_signature_drift() {
        let p = parse_program(
            r#"
            global hook: fnptr(u8 *, u32) -> void;
            fn strict(p: u8 * count(n) nonnull, n: u32) { }
            fn loose(p: u8 *, n: u32) { }
            fn register_both() { hook = strict; hook = loose; }
            fn fire(q: u8 *, n: u32) { hook(q, n); }
            "#,
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);

        // Off by default: no drift warnings.
        let default_checker = DeputyChecker::new();
        let fire = ctx.program.function("fire").unwrap();
        assert!(default_checker
            .check_function(&ctx, fire)
            .iter()
            .all(|d| d.code != "deputy/indirect-annot"));

        let config = DeputyConfig {
            check_indirect_annotations: true,
        };
        let checker = DeputyChecker::with_config(config);
        let diags = checker.check_function(&ctx, fire);
        let drift: Vec<_> = diags
            .iter()
            .filter(|d| d.code == "deputy/indirect-annot")
            .collect();
        assert_eq!(drift.len(), 1, "diags: {diags:?}");
        assert!(drift[0].message.contains("strict") && drift[0].message.contains("loose"));
        // Fingerprints differ between the two configurations (the check
        // folds the resolved target groups in).
        assert_ne!(
            checker.context_fingerprint(&ctx, fire),
            default_checker.context_fingerprint(&ctx, fire)
        );
    }

    #[test]
    fn program_level_diagnostics_surface_via_check_program() {
        // A composite-field annotation referencing an unknown sibling is
        // attributed to `buf::data`, which is not a function.
        let p = parse_program(
            r#"
            struct buf { n: u32; data: u8 * count(missing); }
            fn id(x: u32) -> u32 { return x; }
            "#,
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let checker = DeputyChecker::new();
        let program_level = checker.check_program(&ctx);
        assert!(
            program_level.iter().any(|d| d.function == "buf::data"),
            "composite-field diagnostics must surface: {program_level:?}"
        );
        // Satellite: validation diagnostics now carry declaration spans.
        assert!(
            program_level.iter().all(|d| d.span.is_some()),
            "composite-field diagnostics carry the field's span: {program_level:?}"
        );
        // And the per-function pass does not duplicate them.
        let per_fn = checker.check_function(&ctx, ctx.program.function("id").unwrap());
        assert!(per_fn.iter().all(|d| d.function == "id"));
    }
}
