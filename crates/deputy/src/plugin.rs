//! The Deputy checker plugin for `ivy-engine`.
//!
//! Deputy checking decomposes cleanly per function: validation and the
//! defaulted environment are prepared once per program ([`PreparedQuery`],
//! a fold over the db's per-function facts that reads no body and shares
//! every signature the facts hold), then each function is checked
//! independently ([`InstrumentedQuery`]) — call-site obligations only
//! consult *signatures* of callees, never their bodies. The environment is
//! body-free (signatures, globals, composites, typedefs), and the
//! per-function query computes only the function's [`ConversionReport`]:
//! Deputy's check walk runs report-only ([`function_report`]), defaulting
//! each parameter and local as it binds it and counting each check it
//! would insert, so it copies no body and builds no check, and a context
//! holds its program once and no Deputy body besides. The instrumented
//! program itself is [`Deputy::convert`]'s job: the same walk with the
//! rewrite on.
//!
//! The instrumented query is a [`DurableQuery`] keyed by function name,
//! whose content key mixes the function's span-insensitive content hash,
//! its layout hash (spans relative to its start line) and the
//! whole-program type environment hash, all as the db stores them:
//! re-checking after a one-function edit re-instruments exactly the edited
//! function — in this process, or, with a persist layer attached, a later
//! one. The report stores its diagnostics' lines relative to the
//! function's start line, and each analyze re-bases them on the current
//! function, so an edit that only moves a function keeps its entry and
//! still reports the lines a fresh run of the edited source reports.

use crate::annotate;
use crate::instrument::{function_report, Deputy};
use crate::report::{ConversionReport, DeputyDiagnostic, Severity as DeputySeverity};
use ivy_analysis::pointsto::Sensitivity;
use ivy_cmir::ast::{Function, Program};
use ivy_cmir::facts::{Callee, FnFacts};
use ivy_cmir::pretty::type_str;
use ivy_engine::hash::mix;
use ivy_engine::json::{Map, Value};
use ivy_engine::persist::{span_from_value, span_to_value};
use ivy_engine::{
    AnalysisCtx, Checker, Diagnostic, DurableQuery, Query, QueryDb, QueryKey, Severity,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
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
    /// Positions in `report.diagnostics` by the name they are attributed to.
    by_function: HashMap<String, Vec<usize>>,
}

impl Prepared {
    /// The validation diagnostics attributed to `function`, in order.
    pub(crate) fn diagnostics_of<'a>(
        &'a self,
        function: &str,
    ) -> impl Iterator<Item = &'a DeputyDiagnostic> + 'a {
        let at = self
            .by_function
            .get(function)
            .map_or(&[][..], Vec::as_slice);
        at.iter().map(|&i| &self.report.diagnostics[i])
    }
}

/// The defaulted globals and composites and the validation of their
/// annotations ([`annotate::Items`]), carried across every edit that
/// leaves the type environment and its spans unchanged.
pub struct ItemsQuery;

impl Query for ItemsQuery {
    type Key = ();
    type Value = annotate::Items;
    const NAME: &'static str = "deputy/items";

    fn compute(db: &QueryDb, _: &()) -> annotate::Items {
        annotate::prepare_items(&db.program)
    }

    /// The stored env hash and the stored hash of the spans outside
    /// functions: a body edit keeps the entry.
    fn content_key(db: &QueryDb, key: &()) -> u64 {
        mix(mix(key.stable_hash(), db.env_hash()), db.env_layout())
    }
}

/// Validation + the defaulted environment for a whole program, folded
/// over the db's per-function facts and its [`ItemsQuery`] entry.
pub struct PreparedQuery;

impl Query for PreparedQuery {
    type Key = ();
    type Value = Prepared;
    const NAME: &'static str = "deputy/prepared";

    fn compute(db: &QueryDb, _: &()) -> Prepared {
        let items = db.get::<ItemsQuery>(&());
        let (env, report) = Deputy::new().prepare_with(&db.program, &items, &db.fn_facts());
        let mut by_function: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, d) in report.diagnostics.iter().enumerate() {
            by_function.entry(d.function.clone()).or_default().push(i);
        }
        Prepared {
            env,
            report,
            by_function,
        }
    }
}

/// The conversion report of one function checked against the prepared
/// environment by the report-only walk ([`function_report`], the report
/// [`crate::convert_function`] gives): its check counts, static discharges
/// and diagnostics, whose span lines are relative to the function's start
/// line. No instrumented body is built.
pub struct InstrumentedQuery;

impl Query for InstrumentedQuery {
    type Key = String;
    type Value = ConversionReport;
    const NAME: &'static str = "deputy/instrumented";

    fn compute(db: &QueryDb, key: &String) -> ConversionReport {
        let prepared = db.get::<PreparedQuery>(&());
        let at = db
            .program
            .functions
            .position(key)
            .expect("instrumented query demanded for a known function");
        let subject = &db.program.functions[at];
        let mut report = function_report(&prepared.env, subject, &db.fn_facts()[at]);
        let start = subject.span.start.line;
        for d in &mut report.diagnostics {
            d.span = d.span.map(|span| span.shift_lines(start.wrapping_neg()));
        }
        report
    }

    /// The function's name, its stored content and layout hashes and the
    /// stored env hash: an edit to another function's body keeps the
    /// entry, and an edit to this function (blank lines inside it
    /// included) or to the environment drops it.
    fn content_key(db: &QueryDb, key: &String) -> u64 {
        let function = mix(db.fn_content(key), db.fn_layout(key));
        mix(mix(key.stable_hash(), function), db.env_hash())
    }
}

impl DurableQuery for InstrumentedQuery {
    /// Version 7: a trusted function counts each access site once. Version
    /// 6 stored the same payload under the same key, but counted an access
    /// nested in a branch or loop once more per enclosing statement; it
    /// added the function's layout hash to the content key. Version 5
    /// stored the same payload under a key without it, and version 4
    /// stored the span lines absolute, under the same content key (the
    /// name, the stored content hash and the stored env hash). Version 3
    /// stored the same payload under a key that hashed a caller-computed
    /// content hash in as well; version 2 left the env hash out; version 1
    /// also carried the instrumented body as pretty-printed KC source.
    const FORMAT_VERSION: u32 = 7;

    fn encode(value: &ConversionReport) -> Value {
        report_to_value(value)
    }

    fn decode(raw: &Value) -> Option<ConversionReport> {
        report_from_value(raw)
    }
}

/// One function's indirect calls: callee text → parameter signature →
/// the resolved targets with that signature.
pub type SignatureGroups = BTreeMap<String, BTreeMap<String, BTreeSet<String>>>;

/// Resolved indirect-call target groups of every defined function, by
/// function name; a function without resolved indirect calls has no
/// entry. One whole-program entry: it reads points-to target sets, which
/// any edit may change. Not durable: it is only demanded when the
/// (off-by-default) drift check is enabled.
pub struct IndirectGroupsQuery;

impl Query for IndirectGroupsQuery {
    type Key = ();
    type Value = BTreeMap<String, SignatureGroups>;
    const NAME: &'static str = "deputy/indirect-groups";

    fn compute(db: &QueryDb, _: &()) -> Self::Value {
        let checker = DeputyChecker::new();
        let functions = &db.program.functions;
        let facts = db.fn_facts();
        functions
            .iter()
            .zip(facts.iter())
            .enumerate()
            .filter(|(i, (func, _))| {
                func.body.is_some() && functions.position(&func.name) == Some(*i)
            })
            .map(|(_, (func, facts))| {
                let groups = checker.compute_indirect_signature_groups(db, func, facts);
                (func.name.clone(), groups)
            })
            .filter(|(_, groups)| !groups.is_empty())
            .collect()
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
    /// work. Its diagnostics' span lines are relative to the start line of
    /// `func`.
    pub fn instrumented(&self, ctx: &AnalysisCtx, func: &Function) -> Arc<ConversionReport> {
        ctx.get_durable::<InstrumentedQuery>(&func.name)
    }

    /// For every indirect call in `func` (whose facts are `facts`), the
    /// resolved targets (a query into the shared points-to substrate)
    /// grouped by their parameter signature (types *and* Deputy
    /// annotations). A bare name is a direct call unless a parameter,
    /// local or global of that name shadows the function. More than one
    /// group means the function-pointer interface is inconsistent — some
    /// target will be entered with obligations its annotations do not
    /// state.
    fn compute_indirect_signature_groups(
        &self,
        db: &QueryDb,
        func: &Function,
        facts: &FnFacts,
    ) -> SignatureGroups {
        let pts = db.pointsto(self.sensitivity());
        let mut out = SignatureGroups::new();
        for call in &facts.calls {
            if matches!(&call.callee, Callee::Name { name, .. } if db.program.global(name).is_none())
            {
                continue; // direct call
            }
            let text = call.callee.text();
            if out.contains_key(text) {
                continue;
            }
            let Some(targets) = pts.indirect_targets_for(&func.name, text) else {
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
                out.insert(text.to_string(), groups);
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
            .diagnostics_of(&func.name)
            .map(Self::to_diagnostic)
            .collect();

        if func.body.is_some() && self.config.check_indirect_annotations {
            let all = ctx.get::<IndirectGroupsQuery>(&());
            for (text, groups) in all.get(&func.name).into_iter().flatten() {
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
            // Demanded through the durable query so later runs, edits
            // and warm processes reuse the work.
            let report = self.instrumented(ctx, func);
            let start = func.span.start.line;
            out.extend(report.diagnostics.iter().map(|d| Diagnostic {
                span: d.span.map(|span| span.shift_lines(start)),
                ..Self::to_diagnostic(d)
            }));
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
