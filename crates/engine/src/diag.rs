//! The unified diagnostic model shared by every checker plugin.
//!
//! Checkers return plain `Vec<Diagnostic>`; the engine merges, orders, and
//! serializes them. Ordering is total and content-based (never dependent on
//! scheduling or cache temperature), so every run of the same program
//! produces byte-identical reports — the determinism contract the engine's
//! integration tests pin down.

use ivy_cmir::Span;
use serde::{Deserialize, Serialize};
use serde_json::{Map, Value};
use std::collections::BTreeMap;

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// A defect the checker believes is real (sound finding).
    Error,
    /// A possible defect or a soundness caveat.
    Warning,
    /// Instrumentation / conversion information.
    Info,
}

impl Severity {
    /// Stable lower-case name used in serialized output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }

    /// SARIF `level` value.
    pub fn sarif_level(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "note",
        }
    }

    /// Parses the stable lower-case name back (inverse of
    /// [`Severity::name`]); used when reloading persisted diagnostics.
    pub fn from_name(name: &str) -> Option<Severity> {
        match name {
            "error" => Some(Severity::Error),
            "warning" => Some(Severity::Warning),
            "info" => Some(Severity::Info),
            _ => None,
        }
    }
}

/// One structured fact citation attached to a diagnostic: the analysis
/// result the checker relied on when it decided to report. Evidence makes
/// a finding auditable — the daemon's `explain` verb and the oracle's
/// violation reports start from these citations, and the SARIF rendering
/// carries them as `relatedLocations`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Evidence {
    /// What kind of fact is cited: `"pts"` (a points-to fact),
    /// `"indirect-targets"` (a resolved indirect call), `"alloc-site"`
    /// (a heap allocation the fact traces to), or `"atomic-path"`
    /// (a call path inside an atomic region).
    pub kind: String,
    /// The subject of the fact, e.g. `"vfs_read::ops->read"` or a
    /// location rendered by the points-to layer.
    pub subject: String,
    /// The fact's content, e.g. the resolved target list or the call
    /// chain, rendered human-readably.
    pub detail: String,
}

impl Evidence {
    /// A citation with all three parts.
    pub fn new(
        kind: impl Into<String>,
        subject: impl Into<String>,
        detail: impl Into<String>,
    ) -> Evidence {
        Evidence {
            kind: kind.into(),
            subject: subject.into(),
            detail: detail.into(),
        }
    }

    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("kind".into(), Value::from(self.kind.as_str()));
        m.insert("subject".into(), Value::from(self.subject.as_str()));
        m.insert("detail".into(), Value::from(self.detail.as_str()));
        Value::Object(m)
    }

    fn from_value(v: &Value) -> Option<Evidence> {
        let text = |key: &str| v.get(key).and_then(Value::as_str).map(String::from);
        Some(Evidence {
            kind: text("kind")?,
            subject: text("subject")?,
            detail: text("detail")?,
        })
    }
}

/// One finding from one checker about one function.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Name of the checker that produced this (e.g. `"blockstop"`).
    pub checker: String,
    /// Stable rule identifier, `checker/rule` style.
    pub code: String,
    /// Function the diagnostic is attached to.
    pub function: String,
    /// Severity.
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
    /// Source span, when one is known.
    pub span: Option<Span>,
    /// A suggested fix, when the checker knows one.
    pub fix_hint: Option<String>,
    /// The analysis facts the checker relied on (empty when the finding
    /// needed none beyond the function's own syntax).
    pub evidence: Vec<Evidence>,
}

impl Diagnostic {
    /// The total content ordering used for report stability.
    fn sort_key(&self) -> (&str, &str, Severity, &str, &str) {
        (
            &self.function,
            &self.code,
            self.severity,
            &self.message,
            &self.checker,
        )
    }

    /// Serializes to the stable JSON object used by reports and the
    /// persist layer.
    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("checker".into(), Value::from(self.checker.as_str()));
        m.insert("code".into(), Value::from(self.code.as_str()));
        m.insert("function".into(), Value::from(self.function.as_str()));
        m.insert("severity".into(), Value::from(self.severity.name()));
        m.insert("message".into(), Value::from(self.message.as_str()));
        if let Some(span) = &self.span {
            m.insert("span".into(), crate::persist::span_to_value(span));
        }
        if let Some(hint) = &self.fix_hint {
            m.insert("fix_hint".into(), Value::from(hint.as_str()));
        }
        if !self.evidence.is_empty() {
            m.insert(
                "evidence".into(),
                Value::Array(self.evidence.iter().map(Evidence::to_value).collect()),
            );
        }
        Value::Object(m)
    }

    /// Decodes a diagnostic from its [`Diagnostic::to_value`] form; `None`
    /// rejects malformed input (the persist layer then recomputes).
    pub fn from_value(v: &Value) -> Option<Diagnostic> {
        let text = |key: &str| v.get(key).and_then(Value::as_str).map(String::from);
        // A present-but-undecodable span rejects the whole entry (so the
        // persist layer recomputes) rather than silently dropping the span
        // and breaking warm/cold report byte-identity.
        let span = match v.get("span") {
            Some(raw) => Some(crate::persist::span_from_value(raw)?),
            None => None,
        };
        // Like the span: present-but-undecodable evidence rejects the
        // whole entry so the persist layer recomputes it.
        let evidence = match v.get("evidence") {
            Some(raw) => raw
                .as_array()?
                .iter()
                .map(Evidence::from_value)
                .collect::<Option<Vec<Evidence>>>()?,
            None => Vec::new(),
        };
        Some(Diagnostic {
            checker: text("checker")?,
            code: text("code")?,
            function: text("function")?,
            severity: Severity::from_name(v.get("severity")?.as_str()?)?,
            message: text("message")?,
            span,
            fix_hint: text("fix_hint"),
            evidence,
        })
    }
}

/// Run statistics reported alongside the diagnostics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Function definitions in the program (defined and extern).
    pub functions: usize,
    /// Registered checkers.
    pub checkers: usize,
    /// Query reads served from the context's memo table in this run. The
    /// counts are the context's query traffic between the start and the
    /// end of the run, so runs of one context that overlap (concurrent
    /// daemon requests) may add to each other's counts.
    pub cache_hits: u64,
    /// Queries computed in this run (served by neither the memo table nor
    /// the persist layer).
    pub cache_misses: u64,
    /// Durable query reads served from the cross-process persist layer in
    /// this run.
    pub persist_hits: u64,
    /// Durable query reads that consulted the persist layer and missed
    /// (0 when no persist layer is attached).
    pub persist_misses: u64,
    /// Persist-layer entries dropped by compaction over the layer's
    /// lifetime (0 when no persist layer is attached). Surfaced so fleet
    /// operators can see GC working without attaching a debugger.
    pub persist_pruned: u64,
    /// Persist-layer flushes that failed with an I/O error in this run
    /// (0 when no persist layer is attached). A non-zero value means this
    /// run's results did not all become durable — the analysis itself is
    /// unaffected, but a later cold process will recompute.
    pub persist_flush_errors: u64,
    /// Whether the analysis context itself was reused from a previous run
    /// of an identical program.
    pub ctx_reused: bool,
    /// Points-to constraints generated from syntax (before indirect-call
    /// resolution) at the scheduling sensitivity.
    pub pointsto_initial_constraints: usize,
    /// Total points-to constraints solved, including indirect-call
    /// bindings, at the scheduling sensitivity.
    pub pointsto_constraints: usize,
    /// Per-function points-to constraint batches served from the shared
    /// constraint cache when this context's points-to was first solved.
    pub pointsto_batches_reused: usize,
    /// Per-function points-to constraint batches generated fresh.
    pub pointsto_batches_generated: usize,
    /// How the scheduling points-to fixpoint was computed: `"cold"`,
    /// `"incremental-repropagate"`, or `"reused"` when every constraint
    /// batch equaled those of a live solve and the result shares it (empty
    /// when the run was served entirely from the persist layer and never
    /// solved).
    pub pointsto_solve_mode: String,
}

impl EngineStats {
    /// Serializes to the stable JSON object used by reports and the daemon
    /// protocol.
    pub fn to_value(&self) -> Value {
        let mut stats = Map::new();
        stats.insert("functions".into(), Value::from(self.functions));
        stats.insert("checkers".into(), Value::from(self.checkers));
        stats.insert("cache_hits".into(), Value::from(self.cache_hits));
        stats.insert("cache_misses".into(), Value::from(self.cache_misses));
        stats.insert("persist_hits".into(), Value::from(self.persist_hits));
        stats.insert("persist_misses".into(), Value::from(self.persist_misses));
        stats.insert("persist_pruned".into(), Value::from(self.persist_pruned));
        stats.insert(
            "persist_flush_errors".into(),
            Value::from(self.persist_flush_errors),
        );
        stats.insert("ctx_reused".into(), Value::from(self.ctx_reused));
        stats.insert(
            "pointsto_initial_constraints".into(),
            Value::from(self.pointsto_initial_constraints),
        );
        stats.insert(
            "pointsto_constraints".into(),
            Value::from(self.pointsto_constraints),
        );
        stats.insert(
            "pointsto_batches_reused".into(),
            Value::from(self.pointsto_batches_reused),
        );
        stats.insert(
            "pointsto_batches_generated".into(),
            Value::from(self.pointsto_batches_generated),
        );
        stats.insert(
            "pointsto_solve_mode".into(),
            Value::from(self.pointsto_solve_mode.clone()),
        );
        Value::Object(stats)
    }

    /// Decodes stats from their [`EngineStats::to_value`] form; `None`
    /// rejects malformed input. Keys this version no longer writes (the
    /// solver-thread, delta-repair and provenance counters, and the SCC and
    /// level counts) are ignored.
    pub fn from_value(v: &Value) -> Option<EngineStats> {
        let count = |key: &str| v.get(key).and_then(Value::as_u64);
        let size = |key: &str| count(key).map(|n| n as usize);
        Some(EngineStats {
            functions: size("functions")?,
            checkers: size("checkers")?,
            cache_hits: count("cache_hits")?,
            cache_misses: count("cache_misses")?,
            persist_hits: count("persist_hits")?,
            persist_misses: count("persist_misses")?,
            // Absent in pre-oracle encodings; default rather than reject.
            persist_pruned: count("persist_pruned").unwrap_or(0),
            // Absent in pre-telemetry encodings; default rather than reject.
            persist_flush_errors: count("persist_flush_errors").unwrap_or(0),
            ctx_reused: v.get("ctx_reused")?.as_bool()?,
            pointsto_initial_constraints: size("pointsto_initial_constraints")?,
            pointsto_constraints: size("pointsto_constraints")?,
            pointsto_batches_reused: size("pointsto_batches_reused")?,
            pointsto_batches_generated: size("pointsto_batches_generated")?,
            // Absent in pre-solve-mode encodings; default rather than reject.
            pointsto_solve_mode: v
                .get("pointsto_solve_mode")
                .and_then(Value::as_str)
                .unwrap_or("cold")
                .to_string(),
        })
    }

    /// Fraction of this run's query reads served from the memo table
    /// (persist-served reads count toward the denominator only).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses + self.persist_hits;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of this run's persist-layer reads that were served from
    /// disk.
    pub fn persist_hit_rate(&self) -> f64 {
        let total = self.persist_hits + self.persist_misses;
        if total == 0 {
            0.0
        } else {
            self.persist_hits as f64 / total as f64
        }
    }
}

/// The merged result of one engine run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// All diagnostics in stable content order.
    pub diagnostics: Vec<Diagnostic>,
    /// Run statistics.
    pub stats: EngineStats,
}

impl Report {
    /// Builds a report from unordered diagnostics, establishing the stable
    /// order.
    pub fn new(mut diagnostics: Vec<Diagnostic>, stats: EngineStats) -> Report {
        diagnostics.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        Report { diagnostics, stats }
    }

    /// Diagnostics from one checker.
    pub fn by_checker(&self, checker: &str) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.checker == checker)
            .collect()
    }

    /// Diagnostic counts per severity.
    pub fn severity_counts(&self) -> BTreeMap<Severity, usize> {
        let mut out = BTreeMap::new();
        for d in &self.diagnostics {
            *out.entry(d.severity).or_insert(0) += 1;
        }
        out
    }

    /// The diagnostics as a JSON array (stable: content-ordered, sorted
    /// keys). This deliberately excludes the run statistics, so two runs
    /// that found the same things serialize identically regardless of
    /// cache temperature. The text is what `serde_json::to_string_pretty`
    /// prints for the array of [`Diagnostic::to_value`]s, written straight
    /// from the diagnostics without building that array.
    pub fn diagnostics_json(&self) -> String {
        let mut out = String::with_capacity(512 * self.diagnostics.len() + 2);
        write_diagnostics(&self.diagnostics, &mut out);
        out
    }

    /// Appends [`Report::diagnostics_json`]'s text to `out` (a frame
    /// buffer, say) without an intermediate string.
    pub fn write_diagnostics_json(&self, out: &mut Vec<u8>) {
        write_diagnostics(&self.diagnostics, out);
    }

    /// Full report as JSON: diagnostics plus run statistics.
    pub fn to_json(&self) -> String {
        let mut root = Map::new();
        root.insert(
            "diagnostics".into(),
            Value::Array(self.diagnostics.iter().map(|d| d.to_value()).collect()),
        );
        root.insert("stats".into(), self.stats.to_value());
        serde_json::to_string_pretty(&Value::Object(root)).expect("serializes")
    }

    /// A SARIF-style serialization (one run, one driver per checker rule).
    /// Stable for the same reasons as [`Report::diagnostics_json`].
    pub fn to_sarif(&self) -> String {
        let mut rules: BTreeMap<&str, ()> = BTreeMap::new();
        for d in &self.diagnostics {
            rules.insert(&d.code, ());
        }
        let rules: Vec<Value> = rules
            .keys()
            .map(|code| {
                let mut r = Map::new();
                r.insert("id".into(), Value::from(*code));
                Value::Object(r)
            })
            .collect();

        let results: Vec<Value> = self
            .diagnostics
            .iter()
            .map(|d| {
                let mut msg = Map::new();
                msg.insert("text".into(), Value::from(d.message.as_str()));
                let mut loc_l = Map::new();
                loc_l.insert("logicalName".into(), Value::from(d.function.as_str()));
                if let Some(span) = &d.span {
                    let mut region = Map::new();
                    region.insert("startLine".into(), Value::from(span.start.line));
                    region.insert("startColumn".into(), Value::from(span.start.col));
                    loc_l.insert("region".into(), Value::Object(region));
                }
                let mut loc = Map::new();
                loc.insert("logicalLocation".into(), Value::Object(loc_l));
                let mut r = Map::new();
                r.insert("ruleId".into(), Value::from(d.code.as_str()));
                r.insert("level".into(), Value::from(d.severity.sarif_level()));
                r.insert("message".into(), Value::Object(msg));
                r.insert("locations".into(), Value::Array(vec![Value::Object(loc)]));
                if !d.evidence.is_empty() {
                    let related: Vec<Value> = d
                        .evidence
                        .iter()
                        .map(|e| {
                            let mut msg = Map::new();
                            msg.insert(
                                "text".into(),
                                Value::from(format!("{}: {} — {}", e.kind, e.subject, e.detail)),
                            );
                            let mut loc_l = Map::new();
                            loc_l.insert("logicalName".into(), Value::from(e.subject.as_str()));
                            let mut rl = Map::new();
                            rl.insert("message".into(), Value::Object(msg));
                            rl.insert("logicalLocation".into(), Value::Object(loc_l));
                            Value::Object(rl)
                        })
                        .collect();
                    r.insert("relatedLocations".into(), Value::Array(related));
                }
                if let Some(hint) = &d.fix_hint {
                    let mut fix = Map::new();
                    fix.insert("text".into(), Value::from(hint.as_str()));
                    r.insert("fix".into(), Value::Object(fix));
                }
                Value::Object(r)
            })
            .collect();

        let mut driver = Map::new();
        driver.insert("name".into(), Value::from("ivy-engine"));
        driver.insert("rules".into(), Value::Array(rules));
        let mut tool = Map::new();
        tool.insert("driver".into(), Value::Object(driver));
        let mut run = Map::new();
        run.insert("tool".into(), Value::Object(tool));
        run.insert("results".into(), Value::Array(results));
        let mut root = Map::new();
        root.insert("version".into(), Value::from("2.1.0"));
        root.insert(
            "$schema".into(),
            Value::from("https://json.schemastore.org/sarif-2.1.0.json"),
        );
        root.insert("runs".into(), Value::Array(vec![Value::Object(run)]));
        serde_json::to_string_pretty(&Value::Object(root)).expect("serializes")
    }
}

/// Where the streaming serializer writes.
trait Sink {
    fn put(&mut self, s: &str);
}

impl Sink for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }
}

/// A newline and `depth` levels of two-space indentation.
fn pad(out: &mut impl Sink, depth: usize) {
    out.put("\n");
    for _ in 0..depth {
        out.put("  ");
    }
}

/// `s` as a JSON string literal, escaped as `serde_json` escapes it.
fn string(out: &mut impl Sink, s: &str) {
    out.put("\"");
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.put(&s[clean..i]);
        if escaped.is_empty() {
            out.put(&format!("\\u{:04x}", b));
        } else {
            out.put(escaped);
        }
        clean = i + 1;
    }
    out.put(&s[clean..]);
    out.put("\"");
}

/// One pretty-printed JSON object; fields must come in sorted key order.
struct Object {
    depth: usize,
    empty: bool,
}

impl Object {
    fn open(out: &mut impl Sink, depth: usize) -> Object {
        out.put("{");
        Object { depth, empty: true }
    }

    fn key(&mut self, out: &mut impl Sink, key: &str) {
        if !self.empty {
            out.put(",");
        }
        self.empty = false;
        pad(out, self.depth + 1);
        string(out, key);
        out.put(": ");
    }

    fn text(&mut self, out: &mut impl Sink, key: &str, value: &str) {
        self.key(out, key);
        string(out, value);
    }

    fn number(&mut self, out: &mut impl Sink, key: &str, mut value: u32) {
        self.key(out, key);
        let mut digits = [0u8; 10];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (value % 10) as u8;
            value /= 10;
            if value == 0 {
                break;
            }
        }
        out.put(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }

    fn close(self, out: &mut impl Sink) {
        if !self.empty {
            pad(out, self.depth);
        }
        out.put("}");
    }
}

/// A pretty-printed JSON array at `depth`, each element written by `item`.
fn array<T, S: Sink>(out: &mut S, depth: usize, items: &[T], mut item: impl FnMut(&mut S, &T)) {
    if items.is_empty() {
        out.put("[]");
        return;
    }
    out.put("[");
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.put(",");
        }
        pad(out, depth + 1);
        item(out, x);
    }
    pad(out, depth);
    out.put("]");
}

/// `diagnostics` as [`Report::diagnostics_json`] prints them: the keys of
/// [`Diagnostic::to_value`], [`Evidence::to_value`] and
/// [`span_to_value`](crate::persist::span_to_value) in sorted order.
fn write_diagnostics<S: Sink>(diagnostics: &[Diagnostic], out: &mut S) {
    array(out, 0, diagnostics, |out, d| {
        let mut o = Object::open(out, 1);
        o.text(out, "checker", &d.checker);
        o.text(out, "code", &d.code);
        if !d.evidence.is_empty() {
            o.key(out, "evidence");
            array(out, 2, &d.evidence, |out, e| {
                let mut o = Object::open(out, 3);
                o.text(out, "detail", &e.detail);
                o.text(out, "kind", &e.kind);
                o.text(out, "subject", &e.subject);
                o.close(out);
            });
        }
        if let Some(hint) = &d.fix_hint {
            o.text(out, "fix_hint", hint);
        }
        o.text(out, "function", &d.function);
        o.text(out, "message", &d.message);
        o.text(out, "severity", d.severity.name());
        if let Some(span) = &d.span {
            o.key(out, "span");
            let mut s = Object::open(out, 2);
            s.number(out, "col", span.start.col);
            s.number(out, "end_col", span.end.col);
            s.number(out, "end_line", span.end.line);
            s.number(out, "line", span.start.line);
            s.close(out);
        }
        o.close(out);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(function: &str, code: &str, msg: &str) -> Diagnostic {
        Diagnostic {
            checker: code.split('/').next().unwrap().to_string(),
            code: code.to_string(),
            function: function.to_string(),
            severity: Severity::Error,
            message: msg.to_string(),
            span: None,
            fix_hint: None,
            evidence: Vec::new(),
        }
    }

    #[test]
    fn report_order_is_input_order_independent() {
        let a = Report::new(
            vec![
                diag("f", "c/x", "m1"),
                diag("a", "c/y", "m2"),
                diag("a", "c/x", "m3"),
            ],
            EngineStats::default(),
        );
        let b = Report::new(
            vec![
                diag("a", "c/x", "m3"),
                diag("f", "c/x", "m1"),
                diag("a", "c/y", "m2"),
            ],
            EngineStats::default(),
        );
        assert_eq!(a.diagnostics, b.diagnostics);
        assert_eq!(a.diagnostics_json(), b.diagnostics_json());
    }

    #[test]
    fn diagnostic_value_roundtrip_is_exact() {
        use ivy_cmir::span::Pos;
        let mut d = diag("f", "deputy/type-error", "bad cast");
        d.severity = Severity::Warning;
        d.span = Some(Span::new(Pos::new(12, 5), Pos::new(12, 30)));
        d.fix_hint = Some("annotate the pointer".into());
        d.evidence = vec![
            Evidence::new("pts", "f::p", "may point to: global buf"),
            Evidence::new("indirect-targets", "f::ops->read", "ext2_read, pipe_read"),
        ];
        assert_eq!(Diagnostic::from_value(&d.to_value()).unwrap(), d);
        // Malformed evidence rejects the entry (recompute, don't drop).
        let mut v = d.to_value();
        if let Value::Object(m) = &mut v {
            m.insert("evidence".into(), Value::from("nope"));
        }
        assert!(Diagnostic::from_value(&v).is_none());
        // Spanless/hintless diagnostics roundtrip too.
        let bare = diag("g", "c/x", "m");
        assert_eq!(Diagnostic::from_value(&bare.to_value()).unwrap(), bare);
        // Malformed input is rejected, not mis-decoded.
        assert!(Diagnostic::from_value(&Value::from("nope")).is_none());
    }

    #[test]
    fn engine_stats_roundtrip_through_their_value_form() {
        let stats = EngineStats {
            functions: 12,
            checkers: 3,
            cache_hits: 30,
            cache_misses: 6,
            persist_hits: 2,
            persist_misses: 1,
            persist_pruned: 5,
            persist_flush_errors: 1,
            ctx_reused: true,
            pointsto_initial_constraints: 100,
            pointsto_constraints: 140,
            pointsto_batches_reused: 11,
            pointsto_batches_generated: 1,
            pointsto_solve_mode: "incremental-repropagate".into(),
        };
        assert_eq!(EngineStats::from_value(&stats.to_value()).unwrap(), stats);
        // An older encoding that still carries the solver-thread,
        // delta-repair and provenance counters decodes to the same stats.
        let mut older = stats.to_value();
        if let Value::Object(m) = &mut older {
            m.insert("pointsto_threads".into(), Value::from(4u64));
            m.insert("pointsto_delta_deleted".into(), Value::from(7u64));
            m.insert("pointsto_delta_rederived".into(), Value::from(19u64));
            m.insert("provenance_facts".into(), Value::from(321u64));
            m.insert("provenance_bytes".into(), Value::from(4096u64));
        }
        assert_eq!(EngineStats::from_value(&older).unwrap(), stats);
        assert!(EngineStats::from_value(&Value::from("nope")).is_none());
    }

    /// The streaming serializer prints exactly what pretty-printing the
    /// diagnostics' JSON values prints, escapes and all.
    #[test]
    fn streamed_diagnostics_match_the_value_printer() {
        use ivy_cmir::span::Pos;
        let mut full = diag("f\"q", "deputy/type-error", "a\\b\nc\td\r\u{1}é");
        full.span = Some(Span::new(Pos::new(12, 5), Pos::new(1_000_000, 30)));
        full.fix_hint = Some("hint".into());
        full.evidence = vec![
            Evidence::new("pts", "f::p", "may point to: global buf"),
            Evidence::new("indirect-targets", "f::ops->read", ""),
        ];
        for diagnostics in [Vec::new(), vec![full, diag("g", "c/x", "m")]] {
            let report = Report::new(diagnostics, EngineStats::default());
            let values = report
                .diagnostics
                .iter()
                .map(Diagnostic::to_value)
                .collect();
            let expected = serde_json::to_string_pretty(&Value::Array(values)).unwrap();
            assert_eq!(report.diagnostics_json(), expected);
            let mut bytes = b"prefix".to_vec();
            report.write_diagnostics_json(&mut bytes);
            assert_eq!(&bytes[6..], expected.as_bytes());
        }
    }

    #[test]
    fn serializations_parse_back() {
        let mut d = diag("f", "blockstop/atomic-call", "boom");
        d.evidence = vec![Evidence::new("atomic-path", "f", "f -> g -> kmalloc")];
        let r = Report::new(vec![d], EngineStats::default());
        assert!(serde_json::from_str(&r.diagnostics_json()).is_ok());
        assert!(serde_json::from_str(&r.to_json()).is_ok());
        let sarif: Value = serde_json::from_str(&r.to_sarif()).unwrap();
        assert_eq!(sarif.get("version").unwrap().as_str().unwrap(), "2.1.0");
        // Evidence rides along as SARIF relatedLocations.
        let related = sarif
            .get("runs")
            .and_then(|r| r.as_array()?.first()?.get("results"))
            .and_then(|r| r.as_array()?.first()?.get("relatedLocations"))
            .and_then(|r| r.as_array()?.first().cloned())
            .expect("evidence renders as relatedLocations");
        assert_eq!(
            related
                .get("message")
                .and_then(|m| m.get("text"))
                .and_then(Value::as_str)
                .unwrap(),
            "atomic-path: f — f -> g -> kmalloc"
        );
        assert_eq!(
            related
                .get("logicalLocation")
                .and_then(|l| l.get("logicalName"))
                .and_then(Value::as_str)
                .unwrap(),
            "f"
        );
    }
}
