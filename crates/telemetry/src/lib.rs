//! Zero-dependency in-process span tracing and metrics for the Ivy
//! workspace.
//!
//! Every subsystem (engine, points-to solver, daemon, VM, oracle, core
//! pipeline) records two kinds of telemetry through this crate:
//!
//! * **Spans** — cheap monotonic-clock intervals (`[start, start+dur)` in
//!   microseconds since a process-wide epoch) tagged with a static
//!   category like `"engine/query"` and a dynamic name. Spans are
//!   exportable as Chrome trace-event JSON ([`chrome_trace_json`]) so a
//!   recorded session opens directly in `about://tracing` or Perfetto.
//! * **Counters** — monotonically increasing integers with an optional
//!   single label, exportable as Prometheus-style text exposition
//!   ([`prometheus_text`]).
//!
//! Both feeds share one global, lock-sharded [`Recorder`]-style store.
//! Recording is gated behind two independent switches (spans and
//! counters); the **disabled fast path is a single relaxed atomic load**,
//! so instrumentation left in hot loops costs ~1 ns when telemetry is
//! off. The first gate check lazily consults the `IVY_TRACE` environment
//! variable: `IVY_TRACE=1` enables both feeds for the whole process.
//!
//! This crate deliberately has **no dependencies** — not even the
//! workspace's vendored serde shims — so every other crate can depend on
//! it without cycles. The Chrome-trace and Prometheus emitters are
//! hand-rolled writers producing spec-conformant output.

#![warn(missing_docs)]

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Enable gates
// ---------------------------------------------------------------------------

/// Gate states: the gate starts `UNINIT` and resolves to `ON`/`OFF` the
/// first time it is consulted (from `IVY_TRACE`) or explicitly set.
const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static SPAN_GATE: AtomicU8 = AtomicU8::new(UNINIT);
static COUNTER_GATE: AtomicU8 = AtomicU8::new(UNINIT);

/// Whether span recording is enabled. The hot path is one relaxed atomic
/// load; only the very first call per process may touch the environment.
#[inline]
pub fn spans_enabled() -> bool {
    match SPAN_GATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_gate_from_env(&SPAN_GATE),
    }
}

/// Whether counter recording is enabled. Same fast path as
/// [`spans_enabled`].
#[inline]
pub fn counters_enabled() -> bool {
    match COUNTER_GATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_gate_from_env(&COUNTER_GATE),
    }
}

#[cold]
fn init_gate_from_env(gate: &AtomicU8) -> bool {
    let on = matches!(
        std::env::var("IVY_TRACE").as_deref(),
        Ok("1") | Ok("true") | Ok("on")
    );
    let resolved = if on { ON } else { OFF };
    // An explicit enable()/disable() racing with us wins.
    let _ = gate.compare_exchange(UNINIT, resolved, Ordering::Relaxed, Ordering::Relaxed);
    gate.load(Ordering::Relaxed) == ON
}

/// Turn span recording on for the whole process.
pub fn enable_spans() {
    SPAN_GATE.store(ON, Ordering::Relaxed);
}

/// Turn span recording off. Already-recorded spans are retained.
pub fn disable_spans() {
    SPAN_GATE.store(OFF, Ordering::Relaxed);
}

/// Turn counter recording on for the whole process.
pub fn enable_counters() {
    COUNTER_GATE.store(ON, Ordering::Relaxed);
}

/// Turn counter recording off. Accumulated counts are retained.
pub fn disable_counters() {
    COUNTER_GATE.store(OFF, Ordering::Relaxed);
}

/// Enable both spans and counters (what `IVY_TRACE=1` does).
pub fn enable_all() {
    enable_spans();
    enable_counters();
}

/// Disable both spans and counters.
pub fn disable_all() {
    disable_spans();
    disable_counters();
}

// ---------------------------------------------------------------------------
// Recorder: lock-sharded span + counter store
// ---------------------------------------------------------------------------

const SHARD_COUNT: usize = 16;

/// Spans the recorder keeps, process-wide, between [`reset`]s; a runaway
/// traced loop degrades to dropping spans (counted) instead of exhausting
/// memory. One budget for the whole process, not one per shard: every
/// span of a thread lands in one shard, so a per-shard cap would stop a
/// single traced thread long before the process holds many spans.
const SPAN_BUDGET: u64 = 1 << 20;

#[derive(Default)]
struct Shard {
    spans: Vec<SpanRecord>,
    counters: BTreeMap<CounterKey, u64>,
}

struct Recorder {
    shards: Vec<Mutex<Shard>>,
    /// Spans offered since the last [`reset`]; the first [`SPAN_BUDGET`]
    /// are kept and the rest dropped.
    offered_spans: AtomicU64,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        shards: (0..SHARD_COUNT)
            .map(|_| Mutex::new(Shard::default()))
            .collect(),
        offered_spans: AtomicU64::new(0),
    })
}

fn lock_shard(index: usize) -> std::sync::MutexGuard<'static, Shard> {
    recorder().shards[index % SHARD_COUNT]
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Process-wide monotonic epoch; all span timestamps are microseconds
/// since the first telemetry event.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Number of spans discarded since the last [`reset`] because the
/// process had already kept its budget of 1 Mi spans.
pub fn dropped_spans() -> u64 {
    recorder()
        .offered_spans
        .load(Ordering::Relaxed)
        .saturating_sub(SPAN_BUDGET)
}

/// Clear all recorded spans and counters and restore the span budget
/// (gates are left as-is). Meant for tests and for an exporter that wants
/// per-run traces.
pub fn reset() {
    let rec = recorder();
    for shard in &rec.shards {
        let mut shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        shard.spans.clear();
        shard.counters.clear();
    }
    rec.offered_spans.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

thread_local! {
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
    static SPAN_DEPTH: Cell<u32> = const { Cell::new(0) };
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

fn current_tid() -> u64 {
    THREAD_ID.with(|cell| {
        let id = cell.get();
        if id != 0 {
            id
        } else {
            let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            cell.set(id);
            id
        }
    })
}

/// One completed span interval, as stored by the recorder and exported
/// to Chrome trace-event JSON.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static category, e.g. `"engine/query"` — the Chrome trace `cat`.
    pub cat: &'static str,
    /// Dynamic name, e.g. the query or function being computed.
    pub name: String,
    /// Telemetry-local thread id (small dense integers, not OS tids).
    pub tid: u64,
    /// Microseconds since the process telemetry epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Nesting depth on its thread at the time the span opened (0 = root).
    pub depth: u32,
}

struct ActiveSpan {
    cat: &'static str,
    name: Cow<'static, str>,
    start: Instant,
    start_us: u64,
    tid: u64,
    depth: u32,
}

/// RAII guard returned by [`span`]; records the interval when dropped.
#[must_use = "a span measures the interval until the guard drops"]
pub struct Span(Option<ActiveSpan>);

impl Span {
    /// Whether this guard will record anything on drop (i.e. spans were
    /// enabled when it was created).
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.0.take() {
            let dur_us = active.start.elapsed().as_micros() as u64;
            SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            let record = SpanRecord {
                cat: active.cat,
                name: active.name.into_owned(),
                tid: active.tid,
                start_us: active.start_us,
                dur_us,
                depth: active.depth,
            };
            if recorder().offered_spans.fetch_add(1, Ordering::Relaxed) < SPAN_BUDGET {
                lock_shard(active.tid as usize).spans.push(record);
            }
        }
    }
}

/// Open a span. When spans are disabled this is one atomic load and
/// returns an inert guard; when enabled, the interval from this call to
/// the guard's drop is recorded under `cat`/`name`.
#[inline]
pub fn span(cat: &'static str, name: impl Into<Cow<'static, str>>) -> Span {
    if !spans_enabled() {
        return Span(None);
    }
    span_slow(cat, name.into())
}

#[cold]
fn span_slow(cat: &'static str, name: Cow<'static, str>) -> Span {
    let ep = epoch();
    let start = Instant::now();
    let start_us = start.duration_since(ep).as_micros() as u64;
    let depth = SPAN_DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    Span(Some(ActiveSpan {
        cat,
        name,
        start,
        start_us,
        tid: current_tid(),
        depth,
    }))
}

/// Time a closure under a span; sugar for `let _g = span(..); f()`.
#[inline]
pub fn time<R>(cat: &'static str, name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> R) -> R {
    let _guard = span(cat, name);
    f()
}

/// Snapshot all recorded spans, sorted by start time (then thread, then
/// descending duration so parents precede their children).
pub fn spans_snapshot() -> Vec<SpanRecord> {
    let rec = recorder();
    let mut spans = Vec::new();
    for shard in &rec.shards {
        let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        spans.extend(shard.spans.iter().cloned());
    }
    spans.sort_by(|a, b| {
        (a.start_us, a.tid, std::cmp::Reverse(a.dur_us), &a.name).cmp(&(
            b.start_us,
            b.tid,
            std::cmp::Reverse(b.dur_us),
            &b.name,
        ))
    });
    spans
}

/// The time recorded under one span `cat`/`name`, summed over its spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans recorded.
    pub calls: u64,
    /// Their summed duration, in microseconds.
    pub total_us: u64,
    /// Their summed duration minus the time of the spans nested directly
    /// inside them on the same thread, in microseconds.
    pub self_us: u64,
}

/// Self time of every recorded span, by `(cat, name)`. Spans nest per
/// thread by their recorded depth: a span's parent is the latest span
/// opened before it on its thread at a smaller depth, and a span's self
/// time is its duration minus its children's durations (never below 0,
/// since durations are rounded to microseconds).
pub fn self_times() -> BTreeMap<(&'static str, String), SelfTime> {
    self_times_of(&spans_snapshot())
}

/// [`self_times`] over the given spans.
fn self_times_of(spans: &[SpanRecord]) -> BTreeMap<(&'static str, String), SelfTime> {
    let mut order: Vec<&SpanRecord> = spans.iter().collect();
    order.sort_by_key(|s| (s.tid, s.start_us, s.depth));
    let mut children_us = vec![0u64; order.len()];
    // Indices into `order` of the spans still open, outermost first.
    let mut open: Vec<usize> = Vec::new();
    for (i, span) in order.iter().enumerate() {
        while let Some(&top) = open.last() {
            if order[top].tid == span.tid && order[top].depth < span.depth {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            children_us[parent] += span.dur_us;
        }
        open.push(i);
    }
    let mut out: BTreeMap<(&'static str, String), SelfTime> = BTreeMap::new();
    for (span, children) in order.iter().zip(children_us) {
        let entry = out.entry((span.cat, span.name.clone())).or_default();
        entry.calls += 1;
        entry.total_us += span.dur_us;
        entry.self_us += span.dur_us.saturating_sub(children);
    }
    out
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Identity of a counter series: a metric name plus at most one
/// `key="value"` label (all current call sites need zero or one).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CounterKey {
    /// Metric name, e.g. `ivy_query_computed_total`.
    pub name: &'static str,
    /// Optional single label as `(key, value)`.
    pub label: Option<(&'static str, String)>,
}

fn counter_shard_index(name: &str) -> usize {
    // FNV-1a over the metric name: counters for the same series always
    // land in the same shard so increments merge without a reduce step.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash as usize
}

/// Add `delta` to the unlabeled counter `name` (no-op when counters are
/// disabled; the disabled path is one atomic load).
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !counters_enabled() || delta == 0 {
        return;
    }
    counter_record(name, None, delta);
}

/// Add `delta` to the counter `name{label_key="label_value"}`.
#[inline]
pub fn counter_labeled(name: &'static str, label_key: &'static str, label_value: &str, delta: u64) {
    if !counters_enabled() || delta == 0 {
        return;
    }
    counter_record(name, Some((label_key, label_value.to_string())), delta);
}

#[cold]
fn counter_record(name: &'static str, label: Option<(&'static str, String)>, delta: u64) {
    let mut shard = lock_shard(counter_shard_index(name));
    *shard
        .counters
        .entry(CounterKey { name, label })
        .or_insert(0) += delta;
}

/// Snapshot every counter series, merged across shards, sorted by key.
pub fn counters_snapshot() -> BTreeMap<CounterKey, u64> {
    let rec = recorder();
    let mut merged = BTreeMap::new();
    for shard in &rec.shards {
        let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        for (key, value) in &shard.counters {
            *merged.entry(key.clone()).or_insert(0) += value;
        }
    }
    merged
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Incremental Prometheus text-exposition writer. Callers feed series in
/// name-sorted order; a `# TYPE` header is emitted once per metric name.
#[derive(Default)]
pub struct PromText {
    out: String,
    last_name: String,
}

impl PromText {
    /// Start an empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, kind: &str) {
        if self.last_name != name {
            let _ = writeln!(self.out, "# TYPE {name} {kind}");
            self.last_name = name.to_string();
        }
    }

    /// Append one counter sample.
    pub fn counter(&mut self, name: &str, label: Option<(&str, &str)>, value: u64) {
        self.header(name, "counter");
        match label {
            Some((k, v)) => {
                let _ = writeln!(self.out, "{name}{{{k}=\"{}\"}} {value}", escape_label(v));
            }
            None => {
                let _ = writeln!(self.out, "{name} {value}");
            }
        }
    }

    /// Append one gauge sample.
    pub fn gauge(&mut self, name: &str, label: Option<(&str, &str)>, value: f64) {
        self.header(name, "gauge");
        match label {
            Some((k, v)) => {
                let _ = writeln!(self.out, "{name}{{{k}=\"{}\"}} {value}", escape_label(v));
            }
            None => {
                let _ = writeln!(self.out, "{name} {value}");
            }
        }
    }

    /// Append one fixed-bucket histogram: a cumulative `_bucket` sample per
    /// upper bound, the implicit `+Inf` bucket (equal to `count`), then
    /// `_sum` and `_count`. `cumulative[i]` is the number of observations
    /// at or below `bounds[i]` — already cumulative, and never larger than
    /// `count`.
    pub fn histogram(
        &mut self,
        name: &str,
        label: Option<(&str, &str)>,
        bounds: &[u64],
        cumulative: &[u64],
        sum: u64,
        count: u64,
    ) {
        self.header(name, "histogram");
        let extra = match label {
            Some((k, v)) => format!("{k}=\"{}\",", escape_label(v)),
            None => String::new(),
        };
        for (le, cum) in bounds.iter().zip(cumulative) {
            let _ = writeln!(self.out, "{name}_bucket{{{extra}le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(self.out, "{name}_bucket{{{extra}le=\"+Inf\"}} {count}");
        match label {
            Some((k, v)) => {
                let v = escape_label(v);
                let _ = writeln!(self.out, "{name}_sum{{{k}=\"{v}\"}} {sum}");
                let _ = writeln!(self.out, "{name}_count{{{k}=\"{v}\"}} {count}");
            }
            None => {
                let _ = writeln!(self.out, "{name}_sum {sum}");
                let _ = writeln!(self.out, "{name}_count {count}");
            }
        }
    }

    /// Finish and return the exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Render every recorded counter as Prometheus text exposition.
pub fn prometheus_text() -> String {
    let mut prom = PromText::new();
    for (key, value) in counters_snapshot() {
        let label = key.label.as_ref().map(|(k, v)| (*k, v.as_str()));
        prom.counter(key.name, label, value);
    }
    prom.finish()
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON export
// ---------------------------------------------------------------------------

fn escape_json(value: &str, out: &mut String) {
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Render all recorded spans as a Chrome trace-event JSON document
/// (`{"traceEvents": [...]}` of `ph:"X"` complete events, microsecond
/// timestamps) — loadable directly in `about://tracing` or Perfetto.
pub fn chrome_trace_json() -> String {
    let spans = spans_snapshot();
    let mut out = String::with_capacity(64 + spans.len() * 112);
    out.push_str("{\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json(&span.name, &mut out);
        out.push_str("\",\"cat\":\"");
        escape_json(span.cat, &mut out);
        let _ = write!(
            out,
            "\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"depth\":{}}}}}",
            span.tid, span.start_us, span.dur_us, span.depth
        );
    }
    out.push_str("]}");
    out
}

/// Write [`chrome_trace_json`] to `path`.
pub fn write_chrome_trace(path: &Path) -> io::Result<()> {
    std::fs::write(path, chrome_trace_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Telemetry state is process-global; serialize the tests that touch
    /// gates and the recorder.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_mode_records_nothing() {
        let _g = guard();
        disable_all();
        reset();
        {
            let _s = span("test/cat", "noop");
            counter("test_noop_total", 3);
        }
        assert!(spans_snapshot().is_empty());
        assert!(counters_snapshot().is_empty());
    }

    #[test]
    fn spans_nest_and_export() {
        let _g = guard();
        disable_all();
        reset();
        enable_spans();
        {
            let _outer = span("test/outer", "parent");
            let _inner = span("test/inner", "child");
        }
        disable_all();
        let spans = spans_snapshot();
        assert_eq!(spans.len(), 2);
        let parent = spans.iter().find(|s| s.name == "parent").expect("parent");
        let child = spans.iter().find(|s| s.name == "child").expect("child");
        assert_eq!(parent.depth, 0);
        assert_eq!(child.depth, 1);
        assert!(child.start_us >= parent.start_us);
        assert!(child.start_us + child.dur_us <= parent.start_us + parent.dur_us);
        let json = chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"cat\":\"test/outer\""));
    }

    #[test]
    fn counters_merge_and_expose() {
        let _g = guard();
        disable_all();
        reset();
        enable_counters();
        counter("test_plain_total", 2);
        counter("test_plain_total", 3);
        counter_labeled("test_labeled_total", "verb", "analyze", 7);
        counter_labeled("test_labeled_total", "verb", "stats", 1);
        disable_all();
        let text = prometheus_text();
        assert!(text.contains("# TYPE test_plain_total counter"));
        assert!(text.contains("test_plain_total 5"));
        assert!(text.contains("test_labeled_total{verb=\"analyze\"} 7"));
        // One TYPE header per metric name even with two label values.
        assert_eq!(text.matches("# TYPE test_labeled_total").count(), 1);
    }

    #[test]
    fn one_thread_keeps_spans_up_to_the_process_budget() {
        let _g = guard();
        disable_all();
        reset();
        enable_spans();
        // Every span of one thread lands in one shard: far more than a
        // shard's share of the budget is kept.
        const KEPT: u64 = 100_000;
        for _ in 0..KEPT {
            let _s = span("test/budget", "kept");
        }
        assert_eq!(dropped_spans(), 0);
        assert_eq!(spans_snapshot().len() as u64, KEPT);
        // Spend the budget up to its last 5 spans, then offer 8: the 3
        // past the budget are the only drops.
        recorder()
            .offered_spans
            .store(SPAN_BUDGET - 5, Ordering::Relaxed);
        for _ in 0..8 {
            let _s = span("test/budget", "edge");
        }
        disable_all();
        assert_eq!(dropped_spans(), 3);
        assert_eq!(spans_snapshot().len() as u64, KEPT + 5);
        reset();
        assert_eq!(dropped_spans(), 0, "reset restores the budget");
        assert!(spans_snapshot().is_empty());
    }

    #[test]
    fn self_times_subtract_direct_children_per_thread() {
        let span = |tid: u64, name: &str, start_us: u64, dur_us: u64, depth: u32| SpanRecord {
            cat: "test/self",
            name: name.to_string(),
            tid,
            start_us,
            dur_us,
            depth,
        };
        let spans = [
            // Thread 1: `a` holds `b` (which holds `c`), then `b` again.
            span(1, "a", 0, 100, 0),
            span(1, "b", 10, 30, 1),
            span(1, "c", 15, 10, 2),
            span(1, "b", 50, 10, 1),
            // Thread 2 overlaps thread 1 in time but nests on its own: a
            // child as long as its parent, listed first.
            span(2, "b", 5, 30, 1),
            span(2, "a", 5, 30, 0),
            // A second root on thread 1 after the first closed.
            span(1, "c", 200, 7, 0),
        ];
        let times = self_times_of(&spans);
        let get = |name: &str| times[&("test/self", name.to_string())];
        assert_eq!(
            get("a"),
            SelfTime {
                calls: 2,
                total_us: 130,
                self_us: 60
            }
        );
        assert_eq!(
            get("b"),
            SelfTime {
                calls: 3,
                total_us: 70,
                self_us: 60
            }
        );
        assert_eq!(
            get("c"),
            SelfTime {
                calls: 2,
                total_us: 17,
                self_us: 17
            }
        );
    }

    #[test]
    fn json_escaping_is_sound() {
        let mut out = String::new();
        escape_json("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
        assert_eq!(escape_label("a\"b\\c"), "a\\\"b\\\\c");
    }
}
