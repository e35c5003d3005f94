//! Integration tests for the telemetry layer as the engine actually uses
//! it: spans nest correctly across engine layers, disabled mode records
//! nothing and stays within its overhead budget on the warm path, and the
//! Chrome trace-event export round-trips through a JSON parser.

use ivy::core::experiments::default_engine;
use ivy::kernelgen::{KernelBuild, KernelConfig};
use ivy::telemetry;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Telemetry state is process-global and the test binary is threaded:
/// every test takes this lock, and restores the disabled default on exit.
fn telemetry_guard() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Restores the disabled-and-empty default even when a test panics.
struct Restore;
impl Drop for Restore {
    fn drop(&mut self) {
        telemetry::disable_all();
        telemetry::reset();
    }
}

#[test]
fn engine_spans_nest_across_layers() {
    let _g = telemetry_guard();
    let _restore = Restore;
    telemetry::disable_all();
    telemetry::reset();
    telemetry::enable_all();

    let build = KernelBuild::generate(&KernelConfig::small());
    default_engine(0).analyze(&build.program);
    let spans = telemetry::spans_snapshot();

    // Every layer shows up: the engine roof, the per-level waves, the
    // checker leaves, and the points-to frontend and solver phases
    // underneath.
    for cat in [
        "engine/analyze",
        "engine/wave",
        "engine/checker",
        "pointsto/intern",
        "pointsto/generate",
        "pointsto/bind",
        "pointsto/seed",
        "pointsto/propagate",
    ] {
        assert!(
            spans.iter().any(|s| s.cat == cat),
            "no {cat} span recorded; cats: {:?}",
            spans
                .iter()
                .map(|s| s.cat)
                .collect::<std::collections::BTreeSet<_>>()
        );
    }

    // The frontend phases are children of the solve's intern span: one
    // generate and one bind span inside each intern span, on its thread.
    for intern in spans.iter().filter(|s| s.cat == "pointsto/intern") {
        for cat in ["pointsto/generate", "pointsto/bind"] {
            let children = spans
                .iter()
                .filter(|s| {
                    s.cat == cat
                        && s.tid == intern.tid
                        && s.depth > intern.depth
                        && s.start_us >= intern.start_us
                        && s.start_us + s.dur_us <= intern.start_us + intern.dur_us + 1
                })
                .count();
            assert_eq!(children, 1, "{cat} spans inside one pointsto/intern span");
        }
    }

    // Nesting: each wave span sits strictly inside the analyze span on the
    // same thread, one level deeper.
    let analyze = spans
        .iter()
        .find(|s| s.cat == "engine/analyze")
        .expect("analyze span");
    let wave = spans
        .iter()
        .find(|s| s.cat == "engine/wave" && s.tid == analyze.tid)
        .expect("wave span on the analyze thread");
    assert!(wave.depth > analyze.depth, "waves nest under analyze");
    assert!(wave.start_us >= analyze.start_us);
    assert!(wave.start_us + wave.dur_us <= analyze.start_us + analyze.dur_us);

    // Attribution: the waves run on the calling thread, so every checker
    // span carries the analyze span's thread and lies inside a wave span
    // on that thread. A per-layer self-time rollup over one thread's spans
    // is then exact. Start and duration are truncated to whole
    // microseconds separately, so an end may read 1 µs late.
    let waves: Vec<_> = spans
        .iter()
        .filter(|s| s.cat == "engine/wave" && s.tid == analyze.tid)
        .collect();
    for checker in spans.iter().filter(|s| s.cat == "engine/checker") {
        assert_eq!(
            checker.tid, analyze.tid,
            "checker span {} ran off the analyze thread",
            checker.name
        );
        assert!(
            waves.iter().any(|w| w.depth < checker.depth
                && w.start_us <= checker.start_us
                && checker.start_us + checker.dur_us <= w.start_us + w.dur_us + 1),
            "checker span {} lies inside no wave span",
            checker.name
        );
    }
}

#[test]
fn disabled_mode_records_nothing_and_meets_the_overhead_budget() {
    let _g = telemetry_guard();
    let _restore = Restore;
    telemetry::disable_all();
    telemetry::reset();

    // A full cold+warm engine pass with telemetry disabled leaves the
    // recorder byte-empty: no spans, no counters, no drops.
    let build = KernelBuild::generate(&KernelConfig::small());
    let engine = default_engine(0);
    engine.analyze(&build.program);
    engine.analyze(&build.program);
    assert!(telemetry::spans_snapshot().is_empty());
    assert!(telemetry::counters_snapshot().is_empty());
    assert_eq!(telemetry::dropped_spans(), 0);

    // Overhead budget on the warm path (the table8 methodology): count the
    // events one fully-enabled warm run records, price each at the measured
    // disabled-gate cost, and compare against the disabled warm wall time.
    let warm_seconds = {
        let start = Instant::now();
        engine.analyze(&build.program);
        start.elapsed().as_secs_f64()
    };
    telemetry::enable_all();
    engine.analyze(&build.program);
    let events = 2 * (telemetry::spans_snapshot().len() as u64 + telemetry::dropped_spans())
        + telemetry::counters_snapshot().len() as u64;
    telemetry::disable_all();
    telemetry::reset();
    assert!(events > 0, "the enabled run must have recorded something");

    const CALLS: u64 = 1_000_000;
    let start = Instant::now();
    for _ in 0..CALLS {
        let span = telemetry::span("test/gate", "disabled");
        std::hint::black_box(&span);
        telemetry::counter("ivy_test_gate_total", 1);
    }
    // Each iteration checks the gate twice: once for the span, once for
    // the counter.
    let gate_ns = start.elapsed().as_nanos() as f64 / (2 * CALLS) as f64;

    let overhead_pct = (events as f64 * gate_ns) / (warm_seconds * 1e9) * 100.0;
    assert!(
        overhead_pct < 2.0,
        "disabled telemetry costs {overhead_pct:.4}% of the warm path \
         ({events} events x {gate_ns:.2} ns over {warm_seconds:.6} s)"
    );
}

#[test]
fn span_cap_overflow_counts_drops_without_corrupting_retained_spans() {
    let _g = telemetry_guard();
    let _restore = Restore;
    telemetry::disable_all();
    telemetry::reset();
    telemetry::enable_spans();

    // One thread always lands in one recorder shard, so a single runaway
    // traced loop overflows that shard's cap deterministically. A sentinel
    // span recorded first must come through the overflow untouched.
    {
        let _sentinel = telemetry::span("test/sentinel", "first");
    }
    const CAP: u64 = 1 << 16; // SPAN_CAP_PER_SHARD
    const EXTRA: u64 = 100;
    for i in 0..(CAP - 1 + EXTRA) {
        let _s = telemetry::span("test/flood", format!("s{i}"));
    }

    // Every span past the cap was dropped and counted — no more, no fewer.
    assert_eq!(telemetry::dropped_spans(), EXTRA);
    let spans = telemetry::spans_snapshot();
    assert_eq!(spans.len() as u64, CAP, "shard retains exactly its cap");

    // The retained records are intact: the sentinel survived, and the
    // flood spans that made it in are exactly the first CAP-1 (overflow
    // dropped the tail, never overwrote the body). Snapshot order ties on
    // equal-microsecond timestamps, so check membership, not positions.
    assert_eq!(
        spans.iter().filter(|s| s.cat == "test/sentinel").count(),
        1,
        "the sentinel span survived the overflow"
    );
    let flood: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.cat == "test/flood")
        .map(|s| s.name[1..].parse().expect("flood span name"))
        .collect();
    assert_eq!(flood.len() as u64, CAP - 1, "no flood span was duplicated");
    assert_eq!(flood.first(), Some(&0));
    assert_eq!(
        flood.last(),
        Some(&(CAP - 2)),
        "exactly the tail was dropped"
    );

    // A fresh span after the overflow is still dropped (the shard stays
    // full) and keeps counting, rather than evicting or panicking.
    {
        let _late = telemetry::span("test/late", "after-overflow");
    }
    assert_eq!(telemetry::dropped_spans(), EXTRA + 1);
    assert_eq!(telemetry::spans_snapshot().len() as u64, CAP);
}

#[test]
fn chrome_trace_export_round_trips_through_serde_json() {
    let _g = telemetry_guard();
    let _restore = Restore;
    telemetry::disable_all();
    telemetry::reset();
    telemetry::enable_spans();

    {
        let _outer = telemetry::span("test/outer", "parent \"quoted\" \\ name");
        let _inner = telemetry::span("test/inner", "child");
    }
    let json = telemetry::chrome_trace_json();
    let value: serde_json::Value = serde_json::from_str(&json)
        .unwrap_or_else(|e| panic!("chrome trace is not valid JSON ({e}): {json}"));

    let events = value
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("traceEvents array");
    assert_eq!(events.len(), 2, "both spans exported: {json}");
    for event in events {
        // Complete-event records with every field Perfetto needs.
        assert_eq!(
            event.get("ph").and_then(serde_json::Value::as_str),
            Some("X")
        );
        for key in ["name", "cat", "pid", "tid", "ts", "dur"] {
            assert!(event.get(key).is_some(), "{key} missing from {event:?}");
        }
    }
    // The escaped name survived the round trip verbatim.
    assert!(events.iter().any(|e| {
        e.get("name").and_then(serde_json::Value::as_str) == Some("parent \"quoted\" \\ name")
    }));
    // Inner closed before outer, so it is exported first and one level deep.
    let inner = events
        .iter()
        .find(|e| e.get("cat").and_then(serde_json::Value::as_str) == Some("test/inner"))
        .expect("inner span present");
    assert_eq!(
        inner
            .get("args")
            .and_then(|a| a.get("depth"))
            .and_then(serde_json::Value::as_u64),
        Some(1)
    );
}

#[test]
fn apply_edit_hashes_the_edited_program_once() {
    let _g = telemetry_guard();
    let _restore = Restore;
    telemetry::disable_all();
    telemetry::reset();

    let program = KernelBuild::generate(&KernelConfig::small()).program;
    let engine = default_engine(0);
    engine.analyze(&program);
    let (base, _) = engine.context_for(&program);
    let mut edited = program.clone();
    let body = edited
        .function_mut("watchdog_tick")
        .and_then(|f| f.body.as_mut())
        .expect("corpus defines watchdog_tick");
    let first = body.stmts[0].clone();
    body.stmts.insert(0, first);

    telemetry::enable_spans();
    let (_, stats) = engine.apply_edit(&base, &edited);
    let spans = telemetry::spans_snapshot();
    assert_eq!(stats.changed_functions, ["watchdog_tick"]);

    // One identity pass over the edited program, none over the base, and
    // one span per later phase of the edit.
    let phase = |name: &str| {
        spans
            .iter()
            .filter(|s| s.cat == "engine/edit" && s.name == name)
            .count()
    };
    assert_eq!(phase("identity"), 1, "the edited program is hashed once");
    for name in ["walk", "rekey", "carry"] {
        assert_eq!(phase(name), 1, "one {name} span per edit");
    }
}

#[test]
fn a_full_context_store_records_one_evict_span_per_eviction() {
    let _g = telemetry_guard();
    let _restore = Restore;
    telemetry::disable_all();
    telemetry::reset();

    let store = std::sync::Arc::new(ivy::engine::CtxStore::with_capacity(2));
    let engine = ivy::engine::Engine::new().with_ctx_store(std::sync::Arc::clone(&store));
    let programs: Vec<_> = (0..3)
        .map(|i| ivy::cmir::parser::parse_program(&format!("fn f{i}() {{ }}")).unwrap())
        .collect();
    telemetry::enable_spans();
    for program in &programs {
        engine.context_for(program);
    }
    let spans = telemetry::spans_snapshot();
    let evicts = spans
        .iter()
        .filter(|s| s.cat == "engine/ctx" && s.name == "evict")
        .count();
    assert_eq!(evicts, 1, "three contexts in a capacity-2 store evict once");
    assert_eq!(store.evictions(), 1);
    assert_eq!(store.len(), 2);
}
