//! Bench for the analysis engine: cold, warm and warm-process (persist)
//! analyze over a `KernelConfig` sweep, with a machine-readable JSON
//! summary for the bench trajectory — plus the telemetry disabled-mode
//! overhead measurement on the warm path.

use criterion::{criterion_group, criterion_main, Criterion};
use ivy_bench::summary::Summary;
use ivy_core::experiments::default_engine;
use ivy_engine::PersistLayer;
use ivy_kernelgen::{KernelBuild, KernelConfig};
use serde_json::{Map, Value};
use std::sync::Arc;
use std::time::Instant;

fn median_secs(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn time_runs(mut run: impl FnMut(), samples: usize) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median_secs(times)
}

/// Estimated telemetry overhead on a warm analyze with recording
/// *disabled* (the default): events-per-run counted on one fully-enabled
/// warm run, times the measured per-call cost of the disabled gate (one
/// relaxed atomic load), as a fraction of the warm wall time.
fn telemetry_disabled_overhead_pct(
    engine: &ivy_engine::Engine,
    program: &ivy_cmir::ast::Program,
    warm_seconds: f64,
) -> (u64, f64, f64) {
    // Count events a warm run records when everything is on. Each span is
    // one gate check at open; counter sites roughly pair with span sites,
    // so double the span count bounds the disabled-gate checks per run.
    ivy_telemetry::reset();
    ivy_telemetry::enable_all();
    engine.analyze(program);
    let events = 2
        * (ivy_telemetry::spans_snapshot().len() as u64 + ivy_telemetry::dropped_spans())
        + ivy_telemetry::counters_snapshot().len() as u64;
    ivy_telemetry::disable_all();
    ivy_telemetry::reset();

    // Measure the disabled gate itself.
    const CALLS: u64 = 1_000_000;
    let start = Instant::now();
    for _ in 0..CALLS {
        let span = ivy_telemetry::span("bench/gate", "disabled");
        std::hint::black_box(&span);
        ivy_telemetry::counter("ivy_bench_gate_total", 1);
    }
    // Each iteration checked the gate twice (span + counter).
    let gate_ns = start.elapsed().as_nanos() as f64 / (2 * CALLS) as f64;

    let overhead_pct = (events as f64 * gate_ns) / (warm_seconds * 1e9) * 100.0;
    (events, gate_ns, overhead_pct)
}

fn bench_engine_scaling(c: &mut Criterion) {
    let sweep = [
        ("small", KernelConfig::small()),
        ("paper", KernelConfig::paper()),
    ];

    let mut summary = Summary::new("table8_engine_scaling");
    let mut cfg = Map::new();
    cfg.insert("kernels".into(), Value::from("small,paper"));
    summary.config(Value::Object(cfg));
    println!("\n==== Table 8: engine scaling (kernel size x cache temperature) ====");
    println!(
        "{:<8} {:>12} {:>12} {:>9} {:>10}",
        "kernel", "cold (s)", "warm (s)", "speedup", "warm hits"
    );
    for (name, config) in &sweep {
        let build = KernelBuild::generate(config);
        let cold = time_runs(
            || {
                default_engine(0).analyze(&build.program);
            },
            3,
        );
        let engine = default_engine(0);
        engine.analyze(&build.program); // prime the cache
        let warm_report = engine.analyze(&build.program);
        let warm = time_runs(
            || {
                engine.analyze(&build.program);
            },
            3,
        );
        println!(
            "{:<8} {:>12.4} {:>12.4} {:>8.1}x {:>9.1}%",
            name,
            cold,
            warm,
            cold / warm.max(1e-9),
            warm_report.stats.hit_rate() * 100.0
        );
        let mut row = Map::new();
        row.insert("kernel".into(), Value::from(*name));
        row.insert("cold_seconds".into(), Value::from(cold));
        row.insert("warm_seconds".into(), Value::from(warm));
        row.insert(
            "warm_hit_rate".into(),
            Value::from(warm_report.stats.hit_rate()),
        );
        row.insert("functions".into(), Value::from(warm_report.stats.functions));
        summary.push_row(row);
        if *name == "paper" {
            summary.headline("paper_cold_seconds", cold);
            summary.headline("paper_warm_seconds", warm);
            summary.headline("paper_warm_speedup", cold / warm.max(1e-9));
        }
        // Telemetry disabled-mode overhead on the warm path, measured on
        // the small kernel's warm engine (the acceptance gate: must stay
        // well under 2%).
        if *name == "small" {
            let (events, gate_ns, overhead_pct) =
                telemetry_disabled_overhead_pct(&engine, &build.program, warm);
            println!(
                "telemetry disabled-mode overhead: {events} events x {gate_ns:.2} ns gate \
                 / {warm:.4} s warm = {overhead_pct:.4}%"
            );
            let mut row = Map::new();
            row.insert("kernel".into(), Value::from(*name));
            row.insert("mode".into(), Value::from("telemetry_disabled_overhead"));
            row.insert("telemetry_events_per_warm_run".into(), Value::from(events));
            row.insert("disabled_gate_ns".into(), Value::from(gate_ns));
            row.insert("warm_seconds".into(), Value::from(warm));
            row.insert("overhead_pct".into(), Value::from(overhead_pct));
            summary.push_row(row);
            summary.headline("telemetry_disabled_overhead_pct", overhead_pct);
            assert!(
                overhead_pct < 2.0,
                "telemetry disabled-mode overhead {overhead_pct:.4}% exceeds the 2% budget"
            );
        }
    }
    // Warm-*process* rows: a fresh engine with empty in-memory caches,
    // pointed at a persist directory a previous "process" populated. This
    // is the cross-process warm start (CI runs, fleet workers): the warm
    // engine reloads every durable checker report from disk and never
    // solves points-to.
    println!("\n---- warm process (persistent cross-process cache) ----");
    println!(
        "{:<8} {:>12} {:>14} {:>9} {:>13}",
        "kernel", "cold (s)", "warm-proc (s)", "speedup", "persist hits"
    );
    for (name, config) in &sweep {
        let build = KernelBuild::generate(config);
        let dir =
            std::env::temp_dir().join(format!("ivy-bench-persist-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // "Process A" fills the cache (and is itself the cold timing).
        let cold_start = Instant::now();
        default_engine(0)
            .with_persist(Arc::new(PersistLayer::open(&dir).expect("persist dir")))
            .analyze(&build.program);
        let cold = cold_start.elapsed().as_secs_f64();
        // "Process B equivalents": fresh engine + freshly opened layer.
        let mut last_stats = None;
        let warm = time_runs(
            || {
                let engine = default_engine(0)
                    .with_persist(Arc::new(PersistLayer::open(&dir).expect("persist dir")));
                last_stats = Some(engine.analyze(&build.program).stats);
            },
            3,
        );
        let stats = last_stats.expect("ran");
        println!(
            "{:<8} {:>12.4} {:>14.4} {:>8.1}x {:>12.1}%",
            name,
            cold,
            warm,
            cold / warm.max(1e-9),
            stats.persist_hit_rate() * 100.0
        );
        let mut row = Map::new();
        row.insert("kernel".into(), Value::from(*name));
        row.insert("mode".into(), Value::from("warm_process"));
        row.insert("cold_seconds".into(), Value::from(cold));
        row.insert("warm_process_seconds".into(), Value::from(warm));
        row.insert(
            "persist_hit_rate".into(),
            Value::from(stats.persist_hit_rate()),
        );
        row.insert(
            "pointsto_constraints_warm".into(),
            Value::from(stats.pointsto_constraints),
        );
        summary.push_row(row);
        if *name == "paper" {
            summary.headline("paper_warm_process_speedup", cold / warm.max(1e-9));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    summary.emit();

    // Criterion measurements on the representative configurations.
    let build = KernelBuild::generate(&KernelConfig::small());
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| default_engine(0).analyze(&build.program))
    });
    let engine = default_engine(0);
    engine.analyze(&build.program);
    group.bench_function("warm", |b| b.iter(|| engine.analyze(&build.program)));
    group.finish();
}

criterion_group!(benches, bench_engine_scaling);
criterion_main!(benches);
