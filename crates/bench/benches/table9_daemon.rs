//! Bench for the resident analysis daemon: request latency and throughput
//! over the Unix-socket protocol, cold vs warm, and the cost of an
//! edit round-trip with content-keyed invalidation — the serving-layer
//! numbers the batch benches cannot see (framing, socket hops, resident
//! state).

use criterion::{criterion_group, criterion_main, Criterion};
use ivy_cmir::pretty::pretty_program;
use ivy_daemon::{Client, Daemon, DaemonConfig};
use ivy_kernelgen::{KernelBuild, KernelConfig};
use serde_json::{Map, Value};
use std::time::Instant;

const WARM_REQUESTS: usize = 24;

fn percentile(mut samples: Vec<f64>, p: f64) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[((samples.len() - 1) as f64 * p) as usize]
}

fn bench_daemon(c: &mut Criterion) {
    let sweep = [
        ("small", KernelConfig::small()),
        ("paper", KernelConfig::paper()),
    ];

    let mut summary = ivy_bench::summary::Summary::new("table9_daemon");
    let mut cfg = Map::new();
    cfg.insert("kernels".into(), Value::from("small,paper"));
    cfg.insert("warm_requests".into(), Value::from(WARM_REQUESTS));
    summary.config(Value::Object(cfg));
    println!("\n==== Table 9: daemon serving (cold vs warm vs edit) ====");
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "kernel", "cold (s)", "p50 (s)", "p95 (s)", "req/s", "edit rt (s)", "retention"
    );
    for (name, config) in &sweep {
        let source = pretty_program(&KernelBuild::generate(config).program);
        let edited = source.replacen("watchdog_ticks + 1", "watchdog_ticks + 2", 1);
        let socket = std::env::temp_dir().join(format!(
            "ivy-bench-daemon-{name}-{}.sock",
            std::process::id()
        ));
        let handle = Daemon::spawn(DaemonConfig::new(&socket)).expect("daemon spawns");
        let mut client = Client::connect(handle.socket()).expect("client connects");

        // Cold: the first request pays the whole solve.
        let start = Instant::now();
        client.analyze(&source).expect("cold analyze");
        let cold = start.elapsed().as_secs_f64();

        // Warm: repeat requests are served from resident state. Latency is
        // per-request wall time including framing and the socket hop.
        let mut latencies = Vec::with_capacity(WARM_REQUESTS);
        let warm_wall = Instant::now();
        let mut warm_stats = None;
        for _ in 0..WARM_REQUESTS {
            let start = Instant::now();
            warm_stats = Some(client.analyze(&source).expect("warm analyze").stats);
            latencies.push(start.elapsed().as_secs_f64());
        }
        let requests_per_sec = WARM_REQUESTS as f64 / warm_wall.elapsed().as_secs_f64();
        let p50 = percentile(latencies.clone(), 0.50);
        let p95 = percentile(latencies, 0.95);
        let warm_stats = warm_stats.expect("ran");

        // Edit round-trip: notify_edit + warm re-analyze of the edited
        // program (the editor-loop cost the daemon exists to shrink).
        let start = Instant::now();
        let edit = client.notify_edit(&edited).expect("notify_edit");
        client.analyze(&edited).expect("post-edit analyze");
        let edit_round_trip = start.elapsed().as_secs_f64();

        println!(
            "{:<8} {:>10.4} {:>10.4} {:>10.4} {:>10.1} {:>12.4} {:>11.1}%",
            name,
            cold,
            p50,
            p95,
            requests_per_sec,
            edit_round_trip,
            edit.invalidation.retention_rate() * 100.0
        );
        let mut row = Map::new();
        row.insert("kernel".into(), Value::from(*name));
        row.insert("cold_seconds".into(), Value::from(cold));
        row.insert("warm_p50_seconds".into(), Value::from(p50));
        row.insert("warm_p95_seconds".into(), Value::from(p95));
        row.insert("requests_per_sec".into(), Value::from(requests_per_sec));
        row.insert("warm_hit_rate".into(), Value::from(warm_stats.hit_rate()));
        row.insert(
            "edit_round_trip_seconds".into(),
            Value::from(edit_round_trip),
        );
        row.insert(
            "edit_invalidated".into(),
            Value::from(edit.invalidation.invalidated),
        );
        row.insert(
            "edit_retained".into(),
            Value::from(edit.invalidation.retained),
        );
        row.insert(
            "edit_retention_rate".into(),
            Value::from(edit.invalidation.retention_rate()),
        );
        summary.push_row(row);
        if *name == "paper" {
            summary.headline("paper_cold_seconds", cold);
            summary.headline("paper_warm_p50_seconds", p50);
            summary.headline("paper_requests_per_sec", requests_per_sec);
            summary.headline(
                "paper_edit_retention_rate",
                edit.invalidation.retention_rate(),
            );
        }

        client.shutdown().expect("shutdown");
        handle.join();
    }

    summary.emit();

    // Criterion measurement on the representative configuration: one warm
    // daemon round-trip, socket included.
    let source = pretty_program(&KernelBuild::generate(&KernelConfig::small()).program);
    let socket =
        std::env::temp_dir().join(format!("ivy-bench-daemon-c-{}.sock", std::process::id()));
    let handle = Daemon::spawn(DaemonConfig::new(&socket)).expect("daemon spawns");
    let mut client = Client::connect(handle.socket()).expect("client connects");
    client.analyze(&source).expect("prime");
    let mut group = c.benchmark_group("daemon");
    group.sample_size(10);
    group.bench_function("warm_round_trip", |b| {
        b.iter(|| client.analyze(&source).expect("warm analyze"))
    });
    group.finish();
    client.shutdown().expect("shutdown");
    handle.join();
}

criterion_group!(benches, bench_daemon);
criterion_main!(benches);
