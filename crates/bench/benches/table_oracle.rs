//! Bench for the dynamic soundness oracle: traced-execution differential
//! validation of every static analysis, across the full kernels and a
//! 100-program sub-sampled fleet, with the per-checker soundness/precision
//! numbers the paper never had.
//!
//! The JSON-SUMMARY line carries the per-sensitivity rows; its headlines
//! append to `BENCH_TRAJECTORY.jsonl` (see `trajectory report`). CI gates
//! on `"violations_total":0`.

use criterion::{criterion_group, criterion_main, Criterion};
use ivy_cmir::ast::Program;
use ivy_kernelgen::subsample::Mix;
use ivy_kernelgen::{subsample_program, KernelBuild, KernelConfig};
use ivy_oracle::{EntrySpec, Oracle, OracleConfig, OracleReport};
use serde_json::{Map, Value};
use std::time::Instant;

/// Sub-sampled fleet size (together with the two full kernels this keeps
/// the committed trajectory point above the 100-program acceptance floor).
const FLEET: u64 = 100;

/// One fleet case: drop/strip percentages derived from the seed, then the
/// shared sub-sampler (the scheme of `tests/differential_soundness.rs`).
fn subsample(base: &Program, seed: u64) -> Program {
    let mut rng = Mix(seed);
    let (drop_pct, strip_pct) = (rng.next_u64() % 40, rng.next_u64() % 35);
    subsample_program(base, rng.next_u64(), drop_pct, strip_pct)
}

fn entries_for(program: &Program) -> Vec<EntrySpec> {
    EntrySpec::defaults_for(program, 6)
}

fn report_row(name: &str, programs: u64, seconds: f64, report: &OracleReport) -> Value {
    let mut row = Map::new();
    row.insert("config".into(), Value::from(name));
    row.insert("programs".into(), Value::from(programs));
    row.insert("seconds".into(), Value::from(seconds));
    row.insert("entries_run".into(), Value::from(report.entries_run as u64));
    row.insert("traps".into(), Value::from(report.traps as u64));
    row.insert(
        "facts_checked".into(),
        Value::from(report.facts.total() as u64),
    );
    row.insert(
        "ptr_facts".into(),
        Value::from(report.facts.ptr_facts as u64),
    );
    row.insert(
        "indirect_facts".into(),
        Value::from(report.facts.indirect_facts as u64),
    );
    row.insert(
        "blocking_facts".into(),
        Value::from(report.facts.blocking_facts as u64),
    );
    row.insert(
        "bad_free_facts".into(),
        Value::from(report.facts.bad_free_facts as u64),
    );
    row.insert("unresolved".into(), Value::from(report.facts.unresolved));
    row.insert(
        "violations".into(),
        Value::from(report.violations.len() as u64),
    );
    let mut precision = Map::new();
    for (sens, p) in &report.precision {
        precision.insert(sens.clone(), p.to_value());
    }
    row.insert("precision".into(), Value::Object(precision));
    Value::Object(row)
}

fn bench_oracle(c: &mut Criterion) {
    let oracle = Oracle::with_config(OracleConfig {
        max_steps: 2_000_000,
        ..OracleConfig::default()
    });

    println!("\n==== Oracle: dynamic soundness / precision of every analysis ====");
    println!(
        "{:<12} {:>9} {:>8} {:>8} {:>11} {:>11} {:>13} {:>13}",
        "config", "programs", "facts", "viols", "pts(st)", "pts(an)", "pts(an+f)", "seconds"
    );

    let mut rows: Vec<Value> = Vec::new();
    let mut violations_total = 0u64;
    let mut programs_total = 0u64;

    // The two full kernels (boot + light use + workload mix each).
    let mut paper_steensgaard_precision = 0.0f64;
    for (name, config) in [
        ("small", KernelConfig::small()),
        ("paper", KernelConfig::paper()),
    ] {
        let build = KernelBuild::generate(&config);
        let start = Instant::now();
        let report = oracle.run(&build.program, &entries_for(&build.program));
        let seconds = start.elapsed().as_secs_f64();
        print_row(name, 1, &report, seconds);
        if name == "paper" {
            paper_steensgaard_precision = report
                .precision
                .get("steensgaard")
                .map(|p| p.pointsto.rate())
                .unwrap_or(0.0);
        }
        violations_total += report.violations.len() as u64;
        programs_total += 1;
        rows.push(report_row(name, 1, seconds, &report));
    }

    // The sub-sampled fleet: every program a different executable subset.
    let base = KernelBuild::generate(&KernelConfig::small()).program;
    let start = Instant::now();
    let mut fleet = OracleReport::default();
    for seed in 0..FLEET {
        let program = subsample(&base, seed.wrapping_mul(0x9E37_79B9));
        let report = oracle.run(&program, &entries_for(&program));
        fleet.merge(report);
    }
    let seconds = start.elapsed().as_secs_f64();
    print_row("subsampled", FLEET, &fleet, seconds);
    violations_total += fleet.violations.len() as u64;
    programs_total += FLEET;
    rows.push(report_row("subsampled", FLEET, seconds, &fleet));

    let mut summary = ivy_bench::summary::Summary::new("table_oracle");
    let mut cfg = Map::new();
    cfg.insert("fleet".into(), Value::from(FLEET));
    cfg.insert("kernels".into(), Value::from("small,paper,subsampled"));
    summary.config(Value::Object(cfg));
    summary.root_field("programs_total", programs_total);
    summary.root_field("violations_total", violations_total);
    for row in rows {
        if let Value::Object(row) = row {
            summary.push_row(row);
        }
    }
    summary.headline("programs_total", programs_total);
    summary.headline("violations_total", violations_total);
    summary.headline("fleet_seconds", seconds);
    summary.headline(
        "paper_steensgaard_pointsto_precision",
        paper_steensgaard_precision,
    );
    summary.emit();
    // Soundness and precision floors for the solver substrate: every
    // traced fact must be covered at every sensitivity, and the unified
    // (union-find) Steensgaard representation must not collapse the paper
    // kernel's points-to precision below its established floor.
    assert_eq!(
        violations_total, 0,
        "the oracle found dynamic facts missed by a static analysis"
    );
    assert!(
        paper_steensgaard_precision >= 0.011,
        "paper-kernel Steensgaard points-to precision fell below the 0.011 \
         floor, got {paper_steensgaard_precision:.4}"
    );

    // Criterion measurement: one full traced-and-checked oracle pass over
    // the small kernel (execution + three static models + subsumption).
    let build = KernelBuild::generate(&KernelConfig::small());
    let entries = entries_for(&build.program);
    let mut group = c.benchmark_group("oracle");
    group.sample_size(10);
    group.bench_function("small_kernel_full_pass", |b| {
        b.iter(|| {
            let report = oracle.run(&build.program, &entries);
            assert!(report.is_sound());
            report
        })
    });
    group.finish();
}

fn print_row(name: &str, programs: u64, report: &OracleReport, seconds: f64) {
    let rate = |sens: &str| {
        report
            .precision
            .get(sens)
            .map(|p| p.pointsto.rate())
            .unwrap_or(0.0)
    };
    println!(
        "{:<12} {:>9} {:>8} {:>8} {:>11.3} {:>11.3} {:>13.3} {:>13.2}",
        name,
        programs,
        report.facts.total(),
        report.violations.len(),
        rate("steensgaard"),
        rate("andersen"),
        rate("andersen+field"),
        seconds
    );
}

criterion_group!(benches, bench_oracle);
criterion_main!(benches);
