//! Run the full checker fleet over a generated kernel through `ivy-engine`
//! and print the unified report: severity counts, the BlockStop findings,
//! cache behaviour on a re-run, and a SARIF snippet.
//!
//! Run with: `cargo run --release --example engine_report`

use ivy::blockstop::BlockStopChecker;
use ivy::ccount::CCountChecker;
use ivy::deputy::DeputyChecker;
use ivy::engine::{Engine, Severity};
use ivy::kernelgen::{KernelBuild, KernelConfig};
use std::sync::Arc;

fn main() {
    let build = KernelBuild::generate(&KernelConfig::small());
    let engine = Engine::new()
        .with_checker(Arc::new(DeputyChecker::new()))
        .with_checker(Arc::new(CCountChecker::new()))
        .with_checker(Arc::new(BlockStopChecker::new()));

    let report = engine.analyze(&build.program);
    println!(
        "analyzed {} functions with {} checkers",
        report.stats.functions, report.stats.checkers
    );
    for (severity, count) in report.severity_counts() {
        println!("  {:>8}: {count}", severity.name());
    }

    println!("\nBlockStop findings:");
    for d in report.by_checker("blockstop") {
        if d.severity == Severity::Error {
            println!("  [{}] {}", d.function, d.message);
            if let Some(hint) = &d.fix_hint {
                println!("      fix: {hint}");
            }
        }
    }

    let warm = engine.analyze(&build.program);
    println!(
        "\nre-analyzing the unchanged kernel: {} hits / {} misses ({:.0}% cached)",
        warm.stats.cache_hits,
        warm.stats.cache_misses,
        warm.stats.hit_rate() * 100.0
    );

    let sarif = report.to_sarif();
    let preview: String = sarif.lines().take(12).collect::<Vec<_>>().join("\n");
    println!("\nSARIF preview:\n{preview}\n...");
}
