//! Cold-vs-warm demonstration of the cross-process persistent cache.
//!
//! Runs the full checker fleet over the generated kernel with a
//! [`PersistLayer`] attached. The first invocation of this example fills
//! `target/ivy-cache/` (cold); a second invocation — a separate process —
//! is served from disk without solving points-to.
//!
//! Environment:
//! * `IVY_CACHE_DIR` — persist directory (default `target/ivy-cache`).
//! * `IVY_EXPECT_WARM=1` — exit non-zero unless every durable read of the
//!   run was served from the persist layer (used by CI to pin the warm
//!   start).
//!
//! Run with: `cargo run --release --example persist_warm` (twice).

use ivy::blockstop::BlockStopChecker;
use ivy::ccount::CCountChecker;
use ivy::deputy::DeputyChecker;
use ivy::engine::{Engine, PersistLayer};
use ivy::kernelgen::{KernelBuild, KernelConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let dir = std::env::var("IVY_CACHE_DIR").unwrap_or_else(|_| "target/ivy-cache".to_string());
    let layer = Arc::new(PersistLayer::open(&dir).expect("persist dir opens"));
    let build = KernelBuild::generate(&KernelConfig::small());
    let engine = Engine::new()
        .with_checker(Arc::new(DeputyChecker::new()))
        .with_checker(Arc::new(CCountChecker::new()))
        .with_checker(Arc::new(BlockStopChecker::new()))
        .with_persist(Arc::clone(&layer));

    let start = Instant::now();
    let report = engine.analyze(&build.program);
    let elapsed = start.elapsed().as_secs_f64();

    let stats = &report.stats;
    println!(
        "analyzed {} functions in {elapsed:.4}s: {} diagnostics",
        stats.functions,
        report.diagnostics.len()
    );
    println!(
        "persist layer at {dir}: persist_hits={} persist_misses={} persist_hit_rate={:.3}",
        stats.persist_hits,
        stats.persist_misses,
        stats.persist_hit_rate()
    );
    println!(
        "pointsto constraints solved this process: {}",
        stats.pointsto_constraints
    );

    if std::env::var("IVY_EXPECT_WARM").as_deref() == Ok("1")
        && (stats.persist_hits == 0 || stats.persist_misses > 0)
    {
        eprintln!("error: expected a warm start but not every durable read was served from the persist layer");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
