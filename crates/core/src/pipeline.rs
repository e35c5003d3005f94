//! The combined Ivy pipeline: Deputy + CCount + BlockStop over one kernel,
//! driven by `ivy-engine`.
//!
//! This is the workflow §2 describes end to end: deputize the kernel
//! (annotations + run-time checks), apply the source fixes that make its
//! frees verifiable, insert the BlockStop assertions that silence false
//! positives, and hand back a program that can be executed fully
//! instrumented on the VM.
//!
//! Since the engine rework, all three tools run as
//! [`Checker`](ivy_engine::Checker) plugins over shared, memoized
//! [`AnalysisCtx`](ivy_engine::AnalysisCtx)s: points-to results are
//! computed once per program state instead of once per tool, checker facts
//! are memoized per function, and the pipeline's three program states
//! (fixed → asserted → deputized) share one context store and one
//! points-to constraint cache — so running the same pipeline again (the
//! analyze→fix→re-analyze loop) computes no query. The Deputy conversion
//! itself is not memoized: the engine keeps only per-function Deputy
//! reports, so every run calls
//! [`Deputy::convert`](ivy_deputy::Deputy::convert) afresh.

use crate::experiments::fix_plan_for;
use crate::repository::Repository;
use ivy_analysis::pointsto::ConstraintCache;
use ivy_blockstop::{insert_asserts, BlockStopChecker, BlockStopConfig, BlockStopReport};
use ivy_ccount::{CCountChecker, InstrumentationReport};
use ivy_cmir::ast::Program;
use ivy_deputy::plugin::DeputyChecker;
use ivy_deputy::{ConversionReport, Deputy};
use ivy_engine::{CtxStore, Diagnostic, Engine, PersistLayer, Report};
use ivy_kernelgen::KernelBuild;
use std::sync::Arc;

/// Configuration of the combined pipeline.
pub struct Pipeline {
    ctx_store: Arc<CtxStore>,
    pts_cache: Arc<ConstraintCache>,
    persist: Option<Arc<PersistLayer>>,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline {
            ctx_store: Arc::new(CtxStore::new()),
            pts_cache: Arc::new(ConstraintCache::new()),
            persist: None,
        }
    }
}

impl Clone for Pipeline {
    /// Clones share the context store, points-to constraint cache, and
    /// persist layer, so a cloned pipeline benefits from the original's
    /// warm state.
    fn clone(&self) -> Self {
        Pipeline {
            ctx_store: Arc::clone(&self.ctx_store),
            pts_cache: Arc::clone(&self.pts_cache),
            persist: self.persist.clone(),
        }
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("resident_contexts", &self.ctx_store.len())
            .finish()
    }
}

/// Output of the combined pipeline.
#[derive(Debug, Clone)]
pub struct Hardened {
    /// The fully hardened program: deputized, free-fix plan applied,
    /// BlockStop assertions inserted.
    pub program: Program,
    /// Deputy conversion report.
    pub deputy: ConversionReport,
    /// CCount static instrumentation report.
    pub ccount: InstrumentationReport,
    /// BlockStop report on the original kernel (before assertions).
    pub blockstop_before: BlockStopReport,
    /// BlockStop report after run-time assertions are accounted for.
    pub blockstop_after: BlockStopReport,
    /// Number of BlockStop assertions inserted.
    pub asserts_inserted: u64,
    /// The annotation repository harvested from the hardened kernel.
    pub repository: Repository,
    /// The unified engine report over the hardened kernel: BlockStop and
    /// Deputy diagnostics for the asserted program plus CCount diagnostics
    /// for the deputized program, in stable order.
    pub report: Report,
}

impl Pipeline {
    /// Creates a pipeline with default tool configurations.
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// Attaches a cross-process persist layer (builder style): all engine
    /// stages spill durable query results to it, so a separate process
    /// running the same pipeline starts warm.
    pub fn with_persist(mut self, persist: Arc<PersistLayer>) -> Self {
        self.persist = Some(persist);
        self
    }

    fn engine(&self) -> Engine {
        // All three stages share one points-to constraint cache: the
        // pipeline's program states (fixed → asserted → deputized) share
        // almost all function bodies, so each state regenerates constraints
        // only for the functions the previous stage actually rewrote.
        let engine = Engine::new()
            .with_ctx_store(Arc::clone(&self.ctx_store))
            .with_pointsto_cache(Arc::clone(&self.pts_cache));
        match &self.persist {
            Some(layer) => engine.with_persist(Arc::clone(layer)),
            None => engine,
        }
    }

    /// Runs the whole pipeline over a generated kernel.
    pub fn run(&self, build: &KernelBuild) -> Hardened {
        let run_span = ivy_telemetry::span("pipeline/run", "harden");

        // 1. CCount source fixes (null-outs + delayed-free scopes).
        let fixed = ivy_telemetry::time("pipeline/phase", "fix", || {
            let plan = fix_plan_for(build);
            plan.apply(&build.program)
        });

        // 2. BlockStop on the fixed kernel, over a shared analysis context.
        //    Only the whole-program report is needed at this stage (it is
        //    compared against the post-assert report, not merged into the
        //    unified diagnostics), so no per-function engine pass runs here.
        let blockstop_before = ivy_telemetry::time("pipeline/phase", "blockstop-pre", || {
            let pre_checker = BlockStopChecker::new();
            let pre_engine = self.engine();
            let (pre_ctx, _) = pre_engine.context_for(&fixed);
            (*pre_checker.report(&pre_ctx)).clone()
        });

        // 3. Insert the assertions that silence the corpus's known false
        //    positives and re-analyse; Deputy checks the same program state
        //    in the same engine pass, over the same AnalysisCtx.
        let instrument_span = ivy_telemetry::span("pipeline/phase", "instrument");
        let asserted = build.asserted_functions();
        let (with_asserts, asserts_inserted) = insert_asserts(&fixed, &asserted);
        drop(instrument_span);
        let analyze_span = ivy_telemetry::span("pipeline/phase", "analyze");
        let post_checker = Arc::new(BlockStopChecker::with_config(BlockStopConfig {
            asserted_functions: asserted,
            ..BlockStopConfig::default()
        }));
        let post_engine = self
            .engine()
            .with_checker(post_checker.clone())
            .with_checker(Arc::new(DeputyChecker::new()));
        let (post_ctx, post_reused) = post_engine.context_for(&with_asserts);
        let post_report = post_engine.analyze_with_ctx(&post_ctx, post_reused);
        let blockstop_after = (*post_checker.report(&post_ctx)).clone();
        drop(analyze_span);

        // 4. Deputy conversion of the patched kernel (the program
        //    transformation; diagnostics already came from the engine
        //    pass). The engine's Deputy queries keep only per-function
        //    reports, so this instruments every function a second time.
        let conversion = ivy_telemetry::time("pipeline/phase", "deputize", || {
            Deputy::new().convert(&with_asserts)
        });

        // 5. CCount static report on the deputized kernel, and the shared
        //    repository.
        let ccount_span = ivy_telemetry::span("pipeline/phase", "ccount");
        let ccount_checker = Arc::new(CCountChecker::new());
        let final_engine = self.engine().with_checker(ccount_checker.clone());
        let (final_ctx, final_reused) = final_engine.context_for(&conversion.program);
        let final_report = final_engine.analyze_with_ctx(&final_ctx, final_reused);
        let ccount = (*ccount_checker.report(&final_ctx)).clone();
        drop(ccount_span);

        let report_span = ivy_telemetry::span("pipeline/phase", "report");
        let mut repository = Repository::from_program(&conversion.program);
        repository.absorb_blockstop(&blockstop_after);

        // 6. Merge the engine reports of the hardened states into one.
        let mut diagnostics: Vec<Diagnostic> = post_report.diagnostics.clone();
        diagnostics.extend(final_report.diagnostics.iter().cloned());
        let mut stats = post_report.stats.clone();
        stats.cache_hits += final_report.stats.cache_hits;
        stats.cache_misses += final_report.stats.cache_misses;
        stats.persist_hits += final_report.stats.persist_hits;
        stats.persist_misses += final_report.stats.persist_misses;
        let report = Report::new(diagnostics, stats);
        drop(report_span);
        drop(run_span);

        Hardened {
            program: conversion.program,
            deputy: conversion.report,
            ccount,
            blockstop_before,
            blockstop_after,
            asserts_inserted,
            repository,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_kernelgen::{KernelBuild, KernelConfig};
    use ivy_vm::{Value, Vm, VmConfig};

    #[test]
    fn pipeline_produces_clean_hardened_kernel() {
        let build = KernelBuild::generate(&KernelConfig::small());
        let hardened = Pipeline::new().run(&build);
        assert!(
            hardened.deputy.accepted(),
            "{:?}",
            hardened.deputy.diagnostics
        );
        assert!(hardened.deputy.total_runtime_checks() > 0);
        assert!(hardened.ccount.counted_pointer_writes > 0);
        assert!(!hardened.blockstop_before.findings.is_empty());
        // Only the two seeded real bugs remain after assertions.
        assert!(hardened.blockstop_after.findings.len() < hardened.blockstop_before.findings.len());
        assert!(hardened.asserts_inserted > 0);
        assert!(hardened.repository.blocking_functions().len() > 2);
    }

    #[test]
    fn hardened_kernel_boots_fully_instrumented() {
        let config = KernelConfig::small();
        let build = KernelBuild::generate(&config);
        let hardened = Pipeline::new().run(&build);
        let mut vm = Vm::new(hardened.program.clone(), VmConfig::full(false)).unwrap();
        vm.run(
            "kernel_boot",
            vec![Value::Int(i64::from(config.boot_cycles)), Value::Int(0)],
        )
        .unwrap();
        // All frees verify good on the fixed kernel, no Deputy check fails,
        // and no BlockStop assertion fires.
        assert_eq!(vm.stats.frees_bad, 0, "bad frees: {:?}", vm.stats.bad_frees);
        assert!(vm.stats.frees_good > 0);
        assert!(
            vm.stats.check_failures.is_empty(),
            "{:?}",
            vm.stats.check_failures
        );
        assert_eq!(vm.stats.assert_failures, 0);
        // The seeded blocking bugs are still present (they are real bugs the
        // tool reports rather than fixes).
        assert!(!vm.stats.blocking_violations.is_empty());
    }

    #[test]
    fn unified_report_carries_all_three_checkers() {
        let build = KernelBuild::generate(&KernelConfig::small());
        let hardened = Pipeline::new().run(&build);
        assert!(!hardened.report.by_checker("blockstop").is_empty());
        assert!(!hardened.report.by_checker("deputy").is_empty());
        assert!(!hardened.report.by_checker("ccount").is_empty());
        // BlockStop engine diagnostics agree with the native report.
        let blockstop_errors = hardened
            .report
            .by_checker("blockstop")
            .iter()
            .filter(|d| d.severity == ivy_engine::Severity::Error)
            .count();
        assert_eq!(blockstop_errors, hardened.blockstop_after.findings.len());
    }

    #[test]
    fn separate_pipeline_processes_share_the_persist_layer() {
        let build = KernelBuild::generate(&KernelConfig::small());
        let dir = std::env::temp_dir().join(format!("ivy-pipeline-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // "Process A": cold pipeline, spills to the persist directory.
        let first = Pipeline::new()
            .with_persist(Arc::new(PersistLayer::open(&dir).unwrap()))
            .run(&build);

        // "Process B": every in-memory cache is fresh; only the directory
        // is shared. Checking is served from disk.
        let second = Pipeline::new()
            .with_persist(Arc::new(PersistLayer::open(&dir).unwrap()))
            .run(&build);
        assert_eq!(first.report.diagnostics, second.report.diagnostics);
        assert_eq!(
            first.report.diagnostics_json(),
            second.report.diagnostics_json()
        );
        // The hardened programs are identical: each process converts
        // the kernel itself.
        assert_eq!(first.program, second.program);
        assert!(
            second.report.stats.persist_hits > 0,
            "warm pipeline process must be served from the persist layer: {:?}",
            second.report.stats
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_pipeline_runs_are_served_from_cache() {
        let build = KernelBuild::generate(&KernelConfig::small());
        let pipeline = Pipeline::new();
        let first = pipeline.run(&build);
        let second = pipeline.run(&build);
        assert_eq!(first.report.diagnostics, second.report.diagnostics);
        assert!(
            second.report.stats.ctx_reused,
            "identical program reuses the context"
        );
        assert_eq!(
            second.report.stats.cache_misses, 0,
            "an unchanged kernel computes no query: {:?}",
            second.report.stats
        );
        assert!(second.report.stats.cache_hits > 0);
    }
}
