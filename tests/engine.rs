//! Integration tests for the analysis engine over the generated kernel:
//! report determinism, incremental reuse through the query db,
//! per-function invalidation, fleet (corpus) mode, and the program
//! identity edits are diffed by.

use ivy::blockstop::BlockStopChecker;
use ivy::ccount::CCountChecker;
use ivy::cmir::ast::{Expr, Program};
use ivy::cmir::content::ProgramHashes;
use ivy::cmir::parser::{parse_program, ReparsePath};
use ivy::cmir::pretty::{pretty_function, pretty_program};
use ivy::cmir::visit::{map_block_exprs, walk_block_exprs};
use ivy::deputy::plugin::InstrumentedQuery;
use ivy::deputy::DeputyChecker;
use ivy::engine::query::FnFactsQuery;
use ivy::engine::{AnalysisCtx, DurableQuery, Engine, PersistLayer, Query, Severity};
use ivy::kernelgen::{KernelBuild, KernelConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

fn kernel_engine() -> Engine {
    Engine::new()
        .with_checker(Arc::new(DeputyChecker::new()))
        .with_checker(Arc::new(CCountChecker::new()))
        .with_checker(Arc::new(BlockStopChecker::new()))
}

/// A unique, empty persist directory for one test.
fn persist_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ivy-engine-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fresh_engines_produce_byte_identical_reports() {
    let build = KernelBuild::generate(&KernelConfig::small());
    let first = kernel_engine().analyze(&build.program);
    let second = kernel_engine().analyze(&build.program);
    assert!(!first.diagnostics.is_empty());
    assert_eq!(first.diagnostics, second.diagnostics);
    assert_eq!(first.diagnostics_json(), second.diagnostics_json());
    assert_eq!(first.to_sarif(), second.to_sarif());
}

#[test]
fn unchanged_kernel_is_served_from_cache() {
    let build = KernelBuild::generate(&KernelConfig::small());
    let engine = kernel_engine();
    let cold = engine.analyze(&build.program);
    assert!(cold.stats.cache_misses > 0, "first run must compute");

    let warm = engine.analyze(&build.program);
    assert_eq!(warm.diagnostics, cold.diagnostics);
    assert!(
        warm.stats.ctx_reused,
        "identical program must reuse the analysis context"
    );
    assert_eq!(
        warm.stats.cache_misses, 0,
        "second analyze over an unchanged kernel computes no query ({} memo hits)",
        warm.stats.cache_hits
    );
    assert!(warm.stats.cache_hits > 0);
}

#[test]
fn small_edit_recomputes_only_the_dirty_cone() {
    let build = KernelBuild::generate(&KernelConfig::small());
    let engine = kernel_engine();
    engine.analyze(&build.program);

    // Edit one leaf-ish function body; every other function keeps its
    // per-function query results. Deputy and CCount are per-function, so
    // for them only the edited function recomputes; BlockStop re-derives
    // its whole-program report.
    let mut edited = build.program.clone();
    let func = edited
        .function_mut("watchdog_tick")
        .expect("corpus has watchdog_tick");
    let body = func.body.as_mut().expect("defined");
    let extra = body.stmts.first().cloned().expect("non-empty body");
    body.stmts.insert(0, extra);

    let incremental = engine.analyze(&edited);
    let total = incremental.stats.cache_hits + incremental.stats.cache_misses;
    assert!(
        incremental.stats.cache_hits * 2 > total,
        "a one-function edit should serve most query reads from the memo: {} hits / {} reads",
        incremental.stats.cache_hits,
        total
    );
    assert!(
        incremental.stats.cache_misses > 0,
        "the dirty function's queries must recompute"
    );
    // The points-to substrate is incremental across contexts too: the
    // edited program's solve regenerates exactly one constraint batch.
    assert_eq!(
        incremental.stats.pointsto_batches_generated, 1,
        "only the edited function's constraint batch is dirty"
    );
    assert!(incremental.stats.pointsto_batches_reused > 0);
}

#[test]
fn reports_carry_pointsto_substrate_stats() {
    let build = KernelBuild::generate(&KernelConfig::small());
    let report = kernel_engine().analyze(&build.program);
    assert!(report.stats.pointsto_initial_constraints > 0);
    assert!(
        report.stats.pointsto_constraints > report.stats.pointsto_initial_constraints,
        "indirect-call bindings must be counted in the total ({} vs {})",
        report.stats.pointsto_constraints,
        report.stats.pointsto_initial_constraints
    );
    // A cold engine generated every batch fresh.
    assert_eq!(report.stats.pointsto_batches_reused, 0);
    assert!(report.stats.pointsto_batches_generated > 0);
    // The stats serialize into the report JSON.
    assert!(report.to_json().contains("pointsto_batches_generated"));
}

#[test]
fn corpus_mode_shares_the_cache_across_variants() {
    // Seed-varied kernels share almost all function bodies.
    let programs: Vec<_> = (0..3)
        .map(|i| {
            let mut config = KernelConfig::small();
            config.seed += i;
            KernelBuild::generate(&config).program
        })
        .collect();
    // One engine analyzes the variants in turn over its shared points-to
    // constraint cache: the one artifact shared between contexts no edit
    // links.
    let engine = kernel_engine();
    let reports: Vec<_> = programs.iter().map(|p| engine.analyze(p)).collect();
    for r in &reports {
        assert!(!r.diagnostics.is_empty());
    }
    assert_eq!(reports[0].stats.pointsto_batches_reused, 0);
    for (i, r) in reports.iter().enumerate().skip(1) {
        let reused = r.stats.pointsto_batches_reused;
        let generated = r.stats.pointsto_batches_generated;
        assert!(
            reused > 4 * generated,
            "variant {i} shares too few constraint batches: {reused} reused, {generated} generated"
        );
    }

    // Corpus reports equal the individually-computed ones.
    let solo = kernel_engine().analyze(&programs[1]);
    assert_eq!(solo.diagnostics, reports[1].diagnostics);
}

#[test]
fn warm_start_from_persist_layer_reproduces_the_report_from_disk() {
    let build = KernelBuild::generate(&KernelConfig::small());
    let dir = persist_dir("warm-start");

    // "Process A": cold engine, spills everything durable to the directory.
    let cold = kernel_engine()
        .with_persist(Arc::new(PersistLayer::open(&dir).unwrap()))
        .analyze(&build.program);
    assert_eq!(cold.stats.persist_hits, 0, "first process is cold");
    assert!(cold.stats.persist_misses > 0);

    // "Process B": a fresh engine with fresh in-memory caches; only the
    // directory is shared (everything process A held has been dropped).
    let warm = kernel_engine()
        .with_persist(Arc::new(PersistLayer::open(&dir).unwrap()))
        .analyze(&build.program);

    // Byte-identical report, every durable read served from disk.
    assert_eq!(warm.diagnostics, cold.diagnostics);
    assert_eq!(warm.diagnostics_json(), cold.diagnostics_json());
    assert_eq!(warm.to_sarif(), cold.to_sarif());
    assert!(warm.stats.persist_hits > 0);
    assert_eq!(
        warm.stats.persist_misses, 0,
        "a warm process must read every durable result from disk: {:?}",
        warm.stats
    );
    // The warm process never had to solve points-to: the BlockStop report
    // and the CCount alias sites reloaded from disk.
    assert_eq!(
        warm.stats.pointsto_constraints, 0,
        "a fully warm process must not solve points-to"
    );
    assert!(cold.stats.pointsto_constraints > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_or_version_mismatched_cache_files_are_ignored_not_fatal() {
    let build = KernelBuild::generate(&KernelConfig::small());
    let dir = persist_dir("corrupt");
    let cold = kernel_engine()
        .with_persist(Arc::new(PersistLayer::open(&dir).unwrap()))
        .analyze(&build.program);

    // Vandalize the cache: truncate one shard mid-JSON, replace another
    // with a version from the future, and drop in unrelated files at both
    // layout levels. (Namespaces are shard *directories* since the
    // fleet-mode sharding rework; the shards inside are what a crashed or
    // hostile writer would corrupt.)
    let mut shards: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .flat_map(|ns| std::fs::read_dir(ns).unwrap().map(|e| e.unwrap().path()))
        .collect();
    shards.sort();
    assert!(shards.len() >= 3, "cold run persisted several namespaces");
    std::fs::write(&shards[0], "{\"format\":1,\"entries\":{").unwrap();
    std::fs::write(
        &shards[1],
        "{\"format\":1,\"namespace\":\"x\",\"version\":999,\"entries\":{}}",
    )
    .unwrap();
    std::fs::write(shards[2].parent().unwrap().join("stray.json"), "not json").unwrap();
    std::fs::write(dir.join("unrelated.json"), "not json at all").unwrap();

    // A fresh process over the damaged cache recomputes what it must and
    // still produces the identical report.
    let recovered = kernel_engine()
        .with_persist(Arc::new(PersistLayer::open(&dir).unwrap()))
        .analyze(&build.program);
    assert_eq!(recovered.diagnostics, cold.diagnostics);
    assert_eq!(recovered.diagnostics_json(), cold.diagnostics_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persisted_deputy_reports_make_redeputization_incremental() {
    let build = KernelBuild::generate(&KernelConfig::small());
    let dir = persist_dir("deputy-incremental");
    let layer = Arc::new(PersistLayer::open(&dir).unwrap());
    let engine = kernel_engine().with_persist(Arc::clone(&layer));
    engine.analyze(&build.program);
    let instrumented_ns = InstrumentedQuery::NAME;
    let version = InstrumentedQuery::FORMAT_VERSION;
    let before = layer.entry_count(instrumented_ns, version);
    assert!(before > 0, "cold run persisted per-function reports");

    // Edit one function body; only its report is regenerated
    // (its content hash changed; every other function's entry is still
    // valid because the type environment is untouched).
    let mut edited = build.program.clone();
    let func = edited
        .function_mut("watchdog_tick")
        .expect("corpus has watchdog_tick");
    let body = func.body.as_mut().expect("defined");
    let extra = body.stmts.first().cloned().expect("non-empty body");
    body.stmts.insert(0, extra);
    engine.analyze(&edited);
    let after = layer.entry_count(instrumented_ns, version);
    assert_eq!(
        after,
        before + 1,
        "a one-function edit must add exactly one per-function report entry"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression guard for the PR 4 round-2 adopted-entry fix, extended to
/// *sequences* of edits: edit → analyze → edit → analyze must retain at
/// least 90% of memoized results at every step, and the answers must
/// stay byte-identical to a from-scratch batch engine at every step (no
/// adopted-entry staleness reappearing after the second edit).
#[test]
fn edit_sequences_keep_retention_high_and_answers_fresh() {
    let build = KernelBuild::generate(&KernelConfig::small());

    let edit_step = |program: &ivy::cmir::Program, target: &str| {
        let mut edited = program.clone();
        let func = edited
            .function_mut(target)
            .unwrap_or_else(|| panic!("corpus has {target}"));
        let body = func.body.as_mut().expect("defined");
        let extra = body.stmts.first().cloned().expect("non-empty body");
        body.stmts.insert(0, extra);
        edited
    };

    // Phase A — in-process entries (recorded dependency edges): every
    // step of the sequence retains >=90% of the memoized results and
    // re-serves >=90% on the follow-up analyze, byte-identical to batch.
    let engine = kernel_engine();
    engine.analyze(&build.program);
    let (mut ctx, _) = engine.context_for(&build.program);
    let mut current = build.program.clone();
    for (step, target) in ["watchdog_tick", "dcache_lookup"].iter().enumerate() {
        let edited = edit_step(&current, target);
        let (next, stats) = engine.apply_edit(&ctx, &edited);
        assert!(
            stats.retention_rate() >= 0.9,
            "step {step}: retention collapsed to {:.3} ({} invalidated, {} retained)",
            stats.retention_rate(),
            stats.invalidated,
            stats.retained
        );
        assert!(
            stats.invalidated > 0,
            "step {step}: the edited function must invalidate something"
        );

        let incremental = engine.analyze(&edited);
        let scratch = kernel_engine().analyze(&edited);
        assert_eq!(
            incremental.diagnostics_json(),
            scratch.diagnostics_json(),
            "step {step}: incremental answers drifted from batch"
        );
        let served = incremental.stats.cache_hits + incremental.stats.persist_hits;
        let total = served + incremental.stats.cache_misses;
        assert!(
            served as f64 / total as f64 >= 0.9,
            "step {step}: only {:.3} of query reads re-served after the edit",
            served as f64 / total as f64
        );

        ctx = next;
        current = edited;
    }

    // Phase B — *adopted* entries (loaded from the persist shards, no
    // recorded edges: the PR 4 round-2 staleness class). A warm-started
    // engine pushed through the same edit sequence must never re-serve a
    // pre-edit result, at either step.
    let dir = persist_dir("edit-sequence");
    kernel_engine()
        .with_persist(Arc::new(PersistLayer::open(&dir).unwrap()))
        .analyze(&build.program);
    let warm = kernel_engine().with_persist(Arc::new(PersistLayer::open(&dir).unwrap()));
    let report = warm.analyze(&build.program);
    assert!(
        report.stats.persist_hit_rate() >= 0.9,
        "phase B precondition: the engine is persist-warm"
    );
    let (mut ctx, _) = warm.context_for(&build.program);
    let mut current = build.program.clone();
    for (step, target) in ["watchdog_tick", "dcache_lookup"].iter().enumerate() {
        let edited = edit_step(&current, target);
        let (next, _) = warm.apply_edit(&ctx, &edited);
        let incremental = warm.analyze(&edited);
        let scratch = kernel_engine().analyze(&edited);
        assert_eq!(
            incremental.diagnostics_json(),
            scratch.diagnostics_json(),
            "step {step}: adopted-entry staleness resurfaced"
        );
        ctx = next;
        current = edited;
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_finds_the_seeded_blocking_bugs() {
    let build = KernelBuild::generate(&KernelConfig::small());
    let report = kernel_engine().analyze(&build.program);
    let blockstop_errors: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.checker == "blockstop" && d.severity == Severity::Error)
        .collect();
    assert!(!blockstop_errors.is_empty());
    for bug in &build.ground_truth.blocking_bugs {
        assert!(
            blockstop_errors
                .iter()
                .any(|d| d.function == bug.caller || d.message.contains(&bug.caller)),
            "seeded bug in {} not surfaced",
            bug.caller
        );
    }
    // Every blockstop error carries an actionable fix hint.
    assert!(blockstop_errors.iter().all(|d| d.fix_hint.is_some()));
}

/// A small kernel analyzed once, with its resident context: the base every
/// identity-property case edits.
fn identity_base() -> &'static (Engine, Arc<AnalysisCtx>, Program) {
    static BASE: OnceLock<(Engine, Arc<AnalysisCtx>, Program)> = OnceLock::new();
    BASE.get_or_init(|| {
        let program = KernelBuild::generate(&KernelConfig::small()).program;
        let engine = kernel_engine();
        engine.analyze(&program);
        let (ctx, _) = engine.context_for(&program);
        (engine, ctx, program)
    })
}

/// One seeded one-function (or one-global) mutation of `base`: `kind` 0
/// duplicates a statement in place, 1 raises an integer literal in a
/// function body by `delta`, 2 raises an integer global initializer by
/// `delta`. Literals stay non-negative, so the mutated program still
/// round-trips through the pretty-printer.
fn mutate(base: &Program, kind: u8, pick: u64, delta: i64) -> Program {
    let mut out = base.clone();
    let nth = |n: usize| (pick % n as u64) as usize;
    if kind == 2 {
        let inits: Vec<usize> = (0..out.globals.len())
            .filter(|&i| matches!(out.globals[i].init, Some(Expr::Int(v)) if v >= 0))
            .collect();
        let i = inits[nth(inits.len())];
        if let Some(Expr::Int(v)) = &mut Arc::make_mut(&mut out.globals)[i].init {
            *v += delta;
        }
        return out;
    }
    let literals = |f: &ivy::cmir::ast::Function| {
        let mut n = 0usize;
        if let Some(body) = &f.body {
            walk_block_exprs(body, &mut |e| {
                n += usize::from(matches!(e, Expr::Int(v) if *v >= 0))
            });
        }
        n
    };
    let candidates: Vec<usize> = (0..out.functions.len())
        .filter(|&i| {
            let f = &out.functions[i];
            match kind {
                0 => f.body.as_ref().is_some_and(|b| !b.stmts.is_empty()),
                _ => literals(f) > 0,
            }
        })
        .collect();
    let func = &mut out.functions[candidates[nth(candidates.len())]];
    if kind == 0 {
        let body = func.body.as_mut().expect("candidate has a body");
        let at = nth(body.stmts.len());
        body.stmts.insert(at, body.stmts[at].clone());
    } else {
        let target = nth(literals(func));
        let mut seen = 0usize;
        let body = func.body.as_ref().expect("candidate has a body");
        func.body = Some(map_block_exprs(body, &mut |e| match e {
            Expr::Int(v) if v >= 0 => {
                seen += 1;
                Expr::Int(if seen - 1 == target { v + delta } else { v })
            }
            other => other,
        }));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The content hashes are exactly the pretty-printed text's: they
    /// survive a print/parse round trip. The program identity also covers
    /// spans: it survives printing the printed text again, it changes
    /// whenever the text changes (the mutations keep every span), and the
    /// edit diff built from the content hashes names exactly the
    /// functions whose printed text changed.
    #[test]
    fn program_identity_matches_pretty_printed_equality(
        kind in 0u8..3,
        pick in any::<u64>(),
        delta in 1i64..1000,
    ) {
        let (engine, base_ctx, base) = identity_base();
        let mutated = mutate(base, kind, pick, delta);
        let content = |p: &Program| {
            let hashes = ProgramHashes::of(p);
            (hashes.env, hashes.functions)
        };
        for p in [base, &mutated] {
            let printed = pretty_program(p);
            let reparsed = parse_program(&printed).expect("printed program parses");
            prop_assert_eq!(content(p), content(&reparsed));
            let again = parse_program(&pretty_program(&reparsed)).expect("reprinted program parses");
            prop_assert_eq!(pretty_program(&reparsed), printed);
            prop_assert_eq!(AnalysisCtx::hash_program(&reparsed), AnalysisCtx::hash_program(&again));
        }
        prop_assert_eq!(
            pretty_program(base) == pretty_program(&mutated),
            AnalysisCtx::hash_program(base) == AnalysisCtx::hash_program(&mutated),
            "mutation kind {} changed the text but not the hash (or the reverse)",
            kind
        );
        let (_, stats) = engine.apply_edit(base_ctx, &mutated);
        let text_changed: BTreeSet<String> = base
            .functions
            .iter()
            .zip(&mutated.functions)
            .filter(|(a, b)| pretty_function(a) != pretty_function(b))
            .map(|(a, _)| a.name.clone())
            .collect();
        prop_assert_eq!(stats.changed_functions, text_changed.into_iter().collect::<Vec<_>>());
    }
}

/// FNV digests of `default_engine(0).analyze(..).diagnostics_json()` for the
/// small and paper kernels, recorded before the points-to frontend was
/// rewritten to intern during generation. The report must not change.
const PINNED_DIAGNOSTICS: [(&str, u64); 2] = [
    ("small", 0xb45d_2e53_83cc_a51f),
    ("paper", 0xa302_c4dd_3eb0_b687),
];

#[test]
fn diagnostics_match_the_pinned_digests() {
    let mut mismatches = Vec::new();
    for (kernel, pinned) in PINNED_DIAGNOSTICS {
        let config = match kernel {
            "small" => KernelConfig::small(),
            _ => KernelConfig::paper(),
        };
        let program = KernelBuild::generate(&config).program;
        let json = ivy::core::experiments::default_engine(0)
            .analyze(&program)
            .diagnostics_json();
        let digest = ivy::analysis::summary::fnv1a(json.as_bytes());
        eprintln!("{kernel}: {digest:#018x} ({} bytes)", json.len());
        if digest != pinned {
            mismatches.push(format!(
                "{kernel}: digest {digest:#018x}, pinned {pinned:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "diagnostics changed:\n{}",
        mismatches.join("\n")
    );
}

/// Deputy's prepared state is a body-free environment, so a resident
/// context holds its program once; checked after a fleet `analyze` of the
/// small kernel and again after one edit.
#[test]
fn deputy_prepared_environment_holds_no_function_body() {
    let program = KernelBuild::generate(&KernelConfig::small()).program;
    let engine = ivy::core::experiments::default_engine(0);
    engine.analyze(&program);
    let bodies = |ctx: &AnalysisCtx| {
        let prepared = DeputyChecker::new().prepared(ctx);
        prepared
            .env
            .functions
            .iter()
            .filter(|f| f.body.is_some())
            .count()
    };
    let (ctx, reused) = engine.context_for(&program);
    assert!(reused, "analyze left the context resident");
    assert_eq!(bodies(&ctx), 0);
    let (edited, _) = engine.apply_edit(&ctx, &mutate(&program, 1, 7, 1));
    engine.analyze_with_ctx(&edited, false);
    assert_eq!(bodies(&edited), 0);
}

/// An edit must not leave the edited function's old-content memo entries
/// behind: Deputy's per-function report is keyed by the function's content
/// hash, and a stale-content entry that still revalidated would be carried
/// into every later context. Twenty successive literal edits to one
/// function keep the base table the same size after the first.
#[test]
fn literal_edits_keep_the_memo_table_bounded() {
    let program = KernelBuild::generate(&KernelConfig::small()).program;
    let engine = kernel_engine();
    engine.analyze(&program);
    let (mut ctx, _) = engine.context_for(&program);
    let mut current = program;
    let mut sizes = Vec::new();
    for _ in 0..20 {
        let edited = mutate(&current, 1, 7, 1);
        let (next, stats) = engine.apply_edit(&ctx, &edited);
        assert_eq!(stats.changed_functions.len(), 1, "one function per edit");
        engine.analyze_with_ctx(&next, false);
        sizes.push(stats.retained + stats.invalidated);
        ctx = next;
        current = edited;
    }
    assert!(
        sizes[1..].iter().all(|&n| n == sizes[1]),
        "the memo table grows by a stale entry per edit: {sizes:?}"
    );
}

/// Two functions named `f`: the first takes a spinlock and then
/// allocates, the second does not, and `g` calls `f`.
const DUPLICATE_F: &str = r#"
#[allocator] #[blocking_if(flags)]
extern fn kmalloc(size: u32, flags: u32) -> void *;
extern fn spin_lock_irqsave(l: u32 *);

global lk: u32 = 0;

fn f(len: u32) -> void * {
    spin_lock_irqsave(&lk);
    let buf: void * = kmalloc(len, 0);
    return buf;
}

fn f(len: u32) -> void * {
    return null;
}

fn g() {
    f(8);
}
"#;

/// An edit to the first of two same-named definitions seeds that name,
/// so the daemon's incremental answer equals a fresh batch analysis of
/// the edited source (which reports the now-sleeping allocation).
#[test]
fn an_edit_to_the_first_of_two_same_named_functions_matches_batch() {
    let engine = ivy::core::experiments::default_engine(0);
    let base = parse_program(DUPLICATE_F).expect("base parses");
    let (ctx, _) = engine.context_for_source(base, Arc::from(DUPLICATE_F));
    engine.analyze_with_ctx(&ctx, false);

    let edited = DUPLICATE_F.replacen("kmalloc(len, 0)", "kmalloc(len, 0x10)", 1);
    let edit = engine
        .apply_source_edit(&ctx, Arc::from(edited.as_str()))
        .expect("edit parses");
    assert_eq!(edit.stats.changed_functions, vec!["f".to_string()]);
    let incremental = engine.analyze_with_ctx(&edit.ctx, false).diagnostics_json();

    let fresh = parse_program(&edited).expect("edited source parses");
    let batch = ivy::core::experiments::default_engine(0)
        .analyze(&fresh)
        .diagnostics_json();
    assert!(
        batch.contains("blockstop/atomic-call"),
        "batch reports the allocation under the lock: {batch}"
    );
    assert_eq!(incremental, batch);
}

/// A fresh analysis checks a name defined twice once: BlockStop reports
/// the allocation under the lock in the first `f` a single time.
#[test]
fn a_name_defined_twice_is_checked_once() {
    let source = DUPLICATE_F.replacen("kmalloc(len, 0)", "kmalloc(len, 0x10)", 1);
    let program = parse_program(&source).expect("source parses");
    let report = ivy::core::experiments::default_engine(0).analyze(&program);
    let atomic_calls = report
        .diagnostics
        .iter()
        .filter(|d| d.code == "blockstop/atomic-call" && d.function == "f")
        .count();
    assert_eq!(atomic_calls, 1, "{}", report.diagnostics_json());
}

/// Two functions named `f`: the first declares a local whose bound names
/// its parameter, the second does not, and `g` calls `f`.
const DUPLICATE_DEPUTY_F: &str = r#"
fn f(n: u32) -> u32 {
    let p: u8 * count(n) = null;
    return 0;
}

fn f(n: u32) -> u32 {
    return 1;
}

fn g() -> u32 {
    return f(2);
}
"#;

/// Deputy's result for a name is keyed by every definition of it, so an
/// edit to the first of two definitions (a bound naming an undeclared
/// variable) reaches the daemon's answer as it reaches a batch run's.
#[test]
fn an_edit_to_the_first_definition_reaches_deputy_like_batch() {
    let engine = ivy::core::experiments::default_engine(0);
    let base = parse_program(DUPLICATE_DEPUTY_F).expect("base parses");
    let (ctx, _) = engine.context_for_source(base, Arc::from(DUPLICATE_DEPUTY_F));
    engine.analyze_with_ctx(&ctx, false);

    let edited = DUPLICATE_DEPUTY_F.replacen("count(n)", "count(m)", 1);
    let edit = engine
        .apply_source_edit(&ctx, Arc::from(edited.as_str()))
        .expect("edit parses");
    assert_eq!(edit.stats.changed_functions, vec!["f".to_string()]);
    let incremental = engine.analyze_with_ctx(&edit.ctx, false).diagnostics_json();

    let fresh = parse_program(&edited).expect("edited source parses");
    let batch = ivy::core::experiments::default_engine(0)
        .analyze(&fresh)
        .diagnostics_json();
    assert!(
        batch.contains("deputy/"),
        "batch reports the undeclared bound: {batch}"
    );
    assert_eq!(incremental, batch);
}

/// Deputy's per-function reports read the type environment, so an edit
/// that changes it carries none of them (nor any other durable entry)
/// into the edited context.
#[test]
fn an_env_changing_edit_carries_no_durable_entry() {
    let program = KernelBuild::generate(&KernelConfig::small()).program;
    let engine = kernel_engine();
    engine.analyze(&program);
    let (ctx, _) = engine.context_for(&program);

    let mut edited = program.clone();
    let probe = parse_program("fn env_probe() { }").expect("probe parses");
    edited.functions.push(probe.functions[0].clone());
    let (_, stats) = engine.apply_edit(&ctx, &edited);
    assert!(stats.env_changed, "a new signature changes the environment");
    assert!(stats.invalidated > 0, "the analyzed context held results");
    assert_eq!(stats.revalidated, 0, "{stats:?}");
}

/// A function-level edit shares every untouched function and the whole
/// environment with its base: the new context's program holds the base's
/// own `Arc`s, and only the edited function is a new allocation.
#[test]
fn a_function_level_edit_shares_every_untouched_item_with_its_base() {
    let source = pretty_program(&KernelBuild::generate(&KernelConfig::small()).program);
    let engine = kernel_engine();
    let base = parse_program(&source).expect("kernel parses");
    let (ctx, _) = engine.context_for_source(base, Arc::from(source.as_str()));
    engine.analyze_with_ctx(&ctx, false);

    let edited = mutate(&ctx.program, 1, 3, 1);
    let changed = (0..edited.functions.len())
        .find(|&i| edited.functions[i] != ctx.program.functions[i])
        .expect("the mutation changed a function");
    let edit = engine
        .apply_source_edit(&ctx, Arc::from(pretty_program(&edited).as_str()))
        .expect("edit parses");
    assert_eq!(edit.reparse, Some(ReparsePath::Function(changed)));

    let (old, new) = (&ctx.program, &edit.ctx.program);
    assert!(Arc::ptr_eq(&old.composites, &new.composites));
    assert!(Arc::ptr_eq(&old.typedefs, &new.typedefs));
    assert!(Arc::ptr_eq(&old.globals, &new.globals));
    assert_eq!(old.functions.len(), new.functions.len());
    for (i, (a, b)) in old
        .functions
        .arcs()
        .iter()
        .zip(new.functions.arcs())
        .enumerate()
    {
        assert_eq!(Arc::ptr_eq(a, b), i != changed, "function {i} ({})", a.name);
    }
}

/// `Engine::analyze(&p)` keeps `p`'s own functions in the resident
/// context rather than copies of them.
#[test]
fn analyze_holds_the_callers_functions_without_copying_them() {
    let program = KernelBuild::generate(&KernelConfig::small()).program;
    let engine = kernel_engine();
    engine.analyze(&program);
    let (ctx, reused) = engine.context_for(&program);
    assert!(reused, "analyze left the context resident");
    assert!(Arc::ptr_eq(&ctx.program.globals, &program.globals));
    assert!(program
        .functions
        .arcs()
        .iter()
        .zip(ctx.program.functions.arcs())
        .all(|(a, b)| Arc::ptr_eq(a, b)));
}

/// A kernel fragment whose functions each draw a diagnostic from a
/// different checker: `raw_free` frees an untyped pointer (CCount), `g`
/// allocates under a spinlock (BlockStop), and `walks` indexes a pointer
/// (Deputy).
const LINE_SHIFT: &str = r#"
#[allocator] #[blocking_if(flags)]
extern fn kmalloc(size: u32, flags: u32) -> void *;
extern fn kfree(p: void *);
extern fn spin_lock_irqsave(l: u32 *);

global lk: u32 = 0;

fn e(len: u32) -> u32 {
    return len;
}

fn cast(x: u32) -> u32 * {
    return x as u32 *;
}

fn raw_free(p: void *) {
    kfree(p);
}

fn g() {
    spin_lock_irqsave(&lk);
    let buf: void * = kmalloc(8, 0x10);
    return;
}

fn walks(p: u32 *, n: u32) -> u32 {
    return p[n];
}
"#;

/// An edit that moves every later function down three lines leaves their
/// content unchanged, yet the daemon's incremental answer must carry the
/// new lines, exactly as a fresh batch run of the edited source does.
#[test]
fn a_line_shifting_edit_matches_batch() {
    let engine = ivy::core::experiments::default_engine(0);
    let base = parse_program(LINE_SHIFT).expect("base parses");
    let (ctx, _) = engine.context_for_source(base, Arc::from(LINE_SHIFT));
    engine.analyze_with_ctx(&ctx, false);

    let edited = LINE_SHIFT.replacen(
        "    return len;",
        "    let x: u32 = 1;\n\n\n    return len;",
        1,
    );
    let edit = engine
        .apply_source_edit(&ctx, Arc::from(edited.as_str()))
        .expect("edit parses");
    assert_eq!(edit.stats.changed_functions, vec!["e".to_string()]);
    let incremental = engine.analyze_with_ctx(&edit.ctx, false).diagnostics_json();

    let fresh = parse_program(&edited).expect("edited source parses");
    let batch = ivy::core::experiments::default_engine(0)
        .analyze(&fresh)
        .diagnostics_json();
    for code in [
        "ccount/untyped-free",
        "blockstop/atomic-call",
        "deputy/instrumentation",
        "deputy/type-error",
    ] {
        assert!(batch.contains(code), "batch reports {code}: {batch}");
    }
    assert_eq!(incremental, batch);
}

/// Blank lines inside functions whose content is unchanged move their
/// statements relative to the function's start, and blank lines above
/// every function move every item: the daemon's incremental answer must
/// carry the new lines, exactly as a fresh batch run of the edited
/// source does. Each function's layout hash is part of the keys of its
/// carried entries and of the program identity.
#[test]
fn blank_lines_inside_unchanged_functions_match_batch() {
    let inside = LINE_SHIFT
        .replacen("    return len;", "    return len + 1;", 1)
        .replacen(
            "fn cast(x: u32) -> u32 * {\n",
            "fn cast(x: u32) -> u32 * {\n\n\n",
            1,
        )
        .replacen(
            "    spin_lock_irqsave(&lk);\n",
            "    spin_lock_irqsave(&lk);\n\n",
            1,
        );
    let above = format!("\n\n\n{LINE_SHIFT}");
    for (case, edited) in [("inside", inside), ("above", above)] {
        let engine = ivy::core::experiments::default_engine(0);
        let base = parse_program(LINE_SHIFT).expect("base parses");
        let (ctx, _) = engine.context_for_source(base, Arc::from(LINE_SHIFT));
        engine.analyze_with_ctx(&ctx, false);
        let edit = engine
            .apply_source_edit(&ctx, Arc::from(edited.as_str()))
            .expect("edit parses");
        assert!(
            !Arc::ptr_eq(&edit.ctx, &ctx),
            "{case}: a moved line is a new program state"
        );
        let incremental = engine.analyze_with_ctx(&edit.ctx, false).diagnostics_json();

        let fresh = parse_program(&edited).expect("edited source parses");
        let batch = ivy::core::experiments::default_engine(0)
            .analyze(&fresh)
            .diagnostics_json();
        for code in ["blockstop/atomic-call", "deputy/type-error"] {
            assert!(
                batch.contains(code),
                "{case}: batch reports {code}: {batch}"
            );
        }
        assert_eq!(incremental, batch, "{case}");
    }
}

/// A one-literal edit walks one body: analyzing the edited context
/// computes exactly one `engine/fn-facts` entry, the edited function's,
/// and carries every other function's entry from its base.
#[test]
fn a_one_literal_edit_walks_one_body() {
    let program = KernelBuild::generate(&KernelConfig::small()).program;
    let engine = ivy::core::experiments::default_engine(0);
    engine.analyze(&program);
    let (base, _) = engine.context_for(&program);
    let edited = mutate(&program, 1, 7, 1);
    let (ctx, stats) = engine.apply_edit(&base, &edited);
    assert_eq!(stats.changed_functions.len(), 1, "one function per edit");
    engine.analyze_with_ctx(&ctx, false);

    let functions = edited.functions.len();
    let edited_at: Vec<usize> = (0..functions)
        .filter(|&i| !Arc::ptr_eq(&program.functions.arcs()[i], &edited.functions.arcs()[i]))
        .collect();
    let walked: Vec<usize> = (0..functions)
        .filter(|&i| {
            let key = i as u64;
            let old = base
                .peek::<FnFactsQuery>(&key)
                .expect("the base analyze walked every function");
            let new = ctx
                .peek::<FnFactsQuery>(&key)
                .expect("analyze reads every function's facts");
            !Arc::ptr_eq(&old, &new)
        })
        .collect();
    assert_eq!(edited_at.len(), 1);
    assert_eq!(walked, edited_at, "only the edited body is walked again");
}

/// A literal edit leaves every points-to constraint batch equal to its
/// base's, so the edited context shares the base's live solve, and its
/// answer is byte-identical to a batch run of the edited kernel.
#[test]
fn a_literal_edit_reuses_the_solve_and_matches_batch() {
    let program = KernelBuild::generate(&KernelConfig::paper()).program;
    let engine = ivy::core::experiments::default_engine(0);
    engine.analyze(&program);
    let (base, _) = engine.context_for(&program);
    let edited = mutate(&program, 1, 11, 3);
    let (ctx, stats) = engine.apply_edit(&base, &edited);
    assert_eq!(stats.changed_functions.len(), 1, "one function per edit");
    let report = engine.analyze_with_ctx(&ctx, false);
    assert_eq!(report.stats.pointsto_solve_mode, "reused");
    assert_eq!(report.stats.pointsto_batches_generated, 1);
    assert_eq!(engine.pointsto_cache().solves_reused(), 1);
    assert_eq!(engine.pointsto_cache().live_solves(), 1);

    let batch = ivy::core::experiments::default_engine(0).analyze(&edited);
    assert_eq!(batch.stats.pointsto_solve_mode, "cold");
    assert_eq!(report.diagnostics_json(), batch.diagnostics_json());
}
