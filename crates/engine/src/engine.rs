//! The engine: checker plugins run per function over one shared query db.
//!
//! [`Engine::analyze`] visits each function name once, in program order,
//! on the calling thread, and runs every registered checker over it. Each
//! checker reads its per-function facts through queries, so the db's
//! content keys alone decide what a run recomputes. No checker reads a
//! callee's body, so functions need no call-graph order. Analysis contexts
//! themselves are reused across runs of structurally equal programs, so
//! the pipeline's analyze→fix→re-analyze loop stops paying for points-to
//! and call-graph construction twice.

use crate::checker::{sensitivity_rank, Checker};
use crate::diag::{Diagnostic, EngineStats, Report};
use crate::persist::PersistLayer;
use crate::query::{InvalidationStats, Pointsto};
use crate::AnalysisCtx;
use ivy_analysis::pointsto::{ConstraintCache, Sensitivity};
use ivy_cmir::ast::Program;
use ivy_cmir::content::ProgramHashes;
use ivy_cmir::parser::{parse_program, reparse, ReparsePath, Reparsed};
use ivy_cmir::CmirError;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Default maximum number of analysis contexts kept resident for reuse.
const CTX_CACHE_CAP: usize = 16;

/// A shareable LRU store of analysis contexts, keyed by program hash.
/// Several engines (e.g. the stages of a pipeline, or every daemon
/// connection) share one store so a program analyzed by any of them hands
/// its memoized artifacts to all.
///
/// Residency is capped: beyond the capacity the least-recently-used
/// context is evicted (each slot anchors a program's whole memo table, so
/// an uncapped store grows without bound in a long-lived
/// daemon). The seed behaviour — clearing the whole map when full — threw
/// away every hot context whenever one cold program arrived.
pub struct CtxStore {
    inner: Mutex<CtxStoreInner>,
    capacity: usize,
}

#[derive(Default)]
struct CtxStoreInner {
    /// hash → (context, last-use stamp).
    slots: HashMap<u64, (Arc<AnalysisCtx>, u64)>,
    tick: u64,
    evictions: u64,
    hits: u64,
    misses: u64,
}

impl Default for CtxStore {
    fn default() -> Self {
        CtxStore::new()
    }
}

impl CtxStore {
    /// A store with the default capacity (16 resident programs).
    pub fn new() -> CtxStore {
        CtxStore::with_capacity(CTX_CACHE_CAP)
    }

    /// A store holding at most `capacity` contexts (min 1).
    pub fn with_capacity(capacity: usize) -> CtxStore {
        CtxStore {
            inner: Mutex::new(CtxStoreInner::default()),
            capacity: capacity.max(1),
        }
    }

    /// Most contexts the store keeps resident.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident contexts.
    pub fn len(&self) -> usize {
        self.lock().slots.len()
    }

    /// True when no context is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Contexts evicted over the store's lifetime.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Lookups served by a resident context over the store's lifetime
    /// (counts [`CtxStore::get`] and [`CtxStore::get_or_insert_with`]).
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Lookups that found no resident context over the store's lifetime.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// True when a context for `hash` is resident (does not touch
    /// recency).
    pub fn contains(&self, hash: u64) -> bool {
        self.lock().slots.contains_key(&hash)
    }

    /// The resident context for `hash`, bumping its recency.
    pub fn get(&self, hash: u64) -> Option<Arc<AnalysisCtx>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner.slots.get_mut(&hash).map(|(ctx, stamp)| {
            *stamp = tick;
            Arc::clone(ctx)
        });
        if found.is_some() {
            inner.hits += 1;
        } else {
            inner.misses += 1;
        }
        found
    }

    /// Returns the resident context for `hash`, or builds one with `make`
    /// and inserts it (evicting the least-recently-used context beyond
    /// capacity). The second element is true on a hit. The lock is held
    /// across `make`, so concurrent engines never build duplicate
    /// contexts for one program.
    pub fn get_or_insert_with(
        &self,
        hash: u64,
        make: impl FnOnce() -> Arc<AnalysisCtx>,
    ) -> (Arc<AnalysisCtx>, bool) {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(found) = inner.slots.get_mut(&hash).map(|(ctx, stamp)| {
            *stamp = tick;
            Arc::clone(ctx)
        }) {
            inner.hits += 1;
            return (found, true);
        }
        inner.misses += 1;
        let ctx = make();
        let evicted = inner.evict_beyond(self.capacity - 1);
        inner.slots.insert(hash, (Arc::clone(&ctx), tick));
        drop(inner);
        release(evicted);
        (ctx, false)
    }

    /// Inserts (or refreshes) a context, evicting LRU entries beyond
    /// capacity.
    pub fn insert(&self, hash: u64, ctx: Arc<AnalysisCtx>) {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(slot) = inner.slots.get_mut(&hash) {
            let replaced = std::mem::replace(slot, (ctx, tick));
            drop(inner);
            drop(replaced);
            return;
        }
        let evicted = inner.evict_beyond(self.capacity - 1);
        inner.slots.insert(hash, (ctx, tick));
        drop(inner);
        release(evicted);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CtxStoreInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl CtxStoreInner {
    /// Evicts least-recently-used slots until at most `keep` remain and
    /// returns them, for the caller to drop after unlocking.
    fn evict_beyond(&mut self, keep: usize) -> Vec<Arc<AnalysisCtx>> {
        let mut evicted = Vec::new();
        while self.slots.len() > keep {
            let Some((&victim, _)) = self.slots.iter().min_by_key(|(_, (_, stamp))| *stamp) else {
                break;
            };
            evicted.extend(self.slots.remove(&victim).map(|(ctx, _)| ctx));
            self.evictions += 1;
        }
        evicted
    }
}

/// Drops evicted contexts outside the store lock. A context anchors a
/// program's whole memo table, so freeing one takes milliseconds; under
/// the lock that would stall every concurrent lookup.
fn release(evicted: Vec<Arc<AnalysisCtx>>) {
    if !evicted.is_empty() {
        let _span = ivy_telemetry::span("engine/ctx", "evict");
        drop(evicted);
    }
}

/// What [`Engine::apply_source_edit`] did.
pub struct SourceEdit {
    /// The context of the edited program (the base itself for an edit
    /// that leaves the program structurally unchanged).
    pub ctx: Arc<AnalysisCtx>,
    /// What the edit invalidated and what survived.
    pub stats: InvalidationStats,
    /// How the edited source was parsed: `None` when it is the base's
    /// recorded text byte for byte, so nothing was parsed.
    pub reparse: Option<ReparsePath>,
}

/// The analysis engine. Cheap to clone the configuration of (checkers,
/// the context store and the constraint cache are shared `Arc`s).
pub struct Engine {
    checkers: Vec<Arc<dyn Checker>>,
    ctx_store: Arc<CtxStore>,
    pts_cache: Arc<ConstraintCache>,
    persist: Option<Arc<PersistLayer>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with no checkers and fresh shared state.
    pub fn new() -> Engine {
        Engine {
            checkers: Vec::new(),
            ctx_store: Arc::new(CtxStore::new()),
            pts_cache: Arc::new(ConstraintCache::new()),
            persist: None,
        }
    }

    /// Kept only because `perfbench` still calls it. An engine records no
    /// derivations (a traced solve is its own `pointsto::analyze_with`
    /// call), so `on` must be false.
    #[doc(hidden)]
    pub fn with_provenance(self, on: bool) -> Engine {
        assert!(!on, "engines record no derivations; run a traced solve");
        self
    }

    /// Kept only because `perfbench` still calls it: always false.
    #[doc(hidden)]
    pub fn provenance_enabled(&self) -> bool {
        false
    }

    /// Registers a checker plugin (builder style).
    pub fn with_checker(mut self, checker: Arc<dyn Checker>) -> Engine {
        self.checkers.push(checker);
        self
    }

    /// Kept only because `perfbench` still calls it: does nothing. An
    /// engine has no diagnostic cache; the query db decides reuse.
    #[doc(hidden)]
    pub fn with_cache<T>(self, _: T) -> Engine {
        self
    }

    /// Shares an existing context store (see [`CtxStore`]).
    pub fn with_ctx_store(mut self, store: Arc<CtxStore>) -> Engine {
        self.ctx_store = store;
        self
    }

    /// Shares an existing points-to constraint cache (e.g. across the
    /// engines of a pipeline), so every program state solves points-to
    /// incrementally from the batches its siblings already generated.
    pub fn with_pointsto_cache(mut self, cache: Arc<ConstraintCache>) -> Engine {
        self.pts_cache = cache;
        self
    }

    /// Attaches a cross-process persist layer: every durable query result
    /// spills to it, and later runs — in this process or another — are
    /// served from it. Engine runs flush the layer when they finish.
    pub fn with_persist(mut self, persist: Arc<PersistLayer>) -> Engine {
        self.persist = Some(persist);
        self
    }

    /// The engine's persist layer, if one is attached.
    pub fn persist(&self) -> Option<Arc<PersistLayer>> {
        self.persist.clone()
    }

    /// The engine's points-to constraint cache.
    pub fn pointsto_cache(&self) -> Arc<ConstraintCache> {
        Arc::clone(&self.pts_cache)
    }

    /// Kept only because `perfbench` still calls it: does nothing.
    #[doc(hidden)]
    pub fn cache(&self) {}

    /// The engine's context store.
    pub fn ctx_store(&self) -> Arc<CtxStore> {
        Arc::clone(&self.ctx_store)
    }

    /// The registered checkers.
    pub fn checkers(&self) -> &[Arc<dyn Checker>] {
        &self.checkers
    }

    /// The most precise points-to sensitivity any registered checker
    /// requires; the precision whose points-to statistics a report
    /// carries.
    pub fn required_sensitivity(&self) -> Sensitivity {
        self.checkers
            .iter()
            .map(|c| c.sensitivity())
            .max_by_key(|s| sensitivity_rank(*s))
            .unwrap_or(Sensitivity::Steensgaard)
    }

    /// Returns the shared analysis context for a program, reusing the one
    /// from a previous run when the program is structurally equal up to
    /// spans. The program's [`ProgramHashes`] are computed once, before
    /// the store lookup; on a miss they move into the new context, with a
    /// clone of `program` that shares every item with it.
    pub fn context_for(&self, program: &Program) -> (Arc<AnalysisCtx>, bool) {
        let hashes = ProgramHashes::of(program);
        self.ctx_store.get_or_insert_with(hashes.program, || {
            Arc::new(self.new_ctx(program.clone(), hashes))
        })
    }

    /// [`Engine::context_for`] for a program parsed from `source`. On a
    /// miss the program moves into the new context, which records
    /// `source` as the text later edits re-parse against (see
    /// [`Engine::apply_source_edit`]).
    pub fn context_for_source(
        &self,
        program: Program,
        source: Arc<str>,
    ) -> (Arc<AnalysisCtx>, bool) {
        let hashes = ProgramHashes::of(&program);
        self.ctx_store.get_or_insert_with(hashes.program, || {
            Arc::new(self.new_ctx(program, hashes).with_source(source))
        })
    }

    fn new_ctx(&self, program: Program, hashes: ProgramHashes) -> AnalysisCtx {
        AnalysisCtx::with_hashes(program, hashes)
            .with_pointsto_cache(Arc::clone(&self.pts_cache))
            .with_persist(self.persist.clone())
    }

    /// Analyzes a program with every registered checker.
    pub fn analyze(&self, program: &Program) -> Report {
        let (ctx, reused) = self.context_for(program);
        self.analyze_with_ctx(&ctx, reused)
    }

    /// Applies an edited program against a resident context: every
    /// memoized result whose content key is unchanged for the edited
    /// program is carried into a context for it (see
    /// [`AnalysisCtx::apply_edit`]), and that context is registered in the
    /// store so the next [`Engine::analyze`] of the edited program starts
    /// from it. Returns the new context and what the edit invalidated. A
    /// no-op edit returns the base context unchanged. Analyses of the base
    /// context may run concurrently.
    ///
    /// The edited program is hashed exactly once (the `engine/edit`
    /// `identity` span); the base context's stored hashes are the other
    /// side of the diff. The new context holds a clone of `edited`, which
    /// shares every item with it; [`Engine::apply_source_edit`] is the
    /// same path for an edit given as source text.
    pub fn apply_edit(
        &self,
        base: &Arc<AnalysisCtx>,
        edited: &Program,
    ) -> (Arc<AnalysisCtx>, InvalidationStats) {
        let identity_span = ivy_telemetry::span("engine/edit", "identity");
        let hashes = ProgramHashes::of(edited);
        drop(identity_span);
        self.apply_hashed(base, edited.clone(), hashes, None)
    }

    /// The daemon's `notify_edit` path: applies `source`, the full text
    /// of an edited program, against the base context. `source` is
    /// re-parsed against the base's recorded text with
    /// [`reparse`], so an edit inside one function lexes and
    /// parses only that function and hashes only its content; a base
    /// without recorded text parses `source` whole. The edited program
    /// moves into the new context, which records `source`. A parse error
    /// is `parse_program`'s error for `source`.
    pub fn apply_source_edit(
        &self,
        base: &Arc<AnalysisCtx>,
        source: Arc<str>,
    ) -> Result<SourceEdit, CmirError> {
        if base.source().is_some_and(|text| **text == *source) {
            return Ok(SourceEdit {
                ctx: Arc::clone(base),
                stats: InvalidationStats::default(),
                reparse: None,
            });
        }
        let parse_span = ivy_telemetry::span("engine/edit", "parse");
        let Reparsed { program, path } = match base.source() {
            Some(text) => reparse(text, &base.program, &source)?,
            None => Reparsed {
                program: parse_program(&source)?,
                path: ReparsePath::Full,
            },
        };
        drop(parse_span);
        let identity_span = ivy_telemetry::span("engine/edit", "identity");
        let hashes = match path {
            ReparsePath::Function(index) => {
                base.hashes().with_function(&base.program, &program, index)
            }
            ReparsePath::Full => ProgramHashes::of(&program),
        };
        drop(identity_span);
        let (ctx, stats) = self.apply_hashed(base, program, hashes, Some(source));
        Ok(SourceEdit {
            ctx,
            stats,
            reparse: Some(path),
        })
    }

    /// The edit path both entry points share: diff, carry, register.
    fn apply_hashed(
        &self,
        base: &Arc<AnalysisCtx>,
        edited: Program,
        hashes: ProgramHashes,
        source: Option<Arc<str>>,
    ) -> (Arc<AnalysisCtx>, InvalidationStats) {
        if hashes.program == base.program_hash {
            return (Arc::clone(base), InvalidationStats::default());
        }
        let (ctx, stats) = base.apply_edit(edited, hashes);
        let ctx = Arc::new(match source {
            Some(source) => ctx.with_source(source),
            None => ctx,
        });
        self.ctx_store.insert(ctx.program_hash, Arc::clone(&ctx));
        (ctx, stats)
    }

    /// Analyzes an already-constructed context: every checker's
    /// `check_program`, then its `check_function` for each function name.
    /// The run's stats count the query traffic the checkers caused on
    /// `ctx`. `ctx_reused` is only recorded in the stats.
    pub fn analyze_with_ctx(&self, ctx: &Arc<AnalysisCtx>, ctx_reused: bool) -> Report {
        let _analyze_span = ivy_telemetry::span(
            "engine/analyze",
            format!("analyze:{:016x}", ctx.program_hash),
        );
        let before = ctx.query_stats();
        let mut diagnostics: Vec<Diagnostic> = Vec::new();

        // Program-level diagnostics (composite/global annotation errors and
        // the like) belong to no function.
        for checker in &self.checkers {
            diagnostics.extend(checker.check_program(ctx));
        }

        let functions = &ctx.program.functions;
        let wave_span = ivy_telemetry::span("engine/wave", format!("{} fns", functions.len()));
        for func in functions.first_definitions() {
            for checker in &self.checkers {
                // Built only when spans record: this runs for every
                // (function, checker) on every analyze.
                let check_span = ivy_telemetry::spans_enabled().then(|| {
                    ivy_telemetry::span(
                        "engine/checker",
                        format!("{}:{}", checker.name(), func.name),
                    )
                });
                let check_start = check_span.is_some().then(std::time::Instant::now);
                diagnostics.extend(checker.check_function(ctx, func));
                drop(check_span);
                if let Some(start) = check_start {
                    ivy_telemetry::counter_labeled(
                        "ivy_checker_micros_total",
                        "checker",
                        checker.name(),
                        start.elapsed().as_micros() as u64,
                    );
                }
            }
        }
        drop(wave_span);
        let traffic = ctx.query_stats();

        // Points-to substrate statistics, peeked rather than demanded: a
        // run served entirely from the persist layer never solves
        // points-to, and forcing a solve just for the stats would throw
        // the warm start away. For a reused context the numbers describe
        // the run that first built the result.
        let pts = ctx.peek::<Pointsto>(&self.required_sensitivity());
        let mut stats = EngineStats {
            functions: ctx.program.functions.len(),
            checkers: self.checkers.len(),
            cache_hits: traffic.memo_hits - before.memo_hits,
            cache_misses: traffic.computed - before.computed,
            persist_hits: traffic.persist_hits - before.persist_hits,
            persist_misses: traffic.persist_misses - before.persist_misses,
            ctx_reused,
            ..EngineStats::default()
        };
        if let Some(pts) = pts {
            stats.pointsto_initial_constraints = pts.initial_constraints;
            stats.pointsto_constraints = pts.constraint_count;
            stats.pointsto_batches_reused = pts.batches_reused;
            stats.pointsto_batches_generated = pts.batches_generated;
            stats.pointsto_solve_mode = pts.mode.name().to_string();
        }
        // Make this run's results durable before handing the report back.
        if let Some(layer) = &self.persist {
            if let Err(err) = layer.flush() {
                stats.persist_flush_errors += 1;
                ivy_telemetry::counter("ivy_engine_persist_flush_errors_total", 1);
                // Log the first failure per process; the counter (and the
                // per-run stat) keeps recording the rest without spamming a
                // long-lived daemon's stderr on a full or read-only disk.
                static FLUSH_ERROR_LOGGED: std::sync::Once = std::sync::Once::new();
                FLUSH_ERROR_LOGGED
                    .call_once(|| eprintln!("ivy-engine: persist flush failed: {err}"));
            }
            // After the flush so this run's compaction is included.
            stats.persist_pruned = layer.pruned();
        }
        Report::new(diagnostics, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{DurableQuery, Query};
    use ivy_cmir::ast::Function;
    use ivy_cmir::parser::parse_program;

    fn program_named(i: usize) -> Program {
        parse_program(&format!("fn f{i}() -> u32 {{ return {i}; }}")).unwrap()
    }

    #[test]
    fn ctx_store_evicts_in_lru_order() {
        let store = CtxStore::with_capacity(3);
        let engine = Engine::new().with_ctx_store(Arc::new(store));
        let programs: Vec<Program> = (0..4).map(program_named).collect();
        let hashes: Vec<u64> = programs.iter().map(AnalysisCtx::hash_program).collect();

        for p in &programs[..3] {
            engine.context_for(p);
        }
        assert_eq!(engine.ctx_store().len(), 3);
        assert_eq!(engine.ctx_store().evictions(), 0);

        // Touch the oldest so it is no longer the LRU victim.
        let (_, hit) = engine.context_for(&programs[0]);
        assert!(hit);

        // Inserting a fourth evicts exactly the least-recently-used
        // context (program 1), not the whole store and not program 0.
        engine.context_for(&programs[3]);
        let store = engine.ctx_store();
        assert_eq!(store.len(), 3);
        assert_eq!(engine.ctx_store().evictions(), 1);
        assert!(store.contains(hashes[0]), "recently-touched survives");
        assert!(!store.contains(hashes[1]), "LRU slot evicted");
        assert!(store.contains(hashes[2]));
        assert!(store.contains(hashes[3]));

        // Eviction does not break reuse: a resident program is a hit.
        let (_, hit) = engine.context_for(&programs[2]);
        assert!(hit);
        // An evicted program rebuilds (miss) and evicts the next LRU.
        let (_, hit) = engine.context_for(&programs[1]);
        assert!(!hit);
        assert_eq!(engine.ctx_store().evictions(), 2);
    }

    #[test]
    fn ctx_store_counts_hits_and_misses() {
        let store = Arc::new(CtxStore::with_capacity(4));
        let engine = Engine::new().with_ctx_store(Arc::clone(&store));
        let program = program_named(0);
        engine.context_for(&program); // miss
        engine.context_for(&program); // hit
        assert_eq!(store.misses(), 1);
        assert_eq!(store.hits(), 1);
        // Plain `get` counts too.
        assert!(store.get(AnalysisCtx::hash_program(&program)).is_some());
        assert!(store.get(0xdead_beef).is_none());
        assert_eq!(store.hits(), 2);
        assert_eq!(store.misses(), 2);
    }

    /// A durable query whose results persist under `probe/durable`.
    struct ProbeQuery;

    impl Query for ProbeQuery {
        type Key = String;
        type Value = u64;
        const NAME: &'static str = "probe/durable";
        fn compute(_db: &AnalysisCtx, key: &String) -> u64 {
            key.len() as u64
        }
    }

    impl DurableQuery for ProbeQuery {
        const FORMAT_VERSION: u32 = 1;
        fn encode(value: &u64) -> serde_json::Value {
            serde_json::Value::from(*value)
        }
        fn decode(raw: &serde_json::Value) -> Option<u64> {
            raw.as_u64()
        }
    }

    /// A checker that finds nothing, reading one durable fact per
    /// function.
    struct Probe;

    impl Checker for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn check_function(&self, ctx: &AnalysisCtx, func: &Function) -> Vec<Diagnostic> {
            ctx.get_durable::<ProbeQuery>(&func.name);
            Vec::new()
        }
    }

    #[test]
    fn flush_io_errors_surface_in_engine_stats() {
        let root = std::env::temp_dir().join(format!("ivy-flush-err-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        // Make the probe query's namespace unwritable: occupy its shard
        // *directory* path with a plain file so the flush's
        // `create_dir_all` fails even when the test runs as root (a
        // read-only mode bit alone would not stop uid 0), and drop the
        // root's write bit for unprivileged runs.
        std::fs::write(root.join("probe-durable"), "not a directory").unwrap();
        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            let _ = std::fs::set_permissions(&root, std::fs::Permissions::from_mode(0o555));
        }

        let layer = Arc::new(PersistLayer::open(&root).expect("existing dir opens"));
        let engine = Engine::new()
            .with_checker(Arc::new(Probe))
            .with_persist(layer);
        let report = engine.analyze(&program_named(0));
        assert_eq!(
            report.stats.persist_flush_errors, 1,
            "a failed flush must be visible in the run stats"
        );

        // A healthy layer reports zero.
        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            let _ = std::fs::set_permissions(&root, std::fs::Permissions::from_mode(0o755));
        }
        let _ = std::fs::remove_dir_all(&root);
        let layer = Arc::new(PersistLayer::open(&root).unwrap());
        let engine = Engine::new()
            .with_checker(Arc::new(Probe))
            .with_persist(layer);
        let report = engine.analyze(&program_named(1));
        assert_eq!(report.stats.persist_flush_errors, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn apply_edit_registers_through_the_lru_store() {
        let store = Arc::new(CtxStore::with_capacity(2));
        let engine = Engine::new().with_ctx_store(Arc::clone(&store));
        let base_p = program_named(0);
        let (base, _) = engine.context_for(&base_p);
        let edited = program_named(1);
        let (ctx, _) = engine.apply_edit(&base, &edited);
        assert_eq!(ctx.program_hash, AnalysisCtx::hash_program(&edited));
        assert_eq!(store.len(), 2);
        // A third program evicts the LRU (the base).
        engine.context_for(&program_named(2));
        assert_eq!(store.evictions(), 1);
        assert!(!store.contains(base.program_hash));
    }
}
