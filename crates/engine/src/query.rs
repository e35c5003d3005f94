//! The typed, demand-driven query subsystem.
//!
//! Everything an analysis can ask for — points-to results and
//! checker-owned precomputations — is a [`Query`]: a unit
//! type naming the artifact, a typed [`Query::Key`], a typed
//! [`Query::Value`], and a `compute` function that derives the value from
//! the [`QueryDb`] on first demand. The db memoizes per `(query type,
//! key)` and stores each result under its [`Query::content_key`]: a hash
//! of everything the result was computed from. One rule decides what an
//! edit keeps — [`QueryDb::apply_edit`] carries exactly the entries whose
//! content key is unchanged for the edited program — and queries that opt
//! into [`DurableQuery`] spill their results to the cross-process
//! [`PersistLayer`](crate::persist::PersistLayer) under the same key and
//! reload them in later processes.
//!
//! This replaces the seed engine's string-keyed `Any` memo table
//! (`AnalysisCtx::memo`). That API had a panic class built in: two checkers
//! (or one checker in two places) using the same string key with different
//! types would `downcast` across types and panic at run time. Typed queries
//! make the confusion unrepresentable: the memo table is keyed by the
//! query's [`TypeId`], so even two query types with *identical* `NAME`
//! strings cannot alias each other's slots, and the value type is fixed by
//! the trait impl rather than inferred at the call site:
//!
//! ```compile_fail
//! use ivy_engine::query::{Query, QueryDb};
//! use ivy_engine::query::Pointsto;
//! use ivy_analysis::pointsto::Sensitivity;
//! # use ivy_cmir::parser::parse_program;
//! let db = QueryDb::new(&parse_program("fn f() { }").unwrap());
//! // The old `ctx.memo::<String>("pointsto/steensgaard", ...)` would have
//! // compiled and panicked at run time on the type confusion. The typed
//! // query API rejects the wrong value type at compile time:
//! let s: std::sync::Arc<String> = db.get::<Pointsto>(&Sensitivity::Steensgaard);
//! ```

use crate::persist::PersistLayer;
use ivy_analysis::pointsto::{self, ConstraintCache, PointsToResult, Sensitivity, SolveOptions};
use ivy_analysis::summary::{fnv1a, mix};
use ivy_cmir::ast::Program;
use ivy_cmir::content::ProgramHashes;
use ivy_cmir::facts::FnFacts;
use serde_json::Value;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A key a query can be demanded at.
///
/// `stable_hash` must be deterministic across processes (no `std::hash`
/// randomization) — it is the memo-slot index and part of the default
/// [`Query::content_key`], which is also the on-disk key of a
/// [`DurableQuery`] entry.
pub trait QueryKey: Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Process-independent hash of the key.
    fn stable_hash(&self) -> u64;
}

impl QueryKey for () {
    fn stable_hash(&self) -> u64 {
        fnv1a(b"unit")
    }
}

impl QueryKey for u64 {
    fn stable_hash(&self) -> u64 {
        mix(fnv1a(b"u64"), *self)
    }
}

impl QueryKey for String {
    fn stable_hash(&self) -> u64 {
        fnv1a(self.as_bytes())
    }
}

impl QueryKey for Sensitivity {
    fn stable_hash(&self) -> u64 {
        fnv1a(self.name().as_bytes())
    }
}

impl<A: QueryKey, B: QueryKey> QueryKey for (A, B) {
    fn stable_hash(&self) -> u64 {
        mix(self.0.stable_hash(), self.1.stable_hash())
    }
}

impl<A: QueryKey, B: QueryKey, C: QueryKey> QueryKey for (A, B, C) {
    fn stable_hash(&self) -> u64 {
        mix(
            mix(self.0.stable_hash(), self.1.stable_hash()),
            self.2.stable_hash(),
        )
    }
}

/// A typed, memoized, demand-driven computation over a [`QueryDb`].
///
/// Implementors are unit types; the db computes `Q::compute(db, key)` at
/// most once per `(Q, key)` and shares the `Arc`'d result. `compute` may
/// demand other queries through the db.
pub trait Query: 'static {
    /// Key type this query is demanded at.
    type Key: QueryKey;
    /// Result type.
    type Value: Send + Sync + 'static;
    /// Stable human-readable name (`"<owner>/<artifact>"` by convention).
    /// Used in telemetry and as the persistence namespace; *not* used for
    /// memo addressing (the [`TypeId`] is), so two query types with
    /// colliding names still cannot alias.
    const NAME: &'static str;
    /// Computes the value for a key. Must be deterministic in `(db, key)`.
    fn compute(db: &QueryDb, key: &Self::Key) -> Self::Value;

    /// The entry's content key: a hash of everything `compute` reads for
    /// `key` in `db`, transitively. Equal keys must guarantee equal values
    /// across program states and processes: [`QueryDb::apply_edit`]
    /// carries an entry into the edited db exactly when its key is
    /// unchanged there, and a [`DurableQuery`] is stored on disk under it.
    ///
    /// The default anchors the entry to the whole program, so a query
    /// that declares nothing is never carried across a program change. A
    /// query that reads less overrides it with the stored hashes it
    /// depends on ([`QueryDb::fn_content`], [`QueryDb::env_hash`]); a key
    /// function must not demand queries.
    fn content_key(db: &QueryDb, key: &Self::Key) -> u64 {
        mix(db.program_hash, key.stable_hash())
    }
}

/// A [`Query`] whose results additionally spill to the cross-process
/// [`PersistLayer`] (when one is attached to the db) and are reloaded from
/// disk in later processes instead of being recomputed. The on-disk key is
/// the entry's [`Query::content_key`].
pub trait DurableQuery: Query {
    /// Version of the encoded representation; bumping it invalidates every
    /// persisted entry of this query (old files are ignored, not read).
    const FORMAT_VERSION: u32;

    /// Encodes a value for persistence.
    fn encode(value: &Self::Value) -> Value;

    /// Decodes a persisted value; `None` rejects the entry (it is then
    /// recomputed and overwritten).
    fn decode(raw: &Value) -> Option<Self::Value>;
}

/// One memoized result: the type-erased `(Q::Key, Arc<Q::Value>)` payload
/// and the content key it was computed (or loaded) under.
struct Entry {
    payload: Box<dyn Any + Send + Sync>,
    content_key: u64,
    /// Stored by [`QueryDb::get_durable`]; counted as `revalidated` when
    /// an edit carries it.
    durable: bool,
}

/// Every entry of one query at one key hash (more than one only when two
/// keys' stable hashes collide), plus the query's content-key function,
/// which re-keys an entry's payload against another db.
struct Slot {
    content_key: fn(&QueryDb, &(dyn Any + Send + Sync)) -> u64,
    entries: Mutex<Vec<Entry>>,
}

/// [`Slot::content_key`] for query `Q`.
fn rekey<Q: Query>(db: &QueryDb, payload: &(dyn Any + Send + Sync)) -> u64 {
    let (key, _) = payload
        .downcast_ref::<(Q::Key, Arc<Q::Value>)>()
        .expect("a slot holds one query's entries");
    Q::content_key(db, key)
}

/// What one [`QueryDb::apply_edit`] invalidated and what it kept.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvalidationStats {
    /// Functions whose span-insensitive content hash changed (including
    /// additions and removals), in sorted order.
    pub changed_functions: Vec<String>,
    /// Whether the whole-program type environment changed.
    pub env_changed: bool,
    /// Changed inputs: one per changed function, plus one when the type
    /// environment changed.
    pub seeds: usize,
    /// Memoized results discarded (their content key changed).
    pub invalidated: usize,
    /// Memoized results carried into the new db.
    pub retained: usize,
    /// The retained results that are durable: their content key, which is
    /// also their on-disk key, is unchanged for the edited program.
    pub revalidated: usize,
}

impl InvalidationStats {
    /// Fraction of memoized results that survived the edit.
    pub fn retention_rate(&self) -> f64 {
        let total = self.invalidated + self.retained;
        if total == 0 {
            0.0
        } else {
            self.retained as f64 / total as f64
        }
    }
}

/// Counters describing a db's query traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Values computed fresh.
    pub computed: u64,
    /// Reads served from the in-memory memo table.
    pub memo_hits: u64,
    /// Durable reads served from the persist layer.
    pub persist_hits: u64,
    /// Durable reads that consulted the persist layer and missed.
    pub persist_misses: u64,
}

/// The query database: one program plus every artifact demanded of it.
///
/// This is the typed replacement for the seed's string-keyed memo table,
/// and it is the shared analysis context every checker receives
/// ([`AnalysisCtx`](crate::AnalysisCtx) is this type). One db is built per
/// program state and holds that state's [`ProgramHashes`], computed once;
/// the engine's context store keeps dbs alive across runs of structurally
/// equal programs, and the optional [`PersistLayer`] extends reuse across
/// *processes*.
pub struct QueryDb {
    /// The program under analysis.
    pub program: Program,
    /// The program's identity ([`ProgramHashes::program`]): the engine's
    /// context-store key and the default content key's anchor.
    pub program_hash: u64,
    /// The program's [`ProgramHashes`]: `env` is read by
    /// [`QueryDb::env_hash`], `functions` (program order) by
    /// [`QueryDb::fn_content`]; both are diffed by [`QueryDb::apply_edit`]
    /// and key the points-to batches.
    hashes: ProgramHashes,
    /// The exact source text `program` was parsed from, when the db's
    /// builder knew it: the base an edit of that text re-parses against.
    source: Option<Arc<str>>,
    /// Cross-program cache of interned points-to constraint batches (shared
    /// by the engine across dbs so an edited program re-solves points-to
    /// from the cached constraint graph).
    pts_cache: Arc<ConstraintCache>,
    /// Cross-process persistence, when attached.
    persist: Option<Arc<PersistLayer>>,
    table: Mutex<HashMap<(TypeId, u64), Arc<Slot>>>,
    computed: AtomicU64,
    memo_hits: AtomicU64,
    persist_hits: AtomicU64,
    persist_misses: AtomicU64,
}

/// Poison-tolerant lock acquisition: a checker thread that panicked while
/// holding a query lock must not wedge every later request of a resident
/// daemon — the data under these locks is append-only memo state, valid
/// regardless of where the panicking thread stopped.
fn lock_recovering<'a, T>(mutex: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl QueryDb {
    /// Builds a db for a program (cheap: every artifact is lazy).
    pub fn new(program: &Program) -> QueryDb {
        QueryDb::with_hashes(program.clone(), ProgramHashes::of(program))
    }

    /// The identity a db for `program` would carry
    /// ([`ProgramHashes::program`]); computable without cloning the program.
    pub fn hash_program(program: &Program) -> u64 {
        ProgramHashes::of(program).program
    }

    /// Builds a db that owns `program`, from its already-computed hashes.
    pub fn with_hashes(program: Program, hashes: ProgramHashes) -> QueryDb {
        QueryDb {
            program,
            program_hash: hashes.program,
            hashes,
            source: None,
            pts_cache: Arc::new(ConstraintCache::new()),
            persist: None,
            table: Mutex::new(HashMap::new()),
            computed: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            persist_hits: AtomicU64::new(0),
            persist_misses: AtomicU64::new(0),
        }
    }

    /// Shares an existing points-to constraint cache (builder style).
    pub fn with_pointsto_cache(mut self, cache: Arc<ConstraintCache>) -> QueryDb {
        self.pts_cache = cache;
        self
    }

    /// Attaches a cross-process persist layer: [`DurableQuery`] reads
    /// consult it before computing and spill fresh results into it.
    pub fn with_persist(mut self, persist: Option<Arc<PersistLayer>>) -> QueryDb {
        self.persist = persist;
        self
    }

    /// Records the exact source text the program was parsed from (builder
    /// style).
    pub fn with_source(mut self, source: Arc<str>) -> QueryDb {
        self.source = Some(source);
        self
    }

    /// The exact source text the program was parsed from, if recorded.
    pub fn source(&self) -> Option<&Arc<str>> {
        self.source.as_ref()
    }

    /// The program's [`ProgramHashes`], computed once when the db was
    /// built.
    pub fn hashes(&self) -> &ProgramHashes {
        &self.hashes
    }

    /// The attached persist layer, if any.
    pub fn persist(&self) -> Option<Arc<PersistLayer>> {
        self.persist.clone()
    }

    /// The shared points-to constraint cache.
    pub fn pointsto_cache(&self) -> Arc<ConstraintCache> {
        Arc::clone(&self.pts_cache)
    }

    fn scan<Q: Query>(entries: &[Entry], key: &Q::Key) -> Option<Arc<Q::Value>> {
        entries.iter().find_map(|e| {
            e.payload
                .downcast_ref::<(Q::Key, Arc<Q::Value>)>()
                .filter(|(k, _)| k == key)
                .map(|(_, v)| Arc::clone(v))
        })
    }

    fn compute_entry<Q: Query>(&self, key: &Q::Key) -> Arc<Q::Value> {
        let _span = ivy_telemetry::span("engine/query", Q::NAME);
        ivy_telemetry::counter_labeled("ivy_query_computed_total", "query", Q::NAME, 1);
        let value = Arc::new(Q::compute(self, key));
        self.computed.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// The memo path [`QueryDb::get`] and [`QueryDb::get_durable`] share:
    /// a hit returns the stored value; a miss computes the content key,
    /// has `fill` produce the value for it, and stores the entry under it.
    fn memo<Q: Query>(
        &self,
        key: &Q::Key,
        durable: bool,
        fill: impl FnOnce(u64) -> Arc<Q::Value>,
    ) -> Arc<Q::Value> {
        let slot = Arc::clone(
            lock_recovering(&self.table)
                .entry((TypeId::of::<Q>(), key.stable_hash()))
                .or_insert_with(|| {
                    Arc::new(Slot {
                        content_key: rekey::<Q>,
                        entries: Mutex::new(Vec::new()),
                    })
                }),
        );
        let mut entries = lock_recovering(&slot.entries);
        if let Some(found) = Self::scan::<Q>(&entries, key) {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            ivy_telemetry::counter_labeled("ivy_query_memo_hits_total", "query", Q::NAME, 1);
            return found;
        }
        let content_key = Q::content_key(self, key);
        let value = fill(content_key);
        entries.push(Entry {
            payload: Box::new((key.clone(), Arc::clone(&value))),
            content_key,
            durable,
        });
        value
    }

    /// Demands a query at a key, computing it at most once per `(Q, key)`.
    ///
    /// Two threads demanding the same instance serialize on its slot and
    /// compute once; unrelated instances proceed in parallel. A query whose
    /// `compute` (transitively) demands *itself at the same key* is a cycle
    /// and deadlocks — dependencies must be acyclic, which the bottom-up
    /// artifact stack guarantees by construction.
    pub fn get<Q: Query>(&self, key: &Q::Key) -> Arc<Q::Value> {
        self.memo::<Q>(key, false, |_| self.compute_entry::<Q>(key))
    }

    /// Demands a durable query: like [`QueryDb::get`], but a memo miss
    /// consults the attached persist layer under the entry's content key
    /// before computing, and fresh results are spilled back to it.
    pub fn get_durable<Q: DurableQuery>(&self, key: &Q::Key) -> Arc<Q::Value> {
        self.memo::<Q>(key, true, |content_key| {
            let Some(layer) = &self.persist else {
                return self.compute_entry::<Q>(key);
            };
            if let Some(value) = layer
                .get(Q::NAME, Q::FORMAT_VERSION, content_key)
                .and_then(|raw| Q::decode(&raw))
            {
                self.persist_hits.fetch_add(1, Ordering::Relaxed);
                ivy_telemetry::counter_labeled("ivy_query_persist_hits_total", "query", Q::NAME, 1);
                return Arc::new(value);
            }
            self.persist_misses.fetch_add(1, Ordering::Relaxed);
            ivy_telemetry::counter_labeled("ivy_query_persist_misses_total", "query", Q::NAME, 1);
            let value = self.compute_entry::<Q>(key);
            layer.put(Q::NAME, Q::FORMAT_VERSION, content_key, Q::encode(&value));
            value
        })
    }

    /// The memoized value for a query instance, if it has already been
    /// computed (or loaded) in this db. Never computes — the engine uses
    /// this to report points-to statistics without forcing a solve on runs
    /// that were served entirely from caches.
    pub fn peek<Q: Query>(&self, key: &Q::Key) -> Option<Arc<Q::Value>> {
        let slot = lock_recovering(&self.table)
            .get(&(TypeId::of::<Q>(), key.stable_hash()))
            .cloned()?;
        let entries = lock_recovering(&slot.entries);
        Self::scan::<Q>(&entries, key)
    }

    /// Query-traffic counters for this db.
    pub fn query_stats(&self) -> QueryStats {
        QueryStats {
            computed: self.computed.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            persist_hits: self.persist_hits.load(Ordering::Relaxed),
            persist_misses: self.persist_misses.load(Ordering::Relaxed),
        }
    }

    // ---- edits ---------------------------------------------------------

    /// Derives a db for an edited program from this one, keeping every
    /// memoized result whose [`Query::content_key`] is unchanged.
    ///
    /// `edited` moves into the returned db, and `hashes` are its
    /// [`ProgramHashes`], computed once by the caller. Each entry's key is
    /// recomputed on the edited db by its query's key function, which
    /// reads only stored hashes, and the entry is carried exactly when the
    /// key matches the one it was stored under. Whole-program results
    /// (default key) are therefore dropped by any edit, while an unedited
    /// function's Deputy report survives. An entry loaded from the
    /// persist layer is judged by the same key as one computed here, and
    /// an entry a concurrent compute publishes on this db carries the key
    /// of the program it was computed from, so edits need not wait for
    /// analyses of this db. The stats report which functions (and whether
    /// the environment) changed, by diffing the stored hashes.
    ///
    /// The returned db shares the points-to constraint cache, the persist
    /// layer, and the carried memo slots with `self`; both dbs stay usable.
    pub fn apply_edit(
        &self,
        edited: Program,
        hashes: ProgramHashes,
    ) -> (QueryDb, InvalidationStats) {
        let mut new_db = QueryDb::with_hashes(edited, hashes)
            .with_pointsto_cache(Arc::clone(&self.pts_cache))
            .with_persist(self.persist.clone());
        let _span = ivy_telemetry::span("engine/edit", "carry");
        let changed_functions = changed_names(self, &new_db);
        let env_changed = self.hashes.env != new_db.hashes.env;
        let mut stats = InvalidationStats {
            seeds: changed_functions.len() + usize::from(env_changed),
            changed_functions,
            env_changed,
            ..InvalidationStats::default()
        };

        // Snapshot the table before touching any slot lock: an in-flight
        // compute holds its slot lock and may demand the table lock.
        let slots: Vec<((TypeId, u64), Arc<Slot>)> = lock_recovering(&self.table)
            .iter()
            .map(|(at, slot)| (*at, Arc::clone(slot)))
            .collect();
        let mut carried = HashMap::with_capacity(slots.len());
        for (at, slot) in slots {
            // A slot is carried whole or not at all; it holds more than
            // one entry only on a key-hash collision.
            let (len, durable, unchanged) = {
                let entries = lock_recovering(&slot.entries);
                let unchanged = entries
                    .iter()
                    .all(|e| (slot.content_key)(&new_db, &*e.payload) == e.content_key);
                let durable = entries.iter().filter(|e| e.durable).count();
                (entries.len(), durable, unchanged)
            };
            if !unchanged {
                stats.invalidated += len;
            } else if len > 0 {
                stats.retained += len;
                stats.revalidated += durable;
                carried.insert(at, slot);
            }
        }
        *new_db
            .table
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = carried;
        (new_db, stats)
    }

    // ---- built-in artifact accessors ----------------------------------

    /// Points-to results at a precision level. Solved incrementally against
    /// the shared constraint cache: only functions this db sees for the
    /// first time generate constraints.
    pub fn pointsto(&self, sensitivity: Sensitivity) -> Arc<PointsToResult> {
        self.get::<Pointsto>(&sensitivity)
    }

    /// Kept only because `perfbench` still calls it: does nothing.
    #[doc(hidden)]
    pub fn summaries(&self, _sensitivity: Sensitivity) {}

    /// Hash of the whole-program type environment (signatures, composites,
    /// typedefs, globals — bodies excluded), as stored when the db was
    /// built.
    pub fn env_hash(&self) -> u64 {
        self.hashes.env
    }

    /// Span-insensitive content hash of one function's first definition,
    /// as stored when the db was built (0 when the program has no function
    /// of that name).
    pub fn fn_content(&self, function: &str) -> u64 {
        self.program
            .functions
            .position(function)
            .map_or(0, |i| self.hashes.functions[i])
    }

    /// Layout hash (spans relative to the function's start line) of one
    /// function's first definition, as stored when the db was built (0
    /// when the program has no function of that name).
    pub fn fn_layout(&self, function: &str) -> u64 {
        self.program
            .functions
            .position(function)
            .map_or(0, |i| self.hashes.layouts[i])
    }

    /// Hash of the spans outside functions (composites, fields, globals),
    /// as stored when the db was built.
    pub fn env_layout(&self) -> u64 {
        self.hashes.env_layout
    }

    /// Every function's [`FnFacts`], in program order ([`ProgramFactsQuery`]).
    pub fn fn_facts(&self) -> Arc<Vec<Arc<FnFacts>>> {
        self.get::<ProgramFactsQuery>(&())
    }
}

/// Each function name of a db with a hash of every definition of the
/// name, from the stored hashes: the content hash itself for a name
/// defined once, the definitions' hashes mixed in program order otherwise.
/// An edit to any definition of a name changes its hash.
fn definitions(db: &QueryDb) -> HashMap<&str, u64> {
    let mut defs: HashMap<&str, u64> = HashMap::with_capacity(db.program.functions.len());
    for (func, &hash) in db.program.functions.iter().zip(&db.hashes.functions) {
        defs.entry(func.name.as_str())
            .and_modify(|combined| *combined = mix(*combined, hash))
            .or_insert(hash);
    }
    defs
}

/// The names whose definitions differ between two dbs, sorted: a name
/// defined in one only, or whose [`definitions`] hash differs. Every
/// definition counts, not only the first one [`QueryDb::fn_content`]
/// reads, so an edit to a later duplicate reports its name.
fn changed_names(old: &QueryDb, new: &QueryDb) -> Vec<String> {
    let (old, new) = (definitions(old), definitions(new));
    let mut changed: Vec<String> = old
        .iter()
        .filter(|(name, hash)| new.get(*name) != Some(hash))
        .chain(new.iter().filter(|(name, _)| !old.contains_key(*name)))
        .map(|(name, _)| name.to_string())
        .collect();
    changed.sort();
    changed
}

// ---- built-in queries --------------------------------------------------

/// Points-to analysis at a [`Sensitivity`].
pub struct Pointsto;

impl Query for Pointsto {
    type Key = Sensitivity;
    type Value = PointsToResult;
    const NAME: &'static str = "engine/pointsto";

    fn compute(db: &QueryDb, key: &Sensitivity) -> PointsToResult {
        pointsto::analyze_incremental_with(
            &db.program,
            &db.hashes,
            *key,
            &db.pts_cache,
            SolveOptions::default(),
        )
    }
}

/// The [`FnFacts`] of the function at a position in program order: the
/// one walk over its body that the whole-program queries fold over. Keyed
/// by position, so each definition of a name defined twice has its own
/// entry, and carried by the function's content and layout hashes, so an
/// edit keeps every entry whose function it did not change, even when
/// the function moved.
pub struct FnFactsQuery;

impl Query for FnFactsQuery {
    type Key = u64;
    type Value = FnFacts;
    const NAME: &'static str = "engine/fn-facts";

    fn compute(db: &QueryDb, index: &u64) -> FnFacts {
        FnFacts::of(&db.program.functions[*index as usize])
    }

    fn content_key(db: &QueryDb, index: &u64) -> u64 {
        let at = *index as usize;
        let content = db.hashes.functions.get(at).copied().unwrap_or(0);
        let layout = db.hashes.layouts.get(at).copied().unwrap_or(0);
        mix(mix(index.stable_hash(), content), layout)
    }
}

/// Every function's [`FnFacts`] in program order, gathered once per
/// program state from the per-function [`FnFactsQuery`] entries, so the
/// whole-program folds of one analyze demand each function's entry once.
/// After an edit only the functions whose content or layout changed are
/// walked again.
pub struct ProgramFactsQuery;

impl Query for ProgramFactsQuery {
    type Key = ();
    type Value = Vec<Arc<FnFacts>>;
    const NAME: &'static str = "engine/program-facts";

    fn compute(db: &QueryDb, _: &()) -> Vec<Arc<FnFacts>> {
        (0..db.program.functions.len() as u64)
            .map(|i| db.get::<FnFactsQuery>(&i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_cmir::parser::parse_program;
    use std::sync::atomic::AtomicUsize;

    fn small_db() -> QueryDb {
        let p = parse_program("fn a() { b(); } fn b() { }").unwrap();
        QueryDb::new(&p)
    }

    fn edit(db: &QueryDb, edited: &Program) -> (QueryDb, InvalidationStats) {
        db.apply_edit(edited.clone(), ProgramHashes::of(edited))
    }

    /// Keyed by its function's content.
    struct BodyLen;
    impl Query for BodyLen {
        type Key = String;
        type Value = usize;
        const NAME: &'static str = "test/body-len";
        fn compute(db: &QueryDb, key: &String) -> usize {
            let func = db.program.function(key).expect("defined");
            func.body.as_ref().map_or(0, |b| b.stmts.len())
        }
        fn content_key(db: &QueryDb, key: &String) -> u64 {
            mix(key.stable_hash(), db.fn_content(key))
        }
    }

    static CALLS_A: AtomicUsize = AtomicUsize::new(0);
    static CALLS_B: AtomicUsize = AtomicUsize::new(0);

    /// Two query types with deliberately *identical* names and keys but
    /// different value types — the exact shape that panicked the old
    /// string-keyed memo with "used with two different types".
    struct CollidingA;
    struct CollidingB;

    impl Query for CollidingA {
        type Key = String;
        type Value = u64;
        const NAME: &'static str = "test/colliding";
        fn compute(_db: &QueryDb, _key: &String) -> u64 {
            CALLS_A.fetch_add(1, Ordering::SeqCst);
            42
        }
    }

    impl Query for CollidingB {
        type Key = String;
        type Value = String;
        const NAME: &'static str = "test/colliding";
        fn compute(_db: &QueryDb, _key: &String) -> String {
            CALLS_B.fetch_add(1, Ordering::SeqCst);
            "forty-two".to_string()
        }
    }

    #[test]
    fn colliding_names_cannot_alias() {
        // With the seed's `Memo`, this sequence was the documented panic:
        //   ctx.memo::<u64>("test/colliding", ..);
        //   ctx.memo::<String>("test/colliding", ..);  // -> panic!
        // Typed queries key the table by TypeId, so both coexist.
        let db = small_db();
        let key = "same-key".to_string();
        let a = db.get::<CollidingA>(&key);
        let b = db.get::<CollidingB>(&key);
        assert_eq!(*a, 42);
        assert_eq!(*b, "forty-two");
        // And each computed exactly once despite the shared name and key.
        let a2 = db.get::<CollidingA>(&key);
        let b2 = db.get::<CollidingB>(&key);
        assert!(Arc::ptr_eq(&a, &a2));
        assert!(Arc::ptr_eq(&b, &b2));
    }

    #[test]
    fn computes_once_and_shares() {
        struct Counted;
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        impl Query for Counted {
            type Key = u64;
            type Value = u64;
            const NAME: &'static str = "test/counted";
            fn compute(_db: &QueryDb, key: &u64) -> u64 {
                CALLS.fetch_add(1, Ordering::SeqCst);
                key * 2
            }
        }
        let db = small_db();
        assert_eq!(*db.get::<Counted>(&3), 6);
        assert_eq!(*db.get::<Counted>(&3), 6);
        assert_eq!(*db.get::<Counted>(&4), 8);
        assert_eq!(CALLS.load(Ordering::SeqCst), 2);
        let stats = db.query_stats();
        assert_eq!(stats.memo_hits, 1);
        assert!(stats.computed >= 2);
    }

    #[test]
    fn builtin_artifacts_are_shared_instances() {
        let db = small_db();
        let p1 = db.pointsto(Sensitivity::Steensgaard);
        let p2 = db.pointsto(Sensitivity::Steensgaard);
        assert!(Arc::ptr_eq(&p1, &p2));
    }

    #[test]
    fn program_hash_tracks_content() {
        let p2 = parse_program("fn a() { b(); b(); } fn b() { }").unwrap();
        assert_ne!(small_db().program_hash, QueryDb::new(&p2).program_hash);
    }

    #[test]
    fn apply_edit_carries_exactly_the_entries_whose_content_key_is_unchanged() {
        /// Declares no key: anchored to the whole program.
        struct Anchored;
        impl Query for Anchored {
            type Key = String;
            type Value = usize;
            const NAME: &'static str = "test/anchored";
            fn compute(db: &QueryDb, _key: &String) -> usize {
                db.program.functions.len()
            }
        }

        let db = small_db();
        let (a, b) = ("a".to_string(), "b".to_string());
        for f in [&a, &b] {
            db.get::<Anchored>(f);
            db.get::<BodyLen>(f);
        }
        let edited = parse_program("fn a() { b(); b(); } fn b() { }").unwrap();
        let (new_db, stats) = edit(&db, &edited);
        assert_eq!(stats.changed_functions, vec![a.clone()]);
        assert_eq!(stats.seeds, 1);
        assert_eq!((stats.invalidated, stats.retained), (3, 1));
        assert_eq!(stats.revalidated, 0, "no durable entry was carried");

        // The default key drops an entry on any edit; a content key keeps
        // it unless its own function changed.
        assert!(new_db.peek::<Anchored>(&a).is_none());
        assert!(new_db.peek::<Anchored>(&b).is_none());
        assert!(new_db.peek::<BodyLen>(&a).is_none());
        let kept = new_db
            .peek::<BodyLen>(&b)
            .expect("unedited function's entry survives");
        assert!(Arc::ptr_eq(&kept, &db.peek::<BodyLen>(&b).unwrap()));
        assert_eq!(*new_db.get::<BodyLen>(&a), 2);
    }

    #[test]
    fn peek_never_computes() {
        let db = small_db();
        assert!(db.peek::<Pointsto>(&Sensitivity::Steensgaard).is_none());
        db.pointsto(Sensitivity::Steensgaard);
        assert!(db.peek::<Pointsto>(&Sensitivity::Steensgaard).is_some());
    }

    #[test]
    fn apply_edit_invalidates_only_the_dependent_cone() {
        let db = QueryDb::new(
            &parse_program("fn a() { b(); } fn b() { c(); } fn c() { } fn lone() { }").unwrap(),
        );
        let (a, c, lone) = ("a".to_string(), "c".to_string(), "lone".to_string());
        db.pointsto(Sensitivity::Steensgaard);
        db.get::<BodyLen>(&a);
        db.get::<BodyLen>(&lone);

        // Edit `c`'s body only.
        let edited =
            parse_program("fn a() { b(); } fn b() { c(); } fn c() { c(); } fn lone() { }").unwrap();
        let (new_db, stats) = edit(&db, &edited);
        assert_eq!(stats.changed_functions, vec!["c".to_string()]);
        assert!(!stats.env_changed, "a body edit leaves the env untouched");
        assert_eq!(stats.seeds, 1);
        assert!(stats.invalidated > 0, "whole-program artifacts go dirty");
        assert!(stats.retained > 0, "unrelated per-function results survive");

        // The whole-program points-to result was dropped; the unedited
        // functions' per-function results were carried over.
        assert!(new_db.peek::<Pointsto>(&Sensitivity::Steensgaard).is_none());
        assert!(new_db.peek::<BodyLen>(&a).is_some());
        assert!(new_db.peek::<BodyLen>(&lone).is_some());

        // Recomputation in the new db is correct.
        assert_eq!(*new_db.get::<BodyLen>(&c), 1);
        assert_ne!(new_db.fn_content("c"), db.fn_content("c"));
        assert_eq!(new_db.fn_content("lone"), db.fn_content("lone"));
    }

    #[test]
    fn apply_edit_detects_signature_and_function_set_changes() {
        let db = small_db();
        db.pointsto(Sensitivity::Steensgaard);

        // Adding a function changes the env (its signature joins the
        // environment) and reports the new function as changed.
        let grown = parse_program("fn a() { b(); } fn b() { } fn d() { }").unwrap();
        let (new_db, stats) = edit(&db, &grown);
        assert_eq!(stats.changed_functions, vec!["d".to_string()]);
        assert!(stats.env_changed);
        assert!(new_db.peek::<Pointsto>(&Sensitivity::Steensgaard).is_none());
        assert_eq!(*new_db.get::<BodyLen>(&"d".to_string()), 0);
    }

    #[test]
    fn apply_edit_revalidates_content_keyed_durable_entries() {
        /// A durable query whose content key is its key alone — the
        /// shape of the per-function Deputy report entries whose survival
        /// across edits the daemon depends on.
        struct ContentKeyed;
        impl Query for ContentKeyed {
            type Key = u64;
            type Value = u64;
            const NAME: &'static str = "test/content-keyed";
            fn compute(_db: &QueryDb, key: &u64) -> u64 {
                key * 3
            }
            fn content_key(_db: &QueryDb, key: &u64) -> u64 {
                key.stable_hash()
            }
        }
        impl DurableQuery for ContentKeyed {
            const FORMAT_VERSION: u32 = 1;
            fn encode(value: &u64) -> Value {
                Value::from(*value)
            }
            fn decode(raw: &Value) -> Option<u64> {
                raw.as_u64()
            }
        }

        let db = small_db();
        db.get_durable::<ContentKeyed>(&7);
        let edited = parse_program("fn a() { b(); b(); } fn b() { }").unwrap();
        let (new_db, stats) = edit(&db, &edited);
        // Its content key is untouched by the edit, so it is carried
        // rather than discarded.
        assert!(stats.revalidated >= 1);
        assert!(new_db.peek::<ContentKeyed>(&7).is_some());
    }

    #[test]
    fn apply_edit_rekeys_entries_adopted_from_the_persist_layer() {
        /// A whole-program durable query with the default content key —
        /// the shape of BlockStop's report.
        struct WholeProgram;
        impl Query for WholeProgram {
            type Key = ();
            type Value = u64;
            const NAME: &'static str = "test/whole-program";
            fn compute(db: &QueryDb, _key: &()) -> u64 {
                db.program.functions.len() as u64
            }
        }
        impl DurableQuery for WholeProgram {
            const FORMAT_VERSION: u32 = 1;
            fn encode(value: &u64) -> Value {
                Value::from(*value)
            }
            fn decode(raw: &Value) -> Option<u64> {
                raw.as_u64()
            }
        }

        let dir = std::env::temp_dir().join(format!("ivy-query-rekey-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let program = parse_program("fn a() { b(); } fn b() { }").unwrap();

        // Process one computes the entry and flushes it to disk.
        {
            let layer = Arc::new(PersistLayer::open(&dir).unwrap());
            let db = QueryDb::new(&program).with_persist(Some(layer.clone()));
            db.get_durable::<WholeProgram>(&());
            layer.flush().unwrap();
        }

        // "Process two" loads it from disk: its compute never runs here,
        // and the edit judges it by the same content key as a computed
        // entry.
        let layer = Arc::new(PersistLayer::open(&dir).unwrap());
        let db = QueryDb::new(&program).with_persist(Some(layer));
        db.get_durable::<WholeProgram>(&());
        assert_eq!(db.query_stats().persist_hits, 1);

        let edited = parse_program("fn a() { b(); b(); } fn b() { }").unwrap();
        let (new_db, _) = edit(&db, &edited);
        assert!(
            new_db.peek::<WholeProgram>(&()).is_none(),
            "a loaded whole-program entry must be re-keyed out on edit"
        );
        // Recomputing in the new db stores the entry under the edited
        // program's key.
        assert_eq!(*new_db.get_durable::<WholeProgram>(&()), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn colliding_test_counters_are_exercised() {
        // Silence dead-code analysis honestly: the statics above are bumped
        // by the colliding-queries test regardless of execution order.
        assert!(CALLS_A.load(Ordering::SeqCst) <= 1);
        assert!(CALLS_B.load(Ordering::SeqCst) <= 1);
    }
}
