//! The typed, demand-driven query subsystem.
//!
//! Everything an analysis can ask for — points-to results, call graphs,
//! summaries, CFGs, checker-owned precomputations — is a [`Query`]: a unit
//! type naming the artifact, a typed [`Query::Key`], a typed
//! [`Query::Value`], and a `compute` function that derives the value from
//! the [`QueryDb`] on first demand. The db memoizes per `(query type,
//! key)`, records dependency edges between queries as they demand each
//! other, and — for queries that opt into [`DurableQuery`] — spills results
//! to the cross-process [`PersistLayer`](crate::persist::PersistLayer) and
//! reloads them in later processes.
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
//! use ivy_engine::query::Summaries;
//! use ivy_analysis::pointsto::Sensitivity;
//! # use ivy_cmir::parser::parse_program;
//! let db = QueryDb::new(&parse_program("fn f() { }").unwrap());
//! // The old `ctx.memo::<String>("summaries/steensgaard", ...)` would have
//! // compiled and panicked at run time on the type confusion. The typed
//! // query API rejects the wrong value type at compile time:
//! let s: std::sync::Arc<String> = db.get::<Summaries>(&Sensitivity::Steensgaard);
//! ```

use crate::persist::PersistLayer;
use ivy_analysis::pointsto::{self, ConstraintCache, PointsToResult, Sensitivity, SolveOptions};
use ivy_analysis::summary::{self, fnv1a, mix, Condensation, ProgramSummaries};
use ivy_analysis::CallGraph;
use ivy_cmir::ast::Program;
use ivy_cmir::cfg::Cfg;
use ivy_cmir::content::ProgramHashes;
use serde_json::{Map, Value};
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A key a query can be demanded at.
///
/// `stable_hash` must be deterministic across processes (no `std::hash`
/// randomization) — it is the memo-slot index and, for [`DurableQuery`]
/// entries, part of the on-disk cache key. Keys whose durable results
/// depend on program *content* must fold the relevant content hashes in
/// (or the query must override [`DurableQuery::durable_key`]).
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
/// demand other queries through the db — those reads are recorded as
/// dependency edges (see [`QueryDb::dependencies`]).
pub trait Query: 'static {
    /// Key type this query is demanded at.
    type Key: QueryKey;
    /// Result type.
    type Value: Send + Sync + 'static;
    /// Stable human-readable name (`"<owner>/<artifact>"` by convention).
    /// Used for dependency-edge reporting and as the persistence namespace;
    /// *not* used for memo addressing (the [`TypeId`] is), so two query
    /// types with colliding names still cannot alias.
    const NAME: &'static str;
    /// Computes the value for a key. Must be deterministic in `(db, key)`.
    fn compute(db: &QueryDb, key: &Self::Key) -> Self::Value;
}

/// A [`Query`] whose results additionally spill to the cross-process
/// [`PersistLayer`] (when one is attached to the db) and are reloaded from
/// disk in later processes instead of being recomputed.
pub trait DurableQuery: Query {
    /// Version of the encoded representation; bumping it invalidates every
    /// persisted entry of this query (old files are ignored, not read).
    const FORMAT_VERSION: u32;

    /// The on-disk cache key. Must be *content-addressed*: equal keys must
    /// guarantee equal results across processes and program states. The
    /// default is the key's stable hash; queries whose keys do not capture
    /// all inputs (e.g. whole-program artifacts keyed only by sensitivity)
    /// must override this to mix in the content hashes they depend on.
    fn durable_key(db: &QueryDb, key: &Self::Key) -> u64 {
        let _ = db;
        key.stable_hash()
    }

    /// Encodes a value for persistence.
    fn encode(value: &Self::Value) -> Value;

    /// Decodes a persisted value; `None` rejects the entry (it is then
    /// recomputed and overwritten).
    fn decode(raw: &Value) -> Option<Self::Value>;
}

/// A `(query name, key hash)` pair identifying one query instance in the
/// dependency graph.
pub type QueryRef = (&'static str, u64);

/// Recomputes a durable query instance's content-addressed key against an
/// arbitrary db. Stored with the memoized entry so invalidation can ask
/// "would this entry's on-disk key be the same for the edited program?" —
/// the durable contract (equal keys guarantee equal results) then lets a
/// dependency-reachable entry be *revalidated* instead of discarded.
type Revalidator = Arc<dyn Fn(&QueryDb) -> u64 + Send + Sync>;

/// One memoized result: the type-erased `(Q::Key, Arc<Q::Value>)` payload
/// plus, for durable queries, the durable key it was stored under and the
/// closure that recomputes that key.
struct SlotEntry {
    payload: Box<dyn Any + Send + Sync>,
    durable: Option<(u64, Revalidator)>,
    /// True when the value was adopted from the persist layer rather than
    /// computed: its compute never ran in this process, so it has no
    /// recorded dependency edges and [`QueryDb::apply_edit`] must judge it
    /// by its durable key alone.
    adopted: bool,
}

type Slot = Arc<Mutex<Vec<SlotEntry>>>;

thread_local! {
    /// Stack of queries currently computing on this thread; the top is the
    /// dependent of any query demanded next.
    static ACTIVE: RefCell<Vec<QueryRef>> = const { RefCell::new(Vec::new()) };
}

/// Pops the active-query stack even if `compute` unwinds.
struct ActiveGuard;

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        ACTIVE.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// What one [`QueryDb::apply_edit`] invalidated and what it kept.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvalidationStats {
    /// Functions whose span-insensitive content hash changed (including
    /// additions and removals), in sorted order.
    pub changed_functions: Vec<String>,
    /// Whether the whole-program type environment changed.
    pub env_changed: bool,
    /// Input-layer query instances seeded dirty.
    pub seeds: usize,
    /// Memoized results discarded (transitive dependents of the seeds).
    pub invalidated: usize,
    /// Memoized results carried into the new db.
    pub retained: usize,
    /// Dependency-reachable durable results kept because their
    /// content-addressed key is unchanged for the edited program.
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
    /// context-store key and the content anchor for durable whole-program
    /// queries.
    pub program_hash: u64,
    /// The program's [`ProgramHashes`]: `env` is served by [`EnvHash`],
    /// `functions` (program order) by [`FnContent`]; both are diffed by
    /// [`QueryDb::apply_edit`] and key the points-to batches.
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
    table: Mutex<HashMap<(TypeId, u64), Slot>>,
    /// `TypeId` → query `NAME`, filled as queries are demanded; lets
    /// invalidation translate dependency-graph refs (which use names) back
    /// to memo-table slots (which use type ids).
    names: Mutex<HashMap<TypeId, &'static str>>,
    deps: Mutex<BTreeSet<(QueryRef, QueryRef)>>,
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
            names: Mutex::new(HashMap::new()),
            deps: Mutex::new(BTreeSet::new()),
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

    fn slot(&self, type_id: TypeId, name: &'static str, key_hash: u64) -> Slot {
        lock_recovering(&self.names).entry(type_id).or_insert(name);
        let mut table = lock_recovering(&self.table);
        Arc::clone(table.entry((type_id, key_hash)).or_default())
    }

    fn record_edge(&self, child: QueryRef) {
        if let Some(parent) = ACTIVE.with(|s| s.borrow().last().copied()) {
            lock_recovering(&self.deps).insert((parent, child));
        }
    }

    fn scan<Q: Query>(entries: &[SlotEntry], key: &Q::Key) -> Option<Arc<Q::Value>> {
        entries.iter().find_map(|e| {
            e.payload
                .downcast_ref::<(Q::Key, Arc<Q::Value>)>()
                .filter(|(k, _)| k == key)
                .map(|(_, v)| Arc::clone(v))
        })
    }

    fn compute_entry<Q: Query>(&self, key: &Q::Key, key_hash: u64) -> Arc<Q::Value> {
        let _span = ivy_telemetry::span("engine/query", Q::NAME);
        ivy_telemetry::counter_labeled("ivy_query_computed_total", "query", Q::NAME, 1);
        ACTIVE.with(|s| s.borrow_mut().push((Q::NAME, key_hash)));
        let guard = ActiveGuard;
        let value = Arc::new(Q::compute(self, key));
        drop(guard);
        self.computed.fetch_add(1, Ordering::Relaxed);
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
        let key_hash = key.stable_hash();
        self.record_edge((Q::NAME, key_hash));
        let slot = self.slot(TypeId::of::<Q>(), Q::NAME, key_hash);
        let mut entries = lock_recovering(&slot);
        if let Some(found) = Self::scan::<Q>(&entries, key) {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            ivy_telemetry::counter_labeled("ivy_query_memo_hits_total", "query", Q::NAME, 1);
            return found;
        }
        let value = self.compute_entry::<Q>(key, key_hash);
        entries.push(SlotEntry {
            payload: Box::new((key.clone(), Arc::clone(&value))),
            durable: None,
            adopted: false,
        });
        value
    }

    /// Demands a durable query: like [`QueryDb::get`], but a memo miss
    /// consults the attached persist layer before computing, and fresh
    /// results are spilled back to it.
    pub fn get_durable<Q: DurableQuery>(&self, key: &Q::Key) -> Arc<Q::Value> {
        let key_hash = key.stable_hash();
        self.record_edge((Q::NAME, key_hash));
        let slot = self.slot(TypeId::of::<Q>(), Q::NAME, key_hash);
        let mut entries = lock_recovering(&slot);
        if let Some(found) = Self::scan::<Q>(&entries, key) {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            ivy_telemetry::counter_labeled("ivy_query_memo_hits_total", "query", Q::NAME, 1);
            return found;
        }
        let durable_key = Q::durable_key(self, key);
        let revalidator: Revalidator = {
            let key = key.clone();
            Arc::new(move |db: &QueryDb| Q::durable_key(db, &key))
        };
        if let Some(layer) = &self.persist {
            if let Some(value) = layer
                .get(Q::NAME, Q::FORMAT_VERSION, durable_key)
                .and_then(|raw| Q::decode(&raw))
            {
                self.persist_hits.fetch_add(1, Ordering::Relaxed);
                ivy_telemetry::counter_labeled("ivy_query_persist_hits_total", "query", Q::NAME, 1);
                let value = Arc::new(value);
                // The compute never ran, so this entry has no outgoing
                // dependency edges; [`QueryDb::apply_edit`] compensates by
                // re-keying every walk-unreachable durable entry against
                // the edited program instead of trusting reachability.
                entries.push(SlotEntry {
                    payload: Box::new((key.clone(), Arc::clone(&value))),
                    durable: Some((durable_key, revalidator)),
                    adopted: true,
                });
                return value;
            }
            self.persist_misses.fetch_add(1, Ordering::Relaxed);
            ivy_telemetry::counter_labeled("ivy_query_persist_misses_total", "query", Q::NAME, 1);
            let value = self.compute_entry::<Q>(key, key_hash);
            layer.put(Q::NAME, Q::FORMAT_VERSION, durable_key, Q::encode(&value));
            entries.push(SlotEntry {
                payload: Box::new((key.clone(), Arc::clone(&value))),
                durable: Some((durable_key, revalidator)),
                adopted: false,
            });
            return value;
        }
        let value = self.compute_entry::<Q>(key, key_hash);
        entries.push(SlotEntry {
            payload: Box::new((key.clone(), Arc::clone(&value))),
            durable: Some((durable_key, revalidator)),
            adopted: false,
        });
        value
    }

    /// The memoized value for a query instance, if it has already been
    /// computed (or loaded) in this db. Never computes — the engine uses
    /// this to report points-to statistics without forcing a solve on runs
    /// that were served entirely from caches.
    pub fn peek<Q: Query>(&self, key: &Q::Key) -> Option<Arc<Q::Value>> {
        let slot = self.slot(TypeId::of::<Q>(), Q::NAME, key.stable_hash());
        let entries = lock_recovering(&slot);
        Self::scan::<Q>(&entries, key)
    }

    /// The dependency edges recorded so far: `(dependent, dependency)`
    /// pairs of `(query name, key hash)`.
    pub fn dependencies(&self) -> Vec<(QueryRef, QueryRef)> {
        lock_recovering(&self.deps).iter().cloned().collect()
    }

    /// True if a `dependent`-named query was recorded demanding a
    /// `dependency`-named query (at any keys).
    pub fn depends_on(&self, dependent: &str, dependency: &str) -> bool {
        lock_recovering(&self.deps)
            .iter()
            .any(|((p, _), (c, _))| *p == dependent && *c == dependency)
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

    // ---- dependency-driven invalidation -------------------------------

    /// Derives a db for an edited program from this one, invalidating only
    /// the queries the edit can actually reach.
    ///
    /// `edited` moves into the returned db, and `hashes` are its
    /// [`ProgramHashes`], computed once by the caller. The edit is diffed
    /// at the input layer against this db's stored hashes — nothing is
    /// re-hashed: every function whose
    /// span-insensitive content hash changed (including added and removed
    /// functions) seeds its [`FnContent`] instance, and a changed type
    /// environment seeds [`EnvHash`]. The transitive *dependents* of the
    /// seeds — per the dependency edges recorded while this db computed —
    /// are discarded; every other memoized result is carried into the new
    /// db and served from memory without recompute. A dependency-reachable
    /// durable entry whose content-addressed key is unchanged for the
    /// edited program is *revalidated* (kept, and propagation stops there):
    /// by the [`DurableQuery::durable_key`] contract an equal key
    /// guarantees an equal value, so e.g. an unedited function's
    /// Deputy report survives even though it was derived from
    /// whole-program state. The same key check runs in reverse for entries
    /// *adopted from the persist layer*: an adopted entry recorded no
    /// dependency edges (its compute never ran in this process), so
    /// reachability cannot vouch for it and it is kept only if its
    /// content-addressed key still matches under the edited program.
    ///
    /// The returned db shares the points-to constraint cache, the persist
    /// layer, and the retained memo slots with `self`; both dbs stay
    /// usable (retained results are valid for either program by
    /// construction).
    pub fn apply_edit(
        &self,
        edited: Program,
        hashes: ProgramHashes,
    ) -> (QueryDb, InvalidationStats) {
        let new_db = QueryDb::with_hashes(edited, hashes)
            .with_pointsto_cache(Arc::clone(&self.pts_cache))
            .with_persist(self.persist.clone());

        // 1. Input-layer diff: which functions' contents changed, and did
        //    the type environment change with them?
        let walk_span = ivy_telemetry::span("engine/edit", "walk");
        let changed_functions = changed_names(&self.definitions(), &new_db.definitions());
        let env_changed = self.hashes.env != new_db.hashes.env;

        let mut seeds: Vec<QueryRef> = changed_functions
            .iter()
            .map(|name| (FnContent::NAME, name.clone().stable_hash()))
            .collect();
        if env_changed {
            seeds.push((EnvHash::NAME, ().stable_hash()));
        }

        // 2. Walk the recorded dependency graph upward from the seeds,
        //    stopping at durable entries whose content key still matches.
        let edges = self.dependencies();
        let mut rdeps: HashMap<QueryRef, Vec<QueryRef>> = HashMap::new();
        for (parent, child) in &edges {
            rdeps.entry(*child).or_default().push(*parent);
        }
        let mut dirty: HashSet<QueryRef> = seeds.iter().copied().collect();
        let mut clean: HashSet<QueryRef> = HashSet::new();
        let mut queue: Vec<QueryRef> = seeds.clone();
        self.propagate_dirty(&rdeps, &mut queue, &mut dirty, &mut clean, &new_db);
        drop(walk_span);

        // Snapshot the table before touching any slot lock: an in-flight
        // compute on another thread holds its slot lock and may demand the
        // table lock, so holding both here would deadlock a live daemon.
        let names = lock_recovering(&self.names).clone();
        let slots: Vec<((TypeId, u64), Slot)> = lock_recovering(&self.table)
            .iter()
            .map(|(key, slot)| (*key, Arc::clone(slot)))
            .collect();

        // 2b. Re-key every *adopted* entry the walk could not reach. An
        //    entry adopted from the persist layer recorded no dependency
        //    edges (its compute never ran in this process), so
        //    reachability alone cannot prove it current — without this
        //    sweep, a daemon restarted over a warm cache directory would
        //    carry pre-edit whole-program results into the new db
        //    unconditionally. A key mismatch dirties the entry and
        //    propagates upward exactly like a seed. Entries that *were*
        //    computed here are exempt: their edges record exactly what
        //    they read, so unreachable means unaffected — a key check
        //    would over-invalidate queries whose durable key is anchored
        //    more coarsely than what they actually read (e.g. a
        //    program-hash-keyed per-function query that only touches
        //    points-to when the function frees untyped pointers). Checks
        //    run outside every lock: a revalidator may demand queries on
        //    the new db.
        let rekey_span = ivy_telemetry::span("engine/edit", "rekey");
        let mut rekeyed: Vec<QueryRef> = Vec::new();
        for ((type_id, key_hash), slot) in &slots {
            let name = names.get(type_id).copied().unwrap_or("");
            let q = (name, *key_hash);
            if dirty.contains(&q) || clean.contains(&q) {
                continue;
            }
            let checks: Vec<(u64, Revalidator)> = lock_recovering(slot)
                .iter()
                .filter(|e| e.adopted)
                .filter_map(|e| e.durable.as_ref().map(|(k, r)| (*k, Arc::clone(r))))
                .collect();
            if checks
                .iter()
                .any(|(old_key, reval)| reval(&new_db) != *old_key)
            {
                dirty.insert(q);
                rekeyed.push(q);
            }
        }
        self.propagate_dirty(&rdeps, &mut rekeyed, &mut dirty, &mut clean, &new_db);
        drop(rekey_span);

        // 3. Carry every slot outside the dirty set into the new db, and
        //    every edge whose dependent survived (a dirty dependent will
        //    re-record its edges when it recomputes).
        let _carry_span = ivy_telemetry::span("engine/edit", "carry");
        let mut stats = InvalidationStats {
            changed_functions,
            env_changed,
            seeds: seeds.len(),
            revalidated: clean.len(),
            ..InvalidationStats::default()
        };
        {
            let mut new_table = lock_recovering(&new_db.table);
            for ((type_id, key_hash), slot) in slots {
                let entry_count = lock_recovering(&slot).len();
                if entry_count == 0 {
                    continue;
                }
                let name = names.get(&type_id).copied().unwrap_or("");
                if dirty.contains(&(name, key_hash)) {
                    stats.invalidated += entry_count;
                } else {
                    // `or_insert`, not `insert`: a revalidator demanding
                    // queries on the new db may already have computed this
                    // slot there, and that fresh result is the one whose
                    // edges the new db recorded.
                    new_table.entry((type_id, key_hash)).or_insert(slot);
                    stats.retained += entry_count;
                }
            }
        }
        // Merge rather than assign, for the same reason: revalidator
        // demands during the walk already recorded their own names and
        // edges on the new db, and overwriting would orphan those memo
        // entries (their slots would resolve to no name and carry no
        // edges, so a later edit could retain them as unreachable).
        lock_recovering(&new_db.names).extend(names);
        lock_recovering(&new_db.deps).extend(
            edges
                .into_iter()
                .filter(|(parent, _)| !dirty.contains(parent)),
        );
        (new_db, stats)
    }

    /// `(name, content hash)` of every function definition, from the
    /// stored hashes, sorted by name; the definitions of one name stay in
    /// program order.
    fn definitions(&self) -> Vec<(&str, u64)> {
        let mut defs: Vec<(&str, u64)> = self
            .program
            .functions
            .iter()
            .map(|f| f.name.as_str())
            .zip(self.hashes.functions.iter().copied())
            .collect();
        defs.sort_by_key(|&(name, _)| name);
        defs
    }

    /// Walks the reverse dependency edges upward from the queued refs,
    /// marking every transitive dependent dirty unless all of its entries
    /// revalidate against the new db (in which case propagation stops
    /// there and the ref joins the clean set).
    fn propagate_dirty(
        &self,
        rdeps: &HashMap<QueryRef, Vec<QueryRef>>,
        queue: &mut Vec<QueryRef>,
        dirty: &mut HashSet<QueryRef>,
        clean: &mut HashSet<QueryRef>,
        new_db: &QueryDb,
    ) {
        while let Some(q) = queue.pop() {
            let Some(parents) = rdeps.get(&q) else {
                continue;
            };
            for &parent in parents {
                if dirty.contains(&parent) || clean.contains(&parent) {
                    continue;
                }
                if self.revalidates(parent, new_db) {
                    clean.insert(parent);
                    continue;
                }
                dirty.insert(parent);
                queue.push(parent);
            }
        }
    }

    /// True if every memoized entry recorded under a query ref is durable
    /// and would be stored under the same content-addressed key by the new
    /// db — in which case the durable contract guarantees the value is
    /// still exact and the entry need not be invalidated.
    fn revalidates(&self, q: QueryRef, new_db: &QueryDb) -> bool {
        let type_ids: Vec<TypeId> = lock_recovering(&self.names)
            .iter()
            .filter(|(_, name)| **name == q.0)
            .map(|(type_id, _)| *type_id)
            .collect();
        let slots: Vec<Slot> = {
            let table = lock_recovering(&self.table);
            type_ids
                .iter()
                .filter_map(|type_id| table.get(&(*type_id, q.1)).cloned())
                .collect()
        };
        let mut found_any = false;
        for slot in slots {
            // Collect the durable keys first: the revalidator may demand
            // cheap queries on the new db, which must not happen under this
            // slot's lock.
            let checks: Vec<(u64, Revalidator)> = {
                let entries = lock_recovering(&slot);
                let mut checks = Vec::new();
                for entry in entries.iter() {
                    let Some((old_key, reval)) = &entry.durable else {
                        return false;
                    };
                    checks.push((*old_key, Arc::clone(reval)));
                }
                checks
            };
            for (old_key, reval) in checks {
                if reval(new_db) != old_key {
                    return false;
                }
                found_any = true;
            }
        }
        found_any
    }

    // ---- built-in artifact accessors ----------------------------------

    /// Points-to results at a precision level. Solved incrementally against
    /// the shared constraint cache: only functions this db sees for the
    /// first time generate constraints.
    pub fn pointsto(&self, sensitivity: Sensitivity) -> Arc<PointsToResult> {
        self.get::<Pointsto>(&sensitivity)
    }

    /// The call graph at a precision level.
    pub fn callgraph(&self, sensitivity: Sensitivity) -> Arc<CallGraph> {
        self.get::<Callgraph>(&sensitivity)
    }

    /// The cone hash of every function and the SCC schedule over the call
    /// graph at a precision level. Durable: with a persist layer
    /// attached, a warm process reloads these from disk without solving
    /// points-to at all.
    pub fn summaries(&self, sensitivity: Sensitivity) -> Arc<ProgramSummaries> {
        self.get_durable::<Summaries>(&sensitivity)
    }

    /// The CFG of one defined function.
    pub fn cfg(&self, function: &str) -> Option<Arc<Cfg>> {
        let func = self.program.function(function)?;
        func.body.as_ref()?;
        Some(self.get::<CfgOf>(&function.to_string()))
    }

    /// Hash of the whole-program type environment (signatures, composites,
    /// typedefs, globals — bodies excluded).
    pub fn env_hash(&self) -> u64 {
        *self.get::<EnvHash>(&())
    }

    /// Span-insensitive content hash of one function (0 when the program
    /// has no function of that name). This is the input layer of the
    /// dependency graph: edits seed invalidation at [`FnContent`]
    /// instances, so any query that reads a function body — directly or
    /// transitively — must be connected to them (see
    /// [`QueryDb::depend_on_program`]).
    pub fn fn_content(&self, function: &str) -> u64 {
        *self.get::<FnContent>(&function.to_string())
    }

    /// Records the running query's dependency on the *whole* program: the
    /// type environment plus every function's content. Whole-program
    /// queries whose `compute` reads `db.program` directly (rather than
    /// through other queries) must call this first, or
    /// [`QueryDb::apply_edit`] cannot see that an edit reaches them.
    pub fn depend_on_program(&self) {
        self.env_hash();
        for f in &self.program.functions {
            self.fn_content(&f.name);
        }
    }
}

/// The names whose definitions differ between two [`QueryDb::definitions`]
/// lists: a name defined on one side only, or whose definitions differ in
/// number or content. Every definition counts, not only the first one
/// [`FnContent`] reads: a query may read any of them (a checker visits
/// each function), so an edit to a later duplicate must seed its name.
fn changed_names(old: &[(&str, u64)], new: &[(&str, u64)]) -> Vec<String> {
    let mut old = old.chunk_by(|a, b| a.0 == b.0).peekable();
    let mut new = new.chunk_by(|a, b| a.0 == b.0).peekable();
    let mut changed = Vec::new();
    loop {
        let (o, n) = match (old.peek(), new.peek()) {
            (None, None) => return changed,
            (Some(o), Some(n)) if o[0].0 == n[0].0 => (old.next(), new.next()),
            (Some(o), Some(n)) if o[0].0 < n[0].0 => (old.next(), None),
            (Some(_), None) => (old.next(), None),
            _ => (None, new.next()),
        };
        if o != n {
            let name = o.or(n).map(|defs| defs[0].0);
            changed.extend(name.map(str::to_string));
        }
    }
}

// ---- built-in queries --------------------------------------------------

/// Span-insensitive content hash of one function definition (key: function
/// name; value 0 when no such function exists). An *input* query: its
/// instances are the seeds [`QueryDb::apply_edit`] marks dirty, so its own
/// compute reads the db's stored hashes directly by design.
pub struct FnContent;

impl Query for FnContent {
    type Key = String;
    type Value = u64;
    const NAME: &'static str = "engine/fn-content";

    fn compute(db: &QueryDb, key: &String) -> u64 {
        db.program
            .functions
            .position(key)
            .map_or(0, |i| db.hashes.functions[i])
    }
}

/// Points-to analysis at a [`Sensitivity`].
pub struct Pointsto;

impl Query for Pointsto {
    type Key = Sensitivity;
    type Value = PointsToResult;
    const NAME: &'static str = "engine/pointsto";

    fn compute(db: &QueryDb, key: &Sensitivity) -> PointsToResult {
        // Whole-program: any function edit (or env change) must reach this
        // result through the dependency graph.
        db.depend_on_program();
        pointsto::analyze_incremental_with(
            &db.program,
            &db.hashes,
            *key,
            &db.pts_cache,
            SolveOptions::default(),
        )
    }
}

/// Call graph built over [`Pointsto`] results.
pub struct Callgraph;

impl Query for Callgraph {
    type Key = Sensitivity;
    type Value = CallGraph;
    const NAME: &'static str = "engine/callgraph";

    fn compute(db: &QueryDb, key: &Sensitivity) -> CallGraph {
        CallGraph::build(&db.program, &db.get::<Pointsto>(key))
    }
}

/// The engine's schedule and cache keys over [`Callgraph`]: a cone hash
/// per function and the SCC condensation's `sccs` and `levels`.
pub struct Summaries;

impl Query for Summaries {
    type Key = Sensitivity;
    type Value = ProgramSummaries;
    const NAME: &'static str = "engine/summaries";

    fn compute(db: &QueryDb, key: &Sensitivity) -> ProgramSummaries {
        summary::summarize(&db.program, &db.hashes.functions, &db.get::<Callgraph>(key))
    }
}

impl DurableQuery for Summaries {
    /// Version 3: only what the scheduler reads — the cone hash per
    /// function name, the SCCs and the levels. Version 2 also stored each
    /// function's callees, content hash and SCC index.
    const FORMAT_VERSION: u32 = 3;

    fn durable_key(db: &QueryDb, key: &Sensitivity) -> u64 {
        mix(db.program_hash, key.stable_hash())
    }

    fn encode(value: &ProgramSummaries) -> Value {
        let cone_hashes: Map = value
            .cone_hashes
            .iter()
            .map(|(name, &h)| (name.clone(), Value::from(h)))
            .collect();
        let sccs: Vec<Value> = value
            .condensation
            .sccs
            .iter()
            .map(|c| Value::Array(c.iter().map(|n| Value::from(n.as_str())).collect()))
            .collect();
        let levels: Vec<Value> = value
            .condensation
            .levels
            .iter()
            .map(|l| Value::Array(l.iter().map(|&i| Value::from(i)).collect()))
            .collect();
        let mut root = Map::new();
        root.insert("cone_hashes".into(), Value::Object(cone_hashes));
        root.insert("sccs".into(), Value::Array(sccs));
        root.insert("levels".into(), Value::Array(levels));
        Value::Object(root)
    }

    /// Rejects (so the engine recomputes) any entry the scheduler could
    /// not walk: a level naming an SCC that does not exist, an SCC member
    /// that is not a string, or a member without a cone hash.
    fn decode(raw: &Value) -> Option<ProgramSummaries> {
        let cone_hashes: BTreeMap<String, u64> = raw
            .get("cone_hashes")?
            .as_object()?
            .iter()
            .map(|(name, h)| Some((name.clone(), h.as_u64()?)))
            .collect::<Option<_>>()?;
        let sccs: Vec<Vec<String>> = raw
            .get("sccs")?
            .as_array()?
            .iter()
            .map(|c| {
                c.as_array()?
                    .iter()
                    .map(|n| n.as_str().filter(|n| cone_hashes.contains_key(*n)))
                    .map(|n| n.map(String::from))
                    .collect()
            })
            .collect::<Option<_>>()?;
        let levels: Vec<Vec<usize>> = raw
            .get("levels")?
            .as_array()?
            .iter()
            .map(|l| {
                l.as_array()?
                    .iter()
                    .map(|i| i.as_u64().filter(|&i| i < sccs.len() as u64))
                    .map(|i| i.map(|i| i as usize))
                    .collect()
            })
            .collect::<Option<_>>()?;
        Some(ProgramSummaries {
            cone_hashes,
            condensation: Condensation { sccs, levels },
        })
    }
}

/// CFG of one defined function (key: function name).
pub struct CfgOf;

impl Query for CfgOf {
    type Key = String;
    type Value = Cfg;
    const NAME: &'static str = "engine/cfg";

    fn compute(db: &QueryDb, key: &String) -> Cfg {
        // Tie the CFG to its function's content so an edit invalidates
        // exactly this instance.
        db.fn_content(key);
        Cfg::build(
            db.program
                .function(key)
                .expect("cfg queried for a defined function"),
        )
    }
}

/// Hash of the whole-program type environment ([`ProgramHashes::env`]).
/// Like [`FnContent`], an *input* query: [`QueryDb::apply_edit`] seeds it
/// directly when the diff shows the environment changed.
pub struct EnvHash;

impl Query for EnvHash {
    type Key = ();
    type Value = u64;
    const NAME: &'static str = "engine/env-hash";

    fn compute(db: &QueryDb, _key: &()) -> u64 {
        db.hashes.env
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
        let s = db.summaries(Sensitivity::Steensgaard);
        assert!(s.cone_hash("a").is_some());
        assert!(db.cfg("a").is_some());
        assert!(db.cfg("missing").is_none());
    }

    #[test]
    fn program_hash_tracks_content() {
        let p2 = parse_program("fn a() { b(); b(); } fn b() { }").unwrap();
        assert_ne!(small_db().program_hash, QueryDb::new(&p2).program_hash);
    }

    #[test]
    fn dependency_edges_are_recorded() {
        let db = small_db();
        db.summaries(Sensitivity::Steensgaard);
        assert!(db.depends_on(Summaries::NAME, Callgraph::NAME));
        assert!(db.depends_on(Callgraph::NAME, Pointsto::NAME));
        // The leaf computed nothing below it.
        assert!(!db.depends_on(Pointsto::NAME, Callgraph::NAME));
    }

    #[test]
    fn peek_never_computes() {
        let db = small_db();
        assert!(db.peek::<Pointsto>(&Sensitivity::Steensgaard).is_none());
        db.pointsto(Sensitivity::Steensgaard);
        assert!(db.peek::<Pointsto>(&Sensitivity::Steensgaard).is_some());
    }

    #[test]
    fn summaries_roundtrip_through_the_durable_encoding() {
        let db = small_db();
        let s = db.summaries(Sensitivity::Steensgaard);
        let decoded = <Summaries as DurableQuery>::decode(&Summaries::encode(&s))
            .expect("well-formed encoding decodes");
        assert_eq!(decoded, *s);
        // Tampered encodings are rejected, not mis-decoded.
        assert!(<Summaries as DurableQuery>::decode(&Value::from("garbage")).is_none());
    }

    #[test]
    fn apply_edit_invalidates_only_the_dependent_cone() {
        let db = QueryDb::new(
            &parse_program("fn a() { b(); } fn b() { c(); } fn c() { } fn lone() { }").unwrap(),
        );
        db.summaries(Sensitivity::Steensgaard);
        db.cfg("a");
        db.cfg("lone");

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
        // functions' CFGs and content hashes were carried over.
        assert!(new_db.peek::<Pointsto>(&Sensitivity::Steensgaard).is_none());
        assert!(new_db.peek::<CfgOf>(&"a".to_string()).is_some());
        assert!(new_db.peek::<CfgOf>(&"lone".to_string()).is_some());
        assert!(new_db.peek::<FnContent>(&"lone".to_string()).is_some());
        assert!(
            new_db.peek::<FnContent>(&"c".to_string()).is_none(),
            "the edited function's content hash is a seed"
        );

        // Recomputation in the new db is correct and rebuilds the edges.
        let s = new_db.summaries(Sensitivity::Steensgaard);
        assert!(s.cone_hash("c").is_some());
        assert!(new_db.depends_on(Summaries::NAME, Callgraph::NAME));
        assert_ne!(new_db.fn_content("c"), db.fn_content("c"));
        assert_eq!(new_db.fn_content("lone"), db.fn_content("lone"));
    }

    #[test]
    fn apply_edit_detects_signature_and_function_set_changes() {
        let db = small_db();
        db.summaries(Sensitivity::Steensgaard);

        // Adding a function changes the env (its signature joins the
        // environment) and seeds its own content instance.
        let grown = parse_program("fn a() { b(); } fn b() { } fn d() { }").unwrap();
        let (new_db, stats) = edit(&db, &grown);
        assert_eq!(stats.changed_functions, vec!["d".to_string()]);
        assert!(stats.env_changed);
        assert!(new_db.peek::<Pointsto>(&Sensitivity::Steensgaard).is_none());
        assert_eq!(
            new_db.summaries(Sensitivity::Steensgaard).cone_hashes.len(),
            3
        );
    }

    #[test]
    fn apply_edit_revalidates_content_keyed_durable_entries() {
        /// A durable query keyed (and durably keyed) purely by content —
        /// the shape of the per-function Deputy report entries whose
        /// survival across edits the daemon depends on.
        struct ContentKeyed;
        impl Query for ContentKeyed {
            type Key = u64;
            type Value = u64;
            const NAME: &'static str = "test/content-keyed";
            fn compute(db: &QueryDb, key: &u64) -> u64 {
                // Reads whole-program state, so it is dependency-reachable
                // from every function edit...
                db.depend_on_program();
                key * 3
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
        // ...but its durable key is untouched by the edit, so it is
        // revalidated rather than discarded.
        assert!(stats.revalidated >= 1);
        assert!(new_db.peek::<ContentKeyed>(&7).is_some());
    }

    #[test]
    fn apply_edit_rekeys_entries_adopted_from_the_persist_layer() {
        /// A whole-program durable query anchored to the program hash —
        /// the shape of [`Summaries`].
        struct WholeProgram;
        impl Query for WholeProgram {
            type Key = ();
            type Value = u64;
            const NAME: &'static str = "test/whole-program";
            fn compute(db: &QueryDb, _key: &()) -> u64 {
                db.depend_on_program();
                db.program.functions.len() as u64
            }
        }
        impl DurableQuery for WholeProgram {
            const FORMAT_VERSION: u32 = 1;
            fn durable_key(db: &QueryDb, key: &()) -> u64 {
                mix(db.program_hash, key.stable_hash())
            }
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

        // "Process two" adopts it from disk: a persist hit records no
        // dependency edges, so the edit walk cannot reach the entry from
        // the changed-function seeds.
        let layer = Arc::new(PersistLayer::open(&dir).unwrap());
        let db = QueryDb::new(&program).with_persist(Some(layer));
        db.get_durable::<WholeProgram>(&());
        assert_eq!(db.query_stats().persist_hits, 1);

        let edited = parse_program("fn a() { b(); b(); } fn b() { }").unwrap();
        let (new_db, _) = edit(&db, &edited);
        assert!(
            new_db.peek::<WholeProgram>(&()).is_none(),
            "an edge-less whole-program entry must be re-keyed out on edit"
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
