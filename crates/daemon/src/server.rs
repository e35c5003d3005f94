//! The resident analysis server.
//!
//! A [`Daemon`] binds a Unix-domain socket and serves the framed-JSON
//! protocol from one shared [`Engine`] + persist layer: every connection
//! gets its own thread, but all of them hit the same context store (each
//! context's query memo), points-to constraint cache, and persist shards —
//! so the first client pays the cold solve and everyone after (and every
//! repeat request) is served from resident state. `notify_edit` keeps that state
//! alive *across* program states: every memoized artifact whose content
//! key is unchanged by the edit carries over, and only the rest recompute
//! (see [`Engine::apply_edit`]). An edit needs no lock against in-flight
//! analyzes: each entry is judged by the key of the program it was
//! computed from. A repeated `analyze` of bytes the daemon has
//! already answered costs a lookup: the answer index resolves the source
//! digest to a resident context, and an entirely cache-served answer is
//! memoized as the encoded response bytes (see [`crate::protocol`]).

use crate::protocol::{
    encode_frame, error_response, invalidation_to_value, read_frame, response_ok, write_frame,
    SourceDigest, Splice, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use ivy_analysis::pointsto::{
    self, verify_derivations, ChainLink, Loc, PointsToResult, SolveOptions,
};
use ivy_blockstop::BlockStopChecker;
use ivy_ccount::CCountChecker;
use ivy_cmir::parser::{parse_program, ReparsePath};
use ivy_cmir::Program;
use ivy_deputy::plugin::DeputyChecker;
use ivy_engine::{AnalysisCtx, Engine, PersistLayer, Report};
use serde_json::{Map, Value};
use std::collections::HashMap;
use std::io::{self, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Configuration of a daemon instance.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Socket path to bind (a stale file at this path is replaced).
    pub socket: PathBuf,
    /// Persist directory shared with batch runs and other workers; `None`
    /// runs memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Deputy configuration for the served fleet. The default keeps
    /// daemon answers byte-comparable to batch runs; sessions that want
    /// the indirect-annotation drift check opt in here.
    pub deputy: ivy_deputy::DeputyConfig,
}

impl DaemonConfig {
    /// A daemon on `socket` with no persistence.
    pub fn new(socket: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            socket: socket.into(),
            cache_dir: None,
            deputy: ivy_deputy::DeputyConfig::default(),
        }
    }

    /// Attaches a persist directory (builder style).
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> DaemonConfig {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Serves the fleet with a non-default Deputy configuration (builder
    /// style), e.g. with `check_indirect_annotations` on.
    pub fn with_deputy(mut self, deputy: ivy_deputy::DeputyConfig) -> DaemonConfig {
        self.deputy = deputy;
        self
    }
}

/// The checker fleet — Deputy (at the given configuration), CCount, and
/// BlockStop. The *single* definition every serving path builds from:
/// the daemon ([`fleet_engine`]) and batch mode
/// (`ivy_core::experiments::default_engine`) both call this, so their
/// answers cannot drift.
pub fn fleet_checkers(deputy: ivy_deputy::DeputyConfig) -> Vec<Arc<dyn ivy_engine::Checker>> {
    vec![
        Arc::new(DeputyChecker::with_config(deputy)),
        Arc::new(CCountChecker::new()),
        Arc::new(BlockStopChecker::new()),
    ]
}

/// Builds the engine a daemon serves: the default checker fleet
/// ([`fleet_checkers`] at the default Deputy configuration) — the same
/// fleet batch mode runs, which is what makes daemon answers
/// byte-comparable to batch reports.
///
/// The first argument is ignored (the engine runs its waves on the calling
/// thread); it stays until the repo benchmark, which passes `0`, drops it.
pub fn fleet_engine(_threads: usize, persist: Option<Arc<PersistLayer>>) -> Engine {
    fleet_engine_with(persist, ivy_deputy::DeputyConfig::default())
}

/// [`fleet_engine`] with an explicit Deputy configuration (the daemon
/// passes [`DaemonConfig::deputy`] through here).
pub fn fleet_engine_with(
    persist: Option<Arc<PersistLayer>>,
    deputy: ivy_deputy::DeputyConfig,
) -> Engine {
    let mut engine = Engine::new();
    for checker in fleet_checkers(deputy) {
        engine = engine.with_checker(checker);
    }
    match persist {
        Some(layer) => engine.with_persist(layer),
        None => engine,
    }
}

/// Requests at or above this duration land in the slow-request ring.
const SLOW_REQUEST_MICROS: u64 = 10_000;

/// Capacity of the slow-request ring: old entries fall off the front, so a
/// long-lived daemon holds the most recent slow requests, not the first.
const SLOW_RING_CAP: usize = 64;

/// One entry of the slow-request ring.
struct SlowRequest {
    /// The metered verb ([`VERBS`]), never the client's text.
    verb: &'static str,
    micros: u64,
    /// Milliseconds since the daemon started, so entries order themselves
    /// without a wall clock.
    at_ms: u64,
}

/// A bounded ring of the most recent slow requests: pushing at capacity
/// evicts the *oldest* entry, so a long-lived daemon always holds the
/// latest [`SlowRing::cap`] slow requests, never the first ones it saw.
struct SlowRing {
    entries: std::collections::VecDeque<SlowRequest>,
    cap: usize,
}

impl SlowRing {
    fn new(cap: usize) -> SlowRing {
        SlowRing {
            entries: std::collections::VecDeque::with_capacity(cap),
            cap,
        }
    }

    fn push(&mut self, entry: SlowRequest) {
        if self.entries.len() == self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
    }

    fn iter(&self) -> impl Iterator<Item = &SlowRequest> {
        self.entries.iter()
    }
}

/// Every verb the daemon meters, plus the `unknown` catch-all. The order
/// is the index order of [`VerbMetrics`] slots.
const VERBS: [&str; 7] = [
    "analyze",
    "notify_edit",
    "explain",
    "stats",
    "metrics",
    "shutdown",
    "unknown",
];

/// How much of an unknown `cmd` the error reply echoes, in characters.
const UNKNOWN_CMD_ECHO_CHARS: usize = 64;

/// Fixed log-scale latency bucket upper bounds, in microseconds. Fixed
/// bounds (rather than adaptive ones) keep the exposition stable across
/// snapshots and daemons, so dashboards can aggregate them.
const LATENCY_BUCKETS_MICROS: [u64; 12] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// One verb's latency histogram: a non-cumulative count per bucket of
/// [`LATENCY_BUCKETS_MICROS`] (observations above the last bound land only
/// in `count`), plus a running sum for the mean.
struct LatencyHistogram {
    buckets: [AtomicU64; 12],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    fn observe(&self, micros: u64) {
        if let Some(slot) = LATENCY_BUCKETS_MICROS.iter().position(|&le| micros <= le) {
            self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(micros, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot as *cumulative* bucket counts (the Prometheus `le`
    /// convention) plus sum and count. The cumulative array is monotone
    /// non-decreasing and each entry is at most `count` by construction.
    fn snapshot(&self) -> ([u64; 12], u64, u64) {
        let mut cumulative = [0u64; 12];
        let mut running = 0u64;
        for (slot, bucket) in self.buckets.iter().enumerate() {
            running += bucket.load(Ordering::Relaxed);
            cumulative[slot] = running;
        }
        (
            cumulative,
            self.sum.load(Ordering::Relaxed),
            self.count.load(Ordering::Relaxed),
        )
    }

    /// The q-quantile estimate: the upper bound of the first bucket whose
    /// cumulative count reaches `ceil(q * count)`. Observations past the
    /// last bound report the last bound (the histogram cannot resolve
    /// further); an empty histogram reports 0.
    fn quantile(cumulative: &[u64; 12], count: u64, q: f64) -> u64 {
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).max(1);
        for (slot, &cum) in cumulative.iter().enumerate() {
            if cum >= rank {
                return LATENCY_BUCKETS_MICROS[slot];
            }
        }
        LATENCY_BUCKETS_MICROS[LATENCY_BUCKETS_MICROS.len() - 1]
    }
}

/// Per-verb request counters and latency histograms, surfaced in `stats`
/// and `metrics` responses.
#[derive(Default)]
struct VerbMetrics {
    counts: [AtomicU64; 8],
    latency: [LatencyHistogram; 8],
}

impl VerbMetrics {
    /// The [`VERBS`] slot metering `cmd`. Any text that is not a known
    /// verb is `unknown`, so client-chosen strings never reach a series,
    /// a span or the slow ring.
    fn slot(cmd: &str) -> usize {
        VERBS
            .iter()
            .position(|&v| v == cmd)
            .unwrap_or(VERBS.len() - 1)
    }
}

/// A Prometheus `(label, value)` pair.
type Label = Option<(&'static str, &'static str)>;

/// Whether a series only grows (a Prometheus counter) or reads a level.
enum Kind {
    Counter,
    Gauge,
}

/// Where a [`Series`] reads its value.
#[derive(Clone, Copy)]
enum Read {
    /// A number the daemon state owns.
    State(fn(&State) -> u64),
    /// A persist-layer number: a memory-only daemon has neither the `stats`
    /// key nor the series.
    Persist(fn(&PersistLayer) -> u64),
    /// One sample per [`VERBS`] slot: the verb is the `stats` key (under the
    /// row's path) and the value of the `verb` label.
    PerVerb,
}

/// One row of [`SERIES`].
struct Series {
    /// Dotted `stats` path of the value (of the per-verb object, for
    /// [`Read::PerVerb`]).
    path: &'static str,
    /// Prometheus name.
    name: &'static str,
    /// Fixed Prometheus label, if the row has one.
    label: Label,
    kind: Kind,
    read: Read,
}

const fn counter(path: &'static str, name: &'static str, read: Read) -> Series {
    Series {
        path,
        name,
        label: None,
        kind: Kind::Counter,
        read,
    }
}

const fn gauge(path: &'static str, name: &'static str, read: Read) -> Series {
    Series {
        kind: Kind::Gauge,
        ..counter(path, name, read)
    }
}

/// Every plain-number series the daemon reports. `stats` and `metrics` both
/// walk this table, so each fact has one reader and its two renderings
/// cannot disagree. Only the latency histograms, uptime, protocol version,
/// slow ring and persist writer id are rendered outside it.
#[rustfmt::skip]
const SERIES: &[Series] = {
    use Ordering::Relaxed;
    use Read::{PerVerb, Persist, State as Of};
    &[
        counter("requests", "ivy_daemon_requests_served_total", Of(|s| s.requests.load(Relaxed))),
        counter("analyzes", "ivy_daemon_analyzes_total", Of(|s| s.analyzes.load(Relaxed))),
        counter("edits", "ivy_daemon_edits_total", Of(|s| s.edits.load(Relaxed))),
        counter("engine.edits.spliced", "ivy_daemon_edits_spliced_total", Of(|s| s.edits_spliced.load(Relaxed))),
        Series { label: Some(("path", "function")), ..counter("engine.edits.reparse_function", "ivy_daemon_edit_reparse_total",
            Of(|s| s.reparse_function.load(Relaxed))) },
        Series { label: Some(("path", "full")), ..counter("engine.edits.reparse_full", "ivy_daemon_edit_reparse_total",
            Of(|s| s.reparse_full.load(Relaxed))) },
        counter("verbs", "ivy_daemon_verb_requests_total", PerVerb),
        counter("engine.ctx_hits", "ivy_daemon_ctx_hits_total", Of(|s| s.engine.ctx_store().hits())),
        counter("engine.ctx_misses", "ivy_daemon_ctx_misses_total", Of(|s| s.engine.ctx_store().misses())),
        counter("engine.evictions", "ivy_daemon_ctx_evictions_total", Of(|s| s.engine.ctx_store().evictions())),
        gauge("engine.resident_contexts", "ivy_daemon_resident_contexts", Of(|s| s.engine.ctx_store().len() as u64)),
        counter("engine.pointsto.batch_hits", "ivy_daemon_pointsto_batch_hits_total", Of(|s| s.engine.pointsto_cache().hits())),
        counter("engine.pointsto.batch_misses", "ivy_daemon_pointsto_batch_misses_total", Of(|s| s.engine.pointsto_cache().misses())),
        Series { label: Some(("mode", "cold")), ..counter("engine.pointsto.solves_cold", "ivy_daemon_pointsto_solves_total",
            Of(|s| s.engine.pointsto_cache().solves_cold())) },
        Series { label: Some(("mode", "incremental-repropagate")), ..counter("engine.pointsto.solves_repropagate", "ivy_daemon_pointsto_solves_total",
            Of(|s| s.engine.pointsto_cache().solves_repropagate())) },
        Series { label: Some(("mode", "reused")), ..counter("engine.pointsto.solves_reused", "ivy_daemon_pointsto_solves_total",
            Of(|s| s.engine.pointsto_cache().solves_reused())) },
        gauge("engine.pointsto.live_solves", "ivy_daemon_pointsto_live_solves", Of(|s| s.engine.pointsto_cache().live_solves() as u64)),
        gauge("engine.answer_memo.entries", "ivy_daemon_answer_memo_entries", Of(|s| s.answers.entries.load(Relaxed))),
        gauge("engine.answer_memo.bytes", "ivy_daemon_answer_memo_bytes", Of(|s| s.answers.bytes.load(Relaxed))),
        counter("engine.answer_memo.hits", "ivy_daemon_answer_memo_hits_total", Of(|s| s.answers.hits.load(Relaxed))),
        counter("engine.answer_memo.misses", "ivy_daemon_answer_memo_misses_total", Of(|s| s.answers.misses.load(Relaxed))),
        counter("engine.answer_memo.need_source", "ivy_daemon_answer_memo_need_source_total", Of(|s| s.answers.need_source.load(Relaxed))),
        counter("persist.hits", "ivy_daemon_persist_hits_total", Persist(PersistLayer::hits)),
        counter("persist.misses", "ivy_daemon_persist_misses_total", Persist(PersistLayer::misses)),
        counter("persist.writes", "ivy_daemon_persist_writes_total", Persist(PersistLayer::writes)),
        counter("persist.pruned", "ivy_daemon_persist_pruned_total", Persist(PersistLayer::pruned)),
    ]
};

/// The encoded answer of an entirely cache-served run. It is what a fresh
/// run would answer only while the context it was computed from is the
/// one resident for its program (an edit back to the same program
/// registers a new context with its own points-to statistics) and while
/// the persist layer's lifetime prune count is unchanged.
struct Memo {
    ctx: Weak<AnalysisCtx>,
    bytes: Arc<[u8]>,
    /// The persist layer's lifetime prune count the answer reports.
    persist_pruned: u64,
}

impl Memo {
    fn serves(&self, ctx: &Arc<AnalysisCtx>, persist_pruned: u64) -> bool {
        std::ptr::eq(self.ctx.as_ptr(), Arc::as_ptr(ctx)) && self.persist_pruned == persist_pruned
    }
}

/// One digest the answer index resolves.
struct Answer {
    program_hash: u64,
    memo: Option<Arc<Memo>>,
    /// The source text the digest names: the base of a splice-framed
    /// `notify_edit`.
    source: Arc<str>,
    /// Last-use stamp, for LRU eviction.
    stamp: u64,
}

/// What a digest resolves to: the resident context of its program, the
/// memoized answer (if any) and the source text.
type Resolved = (Arc<AnalysisCtx>, Option<Arc<Memo>>, Arc<str>);

/// A resolved splice frame: the edited text, its digest and the base
/// context the edit diffs against.
type SplicedEdit = (Arc<str>, SourceDigest, Arc<AnalysisCtx>);

#[derive(Default)]
struct AnswerSlots {
    slots: HashMap<SourceDigest, Answer>,
    tick: u64,
}

/// The content-addressed answer index: source digest → program hash and
/// source text, plus the memoized response bytes of answers that were
/// entirely cache-served. An LRU bounded at the context store's
/// capacity — a digest is only useful while its program's context is
/// resident, and the store holds no more than that many.
#[derive(Default)]
struct AnswerMemo {
    index: Mutex<AnswerSlots>,
    capacity: usize,
    /// Digests held.
    entries: AtomicU64,
    /// Memoized response bytes held.
    bytes: AtomicU64,
    /// Digest requests served from memoized bytes.
    hits: AtomicU64,
    /// Digest requests the engine served.
    misses: AtomicU64,
    /// Digest requests answered `need_source`.
    need_source: AtomicU64,
}

impl AnswerMemo {
    fn new(capacity: usize) -> AnswerMemo {
        AnswerMemo {
            capacity: capacity.max(1),
            ..AnswerMemo::default()
        }
    }

    fn lock(&self) -> MutexGuard<'_, AnswerSlots> {
        self.index.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The program hash a digest names, its memo (if any) and its source
    /// text (bumps recency).
    fn lookup(&self, digest: SourceDigest) -> Option<(u64, Option<Arc<Memo>>, Arc<str>)> {
        let mut index = self.lock();
        index.tick += 1;
        let tick = index.tick;
        let answer = index.slots.get_mut(&digest)?;
        answer.stamp = tick;
        Some((
            answer.program_hash,
            answer.memo.clone(),
            Arc::clone(&answer.source),
        ))
    }

    /// Records that `digest` (the digest of `source`) names
    /// `program_hash`, replacing (or, at capacity, evicting) the
    /// least-recently-used entry. An entry that already names the hash
    /// keeps its memo.
    fn remember(&self, digest: SourceDigest, program_hash: u64, source: Arc<str>) {
        let mut index = self.lock();
        self.upsert(&mut index, digest, program_hash, source);
        self.publish(&index);
    }

    /// Records `digest` with the encoded answer of an entirely
    /// cache-served run over `ctx`.
    fn memoize(
        &self,
        digest: SourceDigest,
        source: Arc<str>,
        ctx: &Arc<AnalysisCtx>,
        bytes: Arc<[u8]>,
        persist_pruned: u64,
    ) {
        let mut index = self.lock();
        self.upsert(&mut index, digest, ctx.program_hash, source)
            .memo = Some(Arc::new(Memo {
            ctx: Arc::downgrade(ctx),
            bytes,
            persist_pruned,
        }));
        self.publish(&index);
    }

    /// Drops a digest whose program is no longer resident.
    fn forget(&self, digest: SourceDigest) {
        let mut index = self.lock();
        if index.slots.remove(&digest).is_some() {
            self.publish(&index);
        }
    }

    fn upsert<'a>(
        &self,
        index: &'a mut AnswerSlots,
        digest: SourceDigest,
        program_hash: u64,
        source: Arc<str>,
    ) -> &'a mut Answer {
        index.tick += 1;
        let tick = index.tick;
        if !index.slots.contains_key(&digest) {
            while index.slots.len() >= self.capacity {
                let Some((&victim, _)) = index.slots.iter().min_by_key(|(_, a)| a.stamp) else {
                    break;
                };
                index.slots.remove(&victim);
            }
        }
        let answer = index.slots.entry(digest).or_insert_with(|| Answer {
            program_hash,
            memo: None,
            source,
            stamp: tick,
        });
        if answer.program_hash != program_hash {
            answer.program_hash = program_hash;
            answer.memo = None;
        }
        answer.stamp = tick;
        answer
    }

    /// Refreshes the entry and byte gauges (called under the index lock
    /// after every mutation).
    fn publish(&self, index: &AnswerSlots) {
        let bytes: usize = index
            .slots
            .values()
            .filter_map(|a| a.memo.as_ref())
            .map(|m| m.bytes.len())
            .sum();
        self.entries
            .store(index.slots.len() as u64, Ordering::Relaxed);
        self.bytes.store(bytes as u64, Ordering::Relaxed);
    }
}

/// The object at dotted `path` under `map` (`map` itself for `""`),
/// created on first use.
fn section_mut<'a>(mut map: &'a mut Map, path: &str) -> &'a mut Map {
    for part in path.split('.').filter(|part| !part.is_empty()) {
        let entry = map
            .entry(part.to_string())
            .or_insert_with(|| Value::Object(Map::new()));
        let Value::Object(section) = entry else {
            unreachable!("a stats section is an object");
        };
        map = section;
    }
    map
}

/// A response on its way to the wire: one JSON message, or pre-encoded
/// frames (a digest-addressed answer, possibly memoized) written as is.
enum Reply {
    Message(Value),
    Frames(Arc<[u8]>),
}

/// The fact an `explain` request names, picked from the resident answer:
/// the indirect call through `callee` in `func` may reach `target`, or
/// the pointer slot `loc` may point to `pointee`.
enum Claim<'a> {
    Indirect {
        func: &'a str,
        callee: &'a str,
        target: String,
    },
    Slot {
        loc: Loc,
        pointee: Loc,
    },
}

impl<'a> Claim<'a> {
    /// Resolves `lvalue` in `func` against `pts`: an indirect callee
    /// expression is explained as a call resolution; anything else names
    /// a pointer slot (a global if the program declares one, else a
    /// local). The target must be in the static answer; `None` takes
    /// the first.
    fn pick(
        program: &Program,
        pts: &PointsToResult,
        func: &'a str,
        lvalue: &'a str,
        target: Option<&str>,
    ) -> Result<Claim<'a>, String> {
        if let Some(targets) = pts.indirect_targets_for(func, lvalue) {
            let target = match target {
                Some(t) if targets.contains(t) => t.to_string(),
                Some(t) => {
                    return Err(format!(
                        "the static answer does not resolve `{lvalue}` in `{func}` to `{t}`; \
                         it resolves to: {}",
                        targets.iter().cloned().collect::<Vec<_>>().join(", ")
                    ))
                }
                None => targets.iter().next().cloned().ok_or_else(|| {
                    format!("the static answer resolves `{lvalue}` in `{func}` to no targets")
                })?,
            };
            return Ok(Claim::Indirect {
                func,
                callee: lvalue,
                target,
            });
        }
        let loc = if program.global(lvalue).is_some() {
            Loc::Global(lvalue.to_string())
        } else {
            Loc::Local {
                func: func.to_string(),
                var: lvalue.to_string(),
            }
        };
        let set = pts.points_to(&loc);
        let pointee = match target {
            Some(t) => set
                .iter()
                .find(|p| p.to_string() == t)
                .cloned()
                .ok_or_else(|| {
                    format!(
                        "the static answer does not put `{t}` in the points-to set of `{loc}`; \
                         the set is: {{{}}}",
                        set.iter()
                            .map(|p| p.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })?,
            None => set.iter().next().cloned().ok_or_else(|| {
                format!(
                    "the points-to set of `{loc}` is empty: no seed constraint \
                     (address-of or allocation) ever reaches it"
                )
            })?,
        };
        Ok(Claim::Slot { loc, pointee })
    }

    /// The fact as the response's `fact` field states it.
    fn describe(&self) -> String {
        match self {
            Claim::Indirect {
                func,
                callee,
                target,
            } => format!("indirect call `{callee}` in `{func}` may reach `{target}`"),
            Claim::Slot { loc, pointee } => format!("`{loc}` may point to `{pointee}`"),
        }
    }

    /// Whether `pts` holds exactly this fact.
    fn holds_in(&self, pts: &PointsToResult) -> bool {
        match self {
            Claim::Indirect {
                func,
                callee,
                target,
            } => pts
                .indirect_targets_for(func, callee)
                .is_some_and(|targets| targets.contains(target)),
            Claim::Slot { loc, pointee } => pts.points_to(loc).contains(pointee),
        }
    }

    /// The seed-first derivation chain of this fact in a traced solve.
    fn chain(&self, program: &Program, traced: &PointsToResult) -> Option<Vec<ChainLink>> {
        match self {
            Claim::Indirect {
                func,
                callee,
                target,
            } => traced.why_indirect(program, func, callee, target),
            Claim::Slot { loc, pointee } => traced.why(loc, pointee),
        }
    }
}

/// Encodes a digest-addressed answer: the JSON header announcing
/// `diagnostics_bytes`, then the stable diagnostics serialization as one
/// raw frame. The diagnostics are written straight into the frame buffer,
/// behind room for the widest header; the header is then encoded with
/// their length and placed right in front of them.
fn answer_frames(ctx: &AnalysisCtx, report: &Report) -> io::Result<Arc<[u8]>> {
    let header = |diagnostics_bytes: usize| {
        let mut m = Map::new();
        m.insert("ok".into(), Value::from(true));
        m.insert(
            "program_hash".into(),
            Value::from(format!("{:016x}", ctx.program_hash)),
        );
        m.insert(
            "diagnostic_count".into(),
            Value::from(report.diagnostics.len()),
        );
        m.insert("diagnostics_bytes".into(), Value::from(diagnostics_bytes));
        m.insert("stats".into(), report.stats.to_value());
        Value::Object(m)
    };
    let mut head = Vec::new();
    encode_frame(&header(usize::MAX), &mut head)?;
    let gap = head.len() + 4;
    let mut out = vec![0; gap];
    report.write_diagnostics_json(&mut out);
    let len = out.len() - gap;
    if len > MAX_FRAME_BYTES as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME_BYTES",
        ));
    }
    head.clear();
    encode_frame(&header(len), &mut head)?;
    head.extend_from_slice(&(len as u32).to_le_bytes());
    let start = gap - head.len();
    out[start..gap].copy_from_slice(&head);
    Ok(out[start..].into())
}

/// Shared server state: the engine, the resident context the last
/// `analyze` left behind (the base `notify_edit` diffs against), the
/// answer index, and request counters.
struct State {
    engine: Engine,
    persist: Option<Arc<PersistLayer>>,
    resident: Mutex<Option<Arc<AnalysisCtx>>>,
    answers: AnswerMemo,
    /// Clones of every open client stream (keyed by fd), so shutdown can
    /// unblock connections idling in a read instead of waiting on them
    /// forever.
    connections: Mutex<std::collections::HashMap<i32, UnixStream>>,
    started: Instant,
    requests: AtomicU64,
    analyzes: AtomicU64,
    edits: AtomicU64,
    /// Edits that arrived as a splice frame.
    edits_spliced: AtomicU64,
    /// Edits re-parsed one function at a time, and in full.
    reparse_function: AtomicU64,
    reparse_full: AtomicU64,
    verbs: VerbMetrics,
    /// Ring buffer of the most recent requests that took at least
    /// [`SLOW_REQUEST_MICROS`]; surfaced by the `stats` verb.
    slow: Mutex<SlowRing>,
    shutdown: AtomicBool,
    /// Exclusive lock on the sidecar `<socket>.lock` file, held until the
    /// accept loop has removed the socket (see [`Daemon::bind`]); the OS
    /// releases it when the file handle drops.
    _socket_lock: std::fs::File,
}

impl State {
    /// Registers a connection in the shutdown registry; returns false
    /// (and the caller must drop the connection unserved) if the
    /// registry clone cannot be made — a connection served while
    /// invisible to [`State::close_connections`] would hang shutdown's
    /// join on its blocking read.
    fn register_connection(&self, stream: &UnixStream) -> bool {
        use std::os::fd::AsRawFd;
        let Ok(clone) = stream.try_clone() else {
            return false;
        };
        self.connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(stream.as_raw_fd(), clone);
        // Close the race with a concurrent shutdown: if the registry was
        // drained before this insert, nobody will close this stream for
        // us — the mutex ordering guarantees the flag (set before the
        // drain) is visible here, so self-close instead of blocking in a
        // read forever and hanging the accept loop's join.
        if self.shutdown.load(Ordering::SeqCst) {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
        true
    }

    fn deregister_connection(&self, stream: &UnixStream) {
        use std::os::fd::AsRawFd;
        self.connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&stream.as_raw_fd());
    }

    /// Unblocks every open connection (idle clients sit in a blocking
    /// read; a plain join would wait on them forever). Only the *read*
    /// half is shut down: a connection mid-compute still delivers its
    /// in-flight response over the intact write half, then sees EOF on
    /// its next read and exits cleanly.
    fn close_connections(&self) {
        let connections = std::mem::take(
            &mut *self
                .connections
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for stream in connections.into_values() {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
    }

    fn set_resident(&self, ctx: &Arc<AnalysisCtx>) {
        *self.resident.lock().unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(ctx));
    }

    /// Runs the fleet over `ctx` and makes it the resident context.
    fn run(&self, ctx: &Arc<AnalysisCtx>, reused: bool) -> Report {
        let report = self.engine.analyze_with_ctx(ctx, reused);
        self.set_resident(ctx);
        report
    }

    /// The persist layer's lifetime prune count (0 without a layer), as
    /// a fresh run would report it.
    fn persist_pruned(&self) -> u64 {
        self.persist.as_ref().map_or(0, |layer| layer.pruned())
    }

    /// The resident context a digest names, with its memo and source
    /// text. A digest whose context the store has evicted is forgotten.
    fn resolve(&self, digest: SourceDigest) -> Option<Resolved> {
        let (hash, memo, source) = self.answers.lookup(digest)?;
        match self.engine.ctx_store().get(hash) {
            Some(ctx) => Some((ctx, memo, source)),
            None => {
                self.answers.forget(digest);
                None
            }
        }
    }

    /// An `analyze`, always addressed by digest. Without `source`, the
    /// digest must resolve to a resident context (else `need_source`);
    /// memoized bytes that still match that context are the answer. With
    /// `source`, the digest must name it, and the program is parsed and
    /// analyzed. Every answer the engine runs is recorded in the index,
    /// and memoized when it was entirely cache-served.
    fn analyze(&self, request: &Value) -> Reply {
        let fail = |message: &str| Reply::Message(error_response(message));
        let Some(digest) = request.get("digest") else {
            return fail("analyze needs a \"digest\" field (the source's 32-hex-digit digest)");
        };
        let Some(digest) = digest.as_str().and_then(SourceDigest::parse) else {
            return fail("\"digest\" must be a string of 32 hex digits");
        };
        let program = match request.get("source") {
            None => None,
            Some(source) => {
                let Some(source) = source.as_str() else {
                    return fail("\"source\" must be a string");
                };
                if SourceDigest::of(source) != digest {
                    return fail("\"digest\" does not match the attached source");
                }
                match parse_program(source) {
                    Ok(program) => Some((program, Arc::from(source))),
                    Err(e) => return fail(&format!("parse error: {e}")),
                }
            }
        };
        let (ctx, reused, memo, source) = match program {
            Some((program, source)) => {
                let (ctx, reused) = self.engine.context_for_source(program, Arc::clone(&source));
                (ctx, reused, None, source)
            }
            None => match self.resolve(digest) {
                Some((ctx, memo, source)) => (ctx, true, memo, source),
                None => return Reply::Message(self.need_source()),
            },
        };
        self.analyzes.fetch_add(1, Ordering::Relaxed);
        if let Some(memo) = memo.filter(|m| m.serves(&ctx, self.persist_pruned())) {
            self.answers.hits.fetch_add(1, Ordering::Relaxed);
            self.set_resident(&ctx);
            return Reply::Frames(Arc::clone(&memo.bytes));
        }
        self.answers.misses.fetch_add(1, Ordering::Relaxed);
        let report = self.run(&ctx, reused);
        let bytes = match answer_frames(&ctx, &report) {
            Ok(bytes) => bytes,
            Err(e) => return fail(&format!("encode: {e}")),
        };
        // Only an entirely cache-served run repeats byte for byte: a run
        // that computed, reloaded or failed to flush reports that in its
        // stats, and the next run over the same context would not.
        let s = &report.stats;
        if s.ctx_reused && s.cache_misses == 0 && s.persist_hits == 0 && s.persist_flush_errors == 0
        {
            self.answers
                .memoize(digest, source, &ctx, Arc::clone(&bytes), s.persist_pruned);
        } else {
            self.answers.remember(digest, ctx.program_hash, source);
        }
        Reply::Frames(bytes)
    }

    /// The `need_source` answer to a digest the index cannot resolve.
    fn need_source(&self) -> Value {
        self.answers.need_source.fetch_add(1, Ordering::Relaxed);
        let mut m = Map::new();
        m.insert("ok".into(), Value::from(true));
        m.insert("need_source".into(), Value::from(true));
        Value::Object(m)
    }

    /// The edited text and base context of a splice-framed `notify_edit`:
    /// `Ok(None)` when the index does not hold the base (the client must
    /// resend the full source).
    fn splice_edit(&self, request: &Value) -> Result<Option<SplicedEdit>, String> {
        let digest_field = |key: &str| {
            request
                .get(key)
                .and_then(Value::as_str)
                .and_then(SourceDigest::parse)
                .ok_or_else(|| format!("\"{key}\" must be a string of 32 hex digits"))
        };
        let offset_field = |key: &str| {
            request
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("\"{key}\" must be a non-negative integer"))
        };
        let base = digest_field("base")?;
        let digest = digest_field("digest")?;
        let splice = Splice {
            at: offset_field("at")?,
            remove: offset_field("remove")?,
            insert: request
                .get("insert")
                .and_then(Value::as_str)
                .ok_or("\"insert\" must be a string")?,
        };
        let Some((ctx, _, text)) = self.resolve(base) else {
            return Ok(None);
        };
        let source = splice.apply(&text)?;
        if SourceDigest::of(&source) != digest {
            return Err("\"digest\" does not match the spliced source".into());
        }
        Ok(Some((Arc::from(source), digest, ctx)))
    }

    /// A `notify_edit`, in either shape: a splice against a base named by
    /// digest (diffed against that base's context), or the full source
    /// (diffed against the resident context). Both re-parse against the
    /// base's text, one function at a time when the edit allows it.
    fn notify_edit(&self, request: &Value) -> Value {
        let spliced = request.get("base").is_some();
        let (source, digest, base) = if spliced {
            match self.splice_edit(request) {
                Ok(Some((source, digest, base))) => (source, digest, Some(base)),
                Ok(None) => return self.need_source(),
                Err(message) => return error_response(&message),
            }
        } else {
            let Some(source) = request.get("source").and_then(Value::as_str) else {
                return error_response("notify_edit needs a \"source\" field");
            };
            (Arc::from(source), SourceDigest::of(source), None)
        };
        let base = base.or_else(|| {
            self.resident
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
        });
        let Some(base) = base else {
            return error_response("notify_edit before any analyze: nothing is resident");
        };
        let edit = match self.engine.apply_source_edit(&base, Arc::clone(&source)) {
            Ok(edit) => edit,
            Err(e) => return error_response(&format!("parse error: {e}")),
        };
        self.edits.fetch_add(1, Ordering::Relaxed);
        if spliced {
            self.edits_spliced.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(path) = edit.reparse {
            let counter = match path {
                ReparsePath::Function(_) => &self.reparse_function,
                ReparsePath::Full => &self.reparse_full,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        self.set_resident(&edit.ctx);
        self.answers.remember(digest, edit.ctx.program_hash, source);
        let mut m = Map::new();
        m.insert("ok".into(), Value::from(true));
        m.insert(
            "program_hash".into(),
            Value::from(format!("{:016x}", edit.ctx.program_hash)),
        );
        let reparse = edit.reparse.as_ref().map_or("unchanged", ReparsePath::name);
        m.insert("reparse".into(), Value::from(reparse));
        m.insert("invalidation".into(), invalidation_to_value(&edit.stats));
        Value::Object(m)
    }

    /// Hands every [`SERIES`] sample to `emit` as `(row, stats section,
    /// stats key, label, value)`. A per-verb row yields one sample per
    /// verb, and a persist row none without a persist layer.
    fn samples(&self, mut emit: impl FnMut(&Series, &str, &str, Label, u64)) {
        for row in SERIES {
            let (section, key) = row.path.rsplit_once('.').unwrap_or(("", row.path));
            match row.read {
                Read::State(read) => emit(row, section, key, row.label, read(self)),
                Read::Persist(read) => {
                    if let Some(layer) = &self.persist {
                        emit(row, section, key, row.label, read(layer));
                    }
                }
                Read::PerVerb => {
                    for (slot, &verb) in VERBS.iter().enumerate() {
                        let count = self.verbs.counts[slot].load(Ordering::Relaxed);
                        emit(row, row.path, verb, Some(("verb", verb)), count);
                    }
                }
            }
        }
    }

    /// The `stats` response: [`SERIES`] nested by path, plus the figures
    /// that are not plain numbers.
    fn stats(&self) -> Value {
        let mut root = Map::new();
        self.samples(|_, section, key, _, value| {
            section_mut(&mut root, section).insert(key.into(), Value::from(value));
        });
        root.insert("ok".into(), Value::from(true));
        root.insert("protocol".into(), Value::from(PROTOCOL_VERSION));
        root.insert(
            "uptime_ms".into(),
            Value::from(self.started.elapsed().as_millis() as u64),
        );
        let slow: Vec<Value> = self
            .slow
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|r| {
                let mut e = Map::new();
                e.insert("verb".into(), Value::from(r.verb));
                e.insert("micros".into(), Value::from(r.micros));
                e.insert("at_ms".into(), Value::from(r.at_ms));
                Value::Object(e)
            })
            .collect();
        root.insert("slow_requests".into(), Value::Array(slow));
        if let Some(layer) = &self.persist {
            section_mut(&mut root, "persist")
                .insert("writer".into(), Value::from(layer.writer_id()));
        }
        Value::Object(root)
    }

    /// The Prometheus-style text exposition served by the `metrics` verb:
    /// uptime, [`SERIES`], the per-verb latency histograms, and — appended
    /// last — every in-process [`ivy_telemetry`] counter series.
    fn metrics_text(&self) -> String {
        let mut prom = ivy_telemetry::PromText::new();
        prom.gauge(
            "ivy_daemon_uptime_seconds",
            None,
            self.started.elapsed().as_secs_f64(),
        );
        self.samples(|row, _, _, label, value| match row.kind {
            Kind::Counter => prom.counter(row.name, label, value),
            Kind::Gauge => prom.gauge(row.name, label, value as f64),
        });
        // Per-verb latency: the full histogram for dashboards, then
        // p50/p95/p99 summary gauges so a bare `curl | grep p9` answers
        // "is the daemon slow" without a Prometheus server. Verbs never
        // requested are skipped — an all-zero histogram is noise.
        for (slot, &verb) in VERBS.iter().enumerate() {
            let (cumulative, sum, count) = self.verbs.latency[slot].snapshot();
            if count == 0 {
                continue;
            }
            prom.histogram(
                "ivy_daemon_request_duration_micros",
                Some(("verb", verb)),
                &LATENCY_BUCKETS_MICROS,
                &cumulative,
                sum,
                count,
            );
            for (name, q) in [
                ("ivy_daemon_request_p50_micros", 0.50),
                ("ivy_daemon_request_p95_micros", 0.95),
                ("ivy_daemon_request_p99_micros", 0.99),
            ] {
                prom.gauge(
                    name,
                    Some(("verb", verb)),
                    LatencyHistogram::quantile(&cumulative, count, q) as f64,
                );
            }
        }
        let mut text = prom.finish();
        text.push_str(&ivy_telemetry::prometheus_text());
        text
    }

    /// Answers an `explain` request: resolves `lvalue` in `func` against
    /// the resident answer to either an indirect-call expression or a
    /// pointer slot, picks the claimed target (the request's, or the first
    /// in the static answer), then derives that fact with one traced solve
    /// of the resident program. The chain ships only if the traced solve
    /// holds the exact fact and every one of its derivation steps replays
    /// against the program's constraints.
    fn explain(&self, func: &str, lvalue: &str, target: Option<&str>) -> Value {
        let sensitivity = self.engine.required_sensitivity();
        let Some(ctx) = self
            .resident
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
        else {
            return error_response("explain before any analyze: nothing is resident");
        };
        let resident = ctx.pointsto(sensitivity);
        let claim = match Claim::pick(&ctx.program, &resident, func, lvalue, target) {
            Ok(claim) => claim,
            Err(message) => return error_response(&message),
        };
        let fact = claim.describe();
        let traced = pointsto::analyze_with(
            &ctx.program,
            sensitivity,
            SolveOptions::default().with_provenance(true),
        );
        if !claim.holds_in(&traced) {
            return error_response(&format!("the traced solve does not derive {fact}"));
        }
        // Replay every derivation step against the program before shipping
        // any chain: an `explain` answer is a soundness artifact, and a
        // chain from a corrupt store is worse than an error.
        if let Err(e) = verify_derivations(&ctx.program, &traced) {
            return error_response(&format!("derivation replay failed: {e}"));
        }
        let Some(chain) = claim.chain(&ctx.program, &traced) else {
            return error_response(&format!("no recorded derivation for {fact}"));
        };
        ivy_telemetry::counter("ivy_daemon_explains_total", 1);
        let links: Vec<Value> = chain
            .iter()
            .map(|link| {
                let mut l = Map::new();
                l.insert(
                    "fact".into(),
                    Value::from(format!("{} may point to {}", link.dst, link.pointee)),
                );
                l.insert("rule".into(), Value::from(link.rule));
                if let Some(src) = &link.src {
                    l.insert("from".into(), Value::from(src.to_string()));
                }
                if let Some((trigger, aux)) = &link.via {
                    l.insert("via".into(), Value::from(format!("{trigger} -> {aux}")));
                }
                Value::Object(l)
            })
            .collect();
        let rendered: Vec<Value> = chain
            .iter()
            .map(|link| Value::from(link.render()))
            .collect();
        let mut m = Map::new();
        m.insert("ok".into(), Value::from(true));
        m.insert("fn".into(), Value::from(func));
        m.insert("lvalue".into(), Value::from(lvalue));
        m.insert("fact".into(), Value::from(fact.as_str()));
        m.insert("replay_verified".into(), Value::from(true));
        m.insert(
            "provenance_facts".into(),
            Value::from(traced.provenance_facts() as u64),
        );
        m.insert("chain".into(), Value::Array(links));
        m.insert("rendered".into(), Value::Array(rendered));
        Value::Object(m)
    }

    fn handle(&self, request: &Value) -> Reply {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let Some(cmd) = request.get("cmd").and_then(Value::as_str) else {
            return Reply::Message(error_response("request has no \"cmd\" field"));
        };
        let slot = VerbMetrics::slot(cmd);
        let verb = VERBS[slot];
        self.verbs.counts[slot].fetch_add(1, Ordering::Relaxed);
        let _span = ivy_telemetry::span("daemon/request", verb);
        let start = Instant::now();
        let response = match cmd {
            "analyze" => self.analyze(request),
            _ => Reply::Message(self.dispatch(cmd, request)),
        };
        let micros = start.elapsed().as_micros() as u64;
        self.verbs.latency[slot].observe(micros);
        if micros >= SLOW_REQUEST_MICROS {
            self.slow
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(SlowRequest {
                    verb,
                    micros,
                    at_ms: self.started.elapsed().as_millis() as u64,
                });
        }
        response
    }

    fn dispatch(&self, cmd: &str, request: &Value) -> Value {
        match cmd {
            "notify_edit" => self.notify_edit(request),
            "stats" => self.stats(),
            "explain" => {
                let Some(func) = request.get("fn").and_then(Value::as_str) else {
                    return error_response("explain needs a \"fn\" field");
                };
                let Some(lvalue) = request.get("lvalue").and_then(Value::as_str) else {
                    return error_response("explain needs an \"lvalue\" field");
                };
                let target = request.get("target").and_then(Value::as_str);
                self.explain(func, lvalue, target)
            }
            "metrics" => {
                let mut m = Map::new();
                m.insert("ok".into(), Value::from(true));
                m.insert("metrics_text".into(), Value::from(self.metrics_text()));
                Value::Object(m)
            }
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                let mut m = Map::new();
                m.insert("ok".into(), Value::from(true));
                Value::Object(m)
            }
            other => {
                // The name is client text up to a frame in size: echo only
                // a bounded prefix of it.
                let shown: String = other.chars().take(UNKNOWN_CMD_ECHO_CHARS).collect();
                let cut = if shown.len() < other.len() { "…" } else { "" };
                error_response(&format!("unknown cmd {shown:?}{cut}"))
            }
        }
    }
}

/// A running daemon (see [`Daemon::spawn`] / [`Daemon::serve`]).
pub struct Daemon;

/// Handle to a daemon spawned in the background; join it after asking the
/// server to shut down (e.g. via [`crate::Client::shutdown`]).
pub struct DaemonHandle {
    socket: PathBuf,
    accept_thread: JoinHandle<()>,
}

impl DaemonHandle {
    /// The socket the daemon is listening on.
    pub fn socket(&self) -> &PathBuf {
        &self.socket
    }

    /// Waits for the accept loop to exit (it exits once a client sent
    /// `shutdown`).
    pub fn join(self) {
        let _ = self.accept_thread.join();
    }
}

impl Daemon {
    fn bind(config: &DaemonConfig) -> io::Result<(UnixListener, Arc<State>)> {
        if let Some(parent) = config.socket.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        // Ownership of the socket path is an exclusive OS lock on a
        // sidecar `<socket>.lock` file, held for the daemon's lifetime
        // and released by the kernel on exit, clean or not. A bare
        // probe-then-unlink would be a TOCTOU: two daemons starting
        // concurrently could both observe a dead socket, and the loser's
        // `remove_file` would unlink the path the winner had just bound.
        // The lock also covers the exit-time cleanup in the accept loop,
        // which could otherwise unlink a *newer* daemon's socket when an
        // old daemon shuts down late. The lock file itself is never
        // removed — unlinking it would reopen the race through a second
        // inode.
        let mut lock_path = config.socket.clone().into_os_string();
        lock_path.push(".lock");
        let socket_lock = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(PathBuf::from(lock_path))?;
        if let Err(err) = socket_lock.try_lock() {
            return Err(match err {
                std::fs::TryLockError::WouldBlock => io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!(
                        "another daemon owns (or is starting on) {}",
                        config.socket.display()
                    ),
                ),
                // A lock the filesystem cannot take at all (e.g. ENOLCK)
                // is an I/O problem, not a second daemon — report it as
                // itself so the operator does not chase a phantom.
                std::fs::TryLockError::Error(e) => e,
            });
        }
        // Holding the lock: a live daemon on this path is impossible (it
        // would hold the lock), so any socket file here is leftover from
        // a dead process — but keep the probe as a guard against foreign,
        // non-lock-aware listeners before unlinking.
        if config.socket.exists() {
            if UnixStream::connect(&config.socket).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a daemon is already serving {}", config.socket.display()),
                ));
            }
            let _ = std::fs::remove_file(&config.socket);
        }
        let listener = UnixListener::bind(&config.socket)?;
        let persist = match &config.cache_dir {
            Some(dir) => Some(Arc::new(PersistLayer::open(dir)?)),
            None => None,
        };
        // A daemon always meters itself. Its own series are atomics read
        // through `SERIES`; the telemetry counters `metrics` appends are
        // increments into lock-sharded maps (a labeled one allocates its
        // label string per call), kept only for what no daemon atomic
        // counts, and never labeled with client text. Spans stay opt-in
        // (`IVY_TRACE=1`) — a long-lived server must not accumulate span
        // records unasked.
        ivy_telemetry::enable_counters();
        let engine = fleet_engine_with(persist.clone(), config.deputy);
        let state = Arc::new(State {
            answers: AnswerMemo::new(engine.ctx_store().capacity()),
            engine,
            persist,
            resident: Mutex::new(None),
            connections: Mutex::new(std::collections::HashMap::new()),
            started: Instant::now(),
            requests: AtomicU64::new(0),
            analyzes: AtomicU64::new(0),
            edits: AtomicU64::new(0),
            edits_spliced: AtomicU64::new(0),
            reparse_function: AtomicU64::new(0),
            reparse_full: AtomicU64::new(0),
            verbs: VerbMetrics::default(),
            slow: Mutex::new(SlowRing::new(SLOW_RING_CAP)),
            shutdown: AtomicBool::new(false),
            _socket_lock: socket_lock,
        });
        Ok((listener, state))
    }

    /// Runs the accept loop until a client sends `shutdown`. Each
    /// connection is served on its own thread; the shared state makes
    /// concurrent answers deterministic and byte-identical.
    fn accept_loop(listener: UnixListener, state: Arc<State>, socket: PathBuf) {
        let mut clients: Vec<JoinHandle<()>> = Vec::new();
        for stream in listener.incoming() {
            if state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Reap finished connections so a long-lived daemon does not
            // accumulate one handle per connection ever served.
            clients.retain(|client| !client.is_finished());
            let Ok(stream) = stream else {
                continue;
            };
            let state = Arc::clone(&state);
            let socket = socket.clone();
            clients.push(thread::spawn(move || {
                serve_connection(stream, &state, &socket);
            }));
        }
        for client in clients {
            let _ = client.join();
        }
        let _ = std::fs::remove_file(&socket);
    }

    /// Starts a daemon in a background thread of this process and returns
    /// immediately. The "zero-deploy" mode used by tests, the bench, and
    /// the session example; production use runs [`Daemon::serve`] in a
    /// dedicated process (`ivy-daemon` binary).
    pub fn spawn(config: DaemonConfig) -> io::Result<DaemonHandle> {
        let (listener, state) = Self::bind(&config)?;
        let socket = config.socket.clone();
        let accept_socket = socket.clone();
        let accept_thread =
            thread::spawn(move || Self::accept_loop(listener, state, accept_socket));
        Ok(DaemonHandle {
            socket,
            accept_thread,
        })
    }

    /// Binds and serves on the calling thread until shutdown (the blocking
    /// mode the `ivy-daemon` binary runs).
    pub fn serve(config: DaemonConfig) -> io::Result<()> {
        let (listener, state) = Self::bind(&config)?;
        let socket = config.socket.clone();
        Self::accept_loop(listener, state, socket);
        Ok(())
    }
}

/// Serves one client connection: frames in, frames out, until the peer
/// closes or asks for shutdown.
fn serve_connection(stream: UnixStream, state: &State, socket: &PathBuf) {
    // Under fd pressure the registry clone can fail; shed the connection
    // (the client sees a clean close) rather than serve it invisibly.
    if !state.register_connection(&stream) {
        return;
    }
    let reader = stream.try_clone();
    connection_loop(reader, stream, state, socket);
}

fn connection_loop(
    reader: io::Result<UnixStream>,
    stream: UnixStream,
    state: &State,
    socket: &PathBuf,
) {
    let mut reader = match reader {
        Ok(s) => s,
        Err(_) => {
            state.deregister_connection(&stream);
            return;
        }
    };
    let mut writer = stream;
    let mut shutdown_sent = false;
    loop {
        let request = match read_frame(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => break,
            Err(e) => {
                if !state.shutdown.load(Ordering::SeqCst) {
                    // A torn read during shutdown is our own teardown of
                    // the socket, not a client error worth answering.
                    let _ = write_frame(&mut writer, &error_response(&format!("bad frame: {e}")));
                }
                break;
            }
        };
        let reply = state.handle(&request);
        shutdown_sent = state.shutdown.load(Ordering::SeqCst)
            && request.get("cmd").and_then(Value::as_str) == Some("shutdown");
        let ok = match &reply {
            Reply::Message(response) => {
                let _ = write_frame(&mut writer, response);
                response_ok(response)
            }
            Reply::Frames(bytes) => {
                let _ = writer.write_all(bytes);
                true
            }
        };
        if shutdown_sent && ok {
            break;
        }
    }
    state.deregister_connection(&writer);
    if shutdown_sent {
        // The requester has its answer; now unblock every idle connection
        // and wake the accept loop so it observes the flag and exits.
        state.close_connections();
        let _ = UnixStream::connect(socket);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_ring_evicts_oldest_first_at_capacity() {
        let mut ring = SlowRing::new(3);
        for micros in 0..5u64 {
            ring.push(SlowRequest {
                verb: "analyze",
                micros,
                at_ms: micros,
            });
        }
        let held: Vec<u64> = ring.iter().map(|r| r.micros).collect();
        // The first two entries fell off the front; the latest three
        // remain in arrival order.
        assert_eq!(held, vec![2, 3, 4]);
    }

    #[test]
    fn series_table_names_each_fact_once() {
        let mut paths: Vec<&str> = SERIES.iter().map(|row| row.path).collect();
        let mut series: Vec<(&str, Label)> =
            SERIES.iter().map(|row| (row.name, row.label)).collect();
        paths.sort_unstable();
        paths.dedup();
        series.sort_unstable();
        series.dedup();
        assert_eq!(paths.len(), SERIES.len(), "a stats path is read twice");
        assert_eq!(series.len(), SERIES.len(), "a series is read twice");
        for row in SERIES {
            let counter = matches!(row.kind, Kind::Counter);
            assert_eq!(row.name.ends_with("_total"), counter, "{}", row.name);
        }
        // Derivations are computed per `explain`; no row gauges an arena.
        assert!(SERIES.iter().all(|row| !row.path.contains("provenance")));
    }

    #[test]
    fn latency_histogram_buckets_are_cumulative_and_monotone() {
        let h = LatencyHistogram::default();
        // One observation per bucket bound, one in-between, one overflow
        // past the last bound.
        for le in LATENCY_BUCKETS_MICROS {
            h.observe(le);
        }
        h.observe(300); // lands in the 500 bucket
        h.observe(2_000_000); // overflow: counted, bucketed nowhere
        let (cumulative, sum, count) = h.snapshot();
        assert_eq!(count, LATENCY_BUCKETS_MICROS.len() as u64 + 2);
        assert_eq!(
            sum,
            LATENCY_BUCKETS_MICROS.iter().sum::<u64>() + 300 + 2_000_000
        );
        for pair in cumulative.windows(2) {
            assert!(pair[0] <= pair[1], "cumulative counts must be monotone");
        }
        // Every cumulative entry is bounded by the total observation count.
        assert!(cumulative.iter().all(|&c| c <= count));
        // The overflow observation is visible as count minus the last
        // cumulative bucket.
        assert_eq!(cumulative[LATENCY_BUCKETS_MICROS.len() - 1], count - 1);
    }

    #[test]
    fn latency_quantiles_report_bucket_upper_bounds() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.observe(80); // <= 100
        }
        h.observe(600_000); // <= 1_000_000
        let (cumulative, _, count) = h.snapshot();
        assert_eq!(LatencyHistogram::quantile(&cumulative, count, 0.50), 100);
        assert_eq!(LatencyHistogram::quantile(&cumulative, count, 0.95), 100);
        assert_eq!(
            LatencyHistogram::quantile(&cumulative, count, 1.0),
            1_000_000
        );
        assert_eq!(LatencyHistogram::quantile(&[0; 12], 0, 0.99), 0);
    }
}
