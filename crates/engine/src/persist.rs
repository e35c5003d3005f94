//! Cross-process persistence for durable query results.
//!
//! A [`PersistLayer`] is a directory (by convention `target/ivy-cache/`) of
//! versioned JSON namespaces. Each [`DurableQuery`](crate::query::DurableQuery)
//! (and the engine's per-function diagnostic results) owns one namespace;
//! entries inside a namespace are keyed by 16-hex-digit content hashes, so
//! a key is valid exactly as long as the program content it was derived
//! from — there is no invalidation protocol, only content addressing.
//!
//! **Sharding.** A namespace is a *directory* of per-writer shard files:
//! every layer writes only its own `<namespace>/<writer>.json` shard and
//! merges every shard when the namespace is first read. Concurrent
//! writers — several daemon workers, a batch run racing a daemon —
//! therefore never clobber each other. Content addressing
//! makes the merge trivial: two shards that both carry a key derived it
//! from identical content, so union is lossless and order only breaks ties
//! between byte-identical values. A shard carries only the keys its writer
//! *owns* — written by that process or carried in its own previous shard —
//! so a warm reader never replicates other writers' shards into its own.
//!
//! **Compaction.** Namespaces grow monotonically across edits (every edit
//! mints new content-addressed keys; old ones are never overwritten). Once
//! a namespace's merged image exceeds the compaction threshold, a flush
//! drops every entry this process neither read nor wrote — live keys were
//! touched by the current program state, stale ones belong to content that
//! no longer exists. Other writers' shards are not rewritten; their live
//! entries re-merge on the next load.
//!
//! The layer is deliberately forgiving on the read side: a missing
//! directory, an unparsable shard, a file with the wrong container format,
//! or a namespace written by a different `FORMAT_VERSION` of its query is
//! *ignored* (treated as empty and later overwritten), never an error —
//! a corrupt cache must cost a recomputation, not a crash. So does a cache
//! left in the pre-sharding single-file layout: it is never read.
//!
//! File layout:
//!
//! ```text
//! target/ivy-cache/
//!   diag-deputy/                 one directory per namespace...
//!     w41123.json                ...one shard per writer:
//!     w41300.json                {"format":1,"namespace":"diag/deputy",
//!   deputy-instrumented/          "version":<query FORMAT_VERSION>,
//!     w41123.json                 "entries":{"<16-hex key>": <value>}}
//!   ...
//! ```

use ivy_cmir::span::Pos;
use ivy_cmir::Span;
use serde_json::{Map, Value};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Version of the namespace *container* format (the envelope around the
/// entries). Per-namespace payload versions are the owning query's
/// `FORMAT_VERSION` and are checked independently.
pub const PERSIST_FORMAT: u32 = 1;

/// Default compaction threshold: namespaces at or below this many merged
/// entries are never pruned.
pub const DEFAULT_COMPACT_THRESHOLD: usize = 4096;

/// One loaded namespace: its payload version, the merged entries of every
/// shard, which keys this process has read or written (the live set
/// compaction preserves), and which keys this *writer* owns — written by
/// this process or carried in its own previous shard. Flushes emit only
/// owned keys, so a warm reader never replicates other writers' shards
/// into its own.
struct Namespace {
    version: u32,
    entries: HashMap<String, Value>,
    touched: HashSet<String>,
    own: HashSet<String>,
    dirty: bool,
}

/// A directory of versioned, namespaced, content-addressed JSON entries
/// shared across processes.
///
/// All reads and writes go through an in-memory image; [`PersistLayer::flush`]
/// writes dirty namespaces back to this writer's shard files (via a temp
/// file + rename, so a crashed writer leaves the previous shard intact
/// rather than a torn one).
pub struct PersistLayer {
    root: PathBuf,
    writer: String,
    compact_threshold: usize,
    namespaces: Mutex<HashMap<String, Namespace>>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    pruned: AtomicU64,
    flush_seq: AtomicU64,
}

/// Turns a namespace name into a safe file stem (`diag/deputy` →
/// `diag-deputy`).
fn file_stem(namespace: &str) -> String {
    namespace
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Formats a durable key as its on-disk entry key.
pub fn hex_key(key: u64) -> String {
    format!("{key:016x}")
}

// ---- encoding helpers shared by durable query implementations ----------

/// Encodes a span as the JSON object used across persisted results.
pub fn span_to_value(span: &Span) -> Value {
    let mut s = Map::new();
    s.insert("line".into(), Value::from(span.start.line));
    s.insert("col".into(), Value::from(span.start.col));
    s.insert("end_line".into(), Value::from(span.end.line));
    s.insert("end_col".into(), Value::from(span.end.col));
    Value::Object(s)
}

/// Decodes a span encoded by [`span_to_value`].
pub fn span_from_value(v: &Value) -> Option<Span> {
    let field = |key: &str| v.get(key).and_then(Value::as_u64).map(|n| n as u32);
    Some(Span::new(
        Pos::new(field("line")?, field("col")?),
        Pos::new(field("end_line")?, field("end_col")?),
    ))
}

/// Encodes an iterator of strings as a JSON array.
pub fn strings_to_value<'a>(items: impl IntoIterator<Item = &'a String>) -> Value {
    Value::Array(items.into_iter().map(|s| Value::from(s.as_str())).collect())
}

/// Decodes a JSON array of strings as an ordered set.
pub fn string_set_from_value(v: &Value) -> Option<BTreeSet<String>> {
    v.as_array()?
        .iter()
        .map(|s| s.as_str().map(String::from))
        .collect()
}

/// Decodes a JSON array of strings preserving order.
pub fn string_vec_from_value(v: &Value) -> Option<Vec<String>> {
    v.as_array()?
        .iter()
        .map(|s| s.as_str().map(String::from))
        .collect()
}

impl PersistLayer {
    /// Opens (creating if needed) a persist directory. Namespace shards
    /// are loaded and merged lazily on first access. The writer identity
    /// defaults to `w<pid>` — distinct per concurrent process, so
    /// concurrent flushes land in distinct shard files.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<PersistLayer> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(PersistLayer {
            root,
            writer: format!("w{}", std::process::id()),
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
            namespaces: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            flush_seq: AtomicU64::new(0),
        })
    }

    /// Overrides the writer identity (builder style). Two layers sharing a
    /// root must use distinct writer ids to get distinct shards; the
    /// default is already distinct across processes, so this is for
    /// several writers *inside* one process (daemon worker pools, tests).
    pub fn with_writer_id(mut self, writer: impl Into<String>) -> PersistLayer {
        self.writer = file_stem(&writer.into());
        self
    }

    /// Overrides the compaction threshold (builder style): namespaces
    /// whose merged image exceeds `threshold` entries drop untouched
    /// entries on flush.
    pub fn with_compaction_threshold(mut self, threshold: usize) -> PersistLayer {
        self.compact_threshold = threshold;
        self
    }

    /// The directory this layer persists to.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// This layer's writer identity (its shard file stem).
    pub fn writer_id(&self) -> &str {
        &self.writer
    }

    /// The shard directory of a namespace.
    fn dir_of(&self, namespace: &str) -> PathBuf {
        self.root.join(file_stem(namespace))
    }

    /// The shard file this layer writes for a namespace.
    fn shard_of(&self, namespace: &str) -> PathBuf {
        self.dir_of(namespace).join(format!("{}.json", self.writer))
    }

    /// Merges one shard file into `entries`, tolerating every
    /// corruption mode by merging nothing; returns the keys it merged.
    fn merge_file(
        path: &Path,
        namespace: &str,
        version: u32,
        entries: &mut HashMap<String, Value>,
    ) -> Vec<String> {
        let Ok(text) = fs::read_to_string(path) else {
            return Vec::new();
        };
        let Ok(value) = serde_json::from_str(&text) else {
            return Vec::new(); // unparsable: ignore, will be overwritten
        };
        let format_ok =
            value.get("format").and_then(Value::as_u64) == Some(u64::from(PERSIST_FORMAT));
        let namespace_ok = value.get("namespace").and_then(Value::as_str) == Some(namespace);
        let version_ok = value.get("version").and_then(Value::as_u64) == Some(u64::from(version));
        if !format_ok || !namespace_ok || !version_ok {
            return Vec::new(); // stale or foreign: recompute rather than mis-decode
        }
        let Some(loaded) = value.get("entries").and_then(Value::as_object) else {
            return Vec::new();
        };
        let mut keys = Vec::with_capacity(loaded.len());
        for (k, v) in loaded.iter() {
            entries.insert(k.clone(), v.clone());
            keys.push(k.clone());
        }
        keys
    }

    /// Loads a namespace: every shard in sorted filename order
    /// (deterministic merge; conflicting keys are byte-identical by content
    /// addressing, so order only breaks ties). Keys from this writer's own
    /// shard become *owned* and are carried forward by future flushes.
    fn load(&self, namespace: &str, version: u32) -> Namespace {
        let mut entries = HashMap::new();
        let mut own: HashSet<String> = HashSet::new();
        let own_shard = self.shard_of(namespace);
        if let Ok(dir) = fs::read_dir(self.dir_of(namespace)) {
            let mut shards: Vec<PathBuf> = dir
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "json"))
                .collect();
            shards.sort();
            for shard in &shards {
                let keys = Self::merge_file(shard, namespace, version, &mut entries);
                if *shard == own_shard {
                    own.extend(keys);
                }
            }
        }
        Namespace {
            version,
            entries,
            touched: HashSet::new(),
            own,
            dirty: false,
        }
    }

    fn with_namespace<T>(
        &self,
        namespace: &str,
        version: u32,
        f: impl FnOnce(&mut Namespace) -> T,
    ) -> T {
        let mut map = self
            .namespaces
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let ns = map
            .entry(namespace.to_string())
            .or_insert_with(|| self.load(namespace, version));
        if ns.version != version {
            // The same namespace demanded at a new payload version: drop the
            // stale image (its shard will be overwritten on the next flush).
            *ns = Namespace {
                version,
                entries: HashMap::new(),
                touched: HashSet::new(),
                own: HashSet::new(),
                dirty: ns.dirty,
            };
        }
        f(ns)
    }

    /// Looks up an entry, counting the outcome. A hit marks the key live
    /// for compaction.
    pub fn get(&self, namespace: &str, version: u32, key: u64) -> Option<Value> {
        let found = self.with_namespace(namespace, version, |ns| {
            let key = hex_key(key);
            let found = ns.entries.get(&key).cloned();
            if found.is_some() {
                ns.touched.insert(key);
            }
            found
        });
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores an entry (in memory; [`PersistLayer::flush`] writes it out).
    pub fn put(&self, namespace: &str, version: u32, key: u64, value: Value) {
        self.with_namespace(namespace, version, |ns| {
            let key = hex_key(key);
            ns.touched.insert(key.clone());
            ns.own.insert(key.clone());
            ns.entries.insert(key, value);
            ns.dirty = true;
        });
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of entries currently held for a namespace.
    pub fn entry_count(&self, namespace: &str, version: u32) -> usize {
        self.with_namespace(namespace, version, |ns| ns.entries.len())
    }

    /// Writes every dirty namespace back to this writer's shard file;
    /// returns the number of shards written. Namespaces over the
    /// compaction threshold first drop every entry this process never
    /// touched (see the module docs).
    pub fn flush(&self) -> io::Result<usize> {
        let mut map = self
            .namespaces
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut written = 0;
        for (name, ns) in map.iter_mut() {
            if !ns.dirty {
                continue;
            }
            if ns.entries.len() > self.compact_threshold {
                let before = ns.entries.len();
                let touched = std::mem::take(&mut ns.touched);
                ns.entries.retain(|k, _| touched.contains(k));
                ns.touched = touched;
                self.pruned
                    .fetch_add((before - ns.entries.len()) as u64, Ordering::Relaxed);
            }
            // Only owned keys go into this writer's shard: replicating the
            // merged union would make every warm reader's shard a full
            // copy of every other writer's, multiplying the directory by
            // the writer count for no information.
            let mut entries = Map::new();
            for (k, v) in &ns.entries {
                if ns.own.contains(k) {
                    entries.insert(k.clone(), v.clone());
                }
            }
            let mut root = Map::new();
            root.insert("format".into(), Value::from(PERSIST_FORMAT));
            root.insert("namespace".into(), Value::from(name.as_str()));
            root.insert("version".into(), Value::from(ns.version));
            root.insert("entries".into(), Value::Object(entries));
            let text = serde_json::to_string_pretty(&Value::Object(root)).expect("serializes");
            let path = self.shard_of(name);
            fs::create_dir_all(self.dir_of(name))?;
            // The temp name is unique per process and per flush: two
            // processes sharing one directory must never interleave a
            // write and a rename of the same temp file, or the "last
            // flush wins, never a torn file" guarantee breaks. (With
            // per-writer shards the temp is only contended when two
            // layers share a writer id, but the uniqueness is kept as a
            // belt-and-braces property.)
            let tmp = path.with_extension(format!(
                "json.{}.{}.tmp",
                std::process::id(),
                self.flush_seq.fetch_add(1, Ordering::Relaxed)
            ));
            fs::write(&tmp, text)?;
            fs::rename(&tmp, &path)?;
            ns.dirty = false;
            written += 1;
        }
        Ok(written)
    }

    /// Lifetime entry lookups served.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime entry lookups missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lifetime entries stored.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Lifetime entries dropped by compaction.
    pub fn pruned(&self) -> u64 {
        self.pruned.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ivy-persist-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrips_across_reopen() {
        let root = temp_root("roundtrip");
        let layer = PersistLayer::open(&root).unwrap();
        layer.put("test/ns", 1, 0xabcd, Value::from("payload"));
        assert_eq!(
            layer.get("test/ns", 1, 0xabcd).unwrap().as_str(),
            Some("payload")
        );
        layer.flush().unwrap();

        let reopened = PersistLayer::open(&root).unwrap();
        assert_eq!(
            reopened.get("test/ns", 1, 0xabcd).unwrap().as_str(),
            Some("payload")
        );
        assert_eq!(reopened.hits(), 1);
        assert!(reopened.get("test/ns", 1, 0x1234).is_none());
        assert_eq!(reopened.misses(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn version_mismatch_and_corruption_are_ignored() {
        let root = temp_root("corrupt");
        let layer = PersistLayer::open(&root).unwrap();
        layer.put("test/ns", 1, 7, Value::from(1u64));
        layer.flush().unwrap();

        // Payload-version bump: entries written at v1 are invisible at v2.
        let reopened = PersistLayer::open(&root).unwrap();
        assert!(reopened.get("test/ns", 2, 7).is_none());

        // Outright corruption: an unparsable shard reads as empty, not a
        // crash.
        let shard = root
            .join("test-ns")
            .join(format!("w{}.json", std::process::id()));
        assert!(shard.exists(), "flush wrote this writer's shard");
        fs::write(&shard, "{ not json").unwrap();
        let corrupted = PersistLayer::open(&root).unwrap();
        assert!(corrupted.get("test/ns", 1, 7).is_none());
        // And the namespace is still writable afterwards.
        corrupted.put("test/ns", 1, 8, Value::from(2u64));
        corrupted.flush().unwrap();
        let healed = PersistLayer::open(&root).unwrap();
        assert_eq!(healed.get("test/ns", 1, 8).unwrap().as_u64(), Some(2));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn namespaces_map_to_distinct_sanitized_shard_dirs() {
        let root = temp_root("files");
        let layer = PersistLayer::open(&root).unwrap();
        layer.put("diag/deputy", 1, 1, Value::from(1u64));
        layer.put("diag/ccount", 1, 1, Value::from(2u64));
        assert_eq!(layer.flush().unwrap(), 2);
        let shard = format!("w{}.json", std::process::id());
        assert!(root.join("diag-deputy").join(&shard).exists());
        assert!(root.join("diag-ccount").join(&shard).exists());
        // Clean flushes write nothing.
        assert_eq!(layer.flush().unwrap(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_writers_flush_to_distinct_shards_and_merge_losslessly() {
        let root = temp_root("shards");
        // Two writers over one root, each oblivious to the other's
        // in-memory state — the racing-daemon-workers scenario. Explicit
        // writer ids because both live in this test process.
        let a = PersistLayer::open(&root)
            .unwrap()
            .with_writer_id("worker-a");
        let b = PersistLayer::open(&root)
            .unwrap()
            .with_writer_id("worker-b");
        a.put("test/ns", 1, 1, Value::from("from-a"));
        b.put("test/ns", 1, 2, Value::from("from-b"));
        // Flush order must not matter: each writes only its own shard.
        b.flush().unwrap();
        a.flush().unwrap();
        assert!(root.join("test-ns").join("worker-a.json").exists());
        assert!(root.join("test-ns").join("worker-b.json").exists());

        // A later reader merges both shards: nothing was clobbered.
        let merged = PersistLayer::open(&root).unwrap();
        assert_eq!(
            merged.get("test/ns", 1, 1).unwrap().as_str(),
            Some("from-a")
        );
        assert_eq!(
            merged.get("test/ns", 1, 2).unwrap().as_str(),
            Some("from-b")
        );
        assert_eq!(merged.entry_count("test/ns", 1), 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn warm_readers_do_not_replicate_other_writers_shards() {
        let root = temp_root("no-replication");
        let producer = PersistLayer::open(&root)
            .unwrap()
            .with_writer_id("producer");
        for key in 0..20u64 {
            producer.put("test/ns", 1, key, Value::from(key));
        }
        producer.flush().unwrap();

        // A warm reader consumes the producer's entries and mints one of
        // its own: its shard must carry only what it owns.
        let reader = PersistLayer::open(&root).unwrap().with_writer_id("reader");
        for key in 0..20u64 {
            assert!(reader.get("test/ns", 1, key).is_some());
        }
        reader.put("test/ns", 1, 100, Value::from(100u64));
        reader.flush().unwrap();
        let shard = fs::read_to_string(root.join("test-ns").join("reader.json")).unwrap();
        let parsed = serde_json::from_str(&shard).unwrap();
        assert_eq!(
            parsed.get("entries").unwrap().as_object().unwrap().len(),
            1,
            "the reader's shard must hold only its own entry"
        );
        // Nothing was lost: a later merge still sees everything.
        let merged = PersistLayer::open(&root).unwrap();
        assert_eq!(merged.entry_count("test/ns", 1), 21);

        // A writer's own entries survive its restarts through its shard.
        let restarted = PersistLayer::open(&root).unwrap().with_writer_id("reader");
        restarted.put("test/ns", 1, 101, Value::from(101u64));
        restarted.flush().unwrap();
        let shard = fs::read_to_string(root.join("test-ns").join("reader.json")).unwrap();
        let parsed = serde_json::from_str(&shard).unwrap();
        assert_eq!(
            parsed.get("entries").unwrap().as_object().unwrap().len(),
            2,
            "restart carries the writer's previous shard forward"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn compaction_prunes_untouched_entries_over_the_threshold() {
        let root = temp_root("compact");
        let layer = PersistLayer::open(&root)
            .unwrap()
            .with_writer_id("compactor");
        for key in 0..6u64 {
            layer.put("test/ns", 1, key, Value::from(key));
        }
        layer.flush().unwrap();

        // A later process touches two old keys and mints one new one; the
        // namespace is over threshold, so the flush drops the other four.
        let reopened = PersistLayer::open(&root)
            .unwrap()
            .with_writer_id("compactor")
            .with_compaction_threshold(4);
        assert_eq!(reopened.entry_count("test/ns", 1), 6);
        assert!(reopened.get("test/ns", 1, 0).is_some());
        assert!(reopened.get("test/ns", 1, 5).is_some());
        reopened.put("test/ns", 1, 100, Value::from(100u64));
        reopened.flush().unwrap();
        assert_eq!(reopened.pruned(), 4);
        assert_eq!(reopened.entry_count("test/ns", 1), 3);

        // Live keys survived the prune; stale ones are gone.
        let after = PersistLayer::open(&root).unwrap();
        assert!(after.get("test/ns", 1, 0).is_some());
        assert!(after.get("test/ns", 1, 5).is_some());
        assert!(after.get("test/ns", 1, 100).is_some());
        assert!(after.get("test/ns", 1, 1).is_none());
        assert!(after.get("test/ns", 1, 4).is_none());

        // Under the (default) threshold nothing is ever pruned.
        let lazy = PersistLayer::open(&root).unwrap().with_writer_id("lazy");
        lazy.put("test/ns", 1, 200, Value::from(200u64));
        lazy.flush().unwrap();
        assert_eq!(lazy.pruned(), 0);
        let _ = fs::remove_dir_all(&root);
    }
}
