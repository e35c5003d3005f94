//! Integration tests for the resident analysis daemon: concurrent clients,
//! byte-identity with the batch engine, dependency-driven invalidation on
//! `notify_edit`, and warm restarts over the sharded persist directory.

use ivy::cmir::parser::parse_program;
use ivy::cmir::pretty::pretty_program;
use ivy::daemon::protocol::{read_frame, write_frame, SourceDigest};
use ivy::daemon::{Client, Daemon, DaemonConfig};
use ivy::engine::json::Value;
use ivy::engine::{Engine, PersistLayer};
use ivy::kernelgen::{KernelBuild, KernelConfig};
use std::path::PathBuf;
use std::sync::Arc;

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ivy-daemon-it-{tag}-{}.sock", std::process::id()))
}

fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ivy-daemon-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The canonical kernel source: the daemon parses text, so the batch
/// comparison must analyze the identical parsed form.
fn kernel_source() -> String {
    pretty_program(&KernelBuild::generate(&KernelConfig::small()).program)
}

/// The corpus with one leaf function's body edited: `watchdog_tick`'s
/// increment changes from 1 to 2. The edit is deliberately line-count
/// preserving, so every *other* function keeps its spans and the edited
/// program's cold report is span-for-span comparable with warm replays.
fn edited_kernel_source() -> String {
    let source = kernel_source();
    let edited = source.replacen("watchdog_ticks + 1", "watchdog_ticks + 2", 1);
    assert_ne!(source, edited, "corpus must contain the watchdog increment");
    edited
}

#[test]
fn concurrent_clients_get_byte_identical_reports_matching_batch() {
    let source = kernel_source();
    let handle = Daemon::spawn(DaemonConfig::new(socket_path("concurrent"))).unwrap();
    let socket = handle.socket().clone();

    // Two clients race the same cold program through one shared engine.
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let socket = socket.clone();
            let source = source.clone();
            std::thread::spawn(move || {
                Client::connect(&socket)
                    .unwrap()
                    .analyze(&source)
                    .unwrap()
                    .diagnostics_json
            })
        })
        .collect();
    let answers: Vec<String> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    assert_eq!(
        answers[0], answers[1],
        "concurrent clients must receive byte-identical diagnostics"
    );

    // And a repeat request matches too — resident state makes answers
    // fast, never different.
    let mut client = Client::connect(&socket).unwrap();
    let repeat = client.analyze(&source).unwrap();
    assert_eq!(repeat.diagnostics_json, answers[0]);
    assert!(repeat.stats.ctx_reused);

    // The daemon's answer is byte-identical to a batch engine run over
    // the same program with the same fleet.
    let program = parse_program(&source).unwrap();
    let batch = ivy::core::experiments::default_engine(0).analyze(&program);
    assert_eq!(batch.diagnostics_json(), answers[0]);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn notify_edit_invalidates_only_the_dirty_cone_and_reserves_the_rest() {
    let source = kernel_source();
    let edited = edited_kernel_source();
    let dir = cache_dir("edit");
    let handle =
        Daemon::spawn(DaemonConfig::new(socket_path("edit")).with_cache_dir(&dir)).unwrap();
    let mut client = Client::connect(handle.socket()).unwrap();

    let cold = client.analyze(&source).unwrap();
    assert!(cold.stats.cache_misses > 0, "first request computes");

    // The edit notification: only watchdog_tick changed, and only its
    // dependency-reachable cone may be invalidated.
    let outcome = client.notify_edit(&edited).unwrap();
    let inv = &outcome.invalidation;
    assert_eq!(
        inv.changed_functions,
        vec!["watchdog_tick".to_string()],
        "exactly the edited function is dirty at the input layer"
    );
    assert!(!inv.env_changed, "a body edit leaves the environment alone");
    let total = inv.invalidated + inv.retained;
    assert!(
        inv.invalidated * 3 < total,
        "invalidated-query count must be far below the memoized total: {} of {}",
        inv.invalidated,
        total
    );
    assert!(
        inv.revalidated > 0,
        "content-keyed durable entries are revalidated, not dropped"
    );

    // Analyzing the edited program is served overwhelmingly without
    // recompute: >=90% of query reads come from the resident memo or the
    // persist layer, and points-to regenerates exactly one constraint
    // batch.
    let warm = client.analyze(&edited).unwrap();
    let lookups = warm.stats.cache_hits + warm.stats.persist_hits + warm.stats.cache_misses;
    let served = warm.stats.cache_hits + warm.stats.persist_hits;
    assert!(
        served as f64 >= 0.9 * lookups as f64,
        "after a one-function edit >=90% must be re-served: {served} of {lookups}"
    );
    assert_eq!(
        warm.stats.pointsto_batches_generated, 1,
        "only the edited function's constraint batch regenerates"
    );

    // The answer is still pinned to the batch engine's, byte for byte.
    let batch = ivy::core::experiments::default_engine(0).analyze(&parse_program(&edited).unwrap());
    assert_eq!(batch.diagnostics_json(), warm.diagnostics_json);

    // Server counters surface the persist traffic for operators.
    let stats = client.stats().unwrap();
    assert_eq!(
        stats
            .get("edits")
            .and_then(ivy::engine::json::Value::as_u64),
        Some(1)
    );
    let persist = stats.get("persist").expect("persist section present");
    assert!(
        persist
            .get("pruned")
            .and_then(ivy::engine::json::Value::as_u64)
            .is_some(),
        "operators can watch compaction: {persist:?}"
    );
    let engine_section = stats.get("engine").expect("engine section present");
    assert!(
        engine_section
            .get("evictions")
            .and_then(ivy::engine::json::Value::as_u64)
            .is_some(),
        "operators can watch context eviction: {engine_section:?}"
    );
    assert!(
        engine_section
            .get("resident_contexts")
            .and_then(ivy::engine::json::Value::as_u64)
            .map(|n| n >= 1)
            .unwrap_or(false),
        "the analyzed program is resident: {engine_section:?}"
    );
    // Context-store traffic is surfaced next to its eviction count: this
    // session analyzed twice (one miss, one hit) and edited once.
    let ctx_count = |key: &str| {
        engine_section
            .get(key)
            .and_then(ivy::engine::json::Value::as_u64)
            .unwrap_or_else(|| panic!("{key} missing: {engine_section:?}"))
    };
    assert!(
        ctx_count("ctx_misses") >= 1,
        "cold analyze misses the store"
    );
    assert!(ctx_count("ctx_hits") >= 1, "warm analyze hits the store");
    // Per-verb request counters and uptime, for operators.
    assert!(
        stats
            .get("uptime_ms")
            .and_then(ivy::engine::json::Value::as_u64)
            .is_some(),
        "uptime is reported: {stats:?}"
    );
    let verbs = stats.get("verbs").expect("per-verb counters present");
    let verb_count = |key: &str| {
        verbs
            .get(key)
            .and_then(ivy::engine::json::Value::as_u64)
            .unwrap_or_else(|| panic!("{key} missing: {verbs:?}"))
    };
    // The cold analyze took two requests (its digest, answered
    // `need_source`, then the source); the post-edit analyze resolved its
    // digest through the entry `notify_edit` left, in one.
    assert_eq!(verb_count("analyze"), 3, "three analyze requests so far");
    assert_eq!(verb_count("notify_edit"), 1);
    assert_eq!(verb_count("stats"), 1, "this stats request counts itself");
    assert_eq!(verb_count("shutdown"), 0);
    // The slow-request ring is always present (possibly empty on a fast
    // machine — entries require a >=10ms request).
    assert!(
        stats
            .get("slow_requests")
            .and_then(ivy::engine::json::Value::as_array)
            .is_some(),
        "slow-request ring present: {stats:?}"
    );

    client.shutdown().unwrap();
    handle.join();

    // A *restarted* daemon over the same shard directory starts warm:
    // every durable read is served from the shards the first session
    // flushed, across the edit and the restart.
    let handle =
        Daemon::spawn(DaemonConfig::new(socket_path("edit-restart")).with_cache_dir(&dir)).unwrap();
    let mut client = Client::connect(handle.socket()).unwrap();
    let restarted = client.analyze(&edited).unwrap();
    assert_eq!(restarted.diagnostics_json, warm.diagnostics_json);
    assert_eq!(
        restarted.stats.persist_hit_rate(),
        1.0,
        "restarted daemon must read every durable result from the shards: {:?}",
        restarted.stats
    );
    client.shutdown().unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The corpus with the blocking call edited *out* of the watchdog
/// interrupt handler: BlockStop's seeded REAL BUG 2 finding disappears,
/// so a stale pre-edit answer is byte-visibly different from a correct
/// re-analysis — exactly what the restart test below needs to detect.
fn defused_kernel_source() -> String {
    let source = kernel_source();
    let edited = source.replacen(
        "watchdog_sync();",
        "watchdog_ticks = watchdog_ticks + 2;",
        1,
    );
    assert_ne!(source, edited, "corpus must contain the watchdog sync call");
    edited
}

#[test]
fn restarted_daemon_does_not_serve_stale_results_after_notify_edit() {
    let source = kernel_source();
    let edited = defused_kernel_source();
    let dir = cache_dir("restart-edit");

    // Session one fills the persist shards and exits.
    let handle =
        Daemon::spawn(DaemonConfig::new(socket_path("restart-edit-a")).with_cache_dir(&dir))
            .unwrap();
    let mut client = Client::connect(handle.socket()).unwrap();
    client.analyze(&source).unwrap();
    client.shutdown().unwrap();
    handle.join();

    // Session two restarts warm: whole-program durable artifacts are
    // adopted from disk without recording dependency edges, so the edit
    // walk alone cannot reach them — they must be re-keyed out instead
    // of retained.
    let handle =
        Daemon::spawn(DaemonConfig::new(socket_path("restart-edit-b")).with_cache_dir(&dir))
            .unwrap();
    let mut client = Client::connect(handle.socket()).unwrap();
    let warm = client.analyze(&source).unwrap();
    assert_eq!(
        warm.stats.persist_hit_rate(),
        1.0,
        "the restart must actually be warm: {:?}",
        warm.stats
    );

    client.notify_edit(&edited).unwrap();
    let after = client.analyze(&edited).unwrap();
    let batch = ivy::core::experiments::default_engine(0).analyze(&parse_program(&edited).unwrap());
    assert_ne!(
        batch.diagnostics_json(),
        warm.diagnostics_json,
        "the edit must be diagnostic-visible for this test to bite"
    );
    assert_eq!(
        batch.diagnostics_json(),
        after.diagnostics_json,
        "a warm-restarted daemon must not serve pre-edit results after notify_edit"
    );

    client.shutdown().unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn edits_racing_concurrent_analyzes_never_corrupt_answers() {
    let source = kernel_source();
    let defused = defused_kernel_source();
    let batch_source = ivy::core::experiments::default_engine(0)
        .analyze(&parse_program(&source).unwrap())
        .diagnostics_json();
    let batch_defused = ivy::core::experiments::default_engine(0)
        .analyze(&parse_program(&defused).unwrap())
        .diagnostics_json();
    assert_ne!(batch_source, batch_defused);

    let handle = Daemon::spawn(DaemonConfig::new(socket_path("race"))).unwrap();
    let socket = handle.socket().clone();
    let mut client = Client::connect(&socket).unwrap();
    client.analyze(&source).unwrap();

    // One client flips the resident program back and forth while another
    // hammers analyzes of both states. The daemon serializes each edit
    // against in-flight analyzes, so every answer must match the batch
    // engine for the program it was asked about — under any interleaving.
    let editor = {
        let socket = socket.clone();
        let (source, defused) = (source.clone(), defused.clone());
        std::thread::spawn(move || {
            let mut client = Client::connect(&socket).unwrap();
            for _ in 0..10 {
                client.notify_edit(&defused).unwrap();
                client.notify_edit(&source).unwrap();
            }
        })
    };
    let analyzer = {
        let socket = socket.clone();
        let (source, defused) = (source.clone(), defused.clone());
        let (batch_source, batch_defused) = (batch_source.clone(), batch_defused.clone());
        std::thread::spawn(move || {
            let mut client = Client::connect(&socket).unwrap();
            for i in 0..20 {
                let (program, expected) = if i % 2 == 0 {
                    (&source, &batch_source)
                } else {
                    (&defused, &batch_defused)
                };
                let answer = client.analyze(program).unwrap();
                assert_eq!(
                    &answer.diagnostics_json, expected,
                    "an analyze racing edits returned a corrupted answer"
                );
            }
        })
    };
    editor.join().unwrap();
    analyzer.join().unwrap();

    let mut client = Client::connect(&socket).unwrap();
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn daemon_and_batch_writers_shard_the_persist_directory() {
    let source = kernel_source();
    let program = parse_program(&source).unwrap();
    let dir = cache_dir("shards");

    // A batch run and a daemon share one cache directory; each flushes its
    // own writer shard, so neither clobbers the other.
    let batch_layer = Arc::new(
        PersistLayer::open(&dir)
            .unwrap()
            .with_writer_id("batch-writer"),
    );
    let batch = ivy::core::experiments::default_engine(0)
        .with_persist(Arc::clone(&batch_layer))
        .analyze(&program);

    let handle =
        Daemon::spawn(DaemonConfig::new(socket_path("shards")).with_cache_dir(&dir)).unwrap();
    let mut client = Client::connect(handle.socket()).unwrap();
    let daemon_answer = client.analyze(&source).unwrap();
    assert_eq!(batch.diagnostics_json(), daemon_answer.diagnostics_json);
    assert_eq!(
        daemon_answer.stats.persist_hit_rate(),
        1.0,
        "the daemon must start warm from the batch run's shards: {:?}",
        daemon_answer.stats
    );
    // Give the daemon something the batch run never computed, so it has
    // fresh results to flush into its own shard.
    client
        .analyze("fn daemon_only() { daemon_callee(); } fn daemon_callee() { }")
        .unwrap();
    client.shutdown().unwrap();
    handle.join();

    // Both writers' shards coexist on disk under the namespace dirs.
    let batch_shards = walk_shards(&dir, "batch-writer.json");
    let daemon_shards = walk_shards(&dir, &format!("w{}.json", std::process::id()));
    assert!(!batch_shards.is_empty(), "batch run flushed its shards");
    assert!(!daemon_shards.is_empty(), "daemon flushed its shards");
    let _ = std::fs::remove_dir_all(&dir);
}

fn walk_shards(dir: &PathBuf, file_name: &str) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .map(|ns| ns.join(file_name))
        .filter(|p| p.exists())
        .collect()
}

#[test]
fn engine_answers_survive_a_panicking_checker_thread() {
    use ivy::engine::{AnalysisCtx, Checker, Diagnostic};
    use ivy_cmir::ast::Function;

    /// A checker that panics on exactly one function — the lock-poisoning
    /// scenario a resident daemon must absorb.
    struct Grenade;
    impl Checker for Grenade {
        fn name(&self) -> &'static str {
            "grenade"
        }
        fn check_function(&self, _ctx: &AnalysisCtx, func: &Function) -> Vec<Diagnostic> {
            assert!(func.name != "watchdog_tick", "boom");
            Vec::new()
        }
    }

    let program = parse_program(&kernel_source()).unwrap();
    let engine = Engine::new().with_checker(Arc::new(Grenade));
    // The panic propagates out of this analyze (it runs on this thread)...
    assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.analyze(&program)
    }))
    .is_err());
    // ...but the engine's shared locks recovered: the same engine still
    // answers later requests instead of panicking on poisoned state.
    let healthy = ivy::core::experiments::default_engine(0)
        .with_ctx_store(engine.ctx_store())
        .analyze(&program);
    assert!(!healthy.diagnostics.is_empty());
}

#[test]
fn metrics_verb_returns_prometheus_text_covering_the_serving_path() {
    let source = kernel_source();
    let dir = cache_dir("metrics");
    let handle =
        Daemon::spawn(DaemonConfig::new(socket_path("metrics")).with_cache_dir(&dir)).unwrap();
    let mut client = Client::connect(handle.socket()).unwrap();

    // One cold analyze (its digest is answered `need_source`, so it takes
    // two requests), one warm (computes nothing, memoized), one memo hit,
    // then an edit round-trip so the incremental points-to re-solve reuses
    // the untouched constraint batches — every series the scrape asserts
    // on is nonzero.
    client.analyze(&source).unwrap();
    let warm = client.analyze(&source).unwrap();
    client.analyze(&source).unwrap();
    client.notify_edit(&edited_kernel_source()).unwrap();
    client.analyze(&edited_kernel_source()).unwrap();
    let text = client.metrics().unwrap();

    // Prometheus exposition shape: every sample line is `name{labels} value`
    // with a preceding `# TYPE` header.
    assert!(text.contains("# TYPE ivy_daemon_requests_served_total counter"));
    for needle in [
        // Request counts, overall and per verb: five analyze requests (four
        // answers plus one `need_source`), one notify_edit, and this
        // metrics request (counted before dispatch).
        "ivy_daemon_requests_served_total 7",
        "ivy_daemon_verb_requests_total{verb=\"analyze\"} 5",
        // Points-to batch reuse across the two analyzes.
        "ivy_daemon_pointsto_batch_hits_total",
        // Uptime gauge.
        "ivy_daemon_uptime_seconds",
    ] {
        assert!(
            text.contains(needle),
            "metrics text missing {needle:?}:\n{text}"
        );
    }

    // The cache series carry real traffic, not just zeros: parse the values.
    let series_value = |name: &str| -> u64 {
        text.lines()
            .find(|line| line.starts_with(name) && !line.starts_with('#'))
            .and_then(|line| line.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("series {name} absent or non-numeric:\n{text}"))
    };
    assert!(series_value("ivy_daemon_pointsto_batch_hits_total") >= 1);

    // The answer memo: two digests indexed (the kernel and its edit), one
    // memoized answer (the warm one — the cold and post-edit runs
    // computed results), one hit, three engine-served digest requests and
    // one `need_source`. `stats` renders the same atomics.
    let memo_bytes = series_value("ivy_daemon_answer_memo_bytes");
    assert!(
        memo_bytes > warm.diagnostics_json.len() as u64,
        "the memo holds the encoded warm answer: {memo_bytes} bytes"
    );
    let expected = [
        ("entries", "ivy_daemon_answer_memo_entries", 2),
        ("bytes", "ivy_daemon_answer_memo_bytes", memo_bytes),
        ("hits", "ivy_daemon_answer_memo_hits_total", 1),
        ("misses", "ivy_daemon_answer_memo_misses_total", 3),
        ("need_source", "ivy_daemon_answer_memo_need_source_total", 1),
    ];
    let stats = client.stats().unwrap();
    let memo = stats
        .get("engine")
        .and_then(|e| e.get("answer_memo"))
        .expect("stats.engine.answer_memo present");
    for (key, series, value) in expected {
        assert_eq!(series_value(series), value, "{series}:\n{text}");
        assert_eq!(
            memo.get(key).and_then(ivy::engine::json::Value::as_u64),
            Some(value),
            "stats.engine.answer_memo.{key}: {memo:?}"
        );
    }

    // Every numeric series renders the same reading in `stats` and
    // `metrics`. The `stats` request came after this scrape, so it counts
    // itself once more in `requests` and `verbs.stats`.
    let mut pairs: Vec<(String, String)> = [
        ("requests", "ivy_daemon_requests_served_total"),
        ("analyzes", "ivy_daemon_analyzes_total"),
        ("edits", "ivy_daemon_edits_total"),
        ("engine.edits.spliced", "ivy_daemon_edits_spliced_total"),
        (
            "engine.edits.reparse_function",
            "ivy_daemon_edit_reparse_total{path=\"function\"}",
        ),
        (
            "engine.edits.reparse_full",
            "ivy_daemon_edit_reparse_total{path=\"full\"}",
        ),
        ("engine.ctx_hits", "ivy_daemon_ctx_hits_total"),
        ("engine.ctx_misses", "ivy_daemon_ctx_misses_total"),
        ("engine.evictions", "ivy_daemon_ctx_evictions_total"),
        ("engine.resident_contexts", "ivy_daemon_resident_contexts"),
        (
            "engine.pointsto.batch_hits",
            "ivy_daemon_pointsto_batch_hits_total",
        ),
        (
            "engine.pointsto.batch_misses",
            "ivy_daemon_pointsto_batch_misses_total",
        ),
        (
            "engine.pointsto.solves_cold",
            "ivy_daemon_pointsto_solves_total{mode=\"cold\"}",
        ),
        (
            "engine.pointsto.solves_repropagate",
            "ivy_daemon_pointsto_solves_total{mode=\"incremental-repropagate\"}",
        ),
        ("persist.hits", "ivy_daemon_persist_hits_total"),
        ("persist.misses", "ivy_daemon_persist_misses_total"),
        ("persist.writes", "ivy_daemon_persist_writes_total"),
        ("persist.pruned", "ivy_daemon_persist_pruned_total"),
    ]
    .map(|(path, series)| (path.to_string(), series.to_string()))
    .into();
    for (key, series, _) in expected {
        pairs.push((format!("engine.answer_memo.{key}"), series.to_string()));
    }
    for verb in [
        "analyze",
        "notify_edit",
        "explain",
        "stats",
        "metrics",
        "shutdown",
        "unknown",
    ] {
        pairs.push((
            format!("verbs.{verb}"),
            format!("ivy_daemon_verb_requests_total{{verb=\"{verb}\"}}"),
        ));
    }
    let stat = |path: &str| -> u64 {
        path.split('.')
            .try_fold(&stats, |v, key| v.get(key))
            .and_then(ivy::engine::json::Value::as_u64)
            .unwrap_or_else(|| panic!("stats.{path} absent or non-numeric: {stats:?}"))
    };
    for (path, series) in &pairs {
        let counted_by_stats = u64::from(path == "requests" || path == "verbs.stats");
        assert_eq!(
            stat(path),
            series_value(&format!("{series} ")) + counted_by_stats,
            "stats.{path} disagrees with {series}:\n{text}"
        );
    }
    // The pairs cover every daemon series in the scrape except uptime, the
    // latency histograms and the telemetry counter of `explain` requests.
    let mut scraped: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("ivy_daemon_"))
        .filter_map(|l| l.rsplit_once(' ').map(|(series, _)| series))
        .filter(|series| {
            !series.starts_with("ivy_daemon_uptime_seconds")
                && !series.starts_with("ivy_daemon_request_")
                && !series.starts_with("ivy_daemon_explains_total")
        })
        .collect();
    scraped.sort_unstable();
    let mut listed: Vec<&str> = pairs.iter().map(|(_, series)| series.as_str()).collect();
    listed.sort_unstable();
    assert_eq!(scraped, listed, "every table series is pinned");

    // Per-verb latency histograms: the analyze verb served five requests,
    // so its histogram must expose cumulative buckets, a +Inf bucket equal
    // to the count, and p50/p95/p99 summary gauges.
    assert!(
        text.contains("# TYPE ivy_daemon_request_duration_micros histogram"),
        "latency histogram header missing:\n{text}"
    );
    let bucket_value = |line: &str| -> u64 {
        line.rsplit(' ')
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("non-numeric bucket line {line:?}"))
    };
    let analyze_buckets: Vec<u64> = text
        .lines()
        .filter(|l| {
            l.starts_with("ivy_daemon_request_duration_micros_bucket{verb=\"analyze\"")
                && !l.contains("le=\"+Inf\"")
        })
        .map(bucket_value)
        .collect();
    assert_eq!(
        analyze_buckets.len(),
        12,
        "one bucket line per fixed bound:\n{text}"
    );
    for pair in analyze_buckets.windows(2) {
        assert!(
            pair[0] <= pair[1],
            "cumulative bucket counts must be monotone non-decreasing: {analyze_buckets:?}"
        );
    }
    let analyze_count = series_value("ivy_daemon_request_duration_micros_count{verb=\"analyze\"}");
    assert_eq!(analyze_count, 5, "five analyze requests were timed");
    let inf_line = text
        .lines()
        .find(|l| {
            l.starts_with("ivy_daemon_request_duration_micros_bucket{verb=\"analyze\"")
                && l.contains("le=\"+Inf\"")
        })
        .expect("+Inf bucket present");
    assert_eq!(
        bucket_value(inf_line),
        analyze_count,
        "+Inf bucket equals the observation count"
    );
    assert!(analyze_buckets.iter().all(|&c| c <= analyze_count));
    for quantile in ["p50", "p95", "p99"] {
        assert!(
            text.contains(&format!(
                "ivy_daemon_request_{quantile}_micros{{verb=\"analyze\"}}"
            )),
            "{quantile} summary gauge missing:\n{text}"
        );
    }

    client.shutdown().unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_verbs_are_metered_as_unknown_and_never_echoed_whole() {
    let handle = Daemon::spawn(DaemonConfig::new(socket_path("unknown-verbs"))).unwrap();
    let mut client = Client::connect(handle.socket()).unwrap();
    let unknown = |client: &mut Client, i: usize| {
        let verb = format!("{i:04}{}", "x".repeat(256 * 1024));
        let mut request = ivy::engine::json::Map::new();
        request.insert("cmd".into(), Value::from(verb.as_str()));
        let err = client
            .request(&Value::Object(request))
            .expect_err("an unknown verb is an error");
        assert!(
            err.to_string().len() < 256,
            "the reply echoes a bounded prefix of the verb, got {} bytes",
            err.to_string().len()
        );
    };
    // The daemon's own series, as the scrape lists them. Telemetry from
    // other tests in this process may add series of its own concurrently,
    // so those are left out.
    let daemon_lines = |client: &mut Client| {
        let text = client.metrics().unwrap();
        text.lines()
            .filter(|l| l.starts_with("ivy_daemon_") && !l.starts_with("ivy_daemon_explains"))
            .count()
    };

    // Warm-up: the first `unknown` and `metrics` requests add their latency
    // histograms.
    unknown(&mut client, 0);
    daemon_lines(&mut client);
    let before = daemon_lines(&mut client);
    for i in 1..=32 {
        unknown(&mut client, i);
    }
    assert_eq!(
        daemon_lines(&mut client),
        before,
        "distinct unknown verbs must not add series"
    );

    let stats = client.stats().unwrap();
    assert_eq!(
        stats
            .get("verbs")
            .and_then(|v| v.get("unknown"))
            .and_then(Value::as_u64),
        Some(33)
    );
    let known = [
        "analyze",
        "notify_edit",
        "explain",
        "stats",
        "metrics",
        "shutdown",
        "unknown",
    ];
    for entry in stats
        .get("slow_requests")
        .and_then(Value::as_array)
        .expect("slow ring present")
    {
        let verb = entry.get("verb").and_then(Value::as_str).unwrap_or("");
        assert!(
            known.contains(&verb),
            "slow-ring entries name a metered verb, got {} bytes",
            verb.len()
        );
    }

    client.shutdown().unwrap();
    handle.join();
}

/// A small program with one function-pointer dispatch and one global
/// pointer slot — enough surface for `explain` to answer in both modes.
/// `stash` is a second handler an edit can retarget `hook` to.
const EXPLAIN_SOURCE: &str = r#"
    global sink: u8 *;
    global spare: u8 *;
    fn store(p: u8 *) { sink = p; }
    fn stash(p: u8 *) { spare = p; }
    global hook: fnptr(u8 *) -> void;
    global data: u8[8];
    fn setup() { hook = store; }
    fn fire() { hook(&data[0]); }
"#;

#[test]
fn explain_verb_returns_replay_verified_derivations() {
    // A default daemon: `explain` runs its own traced solve, no flag.
    let handle = Daemon::spawn(DaemonConfig::new(socket_path("explain"))).unwrap();
    let mut client = Client::connect(handle.socket()).unwrap();

    // Explain before any analyze is a clean error, not a hang or a panic.
    let err = client.explain("fire", "hook", None).unwrap_err();
    assert!(err.to_string().contains("nothing is resident"), "{err}");

    client.analyze(EXPLAIN_SOURCE).unwrap();

    // Indirect-call mode: why does `hook(...)` in `fire` reach `store`?
    let indirect = client.explain("fire", "hook", Some("store")).unwrap();
    assert!(indirect.replay_verified);
    assert!(!indirect.rendered.is_empty(), "chain must be non-empty");
    assert!(indirect.provenance_facts > 0);
    // Chains are seed-first: the first link is an addr-of seed.
    assert!(
        indirect.rendered[0].contains("addr-of seed"),
        "chain starts at a seed: {:?}",
        indirect.rendered
    );

    // Pointer-slot mode: why may `sink` point into `data`? The flow runs
    // through the indirect call's argument binding, so the chain has more
    // than one link.
    let slot = client.explain("store", "sink", None).unwrap();
    assert!(slot.replay_verified);
    assert!(
        slot.chain_len > 1,
        "flow through a call: {:?}",
        slot.rendered
    );
    assert!(
        slot.rendered[0].contains("addr-of seed"),
        "{:?}",
        slot.rendered
    );
    assert!(slot.fact.contains("sink"), "{}", slot.fact);

    // A target the static answer does not contain is an error that lists
    // what the answer does hold.
    let err = client.explain("fire", "hook", Some("setup")).unwrap_err();
    assert!(err.to_string().contains("store"), "{err}");

    // After an edit retargets `hook`, the chain derives the edited
    // program's target, and the old one is no longer in the answer.
    let edited = EXPLAIN_SOURCE.replace("hook = store;", "hook = stash;");
    client.notify_edit(&edited).unwrap();
    let retargeted = client.explain("fire", "hook", None).unwrap();
    assert!(retargeted.replay_verified);
    assert!(retargeted.fact.contains("`stash`"), "{}", retargeted.fact);
    assert!(
        retargeted
            .rendered
            .iter()
            .any(|line| line.contains("stash")),
        "chain names the edited target: {:?}",
        retargeted.rendered
    );
    let err = client.explain("fire", "hook", Some("store")).unwrap_err();
    assert!(err.to_string().contains("stash"), "{err}");
    let spare = client.explain("stash", "spare", None).unwrap();
    assert!(
        spare.replay_verified && spare.chain_len > 1,
        "{:?}",
        spare.rendered
    );

    client.shutdown().unwrap();
    handle.join();
}

/// A raw connection for hand-built frames: what an old client, or a
/// hostile one, puts on the wire.
fn raw_request(stream: &mut std::os::unix::net::UnixStream, request: &str) -> Value {
    write_frame(stream, &ivy::engine::json::from_str(request).unwrap()).unwrap();
    read_frame(stream).unwrap().expect("daemon answers")
}

fn memo_counter(client: &mut Client, key: &str) -> u64 {
    let stats = client.stats().unwrap();
    stats
        .get("engine")
        .and_then(|e| e.get("answer_memo"))
        .and_then(|m| m.get(key))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("answer_memo.{key} missing: {stats:?}"))
}

#[test]
fn a_repeated_analyze_is_a_memo_hit_identical_to_the_cached_answer() {
    let source = kernel_source();
    let handle = Daemon::spawn(DaemonConfig::new(socket_path("memo"))).unwrap();
    let mut client = Client::connect(handle.socket()).unwrap();

    let cold = client.analyze(&source).unwrap();
    let cached = client.analyze(&source).unwrap();
    assert!(cached.stats.ctx_reused && cached.stats.cache_misses == 0);
    assert_eq!(memo_counter(&mut client, "hits"), 0);
    let hit = client.analyze(&source).unwrap();
    assert_eq!(
        memo_counter(&mut client, "hits"),
        1,
        "the third analyze hits"
    );

    // The memoized answer is what the engine would answer, stats included.
    assert_eq!(hit.diagnostics_json, cached.diagnostics_json);
    assert_eq!(hit.stats, cached.stats);
    assert_eq!(hit.program_hash, cached.program_hash);
    assert_eq!(hit.diagnostic_count, cached.diagnostic_count);
    assert_eq!(cold.diagnostics_json, hit.diagnostics_json);
    let batch = ivy::core::experiments::default_engine(0).analyze(&parse_program(&source).unwrap());
    assert_eq!(batch.diagnostics_json(), hit.diagnostics_json);
    assert_eq!(batch.diagnostics.len(), hit.diagnostic_count);
    // A fourth analyze takes the same digest path to the memo.
    assert_eq!(
        client.analyze(&source).unwrap().diagnostics_json,
        batch.diagnostics_json()
    );
    assert_eq!(memo_counter(&mut client, "hits"), 2);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn protocol_1_source_frames_keep_their_response_shape() {
    let source = kernel_source();
    let handle = Daemon::spawn(DaemonConfig::new(socket_path("v1"))).unwrap();
    let mut client = Client::connect(handle.socket()).unwrap();
    let v2 = client.analyze(&source).unwrap();

    // `analyze` has one shape: a digest-less source frame is an error that
    // names the missing field, not a second path to the engine.
    let mut stream = std::os::unix::net::UnixStream::connect(handle.socket()).unwrap();
    let mut request = ivy::daemon::protocol::request("analyze");
    request.insert("source".into(), Value::from(source.as_str()));
    write_frame(&mut stream, &Value::Object(request)).unwrap();
    let v1 = read_frame(&mut stream).unwrap().unwrap();
    assert_eq!(v1.get("ok").and_then(Value::as_bool), Some(false));
    let error = v1.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(
        error.contains("\"digest\""),
        "a digest-less analyze names the digest field, got {error:?}"
    );

    // The same connection still answers a digest `analyze`: the daemon
    // has the digest resident, so the header and raw frame come back.
    let digest = SourceDigest::of(&source).to_string();
    let header = raw_request(
        &mut stream,
        &format!(r#"{{"cmd":"analyze","digest":"{digest}"}}"#),
    );
    assert_eq!(header.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(
        header.get("program_hash").and_then(Value::as_str),
        Some(v2.program_hash.as_str())
    );
    let raw = ivy::daemon::protocol::read_raw_frame(&mut stream).unwrap();
    assert_eq!(raw, v2.diagnostics_json);

    // The protocol-1 `diagnostics` verb folded into `analyze`: the frame
    // is now an unknown command.
    let mut request = ivy::daemon::protocol::request("diagnostics");
    request.insert("source".into(), Value::from(source.as_str()));
    write_frame(&mut stream, &Value::Object(request)).unwrap();
    let v1 = read_frame(&mut stream).unwrap().unwrap();
    assert_eq!(v1.get("ok").and_then(Value::as_bool), Some(false));
    let error = v1.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(
        error.starts_with("unknown cmd"),
        "diagnostics frames get the unknown-cmd error, got {error:?}"
    );
    drop(stream);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn notify_edit_after_a_memo_hit_diffs_against_the_memo_hit_program() {
    let source = kernel_source();
    let handle = Daemon::spawn(DaemonConfig::new(socket_path("memo-edit"))).unwrap();
    let mut client = Client::connect(handle.socket()).unwrap();

    // A is memoized, then B becomes the last program the engine ran.
    client.analyze(&source).unwrap();
    client.analyze(&source).unwrap();
    client.analyze(EXPLAIN_SOURCE).unwrap();
    // A memo hit for A: no engine run, but A is now the edit base.
    client.analyze(&source).unwrap();
    assert_eq!(memo_counter(&mut client, "hits"), 1);

    let outcome = client.notify_edit(&edited_kernel_source()).unwrap();
    assert_eq!(
        outcome.invalidation.changed_functions,
        vec!["watchdog_tick".to_string()],
        "the edit diffs against A, the memo-hit program, not against B"
    );
    assert!(!outcome.invalidation.env_changed);
    let after = client.analyze(&edited_kernel_source()).unwrap();
    let batch = ivy::core::experiments::default_engine(0)
        .analyze(&parse_program(&edited_kernel_source()).unwrap());
    assert_eq!(batch.diagnostics_json(), after.diagnostics_json);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn an_evicted_digest_gets_need_source_and_the_client_resends() {
    let source = kernel_source();
    let handle = Daemon::spawn(DaemonConfig::new(socket_path("evict"))).unwrap();
    let mut client = Client::connect(handle.socket()).unwrap();
    let first = client.analyze(&source).unwrap();

    // Sixteen more distinct programs fill the 16-context store and evict
    // the first one's context.
    for i in 0..16 {
        client
            .analyze(&format!("fn f{i}() {{ g{i}(); }} fn g{i}() {{ }}"))
            .unwrap();
    }
    let stats = client.stats().unwrap();
    let engine = stats.get("engine").unwrap();
    assert!(engine.get("evictions").and_then(Value::as_u64).unwrap() >= 1);
    assert_eq!(
        engine.get("resident_contexts").and_then(Value::as_u64),
        Some(16)
    );
    let asked = memo_counter(&mut client, "need_source");

    // The bare digest is no longer resolvable.
    let digest = SourceDigest::of(&source).to_string();
    let mut stream = std::os::unix::net::UnixStream::connect(handle.socket()).unwrap();
    let answer = raw_request(
        &mut stream,
        &format!(r#"{{"cmd":"analyze","digest":"{digest}"}}"#),
    );
    assert_eq!(answer.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(
        answer.get("need_source").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(memo_counter(&mut client, "need_source"), asked + 1);
    drop(stream);

    // `Client::analyze` resends the source transparently; the answer is
    // still the batch answer.
    let again = client.analyze(&source).unwrap();
    assert_eq!(memo_counter(&mut client, "need_source"), asked + 2);
    assert!(!again.stats.ctx_reused, "the context was rebuilt");
    assert_eq!(again.diagnostics_json, first.diagnostics_json);
    let batch = ivy::core::experiments::default_engine(0).analyze(&parse_program(&source).unwrap());
    assert_eq!(batch.diagnostics_json(), again.diagnostics_json);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn malformed_and_mismatched_digests_get_error_responses() {
    let handle = Daemon::spawn(DaemonConfig::new(socket_path("bad-digest"))).unwrap();
    let mut stream = std::os::unix::net::UnixStream::connect(handle.socket()).unwrap();
    let other = SourceDigest::of("fn g() { }");
    for request in [
        r#"{"cmd":"analyze","digest":"xyz"}"#.to_string(),
        r#"{"cmd":"analyze","digest":42}"#.to_string(),
        r#"{"cmd":"analyze","digest":null}"#.to_string(),
        format!(
            r#"{{"cmd":"analyze","digest":"+{}"}}"#,
            &other.to_string()[1..]
        ),
        format!(r#"{{"cmd":"analyze","digest":"{other}0"}}"#),
        // A digest that does not name the attached source never enters
        // the index.
        format!(r#"{{"cmd":"analyze","digest":"{other}","source":"fn f() {{ }}"}}"#),
        format!(r#"{{"cmd":"analyze","digest":"{other}","source":7}}"#),
        format!(
            r#"{{"cmd":"analyze","digest":"{}","source":"fn ) {{"}}"#,
            SourceDigest::of("fn ) {")
        ),
    ] {
        let answer = raw_request(&mut stream, &request);
        assert_eq!(
            answer.get("ok").and_then(Value::as_bool),
            Some(false),
            "{request} -> {answer:?}"
        );
    }
    // The mismatched source was not indexed under the other digest, and
    // the connection still serves.
    let answer = raw_request(
        &mut stream,
        &format!(r#"{{"cmd":"analyze","digest":"{other}"}}"#),
    );
    assert_eq!(
        answer.get("need_source").and_then(Value::as_bool),
        Some(true)
    );
    drop(stream);
    let mut client = Client::connect(handle.socket()).unwrap();
    assert!(client.analyze("fn g() { }").is_ok());
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn a_memo_never_outlives_the_context_it_was_computed_from() {
    let source = kernel_source();
    let edited = edited_kernel_source();
    let handle = Daemon::spawn(DaemonConfig::new(socket_path("memo-ctx"))).unwrap();
    let mut client = Client::connect(handle.socket()).unwrap();
    client.analyze(&source).unwrap();
    let memoized = client.analyze(&source).unwrap();
    assert_eq!(memoized.stats.pointsto_solve_mode, "cold");

    // Editing away and back registers a *new* context for the same
    // program, whose points-to was re-solved incrementally: a fresh run
    // reports that, so the old context's bytes must not be served.
    client.notify_edit(&edited).unwrap();
    client.notify_edit(&source).unwrap();
    let hits = memo_counter(&mut client, "hits");
    let after = client.analyze(&source).unwrap();
    assert_eq!(memo_counter(&mut client, "hits"), hits, "no stale memo hit");
    assert_eq!(after.stats.pointsto_solve_mode, "incremental-repropagate");
    assert_eq!(after.diagnostics_json, memoized.diagnostics_json);
    // The new context first recomputes its whole-program queries, so that
    // run is not memoized; the next one computes nothing and is, and the
    // one after that is served from it.
    assert!(after.stats.cache_misses > 0, "{:?}", after.stats);
    let again = client.analyze(&source).unwrap();
    assert_eq!(memo_counter(&mut client, "hits"), hits);
    assert_eq!(again.stats.cache_misses, 0, "{:?}", again.stats);
    assert_eq!(again.diagnostics_json, memoized.diagnostics_json);
    let served = client.analyze(&source).unwrap();
    assert_eq!(memo_counter(&mut client, "hits"), hits + 1);
    assert_eq!(served.stats, again.stats);

    client.shutdown().unwrap();
    handle.join();
}

/// A small program with a non-ASCII comment, so a splice offset can land
/// inside a UTF-8 character.
const SPLICE_SOURCE: &str = "fn f() {\n    g(1);\n}\n// caf\u{e9} na\u{ef}ve\nfn g(x: u32) {\n}\n";

fn splice_frame(base: &str, digest: &str, at: &str, remove: &str, insert: &str) -> String {
    format!(
        r#"{{"cmd":"notify_edit","base":"{base}","digest":"{digest}","at":{at},"remove":{remove},"insert":{insert}}}"#
    )
}

#[test]
fn hostile_splice_frames_get_errors_and_the_connection_keeps_serving() {
    let handle = Daemon::spawn(DaemonConfig::new(socket_path("splice"))).unwrap();
    let mut client = Client::connect(handle.socket()).unwrap();
    client.analyze(SPLICE_SOURCE).unwrap();
    let base = SourceDigest::of(SPLICE_SOURCE).to_string();
    let edited = SPLICE_SOURCE.replace("g(1)", "g(2)");
    let digest = SourceDigest::of(&edited).to_string();
    let at = SPLICE_SOURCE.find("g(1)").unwrap() + 2;
    let inside_e_acute = SPLICE_SOURCE.find('\u{e9}').unwrap() + 1;
    let len = SPLICE_SOURCE.len();

    let mut stream = std::os::unix::net::UnixStream::connect(handle.socket()).unwrap();
    for request in [
        // Past the end, and an end that overflows u64.
        splice_frame(&base, &digest, &(len + 1).to_string(), "0", r#""""#),
        splice_frame(&base, &digest, &len.to_string(), "1", r#""""#),
        splice_frame(&base, &digest, "1", "18446744073709551615", r#""""#),
        // Offsets inside a UTF-8 character.
        splice_frame(&base, &digest, &inside_e_acute.to_string(), "0", r#""x""#),
        splice_frame(
            &base,
            &digest,
            &(inside_e_acute - 1).to_string(),
            "1",
            r#""e""#,
        ),
        // A non-string insert, negative and missing offsets, bad digests.
        splice_frame(&base, &digest, &at.to_string(), "1", "2"),
        splice_frame(&base, &digest, "-1", "1", r#""2""#),
        format!(r#"{{"cmd":"notify_edit","base":"{base}","digest":"{digest}","insert":"2"}}"#),
        splice_frame("xyz", &digest, &at.to_string(), "1", r#""2""#),
        splice_frame(&base, "42", &at.to_string(), "1", r#""2""#),
        // A well-formed splice whose result does not have the digest.
        splice_frame(&base, &base, &at.to_string(), "1", r#""2""#),
    ] {
        let answer = raw_request(&mut stream, &request);
        assert_eq!(
            answer.get("ok").and_then(Value::as_bool),
            Some(false),
            "{request} -> {answer:?}"
        );
        let stats = raw_request(&mut stream, r#"{"cmd":"stats"}"#);
        assert_eq!(stats.get("ok").and_then(Value::as_bool), Some(true));
    }

    // An unknown base asks for the source, like an unknown analyze digest.
    let unknown = SourceDigest::of("fn nobody() { }").to_string();
    let answer = raw_request(
        &mut stream,
        &splice_frame(&unknown, &digest, &at.to_string(), "1", r#""2""#),
    );
    assert_eq!(
        answer.get("need_source").and_then(Value::as_bool),
        Some(true),
        "{answer:?}"
    );

    // A well-formed splice to unparsable text gets the full-source error.
    let broken = SPLICE_SOURCE.replace("g(1);", "g(1;");
    let splice = ivy::daemon::protocol::Splice::between(SPLICE_SOURCE, &broken);
    let via_splice = raw_request(
        &mut stream,
        &splice_frame(
            &base,
            &SourceDigest::of(&broken).to_string(),
            &splice.at.to_string(),
            &splice.remove.to_string(),
            &ivy::engine::json::to_string(&Value::from(splice.insert)).unwrap(),
        ),
    );
    let mut full = ivy::daemon::protocol::request("notify_edit");
    full.insert("source".into(), Value::from(broken.as_str()));
    write_frame(&mut stream, &Value::Object(full)).unwrap();
    let via_source = read_frame(&mut stream).unwrap().unwrap();
    let error = |v: &Value| v.get("error").and_then(Value::as_str).map(String::from);
    assert!(
        error(&via_splice).is_some_and(|e| e.starts_with("parse error:")),
        "{via_splice:?}"
    );
    assert_eq!(error(&via_splice), error(&via_source));

    // A good splice on the same connection still edits.
    let answer = raw_request(
        &mut stream,
        &splice_frame(&base, &digest, &at.to_string(), "1", r#""2""#),
    );
    assert_eq!(answer.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(
        answer.get("reparse").and_then(Value::as_str),
        Some("function")
    );
    drop(stream);
    let stats = client.stats().unwrap();
    let edits = stats.get("engine").and_then(|e| e.get("edits")).unwrap();
    assert_eq!(edits.get("spliced").and_then(Value::as_u64), Some(1));
    client.shutdown().unwrap();
    handle.join();
}

/// `pretty_program` of `program` with the first integer literal of the
/// `pick`-th literal-bearing function body set to `value`: the edit
/// rewrites digits only, so every line keeps its number.
fn literal_edit(program: &mut ivy::cmir::Program, pick: usize, value: i64) -> String {
    use ivy::cmir::ast::Expr;
    use ivy::cmir::visit::{map_block_exprs, walk_block_exprs};
    let candidates: Vec<usize> = (0..program.functions.len())
        .filter(|&i| {
            let mut found = false;
            if let Some(body) = &program.functions[i].body {
                walk_block_exprs(body, &mut |e| found |= matches!(e, Expr::Int(_)));
            }
            found
        })
        .collect();
    let func = &mut program.functions[candidates[pick % candidates.len()]];
    let body = func.body.as_ref().expect("candidate has a body");
    let mut done = false;
    func.body = Some(map_block_exprs(body, &mut |e| match e {
        Expr::Int(_) if !done => {
            done = true;
            Expr::Int(value)
        }
        other => other,
    }));
    pretty_program(program)
}

#[test]
fn fifty_spliced_edits_answer_byte_identically_to_batch() {
    let source = kernel_source();
    let mut program = parse_program(&source).unwrap();
    let handle = Daemon::spawn(DaemonConfig::new(socket_path("fifty"))).unwrap();
    let mut client = Client::connect(handle.socket()).unwrap();
    client.analyze(&source).unwrap();
    let batch = ivy::core::experiments::default_engine(0);
    for i in 0..50 {
        let edited = literal_edit(&mut program, i * 7919, 100_000 + i as i64);
        let outcome = client.notify_edit(&edited).unwrap();
        assert_eq!(outcome.reparse, "function", "edit {i}");
        let answer = client.analyze(&edited).unwrap();
        let expected = batch.analyze(&parse_program(&edited).unwrap());
        assert_eq!(
            answer.diagnostics_json,
            expected.diagnostics_json(),
            "edit {i}"
        );
    }
    let stats = client.stats().unwrap();
    let edits = stats.get("engine").and_then(|e| e.get("edits")).unwrap();
    assert_eq!(edits.get("spliced").and_then(Value::as_u64), Some(49));
    assert_eq!(
        edits.get("reparse_function").and_then(Value::as_u64),
        Some(50)
    );
    assert_eq!(edits.get("reparse_full").and_then(Value::as_u64), Some(0));
    client.shutdown().unwrap();
    handle.join();
}
