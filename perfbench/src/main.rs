//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds` of measured time and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` the run spends half its time
//! untraced and half replaying the same operations with a span around
//! every layer call, and the metrics are the per-layer breakdown.

use ivy_cmir::parser::parse_program;
use ivy_core::experiments::default_engine;
use ivy_daemon::{fleet_engine, Client, Daemon, DaemonConfig, DaemonHandle};
use perfbench::gen::{
    build_kernel, cold_configs, serve_configs, session_config, EditSequence, Kernel, Rng,
};
use perfbench::replay::{parse, Replay};
use perfbench::trace::{Breakdown, Tracer, UNATTRIBUTED};
use perfbench::{batch_answer, check_ground_truth, median, peak_rss_mb, percentile};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// One `edit_session` answer in this many is checked against batch.
const CHECK_EVERY: usize = 16;

/// `edit_session` reads its peak RSS after this many edits, far past the
/// 16-context cap, so that the number does not depend on how many edits a
/// run completes (the diagnostic cache grows with every edit).
const RSS_AFTER_EDITS: u64 = 100;

/// Where sockets and trace files go, relative to the working directory.
const RUN_DIR: &str = "perfbench/out";

/// Layer spans, reported as `<span>_ms` self time per operation.
const LAYER_SPANS: [&str; 13] = [
    "cmir.parse",
    "engine.hash",
    "engine.ctx",
    "analysis.pointsto",
    "analysis.summaries",
    "deputy.check",
    "ccount.check",
    "blockstop.check",
    "engine.schedule",
    "engine.serialize",
    "engine.apply_edit",
    "daemon.frame",
    "daemon.hop",
];

/// Per-operation counters and their units.
const LAYER_COUNTS: [(&str, &str); 8] = [
    ("cmir.source_bytes", "bytes"),
    ("analysis.pointsto_constraints", "count"),
    ("analysis.pointsto_batches_generated", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.diagnostics_bytes", "bytes"),
    ("engine.edit_invalidated", "count"),
    ("engine.edit_retention", "ratio"),
    ("daemon.frame_bytes", "bytes"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    /// Measured seconds of each phase: a traced run splits its time
    /// between an untraced and a traced phase.
    fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or(format!("missing {flag}"))
    };
    let number = |flag: &str| {
        value(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: value("--workload")?.clone(),
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace: match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// What a run reports.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A closed loop's measured window: wall time minus the time spent
/// generating inputs and checking outputs, which happen outside it.
struct Window {
    start: Instant,
    excluded: Duration,
    limit: Duration,
}

impl Window {
    fn new(seconds: f64) -> Window {
        Window {
            start: Instant::now(),
            excluded: Duration::ZERO,
            limit: Duration::from_secs_f64(seconds),
        }
    }

    fn measured(&self) -> Duration {
        self.start.elapsed() - self.excluded
    }

    fn open(&self) -> bool {
        self.measured() < self.limit
    }

    fn exclude<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.excluded += start.elapsed();
        out
    }
}

/// Latencies of the operations one phase completed.
#[derive(Default)]
struct Samples {
    ms: Vec<f64>,
    seconds: f64,
    attempted: u64,
    failed: u64,
}

impl Samples {
    fn merge(&mut self, other: Samples) {
        self.ms.extend(other.ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.ms.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    fn p50(&self) -> f64 {
        percentile(&self.sorted(), 0.5)
    }

    /// The end-to-end metrics of an untraced phase.
    fn report(&self, out: &mut Outcome, setup_s: f64, peak_rss_mb: f64) {
        let sorted = self.sorted();
        let p90 = percentile(&sorted, 0.9);
        println!(
            "samples {}: p50 {:.3} ms, p90 {:.3} ms ({} samples beyond p90), {:.2} ops/s over {:.1} s",
            sorted.len(),
            percentile(&sorted, 0.5),
            p90,
            sorted.iter().filter(|&&v| v > p90).count(),
            sorted.len() as f64 / self.seconds,
            self.seconds
        );
        out.metric("setup_s", setup_s, "s");
        out.metric("p50_ms", percentile(&sorted, 0.5), "ms");
        out.metric("p90_ms", p90, "ms");
        out.metric("ops_per_s", sorted.len() as f64 / self.seconds, "1/s");
        out.metric("peak_rss_mb", peak_rss_mb, "MB");
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `setup` [`SETUP_REPEATS`] times, tearing down all but the last
/// result; returns it with the median set-up time in seconds.
fn timed_setups<T>(mut setup: impl FnMut(usize) -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let start = Instant::now();
        last = Some(setup(i));
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

fn spawn_daemon(tag: &str) -> DaemonHandle {
    let socket = Path::new(RUN_DIR).join(format!("{tag}-{}.sock", std::process::id()));
    Daemon::spawn(DaemonConfig::new(socket)).expect("daemon spawns")
}

fn stop_daemon(handle: DaemonHandle) {
    let socket = handle.socket().clone();
    Client::connect(&socket)
        .and_then(|mut c| c.shutdown())
        .expect("daemon shuts down");
    handle.join();
    release_free_memory();
    let mut lock = socket.into_os_string();
    lock.push(".lock");
    let _ = std::fs::remove_file(PathBuf::from(lock));
}

fn resident_contexts(socket: &Path) -> f64 {
    Client::connect(socket)
        .and_then(|mut c| c.stats())
        .ok()
        .and_then(|s| s.get("engine")?.get("resident_contexts")?.as_u64())
        .unwrap_or(0) as f64
}

fn client_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The traced phase's results.
struct Traced {
    breakdown: Breakdown,
    tracers: Vec<Tracer>,
    samples: Samples,
    /// `analyze_incremental` against a filled constraint cache, per op,
    /// measured outside the operation.
    resolve_ms: Vec<f64>,
}

impl Traced {
    fn new(tracers: Vec<Tracer>, samples: Samples, resolve_ms: Vec<f64>) -> Traced {
        let mut breakdown = Breakdown::default();
        for t in &tracers {
            breakdown.add(t);
        }
        Traced {
            breakdown,
            tracers,
            samples,
            resolve_ms,
        }
    }

    /// The per-layer metrics, plus the tracing overhead against the
    /// untraced phase of the same run.
    fn report(&self, out: &mut Outcome, untraced: &Samples, ctx_resident: f64, workload: &str) {
        let b = &self.breakdown;
        for span in LAYER_SPANS {
            out.metric(&format!("{span}_ms"), b.self_ms_per_op(span), "ms");
        }
        out.metric(
            "analysis.pointsto_resolve_ms",
            if self.resolve_ms.is_empty() {
                0.0
            } else {
                self.resolve_ms.iter().sum::<f64>() / self.resolve_ms.len() as f64
            },
            "ms",
        );
        for (name, unit) in LAYER_COUNTS {
            out.metric(name, b.count_per_op(name), unit);
        }
        out.metric("engine.ctx_resident", ctx_resident, "count");
        out.metric("unattributed_ms", b.self_ms_per_op(UNATTRIBUTED), "ms");
        let traced_p50 = self.samples.p50();
        let untraced_p50 = untraced.p50();
        out.metric("trace.op_ms", b.op_ms_mean(), "ms");
        out.metric("trace.ops", b.ops as f64, "count");
        out.metric("trace.p50_ms", traced_p50, "ms");
        out.metric("trace.untraced_p50_ms", untraced_p50, "ms");
        out.metric("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
        let covered: f64 = b.self_ms.values().sum::<f64>() / b.ops.max(1) as f64;
        println!(
            "traced {} ops: mean {:.3} ms = layers + unattributed {:.3} ms; p50 {:.3} ms traced vs {:.3} ms untraced",
            b.ops,
            b.op_ms_mean(),
            covered,
            traced_p50,
            untraced_p50
        );
        let path = Path::new(RUN_DIR).join(format!("trace-{workload}.jsonl"));
        let written = std::fs::File::create(&path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            for (thread, t) in self.tracers.iter().enumerate() {
                t.write_jsonl(&mut w, thread)?;
            }
            std::io::Write::flush(&mut w)
        });
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written to {}: {e}", path.display()),
        }
    }
}

// ---- cold_batch ------------------------------------------------------

/// `cold_batch` correctness: the first answer for each kernel is checked
/// against its seeded defects, and every later answer must equal that
/// checked answer byte for byte.
struct GroundTruthCheck<'k> {
    kernels: &'k [Kernel],
    verified: Vec<Option<String>>,
}

impl GroundTruthCheck<'_> {
    fn new(kernels: &[Kernel]) -> GroundTruthCheck<'_> {
        GroundTruthCheck {
            kernels,
            verified: vec![None; kernels.len()],
        }
    }

    fn check(&mut self, kernel: usize, answer: String) -> Result<(), String> {
        match &self.verified[kernel] {
            Some(verified) if *verified == answer => Ok(()),
            Some(_) => Err("answer differs from an earlier one for the same kernel".into()),
            None => {
                check_ground_truth(&answer, &self.kernels[kernel].ground_truth)?;
                self.verified[kernel] = Some(answer);
                Ok(())
            }
        }
    }
}

fn cold_batch(args: &Args, out: &mut Outcome) {
    let (kernels, setup_s) = timed_setups(
        |_| {
            cold_configs(args.seed)
                .iter()
                .map(build_kernel)
                .collect::<Vec<Kernel>>()
        },
        drop,
    );
    let sizes: Vec<usize> = kernels.iter().map(|k| k.functions).collect();
    println!("cold_batch kernels (functions): {sizes:?}");
    let order = Rng::new(args.seed, 5).permutation(kernels.len());
    let pick = |i: u64| order[i as usize % order.len()];
    let mut truth = GroundTruthCheck::new(&kernels);

    let seconds = args.phase_seconds();
    let mut untraced = Samples::default();
    let mut ctx_resident = 0.0;
    let mut window = Window::new(seconds);
    while window.open() {
        let k = pick(untraced.attempted);
        untraced.attempted += 1;
        let start = Instant::now();
        let answer = parse_program(&kernels[k].source).map(|program| {
            let engine = default_engine(0);
            (engine.analyze(&program).diagnostics_json(), engine)
        });
        let ms = ms_since(start);
        window.exclude(|| {
            let checked =
                answer
                    .map_err(|e| format!("parse failed: {e}"))
                    .and_then(|(json, engine)| {
                        ctx_resident = engine.ctx_store().len() as f64;
                        drop(engine);
                        release_free_memory();
                        truth.check(k, json)
                    });
            match checked {
                Ok(()) => untraced.ms.push(ms),
                Err(e) => {
                    println!("op failed: {e}");
                    untraced.failed += 1;
                }
            }
        });
    }
    untraced.seconds = window.measured().as_secs_f64();
    out.attempted += untraced.attempted;
    out.failed += untraced.failed;
    if !args.trace {
        untraced.report(out, setup_s, peak_rss_mb());
        return;
    }

    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut samples = Samples::default();
    let mut resolve_ms = Vec::new();
    let mut window = Window::new(seconds);
    while window.open() {
        let k = pick(untraced.attempted + samples.attempted);
        let source = &kernels[k].source;
        samples.attempted += 1;
        let (answer, ms) = tracer.op(|t| {
            let program = parse(t, source)?;
            let replay = Replay::new(default_engine(0));
            let (_, _, json) = replay.analyze(t, &program);
            Ok::<_, String>((json, program, replay))
        });
        window.exclude(|| {
            let checked = answer.and_then(|(json, program, replay)| {
                resolve_ms.push(replay.resolve_ms(&program));
                truth.check(k, json)
            });
            release_free_memory();
            match checked {
                Ok(()) => samples.ms.push(ms),
                Err(e) => {
                    println!("traced op failed: {e}");
                    samples.failed += 1;
                }
            }
        });
    }
    out.attempted += samples.attempted;
    out.failed += samples.failed;
    Traced::new(vec![tracer], samples, resolve_ms).report(
        out,
        &untraced,
        ctx_resident,
        "cold_batch",
    );
}

// ---- edit_session ----------------------------------------------------

/// Checks sampled `(edit index, answer)` pairs, in index order, against a
/// fresh batch analysis of the same program state (regenerated from the
/// seed); returns how many differ.
fn wrong_edit_answers(kernel: &str, seed: u64, answers: &[(usize, String)]) -> u64 {
    let mut edits = EditSequence::new(kernel, seed);
    let mut state = 0;
    let mut wrong = 0;
    for (i, answer) in answers {
        let mut source = String::new();
        while state <= *i {
            source = edits.next_edit().1;
            state += 1;
        }
        if batch_answer(&source).as_deref() != Ok(answer.as_str()) {
            println!("edit {i}: answer differs from batch");
            wrong += 1;
        }
    }
    wrong
}

fn edit_session(args: &Args, out: &mut Outcome) {
    let ((kernel, handle), setup_s) = timed_setups(
        |i| {
            let kernel = build_kernel(&session_config(args.seed));
            let handle = spawn_daemon(&format!("edit_session-{i}"));
            Client::connect(handle.socket())
                .and_then(|mut c| c.analyze(&kernel.source))
                .expect("daemon primes");
            (kernel, handle)
        },
        |(_, handle)| stop_daemon(handle),
    );
    println!("edit_session kernel: {} functions", kernel.functions);
    let seconds = args.phase_seconds();
    let check_offset = Rng::new(args.seed, 6).below(CHECK_EVERY);

    let mut client = Client::connect(handle.socket()).expect("client connects");
    let mut edits = EditSequence::new(&kernel.source, args.seed);
    let mut untraced = Samples::default();
    let mut answers: Vec<(usize, String)> = Vec::new();
    let mut peak = None;
    let mut window = Window::new(seconds);
    while window.open() {
        let i = untraced.attempted as usize;
        let (_, source) = window.exclude(|| edits.next_edit());
        untraced.attempted += 1;
        let start = Instant::now();
        let answer = client
            .notify_edit(&source)
            .and_then(|_| client.analyze(&source));
        let ms = ms_since(start);
        match answer {
            Ok(a) => {
                untraced.ms.push(ms);
                if i % CHECK_EVERY == check_offset {
                    answers.push((i, a.diagnostics_json));
                }
            }
            Err(e) => {
                println!("edit {i} failed: {e}");
                untraced.failed += 1;
            }
        }
        if untraced.attempted == RSS_AFTER_EDITS {
            peak = Some(window.exclude(peak_rss_mb));
        }
    }
    untraced.seconds = window.measured().as_secs_f64();
    let peak = peak.unwrap_or_else(peak_rss_mb);
    let ctx_resident = resident_contexts(handle.socket());
    drop(client);
    stop_daemon(handle);

    untraced.failed += wrong_edit_answers(&kernel.source, args.seed, &answers);
    println!(
        "checked {} of {} answers against batch; {} contexts resident",
        answers.len(),
        untraced.ms.len(),
        ctx_resident
    );
    out.attempted += untraced.attempted;
    out.failed += untraced.failed;
    if !args.trace {
        untraced.report(out, setup_s, peak);
        return;
    }

    // Traced: the same edit stream replayed in-process from the same
    // starting kernel, with a real `stats` round trip standing in for
    // each request's socket hop.
    let hop_daemon = spawn_daemon("edit_session-hop");
    let mut hop = Client::connect(hop_daemon.socket()).expect("client connects");
    let replay = Replay::new(fleet_engine(0, None));
    let base_program = parse_program(&kernel.source).expect("kernel parses");
    let (mut base, _) = replay.engine().context_for(&base_program);
    replay.engine().analyze_with_ctx(&base, false);
    let mut edits = EditSequence::new(&kernel.source, args.seed);
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut samples = Samples::default();
    let mut resolve_ms = Vec::new();
    let mut traced_answers = Vec::new();
    let mut window = Window::new(seconds);
    while window.open() {
        let i = samples.attempted as usize;
        let (_, source) = window.exclude(|| edits.next_edit());
        samples.attempted += 1;
        let (answer, ms) = tracer.op(|t| {
            replay.serve_edit(t, &base, &source, &mut hop)?;
            let (ctx, program, answer) = replay.serve_analyze(t, &source, &mut hop)?;
            base = ctx;
            Ok::<_, String>((answer, program))
        });
        window.exclude(|| match answer {
            Ok((answer, program)) => {
                resolve_ms.push(replay.resolve_ms(&program));
                samples.ms.push(ms);
                if i % CHECK_EVERY == check_offset {
                    traced_answers.push((i, answer));
                }
            }
            Err(e) => {
                println!("traced edit {i} failed: {e}");
                samples.failed += 1;
            }
        });
    }
    drop(hop);
    stop_daemon(hop_daemon);
    samples.failed += wrong_edit_answers(&kernel.source, args.seed, &traced_answers);
    out.attempted += samples.attempted;
    out.failed += samples.failed;
    Traced::new(vec![tracer], samples, resolve_ms).report(
        out,
        &untraced,
        ctx_resident,
        "edit_session",
    );
}

// ---- warm_serve ------------------------------------------------------

fn warm_serve(args: &Args, out: &mut Outcome) {
    // The batch references come first, before any daemon holds memory, so
    // that computing them cannot set the process's peak RSS.
    let references: Vec<String> = serve_configs(args.seed)
        .iter()
        .map(|c| batch_answer(&build_kernel(c).source).expect("kernel analyzes"))
        .collect();
    release_free_memory();
    let ((kernels, handle), setup_s) = timed_setups(
        |i| {
            let kernels: Vec<Kernel> = serve_configs(args.seed).iter().map(build_kernel).collect();
            let handle = spawn_daemon(&format!("warm_serve-{i}"));
            let mut client = Client::connect(handle.socket()).expect("client connects");
            for k in &kernels {
                client.analyze(&k.source).expect("daemon primes");
            }
            (kernels, handle)
        },
        |(_, handle)| stop_daemon(handle),
    );
    let sizes: Vec<usize> = kernels.iter().map(|k| k.functions).collect();
    let clients = client_count();
    println!("warm_serve kernels (functions): {sizes:?}; {clients} clients");
    let seconds = args.phase_seconds();

    let start = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    let socket = handle.socket().clone();
    let mut untraced = Samples::default();
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                let (kernels, references, socket) = (&kernels, &references, &socket);
                scope.spawn(move || {
                    let mut client = Client::connect(socket).expect("client connects");
                    let mut rng = Rng::new(args.seed, 100 + c as u64);
                    let mut s = Samples::default();
                    while start.elapsed() < limit {
                        let k = rng.below(kernels.len());
                        s.attempted += 1;
                        let op = Instant::now();
                        let answer = client.analyze(&kernels[k].source);
                        let ms = ms_since(op);
                        match answer {
                            Ok(a) if a.diagnostics_json == references[k] => s.ms.push(ms),
                            Ok(_) => s.failed += 1,
                            Err(e) => {
                                println!("analyze failed: {e}");
                                s.failed += 1;
                            }
                        }
                    }
                    s
                })
            })
            .collect();
        for t in threads {
            untraced.merge(t.join().expect("client thread finishes"));
        }
    });
    untraced.seconds = start.elapsed().as_secs_f64();
    let peak = peak_rss_mb();
    let ctx_resident = resident_contexts(&socket);
    stop_daemon(handle);
    out.attempted += untraced.attempted;
    out.failed += untraced.failed;
    if !args.trace {
        untraced.report(out, setup_s, peak);
        return;
    }

    // Traced: the same request mix replayed in-process by as many client
    // threads over one primed engine.
    let hop_daemon = spawn_daemon("warm_serve-hop");
    let replay = Replay::new(fleet_engine(0, None));
    for k in &kernels {
        let program = parse_program(&k.source).expect("kernel parses");
        replay.engine().analyze(&program);
    }
    let epoch = Instant::now();
    let start = Instant::now();
    let mut tracers = Vec::new();
    let mut samples = Samples::default();
    let mut resolve_ms = Vec::new();
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                let (kernels, references, replay) = (&kernels, &references, &replay);
                let socket = hop_daemon.socket();
                scope.spawn(move || {
                    let mut hop = Client::connect(socket).expect("client connects");
                    let mut rng = Rng::new(args.seed, 200 + c as u64);
                    let mut tracer = Tracer::new(epoch, c as u64 * 1_000_000_000);
                    let mut s = Samples::default();
                    let mut resolve = Vec::new();
                    while start.elapsed() < limit {
                        let k = rng.below(kernels.len());
                        s.attempted += 1;
                        let (answer, ms) =
                            tracer.op(|t| replay.serve_analyze(t, &kernels[k].source, &mut hop));
                        match answer {
                            Ok((_, program, answer)) if answer == references[k] => {
                                resolve.push(replay.resolve_ms(&program));
                                s.ms.push(ms);
                            }
                            Ok(_) => s.failed += 1,
                            Err(e) => {
                                println!("traced analyze failed: {e}");
                                s.failed += 1;
                            }
                        }
                    }
                    (tracer, s, resolve)
                })
            })
            .collect();
        for t in threads {
            let (tracer, s, resolve) = t.join().expect("client thread finishes");
            tracers.push(tracer);
            samples.merge(s);
            resolve_ms.extend(resolve);
        }
    });
    stop_daemon(hop_daemon);
    out.attempted += samples.attempted;
    out.failed += samples.failed;
    Traced::new(tracers, samples, resolve_ms).report(out, &untraced, ctx_resident, "warm_serve");
}

/// Returns freed heap memory to the operating system, so that the next
/// operation starts from the same resident baseline as a fresh process.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` only releases memory the allocator holds free;
    // it takes no pointers and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cold_batch|edit_session|warm_serve> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let run: fn(&Args, &mut Outcome) = match args.workload.as_str() {
        "cold_batch" => cold_batch,
        "edit_session" => edit_session,
        "warm_serve" => warm_serve,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(RUN_DIR).expect("run directory is writable");
    println!(
        "perfbench {} seed {} for {} s (trace {}), {} hardware threads",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        client_count()
    );
    let mut out = Outcome::default();
    run(&args, &mut out);
    println!("{}", out.json_line());
}
