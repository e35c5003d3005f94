//! Cold→edit→warm→explain session against the resident analysis daemon.
//!
//! Spawns an in-process daemon over the generated kernel corpus, then
//! drives one editing session through a client: a cold `analyze`, a
//! `notify_edit` of one leaf function, a warm re-`analyze` that is
//! served almost entirely from resident state (content-keyed
//! invalidation keeps every result whose content key the edit left
//! unchanged),
//! and finally two `explain` round-trips — one for a raw points-to fact
//! of the kernel's VFS dispatch table, one for the fact a Deputy
//! diagnostic cites as evidence. Each `explain` runs its own traced
//! points-to solve of the resident program, so the daemon needs no
//! switch for it. The daemon runs with Deputy's indirect-annotation
//! drift check enabled; the corpus gains a small interface-drift snippet
//! so that check has something to find.
//!
//! Environment:
//! * `IVY_CACHE_DIR` — persist directory (default `target/ivy-cache`).
//! * `IVY_DAEMON_STRICT=1` — exit non-zero if any *clean* function was
//!   invalidated, if the warm re-serve rate drops below 90%, if either
//!   `explain` returns an empty or non-replay-verified chain, or if the
//!   daemon is unreachable (used by CI to pin the daemon's contract).
//! * `IVY_TRACE_OUT=<path>` — record spans for the whole session and
//!   export them as Chrome trace-event JSON at exit. In strict mode the
//!   exported trace must contain engine, points-to solver, and daemon
//!   request spans, or the session exits non-zero (the CI tracing gate).
//!
//! Run with: `cargo run --release --example daemon_session`.

use ivy::cmir::pretty::pretty_program;
use ivy::daemon::{Client, Daemon, DaemonConfig};
use ivy::engine::json::Value;
use ivy::kernelgen::{KernelBuild, KernelConfig};
use std::process::ExitCode;
use std::time::Instant;

/// A driver with interface drift: two callbacks with incompatible
/// parameter signatures installed into one dispatch pointer. Appended to
/// the kernel corpus so Deputy's indirect-annotation check produces a
/// diagnostic whose cited points-to fact the session can `explain`.
const DRIFT_SNIPPET: &str = "\
global evdev_handler: fnptr(u8 *) -> void;\n\
fn evdev_handle_bytes(p: u8 *) { }\n\
fn evdev_handle_word(w: u32) { }\n\
fn evdev_install() { evdev_handler = evdev_handle_bytes; evdev_handler = evdev_handle_word; }\n\
fn evdev_fire(buf: u8[16]) { evdev_handler(&buf[0]); }\n";

fn fail(strict: bool, message: &str) -> ExitCode {
    eprintln!("error: {message}");
    if strict {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Exports the session's spans to `trace_out` and, in strict mode, checks
/// that the trace actually covers the serving path: at least one engine
/// span, one points-to solver span, and one daemon request span. A trace
/// with a silent hole in it is exactly the regression this gate exists for.
fn export_trace(strict: bool, trace_out: &str) -> Result<(), String> {
    let spans = ivy::telemetry::spans_snapshot();
    let covered = |prefix: &str| spans.iter().any(|s| s.cat.starts_with(prefix));
    if let Err(e) = ivy::telemetry::write_chrome_trace(std::path::Path::new(trace_out)) {
        return Err(format!("trace export to {trace_out} failed: {e}"));
    }
    println!("trace: {} spans -> {trace_out}", spans.len());
    if strict {
        for prefix in ["engine/", "pointsto/", "daemon/"] {
            if !covered(prefix) {
                return Err(format!(
                    "exported trace has no {prefix}* spans ({} spans total)",
                    spans.len()
                ));
            }
        }
    }
    Ok(())
}

/// Finds the first `deputy/indirect-annot` diagnostic in the stable
/// diagnostics JSON and returns the `(fn, lvalue, target)` triple its
/// `indirect-targets` evidence cites — the exact request `explain` needs
/// to expand the citation into a derivation chain.
fn deputy_citation(diagnostics_json: &str) -> Option<(String, String, String)> {
    let diags: Value = ivy::engine::json::from_str(diagnostics_json).ok()?;
    let diags = diags.as_array()?;
    for d in diags {
        if d.get("code").and_then(Value::as_str) != Some("deputy/indirect-annot") {
            continue;
        }
        for e in d
            .get("evidence")
            .and_then(Value::as_array)
            .into_iter()
            .flatten()
        {
            if e.get("kind").and_then(Value::as_str) != Some("indirect-targets") {
                continue;
            }
            let subject = e.get("subject").and_then(Value::as_str)?;
            let (func, lvalue) = subject.split_once("::")?;
            let detail = e.get("detail").and_then(Value::as_str)?;
            let target = detail.split(", ").next()?;
            return Some((func.to_string(), lvalue.to_string(), target.to_string()));
        }
    }
    None
}

fn main() -> ExitCode {
    let strict = std::env::var("IVY_DAEMON_STRICT").as_deref() == Ok("1");
    let trace_out = std::env::var("IVY_TRACE_OUT").ok();
    if trace_out.is_some() {
        ivy::telemetry::enable_spans();
    }
    let cache = std::env::var("IVY_CACHE_DIR").unwrap_or_else(|_| "target/ivy-cache".to_string());
    let socket = std::env::temp_dir().join(format!("ivy-session-{}.sock", std::process::id()));

    // Deputy's drift check on: it is the fleet checker whose diagnostic
    // the session explains.
    let deputy = ivy::deputy::DeputyConfig {
        check_indirect_annotations: true,
    };
    let handle = match Daemon::spawn(
        DaemonConfig::new(&socket)
            .with_cache_dir(&cache)
            .with_deputy(deputy),
    ) {
        Ok(handle) => handle,
        Err(e) => return fail(strict, &format!("daemon failed to start: {e}")),
    };
    let mut client = match Client::connect(handle.socket()) {
        Ok(client) => client,
        Err(e) => return fail(strict, &format!("daemon socket is dead: {e}")),
    };
    println!("daemon on {} (cache {cache})", handle.socket().display());

    let mut source = pretty_program(&KernelBuild::generate(&KernelConfig::small()).program);
    source.push_str(DRIFT_SNIPPET);
    let edited = source.replacen("watchdog_ticks + 1", "watchdog_ticks + 2", 1);

    // 1. Cold request: the daemon pays the full solve (or reloads shards a
    //    previous session left behind).
    let start = Instant::now();
    let cold = match client.analyze(&source) {
        Ok(cold) => cold,
        Err(e) => return fail(strict, &format!("analyze failed: {e}")),
    };
    println!(
        "cold:  {:>8.4}s  {} diagnostics, {} functions, persist_hit_rate={:.3}",
        start.elapsed().as_secs_f64(),
        cold.diagnostic_count,
        cold.stats.functions,
        cold.stats.persist_hit_rate()
    );

    // 2. Edit one leaf function; only results whose content key the edit
    //    changed may be invalidated.
    let outcome = match client.notify_edit(&edited) {
        Ok(outcome) => outcome,
        Err(e) => return fail(strict, &format!("notify_edit failed: {e}")),
    };
    let inv = &outcome.invalidation;
    println!(
        "edit:  changed=[{}] reparse={} invalidated={} retained={} revalidated={} (retention {:.1}%)",
        inv.changed_functions.join(", "),
        outcome.reparse,
        inv.invalidated,
        inv.retained,
        inv.revalidated,
        inv.retention_rate() * 100.0
    );
    if inv.changed_functions != ["watchdog_tick".to_string()] {
        return fail(
            strict,
            &format!(
                "clean functions are dirty at the input layer: {:?}",
                inv.changed_functions
            ),
        );
    }
    // The input-layer diff being right is not enough: the content keys
    // must keep the clean majority.
    if inv.invalidated * 3 >= inv.invalidated + inv.retained {
        return fail(
            strict,
            &format!(
                "clean queries were invalidated: {} dropped vs {} retained",
                inv.invalidated, inv.retained
            ),
        );
    }

    // 3. Warm request over the edited program: resident state plus the
    //    persist shards serve everything the edit left unchanged.
    let start = Instant::now();
    let warm = match client.analyze(&edited) {
        Ok(warm) => warm,
        Err(e) => return fail(strict, &format!("warm analyze failed: {e}")),
    };
    let lookups = warm.stats.cache_hits + warm.stats.persist_hits + warm.stats.cache_misses;
    let served = warm.stats.cache_hits + warm.stats.persist_hits;
    let reserve_rate = if lookups == 0 {
        0.0
    } else {
        served as f64 / lookups as f64
    };
    println!(
        "warm:  {:>8.4}s  {} diagnostics, re-serve rate {:.1}%, pointsto batches regenerated {}",
        start.elapsed().as_secs_f64(),
        warm.diagnostic_count,
        reserve_rate * 100.0,
        warm.stats.pointsto_batches_generated
    );
    if reserve_rate < 0.9 {
        return fail(
            strict,
            &format!("warm re-serve rate {reserve_rate:.3} below 0.9"),
        );
    }

    // 4a. Explain a raw points-to fact: why does the VFS read dispatch
    //     reach ext2? The chain walks from the address-of seed in the ops
    //     table to the call binding.
    let pts_fact = match client.explain("vfs_read", "ops->read", Some("ext2_read")) {
        Ok(outcome) => outcome,
        Err(e) => return fail(strict, &format!("explain of a pts fact failed: {e}")),
    };
    println!("explain: {}", pts_fact.fact);
    for line in &pts_fact.rendered {
        println!("    {line}");
    }
    if pts_fact.rendered.is_empty() || !pts_fact.replay_verified {
        return fail(
            strict,
            &format!(
                "pts-fact chain must be non-empty and replay-verified: {} link(s), verified={}",
                pts_fact.chain_len, pts_fact.replay_verified
            ),
        );
    }

    // 4b. Explain a Deputy diagnostic: find the drift finding in the
    //     report and expand the points-to fact it cites as evidence.
    let cited = deputy_citation(&warm.diagnostics_json);
    let Some((diag_fn, lvalue, target)) = cited else {
        return fail(strict, "no deputy/indirect-annot diagnostic with evidence");
    };
    let deputy_fact = match client.explain(&diag_fn, &lvalue, Some(&target)) {
        Ok(outcome) => outcome,
        Err(e) => {
            return fail(
                strict,
                &format!("explain of the Deputy evidence failed: {e}"),
            )
        }
    };
    println!(
        "explain: {} (cited by deputy/indirect-annot)",
        deputy_fact.fact
    );
    for line in &deputy_fact.rendered {
        println!("    {line}");
    }
    if deputy_fact.rendered.is_empty() || !deputy_fact.replay_verified {
        return fail(
            strict,
            &format!(
                "Deputy-evidence chain must be non-empty and replay-verified: {} link(s), verified={}",
                deputy_fact.chain_len, deputy_fact.replay_verified
            ),
        );
    }

    let _ = client.shutdown();
    handle.join();
    if let Some(path) = &trace_out {
        if let Err(message) = export_trace(strict, path) {
            return fail(strict, &message);
        }
    }
    ExitCode::SUCCESS
}
