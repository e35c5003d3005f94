//! `ivy-client` — one-shot driver for a running `ivy-daemon`.
//!
//! ```text
//! ivy-client <socket-path> analyze <file.kc>
//! ivy-client <socket-path> notify-edit <file.kc>
//! ivy-client <socket-path> explain <fn> <lvalue> [target]
//! ivy-client <socket-path> stats
//! ivy-client <socket-path> metrics
//! ivy-client <socket-path> shutdown
//! ```
//!
//! `analyze` prints the stable diagnostics JSON to stdout (what a batch
//! run would have produced, byte-identically); `explain` prints the
//! derivation chain behind a resident points-to fact or indirect-call
//! resolution (needs a prior `analyze`; the daemon runs one traced solve
//! per request); `stats` prints the server counters; `metrics` prints
//! the Prometheus-style text exposition.
//!
//! `--trace-out <path>` (anywhere on the command line) records spans for
//! the client side of the session — connect and each request round-trip —
//! and writes them as Chrome trace-event JSON on exit, ready for
//! about://tracing or Perfetto. `IVY_TRACE=1` enables recording without
//! choosing a file (use `ivy_telemetry::write_chrome_trace` downstream).

use ivy_daemon::Client;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ivy-client [--trace-out <trace.json>] <socket> <analyze|notify-edit> <file.kc>\n       \
         ivy-client [--trace-out <trace.json>] <socket> explain <fn> <lvalue> [target]\n       \
         ivy-client [--trace-out <trace.json>] <socket> <stats|metrics|shutdown>"
    );
    ExitCode::FAILURE
}

fn run(args: &[String]) -> Result<(), String> {
    let (Some(socket), Some(cmd)) = (args.first(), args.get(1)) else {
        return Err("missing arguments".into());
    };
    let _cmd_span = ivy_telemetry::span("client/command", cmd.clone());
    let mut client =
        ivy_telemetry::time("client/connect", socket.clone(), || Client::connect(socket))
            .map_err(|e| format!("connect {socket}: {e}"))?;
    let source_arg = || -> Result<String, String> {
        let path = args.get(2).ok_or("missing <file.kc> argument")?;
        std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
    };
    match cmd.as_str() {
        "analyze" => {
            let source = source_arg()?;
            let outcome =
                ivy_telemetry::time("client/request", "analyze", || client.analyze(&source))
                    .map_err(|e| e.to_string())?;
            eprintln!(
                "program {} — {} diagnostics, cache {}/{} hits/misses, persist {} hits",
                outcome.program_hash,
                outcome.diagnostic_count,
                outcome.stats.cache_hits,
                outcome.stats.cache_misses,
                outcome.stats.persist_hits,
            );
            println!("{}", outcome.diagnostics_json);
        }
        "notify-edit" => {
            let source = source_arg()?;
            let outcome = ivy_telemetry::time("client/request", "notify_edit", || {
                client.notify_edit(&source)
            })
            .map_err(|e| e.to_string())?;
            let inv = &outcome.invalidation;
            println!(
                "edited [{}] -> {} invalidated, {} retained, {} revalidated (env_changed={}, reparse={})",
                inv.changed_functions.join(", "),
                inv.invalidated,
                inv.retained,
                inv.revalidated,
                inv.env_changed,
                outcome.reparse,
            );
        }
        "explain" => {
            let (Some(func), Some(lvalue)) = (args.get(2), args.get(3)) else {
                return Err("explain needs <fn> and <lvalue> arguments".into());
            };
            let target = args.get(4).map(String::as_str);
            let outcome = ivy_telemetry::time("client/request", "explain", || {
                client.explain(func, lvalue, target)
            })
            .map_err(|e| e.to_string())?;
            eprintln!(
                "{} — {} link(s), replay_verified={}, {} recorded fact(s)",
                outcome.fact, outcome.chain_len, outcome.replay_verified, outcome.provenance_facts,
            );
            for line in &outcome.rendered {
                println!("{line}");
            }
        }
        "stats" => {
            let stats = ivy_telemetry::time("client/request", "stats", || client.stats())
                .map_err(|e| e.to_string())?;
            println!(
                "{}",
                ivy_engine::json::to_string_pretty(&stats).map_err(|e| format!("{e:?}"))?
            );
        }
        "metrics" => {
            let text = ivy_telemetry::time("client/request", "metrics", || client.metrics())
                .map_err(|e| e.to_string())?;
            print!("{text}");
        }
        "shutdown" => {
            ivy_telemetry::time("client/request", "shutdown", || client.shutdown())
                .map_err(|e| e.to_string())?;
        }
        _ => return Err(format!("unknown command {cmd:?}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    // Peel `--trace-out <path>` off wherever it appears; the remaining
    // positional arguments keep their documented order.
    let mut trace_out: Option<String> = None;
    let mut args: Vec<String> = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        if arg == "--trace-out" {
            let Some(path) = raw.next() else {
                eprintln!("ivy-client: --trace-out needs a path");
                return usage();
            };
            trace_out = Some(path);
        } else {
            args.push(arg);
        }
    }
    if trace_out.is_some() {
        ivy_telemetry::enable_spans();
    }
    let outcome = run(&args);
    if let Some(path) = &trace_out {
        if let Err(e) = ivy_telemetry::write_chrome_trace(std::path::Path::new(path)) {
            eprintln!("ivy-client: trace export to {path} failed: {e}");
        }
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ivy-client: {message}");
            usage()
        }
    }
}
