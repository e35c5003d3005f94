//! `ivy-daemon` — analysis that lives with the kernel tree.
//!
//! Every consumer of the batch [`Engine`](ivy_engine::Engine) pays process
//! startup, cache reload, and a cold points-to solve per invocation. This
//! crate keeps one engine *resident*: a server owns the context store
//! (each context's query memo), points-to constraint cache, and persist
//! shards, and serves many clients over a Unix-domain socket speaking a
//! length-prefixed JSON protocol ([`protocol`]). Three properties make it
//! more than a cache in a process:
//!
//! * **Pinned answers.** A daemon `analyze` runs the same default checker
//!   fleet as a batch run and returns the same stable serialization, so
//!   its `diagnostics_json` is byte-identical to
//!   `Report::diagnostics_json()` of `Engine::analyze` over the same
//!   program — resident state may make answers *fast*, never *different*
//!   (the differential-testing discipline, applied to the serving layer).
//!   Every diagnostic is built on each analyze from the current program,
//!   so line-shifting edits move its span too. Deputy's per-function
//!   reports are keyed by the function's content and layout (spans
//!   relative to its start line), so an edit that only moves a function
//!   carries its report; the report stores its lines relative to the
//!   function's start and is re-based on the current function on every
//!   analyze, so a carried report reports the lines a fresh run does.
//! * **Content-keyed invalidation.** `notify_edit` ships an edit as a
//!   splice against the previous edit's text, re-parses only the edited
//!   function when the edit stays inside one, and carries every memoized
//!   result whose content key (a hash of what it was computed from: its
//!   function's content, the type environment, or the whole program) is
//!   unchanged for the edited program. Whole-program results recompute;
//!   an unedited function's per-function results are re-served from
//!   memory.
//! * **Fleet-safe persistence.** The persist layer writes per-writer shard
//!   files (`<cache>/<namespace>/<writer>.json`), so concurrent daemon
//!   workers and batch runs racing a daemon merge losslessly instead of
//!   clobbering each other's flushes.
//! * **Content-addressed answers.** [`Client::analyze`] names the program
//!   by a digest of its source and ships the source only when the daemon
//!   asks. A repeated request for an answer whose run computed nothing is
//!   answered from memoized response bytes, and the diagnostics travel
//!   as a raw frame instead of an escaped JSON string.
//!
//! # Quick session
//!
//! ```no_run
//! use ivy_daemon::{Client, Daemon, DaemonConfig};
//!
//! let handle = Daemon::spawn(
//!     DaemonConfig::new("/tmp/ivy.sock").with_cache_dir("target/ivy-cache"),
//! )
//! .unwrap();
//! let mut client = Client::connect(handle.socket()).unwrap();
//! let cold = client.analyze("fn f() { }").unwrap();
//! let warm = client.analyze("fn f() { }").unwrap(); // served resident
//! assert_eq!(cold.diagnostics_json, warm.diagnostics_json);
//! client.shutdown().unwrap();
//! handle.join();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{AnalyzeOutcome, Client, EditOutcome, ExplainOutcome};
pub use server::{
    fleet_checkers, fleet_engine, fleet_engine_with, Daemon, DaemonConfig, DaemonHandle,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn socket_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ivy-daemon-{tag}-{}.sock", std::process::id()))
    }

    #[test]
    fn daemon_round_trips_a_small_program() {
        let handle = Daemon::spawn(DaemonConfig::new(socket_path("unit"))).unwrap();
        let mut client = Client::connect(handle.socket()).unwrap();
        let cold = client.analyze("fn f() { g(); } fn g() { }").unwrap();
        let warm = client.analyze("fn f() { g(); } fn g() { }").unwrap();
        assert_eq!(cold.diagnostics_json, warm.diagnostics_json);
        assert_eq!(cold.program_hash, warm.program_hash);
        assert!(warm.stats.ctx_reused, "repeat analyze reuses the context");

        let stats = client.stats().unwrap();
        assert_eq!(
            stats.get("analyzes").and_then(serde_json::Value::as_u64),
            Some(2)
        );
        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn second_daemon_on_the_same_socket_fails_fast_without_unbinding_the_first() {
        let socket = socket_path("exclusive");
        let handle = Daemon::spawn(DaemonConfig::new(socket.clone())).unwrap();
        // The loser of the socket race must error out at the sidecar lock —
        // and must NOT unlink the path the winner is serving on (the
        // probe-then-remove TOCTOU this lock exists to close).
        let err = match Daemon::spawn(DaemonConfig::new(socket.clone())) {
            Err(err) => err,
            Ok(_) => panic!("a second daemon on a held socket must not start"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        let mut client = Client::connect(&socket).unwrap();
        assert!(client.analyze("fn f() { }").is_ok());
        client.shutdown().unwrap();
        handle.join();

        // With the first daemon gone the path is reclaimable.
        let handle = Daemon::spawn(DaemonConfig::new(socket)).unwrap();
        let mut client = Client::connect(handle.socket()).unwrap();
        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn malformed_requests_get_error_responses_not_hangs() {
        let handle = Daemon::spawn(DaemonConfig::new(socket_path("errors"))).unwrap();
        let mut client = Client::connect(handle.socket()).unwrap();
        // Unknown command.
        let err = client
            .request(&serde_json::Value::from("not an object"))
            .unwrap_err();
        assert!(err.to_string().contains("cmd"));
        // Unparsable program.
        let mut c2 = Client::connect(handle.socket()).unwrap();
        assert!(c2.analyze("fn ) {").is_err());
        // Edit before any analyze.
        assert!(c2.notify_edit("fn f() { }").is_err());
        // The daemon survived all of it.
        assert!(c2.analyze("fn f() { }").is_ok());
        c2.shutdown().unwrap();
        handle.join();
    }
}
