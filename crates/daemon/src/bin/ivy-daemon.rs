//! `ivy-daemon` — serve the resident analysis engine on a Unix socket.
//!
//! ```text
//! ivy-daemon <socket-path> [--cache-dir DIR] [--threads N] [--provenance]
//! ```
//!
//! Blocks until a client sends `shutdown`. Defaults: no persist directory
//! (memory-only), one engine worker per hardware thread, provenance off
//! (`--provenance` records points-to derivations so the `explain` verb
//! can answer).

use ivy_daemon::{Daemon, DaemonConfig};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: ivy-daemon <socket-path> [--cache-dir DIR] [--threads N] [--provenance]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(socket) = args.first() else {
        return usage();
    };
    let mut config = DaemonConfig::new(socket);
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        // `--provenance` takes no value, so match it before the flags
        // that consume the next argument.
        if flag == "--provenance" {
            config = config.with_provenance(true);
            continue;
        }
        match (flag.as_str(), rest.next()) {
            ("--cache-dir", Some(dir)) => config = config.with_cache_dir(dir),
            ("--threads", Some(n)) => match n.parse() {
                Ok(threads) => config = config.with_threads(threads),
                Err(_) => return usage(),
            },
            _ => return usage(),
        }
    }
    // Spawn (which binds synchronously) before announcing, so the banner
    // never claims a socket the bind then fails to take.
    match Daemon::spawn(config) {
        Ok(handle) => {
            eprintln!("ivy-daemon: listening on {}", handle.socket().display());
            handle.join();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ivy-daemon: {e}");
            ExitCode::FAILURE
        }
    }
}
