//! `ivy-daemon` — serve the resident analysis engine on a Unix socket.
//!
//! ```text
//! ivy-daemon <socket-path> [--cache-dir DIR] [--provenance]
//! ```
//!
//! Blocks until a client sends `shutdown`. Defaults: no persist directory
//! (memory-only), provenance off (`--provenance` records points-to
//! derivations so the `explain` verb can answer). Each connection is
//! served on its own thread; an analysis runs on its connection's thread.

use ivy_daemon::{Daemon, DaemonConfig};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: ivy-daemon <socket-path> [--cache-dir DIR] [--provenance]");
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
        // `--provenance` takes no value, so match it before the flag that
        // consumes the next argument.
        if flag == "--provenance" {
            config = config.with_provenance(true);
            continue;
        }
        match (flag.as_str(), rest.next()) {
            ("--cache-dir", Some(dir)) => config = config.with_cache_dir(dir),
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
