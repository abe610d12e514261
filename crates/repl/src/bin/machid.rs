//! `machid` — the Machiavelli session server over TCP.
//!
//! ```text
//! machid [ADDR]          # default 127.0.0.1:7878
//! ```
//!
//! One thread per connection, speaking the line protocol from
//! `machiavelli_server::wire` through `serve_tcp`: accepted sockets are
//! blocking and `TCP_NODELAY`, and every reply is one write, so no reply
//! waits on Nagle's algorithm. Tuning via environment:
//!
//! * `MACHID_WORKERS`      — worker threads (default 4)
//! * `MACHID_QUEUE_CAP`    — per-worker queue bound (default 64)
//! * `MACHID_DEADLINE_MS`  — default per-query deadline (default none)
//! * `MACHID_DURABLE_ROOT` — directory for durable sessions (default
//!   none = in-memory). With it set, every session write-ahead-logs its
//!   commits and a restarted `machid` serves the same bindings.
//! * `MACHID_ROLE`         — `primary` (default) or `follower`. A
//!   follower serves read-only queries and pulls the primary's WAL.
//! * `MACHID_PRIMARY_ADDR` — the primary's wire address (required for
//!   a follower).
//! * `MACHID_REPL_POLL_MS` — follower catch-up poll interval
//!   (default 50).
//! * `MACHID_MAX_LINE_BYTES` — request line cap (default 1 MiB).
//! * `MACHIAVELLI_QUERY_MAX_ROWS` — per-query row budget
//! * `MACHIAVELLI_FAULT_*` — fault injection (chaos drills)
//!
//! On `SIGTERM`/`SIGINT` the server shuts down gracefully: it stops
//! accepting, lets in-flight requests drain through the worker queues,
//! stops the replicator (which flushes a final round of acks),
//! checkpoints every durable session, and exits 0. Acked commits are
//! already fsynced when the client sees `OK`/`VAL`, so a graceful —
//! or even an abrupt — stop never loses one.

use machiavelli_repl::{Replicator, ReplicatorConfig};
use machiavelli_server::{serve_tcp, Server, ServerConfig, ServerRole};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

static TERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_term_handler() {
    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_term as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

#[cfg(not(unix))]
fn install_term_handler() {}

fn env_usize(var: &str) -> Option<usize> {
    std::env::var(var).ok()?.trim().parse().ok()
}

fn main() -> ExitCode {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let role = match std::env::var("MACHID_ROLE").as_deref() {
        Ok("follower") => ServerRole::Follower,
        Ok("primary") | Err(_) => ServerRole::Primary,
        Ok(other) => {
            eprintln!("machid: MACHID_ROLE must be primary or follower, got {other:?}");
            return ExitCode::FAILURE;
        }
    };
    let config = ServerConfig {
        workers: env_usize("MACHID_WORKERS").unwrap_or(4),
        queue_cap: env_usize("MACHID_QUEUE_CAP").unwrap_or(64),
        default_deadline: env_usize("MACHID_DEADLINE_MS")
            .map(|ms| Duration::from_millis(ms as u64)),
        durable_root: std::env::var("MACHID_DURABLE_ROOT")
            .ok()
            .filter(|s| !s.trim().is_empty())
            .map(std::path::PathBuf::from),
        role,
        ..ServerConfig::default()
    };
    if role == ServerRole::Follower && config.durable_root.is_none() {
        eprintln!("machid: a follower needs MACHID_DURABLE_ROOT for its replicated log");
        return ExitCode::FAILURE;
    }
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("machid: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Non-blocking accepts let the loop notice SIGTERM promptly.
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("machid: cannot set nonblocking accept: {e}");
        return ExitCode::FAILURE;
    }
    install_term_handler();
    let server = Arc::new(Server::start(config));
    let replicator = if role == ServerRole::Follower {
        let primary_addr = match std::env::var("MACHID_PRIMARY_ADDR") {
            Ok(a) if !a.trim().is_empty() => a,
            _ => {
                eprintln!("machid: a follower needs MACHID_PRIMARY_ADDR");
                return ExitCode::FAILURE;
            }
        };
        let mut rc = ReplicatorConfig::new(primary_addr);
        if let Some(ms) = env_usize("MACHID_REPL_POLL_MS") {
            rc.poll = Duration::from_millis(ms as u64);
        }
        Some(Replicator::start(Arc::clone(&server), rc))
    } else {
        None
    };
    eprintln!(
        "machid: {} listening on {addr} ({} workers)",
        server.role(),
        server.live_workers()
    );
    while !TERM.load(Ordering::SeqCst) {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
            Err(e) => {
                eprintln!("machid: accept failed: {e}");
                continue;
            }
        };
        let server = Arc::clone(&server);
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".to_string());
        let spawned = std::thread::Builder::new()
            .name(format!("machid-conn-{peer}"))
            .spawn(move || {
                if let Err(e) = serve_tcp(&server, stream) {
                    eprintln!("machid: connection {peer} ended with error: {e}");
                }
            });
        if let Err(e) = spawned {
            eprintln!("machid: cannot spawn connection thread: {e}");
        }
    }
    // Graceful shutdown. Accepts have stopped; anything already
    // admitted drains through the worker FIFOs because the final
    // checkpoint rides the same queues behind it.
    eprintln!("machid: shutting down (draining, then checkpointing)");
    if let Some(r) = replicator {
        r.stop();
    }
    match server.checkpoint_all() {
        Ok(n) => eprintln!("machid: checkpointed {n} durable session(s); bye"),
        Err(e) => {
            eprintln!("machid: final checkpoint failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
