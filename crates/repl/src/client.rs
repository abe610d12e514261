//! The follower's replication client.
//!
//! [`catch_up`] is one round: per session, pull `SHIP` chunks from the
//! follower's own cursor, apply them to the local [`Server`], and `ACK`
//! the advanced position; a follower that cannot absorb a chunk
//! (divergence) heals itself by forcing a snapshot transfer. A
//! [`Replicator`] is the background thread a follower server runs:
//! rounds against the primary's wire port, with connection failures
//! retried under exponential backoff plus seeded jitter. The thread
//! stops when asked — flushing a final round of acks — or when the
//! local server stops being a follower (promotion).

use crate::proto::{parse_ship, parse_sids, LineClient, Upstream};
use machiavelli_server::{Server, ServerError, ServerRole, EVAL_STACK_BYTES};
use machiavelli_wal::Ship;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for a [`Replicator`].
#[derive(Debug, Clone)]
pub struct ReplicatorConfig {
    /// The primary's wire address (`host:port`).
    pub primary_addr: String,
    /// Pause between catch-up rounds when healthy.
    pub poll: Duration,
    /// Exponential backoff cap for reconnects (starts at 10ms).
    pub backoff_cap: Duration,
    /// Per-request I/O timeout.
    pub io_timeout: Duration,
    /// Seed for reconnect jitter (decorrelates a fleet of followers).
    pub seed: u64,
}

impl ReplicatorConfig {
    pub fn new(primary_addr: impl Into<String>) -> ReplicatorConfig {
        ReplicatorConfig {
            primary_addr: primary_addr.into(),
            poll: Duration::from_millis(20),
            backoff_cap: Duration::from_secs(1),
            io_timeout: Duration::from_secs(5),
            seed: 1989,
        }
    }
}

/// Counters and the last error of a running [`Replicator`].
#[derive(Debug, Clone, Default)]
pub struct ReplicatorStatus {
    /// Completed catch-up rounds (every hosted session synced once).
    pub rounds: u64,
    /// Reconnect attempts after a connection failure.
    pub reconnects: u64,
    /// Incremental chunks applied.
    pub chunks_applied: u64,
    /// Full snapshot transfers installed.
    pub installs: u64,
    /// Most recent error (connection or apply), if any.
    pub last_error: Option<String>,
}

/// Handle to the background replication thread.
pub struct Replicator {
    stop: Arc<AtomicBool>,
    status: Arc<Mutex<ReplicatorStatus>>,
    handle: Option<JoinHandle<()>>,
}

impl Replicator {
    /// Start replicating `local` (which should be a
    /// [`ServerRole::Follower`]) from the primary in `config`.
    pub fn start(local: Arc<Server>, config: ReplicatorConfig) -> Replicator {
        let stop = Arc::new(AtomicBool::new(false));
        let status = Arc::new(Mutex::new(ReplicatorStatus::default()));
        let handle = {
            let stop = Arc::clone(&stop);
            let status = Arc::clone(&status);
            std::thread::Builder::new()
                .name("machid-replicator".to_string())
                // Replica apply decodes shipped values on this thread.
                .stack_size(EVAL_STACK_BYTES)
                .spawn(move || run_loop(&local, &config, &stop, &status))
                .ok()
        };
        Replicator {
            stop,
            status,
            handle,
        }
    }

    /// A snapshot of the replication counters.
    pub fn status(&self) -> ReplicatorStatus {
        self.status
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Stop the thread (it flushes a final round of acks first) and
    /// return the final status.
    pub fn stop(mut self) -> ReplicatorStatus {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        self.status()
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn note_error(status: &Mutex<ReplicatorStatus>, e: impl std::fmt::Display) {
    status.lock().unwrap_or_else(|p| p.into_inner()).last_error = Some(e.to_string());
}

/// Sleep in short slices so a stop request is honored promptly.
fn interruptible_sleep(total: Duration, stop: &AtomicBool) {
    let mut left = total;
    let slice = Duration::from_millis(5);
    while !left.is_zero() && !stop.load(Ordering::SeqCst) {
        let step = left.min(slice);
        std::thread::sleep(step);
        left = left.saturating_sub(step);
    }
}

fn run_loop(
    local: &Arc<Server>,
    config: &ReplicatorConfig,
    stop: &AtomicBool,
    status: &Mutex<ReplicatorStatus>,
) {
    let base = Duration::from_millis(10);
    let mut backoff = base;
    // xorshift64* jitter stream, seeded so fleets decorrelate.
    let mut jitter_state = config.seed | 1;
    let mut jitter = move || {
        jitter_state ^= jitter_state << 13;
        jitter_state ^= jitter_state >> 7;
        jitter_state ^= jitter_state << 17;
        jitter_state
    };
    'outer: while !stop.load(Ordering::SeqCst) && local.role() == ServerRole::Follower {
        let mut client = match LineClient::connect(&config.primary_addr, config.io_timeout) {
            Ok(c) => c,
            Err(e) => {
                note_error(status, format!("connect {}: {e}", config.primary_addr));
                {
                    let mut s = status.lock().unwrap_or_else(|p| p.into_inner());
                    s.reconnects += 1;
                }
                // Full jitter: sleep U(0, backoff], then double.
                let nanos = backoff.as_nanos().max(1) as u64;
                interruptible_sleep(Duration::from_nanos(jitter() % nanos + 1), stop);
                backoff = (backoff * 2).min(config.backoff_cap);
                continue;
            }
        };
        backoff = base;
        while !stop.load(Ordering::SeqCst) && local.role() == ServerRole::Follower {
            match catch_up(local, &mut client) {
                Ok(round) => {
                    let mut s = status.lock().unwrap_or_else(|p| p.into_inner());
                    s.rounds += 1;
                    s.chunks_applied += round.chunks_applied;
                    s.installs += round.installs;
                    drop(s);
                    interruptible_sleep(config.poll, stop);
                }
                Err(e) => {
                    note_error(status, e);
                    let mut s = status.lock().unwrap_or_else(|p| p.into_inner());
                    s.reconnects += 1;
                    drop(s);
                    continue 'outer;
                }
            }
        }
    }
    // Final ack flush: tell the primary exactly where this follower's
    // durable log stands before going away, so its lag gauge is honest
    // across a graceful shutdown.
    if let Ok(mut client) = LineClient::connect(&config.primary_addr, config.io_timeout) {
        for sid in local.session_ids() {
            let _ = ack(local, &mut client, sid);
        }
    }
}

/// What one [`catch_up`] round did, summed over the sessions it synced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Round {
    /// Incremental chunks applied.
    pub chunks_applied: u64,
    /// Full snapshot transfers installed.
    pub installs: u64,
}

/// One catch-up round of `local` against its primary: mirror the
/// primary's session space (`SIDS`), then per session pull from the
/// local cursor (`SHIP`), apply or install, and `ACK` the advanced
/// position. A chunk the local slot cannot absorb — divergence, a
/// fencing race, a doomed log, a poisoned session — is healed in the
/// same round by forcing a snapshot transfer.
pub fn catch_up(local: &Server, client: &mut impl Upstream) -> Result<Round, String> {
    let mut round = Round::default();
    let sids = parse_sids(&client.request("SIDS").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    for sid in sids {
        local
            .adopt_session(sid)
            .map_err(|e| format!("adopt {sid}: {e}"))?;
        let (cursor, _) = local
            .cursor(sid)
            .map_err(|e| format!("cursor {sid}: {e}"))?;
        let resp = client
            .request(&format!(
                "SHIP {sid} {} {} {}",
                cursor.gen, cursor.offset, cursor.crc
            ))
            .map_err(|e| e.to_string())?;
        match parse_ship(&resp).map_err(|e| e.to_string())? {
            Ship::Groups { bytes, .. } if bytes.is_empty() => {
                ack(local, client, sid)?;
            }
            Ship::Groups { gen, bytes, .. } => {
                match local.replica_apply(sid, gen, bytes) {
                    Ok(_) => round.chunks_applied += 1,
                    // Local divergence, a fencing race, or a slot a
                    // panicking read poisoned: heal with a full
                    // transfer — a cursor no log can match forces the
                    // snapshot path, and the install rebuilds the slot.
                    Err(
                        ServerError::Replication(_)
                        | ServerError::StaleGeneration { .. }
                        | ServerError::SessionPoisoned(_),
                    ) => {
                        install_full(local, client, sid)?;
                        round.installs += 1;
                    }
                    Err(e) => return Err(format!("apply {sid}: {e}")),
                }
                ack(local, client, sid)?;
            }
            Ship::Snapshot(transfer) => {
                local
                    .replica_install(sid, transfer)
                    .map_err(|e| format!("install {sid}: {e}"))?;
                round.installs += 1;
                ack(local, client, sid)?;
            }
        }
    }
    Ok(round)
}

fn install_full(local: &Server, client: &mut impl Upstream, sid: u64) -> Result<(), String> {
    let resp = client
        .request(&format!("SHIP {sid} 0 0 1"))
        .map_err(|e| e.to_string())?;
    match parse_ship(&resp).map_err(|e| e.to_string())? {
        Ship::Snapshot(transfer) => local
            .replica_install(sid, transfer)
            .map(drop)
            .map_err(|e| format!("install {sid}: {e}")),
        other => Err(format!(
            "expected a snapshot for the null cursor, got {other:?}"
        )),
    }
}

fn ack(local: &Server, client: &mut impl Upstream, sid: u64) -> Result<(), String> {
    let (cursor, groups) = local
        .cursor(sid)
        .map_err(|e| format!("cursor {sid}: {e}"))?;
    client
        .request(&format!("ACK {sid} {} {}", cursor.gen, groups))
        .map_err(|e| e.to_string())?;
    Ok(())
}
