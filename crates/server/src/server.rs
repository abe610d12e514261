//! The session server: a fixed worker pool hosting many interpreter
//! sessions over the process-wide shared index tier.
//!
//! # Architecture
//!
//! [`Session`] is deliberately single-threaded (`Rc`-based environments),
//! so sessions never migrate: each worker thread **owns** the sessions
//! routed to it (`sid % workers`), and clients talk to workers through
//! bounded job queues. The `Send` unit is the job, not the session.
//!
//! Resilience is layered:
//!
//! * **Isolation** — every query runs under `catch_unwind`. A panic
//!   poisons only its own session (subsequent queries on it get
//!   [`ServerError::SessionPoisoned`]); the worker, its other sessions,
//!   and the server keep running.
//! * **Governance** — each query carries a [`QueryGuard`] (deadline,
//!   cancellation flag, row budget) that the evaluator polls
//!   cooperatively; trips surface as structured errors, never aborts.
//! * **Admission** — job queues are bounded; a full queue sheds the
//!   request with [`ServerError::Busy`] instead of queueing unbounded
//!   work.
//! * **Sharing** — workers enable the process-wide shared index tier,
//!   so equal-content hot indexes are built once and adopted by every
//!   session (see `machiavelli_store::shared`).

use crate::error::ServerError;
use machiavelli::plan::physical::panic_message;
use machiavelli::{is_read_only_source, Session, SessionError};
use machiavelli_eval::EvalError;
use machiavelli_store::shared;
use machiavelli_trace::metrics::{self, Counter, Snapshot};
use machiavelli_value::faults::{self, FaultConfig, FaultPoint};
use machiavelli_value::governor::{self, QueryGuard, Trip};
use machiavelli_wal::{
    install_replica, LogCursor, ReplicaApplyReport, SessionLog, Ship, SnapshotTransfer, WalError,
};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The replication role a server plays. Dynamic: `PROMOTE` flips a
/// follower to primary at runtime; the config field only sets the
/// starting role.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ServerRole {
    /// Accepts writes; streams committed WAL groups to followers.
    #[default]
    Primary,
    /// Applies shipped groups; serves read-only `EVAL`s, answers
    /// writes with `ERR read-only`.
    Follower,
}

impl fmt::Display for ServerRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerRole::Primary => write!(f, "primary"),
            ServerRole::Follower => write!(f, "follower"),
        }
    }
}

const ROLE_PRIMARY: u8 = 0;
const ROLE_FOLLOWER: u8 = 1;

fn role_to_u8(role: ServerRole) -> u8 {
    match role {
        ServerRole::Primary => ROLE_PRIMARY,
        ServerRole::Follower => ROLE_FOLLOWER,
    }
}

fn role_from_u8(v: u8) -> ServerRole {
    if v == ROLE_FOLLOWER {
        ServerRole::Follower
    } else {
        ServerRole::Primary
    }
}

/// The last ack a primary recorded from its follower, per session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AckState {
    /// Generation the follower acked at.
    pub gen: u64,
    /// Commit groups the follower had applied in that generation.
    pub groups: u64,
}

/// One session slot's health, as reported by `HEALTH`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotHealth {
    pub sid: u64,
    /// Poisoned by an earlier panic (only `CLOSE`/`RESTORE` work).
    pub poisoned: bool,
    /// The slot's log is doomed (awaiting a healing checkpoint).
    pub doomed_log: bool,
    /// Current log generation (`None` for in-memory sessions).
    pub gen: Option<u64>,
    /// Commit groups in the current log (`None` for in-memory).
    pub groups: Option<u64>,
    /// Replication lag in groups behind this server (primary view:
    /// own groups minus the follower's last same-generation ack;
    /// `None` on followers and for in-memory sessions).
    pub lag: Option<u64>,
}

/// The server's health snapshot behind the `HEALTH` verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    pub role: ServerRole,
    pub slots: Vec<SlotHealth>,
}

/// Server tuning knobs. `Clone` so each worker thread can carry its
/// own.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (and session shards). At least one worker always
    /// starts, even under injected spawn failures.
    pub workers: usize,
    /// Bounded per-worker job queue; a full queue sheds with
    /// [`ServerError::Busy`].
    pub queue_cap: usize,
    /// Default per-query deadline (None = no deadline).
    pub default_deadline: Option<Duration>,
    /// Default per-query row budget (None = unlimited). Charged as
    /// sets materialize, so runaway queries trip before exhausting
    /// memory.
    pub row_budget: Option<usize>,
    /// Enable the process-wide shared index tier on worker threads.
    pub shared_store: bool,
    /// Fault-injection configuration installed on every worker thread
    /// (None = inherit the environment's `MACHIAVELLI_FAULT_*` knobs).
    pub faults: Option<FaultConfig>,
    /// Root directory for durable sessions. When set, every session
    /// gets a write-ahead log under `<root>/session-<sid>`, each
    /// successful evaluation commits before its result is reported,
    /// and `OPEN` recovers whatever an earlier process left behind —
    /// a killed server comes back serving the same bindings. `None`
    /// (the default) keeps sessions purely in-memory.
    pub durable_root: Option<std::path::PathBuf>,
    /// The replication role this server starts in. Followers enforce
    /// read-only `EVAL`s and apply shipped WAL groups; `PROMOTE` flips
    /// a follower to primary at runtime.
    pub role: ServerRole,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue_cap: 64,
            default_deadline: None,
            row_budget: governor::query_max_rows(),
            shared_store: true,
            faults: None,
            durable_root: None,
            role: ServerRole::Primary,
        }
    }
}

/// A point-in-time snapshot of server health.
#[derive(Debug, Clone, Copy)]
pub struct ServerStats {
    /// The process-wide counter registry: session/query, shared-tier,
    /// WAL, replication and injected-fault counters (the last all zero
    /// unless fault injection is on).
    pub metrics: Snapshot,
    /// Worker threads actually running.
    pub workers: usize,
    /// Worker threads that failed to start (injected or real).
    pub worker_spawn_failures: usize,
}

impl fmt::Display for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = |c| self.metrics.get(c);
        write!(
            f,
            "workers {}(-{}) sessions {}/{}/{} queries {}ok {}shed {}ddl {}cancel {}rows \
             shared {}pub {}adopt {}miss {}recov",
            self.workers,
            self.worker_spawn_failures,
            m(Counter::SessionsStarted),
            m(Counter::SessionsPanicked),
            m(Counter::SessionsClosed),
            m(Counter::QueriesCompleted),
            m(Counter::QueriesShed),
            m(Counter::QueriesDeadline),
            m(Counter::QueriesCancelled),
            m(Counter::QueriesRowBudget),
            m(Counter::SharedPublishes),
            m(Counter::SharedAdoptions),
            m(Counter::SharedMisses),
            m(Counter::SharedLockRecoveries),
        )
    }
}

enum Job {
    Open {
        sid: u64,
        reply: Sender<Result<u64, ServerError>>,
    },
    Eval {
        sid: u64,
        src: String,
        guard: Arc<QueryGuard>,
        reply: Sender<Result<Vec<String>, ServerError>>,
    },
    Close {
        sid: u64,
        reply: Sender<Result<(), ServerError>>,
    },
    /// Force a checkpoint of the session's durable state (wire `SAVE`).
    Save {
        sid: u64,
        reply: Sender<Result<u64, ServerError>>,
    },
    /// Discard the in-memory session and re-materialize it from its
    /// durable state (wire `RESTORE`) — also the recovery path for a
    /// poisoned durable session.
    Restore {
        sid: u64,
        reply: Sender<Result<usize, ServerError>>,
    },
    /// The slot's replication cursor and group count.
    Cursor {
        sid: u64,
        reply: Sender<Result<(LogCursor, u64), ServerError>>,
    },
    /// Serve one follower catch-up request (primary side).
    Ship {
        sid: u64,
        cursor: LogCursor,
        reply: Sender<Result<Ship, ServerError>>,
    },
    /// Apply a shipped chunk (follower side); replies with the report
    /// and the advanced cursor to ack with.
    ReplApply {
        sid: u64,
        gen: u64,
        bytes: Vec<u8>,
        reply: Sender<Result<(ReplicaApplyReport, LogCursor), ServerError>>,
    },
    /// Install a full snapshot transfer and rebuild the slot from it
    /// (follower healing / deep catch-up).
    ReplInstall {
        sid: u64,
        transfer: Box<SnapshotTransfer>,
        reply: Sender<Result<usize, ServerError>>,
    },
    /// Checkpoint every durable, healthy slot this worker owns (the
    /// promotion fence and the graceful-shutdown flush). Replies with
    /// the number of slots checkpointed. Being a queued job, it also
    /// acts as a drain barrier: every eval admitted before it commits
    /// first.
    CheckpointAll {
        reply: Sender<Result<u64, ServerError>>,
    },
    /// Per-slot health for this worker.
    Health {
        reply: Sender<Vec<SlotHealth>>,
    },
    /// Session ids this worker currently hosts.
    Sids {
        reply: Sender<Vec<u64>>,
    },
    Shutdown,
}

struct WorkerHandle {
    tx: SyncSender<Job>,
    handle: Option<JoinHandle<()>>,
}

/// An in-flight query: a handle to cancel it and to wait for the
/// structured result.
pub struct Pending {
    guard: Arc<QueryGuard>,
    rx: Receiver<Result<Vec<String>, ServerError>>,
}

impl Pending {
    /// Request cooperative cancellation; the evaluator stops at its
    /// next governance tick and the query returns
    /// [`ServerError::Cancelled`].
    pub fn cancel(&self) {
        self.guard.cancel();
    }

    /// The query's guard (deadline / budget state).
    pub fn guard(&self) -> &Arc<QueryGuard> {
        &self.guard
    }

    /// Block until the query finishes (or is stopped).
    pub fn wait(self) -> Result<Vec<String>, ServerError> {
        self.rx.recv().unwrap_or(Err(ServerError::Shutdown))
    }
}

/// The multi-session server. Cheap to share: all methods take `&self`,
/// so wrap in `Arc` to serve many client threads.
pub struct Server {
    workers: Vec<WorkerHandle>,
    spawn_failures: usize,
    next_sid: AtomicU64,
    config: ServerConfig,
    /// Admitted queries not yet finished (queued + evaluating), across
    /// all workers — the `METRICS` queue-depth gauge. Incremented at
    /// admission, decremented by the owning worker when the job's reply
    /// is sent.
    queue_depth: Arc<AtomicI64>,
    /// The replication role, shared with every worker (`ROLE_*`); flips
    /// atomically on `PROMOTE`.
    role: Arc<AtomicU8>,
    /// Primary side: the last ack recorded per session — the data the
    /// lag gauge is computed from.
    acks: Arc<Mutex<HashMap<u64, AckState>>>,
}

impl Server {
    /// Start the worker pool. The first worker always starts —
    /// injected spawn failures degrade the pool, never kill the
    /// server.
    pub fn start(config: ServerConfig) -> Server {
        // Install the fault config on the *calling* thread only while
        // spawning, so the spawn fail point rolls against it.
        let prev = config.faults.map(|fc| faults::set_fault_config(Some(fc)));
        let queue_depth = Arc::new(AtomicI64::new(0));
        let role = Arc::new(AtomicU8::new(role_to_u8(config.role)));
        let mut workers = Vec::with_capacity(config.workers.max(1));
        let mut spawn_failures = 0;
        for i in 0..config.workers.max(1) {
            if i > 0 && faults::fire(FaultPoint::SpawnFail) {
                spawn_failures += 1;
                continue;
            }
            let (tx, rx) = sync_channel(config.queue_cap.max(1));
            let depth = queue_depth.clone();
            let worker_role = role.clone();
            let worker_config = config.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("machid-worker-{i}"))
                .spawn(move || worker_main(rx, worker_config, depth, worker_role));
            match spawned {
                Ok(handle) => workers.push(WorkerHandle {
                    tx,
                    handle: Some(handle),
                }),
                Err(_) => spawn_failures += 1,
            }
        }
        if let Some(prev) = prev {
            faults::set_fault_config(prev);
        }
        Server {
            workers,
            spawn_failures,
            next_sid: AtomicU64::new(1),
            config,
            queue_depth,
            role,
            acks: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Worker threads actually serving sessions.
    pub fn live_workers(&self) -> usize {
        self.workers.len()
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    fn route(&self, sid: u64) -> Result<&WorkerHandle, ServerError> {
        if self.workers.is_empty() {
            return Err(ServerError::Shutdown);
        }
        let i = (sid as usize) % self.workers.len();
        self.workers.get(i).ok_or(ServerError::Shutdown)
    }

    /// Open a fresh session (with the standard prelude) on its home
    /// worker. Prelude evaluation is shielded from fault injection, so
    /// opens are deterministic; faults target queries.
    pub fn open_session(&self) -> Result<u64, ServerError> {
        let sid = self.next_sid.fetch_add(1, Ordering::Relaxed);
        let worker = self.route(sid)?;
        let (reply, rx) = std::sync::mpsc::channel();
        worker
            .tx
            .send(Job::Open { sid, reply })
            .map_err(|_| ServerError::Shutdown)?;
        rx.recv().unwrap_or(Err(ServerError::Shutdown))
    }

    /// Submit a query under the server's default deadline and row
    /// budget. Non-blocking admission: a full worker queue returns
    /// [`ServerError::Busy`] immediately.
    pub fn submit(&self, sid: u64, src: &str) -> Result<Pending, ServerError> {
        self.submit_with(sid, src, Arc::new(self.default_guard()))
    }

    /// Submit a query under an explicit guard (custom deadline,
    /// budget, or a pre-cancelled guard for testing).
    pub fn submit_with(
        &self,
        sid: u64,
        src: &str,
        guard: Arc<QueryGuard>,
    ) -> Result<Pending, ServerError> {
        let worker = self.route(sid)?;
        let (reply, rx) = std::sync::mpsc::channel();
        let job = Job::Eval {
            sid,
            src: src.to_string(),
            guard: guard.clone(),
            reply,
        };
        match worker.tx.try_send(job) {
            Ok(()) => {
                self.queue_depth.fetch_add(1, Ordering::Relaxed);
                Ok(Pending { guard, rx })
            }
            Err(TrySendError::Full(_)) => {
                metrics::add(Counter::QueriesShed, 1);
                Err(ServerError::Busy)
            }
            Err(TrySendError::Disconnected(_)) => Err(ServerError::Shutdown),
        }
    }

    /// Submit and wait: the blocking convenience used by the wire
    /// protocol.
    pub fn eval(&self, sid: u64, src: &str) -> Result<Vec<String>, ServerError> {
        self.submit(sid, src)?.wait()
    }

    /// Force a checkpoint of the session's durable state, compacting
    /// the delta log into the snapshot. Returns the new generation.
    /// Requires [`ServerConfig::durable_root`].
    pub fn save_session(&self, sid: u64) -> Result<u64, ServerError> {
        let worker = self.route(sid)?;
        let (reply, rx) = std::sync::mpsc::channel();
        worker
            .tx
            .send(Job::Save { sid, reply })
            .map_err(|_| ServerError::Shutdown)?;
        rx.recv().unwrap_or(Err(ServerError::Shutdown))
    }

    /// Throw away the in-memory session and recover it from its
    /// durable state (snapshot + log replay). Returns the number of
    /// bindings restored. Works on poisoned sessions — this is how a
    /// client un-poisons a durable session without losing its data.
    pub fn restore_session(&self, sid: u64) -> Result<usize, ServerError> {
        let worker = self.route(sid)?;
        let (reply, rx) = std::sync::mpsc::channel();
        worker
            .tx
            .send(Job::Restore { sid, reply })
            .map_err(|_| ServerError::Shutdown)?;
        rx.recv().unwrap_or(Err(ServerError::Shutdown))
    }

    /// The server's current replication role.
    pub fn role(&self) -> ServerRole {
        role_from_u8(self.role.load(Ordering::Relaxed))
    }

    /// Promote this server to primary, fencing the old one: every
    /// durable session checkpoints, which bumps its generation, so any
    /// groups a re-appearing old primary ships are stamped with a now
    /// stale generation and rejected whole. Idempotent — promoting a
    /// primary is a no-op. Returns the number of slots fenced.
    pub fn promote(&self) -> Result<u64, ServerError> {
        let was = self.role.swap(ROLE_PRIMARY, Ordering::SeqCst);
        if was == ROLE_PRIMARY {
            return Ok(0);
        }
        let fenced = self.checkpoint_all()?;
        metrics::add(Counter::ReplPromotions, 1);
        Ok(fenced)
    }

    /// Checkpoint every durable, healthy session on every worker — the
    /// promotion fence and the graceful-shutdown flush. Because the
    /// checkpoint rides the same FIFO queues as evals, every eval
    /// admitted before this call commits before its slot checkpoints.
    pub fn checkpoint_all(&self) -> Result<u64, ServerError> {
        let mut total = 0u64;
        for w in &self.workers {
            let (reply, rx) = std::sync::mpsc::channel();
            w.tx.send(Job::CheckpointAll { reply })
                .map_err(|_| ServerError::Shutdown)?;
            total += rx.recv().unwrap_or(Err(ServerError::Shutdown))?;
        }
        Ok(total)
    }

    /// Open (or re-open) a session under a *specific* id — how a
    /// follower mirrors the primary's session space. Idempotent: an
    /// already-open sid is left untouched. Future plain opens never
    /// collide with an adopted id.
    pub fn adopt_session(&self, sid: u64) -> Result<u64, ServerError> {
        self.next_sid.fetch_max(sid + 1, Ordering::Relaxed);
        let worker = self.route(sid)?;
        let (reply, rx) = std::sync::mpsc::channel();
        worker
            .tx
            .send(Job::Open { sid, reply })
            .map_err(|_| ServerError::Shutdown)?;
        rx.recv().unwrap_or(Err(ServerError::Shutdown))
    }

    /// Session ids currently hosted, across all workers, ascending.
    pub fn session_ids(&self) -> Vec<u64> {
        let mut sids = Vec::new();
        for w in &self.workers {
            let (reply, rx) = std::sync::mpsc::channel();
            if w.tx.send(Job::Sids { reply }).is_ok() {
                if let Ok(mut s) = rx.recv() {
                    sids.append(&mut s);
                }
            }
        }
        sids.sort_unstable();
        sids
    }

    /// A session's replication cursor and committed-group count.
    pub fn cursor(&self, sid: u64) -> Result<(LogCursor, u64), ServerError> {
        let worker = self.route(sid)?;
        let (reply, rx) = std::sync::mpsc::channel();
        worker
            .tx
            .send(Job::Cursor { sid, reply })
            .map_err(|_| ServerError::Shutdown)?;
        rx.recv().unwrap_or(Err(ServerError::Shutdown))
    }

    /// Serve one follower catch-up request against a session's log
    /// (primary side of the `SHIP` verb).
    pub fn ship(&self, sid: u64, cursor: LogCursor) -> Result<Ship, ServerError> {
        let worker = self.route(sid)?;
        let (reply, rx) = std::sync::mpsc::channel();
        worker
            .tx
            .send(Job::Ship { sid, cursor, reply })
            .map_err(|_| ServerError::Shutdown)?;
        rx.recv().unwrap_or(Err(ServerError::Shutdown))
    }

    /// Apply a shipped chunk to a local follower session, returning the
    /// apply report and the advanced cursor to ack with.
    pub fn replica_apply(
        &self,
        sid: u64,
        gen: u64,
        bytes: Vec<u8>,
    ) -> Result<(ReplicaApplyReport, LogCursor), ServerError> {
        let worker = self.route(sid)?;
        let (reply, rx) = std::sync::mpsc::channel();
        worker
            .tx
            .send(Job::ReplApply {
                sid,
                gen,
                bytes,
                reply,
            })
            .map_err(|_| ServerError::Shutdown)?;
        rx.recv().unwrap_or(Err(ServerError::Shutdown))
    }

    /// Install a full snapshot transfer under a local follower session
    /// and rebuild it from disk. Returns the bindings+records restored.
    pub fn replica_install(
        &self,
        sid: u64,
        transfer: SnapshotTransfer,
    ) -> Result<usize, ServerError> {
        let worker = self.route(sid)?;
        let (reply, rx) = std::sync::mpsc::channel();
        worker
            .tx
            .send(Job::ReplInstall {
                sid,
                transfer: Box::new(transfer),
                reply,
            })
            .map_err(|_| ServerError::Shutdown)?;
        rx.recv().unwrap_or(Err(ServerError::Shutdown))
    }

    /// Record a follower's ack (primary side of the `ACK` verb).
    /// Subject to the injected ack-loss fault: a dropped ack leaves lag
    /// visibly high until the next one lands. An ack for a session id
    /// this server never handed out is ignored — the map is keyed by
    /// what a client sends, so it must not grow on a client's say-so.
    /// Returns whether the ack was recorded.
    pub fn record_ack(&self, sid: u64, gen: u64, groups: u64) -> bool {
        if sid >= self.next_sid.load(Ordering::Relaxed) {
            return false;
        }
        if faults::fire(FaultPoint::AckLoss) {
            metrics::add(Counter::ReplAcksLost, 1);
            return false;
        }
        metrics::add(Counter::ReplAcks, 1);
        let mut acks = self.acks.lock().unwrap_or_else(|p| p.into_inner());
        let entry = acks.entry(sid).or_default();
        // Acks can race out of order; never regress within a
        // generation, always follow a generation bump.
        if gen > entry.gen || (gen == entry.gen && groups > entry.groups) {
            *entry = AckState { gen, groups };
        }
        true
    }

    /// The last ack recorded for a session, if any.
    pub fn acked(&self, sid: u64) -> Option<AckState> {
        self.acks
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&sid)
            .copied()
    }

    /// Per-slot health plus the server's role — the `HEALTH` verb.
    /// Lag is the primary-side view: own groups minus the follower's
    /// last same-generation ack (a cross-generation ack counts as fully
    /// behind, since the follower must re-sync through a snapshot).
    pub fn health(&self) -> HealthReport {
        let role = self.role();
        let mut slots = Vec::new();
        for w in &self.workers {
            let (reply, rx) = std::sync::mpsc::channel();
            if w.tx.send(Job::Health { reply }).is_ok() {
                if let Ok(mut s) = rx.recv() {
                    slots.append(&mut s);
                }
            }
        }
        slots.sort_unstable_by_key(|s| s.sid);
        if role == ServerRole::Primary {
            let acks = self.acks.lock().unwrap_or_else(|p| p.into_inner());
            for slot in &mut slots {
                if let (Some(gen), Some(groups)) = (slot.gen, slot.groups) {
                    slot.lag = Some(match acks.get(&slot.sid) {
                        Some(a) if a.gen == gen => groups.saturating_sub(a.groups),
                        _ => groups,
                    });
                }
            }
        }
        HealthReport { role, slots }
    }

    /// Close a session (also the only operation a poisoned session
    /// accepts). Its recorded ack goes with it.
    pub fn close_session(&self, sid: u64) -> Result<(), ServerError> {
        let worker = self.route(sid)?;
        let (reply, rx) = std::sync::mpsc::channel();
        worker
            .tx
            .send(Job::Close { sid, reply })
            .map_err(|_| ServerError::Shutdown)?;
        let closed = rx.recv().unwrap_or(Err(ServerError::Shutdown));
        if closed.is_ok() {
            self.acks
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .remove(&sid);
        }
        closed
    }

    /// Snapshot server health: the counter registry and the pool size.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            metrics: metrics::snapshot(),
            workers: self.workers.len(),
            worker_spawn_failures: self.spawn_failures,
        }
    }

    /// Render the server's health as Prometheus-style text exposition
    /// (behind the wire `METRICS` verb, newline-escaped onto one
    /// response line): the per-query latency histogram with fixed
    /// buckets, this server's gauges (queue depth, role, per-session
    /// replication lag, shared-tier hit ratio), then every row of the
    /// counter registry ([`Snapshot::render_exposition`]). Counters are
    /// read lock-free; only the lag gauge asks the workers anything.
    pub fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let lat = machiavelli_trace::latency_snapshot();
        out.push_str("# TYPE machiavelli_query_latency_seconds histogram\n");
        for (bound_ns, cumulative) in &lat.buckets {
            let le = if *bound_ns == u64::MAX {
                "+Inf".to_string()
            } else {
                format!("{}", *bound_ns as f64 / 1e9)
            };
            let _ = writeln!(
                out,
                "machiavelli_query_latency_seconds_bucket{{le=\"{le}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            out,
            "machiavelli_query_latency_seconds_sum {}",
            lat.sum_ns as f64 / 1e9
        );
        let _ = writeln!(out, "machiavelli_query_latency_seconds_count {}", lat.count);
        out.push_str("# TYPE machiavelli_queue_depth gauge\n");
        let _ = writeln!(
            out,
            "machiavelli_queue_depth {}",
            self.queue_depth.load(Ordering::Relaxed).max(0)
        );
        out.push_str("# TYPE machiavelli_repl_role gauge\n");
        let _ = writeln!(
            out,
            "machiavelli_repl_role {}",
            self.role.load(Ordering::Relaxed)
        );
        if self.config.durable_root.is_some() {
            out.push_str("# TYPE machiavelli_repl_lag_groups gauge\n");
            for slot in self.health().slots {
                if let Some(lag) = slot.lag {
                    let _ = writeln!(
                        out,
                        "machiavelli_repl_lag_groups{{sid=\"{}\"}} {lag}",
                        slot.sid
                    );
                }
            }
        }
        let m = metrics::snapshot();
        let adoptions = m.get(Counter::SharedAdoptions);
        let probes = adoptions + m.get(Counter::SharedMisses);
        let ratio = if probes == 0 {
            0.0
        } else {
            adoptions as f64 / probes as f64
        };
        out.push_str("# TYPE machiavelli_shared_hit_ratio gauge\n");
        let _ = writeln!(out, "machiavelli_shared_hit_ratio {ratio}");
        m.render_exposition(&mut out);
        out
    }

    fn default_guard(&self) -> QueryGuard {
        let deadline = self.config.default_deadline.map(|d| Instant::now() + d);
        QueryGuard::new(deadline, self.config.row_budget)
    }

    /// Stop accepting work, drain the queues, and join the workers.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.tx.send(Job::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(handle) = w.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

struct SessionSlot {
    session: Session,
    poisoned: bool,
    /// The session's write-ahead log when the server runs with a
    /// durable root; `None` for purely in-memory sessions.
    wal: Option<SessionLog>,
}

/// The durable directory for one session id. Session ids restart from
/// 1 on every server start, so a restarted `machid` re-opens the same
/// directories and recovers the same sessions.
fn session_dir(root: &std::path::Path, sid: u64) -> std::path::PathBuf {
    root.join(format!("session-{sid}"))
}

fn worker_main(
    rx: Receiver<Job>,
    config: ServerConfig,
    queue_depth: Arc<AtomicI64>,
    role: Arc<AtomicU8>,
) {
    shared::set_shared_enabled(config.shared_store);
    if let Some(fc) = config.faults {
        faults::set_fault_config(Some(fc));
    }
    let mut sessions: HashMap<u64, SessionSlot> = HashMap::new();
    while let Ok(job) = rx.recv() {
        let follower = role.load(Ordering::Relaxed) == ROLE_FOLLOWER;
        match job {
            Job::Open { sid, reply } => {
                // Adoption is idempotent: re-opening a live sid (a
                // replicator pass after a reconnect) keeps the slot.
                let result = if sessions.contains_key(&sid) {
                    Ok(sid)
                } else {
                    open_session(&mut sessions, &config, sid)
                };
                let _ = reply.send(result);
            }
            Job::Eval {
                sid,
                src,
                guard,
                reply,
            } => {
                let result = run_eval(&mut sessions, sid, &src, &guard, follower);
                // The query leaves the gauge before the reply is
                // delivered, so a caller who has seen its result (and
                // then asks for METRICS) never observes itself as
                // still in flight.
                queue_depth.fetch_sub(1, Ordering::Relaxed);
                let _ = reply.send(result);
            }
            Job::Close { sid, reply } => {
                let result = if sessions.remove(&sid).is_some() {
                    metrics::add(Counter::SessionsClosed, 1);
                    Ok(())
                } else {
                    Err(ServerError::NoSuchSession(sid))
                };
                let _ = reply.send(result);
            }
            Job::Save { sid, reply } => {
                // A follower checkpoint would bump the generation away
                // from the primary's stream: a write, so refused.
                let result = if follower {
                    Err(ServerError::ReadOnly)
                } else {
                    run_save(&mut sessions, sid)
                };
                let _ = reply.send(result);
            }
            Job::Restore { sid, reply } => {
                let _ = reply.send(run_restore(&mut sessions, &config, sid));
            }
            Job::Cursor { sid, reply } => {
                let _ = reply.send(run_cursor(&mut sessions, sid));
            }
            Job::Ship { sid, cursor, reply } => {
                let _ = reply.send(run_ship(&mut sessions, sid, cursor));
            }
            Job::ReplApply {
                sid,
                gen,
                bytes,
                reply,
            } => {
                let _ = reply.send(run_repl_apply(&mut sessions, sid, gen, &bytes));
            }
            Job::ReplInstall {
                sid,
                transfer,
                reply,
            } => {
                let _ = reply.send(run_repl_install(&mut sessions, &config, sid, &transfer));
            }
            Job::CheckpointAll { reply } => {
                let _ = reply.send(run_checkpoint_all(&mut sessions));
            }
            Job::Health { reply } => {
                let mut slots: Vec<SlotHealth> = sessions
                    .iter()
                    .map(|(&sid, slot)| SlotHealth {
                        sid,
                        poisoned: slot.poisoned,
                        doomed_log: slot.wal.as_ref().is_some_and(SessionLog::is_doomed),
                        gen: slot.wal.as_ref().map(SessionLog::generation),
                        groups: slot.wal.as_ref().map(SessionLog::groups),
                        lag: None,
                    })
                    .collect();
                slots.sort_unstable_by_key(|s| s.sid);
                let _ = reply.send(slots);
            }
            Job::Sids { reply } => {
                let mut sids: Vec<u64> = sessions.keys().copied().collect();
                sids.sort_unstable();
                let _ = reply.send(sids);
            }
            Job::Shutdown => break,
        }
    }
}

fn durable_slot(
    sessions: &mut HashMap<u64, SessionSlot>,
    sid: u64,
) -> Result<&mut SessionSlot, ServerError> {
    let slot = sessions
        .get_mut(&sid)
        .ok_or(ServerError::NoSuchSession(sid))?;
    if slot.wal.is_none() {
        return Err(ServerError::Replication(
            "session has no durable log (durability is disabled)".into(),
        ));
    }
    Ok(slot)
}

fn run_cursor(
    sessions: &mut HashMap<u64, SessionSlot>,
    sid: u64,
) -> Result<(LogCursor, u64), ServerError> {
    let slot = durable_slot(sessions, sid)?;
    let wal = slot.wal.as_ref().expect("checked durable");
    Ok((wal.cursor(), wal.groups()))
}

fn run_ship(
    sessions: &mut HashMap<u64, SessionSlot>,
    sid: u64,
    cursor: LogCursor,
) -> Result<Ship, ServerError> {
    let slot = durable_slot(sessions, sid)?;
    let wal = slot.wal.as_mut().expect("checked durable");
    wal.ship_from(cursor)
        .map_err(|e| ServerError::Replication(e.to_string()))
}

fn run_repl_apply(
    sessions: &mut HashMap<u64, SessionSlot>,
    sid: u64,
    gen: u64,
    bytes: &[u8],
) -> Result<(ReplicaApplyReport, LogCursor), ServerError> {
    let slot = durable_slot(sessions, sid)?;
    if slot.poisoned {
        return Err(ServerError::SessionPoisoned(sid));
    }
    let SessionSlot { session, wal, .. } = slot;
    let wal = wal.as_mut().expect("checked durable");
    match wal.replica_apply(session, gen, bytes) {
        Ok(report) => Ok((report, wal.cursor())),
        Err(WalError::StaleGeneration { got, have }) => {
            Err(ServerError::StaleGeneration { got, have })
        }
        Err(e) => Err(ServerError::Replication(e.to_string())),
    }
}

fn run_repl_install(
    sessions: &mut HashMap<u64, SessionSlot>,
    config: &ServerConfig,
    sid: u64,
    transfer: &SnapshotTransfer,
) -> Result<usize, ServerError> {
    let slot = durable_slot(sessions, sid)?;
    let root = config
        .durable_root
        .as_ref()
        .ok_or_else(|| ServerError::Replication("durability is disabled".into()))?;
    let dir = session_dir(root, sid);
    install_replica(&dir, transfer).map_err(|e| ServerError::Replication(e.to_string()))?;
    // Rebuild the slot from the installed state — the restore path.
    let (fresh, restored) = recover_slot(&dir, ServerError::Replication)?;
    *slot = fresh;
    Ok(restored)
}

fn run_checkpoint_all(sessions: &mut HashMap<u64, SessionSlot>) -> Result<u64, ServerError> {
    let mut done = 0u64;
    let mut first_err = None;
    for (_, slot) in sessions.iter_mut() {
        if slot.poisoned {
            continue;
        }
        let Some(wal) = slot.wal.as_mut() else {
            continue;
        };
        match wal.checkpoint(&slot.session) {
            Ok(()) => done += 1,
            Err(e) => {
                // Same failure posture as SAVE: the slot poisons, the
                // sweep keeps fencing the others.
                slot.poisoned = true;
                metrics::add(Counter::SessionsPanicked, 1);
                first_err.get_or_insert(ServerError::Durability(e.to_string()));
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(done),
    }
}

fn open_session(
    sessions: &mut HashMap<u64, SessionSlot>,
    config: &ServerConfig,
    sid: u64,
) -> Result<u64, ServerError> {
    let slot = match &config.durable_root {
        Some(root) => recover_slot(&session_dir(root, sid), ServerError::Durability)?.0,
        None => shielded(|| {
            Ok(SessionSlot {
                session: Session::try_new().map_err(|e| ServerError::SessionInit(e.to_string()))?,
                poisoned: false,
                wal: None,
            })
        })?,
    };
    sessions.insert(sid, slot);
    metrics::add(Counter::SessionsStarted, 1);
    Ok(sid)
}

/// Run `f` shielded from fault injection, a panic becoming a typed
/// error: faults target queries, and deterministic opens and recoveries
/// keep chaos assertions crisp.
fn shielded<T>(f: impl FnOnce() -> Result<T, ServerError>) -> Result<T, ServerError> {
    let shield = faults::set_fault_config(Some(FaultConfig::off()));
    let made = catch_unwind(AssertUnwindSafe(f));
    faults::set_fault_config(shield);
    made.unwrap_or_else(|payload| Err(ServerError::SessionInit(panic_message(payload.as_ref()))))
}

/// A fresh slot recovered from the durable state under `dir` (snapshot
/// plus log replay), with the number of bindings and records restored.
/// `wrap` types a log failure for the caller's verb.
fn recover_slot(
    dir: &std::path::Path,
    wrap: fn(String) -> ServerError,
) -> Result<(SessionSlot, usize), ServerError> {
    shielded(|| {
        let mut session =
            Session::try_new().map_err(|e| ServerError::SessionInit(e.to_string()))?;
        let (wal, report) = SessionLog::open(dir, &mut session).map_err(|e| wrap(e.to_string()))?;
        let restored = report.snapshot_bindings + report.records_replayed as usize;
        let slot = SessionSlot {
            session,
            poisoned: false,
            wal: Some(wal),
        };
        Ok((slot, restored))
    })
}

fn run_save(sessions: &mut HashMap<u64, SessionSlot>, sid: u64) -> Result<u64, ServerError> {
    let slot = sessions
        .get_mut(&sid)
        .ok_or(ServerError::NoSuchSession(sid))?;
    if slot.poisoned {
        return Err(ServerError::SessionPoisoned(sid));
    }
    let Some(wal) = slot.wal.as_mut() else {
        return Err(ServerError::Durability("durability is disabled".into()));
    };
    match wal.checkpoint(&slot.session) {
        Ok(()) => Ok(wal.generation()),
        Err(e) => {
            // Disk state is ambiguous relative to memory; refuse
            // further queries rather than drift (see run_eval).
            slot.poisoned = true;
            metrics::add(Counter::SessionsPanicked, 1);
            Err(ServerError::Durability(e.to_string()))
        }
    }
}

fn run_restore(
    sessions: &mut HashMap<u64, SessionSlot>,
    config: &ServerConfig,
    sid: u64,
) -> Result<usize, ServerError> {
    let slot = sessions
        .get_mut(&sid)
        .ok_or(ServerError::NoSuchSession(sid))?;
    let Some(root) = &config.durable_root else {
        return Err(ServerError::Durability("durability is disabled".into()));
    };
    if slot.wal.is_none() {
        return Err(ServerError::Durability(
            "session has no durable state".into(),
        ));
    }
    // Deliberately no poison check: RESTORE is how a poisoned durable
    // session comes back — in-memory state (possibly torn mid-update by
    // a panic) is discarded and rebuilt from the last durable commit.
    let (fresh, restored) = recover_slot(&session_dir(root, sid), ServerError::Durability)?;
    *slot = fresh;
    Ok(restored)
}

/// Tally a governor trip and map it onto its wire error.
fn stopped(trip: Trip) -> ServerError {
    metrics::add(
        match trip {
            Trip::Cancelled => Counter::QueriesCancelled,
            Trip::DeadlineExceeded => Counter::QueriesDeadline,
            Trip::RowBudgetExceeded => Counter::QueriesRowBudget,
        },
        1,
    );
    ServerError::from_trip(trip)
}

fn run_eval(
    sessions: &mut HashMap<u64, SessionSlot>,
    sid: u64,
    src: &str,
    guard: &Arc<QueryGuard>,
    follower: bool,
) -> Result<Vec<String>, ServerError> {
    let slot = sessions
        .get_mut(&sid)
        .ok_or(ServerError::NoSuchSession(sid))?;
    if slot.poisoned {
        return Err(ServerError::SessionPoisoned(sid));
    }
    // Followers serve queries, not writes: declarations and `:=` are
    // refused before evaluation so replica state never forks from the
    // shipped stream. (Unparsable sources fall through — the evaluator
    // reports the real parse error.)
    if follower && !is_read_only_source(src) {
        return Err(ServerError::ReadOnly);
    }
    // Queue wait may already have consumed the deadline (or the client
    // cancelled before we started): trip without evaluating.
    if let Some(trip) = guard.check() {
        return Err(stopped(trip));
    }
    let prev = governor::install(Some(guard.clone()));
    let t0 = machiavelli_trace::now_ns();
    let outcome = catch_unwind(AssertUnwindSafe(|| slot.session.run(src)));
    // Evaluation wall time (queue wait excluded — shed/depth cover the
    // admission side), observed for every query that ran, whatever the
    // outcome: error latencies are latencies too.
    machiavelli_trace::observe_query_ns(machiavelli_trace::now_ns().saturating_sub(t0));
    governor::install(prev);
    // Attribute this evaluation's ref writes to this session *now*,
    // whatever the outcome — errors and panics have real partial
    // writes, and the thread-local dirty channel is shared by every
    // session this worker hosts.
    if let Some(wal) = slot.wal.as_mut() {
        wal.absorb_dirty();
    }
    match outcome {
        Ok(Ok(outcomes)) => {
            // Commit before reporting: memory now holds this
            // evaluation, so disk must too before the client can
            // observe a result it might rely on. A commit failure
            // fail-hards (poison + typed error) — a session that
            // silently drifted ahead of its log would turn the next
            // crash into data loss. Followers never commit: their log
            // is the primary's byte-for-byte, and a read-only eval's
            // scratch `it` binding must not fork it.
            if !follower {
                if let Some(wal) = slot.wal.as_mut() {
                    if let Err(e) = wal.commit(&slot.session, &outcomes) {
                        slot.poisoned = true;
                        metrics::add(Counter::SessionsPanicked, 1);
                        return Err(ServerError::Durability(e.to_string()));
                    }
                }
            }
            // A trip can latch after the last governance tick (row
            // charges land when a set materializes, which may be the
            // query's final step). The latch is sticky: honor it even
            // though evaluation ran to completion, so ceilings are
            // ceilings.
            if let Some(trip) = guard.tripped() {
                return Err(stopped(trip));
            }
            metrics::add(Counter::QueriesCompleted, 1);
            Ok(outcomes.iter().map(|o| o.show()).collect())
        }
        Ok(Err(SessionError::Eval(EvalError::Interrupted(trip)))) => Err(stopped(trip)),
        Ok(Err(e)) => {
            // An ordinary query error: the query *completed*, with a
            // diagnosis. The session stays healthy.
            metrics::add(Counter::QueriesCompleted, 1);
            Err(ServerError::Query(e.to_string()))
        }
        Err(payload) => {
            // The evaluator panicked. The session's environments may
            // be torn mid-update, so poison it; the worker and its
            // other sessions are untouched. The unwind also skipped any
            // in-flight trace scopes — reset the thread's tracer so the
            // next query on this worker starts at depth zero.
            machiavelli_trace::abort_query();
            slot.poisoned = true;
            metrics::add(Counter::SessionsPanicked, 1);
            Err(ServerError::SessionPanicked(panic_message(
                payload.as_ref(),
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_cap: 8,
            default_deadline: None,
            row_budget: None,
            shared_store: false,
            faults: Some(FaultConfig::off()),
            durable_root: None,
            role: ServerRole::Primary,
        }
    }

    #[test]
    fn open_eval_close_roundtrip() {
        let server = Server::start(quiet());
        let sid = server.open_session().expect("open");
        let out = server.eval(sid, "1 + 2;").expect("eval");
        assert_eq!(out, vec!["val it = 3 : int".to_string()]);
        server.close_session(sid).expect("close");
        assert_eq!(server.eval(sid, "1;"), Err(ServerError::NoSuchSession(sid)));
        server.shutdown();
    }

    #[test]
    fn sessions_are_independent_and_sticky() {
        let server = Server::start(quiet());
        let a = server.open_session().expect("open a");
        let b = server.open_session().expect("open b");
        server.eval(a, "val x = 10;").expect("bind in a");
        // `x` is visible in a, unbound in b.
        assert!(server.eval(a, "x + 1;").is_ok());
        match server.eval(b, "x + 1;") {
            Err(ServerError::Query(msg)) => assert!(msg.contains("type error")),
            other => panic!("expected a type error from session b, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn query_errors_do_not_poison() {
        let server = Server::start(quiet());
        let sid = server.open_session().expect("open");
        assert!(matches!(
            server.eval(sid, "definitely not machiavelli"),
            Err(ServerError::Query(_))
        ));
        assert!(server.eval(sid, "2 * 21;").is_ok(), "session still healthy");
        server.shutdown();
    }

    #[test]
    fn pre_cancelled_guard_trips_before_evaluating() {
        let server = Server::start(quiet());
        let sid = server.open_session().expect("open");
        let guard = Arc::new(QueryGuard::unlimited());
        guard.cancel();
        let pending = server.submit_with(sid, "1 + 1;", guard).expect("admit");
        assert_eq!(pending.wait(), Err(ServerError::Cancelled));
        server.shutdown();
    }

    #[test]
    fn routing_is_deterministic_per_sid() {
        let server = Server::start(quiet());
        // Many sessions across two workers: each keeps its own state.
        let sids: Vec<u64> = (0..6)
            .map(|_| server.open_session().expect("open"))
            .collect();
        for (i, &sid) in sids.iter().enumerate() {
            server.eval(sid, &format!("val mine = {i};")).expect("bind");
        }
        for (i, &sid) in sids.iter().enumerate() {
            let out = server.eval(sid, "mine;").expect("read");
            assert_eq!(out, vec![format!("val it = {i} : int")]);
        }
        server.shutdown();
    }
}
