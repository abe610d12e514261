//! The session server: many interpreter sessions, each evaluated on
//! the thread that reads its request.
//!
//! # Architecture
//!
//! [`Session`] is `Rc`-based, so it is not `Send`. The server keeps
//! each session in a slot: one registry maps `sid → Arc<Slot>`, and a
//! slot holds its session behind a mutex, inside `SendSession` — the
//! one `unsafe impl Send`, with its invariant written next to it. The
//! thread that read a request looks the slot up, locks it and runs the
//! request there: no worker pool, no job queue, no reply channel. The
//! registry lock is held only to look a slot up, insert one or remove
//! one, so a long eval holds up its own session and nothing else.
//!
//! Resilience is layered:
//!
//! * **Isolation** — every query runs under `catch_unwind`. A panic
//!   poisons only its own session (subsequent queries on it get
//!   [`ServerError::SessionPoisoned`]); the calling thread, every other
//!   session and the server keep running.
//! * **Governance** — each query carries a [`QueryGuard`] (deadline,
//!   cancellation flag, row budget) that the evaluator polls
//!   cooperatively; trips surface as structured errors, never aborts.
//!   The guard is made at admission, so time spent waiting for the
//!   session counts against the deadline.
//! * **Admission** — per session: when [`ServerConfig::queue_cap`]
//!   evals already wait for a session, the next one is shed with
//!   [`ServerError::Busy`] instead of queueing unbounded work.
//!
//! Every operation publishes its slot's health (poisoned, doomed,
//! generation, groups) in atomics, so `HEALTH`, `SIDS` and the
//! `METRICS` lag gauge never wait behind a running eval.

use crate::error::ServerError;
use machiavelli::store::faults::{FaultConfig, FaultPoint, FaultStream};
use machiavelli::store::governor::{self, QueryGuard, Trip};
use machiavelli::{is_read_only_source, Session, SessionError};
use machiavelli_eval::EvalError;
use machiavelli_trace::metrics::{self, Counter, Snapshot};
use machiavelli_wal::{
    install_replica, LogCursor, ReplicaApplyReport, SessionLog, Ship, SnapshotTransfer, WalError,
};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The stack of every thread that evaluates requests: `machid`'s
/// connection threads and [`Server::submit`]'s. A request gets the
/// same recursion headroom whichever thread reads it, and
/// `RUST_MIN_STACK` cannot change it.
pub const EVAL_STACK_BYTES: usize = 2 << 20;

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
    /// The slot's log is doomed (awaiting `RESTORE` or a snapshot
    /// install).
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

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Ignored: requests run on the thread that reads them. Kept so
    /// that existing struct literals still compile.
    pub workers: usize,
    /// Evals that may wait for one session while another runs on it;
    /// one more is shed with [`ServerError::Busy`].
    pub queue_cap: usize,
    /// Default per-query deadline (None = no deadline).
    pub default_deadline: Option<Duration>,
    /// Default per-query row budget (None = unlimited). Charged as
    /// sets materialize, so runaway queries trip before exhausting
    /// memory.
    pub row_budget: Option<usize>,
    /// Fault injection: every session this server opens or recovers
    /// is armed with this config, its stream seeded from the config
    /// seed and the session id (None = the environment's
    /// `MACHIAVELLI_FAULT_*` knobs).
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
            faults: None,
            durable_root: None,
            role: ServerRole::Primary,
        }
    }
}

/// A point-in-time snapshot of server health.
#[derive(Debug, Clone, Copy)]
pub struct ServerStats {
    /// The process-wide counter registry: session/query, WAL,
    /// replication and injected-fault counters (the last all zero
    /// unless fault injection is on).
    pub metrics: Snapshot,
}

impl fmt::Display for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = |c| self.metrics.get(c);
        write!(
            f,
            "sessions {}/{}/{} queries {}ok {}shed {}ddl {}cancel {}rows",
            m(Counter::SessionsStarted),
            m(Counter::SessionsPanicked),
            m(Counter::SessionsClosed),
            m(Counter::QueriesCompleted),
            m(Counter::QueriesShed),
            m(Counter::QueriesDeadline),
            m(Counter::QueriesCancelled),
            m(Counter::QueriesRowBudget),
        )
    }
}

/// A session's state: what the slot's lock guards.
struct SessionSlot {
    session: Session,
    poisoned: bool,
    /// The session's write-ahead log when the server runs with a
    /// durable root; `None` for purely in-memory sessions.
    wal: Option<SessionLog>,
}

/// A [`SessionSlot`] that may move between threads.
///
/// `Session` is `!Send` only because it holds `Rc`s, whose counts are
/// not atomic. Moving one to another thread is sound because:
///
/// * every `Rc` reachable from the session is reachable only through
///   it — sessions share none (each evaluates its own prelude, and
///   `Symbol` is `&'static str`);
/// * no thread-local or `static` holds one (CI's "Session state
///   stays out of thread-locals" step keeps engine state in the
///   session);
/// * the session is touched only under its slot's lock, through
///   [`SendSession::with`], whose closure and result must be `Send` —
///   so no `Rc` can come in with the closure or leave with its result.
struct SendSession(SessionSlot);

// SAFETY: see the invariant above.
unsafe impl Send for SendSession {}

impl SendSession {
    fn with<R: Send + 'static>(&mut self, f: impl FnOnce(&mut SessionSlot) -> R + Send) -> R {
        f(&mut self.0)
    }
}

/// One session's slot: its state behind a lock, plus what `HEALTH`
/// and admission read without taking it.
struct Slot {
    /// `None` once closed: a request that found the slot before
    /// `CLOSE` removed it finds no session behind the lock.
    state: Mutex<Option<SendSession>>,
    /// Admitted evals waiting for `state`; the running one is not
    /// counted.
    waiting: AtomicUsize,
    poisoned: AtomicBool,
    doomed: AtomicBool,
    gen: AtomicU64,
    groups: AtomicU64,
}

impl Slot {
    fn new(session: SessionSlot) -> Slot {
        let mut slot = Slot {
            state: Mutex::new(None),
            waiting: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            doomed: AtomicBool::new(false),
            gen: AtomicU64::new(0),
            groups: AtomicU64::new(0),
        };
        slot.publish(&session);
        slot.state = Mutex::new(Some(SendSession(session)));
        slot
    }

    /// Lock the state. A panic that escaped an operation's own
    /// handling poisoned the lock with the session possibly torn
    /// mid-update: the lock is recovered and the session poisoned.
    fn lock(&self) -> MutexGuard<'_, Option<SendSession>> {
        self.state.lock().unwrap_or_else(|torn| {
            self.state.clear_poison();
            let mut state = torn.into_inner();
            if let Some(session) = state.as_mut() {
                session.with(|s| s.poisoned = true);
                self.poisoned.store(true, Ordering::Relaxed);
                metrics::add(Counter::SessionsPanicked, 1);
            }
            state
        })
    }

    /// Run `op` on the session under the lock, then publish its health.
    fn run<R: Send + 'static>(
        &self,
        sid: u64,
        op: impl FnOnce(&mut SessionSlot) -> Result<R, ServerError> + Send,
    ) -> Result<R, ServerError> {
        self.run_locked(&mut self.lock(), sid, op)
    }

    fn run_locked<R: Send + 'static>(
        &self,
        state: &mut Option<SendSession>,
        sid: u64,
        op: impl FnOnce(&mut SessionSlot) -> Result<R, ServerError> + Send,
    ) -> Result<R, ServerError> {
        let session = state.as_mut().ok_or(ServerError::NoSuchSession(sid))?;
        session.with(|s| {
            let out = op(s);
            self.publish(s);
            out
        })
    }

    fn publish(&self, s: &SessionSlot) {
        self.poisoned.store(s.poisoned, Ordering::Relaxed);
        if let Some(wal) = &s.wal {
            self.doomed.store(wal.is_doomed(), Ordering::Relaxed);
            self.gen.store(wal.generation(), Ordering::Relaxed);
            self.groups.store(wal.groups(), Ordering::Relaxed);
        }
    }
}

/// An eval admitted against a slot. It counts as waiting until it
/// holds the slot's lock, and as in flight (the queue-depth gauge)
/// until it is dropped — whether or not it ever ran.
struct Admitted {
    slot: Arc<Slot>,
    sid: u64,
    guard: Arc<QueryGuard>,
    role: Arc<AtomicU8>,
    depth: Arc<AtomicI64>,
    queued: bool,
}

impl Admitted {
    fn run(mut self, src: &str) -> Result<Vec<String>, ServerError> {
        let slot = Arc::clone(&self.slot);
        let mut state = slot.lock();
        slot.waiting.fetch_sub(1, Ordering::Relaxed);
        self.queued = false;
        let (sid, guard) = (self.sid, &self.guard);
        let follower = self.role.load(Ordering::Relaxed) == ROLE_FOLLOWER;
        let result = slot.run_locked(&mut state, sid, |s| run_eval(s, sid, src, guard, follower));
        // The query leaves the gauge before the caller sees its
        // result, so a caller who then asks for METRICS never observes
        // itself as still in flight.
        drop(self);
        result
    }
}

impl Drop for Admitted {
    fn drop(&mut self) {
        if self.queued {
            self.slot.waiting.fetch_sub(1, Ordering::Relaxed);
        }
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }
}

/// An in-flight query: a handle to cancel it and to wait for the
/// structured result.
pub struct Pending {
    guard: Arc<QueryGuard>,
    handle: JoinHandle<Result<Vec<String>, ServerError>>,
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
        self.handle.join().unwrap_or_else(|payload| {
            Err(ServerError::SessionPanicked(panic_message(
                payload.as_ref(),
            )))
        })
    }
}

/// The multi-session server. Cheap to share: all methods take `&self`,
/// so wrap in `Arc` to serve many client threads.
pub struct Server {
    /// The registry: held only to look a slot up, insert or remove one.
    slots: Mutex<HashMap<u64, Arc<Slot>>>,
    /// Serializes opens, so two opens of one sid never recover the
    /// same durable directory at once.
    opening: Mutex<()>,
    next_sid: AtomicU64,
    config: ServerConfig,
    /// The fault config every session is armed with:
    /// [`ServerConfig::faults`], else the environment's.
    faults: FaultConfig,
    /// The stream the injected ack loss draws from.
    ack_faults: Mutex<FaultStream>,
    /// Admitted evals not yet finished (waiting + evaluating), across
    /// all sessions — the `METRICS` queue-depth gauge.
    queue_depth: Arc<AtomicI64>,
    /// The replication role (`ROLE_*`); flips atomically on `PROMOTE`.
    role: Arc<AtomicU8>,
    /// Primary side: the last ack recorded per session — the data the
    /// lag gauge is computed from.
    acks: Mutex<HashMap<u64, AckState>>,
}

impl Server {
    /// Start a server. Nothing is spawned: each request runs on the
    /// thread that makes it.
    pub fn start(config: ServerConfig) -> Server {
        let faults = config.faults.unwrap_or_else(FaultConfig::from_env);
        Server {
            faults,
            // Session ids start at 1: id 0 seeds the server's own stream.
            ack_faults: Mutex::new(FaultStream::new(faults, 0)),
            slots: Mutex::new(HashMap::new()),
            opening: Mutex::new(()),
            next_sid: AtomicU64::new(1),
            queue_depth: Arc::new(AtomicI64::new(0)),
            role: Arc::new(AtomicU8::new(role_to_u8(config.role))),
            acks: Mutex::new(HashMap::new()),
            config,
        }
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    fn registry(&self) -> MutexGuard<'_, HashMap<u64, Arc<Slot>>> {
        self.slots.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn slot(&self, sid: u64) -> Result<Arc<Slot>, ServerError> {
        self.registry()
            .get(&sid)
            .cloned()
            .ok_or(ServerError::NoSuchSession(sid))
    }

    /// The slots, ascending by sid.
    fn all_slots(&self) -> Vec<(u64, Arc<Slot>)> {
        let mut slots: Vec<_> = self
            .registry()
            .iter()
            .map(|(&sid, slot)| (sid, Arc::clone(slot)))
            .collect();
        slots.sort_unstable_by_key(|&(sid, _)| sid);
        slots
    }

    /// Run `op` on one session, under its lock, on the calling thread.
    fn on_slot<R: Send + 'static>(
        &self,
        sid: u64,
        op: impl FnOnce(&mut SessionSlot) -> Result<R, ServerError> + Send,
    ) -> Result<R, ServerError> {
        self.slot(sid)?.run(sid, op)
    }

    /// Open a fresh session (with the standard prelude). A session is
    /// armed with the fault config only once open, so opens are
    /// deterministic; faults target queries.
    pub fn open_session(&self) -> Result<u64, ServerError> {
        let sid = self.next_sid.fetch_add(1, Ordering::Relaxed);
        self.install(sid)
    }

    /// Open `sid` unless it is already open (adoption is idempotent: a
    /// replicator pass after a reconnect keeps the slot).
    fn install(&self, sid: u64) -> Result<u64, ServerError> {
        let _opening = self.opening.lock().unwrap_or_else(|p| p.into_inner());
        if self.registry().contains_key(&sid) {
            return Ok(sid);
        }
        let session = match &self.config.durable_root {
            Some(root) => recover_slot(root, sid, self.faults, ServerError::Durability)?.0,
            None => {
                let session = caught(|| {
                    Session::try_new().map_err(|e| ServerError::SessionInit(e.to_string()))
                })?;
                session.engine().set_faults(self.faults, sid);
                SessionSlot {
                    session,
                    poisoned: false,
                    wal: None,
                }
            }
        };
        self.registry().insert(sid, Arc::new(Slot::new(session)));
        metrics::add(Counter::SessionsStarted, 1);
        Ok(sid)
    }

    /// Admit an eval: `Busy` when `queue_cap` evals already wait for
    /// the session.
    fn admit(&self, sid: u64, guard: Arc<QueryGuard>) -> Result<Admitted, ServerError> {
        let slot = self.slot(sid)?;
        if slot.waiting.fetch_add(1, Ordering::Relaxed) >= self.config.queue_cap.max(1) {
            slot.waiting.fetch_sub(1, Ordering::Relaxed);
            metrics::add(Counter::QueriesShed, 1);
            return Err(ServerError::Busy);
        }
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
        Ok(Admitted {
            slot,
            sid,
            guard,
            role: Arc::clone(&self.role),
            depth: Arc::clone(&self.queue_depth),
            queued: true,
        })
    }

    /// Submit a query under the server's default deadline and row
    /// budget. Admission is synchronous (`Busy` comes back at once);
    /// the query then evaluates on a thread of its own.
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
        let admitted = self.admit(sid, Arc::clone(&guard))?;
        let src = src.to_string();
        let handle = std::thread::Builder::new()
            .name(format!("machid-eval-{sid}"))
            .stack_size(EVAL_STACK_BYTES)
            .spawn(move || admitted.run(&src))
            .map_err(|_| ServerError::Shutdown)?;
        Ok(Pending { guard, handle })
    }

    /// Evaluate a query on the calling thread under the server's
    /// default deadline and row budget: the path the wire protocol
    /// takes.
    pub fn eval(&self, sid: u64, src: &str) -> Result<Vec<String>, ServerError> {
        self.admit(sid, Arc::new(self.default_guard()))?.run(src)
    }

    /// Force a checkpoint of the session's durable state, compacting
    /// the delta log into the snapshot. Returns the new generation.
    /// Requires [`ServerConfig::durable_root`].
    pub fn save_session(&self, sid: u64) -> Result<u64, ServerError> {
        let role = &self.role;
        self.on_slot(sid, move |s| {
            // A follower checkpoint would bump the generation away from
            // the primary's stream: a write, so refused.
            if role.load(Ordering::Relaxed) == ROLE_FOLLOWER {
                return Err(ServerError::ReadOnly);
            }
            run_save(s, sid)
        })
    }

    /// Throw away the in-memory session and recover it from its
    /// durable state (snapshot + log replay). Returns the number of
    /// bindings restored. Works on poisoned sessions — this is how a
    /// client un-poisons a durable session without losing its data.
    pub fn restore_session(&self, sid: u64) -> Result<usize, ServerError> {
        let (root, faults) = (self.config.durable_root.as_deref(), self.faults);
        self.on_slot(sid, move |s| run_restore(s, root, sid, faults))
    }

    /// The server's current replication role.
    pub fn role(&self) -> ServerRole {
        role_from_u8(self.role.load(Ordering::Relaxed))
    }

    /// Promote this server to primary, fencing the old one: every
    /// durable session checkpoints into a generation above both its own
    /// and `floor`, so any groups a re-appearing old primary ships are
    /// stamped with a now stale generation and rejected whole.
    /// Idempotent — promoting a primary is a no-op. Returns the number
    /// of slots fenced.
    ///
    /// `floor` is the deposed primary's last known generation (from its
    /// `HEALTH`). A follower that was replicating tracks the primary's
    /// generation, so 0 (one bump) fences it; one that missed primary
    /// checkpoints behind a partition would, without the floor, promote
    /// onto a generation the old primary already stamped, and its stale
    /// groups would pass the generation check.
    pub fn promote(&self, floor: u64) -> Result<u64, ServerError> {
        if floor == u64::MAX {
            return Err(ServerError::Replication(format!(
                "generation floor {floor} has no successor"
            )));
        }
        let was = self.role.swap(ROLE_PRIMARY, Ordering::SeqCst);
        if was == ROLE_PRIMARY {
            return Ok(0);
        }
        // A restarted follower re-opens its sessions only as its
        // replicator mirrors them; fence the ones still only on disk.
        for sid in self.durable_sids() {
            self.adopt_session(sid)?;
        }
        let fenced = self.checkpoint_above(floor)?;
        metrics::add(Counter::ReplPromotions, 1);
        Ok(fenced)
    }

    /// Checkpoint every durable, healthy session — the
    /// graceful-shutdown flush. Each slot is locked in turn, so an eval
    /// running on it commits before it checkpoints.
    pub fn checkpoint_all(&self) -> Result<u64, ServerError> {
        self.checkpoint_above(0)
    }

    /// Session ids with a directory under the durable root.
    fn durable_sids(&self) -> Vec<u64> {
        let Some(root) = &self.config.durable_root else {
            return Vec::new();
        };
        let Ok(entries) = std::fs::read_dir(root) else {
            return Vec::new();
        };
        entries
            .flatten()
            .filter_map(|e| {
                e.file_name()
                    .to_str()?
                    .strip_prefix("session-")?
                    .parse()
                    .ok()
            })
            .collect()
    }

    /// Checkpoint every durable, healthy session above `floor`,
    /// locking the slots one at a time in sid order: an eval already
    /// running on a slot commits before the slot checkpoints. A
    /// failing slot poisons and the sweep goes on; the first error is
    /// returned.
    fn checkpoint_above(&self, floor: u64) -> Result<u64, ServerError> {
        let mut done = 0u64;
        let mut first_err = None;
        for (sid, slot) in self.all_slots() {
            match slot.run(sid, move |s| run_checkpoint(s, floor)) {
                Ok(fenced) => done += u64::from(fenced),
                // Closed since the sweep listed it: nothing to fence.
                Err(ServerError::NoSuchSession(_)) => {}
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(done),
        }
    }

    /// Open (or re-open) a session under a *specific* id — how a
    /// follower mirrors the primary's session space. Idempotent: an
    /// already-open sid is left untouched. Future plain opens never
    /// collide with an adopted id, so an id with no successor (the sid
    /// comes from the primary's `SIDS` reply) is refused.
    pub fn adopt_session(&self, sid: u64) -> Result<u64, ServerError> {
        let next = sid.checked_add(1).ok_or_else(|| {
            ServerError::Replication(format!("session id {sid} has no successor"))
        })?;
        self.next_sid.fetch_max(next, Ordering::Relaxed);
        self.install(sid)
    }

    /// Session ids currently hosted, ascending.
    pub fn session_ids(&self) -> Vec<u64> {
        let mut sids: Vec<u64> = self.registry().keys().copied().collect();
        sids.sort_unstable();
        sids
    }

    /// A session's replication cursor and committed-group count.
    pub fn cursor(&self, sid: u64) -> Result<(LogCursor, u64), ServerError> {
        self.on_slot(sid, |s| {
            let wal = durable_log(&mut s.wal)?;
            Ok((wal.cursor(), wal.groups()))
        })
    }

    /// Serve one follower catch-up request against a session's log
    /// (primary side of the `SHIP` verb).
    pub fn ship(&self, sid: u64, cursor: LogCursor) -> Result<Ship, ServerError> {
        self.on_slot(sid, move |s| {
            durable_log(&mut s.wal)?
                .ship_from(cursor)
                .map_err(|e| ServerError::Replication(e.to_string()))
        })
    }

    /// Apply a shipped chunk to a local follower session.
    pub fn replica_apply(
        &self,
        sid: u64,
        gen: u64,
        bytes: Vec<u8>,
    ) -> Result<ReplicaApplyReport, ServerError> {
        self.on_slot(sid, move |s| run_repl_apply(s, sid, gen, &bytes))
    }

    /// Install a full snapshot transfer under a local follower session
    /// and rebuild it from disk. Returns the bindings+records restored.
    pub fn replica_install(
        &self,
        sid: u64,
        transfer: SnapshotTransfer,
    ) -> Result<usize, ServerError> {
        let (root, faults) = (self.config.durable_root.as_deref(), self.faults);
        self.on_slot(sid, move |s| {
            run_repl_install(s, root, sid, faults, &transfer)
        })
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
        let lost = self
            .ack_faults
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .fire(FaultPoint::AckLoss);
        if lost {
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

    /// Per-slot health plus the server's role — the `HEALTH` verb,
    /// read from what each slot published after its last operation,
    /// so it never waits behind a running eval. Lag is the
    /// primary-side view: own groups minus the follower's last
    /// same-generation ack (a cross-generation ack counts as fully
    /// behind, since the follower must re-sync through a snapshot).
    pub fn health(&self) -> HealthReport {
        let role = self.role();
        let durable = self.config.durable_root.is_some();
        let mut slots: Vec<SlotHealth> = self
            .all_slots()
            .into_iter()
            .map(|(sid, slot)| SlotHealth {
                sid,
                poisoned: slot.poisoned.load(Ordering::Relaxed),
                doomed_log: slot.doomed.load(Ordering::Relaxed),
                gen: durable.then(|| slot.gen.load(Ordering::Relaxed)),
                groups: durable.then(|| slot.groups.load(Ordering::Relaxed)),
                lag: None,
            })
            .collect();
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
        let slot = self.slot(sid)?;
        let mut state = slot.lock();
        state.take().ok_or(ServerError::NoSuchSession(sid))?;
        self.registry().remove(&sid);
        drop(state);
        self.acks
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&sid);
        metrics::add(Counter::SessionsClosed, 1);
        Ok(())
    }

    /// Snapshot server health: the counter registry.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            metrics: metrics::snapshot(),
        }
    }

    /// Render the server's health as Prometheus-style text exposition
    /// (behind the wire `METRICS` verb, newline-escaped onto one
    /// response line): the per-query latency histogram with fixed
    /// buckets, this server's gauges (queue depth, role, per-session
    /// replication lag), then every row of the counter registry
    /// ([`Snapshot::render_exposition`]). Everything is read
    /// lock-free or from published slot state; nothing waits on a
    /// session.
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
        metrics::snapshot().render_exposition(&mut out);
        out
    }

    fn default_guard(&self) -> QueryGuard {
        let deadline = self.config.default_deadline.map(|d| Instant::now() + d);
        QueryGuard::new(deadline, self.config.row_budget)
    }

    /// Drop the server and every session it holds. An eval still
    /// running on a [`Server::submit`] thread finishes first on its
    /// own slot.
    pub fn shutdown(self) {
        drop(self);
    }
}

/// The durable directory for one session id. Session ids restart from
/// 1 on every server start, so a restarted `machid` re-opens the same
/// directories and recovers the same sessions.
fn session_dir(root: &std::path::Path, sid: u64) -> std::path::PathBuf {
    root.join(format!("session-{sid}"))
}

fn durable_log(wal: &mut Option<SessionLog>) -> Result<&mut SessionLog, ServerError> {
    wal.as_mut().ok_or_else(|| {
        ServerError::Replication("session has no durable log (durability is disabled)".into())
    })
}

fn run_repl_apply(
    slot: &mut SessionSlot,
    sid: u64,
    gen: u64,
    bytes: &[u8],
) -> Result<ReplicaApplyReport, ServerError> {
    let SessionSlot {
        session,
        poisoned,
        wal,
    } = slot;
    let wal = durable_log(wal)?;
    if *poisoned {
        return Err(ServerError::SessionPoisoned(sid));
    }
    wal.replica_apply(session, gen, bytes).map_err(|e| match e {
        WalError::StaleGeneration { got, have } => ServerError::StaleGeneration { got, have },
        e => ServerError::Replication(e.to_string()),
    })
}

fn run_repl_install(
    slot: &mut SessionSlot,
    root: Option<&std::path::Path>,
    sid: u64,
    faults: FaultConfig,
    transfer: &SnapshotTransfer,
) -> Result<usize, ServerError> {
    durable_log(&mut slot.wal)?;
    let root = root.ok_or_else(|| ServerError::Replication("durability is disabled".into()))?;
    install_replica(&session_dir(root, sid), transfer)
        .map_err(|e| ServerError::Replication(e.to_string()))?;
    // Rebuild the slot from the installed state — the restore path.
    let (fresh, restored) = recover_slot(root, sid, faults, ServerError::Replication)?;
    *slot = fresh;
    Ok(restored)
}

/// Checkpoint one slot into a generation above `floor` (one step of
/// the promotion fence and the graceful-shutdown flush). `false` when
/// there is nothing to fence.
fn run_checkpoint(slot: &mut SessionSlot, floor: u64) -> Result<bool, ServerError> {
    if slot.poisoned {
        return Ok(false);
    }
    // A doomed log (a follower whose replica apply failed) keeps its
    // last good state on disk; its memory is not worth a snapshot.
    let Some(wal) = slot.wal.as_mut().filter(|wal| !wal.is_doomed()) else {
        return Ok(false);
    };
    wal.checkpoint_above(&slot.session, floor)
        .map(|()| true)
        .map_err(|e| {
            // Same failure posture as SAVE: the slot poisons, the
            // sweep keeps fencing the others.
            slot.poisoned = true;
            metrics::add(Counter::SessionsPanicked, 1);
            ServerError::Durability(e.to_string())
        })
}

/// Render a caught panic payload (the common `&str`/`String` cases;
/// anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Run `f`, a panic becoming a typed error.
fn caught<T>(f: impl FnOnce() -> Result<T, ServerError>) -> Result<T, ServerError> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|payload| Err(ServerError::SessionInit(panic_message(payload.as_ref()))))
}

/// A fresh slot for session `sid`, recovered from its durable state
/// under `root` (snapshot plus log replay) and then armed with
/// `faults`, with the number of bindings and records restored. The
/// session is inert while it recovers, so recoveries are deterministic.
/// `wrap` types a log failure for the caller's verb.
fn recover_slot(
    root: &std::path::Path,
    sid: u64,
    faults: FaultConfig,
    wrap: fn(String) -> ServerError,
) -> Result<(SessionSlot, usize), ServerError> {
    caught(|| {
        let mut session =
            Session::try_new().map_err(|e| ServerError::SessionInit(e.to_string()))?;
        let (wal, report) = SessionLog::open(&session_dir(root, sid), &mut session)
            .map_err(|e| wrap(e.to_string()))?;
        session.engine().set_faults(faults, sid);
        let restored = report.snapshot_bindings + report.records_replayed as usize;
        let slot = SessionSlot {
            session,
            poisoned: false,
            wal: Some(wal),
        };
        Ok((slot, restored))
    })
}

fn run_save(slot: &mut SessionSlot, sid: u64) -> Result<u64, ServerError> {
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
    slot: &mut SessionSlot,
    root: Option<&std::path::Path>,
    sid: u64,
    faults: FaultConfig,
) -> Result<usize, ServerError> {
    let Some(root) = root else {
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
    let (fresh, restored) = recover_slot(root, sid, faults, ServerError::Durability)?;
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
    slot: &mut SessionSlot,
    sid: u64,
    src: &str,
    guard: &Arc<QueryGuard>,
    follower: bool,
) -> Result<Vec<String>, ServerError> {
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
    // Waiting for the session may already have consumed the deadline
    // (or the client cancelled before we started): trip without
    // evaluating.
    if let Some(trip) = guard.check() {
        return Err(stopped(trip));
    }
    slot.session.engine().set_guard(Some(Arc::clone(guard)));
    let t0 = machiavelli_trace::now_ns();
    let outcome = catch_unwind(AssertUnwindSafe(|| slot.session.run_partial(src)));
    // Evaluation wall time (waiting for the session excluded —
    // shed/depth cover the admission side), observed for every query that ran, whatever the
    // outcome: error latencies are latencies too.
    machiavelli_trace::observe_query_ns(machiavelli_trace::now_ns().saturating_sub(t0));
    slot.session.engine().set_guard(None);
    match outcome {
        Ok(result) => {
            let (outcomes, error) = match result {
                Ok(outcomes) => (outcomes, None),
                Err(partial) => (partial.completed, Some(partial.error)),
            };
            // Commit before reporting: memory now holds this
            // evaluation, so disk must too before the client can
            // observe a result it might rely on — and that includes
            // the phrases of a failed program that completed before
            // the failing one, whose bindings stand. A commit failure
            // fail-hards (poison + typed error) — a session that
            // silently drifted ahead of its log would turn the next
            // crash into data loss. A read commits nothing on either
            // role: `it` is scratch (`machiavelli_wal::is_scratch`), so
            // the commit has nothing to append. Followers never
            // commit at all: their log is the primary's byte-for-byte.
            if !follower && (error.is_none() || !outcomes.is_empty()) {
                if let Some(wal) = slot.wal.as_mut() {
                    if let Err(e) = wal.commit(&slot.session, &outcomes) {
                        slot.poisoned = true;
                        metrics::add(Counter::SessionsPanicked, 1);
                        return Err(ServerError::Durability(e.to_string()));
                    }
                }
            }
            match error {
                None => {
                    // A trip can latch after the last governance tick
                    // (row charges land when a set materializes, which
                    // may be the query's final step). The latch is
                    // sticky: honor it even though evaluation ran to
                    // completion, so ceilings are ceilings.
                    if let Some(trip) = guard.tripped() {
                        return Err(stopped(trip));
                    }
                    metrics::add(Counter::QueriesCompleted, 1);
                    Ok(outcomes.iter().map(|o| o.show()).collect())
                }
                Some(SessionError::Eval(EvalError::Interrupted(trip))) => Err(stopped(trip)),
                Some(e) => {
                    // An ordinary query error: the query *completed*,
                    // with a diagnosis. The session stays healthy.
                    metrics::add(Counter::QueriesCompleted, 1);
                    Err(ServerError::Query(e.to_string()))
                }
            }
        }
        Err(payload) => {
            // The evaluator panicked. The session's environments may
            // be torn mid-update, so poison it: it never evaluates
            // again. The calling thread and every other session are
            // untouched.
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
            queue_cap: 8,
            row_budget: None,
            faults: Some(FaultConfig::off()),
            ..ServerConfig::default()
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
    fn adopting_a_session_id_with_no_successor_is_refused() {
        let server = Server::start(quiet());
        assert!(matches!(
            server.adopt_session(u64::MAX),
            Err(ServerError::Replication(_))
        ));
        let sid = server.open_session().expect("open");
        assert_eq!(
            server.eval(sid, "1 + 2;").expect("eval"),
            vec!["val it = 3 : int".to_string()]
        );
        server.shutdown();
    }

    #[test]
    fn many_sessions_keep_their_own_state() {
        let server = Server::start(quiet());
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
