//! **Cooperative resource governance** for server-hosted queries.
//!
//! A [`QueryGuard`] is the cancellation token the server attaches to
//! each admitted query: it carries an optional wall-clock deadline, an
//! optional row budget, and a cancel flag the client side can flip at
//! any time. The guard itself never interrupts anything — evaluation is
//! stopped *cooperatively*, at the evaluator's periodic tick
//! (`Cx::enter` in `machiavelli-eval`), which polls the guard of the
//! session's eval in flight ([`EngineCtx::tick`]).
//!
//! Trips are **sticky**: once a guard observes a cancel, a blown
//! deadline, or an exhausted row budget it stays tripped, so every later
//! check — including the server's post-eval re-check — surfaces the same
//! [`Trip`].
//!
//! The guard belongs to the session it governs
//! ([`EngineCtx::set_guard`]); rows are charged where evaluation builds
//! a set ([`EngineCtx::charge_rows`]).
//!
//! [`EngineCtx::tick`]: crate::EngineCtx::tick
//! [`EngineCtx::set_guard`]: crate::EngineCtx::set_guard
//! [`EngineCtx::charge_rows`]: crate::EngineCtx::charge_rows

use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Why a governed query was stopped. Carried by the evaluator's
/// `Interrupted` error variant all the way to the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trip {
    /// The client (or the server tearing a session down) cancelled the
    /// query.
    Cancelled,
    /// The per-query wall-clock deadline elapsed.
    DeadlineExceeded,
    /// The query materialized more rows than its budget allows.
    RowBudgetExceeded,
}

impl std::fmt::Display for Trip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trip::Cancelled => write!(f, "query cancelled"),
            Trip::DeadlineExceeded => write!(f, "query deadline exceeded"),
            Trip::RowBudgetExceeded => write!(f, "query row budget exceeded"),
        }
    }
}

const TRIP_NONE: u8 = 0;
const TRIP_CANCELLED: u8 = 1;
const TRIP_DEADLINE: u8 = 2;
const TRIP_ROWS: u8 = 3;

fn trip_from_u8(v: u8) -> Option<Trip> {
    match v {
        TRIP_CANCELLED => Some(Trip::Cancelled),
        TRIP_DEADLINE => Some(Trip::DeadlineExceeded),
        TRIP_ROWS => Some(Trip::RowBudgetExceeded),
        _ => None,
    }
}

/// A per-query cancellation token: deadline + row budget + cancel flag,
/// with a sticky trip latch. `Send + Sync`; the server holds one end,
/// the evaluating thread the other.
#[derive(Debug)]
pub struct QueryGuard {
    cancel: AtomicBool,
    deadline: Option<Instant>,
    /// `usize::MAX` = unlimited.
    rows_limit: usize,
    rows_used: AtomicUsize,
    /// Sticky latch: `TRIP_NONE` until the first trip, then frozen.
    tripped: AtomicU8,
}

impl QueryGuard {
    /// A guard with the given deadline and row budget (`None` =
    /// unlimited in both positions).
    pub fn new(deadline: Option<Instant>, rows_limit: Option<usize>) -> QueryGuard {
        QueryGuard {
            cancel: AtomicBool::new(false),
            deadline,
            rows_limit: rows_limit.unwrap_or(usize::MAX),
            rows_used: AtomicUsize::new(0),
            tripped: AtomicU8::new(TRIP_NONE),
        }
    }

    /// A guard whose deadline is `timeout` from now.
    pub fn with_timeout(timeout: Duration, rows_limit: Option<usize>) -> QueryGuard {
        QueryGuard::new(Instant::now().checked_add(timeout), rows_limit)
    }

    /// An unlimited guard (useful as a pure cancellation token).
    pub fn unlimited() -> QueryGuard {
        QueryGuard::new(None, None)
    }

    fn latch(&self, trip: u8) -> Trip {
        // First writer wins; later causes report whatever latched first,
        // keeping the reported reason stable across threads.
        let prev = self
            .tripped
            .compare_exchange(TRIP_NONE, trip, Ordering::AcqRel, Ordering::Acquire)
            .unwrap_or_else(|p| p);
        trip_from_u8(if prev == TRIP_NONE { trip } else { prev })
            .expect("latched trip is always a valid cause")
    }

    /// Request cancellation (idempotent, callable from any thread).
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
        self.latch(TRIP_CANCELLED);
    }

    /// The sticky trip, if any — does **not** probe the clock; use
    /// [`QueryGuard::check`] at tick sites.
    pub fn tripped(&self) -> Option<Trip> {
        trip_from_u8(self.tripped.load(Ordering::Acquire))
    }

    /// Poll the guard: returns the (sticky) trip cause if the query
    /// should stop. This is the tick-site entry point: it probes the
    /// cancel flag and the deadline clock and latches on first failure.
    pub fn check(&self) -> Option<Trip> {
        if let Some(t) = self.tripped() {
            return Some(t);
        }
        if self.cancel.load(Ordering::Acquire) {
            return Some(self.latch(TRIP_CANCELLED));
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(self.latch(TRIP_DEADLINE));
            }
        }
        None
    }

    /// Charge `n` materialized rows against the budget; trips (sticky)
    /// when the running total exceeds the limit. Returns the trip so a
    /// caller can surface it immediately rather than waiting for the
    /// next tick.
    pub fn charge_rows(&self, n: usize) -> Option<Trip> {
        if self.rows_limit == usize::MAX {
            return self.tripped();
        }
        let used = self
            .rows_used
            .fetch_add(n, Ordering::AcqRel)
            .saturating_add(n);
        if used > self.rows_limit {
            return Some(self.latch(TRIP_ROWS));
        }
        self.tripped()
    }

    /// Rows charged so far.
    pub fn rows_used(&self) -> usize {
        self.rows_used.load(Ordering::Acquire)
    }
}

// --- default query row budget ----------------------------------------------

/// Default per-query row budget for server sessions: unlimited unless
/// `MACHIAVELLI_QUERY_MAX_ROWS` is set (the server's `ServerConfig` can
/// override per instance).
pub fn query_max_rows() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("MACHIAVELLI_QUERY_MAX_ROWS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn cancel_is_sticky() {
        let g = QueryGuard::unlimited();
        assert_eq!(g.check(), None);
        g.cancel();
        assert_eq!(g.check(), Some(Trip::Cancelled));
        assert_eq!(g.tripped(), Some(Trip::Cancelled));
        // A later row overrun cannot overwrite the first cause.
        let g2 = QueryGuard::new(None, Some(1));
        g2.cancel();
        g2.charge_rows(10);
        assert_eq!(g2.tripped(), Some(Trip::Cancelled));
    }

    #[test]
    fn deadline_trips_and_latches() {
        let g = QueryGuard::new(Some(Instant::now() - Duration::from_millis(1)), None);
        assert_eq!(g.check(), Some(Trip::DeadlineExceeded));
        assert_eq!(g.tripped(), Some(Trip::DeadlineExceeded));
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let g = QueryGuard::with_timeout(Duration::from_secs(3600), None);
        assert_eq!(g.check(), None);
    }

    #[test]
    fn row_budget_trips_past_limit() {
        let g = QueryGuard::new(None, Some(100));
        assert_eq!(g.charge_rows(60), None);
        assert_eq!(g.charge_rows(39), None);
        assert_eq!(g.charge_rows(2), Some(Trip::RowBudgetExceeded));
        assert_eq!(g.check(), Some(Trip::RowBudgetExceeded));
        assert_eq!(g.rows_used(), 101);
    }

    #[test]
    fn install_round_trips_and_checks() {
        let ctx = crate::EngineCtx::default();
        assert_eq!(ctx.tick(), None, "an ungoverned session never trips");
        let guard = Arc::new(QueryGuard::unlimited());
        assert!(ctx.set_guard(Some(guard.clone())).is_none());
        assert_eq!(ctx.tick(), None);
        guard.cancel();
        assert_eq!(ctx.tick(), Some(Trip::Cancelled));
        assert!(ctx.set_guard(None).is_some());
        assert_eq!(ctx.tick(), None);
        assert_eq!(
            crate::EngineCtx::default().tick(),
            None,
            "a guard governs its own session only"
        );
    }

    #[test]
    fn charge_current_rows_reaches_installed_guard() {
        let ctx = crate::EngineCtx::default();
        ctx.charge_rows(10); // ungoverned: nothing to charge
        let guard = Arc::new(QueryGuard::new(None, Some(5)));
        ctx.set_guard(Some(guard.clone()));
        ctx.charge_rows(10);
        assert_eq!(guard.tripped(), Some(Trip::RowBudgetExceeded));
        assert_eq!(guard.rows_used(), 10);
    }
}
