//! Structured server errors.
//!
//! Every failure a hosted query can experience maps onto exactly one of
//! these variants, so clients can distinguish "your query was wrong"
//! ([`ServerError::Query`]) from "the server protected itself"
//! (admission, deadlines, budgets) from "your session is gone"
//! (panic poisoning). None of them abort the process.

use machiavelli::store::governor::Trip;
use std::fmt;

/// A structured error from the session server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// Admission control shed the request: too many evals were already
    /// waiting for the session. The request never ran; retry later.
    Busy,
    /// The session id is not open on this server.
    NoSuchSession(u64),
    /// A previous query panicked inside this session; the session is
    /// poisoned and only `close` is accepted for it.
    SessionPoisoned(u64),
    /// This query panicked inside the evaluator. The panic was caught
    /// on the evaluating thread; the session is now poisoned, the
    /// server and all other sessions are unaffected.
    SessionPanicked(String),
    /// The query exceeded its deadline and was stopped cooperatively.
    DeadlineExceeded,
    /// The query was cancelled by the client.
    Cancelled,
    /// The query exceeded the per-query row budget.
    RowBudgetExceeded,
    /// An ordinary query failure (parse, type, or runtime error),
    /// pre-rendered by the session.
    Query(String),
    /// The server could not construct the session (prelude failure).
    SessionInit(String),
    /// The session's write-ahead log rejected a commit, checkpoint, or
    /// recovery (torn write, failed sync, corrupt file). Fail-hard:
    /// the session is poisoned rather than allowed to drift from its
    /// durable state, and `RESTORE` re-materializes it from disk.
    Durability(String),
    /// The server could not start a thread to run the request.
    Shutdown,
    /// This server is a read-only follower: the request would write
    /// (a `val`/`fun` declaration, a `:=` assignment, or a `SAVE`) and
    /// writes belong on the primary.
    ReadOnly,
    /// A shipped commit group carried a stale generation — a fenced old
    /// primary replaying after a promotion. Rejected whole.
    StaleGeneration { got: u64, have: u64 },
    /// A replication transfer failed (diverged follower, bad transfer
    /// payload, or a replication request against a non-durable server).
    Replication(String),
    /// A request line exceeded the server's line cap
    /// (`MACHID_MAX_LINE_BYTES`); the oversized line was discarded and
    /// the connection stays usable.
    LineTooLong(usize),
}

impl ServerError {
    /// A stable machine-readable tag for the wire protocol.
    pub fn kind(&self) -> &'static str {
        match self {
            ServerError::Busy => "busy",
            ServerError::NoSuchSession(_) => "no-such-session",
            ServerError::SessionPoisoned(_) => "session-poisoned",
            ServerError::SessionPanicked(_) => "session-panicked",
            ServerError::DeadlineExceeded => "deadline",
            ServerError::Cancelled => "cancelled",
            ServerError::RowBudgetExceeded => "row-budget",
            ServerError::Query(_) => "query",
            ServerError::SessionInit(_) => "session-init",
            ServerError::Durability(_) => "durability",
            ServerError::Shutdown => "shutdown",
            ServerError::ReadOnly => "read-only",
            ServerError::StaleGeneration { .. } => "stale-generation",
            ServerError::Replication(_) => "replication",
            ServerError::LineTooLong(_) => "protocol",
        }
    }

    /// Maps a governor trip onto its server-level error.
    pub fn from_trip(trip: Trip) -> ServerError {
        match trip {
            Trip::Cancelled => ServerError::Cancelled,
            Trip::DeadlineExceeded => ServerError::DeadlineExceeded,
            Trip::RowBudgetExceeded => ServerError::RowBudgetExceeded,
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Busy => write!(f, "server busy: admission queue full"),
            ServerError::NoSuchSession(sid) => write!(f, "no such session: {sid}"),
            ServerError::SessionPoisoned(sid) => {
                write!(f, "session {sid} is poisoned by an earlier panic")
            }
            ServerError::SessionPanicked(msg) => write!(f, "session panicked: {msg}"),
            ServerError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            ServerError::Cancelled => write!(f, "query cancelled"),
            ServerError::RowBudgetExceeded => write!(f, "query row budget exceeded"),
            ServerError::Query(msg) => write!(f, "{msg}"),
            ServerError::SessionInit(msg) => write!(f, "session init failed: {msg}"),
            ServerError::Durability(msg) => write!(f, "durability failure: {msg}"),
            ServerError::Shutdown => write!(f, "server is shut down"),
            ServerError::ReadOnly => {
                write!(
                    f,
                    "this server is a read-only follower; write on the primary"
                )
            }
            ServerError::StaleGeneration { got, have } => write!(
                f,
                "stale generation: shipped group stamped gen {got}, log is at gen {have}"
            ),
            ServerError::Replication(msg) => write!(f, "replication failure: {msg}"),
            ServerError::LineTooLong(cap) => {
                write!(
                    f,
                    "line-too-long: request exceeded {cap} bytes and was discarded"
                )
            }
        }
    }
}

impl std::error::Error for ServerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_and_stable() {
        let all = [
            ServerError::Busy,
            ServerError::NoSuchSession(1),
            ServerError::SessionPoisoned(1),
            ServerError::SessionPanicked("x".into()),
            ServerError::DeadlineExceeded,
            ServerError::Cancelled,
            ServerError::RowBudgetExceeded,
            ServerError::Query("x".into()),
            ServerError::SessionInit("x".into()),
            ServerError::Durability("x".into()),
            ServerError::Shutdown,
            ServerError::ReadOnly,
            ServerError::StaleGeneration { got: 0, have: 1 },
            ServerError::Replication("x".into()),
            ServerError::LineTooLong(1024),
        ];
        let mut kinds: Vec<_> = all.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), all.len(), "every variant has a unique kind");
    }

    #[test]
    fn trips_map_onto_their_errors() {
        assert_eq!(
            ServerError::from_trip(Trip::DeadlineExceeded),
            ServerError::DeadlineExceeded
        );
        assert_eq!(
            ServerError::from_trip(Trip::Cancelled),
            ServerError::Cancelled
        );
        assert_eq!(
            ServerError::from_trip(Trip::RowBudgetExceeded),
            ServerError::RowBudgetExceeded
        );
    }
}
