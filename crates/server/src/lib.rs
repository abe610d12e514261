//! A resilient multi-session server for Machiavelli.
//!
//! Hosts N concurrent interpreter sessions with the resilience
//! properties a long-running database service needs:
//!
//! * **Panic isolation** — an evaluator panic poisons only its own
//!   session; the server and every other session keep running.
//! * **Deadlines & cancellation** — each query carries a
//!   [`QueryGuard`] polled cooperatively by the evaluator.
//! * **Admission control** — bounded per-worker queues shed load with
//!   a typed [`ServerError::Busy`] instead of queueing unbounded work.
//! * **Fault injection** — [`faults`] provides seeded fail points
//!   (evaluator panics, worker-spawn failures, delays, WAL and
//!   replication faults) so the chaos suites can prove the above.
//!
//! See `docs/RESILIENCE.md` for the full contract, and [`wire`] /
//! the `machid` binary for the line protocol.

pub mod error;
pub mod faults;
pub mod server;
pub mod wire;

pub use error::ServerError;
pub use server::{
    AckState, HealthReport, Pending, Server, ServerConfig, ServerRole, ServerStats, SlotHealth,
};
pub use wire::{serve_connection, serve_connection_with_limit, serve_tcp};

pub use machiavelli_value::governor::{QueryGuard, Trip};
