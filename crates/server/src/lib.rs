//! A resilient multi-session server for Machiavelli.
//!
//! Hosts N concurrent interpreter sessions over the process-wide
//! shared index tier, with the resilience properties a long-running
//! database service needs:
//!
//! * **Panic isolation** — an evaluator panic poisons only its own
//!   session; the server and every other session keep running.
//! * **Deadlines & cancellation** — each query carries a
//!   [`QueryGuard`] polled cooperatively by the evaluator and the
//!   parallel chunk loops.
//! * **Admission control** — bounded per-worker queues shed load with
//!   a typed [`ServerError::Busy`] instead of queueing unbounded work.
//! * **Fault injection** — [`faults`] provides seeded fail points
//!   (evaluator panics, worker panics, spawn failures, delays,
//!   store-lock poisoning) so the chaos suite can prove the above.
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
pub use wire::{serve_connection, serve_connection_with_limit};

pub use machiavelli_value::governor::{QueryGuard, Trip};
