//! Fault-injection knobs, re-exported at the server boundary.
//!
//! The fail points live in `machiavelli_store::faults`, next to the
//! session's engine context that owns each fault stream, but the
//! *server* is the component that turns them on — it arms every session
//! it opens or recovers with [`ServerConfig::faults`] or the
//! `MACHIAVELLI_FAULT_*` environment variables — so the surface is
//! re-exported here as `machiavelli_server::faults` for chaos suites
//! and operators. The fail points, their `FaultConfig` fields and their
//! environment variables are tabulated once, in `docs/RESILIENCE.md`
//! ("Fault injection").
//!
//! [`ServerConfig::faults`]: crate::ServerConfig

pub use machiavelli::store::faults::{FaultConfig, FaultPoint, INJECTED_PANIC_PREFIX};
