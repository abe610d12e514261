//! Fault-injection knobs, re-exported at the server boundary.
//!
//! The fail points live in `machiavelli_value::faults` (the one crate
//! every layer already depends on), but the *server* is the component
//! that turns them on — via [`ServerConfig::faults`] or the
//! `MACHIAVELLI_FAULT_*` environment variables — so the surface is
//! re-exported here as `machiavelli_server::faults` for chaos suites
//! and operators. The fail points, their `FaultConfig` fields and their
//! environment variables are tabulated once, in `docs/RESILIENCE.md`
//! ("Fault injection").
//!
//! [`ServerConfig::faults`]: crate::ServerConfig

pub use machiavelli_value::faults::{
    fault_config, faults_active, fire, set_fault_config, FaultConfig, FaultPoint,
    INJECTED_PANIC_PREFIX,
};
