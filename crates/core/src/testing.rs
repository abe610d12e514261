//! **Test support**: sessions and execution modes pinned so that no
//! test, golden, bench assertion or experiment depends on whatever ran
//! earlier in the session. Every plan-rendering or counter-asserting
//! caller (unit tests here and the root `tests/`) goes through these
//! helpers instead of carrying its own set/restore sequence.

use crate::Session;
use machiavelli_value::show_value;

/// A prelude session whose plans, counters and traces start from
/// nothing: cold index store and zeroed session counters.
pub fn pinned_session() -> Session {
    let s = Session::new();
    s.reset_stats();
    s
}

/// A prelude session whose prepared-phrase cache holds nothing: every
/// phrase is parsed and inferred. The reference the prepared path is
/// compared against (`tests/prepared_shapes.rs`).
pub fn uncached_session() -> Session {
    Session::new().uncached()
}

/// The execution mode the equivalence tests vary, per session
/// ([`Session::engine`]).
pub use machiavelli_store::Mode;

/// Evaluate `src` in `session` under `mode`, rendering the final value
/// (or the error) — the comparable form the equivalence tests diff. The
/// session's previous mode is restored afterwards.
pub fn run_in(session: &mut Session, src: &str, mode: Mode) -> Result<String, String> {
    let prev = session.engine().set_mode(mode);
    let out = session
        .eval_one(src)
        .map(|o| show_value(&o.value))
        .map_err(|e| e.to_string());
    session.engine().set_mode(prev);
    out
}
