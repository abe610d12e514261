//! **Test support**: sessions and execution modes pinned so that no
//! test, golden, bench assertion or experiment depends on whatever ran
//! earlier on the thread. Every plan-rendering or counter-asserting
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

/// One explicit execution mode: which of the engine's interchangeable
/// strategies may run. The paper's comprehension has one meaning; the
/// equivalence tests evaluate the same phrase under several modes and
/// compare.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Plan dispatch (`false` = the `select_loop` reference semantics).
    pub planner: bool,
    /// Index-store consultation.
    pub store: bool,
}

impl Mode {
    /// The reference semantics: planner and store off.
    pub const SELECT_LOOP: Mode = Mode {
        planner: false,
        store: false,
    };

    /// The planner's pipeline, store `store`.
    pub fn planned(store: bool) -> Mode {
        Mode {
            planner: true,
            store,
        }
    }
}

/// Run `f` with this thread's execution mode set to `mode`, restoring
/// every override afterwards.
pub fn with_mode<R>(mode: Mode, f: impl FnOnce() -> R) -> R {
    let prev_planner = machiavelli_eval::set_planner_enabled(mode.planner);
    let prev_store = machiavelli_store::set_store_enabled(mode.store);
    let out = f();
    machiavelli_store::set_store_enabled(prev_store);
    machiavelli_eval::set_planner_enabled(prev_planner);
    out
}

/// Evaluate `src` under `mode`, rendering the final value (or the
/// error) — the comparable form the equivalence tests diff.
pub fn run_in(session: &mut Session, src: &str, mode: Mode) -> Result<String, String> {
    with_mode(mode, || {
        session
            .eval_one(src)
            .map(|o| show_value(&o.value))
            .map_err(|e| e.to_string())
    })
}
