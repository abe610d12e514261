//! **Test support**: sessions and execution modes pinned so that no
//! test, golden, bench assertion or experiment depends on the host —
//! `available_parallelism`, `MACHI*` variables, or whatever ran earlier
//! on the thread. Every plan-rendering or counter-asserting caller
//! (unit tests here, the root `tests/`, `experiments`, the benches'
//! engagement checks) goes through these helpers instead of carrying
//! its own set/restore sequence.

use crate::Session;
use machiavelli_value::{show_value, tuning};

/// A prelude session whose plans, counters and traces are
/// host-independent: cold index store, zeroed session counters, and the
/// worker-thread count pinned to `threads` (the pin outlives the
/// session on this thread; tests are one thread each).
pub fn pinned_session(threads: usize) -> Session {
    let s = Session::new();
    s.reset_stats();
    s.set_par_threads(Some(threads));
    s
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
    /// The parallel lane: `None` disables it, `Some(t)` enables it at
    /// `t` worker threads.
    pub lane: Option<usize>,
    /// Lower the lane's size gate to its minimum — one-row morsels, so
    /// the plain-key join's two-morsel gate is two rows and every probe
    /// row is its own task — so small test relations engage the lane.
    /// `false` leaves the default.
    pub tiny_gates: bool,
}

impl Mode {
    /// The reference semantics: planner, store and lane all off.
    pub const SELECT_LOOP: Mode = Mode {
        planner: false,
        store: false,
        lane: None,
        tiny_gates: false,
    };

    /// The planner's pipeline with the lane set to `lane` and tiny
    /// gates, store `store`.
    pub fn planned(store: bool, lane: Option<usize>) -> Mode {
        Mode {
            planner: true,
            store,
            lane,
            tiny_gates: true,
        }
    }
}

/// Run `f` with this thread's execution mode set to `mode`, restoring
/// every override afterwards.
pub fn with_mode<R>(mode: Mode, f: impl FnOnce() -> R) -> R {
    let prev_planner = machiavelli_eval::set_planner_enabled(mode.planner);
    let prev_store = machiavelli_store::set_store_enabled(mode.store);
    let prev_enabled = tuning::set_parallel_enabled(mode.lane.is_some());
    let prev_threads = tuning::set_par_threads(mode.lane);
    let prev_morsel = tuning::set_morsel_rows(mode.tiny_gates.then_some(1));
    let out = f();
    tuning::set_morsel_rows(prev_morsel);
    tuning::set_par_threads(prev_threads);
    tuning::set_parallel_enabled(prev_enabled);
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
