//! **Tuning knobs for the parallel lane and the index store**, in one
//! place: every magic size threshold in the workspace lives here as a
//! named, documented constant with an environment override (for
//! benching) and — where sessions need to steer it — a thread-local
//! override (for tests and `Session` configuration).
//!
//! Resolution order for every knob: thread-local override (set by a
//! `Session` method or a test) → environment variable (read once per
//! process) → the documented default constant.
//!
//! | knob | default | env |
//! |---|---|---|
//! | worker threads | `available_parallelism` | `MACHIAVELLI_PAR_THREADS` |
//! | morsel size (rows) | [`DEFAULT_MORSEL_ROWS`] | `MACHIAVELLI_MORSEL_ROWS` |
//! | index-store row budget | [`DEFAULT_STORE_BUDGET_ROWS`] | `MACHIAVELLI_STORE_BUDGET_ROWS` |
//! | query tracing (per-operator spans) | off | `MACHIAVELLI_TRACE` |
//!
//! Two sizes are **derived, not knobs**: the plain-key join's size gate
//! is two morsels ([`par_join_min_rows`]) and its probe-drain cap is
//! [`PAR_JOIN_MAX_PROBE_FACTOR`] × the build rows.
//!
//! (This table is the authoritative list for this crate;
//! `docs/PERFORMANCE.md` indexes every `MACHI*` variable in the
//! workspace. The tracing knob lives in `machiavelli-trace` — same
//! resolution order, thread-local setter
//! `machiavelli_trace::set_tracing`.)
//!
//! The module also hosts the session-scoped (thread-local) **parallel
//! ablation toggle** ([`set_parallel_enabled`], mirroring the store's
//! `set_store_enabled`) and the **parallel hit/fallback counters**
//! ([`ParStats`]) surfaced by `Session::par_stats` and the REPL's
//! `:stats`.

use std::cell::Cell;
use std::sync::OnceLock;

// --- documented defaults ---------------------------------------------------

/// The plain-key join materializes the probe side before fanning out
/// (the sequential probe streams it); to bound that memory, draining
/// stops after `build_rows × this factor` rows and the join falls back
/// to the streaming sequential probe over the drained prefix plus the
/// live remainder. 64 keeps the common shapes (probe within an order
/// of magnitude of the build) on the parallel path while capping
/// pathological pipelines.
pub const PAR_JOIN_MAX_PROBE_FACTOR: usize = 64;

/// Default index-store row budget: generous for the paper-scale
/// workloads while still bounding a long session that touches many
/// relations (the store's LRU evicts past it).
pub const DEFAULT_STORE_BUDGET_ROWS: usize = 1 << 20;

/// Rows per **morsel** — the unit of work the scheduler hands to (and
/// lets workers steal between) its deques. Small enough that a skewed
/// probe cannot serialize the fan-out on one slow range, large enough
/// that per-morsel bookkeeping stays negligible against the per-row
/// work.
pub const DEFAULT_MORSEL_ROWS: usize = 2048;

// --- env-backed resolution -------------------------------------------------

fn env_usize(var: &'static str, cache: &'static OnceLock<Option<usize>>) -> Option<usize> {
    *cache.get_or_init(|| {
        std::env::var(var)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

thread_local! {
    static PAR_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
    static MORSEL_ROWS: Cell<Option<usize>> = const { Cell::new(None) };
    static PARALLEL_ENABLED: Cell<bool> = const { Cell::new(true) };
    static STORE_EPOCH_CLEAR: Cell<bool> = const { Cell::new(false) };
    static PAR_STATS: Cell<ParStats> = const { Cell::new(ParStats::new()) };
    static EXEC_STATS: Cell<ExecStats> =
        const { Cell::new(ExecStats { morsels_executed: 0, morsels_stolen: 0 }) };
}

/// Worker-thread count for the parallel lane on this thread (= session):
/// explicit override → `MACHIAVELLI_PAR_THREADS` → the machine's
/// `available_parallelism`. Always ≥ 1; a value of 1 disables the
/// parallel lane entirely (everything stays sequential).
pub fn par_threads() -> usize {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    // `available_parallelism` is a surprisingly expensive probe
    // (affinity + cgroup parsing, ~tens of µs) and this accessor sits
    // on every join open — resolve the machine default once.
    static MACHINE: OnceLock<usize> = OnceLock::new();
    PAR_THREADS
        .with(Cell::get)
        .or_else(|| env_usize("MACHIAVELLI_PAR_THREADS", &ENV))
        .unwrap_or_else(|| {
            *MACHINE.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
        })
        .max(1)
}

/// Override the worker-thread count on this thread (`None` restores the
/// env/default resolution), returning the previous override.
pub fn set_par_threads(n: Option<usize>) -> Option<usize> {
    PAR_THREADS.with(|c| c.replace(n.map(|n| n.max(1))))
}

/// The morsel size currently in force (thread-local override →
/// `MACHIAVELLI_MORSEL_ROWS` → [`DEFAULT_MORSEL_ROWS`]). Always ≥ 1.
pub fn morsel_rows() -> usize {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    MORSEL_ROWS
        .with(Cell::get)
        .or_else(|| env_usize("MACHIAVELLI_MORSEL_ROWS", &ENV))
        .unwrap_or(DEFAULT_MORSEL_ROWS)
        .max(1)
}

/// Override the morsel size on this thread (tests shrink it to force
/// many morsels over small relations), returning the previous override.
pub fn set_morsel_rows(n: Option<usize>) -> Option<usize> {
    MORSEL_ROWS.with(|c| c.replace(n.map(|n| n.max(1))))
}

/// The plain-key join's size gate: **two morsels**. Below it a join
/// stays on the streaming sequential hash join — an inline plain build
/// compares its build rows against it, a probe of a cached plain index
/// its probe rows. One morsel would fan out at degree 1; two is the
/// smallest input the fan-out can split.
pub fn par_join_min_rows() -> usize {
    2 * morsel_rows()
}

/// The index-store row budget to use for a fresh store (no thread-local
/// override: live stores take `IndexStore::set_budget`).
pub fn store_budget_rows() -> usize {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    env_usize("MACHIAVELLI_STORE_BUDGET_ROWS", &ENV).unwrap_or(DEFAULT_STORE_BUDGET_ROWS)
}

// --- ablation toggle -------------------------------------------------------

/// Is the parallel lane enabled on this thread? (Mirrors the store's
/// `store_enabled`: benches and the equivalence tests flip it off to
/// measure/compare the sequential path.)
pub fn parallel_enabled() -> bool {
    PARALLEL_ENABLED.with(Cell::get)
}

/// Enable/disable the parallel lane on this thread, returning the
/// previous setting (so callers can restore it).
pub fn set_parallel_enabled(on: bool) -> bool {
    PARALLEL_ENABLED.with(|c| c.replace(on))
}

/// Is the index store's **paranoid whole-clear** mode on? When `true`
/// the store reverts to the PR 4 invalidation discipline — drop *every*
/// entry on any reference write — instead of the dirty-set eviction
/// that keeps unaffected entries warm. Kept as an A/B cross-check: the
/// equivalence property tests run both modes and require identical
/// visible results (the precise mode just evicts less).
pub fn store_epoch_clear() -> bool {
    STORE_EPOCH_CLEAR.with(Cell::get)
}

/// Switch the store's paranoid whole-clear mode on/off for this thread,
/// returning the previous setting.
pub fn set_store_epoch_clear(on: bool) -> bool {
    STORE_EPOCH_CLEAR.with(|c| c.replace(on))
}

// --- hit/fallback counters -------------------------------------------------

/// Cumulative parallel-lane counters for this thread (= session),
/// surfaced by `Session::par_stats` and the REPL's `:stats`.
///
/// A **hit** is an execution that actually ran on the parallel lane. A
/// **fallback** is an execution that passed the static and size gates
/// but fell back to the sequential path at runtime — a value failed
/// `to_plain` extraction (identity- or code-bearing data in a key),
/// the safe evaluator declined a key expression, or the probe drain hit
/// its memory cap. Executions that never reach the gates
/// (lane disabled, one thread, sub-threshold input, shape not eligible)
/// are not counted at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Hash joins probed on the plain-key parallel path (over an inline
    /// plain table or a store-served plain index alike).
    pub par_joins: u64,
    /// Eligible hash joins that fell back to the sequential build/probe.
    pub par_join_fallbacks: u64,
}

impl ParStats {
    const fn new() -> ParStats {
        ParStats {
            par_joins: 0,
            par_join_fallbacks: 0,
        }
    }
}

/// This thread's parallel-lane counters.
pub fn par_stats() -> ParStats {
    PAR_STATS.with(Cell::get)
}

/// Zero this thread's parallel-lane counters.
pub fn reset_par_stats() {
    PAR_STATS.with(|c| c.set(ParStats::new()));
}

/// Record a plain-key join outcome (`hit` = probed on the parallel
/// path).
pub fn note_par_join(hit: bool) {
    PAR_STATS.with(|c| {
        let mut s = c.get();
        if hit {
            s.par_joins += 1;
        } else {
            s.par_join_fallbacks += 1;
        }
        c.set(s);
    });
}

// --- scheduler counters ----------------------------------------------------

/// Cumulative morsel-scheduler counters for this thread (= session),
/// surfaced by `Session::exec_stats` and the REPL's `:stats`.
/// Aggregated per scheduler run on the coordinating thread — worker
/// threads never touch the thread-local.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Morsels (fixed-size row ranges) executed by scheduler workers.
    pub morsels_executed: u64,
    /// Morsels a worker stole from another worker's deque (a subset of
    /// `morsels_executed`; > 0 means work stealing actually engaged).
    pub morsels_stolen: u64,
}

/// This thread's scheduler counters.
pub fn exec_stats() -> ExecStats {
    EXEC_STATS.with(Cell::get)
}

/// Zero this thread's scheduler counters.
pub fn reset_exec_stats() {
    EXEC_STATS.with(|c| c.set(ExecStats::default()));
}

/// Record one scheduler run's morsel totals (aggregated by the
/// coordinator after workers join; `stolen` ≤ `executed`).
pub fn note_morsels(executed: u64, stolen: u64) {
    EXEC_STATS.with(|c| {
        let mut s = c.get();
        s.morsels_executed += executed;
        s.morsels_stolen += stolen;
        c.set(s);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_local_overrides_win_and_restore() {
        let prev = set_par_threads(Some(3));
        assert_eq!(par_threads(), 3);
        set_par_threads(prev);

        let prev = set_morsel_rows(Some(11));
        assert_eq!(morsel_rows(), 11);
        assert_eq!(par_join_min_rows(), 22, "the join gate is two morsels");
        set_morsel_rows(prev);
    }

    #[test]
    fn morsel_rows_clamps_to_one() {
        let prev = set_morsel_rows(Some(0));
        assert_eq!(morsel_rows(), 1);
        set_morsel_rows(prev);
    }

    #[test]
    fn exec_counters_accumulate_and_reset() {
        reset_exec_stats();
        note_morsels(8, 3);
        note_morsels(2, 0);
        let s = exec_stats();
        assert_eq!((s.morsels_executed, s.morsels_stolen), (10, 3));
        reset_exec_stats();
        assert_eq!(exec_stats(), ExecStats::default());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let prev = set_par_threads(Some(0));
        assert_eq!(par_threads(), 1);
        set_par_threads(prev);
    }

    #[test]
    fn enable_toggle_round_trips() {
        let prev = set_parallel_enabled(false);
        assert!(!parallel_enabled());
        set_parallel_enabled(prev);
    }

    #[test]
    fn store_epoch_clear_toggle_round_trips() {
        assert!(!store_epoch_clear(), "precise invalidation is the default");
        let prev = set_store_epoch_clear(true);
        assert!(!prev);
        assert!(store_epoch_clear());
        set_store_epoch_clear(prev);
        assert!(!store_epoch_clear());
    }

    #[test]
    fn counters_accumulate_and_reset() {
        reset_par_stats();
        note_par_join(true);
        note_par_join(false);
        let s = par_stats();
        assert_eq!((s.par_joins, s.par_join_fallbacks), (1, 1));
        reset_par_stats();
        assert_eq!(par_stats(), ParStats::default());
    }
}
