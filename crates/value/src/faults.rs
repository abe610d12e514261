//! **Seeded fault injection** — the chaos harness behind the server's
//! resilience tests and `server_bench`'s degradation runs.
//!
//! Every fail point in the workspace is one row of the [`FaultPoint`]
//! table below and is rolled through [`fire`]; what each one attacks,
//! its `FaultConfig` field and its environment variable are documented
//! once, in `docs/RESILIENCE.md` ("Fault injection").
//!
//! Probabilities are **parts per million** so low rates stay integral.
//! Randomness is a per-thread xorshift stream derived from the config
//! seed (`MACHIAVELLI_FAULT_SEED`, default 0) plus a process-wide thread
//! ordinal — a fixed seed gives a reproducible *distribution* of faults
//! (CI pins one), while remaining cheap and lock-free at the fail
//! points.
//!
//! Resolution mirrors `tuning`: a thread-local [`FaultConfig`] override
//! (set by tests, or by the server installing its captured config on
//! worker threads — thread locals do not inherit) falls back to an
//! env-derived process config read once. With nothing configured every
//! fail point is a single thread-local load.
//!
//! All *injected* panics carry messages prefixed `"injected fault:"`,
//! and every fault that fires is tallied in the metrics registry
//! ([`FaultPoint::tally`]), so the chaos suite can assert that observed
//! structured errors match what the harness actually threw.

use machiavelli_trace::metrics::{self, Counter};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// One row per fail point: the variant, its `FaultConfig` probability
/// field, the environment variable that sets it, and the registry
/// counter that tallies its injections.
macro_rules! fail_points {
    ($($(#[$doc:meta])* $point:ident, $field:ident, $env:literal, $tally:ident;)*) => {
        /// A place where the harness can inject a failure.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum FaultPoint {
            $($(#[$doc])* $point,)*
        }

        /// Probabilities (parts per million) and knobs for every fail
        /// point. `Copy` so it can live in a `Cell` and be shipped to
        /// worker threads.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct FaultConfig {
            $($(#[$doc])* pub $field: u32,)*
            /// Length of the `delay_ppm` sleep, in milliseconds.
            pub delay_ms: u64,
            /// Base seed for the per-thread fault streams.
            pub seed: u64,
        }

        impl FaultPoint {
            /// Every fail point, in table order.
            pub const ALL: &'static [FaultPoint] = &[$(FaultPoint::$point,)*];

            /// The environment variable holding this point's ppm.
            const fn env(self) -> &'static str {
                match self {
                    $(FaultPoint::$point => $env,)*
                }
            }

            /// The registry counter tallying this point's injections.
            pub const fn tally(self) -> Counter {
                match self {
                    $(FaultPoint::$point => Counter::$tally,)*
                }
            }
        }

        impl FaultConfig {
            /// No faults at all (the default).
            pub const fn off() -> FaultConfig {
                FaultConfig {
                    $($field: 0,)*
                    delay_ms: 0,
                    seed: 0,
                }
            }

            /// The probability configured for `point`.
            pub fn ppm(&self, point: FaultPoint) -> u32 {
                match point {
                    $(FaultPoint::$point => self.$field,)*
                }
            }

            fn ppm_mut(&mut self, point: FaultPoint) -> &mut u32 {
                match point {
                    $(FaultPoint::$point => &mut self.$field,)*
                }
            }
        }
    };
}

fail_points! {
    /// Panic at an evaluator tick (a simulated evaluator bug).
    EvalPanic, eval_panic_ppm, "MACHIAVELLI_FAULT_EVAL_PANIC_PPM", FaultEvalPanics;
    /// Panic at the start of a parallel chunk.
    WorkerPanic, worker_panic_ppm, "MACHIAVELLI_FAULT_WORKER_PANIC_PPM", FaultWorkerPanics;
    /// Report a worker spawn as failed; the caller takes its
    /// real-OS-decline fallback.
    SpawnFail, spawn_fail_ppm, "MACHIAVELLI_FAULT_SPAWN_FAIL_PPM", FaultSpawnFailures;
    /// Sleep `delay_ms` at an evaluator tick (forces deadline overruns).
    Delay, delay_ppm, "MACHIAVELLI_FAULT_DELAY_PPM", FaultDelays;
    /// Panic while holding the shared store lock; the store performs
    /// the panic so it lands mid-write.
    StorePoison, store_poison_ppm, "MACHIAVELLI_FAULT_STORE_POISON_PPM", FaultStorePoisons;
    /// Tear a WAL append: only a [`torn_cut`] prefix reaches the file,
    /// as if the process died mid-`write(2)`.
    WalTorn, wal_torn_ppm, "MACHIAVELLI_FAULT_WAL_TORN_PPM", FaultWalTornWrites;
    /// Report a WAL sync as failed: the log must stop trusting its
    /// unsynced tail.
    WalSyncFail, wal_sync_fail_ppm, "MACHIAVELLI_FAULT_WAL_SYNC_FAIL_PPM", FaultWalSyncFailures;
    /// Abort a checkpoint at a step boundary, as if the process died
    /// there.
    CheckpointKill, checkpoint_kill_ppm, "MACHIAVELLI_FAULT_CHECKPOINT_KILL_PPM", FaultCheckpointKills;
    /// Cut a shipped replication chunk mid-stream: only a [`torn_cut`]
    /// prefix reaches the follower.
    ShipDisconnect, ship_disconnect_ppm, "MACHIAVELLI_FAULT_SHIP_DISCONNECT_PPM", FaultShipDisconnects;
    /// Lose a follower's ack before the primary records it.
    AckLoss, ack_loss_ppm, "MACHIAVELLI_FAULT_ACK_LOSS_PPM", FaultAckLosses;
    /// Kill the follower between pump rounds (harness).
    FollowerKill, follower_kill_ppm, "MACHIAVELLI_FAULT_FOLLOWER_KILL_PPM", FaultFollowerKills;
    /// Land a promotion while a catch-up is in flight (harness).
    PromoteCatchup, promote_catchup_ppm, "MACHIAVELLI_FAULT_PROMOTE_CATCHUP_PPM", FaultPromoteCatchups;
}

impl FaultConfig {
    /// True when no fail point can ever fire.
    pub fn is_inert(&self) -> bool {
        FaultPoint::ALL.iter().all(|&p| self.ppm(p) == 0)
    }
}

fn env_num<T: std::str::FromStr + Default>(var: &str) -> T {
    std::env::var(var)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_default()
}

/// The process config derived from the environment (`None` when the
/// environment enables nothing — the common case, kept cheap).
fn env_config() -> Option<FaultConfig> {
    static ENV: OnceLock<Option<FaultConfig>> = OnceLock::new();
    *ENV.get_or_init(|| {
        let mut cfg = FaultConfig {
            delay_ms: env_num("MACHIAVELLI_FAULT_DELAY_MS"),
            seed: env_num("MACHIAVELLI_FAULT_SEED"),
            ..FaultConfig::off()
        };
        for &point in FaultPoint::ALL {
            *cfg.ppm_mut(point) = env_num(point.env());
        }
        (!cfg.is_inert()).then_some(cfg)
    })
}

thread_local! {
    /// `Some(cfg)` = thread-local override (use `FaultConfig::off()` to
    /// shield a thread from the env config); `None` = fall through to
    /// the env.
    static OVERRIDE: Cell<Option<FaultConfig>> = const { Cell::new(None) };
    static RNG: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide thread ordinal: combined with the seed so every thread
/// draws a distinct but reproducible stream.
static THREAD_ORDINAL: AtomicU64 = AtomicU64::new(0);

/// Set (or clear) this thread's fault config, returning the previous
/// override. `Some(cfg)` forces `cfg`; `None` restores env resolution.
/// To *shield* a thread from an env config, pass
/// `Some(FaultConfig::off())`. Setting a config reseeds this thread's
/// fault stream.
pub fn set_fault_config(cfg: Option<FaultConfig>) -> Option<FaultConfig> {
    let prev = OVERRIDE.with(|c| c.replace(cfg));
    RNG.with(|r| r.set(0)); // lazily reseeded on the next roll
    prev
}

/// The fault config in force on this thread (thread-local override →
/// environment → off).
pub fn fault_config() -> FaultConfig {
    OVERRIDE
        .with(Cell::get)
        .or_else(env_config)
        .unwrap_or(FaultConfig::off())
}

/// True when any fail point could fire on this thread — what a
/// coordinator checks before shipping its config to worker threads.
pub fn faults_active() -> bool {
    match OVERRIDE.with(Cell::get) {
        Some(cfg) => !cfg.is_inert(),
        None => env_config().is_some(),
    }
}

fn xorshift(state: u64) -> u64 {
    let mut x = state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Roll this thread's stream against a ppm probability.
fn roll(seed: u64, ppm: u32) -> bool {
    if ppm == 0 {
        return false;
    }
    let state = RNG.with(|r| {
        let mut s = r.get();
        if s == 0 {
            // First roll on this thread (or after a reseed): derive a
            // nonzero state from the config seed and the thread ordinal.
            let ordinal = THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed);
            s = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(ordinal.wrapping_mul(0xBF58_476D_1CE4_E5B9))
                | 1;
        }
        s = xorshift(s);
        r.set(s);
        s
    });
    (state % 1_000_000) < u64::from(ppm)
}

// --- fail points ------------------------------------------------------------

/// Message prefix on every injected panic; the server's panic-to-error
/// mapping and the chaos assertions both key on it.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault:";

/// Roll `point` against this thread's config. Returns `true` — and
/// tallies the injection — when the caller should fail here; the caller
/// performs the failure so it happens at exactly the right place.
pub fn fire(point: FaultPoint) -> bool {
    // A zero ppm — every point, when nothing is configured — returns
    // before the stream is touched.
    let cfg = fault_config();
    let fired = roll(cfg.seed, cfg.ppm(point));
    if fired {
        metrics::add(point.tally(), 1);
    }
    fired
}

/// [`FaultPoint::EvalPanic`] at the evaluator tick.
pub fn maybe_eval_panic() {
    if fire(FaultPoint::EvalPanic) {
        panic!("{INJECTED_PANIC_PREFIX} evaluator panic");
    }
}

/// [`FaultPoint::WorkerPanic`] at the start of a parallel chunk.
pub fn maybe_worker_panic() {
    if fire(FaultPoint::WorkerPanic) {
        panic!("{INJECTED_PANIC_PREFIX} worker panic");
    }
}

/// [`FaultPoint::Delay`] at the evaluator tick.
pub fn maybe_delay() {
    if fire(FaultPoint::Delay) {
        std::thread::sleep(Duration::from_millis(fault_config().delay_ms.max(1)));
    }
}

/// How many bytes of a torn `len`-byte write actually land: a seeded
/// draw in `0..len` from this thread's fault stream, so a pinned seed
/// reproduces the same cut points. (`len == 0` → 0.)
pub fn torn_cut(len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let state = RNG.with(|r| {
        let s = xorshift(r.get() | 1);
        r.set(s);
        s
    });
    (state % len as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn certain(point: FaultPoint, seed: u64) -> FaultConfig {
        let mut cfg = FaultConfig {
            seed,
            ..FaultConfig::off()
        };
        *cfg.ppm_mut(point) = 1_000_000;
        cfg
    }

    #[test]
    fn inert_by_default() {
        // No override and (in the test environment) no env knobs.
        let prev = set_fault_config(Some(FaultConfig::off()));
        assert!(!faults_active());
        assert!(!FaultPoint::ALL.iter().any(|&p| fire(p)));
        maybe_eval_panic();
        maybe_worker_panic();
        maybe_delay();
        set_fault_config(prev);
    }

    #[test]
    fn every_point_fires_and_tallies_at_certainty() {
        for &point in FaultPoint::ALL {
            let prev = set_fault_config(Some(certain(point, 42)));
            let before = metrics::get(point.tally());
            assert!(faults_active());
            assert!(fire(point) && fire(point), "{point:?}");
            // Only the configured point fires.
            assert!(FaultPoint::ALL.iter().all(|&p| p == point || !fire(p)));
            set_fault_config(prev);
            assert!(metrics::get(point.tally()) >= before + 2, "{point:?}");
        }
    }

    #[test]
    fn env_names_and_tallies_are_distinct() {
        let mut envs: Vec<&str> = FaultPoint::ALL.iter().map(|p| p.env()).collect();
        let mut tallies: Vec<&str> = FaultPoint::ALL.iter().map(|p| p.tally().name()).collect();
        envs.sort_unstable();
        envs.dedup();
        tallies.sort_unstable();
        tallies.dedup();
        assert_eq!(envs.len(), FaultPoint::ALL.len());
        assert_eq!(tallies.len(), FaultPoint::ALL.len());
    }

    #[test]
    fn eval_panic_fires_with_prefix() {
        let prev = set_fault_config(Some(certain(FaultPoint::EvalPanic, 7)));
        let caught = std::panic::catch_unwind(maybe_eval_panic);
        set_fault_config(prev);
        let err = caught.expect_err("must panic at ppm 1_000_000");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with(INJECTED_PANIC_PREFIX), "got: {msg}");
    }

    #[test]
    fn torn_cut_stays_in_range() {
        let prev = set_fault_config(Some(FaultConfig {
            seed: 5,
            ..FaultConfig::off()
        }));
        assert_eq!(torn_cut(0), 0);
        for len in [1usize, 2, 7, 64, 4096] {
            for _ in 0..32 {
                let cut = torn_cut(len);
                assert!(cut < len, "cut {cut} out of range for len {len}");
            }
        }
        set_fault_config(prev);
    }

    #[test]
    fn seeded_stream_is_reproducible_per_thread() {
        let draw = |seed: u64| {
            std::thread::spawn(move || {
                let prev = set_fault_config(Some(FaultConfig {
                    worker_panic_ppm: 500_000,
                    seed,
                    ..FaultConfig::off()
                }));
                let mut hits = 0;
                for _ in 0..64 {
                    if std::panic::catch_unwind(maybe_worker_panic).is_err() {
                        hits += 1;
                    }
                }
                set_fault_config(prev);
                hits
            })
            .join()
            .unwrap_or(0)
        };
        let a = draw(99);
        // At 50% over 64 draws some hits and some misses are
        // overwhelmingly likely; the exact count depends on the thread
        // ordinal so we only assert the stream is live.
        assert!(a > 0 && a < 64, "stream looks degenerate: {a}");
    }
}
