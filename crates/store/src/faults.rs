//! **Seeded fault injection** — the chaos harness behind the server's
//! resilience tests and `server_bench`'s degradation runs.
//!
//! Every fail point in the workspace is one row of the [`FaultPoint`]
//! table below and is rolled through [`FaultStream::fire`]; what each
//! one attacks, its `FaultConfig` field and its environment variable
//! are documented once, in `docs/RESILIENCE.md` ("Fault injection").
//!
//! Probabilities are **parts per million** so low rates stay integral.
//! Randomness is a [`FaultStream`]: a config plus an xorshift state
//! seeded from the config seed (`MACHIAVELLI_FAULT_SEED`, default 0)
//! and a session id. Each session owns one
//! ([`EngineCtx::set_faults`](crate::EngineCtx::set_faults)), so the
//! same seed, session id and requests draw the same faults, whatever
//! else runs in the process. A fresh session's stream is inert; the
//! server arms each session it opens or recovers with
//! `ServerConfig::faults`, else [`FaultConfig::from_env`].
//!
//! All *injected* panics carry messages prefixed `"injected fault:"`,
//! and every fault that fires is tallied in the metrics registry
//! ([`FaultPoint::tally`]), so the chaos suite can assert that observed
//! structured errors match what the harness actually threw.

use machiavelli_trace::metrics::{self, Counter};
use std::sync::OnceLock;

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
        /// point.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct FaultConfig {
            $($(#[$doc])* pub $field: u32,)*
            /// Length of the `delay_ppm` sleep, in milliseconds.
            pub delay_ms: u64,
            /// Base seed for the per-session fault streams.
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
    /// Sleep `delay_ms` at an evaluator tick (forces deadline overruns).
    Delay, delay_ppm, "MACHIAVELLI_FAULT_DELAY_PPM", FaultDelays;
    /// Tear a WAL append: only a [`FaultStream::torn_cut`] prefix reaches the file,
    /// as if the process died mid-`write(2)`.
    WalTorn, wal_torn_ppm, "MACHIAVELLI_FAULT_WAL_TORN_PPM", FaultWalTornWrites;
    /// Report a WAL sync as failed: the log must stop trusting its
    /// unsynced tail.
    WalSyncFail, wal_sync_fail_ppm, "MACHIAVELLI_FAULT_WAL_SYNC_FAIL_PPM", FaultWalSyncFailures;
    /// Abort a checkpoint at a step boundary, as if the process died
    /// there.
    CheckpointKill, checkpoint_kill_ppm, "MACHIAVELLI_FAULT_CHECKPOINT_KILL_PPM", FaultCheckpointKills;
    /// Cut a shipped replication chunk mid-stream: only a [`FaultStream::torn_cut`]
    /// prefix reaches the follower.
    ShipDisconnect, ship_disconnect_ppm, "MACHIAVELLI_FAULT_SHIP_DISCONNECT_PPM", FaultShipDisconnects;
    /// Lose a follower's ack before the primary records it.
    AckLoss, ack_loss_ppm, "MACHIAVELLI_FAULT_ACK_LOSS_PPM", FaultAckLosses;
}

fn env_num<T: std::str::FromStr + Default>(var: &str) -> T {
    std::env::var(var)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_default()
}

impl FaultConfig {
    /// The config the `MACHIAVELLI_FAULT_*` environment variables
    /// describe, read once per process (off when they set nothing).
    pub fn from_env() -> FaultConfig {
        static ENV: OnceLock<FaultConfig> = OnceLock::new();
        *ENV.get_or_init(|| {
            let mut cfg = FaultConfig {
                delay_ms: env_num("MACHIAVELLI_FAULT_DELAY_MS"),
                seed: env_num("MACHIAVELLI_FAULT_SEED"),
                ..FaultConfig::off()
            };
            for &point in FaultPoint::ALL {
                *cfg.ppm_mut(point) = env_num(point.env());
            }
            cfg
        })
    }
}

fn xorshift(state: u64) -> u64 {
    let mut x = state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// One session's fault stream: its config and an xorshift state seeded
/// from `(config seed, session id)`. The default is inert.
#[derive(Debug, Default)]
pub struct FaultStream {
    cfg: FaultConfig,
    state: u64,
}

impl FaultStream {
    /// The stream session `sid` draws under `cfg`.
    pub fn new(cfg: FaultConfig, sid: u64) -> FaultStream {
        let state = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(sid.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            | 1;
        FaultStream { cfg, state }
    }

    /// The stream's config.
    pub fn config(&self) -> FaultConfig {
        self.cfg
    }

    fn next(&mut self) -> u64 {
        self.state = xorshift(self.state | 1);
        self.state
    }

    /// Roll `point`. Returns `true` — and tallies the injection — when
    /// the caller should fail here; the caller performs the failure so
    /// it happens at exactly the right place. A zero ppm (every point,
    /// on an inert stream) returns before the state moves.
    pub fn fire(&mut self, point: FaultPoint) -> bool {
        let ppm = self.cfg.ppm(point);
        if ppm == 0 || self.next() % 1_000_000 >= u64::from(ppm) {
            return false;
        }
        metrics::add(point.tally(), 1);
        true
    }

    /// How many bytes of a torn `len`-byte write actually land: a
    /// draw in `0..len` from the stream, so a pinned seed reproduces
    /// the same cut points. (`len == 0` → 0.)
    pub fn torn_cut(&mut self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (self.next() % len as u64) as usize
    }
}

/// Message prefix on every injected panic; the server's panic-to-error
/// mapping and the chaos assertions both key on it.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault:";

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
        let mut stream = FaultStream::default();
        assert!(!FaultPoint::ALL.iter().any(|&p| stream.fire(p)));
        let mut off = FaultStream::new(FaultConfig::off(), 1);
        assert!(!FaultPoint::ALL.iter().any(|&p| off.fire(p)));
    }

    #[test]
    fn every_point_fires_and_tallies_at_certainty() {
        for &point in FaultPoint::ALL {
            let mut stream = FaultStream::new(certain(point, 42), 1);
            let before = metrics::get(point.tally());
            assert!(stream.fire(point) && stream.fire(point), "{point:?}");
            // Only the configured point fires.
            assert!(FaultPoint::ALL
                .iter()
                .all(|&p| p == point || !stream.fire(p)));
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
        let ctx = crate::EngineCtx::default();
        ctx.set_faults(certain(FaultPoint::EvalPanic, 7), 1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.tick()));
        let err = caught.expect_err("must panic at ppm 1_000_000");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with(INJECTED_PANIC_PREFIX), "got: {msg}");
    }

    #[test]
    fn torn_cut_stays_in_range() {
        let mut stream = FaultStream::new(
            FaultConfig {
                seed: 5,
                ..FaultConfig::off()
            },
            1,
        );
        assert_eq!(stream.torn_cut(0), 0);
        for len in [1usize, 2, 7, 64, 4096] {
            for _ in 0..32 {
                let cut = stream.torn_cut(len);
                assert!(cut < len, "cut {cut} out of range for len {len}");
            }
        }
    }

    #[test]
    fn seeded_stream_is_reproducible_per_session() {
        let cfg = FaultConfig {
            eval_panic_ppm: 500_000,
            seed: 99,
            ..FaultConfig::off()
        };
        let draw = move |sid: u64| {
            let mut stream = FaultStream::new(cfg, sid);
            (0..64)
                .map(|_| stream.fire(FaultPoint::EvalPanic))
                .collect::<Vec<_>>()
        };
        let a = draw(1);
        // Same seed and session: the same draws, on any thread.
        assert_eq!(a, std::thread::spawn(move || draw(1)).join().unwrap());
        // At 50% over 64 draws some hits and some misses are
        // overwhelmingly likely: the stream is live.
        let hits = a.iter().filter(|&&hit| hit).count();
        assert!(hits > 0 && hits < 64, "stream looks degenerate: {hits}");
        assert_ne!(a, draw(2), "another session draws another stream");
    }
}
