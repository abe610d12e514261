//! The reference model shared by the durability harnesses
//! (`crates/wal/tests/crash_recovery.rs` and
//! `crates/repl/tests/failover_chaos.rs`): a seeded generator, scratch
//! directories, and the canonical state a recovered or replicated
//! session must reproduce exactly.

use std::path::PathBuf;

use machiavelli::persist::{encode_with_registry, RefRegistry};
use machiavelli::Session;

/// The harnesses' base seed: `MACHIAVELLI_FAULT_SEED` (default 1989), so
/// the CI chaos job and a local repro run the same interleavings.
pub fn base_seed() -> u64 {
    std::env::var("MACHIAVELLI_FAULT_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1989)
}

/// Local splitmix64: a harness must not share a stream with the fault
/// layer it is testing.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw from `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A fresh, empty scratch directory `<prefix>-<tag>-<pid>-<n>` under the
/// system temp dir.
pub fn tempdir(prefix: &str, tag: &str, n: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{prefix}-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Canonical durable-visible state: every binding encoded through one
/// shared registry, in a fixed name order. Two sessions get the same
/// string iff every binding has the same value *and* the same
/// cross-binding sharing (aliased refs receive one durable id).
pub fn canonical_state(session: &Session, names: &[String]) -> String {
    let mut reg = RefRegistry::new();
    let mut out = String::new();
    for name in names {
        if let Some((ty, value)) = session.persistable_binding(name) {
            let enc = encode_with_registry(&value, &mut reg)
                .unwrap_or_else(|e| panic!("canonical encode of {name}: {e}"));
            out.push_str(name);
            out.push(':');
            out.push_str(&ty);
            out.push('=');
            out.push_str(&enc);
            out.push(';');
        }
    }
    out
}

/// Replay `srcs` into a fresh in-memory session with faults shielded —
/// the ground truth a recovered or replicated session must match.
pub fn expected_state(srcs: &[String], names: &[String]) -> String {
    let mut model = Session::bare();
    for src in srcs {
        model
            .run(src)
            .unwrap_or_else(|e| panic!("model replay of {src:?}: {e}"));
    }
    canonical_state(&model, names)
}
