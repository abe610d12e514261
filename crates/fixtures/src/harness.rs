//! The reference model shared by the durability harnesses
//! (`crates/server/tests/crash_recovery.rs` and
//! `crates/repl/tests/failover_chaos.rs`, both driving the server): a
//! seeded generator, scratch directories, the canonical state a
//! recovered or replicated session must reproduce exactly, and the
//! recovery that reads it off a session directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use machiavelli::persist::{encode_with_registry, RefRegistry};
use machiavelli::Session;
use machiavelli_wal::{is_scratch, RecoveryReport, SessionLog};

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
/// cross-binding sharing (aliased refs receive one durable id). Scratch
/// names ([`is_scratch`]: `it`) are not durable state and are left out.
pub fn canonical_state(session: &Session, names: &[String]) -> String {
    let mut reg = RefRegistry::new();
    let mut out = String::new();
    for name in names.iter().filter(|n| !is_scratch(n)) {
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

/// Replay `srcs` into a fresh in-memory session (its fault stream is
/// inert) — the ground truth a recovered or replicated session must match.
pub fn expected_state(srcs: &[String], names: &[String]) -> String {
    let mut model = Session::bare();
    for src in srcs {
        model
            .run(src)
            .unwrap_or_else(|e| panic!("model replay of {src:?}: {e}"));
    }
    canonical_state(&model, names)
}

/// Recover the durable state under a session directory twice, the way
/// a restarting server does ([`SessionLog::open`]), and return its
/// canonical state with the first recovery's report. Recovery runs on
/// a scratch copy of the directory's files, so a live server's
/// directory is never touched, and must be idempotent: both recoveries
/// yield the same state and the same counts (the first may truncate a
/// torn tail or discard a stale log).
pub fn recover_twice(dir: &Path, names: &[String]) -> (String, RecoveryReport) {
    static COPIES: AtomicU64 = AtomicU64::new(0);
    let copy = tempdir(
        "mach-recover",
        "copy",
        COPIES.fetch_add(1, Ordering::Relaxed),
    );
    for file in ["snapshot.mach", "wal.log"] {
        if dir.join(file).exists() {
            std::fs::copy(dir.join(file), copy.join(file))
                .unwrap_or_else(|e| panic!("copy {file} from {}: {e}", dir.display()));
        }
    }
    let recover = || {
        let mut session = Session::bare();
        let (_, report) = SessionLog::open(&copy, &mut session)
            .unwrap_or_else(|e| panic!("recover {}: {e}", dir.display()));
        (canonical_state(&session, names), report)
    };
    let (first, report) = recover();
    let (second, report2) = recover();
    let _ = std::fs::remove_dir_all(&copy);
    assert_eq!(
        first,
        second,
        "{}: recovery is not idempotent",
        dir.display()
    );
    let surviving = |r: &RecoveryReport| RecoveryReport {
        torn_tail_truncated: false,
        stale_log_discarded: false,
        ..r.clone()
    };
    assert_eq!(
        surviving(&report),
        surviving(&report2),
        "{}: recovery reports diverged",
        dir.display()
    );
    (first, report)
}
