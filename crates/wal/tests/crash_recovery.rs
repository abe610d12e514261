//! Seeded kill-replay-verify: the crash-recovery harness.
//!
//! Hundreds of random interleavings of binds, ref writes, aliases,
//! checkpoints, and crashes — with injected torn writes, sync failures,
//! and mid-checkpoint kills — each verified by replaying the model's
//! durable prefix into a fresh session and comparing canonical state
//! (a shared-registry encoding of every binding, so pointer identity
//! across bindings is part of the comparison, not just values).
//!
//! The base seed comes from `MACHIAVELLI_FAULT_SEED` (default 1989), so
//! the CI chaos job and a local repro run the same interleavings.

use std::path::{Path, PathBuf};

use machiavelli::persist::{encode_with_registry, RefRegistry};
use machiavelli::trace::metrics::{self, Counter};
use machiavelli::Session;
use machiavelli_value::faults::{set_fault_config, FaultConfig};
use machiavelli_wal::{DurableSession, RecoveryReport, WalError};

fn base_seed() -> u64 {
    std::env::var("MACHIAVELLI_FAULT_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1989)
}

/// Local splitmix64: the harness must not share a stream with the fault
/// layer it is testing.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn tempdir(tag: &str, n: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mach-crash-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Canonical durable-visible state: every binding encoded through one
/// shared registry, in a fixed name order. Two sessions get the same
/// string iff every binding has the same value *and* the same
/// cross-binding sharing (aliased refs receive one durable id).
fn canonical_state(session: &Session, names: &[String]) -> String {
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
/// the ground truth a recovery must match.
fn expected_state(srcs: &[String], names: &[String]) -> String {
    let mut model = Session::bare();
    for src in srcs {
        model
            .run(src)
            .unwrap_or_else(|e| panic!("model replay of {src:?}: {e}"));
    }
    canonical_state(&model, names)
}

/// The model: sources applied in-memory this process lifetime, and how
/// many of them are durable on disk.
struct Model {
    applied: Vec<String>,
    durable: usize,
    /// Every name ever bound, in bind order (recovery may hold a
    /// superset of the durable model's names only if the harness is
    /// wrong — canonical_state over this list catches that too).
    names: Vec<String>,
    refs: Vec<String>,
}

impl Model {
    fn note_name(&mut self, name: &str) {
        if !self.names.iter().any(|n| n == name) {
            self.names.push(name.to_string());
        }
    }
}

/// Crash the session (drop it), check the recovered state against the
/// model twice (recovery must be idempotent), and hand back the
/// recovered session for the run to continue with.
fn crash_and_verify(dir: &Path, model: &mut Model, ctx: &str) -> DurableSession {
    set_fault_config(Some(FaultConfig::off()));
    model.applied.truncate(model.durable);
    // Bindings past the durable watermark died with the process; the
    // generator must stop aliasing them.
    model.refs = surviving_refs(&model.applied);
    let expected = expected_state(&model.applied, &model.names);
    let (ds, report) = DurableSession::open_bare(dir).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let got = canonical_state(ds.session(), &model.names);
    assert_eq!(got, expected, "{ctx}: first recovery diverged from model");
    drop(ds);
    let (ds, report2) = DurableSession::open_bare(dir).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let got2 = canonical_state(ds.session(), &model.names);
    assert_eq!(
        got2, expected,
        "{ctx}: second recovery diverged (not idempotent)"
    );
    assert_eq!(
        normalize(report2),
        normalize(report),
        "{ctx}: reports diverged across idempotent recoveries"
    );
    ds
}

/// Ref-typed names still bound after replaying exactly `srcs`: direct
/// `ref(..)` binds plus aliases of already-ref names.
fn surviving_refs(srcs: &[String]) -> Vec<String> {
    let mut refs: Vec<String> = Vec::new();
    for src in srcs {
        let Some(rest) = src.strip_prefix("val ") else {
            continue;
        };
        let name = rest.split(' ').next().unwrap().to_string();
        let rhs = src.split_once("= ").unwrap().1.trim_end_matches(';');
        if (rhs.starts_with("ref(") || refs.iter().any(|r| r == rhs)) && !refs.contains(&name) {
            refs.push(name);
        }
    }
    refs
}

/// A torn tail is truncated by the first recovery, so only the counts
/// that describe surviving state must match across recoveries.
fn normalize(mut r: RecoveryReport) -> RecoveryReport {
    r.torn_tail_truncated = false;
    r.stale_log_discarded = false;
    r
}

fn fault_profile(rng: &mut Rng, seed: u64) -> FaultConfig {
    let intensity = [0u32, 30_000, 120_000, 350_000][rng.below(4) as usize];
    let mut cfg = FaultConfig {
        seed,
        ..FaultConfig::off()
    };
    match rng.below(4) {
        0 => cfg.wal_torn_ppm = intensity,
        1 => cfg.wal_sync_fail_ppm = intensity,
        2 => cfg.checkpoint_kill_ppm = intensity,
        _ => {
            cfg.wal_torn_ppm = intensity / 2;
            cfg.wal_sync_fail_ppm = intensity / 2;
            cfg.checkpoint_kill_ppm = intensity / 3;
        }
    }
    cfg
}

#[test]
fn random_interleavings_recover_exactly() {
    let iterations: u64 = std::env::var("MACHIAVELLI_CRASH_ITERS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(220);
    let base = base_seed();
    let prev = set_fault_config(Some(FaultConfig::off()));

    for iter in 0..iterations {
        let seed = base.wrapping_mul(1_000_003).wrapping_add(iter);
        let mut rng = Rng::new(seed);
        let dir = tempdir("mix", seed);
        let mut model = Model {
            applied: Vec::new(),
            durable: 0,
            names: Vec::new(),
            refs: Vec::new(),
        };
        let (mut ds, _) = DurableSession::open_bare(&dir).unwrap();
        let faults = fault_profile(&mut rng, seed);
        let steps = 6 + rng.below(14);

        for step in 0..steps {
            let ctx = format!("seed {seed} iter {iter} step {step}");
            let roll = rng.below(100);
            if roll < 14 {
                // Simulated kill: drop the session mid-run.
                ds = crash_and_verify(&dir, &mut model, &ctx);
                continue;
            }
            if roll < 22 {
                set_fault_config(Some(faults));
                let res = ds.checkpoint();
                set_fault_config(Some(FaultConfig::off()));
                match res {
                    Ok(()) => model.durable = model.applied.len(),
                    Err(WalError::CheckpointKilled { renamed }) => {
                        // Stage-2 kill: the snapshot rename happened, so
                        // current state IS durable; stage-1 kill: the old
                        // snapshot + log still rule.
                        if renamed {
                            model.durable = model.applied.len();
                        }
                    }
                    Err(e) => panic!("{ctx}: checkpoint: {e}"),
                }
                continue;
            }
            // An evaluation op.
            let k = model.names.len();
            let (src, bound): (String, Vec<String>) = if roll < 42 || model.refs.is_empty() {
                if rng.below(3) == 0 {
                    (
                        format!("val n{k} = ref({});", rng.below(1000)),
                        vec![format!("n{k}")],
                    )
                } else {
                    (
                        format!("val n{k} = {};", rng.below(1000)),
                        vec![format!("n{k}")],
                    )
                }
            } else if roll < 62 {
                let r = &model.refs[rng.below(model.refs.len() as u64) as usize];
                (format!("{r} := {};", rng.below(1000)), vec!["it".into()])
            } else if roll < 78 {
                let r = &model.refs[rng.below(model.refs.len() as u64) as usize];
                (format!("val a{k} = {r};", r = r), vec![format!("a{k}")])
            } else {
                let r = &model.refs[rng.below(model.refs.len() as u64) as usize];
                (format!("!{r};", r = r), vec!["it".into()])
            };
            set_fault_config(Some(faults));
            let res = ds.eval(&src);
            set_fault_config(Some(FaultConfig::off()));
            match res {
                Ok(_) => {
                    model.applied.push(src.clone());
                    model.durable = model.applied.len();
                }
                // The write happened in memory but not on disk; it
                // becomes durable only via a later checkpoint.
                Err(WalError::TornWrite) | Err(WalError::SyncFailed) => {
                    model.applied.push(src.clone());
                }
                Err(WalError::CheckpointKilled { renamed }) => {
                    model.applied.push(src.clone());
                    if renamed {
                        model.durable = model.applied.len();
                    }
                }
                Err(e) => panic!("{ctx}: eval {src:?}: {e}"),
            }
            for b in bound {
                if src.contains("ref(") {
                    model.refs.push(b.clone());
                }
                model.note_name(&b);
            }
            // Aliases of refs are themselves ref names.
            if src.starts_with("val a") {
                let name = src[4..].split(' ').next().unwrap().to_string();
                if !model.refs.contains(&name) {
                    model.refs.push(name);
                }
            }
        }
        let ctx = format!("seed {seed} iter {iter} final");
        let ds = crash_and_verify(&dir, &mut model, &ctx);
        drop(ds);
        let _ = std::fs::remove_dir_all(&dir);
    }
    set_fault_config(prev);
}

#[test]
fn torn_tail_is_truncated_and_state_survives() {
    let prev = set_fault_config(Some(FaultConfig::off()));
    let dir = tempdir("torn", base_seed());
    {
        let (mut ds, _) = DurableSession::open_bare(&dir).unwrap();
        ds.eval("val keep = 7;").unwrap();
    }
    // Scribble a partial frame after the last commit — a kill mid-write.
    let log = dir.join("wal.log");
    let clean_len = std::fs::metadata(&log).unwrap().len();
    let mut bytes = std::fs::read(&log).unwrap();
    bytes.extend_from_slice(&[0x2A, 0x00, 0x00, 0x00, 0xDE, 0xAD]);
    std::fs::write(&log, &bytes).unwrap();

    let (mut ds, report) = DurableSession::open_bare(&dir).unwrap();
    assert!(report.torn_tail_truncated);
    assert_eq!(report.commits_replayed, 1);
    assert_eq!(
        std::fs::metadata(&log).unwrap().len(),
        clean_len,
        "tail cut"
    );
    assert_eq!(
        ds.eval("keep;").unwrap().0.pop().unwrap().show(),
        "val it = 7 : int"
    );
    // And the log accepts appends again after truncation.
    ds.eval("val more = 8;").unwrap();
    drop(ds);
    let (mut ds, report) = DurableSession::open_bare(&dir).unwrap();
    assert!(!report.torn_tail_truncated);
    assert_eq!(
        ds.eval("more;").unwrap().0.pop().unwrap().show(),
        "val it = 8 : int"
    );
    let _ = std::fs::remove_dir_all(&dir);
    set_fault_config(prev);
}

#[test]
fn doomed_log_heals_via_checkpoint() {
    let prev = set_fault_config(Some(FaultConfig::off()));
    let dir = tempdir("doomed", base_seed());
    let (mut ds, _) = DurableSession::open_bare(&dir).unwrap();
    ds.eval("val before = 1;").unwrap();

    // Guarantee the next append tears.
    set_fault_config(Some(FaultConfig {
        wal_torn_ppm: 1_000_000,
        seed: base_seed(),
        ..FaultConfig::off()
    }));
    let err = ds.eval("val lost = 2;").unwrap_err();
    assert!(matches!(err, WalError::TornWrite), "{err}");
    assert!(ds.log().is_doomed());
    set_fault_config(Some(FaultConfig::off()));

    // The next commit self-heals with a checkpoint that captures the
    // torn evaluation too — it did happen in memory.
    let (_, receipt) = ds.eval("val after = 3;").unwrap();
    assert!(receipt.checkpointed);
    assert!(!ds.log().is_doomed());
    drop(ds);

    let (mut ds, report) = DurableSession::open_bare(&dir).unwrap();
    assert!(report.recovered);
    assert_eq!(
        ds.eval("before + lost + after;")
            .unwrap()
            .0
            .pop()
            .unwrap()
            .show(),
        "val it = 6 : int"
    );
    let _ = std::fs::remove_dir_all(&dir);
    set_fault_config(prev);
}

#[test]
fn mid_checkpoint_kills_land_on_exactly_one_side() {
    let prev = set_fault_config(Some(FaultConfig::off()));
    let mut saw_stage1 = false;
    let mut saw_stage2 = false;
    for s in 0..200u64 {
        if saw_stage1 && saw_stage2 {
            break;
        }
        let seed = base_seed().wrapping_mul(7919).wrapping_add(s);
        let dir = tempdir("ckpt-kill", seed);
        let (mut ds, _) = DurableSession::open_bare(&dir).unwrap();
        ds.eval("val base = ref(10);").unwrap();
        ds.checkpoint().unwrap();
        ds.eval("base := 11;").unwrap();
        ds.eval("val extra = 12;").unwrap();

        set_fault_config(Some(FaultConfig {
            checkpoint_kill_ppm: 500_000,
            seed,
            ..FaultConfig::off()
        }));
        let res = ds.checkpoint();
        set_fault_config(Some(FaultConfig::off()));
        drop(ds); // crash right after the kill

        let names = ["base", "extra", "it"].map(String::from).to_vec();
        let (ds, report) = DurableSession::open_bare(&dir).unwrap();
        let got = canonical_state(ds.session(), &names);
        match res {
            Err(WalError::CheckpointKilled { renamed: false }) => {
                saw_stage1 = true;
                // Old snapshot + old log: the full pre-kill history
                // replays from them.
                let expected = expected_state(
                    &[
                        "val base = ref(10);".into(),
                        "base := 11;".into(),
                        "val extra = 12;".into(),
                    ],
                    &names,
                );
                assert_eq!(got, expected, "stage-1 kill, seed {seed}");
                assert!(!report.stale_log_discarded, "seed {seed}");
            }
            Err(WalError::CheckpointKilled { renamed: true }) => {
                saw_stage2 = true;
                // New snapshot took effect; the old-generation log is
                // stale and must be discarded, not replayed on top.
                let expected = expected_state(
                    &[
                        "val base = ref(10);".into(),
                        "base := 11;".into(),
                        "val extra = 12;".into(),
                    ],
                    &names,
                );
                assert_eq!(got, expected, "stage-2 kill, seed {seed}");
                assert!(report.stale_log_discarded, "seed {seed}");
            }
            Ok(()) => {}
            Err(e) => panic!("seed {seed}: {e}"),
        }
        drop(ds);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(saw_stage1, "no seed produced a stage-1 checkpoint kill");
    assert!(saw_stage2, "no seed produced a stage-2 checkpoint kill");
    set_fault_config(prev);
}

#[test]
fn recovery_preserves_cross_binding_sharing() {
    let prev = set_fault_config(Some(FaultConfig::off()));
    let dir = tempdir("sharing", base_seed());
    {
        let (mut ds, _) = DurableSession::open_bare(&dir).unwrap();
        ds.eval("val cell = ref(1);").unwrap();
        ds.eval("val alias = cell;").unwrap();
        ds.eval("val third = ref(1);").unwrap();
    }
    let (mut ds, _) = DurableSession::open_bare(&dir).unwrap();
    // alias writes must reach cell but not third — pointer identity,
    // not value equality, survived the disk round-trip.
    ds.eval("alias := 5;").unwrap();
    assert_eq!(
        ds.eval("!cell;").unwrap().0.pop().unwrap().show(),
        "val it = 5 : int"
    );
    assert_eq!(
        ds.eval("!third;").unwrap().0.pop().unwrap().show(),
        "val it = 1 : int"
    );
    let _ = std::fs::remove_dir_all(ds.log().dir());
    set_fault_config(prev);
}

#[test]
fn wal_rows_of_the_registry_accumulate() {
    let prev = set_fault_config(Some(FaultConfig::off()));
    let dir = tempdir("counters", base_seed());
    let before = metrics::snapshot();
    {
        let (mut ds, _) = DurableSession::open_bare(&dir).unwrap();
        ds.eval("val c = 1;").unwrap();
        ds.eval("val d = 2;").unwrap();
        ds.checkpoint().unwrap();
    }
    let (_ds, _) = DurableSession::open_bare(&dir).unwrap();
    let added = metrics::snapshot().since(&before);
    assert!(added.get(Counter::WalCommits) >= 2);
    assert!(added.get(Counter::WalRecordsAppended) >= 4);
    assert!(added.get(Counter::WalBytesLogged) > 0);
    assert!(added.get(Counter::WalCheckpoints) > 0);
    assert!(added.get(Counter::WalRecoveries) > 0);
    let _ = std::fs::remove_dir_all(&dir);
    set_fault_config(prev);
}
