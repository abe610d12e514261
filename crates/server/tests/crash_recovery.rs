//! Seeded kill-replay-verify: the crash-recovery harness, driven
//! through the server.
//!
//! Hundreds of random interleavings of binds, ref writes, aliases,
//! `SAVE` checkpoints and kills — under injected torn writes, sync
//! failures and mid-checkpoint kills — against a durable `Server`. The
//! server's fail-hard posture keeps the model one list: an eval whose
//! result came back is durable; an eval or `SAVE` that failed poisons
//! its session and leaves the disk at the last good state, which
//! `RESTORE` re-reads. A kill drops the server; each one is verified by
//! recovering the session directory twice and comparing canonical state
//! (a shared-registry encoding of every binding, so pointer identity
//! across bindings is part of the comparison, not just values) against
//! replaying the applied sources into a fresh session.
//!
//! The base seed comes from `MACHIAVELLI_FAULT_SEED` (default 1989), so
//! the CI chaos job and a local repro run the same interleavings.

use std::path::{Path, PathBuf};

use machiavelli::trace::metrics::{self, Counter};
use machiavelli_fixtures::harness::{base_seed, expected_state, recover_twice, tempdir, Rng};
use machiavelli_server::faults::FaultConfig;
use machiavelli_server::{Server, ServerConfig, ServerError, ServerRole};

/// Every harness session is the first one its server opens.
const SID: u64 = 1;

/// Start a durable server over `root` and open the harness session,
/// recovering whatever an earlier server left there. `faults` is
/// installed for each server operation: evals and `SAVE`s roll against
/// it, opens and restores are shielded.
fn start(root: &Path, faults: FaultConfig) -> Server {
    let server = Server::start(ServerConfig {
        queue_cap: 8,
        default_deadline: None,
        row_budget: None,
        faults: Some(faults),
        durable_root: Some(root.to_path_buf()),
        role: ServerRole::Primary,
        ..ServerConfig::default()
    });
    server.adopt_session(SID).expect("open the harness session");
    server
}

fn session_dir(root: &Path) -> PathBuf {
    root.join(format!("session-{SID}"))
}

fn show(server: &Server, src: &str) -> String {
    server.eval(SID, src).expect("eval").join("; ")
}

/// The model: the sources the server acknowledged, in order — all of
/// them durable.
struct Model {
    applied: Vec<String>,
    /// Every name any attempted source binds, in first-attempt order
    /// (a recovery holding a name only a failed source bound shows up
    /// in the canonical state over this list).
    names: Vec<String>,
    /// Ref-typed names bound by acknowledged sources.
    refs: Vec<String>,
}

impl Model {
    fn note_name(&mut self, name: &str) {
        if !self.names.iter().any(|n| n == name) {
            self.names.push(name.to_string());
        }
    }
}

/// A failed eval or `SAVE` poisons the session; `RESTORE` brings back
/// the durable state, which the model says is everything acknowledged.
/// Returns 1, the restore to count.
fn restore_after(err: ServerError, server: &Server, ctx: &str) -> u64 {
    assert!(
        matches!(err, ServerError::Durability(_)),
        "{ctx}: expected a durability failure, got {err}"
    );
    assert!(matches!(
        server.eval(SID, "1;"),
        Err(ServerError::SessionPoisoned(SID))
    ));
    server
        .restore_session(SID)
        .unwrap_or_else(|e| panic!("{ctx}: restore: {e}"));
    1
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
    let mut restores = 0u64;

    for iter in 0..iterations {
        let seed = base.wrapping_mul(1_000_003).wrapping_add(iter);
        let mut rng = Rng::new(seed);
        let root = tempdir("mach-crash", "mix", seed);
        let mut model = Model {
            applied: Vec::new(),
            names: Vec::new(),
            refs: Vec::new(),
        };
        let faults = fault_profile(&mut rng, seed);
        let mut server = start(&root, faults);
        let steps = 6 + rng.below(14);

        for step in 0..steps {
            let ctx = format!("seed {seed} iter {iter} step {step}");
            let roll = rng.below(100);
            if roll < 14 {
                // Simulated kill: drop the server mid-run.
                drop(server);
                let expected = expected_state(&model.applied, &model.names);
                let (got, _) = recover_twice(&session_dir(&root), &model.names);
                assert_eq!(got, expected, "{ctx}: recovery diverged from the model");
                server = start(&root, faults);
                continue;
            }
            if roll < 22 {
                // A checkpoint killed at either step leaves the disk
                // holding exactly what was acknowledged: the old
                // snapshot and log, or the new snapshot and a stale log.
                if let Err(e) = server.save_session(SID) {
                    restores += restore_after(e, &server, &ctx);
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
            for b in &bound {
                model.note_name(b);
            }
            if let Err(e) = server.eval(SID, &src) {
                // Torn or unsynced: the eval ran in memory, never
                // reached the disk, and dies with the poisoned session.
                restores += restore_after(e, &server, &format!("{ctx}: eval {src:?}"));
                continue;
            }
            model.applied.push(src.clone());
            // Direct `ref(..)` binds and aliases of refs are ref names.
            if src.contains("ref(") || src.starts_with("val a") {
                model.refs.extend(bound);
            }
        }
        let ctx = format!("seed {seed} iter {iter} final");
        drop(server);
        let expected = expected_state(&model.applied, &model.names);
        let (got, _) = recover_twice(&session_dir(&root), &model.names);
        assert_eq!(got, expected, "{ctx}: recovery diverged from the model");
        let _ = std::fs::remove_dir_all(&root);
    }
    // The faults must have fired: some commits and checkpoints failed
    // and their sessions came back through RESTORE.
    assert!(
        iterations < 20 || restores > 0,
        "no injected fault ever poisoned a session"
    );
}

#[test]
fn torn_tail_is_truncated_and_state_survives() {
    let off = FaultConfig::off();
    let root = tempdir("mach-crash", "torn", base_seed());
    let server = start(&root, off);
    server.eval(SID, "val keep = 7;").expect("commit");
    drop(server);
    // Scribble a partial frame after the last commit — a kill mid-write.
    let log = session_dir(&root).join("wal.log");
    let clean_len = std::fs::metadata(&log).unwrap().len();
    let mut bytes = std::fs::read(&log).unwrap();
    bytes.extend_from_slice(&[0x2A, 0x00, 0x00, 0x00, 0xDE, 0xAD]);
    std::fs::write(&log, &bytes).unwrap();

    let before = metrics::snapshot();
    let server = start(&root, off);
    assert!(
        metrics::snapshot()
            .since(&before)
            .get(Counter::WalTornTailsTruncated)
            >= 1
    );
    assert_eq!(
        std::fs::metadata(&log).unwrap().len(),
        clean_len,
        "tail cut"
    );
    assert_eq!(show(&server, "keep;"), "val it = 7 : int");
    // And the log accepts appends again after truncation.
    server.eval(SID, "val more = 8;").expect("commit");
    drop(server);
    let server = start(&root, off);
    assert_eq!(show(&server, "more;"), "val it = 8 : int");
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn mid_checkpoint_kills_land_on_exactly_one_side() {
    let off = FaultConfig::off();
    let sources: Vec<String> = ["val base = ref(10);", "base := 11;", "val extra = 12;"]
        .map(String::from)
        .to_vec();
    let names = ["base", "extra", "it"].map(String::from).to_vec();
    let expected = expected_state(&sources, &names);
    let mut saw_stage1 = false;
    let mut saw_stage2 = false;
    for s in 0..200u64 {
        if saw_stage1 && saw_stage2 {
            break;
        }
        let seed = base_seed().wrapping_mul(7919).wrapping_add(s);
        let root = tempdir("mach-crash", "ckpt-kill", seed);
        let server = start(&root, off);
        server.eval(SID, &sources[0]).expect("commit");
        server.save_session(SID).expect("checkpoint");
        server.eval(SID, &sources[1]).expect("commit");
        server.eval(SID, &sources[2]).expect("commit");
        drop(server);

        let server = start(
            &root,
            FaultConfig {
                checkpoint_kill_ppm: 500_000,
                seed,
                ..off
            },
        );
        let res = server.save_session(SID);
        drop(server); // crash right after the kill

        let (got, report) = recover_twice(&session_dir(&root), &names);
        match res {
            // Old snapshot + old log: the full pre-kill history replays
            // from them.
            Err(ServerError::Durability(msg)) if msg.contains("renamed: false") => {
                saw_stage1 = true;
                assert_eq!(got, expected, "stage-1 kill, seed {seed}");
                assert!(!report.stale_log_discarded, "seed {seed}");
            }
            // The new snapshot took effect; the old-generation log is
            // stale and must be discarded, not replayed on top.
            Err(ServerError::Durability(msg)) if msg.contains("renamed: true") => {
                saw_stage2 = true;
                assert_eq!(got, expected, "stage-2 kill, seed {seed}");
                assert!(report.stale_log_discarded, "seed {seed}");
            }
            Ok(_) => {}
            Err(e) => panic!("seed {seed}: {e}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }
    assert!(saw_stage1, "no seed produced a stage-1 checkpoint kill");
    assert!(saw_stage2, "no seed produced a stage-2 checkpoint kill");
}

#[test]
fn recovery_preserves_cross_binding_sharing() {
    let off = FaultConfig::off();
    let root = tempdir("mach-crash", "sharing", base_seed());
    let server = start(&root, off);
    for src in [
        "val cell = ref(1);",
        "val alias = cell;",
        "val third = ref(1);",
    ] {
        server.eval(SID, src).expect("commit");
    }
    drop(server);
    let server = start(&root, off);
    // alias writes must reach cell but not third — pointer identity,
    // not value equality, survived the disk round-trip.
    server.eval(SID, "alias := 5;").expect("commit");
    assert_eq!(show(&server, "!cell;"), "val it = 5 : int");
    assert_eq!(show(&server, "!third;"), "val it = 1 : int");
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn wal_rows_of_the_registry_accumulate() {
    let off = FaultConfig::off();
    let root = tempdir("mach-crash", "counters", base_seed());
    let before = metrics::snapshot();
    let server = start(&root, off);
    server.eval(SID, "val c = 1;").expect("commit");
    server.eval(SID, "val d = 2;").expect("commit");
    server.save_session(SID).expect("checkpoint");
    drop(server);
    drop(start(&root, off));
    let added = metrics::snapshot().since(&before);
    assert!(added.get(Counter::WalCommits) >= 2);
    assert!(added.get(Counter::WalRecordsAppended) >= 4);
    assert!(added.get(Counter::WalBytesLogged) > 0);
    assert!(added.get(Counter::WalCheckpoints) > 0);
    assert!(added.get(Counter::WalRecoveries) > 0);
    let _ = std::fs::remove_dir_all(&root);
}
