//! Seeded partition/kill chaos for WAL-shipping replication, driven
//! through the server.
//!
//! Hundreds of random interleavings of primary commits, follower
//! catch-up rounds (with injected mid-chunk disconnects and lost acks),
//! partitions, kills of either server, and primary checkpoints — each
//! ending in a failover: the primary dies, the follower is promoted
//! above the primary's last generation, and the survivor must hold
//! **exactly** the durable prefix it applied (values and pointer
//! identity, recovered twice for idempotence), which always covers
//! every ack the primary recorded. The fenced old primary then
//! re-appears: its stale-generation groups must be rejected whole, and,
//! restarted as a follower, one catch-up round must heal it back to
//! convergence via snapshot transfer.
//!
//! Both endpoints are `Server`s over durable roots; a kill drops one
//! and starts a fresh one over the same root. The follower pulls with
//! the replicator's own [`catch_up`] round, over an upstream that feeds
//! each request line through the primary's wire dispatcher
//! (`serve_connection`) on the test thread — the verbs `machid` answers
//! over TCP, without sockets or a background thread, so a seed replays
//! exactly.
//!
//! The base seed comes from `MACHIAVELLI_FAULT_SEED` (default 1989),
//! iterations from `MACHIAVELLI_REPL_ITERS` (default 220), so the CI
//! chaos job and a local repro run the same interleavings.

use std::io;
use std::path::{Path, PathBuf};

use machiavelli::is_read_only_source;
use machiavelli::trace::metrics::{self, Counter};
use machiavelli_fixtures::harness::{base_seed, expected_state, recover_twice, tempdir, Rng};
use machiavelli_repl::catch_up;
use machiavelli_repl::proto::Upstream;
use machiavelli_server::faults::FaultConfig;
use machiavelli_server::{serve_connection, Server, ServerConfig, ServerError, ServerRole};
use machiavelli_wal::Ship;

/// Every harness session is the first one its server opens.
const SID: u64 = 1;

/// A primary reached in-process: each request line runs through the
/// wire dispatcher on the calling thread, against the primary's own
/// fault config (ack loss).
struct InProcess<'a>(&'a Server);

impl Upstream for InProcess<'_> {
    fn request(&mut self, line: &str) -> io::Result<String> {
        let mut out = Vec::new();
        serve_connection(self.0, format!("{line}\n").as_bytes(), &mut out)?;
        Ok(String::from_utf8_lossy(&out).trim_end().to_string())
    }
}

/// Start a durable server over `root` and open the harness session,
/// recovering whatever an earlier server left there. `faults` arms the
/// server's sessions and its ack stream, so a follower's
/// ship-disconnect and a primary's ack-loss fail points roll against
/// it.
fn start(root: &Path, role: ServerRole, faults: FaultConfig) -> Server {
    let server = Server::start(ServerConfig {
        queue_cap: 8,
        default_deadline: None,
        row_budget: None,
        faults: Some(faults),
        durable_root: Some(root.to_path_buf()),
        role,
        ..ServerConfig::default()
    });
    server.adopt_session(SID).expect("open the harness session");
    server
}

fn session_dir(root: &Path) -> PathBuf {
    root.join(format!("session-{SID}"))
}

/// The replication model: what the primary applied, and how far the
/// follower has absorbed it. The invariant under test is that the
/// follower's state is always `applied[..follower_k]` — a clean prefix
/// of the primary's commit order, never a subset with holes.
struct Model {
    /// Sources committed on the primary, in commit order.
    applied: Vec<String>,
    /// Every name ever bound, in bind order.
    names: Vec<String>,
    /// Names currently bound to refs (targets for `:=` and aliases).
    refs: Vec<String>,
    /// `applied.len()` when the primary last checkpointed.
    snapshot_k: usize,
    /// `applied.len()` right after each group of the primary's
    /// current-generation log landed. Cleared by checkpoints.
    log_group_srcs: Vec<usize>,
    /// How many of `applied` the follower has absorbed.
    follower_k: usize,
}

impl Model {
    fn note_name(&mut self, name: &str) {
        if !self.names.iter().any(|n| n == name) {
            self.names.push(name.to_string());
        }
    }

    /// The prefix of `applied` a current-generation log holding
    /// `groups` complete groups carries.
    fn k_at(&self, groups: u64) -> usize {
        match groups as usize {
            0 => self.snapshot_k,
            g => self.log_group_srcs[g - 1],
        }
    }
}

/// The durable state under `root` must be `applied[..k]`.
fn verify(root: &Path, model: &Model, k: usize, ctx: &str) {
    let expected = expected_state(&model.applied[..k], &model.names);
    let (got, _) = recover_twice(&session_dir(root), &model.names);
    assert_eq!(
        got, expected,
        "{ctx}: durable state diverged from the applied prefix"
    );
}

/// One catch-up round under the iteration's faults (ship disconnects
/// in the follower's replica apply, ack loss in the primary), with the
/// model advanced from the follower's cursor.
fn pump(p: &Server, f: &Server, model: &mut Model, ctx: &str) {
    let round = catch_up(f, &mut InProcess(p));
    round.unwrap_or_else(|e| panic!("{ctx}: catch-up: {e}"));
    let (primary, _) = p.cursor(SID).expect("primary cursor");
    let (follower, groups) = f.cursor(SID).expect("follower cursor");
    assert_eq!(
        follower.gen, primary.gen,
        "{ctx}: a round must end in the primary's generation"
    );
    assert!(
        groups as usize <= model.log_group_srcs.len(),
        "{ctx}: follower ahead of the primary's log"
    );
    model.follower_k = model.k_at(groups);
    // Acks are sent after the apply they report: whatever the primary
    // recorded never outruns what the follower holds.
    if let Some(ack) = p.acked(SID) {
        assert!(
            (ack.gen, ack.groups) <= (follower.gen, groups),
            "{ctx}: ack {ack:?} outran the follower at gen {} groups {groups}",
            follower.gen
        );
    }
}

#[test]
fn seeded_failovers_serve_the_acked_durable_prefix() {
    let iterations: u64 = std::env::var("MACHIAVELLI_REPL_ITERS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(220);
    let base = base_seed();
    let off = FaultConfig::off();
    let before = metrics::snapshot();

    for iter in 0..iterations {
        let seed = base.wrapping_mul(6_700_417).wrapping_add(iter);
        let mut rng = Rng::new(seed);
        let root_p = tempdir("mach-repl", "p", seed);
        let root_f = tempdir("mach-repl", "f", seed);
        // Ship-channel chaos for this iteration: mid-chunk disconnects
        // and lost acks at a seeded intensity.
        let intensity = [0u32, 120_000, 400_000, 900_000][rng.below(4) as usize];
        let faults = FaultConfig {
            seed,
            ship_disconnect_ppm: intensity,
            ack_loss_ppm: intensity / 2,
            ..off
        };
        let mut p = start(&root_p, ServerRole::Primary, faults);
        let mut f = start(&root_f, ServerRole::Follower, faults);
        let mut model = Model {
            applied: Vec::new(),
            names: Vec::new(),
            refs: Vec::new(),
            snapshot_k: 0,
            log_group_srcs: Vec::new(),
            follower_k: 0,
        };
        let mut partitioned = false;
        let steps = 8 + rng.below(18);

        for step in 0..steps {
            let ctx = format!("seed {seed} iter {iter} step {step}");
            let roll = rng.below(100);
            if roll < 10 {
                // Kill the follower; recovery must serve its own
                // durable prefix, twice.
                drop(f);
                verify(&root_f, &model, model.follower_k, &ctx);
                f = start(&root_f, ServerRole::Follower, faults);
                continue;
            }
            if roll < 16 {
                // Kill the primary; everything it committed is durable.
                drop(p);
                p = start(&root_p, ServerRole::Primary, faults);
                continue;
            }
            if roll < 24 {
                // Checkpoint (generation bump): the follower's next
                // round must heal via snapshot transfer.
                p.save_session(SID)
                    .unwrap_or_else(|e| panic!("{ctx}: checkpoint: {e}"));
                model.log_group_srcs.clear();
                model.snapshot_k = model.applied.len();
                continue;
            }
            if roll < 30 {
                partitioned = !partitioned;
                continue;
            }
            if roll < 52 {
                if !partitioned {
                    pump(&p, &f, &mut model, &ctx);
                }
                continue;
            }
            // A primary commit, mirroring the crash harness's op mix so
            // pointer identity is always in play.
            let k = model.names.len();
            let (src, bound): (String, Vec<String>) = if roll < 72 || model.refs.is_empty() {
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
            } else if roll < 84 {
                let r = &model.refs[rng.below(model.refs.len() as u64) as usize];
                (format!("{r} := {};", rng.below(1000)), vec!["it".into()])
            } else if roll < 93 {
                let r = &model.refs[rng.below(model.refs.len() as u64) as usize];
                (format!("val a{k} = {r};", r = r), vec![format!("a{k}")])
            } else {
                let r = &model.refs[rng.below(model.refs.len() as u64) as usize];
                (format!("!{r};", r = r), vec!["it".into()])
            };
            let (cursor_before, groups_before) = p.cursor(SID).expect("cursor");
            p.eval(SID, &src)
                .unwrap_or_else(|e| panic!("{ctx}: eval {src:?}: {e}"));
            model.applied.push(src.clone());
            let (cursor_after, groups_after) = p.cursor(SID).expect("cursor");
            if cursor_after.gen != cursor_before.gen {
                // The commit escalated to a checkpoint: the log
                // restarted empty, like the explicit checkpoint op.
                model.log_group_srcs.clear();
                model.snapshot_k = model.applied.len();
            } else {
                // A read commits nothing (`it` is never logged); every
                // other harness op commits exactly one group.
                let wrote = !is_read_only_source(&src);
                assert_eq!(
                    groups_after,
                    groups_before + u64::from(wrote),
                    "{ctx}: a read commits no group, every other harness op exactly one"
                );
                if wrote {
                    model.log_group_srcs.push(model.applied.len());
                }
            }
            for b in bound {
                if src.contains("ref(") {
                    model.refs.push(b.clone());
                }
                model.note_name(&b);
            }
            if src.starts_with("val a") {
                let name = src[4..].split(' ').next().unwrap().to_string();
                if !model.refs.contains(&name) {
                    model.refs.push(name);
                }
            }
        }

        // ---- Failover ------------------------------------------------
        // The primary dies. The follower is promoted above the
        // primary's last generation and must hold exactly the prefix it
        // applied. The fence checkpointed its memory, so what survives
        // a restart is what it served.
        let ctx = format!("seed {seed} iter {iter} failover");
        let (old, _) = p.cursor(SID).expect("cursor");
        drop(p);
        let fenced = f
            .promote(old.gen)
            .unwrap_or_else(|e| panic!("{ctx}: promote: {e}"));
        assert_eq!(fenced, 1, "{ctx}: the one session is fenced");
        assert_eq!(f.role(), ServerRole::Primary);
        let fenced_gen = f.cursor(SID).expect("cursor").0.gen;
        assert!(
            fenced_gen > old.gen,
            "{ctx}: promotion must fence the old generation"
        );
        drop(f);
        verify(
            &root_f,
            &model,
            model.follower_k,
            &format!("{ctx} (promoted)"),
        );
        let f = start(&root_f, ServerRole::Primary, off);

        // The fenced old primary re-appears, still believing it leads,
        // and commits a zombie write its timeline never replicated.
        let p = start(&root_p, ServerRole::Primary, off);
        let (cur_before, _) = p.cursor(SID).expect("cursor");
        p.eval(SID, "val zombie = ref(666);").expect("zombie write");
        let (stale_gen, stale_bytes) = match p.ship(SID, cur_before).expect("ship") {
            Ship::Groups { gen, bytes, .. } => (gen, bytes),
            other => panic!("{ctx}: expected groups from the old primary, got {other:?}"),
        };
        assert!(!stale_bytes.is_empty());
        let (survivor, _) = recover_twice(&session_dir(&root_f), &model.names);
        let err = f.replica_apply(SID, stale_gen, stale_bytes).unwrap_err();
        assert!(
            matches!(err, ServerError::StaleGeneration { .. }),
            "{ctx}: stale group must be rejected whole, got {err}"
        );
        assert_eq!(
            recover_twice(&session_dir(&root_f), &model.names).0,
            survivor,
            "{ctx}: a rejected stale group must not perturb the survivor"
        );

        // The old primary restarts as a follower: its forked log cannot
        // be served incrementally, so one round heals it via snapshot
        // transfer — the zombie write is gone.
        drop(p);
        let p = start(&root_p, ServerRole::Follower, off);
        let round = catch_up(&p, &mut InProcess(&f)).unwrap_or_else(|e| panic!("{ctx}: heal: {e}"));
        assert_eq!(
            round.installs, 1,
            "{ctx}: a forked log must heal via snapshot transfer, got {round:?}"
        );
        let mut names = model.names.clone();
        names.push("zombie".to_string());
        assert_eq!(
            recover_twice(&session_dir(&root_p), &names).0,
            recover_twice(&session_dir(&root_f), &names).0,
            "{ctx}: healed old primary diverges from the new primary"
        );
        assert!(
            matches!(p.eval(SID, "zombie;"), Err(ServerError::Query(_))),
            "{ctx}: the zombie write survived healing"
        );

        // The new primary serves writes; the healed follower serves
        // reads without touching its log and declines writes. (A read
        // rebinds `it` in memory only, so it comes after the
        // comparisons: a promotion fence would snapshot it.)
        let healed = p.cursor(SID).expect("cursor");
        p.eval(SID, "1;").expect("follower read");
        assert_eq!(
            p.cursor(SID).expect("cursor"),
            healed,
            "{ctx}: a follower read moved its log"
        );
        f.eval(SID, "val epilogue = 1;")
            .expect("write on the new primary");
        assert!(matches!(
            p.eval(SID, "val epilogue = 2;"),
            Err(ServerError::ReadOnly)
        ));

        drop((p, f));
        let _ = std::fs::remove_dir_all(&root_p);
        let _ = std::fs::remove_dir_all(&root_f);
    }
    let added = metrics::snapshot().since(&before);
    assert!(
        added.get(Counter::ReplStaleRejected) >= iterations,
        "every iteration must exercise stale-generation rejection"
    );
    // The chaos must have actually been chaotic: torn ships and lost
    // acks fired, and catch-up healed through snapshot transfers.
    assert!(
        added.get(Counter::FaultShipDisconnects) > 0,
        "no iteration tore a shipped chunk"
    );
    assert!(
        added.get(Counter::FaultAckLosses) > 0,
        "no iteration lost an ack"
    );
    assert!(
        added.get(Counter::ReplSnapTransfers) > iterations,
        "catch-up never healed via snapshot transfer beyond the final heals"
    );
}

#[test]
fn promotion_during_catchup_fences_the_stream() {
    let seed = base_seed();
    let off = FaultConfig::off();
    let root_p = tempdir("mach-repl", "catchup-p", seed);
    let root_f = tempdir("mach-repl", "catchup-f", seed);
    let p = start(&root_p, ServerRole::Primary, off);
    let f = start(&root_f, ServerRole::Follower, off);
    for i in 0..6 {
        p.eval(SID, &format!("val v{i} = ref({i});"))
            .expect("commit");
    }
    // The first chunk lands normally.
    let round = catch_up(&f, &mut InProcess(&p)).expect("catch-up");
    assert_eq!(round.chunks_applied, 1);
    p.eval(SID, "v0 := 100;").expect("commit");

    // A chunk is in flight when the failover detector fires: the
    // follower promotes before it lands.
    let (cursor, _) = f.cursor(SID).expect("cursor");
    let (gen, bytes) = match p.ship(SID, cursor).expect("ship") {
        Ship::Groups { gen, bytes, .. } => (gen, bytes),
        other => panic!("expected groups, got {other:?}"),
    };
    f.promote(0).expect("promote");

    // Stamped with the old generation, it is rejected whole.
    let err = f.replica_apply(SID, gen, bytes).unwrap_err();
    assert!(matches!(err, ServerError::StaleGeneration { .. }), "{err}");
    assert_eq!(
        f.eval(SID, "!v0;").expect("read"),
        ["val it = 0 : int"],
        "pre-promotion state rules"
    );

    drop((p, f));
    let _ = std::fs::remove_dir_all(&root_p);
    let _ = std::fs::remove_dir_all(&root_f);
}

#[test]
fn a_poisoned_follower_slot_heals_by_snapshot_install() {
    let seed = base_seed();
    let off = FaultConfig::off();
    let root_p = tempdir("mach-repl", "poison-p", seed);
    let root_f = tempdir("mach-repl", "poison-f", seed);
    let p = start(&root_p, ServerRole::Primary, off);
    // Every evaluator tick on the follower panics, so a read that
    // reaches one poisons its slot.
    let f = start(
        &root_f,
        ServerRole::Follower,
        FaultConfig {
            eval_panic_ppm: 1_000_000,
            seed,
            ..off
        },
    );
    let rows: Vec<String> = (0..64).map(|i| format!("[K = {i}]")).collect();
    p.eval(SID, &format!("val r = {{{}}};", rows.join(", ")))
        .expect("commit");
    catch_up(&f, &mut InProcess(&p)).expect("catch-up");
    assert!(matches!(
        f.eval(SID, "select x.K where x <- r, y <- r with x.K = y.K;"),
        Err(ServerError::SessionPanicked(_))
    ));
    assert!(matches!(
        f.eval(SID, "r;"),
        Err(ServerError::SessionPoisoned(SID))
    ));

    // The next shipped chunk cannot apply to the poisoned slot; the
    // round rebuilds it from a snapshot instead of stalling on it.
    p.eval(SID, "val n = 1;").expect("commit");
    let round = catch_up(&f, &mut InProcess(&p)).expect("catch-up");
    assert_eq!(round.installs, 1, "{round:?}");
    assert_eq!(f.eval(SID, "n;").expect("healed"), ["val it = 1 : int"]);

    drop((p, f));
    let _ = std::fs::remove_dir_all(&root_p);
    let _ = std::fs::remove_dir_all(&root_f);
}
