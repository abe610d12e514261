//! Seeded partition/kill chaos for WAL-shipping replication.
//!
//! Hundreds of random interleavings of primary commits, follower
//! catch-up pulls (with injected mid-chunk disconnects and lost acks),
//! partitions, kills of either node, and primary checkpoints — each
//! ending in a failover: the primary dies, the follower is promoted,
//! and the survivor must serve **exactly** the durable prefix it
//! applied (values and pointer identity, verified twice for
//! idempotence), which always covers the acked prefix. The fenced old
//! primary then re-appears: its stale-generation groups must be
//! rejected whole, and it must heal back to convergence as a follower
//! via snapshot transfer.
//!
//! The base seed comes from `MACHIAVELLI_FAULT_SEED` (default 1989),
//! iterations from `MACHIAVELLI_REPL_ITERS` (default 220), so the CI
//! chaos job and a local repro run the same interleavings.

use std::path::PathBuf;

use machiavelli::persist::{encode_with_registry, RefRegistry};
use machiavelli::trace::metrics::{self, Counter};
use machiavelli::Session;
use machiavelli_repl::{NodeError, PullOutcome, ReplNode, Role};
use machiavelli_value::faults::{fire, set_fault_config, FaultConfig, FaultPoint};
use machiavelli_wal::WalError;

fn base_seed() -> u64 {
    std::env::var("MACHIAVELLI_FAULT_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1989)
}

/// Local splitmix64: the harness must not share a stream with the
/// fault layer it is testing.
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
    let dir = std::env::temp_dir().join(format!("mach-repl-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Canonical durable-visible state: every binding encoded through one
/// shared registry, in a fixed name order — values AND cross-binding
/// pointer sharing must match for two states to compare equal.
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
/// the ground truth a replica must match.
fn expected_state(srcs: &[String], names: &[String]) -> String {
    let mut model = Session::bare();
    for src in srcs {
        model
            .run(src)
            .unwrap_or_else(|e| panic!("model replay of {src:?}: {e}"));
    }
    canonical_state(&model, names)
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
    /// Commit count of the primary's *current-generation* log when
    /// each group landed: `log_group_srcs[i]` = `applied.len()` right
    /// after current-gen group `i` committed. Cleared by checkpoints.
    log_group_srcs: Vec<usize>,
    /// How many of `applied` the follower has absorbed.
    follower_k: usize,
    /// Complete groups in the follower's current-generation log.
    follower_groups: usize,
    /// The acked watermark (srcs) — what the primary believes the
    /// follower holds. Lost acks leave it behind `follower_k`.
    acked_k: usize,
}

impl Model {
    fn note_name(&mut self, name: &str) {
        if !self.names.iter().any(|n| n == name) {
            self.names.push(name.to_string());
        }
    }
}

fn verify_follower(f: &ReplNode, model: &Model, ctx: &str) {
    let expected = expected_state(&model.applied[..model.follower_k], &model.names);
    let got = canonical_state(f.session(), &model.names);
    assert_eq!(
        got, expected,
        "{ctx}: follower diverged from applied prefix"
    );
}

/// Kill the follower (drop in-memory state) and verify the recovered
/// state twice — recovery must be idempotent.
fn kill_and_verify_follower(f: &mut ReplNode, model: &Model, ctx: &str) {
    f.reopen().unwrap_or_else(|e| panic!("{ctx}: reopen: {e}"));
    verify_follower(f, model, &format!("{ctx} (first recovery)"));
    f.reopen()
        .unwrap_or_else(|e| panic!("{ctx}: re-reopen: {e}"));
    verify_follower(f, model, &format!("{ctx} (second recovery)"));
}

/// One catch-up pull under the iteration's ship faults, with the model
/// updated from the outcome. Returns whether the ack landed.
fn pump(
    p: &mut ReplNode,
    f: &mut ReplNode,
    model: &mut Model,
    faults: FaultConfig,
    ctx: &str,
) -> bool {
    set_fault_config(Some(faults));
    let outcome = f.pull_from(p);
    let ack_lost = fire(FaultPoint::AckLoss);
    set_fault_config(Some(FaultConfig::off()));
    match outcome {
        Ok(PullOutcome::CaughtUp) => {
            assert_eq!(
                model.follower_k,
                model.applied.len(),
                "{ctx}: caught up but the model says groups are missing"
            );
        }
        Ok(PullOutcome::Applied(report)) => {
            model.follower_groups += report.groups_applied as usize;
            if model.follower_groups > 0 {
                assert!(
                    model.follower_groups <= model.log_group_srcs.len(),
                    "{ctx}: follower ahead of the primary's log"
                );
                model.follower_k = model.log_group_srcs[model.follower_groups - 1];
            }
        }
        Ok(PullOutcome::Installed(_)) => {
            // A full transfer carries everything durable on the
            // primary: snapshot plus the current log prefix.
            model.follower_k = model.applied.len();
            model.follower_groups = model.log_group_srcs.len();
        }
        Err(e) => panic!("{ctx}: pull: {e}"),
    }
    if !ack_lost {
        model.acked_k = model.acked_k.max(model.follower_k);
        true
    } else {
        false
    }
}

#[test]
fn seeded_failovers_serve_the_acked_durable_prefix() {
    let iterations: u64 = std::env::var("MACHIAVELLI_REPL_ITERS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(220);
    let base = base_seed();
    let prev = set_fault_config(Some(FaultConfig::off()));
    let before = metrics::snapshot();

    for iter in 0..iterations {
        let seed = base.wrapping_mul(6_700_417).wrapping_add(iter);
        let mut rng = Rng::new(seed);
        let dir_p = tempdir("p", seed);
        let dir_f = tempdir("f", seed);
        let (mut p, _) = ReplNode::open_primary(&dir_p).unwrap();
        let (mut f, _) = ReplNode::open_follower(&dir_f).unwrap();
        let mut model = Model {
            applied: Vec::new(),
            names: Vec::new(),
            refs: Vec::new(),
            log_group_srcs: Vec::new(),
            follower_k: 0,
            follower_groups: 0,
            acked_k: 0,
        };
        // Ship-channel chaos for this iteration: mid-chunk disconnects
        // and lost acks at a seeded intensity.
        let intensity = [0u32, 120_000, 400_000, 900_000][rng.below(4) as usize];
        let faults = FaultConfig {
            seed,
            ship_disconnect_ppm: intensity,
            ack_loss_ppm: intensity / 2,
            ..FaultConfig::off()
        };
        let mut partitioned = false;
        let steps = 8 + rng.below(18);

        for step in 0..steps {
            let ctx = format!("seed {seed} iter {iter} step {step}");
            let roll = rng.below(100);
            if roll < 10 {
                // Kill the follower; recovery must serve its own
                // durable prefix, twice.
                kill_and_verify_follower(&mut f, &model, &ctx);
                continue;
            }
            if roll < 16 {
                // Kill the primary; everything it acked is durable.
                p.reopen()
                    .unwrap_or_else(|e| panic!("{ctx}: primary reopen: {e}"));
                continue;
            }
            if roll < 24 {
                // Checkpoint (generation bump): the follower's next
                // pull must heal via snapshot transfer.
                p.checkpoint()
                    .unwrap_or_else(|e| panic!("{ctx}: checkpoint: {e}"));
                model.log_group_srcs.clear();
                model.follower_groups = 0;
                continue;
            }
            if roll < 30 {
                partitioned = !partitioned;
                continue;
            }
            if roll < 52 {
                if !partitioned {
                    pump(&mut p, &mut f, &mut model, faults, &ctx);
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
            let groups_before = p.log().groups();
            let (_, receipt) = p
                .eval(&src)
                .unwrap_or_else(|e| panic!("{ctx}: eval {src:?}: {e}"));
            model.applied.push(src.clone());
            if receipt.checkpointed {
                // The commit escalated to a checkpoint (generation
                // bump): the log restarted empty, like the explicit
                // checkpoint op.
                model.log_group_srcs.clear();
            } else {
                assert_eq!(
                    p.log().groups(),
                    groups_before + 1,
                    "{ctx}: every harness op must commit exactly one group"
                );
                model.log_group_srcs.push(model.applied.len());
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
        // The primary dies. The follower is promoted and must serve
        // exactly the prefix it applied — which covers every ack the
        // primary ever saw.
        let ctx = format!("seed {seed} iter {iter} failover");
        let old_gen = p.log().generation();
        drop(p);
        assert!(
            model.acked_k <= model.follower_k,
            "{ctx}: an ack outran the follower's durable state"
        );
        let fenced_gen = f
            .promote_above(old_gen)
            .unwrap_or_else(|e| panic!("{ctx}: promote: {e}"));
        assert!(
            fenced_gen > old_gen,
            "{ctx}: promotion must fence the old generation"
        );
        assert_eq!(f.role(), Role::Primary);
        verify_follower(&f, &model, &format!("{ctx} (promoted)"));
        f.reopen().unwrap_or_else(|e| panic!("{ctx}: reopen: {e}"));
        verify_follower(&f, &model, &format!("{ctx} (promoted, recovered again)"));

        // The fenced old primary re-appears, still believing it leads,
        // and commits a zombie write its timeline never replicated.
        let (mut p, _) = ReplNode::open_primary(&dir_p).unwrap();
        let cur_before = p.cursor();
        p.eval("val zombie = ref(666);").unwrap();
        let (stale_gen, stale_bytes) = match p.ship(cur_before).unwrap() {
            machiavelli_wal::Ship::Groups { gen, bytes, .. } => (gen, bytes),
            other => panic!("{ctx}: expected groups from the old primary, got {other:?}"),
        };
        assert!(!stale_bytes.is_empty());
        let survivor_state = canonical_state(f.session(), &model.names);
        let err = f.apply(stale_gen, &stale_bytes).unwrap_err();
        assert!(
            matches!(err, WalError::StaleGeneration { .. }),
            "{ctx}: stale group must be rejected whole, got {err}"
        );
        assert_eq!(
            canonical_state(f.session(), &model.names),
            survivor_state,
            "{ctx}: a rejected stale group must not perturb the survivor"
        );

        // The old primary heals as a follower: its forked log cannot be
        // served incrementally, so it converges via snapshot transfer —
        // the zombie write is gone.
        p.demote();
        let outcome = p
            .pull_from(&mut f)
            .unwrap_or_else(|e| panic!("{ctx}: heal: {e}"));
        assert!(
            matches!(outcome, PullOutcome::Installed(_)),
            "{ctx}: a forked log must heal via snapshot transfer, got {outcome:?}"
        );
        let mut names = model.names.clone();
        names.push("zombie".to_string());
        assert_eq!(
            canonical_state(p.session(), &names),
            canonical_state(f.session(), &names),
            "{ctx}: healed old primary diverges from the new primary"
        );
        assert!(
            p.session().persistable_binding("zombie").is_none(),
            "{ctx}: the zombie write survived healing"
        );

        // The new primary serves writes; the healed follower declines
        // them.
        f.eval("val epilogue = 1;").unwrap();
        assert!(matches!(
            p.eval("val epilogue = 2;"),
            Err(NodeError::ReadOnly)
        ));

        let _ = std::fs::remove_dir_all(&dir_p);
        let _ = std::fs::remove_dir_all(&dir_f);
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
    set_fault_config(prev);
}

#[test]
fn promotion_during_catchup_fences_the_stream() {
    let prev = set_fault_config(Some(FaultConfig::off()));
    let seed = base_seed();
    let dir_p = tempdir("catchup-p", seed);
    let dir_f = tempdir("catchup-f", seed);
    let (mut p, _) = ReplNode::open_primary(&dir_p).unwrap();
    let (mut f, _) = ReplNode::open_follower(&dir_f).unwrap();
    for i in 0..6 {
        p.eval(&format!("val v{i} = ref({i});")).unwrap();
    }
    // First chunk lands normally.
    assert!(matches!(
        f.pull_from(&mut p).unwrap(),
        PullOutcome::Applied(_)
    ));
    p.eval("v0 := 100;").unwrap();

    // Mid-catch-up, the failover detector fires (injected at
    // certainty): the follower promotes while a chunk is in flight.
    set_fault_config(Some(FaultConfig {
        seed,
        promote_catchup_ppm: 1_000_000,
        ..FaultConfig::off()
    }));
    let before = metrics::get(Counter::FaultPromoteCatchups);
    assert!(
        fire(FaultPoint::PromoteCatchup),
        "fault must fire at certainty"
    );
    assert!(metrics::get(Counter::FaultPromoteCatchups) > before);
    set_fault_config(Some(FaultConfig::off()));

    let in_flight = match p.ship(f.cursor()).unwrap() {
        machiavelli_wal::Ship::Groups { gen, bytes, .. } => (gen, bytes),
        other => panic!("expected groups, got {other:?}"),
    };
    f.promote().unwrap();

    // The in-flight chunk from the deposed primary arrives after the
    // promotion: stamped with the old generation, rejected whole.
    let err = f.apply(in_flight.0, &in_flight.1).unwrap_err();
    assert!(matches!(err, WalError::StaleGeneration { .. }), "{err}");
    let (o, _) = f.eval("!v0;").unwrap();
    assert_eq!(o[0].show(), "val it = 0 : int", "pre-promotion state rules");

    let _ = std::fs::remove_dir_all(&dir_p);
    let _ = std::fs::remove_dir_all(&dir_f);
    set_fault_config(prev);
}
