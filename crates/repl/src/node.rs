//! A single-process replication endpoint: one durable session with a
//! role.
//!
//! [`ReplNode`] is the unit the failover chaos harness kills,
//! partitions, and promotes. It is deliberately the *same* machinery
//! the server tier uses — [`DurableSession`] underneath, shipping via
//! [`SessionLog::ship_from`], applying via
//! [`SessionLog::replica_apply`] — so what the harness proves about a
//! node pair holds for the TCP tier too.

use machiavelli::trace::metrics::{self, Counter};
use machiavelli::{is_read_only_source, Outcome};
use machiavelli_wal::{
    install_replica, CommitReceipt, DurableSession, LogCursor, RecoveryReport, ReplicaApplyReport,
    SessionLog, Ship, SnapshotTransfer, WalError,
};
use std::path::{Path, PathBuf};

/// Which side of the replication stream a node is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes; serves `ship` requests from followers.
    Primary,
    /// Read-only; pulls committed groups from a primary.
    Follower,
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Role::Primary => "primary",
            Role::Follower => "follower",
        })
    }
}

/// Errors a [`ReplNode`] evaluation can raise beyond the WAL's own.
#[derive(Debug)]
pub enum NodeError {
    /// The node is a follower and the source would write (a `val`/`fun`
    /// declaration or a `:=` assignment). Writes belong on the primary.
    ReadOnly,
    /// The underlying durable session failed.
    Wal(WalError),
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::ReadOnly => {
                write!(f, "read-only follower: writes belong on the primary")
            }
            NodeError::Wal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<WalError> for NodeError {
    fn from(e: WalError) -> NodeError {
        NodeError::Wal(e)
    }
}

/// What one [`ReplNode::pull_from`] round did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PullOutcome {
    /// The follower's cursor already sat at the primary's watermark.
    CaughtUp,
    /// Incremental groups were applied (possibly a torn prefix — check
    /// [`ReplicaApplyReport::torn`] and pull again).
    Applied(ReplicaApplyReport),
    /// The cursor could not be served incrementally (generation reset
    /// or divergence); full state was installed and the node re-opened
    /// through crash recovery.
    Installed(RecoveryReport),
}

/// One replication endpoint: a durable session, its directory, and a
/// role.
pub struct ReplNode {
    dir: PathBuf,
    ds: DurableSession,
    role: Role,
}

impl ReplNode {
    /// Open a primary under `dir` (prelude-less session).
    pub fn open_primary(dir: &Path) -> Result<(ReplNode, RecoveryReport), WalError> {
        ReplNode::open(dir, Role::Primary)
    }

    /// Open a follower under `dir` (prelude-less session).
    pub fn open_follower(dir: &Path) -> Result<(ReplNode, RecoveryReport), WalError> {
        ReplNode::open(dir, Role::Follower)
    }

    fn open(dir: &Path, role: Role) -> Result<(ReplNode, RecoveryReport), WalError> {
        let (ds, report) = DurableSession::open_bare(dir)?;
        Ok((
            ReplNode {
                dir: dir.to_path_buf(),
                ds,
                role,
            },
            report,
        ))
    }

    pub fn role(&self) -> Role {
        self.role
    }

    pub fn session(&self) -> &machiavelli::Session {
        self.ds.session()
    }

    pub fn log(&self) -> &SessionLog {
        self.ds.log()
    }

    pub fn cursor(&self) -> LogCursor {
        self.ds.log().cursor()
    }

    /// Evaluate on this node. A primary commits durably; a follower
    /// accepts only read-only sources (evaluated in memory, nothing
    /// logged — the replicated stream stays byte-identical to the
    /// primary's) and declines writes with [`NodeError::ReadOnly`].
    pub fn eval(&mut self, src: &str) -> Result<(Vec<Outcome>, CommitReceipt), NodeError> {
        match self.role {
            Role::Primary => Ok(self.ds.eval(src)?),
            Role::Follower => {
                if !is_read_only_source(src) {
                    return Err(NodeError::ReadOnly);
                }
                let outcomes = self
                    .ds
                    .session_mut()
                    .run(src)
                    .map_err(|e| NodeError::Wal(WalError::Session(e.to_string())))?;
                // A read-only source has no ref writes, but replayed
                // reads may still have touched the dirty channel's
                // bookkeeping; never let scratch reads leak into a
                // later replicated append.
                self.ds.log_mut().absorb_dirty();
                Ok((outcomes, CommitReceipt::default()))
            }
        }
    }

    /// Force a checkpoint (primary compaction; also the promotion
    /// fence).
    pub fn checkpoint(&mut self) -> Result<(), WalError> {
        self.ds.checkpoint()
    }

    /// Promote this node to primary, fencing the old one: the
    /// checkpoint bumps the log generation, so any groups a
    /// re-appearing old primary ships carry a stale generation and are
    /// rejected whole. Idempotent. Returns the fenced generation.
    ///
    /// A replicating follower tracks the primary's generation in its
    /// own log, so one bump fences it. A follower that missed primary
    /// checkpoints behind a partition should use
    /// [`ReplNode::promote_above`] with the deposed primary's last
    /// known generation instead.
    pub fn promote(&mut self) -> Result<u64, WalError> {
        let own = self.ds.log().generation();
        self.promote_above(own)
    }

    /// Promote, guaranteeing the fenced generation exceeds `floor` —
    /// the deposed primary's last known generation (from `HEALTH`, or
    /// whatever failover controller decided the old primary is dead).
    /// Without the floor, a follower several checkpoints behind could
    /// promote onto a generation the old primary already used, and its
    /// stale groups would no longer be distinguishable.
    pub fn promote_above(&mut self, floor: u64) -> Result<u64, WalError> {
        if self.role == Role::Primary {
            return Ok(self.ds.log().generation());
        }
        loop {
            self.ds.checkpoint()?;
            if self.ds.log().generation() > floor {
                break;
            }
        }
        self.role = Role::Primary;
        metrics::add(Counter::ReplPromotions, 1);
        Ok(self.ds.log().generation())
    }

    /// Demote to follower (an old primary rejoining the cluster). Its
    /// next [`ReplNode::pull_from`] heals it — usually via snapshot
    /// transfer, since its log forked from the new primary's.
    pub fn demote(&mut self) {
        self.role = Role::Follower;
    }

    /// Serve one follower catch-up request (the primary side).
    pub fn ship(&mut self, cursor: LogCursor) -> Result<Ship, WalError> {
        self.ds.log_mut().ship_from(cursor)
    }

    /// Apply a shipped chunk directly (the follower side of a push; the
    /// pull path is [`ReplNode::pull_from`]). Stale generations are
    /// rejected whole with [`WalError::StaleGeneration`].
    pub fn apply(&mut self, gen: u64, bytes: &[u8]) -> Result<ReplicaApplyReport, WalError> {
        self.ds.replica_apply(gen, bytes)
    }

    /// One pull round against a primary: request from the local cursor,
    /// apply incrementally, or heal via snapshot transfer when the
    /// cursor cannot be served (generation reset, divergence, or a
    /// local apply failure that doomed the log).
    pub fn pull_from(&mut self, primary: &mut ReplNode) -> Result<PullOutcome, WalError> {
        let cursor = self.cursor();
        match primary.ship(cursor)? {
            Ship::Groups { bytes, .. } if bytes.is_empty() => Ok(PullOutcome::CaughtUp),
            Ship::Groups { gen, bytes, .. } => match self.apply(gen, &bytes) {
                Ok(report) => Ok(PullOutcome::Applied(report)),
                Err(WalError::StaleGeneration { .. }) | Err(WalError::ReplicaDiverged(_)) => {
                    let transfer = primary.ds.log_mut().snapshot_transfer()?;
                    self.install(&transfer).map(PullOutcome::Installed)
                }
                Err(e) => Err(e),
            },
            Ship::Snapshot(transfer) => self.install(&transfer).map(PullOutcome::Installed),
        }
    }

    /// Install a full-state transfer and re-open through crash
    /// recovery. The transfer is validated before anything on disk is
    /// overwritten.
    pub fn install(&mut self, transfer: &SnapshotTransfer) -> Result<RecoveryReport, WalError> {
        install_replica(&self.dir, transfer)?;
        self.reopen()
    }

    /// Drop in-memory state and recover from disk — the "kill -9 and
    /// restart" the chaos harness exercises.
    pub fn reopen(&mut self) -> Result<RecoveryReport, WalError> {
        let (ds, report) = DurableSession::open_bare(&self.dir)?;
        self.ds = ds;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machiavelli_value::faults::{set_fault_config, FaultConfig};
    use machiavelli_value::{RefValue, Value};

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mach-repl-node-{tag}-{}-{}",
            std::process::id(),
            RefValue::new(Value::Unit).id
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn show(outcomes: &[Outcome]) -> String {
        outcomes
            .iter()
            .map(|o| o.show())
            .collect::<Vec<_>>()
            .join("; ")
    }

    #[test]
    fn follower_pulls_serve_reads_and_decline_writes() {
        let prev = set_fault_config(Some(FaultConfig::off()));
        let dp = tempdir("p");
        let df = tempdir("f");
        let (mut p, _) = ReplNode::open_primary(&dp).unwrap();
        let (mut f, _) = ReplNode::open_follower(&df).unwrap();
        p.eval("val x = ref(1);").unwrap();
        p.eval("x := 41;").unwrap();
        assert!(matches!(
            f.pull_from(&mut p).unwrap(),
            PullOutcome::Applied(_)
        ));
        assert_eq!(f.pull_from(&mut p).unwrap(), PullOutcome::CaughtUp);
        let (o, receipt) = f.eval("!x;").unwrap();
        assert_eq!(show(&o), "val it = 41 : int");
        assert_eq!(
            receipt,
            CommitReceipt::default(),
            "follower reads log nothing"
        );
        assert!(matches!(f.eval("x := 9;"), Err(NodeError::ReadOnly)));
        assert!(matches!(f.eval("val y = 1;"), Err(NodeError::ReadOnly)));
        let _ = std::fs::remove_dir_all(&dp);
        let _ = std::fs::remove_dir_all(&df);
        set_fault_config(prev);
    }

    #[test]
    fn promotion_fences_the_old_primary() {
        let prev = set_fault_config(Some(FaultConfig::off()));
        let dp = tempdir("fence-p");
        let df = tempdir("fence-f");
        let (mut p, _) = ReplNode::open_primary(&dp).unwrap();
        let (mut f, _) = ReplNode::open_follower(&df).unwrap();
        p.eval("val a = ref(10);").unwrap();
        f.pull_from(&mut p).unwrap();

        // Partition: the primary keeps committing, unreplicated.
        p.eval("a := 11;").unwrap();
        let stale = match p.ship(f.cursor()).unwrap() {
            Ship::Groups { gen, bytes, .. } => (gen, bytes),
            other => panic!("expected groups, got {other:?}"),
        };

        // Failover: the follower is promoted; its generation bumps.
        let fenced_gen = f.promote().unwrap();
        assert_eq!(f.role(), Role::Primary);
        assert!(fenced_gen > stale.0);

        // The old primary's in-flight chunk arrives late: rejected
        // whole, state unchanged.
        let err = f.apply(stale.0, &stale.1).unwrap_err();
        assert!(matches!(err, WalError::StaleGeneration { .. }), "{err}");
        let (o, _) = f.eval("!a;").unwrap();
        assert_eq!(show(&o), "val it = 10 : int");

        // The new primary accepts writes; the old one heals as a
        // follower via snapshot transfer and converges.
        f.eval("a := 12;").unwrap();
        p.demote();
        assert!(matches!(
            p.pull_from(&mut f).unwrap(),
            PullOutcome::Installed(_)
        ));
        let (o, _) = p.eval("!a;").unwrap();
        assert_eq!(show(&o), "val it = 12 : int");
        let _ = std::fs::remove_dir_all(&dp);
        let _ = std::fs::remove_dir_all(&df);
        set_fault_config(prev);
    }

    #[test]
    fn promote_is_idempotent() {
        let prev = set_fault_config(Some(FaultConfig::off()));
        let d = tempdir("idem");
        let (mut p, _) = ReplNode::open_primary(&d).unwrap();
        p.eval("val x = 1;").unwrap();
        let g1 = p.promote().unwrap();
        let g2 = p.promote().unwrap();
        assert_eq!(g1, g2, "promoting a primary must not churn generations");
        let _ = std::fs::remove_dir_all(&d);
        set_fault_config(prev);
    }
}
