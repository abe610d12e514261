//! **The process-wide counter registry.** Every monotone counter the
//! engine keeps across sessions — server admission and governance, the
//! shared index tier, the write-ahead log, replication, injected-fault
//! tallies and the typed decline ledger — is one slot of one static
//! array, declared by one row of the [`Counter`] table below. Layers
//! bump a slot with [`add`]; `METRICS`, `STATS` and `:stats` all render
//! from one [`Snapshot`]. `docs/OBSERVABILITY.md` is the prose statement
//! of the same table (a test below keeps the two in step).
//!
//! An increment commutes with every other increment, so the slots are
//! relaxed atomics: lock-free at the call sites, and a snapshot is a
//! per-slot read, not a cross-slot transaction.

use crate::DeclineReason;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// A process-wide monotone counter. Exported by `METRICS` as
        /// `machiavelli_<name>_total`, in declaration order.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        impl Counter {
            /// Every counter, in exposition order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant,)*];
            /// Number of counters.
            pub const COUNT: usize = Counter::ALL.len();

            /// The exposition name, without the `machiavelli_` prefix
            /// and `_total` suffix.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }
        }
    };
}

counters! {
    /// Sessions opened on the server.
    SessionsStarted => "sessions_started",
    /// Sessions poisoned by a panic or a failed commit (isolated, not fatal).
    SessionsPanicked => "sessions_panicked",
    /// Sessions closed cleanly.
    SessionsClosed => "sessions_closed",
    /// Queries that ran to an answer or a plain query error.
    QueriesCompleted => "queries_completed",
    /// Queries rejected at admission (queue full).
    QueriesShed => "queries_shed",
    /// Queries stopped by their deadline.
    QueriesDeadline => "queries_deadline",
    /// Queries stopped by client cancellation.
    QueriesCancelled => "queries_cancelled",
    /// Queries stopped by their row budget.
    QueriesRowBudget => "queries_row_budget",

    /// Shared tier: snapshots published by some session's build.
    SharedPublishes => "shared_publishes",
    /// Shared tier: lookups served to a different storage by content
    /// address (verification passed; the adopter skipped its build).
    SharedAdoptions => "shared_adoptions",
    /// Shared tier: adoption attempts that found no verifiable entry.
    SharedMisses => "shared_misses",
    /// Shared tier: entries dropped by the LRU row budget.
    SharedEvicted => "shared_evicted",
    /// Shared tier: entries dropped by an unattributed-write clear or a
    /// poison recovery.
    SharedCleared => "shared_cleared",
    /// Shared tier: times the lock was found poisoned and recovered.
    SharedLockRecoveries => "shared_lock_recoveries",

    /// WAL records appended (bind, ref-delta and commit markers).
    WalRecordsAppended => "wal_records_appended",
    /// WAL payload + framing bytes appended.
    WalBytesLogged => "wal_bytes_logged",
    /// Commit groups made durable.
    WalCommits => "wal_commits",
    /// Checkpoints completed (snapshot renamed and log reset).
    WalCheckpoints => "wal_checkpoints",
    /// Recoveries performed on open (snapshot and/or log replayed).
    WalRecoveries => "wal_recoveries",
    /// Torn tails truncated during recovery.
    WalTornTailsTruncated => "wal_torn_tails_truncated",

    /// Incremental chunks served to followers (empty replies included).
    ReplShips => "repl_ships",
    /// Bytes of shipped group chunks (before hex encoding).
    ReplShipBytes => "repl_ship_bytes",
    /// Full-state snapshot transfers served.
    ReplSnapTransfers => "repl_snap_transfers",
    /// Commit groups applied on followers.
    ReplGroupsApplied => "repl_groups_applied",
    /// Shipped groups rejected for a stale generation (the fencing
    /// counter: nonzero means an old primary replayed after a promotion).
    ReplStaleRejected => "repl_stale_rejected",
    /// Follower acks recorded by a primary.
    ReplAcks => "repl_acks",
    /// Follower acks dropped by the injected ack-loss fault.
    ReplAcksLost => "repl_acks_lost",
    /// Promotions performed (follower fenced up to primary).
    ReplPromotions => "repl_promotions",

    /// Injected: evaluator-tick panics.
    FaultEvalPanics => "fault_eval_panics",
    /// Injected: parallel-worker panics.
    FaultWorkerPanics => "fault_worker_panics",
    /// Injected: thread spawns denied.
    FaultSpawnFailures => "fault_spawn_failures",
    /// Injected: evaluator-tick sleeps.
    FaultDelays => "fault_delays",
    /// Injected: panics while holding the shared-tier lock.
    FaultStorePoisons => "fault_store_poisons",
    /// Injected: WAL appends torn mid-write.
    FaultWalTornWrites => "fault_wal_torn_writes",
    /// Injected: WAL syncs reported failed.
    FaultWalSyncFailures => "fault_wal_sync_failures",
    /// Injected: checkpoints killed between steps.
    FaultCheckpointKills => "fault_checkpoint_kills",
    /// Injected: shipped chunks cut mid-stream.
    FaultShipDisconnects => "fault_ship_disconnects",
    /// Injected: follower acks lost.
    FaultAckLosses => "fault_ack_losses",
    /// Injected: followers killed between pump rounds.
    FaultFollowerKills => "fault_follower_kills",
    /// Injected: promotions landed mid-catch-up.
    FaultPromoteCatchups => "fault_promote_catchups",
}

/// The decline ledger occupies the slots after the table, one per
/// [`DeclineReason`] — the taxonomy stays declared once, in its enum.
const SLOTS: usize = Counter::COUNT + DeclineReason::COUNT;

static CELLS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];

/// Add `n` to a counter.
pub fn add(counter: Counter, n: u64) {
    CELLS[counter as usize].fetch_add(n, Ordering::Relaxed);
}

/// Count one typed decline ([`crate::note_decline`] is the entry point).
pub(crate) fn add_decline(reason: DeclineReason) {
    CELLS[Counter::COUNT + reason.index()].fetch_add(1, Ordering::Relaxed);
}

/// Current value of one counter.
pub fn get(counter: Counter) -> u64 {
    CELLS[counter as usize].load(Ordering::Relaxed)
}

/// Zero the given counters. Test and bench setup only: the counters are
/// process-wide, so anything that can run beside other tests should
/// compare a [`Snapshot`] taken before with [`Snapshot::since`] instead.
pub fn reset(counters: &[Counter]) {
    for &c in counters {
        CELLS[c as usize].store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of every slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot([u64; SLOTS]);

/// Copy every slot.
pub fn snapshot() -> Snapshot {
    Snapshot(std::array::from_fn(|i| CELLS[i].load(Ordering::Relaxed)))
}

impl Snapshot {
    /// The value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.0[counter as usize]
    }

    /// The process-wide count of one decline reason.
    pub fn decline(&self, reason: DeclineReason) -> u64 {
        self.0[Counter::COUNT + reason.index()]
    }

    /// What was added between `before` and this snapshot.
    pub fn since(&self, before: &Snapshot) -> Snapshot {
        Snapshot(std::array::from_fn(|i| {
            self.0[i].saturating_sub(before.0[i])
        }))
    }

    /// Append every counter, then one `machiavelli_declines_total`
    /// series per decline reason, as Prometheus text exposition.
    pub fn render_exposition(&self, out: &mut String) {
        for &c in Counter::ALL {
            let name = c.name();
            let _ = writeln!(out, "# TYPE machiavelli_{name}_total counter");
            let _ = writeln!(out, "machiavelli_{name}_total {}", self.get(c));
        }
        out.push_str("# TYPE machiavelli_declines_total counter\n");
        for &r in &DeclineReason::ALL {
            let _ = writeln!(
                out,
                "machiavelli_declines_total{{reason=\"{}\"}} {}",
                r.code(),
                self.decline(r)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_counter_has_one_uniquely_named_slot() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?} is out of table order");
        }
        assert!(names.iter().all(|n| !n.is_empty() && *n != "declines"));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT, "names must be distinct");
    }

    #[test]
    fn add_lands_in_the_snapshot_and_since_subtracts() {
        // Other tests in this binary bump declines and nothing else, so
        // deltas on table counters are exact.
        let before = snapshot();
        for (i, &c) in Counter::ALL.iter().enumerate() {
            add(c, i as u64 + 1);
        }
        crate::note_decline(DeclineReason::StoreRcOnly);
        let delta = snapshot().since(&before);
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(delta.get(c), i as u64 + 1, "{c:?}");
            assert_eq!(get(c), before.get(c) + i as u64 + 1, "{c:?}");
        }
        assert!(delta.decline(DeclineReason::StoreRcOnly) >= 1);
        assert_eq!(before.since(&snapshot()).get(Counter::WalCommits), 0);
    }

    #[test]
    fn exposition_renders_every_slot() {
        let mut text = String::new();
        snapshot().render_exposition(&mut text);
        let samples = text.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(samples, SLOTS);
        assert!(text.contains("machiavelli_queries_deadline_total "));
        assert!(text.contains("machiavelli_declines_total{reason=\"store-rc-only\"} "));
    }

    /// `docs/OBSERVABILITY.md` carries the one prose table of the
    /// counters: every registry name has a row, and every
    /// `machiavelli_*_total` row names a registry counter.
    #[test]
    fn observability_doc_table_matches_the_registry() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let mut documented: Vec<&str> = doc
            .lines()
            .filter(|l| l.starts_with('|'))
            .flat_map(|l| l.split('`'))
            .filter_map(|cell| {
                let name = cell.strip_prefix("machiavelli_")?;
                let name = name.split('{').next()?;
                name.strip_suffix("_total")
            })
            .collect();
        documented.sort_unstable();
        documented.dedup();
        let mut registered: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        registered.push("declines");
        registered.sort_unstable();
        assert_eq!(documented, registered);
    }
}
