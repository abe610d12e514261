//! **Dirty reference sets**: the write-side half of the index store's
//! invalidation contract, and the write-ahead log's delta attribution.
//!
//! Every reference-cell write goes through [`crate::RefValue::set`],
//! which takes the [`WriteSink`] it records the written ref's identity
//! into. A session owns its sinks (a [`DirtySets`] pair inside its
//! engine context): cache layers (the index store in
//! `machiavelli-store`) drain the store set to decide *which* cached
//! entries could possibly be affected — an entry is evicted only when a
//! written ref is reachable from the relation it indexes, so a write to
//! a ref no cached relation can reach evicts nothing, and an empty drain
//! means no write happened. The durability layer (`machiavelli-wal`)
//! drains the WAL set at each commit.
//!
//! Each set is bounded: past [`DIRTY_REFS_CAP`] distinct ids it
//! collapses to an *overflowed* marker, which consumers must treat as
//! "every ref may have been written" (evict everything reachable from
//! refs; fall back to a full checkpoint). Overflow is the only way
//! identities are lost: a ref's cell is private to this crate, so no
//! write can bypass `RefValue::set` and the sink it names.

use std::cell::RefCell;
use std::collections::HashSet;

/// Distinct written-ref ids tracked between drains; past this the set
/// collapses to the conservative "everything is dirty" marker (a write
/// burst this large is headed for a rebuild anyway).
pub const DIRTY_REFS_CAP: usize = 4096;

/// The identities written since the last drain. `overflowed` means the
/// precise set was lost (more than [`DIRTY_REFS_CAP`] distinct writes):
/// consumers must assume every ref was written.
#[derive(Debug, Default)]
pub struct DirtyRefs {
    pub ids: HashSet<u64>,
    pub overflowed: bool,
}

impl DirtyRefs {
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty() && !self.overflowed
    }

    /// Does the dirty set intersect `sources` (a sorted id list)?
    /// Overflow intersects everything non-trivial — but an empty source
    /// list (a value that can reach no ref at all) intersects nothing,
    /// however much was written.
    pub fn intersects(&self, sources: &[u64]) -> bool {
        if sources.is_empty() {
            return false;
        }
        if self.overflowed {
            return true;
        }
        if sources.len() <= self.ids.len() {
            sources.iter().any(|id| self.ids.contains(id))
        } else {
            self.ids.iter().any(|id| sources.binary_search(id).is_ok())
        }
    }
}

/// Where a reference write is recorded. [`crate::RefValue::set`] takes
/// one, so every write site names the sets it must reach.
pub trait WriteSink {
    fn note_ref_write(&self, id: u64);
}

/// One dirty set with a single consumer, drained whole.
#[derive(Debug, Default)]
pub struct DirtySet(RefCell<DirtyRefs>);

impl DirtySet {
    /// Drain the set, leaving it empty; draining with no intervening
    /// writes returns an empty set.
    pub fn take(&self) -> DirtyRefs {
        std::mem::take(&mut *self.0.borrow_mut())
    }
}

impl WriteSink for DirtySet {
    fn note_ref_write(&self, id: u64) {
        let mut d = self.0.borrow_mut();
        if d.overflowed {
            return;
        }
        if d.ids.len() >= DIRTY_REFS_CAP {
            d.ids = HashSet::new();
            d.overflowed = true;
        } else {
            d.ids.insert(id);
        }
    }
}

/// The two dirty sets a session owns. As a sink the pair records into
/// both — the evaluator's `:=`, a write the index store must see and
/// the WAL must log. A write that is already durable (persistence
/// decoding into a live session: WAL replay, a replica applying shipped
/// groups) records into [`DirtySets::store`] alone.
#[derive(Debug, Default)]
pub struct DirtySets {
    /// Drained by the session's index store before it serves anything.
    pub store: DirtySet,
    /// Drained by the session's attached log at each commit; an
    /// `overflowed` drain means attribution was lost and the log falls
    /// back to a full checkpoint.
    pub wal: DirtySet,
}

impl WriteSink for DirtySets {
    fn note_ref_write(&self, id: u64) {
        self.store.note_ref_write(id);
        self.wal.note_ref_write(id);
    }
}

/// The sink for a write nothing can have observed: filling a cell its
/// writer allocated and has not shared yet (persistence decoding ties
/// reference cycles this way). Records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unobserved;

impl WriteSink for Unobserved {
    fn note_ref_write(&self, _id: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{RefValue, Value};

    #[test]
    fn ref_writes_record_identity() {
        let dirty = DirtySet::default();
        let r = RefValue::new(Value::Int(1));
        assert!(
            dirty.take().is_empty(),
            "allocation is not a write — fresh refs cannot be cached yet"
        );
        r.set(Value::Int(2), &dirty);
        let drained = dirty.take();
        assert!(drained.ids.contains(&r.id), "{drained:?}");
        assert!(!drained.overflowed);
        assert!(dirty.take().is_empty(), "drain leaves it empty");
        r.set(Value::Int(3), &Unobserved);
        assert!(dirty.take().is_empty(), "another sink's write is not ours");
    }

    #[test]
    fn intersects_checks_sorted_sources() {
        let mut dirty = DirtyRefs::default();
        dirty.ids.insert(7);
        assert!(dirty.intersects(&[3, 7, 9]));
        assert!(!dirty.intersects(&[3, 8, 9]));
        assert!(!dirty.intersects(&[]));
    }

    #[test]
    fn wal_channel_fills_only_while_tracking() {
        let sets = DirtySets::default();
        let r = RefValue::new(Value::Int(0));
        r.set(Value::Int(1), &sets.store);
        assert!(
            sets.wal.take().is_empty(),
            "a store-only write (durable by construction) stays out of the WAL set"
        );
        assert!(sets.store.take().ids.contains(&r.id));
        r.set(Value::Int(2), &sets);
        let wal = sets.wal.take();
        assert!(wal.ids.contains(&r.id), "{wal:?}");
        assert!(!wal.overflowed);
        for id in 0..=DIRTY_REFS_CAP as u64 {
            sets.note_ref_write(id);
        }
        assert!(
            sets.wal.take().overflowed,
            "overflow collapses the WAL set too"
        );
        // The store set saw every write the pair did.
        let store = sets.store.take();
        assert!(store.overflowed);
    }

    #[test]
    fn cap_overflow_collapses() {
        let dirty = DirtySet::default();
        for id in 0..(DIRTY_REFS_CAP as u64 + 2) {
            dirty.note_ref_write(id);
        }
        let drained = dirty.take();
        assert!(drained.overflowed);
        assert!(drained.ids.is_empty());
    }
}
