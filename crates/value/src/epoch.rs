//! The thread-local **dirty reference set**: the write-side half of the
//! index store's invalidation contract.
//!
//! Every reference-cell write (funnelled through
//! [`crate::RefValue::set`]) records the written ref's identity in a
//! dirty set. Cache layers (the index store in `machiavelli-store`)
//! drain the set to decide *which* cached entries could possibly be
//! affected: an entry is evicted only when a written ref is reachable
//! from the relation it indexes. A write to a ref no cached relation
//! can reach evicts nothing. An empty drain means no write happened.
//!
//! Values are `Rc`-based and therefore thread-confined, so the state is
//! thread-local — no synchronization, no cross-thread invalidation to
//! reason about.
//!
//! The dirty set is bounded: past [`DIRTY_REFS_CAP`] distinct ids it
//! collapses to an *overflowed* marker, which consumers must treat as
//! "every ref may have been written" (evict everything reachable from
//! refs). Overflow is the only way identities are lost: a ref's cell is
//! private to this crate, so no write can bypass `RefValue::set`.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;

/// Distinct written-ref ids tracked between cache validations; past
/// this the set collapses to the conservative "everything is dirty"
/// marker (a write burst this large is headed for a rebuild anyway).
pub const DIRTY_REFS_CAP: usize = 4096;

/// The identities written since the last [`take_dirty_refs`] drain.
/// `overflowed` means the precise set was lost (more than
/// [`DIRTY_REFS_CAP`] distinct writes): consumers must assume every ref
/// was written.
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

thread_local! {
    static DIRTY_REFS: RefCell<DirtyRefs> = RefCell::new(DirtyRefs::default());
    static WAL_DIRTY: RefCell<DirtyRefs> = RefCell::new(DirtyRefs::default());
    static WAL_TRACKING: Cell<bool> = const { Cell::new(false) };
}

/// Record an **attributed** reference write: add the written ref's
/// identity to the dirty set. Called by
/// [`crate::RefValue::set`] — the single choke point every ref write
/// goes through (the evaluator's `:=`, the OODB object store's updates,
/// persistence decoding). Public so tests and native ref-like layers
/// can report precise identities.
pub fn note_ref_write(id: u64) {
    DIRTY_REFS.with(|d| record_dirty(d, id));
    if WAL_TRACKING.with(Cell::get) {
        WAL_DIRTY.with(|d| record_dirty(d, id));
    }
}

fn record_dirty(d: &RefCell<DirtyRefs>, id: u64) {
    let mut d = d.borrow_mut();
    if d.overflowed {
        return;
    }
    if d.ids.len() >= DIRTY_REFS_CAP {
        d.ids.clear();
        d.overflowed = true;
    } else {
        d.ids.insert(id);
    }
}

/// Drain the dirty set, leaving it empty. The single consumer is the
/// thread's index store (one store per thread), which drains on the way
/// into every operation; draining with no intervening writes returns an
/// empty set.
pub fn take_dirty_refs() -> DirtyRefs {
    DIRTY_REFS.with(|d| std::mem::take(&mut *d.borrow_mut()))
}

/// Enable (or disable) the **write-ahead-log dirty channel** on this
/// thread, returning the previous setting. The index store's dirty set
/// above has exactly one consumer (the store drains it on every query),
/// so the durability layer (`machiavelli-wal`) cannot share it: with
/// tracking on, [`note_ref_write`] records every written identity in a
/// *second*, independently drained set ([`take_wal_dirty_refs`]) with
/// the same cap/overflow discipline. Off by default — sessions that
/// never attach a log pay a single thread-local load per write.
pub fn set_wal_tracking(on: bool) -> bool {
    WAL_TRACKING.with(|c| c.replace(on))
}

/// Is the WAL dirty channel live on this thread?
pub fn wal_tracking() -> bool {
    WAL_TRACKING.with(Cell::get)
}

/// Drain the WAL dirty set, leaving it empty. The consumer is the
/// session's attached log (`machiavelli-wal`), which drains at each
/// commit point; an `overflowed` result means precise attribution was
/// lost (cap exceeded) and the consumer must fall back to a full
/// checkpoint.
pub fn take_wal_dirty_refs() -> DirtyRefs {
    WAL_DIRTY.with(|d| std::mem::take(&mut *d.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{RefValue, Value};

    #[test]
    fn ref_writes_record_identity() {
        let _ = take_dirty_refs();
        let r = RefValue::new(Value::Int(1));
        assert!(
            take_dirty_refs().is_empty(),
            "allocation is not a write — fresh refs cannot be cached yet"
        );
        r.set(Value::Int(2));
        let dirty = take_dirty_refs();
        assert!(dirty.ids.contains(&r.id), "{dirty:?}");
        assert!(!dirty.overflowed);
        assert!(take_dirty_refs().is_empty(), "drain leaves it empty");
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
        let _ = take_dirty_refs();
        let _ = take_wal_dirty_refs();
        let r = RefValue::new(Value::Int(0));
        r.set(Value::Int(1));
        assert!(
            take_wal_dirty_refs().is_empty(),
            "tracking off: the WAL channel stays empty"
        );
        let prev = set_wal_tracking(true);
        assert!(!prev, "tracking defaults to off");
        r.set(Value::Int(2));
        let wal = take_wal_dirty_refs();
        assert!(wal.ids.contains(&r.id), "{wal:?}");
        assert!(!wal.overflowed);
        for id in 0..=DIRTY_REFS_CAP as u64 {
            note_ref_write(id);
        }
        assert!(
            take_wal_dirty_refs().overflowed,
            "overflow collapses the WAL channel too"
        );
        set_wal_tracking(false);
        // The store's channel saw every write regardless of WAL tracking.
        let store = take_dirty_refs();
        assert!(store.overflowed || store.ids.contains(&r.id));
    }

    #[test]
    fn cap_overflow_collapses() {
        let _ = take_dirty_refs();
        for id in 0..(DIRTY_REFS_CAP as u64 + 2) {
            note_ref_write(id);
        }
        let dirty = take_dirty_refs();
        assert!(dirty.overflowed);
    }
}
