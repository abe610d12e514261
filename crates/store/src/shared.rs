//! The **process-wide shared index tier**: `Send + Sync`
//! [`PlainIndex`] snapshots promoted from the thread-local store to a
//! content-addressed, mutex-guarded map every session can draw from —
//! so N concurrent server sessions querying the same hot relation pay
//! **one** build between them instead of one each.
//!
//! # Content addressing makes cross-session sharing sound
//!
//! The thread-local store keys on [`MSet::storage_id`] — an `Rc`
//! address, meaningless outside its thread. The shared tier keys on the
//! **structural hash of the relation's canonical rows** plus the
//! key-expression fingerprint. `MSet` is canonical (sorted,
//! deduplicated), so two sessions binding equal relations hold
//! element-for-element identical slices — which makes the *row indices*
//! inside a [`PlainIndex`] transferable: index `i` names the same value
//! in both. Hash collisions cannot produce wrong answers because
//! [`adopt`] verifies the snapshot against the adopting session's
//! relation row by row ([`plain_matches_value`]) before handing it out;
//! a mismatch is treated as a miss.
//!
//! # Concurrency discipline
//!
//! Exactly the coarse-grained split the Malta–Martinez commutativity
//! framing motivates: **writes** (publish, evict, clear) serialize
//! behind one mutex, while **reads** of an adopted snapshot are
//! lock-free — adoption clones an `Arc`, and probing never touches the
//! tier again. Each session keeps its `Rc`-lane overlays (identity-
//! bearing relations, ref-reachable entries) strictly thread-local;
//! only ref-free plain snapshots are ever shared.
//!
//! # Invalidation
//!
//! Plain snapshots hold no refs (`to_plain` declines them) and content
//! addressing means any structural change produces a different key, so
//! a shared entry can never serve stale rows. The thread-local store's
//! dirty-ref discipline still maps onto the tier conservatively: the
//! paths that lose write attribution (dirty-set overflow, the paranoid
//! whole-clear mode) call [`note_unattributed_write`], which drops the
//! whole tier — a performance concession, never a correctness need,
//! mirroring how those paths degrade locally.
//!
//! # Poison recovery
//!
//! A session that panics *while holding the tier lock* (possible under
//! fault injection, and in principle under real bugs) poisons the
//! mutex. Every acquisition goes through [`lock_tier`], which clears
//! the poison, drops all entries (the interrupted write may have left a
//! half-updated map), and counts a `SharedLockRecoveries` — so the
//! tier self-heals and subsequent sessions rebuild instead of erroring
//! forever. The [`FaultPoint::StorePoison`] fail point injects exactly
//! this panic mid-write.
//!
//! The tier is **off by default** (thread-local toggle, like
//! `store_enabled`): a standalone REPL behaves exactly as before, and
//! the server enables it on its worker threads.

use machiavelli_trace::metrics::{self, Counter};
use machiavelli_value::faults::{self, FaultPoint};
use machiavelli_value::plain::{plain_matches_value, PlainIndex};
use machiavelli_value::{hash_value, MSet};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

struct SharedEntry {
    index: Arc<PlainIndex>,
    charge: usize,
    last_used: u64,
    hits: u64,
}

struct SharedTier {
    entries: HashMap<(u64, String), SharedEntry>,
    budget_rows: usize,
    cached_rows: usize,
    tick: u64,
}

impl SharedTier {
    fn new() -> SharedTier {
        SharedTier {
            entries: HashMap::new(),
            budget_rows: shared_budget_rows(),
            cached_rows: 0,
            tick: 0,
        }
    }

    /// Drop every entry, counting them as cleared.
    fn clear_entries(&mut self) {
        metrics::add(Counter::SharedCleared, self.entries.len() as u64);
        self.entries.clear();
        self.cached_rows = 0;
    }

    fn evict_to(&mut self, target: usize) {
        if self.cached_rows <= target {
            return;
        }
        let mut victims: Vec<(u64, (u64, String))> = self
            .entries
            .iter()
            .map(|(k, e)| (e.last_used, k.clone()))
            .collect();
        victims.sort_unstable_by_key(|(used, _)| *used);
        for (_, key) in victims {
            if self.cached_rows <= target {
                break;
            }
            if let Some(e) = self.entries.remove(&key) {
                self.cached_rows -= e.charge;
                metrics::add(Counter::SharedEvicted, 1);
            }
        }
    }
}

/// Default shared-tier row budget: the same order as the per-session
/// store budget (`MACHIAVELLI_SHARED_BUDGET_ROWS` overrides).
fn shared_budget_rows() -> usize {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    ENV.get_or_init(|| {
        std::env::var("MACHIAVELLI_SHARED_BUDGET_ROWS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
    })
    .unwrap_or(machiavelli_value::tuning::DEFAULT_STORE_BUDGET_ROWS)
}

static TIER: OnceLock<Mutex<SharedTier>> = OnceLock::new();
/// Fast cross-thread signal that [`note_unattributed_write`] fired and
/// the next tier access must clear (avoids taking the lock on the
/// write path, which runs inside `RefValue::set` accounting).
static PENDING_CLEAR: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Whether this thread consults the shared tier at all. Off by
    /// default; the server enables it on worker threads.
    static SHARED_ENABLED: Cell<bool> = const { Cell::new(false) };
}

/// Is shared-tier consultation enabled on this thread?
pub fn shared_enabled() -> bool {
    SHARED_ENABLED.with(Cell::get)
}

/// Enable/disable shared-tier consultation on this thread, returning
/// the previous setting.
pub fn set_shared_enabled(on: bool) -> bool {
    SHARED_ENABLED.with(|c| c.replace(on))
}

/// Acquire the tier lock, recovering from poison: a panic while holding
/// the lock (injected or real) may have left a half-applied write, so
/// recovery drops every entry — sessions rebuild, nothing serves a
/// torn map. Also applies any pending unattributed-write clear.
fn lock_tier() -> MutexGuard<'static, SharedTier> {
    let mutex = TIER.get_or_init(|| Mutex::new(SharedTier::new()));
    let mut tier = match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            mutex.clear_poison();
            let mut guard = poisoned.into_inner();
            guard.clear_entries();
            metrics::add(Counter::SharedLockRecoveries, 1);
            guard
        }
    };
    if PENDING_CLEAR.swap(false, Ordering::AcqRel) {
        tier.clear_entries();
    }
    tier
}

/// The content address of a relation: a structural hash over its
/// canonical rows (length-prefixed). Equal relations hash equal on
/// every thread; collisions are harmless ([`adopt`] verifies).
pub fn content_hash(set: &MSet) -> u64 {
    let mut h = DefaultHasher::new();
    h.write_usize(set.len());
    for row in set.iter() {
        hash_value(row, &mut h);
    }
    h.finish()
}

/// Publish a freshly built plain snapshot under its content address.
/// Called by the thread-local store on the build path; serialized
/// behind the tier lock. Hosts the injected mid-write poison fault:
/// when it fires, the panic happens *while the lock is held*, exactly
/// the failure the recovery path exists for.
pub fn publish(content: u64, fingerprint: &str, index: &Arc<PlainIndex>, charge: usize) {
    if !shared_enabled() {
        return;
    }
    let mut tier = lock_tier();
    if charge > tier.budget_rows {
        return;
    }
    tier.tick += 1;
    let tick = tier.tick;
    let budget = tier.budget_rows;
    tier.evict_to(budget.saturating_sub(charge));
    let key = (content, fingerprint.to_string());
    // The fail point sits mid-write: the entry is in the map but the
    // row accounting has not happened yet — a genuinely torn state the
    // poison recovery must be able to discard.
    let poison_due = faults::fire(FaultPoint::StorePoison);
    if let Some(old) = tier.entries.insert(
        key,
        SharedEntry {
            index: index.clone(),
            charge,
            last_used: tick,
            hits: 0,
        },
    ) {
        tier.cached_rows -= old.charge;
    }
    if poison_due {
        panic!(
            "{} shared-store poison mid-write",
            faults::INJECTED_PANIC_PREFIX
        );
    }
    tier.cached_rows += charge;
    metrics::add(Counter::SharedPublishes, 1);
}

/// Look up a snapshot for `set` by content address and **verify** it
/// row by row against the adopting session's relation before returning
/// it. `None` = miss (including failed verification). The returned
/// `Arc` is probed lock-free; the tier is not touched again.
pub fn adopt(content: u64, fingerprint: &str, set: &MSet) -> Option<Arc<PlainIndex>> {
    if !shared_enabled() {
        return None;
    }
    let index = {
        let mut tier = lock_tier();
        tier.tick += 1;
        let tick = tier.tick;
        match tier.entries.get_mut(&(content, fingerprint.to_string())) {
            Some(entry) => {
                entry.last_used = tick;
                entry.hits += 1;
                Some(entry.index.clone())
            }
            None => {
                metrics::add(Counter::SharedMisses, 1);
                None
            }
        }
    }?;
    // Verification runs *outside* the lock (O(n) over the relation):
    // the snapshot must be element-for-element the adopter's relation,
    // or its row indices would name the wrong values.
    let verified = index.rows.len() == set.len()
        && set
            .iter()
            .zip(index.rows.iter())
            .all(|(v, p)| plain_matches_value(p, v));
    if !verified {
        metrics::add(Counter::SharedMisses, 1);
        return None;
    }
    metrics::add(Counter::SharedAdoptions, 1);
    Some(index)
}

/// Conservative cross-session mapping of the dirty-ref discipline:
/// called when a session loses write attribution (dirty-set overflow,
/// the paranoid whole-clear mode). Plain snapshots cannot actually go
/// stale — this is the documented performance concession that keeps the
/// shared tier's invalidation story aligned with the local store's.
pub fn note_unattributed_write() {
    PENDING_CLEAR.store(true, Ordering::Release);
}

/// The tier's rows of the metrics registry.
const COUNTERS: [Counter; 6] = [
    Counter::SharedPublishes,
    Counter::SharedAdoptions,
    Counter::SharedMisses,
    Counter::SharedEvicted,
    Counter::SharedCleared,
    Counter::SharedLockRecoveries,
];

/// Drop all entries and zero the tier's counters (tests and bench
/// setup).
pub fn reset_shared() {
    let mut tier = lock_tier();
    tier.clear_entries();
    PENDING_CLEAR.store(false, Ordering::Release);
    metrics::reset(&COUNTERS);
}

#[cfg(test)]
mod tests {
    use super::*;
    use machiavelli_value::plain::{to_plain, PlainKey, PlainValue};
    use machiavelli_value::Value;
    use std::sync::Mutex as StdMutex;

    /// The tier is process-global; serialize the tests that assert on
    /// its counters.
    static TIER_TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn ints(xs: &[i64]) -> MSet {
        MSet::from_iter(xs.iter().map(|&x| Value::Int(x)))
    }

    fn plain_index_for(set: &MSet) -> Arc<PlainIndex> {
        let rows: Vec<PlainValue> = set.iter().map(|v| to_plain(v).unwrap()).collect();
        let groups: Vec<(PlainKey, Vec<u32>)> = rows
            .iter()
            .enumerate()
            .map(|(i, p)| (PlainKey::One(p.clone()), vec![i as u32]))
            .collect();
        Arc::new(PlainIndex::from_groups(rows.into(), groups))
    }

    fn with_tier_enabled<R>(f: impl FnOnce() -> R) -> R {
        let prev = set_shared_enabled(true);
        let out = f();
        set_shared_enabled(prev);
        out
    }

    #[test]
    fn disabled_thread_never_touches_the_tier() {
        assert!(!shared_enabled(), "off by default");
        let set = ints(&[1, 2, 3]);
        assert!(adopt(content_hash(&set), "fp", &set).is_none());
    }

    #[test]
    fn publish_then_adopt_from_equal_content() {
        let _l = TIER_TEST_LOCK.lock().unwrap();
        with_tier_enabled(|| {
            reset_shared();
            let a = ints(&[10, 20, 30]);
            let idx = plain_index_for(&a);
            publish(content_hash(&a), "fp:k", &idx, a.len());
            // A *different* storage with equal content adopts.
            let b = ints(&[30, 10, 20]);
            assert_ne!(a.storage_id(), b.storage_id());
            let adopted = adopt(content_hash(&b), "fp:k", &b).expect("content matches");
            assert!(Arc::ptr_eq(&adopted, &idx), "the very same snapshot");
            let m = metrics::snapshot();
            assert_eq!(
                (
                    m.get(Counter::SharedPublishes),
                    m.get(Counter::SharedAdoptions),
                    lock_tier().entries.len()
                ),
                (1, 1, 1)
            );
        });
    }

    #[test]
    fn different_content_or_fingerprint_misses() {
        let _l = TIER_TEST_LOCK.lock().unwrap();
        with_tier_enabled(|| {
            reset_shared();
            let a = ints(&[1, 2]);
            publish(content_hash(&a), "fp:k", &plain_index_for(&a), a.len());
            let other = ints(&[1, 2, 3]);
            assert!(adopt(content_hash(&other), "fp:k", &other).is_none());
            assert!(adopt(content_hash(&a), "fp:other", &a).is_none());
            assert_eq!(metrics::get(Counter::SharedMisses), 2);
        });
    }

    #[test]
    fn verification_rejects_wrong_snapshot() {
        let _l = TIER_TEST_LOCK.lock().unwrap();
        with_tier_enabled(|| {
            reset_shared();
            let a = ints(&[1, 2, 3]);
            let b = ints(&[4, 5, 6]);
            // Simulate a (vanishingly unlikely) content-hash collision
            // by publishing b's snapshot under a's address.
            publish(content_hash(&a), "fp", &plain_index_for(&b), b.len());
            assert!(
                adopt(content_hash(&a), "fp", &a).is_none(),
                "row verification must catch the mismatch"
            );
        });
    }

    #[test]
    fn budget_evicts_lru() {
        let _l = TIER_TEST_LOCK.lock().unwrap();
        with_tier_enabled(|| {
            reset_shared();
            {
                let mut tier = lock_tier();
                tier.budget_rows = 5;
            }
            let a = ints(&[1, 2, 3]);
            let b = ints(&[4, 5, 6]);
            publish(content_hash(&a), "fp", &plain_index_for(&a), 3);
            publish(content_hash(&b), "fp", &plain_index_for(&b), 3);
            assert_eq!(
                lock_tier().entries.len(),
                1,
                "budget 5 holds one 3-row entry"
            );
            assert_eq!(metrics::get(Counter::SharedEvicted), 1);
            assert!(
                adopt(content_hash(&b), "fp", &b).is_some(),
                "newest survives"
            );
            // Restore the env-derived budget for other tests.
            let mut tier = lock_tier();
            tier.budget_rows = shared_budget_rows();
        });
    }

    #[test]
    fn unattributed_write_clears_on_next_access() {
        let _l = TIER_TEST_LOCK.lock().unwrap();
        with_tier_enabled(|| {
            reset_shared();
            let a = ints(&[7, 8]);
            publish(content_hash(&a), "fp", &plain_index_for(&a), 2);
            assert_eq!(lock_tier().entries.len(), 1);
            note_unattributed_write();
            assert!(adopt(content_hash(&a), "fp", &a).is_none(), "tier cleared");
            assert_eq!(lock_tier().entries.len(), 0);
            assert!(metrics::get(Counter::SharedCleared) >= 1);
        });
    }

    #[test]
    fn poison_mid_write_recovers_with_counters() {
        let _l = TIER_TEST_LOCK.lock().unwrap();
        with_tier_enabled(|| {
            reset_shared();
            let a = ints(&[1, 2, 3]);
            let idx = plain_index_for(&a);
            let prev = faults::set_fault_config(Some(machiavelli_value::FaultConfig {
                store_poison_ppm: 1_000_000,
                seed: 5,
                ..machiavelli_value::FaultConfig::off()
            }));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                publish(content_hash(&a), "fp", &idx, a.len());
            }));
            faults::set_fault_config(prev);
            assert!(caught.is_err(), "poison fault must panic mid-write");
            // The next session recovers: poison cleared, entries
            // dropped, counter tells the story — and the tier works.
            assert_eq!(lock_tier().entries.len(), 0);
            assert_eq!(metrics::get(Counter::SharedLockRecoveries), 1);
            publish(content_hash(&a), "fp", &idx, a.len());
            assert!(adopt(content_hash(&a), "fp", &a).is_some());
            assert_eq!(
                metrics::get(Counter::SharedLockRecoveries),
                1,
                "recovered once, stayed live"
            );
        });
    }
}
