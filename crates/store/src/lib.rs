//! The **indexed relation store**: a session-scoped cache of structural
//! hash indexes over [`MSet`] relations, so repeated plans (the Figure 5
//! `cost` recursion re-joining `parts` per call, re-run REPL queries,
//! the prelude's hom-heavy idioms) pay the O(n) build cost once instead
//! of per evaluation.
//!
//! The planner's hash-join and index-scan operators request their build
//! tables here before constructing them inline; everything else in the
//! pipeline is unchanged. An index is a grouping of a relation's rows by
//! the values of its key expressions, stored as **row indices** into the
//! relation's canonical slice (each group's list ascending = canonical
//! set order, the same order an inline build yields, so cached and fresh
//! probes produce identical row sequences). It has one representation,
//! an [`Index`] keyed by [`KeyTuple`] and handed out as `Rc<Index>`,
//! whatever the rows hold: the planner's one hash join and its index
//! scan both probe it with `Index::get(&KeyTuple(key))`, and an entry
//! lives in its session's store only.
//!
//! # Index store & invalidation contract
//!
//! A cached index is keyed by **source identity plus key-expression
//! fingerprint**, and correctness rests on three mutually reinforcing
//! mechanisms (mirroring the planner's fallback contract in
//! `machiavelli-plan`: each mechanism alone is an optimization, together
//! they make staleness unrepresentable):
//!
//! 1. **Pointer-identity keying.** The cache key includes
//!    [`MSet::storage_id`] — the address of the set's shared `Rc`
//!    storage. `MSet` is copy-on-write, so *any* structural change to a
//!    relation (insert, union, re-binding to a rebuilt set) produces new
//!    storage and therefore a different key: the new relation can only
//!    miss. Every entry holds a clone of the indexed set, which (a)
//!    forces all outside mutation down the copy-on-write path (the
//!    entry's extra `Rc` reference makes in-place `Rc::make_mut`
//!    impossible) and (b) pins the allocation so its address cannot be
//!    recycled for a different set while the entry lives. An entry
//!    orphaned by a rebuild is *dead*, never *stale* — nothing can look
//!    it up again, and the LRU budget reclaims it.
//! 2. **Dependency-tracked invalidation on reference writes.**
//!    Structure is not the whole story: rows may contain `ref` cells
//!    whose *contents* mutate without changing the set (`x.Dept := …`).
//!    Key and filter expressions admitted by the planner are
//!    reference-*content*-free (the planner-safe class reads no ref
//!    contents — ref-valued keys group by immutable identity), so index
//!    contents cannot actually go stale this way — but the store does
//!    not rely on that analysis being airtight. At build time each
//!    entry records the identities of every ref **reachable** from its
//!    relation ([`machiavelli_value::scan_refs`]; empty for a ref-free
//!    relation, whose entry therefore survives every write). Every
//!    reference write (funnelled through
//!    [`machiavelli_value::RefValue::set`]) records the written
//!    identity in its session's store dirty set;
//!    before serving anything the store drains that set and evicts
//!    exactly the entries whose recorded sources intersect it. A write
//!    to a ref no cached relation can reach — the common case under
//!    mixed read/write traffic — **evicts nothing**, where the PR 4
//!    contract dropped the whole store. Dirty-set overflow (more
//!    distinct writes than the set holds) degrades to evicting every
//!    ref-reachable (and closure-opaque) entry, counted as `cleared`.
//! 3. **Closed fingerprints over stable sources.** The fingerprint
//!    (produced by the planner) renders the source, key and
//!    pushed-filter expressions; the planner only marks an index
//!    cacheable when the key/filter expressions mention *no variable
//!    other than the row binder* — so an index's contents are a pure
//!    function of (storage, fingerprint), never of the enclosing
//!    environment — **and** the source is a `Var`/field/deref chain
//!    that can actually share storage across evaluations. Expressions
//!    whose meaning depends on outer bindings (`e.Salary > threshold`)
//!    and fresh-storage sources (`EmployeeView(persons)`, whose index
//!    could never be looked up again) are built inline, uncached.
//!
//! The store is **owned by the `Session`**, inside its [`EngineCtx`]:
//! the one engine context a session threads through evaluation, next to
//! its dirty-set pair, its decline counts and its execution [`Mode`].
//! `Session::store_stats` / `:stats` read the instance the session's own
//! evaluator fills; two sessions on one thread share nothing — not an
//! entry, not a budget, not a dirty set.
//!
//! Memory is bounded by a row **budget**: entries are evicted
//! least-recently-used when the total number of cached rows exceeds it,
//! and a relation larger than the whole budget is never cached at all
//! (a budget of zero disables caching outright; fresh stores read
//! `MACHIAVELLI_STORE_BUDGET_ROWS`, default [`DEFAULT_BUDGET_ROWS`]).
//! Counters ([`StoreStats`]) record hits, misses, builds, per-reason
//! invalidations and evictions for the REPL's `:stats` and regression
//! tests; [`IndexStore::indexes`] lists live entries in deterministic
//! (fingerprint, storage-id) order so goldens can pin it.

pub mod faults;
pub mod governor;
pub mod shared;

use faults::{FaultConfig, FaultPoint, FaultStream, INJECTED_PANIC_PREFIX};
use governor::{QueryGuard, Trip};
use machiavelli_trace::{DeclineCounts, DeclineReason, Tracer};
use machiavelli_value::{hash_value, scan_refs, value_eq, DirtySets, MSet, RefScan, Value};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// An owned composite hash key: structural hash, `value_eq` equality —
/// consistent by construction (see `machiavelli_value::hash`), owning
/// its key values so an index can outlive the probe loop that built it.
#[derive(Debug, Clone)]
pub struct KeyTuple(pub Vec<Value>);

impl Hash for KeyTuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in &self.0 {
            hash_value(v, state);
        }
    }
}

impl PartialEq for KeyTuple {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| value_eq(a, b))
    }
}

impl Eq for KeyTuple {}

/// The structural index: **row indices** (into the relation's canonical
/// slice) grouped by key value, each group ascending — the same order
/// an inline build produces, so cached and fresh probes yield identical
/// row sequences. The executor re-binds matches by index from the live
/// relation, so groups never clone rows.
#[allow(clippy::mutable_key_type)] // refs hash/compare by immutable identity
pub type Index = HashMap<KeyTuple, Vec<u32>>;

/// Cumulative statistics, exposed through `Session::store_stats` and
/// the REPL's `:stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from cache.
    pub hits: u64,
    /// Lookups that found no usable entry (the caller then builds).
    pub misses: u64,
    /// Indexes inserted after a miss (== builds that went through the
    /// store; inline uncacheable builds are not counted).
    pub builds: u64,
    /// Entries evicted because a **written ref was reachable** from
    /// their relation (dirty-set intersection — the precise reason).
    pub invalidated: u64,
    /// Entries dropped after a **dirty-set overflow**: the written
    /// identities were lost, so every ref-reachable entry goes.
    pub cleared: u64,
    /// Entries dropped by the LRU row budget.
    pub evicted: u64,
    /// Live entries right now.
    pub entries: usize,
    /// Total *relation* rows pinned by live entries (the budgeted
    /// quantity — an entry keeps a clone of its whole relation alive,
    /// so it is charged the relation's size even when pushed filters
    /// leave the index itself much smaller).
    pub cached_rows: usize,
}

/// Public description of one live entry, for `:indexes`.
#[derive(Debug, Clone)]
pub struct IndexInfo {
    /// The planner's rendering of the indexed key/filter expressions.
    pub fingerprint: String,
    /// Rows held by the index (after pushed filters).
    pub rows: usize,
    /// Distinct key groups.
    pub groups: usize,
    /// Cache hits served by this entry.
    pub hits: u64,
}

/// What a written ref can invalidate about one entry.
#[derive(Debug)]
enum RefSources {
    /// Sorted identities of every ref reachable from the pinned
    /// relation at build time. Empty for a ref-free relation, which no
    /// write can reach.
    Ids(Box<[u64]>),
    /// The relation holds values whose reachability cannot be traced
    /// (closures): any write may reach it.
    Opaque,
}

impl RefSources {
    fn of(set: &MSet) -> RefSources {
        let mut scan = RefScan::default();
        for row in set.iter() {
            scan_refs(row, &mut scan);
            if scan.opaque {
                return RefSources::Opaque;
            }
        }
        RefSources::Ids(scan.into_sorted_ids().into())
    }

    fn dirtied_by(&self, dirty: &machiavelli_value::DirtyRefs) -> bool {
        match self {
            RefSources::Opaque => true,
            RefSources::Ids(ids) => dirty.intersects(ids),
        }
    }
}

struct Entry {
    /// A clone of the indexed relation: pins the storage address and
    /// forces outside mutation down the copy-on-write path.
    set: MSet,
    index: Rc<Index>,
    /// The refs a write could reach through this entry's relation.
    sources: RefSources,
    /// Rows held by the index (≤ `charge`; pushed filters prune).
    rows: usize,
    /// What this entry costs against the budget: the *pinned relation's*
    /// size, not the (possibly heavily filtered) index size — the entry
    /// keeps the whole relation alive, so a selective filter must not
    /// make a large relation look cheap. Deliberately conservative the
    /// other way too: two indexes over the same relation each pay the
    /// full charge even though they pin shared storage, so the budget
    /// over-estimates (never under-estimates) pinned memory.
    charge: usize,
    last_used: u64,
    hits: u64,
}

/// Default row budget: generous for the paper-scale workloads while
/// still bounding a long session that touches many relations (the LRU
/// evicts past it).
pub const DEFAULT_BUDGET_ROWS: usize = 1 << 20;

/// The row budget of a fresh store: `MACHIAVELLI_STORE_BUDGET_ROWS`
/// (read once; `0` is a budget like any other — it disables caching),
/// else [`DEFAULT_BUDGET_ROWS`] when unset or unparsable. Live stores
/// change theirs with [`IndexStore::set_budget`].
fn store_budget_rows() -> usize {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    ENV.get_or_init(|| {
        std::env::var("MACHIAVELLI_STORE_BUDGET_ROWS")
            .ok()?
            .trim()
            .parse()
            .ok()
    })
    .unwrap_or(DEFAULT_BUDGET_ROWS)
}

/// The memoizing index store. One per session (see [`EngineCtx`]); all
/// methods take `&mut self` because even lookups update recency.
///
/// Entries are keyed storage-id-first, fingerprint second: the hot-path
/// [`IndexStore::lookup`] (one per hash-join open in a repeated-plan
/// workload — ~2000 per fig5 sweep) is two map probes that borrow the
/// caller's fingerprint as `&str`; the store only materializes its own
/// key `String` on insert. (The *planner* still renders a fingerprint
/// per evaluation to have something to look up with — a few small
/// formatting allocations per `select`, not per row.)
pub struct IndexStore {
    entries: HashMap<usize, HashMap<String, Entry>>,
    budget_rows: usize,
    cached_rows: usize,
    tick: u64,
    stats: StoreStats,
}

impl IndexStore {
    pub fn new(budget_rows: usize) -> IndexStore {
        IndexStore {
            entries: HashMap::new(),
            budget_rows,
            cached_rows: 0,
            tick: 0,
            stats: StoreStats::default(),
        }
    }

    /// React to the reference writes in `dirty` — mechanism 2 of the
    /// invalidation contract. [`EngineCtx::with_store`] drains the
    /// session's store set into this on the way into every use, so no
    /// affected entry is ever *observable*. The drained set names the
    /// written identities (empty: no write since the last drain) and
    /// only intersecting entries are evicted (every ref-reachable one
    /// when the set overflowed and the identities were lost).
    pub(crate) fn invalidate(&mut self, dirty: &machiavelli_value::DirtyRefs) {
        if dirty.is_empty() || self.entries.is_empty() {
            return;
        }
        // Evict exactly the entries a written ref can reach.
        // `dirty.overflowed` (identities lost) makes `dirtied_by` true
        // for every ref-bearing entry; ref-free entries survive even
        // that.
        let mut dropped = 0u64;
        self.entries.retain(|_, by_fp| {
            by_fp.retain(|_, e| {
                if e.sources.dirtied_by(dirty) {
                    self.cached_rows -= e.charge;
                    dropped += 1;
                    false
                } else {
                    true
                }
            });
            !by_fp.is_empty()
        });
        if dirty.overflowed {
            self.stats.cleared += dropped;
        } else {
            self.stats.invalidated += dropped;
        }
    }

    fn len(&self) -> usize {
        self.entries.values().map(HashMap::len).sum()
    }

    /// Fetch the cached index for `set` under `fingerprint`, if one was
    /// built for *this exact storage* and not invalidated since.
    /// Updates recency and hit/miss counters.
    pub fn lookup(&mut self, set: &MSet, fingerprint: &str) -> Option<Rc<Index>> {
        self.tick += 1;
        match self
            .entries
            .get_mut(&set.storage_id())
            .and_then(|by_fp| by_fp.get_mut(fingerprint))
        {
            Some(entry) => {
                debug_assert!(
                    entry.set.storage_id() == set.storage_id(),
                    "entry pins its storage, ids cannot diverge"
                );
                entry.last_used = self.tick;
                entry.hits += 1;
                self.stats.hits += 1;
                Some(entry.index.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert a freshly built grouping for `set` under `fingerprint`,
    /// returning the shared handle the caller should probe and whether
    /// it was admitted. Relations larger than the whole budget are not
    /// cached (the handle is still returned, so the calling query
    /// proceeds normally); otherwise the least-recently-used entries are
    /// evicted until the budget holds.
    #[allow(clippy::mutable_key_type)] // refs hash/compare by immutable identity
    pub(crate) fn insert(
        &mut self,
        set: &MSet,
        fingerprint: &str,
        groups: Index,
    ) -> (Rc<Index>, bool) {
        self.tick += 1;
        let rows: usize = groups.values().map(Vec::len).sum();
        let index = Rc::new(groups);
        // Budget by the relation being pinned, not the filtered index:
        // the entry's set clone keeps every row alive either way.
        let charge = set.len();
        if charge > self.budget_rows {
            return (index, false);
        }
        self.evict_to(self.budget_rows.saturating_sub(charge));
        let entry = Entry {
            set: set.clone(),
            index: index.clone(),
            sources: RefSources::of(set),
            rows,
            charge,
            last_used: self.tick,
            hits: 0,
        };
        if let Some(old) = self
            .entries
            .entry(set.storage_id())
            .or_default()
            .insert(fingerprint.to_string(), entry)
        {
            // Same (storage, fingerprint) already present: the build
            // window runs outside the store borrow, so a *nested*
            // evaluation driven by the build's hook (or a `clear`
            // mid-build) can insert the entry first. Replace it and
            // keep the accounting tight.
            self.cached_rows -= old.charge;
        }
        self.cached_rows += charge;
        self.stats.builds += 1;
        (index, true)
    }

    /// Evict least-recently-used entries until at most `target` rows
    /// remain cached. One recency sort per call, so an eviction burst
    /// costs O(entries log entries), not O(victims · entries).
    fn evict_to(&mut self, target: usize) {
        if self.cached_rows <= target {
            return;
        }
        let mut victims: Vec<(u64, usize, String)> = self
            .entries
            .iter()
            .flat_map(|(id, by_fp)| {
                by_fp
                    .iter()
                    .map(move |(fp, e)| (e.last_used, *id, fp.clone()))
            })
            .collect();
        victims.sort_unstable_by_key(|(used, ..)| *used);
        for (_, storage, fp) in victims {
            if self.cached_rows <= target {
                break;
            }
            let by_fp = self.entries.get_mut(&storage).expect("key came from map");
            let entry = by_fp.remove(&fp).expect("key came from the map");
            if by_fp.is_empty() {
                self.entries.remove(&storage);
            }
            self.cached_rows -= entry.charge;
            self.stats.evicted += 1;
        }
    }

    /// Is there a live entry with this fingerprint, for any relation?
    /// Display-level probe used by plan explanation to render
    /// `HashJoin[idx cached]` vs `[idx build]` — the executor itself
    /// always checks the full (storage, fingerprint) key.
    /// (Fingerprints include the rendered source expression, so two
    /// relations alias here only when queried through the same name —
    /// after a rebind, a fresh build corrects the display on first
    /// execution.)
    pub fn has_fingerprint(&self, fingerprint: &str) -> bool {
        self.entries
            .values()
            .any(|by_fp| by_fp.contains_key(fingerprint))
    }

    /// Drop all entries and zero the statistics (a reset is a fresh
    /// session).
    pub fn reset(&mut self) {
        self.entries.clear();
        self.cached_rows = 0;
        self.stats = StoreStats::default();
    }

    /// Change the row budget, evicting immediately if the cache is now
    /// over it.
    pub fn set_budget(&mut self, budget_rows: usize) {
        self.budget_rows = budget_rows;
        self.evict_to(budget_rows);
    }

    /// The current row budget. Callers about to build an index can
    /// check it first: a relation that exceeds the whole budget would
    /// be declined by [`EngineCtx::insert`], so building a grouping
    /// for it is wasted work (stream instead).
    pub fn budget_rows(&self) -> usize {
        self.budget_rows
    }

    /// Current statistics (entry/row counts reflect live entries only).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            entries: self.len(),
            cached_rows: self.cached_rows,
            ..self.stats
        }
    }

    /// Describe the live entries in deterministic order — sorted by
    /// fingerprint, then storage id — so `:indexes` output can be
    /// pinned in golden tests regardless of recency history.
    pub fn indexes(&self) -> Vec<IndexInfo> {
        let mut infos: Vec<(usize, IndexInfo)> = self
            .entries
            .iter()
            .flat_map(|(storage, by_fp)| {
                by_fp.iter().map(move |(fp, e)| {
                    (
                        *storage,
                        IndexInfo {
                            fingerprint: fp.clone(),
                            rows: e.rows,
                            groups: e.index.len(),
                            hits: e.hits,
                        },
                    )
                })
            })
            .collect();
        infos.sort_by(|(sa, a), (sb, b)| a.fingerprint.cmp(&b.fingerprint).then(sa.cmp(sb)));
        infos.into_iter().map(|(_, i)| i).collect()
    }
}

impl Default for IndexStore {
    fn default() -> Self {
        IndexStore::new(store_budget_rows())
    }
}

/// Which of the engine's interchangeable strategies a session may run.
/// The paper's comprehension has one meaning whichever runs; the
/// ablation benches and the equivalence tests compare them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// Plan dispatch for `select` (`false` = the `select_loop`
    /// reference semantics).
    pub planner: bool,
    /// Index-store consultation (`false` = every cacheable build happens
    /// inline, uncached and uncounted).
    pub store: bool,
}

impl Mode {
    /// The reference semantics: planner and store off.
    pub const SELECT_LOOP: Mode = Mode {
        planner: false,
        store: false,
    };

    /// The planner's pipeline, store `store`.
    pub fn planned(store: bool) -> Mode {
        Mode {
            planner: true,
            store,
        }
    }
}

/// The default: planner and store on.
impl Default for Mode {
    fn default() -> Self {
        Mode::planned(true)
    }
}

/// The engine state one session owns and threads through evaluation —
/// index store, dirty sets, decline counts, execution [`Mode`], tracer,
/// the guard of the eval in flight and the fault stream — shared with
/// no other session, whatever thread drives it. The evaluator, the
/// planner and the durability layer all reach it through `&EngineCtx`.
#[derive(Default)]
pub struct EngineCtx {
    store: RefCell<IndexStore>,
    dirty: DirtySets,
    declines: RefCell<DeclineCounts>,
    mode: Cell<Mode>,
    tracer: Tracer,
    guard: RefCell<Option<Arc<QueryGuard>>>,
    faults: RefCell<FaultStream>,
}

impl EngineCtx {
    /// The session's execution mode.
    pub fn mode(&self) -> Mode {
        self.mode.get()
    }

    /// Switch the execution mode, returning the previous one.
    pub fn set_mode(&self, mode: Mode) -> Mode {
        self.mode.replace(mode)
    }

    /// The session's dirty sets: the evaluator's `:=` records into the
    /// pair, an already-durable decoded write into `store` alone, and the
    /// attached log drains `wal` at each commit.
    pub fn dirty(&self) -> &DirtySets {
        &self.dirty
    }

    /// Run `f` on the session's index store, after evicting whatever the
    /// writes since the last use can reach. Never call the evaluator
    /// inside `f`: a nested query would find the store borrowed.
    pub fn with_store<R>(&self, f: impl FnOnce(&mut IndexStore) -> R) -> R {
        let mut store = self.store.borrow_mut();
        store.invalidate(&self.dirty.store.take());
        f(&mut store)
    }

    /// Cache a freshly built grouping for `set` under `fingerprint`,
    /// returning the shared handle the caller should probe. A relation
    /// larger than the whole budget is not cached — the handle still
    /// answers the calling query — and counts a
    /// [`DeclineReason::StoreOverBudget`].
    #[allow(clippy::mutable_key_type)] // refs hash/compare by immutable identity
    pub fn insert(&self, set: &MSet, fingerprint: &str, groups: Index) -> Rc<Index> {
        let (index, admitted) = self.with_store(|s| s.insert(set, fingerprint, groups));
        if !admitted {
            self.note_decline(DeclineReason::StoreOverBudget);
        }
        index
    }

    /// Report a typed runtime fallback: counted for this session and
    /// process-wide, and attached to the open trace span if any.
    pub fn note_decline(&self, reason: DeclineReason) {
        self.declines.borrow_mut().note(reason);
        self.tracer.note_decline(reason);
    }

    /// This session's decline counts, one entry per variant in
    /// [`DeclineReason::ALL`] order.
    pub fn declines(&self) -> Vec<(DeclineReason, u64)> {
        self.declines.borrow().snapshot()
    }

    /// Drop every cached index and zero the store and decline counters.
    /// The WAL dirty set and the mode are untouched: a log's pending
    /// writes are durability state, not statistics.
    pub fn reset_stats(&self) {
        self.with_store(IndexStore::reset);
        *self.declines.borrow_mut() = DeclineCounts::default();
    }

    /// The session's tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Install (or clear) the guard of the eval in flight, returning
    /// the previous one.
    pub fn set_guard(&self, guard: Option<Arc<QueryGuard>>) -> Option<Arc<QueryGuard>> {
        self.guard.replace(guard)
    }

    /// Charge `n` rows of a set evaluation just built to the guard, if
    /// any. A trip latches on the guard; the next [`EngineCtx::tick`]
    /// reports it.
    pub fn charge_rows(&self, n: usize) {
        if let Some(guard) = &*self.guard.borrow() {
            guard.charge_rows(n);
        }
    }

    /// The evaluator's cooperative tick: the delay and evaluator-panic
    /// fail points first (an injected fault must fire on an ungoverned
    /// session too), then the guard poll.
    pub fn tick(&self) -> Option<Trip> {
        if self.fire(FaultPoint::Delay) {
            let ms = self.faults.borrow().config().delay_ms.max(1);
            std::thread::sleep(Duration::from_millis(ms));
        }
        if self.fire(FaultPoint::EvalPanic) {
            panic!("{INJECTED_PANIC_PREFIX} evaluator panic");
        }
        self.guard.borrow().as_ref().and_then(|guard| guard.check())
    }

    /// Arm the session's fault stream: `cfg`, seeded from its seed and
    /// `sid`. A session starts inert.
    pub fn set_faults(&self, cfg: FaultConfig, sid: u64) {
        *self.faults.borrow_mut() = FaultStream::new(cfg, sid);
    }

    /// Roll `point` on the session's fault stream.
    pub fn fire(&self, point: FaultPoint) -> bool {
        self.faults.borrow_mut().fire(point)
    }

    /// Draw a torn write's cut point in `0..len` from the session's
    /// fault stream.
    pub fn torn_cut(&self, len: usize) -> usize {
        self.faults.borrow_mut().torn_cut(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machiavelli_value::epoch::DIRTY_REFS_CAP;
    use machiavelli_value::{DirtySet, RefValue, WriteSink};

    fn ints(xs: &[i64]) -> MSet {
        MSet::from_iter(xs.iter().map(|&x| Value::Int(x)))
    }

    /// Group a set by parity of its int rows — a stand-in for a planner
    /// build (rows carrying refs key on the int in field `K`).
    #[allow(clippy::mutable_key_type)] // refs hash/compare by immutable identity
    fn parity_index(s: &MSet) -> Index {
        let mut idx = Index::new();
        for (i, v) in s.iter().enumerate() {
            let n = match v {
                Value::Int(n) => *n,
                Value::Record(fs) => match fs.get("K") {
                    Some(Value::Int(n)) => *n,
                    _ => panic!(),
                },
                _ => panic!(),
            };
            idx.entry(KeyTuple(vec![Value::Int(n % 2)]))
                .or_default()
                .push(i as u32);
        }
        idx
    }

    /// A relation whose rows hold a shared ref.
    fn ref_rows(r: &RefValue, ks: &[i64]) -> MSet {
        MSet::from_iter(ks.iter().map(|&k| {
            Value::record([
                ("K".into(), Value::Int(k)),
                ("D".into(), Value::Ref(r.clone())),
            ])
        }))
    }

    /// The row indices a one-column key selects (empty when absent).
    #[allow(clippy::mutable_key_type)] // refs hash/compare by immutable identity
    fn rows(idx: &Index, key: Value) -> &[u32] {
        idx.get(&KeyTuple(vec![key]))
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    #[test]
    fn hit_after_insert_same_storage() {
        let mut st = IndexStore::new(1000);
        let s = ints(&[1, 2, 3, 4]);
        assert!(st.lookup(&s, "parity").is_none());
        st.insert(&s, "parity", parity_index(&s));
        let alias = s.clone();
        let idx = st.lookup(&alias, "parity").expect("clone shares storage");
        assert_eq!(idx.len(), 2);
        assert_eq!(rows(&idx, Value::Int(0)), &[1, 3]);
        assert_eq!(rows(&idx, Value::Int(1)), &[0, 2]);
        assert_eq!(rows(&idx, Value::Int(9)), &[] as &[u32]);
        // A ref key equals no int key (`value_eq`): it finds nothing.
        let refkey = Value::Ref(RefValue::new(Value::Int(0)));
        assert_eq!(rows(&idx, refkey), &[] as &[u32]);
        let stats = st.stats();
        assert_eq!((stats.hits, stats.misses, stats.builds), (1, 1, 1));
        assert_eq!((stats.entries, stats.cached_rows), (1, 4));
    }

    #[test]
    fn ref_bearing_rows_stay_on_the_rc_lane() {
        let mut st = IndexStore::new(1000);
        let d = RefValue::new(Value::Int(7));
        let s = ref_rows(&d, &[1, 2]);
        let (idx, _) = st.insert(&s, "parity", parity_index(&s));
        assert_eq!(rows(&idx, Value::Int(1)), &[0]);
        assert!(st.lookup(&s, "parity").is_some(), "cached like any other");
        assert_eq!(st.stats().entries, 1);
    }

    #[test]
    fn different_fingerprint_or_storage_misses() {
        let mut st = IndexStore::new(1000);
        let s = ints(&[1, 2, 3]);
        st.insert(&s, "parity", parity_index(&s));
        assert!(st.lookup(&s, "identity").is_none(), "fingerprint differs");
        let rebuilt = ints(&[1, 2, 3]);
        assert!(
            st.lookup(&rebuilt, "parity").is_none(),
            "equal contents, different storage: still a miss"
        );
    }

    #[test]
    fn copy_on_write_mutation_cannot_hit() {
        let mut st = IndexStore::new(1000);
        let mut s = ints(&[1, 2, 3]);
        st.insert(&s, "parity", parity_index(&s));
        // The store holds a clone, so this insert copies-on-write into
        // fresh storage even though our handle looked unshared.
        s.insert(Value::Int(4));
        assert!(st.lookup(&s, "parity").is_none());
    }

    #[test]
    fn write_to_a_reachable_ref_evicts_exactly_that_entry() {
        let mut st = IndexStore::new(1000);
        let d = RefValue::new(Value::Int(7));
        let with_ref = ref_rows(&d, &[1, 2]);
        let plain = ints(&[1, 2, 3]);
        st.insert(&with_ref, "parity", parity_index(&with_ref));
        st.insert(&plain, "parity", parity_index(&plain));
        // Writing through the ref reachable from `with_ref` evicts it —
        // and only it.
        let dirty = DirtySet::default();
        d.set(Value::Int(8), &dirty);
        st.invalidate(&dirty.take());
        assert!(st.lookup(&with_ref, "parity").is_none());
        assert!(st.lookup(&plain, "parity").is_some());
        let stats = st.stats();
        assert_eq!(stats.invalidated, 1, "{stats:?}");
        assert_eq!(stats.cleared, 0, "{stats:?}");
        assert_eq!(stats.entries, 1, "{stats:?}");
    }

    #[test]
    fn write_to_an_unrelated_ref_evicts_nothing() {
        let mut st = IndexStore::new(1000);
        let s = ints(&[1, 2]);
        st.insert(&s, "parity", parity_index(&s));
        let unrelated = RefValue::new(Value::Int(0));
        let dirty = DirtySet::default();
        unrelated.set(Value::Int(1), &dirty);
        st.invalidate(&dirty.take());
        assert!(
            st.lookup(&s, "parity").is_some(),
            "ref-free entries survive every write"
        );
        let stats = st.stats();
        assert_eq!((stats.invalidated, stats.cleared), (0, 0), "{stats:?}");
        // Same for a ref-bearing entry whose refs were not written.
        let d = RefValue::new(Value::Int(7));
        let with_ref = ref_rows(&d, &[1]);
        st.insert(&with_ref, "parity", parity_index(&with_ref));
        unrelated.set(Value::Int(2), &dirty);
        st.invalidate(&dirty.take());
        assert!(st.lookup(&with_ref, "parity").is_some());
        assert_eq!(st.stats().invalidated, 0);
    }

    #[test]
    fn unattributed_epoch_bump_clears_ref_bearing_entries_only() {
        let mut st = IndexStore::new(1000);
        let plain = ints(&[1, 2]);
        let d = RefValue::new(Value::Int(7));
        let with_ref = ref_rows(&d, &[1]);
        st.insert(&plain, "parity", parity_index(&plain));
        st.insert(&with_ref, "parity", parity_index(&with_ref));
        // More distinct writes than the dirty set holds: identities lost.
        let dirty = DirtySet::default();
        for id in 0..=DIRTY_REFS_CAP as u64 {
            dirty.note_ref_write(id);
        }
        st.invalidate(&dirty.take());
        assert!(st.lookup(&plain, "parity").is_some(), "ref-free survives");
        assert!(st.lookup(&with_ref, "parity").is_none());
        let stats = st.stats();
        assert_eq!((stats.invalidated, stats.cleared), (0, 1), "{stats:?}");
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let mut st = IndexStore::new(5);
        let a = ints(&[1, 2, 3]);
        let b = ints(&[4, 5]);
        st.insert(&a, "parity", parity_index(&a));
        st.insert(&b, "parity", parity_index(&b));
        assert_eq!(st.stats().cached_rows, 5);
        // Touch `a` so `b` is the LRU victim.
        assert!(st.lookup(&a, "parity").is_some());
        let c = ints(&[6, 7]);
        st.insert(&c, "parity", parity_index(&c));
        assert!(st.lookup(&a, "parity").is_some());
        assert!(st.lookup(&b, "parity").is_none(), "b was evicted");
        assert_eq!(st.stats().evicted, 1);
        assert!(st.stats().cached_rows <= 5);
    }

    #[test]
    fn repeated_touches_keep_reordering_the_lru_queue() {
        // a, b, c fit exactly; every insertion below needs one victim,
        // and the victim must always be the entry *not* touched since.
        let mut st = IndexStore::new(6);
        let a = ints(&[1, 2]);
        let b = ints(&[3, 4]);
        let c = ints(&[5, 6]);
        st.insert(&a, "parity", parity_index(&a));
        st.insert(&b, "parity", parity_index(&b));
        st.insert(&c, "parity", parity_index(&c));
        // Touch order: a, c — so b is least recent.
        assert!(st.lookup(&a, "parity").is_some());
        assert!(st.lookup(&c, "parity").is_some());
        let d = ints(&[7, 8]);
        st.insert(&d, "parity", parity_index(&d));
        assert!(st.lookup(&b, "parity").is_none(), "b was the victim");
        // Touch a again; c is now least recent among (a, c... d newest).
        assert!(st.lookup(&a, "parity").is_some());
        let e = ints(&[9, 10]);
        st.insert(&e, "parity", parity_index(&e));
        assert!(st.lookup(&c, "parity").is_none(), "c was the victim");
        assert!(st.lookup(&a, "parity").is_some());
        assert!(st.lookup(&d, "parity").is_some());
        assert_eq!(st.stats().evicted, 2);
        assert!(st.stats().cached_rows <= 6);
    }

    #[test]
    fn entry_exactly_at_the_budget_is_cached_alone() {
        let mut st = IndexStore::new(3);
        let small = ints(&[9]);
        st.insert(&small, "parity", parity_index(&small));
        // Exactly the whole budget: admitted, and every other entry is
        // evicted to make room.
        let exact = ints(&[1, 2, 3]);
        st.insert(&exact, "parity", parity_index(&exact));
        assert!(st.lookup(&exact, "parity").is_some());
        assert!(st.lookup(&small, "parity").is_none(), "evicted for room");
        let stats = st.stats();
        assert_eq!((stats.entries, stats.cached_rows), (1, 3), "{stats:?}");
        // One row over: declined outright.
        let over = ints(&[1, 2, 3, 4]);
        st.insert(&over, "parity", parity_index(&over));
        assert!(st.lookup(&over, "parity").is_none());
        assert_eq!(st.stats().cached_rows, 3);
    }

    #[test]
    fn budget_of_zero_disables_caching() {
        let mut st = IndexStore::new(0);
        let s = ints(&[1]);
        let (idx, admitted) = st.insert(&s, "parity", parity_index(&s));
        assert!(!admitted);
        // The handle still answers the calling query…
        assert_eq!(rows(&idx, Value::Int(1)), &[0]);
        // …but nothing was cached and nothing ever will be.
        let stats = st.stats();
        assert_eq!((stats.entries, stats.builds, stats.cached_rows), (0, 0, 0));
        assert!(st.lookup(&s, "parity").is_none());
        // Shrinking a live store to zero evicts everything.
        let mut st = IndexStore::new(10);
        st.insert(&s, "parity", parity_index(&s));
        st.set_budget(0);
        let stats = st.stats();
        assert_eq!((stats.entries, stats.evicted), (0, 1), "{stats:?}");
    }

    #[test]
    fn oversized_relations_are_not_cached() {
        let mut st = IndexStore::new(2);
        let s = ints(&[1, 2, 3]);
        let (idx, _) = st.insert(&s, "parity", parity_index(&s));
        assert_eq!(idx.values().map(Vec::len).sum::<usize>(), 3);
        assert_eq!(st.stats().entries, 0);
        assert_eq!(st.stats().builds, 0);
    }

    #[test]
    #[allow(clippy::mutable_key_type)] // refs hash/compare by immutable identity
    fn budget_charges_the_pinned_relation_not_the_filtered_index() {
        let s = ints(&[1, 2, 3, 4, 5, 6]);
        let selective = || {
            let mut idx = Index::new();
            idx.entry(KeyTuple(vec![Value::Int(0)]))
                .or_default()
                .push(1);
            idx
        };
        // A one-row filtered index still pins all six relation rows.
        let mut st = IndexStore::new(10);
        st.insert(&s, "filtered", selective());
        assert_eq!(st.stats().cached_rows, 6);
        // A relation over the whole budget is declined even when its
        // filtered index is tiny.
        let mut st = IndexStore::new(4);
        st.insert(&s, "filtered", selective());
        assert_eq!(st.stats().entries, 0);
    }

    #[test]
    fn reset_zeroes_stats_and_entries() {
        let mut st = IndexStore::new(1000);
        let s = ints(&[1]);
        st.insert(&s, "parity", parity_index(&s));
        st.lookup(&s, "parity");
        st.reset();
        assert_eq!(st.stats(), StoreStats::default());
        assert!(!st.has_fingerprint("parity"));
    }

    #[test]
    fn indexes_listing_is_sorted_and_reports_kinds() {
        let mut st = IndexStore::new(1000);
        let s = ints(&[1, 2, 3, 4]);
        let d = RefValue::new(Value::Int(7));
        let r = ref_rows(&d, &[1]);
        st.insert(&s, "b-parity", parity_index(&s));
        st.insert(&r, "a-parity", parity_index(&r));
        st.lookup(&s, "b-parity");
        let infos = st.indexes();
        assert_eq!(infos.len(), 2);
        // Sorted by fingerprint — not recency.
        assert_eq!(infos[0].fingerprint, "a-parity");
        assert_eq!((infos[0].rows, infos[0].groups, infos[0].hits), (1, 1, 0));
        assert_eq!(infos[1].fingerprint, "b-parity");
        assert_eq!((infos[1].rows, infos[1].groups, infos[1].hits), (4, 2, 1));
        assert!(st.has_fingerprint("a-parity") && !st.has_fingerprint("c-parity"));
    }

    #[test]
    fn enable_toggle_round_trips() {
        let ctx = EngineCtx::default();
        assert_eq!(ctx.mode(), Mode::planned(true));
        let prev = ctx.set_mode(Mode::planned(false));
        assert_eq!(prev, Mode::planned(true));
        assert!(!ctx.mode().store);
        assert!(
            EngineCtx::default().mode().store,
            "a mode belongs to its context"
        );
        ctx.set_mode(prev);
        assert!(ctx.mode().store);
    }

    #[test]
    fn context_evicts_on_the_way_in_and_counts_its_own_declines() {
        let ctx = EngineCtx::default();
        ctx.with_store(|st| st.set_budget(3));
        let d = RefValue::new(Value::Int(7));
        let with_ref = ref_rows(&d, &[1, 2]);
        ctx.insert(&with_ref, "parity", parity_index(&with_ref));
        // A write through the session's pair reaches its store set.
        d.set(Value::Int(8), ctx.dirty());
        assert!(ctx
            .with_store(|st| st.lookup(&with_ref, "parity"))
            .is_none());
        assert_eq!(ctx.with_store(|st| st.stats()).invalidated, 1);
        assert!(ctx.dirty().wal.take().ids.contains(&d.id));
        // Over budget: not admitted, and the decline is this context's.
        let big = ints(&[1, 2, 3, 4]);
        ctx.insert(&big, "parity", parity_index(&big));
        let over = |c: &EngineCtx| {
            c.declines()
                .into_iter()
                .find(|(r, _)| *r == DeclineReason::StoreOverBudget)
                .unwrap()
                .1
        };
        assert_eq!(over(&ctx), 1);
        assert_eq!(over(&EngineCtx::default()), 0);
        ctx.reset_stats();
        assert_eq!(over(&ctx), 0);
        assert_eq!(ctx.with_store(|st| st.stats()), StoreStats::default());
    }
}
