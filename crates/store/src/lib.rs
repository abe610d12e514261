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
//! probes produce identical row sequences). It comes in two
//! representations ([`CachedIndex`]):
//!
//! * **Plain** ([`PlainIndex`]) — keys and a snapshot of the rows in
//!   `Send + Sync` plain form (`machiavelli_value::plain`), built
//!   whenever every relation row extracts via `to_plain`. A plain entry
//!   is shareable across threads, which is what lets the planner fan
//!   its **plain-key join probe out directly against the cache**: the
//!   store and the parallel lane compose instead of excluding each
//!   other.
//! * **Local** — the `Rc`-lane [`Index`] keyed by [`KeyTuple`], for
//!   relations carrying identity-bearing data (refs, dynamics) that has
//!   no plain form. Cached and probed sequentially, exactly as before.
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
//!    relation ([`machiavelli_value::scan_refs`]; empty by construction
//!    for plain entries, which cannot contain refs at all). Every
//!    reference write (funnelled through
//!    [`machiavelli_value::RefValue::set`]) advances the thread's
//!    mutation epoch and records the written identity in a dirty set;
//!    before serving anything the store drains the dirty set and evicts
//!    exactly the entries whose recorded sources intersect it. A write
//!    to a ref no cached relation can reach — the common case under
//!    mixed read/write traffic — **evicts nothing**, where the PR 4
//!    contract dropped the whole store. Unattributed writes and dirty-
//!    set overflow degrade to evicting every ref-reachable (and
//!    closure-opaque) entry; the PR 4 whole-store clear itself survives
//!    as a paranoid A/B mode behind
//!    [`machiavelli_value::tuning::set_store_epoch_clear`], which the
//!    equivalence property tests run against the precise mode (same
//!    visible results, strictly fewer evictions).
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
//! The store itself is **thread-local** (values are `Rc`-based and
//! thread-confined, so this is the natural session scope: a `Session`
//! lives on the thread that drives it, and `Session::store_stats` /
//! `:stats` read the same instance the evaluator fills). Two sessions
//! sharing a thread also share the store harmlessly: pointer-identity
//! keying means their relations can never alias each other's entries.
//!
//! Memory is bounded by a row **budget**: entries are evicted
//! least-recently-used when the total number of cached rows exceeds it,
//! and a relation larger than the whole budget is never cached at all
//! (a budget of zero disables caching outright). Counters
//! ([`StoreStats`]) record hits, misses, builds, per-reason
//! invalidations and evictions for the REPL's `:stats` and regression
//! tests; [`IndexStore::indexes`] lists live entries in deterministic
//! (fingerprint, storage-id) order so goldens can pin it.

pub mod shared;

use machiavelli_value::plain::{to_plain, PlainIndex, PlainKey};
use machiavelli_value::{
    hash_value, mutation_epoch, scan_refs, take_dirty_refs, value_eq, MSet, RefScan, Value,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;

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

/// The `Rc`-lane structural index: **row indices** (into the relation's
/// canonical slice) grouped by key value, each group ascending — the
/// same order an inline build produces, so cached and fresh probes
/// yield identical row sequences. The executor re-binds matches by
/// index from the live relation, so groups never clone rows.
#[allow(clippy::mutable_key_type)] // refs hash/compare by immutable identity
pub type Index = HashMap<KeyTuple, Vec<u32>>;

/// A grouping in one of its two representations. `Plain` whenever the
/// whole relation extracts to plain form (then the index is
/// `Send + Sync` and the planner may probe it from worker threads);
/// `Local` otherwise (sequential probes only). Both resolve probes to
/// row-index slices; the caller re-binds rows from the relation it
/// evaluated.
#[derive(Debug, Clone)]
pub enum CachedIndex {
    Plain(Arc<PlainIndex>),
    Local(Rc<Index>),
}

impl CachedIndex {
    pub fn is_empty(&self) -> bool {
        match self {
            CachedIndex::Plain(p) => p.is_empty(),
            CachedIndex::Local(idx) => idx.is_empty(),
        }
    }

    /// Distinct key groups.
    pub fn groups(&self) -> usize {
        match self {
            CachedIndex::Plain(p) => p.group_count(),
            CachedIndex::Local(idx) => idx.len(),
        }
    }

    /// Rows held across all groups (≤ the relation size when pushed
    /// filters pruned).
    pub fn indexed_rows(&self) -> usize {
        match self {
            CachedIndex::Plain(p) => p.indexed_rows(),
            CachedIndex::Local(idx) => idx.values().map(Vec::len).sum(),
        }
    }

    /// The matching row indices for an `Rc`-lane key tuple (empty when
    /// absent). Plain indexes are probed through their borrowed
    /// value-side lookup (`hash_value` digests land in `plain_hash`
    /// buckets, values compare structurally without extraction) — no
    /// per-probe conversion or allocation; a key that has no plain form
    /// (an identity-bearing `ref`/`dynamic`) cannot structurally equal
    /// any plain-formed key, so the empty group is exact, not
    /// approximate.
    pub fn rows_for(&self, key: Vec<Value>) -> &[u32] {
        match self {
            CachedIndex::Local(idx) => idx
                .get(&KeyTuple(key))
                .map(Vec::as_slice)
                .unwrap_or_default(),
            CachedIndex::Plain(p) => p.get_by_values(&key),
        }
    }
}

/// Which representation a live entry holds — surfaced by
/// [`IndexStore::fingerprint_kind`] so plan explanation can predict
/// whether the next execution may probe in parallel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// `Send + Sync` plain keys + row snapshot: parallel-probable.
    Plain,
    /// `Rc`-lane keys (identity-bearing rows): sequential probes only.
    Rc,
}

impl std::fmt::Display for IndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IndexKind::Plain => "plain",
            IndexKind::Rc => "rc",
        })
    }
}

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
    /// Entries dropped by a **whole-store clear**: the paranoid
    /// epoch-clear mode, or a dirty-set overflow / unattributed write
    /// (no identity to intersect against).
    pub cleared: u64,
    /// Entries dropped by the LRU row budget.
    pub evicted: u64,
    /// Live entries right now.
    pub entries: usize,
    /// Live entries in plain (parallel-probable) form.
    pub plain_entries: usize,
    /// Live entries on the `Rc` lane.
    pub rc_entries: usize,
    /// Total *relation* rows pinned by live entries (the budgeted
    /// quantity — an entry keeps a clone of its whole relation alive,
    /// so it is charged the relation's size even when pushed filters
    /// leave the index itself much smaller).
    pub cached_rows: usize,
    /// Local misses answered by **adopting** a verified snapshot from
    /// the process-wide shared tier ([`shared`]) — builds this session
    /// skipped because another session already paid for them.
    pub shared_adoptions: u64,
}

/// Public description of one live entry, for `:indexes`.
#[derive(Debug, Clone)]
pub struct IndexInfo {
    /// The planner's rendering of the indexed key/filter expressions.
    pub fingerprint: String,
    /// Representation: plain (parallel-probable) or `Rc`-lane.
    pub kind: IndexKind,
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
    /// relation at build time. Empty for plain entries (plain data
    /// cannot contain refs).
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
    index: CachedIndex,
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

/// Default row budget — defined with the workspace's other size
/// thresholds in `machiavelli_value::tuning` (fresh stores additionally
/// honor the `MACHIAVELLI_STORE_BUDGET_ROWS` env override resolved by
/// [`machiavelli_value::tuning::store_budget_rows`]).
pub const DEFAULT_BUDGET_ROWS: usize = machiavelli_value::tuning::DEFAULT_STORE_BUDGET_ROWS;

/// The memoizing index store. One per thread (see [`with_store`]); all
/// methods take `&mut self` because even lookups update recency and
/// invalidation state.
///
/// Entries are keyed storage-id-first, fingerprint second: the hot-path
/// [`IndexStore::lookup`] (one per hash-join open in a repeated-plan
/// workload — ~2000 per fig5 sweep) is two map probes that borrow the
/// caller's fingerprint as `&str`; the store only materializes its own
/// key `String` on insert. (The *planner* still renders a fingerprint
/// per evaluation to have something to look up with — a few small
/// formatting allocations per `select`, not per row.)
/// Observed execution statistics for one operator fingerprint — the
/// cardinality feed `Session::analyze` persists for the future
/// cost-based join ordering (ROADMAP). Keyed by the same fingerprint
/// string the store keys indexes by, but kept across storage changes:
/// a rebuilt relation invalidates its *index*, while its observed
/// cardinality stays a useful prior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObservedStats {
    /// Traced executions that reported this fingerprint.
    pub executions: u64,
    /// Rows the operator yielded on the most recent traced execution.
    pub last_rows: u64,
    /// Total rows across all traced executions (mean = total / executions).
    pub total_rows: u64,
    /// Total operator wall time across traced executions, nanoseconds.
    pub total_ns: u64,
}

pub struct IndexStore {
    entries: HashMap<usize, HashMap<String, Entry>>,
    budget_rows: usize,
    cached_rows: usize,
    epoch: u64,
    tick: u64,
    stats: StoreStats,
    observed: HashMap<String, ObservedStats>,
}

impl IndexStore {
    pub fn new(budget_rows: usize) -> IndexStore {
        IndexStore {
            entries: HashMap::new(),
            budget_rows,
            cached_rows: 0,
            epoch: mutation_epoch(),
            tick: 0,
            stats: StoreStats::default(),
            observed: HashMap::new(),
        }
    }

    /// React to reference writes since the last call. Called on the way
    /// into every public operation, so no affected entry is ever
    /// *observable* — mechanism 2 of the invalidation contract. The
    /// mutation epoch is the cheap "did anything happen" check; when it
    /// moved, the dirty-ref set names the written identities and only
    /// intersecting entries are evicted (all of them, under the
    /// paranoid whole-clear mode or when identities were lost).
    fn validate(&mut self) {
        let now = mutation_epoch();
        if self.epoch == now {
            return;
        }
        self.epoch = now;
        let dirty = take_dirty_refs();
        if self.entries.is_empty() {
            return;
        }
        if machiavelli_value::tuning::store_epoch_clear() {
            // Paranoid A/B mode: the PR 4 contract — any write drops
            // everything. Kept so equivalence tests can cross-check the
            // precise mode below against it. The shared tier mirrors
            // the discipline (write attribution abandoned → clear).
            let dropped = self.len();
            self.entries.clear();
            self.cached_rows = 0;
            self.stats.cleared += dropped as u64;
            if shared::shared_enabled() {
                shared::note_unattributed_write();
            }
            return;
        }
        debug_assert!(
            !dirty.is_empty(),
            "the epoch moved, so some write must have been recorded"
        );
        // Precise mode: evict exactly the entries a written ref can
        // reach. `dirty.overflowed` (identities lost) makes
        // `dirtied_by` true for every ref-bearing entry; ref-free
        // entries survive even that.
        let mut dropped = 0u64;
        self.entries.retain(|_, by_fp| {
            by_fp.retain(|_, e| {
                if e.sources.dirtied_by(&dirty) {
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
            // Identities were lost: map the degradation onto the
            // cross-session epoch too (shared snapshots cannot actually
            // go stale — ref-free by construction — but the tier keeps
            // the same conservative discipline as the local store).
            if shared::shared_enabled() {
                shared::note_unattributed_write();
            }
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
    pub fn lookup(&mut self, set: &MSet, fingerprint: &str) -> Option<CachedIndex> {
        self.validate();
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
                // Cross-session adoption: another session may already
                // have published a snapshot of an *equal-content*
                // relation under this fingerprint. Adoption verifies
                // row for row (see [`shared::adopt`]), and the entry
                // is installed locally so subsequent lookups are plain
                // local hits. Gated by the local budget exactly like
                // an insert — an over-budget relation is not pinned.
                if shared::shared_enabled() && set.len() <= self.budget_rows {
                    if let Some(index) = shared::adopt(shared::content_hash(set), fingerprint, set)
                    {
                        let charge = set.len();
                        self.evict_to(self.budget_rows.saturating_sub(charge));
                        let entry = Entry {
                            set: set.clone(),
                            index: CachedIndex::Plain(index.clone()),
                            // Plain snapshots cannot contain refs.
                            sources: RefSources::Ids(Box::default()),
                            rows: index.indexed_rows(),
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
                            self.cached_rows -= old.charge;
                        }
                        self.cached_rows += charge;
                        self.stats.shared_adoptions += 1;
                        return Some(CachedIndex::Plain(index));
                    }
                }
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Is there a live entry for exactly this (storage, fingerprint)
    /// key? A stats-neutral decision probe (no hit/miss counting, no
    /// recency touch) — the planner's build-side-selection uses it to
    /// choose an orientation before committing to a lookup.
    pub fn peek(&mut self, set: &MSet, fingerprint: &str) -> bool {
        self.validate();
        self.entries
            .get(&set.storage_id())
            .is_some_and(|by_fp| by_fp.contains_key(fingerprint))
    }

    /// Insert a freshly built grouping for `set` under `fingerprint`,
    /// returning the shared handle the caller should probe. The
    /// grouping arrives as `Rc`-lane key tuples over row indices; the
    /// store re-represents it in plain form when the whole relation
    /// extracts (`to_plain`), which is what makes the entry
    /// parallel-probable — relations with no plain form stay on the
    /// `Rc` lane. Relations larger than the whole budget are not cached
    /// (the handle is still returned, so the calling query proceeds
    /// normally, without paying the plain conversion); otherwise the
    /// least-recently-used entries are evicted until the budget holds.
    #[allow(clippy::mutable_key_type)] // refs hash/compare by immutable identity
    pub fn insert(&mut self, set: &MSet, fingerprint: &str, groups: Index) -> CachedIndex {
        self.validate();
        self.tick += 1;
        let rows: usize = groups.values().map(Vec::len).sum();
        // Budget by the relation being pinned, not the filtered index:
        // the entry's set clone keeps every row alive either way.
        let charge = set.len();
        if charge > self.budget_rows {
            machiavelli_trace::note_decline(machiavelli_trace::DeclineReason::StoreOverBudget);
            return CachedIndex::Local(Rc::new(groups));
        }
        let index = match try_plain(set, &groups) {
            Some(plain) => {
                let arc = Arc::new(plain);
                // Publish the snapshot process-wide so concurrent
                // sessions over equal-content relations adopt instead
                // of rebuilding (one build per hot index). Serialized
                // behind the tier lock; this session's local entry is
                // installed below either way.
                if shared::shared_enabled() {
                    shared::publish(shared::content_hash(set), fingerprint, &arc, charge);
                }
                CachedIndex::Plain(arc)
            }
            None => {
                // Identity-bearing rows: cacheable, but only in
                // session-local `Rc` form — not shareable across
                // sessions and never parallel-probed.
                machiavelli_trace::note_decline(machiavelli_trace::DeclineReason::StoreRcOnly);
                CachedIndex::Local(Rc::new(groups))
            }
        };
        // Plain entries cannot contain refs (to_plain declines them),
        // so their source record is empty by construction.
        let sources = match &index {
            CachedIndex::Plain(_) => RefSources::Ids(Box::default()),
            CachedIndex::Local(_) => RefSources::of(set),
        };
        self.evict_to(self.budget_rows.saturating_sub(charge));
        let entry = Entry {
            set: set.clone(),
            index: index.clone(),
            sources,
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
        index
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
    pub fn has_fingerprint(&mut self, fingerprint: &str) -> bool {
        self.fingerprint_kind(fingerprint).is_some()
    }

    /// The representation of the live entry with this fingerprint, if
    /// any — the same display-level probe as
    /// [`IndexStore::has_fingerprint`], additionally saying whether the
    /// next execution could probe it in parallel (plain entries only).
    pub fn fingerprint_kind(&mut self, fingerprint: &str) -> Option<IndexKind> {
        self.validate();
        self.entries
            .values()
            .find_map(|by_fp| by_fp.get(fingerprint))
            .map(|e| match e.index {
                CachedIndex::Plain(_) => IndexKind::Plain,
                CachedIndex::Local(_) => IndexKind::Rc,
            })
    }

    /// Drop all entries (statistics are kept; see [`IndexStore::reset`]).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.cached_rows = 0;
    }

    /// Drop all entries and zero the statistics (observed per-operator
    /// stats included — a reset is a fresh session).
    pub fn reset(&mut self) {
        self.clear();
        self.stats = StoreStats::default();
        self.observed.clear();
    }

    /// Fold one traced execution's actuals into the per-fingerprint
    /// observed stats (the cardinality feed for the future cost model;
    /// called by `Session::analyze` and traced evaluations). Survives
    /// index invalidation — a rebuilt relation's observed cardinality
    /// stays a useful prior — and is dropped by [`IndexStore::reset`].
    pub fn note_observed(&mut self, fingerprint: &str, rows: u64, elapsed_ns: u64) {
        let o = self.observed.entry(fingerprint.to_string()).or_default();
        o.executions += 1;
        o.last_rows = rows;
        o.total_rows += rows;
        o.total_ns += elapsed_ns;
    }

    /// The observed stats recorded for a fingerprint, if any traced
    /// execution reported one.
    pub fn observed_stats(&self, fingerprint: &str) -> Option<ObservedStats> {
        self.observed.get(fingerprint).copied()
    }

    /// All observed per-fingerprint stats in deterministic (fingerprint)
    /// order, for goldens and the cost model's warm-up scan.
    pub fn observed(&self) -> Vec<(String, ObservedStats)> {
        let mut all: Vec<(String, ObservedStats)> = self
            .observed
            .iter()
            .map(|(fp, o)| (fp.clone(), *o))
            .collect();
        all.sort_by(|(a, _), (b, _)| a.cmp(b));
        all
    }

    /// Change the row budget, evicting immediately if the cache is now
    /// over it.
    pub fn set_budget(&mut self, budget_rows: usize) {
        self.budget_rows = budget_rows;
        self.evict_to(budget_rows);
    }

    /// The current row budget. Callers about to build an index can
    /// check it first: a relation that exceeds the whole budget would
    /// be declined by [`IndexStore::insert`], so building a grouping
    /// for it is wasted work (stream instead).
    pub fn budget_rows(&self) -> usize {
        self.budget_rows
    }

    /// Current statistics (entry/row counts reflect live entries only).
    pub fn stats(&mut self) -> StoreStats {
        self.validate();
        let plain_entries = self
            .entries
            .values()
            .flat_map(HashMap::values)
            .filter(|e| matches!(e.index, CachedIndex::Plain(_)))
            .count();
        let entries = self.len();
        StoreStats {
            entries,
            plain_entries,
            rc_entries: entries - plain_entries,
            cached_rows: self.cached_rows,
            ..self.stats
        }
    }

    /// Describe the live entries in deterministic order — sorted by
    /// fingerprint, then storage id — so `:indexes` output can be
    /// pinned in golden tests regardless of recency history.
    pub fn indexes(&mut self) -> Vec<IndexInfo> {
        self.validate();
        let mut infos: Vec<(usize, IndexInfo)> = self
            .entries
            .iter()
            .flat_map(|(storage, by_fp)| {
                by_fp.iter().map(move |(fp, e)| {
                    (
                        *storage,
                        IndexInfo {
                            fingerprint: fp.clone(),
                            kind: match e.index {
                                CachedIndex::Plain(_) => IndexKind::Plain,
                                CachedIndex::Local(_) => IndexKind::Rc,
                            },
                            rows: e.rows,
                            groups: e.index.groups(),
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

/// Re-represent a grouping in plain form: the whole relation must
/// extract row by row (the snapshot doubles as the eligibility test),
/// and then every key tuple extracts too (keys are planner-safe
/// functions of plain rows, so this cannot fail once the rows did —
/// checked anyway).
#[allow(clippy::mutable_key_type)] // refs hash/compare by immutable identity
fn try_plain(set: &MSet, groups: &Index) -> Option<PlainIndex> {
    let rows: Option<Vec<_>> = set.iter().map(to_plain).collect();
    let rows = rows?;
    let mut plain_groups = Vec::with_capacity(groups.len());
    for (key, idxs) in groups {
        let plain = match key.0.as_slice() {
            [single] => PlainKey::One(to_plain(single)?),
            many => PlainKey::Tuple(many.iter().map(to_plain).collect::<Option<_>>()?),
        };
        plain_groups.push((plain, idxs.clone()));
    }
    Some(PlainIndex::from_groups(rows.into(), plain_groups))
}

impl Default for IndexStore {
    fn default() -> Self {
        IndexStore::new(machiavelli_value::tuning::store_budget_rows())
    }
}

thread_local! {
    static STORE: RefCell<IndexStore> = RefCell::new(IndexStore::default());
    /// Whether the executor consults the store at all. Benches flip it
    /// off to measure the always-rebuild path; `false` means every
    /// cacheable build happens inline, uncached and uncounted.
    static STORE_ENABLED: std::cell::Cell<bool> = const { std::cell::Cell::new(true) };
}

/// Run `f` on this thread's index store.
pub fn with_store<R>(f: impl FnOnce(&mut IndexStore) -> R) -> R {
    STORE.with(|s| f(&mut s.borrow_mut()))
}

/// Is store consultation enabled on this thread?
pub fn store_enabled() -> bool {
    STORE_ENABLED.with(|c| c.get())
}

/// Enable/disable store consultation on this thread, returning the
/// previous setting (so callers can restore it).
pub fn set_store_enabled(on: bool) -> bool {
    STORE_ENABLED.with(|c| c.replace(on))
}

#[cfg(test)]
mod tests {
    use super::*;
    use machiavelli_value::{bump_mutation_epoch, note_ref_write, RefValue};

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

    /// A relation whose rows hold a shared ref (no plain form).
    fn ref_rows(r: &RefValue, ks: &[i64]) -> MSet {
        MSet::from_iter(ks.iter().map(|&k| {
            Value::record([
                ("K".into(), Value::Int(k)),
                ("D".into(), Value::Ref(r.clone())),
            ])
        }))
    }

    #[test]
    fn hit_after_insert_same_storage() {
        let mut st = IndexStore::new(1000);
        let s = ints(&[1, 2, 3]);
        assert!(st.lookup(&s, "parity").is_none());
        st.insert(&s, "parity", parity_index(&s));
        let alias = s.clone();
        let idx = st.lookup(&alias, "parity").expect("clone shares storage");
        assert_eq!(idx.groups(), 2);
        let stats = st.stats();
        assert_eq!((stats.hits, stats.misses, stats.builds), (1, 1, 1));
        assert_eq!((stats.entries, stats.cached_rows), (1, 3));
    }

    #[test]
    fn plain_rows_cache_in_plain_form_and_resolve_probes() {
        let mut st = IndexStore::new(1000);
        let s = ints(&[1, 2, 3, 4]);
        let idx = st.insert(&s, "parity", parity_index(&s));
        assert!(matches!(idx, CachedIndex::Plain(_)), "ints are plain data");
        // Probing with Rc-lane key values resolves through the plain keys.
        assert_eq!(idx.rows_for(vec![Value::Int(0)]), &[1, 3]);
        assert_eq!(idx.rows_for(vec![Value::Int(1)]), &[0, 2]);
        assert_eq!(idx.rows_for(vec![Value::Int(9)]), &[] as &[u32]);
        // A key with no plain form cannot match any plain key: empty.
        let refkey = Value::Ref(RefValue::new(Value::Int(0)));
        assert_eq!(idx.rows_for(vec![refkey]), &[] as &[u32]);
        let stats = st.stats();
        assert_eq!((stats.plain_entries, stats.rc_entries), (1, 0));
    }

    #[test]
    fn ref_bearing_rows_stay_on_the_rc_lane() {
        let mut st = IndexStore::new(1000);
        let d = RefValue::new(Value::Int(7));
        let s = ref_rows(&d, &[1, 2]);
        let idx = st.insert(&s, "parity", parity_index(&s));
        assert!(matches!(idx, CachedIndex::Local(_)));
        assert_eq!(idx.rows_for(vec![Value::Int(1)]), &[0]);
        let stats = st.stats();
        assert_eq!((stats.plain_entries, stats.rc_entries), (0, 1));
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
        d.set(Value::Int(8));
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
        unrelated.set(Value::Int(1));
        assert!(
            st.lookup(&s, "parity").is_some(),
            "plain entries survive every write"
        );
        let stats = st.stats();
        assert_eq!((stats.invalidated, stats.cleared), (0, 0), "{stats:?}");
        // Same for an Rc-lane entry whose refs were not written.
        let d = RefValue::new(Value::Int(7));
        let with_ref = ref_rows(&d, &[1]);
        st.insert(&with_ref, "parity", parity_index(&with_ref));
        unrelated.set(Value::Int(2));
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
        bump_mutation_epoch(); // no identity: poison
        assert!(st.lookup(&plain, "parity").is_some(), "ref-free survives");
        assert!(st.lookup(&with_ref, "parity").is_none());
        let stats = st.stats();
        assert_eq!((stats.invalidated, stats.cleared), (0, 1), "{stats:?}");
    }

    #[test]
    fn paranoid_epoch_clear_mode_drops_everything() {
        let prev = machiavelli_value::tuning::set_store_epoch_clear(true);
        let mut st = IndexStore::new(1000);
        let s = ints(&[1, 2]);
        st.insert(&s, "parity", parity_index(&s));
        note_ref_write(12345); // any write at all
        assert!(st.lookup(&s, "parity").is_none());
        let stats = st.stats();
        assert_eq!(stats.cleared, 1, "{stats:?}");
        assert_eq!(stats.entries, 0, "{stats:?}");
        machiavelli_value::tuning::set_store_epoch_clear(prev);
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
        let idx = st.insert(&s, "parity", parity_index(&s));
        // The handle still answers the calling query…
        assert_eq!(idx.rows_for(vec![Value::Int(1)]), &[0]);
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
        let idx = st.insert(&s, "parity", parity_index(&s));
        assert_eq!(idx.indexed_rows(), 3);
        assert!(
            matches!(idx, CachedIndex::Local(_)),
            "uncached handles skip the plain conversion"
        );
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
        assert_eq!(st.fingerprint_kind("parity"), None);
    }

    #[test]
    fn peek_is_stats_neutral() {
        let mut st = IndexStore::new(1000);
        let s = ints(&[1, 2]);
        st.insert(&s, "parity", parity_index(&s));
        let before = st.stats();
        assert!(st.peek(&s, "parity"));
        assert!(!st.peek(&s, "other"));
        let rebuilt = ints(&[1, 2]);
        assert!(!st.peek(&rebuilt, "parity"), "peek is storage-exact");
        let after = st.stats();
        assert_eq!((before.hits, before.misses), (after.hits, after.misses));
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
        assert_eq!(infos[0].kind, IndexKind::Rc);
        assert_eq!(infos[1].fingerprint, "b-parity");
        assert_eq!(infos[1].kind, IndexKind::Plain);
        assert_eq!((infos[1].rows, infos[1].groups, infos[1].hits), (4, 2, 1));
        assert_eq!(st.fingerprint_kind("b-parity"), Some(IndexKind::Plain));
        assert_eq!(st.fingerprint_kind("a-parity"), Some(IndexKind::Rc));
    }

    #[test]
    fn enable_toggle_round_trips() {
        assert!(store_enabled());
        let prev = set_store_enabled(false);
        assert!(prev);
        assert!(!store_enabled());
        set_store_enabled(prev);
        assert!(store_enabled());
    }
}
