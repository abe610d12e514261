//! The **plain-value lane**: a `Send + Sync` mirror of the *data* subset
//! of [`Value`], so proper `hom` applications and plain-key join
//! probes can cross thread boundaries.
//!
//! [`Value`] is deliberately `Rc`-based and thread-confined; the paper's
//! claim that proper `hom` applications are "computable in parallel"
//! therefore needs an extraction step. [`PlainValue`] covers exactly the
//! constructors whose meaning is *structural* — Unit/Int/Real/Str/Bool,
//! records, variants, sets — with `Arc`/owned storage (interned
//! [`Symbol`] labels carry over unchanged: they wrap `&'static str`).
//! The identity-bearing and code-bearing constructors (`Ref`, `Dynamic`,
//! `Closure`, `Op`, `Builtin`) have **no** plain form: [`to_plain`]
//! returns `None` for them and every caller falls back to the
//! sequential `Rc` path — the same classify-then-parallelize strategy
//! the planner uses for predicates.
//!
//! # Consistency contract
//!
//! On the extractable subset the plain operations agree *exactly* with
//! their `Value` counterparts (property-tested in `tests/properties.rs`):
//!
//! * [`from_plain`]`(`[`to_plain`]`(v)) == v` (structural round trip);
//! * [`plain_cmp`] agrees with [`value_cmp`] (so plain sets stay in the
//!   canonical order and [`from_plain`] can rebuild them unchecked);
//! * [`plain_hash`] produces the same digest as
//!   [`hash_value`](crate::hash_value) (same discriminant bytes, same
//!   payload encoding), so keys computed in either lane group rows
//!   identically.

use crate::set::MSet;
use crate::value::{Fields, Symbol, Value};
use std::cmp::Ordering;
use std::hash::Hasher;
use std::sync::Arc;

/// A thread-shareable description value: the data subset of [`Value`]
/// with `Arc`/owned storage. Clones are O(1) for containers.
#[derive(Debug, Clone)]
pub enum PlainValue {
    Unit,
    Int(i64),
    Real(f64),
    Str(Arc<str>),
    Bool(bool),
    /// Label-sorted entries, exactly like [`Fields`].
    Record(Arc<[(Symbol, PlainValue)]>),
    Variant(Symbol, Arc<PlainValue>),
    /// Canonical (sorted, deduplicated) elements, exactly like
    /// [`MSet`].
    Set(Arc<[PlainValue]>),
}

// The compiler derives these, but the claim is load-bearing enough to
// state: a PlainValue can cross threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PlainValue>();
};

/// Extract the plain mirror of `v`, or `None` when `v` (or anything
/// inside it) is identity- or code-bearing (`Ref`, `Dynamic`,
/// `Closure`, `Op`, `Builtin`) — the caller's cue to take its
/// sequential path.
pub fn to_plain(v: &Value) -> Option<PlainValue> {
    Some(match v {
        Value::Unit => PlainValue::Unit,
        Value::Int(n) => PlainValue::Int(*n),
        Value::Real(r) => PlainValue::Real(*r),
        Value::Str(s) => PlainValue::Str(Arc::from(&**s)),
        Value::Bool(b) => PlainValue::Bool(*b),
        Value::Record(fs) => {
            // `Fields` entries are label-sorted; the order carries over.
            let entries: Option<Vec<(Symbol, PlainValue)>> = fs
                .entries()
                .iter()
                .map(|(l, fv)| Some((*l, to_plain(fv)?)))
                .collect();
            PlainValue::Record(entries?.into())
        }
        Value::Variant(l, p) => PlainValue::Variant(*l, Arc::new(to_plain(p)?)),
        Value::Set(items) => {
            // Canonical order carries over (plain_cmp agrees with
            // value_cmp on the extractable subset).
            let items: Option<Vec<PlainValue>> = items.iter().map(to_plain).collect();
            PlainValue::Set(items?.into())
        }
        Value::Ref(_)
        | Value::Dynamic(_)
        | Value::Closure(_)
        | Value::Op(_)
        | Value::Builtin(_) => return None,
    })
}

/// Rebuild the `Rc`-lane value. Total: every plain value has a `Value`
/// form, and `from_plain(to_plain(v)) == v` structurally.
pub fn from_plain(p: &PlainValue) -> Value {
    match p {
        PlainValue::Unit => Value::Unit,
        PlainValue::Int(n) => Value::Int(*n),
        PlainValue::Real(r) => Value::Real(*r),
        PlainValue::Str(s) => Value::str(&**s),
        PlainValue::Bool(b) => Value::Bool(*b),
        PlainValue::Record(entries) => Value::Record(Fields::from_sorted_vec(
            entries.iter().map(|(l, fv)| (*l, from_plain(fv))).collect(),
        )),
        PlainValue::Variant(l, p) => Value::variant(*l, from_plain(p)),
        PlainValue::Set(items) => Value::Set(MSet::from_sorted_unchecked(
            items.iter().map(from_plain).collect(),
        )),
    }
}

fn rank(p: &PlainValue) -> u8 {
    // The same constructor ranks as `Value::rank` (the missing
    // constructors — refs, dynamics, functions — have no plain form).
    match p {
        PlainValue::Unit => 0,
        PlainValue::Bool(_) => 1,
        PlainValue::Int(_) => 2,
        PlainValue::Real(_) => 3,
        PlainValue::Str(_) => 4,
        PlainValue::Record(_) => 5,
        PlainValue::Variant(..) => 6,
        PlainValue::Set(_) => 7,
    }
}

/// Total order on plain values, agreeing with [`value_cmp`] on the
/// extractable subset (reals via IEEE `total_cmp`).
pub fn plain_cmp(a: &PlainValue, b: &PlainValue) -> Ordering {
    use PlainValue::*;
    let rank_cmp = rank(a).cmp(&rank(b));
    if rank_cmp != Ordering::Equal {
        return rank_cmp;
    }
    match (a, b) {
        (Unit, Unit) => Ordering::Equal,
        (Bool(x), Bool(y)) => x.cmp(y),
        (Int(x), Int(y)) => x.cmp(y),
        (Real(x), Real(y)) => x.total_cmp(y),
        (Str(x), Str(y)) => x.cmp(y),
        (Record(xs), Record(ys)) => {
            for ((lx, vx), (ly, vy)) in xs.iter().zip(ys.iter()) {
                let lc = lx.cmp(ly);
                if lc != Ordering::Equal {
                    return lc;
                }
                let vc = plain_cmp(vx, vy);
                if vc != Ordering::Equal {
                    return vc;
                }
            }
            xs.len().cmp(&ys.len())
        }
        (Variant(lx, px), Variant(ly, py)) => {
            let lc = lx.cmp(ly);
            if lc != Ordering::Equal {
                return lc;
            }
            plain_cmp(px, py)
        }
        (Set(xs), Set(ys)) => {
            for (x, y) in xs.iter().zip(ys.iter()) {
                let c = plain_cmp(x, y);
                if c != Ordering::Equal {
                    return c;
                }
            }
            xs.len().cmp(&ys.len())
        }
        _ => unreachable!("rank() already discriminated"),
    }
}

/// Structural equality, agreeing with `value_eq` on the extractable
/// subset.
pub fn plain_eq(a: &PlainValue, b: &PlainValue) -> bool {
    plain_cmp(a, b) == Ordering::Equal
}

impl PartialEq for PlainValue {
    fn eq(&self, other: &Self) -> bool {
        plain_eq(self, other)
    }
}
impl Eq for PlainValue {}

impl PartialOrd for PlainValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PlainValue {
    fn cmp(&self, other: &Self) -> Ordering {
        plain_cmp(self, other)
    }
}

/// Feed the structural hash of `p` into `state` — byte-for-byte the
/// encoding of [`hash_value`](crate::hash_value) on the extractable
/// subset, so keys computed in either lane land in the same group.
pub fn plain_hash<H: Hasher>(p: &PlainValue, state: &mut H) {
    match p {
        PlainValue::Unit => state.write_u8(0),
        PlainValue::Bool(b) => {
            state.write_u8(1);
            state.write_u8(u8::from(*b));
        }
        PlainValue::Int(n) => {
            state.write_u8(2);
            state.write_i64(*n);
        }
        PlainValue::Real(r) => {
            state.write_u8(3);
            state.write_u64(r.to_bits());
        }
        PlainValue::Str(s) => {
            state.write_u8(4);
            state.write(s.as_bytes());
            state.write_u8(0xff);
        }
        PlainValue::Record(entries) => {
            state.write_u8(5);
            state.write_usize(entries.len());
            for (l, fv) in entries.iter() {
                state.write_usize(l.id());
                plain_hash(fv, state);
            }
        }
        PlainValue::Variant(l, p) => {
            state.write_u8(6);
            state.write_usize(l.id());
            plain_hash(p, state);
        }
        PlainValue::Set(items) => {
            state.write_u8(7);
            state.write_usize(items.len());
            for item in items.iter() {
                plain_hash(item, state);
            }
        }
    }
}

/// Structural equality between a plain value and an `Rc`-lane value
/// **without extracting** — no allocation, agreeing with
/// `value_eq(from_plain(p), v)`: identity- or code-bearing values
/// (which have no plain form) compare unequal to everything plain.
/// This is what lets a sequential probe look up a plain index with its
/// borrowed `Rc`-lane key values directly.
pub fn plain_matches_value(p: &PlainValue, v: &Value) -> bool {
    match (p, v) {
        (PlainValue::Unit, Value::Unit) => true,
        (PlainValue::Bool(a), Value::Bool(b)) => a == b,
        (PlainValue::Int(a), Value::Int(b)) => a == b,
        // Bit equality = `total_cmp` equality, the value order's rule.
        (PlainValue::Real(a), Value::Real(b)) => a.to_bits() == b.to_bits(),
        (PlainValue::Str(a), Value::Str(b)) => **a == **b,
        (PlainValue::Record(ps), Value::Record(fs)) => {
            // Both sides are label-sorted.
            let fs = fs.entries();
            ps.len() == fs.len()
                && ps
                    .iter()
                    .zip(fs.iter())
                    .all(|((pl, pv), (fl, fv))| pl.id() == fl.id() && plain_matches_value(pv, fv))
        }
        (PlainValue::Variant(pl, pp), Value::Variant(vl, vp)) => {
            pl.id() == vl.id() && plain_matches_value(pp, vp)
        }
        (PlainValue::Set(ps), Value::Set(vs)) => {
            // Both sides are canonical (sorted, deduplicated).
            ps.len() == vs.len()
                && ps
                    .iter()
                    .zip(vs.iter())
                    .all(|(pv, vv)| plain_matches_value(pv, vv))
        }
        _ => false,
    }
}

// --- plain-keyed indexes ---------------------------------------------------

/// A composite join/index key in the plain lane: the extracted values
/// of a grouping's key expressions, in key order. Single keys — the
/// dominant equi-join shape — skip the vector, so extracting a probe
/// key allocates nothing beyond the plain value itself. Hashes via
/// [`plain_hash`] and compares via [`plain_eq`] (`One(v)` and
/// `Tuple([v])` are the same key), so a key computed on the `Rc` lane
/// and extracted with [`to_plain`] lands in exactly the group an
/// `Rc`-lane `KeyTuple` probe would find.
#[derive(Debug, Clone)]
pub enum PlainKey {
    One(PlainValue),
    Tuple(Vec<PlainValue>),
}

impl std::hash::Hash for PlainKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            PlainKey::One(v) => plain_hash(v, state),
            PlainKey::Tuple(vs) => {
                for v in vs {
                    plain_hash(v, state);
                }
            }
        }
    }
}

impl PartialEq for PlainKey {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (PlainKey::One(a), PlainKey::One(b)) => plain_eq(a, b),
            (PlainKey::Tuple(a), PlainKey::Tuple(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| plain_eq(x, y))
            }
            // Builders and probes agree on arity; kept total anyway
            // (and consistent with the arity-blind hash above).
            (PlainKey::One(a), PlainKey::Tuple(b)) | (PlainKey::Tuple(b), PlainKey::One(a)) => {
                b.len() == 1 && plain_eq(a, &b[0])
            }
        }
    }
}

impl Eq for PlainKey {}

/// The digest function of [`PlainIndex`]: an FxHash-style
/// multiply-rotate mix.
/// Index probes hash one key per probe row, squarely on the join hot
/// path — a keyed cryptographic hash (SipHash, the `HashMap` default)
/// costs more than the lookup itself for small keys. Keys reach the
/// table only through [`plain_hash`], whose word-sized writes this
/// hasher mixes one multiply each.
#[derive(Debug, Default, Clone)]
pub struct PlainKeyHasher(u64);

impl PlainKeyHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        // The Firefox/rustc "Fx" mix: rotate, xor, multiply by a
        // golden-ratio-derived odd constant.
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for PlainKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
    fn write_i64(&mut self, n: i64) {
        self.mix(n as u64);
    }
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// Pass-through hasher for digest-keyed maps: the key *is* a
/// high-quality digest already.
#[derive(Debug, Default, Clone)]
pub struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("digest maps hash via write_u64 only");
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// The digest of a plain key under [`PlainKeyHasher`].
pub fn plain_key_digest(key: &PlainKey) -> u64 {
    let mut h = PlainKeyHasher::default();
    std::hash::Hash::hash(key, &mut h);
    h.finish()
}

/// The digest of an `Rc`-lane key tuple under the same hasher —
/// [`crate::hash_value`] feeds the hasher byte-for-byte what
/// [`plain_hash`] feeds it (the cross-lane consistency contract above),
/// so a value-side probe lands in exactly the plain key's bucket. Like
/// [`PlainKey`]'s arity-blind hash, a 1-tuple digests as its single
/// component.
pub fn value_key_digest(key: &[Value]) -> u64 {
    let mut h = PlainKeyHasher::default();
    for v in key {
        crate::hash::hash_value(v, &mut h);
    }
    h.finish()
}

/// A **plain-keyed structural index**: a relation's rows grouped by key
/// value, in plain (`Send + Sync`) form, so a *cached* index can be
/// probed by parallel workers directly — the composition PR 3's store
/// and PR 4's parallel lane previously excluded.
///
/// `rows` is the plain snapshot of the indexed relation in canonical
/// (sorted-set) order — the index is self-contained on the plain lane:
/// a worker holding an `Arc<PlainIndex>` can inspect both groups and
/// row payloads without touching `Rc` data. Groups map each key to the
/// **indices** of its rows, ascending (= canonical source order, the
/// same order an inline `Rc`-lane build yields groups in); the executor
/// re-binds matches by index into the *original* `Rc`-lane relation on
/// the session thread, so no value ever needs converting back.
///
/// Internally groups are bucketed by **digest** with the (rare)
/// collisions chained, which gives the index two equally cheap probe
/// forms: [`PlainIndex::get`] for extracted plain keys (the parallel
/// workers) and [`PlainIndex::get_by_values`] for borrowed `Rc`-lane
/// key values (the sequential probe) — the latter compares via
/// [`plain_matches_value`] and never converts or allocates.
///
/// A `PlainIndex` exists only for relations whose every row extracts
/// via [`to_plain`]; relations carrying identity- or code-bearing data
/// stay on the `Rc`-lane index representation (sequential probes only).
/// Digest → the key groups sharing it (nearly always exactly one).
type DigestBuckets = std::collections::HashMap<
    u64,
    Vec<(PlainKey, Vec<u32>)>,
    std::hash::BuildHasherDefault<DigestHasher>,
>;

#[derive(Debug)]
pub struct PlainIndex {
    /// Plain snapshot of the relation, canonical set order.
    pub rows: Arc<[PlainValue]>,
    buckets: DigestBuckets,
    groups: usize,
}

impl PlainIndex {
    /// Assemble from a row snapshot and (key, ascending row indices)
    /// groups. Keys are expected distinct (they come from a `HashMap`
    /// keyed by structural equality).
    pub fn from_groups(
        rows: Arc<[PlainValue]>,
        groups: impl IntoIterator<Item = (PlainKey, Vec<u32>)>,
    ) -> PlainIndex {
        let groups = groups.into_iter();
        let mut buckets =
            DigestBuckets::with_capacity_and_hasher(groups.size_hint().0, Default::default());
        let mut n = 0usize;
        for (key, idxs) in groups {
            n += 1;
            buckets
                .entry(plain_key_digest(&key))
                .or_insert_with(|| Vec::with_capacity(1))
                .push((key, idxs));
        }
        PlainIndex {
            rows,
            buckets,
            groups: n,
        }
    }

    /// An empty index with **no row snapshot**, filled by
    /// [`PlainIndex::push`]: the query-local table of an uncached join.
    /// Such a table is never published to the shared tier, so nothing
    /// verifies against `rows`.
    pub fn with_capacity(groups: usize) -> PlainIndex {
        PlainIndex {
            rows: Arc::from([]),
            buckets: DigestBuckets::with_capacity_and_hasher(groups, Default::default()),
            groups: 0,
        }
    }

    /// Append row `idx` to `key`'s group. Callers push in ascending row
    /// order, so every group's list ascends like [`from_groups`]'.
    ///
    /// [`from_groups`]: PlainIndex::from_groups
    pub fn push(&mut self, key: PlainKey, idx: u32) {
        let bucket = self.buckets.entry(plain_key_digest(&key)).or_default();
        match bucket.iter_mut().find(|(k, _)| *k == key) {
            Some((_, idxs)) => idxs.push(idx),
            None => {
                bucket.push((key, vec![idx]));
                self.groups += 1;
            }
        }
    }

    /// The matching row indices for an extracted plain key (empty when
    /// absent).
    pub fn get(&self, key: &PlainKey) -> &[u32] {
        match self.buckets.get(&plain_key_digest(key)) {
            Some(bucket) => bucket
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, idxs)| idxs.as_slice())
                .unwrap_or(&[]),
            None => &[],
        }
    }

    /// The matching row indices for a borrowed `Rc`-lane key tuple,
    /// compared structurally without extraction (a key with no plain
    /// form — an identity-bearing `ref`/`dynamic` — can equal no plain
    /// key, so it simply finds nothing).
    pub fn get_by_values(&self, key: &[Value]) -> &[u32] {
        let matches = |k: &PlainKey| match (k, key) {
            (PlainKey::One(p), [v]) => plain_matches_value(p, v),
            (PlainKey::Tuple(ps), vs) => {
                ps.len() == vs.len()
                    && ps
                        .iter()
                        .zip(vs.iter())
                        .all(|(p, v)| plain_matches_value(p, v))
            }
            _ => false,
        };
        match self.buckets.get(&value_key_digest(key)) {
            Some(bucket) => bucket
                .iter()
                .find(|(k, _)| matches(k))
                .map(|(_, idxs)| idxs.as_slice())
                .unwrap_or(&[]),
            None => &[],
        }
    }

    /// Distinct key groups.
    pub fn group_count(&self) -> usize {
        self.groups
    }

    /// Total rows held across all groups.
    pub fn indexed_rows(&self) -> usize {
        self.buckets
            .values()
            .flat_map(|b| b.iter())
            .map(|(_, idxs)| idxs.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.groups == 0
    }
}

// The whole point of the plain representation: a cached index can be
// shared with worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PlainIndex>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{value_cmp, value_eq, RefValue};
    use std::collections::hash_map::DefaultHasher;

    fn digest_value(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        crate::hash::hash_value(v, &mut h);
        h.finish()
    }

    fn digest_plain(p: &PlainValue) -> u64 {
        let mut h = DefaultHasher::new();
        plain_hash(p, &mut h);
        h.finish()
    }

    fn sample() -> Value {
        Value::record([
            ("Name".into(), Value::str("Joe")),
            ("Tags".into(), Value::set([Value::Int(2), Value::Int(1)])),
            (
                "Role".into(),
                Value::variant("Employee", Value::record([("Ext".into(), Value::Int(42))])),
            ),
            ("Rate".into(), Value::Real(1.5)),
            ("Active".into(), Value::Bool(true)),
            ("U".into(), Value::Unit),
        ])
    }

    #[test]
    fn round_trip_preserves_structure() {
        let v = sample();
        let p = to_plain(&v).expect("pure data extracts");
        assert!(value_eq(&from_plain(&p), &v));
    }

    #[test]
    fn hash_agrees_across_lanes() {
        let v = sample();
        let p = to_plain(&v).unwrap();
        assert_eq!(digest_value(&v), digest_plain(&p));
    }

    #[test]
    fn cmp_agrees_across_lanes() {
        let vals = [
            Value::Int(1),
            Value::Int(2),
            Value::str("a"),
            Value::Bool(false),
            Value::set([Value::Int(3)]),
            sample(),
        ];
        for a in &vals {
            for b in &vals {
                let (pa, pb) = (to_plain(a).unwrap(), to_plain(b).unwrap());
                assert_eq!(plain_cmp(&pa, &pb), value_cmp(a, b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn identity_and_code_values_do_not_extract() {
        assert!(to_plain(&Value::Ref(RefValue::new(Value::Int(1)))).is_none());
        assert!(to_plain(&Value::Builtin(crate::value::Builtin::Not)).is_none());
        // A ref buried inside a record poisons the whole extraction.
        let buried = Value::record([("R".into(), Value::Ref(RefValue::new(Value::Unit)))]);
        assert!(to_plain(&buried).is_none());
        assert!(!plain_matches_value(&PlainValue::Unit, &buried));
    }

    #[test]
    fn real_edge_cases_round_trip() {
        for r in [f64::NAN, -0.0, f64::INFINITY] {
            let v = Value::Real(r);
            let p = to_plain(&v).unwrap();
            assert!(value_eq(&from_plain(&p), &v));
            assert_eq!(digest_value(&v), digest_plain(&p));
        }
    }

    #[test]
    fn plain_keys_agree_with_value_keys() {
        // Two keys that are value-equal must be plain-key-equal and
        // hash identically (the cross-lane probe soundness direction) —
        // and a single key must equal its 1-tuple form, since builders
        // use `One` and defensive callers may probe with `Tuple`.
        let a = PlainKey::Tuple(vec![
            to_plain(&Value::Int(3)).unwrap(),
            to_plain(&sample()).unwrap(),
        ]);
        let b = PlainKey::Tuple(vec![
            to_plain(&Value::Int(3)).unwrap(),
            to_plain(&sample()).unwrap(),
        ]);
        assert_eq!(a, b);
        let digest = |k: &PlainKey| {
            let mut h = PlainKeyHasher::default();
            std::hash::Hash::hash(k, &mut h);
            h.finish()
        };
        assert_eq!(digest(&a), digest(&b));
        let one = PlainKey::One(to_plain(&Value::Int(4)).unwrap());
        let tup = PlainKey::Tuple(vec![to_plain(&Value::Int(4)).unwrap()]);
        assert_eq!(one, tup);
        assert_eq!(digest(&one), digest(&tup));
        assert_ne!(a, one);
    }

    #[test]
    fn plain_index_groups_and_rows() {
        let rows: Vec<PlainValue> = (0..4).map(|i| to_plain(&Value::Int(i)).unwrap()).collect();
        let idx = PlainIndex::from_groups(
            rows.into(),
            [
                (PlainKey::One(PlainValue::Int(0)), vec![0u32, 2]),
                (PlainKey::One(PlainValue::Int(1)), vec![1u32, 3]),
            ],
        );
        assert_eq!(idx.indexed_rows(), 4);
        assert_eq!(idx.group_count(), 2);
        assert_eq!(idx.get(&PlainKey::One(PlainValue::Int(0))), &[0, 2]);
        assert_eq!(idx.get(&PlainKey::One(PlainValue::Int(9))), &[] as &[u32]);
        assert!(!idx.is_empty());
        // The borrowed value-side probe agrees with the plain probe —
        // including for keys with no plain form (a ref equals nothing).
        assert_eq!(idx.get_by_values(&[Value::Int(0)]), &[0, 2]);
        assert_eq!(idx.get_by_values(&[Value::Int(9)]), &[] as &[u32]);
        let r = Value::Ref(RefValue::new(Value::Int(0)));
        assert_eq!(idx.get_by_values(&[r]), &[] as &[u32]);
        // Pushing row by row builds the same groups.
        let mut pushed = PlainIndex::with_capacity(2);
        for i in 0..4u32 {
            pushed.push(PlainKey::One(PlainValue::Int(i64::from(i % 2))), i);
        }
        assert_eq!((pushed.group_count(), pushed.indexed_rows()), (2, 4));
        assert_eq!(pushed.get(&PlainKey::One(PlainValue::Int(0))), &[0, 2]);
        assert_eq!(pushed.get_by_values(&[Value::Int(1)]), &[1, 3]);
    }

    #[test]
    fn plain_matches_value_agrees_without_extraction() {
        let v = sample();
        let p = to_plain(&v).unwrap();
        assert!(plain_matches_value(&p, &v));
        // Differing nested field: no match.
        let other = Value::record([("Name".into(), Value::str("Sue"))]);
        assert!(!plain_matches_value(&p, &other));
        // Reals compare by bit pattern (total order), NaN included.
        let nan = Value::Real(f64::NAN);
        assert!(plain_matches_value(&to_plain(&nan).unwrap(), &nan));
        assert!(!plain_matches_value(
            &to_plain(&Value::Real(0.0)).unwrap(),
            &Value::Real(-0.0)
        ));
    }
}
