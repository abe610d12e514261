//! The runtime value representation.
//!
//! Description values (§2 of the paper) carry a *total order* so sets can
//! be kept canonical (sorted, deduplicated): equality of sets is then
//! plain structural equality, matching the paper's mathematical sets.
//!
//! * records — [`Fields`]: label-sorted slices of interned [`Symbol`]
//!   labels, so field access is a scan/binary-search over pointer-identity
//!   ids and record comparison hits the identity fast path on equal labels;
//! * variants — a label plus payload;
//! * sets — [`crate::set::MSet`], always canonical;
//! * references — a mutable cell plus a session-unique id; equality and
//!   order are *identity* (`ref(3) = ref(3)` is `false`, per §5);
//! * dynamics — a value packaged with its runtime type; compared by the
//!   identity of the `dynamic` invocation that created them (§5).
//!
//! Containers (`Fields`, strings, set storage) sit behind `Rc`, so
//! cloning a value — environment lookup, row materialization in joins —
//! is a reference-count bump, not a deep copy.

use crate::set::MSet;
use machiavelli_syntax::ast::{BinOp, Expr};
pub use machiavelli_syntax::symbol::{tuple_label, Symbol};
use machiavelli_types::Ty;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Record/variant labels (interned).
pub type Label = Symbol;

/// Session-unique identity supply for references and dynamics.
static NEXT_IDENTITY: AtomicU64 = AtomicU64::new(1);

fn fresh_identity() -> u64 {
    NEXT_IDENTITY.fetch_add(1, AtomicOrdering::Relaxed)
}

/// A mutable reference cell with object identity. The cell is private
/// to this crate, so every write goes through [`RefValue::set`].
#[derive(Debug, Clone)]
pub struct RefValue {
    pub id: u64,
    pub(crate) cell: Rc<RefCell<Value>>,
}

impl RefValue {
    /// Allocate a fresh reference (fresh identity).
    pub fn new(v: Value) -> Self {
        RefValue {
            id: fresh_identity(),
            cell: Rc::new(RefCell::new(v)),
        }
    }

    /// Read the current contents (cloned).
    pub fn get(&self) -> Value {
        self.cell.borrow().clone()
    }

    /// Overwrite the contents, recording the written identity in
    /// `sink`. Every write funnels through here and must name where it
    /// is recorded: the evaluator's `:=` records into its session's
    /// dirty-set pair, so the session's index store can never serve a
    /// snapshot computed before this write (and keeps every entry the
    /// write cannot reach) and its log carries the write at the next
    /// commit; decoding an already-durable write into a live session
    /// records into the store set alone; filling a cell nobody else
    /// holds yet records nowhere ([`crate::epoch::Unobserved`]).
    pub fn set(&self, v: Value, sink: &impl crate::epoch::WriteSink) {
        *self.cell.borrow_mut() = v;
        sink.note_ref_write(self.id);
    }
}

/// A dynamic value: payload + its description type, with creation
/// identity (two dynamics are equal only if created by the same
/// `dynamic(…)` invocation).
#[derive(Debug, Clone)]
pub struct DynValue {
    pub id: u64,
    pub value: Rc<Value>,
    /// The runtime type recorded at creation, when known.
    pub ty: Option<Ty>,
}

impl DynValue {
    pub fn new(v: Value, ty: Option<Ty>) -> Self {
        DynValue {
            id: fresh_identity(),
            value: Rc::new(v),
            ty,
        }
    }
}

/// A function closure: parameters, body, captured environment.
#[derive(Debug)]
pub struct Closure {
    pub params: Vec<Symbol>,
    pub body: Expr,
    pub env: Env,
    /// For recursive closures (`fun` / `rec`): the closure's own name,
    /// rebound to itself at application time.
    pub rec_name: Option<Symbol>,
}

/// Builtin function values (identifiers in the initial environment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `union : ({"a} * {"a}) -> {"a}` as a first-class value.
    Union,
    /// `not : bool -> bool`.
    Not,
    /// `applyc(f, x)` — §6's coercion application: statically the
    /// argument may be any description ≥ the domain; dynamically the
    /// application is ordinary (field access is structural).
    ApplyC,
}

// --- record fields --------------------------------------------------------

/// The fields of a record value: `(label, value)` entries sorted by the
/// canonical (string) label order, behind an `Rc` so clones are O(1).
///
/// Lookup by [`Symbol`] scans/binary-searches by interned-label identity;
/// lookup by `&str` binary-searches the (string-sorted) labels. The
/// entry list is immutable — "mutation" (`insert`/`remove`) rebuilds,
/// which matches the paper's pure `modify`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Fields {
    entries: Rc<[(Symbol, Value)]>,
}

/// Lookup keys for [`Fields`]: symbols (fast id compare) or plain
/// strings (order-based search).
pub trait FieldKey {
    fn find_in(&self, entries: &[(Symbol, Value)]) -> Option<usize>;
}

impl FieldKey for Symbol {
    fn find_in(&self, entries: &[(Symbol, Value)]) -> Option<usize> {
        // Records are narrow; a linear id scan beats binary search with
        // its string-compare fallback until surprisingly wide rows.
        if entries.len() <= 12 {
            entries.iter().position(|(l, _)| l.id() == self.id())
        } else {
            entries.binary_search_by(|(l, _)| l.cmp(self)).ok()
        }
    }
}

impl FieldKey for &Symbol {
    fn find_in(&self, entries: &[(Symbol, Value)]) -> Option<usize> {
        (**self).find_in(entries)
    }
}

impl FieldKey for &str {
    fn find_in(&self, entries: &[(Symbol, Value)]) -> Option<usize> {
        entries.binary_search_by(|(l, _)| l.as_str().cmp(self)).ok()
    }
}

impl FieldKey for &String {
    fn find_in(&self, entries: &[(Symbol, Value)]) -> Option<usize> {
        self.as_str().find_in(entries)
    }
}

impl Fields {
    /// The empty field list.
    pub fn new() -> Fields {
        Fields::default()
    }

    /// Build from unsorted `(label, value)` pairs; on duplicate labels
    /// the *last* value wins (`BTreeMap`-collect semantics).
    pub fn from_vec(mut entries: Vec<(Symbol, Value)>) -> Fields {
        entries.sort_by_key(|(a, _)| *a);
        // Keep the last of each run of equal labels.
        let mut out: Vec<(Symbol, Value)> = Vec::with_capacity(entries.len());
        for (l, v) in entries {
            match out.last_mut() {
                Some((pl, pv)) if pl.id() == l.id() => *pv = v,
                _ => out.push((l, v)),
            }
        }
        Fields {
            entries: out.into(),
        }
    }

    /// Wrap entries already sorted by label (checked in debug builds).
    pub fn from_sorted_vec(entries: Vec<(Symbol, Value)>) -> Fields {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        Fields {
            entries: entries.into(),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The sorted `(label, value)` entries.
    pub fn entries(&self) -> &[(Symbol, Value)] {
        &self.entries
    }

    pub fn get(&self, key: impl FieldKey) -> Option<&Value> {
        key.find_in(&self.entries).map(|i| &self.entries[i].1)
    }

    pub fn contains_key(&self, key: impl FieldKey) -> bool {
        key.find_in(&self.entries).is_some()
    }

    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Symbol, &Value)> + Clone {
        self.entries.iter().map(|(l, v)| (l, v))
    }

    pub fn keys(&self) -> impl ExactSizeIterator<Item = &Symbol> + Clone {
        self.entries.iter().map(|(l, _)| l)
    }

    pub fn values(&self) -> impl ExactSizeIterator<Item = &Value> + Clone {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Insert/overwrite a field, rebuilding the entry list (records are
    /// immutable values; this is the pure-update primitive).
    pub fn insert(&mut self, label: Symbol, value: Value) -> Option<Value> {
        let mut entries: Vec<(Symbol, Value)> = self.entries.to_vec();
        match entries.binary_search_by(|(l, _)| l.cmp(&label)) {
            Ok(i) => {
                let old = std::mem::replace(&mut entries[i].1, value);
                self.entries = entries.into();
                Some(old)
            }
            Err(i) => {
                entries.insert(i, (label, value));
                self.entries = entries.into();
                None
            }
        }
    }

    /// Remove a field, rebuilding the entry list.
    pub fn remove(&mut self, key: impl FieldKey) -> Option<Value> {
        let i = key.find_in(&self.entries)?;
        let mut entries: Vec<(Symbol, Value)> = self.entries.to_vec();
        let (_, v) = entries.remove(i);
        self.entries = entries.into();
        Some(v)
    }

    /// When the record is an n-tuple (`#1 … #n`), its items in index
    /// order.
    pub fn tuple_items(&self) -> Option<Vec<&Value>> {
        if self.is_empty() {
            return None;
        }
        let n = self.len();
        let mut out: Vec<Option<&Value>> = vec![None; n];
        for (l, v) in self.iter() {
            let s = l.as_str();
            let idx: usize = s.strip_prefix('#')?.parse().ok()?;
            if !(1..=n).contains(&idx) || out[idx - 1].is_some() {
                return None;
            }
            out[idx - 1] = Some(v);
        }
        out.into_iter().collect()
    }
}

impl FromIterator<(Symbol, Value)> for Fields {
    fn from_iter<T: IntoIterator<Item = (Symbol, Value)>>(iter: T) -> Fields {
        Fields::from_vec(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Fields {
    type Item = (&'a Symbol, &'a Value);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (Symbol, Value)>,
        fn(&'a (Symbol, Value)) -> (&'a Symbol, &'a Value),
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(l, v)| (l, v))
    }
}

impl<K: FieldKey> std::ops::Index<K> for Fields {
    type Output = Value;
    fn index(&self, key: K) -> &Value {
        self.get(key).expect("no such record field")
    }
}

/// A Machiavelli runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    Unit,
    Int(i64),
    Real(f64),
    Str(Rc<str>),
    Bool(bool),
    Record(Fields),
    Variant(Label, Box<Value>),
    Set(MSet),
    Ref(RefValue),
    Dynamic(DynValue),
    Closure(Rc<Closure>),
    /// A first-class infix operator (`hom(f, +, 0, S)`).
    Op(BinOp),
    Builtin(Builtin),
}

impl Value {
    pub fn record(fields: impl IntoIterator<Item = (Label, Value)>) -> Value {
        Value::Record(fields.into_iter().collect())
    }

    pub fn variant(label: impl Into<Label>, payload: Value) -> Value {
        Value::Variant(label.into(), Box::new(payload))
    }

    pub fn set(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Set(MSet::from_iter(items))
    }

    pub fn str(s: impl Into<Rc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// An n-ary tuple (record with `#1`, … labels).
    pub fn tuple(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Record(
            items
                .into_iter()
                .enumerate()
                .map(|(i, v)| (tuple_label(i + 1), v))
                .collect(),
        )
    }

    /// True for values on which equality (and set membership) is defined.
    pub fn is_description(&self) -> bool {
        match self {
            Value::Unit
            | Value::Int(_)
            | Value::Real(_)
            | Value::Str(_)
            | Value::Bool(_)
            | Value::Ref(_)
            | Value::Dynamic(_) => true,
            Value::Record(fs) => fs.values().all(Value::is_description),
            Value::Variant(_, p) => p.is_description(),
            Value::Set(s) => s.iter().all(Value::is_description),
            Value::Closure(_) | Value::Op(_) | Value::Builtin(_) => false,
        }
    }

    /// Constructor rank for the total order.
    fn rank(&self) -> u8 {
        match self {
            Value::Unit => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Real(_) => 3,
            Value::Str(_) => 4,
            Value::Record(_) => 5,
            Value::Variant(..) => 6,
            Value::Set(_) => 7,
            Value::Ref(_) => 8,
            Value::Dynamic(_) => 9,
            Value::Closure(_) => 10,
            Value::Op(_) => 11,
            Value::Builtin(_) => 12,
        }
    }
}

/// Total order over all values. Description values order structurally
/// (reals via IEEE `total_cmp`; refs and dynamics by identity); function
/// values order by address/opcode so the order stays total — the type
/// system keeps them out of sets.
pub fn value_cmp(a: &Value, b: &Value) -> Ordering {
    use Value::*;
    let rank_cmp = a.rank().cmp(&b.rank());
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
            // Entries are label-sorted, so this lexicographic walk is
            // label-wise; equal labels compare as a pointer-identity check.
            let xs = xs.entries();
            let ys = ys.entries();
            for ((lx, vx), (ly, vy)) in xs.iter().zip(ys) {
                let lc = lx.cmp(ly);
                if lc != Ordering::Equal {
                    return lc;
                }
                let vc = value_cmp(vx, vy);
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
            value_cmp(px, py)
        }
        (Set(xs), Set(ys)) => {
            for (x, y) in xs.iter().zip(ys.iter()) {
                let c = value_cmp(x, y);
                if c != Ordering::Equal {
                    return c;
                }
            }
            xs.len().cmp(&ys.len())
        }
        (Ref(x), Ref(y)) => x.id.cmp(&y.id),
        (Dynamic(x), Dynamic(y)) => x.id.cmp(&y.id),
        (Closure(x), Closure(y)) => (Rc::as_ptr(x) as usize).cmp(&(Rc::as_ptr(y) as usize)),
        (Op(x), Op(y)) => (*x as u8).cmp(&(*y as u8)),
        (Builtin(x), Builtin(y)) => (*x as u8).cmp(&(*y as u8)),
        _ => unreachable!("rank() already discriminated"),
    }
}

/// Structural equality (identity for refs, dynamics, closures).
pub fn value_eq(a: &Value, b: &Value) -> bool {
    value_cmp(a, b) == Ordering::Equal
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        value_eq(self, other)
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        value_cmp(self, other)
    }
}

// --- reference reachability -------------------------------------------------

/// The reference cells reachable from a value, collected by
/// [`scan_refs`]: the identities of every `ref` a future write could
/// target, plus an `opaque` flag for values whose reachability cannot
/// be traced (closures capture whole environments — walking them would
/// drag in the entire session, so a closure-bearing value is simply
/// marked "could reach anything").
///
/// This is the *dependency record* of the index store's fine-grained
/// invalidation: an entry built over a relation remembers the refs its
/// rows can reach, and a later [`RefValue::set`] evicts only entries
/// whose record contains the written identity.
#[derive(Debug, Default)]
pub struct RefScan {
    ids: std::collections::HashSet<u64>,
    /// A closure (or other untraceable value) was encountered: callers
    /// must treat every write as potentially reaching this value.
    pub opaque: bool,
}

impl RefScan {
    /// The collected identities, sorted (ready for
    /// [`crate::epoch::DirtyRefs::intersects`]).
    pub fn into_sorted_ids(self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.ids.into_iter().collect();
        ids.sort_unstable();
        ids
    }
}

/// Collect the identities of every reference cell reachable from `v`
/// into `scan`, descending through records, variants, sets, dynamics
/// and the *contents* of refs themselves (cycle-safe: a ref already
/// collected is not re-entered). New reachability can only appear via a
/// write to an already-reachable ref, and that write itself dirties the
/// entry — so a scan taken at build time stays sound for the entry's
/// whole life.
pub fn scan_refs(v: &Value, scan: &mut RefScan) {
    match v {
        Value::Unit
        | Value::Int(_)
        | Value::Real(_)
        | Value::Str(_)
        | Value::Bool(_)
        | Value::Op(_)
        | Value::Builtin(_) => {}
        Value::Record(fs) => {
            for fv in fs.values() {
                scan_refs(fv, scan);
            }
        }
        Value::Variant(_, p) => scan_refs(p, scan),
        Value::Set(items) => {
            for item in items.iter() {
                scan_refs(item, scan);
            }
        }
        Value::Ref(r) => {
            if scan.ids.insert(r.id) {
                scan_refs(&r.cell.borrow(), scan);
            }
        }
        // Dynamics have an immutable payload but the payload can hold
        // refs whose *contents* mutate — descend.
        Value::Dynamic(d) => scan_refs(&d.value, scan),
        // A closure's captured environment is the whole enclosing
        // scope; tracing it is not worth the walk. Opaque: reachable-
        // by-anything.
        Value::Closure(_) => scan.opaque = true,
    }
}

// --- environments --------------------------------------------------------

/// A persistent (shared-tail) evaluation environment, keyed by interned
/// symbols: lookup walks the spine comparing interned-pointer ids, and the returned
/// clone is cheap (values share their backing storage via `Rc`).
///
/// Inner scopes (`let`, lambda parameters, generators, case arms)
/// [`bind`](Env::bind), stacking a node over whatever they shadow. A
/// session's top level [`rebind`](Env::rebind)s instead: the new node
/// goes on the head and the shadowed node leaves *this* spine (the
/// nodes above it are path-copied), so the top-level spine holds one
/// node per distinct name however many phrases a session runs. A
/// closure that captured the old spine keeps it, and with it the old
/// value.
///
/// Dropping an environment is iterative: a long spine, or a long chain
/// of closures each capturing the previous one, never recurses.
#[derive(Debug, Clone, Default)]
pub struct Env {
    head: Option<Rc<EnvNode>>,
}

#[derive(Debug)]
struct EnvNode {
    name: Symbol,
    value: Value,
    next: Option<Rc<EnvNode>>,
}

impl Env {
    pub fn new() -> Env {
        Env::default()
    }

    /// Extend with a binding, returning the new environment (the original
    /// is untouched — closures capture cheaply).
    pub fn bind(&self, name: impl Into<Symbol>, value: Value) -> Env {
        Env {
            head: Some(Rc::new(EnvNode {
                name: name.into(),
                value,
                next: self.head.clone(),
            })),
        }
    }

    /// Like [`Env::bind`], but the innermost binding of `name` leaves the
    /// returned spine: the nodes above it are copied onto its tail, and
    /// the new binding goes on the head. Every lookup answers exactly as
    /// `bind`'s result would; the original environment is untouched.
    pub fn rebind(&self, name: impl Into<Symbol>, value: Value) -> Env {
        let name = name.into();
        let mut above: Vec<&EnvNode> = Vec::new();
        let mut cur = self.head.as_deref();
        while let Some(node) = cur {
            if node.name.id() == name.id() {
                let mut rest = node.next.clone();
                for copy in above.iter().rev() {
                    rest = Some(Rc::new(EnvNode {
                        name: copy.name,
                        value: copy.value.clone(),
                        next: rest,
                    }));
                }
                return Env {
                    head: Some(Rc::new(EnvNode {
                        name,
                        value,
                        next: rest,
                    })),
                };
            }
            above.push(node);
            cur = node.next.as_deref();
        }
        self.bind(name, value)
    }

    /// The number of nodes on the spine, shadowed bindings included.
    pub fn depth(&self) -> usize {
        std::iter::successors(self.head.as_deref(), |n| n.next.as_deref()).count()
    }

    /// Look up a name (innermost binding wins). The clone on return is
    /// O(1) for containers (shared representation).
    pub fn lookup(&self, name: impl Into<Symbol>) -> Option<Value> {
        self.with_lookup(name, Value::clone)
    }

    /// Run `f` on the bound value without cloning it (the truly
    /// zero-cost read for callers that only need a look).
    pub fn with_lookup<R>(
        &self,
        name: impl Into<Symbol>,
        f: impl FnOnce(&Value) -> R,
    ) -> Option<R> {
        let id = name.into().id();
        let mut cur = self.head.as_ref();
        while let Some(node) = cur {
            if node.name.id() == id {
                return Some(f(&node.value));
            }
            cur = node.next.as_ref();
        }
        None
    }
}

impl Drop for Env {
    /// Unlink uniquely owned nodes one at a time — following each
    /// node's tail and, when its value is a uniquely owned closure, that
    /// closure's captured spine — so no drop recurses down a chain.
    fn drop(&mut self) {
        let mut pending: Vec<Rc<EnvNode>> = Vec::new();
        let mut cur = self.head.take();
        while let Some(mut rc) = cur.take().or_else(|| pending.pop()) {
            let Some(node) = Rc::get_mut(&mut rc) else {
                continue;
            };
            cur = node.next.take();
            if let Value::Closure(closure) = &mut node.value {
                if let Some(closure) = Rc::get_mut(closure) {
                    pending.extend(closure.env.head.take());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_identity_equality() {
        let a = Value::Ref(RefValue::new(Value::Int(3)));
        let b = Value::Ref(RefValue::new(Value::Int(3)));
        assert_ne!(a, b, "ref(3) = ref(3) must be false (object identity)");
        assert_eq!(a, a.clone());
    }

    #[test]
    fn ref_mutation_shared() {
        let r = RefValue::new(Value::Int(1));
        let alias = Value::Ref(r.clone());
        r.set(Value::Int(2), &crate::epoch::Unobserved);
        let Value::Ref(r2) = &alias else { panic!() };
        assert_eq!(r2.get(), Value::Int(2));
    }

    #[test]
    fn dynamic_identity() {
        let a = Value::Dynamic(DynValue::new(Value::Int(3), None));
        let b = Value::Dynamic(DynValue::new(Value::Int(3), None));
        assert_ne!(a, b);
    }

    #[test]
    fn scan_refs_collects_reachable_identities() {
        let inner = RefValue::new(Value::Int(1));
        let outer = RefValue::new(Value::record([("In".into(), Value::Ref(inner.clone()))]));
        let row = Value::record([
            ("D".into(), Value::Ref(outer.clone())),
            ("N".into(), Value::Int(7)),
        ]);
        let mut scan = RefScan::default();
        scan_refs(&row, &mut scan);
        assert!(!scan.opaque);
        let ids = scan.into_sorted_ids();
        assert!(
            ids.contains(&outer.id) && ids.contains(&inner.id),
            "{ids:?}"
        );
        // Plain data reaches nothing.
        let mut scan = RefScan::default();
        scan_refs(&Value::set([Value::Int(1), Value::Int(2)]), &mut scan);
        assert!(scan.into_sorted_ids().is_empty());
    }

    #[test]
    fn scan_refs_survives_cycles_and_flags_closures() {
        // Build a reference cycle: r -> record -> r.
        let r = RefValue::new(Value::Unit);
        r.set(
            Value::record([("Me".into(), Value::Ref(r.clone()))]),
            &crate::epoch::Unobserved,
        );
        let mut scan = RefScan::default();
        scan_refs(&Value::Ref(r.clone()), &mut scan);
        assert_eq!(scan.into_sorted_ids(), vec![r.id]);
        // Closures are opaque.
        let mut scan = RefScan::default();
        scan_refs(
            &Value::Closure(Rc::new(Closure {
                params: vec![],
                body: machiavelli_syntax::parse_expr("1").unwrap(),
                env: Env::new(),
                rec_name: None,
            })),
            &mut scan,
        );
        assert!(scan.opaque);
    }

    #[test]
    fn record_equality_ignores_insertion_order() {
        let a = Value::record([("B".into(), Value::Int(2)), ("A".into(), Value::Int(1))]);
        let b = Value::record([("A".into(), Value::Int(1)), ("B".into(), Value::Int(2))]);
        assert_eq!(a, b);
    }

    #[test]
    fn fields_lookup_by_symbol_and_str() {
        let Value::Record(fs) =
            Value::record([("A".into(), Value::Int(1)), ("B".into(), Value::Int(2))])
        else {
            panic!()
        };
        assert_eq!(fs.get(Symbol::intern("A")), Some(&Value::Int(1)));
        assert_eq!(fs.get("B"), Some(&Value::Int(2)));
        assert_eq!(fs.get("C"), None);
        assert_eq!(fs["A"], Value::Int(1));
        assert!(fs.contains_key("B"));
    }

    #[test]
    fn fields_last_duplicate_wins() {
        let f = Fields::from_vec(vec![
            (Symbol::intern("A"), Value::Int(1)),
            (Symbol::intern("A"), Value::Int(2)),
        ]);
        assert_eq!(f.len(), 1);
        assert_eq!(f.get("A"), Some(&Value::Int(2)));
    }

    #[test]
    fn fields_insert_remove() {
        let mut f = Fields::from_vec(vec![(Symbol::intern("A"), Value::Int(1))]);
        assert_eq!(f.insert(Symbol::intern("B"), Value::Int(2)), None);
        assert_eq!(
            f.insert(Symbol::intern("A"), Value::Int(9)),
            Some(Value::Int(1))
        );
        assert_eq!(f.len(), 2);
        assert_eq!(f.remove("A"), Some(Value::Int(9)));
        assert_eq!(f.remove("A"), None);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn fields_clone_is_shallow() {
        let Value::Record(fs) = Value::record([("A".into(), Value::Int(1))]) else {
            panic!()
        };
        let copy = fs.clone();
        assert!(std::ptr::eq(fs.entries().as_ptr(), copy.entries().as_ptr()));
    }

    #[test]
    fn tuple_detection() {
        let Value::Record(fs) = Value::tuple([Value::Int(1), Value::Int(2)]) else {
            panic!()
        };
        let items = fs.tuple_items().unwrap();
        assert_eq!(items, vec![&Value::Int(1), &Value::Int(2)]);
        let Value::Record(not) = Value::record([("A".into(), Value::Int(1))]) else {
            panic!()
        };
        assert!(not.tuple_items().is_none());
    }

    #[test]
    fn wide_tuples_order_numerically() {
        let vals: Vec<Value> = (0..12).map(Value::Int).collect();
        let Value::Record(fs) = Value::tuple(vals) else {
            panic!()
        };
        let items = fs.tuple_items().unwrap();
        assert_eq!(items[9], &Value::Int(9));
        assert_eq!(items[11], &Value::Int(11));
    }

    #[test]
    fn total_order_across_constructors() {
        let mut vals = [
            Value::str("z"),
            Value::Int(0),
            Value::Unit,
            Value::Bool(true),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Unit);
        assert!(matches!(vals[3], Value::Str(_)));
    }

    #[test]
    fn real_total_cmp_handles_nan() {
        let a = Value::Real(f64::NAN);
        let b = Value::Real(1.0);
        // No panic, deterministic order.
        let _ = value_cmp(&a, &b);
        assert_eq!(value_cmp(&a, &a.clone()), Ordering::Equal);
    }

    #[test]
    fn record_order_is_label_then_value() {
        let ab = Value::record([("A".into(), Value::Int(1)), ("B".into(), Value::Int(2))]);
        let ac = Value::record([("A".into(), Value::Int(1)), ("C".into(), Value::Int(0))]);
        let a = Value::record([("A".into(), Value::Int(1))]);
        assert_eq!(value_cmp(&ab, &ac), Ordering::Less);
        assert_eq!(value_cmp(&a, &ab), Ordering::Less, "prefix orders first");
    }

    #[test]
    fn env_shadowing_and_sharing() {
        let base = Env::new().bind("x", Value::Int(1));
        let inner = base.bind("x", Value::Int(2));
        assert_eq!(base.lookup("x"), Some(Value::Int(1)));
        assert_eq!(inner.lookup("x"), Some(Value::Int(2)));
        assert_eq!(inner.lookup("y"), None);
    }

    #[test]
    fn env_rebind_drops_the_shadowed_node_only_from_its_own_spine() {
        let base = Env::new()
            .bind("a", Value::Int(1))
            .bind("x", Value::Int(2))
            .bind("b", Value::Int(3));
        let rebound = base.rebind("x", Value::Int(20));
        assert_eq!(rebound.depth(), 3, "x replaced, not stacked");
        for (name, want) in [("a", 1), ("x", 20), ("b", 3)] {
            assert_eq!(rebound.lookup(name), Some(Value::Int(want)), "{name}");
        }
        // The original spine, as a closure would have captured it, is
        // untouched.
        assert_eq!(base.depth(), 3);
        assert_eq!(base.lookup("x"), Some(Value::Int(2)));
        // A name not yet bound is an ordinary bind.
        assert_eq!(rebound.rebind("y", Value::Unit).depth(), 4);
        // Repeated rebinding at the head stays flat.
        let mut env = rebound;
        for i in 0..100 {
            env = env.rebind("it", Value::Int(i));
        }
        assert_eq!(env.depth(), 4);
        assert_eq!(env.lookup("it"), Some(Value::Int(99)));
    }

    #[test]
    fn dropping_deep_environments_does_not_recurse() {
        // 256 KiB of stack: a recursive drop of either chain overflows it.
        let dropper = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let mut spine = Env::new();
                for i in 0..1_000_000 {
                    spine = spine.bind("it", Value::Int(i));
                }
                assert_eq!(spine.depth(), 1_000_000);
                // Each `f` captures the spine that holds the previous `f`,
                // as `fun f(x) = …;` redefined at the top level does.
                let body = machiavelli_syntax::parse_expr("x").unwrap();
                let mut chain = Env::new();
                for _ in 0..100_000 {
                    let f = Value::Closure(Rc::new(Closure {
                        params: vec![Symbol::intern("x")],
                        body: body.clone(),
                        env: chain.clone(),
                        rec_name: Some(Symbol::intern("f")),
                    }));
                    chain = Env::new().bind("f", f);
                }
                drop(spine);
                drop(chain);
            })
            .unwrap();
        dropper
            .join()
            .expect("dropping a deep environment overflowed");
    }

    #[test]
    fn env_with_lookup_borrows() {
        let env = Env::new().bind("r", Value::record([("A".into(), Value::Int(7))]));
        let got = env.with_lookup("r", |v| matches!(v, Value::Record(_)));
        assert_eq!(got, Some(true));
    }

    #[test]
    fn is_description() {
        assert!(Value::record([("A".into(), Value::Int(1))]).is_description());
        assert!(Value::Ref(RefValue::new(Value::Unit)).is_description());
        assert!(!Value::Op(BinOp::Add).is_description());
    }
}
