//! Canonical mathematical sets.
//!
//! The paper is explicit that *"Machiavelli's sets are sets in the
//! mathematical sense of the term"* — not bags or lists. [`MSet`] keeps
//! its elements sorted (by the total value order) and deduplicated, so
//! structural equality of the representation *is* set equality.
//!
//! # Complexity contract
//!
//! | operation | cost |
//! |---|---|
//! | [`MSet::from_iter`] (bulk construction) | O(n log n) |
//! | [`MSet::contains`] | O(log n) |
//! | [`MSet::insert`] (single element) | O(n) — shifts the tail |
//! | [`MSet::extend`] (bulk merge) | O(m log m + n + m) |
//! | [`MSet::union`] / [`intersect`](MSet::intersect) / [`difference`](MSet::difference) | O(n + m) merge |
//! | `clone` | O(1) — storage is shared via `Rc` |
//!
//! Prefer [`MSet::from_iter`] or [`MSet::extend`] over per-element
//! [`MSet::insert`] in loops: k inserts cost O(k·n) element moves, the
//! bulk paths cost one sort plus one merge. Storage sits behind an `Rc`
//! (copy-on-write on mutation), so cloning a set — environment lookup,
//! binding a relation — never copies elements.

use crate::value::{value_cmp, Value};
use std::cmp::Ordering;
use std::rc::Rc;

/// A canonical (sorted, duplicate-free) set of description values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MSet {
    items: Rc<Vec<Value>>,
}

impl MSet {
    /// The empty set.
    pub fn new() -> MSet {
        MSet::default()
    }

    /// Build from any iterator, normalizing. (Shadows the trait method
    /// deliberately: `MSet::from_iter` is the primary constructor.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(items: impl IntoIterator<Item = Value>) -> MSet {
        let mut items: Vec<Value> = items.into_iter().collect();
        items.sort_by(value_cmp);
        items.dedup_by(|a, b| value_cmp(a, b) == Ordering::Equal);
        MSet {
            items: Rc::new(items),
        }
    }

    /// Wrap an already-sorted, already-deduplicated vector (checked in
    /// debug builds).
    pub fn from_sorted_unchecked(items: Vec<Value>) -> MSet {
        debug_assert!(items
            .windows(2)
            .all(|w| value_cmp(&w[0], &w[1]) == Ordering::Less));
        MSet {
            items: Rc::new(items),
        }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.items.iter()
    }

    /// The underlying sorted slice.
    pub fn as_slice(&self) -> &[Value] {
        &self.items
    }

    /// The identity of the shared backing storage: clones of a set share
    /// it, and copy-on-write mutation (or any rebuilding operation)
    /// replaces it — so equal ids mean *the same immutable elements*, as
    /// long as a clone of the set is being held (a live extra `Rc`
    /// forces every mutation down the copy-on-write path). The index
    /// store keys cached indexes on this id and keeps such a clone
    /// alive, which both pins the elements and prevents the allocator
    /// from recycling the address for a different set.
    pub fn storage_id(&self) -> usize {
        Rc::as_ptr(&self.items) as usize
    }

    /// Consume into the sorted vector (copies only when shared).
    pub fn into_vec(self) -> Vec<Value> {
        Rc::try_unwrap(self.items).unwrap_or_else(|rc| (*rc).clone())
    }

    /// O(log n) membership.
    pub fn contains(&self, v: &Value) -> bool {
        self.items.binary_search_by(|x| value_cmp(x, v)).is_ok()
    }

    /// Insert one element (O(n) shift; prefer [`MSet::extend`] or
    /// [`MSet::from_iter`] for bulk insertion).
    pub fn insert(&mut self, v: Value) -> bool {
        match self.items.binary_search_by(|x| value_cmp(x, &v)) {
            Ok(_) => false,
            Err(pos) => {
                Rc::make_mut(&mut self.items).insert(pos, v);
                true
            }
        }
    }

    /// Bulk merge: add every element of `items`, re-canonicalizing once.
    /// O(m log m) to sort the additions plus one O(n + m) merge —
    /// replaces k O(n)-shift `insert` calls in evaluator loops.
    pub fn extend(&mut self, items: impl IntoIterator<Item = Value>) {
        let mut incoming: Vec<Value> = items.into_iter().collect();
        if incoming.is_empty() {
            return;
        }
        incoming.sort_by(value_cmp);
        incoming.dedup_by(|a, b| value_cmp(a, b) == Ordering::Equal);
        if self.is_empty() {
            self.items = Rc::new(incoming);
            return;
        }
        *self = self.union(&MSet {
            items: Rc::new(incoming),
        });
    }

    /// Merge-based union, O(n + m).
    pub fn union(&self, other: &MSet) -> MSet {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() && j < other.items.len() {
            match value_cmp(&self.items[i], &other.items[j]) {
                Ordering::Less => {
                    out.push(self.items[i].clone());
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(other.items[j].clone());
                    j += 1;
                }
                Ordering::Equal => {
                    out.push(self.items[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.items[i..]);
        out.extend_from_slice(&other.items[j..]);
        MSet::from_sorted_unchecked(out)
    }

    /// Merge-based intersection, O(n + m).
    pub fn intersect(&self, other: &MSet) -> MSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() && j < other.items.len() {
            match value_cmp(&self.items[i], &other.items[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    out.push(self.items[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        MSet::from_sorted_unchecked(out)
    }

    /// Merge-based difference (`self \ other`), O(n + m).
    pub fn difference(&self, other: &MSet) -> MSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() {
            if j >= other.items.len() {
                out.extend_from_slice(&self.items[i..]);
                break;
            }
            match value_cmp(&self.items[i], &other.items[j]) {
                Ordering::Less => {
                    out.push(self.items[i].clone());
                    i += 1;
                }
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        MSet::from_sorted_unchecked(out)
    }

    /// True when `self ⊆ other`.
    pub fn is_subset(&self, other: &MSet) -> bool {
        self.iter().all(|v| other.contains(v))
    }
}

impl IntoIterator for MSet {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.into_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a MSet {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl FromIterator<Value> for MSet {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        MSet::from_iter(iter)
    }
}

impl Extend<Value> for MSet {
    fn extend<T: IntoIterator<Item = Value>>(&mut self, iter: T) {
        MSet::extend(self, iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(xs: &[i64]) -> MSet {
        MSet::from_iter(xs.iter().map(|&x| Value::Int(x)))
    }

    #[test]
    fn normalization_dedups_and_sorts() {
        let s = ints(&[3, 1, 2, 3, 1]);
        assert_eq!(s.len(), 3);
        assert_eq!(
            s.iter().cloned().collect::<Vec<_>>(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
    }

    #[test]
    fn set_equality_is_structural() {
        assert_eq!(ints(&[2, 1]), ints(&[1, 2, 2]));
        assert_ne!(ints(&[1]), ints(&[1, 2]));
    }

    #[test]
    fn union_intersect_difference() {
        let a = ints(&[1, 2, 3]);
        let b = ints(&[3, 4]);
        assert_eq!(a.union(&b), ints(&[1, 2, 3, 4]));
        assert_eq!(a.intersect(&b), ints(&[3]));
        assert_eq!(a.difference(&b), ints(&[1, 2]));
        assert_eq!(b.difference(&a), ints(&[4]));
    }

    #[test]
    fn union_with_empty() {
        let a = ints(&[1, 2]);
        assert_eq!(a.union(&MSet::new()), a);
        assert_eq!(MSet::new().union(&a), a);
    }

    #[test]
    fn membership_and_insert() {
        let mut s = ints(&[1, 3]);
        assert!(s.contains(&Value::Int(1)));
        assert!(!s.contains(&Value::Int(2)));
        assert!(s.insert(Value::Int(2)));
        assert!(!s.insert(Value::Int(2)));
        assert_eq!(s, ints(&[1, 2, 3]));
    }

    #[test]
    fn extend_matches_repeated_insert() {
        let mut bulk = ints(&[5, 1]);
        bulk.extend([3, 1, 9, 3].map(Value::Int));
        let mut one_by_one = ints(&[5, 1]);
        for x in [3, 1, 9, 3] {
            one_by_one.insert(Value::Int(x));
        }
        assert_eq!(bulk, one_by_one);
        assert_eq!(bulk, ints(&[1, 3, 5, 9]));
    }

    #[test]
    fn extend_into_empty_and_with_empty() {
        let mut s = MSet::new();
        s.extend([Value::Int(2), Value::Int(1)]);
        assert_eq!(s, ints(&[1, 2]));
        s.extend(std::iter::empty());
        assert_eq!(s, ints(&[1, 2]));
    }

    #[test]
    fn clone_shares_until_mutation() {
        let a = ints(&[1, 2, 3]);
        let b = a.clone();
        assert!(std::ptr::eq(a.as_slice().as_ptr(), b.as_slice().as_ptr()));
        let mut c = b.clone();
        c.insert(Value::Int(9));
        // Copy-on-write: the original is untouched.
        assert_eq!(a.len(), 3);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn storage_id_tracks_sharing_and_rebuilds() {
        let a = ints(&[1, 2, 3]);
        let b = a.clone();
        assert_eq!(a.storage_id(), b.storage_id(), "clones share storage");
        let mut c = b.clone();
        c.insert(Value::Int(9));
        // `a`/`b` still hold the old storage, so the insert had to
        // copy-on-write into a fresh allocation.
        assert_ne!(c.storage_id(), a.storage_id());
        assert_eq!(a.storage_id(), b.storage_id());
    }

    #[test]
    fn subset() {
        assert!(ints(&[1, 2]).is_subset(&ints(&[1, 2, 3])));
        assert!(!ints(&[1, 4]).is_subset(&ints(&[1, 2, 3])));
        assert!(MSet::new().is_subset(&ints(&[1])));
    }

    #[test]
    fn sets_of_records_dedup() {
        let r = |n: i64| Value::record([("A".into(), Value::Int(n))]);
        let s = MSet::from_iter([r(1), r(2), r(1)]);
        assert_eq!(s.len(), 2);
    }
}
