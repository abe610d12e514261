//! Natural-join algorithms (ablation A1 in DESIGN.md).
//!
//! The paper's generalized join on sets is the natural join of \[BJO89\]:
//! `{ x ⊔ y | x ∈ r, y ∈ s, x ↑ y }`. Three implementations:
//!
//! * [`nested_loop_join`] — the fully general O(n·m) semantics, using
//!   value-level `con`/`join` (supports *partial* overlap of nested
//!   records, where consistency is weaker than equality);
//! * [`hash_join`] — classic build/probe on the common attributes; exact
//!   for the relational case (common attributes compared by equality);
//! * [`sort_merge_join`] — sort both sides by the common-attribute key
//!   and merge; same applicability as hash join.
//!
//! Hash keys are *structural* ([`machiavelli_value::hash_value`]): a
//! `RowKey` borrows the row and hashes/compares the common-attribute
//! values in place — no per-row string rendering, no per-row key
//! allocation, and no reliance on the display form being injective
//! (distinct values can render identically; see the regression test).
//!
//! For flat relations all three agree (property-tested); the benches
//! measure where the hash/merge strategies win.

use crate::relation::Relation;
use machiavelli_value::{
    con_value, hash_value, join_value, value_cmp, value_eq, Fields, Symbol, Value,
};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// General nested-loop natural join via `con`/`join` (the evaluator's
/// semantics).
pub fn nested_loop_join(r: &Relation, s: &Relation) -> Relation {
    let mut out = Vec::new();
    for x in r.iter() {
        for y in s.iter() {
            if con_value(x, y) {
                // Consistency guarantees the join exists.
                out.push(join_value(x, y).expect("consistent values join"));
            }
        }
    }
    Relation::from_rows(out)
}

/// The fields of a record row, provided it has *all* the key labels.
fn keyed_fields<'a>(v: &'a Value, labels: &[Symbol]) -> Option<&'a Fields> {
    let Value::Record(fs) = v else { return None };
    labels.iter().all(|l| fs.contains_key(l)).then_some(fs)
}

/// A borrowed join key: the common-attribute values of one row, hashed
/// and compared structurally in place. Both sides of a join share one
/// `labels` slice, so equality can walk the labels pairwise.
struct RowKey<'a> {
    fields: &'a Fields,
    labels: &'a [Symbol],
}

impl Hash for RowKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for l in self.labels {
            hash_value(self.fields.get(l).expect("keyed row has label"), state);
        }
    }
}

impl PartialEq for RowKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        debug_assert_eq!(self.labels.len(), other.labels.len());
        self.labels.iter().all(|l| {
            value_eq(
                self.fields.get(l).expect("keyed row has label"),
                other.fields.get(l).expect("keyed row has label"),
            )
        })
    }
}

impl Eq for RowKey<'_> {}

/// Build/probe hash join on the common attributes. Falls back to the
/// nested-loop join when either side has no record rows (no key).
pub fn hash_join(r: &Relation, s: &Relation) -> Relation {
    let labels = r.common_labels(s);
    if labels.is_empty() {
        // No common attributes: natural join degenerates to cartesian
        // product — nested loop is already optimal.
        return nested_loop_join(r, s);
    }
    // Build on the smaller side.
    let (build, probe, build_is_left) = if r.len() <= s.len() {
        (r, s, true)
    } else {
        (s, r, false)
    };
    // `Value` contains `RefCell` (refs), but keys are hashed by ref
    // *identity*, which mutation never changes — the lint's hazard does
    // not apply.
    #[allow(clippy::mutable_key_type)]
    let mut table: HashMap<RowKey<'_>, Vec<&Value>> = HashMap::with_capacity(build.len());
    for x in build.iter() {
        if let Some(fields) = keyed_fields(x, &labels) {
            table
                .entry(RowKey {
                    fields,
                    labels: &labels,
                })
                .or_default()
                .push(x);
        }
    }
    let mut out = Vec::new();
    for y in probe.iter() {
        let Some(fields) = keyed_fields(y, &labels) else {
            continue;
        };
        if let Some(matches) = table.get(&RowKey {
            fields,
            labels: &labels,
        }) {
            for x in matches {
                let (l, rgt) = if build_is_left { (*x, y) } else { (y, *x) };
                if con_value(l, rgt) {
                    out.push(join_value(l, rgt).expect("consistent values join"));
                }
            }
        }
    }
    Relation::from_rows(out)
}

/// Sort-merge join on the common attributes.
pub fn sort_merge_join(r: &Relation, s: &Relation) -> Relation {
    let labels = r.common_labels(s);
    if labels.is_empty() {
        return nested_loop_join(r, s);
    }
    // Keys borrow the rows; rows stay in the relations.
    fn keyed<'a>(rel: &'a Relation, labels: &[Symbol]) -> Vec<(Vec<&'a Value>, &'a Value)> {
        let mut v: Vec<(Vec<&Value>, &Value)> = rel
            .iter()
            .filter_map(|row| {
                let fields = keyed_fields(row, labels)?;
                let key = labels
                    .iter()
                    .map(|l| fields.get(l).expect("keyed row has label"))
                    .collect();
                Some((key, row))
            })
            .collect();
        v.sort_by(|(ka, _), (kb, _)| cmp_key(ka, kb));
        v
    }
    let left = keyed(r, &labels);
    let right = keyed(s, &labels);
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        match cmp_key(&left[i].0, &right[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Group boundaries.
                let ie = left[i..].partition_point(|(k, _)| cmp_key(k, &left[i].0).is_eq()) + i;
                let je = right[j..].partition_point(|(k, _)| cmp_key(k, &right[j].0).is_eq()) + j;
                for (_, x) in &left[i..ie] {
                    for (_, y) in &right[j..je] {
                        if con_value(x, y) {
                            out.push(join_value(x, y).expect("consistent values join"));
                        }
                    }
                }
                i = ie;
                j = je;
            }
        }
    }
    Relation::from_rows(out)
}

fn cmp_key(a: &[&Value], b: &[&Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let c = value_cmp(x, y);
        if c != std::cmp::Ordering::Equal {
            return c;
        }
    }
    a.len().cmp(&b.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::row;

    fn r_ab() -> Relation {
        Relation::from_rows([
            row(&[("A", Value::Int(1)), ("B", Value::Int(10))]),
            row(&[("A", Value::Int(2)), ("B", Value::Int(20))]),
            row(&[("A", Value::Int(3)), ("B", Value::Int(10))]),
        ])
    }

    fn s_bc() -> Relation {
        Relation::from_rows([
            row(&[("B", Value::Int(10)), ("C", Value::str("x"))]),
            row(&[("B", Value::Int(30)), ("C", Value::str("y"))]),
        ])
    }

    #[test]
    fn three_strategies_agree_on_flat_join() {
        let nl = nested_loop_join(&r_ab(), &s_bc());
        let hj = hash_join(&r_ab(), &s_bc());
        let mj = sort_merge_join(&r_ab(), &s_bc());
        assert_eq!(nl, hj);
        assert_eq!(nl, mj);
        assert_eq!(nl.len(), 2);
    }

    #[test]
    fn no_common_attributes_gives_product() {
        let r = Relation::from_rows([row(&[("A", Value::Int(1))]), row(&[("A", Value::Int(2))])]);
        let s = Relation::from_rows([row(&[("C", Value::Int(7))])]);
        assert_eq!(hash_join(&r, &s).len(), 2);
        assert_eq!(sort_merge_join(&r, &s).len(), 2);
    }

    #[test]
    fn same_schema_join_is_intersection() {
        let r = r_ab();
        let s = Relation::from_rows([
            row(&[("A", Value::Int(1)), ("B", Value::Int(10))]),
            row(&[("A", Value::Int(9)), ("B", Value::Int(90))]),
        ]);
        let j = hash_join(&r, &s);
        assert_eq!(j.len(), 1);
        assert_eq!(j, nested_loop_join(&r, &s));
    }

    #[test]
    fn nested_loop_handles_partial_nested_overlap() {
        // Nested records where consistency is weaker than equality on the
        // common attribute: [N=[First]] vs [N=[Last]].
        let r = Relation::from_rows([row(&[("N", row(&[("First", Value::str("Joe"))]))])]);
        let s = Relation::from_rows([row(&[
            ("N", row(&[("Last", Value::str("Doe"))])),
            ("Age", Value::Int(21)),
        ])]);
        let j = nested_loop_join(&r, &s);
        assert_eq!(j.len(), 1);
        // Hash join keys on equality of N, which differs here — this is
        // exactly the case where only the general algorithm applies.
        assert_eq!(hash_join(&r, &s).len(), 0);
    }

    #[test]
    fn empty_sides() {
        let e = Relation::new();
        assert!(nested_loop_join(&e, &s_bc()).is_empty());
        assert!(hash_join(&r_ab(), &e).is_empty());
        assert!(sort_merge_join(&e, &e).is_empty());
    }

    #[test]
    fn structural_keys_survive_renderer_collisions() {
        // Regression for the old string-rendered hash keys: these two
        // key values are distinct but print identically (a crafted label
        // containing "=2, " forges the 3-field record's display form).
        let honest_key = Value::record([
            ("A".into(), Value::Int(1)),
            ("B".into(), Value::Int(2)),
            ("C".into(), Value::Int(3)),
        ]);
        let forged_key = Value::record([
            ("A".into(), Value::Int(1)),
            ("B=2, C".into(), Value::Int(3)),
        ]);
        assert_eq!(
            machiavelli_value::show_value(&honest_key),
            machiavelli_value::show_value(&forged_key),
            "the renderer collision this test guards against must exist"
        );
        assert_ne!(honest_key, forged_key);
        let r = Relation::from_rows([row(&[("K", honest_key.clone()), ("X", Value::Int(7))])]);
        let s = Relation::from_rows([row(&[("K", forged_key.clone()), ("Y", Value::Int(8))])]);
        // Equality-keyed strategies must NOT pair the rows: the K values
        // are unequal. The old renderer-keyed table put both rows in one
        // bucket, and because the forged keys happen to be *consistent*
        // (disjoint-ish label sets), the con-check let the pair through —
        // output silently depended on display-form collisions.
        assert!(hash_join(&r, &s).is_empty());
        assert_eq!(hash_join(&r, &s), sort_merge_join(&r, &s));
        // Genuinely equal keys still join, agreeing with the general
        // algorithm.
        let s2 = Relation::from_rows([row(&[("K", honest_key), ("Y", Value::Int(8))])]);
        assert_eq!(hash_join(&r, &s2).len(), 1);
        assert_eq!(hash_join(&r, &s2), nested_loop_join(&r, &s2));
        assert_eq!(hash_join(&r, &s2), sort_merge_join(&r, &s2));
    }
}
