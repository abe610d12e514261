//! Transitive closure (Figure 4's workload), natively.
//!
//! * [`naive_closure`] — the paper's algorithm transcribed natively:
//!   each round recomputes *all* two-step compositions of the current
//!   relation against itself and stops when nothing new appears. Because
//!   the frontier doubles in path length each round, it converges in
//!   O(log diameter) rounds, each O(|R|²).
//! * [`seminaive_closure`] — classic delta iteration: only compositions
//!   involving newly discovered pairs are recomputed.
//!
//! Both operate on binary integer relations (adjacency pairs) for speed;
//! [`closure_relation`] adapts `Relation` values with `A`/`B` columns.

use crate::relation::{row, Relation};
use machiavelli::value::Value;
use std::collections::{BTreeSet, HashMap, HashSet};

/// The paper's Figure 4 algorithm on `(a, b)` pairs.
pub fn naive_closure(edges: &[(i64, i64)]) -> BTreeSet<(i64, i64)> {
    let mut r: BTreeSet<(i64, i64)> = edges.iter().copied().collect();
    loop {
        // r' = select [A=x.A, B=y.B] where x <- R, y <- R
        //      with x.B = y.A andalso not(member(..., R))
        let mut by_src: HashMap<i64, Vec<i64>> = HashMap::new();
        for &(a, b) in &r {
            by_src.entry(a).or_default().push(b);
        }
        let mut new = Vec::new();
        for &(a, b) in &r {
            if let Some(ys) = by_src.get(&b) {
                for &c in ys {
                    if !r.contains(&(a, c)) {
                        new.push((a, c));
                    }
                }
            }
        }
        if new.is_empty() {
            return r;
        }
        r.extend(new);
    }
}

/// Semi-naive (delta) transitive closure.
pub fn seminaive_closure(edges: &[(i64, i64)]) -> BTreeSet<(i64, i64)> {
    let mut all: HashSet<(i64, i64)> = edges.iter().copied().collect();
    let mut by_src: HashMap<i64, Vec<i64>> = HashMap::new();
    for &(a, b) in &all {
        by_src.entry(a).or_default().push(b);
    }
    let mut delta: Vec<(i64, i64)> = all.iter().copied().collect();
    while !delta.is_empty() {
        let mut next = Vec::new();
        for &(a, b) in &delta {
            if let Some(ys) = by_src.get(&b) {
                // Clone the target list: `by_src` also grows this round.
                for c in ys.clone() {
                    if all.insert((a, c)) {
                        next.push((a, c));
                    }
                }
            }
        }
        for &(a, c) in &next {
            by_src.entry(a).or_default().push(c);
        }
        delta = next;
    }
    all.into_iter().collect()
}

/// Closure of a `Relation` with integer `A`/`B` columns, returning a
/// `Relation` (bridges the interpreted and native worlds).
pub fn closure_relation(r: &Relation, seminaive: bool) -> Relation {
    let edges: Vec<(i64, i64)> = r
        .iter()
        .filter_map(|v| match v {
            Value::Record(fs) => match (fs.get("A"), fs.get("B")) {
                (Some(Value::Int(a)), Some(Value::Int(b))) => Some((*a, *b)),
                _ => None,
            },
            _ => None,
        })
        .collect();
    let closed = if seminaive {
        seminaive_closure(&edges)
    } else {
        naive_closure(&edges)
    };
    Relation::from_rows(
        closed
            .into_iter()
            .map(|(a, b)| row(&[("A", Value::Int(a)), ("B", Value::Int(b))])),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: i64) -> Vec<(i64, i64)> {
        (0..n).map(|i| (i, i + 1)).collect()
    }

    #[test]
    fn closure_of_chain() {
        let c = naive_closure(&chain(4));
        // 0→1→2→3→4: all (i, j) with i < j: 10 pairs.
        assert_eq!(c.len(), 10);
        assert!(c.contains(&(0, 4)));
        assert!(!c.contains(&(4, 0)));
    }

    #[test]
    fn naive_and_seminaive_agree() {
        for edges in [
            chain(6),
            vec![(1, 2), (2, 3), (3, 1)], // cycle
            vec![(1, 2), (3, 4)],         // disconnected
            vec![],                       // empty
            vec![(1, 1)],                 // self loop
            vec![(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)],
        ] {
            assert_eq!(
                naive_closure(&edges),
                seminaive_closure(&edges),
                "{edges:?}"
            );
        }
    }

    #[test]
    fn cycle_closure_is_complete() {
        let c = seminaive_closure(&[(1, 2), (2, 3), (3, 1)]);
        assert_eq!(c.len(), 9); // all pairs over {1,2,3}
    }

    #[test]
    fn closure_relation_bridges() {
        let r = Relation::from_rows([
            row(&[("A", Value::Int(1)), ("B", Value::Int(2))]),
            row(&[("A", Value::Int(2)), ("B", Value::Int(3))]),
        ]);
        let naive = closure_relation(&r, false);
        let semi = closure_relation(&r, true);
        assert_eq!(naive, semi);
        assert_eq!(naive.len(), 3);
    }

    #[test]
    fn idempotent() {
        let once = naive_closure(&chain(5));
        let edges: Vec<_> = once.iter().copied().collect();
        assert_eq!(naive_closure(&edges), once);
    }
}
