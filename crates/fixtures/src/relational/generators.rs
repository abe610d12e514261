//! Workload generators: the paper's Figure 2 part–supplier database (both
//! the literal values and a scalable synthetic version) and random
//! digraphs for the Figure 4 transitive closure.
//!
//! All generators are deterministic given a seed.

use crate::relation::{row, Relation};
use machiavelli::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The literal `parts` relation of Figure 2 (representative rows).
pub fn fig2_parts() -> Relation {
    Relation::from_rows([
        part_row("bolt", 1, PartInfo::Base { cost: 5 }),
        part_row("nut", 2, PartInfo::Base { cost: 3 }),
        part_row(
            "wheel",
            100,
            PartInfo::Composite {
                subparts: vec![(1, 8), (2, 8)],
                assem_cost: 20,
            },
        ),
        part_row(
            "engine",
            2189,
            PartInfo::Composite {
                subparts: vec![(1, 189), (2, 120)],
                assem_cost: 1000,
            },
        ),
    ])
}

/// The literal `suppliers` relation of Figure 2.
pub fn fig2_suppliers() -> Relation {
    Relation::from_rows([
        row(&[
            ("Sname", Value::str("Baker")),
            ("S#", Value::Int(1)),
            ("City", Value::str("Paris")),
        ]),
        row(&[
            ("Sname", Value::str("Smith")),
            ("S#", Value::Int(12)),
            ("City", Value::str("London")),
        ]),
        row(&[
            ("Sname", Value::str("Jones")),
            ("S#", Value::Int(3)),
            ("City", Value::str("Oslo")),
        ]),
    ])
}

/// The literal `supplied_by` relation of Figure 2 (nested supplier sets).
pub fn fig2_supplied_by() -> Relation {
    Relation::from_rows([
        row(&[
            ("P#", Value::Int(1)),
            (
                "Suppliers",
                Value::set([
                    row(&[("S#", Value::Int(1))]),
                    row(&[("S#", Value::Int(12))]),
                ]),
            ),
        ]),
        row(&[
            ("P#", Value::Int(2)),
            ("Suppliers", Value::set([row(&[("S#", Value::Int(3))])])),
        ]),
        row(&[
            ("P#", Value::Int(2189)),
            ("Suppliers", Value::set([row(&[("S#", Value::Int(1))])])),
        ]),
    ])
}

/// Part payload for the generator.
enum PartInfo {
    Base {
        cost: i64,
    },
    Composite {
        subparts: Vec<(i64, i64)>,
        assem_cost: i64,
    },
}

/// One row of the `parts` relation.
fn part_row(name: &str, pno: i64, info: PartInfo) -> Value {
    let pinfo = match info {
        PartInfo::Base { cost } => Value::variant(
            "BasePart",
            Value::record([("Cost".into(), Value::Int(cost))]),
        ),
        PartInfo::Composite {
            subparts,
            assem_cost,
        } => Value::variant(
            "CompositePart",
            Value::record([
                (
                    "SubParts".into(),
                    Value::set(
                        subparts
                            .into_iter()
                            .map(|(p, q)| row(&[("P#", Value::Int(p)), ("Qty", Value::Int(q))])),
                    ),
                ),
                ("AssemCost".into(), Value::Int(assem_cost)),
            ]),
        ),
    };
    row(&[
        ("Pname", Value::str(name)),
        ("P#", Value::Int(pno)),
        ("Pinfo", pinfo),
    ])
}

/// A scalable part–supplier database.
pub struct PartSupplierDb {
    pub parts: Relation,
    pub suppliers: Relation,
    pub supplied_by: Relation,
}

/// Generate `n_parts` parts (a fraction `base_frac` of them base parts;
/// composites reference only lower-numbered parts, so part costs are
/// well-founded), `n_suppliers` suppliers, and a `supplied_by` relation
/// mapping every part to 1–3 suppliers.
pub fn gen_part_supplier(
    n_parts: usize,
    n_suppliers: usize,
    base_frac: f64,
    seed: u64,
) -> PartSupplierDb {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut parts = Vec::with_capacity(n_parts);
    for i in 0..n_parts {
        let pno = i as i64 + 1;
        let name = format!("part{pno}");
        // The first part must be base so composites have targets.
        let is_base = i == 0 || rng.gen_bool(base_frac);
        let info = if is_base {
            PartInfo::Base {
                cost: rng.gen_range(1..100),
            }
        } else {
            let n_subs = rng.gen_range(1..=4.min(i));
            let subparts = (0..n_subs)
                .map(|_| (rng.gen_range(1..=i as i64), rng.gen_range(1..20)))
                .collect();
            PartInfo::Composite {
                subparts,
                assem_cost: rng.gen_range(10..1000),
            }
        };
        parts.push(part_row(&name, pno, info));
    }
    let suppliers = (0..n_suppliers).map(|i| {
        row(&[
            ("Sname", Value::str(format!("supplier{i}"))),
            ("S#", Value::Int(i as i64 + 1)),
            (
                "City",
                Value::str(["Paris", "London", "Oslo", "Philadelphia"][i % 4]),
            ),
        ])
    });
    let supplied_by = (0..n_parts).map(|i| {
        let k = rng.gen_range(1..=3.min(n_suppliers.max(1)));
        let mut ids: Vec<i64> = (0..k)
            .map(|_| rng.gen_range(1..=n_suppliers.max(1) as i64))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        row(&[
            ("P#", Value::Int(i as i64 + 1)),
            (
                "Suppliers",
                Value::set(ids.into_iter().map(|s| row(&[("S#", Value::Int(s))]))),
            ),
        ])
    });
    PartSupplierDb {
        parts: Relation::from_rows(parts),
        suppliers: suppliers.collect(),
        supplied_by: supplied_by.collect(),
    }
}

/// Native total-cost of a part (the Figure 5 `cost` function as the
/// verification baseline): base parts cost their `Cost`; composite parts
/// cost `AssemCost + Σ subcost · qty`.
pub fn native_cost(parts: &Relation, pno: i64) -> Option<i64> {
    let part = parts
        .iter()
        .find(|v| matches!(v, Value::Record(fs) if fs.get("P#") == Some(&Value::Int(pno))))?;
    let Value::Record(fs) = part else { return None };
    match fs.get("Pinfo")? {
        Value::Variant(tag, payload) if tag == "BasePart" => match &**payload {
            Value::Record(p) => match p.get("Cost")? {
                Value::Int(c) => Some(*c),
                _ => None,
            },
            _ => None,
        },
        Value::Variant(tag, payload) if tag == "CompositePart" => match &**payload {
            Value::Record(p) => {
                let Value::Int(assem) = p.get("AssemCost")? else {
                    return None;
                };
                let Value::Set(subs) = p.get("SubParts")? else {
                    return None;
                };
                let mut total = *assem;
                for sub in subs.iter() {
                    let Value::Record(sf) = sub else { return None };
                    let Value::Int(spno) = sf.get("P#")? else {
                        return None;
                    };
                    let Value::Int(qty) = sf.get("Qty")? else {
                        return None;
                    };
                    total += native_cost(parts, *spno)? * qty;
                }
                Some(total)
            }
            _ => None,
        },
        _ => None,
    }
}

/// A random digraph as `(a, b)` edge pairs over `n_nodes` nodes.
pub fn gen_edges(n_nodes: usize, n_edges: usize, seed: u64) -> Vec<(i64, i64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n_edges);
    for _ in 0..n_edges {
        let a = rng.gen_range(0..n_nodes as i64);
        let b = rng.gen_range(0..n_nodes as i64);
        out.push((a, b));
    }
    out
}

/// A simple chain graph 0→1→…→n (worst-case diameter).
pub fn chain_edges(n: usize) -> Vec<(i64, i64)> {
    (0..n as i64).map(|i| (i, i + 1)).collect()
}

/// Edge pairs as a binary `Relation` with `A`/`B` columns.
pub fn edges_to_relation(edges: &[(i64, i64)]) -> Relation {
    Relation::from_rows(
        edges
            .iter()
            .map(|&(a, b)| row(&[("A", Value::Int(a)), ("B", Value::Int(b))])),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shapes() {
        assert_eq!(fig2_parts().len(), 4);
        assert_eq!(fig2_suppliers().len(), 3);
        assert_eq!(fig2_supplied_by().len(), 3);
    }

    #[test]
    fn generated_db_is_deterministic() {
        let a = gen_part_supplier(50, 10, 0.5, 42);
        let b = gen_part_supplier(50, 10, 0.5, 42);
        assert_eq!(a.parts, b.parts);
        assert_eq!(a.supplied_by, b.supplied_by);
        let c = gen_part_supplier(50, 10, 0.5, 43);
        assert_ne!(a.parts, c.parts);
    }

    #[test]
    fn costs_are_well_founded() {
        let db = gen_part_supplier(100, 10, 0.4, 7);
        for pno in 1..=100 {
            let c = native_cost(&db.parts, pno).expect("every part has a cost");
            assert!(c > 0);
        }
    }

    #[test]
    fn fig2_engine_cost() {
        // engine: assem 1000 + bolt(5)·189 + nut(3)·120 = 1000+945+360.
        assert_eq!(native_cost(&fig2_parts(), 2189), Some(2305));
        assert_eq!(native_cost(&fig2_parts(), 1), Some(5));
        assert_eq!(native_cost(&fig2_parts(), 9999), None);
    }

    #[test]
    fn edge_generators() {
        assert_eq!(chain_edges(3), vec![(0, 1), (1, 2), (2, 3)]);
        let e = gen_edges(10, 30, 5);
        assert_eq!(e.len(), 30);
        assert_eq!(edges_to_relation(&chain_edges(3)).len(), 3);
    }
}
