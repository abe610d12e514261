//! Value-level database operations: generalized projection, consistency,
//! join, and class union (§2 and §5 of the paper).
//!
//! * [`project_value`] — `project(d, δ)`, lifted structurally: on records
//!   it keeps the annotation's labels, on sets it maps (re-canonicalizing,
//!   since projection can merge elements), on base types it is the
//!   identity (`project(3, int) = 3`).
//! * [`con_value`] / [`join_value`] — consistency and join of two
//!   descriptions; on sets join is the *natural join* of \[BJO89\]:
//!   `{ x ⊔ y | x ∈ s₁, y ∈ s₂, x ↑ y }`, which degenerates to
//!   intersection on sets of equal base type.
//! * [`unionc_value`] — the generalized union: both sides projected onto
//!   the glb skeleton and unioned.
//!
//! Each has a `_counted` form that also adds to `rows` the rows of every
//! set it builds, nested ones included: what the evaluator charges a
//! governed query's row budget.

use crate::display::show_value;
use crate::error::ValueError;
use crate::set::MSet;
use crate::shape::{element_shape, glb_shape, project_by_shape};
use crate::value::{Fields, Value};
use machiavelli_types::ty::unfold_rec;
use machiavelli_types::{Ty, Type};
use std::cmp::Ordering;

/// `project(v, δ)` — generalized projection of a description value onto a
/// (closed) description type.
pub fn project_value(v: &Value, ty: &Ty) -> Result<Value, ValueError> {
    project_value_counted(v, ty, &mut 0)
}

/// [`project_value`], adding the rows of every set it builds to `rows`.
pub fn project_value_counted(v: &Value, ty: &Ty, rows: &mut usize) -> Result<Value, ValueError> {
    let mismatch = || ValueError::ProjectionMismatch {
        value: show_value(v),
        ty: machiavelli_types::show_type(ty),
    };
    match (&**ty, v) {
        (Type::Rec(..), _) => project_value_counted(v, &unfold_rec(ty), rows),
        (Type::Unit, Value::Unit)
        | (Type::Int, Value::Int(_))
        | (Type::Bool, Value::Bool(_))
        | (Type::Real, Value::Real(_))
        | (Type::Str, Value::Str(_))
        | (Type::Dynamic, Value::Dynamic(_))
        | (Type::Ref(_), Value::Ref(_)) => Ok(v.clone()),
        (Type::Record(tfs), Value::Record(vfs)) => {
            let mut out = Vec::with_capacity(tfs.len());
            for (l, fty) in tfs {
                let Some(fv) = vfs.get(l) else {
                    return Err(ValueError::NoSuchField {
                        value: show_value(v),
                        label: l.to_string(),
                    });
                };
                out.push((*l, project_value_counted(fv, fty, rows)?));
            }
            // Type-level label maps share the canonical label order.
            Ok(Value::Record(Fields::from_sorted_vec(out)))
        }
        (Type::Variant(tfs), Value::Variant(l, p)) => match tfs.get(l) {
            Some(pty) => Ok(Value::Variant(
                *l,
                Box::new(project_value_counted(p, pty, rows)?),
            )),
            None => Err(mismatch()),
        },
        (Type::Set(ety), Value::Set(items)) => {
            // Projection can merge elements; MSet re-canonicalizes.
            let projected: MSet = items
                .iter()
                .map(|item| project_value_counted(item, ety, rows))
                .collect::<Result<_, _>>()?;
            *rows += projected.len();
            Ok(Value::Set(projected))
        }
        // Type variables can appear when a projection annotation was
        // resolved against an open scheme; projection there is identity.
        (Type::Var(_), _) => Ok(v.clone()),
        _ => Err(mismatch()),
    }
}

/// `con(v₁, v₂)` — are the two descriptions consistent (projections of a
/// common description)?
pub fn con_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Record(xs), Value::Record(ys)) => {
            // Both entry lists are label-sorted: one merge-walk, with
            // label equality a pointer-identity compare.
            let (xs, ys) = (xs.entries(), ys.entries());
            let (mut i, mut j) = (0, 0);
            while i < xs.len() && j < ys.len() {
                match xs[i].0.cmp(&ys[j].0) {
                    Ordering::Less => i += 1,
                    Ordering::Greater => j += 1,
                    Ordering::Equal => {
                        if !con_value(&xs[i].1, &ys[j].1) {
                            return false;
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
            true
        }
        (Value::Variant(lx, px), Value::Variant(ly, py)) => lx == ly && con_value(px, py),
        // Two sets of joinable type are always consistent: their join is
        // the (possibly empty) natural join.
        (Value::Set(_), Value::Set(_)) => true,
        // Identity-bearing and base values: consistent iff equal.
        _ => a == b,
    }
}

/// `join(v₁, v₂)` — combine two consistent descriptions; errors when they
/// are inconsistent (except inside sets, where inconsistent pairs are
/// simply absent from the natural join).
pub fn join_value(a: &Value, b: &Value) -> Result<Value, ValueError> {
    join_value_counted(a, b, &mut 0)
}

/// [`join_value`], adding the rows of every set it builds to `rows`.
pub fn join_value_counted(a: &Value, b: &Value, rows: &mut usize) -> Result<Value, ValueError> {
    let inconsistent = || ValueError::Inconsistent {
        left: show_value(a),
        right: show_value(b),
    };
    match (a, b) {
        (Value::Record(xs), Value::Record(ys)) => {
            // O(n + m) sorted merge; shared labels join recursively.
            let (xs, ys) = (xs.entries(), ys.entries());
            let mut out = Vec::with_capacity(xs.len() + ys.len());
            let (mut i, mut j) = (0, 0);
            while i < xs.len() && j < ys.len() {
                match xs[i].0.cmp(&ys[j].0) {
                    Ordering::Less => {
                        out.push(xs[i].clone());
                        i += 1;
                    }
                    Ordering::Greater => {
                        out.push(ys[j].clone());
                        j += 1;
                    }
                    Ordering::Equal => {
                        out.push((xs[i].0, join_value_counted(&xs[i].1, &ys[j].1, rows)?));
                        i += 1;
                        j += 1;
                    }
                }
            }
            out.extend_from_slice(&xs[i..]);
            out.extend_from_slice(&ys[j..]);
            Ok(Value::Record(Fields::from_sorted_vec(out)))
        }
        (Value::Variant(lx, px), Value::Variant(ly, py)) => {
            if lx != ly {
                return Err(inconsistent());
            }
            Ok(Value::Variant(
                *lx,
                Box::new(join_value_counted(px, py, rows)?),
            ))
        }
        (Value::Set(xs), Value::Set(ys)) => {
            // Natural join of higher-order relations [BJO89]; results
            // accumulate in a vector and canonicalize once.
            let mut out = Vec::new();
            for x in xs.iter() {
                for y in ys.iter() {
                    if con_value(x, y) {
                        out.push(join_value_counted(x, y, rows)?);
                    }
                }
            }
            let joined = MSet::from_iter(out);
            *rows += joined.len();
            Ok(Value::Set(joined))
        }
        _ => {
            if a == b {
                Ok(a.clone())
            } else {
                Err(inconsistent())
            }
        }
    }
}

/// `unionc(s₁, s₂)` — the generalized union of §5:
/// `project(s₁, δ₁ ⊓ δ₂) ∪ project(s₂, δ₁ ⊓ δ₂)`, computed on runtime
/// shapes. Degenerates to ordinary union when the element shapes agree.
pub fn unionc_value(a: &Value, b: &Value) -> Result<Value, ValueError> {
    unionc_value_counted(a, b, &mut 0)
}

/// [`unionc_value`], adding the rows of every set it builds to `rows`.
pub fn unionc_value_counted(a: &Value, b: &Value, rows: &mut usize) -> Result<Value, ValueError> {
    let (Value::Set(xs), Value::Set(ys)) = (a, b) else {
        return Err(ValueError::NotASet(show_value(
            if matches!(a, Value::Set(_)) { b } else { a },
        )));
    };
    let sa = element_shape(xs.iter())?;
    let sb = element_shape(ys.iter())?;
    let skel = glb_shape(&sa, &sb).ok_or_else(|| ValueError::Inconsistent {
        left: show_value(a),
        right: show_value(b),
    })?;
    let mut out = Vec::with_capacity(xs.len() + ys.len());
    for x in xs.iter().chain(ys.iter()) {
        out.push(project_by_shape(x, &skel, rows)?);
    }
    let united = MSet::from_iter(out);
    *rows += united.len();
    Ok(Value::Set(united))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::RefValue;
    use machiavelli_types::ty::{t_int, t_record, t_set, t_str};

    fn joe() -> Value {
        Value::record([
            ("Name".into(), Value::str("Joe")),
            ("Age".into(), Value::Int(21)),
            ("Salary".into(), Value::Int(22340)),
        ])
    }

    #[test]
    fn project_record_paper_example() {
        let ty = t_record([("Name".into(), t_str()), ("Salary".into(), t_int())]);
        let p = project_value(&joe(), &ty).unwrap();
        assert_eq!(
            p,
            Value::record([
                ("Name".into(), Value::str("Joe")),
                ("Salary".into(), Value::Int(22340)),
            ])
        );
    }

    #[test]
    fn project_base_identity() {
        assert_eq!(
            project_value(&Value::Int(3), &t_int()).unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn project_nested_record() {
        let v = Value::record([
            (
                "Name".into(),
                Value::record([
                    ("First".into(), Value::str("Joe")),
                    ("Last".into(), Value::str("Doe")),
                ]),
            ),
            ("Salary".into(), Value::Int(12345)),
        ]);
        let ty = t_record([("Name".into(), t_record([("Last".into(), t_str())]))]);
        let p = project_value(&v, &ty).unwrap();
        assert_eq!(
            p,
            Value::record([(
                "Name".into(),
                Value::record([("Last".into(), Value::str("Doe"))])
            )])
        );
    }

    #[test]
    fn project_set_merges_duplicates() {
        // Projecting away the distinguishing field merges elements.
        let s = Value::set([
            Value::record([("A".into(), Value::Int(1)), ("B".into(), Value::Int(1))]),
            Value::record([("A".into(), Value::Int(1)), ("B".into(), Value::Int(2))]),
        ]);
        let ty = t_set(t_record([("A".into(), t_int())]));
        let p = project_value(&s, &ty).unwrap();
        let Value::Set(items) = p else { panic!() };
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn con_paper_examples() {
        // [Name=[First="Joe"], Age=21] and [Name=[Last="Doe"]] consistent.
        let a = Value::record([
            (
                "Name".into(),
                Value::record([("First".into(), Value::str("Joe"))]),
            ),
            ("Age".into(), Value::Int(21)),
        ]);
        let b = Value::record([(
            "Name".into(),
            Value::record([("Last".into(), Value::str("Doe"))]),
        )]);
        assert!(con_value(&a, &b));
        // [Name="Joe", Age=21] and [Name="Sue"] inconsistent.
        let c = Value::record([
            ("Name".into(), Value::str("Joe")),
            ("Age".into(), Value::Int(21)),
        ]);
        let d = Value::record([("Name".into(), Value::str("Sue"))]);
        assert!(!con_value(&c, &d));
    }

    #[test]
    fn join_paper_example() {
        let a = Value::record([
            (
                "Name".into(),
                Value::record([("First".into(), Value::str("Joe"))]),
            ),
            ("Age".into(), Value::Int(21)),
        ]);
        let b = Value::record([(
            "Name".into(),
            Value::record([("Last".into(), Value::str("Doe"))]),
        )]);
        let joined = join_value(&a, &b).unwrap();
        assert_eq!(
            joined,
            Value::record([
                (
                    "Name".into(),
                    Value::record([
                        ("First".into(), Value::str("Joe")),
                        ("Last".into(), Value::str("Doe")),
                    ])
                ),
                ("Age".into(), Value::Int(21)),
            ])
        );
    }

    #[test]
    fn join_inconsistent_errors() {
        let a = Value::record([("Name".into(), Value::str("Joe"))]);
        let b = Value::record([("Name".into(), Value::str("Sue"))]);
        assert!(matches!(
            join_value(&a, &b),
            Err(ValueError::Inconsistent { .. })
        ));
    }

    #[test]
    fn set_join_is_natural_join() {
        let r = Value::set([
            Value::record([("A".into(), Value::Int(1)), ("B".into(), Value::Int(10))]),
            Value::record([("A".into(), Value::Int(2)), ("B".into(), Value::Int(20))]),
        ]);
        let s = Value::set([
            Value::record([("B".into(), Value::Int(10)), ("C".into(), Value::Int(100))]),
            Value::record([("B".into(), Value::Int(30)), ("C".into(), Value::Int(300))]),
        ]);
        let j = join_value(&r, &s).unwrap();
        assert_eq!(
            j,
            Value::set([Value::record([
                ("A".into(), Value::Int(1)),
                ("B".into(), Value::Int(10)),
                ("C".into(), Value::Int(100)),
            ])])
        );
    }

    #[test]
    fn set_join_same_type_is_intersection() {
        let a = Value::set([Value::Int(1), Value::Int(2), Value::Int(3)]);
        let b = Value::set([Value::Int(2), Value::Int(3), Value::Int(4)]);
        let j = join_value(&a, &b).unwrap();
        assert_eq!(j, Value::set([Value::Int(2), Value::Int(3)]));
    }

    #[test]
    fn join_with_ref_identity() {
        let r = RefValue::new(Value::Int(1));
        let a = Value::record([
            ("Id".into(), Value::Ref(r.clone())),
            ("Name".into(), Value::str("x")),
        ]);
        let b = Value::record([
            ("Id".into(), Value::Ref(r)),
            ("Salary".into(), Value::Int(5)),
        ]);
        let j = join_value(&a, &b).unwrap();
        let Value::Record(fs) = &j else { panic!() };
        assert_eq!(fs.len(), 3);
        // Different identities are inconsistent.
        let c = Value::record([("Id".into(), Value::Ref(RefValue::new(Value::Int(1))))]);
        let d = Value::record([("Id".into(), Value::Ref(RefValue::new(Value::Int(1))))]);
        assert!(!con_value(&c, &d));
    }

    #[test]
    fn unionc_projects_to_common_structure() {
        let students = Value::set([Value::record([
            ("Name".into(), Value::str("s1")),
            ("Advisor".into(), Value::Int(9)),
        ])]);
        let employees = Value::set([Value::record([
            ("Name".into(), Value::str("e1")),
            ("Salary".into(), Value::Int(100)),
        ])]);
        let u = unionc_value(&students, &employees).unwrap();
        assert_eq!(
            u,
            Value::set([
                Value::record([("Name".into(), Value::str("e1"))]),
                Value::record([("Name".into(), Value::str("s1"))]),
            ])
        );
    }

    #[test]
    fn unionc_same_type_is_union() {
        let a = Value::set([Value::Int(1), Value::Int(2)]);
        let b = Value::set([Value::Int(2), Value::Int(3)]);
        let u = unionc_value(&a, &b).unwrap();
        assert_eq!(u, Value::set([Value::Int(1), Value::Int(2), Value::Int(3)]));
    }

    #[test]
    fn unionc_with_empty_side() {
        let a = Value::set([Value::record([("A".into(), Value::Int(1))])]);
        let empty = Value::set([]);
        assert_eq!(unionc_value(&a, &empty).unwrap(), a);
        assert_eq!(unionc_value(&empty, &a).unwrap(), a);
    }
}
