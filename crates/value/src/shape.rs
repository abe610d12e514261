//! Runtime *shapes* — the structural skeletons of description values.
//!
//! `unionc` (§5) needs the glb `δ₁ ⊓ δ₂` of the two sets' element types at
//! runtime. The evaluator is type-erased, so we recover a conservative
//! skeleton from the values themselves: [`shape_of`] computes a value's
//! shape, [`merge`] refines shapes *within* one homogeneous set (variant
//! branches accumulate), and [`glb_shape`] intersects shapes *across* the
//! two operand sets (record labels intersect, exactly mirroring the
//! type-level `⊓`).

use crate::display::show_value;
use crate::error::ValueError;
use crate::value::{Fields, Label, Value};
use std::collections::BTreeMap;

/// A structural skeleton of a description value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shape {
    /// No information (the shape of elements of an empty set).
    Unknown,
    Unit,
    Bool,
    Int,
    Real,
    Str,
    /// Refs and dynamics are atomic for projection purposes.
    RefAtom,
    DynAtom,
    Record(BTreeMap<Label, Shape>),
    Variant(BTreeMap<Label, Shape>),
    Set(Box<Shape>),
}

/// Compute the shape of a single value.
pub fn shape_of(v: &Value) -> Result<Shape, ValueError> {
    Ok(match v {
        Value::Unit => Shape::Unit,
        Value::Bool(_) => Shape::Bool,
        Value::Int(_) => Shape::Int,
        Value::Real(_) => Shape::Real,
        Value::Str(_) => Shape::Str,
        Value::Ref(_) => Shape::RefAtom,
        Value::Dynamic(_) => Shape::DynAtom,
        Value::Record(fs) => Shape::Record(
            fs.iter()
                .map(|(l, fv)| Ok((*l, shape_of(fv)?)))
                .collect::<Result<_, ValueError>>()?,
        ),
        Value::Variant(l, p) => Shape::Variant([(*l, shape_of(p)?)].into_iter().collect()),
        Value::Set(s) => {
            let mut elem = Shape::Unknown;
            for item in s.iter() {
                elem = merge(elem, shape_of(item)?)?;
            }
            Shape::Set(Box::new(elem))
        }
        Value::Closure(_) | Value::Op(_) | Value::Builtin(_) => {
            return Err(ValueError::NotADescription(show_value(v)))
        }
    })
}

/// Shape of a whole set's elements (merged across all elements).
pub fn element_shape(
    items: impl IntoIterator<Item = impl std::borrow::Borrow<Value>>,
) -> Result<Shape, ValueError> {
    let mut elem = Shape::Unknown;
    for item in items {
        elem = merge(elem, shape_of(item.borrow())?)?;
    }
    Ok(elem)
}

/// Refinement merge *within* a homogeneous set: same constructors merge
/// componentwise, and variant branches accumulate (two elements of the
/// same variant type may exhibit different branches).
pub fn merge(a: Shape, b: Shape) -> Result<Shape, ValueError> {
    use Shape::*;
    Ok(match (a, b) {
        (Unknown, s) | (s, Unknown) => s,
        (Unit, Unit) => Unit,
        (Bool, Bool) => Bool,
        (Int, Int) => Int,
        (Real, Real) => Real,
        (Str, Str) => Str,
        (RefAtom, RefAtom) => RefAtom,
        (DynAtom, DynAtom) => DynAtom,
        (Record(xs), Record(ys)) => {
            if !xs.keys().eq(ys.keys()) {
                return Err(ValueError::HeterogeneousSet {
                    first: format!("{:?}", xs.keys().collect::<Vec<_>>()),
                    second: format!("{:?}", ys.keys().collect::<Vec<_>>()),
                });
            }
            let mut out = BTreeMap::new();
            let mut ys = ys;
            for (l, x) in xs {
                let y = ys.remove(&l).expect("same keys");
                out.insert(l, merge(x, y)?);
            }
            Record(out)
        }
        (Variant(xs), Variant(ys)) => {
            let mut out = xs;
            for (l, y) in ys {
                match out.remove(&l) {
                    Some(x) => {
                        let m = merge(x, y)?;
                        out.insert(l, m);
                    }
                    None => {
                        out.insert(l, y);
                    }
                }
            }
            Variant(out)
        }
        (Set(x), Set(y)) => Set(Box::new(merge(*x, *y)?)),
        (a, b) => {
            return Err(ValueError::HeterogeneousSet {
                first: format!("{a:?}"),
                second: format!("{b:?}"),
            })
        }
    })
}

/// Greatest-lower-bound skeleton *across* two sets: record labels
/// intersect (incompatible common labels are dropped, as in the
/// type-level `⊓`); variants keep the union of observed branches with
/// glb'd payloads; scalar shapes must agree.
pub fn glb_shape(a: &Shape, b: &Shape) -> Option<Shape> {
    use Shape::*;
    Some(match (a, b) {
        (Unknown, s) | (s, Unknown) => s.clone(),
        (Unit, Unit) => Unit,
        (Bool, Bool) => Bool,
        (Int, Int) => Int,
        (Real, Real) => Real,
        (Str, Str) => Str,
        (RefAtom, RefAtom) => RefAtom,
        (DynAtom, DynAtom) => DynAtom,
        (Record(xs), Record(ys)) => {
            let mut out = BTreeMap::new();
            for (l, x) in xs {
                if let Some(y) = ys.get(l) {
                    if let Some(g) = glb_shape(x, y) {
                        out.insert(*l, g);
                    }
                    // Incompatible common label: dropped.
                }
            }
            Record(out)
        }
        (Variant(xs), Variant(ys)) => {
            // Branches observed in either set stay projectable.
            let mut out = xs.clone();
            for (l, y) in ys {
                match out.get(l) {
                    Some(x) => {
                        let g = glb_shape(x, y)?;
                        out.insert(*l, g);
                    }
                    None => {
                        out.insert(*l, y.clone());
                    }
                }
            }
            Variant(out)
        }
        (Set(x), Set(y)) => Set(Box::new(glb_shape(x, y)?)),
        _ => return None,
    })
}

/// Project a value onto a shape: record positions keep only the shape's
/// labels; everything else is structural recursion; `Unknown` keeps the
/// value unchanged. The rows of every set it builds are added to `rows`.
pub fn project_by_shape(v: &Value, s: &Shape, rows: &mut usize) -> Result<Value, ValueError> {
    Ok(match (v, s) {
        (_, Shape::Unknown) => v.clone(),
        (Value::Record(fs), Shape::Record(ss)) => {
            let mut out = Vec::with_capacity(ss.len());
            for (l, fshape) in ss {
                let Some(fv) = fs.get(l) else {
                    return Err(ValueError::NoSuchField {
                        value: show_value(v),
                        label: l.to_string(),
                    });
                };
                out.push((*l, project_by_shape(fv, fshape, rows)?));
            }
            Value::Record(Fields::from_sorted_vec(out))
        }
        (Value::Variant(l, p), Shape::Variant(ss)) => match ss.get(l) {
            Some(pshape) => Value::Variant(*l, Box::new(project_by_shape(p, pshape, rows)?)),
            None => v.clone(),
        },
        (Value::Set(items), Shape::Set(es)) => {
            let projected: crate::set::MSet = items
                .iter()
                .map(|item| project_by_shape(item, es, rows))
                .collect::<Result<_, _>>()?;
            *rows += projected.len();
            Value::Set(projected)
        }
        _ => v.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn student(name: &str, advisor: i64) -> Value {
        Value::record([
            ("Name".into(), Value::str(name)),
            ("Advisor".into(), Value::Int(advisor)),
        ])
    }

    fn employee(name: &str, salary: i64) -> Value {
        Value::record([
            ("Name".into(), Value::str(name)),
            ("Salary".into(), Value::Int(salary)),
        ])
    }

    #[test]
    fn shape_of_record() {
        let s = shape_of(&student("joe", 1)).unwrap();
        let Shape::Record(fs) = s else { panic!() };
        assert_eq!(fs.len(), 2);
        assert_eq!(fs["Name"], Shape::Str);
    }

    #[test]
    fn merge_accumulates_variant_branches() {
        let a = shape_of(&Value::variant("BasePart", Value::Int(1))).unwrap();
        let b = shape_of(&Value::variant("CompositePart", Value::Str("x".into()))).unwrap();
        let m = merge(a, b).unwrap();
        let Shape::Variant(fs) = m else { panic!() };
        assert_eq!(fs.len(), 2);
    }

    #[test]
    fn glb_intersects_record_labels() {
        let a = shape_of(&student("a", 1)).unwrap();
        let b = shape_of(&employee("b", 2)).unwrap();
        let g = glb_shape(&a, &b).unwrap();
        let Shape::Record(fs) = g else { panic!() };
        assert_eq!(fs.keys().cloned().collect::<Vec<_>>(), vec!["Name"]);
    }

    #[test]
    fn glb_drops_incompatible_common_labels() {
        let a = shape_of(&Value::record([
            ("A".into(), Value::Int(1)),
            ("B".into(), Value::Int(2)),
        ]))
        .unwrap();
        let b = shape_of(&Value::record([
            ("A".into(), Value::str("s")),
            ("B".into(), Value::Int(3)),
        ]))
        .unwrap();
        let g = glb_shape(&a, &b).unwrap();
        let Shape::Record(fs) = g else { panic!() };
        assert_eq!(fs.keys().cloned().collect::<Vec<_>>(), vec!["B"]);
    }

    #[test]
    fn project_by_shape_record() {
        let skel = glb_shape(
            &shape_of(&student("x", 1)).unwrap(),
            &shape_of(&employee("y", 2)).unwrap(),
        )
        .unwrap();
        let projected = project_by_shape(&student("joe", 7), &skel, &mut 0).unwrap();
        assert_eq!(
            projected,
            Value::record([("Name".into(), Value::str("joe"))])
        );
    }

    #[test]
    fn empty_set_shape_is_unknown_elem() {
        let s = shape_of(&Value::set([])).unwrap();
        assert_eq!(s, Shape::Set(Box::new(Shape::Unknown)));
    }

    #[test]
    fn heterogeneous_set_detected() {
        let a = shape_of(&Value::Int(1)).unwrap();
        let b = shape_of(&Value::str("x")).unwrap();
        assert!(merge(a, b).is_err());
    }
}
