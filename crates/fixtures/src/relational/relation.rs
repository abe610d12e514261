//! Relations over Machiavelli values.
//!
//! A [`Relation`] is a canonical set of record values — the native
//! (non-interpreted) substrate backing the paper's generalized
//! relational model (§4). The interpreter's `select`/`join` and these
//! native operators compute the same results; tests compare the two.

use machiavelli::value::{show_value, Fields, MSet, Symbol, Value};

/// A set of record values with utility operations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Relation {
    rows: MSet,
}

impl Relation {
    pub fn new() -> Relation {
        Relation::default()
    }

    /// Build from row values (normalizing into a set).
    pub fn from_rows(rows: impl IntoIterator<Item = Value>) -> Relation {
        Relation {
            rows: MSet::from_iter(rows),
        }
    }

    /// The underlying canonical set.
    pub fn rows(&self) -> &MSet {
        &self.rows
    }

    /// Into the Machiavelli set value.
    pub fn into_value(self) -> Value {
        Value::Set(self.rows)
    }

    /// From a Machiavelli set value (panics on non-set; callers hold
    /// typed values).
    pub fn from_value(v: &Value) -> Relation {
        match v {
            Value::Set(s) => Relation { rows: s.clone() },
            other => panic!("not a relation: {}", show_value(other)),
        }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.rows.iter()
    }

    /// Native selection.
    pub fn select(&self, pred: impl Fn(&Value) -> bool) -> Relation {
        Relation::from_rows(self.iter().filter(|v| pred(v)).cloned())
    }

    /// Native projection onto `labels` (drops rows that are not records
    /// with all the labels — typed inputs always qualify).
    pub fn project(&self, labels: &[&str]) -> Relation {
        let labels: Vec<Symbol> = labels.iter().map(|l| Symbol::intern(l)).collect();
        Relation::from_rows(self.iter().filter_map(|v| match v {
            Value::Record(fs) => {
                let mut out = Vec::with_capacity(labels.len());
                for l in &labels {
                    out.push((*l, fs.get(l)?.clone()));
                }
                Some(Value::Record(Fields::from_vec(out)))
            }
            _ => None,
        }))
    }

    /// Rename a column (the paper's "renaming operation" enabling the
    /// polymorphic transitive closure on any binary relation).
    pub fn rename(&self, from: &str, to: &str) -> Relation {
        let to = Symbol::intern(to);
        Relation::from_rows(self.iter().map(|v| match v {
            Value::Record(fs) => {
                let mut out = fs.clone();
                if let Some(val) = out.remove(from) {
                    out.insert(to, val);
                }
                Value::Record(out)
            }
            other => other.clone(),
        }))
    }

    /// Union (set-theoretic).
    pub fn union(&self, other: &Relation) -> Relation {
        Relation {
            rows: self.rows.union(other.rows()),
        }
    }

    /// Difference.
    pub fn difference(&self, other: &Relation) -> Relation {
        Relation {
            rows: self.rows.difference(other.rows()),
        }
    }
}

impl FromIterator<Value> for Relation {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Relation::from_rows(iter)
    }
}

/// Convenience: build a flat row of (label, int) and (label, str) pairs.
pub fn row(fields: &[(&str, Value)]) -> Value {
    Value::record(fields.iter().map(|(l, v)| (Symbol::intern(l), v.clone())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab(a: i64, b: i64) -> Value {
        row(&[("A", Value::Int(a)), ("B", Value::Int(b))])
    }

    #[test]
    fn relations_are_sets() {
        let r = Relation::from_rows([ab(1, 2), ab(1, 2), ab(3, 4)]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn select_project_rename() {
        let r = Relation::from_rows([ab(1, 2), ab(3, 4)]);
        assert_eq!(
            r.select(|v| matches!(v, Value::Record(fs) if fs["A"] == Value::Int(1)))
                .len(),
            1
        );
        let p = r.project(&["A"]);
        assert_eq!(p.len(), 2);
        let renamed = r.rename("B", "C");
        assert!(matches!(
            renamed.iter().next().unwrap(),
            Value::Record(fs) if fs.contains_key("C") && !fs.contains_key("B")
        ));
    }

    #[test]
    fn projection_merges() {
        let r = Relation::from_rows([ab(1, 2), ab(1, 9)]);
        assert_eq!(r.project(&["A"]).len(), 1);
    }

    #[test]
    fn union_difference() {
        let r = Relation::from_rows([ab(1, 2)]);
        let s = Relation::from_rows([ab(1, 2), ab(3, 4)]);
        assert_eq!(r.union(&s).len(), 2);
        assert_eq!(s.difference(&r).len(), 1);
    }

    #[test]
    fn value_roundtrip() {
        let r = Relation::from_rows([ab(1, 2)]);
        let v = r.clone().into_value();
        assert_eq!(Relation::from_value(&v), r);
    }
}
