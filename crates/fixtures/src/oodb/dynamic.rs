//! External untyped databases via dynamic values (§5, final part).
//!
//! An external object-oriented database with no type discipline is
//! modelled as a single large set of `dynamic` values. Views are
//! generated by inspecting each dynamic's payload: those conforming to a
//! class shape become typed records carrying the dynamic itself in the
//! `Id` field — after which all the type-safe class machinery applies,
//! "even though the underlying database does not have any imposed type
//! constraints".

use crate::relation::Relation;
use machiavelli::types::ty::Ty;
use machiavelli::value::{conforms, DynValue, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generate an external database: `n` dynamic values, a mix of
/// employee-shaped records (`[Name, Salary]`), department-shaped records
/// (`[Dname, Building]`), and unclassifiable noise.
pub fn gen_external_db(n: usize, seed: u64) -> Value {
    let mut rng = StdRng::seed_from_u64(seed);
    Value::set((0..n).map(|i| {
        let payload = match rng.gen_range(0..3) {
            0 => Value::record([
                ("Name".into(), Value::str(format!("emp{i}"))),
                ("Salary".into(), Value::Int(rng.gen_range(10_000..200_000))),
            ]),
            1 => Value::record([
                ("Dname".into(), Value::str(format!("dept{i}"))),
                (
                    "Building".into(),
                    Value::str(format!("B{}", rng.gen_range(1..50))),
                ),
            ]),
            _ => Value::Int(rng.gen_range(0..1000)),
        };
        Value::Dynamic(DynValue::new(payload, None))
    }))
}

/// Build a typed view of an external database: every dynamic whose
/// payload conforms to `shape` yields `payload-fields + [Id = dynamic]`.
pub fn dynamic_view(db: &Value, shape: &Ty) -> Relation {
    let Value::Set(items) = db else {
        return Relation::new();
    };
    Relation::from_rows(items.iter().filter_map(|v| {
        let Value::Dynamic(d) = v else { return None };
        if !conforms(&d.value, shape) {
            return None;
        }
        let Value::Record(fs) = &*d.value else {
            return None;
        };
        let mut out = fs.clone();
        out.insert("Id".into(), v.clone());
        Some(Value::Record(out))
    }))
}

/// The employee class shape over external data.
pub fn employee_shape() -> Ty {
    machiavelli::types::ty::t_record([
        ("Name".into(), machiavelli::types::ty::t_str()),
        ("Salary".into(), machiavelli::types::ty::t_int()),
    ])
}

/// The department class shape over external data.
pub fn department_shape() -> Ty {
    machiavelli::types::ty::t_record([
        ("Dname".into(), machiavelli::types::ty::t_str()),
        ("Building".into(), machiavelli::types::ty::t_str()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::class_join;

    #[test]
    fn views_partition_conforming_payloads() {
        let db = gen_external_db(300, 11);
        let employees = dynamic_view(&db, &employee_shape());
        let departments = dynamic_view(&db, &department_shape());
        assert!(!employees.is_empty());
        assert!(!departments.is_empty());
        // Rows are typed: every employee row has Name, Salary, Id.
        for r in employees.iter() {
            let Value::Record(fs) = r else { panic!() };
            assert!(fs.contains_key("Name") && fs.contains_key("Salary"));
            assert!(matches!(fs["Id"], Value::Dynamic(_)));
        }
    }

    #[test]
    fn employee_department_intersection_empty() {
        // The paper: "with the 'intersection' of these classes being
        // empty" — no dynamic conforms to both shapes.
        let db = gen_external_db(300, 11);
        let employees = dynamic_view(&db, &employee_shape());
        let departments = dynamic_view(&db, &department_shape());
        assert!(class_join(&employees, &departments).is_empty());
    }

    #[test]
    fn dynamics_have_identity() {
        let db = gen_external_db(50, 3);
        let employees = dynamic_view(&db, &employee_shape());
        // Joining the employee view with itself is the identity
        // (identity-keyed natural join).
        let self_join = class_join(&employees, &employees);
        assert_eq!(self_join, employees);
    }

    #[test]
    fn deterministic_generation() {
        // Dynamics compare by identity, so the sets themselves differ
        // between calls; the *payload mix* is what must be deterministic.
        let a = gen_external_db(40, 5);
        let b = gen_external_db(40, 5);
        let emp = employee_shape();
        let dept = department_shape();
        let count = |db: &Value, shape: &Ty| dynamic_view(db, shape).len();
        assert_eq!(count(&a, &emp), count(&b, &emp));
        assert_eq!(count(&a, &dept), count(&b, &dept));
        assert_ne!(a, b, "fresh identities each call");
    }
}
