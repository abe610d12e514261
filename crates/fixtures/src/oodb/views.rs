//! Views over object stores (Figure 8).
//!
//! A *view* reveals part of each object's structure as a plain record,
//! keeping the object itself in a distinguished `Id` field — a *class* is
//! any record type with such an `Id` field. Native implementations here;
//! the same definitions in Machiavelli source are in
//! [`MACHIAVELLI_VIEWS`] (with the paper's `(!x).Class` typo corrected to
//! `(!(x.Id)).Class` in `TFView`, which otherwise dereferences a
//! non-reference).

use crate::join::nested_loop_join;
use crate::object::{optional_value, person_field};
use crate::relation::Relation;
use machiavelli::value::{RefValue, Value};

/// Machiavelli source for the four view functions of Figure 8.
pub const MACHIAVELLI_VIEWS: &str = r#"
fun PersonView(S) = select [Name=(!x).Name, Id=x]
                    where x <- S
                    with true;

fun EmployeeView(S) = select [Name=(!x).Name, (Salary=(!x).Salary as Value), Id=x]
                      where x <- S
                      with (case (!x).Salary of Value of v => true, other => false);

fun StudentView(S) = select [Name=(!x).Name, (Advisor=(!x).Advisor as Value), Id=x]
                     where x <- S
                     with (case (!x).Advisor of Value of v => true, other => false);

fun TFView(S) = select join(x, [Class=(!(x.Id)).Class as Value])
                where x <- join(StudentView(S), EmployeeView(S))
                with (case (!(x.Id)).Class of Value of v => true, other => false);
"#;

fn objects_of(store: &Value) -> Vec<RefValue> {
    match store {
        Value::Set(s) => s
            .iter()
            .filter_map(|v| match v {
                Value::Ref(r) => Some(r.clone()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// `PersonView : {PersonObj} -> {Person}` — every object, name + identity.
pub fn person_view(store: &Value) -> Relation {
    Relation::from_rows(objects_of(store).into_iter().filter_map(|obj| {
        let name = person_field(&obj, "Name")?;
        Some(Value::record([
            ("Name".into(), name),
            ("Id".into(), Value::Ref(obj)),
        ]))
    }))
}

/// `EmployeeView : {PersonObj} -> {Employee}` — objects with a salary.
pub fn employee_view(store: &Value) -> Relation {
    Relation::from_rows(objects_of(store).into_iter().filter_map(|obj| {
        let name = person_field(&obj, "Name")?;
        let salary = optional_value(&person_field(&obj, "Salary")?)?;
        Some(Value::record([
            ("Name".into(), name),
            ("Salary".into(), salary),
            ("Id".into(), Value::Ref(obj)),
        ]))
    }))
}

/// `StudentView : {PersonObj} -> {Student}` — objects with an advisor.
pub fn student_view(store: &Value) -> Relation {
    Relation::from_rows(objects_of(store).into_iter().filter_map(|obj| {
        let name = person_field(&obj, "Name")?;
        let advisor = optional_value(&person_field(&obj, "Advisor")?)?;
        Some(Value::record([
            ("Name".into(), name),
            ("Advisor".into(), advisor),
            ("Id".into(), Value::Ref(obj)),
        ]))
    }))
}

/// `TFView : {PersonObj} -> {TeachingFellow}` — the join of the student
/// and employee views (intersection of extents, union of fields),
/// restricted to objects with a class and extended with it.
pub fn tf_view(store: &Value) -> Relation {
    let joined = nested_loop_join(&student_view(store), &employee_view(store));
    Relation::from_rows(joined.iter().filter_map(|row| {
        let Value::Record(fs) = row else { return None };
        let Value::Ref(obj) = fs.get("Id")? else {
            return None;
        };
        let class = optional_value(&person_field(obj, "Class")?)?;
        let mut out = fs.clone();
        out.insert("Class".into(), class);
        Some(Value::Record(out))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{make_person, store_value, PersonSpec};

    fn sample_store() -> (Value, Vec<RefValue>) {
        let prof = make_person(PersonSpec::new("Prof").salary(90_000));
        let plain = make_person(PersonSpec::new("Plain"));
        let student = make_person(PersonSpec::new("Stu").advisor(prof.clone()));
        let tf = make_person(
            PersonSpec::new("TF")
                .salary(20_000)
                .advisor(prof.clone())
                .class("CS101"),
        );
        let objs = vec![prof, plain, student, tf];
        (store_value(&objs), objs)
    }

    #[test]
    fn view_extents_nest() {
        let (store, _) = sample_store();
        assert_eq!(person_view(&store).len(), 4);
        assert_eq!(employee_view(&store).len(), 2); // Prof, TF
        assert_eq!(student_view(&store).len(), 2); // Stu, TF
        assert_eq!(tf_view(&store).len(), 1); // TF
    }

    #[test]
    fn tf_view_has_union_of_fields() {
        let (store, _) = sample_store();
        let tf = tf_view(&store);
        let Value::Record(fs) = tf.iter().next().unwrap() else {
            panic!()
        };
        for field in ["Name", "Salary", "Advisor", "Class", "Id"] {
            assert!(fs.contains_key(field), "missing {field}");
        }
        assert_eq!(fs["Class"], Value::str("CS101"));
    }

    #[test]
    fn join_of_views_is_extent_intersection() {
        // The §5 claim: join(StudentView, EmployeeView) = objects that are
        // both, keyed by identity.
        let (store, objs) = sample_store();
        let joined = nested_loop_join(&student_view(&store), &employee_view(&store));
        assert_eq!(joined.len(), 1);
        let Value::Record(fs) = joined.iter().next().unwrap() else {
            panic!()
        };
        assert_eq!(fs["Id"], Value::Ref(objs[3].clone()));
    }

    #[test]
    fn projection_property() {
        // Project(View_σ(S), τ) ⊆ View_τ(S) for τ ≤ σ: employees project
        // into the person view.
        let (store, _) = sample_store();
        let projected = employee_view(&store).project(&["Name", "Id"]);
        let persons = person_view(&store);
        for row in projected.iter() {
            assert!(persons.rows().contains(row));
        }
    }
}
