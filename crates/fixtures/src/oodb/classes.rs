//! The class algebra of §5: classes are sets of records with an `Id`
//! field; `join` intersects extents while unioning fields ("methods"),
//! `unionc` generalizes (projects onto the common structure), and
//! `member` tests identity-based membership across classes of different
//! type.

use crate::join::nested_loop_join;
use crate::relation::Relation;
use machiavelli::value::{join_value, unionc_value, Value};

/// Intersection-of-extents / union-of-fields: the natural join of two
/// classes. With a shared `Id` field of reference type, rows combine
/// exactly when they denote the same object.
pub fn class_join(a: &Relation, b: &Relation) -> Relation {
    nested_loop_join(a, b)
}

/// Generalization: `unionc` of the two classes — both projected onto
/// their common structure, then unioned.
pub fn class_unionc(
    a: &Relation,
    b: &Relation,
) -> Result<Relation, machiavelli::value::ValueError> {
    let u = unionc_value(&a.clone().into_value(), &b.clone().into_value())?;
    Ok(Relation::from_value(&u))
}

/// The paper's `fun member(x, S) = join({x}, S) <> {}`: true iff some
/// member of `S` shares an identity (is consistent) with `x`.
pub fn class_member(x: &Value, class: &Relation) -> bool {
    let singleton = Value::set([x.clone()]);
    match join_value(&singleton, &class.clone().into_value()) {
        Ok(Value::Set(s)) => !s.is_empty(),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{make_person, store_value, PersonSpec};
    use crate::views::{employee_view, person_view, student_view};

    fn store() -> Value {
        let prof = make_person(PersonSpec::new("Prof").salary(90_000));
        let stu = make_person(PersonSpec::new("Stu").advisor(prof.clone()));
        let both = make_person(PersonSpec::new("Both").salary(10_000).advisor(prof.clone()));
        store_value(&[prof, stu, both])
    }

    #[test]
    fn join_is_intersection_with_method_union() {
        let s = store();
        let joined = class_join(&student_view(&s), &employee_view(&s));
        assert_eq!(joined.len(), 1);
        let Value::Record(fs) = joined.iter().next().unwrap() else {
            panic!()
        };
        assert!(fs.contains_key("Salary") && fs.contains_key("Advisor"));
    }

    #[test]
    fn unionc_is_generalization() {
        let s = store();
        let u = class_unionc(&student_view(&s), &employee_view(&s)).unwrap();
        // Students ∪ employees as Persons: prof, stu, both = 3.
        assert_eq!(u.len(), 3);
        // Every row now has exactly the Person structure.
        for row in u.iter() {
            let Value::Record(fs) = row else { panic!() };
            assert_eq!(fs.keys().cloned().collect::<Vec<_>>(), vec!["Id", "Name"]);
        }
        // And each is a member of the person view (extent inclusion).
        let persons = person_view(&s);
        for row in u.iter() {
            assert!(persons.rows().contains(row));
        }
    }

    #[test]
    fn member_across_class_types() {
        let s = store();
        let students = student_view(&s);
        let employees = employee_view(&s);
        // A student-view row is a member of the employee view iff the
        // underlying object is also an employee.
        let rows: Vec<&Value> = students.iter().collect();
        let membership: Vec<bool> = rows.iter().map(|r| class_member(r, &employees)).collect();
        assert_eq!(membership.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn member_of_own_class() {
        let s = store();
        let employees = employee_view(&s);
        for row in employees.iter() {
            assert!(class_member(row, &employees));
        }
    }
}
