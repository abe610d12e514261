//! E7/E8 — Figures 8 and 9: views over person objects, join of views as
//! intersection, and the advisor-salary query.

use machiavelli::value::Value;
use machiavelli::Session;
use machiavelli_fixtures::oodb::{
    employee_view, make_person, person_view, store_value, student_view, tf_view, PersonSpec,
    UniversityParams, MACHIAVELLI_VIEWS, PERSON_STORE_TYPE,
};
use machiavelli_fixtures::university_session;

#[test]
fn views_typecheck_with_expected_instances() {
    // "The types inferred for these functions will be quite general, but
    // the following are the instances that are important": applying each
    // view to a {PersonObj} store yields the Figure 7 class types.
    let (s, _) = university_session(UniversityParams {
        n_people: 10,
        ..Default::default()
    });
    // (The Id type prints one unfolding of the equi-recursive PersonObj;
    // the checker treats rec types up to unfolding.)
    let person = s.type_of("PersonView(persons);").unwrap();
    assert!(
        person.starts_with("{[Id:ref(") && person.ends_with("Name:string]}"),
        "{person}"
    );
    assert!(person.contains("rec v0 . ref("), "{person}");
    let employee = s.type_of("EmployeeView(persons);").unwrap();
    assert!(employee.contains("Salary:int"), "{employee}");
    let student = s.type_of("StudentView(persons);").unwrap();
    assert!(student.contains("Advisor:re"), "{student}");
    let tf = s.type_of("TFView(persons);").unwrap();
    assert!(
        tf.contains("Class:string") && tf.contains("Salary:int") && tf.contains("Advisor:re"),
        "{tf}"
    );
}

#[test]
fn interpreted_views_agree_with_native_views() {
    let (mut s, uni) = university_session(UniversityParams {
        n_people: 60,
        seed: 3,
        ..Default::default()
    });
    let store = uni.store();
    for (mach, native) in [
        ("PersonView(persons);", person_view(&store)),
        ("EmployeeView(persons);", employee_view(&store)),
        ("StudentView(persons);", student_view(&store)),
        ("TFView(persons);", tf_view(&store)),
    ] {
        let interpreted = s.eval_one(mach).unwrap().value;
        assert_eq!(interpreted, native.into_value(), "{mach}");
    }
}

#[test]
fn fig9_supported_student_is_intersection() {
    // val supported_student = join(StudentView(persons), EmployeeView(persons));
    let (mut s, uni) = university_session(UniversityParams {
        n_people: 80,
        seed: 5,
        ..Default::default()
    });
    s.run("val supported_student = join(StudentView(persons), EmployeeView(persons));")
        .unwrap();
    let out = s.eval_one("card(supported_student);").unwrap();
    let both = uni.roles.iter().filter(|r| r.0 && r.1).count();
    assert_eq!(out.show(), format!("val it = {both} : int"));
    // Every row carries the union of fields.
    let rows = s.eval_one("supported_student;").unwrap().value;
    let Value::Set(rows) = rows else { panic!() };
    for row in rows.iter() {
        let Value::Record(fs) = row else { panic!() };
        for f in ["Name", "Salary", "Advisor", "Id"] {
            assert!(fs.contains_key(f), "missing {f}");
        }
    }
}

#[test]
fn fig9_students_earning_more_than_their_advisors() {
    // Hand-built store with known salaries so the answer is exact.
    let prof = make_person(PersonSpec::new("Prof").salary(90000));
    let poor_prof = make_person(PersonSpec::new("PoorProf").salary(1000));
    let rich_tf = make_person(
        PersonSpec::new("RichTF")
            .salary(50000)
            .advisor(poor_prof.clone())
            .class("CS1"),
    );
    let modest_tf = make_person(
        PersonSpec::new("ModestTF")
            .salary(20000)
            .advisor(prof.clone())
            .class("CS2"),
    );
    let store = store_value(&[prof, poor_prof, rich_tf, modest_tf]);

    let mut s = Session::new();
    s.bind_external("persons", store, PERSON_STORE_TYPE)
        .unwrap();
    s.run(MACHIAVELLI_VIEWS).unwrap();
    s.run("val supported_student = join(StudentView(persons), EmployeeView(persons));")
        .unwrap();
    let out = s
        .eval_one(
            "select x.Name
             where x <- supported_student, y <- EmployeeView(persons)
             with x.Advisor = y.Id andalso x.Salary > y.Salary;",
        )
        .unwrap();
    assert_eq!(out.show(), r#"val it = {"RichTF"} : {string}"#);
}

#[test]
fn wealthy_method_is_inherited_by_subclass_views() {
    // §5: Wealthy applies to EmployeeView(persons) and, by inheritance
    // (record polymorphism), to TFView(persons).
    let (mut s, _) = university_session(UniversityParams {
        n_people: 120,
        seed: 8,
        ..Default::default()
    });
    s.run("fun Wealthy(S) = select x.Name where x <- S with x.Salary > 100000;")
        .unwrap();
    let on_employees = s.eval_one("Wealthy(EmployeeView(persons));").unwrap();
    let on_tfs = s.eval_one("Wealthy(TFView(persons));").unwrap();
    let Value::Set(emp) = &on_employees.value else {
        panic!()
    };
    let Value::Set(tfs) = &on_tfs.value else {
        panic!()
    };
    // TF wealthy names ⊆ employee wealthy names.
    assert!(tfs.is_subset(emp));
}

#[test]
fn shared_object_update_via_view() {
    // §5's reference semantics through views: update the object found in
    // a view; all views see the change.
    let (mut s, _) = university_session(UniversityParams {
        n_people: 10,
        seed: 2,
        ..Default::default()
    });
    // Give every employee a raise through the view's Id field.
    s.run(
        "val raises = select (x.Id := modify(!(x.Id), Salary, (Value of 999999)))
         where x <- EmployeeView(persons) with true;",
    )
    .unwrap();
    let out = s
        .eval_one("select x.Name where x <- EmployeeView(persons) with x.Salary = 999999;")
        .unwrap();
    let count = s.eval_one("card(EmployeeView(persons));").unwrap();
    let Value::Set(names) = &out.value else {
        panic!()
    };
    let Value::Int(n) = count.value else { panic!() };
    assert_eq!(names.len() as i64, n);
}

#[test]
fn projection_property_of_views() {
    // τ ≤ σ implies Project(View_σ(S), τ) ⊆ View_τ(S): checked in the
    // interpreter for Employee → Person.
    let (mut s, _) = university_session(UniversityParams {
        n_people: 40,
        seed: 13,
        ..Default::default()
    });
    let out = s
        .eval_one(
            "subset(select [Name = x.Name, Id = x.Id] where x <- EmployeeView(persons) with true,
                    PersonView(persons));",
        )
        .unwrap();
    assert_eq!(out.show(), "val it = true : bool");
}
