//! E9/E10 — §3.3's `Join3` conditional scheme and projection session;
//! §5's `unionc`, class `member`, and dynamics.

use machiavelli::value::Value;
use machiavelli::Session;
use machiavelli_fixtures::oodb::UniversityParams;
use machiavelli_fixtures::university_session;

#[test]
fn join3_session_from_section_3_3() {
    let mut s = Session::new();
    // -> val fun Join3(x,y,z) = join(x,join(y,z));
    // >> val Join3 = fn : ("a * "b * "c) -> "d
    //    where { "d = "a lub "e, "e = "b lub "c }
    let out = s
        .eval_one("fun Join3(x,y,z) = join(x, join(y,z));")
        .unwrap();
    assert_eq!(
        out.show(),
        "val Join3 = fn : (\"a * \"b * \"c) -> \"d where { \"d = \"a lub \"e, \"e = \"b lub \"c }"
    );

    // -> Join3([Name="Joe"],[Age=21],[Office=27]);
    // >> val it = [Name="Joe",Age=21,Office=27]
    //           : [Name:string,Age:int,Office:int]
    let out = s
        .eval_one(r#"Join3([Name="Joe"],[Age=21],[Office=27]);"#)
        .unwrap();
    assert_eq!(
        out.show(),
        r#"val it = [Age=21, Name="Joe", Office=27] : [Age:int,Name:string,Office:int]"#
    );

    // -> project(it,[Name:string]);
    // >> val it = [Name="Joe"] : [Name:string]
    let out = s.eval_one("project(it, [Name: string]);").unwrap();
    assert_eq!(out.show(), r#"val it = [Name="Joe"] : [Name:string]"#);
}

#[test]
fn join_and_con_static_error_from_section_2() {
    // join([Name=[First="Joe"], Age=21], [Name="Joe"]) "will cause a
    // (static) type error".
    let mut s = Session::new();
    let err = s
        .run(r#"join([Name=[First="Joe"], Age=21], [Name="Joe"]);"#)
        .unwrap_err();
    assert!(err.to_string().contains("no least upper bound"), "{err}");
    // con of the same operands is equally ill-typed.
    let err = s
        .run(r#"con([Name=[First="Joe"], Age=21], [Name="Joe"]);"#)
        .unwrap_err();
    assert!(err.to_string().contains("no least upper bound"), "{err}");
}

#[test]
fn con_examples_from_section_2() {
    let mut s = Session::new();
    let out = s
        .eval_one(r#"con([Name=[First="Joe"], Age=21], [Name=[Last="Doe"]]);"#)
        .unwrap();
    assert_eq!(out.show(), "val it = true : bool");
    let out = s
        .eval_one(r#"con([Name="Joe", Age=21], [Name="Sue"]);"#)
        .unwrap();
    assert_eq!(out.show(), "val it = false : bool");
}

#[test]
fn join_coincides_with_intersection_on_base_sets() {
    // "join ... coincides with intersection when applied to two sets of
    // the same base type, such as {int}".
    let mut s = Session::new();
    let out = s.eval_one("join({1,2,3}, {2,3,4});").unwrap();
    assert_eq!(out.show(), "val it = {2, 3} : {int}");
    let out = s.eval_one("intersect({1,2,3}, {2,3,4});").unwrap();
    assert_eq!(out.value, s.eval_one("{2,3};").unwrap().value);
}

#[test]
fn unionc_satisfies_the_papers_equation() {
    // union(s1,s2) = project(s1, δ1⊓δ2) ∪ project(s2, δ1⊓δ2).
    let mut s = Session::new();
    let lhs = s
        .eval_one(
            r#"unionc({[Name="a", Advisor=1], [Name="b", Advisor=2]},
                      {[Name="b", Salary=9], [Name="c", Salary=8]});"#,
        )
        .unwrap();
    // glb of the element types is [Name:string]; the equation's RHS:
    let rhs = s
        .eval_one(
            r#"union(project({[Name="a", Advisor=1], [Name="b", Advisor=2]}, {[Name: string]}),
                     project({[Name="b", Salary=9], [Name="c", Salary=8]}, {[Name: string]}));"#,
        )
        .unwrap();
    assert_eq!(lhs.value, rhs.value);
    assert_eq!(lhs.scheme.show(), "{[Name:string]}");
    // And it degenerates to plain union at equal types.
    let out = s.eval_one("unionc({1,2},{2,3});").unwrap();
    assert_eq!(out.show(), "val it = {1, 2, 3} : {int}");
}

#[test]
fn unionc_of_views_is_class_union() {
    let (mut s, uni) = university_session(UniversityParams {
        n_people: 50,
        seed: 21,
        ..Default::default()
    });
    let out = s
        .eval_one("card(unionc(StudentView(persons), EmployeeView(persons)));")
        .unwrap();
    let either = uni.roles.iter().filter(|r| r.0 || r.1).count();
    assert_eq!(out.show(), format!("val it = {either} : int"));
    // Only Person methods apply to the union: its type is {Person}-like.
    let ty = s
        .type_of("unionc(StudentView(persons), EmployeeView(persons));")
        .unwrap();
    // The class record has exactly Id and Name (the PersonObj *inside*
    // the ref still lists the optional Salary attribute, of course).
    assert!(ty.starts_with("{[Id:ref("), "{ty}");
    assert!(ty.ends_with(",Name:string]}"), "{ty}");
    assert!(
        !ty.contains("Salary:int,") && !ty.contains("Salary:int]"),
        "{ty}"
    );
}

#[test]
fn class_member_from_section_5() {
    // fun member(x,S) = join({x},S) <> {};
    let (mut s, _) = university_session(UniversityParams {
        n_people: 30,
        seed: 4,
        ..Default::default()
    });
    s.run("fun cmember(x,S) = join({x}, S) <> {};").unwrap();
    // Every employee-view row is a member of the person view (shared Id).
    let out = s
        .eval_one(
            "hom((fn(x) => cmember(x, PersonView(persons))), andalso, true,
                 EmployeeView(persons));",
        )
        .unwrap();
    assert_eq!(out.show(), "val it = true : bool");
}

#[test]
fn dynamics_have_creation_identity() {
    // "two dynamic values are equal only if they were created by the same
    // invocation of the function Dynamic".
    let mut s = Session::new();
    let out = s.eval_one("dynamic([A=1]) = dynamic([A=1]);").unwrap();
    assert_eq!(out.show(), "val it = false : bool");
    let out = s.eval_one("let d = dynamic([A=1]) in d = d end;").unwrap();
    assert_eq!(out.show(), "val it = true : bool");
}

#[test]
fn external_database_views_are_type_safe() {
    // The §5 ending: an external untyped database as {dynamic}, viewed as
    // typed classes. Coercion back out is checked at runtime.
    let mut s = Session::new();
    let out = s
        .eval_one(
            r#"val external = {dynamic([Name="e1", Salary=10]), dynamic([Dname="d1", Building="B2"])};"#,
        )
        .unwrap();
    assert_eq!(out.scheme.show(), "{dynamic}");
    // Coerce one element back (runtime-checked).
    let ok = s
        .eval_one(r#"dynamic(dynamic([Name="e1", Salary=10]), [Name: string, Salary: int]);"#)
        .unwrap();
    assert_eq!(
        ok.show(),
        r#"val it = [Name="e1", Salary=10] : [Name:string,Salary:int]"#
    );
    let err = s
        .run(r#"dynamic(dynamic([Dname="d"]), [Name: string, Salary: int]);"#)
        .unwrap_err();
    assert!(err.to_string().contains("does not conform"), "{err}");
}

#[test]
fn native_dynamic_views_compose_with_class_algebra() {
    use machiavelli_fixtures::oodb::{class_join, dynamic_view, employee_shape, gen_external_db};
    let db = gen_external_db(200, 17);
    let employees = dynamic_view(&db, &employee_shape());
    // Self-join is identity; join with a projected sub-view recovers it.
    let wealthy = employees.select(|v| {
        matches!(v, Value::Record(fs) if matches!(fs.get("Salary"), Some(Value::Int(s)) if *s > 100_000))
    });
    let j = class_join(&wealthy, &employees);
    assert_eq!(j, wealthy);
}
