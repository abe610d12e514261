//! A feature matrix for the whole language, beyond the paper's figures:
//! §3.2's expression forms, the §5 reference semantics, static error
//! coverage, and runtime error coverage.

use machiavelli::{Session, SessionError};

fn run(s: &mut Session, src: &str) -> String {
    s.eval_one(src)
        .unwrap_or_else(|e| panic!("{src}: {e}"))
        .show()
}

fn type_err(s: &mut Session, src: &str) -> String {
    match s.run(src) {
        Err(SessionError::Type(e)) => e.to_string(),
        Err(other) => panic!("{src}: expected type error, got {other}"),
        Ok(_) => panic!("{src}: expected type error, got success"),
    }
}

fn eval_err(s: &mut Session, src: &str) -> String {
    match s.run(src) {
        Err(SessionError::Eval(e)) => e.to_string(),
        Err(other) => panic!("{src}: expected runtime error, got {other}"),
        Ok(_) => panic!("{src}: expected runtime error, got success"),
    }
}

#[test]
fn department_update_example_from_section_5() {
    // The paper's exact scenario: two employees sharing a department; an
    // update seen from emp1 is reflected at emp2.
    let mut s = Session::new();
    s.run(
        r#"
        val d = ref([Dname="Sales", Building=45]);
        val emp1 = [Name = "Jones", Department = d];
        val emp2 = [Name = "Smith", Department = d];
    "#,
    )
    .unwrap();
    s.run("let val d = emp1.Department in d := modify(!d, Building, 67) end;")
        .unwrap();
    assert_eq!(
        run(&mut s, "(!(emp2.Department)).Building;"),
        "val it = 67 : int"
    );
}

#[test]
fn arithmetic_and_string_matrix() {
    let mut s = Session::new();
    assert_eq!(run(&mut s, "7 div 2 + 7 mod 2;"), "val it = 4 : int");
    assert_eq!(run(&mut s, "1.5 + 2.5;"), "val it = 4.0 : real");
    assert_eq!(run(&mut s, "10.0 / 4.0;"), "val it = 2.5 : real");
    assert_eq!(
        run(&mut s, r#""data" ^ "base";"#),
        r#"val it = "database" : string"#
    );
    assert_eq!(run(&mut s, "-(2 - 5);"), "val it = 3 : int");
    assert_eq!(
        run(&mut s, "1 <= 1 andalso 2 >= 3 orelse true;"),
        "val it = true : bool"
    );
}

#[test]
fn nested_comprehensions() {
    let mut s = Session::new();
    // A select whose source is itself a select.
    assert_eq!(
        run(
            &mut s,
            "select x * 10
             where x <- (select y + 1 where y <- {1,2,3} with y > 1)
             with true;"
        ),
        "val it = {30, 40} : {int}"
    );
    // Sets of sets.
    assert_eq!(
        run(
            &mut s,
            "card(select union(a, b) where a <- {{1},{2}}, b <- {{3}} with true);"
        ),
        "val it = 2 : int"
    );
}

#[test]
fn dependent_generators() {
    // Later generators may mention earlier variables (a generalization of
    // the paper's prod-based semantics).
    let mut s = Session::new();
    assert_eq!(
        run(
            &mut s,
            "select (d, e) where d <- {{1,2},{3}}, e <- d with true;"
        ),
        "val it = {({1, 2}, 1), ({1, 2}, 2), ({3}, 3)} : {{int} * int}"
    );
}

#[test]
fn higher_order_functions() {
    let mut s = Session::new();
    assert_eq!(
        run(
            &mut s,
            "fun twice(f, x) = f(f(x)); twice((fn(n) => n * 3), 2);"
        ),
        "val it = 18 : int"
    );
    assert_eq!(
        run(
            &mut s,
            "fun compose(f, g) = (fn(x) => f(g(x))); \
                     compose((fn(n) => n + 1), (fn(n) => n * 2))(10);"
        ),
        "val it = 21 : int"
    );
    // Polymorphic higher-order: map over a field selector.
    assert_eq!(
        run(
            &mut s,
            "map((fn(r) => r.A), {[A=1, B=true], [A=2, B=false]});"
        ),
        "val it = {1, 2} : {int}"
    );
}

#[test]
fn prelude_types_are_the_expected_schemes() {
    let s = Session::new();
    for (name, scheme) in [
        ("map", "((\"a -> \"b) * {\"a}) -> {\"b}"),
        ("filter", "((\"a -> bool) * {\"a}) -> {\"a}"),
        ("member", "(\"a * {\"a}) -> bool"),
        ("prod", "({\"a} * {\"b}) -> {\"a * \"b}"),
        ("intersect", "({\"a} * {\"a}) -> {\"a}"),
        ("diff", "({\"a} * {\"a}) -> {\"a}"),
        ("subset", "({\"a} * {\"a}) -> bool"),
        ("card", "{\"a} -> int"),
        ("sum", "{int} -> int"),
        ("powerset", "{\"a} -> {{\"a}}"),
    ] {
        assert_eq!(s.scheme_of(name).unwrap().show(), scheme, "{name}");
    }
}

#[test]
fn static_error_matrix() {
    let mut s = Session::new();
    assert!(type_err(&mut s, "[A=1].B;").contains("no field `B`"));
    assert!(type_err(&mut s, "1 + true;").contains("mismatch"));
    assert!(type_err(&mut s, "{1, \"x\"};").contains("mismatch"));
    assert!(type_err(&mut s, "{(fn(x) => x)};").contains("not a description type"));
    assert!(type_err(&mut s, "modify([A=1], B, 2);").contains("no field `B`"));
    assert!(type_err(&mut s, "let r = ref(1) in r := true end;").contains("mismatch"));
    assert!(type_err(&mut s, "join([A=1], [A=\"x\"]);").contains("no least upper bound"));
    assert!(type_err(&mut s, "project([A=1], [B: int]);").contains("no field `B`"));
    assert!(type_err(&mut s, "project(1, string);").contains("mismatch"));
    assert!(type_err(&mut s, "select x where x <- {1} with x;").contains("mismatch"));
    assert!(type_err(&mut s, "hom((fn(x) => x), +, \"z\", {1});").contains("mismatch"));
    assert!(type_err(&mut s, "if 1 then 2 else 3;").contains("mismatch"));
    assert!(type_err(&mut s, "(case (A of 1) of B of x => x);").contains("type"));
    assert!(type_err(&mut s, "nosuchvar;").contains("unbound variable"));
    assert!(type_err(&mut s, "!3;").contains("mismatch"));
    assert!(type_err(&mut s, "union({1}, {\"a\"});").contains("mismatch"));
}

#[test]
fn runtime_error_matrix() {
    let mut s = Session::new();
    assert!(eval_err(&mut s, "1 div 0;").contains("Div"));
    assert!(eval_err(&mut s, "hom*((fn(x) => x), +, {});").contains("empty set"));
    assert!(eval_err(&mut s, "(A of 1) as B;").contains("`as B`"));
    assert!(eval_err(&mut s, "dynamic(dynamic(1), string);").contains("does not conform"));
    assert!(eval_err(&mut s, "raise \"kaboom\";").contains("kaboom"));
    // The session survives all of it.
    assert_eq!(run(&mut s, "1;"), "val it = 1 : int");
}

#[test]
fn shadowing_and_scoping() {
    let mut s = Session::new();
    assert_eq!(
        run(&mut s, "let x = 1 in let x = x + 1 in x * 10 end end;"),
        "val it = 20 : int"
    );
    // Top-level rebinding shadows (like the paper's interactive session).
    s.run("val v = 1;").unwrap();
    s.run("val v = \"now a string\";").unwrap();
    assert_eq!(run(&mut s, "v;"), "val it = \"now a string\" : string");
    // Closures capture their definition environment, not the caller's.
    s.run("val k = 10; fun addk(x) = x + k; val k = 1000;")
        .unwrap();
    assert_eq!(run(&mut s, "addk(5);"), "val it = 15 : int");
}

#[test]
fn hom_with_all_operator_values() {
    let mut s = Session::new();
    assert_eq!(
        run(&mut s, "hom((fn(x) => x), *, 1, {1,2,3,4});"),
        "val it = 24 : int"
    );
    assert_eq!(
        run(&mut s, "hom((fn(x) => x > 1), orelse, false, {0,1,2});"),
        "val it = true : bool"
    );
    assert_eq!(
        run(&mut s, "hom((fn(x) => x), ^, \"\", {\"a\",\"b\"});"),
        "val it = \"ab\" : string"
    );
    assert_eq!(
        run(&mut s, "hom*((fn(x) => x), *, {2,3,7});"),
        "val it = 42 : int"
    );
}

#[test]
fn equality_is_deep_on_descriptions() {
    let mut s = Session::new();
    assert_eq!(
        run(&mut s, "[A={1,2}, B=[C=\"x\"]] = [A={2,1,1}, B=[C=\"x\"]];"),
        "val it = true : bool"
    );
    assert_eq!(
        run(&mut s, "(X of {1}) = (X of {2});"),
        "val it = false : bool"
    );
    // But refs compare by identity even with equal contents.
    assert_eq!(
        run(&mut s, "[R=ref(1)] = [R=ref(1)];"),
        "val it = false : bool"
    );
}

#[test]
fn variant_heavy_program() {
    let mut s = Session::new();
    s.run(
        r#"
        fun area(shape) =
          (case shape of
             Circle of r => r * r * 3,
             Rect of d => d.W * d.H,
             Point of u => 0);
    "#,
    )
    .unwrap();
    assert_eq!(
        run(&mut s, "area((Rect of [W=3, H=4]));"),
        "val it = 12 : int"
    );
    assert_eq!(run(&mut s, "area((Circle of 2));"), "val it = 12 : int");
    assert_eq!(run(&mut s, "area((Point of ()));"), "val it = 0 : int");
    // Sets of variants and selection by branch.
    assert_eq!(
        run(
            &mut s,
            "card(select s where s <- {(Circle of 1), (Rect of [W=1,H=1]), (Circle of 2)}
                  with (case s of Circle of r => true, other => false));"
        ),
        "val it = 2 : int"
    );
}

#[test]
fn recursive_data_through_refs() {
    // Cyclic data needs an explicitly recursive type (inference keeps
    // types finite, as documented): build a two-node ring natively, bind
    // it with a `rec` type, and walk it in Machiavelli.
    use machiavelli::value::{RefValue, Value};
    let a = RefValue::new(Value::Unit);
    let b = RefValue::new(Value::record([
        ("Name".into(), Value::str("b")),
        ("Next".into(), Value::variant("Some", Value::Ref(a.clone()))),
    ]));
    a.set(
        Value::record([
            ("Name".into(), Value::str("a")),
            ("Next".into(), Value::variant("Some", Value::Ref(b.clone()))),
        ]),
        &machiavelli::value::Unobserved,
    );
    let mut s = Session::new();
    s.bind_external(
        "ring",
        Value::set([Value::Ref(a), Value::Ref(b)]),
        "{rec n . ref([Name: string, Next: <None: unit, Some: n>])}",
    )
    .unwrap();
    // Each node's successor's successor is itself (object identity). The
    // generator grounds x's recursive type before the predicate is typed
    // (a lambda passed to hom would need bidirectional checking).
    assert_eq!(
        run(
            &mut s,
            "card(select x where x <- ring
                  with ((!((!x).Next as Some)).Next as Some) = x);"
        ),
        "val it = 2 : int"
    );
    assert_eq!(
        run(&mut s, "select (!x).Name where x <- ring with true;"),
        r#"val it = {"a", "b"} : {string}"#
    );
}

#[test]
fn cyclic_inference_is_rejected_not_crashed() {
    // Tying a ref knot *within inferred types* needs a recursive type;
    // the occurs check reports it as a type error (and the error message
    // renders the cyclic kind without looping).
    let mut s = Session::new();
    s.run(
        r#"
        val a = ref([Name="a", Next=(None of ())]);
        val b = ref([Name="b", Next=(Some of a)]);
    "#,
    )
    .unwrap();
    let err = type_err(&mut s, "a := modify(!a, Next, (Some of b));");
    assert!(err.contains("occurs check"), "{err}");
}

#[test]
fn project_on_variants_and_sets() {
    let mut s = Session::new();
    // Projection inside a variant payload.
    assert_eq!(
        run(
            &mut s,
            "project((A of [X=1, Y=2]), <A: [X: int], B: string>);"
        ),
        "val it = (A of [X=1]) : <A:[X:int],B:string>"
    );
    // Lifted over sets, merging newly equal elements.
    assert_eq!(
        run(
            &mut s,
            "card(project({[X=1, Y=1], [X=1, Y=2]}, {[X: int]}));"
        ),
        "val it = 1 : int"
    );
}

#[test]
fn unit_and_tuples() {
    let mut s = Session::new();
    assert_eq!(run(&mut s, "();"), "val it = () : unit");
    assert_eq!(run(&mut s, "(1, (2, 3)).#2.#1;"), "val it = 2 : int");
    assert_eq!(
        run(&mut s, "{((), 1)};"),
        "val it = {((), 1)} : {unit * int}"
    );
}

#[test]
fn long_session_stays_consistent() {
    // A miniature end-to-end workload: build, query, update, re-query.
    let mut s = Session::new();
    s.run(
        r#"
        val people = {[Name="a", Age=20], [Name="b", Age=30], [Name="c", Age=40]};
        fun adults(S) = select x.Name where x <- S with x.Age >= 30;
        val first = adults(people);
        val people2 = union(people, {[Name="d", Age=50]});
        val second = adults(people2);
    "#,
    )
    .unwrap();
    assert_eq!(run(&mut s, "first;"), r#"val it = {"b", "c"} : {string}"#);
    assert_eq!(
        run(&mut s, "second;"),
        r#"val it = {"b", "c", "d"} : {string}"#
    );
    assert_eq!(
        run(&mut s, "diff(second, first);"),
        r#"val it = {"d"} : {string}"#
    );
}

#[test]
fn a_failed_evaluation_binds_nothing() {
    // The scheme is bound only once evaluation succeeds: a phrase that
    // type-checks and then fails at run time leaves both environments
    // as they were.
    let mut s = Session::new();
    run(&mut s, r#"val v = "str";"#);
    assert!(eval_err(&mut s, "val v = 1 div 0;").contains("Div"));
    assert_eq!(run(&mut s, "v;"), r#"val it = "str" : string"#);
    run(&mut s, r#""hello";"#);
    eval_err(&mut s, "1 div 0;");
    assert!(!type_err(&mut s, "it + 1;").is_empty());
    assert_eq!(run(&mut s, "it ^ \"!\";"), r#"val it = "hello!" : string"#);
}

#[test]
fn a_failed_inference_leaves_no_inner_binder_behind() {
    // The second generator is ill-typed after the first has bound `x`:
    // `x` must not survive into the session's top level.
    let mut s = Session::new();
    assert!(type_err(&mut s, "select x where x <- {1}, y <- nope with true;").contains("nope"));
    assert!(type_err(&mut s, "x;").contains("`x`"));
}
