//! E5 — Figure 5: the recursive `cost` function and `expensive_parts`,
//! verified against the native cost computation.

use machiavelli_fixtures::relational::native_cost;
use machiavelli_fixtures::{fig2_session, scaled_parts_session, FIG5_POLY_SOURCE, FIG5_SOURCE};

#[test]
fn cost_type_as_written_is_pinned_by_the_global_parts() {
    let mut s = fig2_session();
    let outs = s.run(FIG5_SOURCE).unwrap();
    // The paper prints an open-row scheme
    //   [('a) Pinfo:<BasePart:[('c) Cost:int], …>] -> int
    // but `cost` recurses through the *global* `parts` (cost(z) with
    // z <- parts), so under Milner-style monomorphic recursion the
    // argument type is the concrete parts row. The
    // polymorphic behaviour the paper demonstrates is recovered by the
    // db-as-parameter variant tested below.
    assert_eq!(
        outs[0].scheme.show(),
        "[P#:int,Pinfo:<BasePart:[Cost:int],CompositePart:[AssemCost:int,SubParts:{[P#:int,Qty:int]}]>,Pname:string] -> int"
    );
}

#[test]
fn cost_in_variant_has_the_papers_polymorphic_shape() {
    let mut s = fig2_session();
    let outs = s.run(FIG5_POLY_SOURCE).unwrap();
    // Row-polymorphic in both the part record and the nested payloads,
    // exactly the shape the paper prints for `cost` (modulo the explicit
    // database parameter).
    assert_eq!(
        outs[0].scheme.show(),
        "({[(\"a) P#:\"b,Pinfo:<BasePart:[(\"c) Cost:int],CompositePart:[(\"d) AssemCost:int,SubParts:{[(\"e) P#:\"b,Qty:int]}]>]} * [(\"a) P#:\"b,Pinfo:<BasePart:[(\"c) Cost:int],CompositePart:[(\"d) AssemCost:int,SubParts:{[(\"e) P#:\"b,Qty:int]}]>]) -> int"
    );
    let ep = outs[1].scheme.show();
    assert!(ep.contains("* int) -> {"), "{ep}");
}

#[test]
fn engine_cost_matches_native() {
    let mut s = fig2_session();
    s.run(FIG5_SOURCE).unwrap();
    let out = s
        .eval_one(
            r#"cost([Pname="engine", P#=2189,
                           Pinfo=(CompositePart of [SubParts={[P#=1,Qty=189],[P#=2,Qty=120]},
                                                    AssemCost=1000])]);"#,
        )
        .unwrap();
    // 1000 + 5*189 + 3*120 = 2305, also checked natively.
    assert_eq!(out.show(), "val it = 2305 : int");
    assert_eq!(
        native_cost(&machiavelli_fixtures::relational::fig2_parts(), 2189),
        Some(2305)
    );
}

#[test]
fn expensive_parts_query() {
    // -> expensive_parts(parts, 1000);  >> {"engine", ...}
    let mut s = fig2_session();
    s.run(FIG5_SOURCE).unwrap();
    let out = s.eval_one("expensive_parts(parts, 1000);").unwrap();
    assert_eq!(out.show(), r#"val it = {"engine"} : {string}"#);
    // Lower threshold picks up the wheel too (cost 20 + 8·5 + 8·3 = 84).
    let out = s.eval_one("expensive_parts(parts, 50);").unwrap();
    assert_eq!(out.show(), r#"val it = {"engine", "wheel"} : {string}"#);
}

#[test]
fn cost_is_polymorphic_across_part_databases() {
    // "these functions can be shared by all those databases" — apply the
    // db-as-parameter variant to a second database with extra fields.
    let mut s = fig2_session();
    s.run(FIG5_POLY_SOURCE).unwrap();
    let out = s
        .eval_one(
            r#"expensive_parts_in({[Pname="gadget", P#=1, Origin="NL",
                                    Pinfo=(BasePart of [Cost=9999])]}, 1000);"#,
        )
        .unwrap();
    assert_eq!(out.show(), r#"val it = {"gadget"} : {string}"#);
    // And both variants agree on the paper's database.
    s.run(FIG5_SOURCE).unwrap();
    let a = s.eval_one("expensive_parts(parts, 50);").unwrap();
    let b = s.eval_one("expensive_parts_in(parts, 50);").unwrap();
    assert_eq!(a.value, b.value);
}

#[test]
fn interpreted_cost_matches_native_on_generated_db() {
    let (mut s, db) = scaled_parts_session(25, 5, 7);
    s.run(FIG5_SOURCE).unwrap();
    // Compare every part's interpreted cost with the native baseline.
    let out = s
        .eval_one("select [P = x.P#, C = cost(x)] where x <- parts with true;")
        .unwrap();
    let machiavelli::value::Value::Set(rows) = &out.value else {
        panic!()
    };
    assert_eq!(rows.len(), db.parts.len());
    for row in rows.iter() {
        let machiavelli::value::Value::Record(fs) = row else {
            panic!()
        };
        let machiavelli::value::Value::Int(p) = fs["P"] else {
            panic!()
        };
        let machiavelli::value::Value::Int(c) = fs["C"] else {
            panic!()
        };
        assert_eq!(native_cost(&db.parts, p), Some(c), "part {p}");
    }
}
