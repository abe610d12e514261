//! E2/E3 — Figures 2 and 3: the part–supplier database in the
//! generalized relational model, and the two queries.

use machiavelli_fixtures::{fig2_session, PARTS_TYPE};

#[test]
fn parts_relation_has_paper_type() {
    let mut s = fig2_session();
    let out = s.eval_one("parts;").unwrap();
    // Paper (Figure 2): {[Pname:string, P#:int,
    //   Pinfo:<BasePart:[Cost:int],
    //          CompositePart:[SubParts:{[P#:int,Qty:int]}, AssemCost:int]>]}
    assert_eq!(
        out.scheme.show(),
        "{[P#:int,Pinfo:<BasePart:[Cost:int],CompositePart:[AssemCost:int,SubParts:{[P#:int,Qty:int]}]>,Pname:string]}"
    );
}

#[test]
fn parts_literal_written_in_machiavelli_agrees_with_native() {
    // Write the Figure 2 rows directly in Machiavelli and project onto
    // the paper's (closed) type; the resulting value must equal the
    // native generator's relation.
    let mut s = machiavelli::Session::new();
    let out = s
        .eval_one(&format!(
            r#"project(
              {{[Pname="bolt", P#=1, Pinfo=(BasePart of [Cost=5])],
                [Pname="nut", P#=2, Pinfo=(BasePart of [Cost=3])],
                [Pname="wheel", P#=100,
                 Pinfo=(CompositePart of [SubParts={{[P#=1,Qty=8],[P#=2,Qty=8]}},
                                          AssemCost=20])],
                [Pname="engine", P#=2189,
                 Pinfo=(CompositePart of [SubParts={{[P#=1,Qty=189],[P#=2,Qty=120]}},
                                          AssemCost=1000])]}},
              {PARTS_TYPE});"#
        ))
        .unwrap();
    assert_eq!(
        out.value,
        machiavelli_fixtures::relational::fig2_parts().into_value()
    );
}

#[test]
fn fig3_select_all_base_parts() {
    // -> join(parts, {[Pinfo=(BasePart of [])]});
    let mut s = fig2_session();
    let out = s
        .eval_one("join(parts, {[Pinfo=(BasePart of [])]});")
        .unwrap();
    // Type resolves to the full parts type (paper prints exactly that).
    assert_eq!(
        out.scheme.show(),
        "{[P#:int,Pinfo:<BasePart:[Cost:int],CompositePart:[AssemCost:int,SubParts:{[P#:int,Qty:int]}]>,Pname:string]}"
    );
    // Value: exactly the base parts.
    let expected = s
        .eval_one(
            r#"{[Pname="bolt", P#=1, Pinfo=(BasePart of [Cost=5])],
                      [Pname="nut", P#=2, Pinfo=(BasePart of [Cost=3])]};"#,
        )
        .unwrap();
    assert_eq!(out.value, expected.value);
}

#[test]
fn fig3_part_names_supplied_by_baker() {
    // -> select x.Pname
    //    where x <- join(parts, supplied_by)
    //    with Join3(x.Suppliers, suppliers, {[Sname="Baker"]}) <> {};
    let mut s = fig2_session();
    s.run("fun Join3(x,y,z) = join(x, join(y,z));").unwrap();
    let out = s
        .eval_one(
            r#"select x.Pname
               where x <- join(parts, supplied_by)
               with Join3(x.Suppliers, suppliers, {[Sname="Baker"]}) <> {};"#,
        )
        .unwrap();
    // Baker is S#1; bolt (P#1) and engine (P#2189) are supplied by S#1.
    assert_eq!(out.show(), r#"val it = {"bolt", "engine"} : {string}"#);
}

#[test]
fn join_parts_supplied_by_is_natural_join_on_pno() {
    let mut s = fig2_session();
    let out = s.eval_one("card(join(parts, supplied_by));").unwrap();
    // supplied_by covers P# 1, 2, 2189 — all present in parts.
    assert_eq!(out.show(), "val it = 3 : int");
}

#[test]
fn higher_order_join_agrees_with_native_nested_loop() {
    let mut s = fig2_session();
    let interpreted = s.eval_one("join(parts, supplied_by);").unwrap().value;
    let native = machiavelli_fixtures::relational::nested_loop_join(
        &machiavelli_fixtures::relational::fig2_parts(),
        &machiavelli_fixtures::relational::fig2_supplied_by(),
    );
    assert_eq!(interpreted, native.into_value());
}

#[test]
fn fig3_join_filter_respects_variant_branch() {
    // Composite parts are excluded by the BasePart filter at the value
    // level (variant branches must match for consistency).
    let mut s = fig2_session();
    let out = s
        .eval_one("card(join(parts, {[Pinfo=(CompositePart of [AssemCost=1000])]}));")
        .unwrap();
    // Only the engine has AssemCost exactly 1000.
    assert_eq!(out.show(), "val it = 1 : int");
}
