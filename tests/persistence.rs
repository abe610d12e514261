//! Persistence (§6 future work) end-to-end: whole databases round-trip
//! through the save/load layer, including the OODB object graphs.

use machiavelli::value::Value;
use machiavelli::{decode_value, encode_value, Session};
use machiavelli_fixtures::oodb::{gen_university, person_field, UniversityParams};
use machiavelli_fixtures::relational::gen_part_supplier;
use machiavelli_fixtures::{fig2_session, PARTS_TYPE};

#[test]
fn part_supplier_database_roundtrips() {
    let db = gen_part_supplier(50, 10, 0.5, 77);
    let original = db.parts.clone().into_value();
    let decoded = decode_value(&encode_value(&original).unwrap()).unwrap();
    assert_eq!(decoded, original);
}

#[test]
fn saved_session_answers_the_same_queries() {
    let mut s1 = fig2_session();
    let saved = s1
        .save_bindings(&["parts", "suppliers", "supplied_by"])
        .unwrap();

    let mut s2 = Session::new();
    let names = s2.load_bindings(&saved).unwrap();
    assert_eq!(names.len(), 3);
    s2.run("fun Join3(x,y,z) = join(x, join(y,z));").unwrap();

    let q = r#"select x.Pname
               where x <- join(parts, supplied_by)
               with Join3(x.Suppliers, suppliers, {[Sname="Baker"]}) <> {};"#;
    s1.run("fun Join3(x,y,z) = join(x, join(y,z));").unwrap();
    assert_eq!(s1.eval_one(q).unwrap().value, s2.eval_one(q).unwrap().value);
}

#[test]
fn university_object_graph_roundtrips_with_sharing() {
    // Advisor edges are shared references; after a round trip, a student's
    // advisor must be the *same object* as the corresponding person.
    let uni = gen_university(UniversityParams {
        n_people: 40,
        seed: 31,
        ..Default::default()
    });
    let store = uni.store();
    let decoded = decode_value(&encode_value(&store).unwrap()).unwrap();

    let Value::Set(objs) = &decoded else { panic!() };
    assert_eq!(objs.len(), 40);
    // Collect the ids present in the store; every advisor edge must point
    // at one of them (sharing preserved, no duplicated advisor copies).
    let ids: std::collections::HashSet<u64> = objs
        .iter()
        .filter_map(|v| match v {
            Value::Ref(r) => Some(r.id),
            _ => None,
        })
        .collect();
    let mut advisor_edges = 0;
    for v in objs.iter() {
        let Value::Ref(r) = v else { continue };
        let advisor = person_field(r, "Advisor").unwrap();
        if let Value::Variant(tag, payload) = &advisor {
            if tag == "Value" {
                let Value::Ref(a) = &**payload else { panic!() };
                assert!(ids.contains(&a.id), "advisor outside the store");
                advisor_edges += 1;
            }
        }
    }
    assert_eq!(advisor_edges, uni.count_students());
}

#[test]
fn loaded_views_behave_identically() {
    let uni = gen_university(UniversityParams {
        n_people: 30,
        seed: 5,
        ..Default::default()
    });
    let mut s = Session::new();
    s.bind_external(
        "persons",
        uni.store(),
        machiavelli_fixtures::oodb::PERSON_STORE_TYPE,
    )
    .unwrap();
    s.run(machiavelli_fixtures::oodb::MACHIAVELLI_VIEWS)
        .unwrap();
    let before = s.eval_one("card(EmployeeView(persons));").unwrap().value;

    let saved = s.save_bindings(&["persons"]).unwrap();
    let mut s2 = Session::new();
    s2.load_bindings(&saved).unwrap();
    s2.run(machiavelli_fixtures::oodb::MACHIAVELLI_VIEWS)
        .unwrap();
    let after = s2.eval_one("card(EmployeeView(persons));").unwrap().value;
    assert_eq!(before, after);
}

#[test]
fn load_rejects_corrupted_data() {
    let s = fig2_session();
    let saved = s.save_bindings(&["suppliers"]).unwrap();
    let mut s2 = Session::new();
    // Truncations and bit flips must be rejected, not crash.
    for end in [1, saved.len() / 2, saved.len() - 1] {
        assert!(
            s2.load_bindings(&saved[..end]).is_err(),
            "truncated at {end}"
        );
    }
    let corrupted = saved.replace("suppliers", "suppliersX");
    assert!(s2.load_bindings(&corrupted).is_err());
}

#[test]
fn dynamic_payloads_roundtrip() {
    let mut s = Session::new();
    s.run(r#"val external = {dynamic([Name="e1", Salary=10])};"#)
        .unwrap();
    let saved = s.save_bindings(&["external"]).unwrap();
    let mut s2 = Session::new();
    s2.load_bindings(&saved).unwrap();
    let out = s2
        .eval_one("hom((fn(d) => dynamic(d, [Name: string, Salary: int]).Salary), +, 0, external);")
        .unwrap();
    assert_eq!(out.show(), "val it = 10 : int");
}

#[test]
fn values_bound_via_external_types_roundtrip() {
    // The printed type of a bound relation must re-parse on load
    // (exercises the type printer ↔ type parser loop).
    let mut s = Session::new();
    s.bind_external(
        "r",
        machiavelli_fixtures::relational::fig2_parts().into_value(),
        PARTS_TYPE,
    )
    .unwrap();
    let saved = s.save_bindings(&["r"]).unwrap();
    let mut s2 = Session::new();
    s2.load_bindings(&saved).unwrap();
    assert_eq!(s2.eval_one("card(r);").unwrap().show(), "val it = 4 : int");
}
