//! E4 — Figure 4: the polymorphic transitive closure, in the language and
//! against the native implementations.

use machiavelli::Session;
use machiavelli_fixtures::relational::{
    chain_edges, closure_relation, edges_to_relation, gen_edges, naive_closure, seminaive_closure,
    Relation,
};

#[test]
fn closure_type_matches_paper_modulo_equality() {
    // Paper prints {[A:"a,B:"b]} -> {[A:"a,B:"b]}; its own predicate
    // `x.B = y.A` equates the two field types, so the principal scheme
    // identifies them.
    let s = Session::new();
    assert_eq!(
        s.scheme_of("Closure").unwrap().show(),
        "{[A:\"a,B:\"a]} -> {[A:\"a,B:\"a]}"
    );
}

#[test]
fn closure_of_small_graph_in_machiavelli() {
    let mut s = Session::new();
    let out = s
        .eval_one("Closure({[A=1,B=2],[A=2,B=3],[A=3,B=4]});")
        .unwrap();
    let expected = s
        .eval_one("{[A=1,B=2],[A=2,B=3],[A=3,B=4],[A=1,B=3],[A=2,B=4],[A=1,B=4]};")
        .unwrap();
    assert_eq!(out.value, expected.value);
}

#[test]
fn closure_is_polymorphic_in_field_type() {
    // Works on string-labelled graphs too — the paper's point about
    // "any binary relation".
    let mut s = Session::new();
    let out = s
        .eval_one(r#"card(Closure({[A="x",B="y"],[A="y",B="z"]}));"#)
        .unwrap();
    assert_eq!(out.show(), "val it = 3 : int");
}

#[test]
fn renaming_adapts_other_binary_relations() {
    // "By using a renaming operation, this function can be used to
    // compute the transitive closure of any binary relation."
    let r = Relation::from_rows([
        machiavelli_fixtures::relational::row(&[
            ("Src", machiavelli::value::Value::Int(1)),
            ("Dst", machiavelli::value::Value::Int(2)),
        ]),
        machiavelli_fixtures::relational::row(&[
            ("Src", machiavelli::value::Value::Int(2)),
            ("Dst", machiavelli::value::Value::Int(3)),
        ]),
    ]);
    let renamed = r.rename("Src", "A").rename("Dst", "B");
    let closed = closure_relation(&renamed, true);
    assert_eq!(closed.len(), 3);
}

#[test]
fn interpreter_matches_native_closures_on_random_graphs() {
    let mut s = Session::new();
    for seed in 0..3 {
        let edges = gen_edges(8, 12, seed);
        let rel = edges_to_relation(&edges);
        s.bind_external("g", rel.clone().into_value(), "{[A: int, B: int]}")
            .unwrap();
        let interpreted = s.eval_one("Closure(g);").unwrap().value;
        let native_naive = closure_relation(&rel, false).into_value();
        let native_semi = closure_relation(&rel, true).into_value();
        assert_eq!(interpreted, native_naive, "seed {seed}");
        assert_eq!(interpreted, native_semi, "seed {seed}");
    }
}

#[test]
fn native_closures_agree_on_chains_and_random_graphs() {
    for n in [0, 1, 5, 20] {
        let edges = chain_edges(n);
        assert_eq!(naive_closure(&edges), seminaive_closure(&edges));
    }
    for seed in 0..5 {
        let edges = gen_edges(30, 60, seed);
        assert_eq!(naive_closure(&edges), seminaive_closure(&edges));
    }
}

#[test]
fn closure_result_is_transitively_closed_and_minimal() {
    let edges = gen_edges(15, 25, 99);
    let closed = seminaive_closure(&edges);
    // Closed under composition:
    for &(a, b) in &closed {
        for &(c, d) in &closed {
            if b == c {
                assert!(closed.contains(&(a, d)), "missing ({a},{d})");
            }
        }
    }
    // Contains the original edges.
    for e in &edges {
        assert!(closed.contains(e));
    }
    // Sound: every pair is reachable in the original graph.
    let reach = |from: i64, to: i64| -> bool {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            for &(a, b) in &edges {
                if a == x && seen.insert(b) {
                    if b == to {
                        return true;
                    }
                    stack.push(b);
                }
            }
        }
        false
    };
    for &(a, b) in &closed {
        assert!(reach(a, b), "unsound pair ({a},{b})");
    }
}
