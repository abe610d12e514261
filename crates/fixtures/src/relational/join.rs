//! The paper's generalized join on sets, natively: the natural join of
//! \[BJO89\], `{ x ⊔ y | x ∈ r, y ∈ s, x ↑ y }`.
//!
//! [`nested_loop_join`] is the fully general O(n·m) semantics, using
//! value-level `con`/`join`, so it supports *partial* overlap of nested
//! records, where consistency is weaker than equality. It shares no
//! code with the engine's `join` or its planned hash join, which makes
//! it their independent oracle (`tests/properties.rs`,
//! `tests/paper_fig2_fig3.rs`).

use crate::relation::Relation;
use machiavelli::value::{con_value, join_value};

/// General nested-loop natural join via `con`/`join` (the evaluator's
/// semantics).
pub fn nested_loop_join(r: &Relation, s: &Relation) -> Relation {
    let mut out = Vec::new();
    for x in r.iter() {
        for y in s.iter() {
            if con_value(x, y) {
                // Consistency guarantees the join exists.
                out.push(join_value(x, y).expect("consistent values join"));
            }
        }
    }
    Relation::from_rows(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::row;
    use machiavelli::value::Value;

    fn r_ab() -> Relation {
        Relation::from_rows([
            row(&[("A", Value::Int(1)), ("B", Value::Int(10))]),
            row(&[("A", Value::Int(2)), ("B", Value::Int(20))]),
            row(&[("A", Value::Int(3)), ("B", Value::Int(10))]),
        ])
    }

    fn s_bc() -> Relation {
        Relation::from_rows([
            row(&[("B", Value::Int(10)), ("C", Value::str("x"))]),
            row(&[("B", Value::Int(30)), ("C", Value::str("y"))]),
        ])
    }

    #[test]
    fn no_common_attributes_gives_product() {
        let r = Relation::from_rows([row(&[("A", Value::Int(1))]), row(&[("A", Value::Int(2))])]);
        let s = Relation::from_rows([row(&[("C", Value::Int(7))])]);
        assert_eq!(nested_loop_join(&r, &s).len(), 2);
    }

    #[test]
    fn same_schema_join_is_intersection() {
        let r = r_ab();
        let s = Relation::from_rows([
            row(&[("A", Value::Int(1)), ("B", Value::Int(10))]),
            row(&[("A", Value::Int(9)), ("B", Value::Int(90))]),
        ]);
        let j = nested_loop_join(&r, &s);
        assert_eq!(
            j,
            Relation::from_rows([row(&[("A", Value::Int(1)), ("B", Value::Int(10))])])
        );
    }

    #[test]
    fn nested_loop_handles_partial_nested_overlap() {
        // Nested records where consistency is weaker than equality on the
        // common attribute: [N=[First]] vs [N=[Last]] join into one row —
        // a join keyed on equality of N would pair nothing here.
        let r = Relation::from_rows([row(&[("N", row(&[("First", Value::str("Joe"))]))])]);
        let s = Relation::from_rows([row(&[
            ("N", row(&[("Last", Value::str("Doe"))])),
            ("Age", Value::Int(21)),
        ])]);
        let j = nested_loop_join(&r, &s);
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn structural_keys_survive_renderer_collisions() {
        use machiavelli::store::{EngineCtx, Mode};
        // These two key values are distinct but print identically (a
        // crafted label containing "=2, " forges the 3-field record's
        // display form).
        let honest_key = Value::record([
            ("A".into(), Value::Int(1)),
            ("B".into(), Value::Int(2)),
            ("C".into(), Value::Int(3)),
        ]);
        let forged_key = Value::record([
            ("A".into(), Value::Int(1)),
            ("B=2, C".into(), Value::Int(3)),
        ]);
        assert_eq!(
            machiavelli::value::show_value(&honest_key),
            machiavelli::value::show_value(&forged_key),
            "the renderer collision this test guards against must exist"
        );
        assert_ne!(honest_key, forged_key);
        // The engine's hash join, run untyped (the forged label has no
        // type syntax), with the index store on so the build is cached.
        let hash_join = |r: &Relation, s: &Relation| {
            let env = machiavelli::eval::builtin_env()
                .bind("r", r.clone().into_value())
                .bind("s", s.clone().into_value());
            let expr = machiavelli::syntax::parse_expr(
                "select [K = x.K, X = x.X, Y = y.Y] where x <- r, y <- s with x.K = y.K",
            )
            .unwrap();
            let ctx = EngineCtx::default();
            ctx.set_mode(Mode::planned(true));
            let out = machiavelli::eval::eval_expr(&ctx, &env, &expr).unwrap();
            let st = ctx.with_store(|st| st.stats());
            assert!(st.entries >= 1, "the hash join built no table: {st:?}");
            Relation::from_value(&out)
        };
        let r = Relation::from_rows([row(&[("K", honest_key.clone()), ("X", Value::Int(7))])]);
        let s = Relation::from_rows([row(&[("K", forged_key.clone()), ("Y", Value::Int(8))])]);
        // The equality-keyed join must NOT pair the rows: the K values
        // are unequal. A renderer-keyed table would put both rows in one
        // bucket, and because the forged keys happen to be *consistent*
        // the con-check would let the pair through — the general
        // algorithm does pair them.
        assert!(hash_join(&r, &s).is_empty());
        assert_eq!(nested_loop_join(&r, &s).len(), 1);
        // Genuinely equal keys still join, agreeing with the general
        // algorithm.
        let s2 = Relation::from_rows([row(&[("K", honest_key), ("Y", Value::Int(8))])]);
        assert_eq!(hash_join(&r, &s2).len(), 1);
        assert_eq!(hash_join(&r, &s2), nested_loop_join(&r, &s2));
    }

    #[test]
    fn empty_sides() {
        let e = Relation::new();
        assert!(nested_loop_join(&e, &s_bc()).is_empty());
        assert!(nested_loop_join(&r_ab(), &e).is_empty());
        assert!(nested_loop_join(&e, &e).is_empty());
    }
}
