//! The standard prelude, written in Machiavelli itself.
//!
//! These are the functions the paper defines with `hom` in §2 (`map`,
//! `filter`, `member`, `prod`, intersection, difference, powerset, …).
//! They are parsed, type-checked and evaluated like user code, so they
//! double as an executable regression test of the whole pipeline.

/// Machiavelli source of the standard prelude.
pub const PRELUDE: &str = r#"
(* Direct image of a set: the paper's map. *)
fun map(f, S) = hom((fn(x) => {f(x)}), union, {}, S);

(* Elements satisfying a predicate: the paper's filter. *)
fun filter(p, S) = hom((fn(x) => if p(x) then {x} else {}), union, {}, S);

(* Set membership via hom. *)
fun member(x, S) = hom((fn(y) => x = y), orelse, false, S);

(* Cartesian product as a comprehension. *)
fun prod(S1, S2) = select (x, y) where x <- S1, y <- S2 with true;

(* Intersection and difference via filter. *)
fun intersect(S1, S2) = filter((fn(x) => member(x, S1)), S2);

fun diff(S1, S2) = filter((fn(x) => not(member(x, S2))), S1);

(* Subset test. *)
fun subset(S1, S2) = hom((fn(x) => member(x, S2)), andalso, true, S1);

(* Cardinality and integer sum. *)
fun card(S) = hom((fn(x) => 1), +, 0, S);

fun sum(S) = hom((fn(x) => x), +, 0, S);

(* Powerset: fold a pairwise-union product. *)
fun powerset(S) =
  hom((fn(x) => {{}, {x}}),
      (fn(P1, P2) => select union(a, b) where a <- P1, b <- P2 with true),
      {{}},
      S);

(* Polymorphic transitive closure (Figure 4 of the paper). *)
fun Closure(R) =
  let val r = select [A = x.A, B = y.B]
              where x <- R, y <- R
              with (x.B = y.A) andalso not(member([A = x.A, B = y.B], R))
  in if r = {} then R else Closure(union(R, r))
  end;
"#;

#[cfg(test)]
mod tests {
    use crate::eval::{builtin_env, eval_expr};
    use machiavelli_store::EngineCtx;
    use machiavelli_syntax::ast::PhraseKind;
    use machiavelli_syntax::{parse_expr, parse_program};
    use machiavelli_value::{Env, Value};

    /// Evaluate the prelude into an environment (without type checking —
    /// the typed path is exercised by the `machiavelli` core crate).
    fn prelude_env() -> Env {
        let mut env = builtin_env();
        for phrase in parse_program(super::PRELUDE).unwrap() {
            match phrase.kind {
                PhraseKind::Fun { name, params, body } => {
                    let rec = machiavelli_syntax::ast::Expr::new(
                        machiavelli_syntax::ast::ExprKind::Rec {
                            name,
                            body: Box::new(machiavelli_syntax::ast::Expr::new(
                                machiavelli_syntax::ast::ExprKind::Lambda {
                                    params,
                                    body: Box::new(body),
                                },
                                phrase.span,
                            )),
                        },
                        phrase.span,
                    );
                    let v = eval_expr(&EngineCtx::default(), &env, &rec).unwrap();
                    env = env.bind(name, v);
                }
                _ => unreachable!("prelude contains only fun definitions"),
            }
        }
        env
    }

    fn run(env: &Env, src: &str) -> Value {
        eval_expr(&EngineCtx::default(), env, &parse_expr(src).unwrap())
            .unwrap_or_else(|e| panic!("{src}: {e}"))
    }

    #[test]
    fn map_filter_member() {
        let env = prelude_env();
        assert_eq!(
            run(&env, "map((fn(x) => x * 2), {1,2,3})"),
            run(&env, "{2,4,6}")
        );
        assert_eq!(
            run(&env, "filter((fn(x) => x > 1), {1,2,3})"),
            run(&env, "{2,3}")
        );
        assert_eq!(run(&env, "member(2, {1,2,3})"), Value::Bool(true));
        assert_eq!(run(&env, "member(9, {1,2,3})"), Value::Bool(false));
    }

    #[test]
    fn prod_and_setops() {
        let env = prelude_env();
        assert_eq!(run(&env, "card(prod({1,2},{3,4}))"), Value::Int(4));
        assert_eq!(run(&env, "intersect({1,2,3},{2,3,4})"), run(&env, "{2,3}"));
        assert_eq!(run(&env, "diff({1,2,3},{2})"), run(&env, "{1,3}"));
        assert_eq!(run(&env, "subset({1,2},{1,2,3})"), Value::Bool(true));
        assert_eq!(run(&env, "subset({0},{1,2,3})"), Value::Bool(false));
    }

    #[test]
    fn card_sum_powerset() {
        let env = prelude_env();
        assert_eq!(run(&env, "card({5,6,7})"), Value::Int(3));
        assert_eq!(run(&env, "sum({5,6,7})"), Value::Int(18));
        assert_eq!(run(&env, "card(powerset({1,2,3}))"), Value::Int(8));
        assert_eq!(
            run(&env, "member({1,3}, powerset({1,2,3}))"),
            Value::Bool(true)
        );
    }

    #[test]
    fn closure_from_fig4() {
        let env = prelude_env();
        let result = run(&env, "Closure({[A=1,B=2],[A=2,B=3],[A=3,B=4]})");
        let expected = run(
            &env,
            "{[A=1,B=2],[A=2,B=3],[A=3,B=4],[A=1,B=3],[A=2,B=4],[A=1,B=4]}",
        );
        assert_eq!(result, expected);
    }
}
