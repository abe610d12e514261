//! Comprehension semantics the planner must preserve, checked by
//! running every query through the interpreter's `select_loop` and
//! through the planner pipeline with the index store off and on — and
//! demanding identical outcomes:
//!
//! * dependent generators (sources re-evaluated per binding);
//! * predicate evaluation order is not observable: pushdown/reordering
//!   only happens for safe conjuncts, and conjuncts that *can* raise
//!   force the fallback, so errors in branches the optimizer would have
//!   pruned still surface (or still don't) exactly as in the nested
//!   loop;
//! * empty-source short-circuit (no predicate evaluation at all);
//! * duplicate elimination matches set semantics;
//! * identity-bearing rows and environment-dependent builds keep their
//!   exact bindings whichever strategy runs them.

use machiavelli::eval::set_planner_enabled;
use machiavelli::testing::{run_in, Mode};
use machiavelli::value::show_value;
use machiavelli::Session;
use machiavelli_fixtures::scaled_parts_session;

/// Run `f` with planner dispatch forced on/off, restoring the previous
/// setting afterwards.
fn with_planner<T>(on: bool, f: impl FnOnce() -> T) -> T {
    let prev = set_planner_enabled(on);
    let out = f();
    set_planner_enabled(prev);
    out
}

/// Evaluate `src` in a fresh Figure-2-scaled session under `mode`,
/// normalizing to `Ok(rendered value)` / `Err(message)`.
fn run_fresh(src: &str, mode: Mode) -> Result<String, String> {
    let (mut s, _db) = scaled_parts_session(12, 5, 7);
    run_in(&mut s, src, mode)
}

/// The planner pipeline (store on) and `select_loop`.
fn both_paths(src: &str) -> (Result<String, String>, Result<String, String>) {
    (
        run_fresh(src, Mode::planned(true)),
        run_fresh(src, Mode::SELECT_LOOP),
    )
}

#[track_caller]
fn assert_agree(src: &str) {
    let interpreted = run_fresh(src, Mode::SELECT_LOOP);
    for store in [false, true] {
        let planned = run_fresh(src, Mode::planned(store));
        assert_eq!(
            planned, interpreted,
            "planner (store={store}) vs select_loop on: {src}"
        );
    }
}

#[test]
fn dependent_generators_agree() {
    // Classic Figure 3 shape: the supplier set is a field of the outer
    // row, re-evaluated per binding.
    assert_agree("select (p.P#, s.S#) where p <- supplied_by, s <- p.Suppliers with true;");
    // Dependent generator with a pushed filter and a (residual) equality
    // back to the outer binder.
    assert_agree(
        "select s.S# where p <- supplied_by, s <- p.Suppliers with s.S# > 2 andalso p.P# > 1;",
    );
    assert_agree("select (p.P#, s.S#) where p <- supplied_by, s <- p.Suppliers with s.S# = p.P#;");
    // Three generators: independent join on top of a dependent middle.
    assert_agree(
        "select (p.P#, s.S#, q.S#)
         where p <- supplied_by, s <- p.Suppliers, q <- suppliers
         with s.S# = q.S#;",
    );
}

#[test]
fn index_scan_agrees_with_nested_loop() {
    // Equality against a constant lowers to an IndexScan probe of a
    // cached grouping; the rows and their order must match the plain
    // filtering loop exactly.
    assert_agree("select x.Sname where x <- suppliers with x.S# = 2;");
    assert_agree("select x.Sname where x <- suppliers with x.S# = 99;");
    // IndexScan under a hash join, plus a residual ordering filter.
    assert_agree(
        "select (x.S#, y.P#)
         where x <- suppliers, y <- supplied_by
         with x.S# = 2 andalso x.S# = y.P# andalso y.P# > 0;",
    );
}

#[test]
fn equi_join_agrees_with_nested_loop() {
    assert_agree(
        "select (p.Pname, sb.P#)
         where p <- parts, sb <- supplied_by
         with p.P# = sb.P#;",
    );
    // Conjunct order scrambled relative to the optimal plan: the planner
    // reorders (join key between filters), the nested loop doesn't —
    // same answer.
    assert_agree(
        "select (p.Pname, sb.P#)
         where p <- parts, sb <- supplied_by
         with sb.P# > 0 andalso p.P# = sb.P# andalso p.P# > 1;",
    );
}

#[test]
fn empty_sources_short_circuit_without_evaluating_the_predicate() {
    // The predicate would raise `Div` on any binding — but there are no
    // bindings, and neither path may ever evaluate it. (The `div` also
    // forces the planner's fallback; the fallback must then reproduce
    // the interpreter exactly.)
    assert_agree("select x where x <- {} with 1 div 0 = 0;");
    let (planned, interpreted) = both_paths("select x where x <- {} with 1 div 0 = 0;");
    assert_eq!(planned, Ok("{}".into()));
    assert_eq!(interpreted, Ok("{}".into()));

    // Empty build side of a plannable equi-join: short-circuits to {}.
    let (planned, interpreted) = both_paths(
        "select (x.S#, y.P#) where x <- suppliers, y <- {[P# = 1]} with x.S# = y.P# andalso 1 > 2;",
    );
    assert_eq!(planned, interpreted);
}

#[test]
fn raising_predicates_fall_back_and_still_raise() {
    // `div` in a conjunct forces the nested loop; with non-empty
    // sources the error must surface on both paths, identically.
    let (planned, interpreted) = both_paths("select p.P# where p <- parts with p.P# div 0 = 0;");
    assert!(planned.is_err(), "{planned:?}");
    assert_eq!(planned, interpreted);
}

#[test]
fn result_errors_in_join_pruned_branches_stay_pruned() {
    // The result expression raises for `sb.P# = 0` rows — but no such
    // row survives the join, so *neither* path raises: the planner may
    // prune harder, never softer, and the nested loop never reaches the
    // result expression for non-matching bindings either.
    assert_agree(
        "select 100 div sb.P#
         where p <- parts, sb <- supplied_by
         with p.P# = sb.P# andalso sb.P# > 0;",
    );
    // And when a surviving binding does raise, both paths raise.
    let (planned, interpreted) = both_paths(
        "select 1 div (p.P# - p.P#) where p <- parts, sb <- supplied_by with p.P# = sb.P#;",
    );
    assert!(planned.is_err(), "{planned:?}");
    assert_eq!(planned, interpreted);
}

#[test]
fn duplicate_elimination_matches_set_semantics() {
    // Projecting the join key collapses all matches per key: the result
    // is a *set*, deduplicated once at the end on both paths.
    assert_agree("select p.P# where p <- parts, sb <- supplied_by with p.P# = sb.P#;");
    let (mut s, db) = scaled_parts_session(12, 5, 7);
    let out = s
        .eval_one("card(select sb.P# where sb <- supplied_by, p <- parts with p.P# = sb.P#);")
        .map(|o| show_value(&o.value))
        .expect("join cardinality query runs");
    // Cardinality can never exceed the number of distinct keys.
    let n: i64 = out.parse().unwrap();
    assert!(n as usize <= db.supplied_by.len());
}

#[test]
fn fresh_identities_in_independent_sources_are_created_once() {
    // An independent source allocating `ref` identities is evaluated
    // exactly once on both paths — the result has one element per
    // distinct identity.
    assert_agree("card(select (x, y) where x <- {ref(1), ref(1)}, y <- {ref(2)} with true);");
    let (planned, _) =
        both_paths("card(select (x, y) where x <- {ref(1), ref(1)}, y <- {ref(2)} with true);");
    assert_eq!(planned, Ok("2".into()));
}

#[test]
fn identity_bearing_rows_and_env_dependent_builds_agree() {
    // Rows carrying refs: whichever strategy runs the filter or the
    // join must yield the *same* identities (`=` on
    // refs is identity, so `x.R = d` exposes it).
    let refs = "val d = ref(7);
                val r = {[K=1, R=d], [K=2, R=ref(9)], [K=3, R=d], [K=4, R=ref(9)]};
                val t = {[K=1, B=10], [K=3, B=30], [K=4, B=40]};";
    assert_agree(&format!(
        "{refs} select (x.K, x.R = d) where x <- r with x.K > 1;"
    ));
    // A filtered scan of such rows feeding a store-served (or inline)
    // join: rows re-bind by index.
    assert_agree(&format!(
        "{refs} select (x.R = d, y.B) where x <- r, y <- t with x.K > 1 andalso x.K = y.K;"
    ));
    // Both sides filtered.
    assert_agree(&format!(
        "{refs} select (x.K, y.B) where x <- r, y <- t \
         with x.K > 1 andalso x.K = y.K andalso y.B < 40;"
    ));
    // The build-side filter mentions `cutoff` from the environment:
    // statically ineligible for caching, so the build runs inline.
    assert_agree(&format!(
        "{refs} val cutoff = 10; \
         select (x.K, y.B) where x <- r, y <- t with x.K = y.K andalso y.B > cutoff;"
    ));
}

#[test]
fn planner_toggle_is_restored() {
    let mut s = Session::new();
    let inner = with_planner(false, || {
        assert!(!machiavelli::eval::planner_enabled());
        s.eval_one("select x where x <- {1, 2} with x > 1;")
            .unwrap()
            .show()
    });
    assert!(machiavelli::eval::planner_enabled());
    assert_eq!(inner, "val it = {2} : {int}");
}
