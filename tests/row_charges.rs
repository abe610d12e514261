//! The row budget charges what evaluation builds: every construct that
//! makes a set charges the rows of that set (nested sets included) to
//! the guard of the eval in flight, and nothing else does.
//!
//! `EXPECTED` is the running `rows_used()` after each phrase, as
//! recorded when `MSet`'s constructors charged a thread-installed guard
//! themselves; the charges at the evaluator's set-building sites must
//! add up to exactly the same figures.

use machiavelli::store::governor::QueryGuard;
use machiavelli::testing::{run_in, Mode};
use machiavelli::Session;
use std::sync::Arc;

/// One phrase per construct (and per `select` strategy), with the mode
/// it runs in.
const CORPUS: &[(&str, Mode)] = &[
    // Set literals (a duplicate merges before it is charged).
    (
        "val r = {[K=1, A=10], [K=2, A=20], [K=3, A=30], [K=3, A=31], [K=1, A=10]};",
        PLANNED,
    ),
    ("val s = {[K=1, B=1], [K=3, B=3], [K=4, B=4]};", PLANNED),
    ("{};", PLANNED),
    // `select`, planned (a hash join) and nested-loop.
    (
        "select (x.A, y.B) where x <- r, y <- s with x.K = y.K;",
        PLANNED,
    ),
    (
        "select (x.A, y.B) where x <- r, y <- s with x.K = y.K;",
        Mode::SELECT_LOOP,
    ),
    ("select {x.A, x.K} where x <- r with x.K > 1;", PLANNED),
    (
        "select {x.A, x.K} where x <- r with x.K > 1;",
        Mode::SELECT_LOOP,
    ),
    // `union`: a merge builds a set, an empty side returns the other.
    ("union({1, 2, 3}, {3, 4});", PLANNED),
    ("union({}, {3, 4});", PLANNED),
    ("union({1, 2}, {});", PLANNED),
    // `hom`: the bulk union fold, the generic fold, `hom*`.
    ("hom(fn x => {x.A}, union, {}, r);", PLANNED),
    ("hom(fn x => {x.A}, union, {7}, r);", PLANNED),
    ("hom(fn x => x.A, +, 0, r);", PLANNED),
    (
        "hom(fn x => {x.K}, fn (a, b) => union(a, b), {}, r);",
        PLANNED,
    ),
    ("hom*(fn x => {x.K}, union, r);", PLANNED),
    // `join`, on sets and on records holding sets.
    ("join(r, s);", PLANNED),
    ("join([A={1, 2}, B=1], [A={2, 3}, C=2]);", PLANNED),
    (
        "join({[A={1, 2}, B=1]}, {[A={2, 3}, C=2], [A={5}, C=3]});",
        PLANNED,
    ),
    // `unionc`, flat and nested.
    ("unionc(r, s);", PLANNED),
    (
        "unionc({[K=1, T={1, 2}, A=1]}, {[K=2, T={3}, B=2]});",
        PLANNED,
    ),
    // `project`, flat and nested.
    ("project(r, {[K: int]});", PLANNED),
    (
        "project({[K=1, T={1, 2}, A=1], [K=2, T={2}, A=2]}, {[T: {int}]});",
        PLANNED,
    ),
    ("card(select x where x <- r with true) + card(s);", PLANNED),
    (
        "select y.B where x <- r, y <- s with x.K = y.K andalso x.A > 10;",
        PLANNED,
    ),
];

const PLANNED: Mode = Mode {
    planner: true,
    store: true,
};

const EXPECTED: [usize; 24] = [
    4, 7, 7, 10, 13, 22, 31, 40, 42, 44, 52, 62, 62, 72, 79, 82, 87, 98, 102, 112, 115, 125, 129,
    130,
];

#[test]
fn every_set_building_construct_charges_what_it_builds() {
    let mut s = Session::new();
    // Finite, so every charge is counted, and far beyond the corpus.
    let guard = Arc::new(QueryGuard::new(None, Some(1 << 30)));
    s.engine().set_guard(Some(guard.clone()));
    let mut used = Vec::new();
    for &(src, mode) in CORPUS {
        run_in(&mut s, src, mode).unwrap_or_else(|e| panic!("{src}: {e}"));
        used.push(guard.rows_used());
    }
    s.engine().set_guard(None);
    assert_eq!(used, EXPECTED, "running rows_used() after each phrase");
    assert_eq!(guard.tripped(), None);
}

#[test]
fn an_ungoverned_session_charges_nothing() {
    let mut s = Session::new();
    run_in(&mut s, "{1, 2, 3};", PLANNED).unwrap();
    let guard = Arc::new(QueryGuard::new(None, Some(1 << 30)));
    s.engine().set_guard(Some(guard.clone()));
    run_in(&mut Session::new(), "{1, 2, 3};", PLANNED).unwrap();
    assert_eq!(guard.rows_used(), 0, "a guard counts its own session only");
}
