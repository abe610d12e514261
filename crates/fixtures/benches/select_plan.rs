//! Decision defended: comprehensions run through the planner (hash
//! build/probe for equi-joins, filter pushdown), not the interpreter's
//! nested `select_loop`. Machibench never runs with the planner off, so
//! the wire benchmark cannot see what the planner buys. Shapes, each
//! timed both ways:
//!
//! * `fig9_equijoin` — two independent generators joined on a key
//!   (the Figure 9 advisor/salary shape): O(n+m) build/probe vs O(n·m);
//! * `fig3_dependent` — a dependent generator over a nested set field
//!   (Figure 3 `supplied_by` shape): same O(Σ|inner|) loop both ways,
//!   measuring pipeline overhead;
//! * `fig0_filter` — single-generator selection (the introduction's
//!   `Wealthy`): pushdown vs the plain loop, again overhead-bound.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use machiavelli::eval::set_planner_enabled;
use machiavelli::store::set_store_enabled;
use machiavelli::value::Value;
use machiavelli::Session;
use machiavelli_fixtures::relational::{row, Relation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}

fn gen_rel(n: usize, key_space: i64, labels: (&str, &str), seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    Relation::from_rows((0..n).map(|i| {
        row(&[
            (labels.0, Value::Int(rng.gen_range(0..key_space))),
            (labels.1, Value::Int(i as i64)),
        ])
    }))
}

/// A session with two flat relations bound for the equi-join shape and a
/// nested relation for the dependent shape.
fn session_for(n: usize) -> Session {
    let mut s = Session::new();
    s.bind_external(
        "r",
        gen_rel(n, 4 * n as i64, ("K", "A"), 1).into_value(),
        "{[K: int, A: int]}",
    )
    .unwrap();
    s.bind_external(
        "s",
        gen_rel(n, 4 * n as i64, ("K", "B"), 2).into_value(),
        "{[K: int, B: int]}",
    )
    .unwrap();
    // Nested rows: each with a small inner set, as in `supplied_by`.
    let mut rng = StdRng::seed_from_u64(3);
    let nested = Relation::from_rows((0..n).map(|i| {
        row(&[
            ("P", Value::Int(i as i64)),
            (
                "Inner",
                Value::set((0..4).map(|_| row(&[("S", Value::Int(rng.gen_range(0..n as i64)))]))),
            ),
        ])
    }));
    s.bind_external(
        "nested",
        nested.into_value(),
        "{[P: int, Inner: {[S: int]}]}",
    )
    .unwrap();
    s
}

fn run_both(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    n: usize,
    session: &mut Session,
    query: &str,
) {
    group.bench_with_input(
        BenchmarkId::new(format!("planner/{name}"), n),
        &n,
        |b, _| {
            b.iter(|| {
                let prev = set_planner_enabled(true);
                // Store off: this bench isolates the *planner* win
                // (hash build/probe vs nested loop). Warm index reuse
                // is the index_reuse bench's `store` mode.
                let prev_store = set_store_enabled(false);
                let out = session.eval_one(query).unwrap().value;
                set_store_enabled(prev_store);
                set_planner_enabled(prev);
                out
            })
        },
    );
    group.bench_with_input(BenchmarkId::new(format!("interp/{name}"), n), &n, |b, _| {
        b.iter(|| {
            let prev = set_planner_enabled(false);
            let out = session.eval_one(query).unwrap().value;
            set_planner_enabled(prev);
            out
        })
    });
}

fn bench_planner(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_plan");
    group.sample_size(10);
    for n in [50usize, 200, 800] {
        let mut s = session_for(n);
        run_both(
            &mut group,
            "fig9_equijoin",
            n,
            &mut s,
            "select (x.A, y.B) where x <- r, y <- s with x.K = y.K;",
        );
        run_both(
            &mut group,
            "fig3_dependent",
            n,
            &mut s,
            "select (p.P, i.S) where p <- nested, i <- p.Inner with i.S > 2;",
        );
        run_both(
            &mut group,
            "fig0_filter",
            n,
            &mut s,
            "select x.A where x <- r with x.K > 10;",
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_planner
}
criterion_main!(benches);
