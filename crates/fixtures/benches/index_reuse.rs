//! Decision defended: the session index store, which caches hash-join
//! builds across evaluations. Its headline case is Figure 5's `cost`:
//! one `expensive_parts(parts, 0)` sweep re-joins `parts` inside every
//! recursive call, and no machibench workload recurses. Three modes:
//!
//! * `store` — planner pipeline with the index store: the first
//!   evaluation builds each cacheable hash index, every later one
//!   probes it;
//! * `rebuild` — planner pipeline with the store disabled: every
//!   evaluation re-hashes its build sides;
//! * `interp` — the nested-loop `select_loop` reference (kept to the
//!   smaller sizes; it is O(n²) per `cost` call).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use machiavelli::store::Mode;
use machiavelli::Session;
use machiavelli_fixtures::{scaled_parts_session, FIG5_SOURCE};
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}

/// Bench one (planner, store) mode; the store is reset before the
/// mode's first iteration only, so `store` mode measures warm reuse.
fn run_mode(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    n: usize,
    session: &mut Session,
    query: &str,
    planner: bool,
    store: bool,
) {
    session.store_reset();
    group.bench_with_input(BenchmarkId::new(name.to_string(), n), &n, |b, _| {
        b.iter(|| {
            let prev = session.engine().set_mode(Mode { planner, store });
            let out = session.eval_one(query).unwrap().value;
            session.engine().set_mode(prev);
            out
        })
    });
}

fn bench_index_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_reuse");
    group.sample_size(10);

    for n in [50usize, 200, 800] {
        let (mut s, _db) = scaled_parts_session(n, n / 10 + 2, 11);
        s.run(FIG5_SOURCE).unwrap();

        let fig5 = "expensive_parts(parts, 0);";
        run_mode(&mut group, "store/fig5_cost", n, &mut s, fig5, true, true);
        run_mode(
            &mut group,
            "rebuild/fig5_cost",
            n,
            &mut s,
            fig5,
            true,
            false,
        );
        if n <= 200 {
            run_mode(
                &mut group,
                "interp/fig5_cost",
                n,
                &mut s,
                fig5,
                false,
                false,
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_index_reuse
}
criterion_main!(benches);
