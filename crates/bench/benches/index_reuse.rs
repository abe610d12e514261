//! A3 bench — index store ablation: repeated-plan workloads through
//! three execution modes:
//!
//! * `store` — planner pipeline with the index store (PR 3): the first
//!   evaluation builds each cacheable hash index, every later one
//!   probes it;
//! * `rebuild` — planner pipeline with the store disabled (the PR 2
//!   always-rebuild path): every evaluation re-hashes its build sides;
//! * `interp` — the nested-loop `select_loop` reference.
//!
//! Workloads:
//!
//! * `fig5_cost` — `expensive_parts(parts, 0)`, the paper's recursive
//!   `cost` sweep: *one single evaluation* re-joins `parts` inside
//!   every recursive call, so even the cold run amortizes the build
//!   n-fold — the store's headline case (interp kept to the smaller
//!   sizes; it is O(n²) per cost call);
//! * `fig9_repeat` — the two-generator equi-join re-evaluated across
//!   bench iterations: the session cache turns every build after the
//!   first into a probe.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use machiavelli::eval::set_planner_enabled;
use machiavelli::store::set_store_enabled;
use machiavelli::Session;
use machiavelli_bench::{scaled_parts_session, FIG5_SOURCE};
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
            let prev_p = set_planner_enabled(planner);
            let prev_s = set_store_enabled(store);
            let out = session.eval_one(query).unwrap().value;
            set_store_enabled(prev_s);
            set_planner_enabled(prev_p);
            out
        })
    });
}

fn bench_index_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_reuse");
    group.sample_size(10);

    let fig9 = "select (p.Pname, sb.P#) where p <- parts, sb <- supplied_by \
                with p.P# = sb.P#;";
    for n in [50usize, 200, 800] {
        let (mut s, _db) = scaled_parts_session(n, n / 10 + 2, 11);
        s.run(FIG5_SOURCE).unwrap();
        run_mode(&mut group, "store/fig9_repeat", n, &mut s, fig9, true, true);
        run_mode(
            &mut group,
            "rebuild/fig9_repeat",
            n,
            &mut s,
            fig9,
            true,
            false,
        );

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
