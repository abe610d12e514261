//! The plain-key join's defence: the one parallel join path vs the
//! sequential planner path, with the table built inline and served by
//! the store.
//!
//! Two externally bound relations of `n` int-keyed rows each are
//! equi-joined through `Session::eval_one` (parse + infer + plan +
//! execute). Every size clears the default two-morsel gate, so no
//! cutoff is lowered.
//!
//! The `par_join` group runs with the index store **disabled**, so
//! every iteration really builds and probes, isolating seq vs par on
//! the same work:
//!
//! * `seq`  — parallel lane disabled (the `Rc` hash join);
//! * `parK` — inline plain build + probe fan-out at K worker threads.
//!
//! The `cached_par_probe` group runs with the store enabled and warm,
//! so the build phase is gone entirely and the only difference is how
//! the cached plain index is probed:
//!
//! * `cached_seq`  — the sequential probe over the cached index;
//! * `cached_parK` — the same fan-out over the shared `Arc` index.
//!
//! Before anything is timed the bench asserts that the parallel path
//! engaged (`par_joins`, no fallbacks) and agreed with `seq`.
//!
//! Keys overlap on the top eighth of the key space with unique matches,
//! so the output (≈ n/8 small tuples) never dominates the build/probe
//! machinery under test.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use machiavelli::testing::{with_mode, Mode};
use machiavelli::value::{tuning, Value};
use machiavelli::Session;
use std::time::Duration;

/// Short measurement windows so the full figure suite runs in minutes;
/// rerun individual benches with Criterion CLI flags for precision.
fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

fn rows(n: usize, key_offset: usize) -> Value {
    Value::set((0..n).map(|i| {
        Value::record([
            ("K".into(), Value::Int((i + key_offset) as i64)),
            ("A".into(), Value::Int(i as i64)),
            ("C".into(), Value::Int((i % 97) as i64)),
        ])
    }))
}

fn join_session(n: usize) -> Session {
    let mut s = Session::new();
    // `s` keys overlap the top eighth of `r`'s key space 1:1: the join
    // streams n build + n probe rows but emits only ~n/8 matches, so
    // build/probe — the machinery under test — dominates, not output
    // materialization (which is identical in both lanes anyway).
    s.bind_external("r", rows(n, 0), "{[K: int, A: int, C: int]}")
        .unwrap();
    s.bind_external("s", rows(n, n - n / 8), "{[K: int, A: int, C: int]}")
        .unwrap();
    s
}

/// The comprehension under test, wrapped in an emptiness check so the
/// per-iteration `it` binding is one bool (a bare select would chain a
/// fresh n/8-row set into the environment every iteration, and the
/// accumulated retention distorts the timing).
const QUERY: &str = "(select (x.A, y.A) where x <- r, y <- s with x.K = y.K) = {};";

/// Run the query with the index store `store` and the parallel lane
/// `lane` (`None` = the sequential reference), at the default gates.
fn run(s: &mut Session, store: bool, lane: Option<usize>) -> Value {
    let mode = Mode {
        planner: true,
        store,
        lane,
        tiny_gates: false,
    };
    with_mode(mode, || s.eval_one(QUERY).unwrap().value)
}

/// Assert, before timing, that the parallel path engages on this
/// session and agrees with `seq`.
fn assert_engaged(s: &mut Session, store: bool, seq: &Value, n: usize) {
    tuning::reset_par_stats();
    assert_eq!(&run(s, store, Some(2)), seq, "paths diverge at n={n}");
    let stats = tuning::par_stats();
    assert_eq!(
        (stats.par_joins, stats.par_join_fallbacks),
        (1, 0),
        "parallel path not engaged at n={n}: {stats:?}"
    );
}

fn bench_par_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_join");
    group.sample_size(10);
    for n in [10_000usize, 100_000] {
        let mut s = join_session(n);
        // Store off: every iteration must rebuild.
        let seq = run(&mut s, false, None);
        assert_eq!(seq, Value::Bool(false), "join unexpectedly empty at n={n}");
        assert_engaged(&mut s, false, &seq, n);

        group.bench_with_input(BenchmarkId::new("seq", n), &n, |b, _| {
            b.iter(|| run(&mut s, false, None))
        });
        for threads in [2usize, 4] {
            group.bench_with_input(BenchmarkId::new(format!("par{threads}"), n), &n, |b, _| {
                b.iter(|| run(&mut s, false, Some(threads)))
            });
        }
    }
    group.finish();
}

fn bench_cached_par_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("cached_par_probe");
    group.sample_size(10);
    for n in [10_000usize, 100_000] {
        let mut s = join_session(n);
        s.store_reset();
        // Warm the cache, then sanity-check agreement and engagement.
        let seq = run(&mut s, true, None);
        assert_eq!(seq, Value::Bool(false), "join unexpectedly empty at n={n}");
        let builds = s.store_stats().builds;
        assert_eq!(builds, 1, "build not cached at n={n}");
        assert_engaged(&mut s, true, &seq, n);
        assert_eq!(s.store_stats().builds, builds, "rebuilt at n={n}");

        group.bench_with_input(BenchmarkId::new("cached_seq", n), &n, |b, _| {
            b.iter(|| run(&mut s, true, None))
        });
        for threads in [2usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("cached_par{threads}"), n),
                &n,
                |b, _| b.iter(|| run(&mut s, true, Some(threads))),
            );
        }
        assert_eq!(s.store_stats().builds, builds, "cache lost during bench");
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_par_join, bench_cached_par_probe
}
criterion_main!(benches);
