//! Golden `:analyze` output and traced/untraced equivalence.
//!
//! The goldens pin the traced operator tree for the paper's two query
//! shapes — the Figure 9 equi-join and the Figure 5 recursive-cost
//! select — with the trace clock zeroed so every time renders as `0ns`
//! and only the *stable* fields (operator labels, lanes, cache
//! outcomes, row counts, decline codes) remain. The proptest then
//! asserts tracing is purely observational: traced execution returns
//! identical results and identical decline codes to untraced, at one
//! and at four worker threads.

use machiavelli::testing::{pinned_session, run_in, with_mode, Mode};
use machiavelli::trace;
use machiavelli::Session;
use machiavelli_bench::{fig2_session, scaled_parts_session, FIG5_SOURCE};
use proptest::prelude::*;

/// A session with deterministic trace output: zeroed clock, cold
/// store, pinned worker-thread count.
fn pinned(threads: usize) -> Session {
    let s = pinned_session(threads);
    trace::set_clock(Some(|| 0));
    s
}

fn unpin(s: &Session) {
    trace::set_clock(None);
    s.set_par_threads(None);
}

const FIG9_SETUP: &str = "val r = {[K=1, C=10, A=1], [K=2, C=50, A=2], [K=3, C=95, A=3]};
     val s = {[K=1, C=1, A=10], [K=2, C=20, A=20], [K=3, C=30, A=30]};";

const FIG9_QUERY: &str =
    "select (x.A, y.A) where x <- r, y <- s with x.C < 90 andalso x.K = y.K andalso y.C > 5;";

#[test]
fn golden_analyze_fig9_join_cold_then_cached() {
    let mut s = pinned(1);
    s.run(FIG9_SETUP).unwrap();
    // Cold store: the join consults the store and builds its index
    // (`[cache build]`); the probe-side scan yields the 2 rows that
    // clear `x.C < 90`, the join emits the 1 key match with `y.C > 5`.
    // (The projection is folded into the join's emit, and the build
    // side is consumed during `open` — it appears as the cache
    // outcome, not as a child span.)
    let cold = s.analyze(FIG9_QUERY).unwrap();
    assert_eq!(
        cold,
        "select: total 0ns\n  \
         HashJoin probe(x.K) build(y.K) [seq] [cache build] rows=1 open=0ns next=0ns\n    \
         Scan x <- r filter (x.C < 90) [seq] rows=2 open=0ns next=0ns\n\
         observed[join s build(_.K) filter((_.C > 5))]: runs=1 last_rows=1 avg_rows=1\n"
    );
    // Warm store: same tree, `[cache hit]`, and the observed-stats
    // history now spans two runs.
    let warm = s.analyze(FIG9_QUERY).unwrap();
    assert_eq!(
        warm,
        "select: total 0ns\n  \
         HashJoin probe(x.K) build(y.K) [seq] [cache hit] rows=1 open=0ns next=0ns\n    \
         Scan x <- r filter (x.C < 90) [seq] rows=2 open=0ns next=0ns\n\
         observed[join s build(_.K) filter((_.C > 5))]: runs=2 last_rows=1 avg_rows=1\n"
    );
    unpin(&s);
}

#[test]
fn golden_analyze_plain_key_join_names_its_degree() {
    let mut s = pinned(4);
    s.run(FIG9_SETUP).unwrap();
    // Four worker threads, one-row morsels: the store serves the build
    // in plain form, the two probe rows that clear `x.C < 90` are
    // drained and fanned out — at degree 2, one worker per probe
    // morsel, not the four configured.
    let report = with_mode(Mode::planned(true, Some(4)), || s.analyze(FIG9_QUERY)).unwrap();
    assert_eq!(
        report,
        "select: total 0ns\n  \
         HashJoin probe(x.K) build(y.K) [par n=2] [cache build] rows=1 open=0ns next=0ns\n    \
         Scan x <- r filter (x.C < 90) [seq] rows=2 open=0ns next=0ns\n\
         observed[join s build(_.K) filter((_.C > 5))]: runs=1 last_rows=1 avg_rows=1\n"
    );
    unpin(&s);
}

#[test]
fn golden_analyze_ref_keyed_join_names_its_decline() {
    let mut s = pinned(1);
    // Identity-bearing rows: the build side caches only in rc form —
    // the store's decline is typed and lands on the join's span.
    s.run(
        "val d1 = ref(1); val d2 = ref(2);
           val e = {[K=d1, A=1], [K=d2, A=2]};
           val f = {[K=d1, B=10]};",
    )
    .unwrap();
    let report = s
        .analyze("select (x.A, y.B) where x <- e, y <- f with x.K = y.K;")
        .unwrap();
    assert_eq!(
        report,
        "select: total 0ns\n  \
         HashJoin probe(x.K) build(y.K) [seq] [cache build] rows=1 open=0ns next=0ns \
         declines: store-rc-only\n    \
         Scan x <- e [seq] rows=2 open=0ns next=0ns\n\
         observed[join f build(_.K) filter()]: runs=1 last_rows=1 avg_rows=1\n"
    );
    unpin(&s);
}

#[test]
fn golden_analyze_fig5_recursive_cost() {
    let mut s = fig2_session();
    s.reset_stats();
    s.set_par_threads(Some(1));
    trace::set_clock(Some(|| 0));
    s.run(FIG5_SOURCE).unwrap();
    // The outer select's `cost(x) > n` predicate could observe
    // evaluation order, so the planner declines it by name and the
    // interpreter's select_loop runs it — but each recursive `cost`
    // call plans its *inner* subpart join, which folds into the same
    // trace: built once, a cache hit on the second composite part.
    let report = s.analyze("expensive_parts(parts, 100);").unwrap();
    assert_eq!(
        report,
        "select: total 0ns\n  \
         HashJoin probe(w.P#) build(z.P#) [seq] [cache build] rows=2 open=0ns next=0ns\n    \
         Scan w <- x.SubParts [seq] rows=2 open=0ns next=0ns\n  \
         HashJoin probe(w.P#) build(z.P#) [seq] [cache hit] rows=2 open=0ns next=0ns\n    \
         Scan w <- x.SubParts [seq] rows=2 open=0ns next=0ns\n  \
         declines: planner-unsafe-conjunct\n\
         observed[join parts build(_.P#) filter()]: runs=2 last_rows=2 avg_rows=2\n"
    );
    unpin(&s);
}

// ----- tracing is observation-only ---------------------------------------

/// A small seeded comprehension space over the part–supplier schema:
/// shapes the planner pipelines (scans, equi-joins, dependent
/// generators) and shapes it declines by name (unsafe conjuncts), so
/// the equivalence property exercises spans *and* decline codes.
fn seeded_query(seed: u64) -> String {
    let mut state = seed | 1;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m.max(1)
    };
    match next(6) {
        0 => format!("select x.Pname where x <- parts with x.P# < {};", next(30)),
        1 => "select (x.Pname, y.Suppliers) where x <- parts, y <- supplied_by \
              with x.P# = y.P#;"
            .to_string(),
        2 => "select x.S# where x <- suppliers with member(x, suppliers);".to_string(),
        3 => format!(
            "select y.P# where x <- parts, y <- supplied_by \
             with x.P# = y.P# andalso x.P# < {};",
            next(30)
        ),
        4 => "card(select x.S# where x <- suppliers with true);".to_string(),
        _ => "select (y.P#, z.S#) where y <- supplied_by, z <- y.Suppliers with true;".to_string(),
    }
}

/// Evaluate `src` with tracing forced on/off at `threads` workers and
/// tiny gates, from a cold store and zeroed decline counts; returns the
/// rendered result (or error) plus the nonzero decline codes the run
/// recorded. Every override is restored.
fn run_observed(
    session: &mut Session,
    src: &str,
    threads: usize,
    traced: bool,
) -> (Result<String, String>, Vec<(&'static str, u64)>) {
    session.store_reset();
    let prev_trace = session.set_tracing(Some(traced));
    trace::reset_session_declines();
    let out = run_in(session, src, Mode::planned(true, Some(threads)));
    let declines: Vec<(&'static str, u64)> = trace::session_declines()
        .into_iter()
        .filter(|(_, n)| *n > 0)
        .map(|(r, n)| (r.code(), n))
        .collect();
    session.set_tracing(prev_trace);
    let _ = session.trace_events();
    (out, declines)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Tracing never changes what a query computes or which lanes
    // decline: traced execution returns identical results and
    // identical decline codes to untraced, at 1 and at 4 worker
    // threads.
    #[test]
    fn tracing_is_observation_only(
        seed in 0u64..u64::MAX / 2,
        n_parts in 4usize..20,
        n_suppliers in 2usize..8,
    ) {
        let src = seeded_query(seed);
        let (mut session, _db) = scaled_parts_session(n_parts, n_suppliers, seed ^ 0x0b5e);
        for threads in [1usize, 4] {
            let (r_off, d_off) = run_observed(&mut session, &src, threads, false);
            let (r_on, d_on) = run_observed(&mut session, &src, threads, true);
            prop_assert!(
                r_off == r_on,
                "{src} @ {threads} threads: traced {r_on:?} vs untraced {r_off:?}"
            );
            prop_assert!(
                d_off == d_on,
                "{src} @ {threads} threads: traced declines {d_on:?} vs untraced {d_off:?}"
            );
        }
    }
}
