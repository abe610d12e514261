//! The index store's correctness contract, end to end: repeated plans
//! reuse cached indexes (the fig5 `cost` recursion builds its `parts`
//! hash exactly once), and **no query ever observes pre-mutation rows**
//! — whether the relation was mutated through a reference (`:=` records
//! the written identity in the dirty-ref set) or rebuilt and rebound
//! (copy-on-write storage gives the new relation a new identity).
//!
//! Invalidation is **dependency-tracked** (PR 5): a write evicts only
//! entries whose relation can reach the written ref, so entries over
//! untouched relations stay warm across unrelated writes — asserted
//! here by counter, and cross-checked by a seeded property test that
//! runs the same query/mutation interleavings with the store on and
//! off and requires identical visible results and no eviction.

use machiavelli::eval::set_planner_enabled;
use machiavelli::testing::{with_mode, Mode};
use machiavelli::value::show_value;
use machiavelli::Session;
use machiavelli_fixtures::{scaled_parts_session, FIG5_SOURCE};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

/// Run `f` with planner dispatch forced on/off, restoring the previous
/// setting afterwards.
fn with_planner<T>(on: bool, f: impl FnOnce() -> T) -> T {
    let prev = set_planner_enabled(on);
    let out = f();
    set_planner_enabled(prev);
    out
}

fn eval(s: &mut Session, src: &str) -> Result<String, String> {
    s.eval_one(src)
        .map(|o| show_value(&o.value))
        .map_err(|e| e.to_string())
}

#[test]
fn fig5_recursion_builds_the_parts_index_exactly_once() {
    // The PR 2 planner rebuilt the `parts` hash table inside every
    // recursive `cost` call. With the store, the first composite part
    // builds it and every later call — across the whole
    // `expensive_parts` sweep — probes the cached index.
    let (mut s, db) = scaled_parts_session(30, 5, 7);
    s.run(FIG5_SOURCE).unwrap();
    s.store_reset();
    s.eval_one("expensive_parts(parts, 0);").unwrap();
    let stats = s.store_stats();
    assert_eq!(
        stats.builds, 1,
        "one build for the whole recursion: {stats:?}"
    );
    assert!(stats.hits >= 1, "recursive calls must hit: {stats:?}");
    assert_eq!(stats.entries, 1, "{stats:?}");
    assert_eq!(stats.cached_rows, db.parts.len(), "{stats:?}");
    // A second full sweep is pure cache hits.
    let builds_before = stats.builds;
    s.eval_one("expensive_parts(parts, 0);").unwrap();
    assert_eq!(
        s.store_stats().builds,
        builds_before,
        "no rebuild on re-run"
    );
}

#[test]
fn identical_queries_share_one_build() {
    let mut s = Session::new();
    s.store_reset();
    s.run("val r = {[K=1, A=10], [K=2, A=20]}; val probe = {[K=1]};")
        .unwrap();
    let q = "select x.A where y <- probe, x <- r with x.K = y.K;";
    assert_eq!(eval(&mut s, q).unwrap(), "{10}");
    assert_eq!(eval(&mut s, q).unwrap(), "{10}");
    let stats = s.store_stats();
    assert_eq!(
        (stats.builds, stats.hits, stats.misses),
        (1, 1, 1),
        "{stats:?}"
    );
}

#[test]
fn ref_mutation_is_visible_and_unaffected_entries_survive() {
    // A `ref`-held relation is mutated between identical queries. The
    // next query must see the new rows — and under dependency-tracked
    // invalidation the cached entry (built over the *unchanged* `probe`,
    // the second generator) survives the write: the new `!dbref`
    // storage simply probes it.
    let mut s = Session::new();
    s.store_reset();
    s.run("val dbref = ref({[K=1, A=10], [K=2, A=20]}); val probe = {[K=1]};")
        .unwrap();
    let q = "select x.A where x <- !dbref, y <- probe with x.K = y.K;";
    assert_eq!(eval(&mut s, q).unwrap(), "{10}");
    assert_eq!(eval(&mut s, q).unwrap(), "{10}");
    let warm = s.store_stats();
    assert_eq!((warm.builds, warm.hits), (1, 1), "{warm:?}");

    s.eval_one("dbref := union(!dbref, {[K=1, A=99]});")
        .unwrap();
    assert_eq!(eval(&mut s, q).unwrap(), "{10, 99}", "fresh rows visible");
    let after = s.store_stats();
    assert_eq!(
        after.builds, warm.builds,
        "the probe-side index was untouched by the write: {after:?}"
    );
    assert!(after.hits > warm.hits, "the entry kept serving: {after:?}");
    assert_eq!(
        (after.invalidated, after.cleared),
        (0, 0),
        "nothing the write could reach was cached: {after:?}"
    );
}

#[test]
fn ref_mutation_of_the_build_side_rebuilds_by_pointer_identity() {
    // Same scenario in the other generator order: the mutated `!dbref`
    // set is the second generator, so it is the build.
    // The write replaces dbref's contents: the next evaluation sees new
    // storage and can only miss — the old entry is dead (unreachable),
    // not stale, and is not counted as a dirty-ref eviction (the
    // relation's rows reach no ref).
    let mut s = Session::new();
    s.store_reset();
    s.run(
        "val dbref = ref({[K=1, A=10], [K=2, A=20]});
         val probe = {[K=1], [K=2], [K=3], [K=4]};",
    )
    .unwrap();
    let q = "select x.A where y <- probe, x <- !dbref with x.K = y.K;";
    assert_eq!(eval(&mut s, q).unwrap(), "{10, 20}");
    assert_eq!(eval(&mut s, q).unwrap(), "{10, 20}");
    let warm = s.store_stats();
    assert_eq!((warm.builds, warm.hits), (1, 1), "{warm:?}");

    s.eval_one("dbref := union(!dbref, {[K=1, A=99]});")
        .unwrap();
    assert_eq!(eval(&mut s, q).unwrap(), "{10, 20, 99}");
    let after = s.store_stats();
    assert_eq!(after.builds, 2, "new storage, fresh build: {after:?}");
    assert_eq!(after.hits, warm.hits, "no stale hit: {after:?}");
}

#[test]
fn write_to_an_unrelated_relation_evicts_nothing() {
    // The headline of dependency-tracked invalidation: ref writes that
    // no cached relation can reach leave every entry warm — the PR 4
    // epoch contract dropped the whole store here.
    let mut s = Session::new();
    s.store_reset();
    s.run(
        "val r = {[K=1, A=10], [K=2, A=20]}; val probe = {[K=1]};
         val side = ref(0);",
    )
    .unwrap();
    let q = "select x.A where y <- probe, x <- r with x.K = y.K;";
    assert_eq!(eval(&mut s, q).unwrap(), "{10}");
    let warm = s.store_stats();
    assert_eq!(warm.builds, 1, "{warm:?}");
    for i in 0..5 {
        s.eval_one(&format!("side := {i};")).unwrap();
        assert_eq!(eval(&mut s, q).unwrap(), "{10}");
    }
    let after = s.store_stats();
    assert_eq!(after.builds, 1, "cache survived every write: {after:?}");
    assert_eq!(after.hits, warm.hits + 5, "{after:?}");
    assert_eq!(
        (after.invalidated, after.cleared, after.entries),
        (0, 0, warm.entries),
        "zero evictions from unrelated writes: {after:?}"
    );
}

#[test]
fn write_reaching_cached_rows_evicts_the_entry() {
    // The other direction: rows of the indexed relation hold a ref;
    // writing through it must evict that entry (counted as
    // `invalidated`) even though the key expressions never read ref
    // contents — the belt-and-braces half of the contract.
    let mut s = Session::new();
    s.store_reset();
    s.run(
        "val d = ref([Tag=1]);
         val r = {[K=1, D=d], [K=2, D=d]};
         val probe = {[K=1], [K=2], [K=3], [K=4]};",
    )
    .unwrap();
    // `r` (whose rows carry the ref) is the second generator: it builds.
    let q = "select x.K where y <- probe, x <- r with x.K = y.K;";
    assert_eq!(eval(&mut s, q).unwrap(), "{1, 2}");
    let warm = s.store_stats();
    assert_eq!((warm.builds, warm.entries), (1, 1), "{warm:?}");
    s.eval_one("d := [Tag=2];").unwrap();
    assert_eq!(eval(&mut s, q).unwrap(), "{1, 2}");
    let after = s.store_stats();
    assert!(after.invalidated >= 1, "{after:?}");
    assert_eq!(after.builds, 2, "rebuilt after the eviction: {after:?}");
}

#[test]
fn alpha_equivalent_queries_share_one_index() {
    // Fingerprints normalize the binder to `_`, so renaming a generator
    // variable does not duplicate the cached grouping.
    let mut s = Session::new();
    s.store_reset();
    s.run("val r = {[K=1, A=10], [K=2, A=20]}; val probe = {[K=1]};")
        .unwrap();
    assert_eq!(
        eval(
            &mut s,
            "select x.A where y <- probe, x <- r with x.K = y.K;"
        )
        .unwrap(),
        "{10}"
    );
    assert_eq!(
        eval(
            &mut s,
            "select z.A where w <- probe, z <- r with z.K = w.K;"
        )
        .unwrap(),
        "{10}"
    );
    let stats = s.store_stats();
    assert_eq!(
        (stats.builds, stats.hits, stats.entries),
        (1, 1, 1),
        "{stats:?}"
    );
}

#[test]
fn rebinding_a_rebuilt_relation_misses_by_pointer_identity() {
    // No reference write at all: the relation is rebuilt functionally
    // and rebound under the same name. Copy-on-write storage gives the
    // union a fresh identity, so the cache cannot serve the old index.
    let mut s = Session::new();
    s.store_reset();
    s.run("val r = {[K=1, A=10]}; val probe = {[K=1]};")
        .unwrap();
    let q = "select x.A where y <- probe, x <- r with x.K = y.K;";
    assert_eq!(eval(&mut s, q).unwrap(), "{10}");
    s.run("val r = union(r, {[K=1, A=99]});").unwrap();
    assert_eq!(eval(&mut s, q).unwrap(), "{10, 99}");
    let stats = s.store_stats();
    assert_eq!(stats.builds, 2, "{stats:?}");
    assert_eq!(stats.hits, 0, "{stats:?}");
}

#[test]
fn index_scan_sees_mutations_through_a_ref() {
    let mut s = Session::new();
    s.store_reset();
    s.run("val sref = ref({[K=1, A=10], [K=2, A=20]});")
        .unwrap();
    let q = "select x.A where x <- !sref with x.K = 2;";
    assert_eq!(eval(&mut s, q).unwrap(), "{20}");
    assert_eq!(eval(&mut s, q).unwrap(), "{20}");
    let warm = s.store_stats();
    assert_eq!((warm.builds, warm.hits), (1, 1), "{warm:?}");
    s.eval_one("sref := union(!sref, {[K=2, A=21]});").unwrap();
    assert_eq!(eval(&mut s, q).unwrap(), "{20, 21}");
    assert_eq!(s.store_stats().hits, warm.hits, "no stale hit");
}

#[test]
fn planner_and_interpreter_agree_on_a_warm_cache() {
    // Same query three times through the store, checked against the
    // nested loop each time — a cached probe must be observationally
    // identical to a fresh build.
    let (mut s, _db) = scaled_parts_session(16, 5, 3);
    s.store_reset();
    let q = "select (p.Pname, sb.P#) where p <- parts, sb <- supplied_by \
             with p.P# = sb.P#;";
    let reference = with_planner(false, || eval(&mut s, q));
    for round in 0..3 {
        let planned = with_planner(true, || eval(&mut s, q));
        assert_eq!(planned, reference, "round {round}");
    }
    assert!(s.store_stats().hits >= 1);
}

#[test]
fn lru_budget_bounds_cached_rows_end_to_end() {
    let mut s = Session::new();
    s.store_reset();
    machiavelli::store::with_store(|st| st.set_budget(3));
    // `big` and `small` are each the second generator, so each is the
    // build and the budget decides what is cached.
    s.run(
        "val big = {[K=1], [K=2], [K=3], [K=4]}; \
           val small = {[K=1], [K=2]}; \
           val probe = {[K=1], [K=2], [K=3], [K=4]};",
    )
    .unwrap();
    // `big` exceeds the whole budget: runs fine, caches nothing.
    eval(
        &mut s,
        "select x where y <- probe, x <- big with x.K = y.K;",
    )
    .unwrap();
    assert_eq!(s.store_stats().entries, 0);
    // An oversized IndexScan shape streams (no grouping is even built)
    // and still answers correctly.
    assert_eq!(
        eval(&mut s, "select x.K where x <- big with x.K = 2;").unwrap(),
        "{2}"
    );
    assert_eq!(s.store_stats().entries, 0);
    // `small` fits and is cached.
    eval(
        &mut s,
        "select x where y <- probe, x <- small with x.K = y.K;",
    )
    .unwrap();
    let stats = s.store_stats();
    assert_eq!((stats.entries, stats.cached_rows), (1, 2), "{stats:?}");
    machiavelli::store::with_store(|st| st.set_budget(machiavelli::store::DEFAULT_BUDGET_ROWS));
}

/// Drive one session through a scripted query/mutation interleaving,
/// returning every query result plus the final store counters.
fn drive(
    ops: &[(bool, i64, i64)],
    seed: i64,
) -> (Vec<Result<String, String>>, machiavelli::store::StoreStats) {
    let mut s = Session::new();
    s.store_reset();
    s.run(&format!(
        "val dbref = ref({{[K=0, A={seed}], [K=1, A={}]}});
         val fixed = {{[K=0, B=7], [K=2, B=9]}};
         val probe = {{[K=0], [K=1], [K=2], [K=3]}};
         val side = ref(0);",
        seed + 1
    ))
    .unwrap();
    let queries = [
        "select (y.K, x.A) where y <- probe, x <- !dbref with x.K = y.K;",
        "select (x.A, z.B) where x <- !dbref, z <- fixed with x.K = z.K;",
    ];
    let mut outs = Vec::new();
    for (i, (mutate, k, a)) in ops.iter().enumerate() {
        if *mutate {
            if k % 2 == 0 {
                // A write the cached relations cannot reach.
                s.eval_one(&format!("side := {a};")).unwrap();
            } else {
                s.eval_one(&format!("dbref := union(!dbref, {{[K={k}, A={a}]}});"))
                    .unwrap();
            }
        }
        outs.push(eval(&mut s, queries[i % queries.len()]));
    }
    (outs, s.store_stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Interleave equi-join queries (over both a ref-held and a
    // plainly-bound relation) with reference mutations, and require the
    // planner+store path to agree with the `select_loop` reference
    // after every step.
    #[test]
    fn interleaved_queries_and_mutations_never_see_stale_rows(
        ops in proptest::collection::vec((any::<bool>(), 0i64..5, 0i64..40), 1..10),
        seed in 0i64..100,
    ) {
        let mut s = Session::new();
        s.store_reset();
        s.run(&format!(
            "val dbref = ref({{[K=0, A={seed}], [K=1, A={}]}});
             val fixed = {{[K=0, B=7], [K=2, B=9]}};
             val probe = {{[K=0], [K=1], [K=2], [K=3]}};",
            seed + 1
        )).unwrap();
        let queries = [
            "select (y.K, x.A) where y <- probe, x <- !dbref with x.K = y.K;",
            "select (x.A, z.B) where x <- !dbref, z <- fixed with x.K = z.K;",
        ];
        for (i, (mutate, k, a)) in ops.iter().enumerate() {
            if *mutate {
                s.eval_one(&format!(
                    "dbref := union(!dbref, {{[K={k}, A={a}]}});"
                )).unwrap();
            }
            let q = queries[i % queries.len()];
            let planned = with_planner(true, || eval(&mut s, q));
            let reference = with_planner(false, || eval(&mut s, q));
            prop_assert!(
                planned == reference,
                "op {i} of {ops:?}: {planned:?} vs {reference:?}"
            );
        }
    }

    // Dependency-tracked invalidation against the uncached path, over
    // the same interleavings (unrelated `side` writes included):
    // identical visible results at every step, and no eviction at all —
    // every relation in the scenario is ref-free, so no write can reach
    // a cached entry.
    #[test]
    fn dirty_set_invalidation_matches_the_uncached_path(
        ops in proptest::collection::vec((any::<bool>(), 0i64..5, 0i64..40), 1..10),
        seed in 0i64..100,
    ) {
        let (cached_out, cached) = with_mode(Mode::planned(true), || drive(&ops, seed));
        let (uncached_out, _) = with_mode(Mode::planned(false), || drive(&ops, seed));
        prop_assert!(
            cached_out == uncached_out,
            "visible results diverge on {ops:?}: {cached_out:?} vs {uncached_out:?}"
        );
        prop_assert!(
            cached.invalidated + cached.cleared == 0,
            "a ref-free entry was evicted on {ops:?}: {cached:?}"
        );
    }
}

/// `MACHIAVELLI_STORE_BUDGET_ROWS=0` means what the knob table says: no
/// caching at all, not the default budget. A fresh store reads the
/// variable once per process, so the check runs in a child: this test
/// binary re-executed with the variable set, running only this test.
#[test]
fn store_budget_of_zero_from_the_environment_disables_caching() {
    const NAME: &str = "store_budget_of_zero_from_the_environment_disables_caching";
    const CHILD: &str = "STORE_BUDGET_ZERO_CHILD";
    if std::env::var_os(CHILD).is_some() {
        let mut s = machiavelli::testing::pinned_session();
        s.run("val r = {[K=1, A=10], [K=2, A=20]}; val t = {[K=1, B=5], [K=2, B=6]};")
            .unwrap();
        let q = "select (x.A, y.B) where x <- r, y <- t with x.K = y.K;";
        for _ in 0..2 {
            s.eval_one(q).unwrap();
        }
        let stats = s.store_stats();
        assert_eq!((stats.builds, stats.entries), (0, 0), "{stats:?}");
        return;
    }
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", NAME, "--test-threads=1"])
        .env(CHILD, "1")
        .env("MACHIAVELLI_STORE_BUDGET_ROWS", "0")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "child run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
