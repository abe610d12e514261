//! Golden-plan tests: pin the operator trees the comprehension planner
//! chooses for the paper's query shapes (`Session::plan_of` renders the
//! physical pipeline; the `Fallback` line names shapes left to the
//! interpreter's nested loop). Cacheable operators carry an index-store
//! marker — `[idx build]` against a cold store, `[idx cached]` once the
//! session holds a live index with the operator's fingerprint. If
//! planner behavior changes on purpose, update these strings
//! deliberately.

use machiavelli::testing::pinned_session;

/// Render against a fresh session's cold store so `[idx build]` markers
/// are deterministic regardless of what ran earlier.
fn plan(src: &str) -> String {
    pinned_session().plan_of(src).unwrap()
}

#[test]
fn fig9_shape_two_generator_equi_join_is_hash_join() {
    // The advisor/salary join shape of Figure 9: two independent
    // generators linked by a key equality, with a per-side filter. The
    // sources are *view calls*, which construct fresh storage every
    // evaluation — an index over them could never be looked up again,
    // so the join is deliberately uncached (no idx marker; materialize
    // the view into a binding to get reuse, as the variant below does).
    assert_eq!(
        plan(
            "select [Name = s.Name, Salary = e.Salary]
             where s <- StudentView(persons), e <- EmployeeView(persons)
             with s.Name = e.Name andalso e.Salary > 1000;"
        ),
        "Project [Name=s.Name, Salary=e.Salary]\n  \
         HashJoin probe(s.Name) build(e.Name)\n    \
         Scan s <- StudentView(persons)\n    \
         Build e <- EmployeeView(persons) filter (e.Salary > 1000)"
    );
}

#[test]
fn fig9_shape_over_bound_relations_is_a_cacheable_hash_join() {
    // The same shape over stored relations (or materialized views):
    // the build side is keyed on stable storage, hence the idx marker.
    assert_eq!(
        plan(
            "select [Name = s.Name, Salary = e.Salary]
             where s <- students, e <- employees
             with s.Name = e.Name andalso e.Salary > 1000;"
        ),
        "Project [Name=s.Name, Salary=e.Salary]\n  \
         HashJoin[idx build] probe(s.Name) build(e.Name)\n    \
         Scan s <- students\n    \
         Build e <- employees filter (e.Salary > 1000)"
    );
}

#[test]
fn fig5_subpart_join_is_hash_join() {
    // The inner comprehension of Figure 5's `cost`: subparts joined to
    // the part database on part number. (`w` ranges over a field of an
    // enclosing binder — independent *within* this comprehension.) The
    // `parts` build table is cacheable: this is exactly the index the
    // `cost` recursion reuses across recursive calls.
    assert_eq!(
        plan(
            "select [SubpartCost = cost(z), Qty = w.Qty]
             where w <- x.SubParts, z <- parts
             with z.P# = w.P#;"
        ),
        "Project [SubpartCost=cost(z), Qty=w.Qty]\n  \
         HashJoin[idx build] probe(w.P#) build(z.P#)\n    \
         Scan w <- x.SubParts\n    \
         Build z <- parts"
    );
}

#[test]
fn fig5_shape_renders_cached_after_first_evaluation() {
    // Same fig5 inner shape, but on a session that has actually run the
    // query once. The join builds on the generator the query names
    // (`parts`), even though `subs` is the smaller side, so the warm
    // plan keeps generator order and marks that build cached.
    let mut s = pinned_session();
    s.run(
        "val parts = {[P#=1, C=5], [P#=2, C=9]};
         val subs = {[P#=1, Qty=4]};",
    )
    .unwrap();
    let q = "select (z.C, w.Qty) where w <- subs, z <- parts with z.P# = w.P#;";
    let cold = s.plan_of(q).unwrap();
    assert!(
        cold.contains("HashJoin[idx build] probe(w.P#) build(z.P#)"),
        "{cold}"
    );
    s.eval_one(q).unwrap();
    assert_eq!(
        s.plan_of(q).unwrap(),
        "Project (z.C, w.Qty)\n  \
         HashJoin[idx cached] probe(w.P#) build(z.P#)\n    \
         Scan w <- subs\n    \
         Build z <- parts"
    );
}

#[test]
fn cached_indexes_render_alike_with_or_without_refs() {
    // A warm, store-served join renders `[idx cached]` whatever its rows
    // hold — ref-free rows first.
    let mut s = pinned_session();
    s.run(
        "val r = {[K=1, A=10], [K=2, A=20], [K=3, A=30]};
         val t = {[K=1, B=5], [K=2, B=6]};",
    )
    .unwrap();
    let q = "select (x.A, y.B) where x <- r, y <- t with x.K = y.K;";
    s.eval_one(q).unwrap();
    assert_eq!(
        s.plan_of(q).unwrap(),
        "Project (x.A, y.B)\n  \
         HashJoin[idx cached] probe(x.K) build(y.K)\n    \
         Scan x <- r\n    \
         Build y <- t"
    );
    // Rows that carry a ref: the same entry kind, the same rendering.
    s.run(
        "val d = ref(1);
         val e = {[K=1, R=d], [K=2, R=d], [K=3, R=d]};
         val f = {[K=1, R=d]};",
    )
    .unwrap();
    let q = "select (x.K, y.K) where x <- e, y <- f with x.K = y.K;";
    s.eval_one(q).unwrap();
    let warm = s.plan_of(q).unwrap();
    assert!(warm.contains("HashJoin[idx cached] probe(x.K)"), "{warm}");
}

#[test]
fn single_generator_filter_is_scan_with_pushdown() {
    // The introduction's Wealthy query: an ordering filter is *not* an
    // index shape — it stays a plain scan and creates no store entry
    // (no cache pollution from one-shot filter queries).
    assert_eq!(
        plan("select x.Name where x <- S with x.Salary > 100000;"),
        "Project x.Name\n  Scan x <- S filter (x.Salary > 100000)"
    );
}

#[test]
fn single_generator_filter_queries_do_not_create_indexes() {
    let mut s = pinned_session();
    s.run("val S = {[Name=\"Joe\", Salary=22340], [Name=\"Helen\", Salary=132000]};")
        .unwrap();
    s.eval_one("select x.Name where x <- S with x.Salary > 100000;")
        .unwrap();
    let stats = s.store_stats();
    assert_eq!(stats.entries, 0, "{stats:?}");
    assert_eq!(stats.builds, 0, "{stats:?}");
}

#[test]
fn equality_probe_scan_is_index_scan() {
    // A single generator filtered by equality against the environment:
    // the scan probes a cached grouping of the relation instead of
    // filtering row by row.
    assert_eq!(
        plan("select x where x <- s with x.K = limit;"),
        "Project x\n  IndexScan[idx build] x <- s key(x.K = limit)"
    );
    // Composite key plus a residual pushed filter.
    assert_eq!(
        plan("select x where x <- s with x.K = a andalso x.J = b andalso x.A > 0;"),
        "Project x\n  \
         IndexScan[idx build] x <- s key(x.K = a, x.J = b) filter (x.A > 0)"
    );
}

#[test]
fn dependent_generator_is_dependent_nested_loop() {
    // Figure 3 shape: supplier sets nested inside rows.
    assert_eq!(
        plan("select s.S# where p <- supplied_by, s <- p.Suppliers with true;"),
        "Project s.S#\n  \
         NestedLoop s <- p.Suppliers (dependent)\n    \
         Scan p <- supplied_by"
    );
}

#[test]
fn non_equi_join_is_nested_loop_with_residual() {
    assert_eq!(
        plan("select (x, y) where x <- r, y <- s with x.K < y.K;"),
        "Project (x, y)\n  \
         Filter (x.K < y.K)\n    \
         NestedLoop y <- s\n      \
         Scan x <- r"
    );
}

#[test]
fn three_generator_mixed_plan() {
    // Two hash joins stack left-deep; the non-key conjunct lands in a
    // residual filter at the level it becomes decidable.
    assert_eq!(
        plan(
            "select (x.A, y.B, z.C)
             where x <- r, y <- s, z <- t
             with x.K = y.K andalso y.J = z.J andalso x.A < z.C;"
        ),
        "Project (x.A, y.B, z.C)\n  \
         Filter (x.A < z.C)\n    \
         HashJoin[idx build] probe(y.J) build(z.J)\n      \
         HashJoin[idx build] probe(x.K) build(y.K)\n        \
         Scan x <- r\n        \
         Build y <- s\n      \
         Build z <- t"
    );
}

#[test]
fn environment_dependent_build_table_carries_no_marker() {
    // The build-side filter mentions `cutoff` from the environment: the
    // table is rebuilt per execution and never cached, so no idx
    // marker is rendered.
    assert_eq!(
        plan("select y where x <- r, y <- s with x.K = y.K andalso y.B > cutoff;"),
        "Project y\n  \
         HashJoin probe(x.K) build(y.K)\n    \
         Scan x <- r\n    \
         Build y <- s filter (y.B > cutoff)"
    );
}

#[test]
fn unsafe_shapes_name_their_fallback() {
    // Function application in the predicate (may raise / not terminate).
    assert_eq!(
        plan("select x where x <- R with not(member(x, R));"),
        "Fallback (select_loop): predicate conjunct is not planner-safe: \
         not member(x, R)"
    );
    // `div` can raise on zero, so reordering it is observable.
    assert_eq!(
        plan("select x where x <- r, y <- s with x.K = y.K andalso 10 div x.A > 1;"),
        "Fallback (select_loop): predicate conjunct is not planner-safe: 10 div x.A > 1"
    );
    // A dependent source that applies a function.
    assert_eq!(
        plan("select y where x <- r, y <- f(x) with true;"),
        "Fallback (select_loop): dependent source of `y` is not planner-safe: f(x)"
    );
}

#[test]
fn equality_to_environment_constant_on_a_join_step_is_a_pushed_filter() {
    // `y.K = limit` mentions no earlier binder: a per-row filter on the
    // (non-first) generator, not a join key (the hash join needs a
    // probe side). Only the *first* generator's scan turns equality
    // filters into index probes.
    assert_eq!(
        plan("select y where x <- r, y <- s with y.K = limit;"),
        "Project y\n  \
         NestedLoop y <- s filter (y.K = limit)\n    \
         Scan x <- r"
    );
}
