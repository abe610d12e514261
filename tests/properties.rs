//! Property-based tests (proptest) over the core data structures and the
//! algebraic laws the paper relies on:
//!
//! * `MSet` is a canonical set (union/intersection/difference laws);
//! * value-level `join` is idempotent/commutative/associative on
//!   consistent descriptions and computes an upper bound;
//! * `con` is reflexive and symmetric;
//! * `project` is idempotent and monotone;
//! * type-level `⊔`/`⊓` form lub/glb with respect to `≤`;
//! * join strategies agree on random flat relations;
//! * naive and semi-naive closure agree on random digraphs;
//! * the interpreter's `select`/`join` agree with the native substrate;
//! * the planner pipeline, store off and on, cold and warm, agrees with
//!   `select_loop` across unrelated ref writes and relation rebinds;
//! * `hom` folds (`card`, `sum`, `member`, a product) match ground
//!   truth computed in Rust, wrapping at `i64::MIN`/`i64::MAX`;
//! * the one differential test for the one hash join: values, error
//!   identity, ref identity and binding order against `select_loop`,
//!   with the cached entry asserted probed.

use machiavelli::store::EngineCtx;
use machiavelli::testing::{run_in, Mode};
use machiavelli::types::{glb, le, lub, type_eq, Partial};
use machiavelli::value::{con_value, join_value, project_value, value_cmp, MSet, Value};
use machiavelli_fixtures::relational::{
    edges_to_relation, naive_closure, nested_loop_join, seminaive_closure,
};
use machiavelli_fixtures::scaled_parts_session;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher as _;

// ----- generators ---------------------------------------------------------

/// Nested description values (records of records / base values).
fn arb_desc_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        (0i64..10).prop_map(Value::Int),
        "[a-b]{1,2}".prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
        Just(Value::Unit),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::btree_map(
                prop_oneof![
                    Just("A".to_string()),
                    Just("B".to_string()),
                    Just("C".to_string()),
                    Just("D".to_string())
                ],
                inner.clone(),
                0..3,
            )
            .prop_map(|m| Value::record(m.into_iter().map(|(l, v)| (l.into(), v)))),
            // Sets must be homogeneous to be well-typed (heterogeneous
            // sets are rejected statically, and the join laws only hold
            // for typeable values), so set elements are drawn from one
            // scalar type.
            proptest::collection::vec(0i64..6, 0..4)
                .prop_map(|xs| Value::set(xs.into_iter().map(Value::Int))),
        ]
    })
}

/// Description *types* over a small label universe.
fn arb_desc_type() -> impl Strategy<Value = machiavelli::types::Ty> {
    use machiavelli::types::ty::*;
    let leaf = prop_oneof![Just(t_int()), Just(t_str()), Just(t_bool()), Just(t_unit()),];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::btree_map(
                prop_oneof![
                    Just("A".to_string()),
                    Just("B".to_string()),
                    Just("C".to_string())
                ],
                inner.clone(),
                0..3,
            )
            .prop_map(|m| t_record(m.into_iter().map(|(l, t)| (l.into(), t)))),
            inner.prop_map(t_set),
        ]
    })
}

fn arb_edges() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..12, 0i64..12), 0..40)
}

// ----- MSet laws ----------------------------------------------------------

proptest! {
    #[test]
    fn mset_canonical(xs in proptest::collection::vec(0i64..20, 0..30)) {
        let s = MSet::from_iter(xs.iter().map(|&x| Value::Int(x)));
        // Sorted and duplicate-free.
        for w in s.as_slice().windows(2) {
            prop_assert!(value_cmp(&w[0], &w[1]) == std::cmp::Ordering::Less);
        }
        // Membership agrees with the source list.
        for x in 0..20 {
            prop_assert_eq!(s.contains(&Value::Int(x)), xs.contains(&x));
        }
    }

    #[test]
    fn mset_algebra(
        xs in proptest::collection::vec(0i64..15, 0..20),
        ys in proptest::collection::vec(0i64..15, 0..20),
    ) {
        let a = MSet::from_iter(xs.iter().map(|&x| Value::Int(x)));
        let b = MSet::from_iter(ys.iter().map(|&x| Value::Int(x)));
        // Commutativity / idempotence.
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        prop_assert_eq!(a.union(&a), a.clone());
        // |A ∪ B| = |A| + |B| − |A ∩ B|.
        prop_assert_eq!(a.union(&b).len() + a.intersect(&b).len(), a.len() + b.len());
        // A \ B and A ∩ B partition A.
        prop_assert_eq!(a.difference(&b).len() + a.intersect(&b).len(), a.len());
        // Subset laws.
        prop_assert!(a.intersect(&b).is_subset(&a));
        prop_assert!(a.is_subset(&a.union(&b)));
    }
}

// ----- value join / con / project laws -------------------------------------

proptest! {
    #[test]
    fn con_reflexive_symmetric(a in arb_desc_value(), b in arb_desc_value()) {
        prop_assert!(con_value(&a, &a));
        prop_assert_eq!(con_value(&a, &b), con_value(&b, &a));
    }

    #[test]
    fn join_laws_on_consistent_values(a in arb_desc_value(), b in arb_desc_value(), c in arb_desc_value()) {
        prop_assert_eq!(join_value(&a, &a).unwrap(), a.clone());
        if con_value(&a, &b) {
            let ab = join_value(&a, &b).unwrap();
            let ba = join_value(&b, &a).unwrap();
            prop_assert_eq!(&ab, &ba);
            // join is increasing: joining again with an operand is a no-op.
            prop_assert_eq!(join_value(&ab, &a).unwrap(), ab.clone());
            // Associativity where all joins are defined.
            if con_value(&b, &c) && con_value(&ab, &c) {
                if let (Ok(bc), Ok(abc1)) = (join_value(&b, &c), join_value(&ab, &c)) {
                    if con_value(&a, &bc) {
                        prop_assert_eq!(join_value(&a, &bc).unwrap(), abc1);
                    }
                }
            }
        } else {
            prop_assert!(join_value(&a, &b).is_err());
        }
    }

    #[test]
    fn project_idempotent(ty in arb_desc_type(), v in arb_desc_value()) {
        if let Ok(p) = project_value(&v, &ty) {
            prop_assert_eq!(project_value(&p, &ty).unwrap(), p);
        }
    }
}

// ----- type ordering laws --------------------------------------------------

proptest! {
    #[test]
    fn le_is_a_partial_order(a in arb_desc_type(), b in arb_desc_type(), c in arb_desc_type()) {
        prop_assert_eq!(le(&a, &a), Partial::Known(true));
        // Antisymmetry.
        if le(&a, &b) == Partial::Known(true) && le(&b, &a) == Partial::Known(true) {
            prop_assert_eq!(type_eq(&a, &b), Partial::Known(true));
        }
        // Transitivity.
        if le(&a, &b) == Partial::Known(true) && le(&b, &c) == Partial::Known(true) {
            prop_assert_eq!(le(&a, &c), Partial::Known(true));
        }
    }

    #[test]
    fn lub_is_least_upper_bound(a in arb_desc_type(), b in arb_desc_type()) {
        if let Ok(Partial::Known(l)) = lub(&a, &b) {
            prop_assert_eq!(le(&a, &l), Partial::Known(true));
            prop_assert_eq!(le(&b, &l), Partial::Known(true));
            // Least: lub(a, lub(a,b)) = lub(a,b).
            let again = lub(&a, &l).unwrap().known().unwrap();
            prop_assert_eq!(type_eq(&again, &l), Partial::Known(true));
        }
    }

    #[test]
    fn glb_is_greatest_lower_bound(a in arb_desc_type(), b in arb_desc_type()) {
        if let Ok(Partial::Known(g)) = glb(&a, &b) {
            prop_assert_eq!(le(&g, &a), Partial::Known(true));
            prop_assert_eq!(le(&g, &b), Partial::Known(true));
            let again = glb(&g, &a).unwrap().known().unwrap();
            prop_assert_eq!(type_eq(&again, &g), Partial::Known(true));
        }
    }

    #[test]
    fn lub_glb_consistency(a in arb_desc_type(), b in arb_desc_type()) {
        // If a ≤ b then a ⊔ b = b and a ⊓ b = a.
        if le(&a, &b) == Partial::Known(true) {
            let l = lub(&a, &b).unwrap().known().unwrap();
            prop_assert_eq!(type_eq(&l, &b), Partial::Known(true));
            let g = glb(&a, &b).unwrap().known().unwrap();
            prop_assert_eq!(type_eq(&g, &a), Partial::Known(true));
        }
    }
}

// ----- algorithm agreement --------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn closures_agree_and_are_monotone(edges in arb_edges()) {
        let naive = naive_closure(&edges);
        let semi = seminaive_closure(&edges);
        prop_assert_eq!(&naive, &semi);
        for e in &edges {
            prop_assert!(naive.contains(e));
        }
        // Idempotent.
        let again = naive_closure(&naive.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(again, naive);
    }
}

// ----- bulk-merge and structural hashing -------------------------------------

proptest! {
    #[test]
    fn mset_extend_matches_repeated_insert(
        base in proptest::collection::vec(0i64..25, 0..20),
        adds in proptest::collection::vec(0i64..25, 0..20),
    ) {
        let mut bulk = MSet::from_iter(base.iter().map(|&x| Value::Int(x)));
        let mut slow = bulk.clone();
        bulk.extend(adds.iter().map(|&x| Value::Int(x)));
        for &x in &adds {
            slow.insert(Value::Int(x));
        }
        prop_assert_eq!(&bulk, &slow);
        // extend is union with the normalized additions.
        let addset = MSet::from_iter(adds.iter().map(|&x| Value::Int(x)));
        prop_assert_eq!(bulk, MSet::from_iter(base.into_iter().map(Value::Int)).union(&addset));
    }

    #[test]
    fn structural_hash_respects_equality(a in arb_desc_value(), b in arb_desc_value()) {
        let digest = |v: &Value| {
            let mut h = DefaultHasher::new();
            machiavelli::value::hash_value(v, &mut h);
            h.finish()
        };
        // Equal values must hash equal (the HashMap soundness direction).
        if a == b {
            prop_assert_eq!(digest(&a), digest(&b));
        }
        prop_assert_eq!(digest(&a), digest(&a.clone()));
    }
}

// ----- planner vs nested-loop semantics --------------------------------------

/// Build a random 1–3-generator comprehension over the part–supplier
/// schema: sources drawn from `suppliers` / `supplied_by` / `parts` /
/// a dependent `<var>.Suppliers`, equi-join conjuncts between generator
/// pairs, and pushdown-able key filters — the space the planner covers
/// (plus shapes it declines, which exercise classification). Driven by a
/// seed rather than nested strategies so the query shape shrinks simply.
fn random_comprehension(seed: u64, key_space: u64) -> String {
    let mut state = seed | 1;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m.max(1)
    };
    struct Gen {
        var: &'static str,
        source: String,
        key: &'static str,
    }
    let vars = ["x", "y", "z"];
    let n_gens = 1 + next(3) as usize;
    let mut gens: Vec<Gen> = Vec::new();
    for var in vars.iter().take(n_gens) {
        let (source, key) = match next(4) {
            0 => ("suppliers".to_string(), "S#"),
            1 => ("supplied_by".to_string(), "P#"),
            2 => ("parts".to_string(), "P#"),
            _ => match gens.iter().rev().find(|g| g.source == "supplied_by") {
                // Dependent: range over the nested supplier set of an
                // earlier binder.
                Some(prev) => (format!("{}.Suppliers", prev.var), "S#"),
                None => ("suppliers".to_string(), "S#"),
            },
        };
        gens.push(Gen { var, source, key });
    }
    let mut conjuncts: Vec<String> = Vec::new();
    for i in 1..n_gens {
        if next(3) == 0 {
            continue; // cross product with this generator
        }
        let j = next(i as u64) as usize;
        let (a, b) = if next(2) == 0 { (j, i) } else { (i, j) };
        conjuncts.push(format!(
            "{}.{} = {}.{}",
            gens[a].var, gens[a].key, gens[b].var, gens[b].key
        ));
    }
    for g in &gens {
        if next(3) == 0 {
            conjuncts.push(format!("{}.{} > {}", g.var, g.key, next(key_space)));
        }
    }
    if conjuncts.is_empty() {
        conjuncts.push("true".into());
    }
    let result = gens
        .iter()
        .map(|g| format!("{}.{}", g.var, g.key))
        .collect::<Vec<_>>()
        .join(", ");
    let where_clause = gens
        .iter()
        .map(|g| format!("{} <- {}", g.var, g.source))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "select ({result}) where {where_clause} with {};",
        conjuncts.join(" andalso ")
    )
}

/// A seeded single- or two-generator comprehension whose pushed
/// filters are all binder-closed comparisons against constants, in
/// both orientations (`x.K > c` and `c > x.K`) — filtered scans on
/// either side of a join. Key spaces are tiny, so duplicate keys, empty
/// survivor sets, and full-relation survivors all arise.
fn random_filtered_comprehension(seed: u64, key_space: u64) -> String {
    let mut state = seed | 1;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m.max(1)
    };
    let ops = [">", "<", ">=", "<=", "="];
    let two_gens = next(2) == 1;
    let mut filter = |var: &str, key: &str| {
        let op = ops[next(ops.len() as u64) as usize];
        if next(2) == 0 {
            format!("{var}.{key} {op} {}", next(key_space))
        } else {
            format!("{} {op} {var}.{key}", next(key_space))
        }
    };
    if two_gens {
        let fx = filter("x", "P#");
        let fy = filter("y", "P#");
        format!(
            "select (x.P#, y.S#) where x <- parts, y <- supplied_by \
             with {fx} andalso x.P# = y.P# andalso {fy};"
        )
    } else {
        let f1 = filter("x", "P#");
        let f2 = filter("x", "P#");
        format!("select x.P# where x <- parts with {f1} andalso {f2};")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn planner_matches_select_loop_on_random_comprehensions(
        seed in 0u64..u64::MAX / 2,
        n_parts in 4usize..24,
        n_suppliers in 2usize..10,
    ) {
        let src = random_comprehension(seed, 2 * n_parts as u64);
        let (mut session, _db) = scaled_parts_session(n_parts, n_suppliers, seed ^ 0x9e3779b9);
        let planned = run_in(&mut session, &src, Mode::planned(true));
        let interpreted = run_in(&mut session, &src, Mode::SELECT_LOOP);
        // (On mismatch the query shape is recoverable from the seed.)
        prop_assert!(planned == interpreted, "{}: {:?} vs {:?}", src, planned, interpreted);
    }
}

// ----- the planner pipeline vs select_loop -------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The planner pipeline agrees with `select_loop` with the store off
    // and on, cold and warm, on the seeded comprehension space the
    // planner property uses — duplicate keys (tiny key spaces) arise
    // naturally — and across interleaved mutations: a write to an
    // unrelated ref, which the dependency-tracked invalidation must
    // survive, and a rebind of the relations the queries read, which
    // pointer-identity keying must catch.
    #[test]
    fn planned_paths_match_select_loop_across_writes_and_rebinds(
        seed in 0u64..u64::MAX / 2,
        n_parts in 4usize..24,
        n_suppliers in 2usize..10,
    ) {
        let (mut session, _db) = scaled_parts_session(n_parts, n_suppliers, seed ^ 0xa5a5a5);
        session.run("val side = ref(0);").unwrap();
        for src in [
            random_comprehension(seed, 2 * n_parts as u64),
            random_filtered_comprehension(seed, 2 * n_parts as u64),
        ] {
            let loop_ref = run_in(&mut session, &src, Mode::SELECT_LOOP);
            for store in [false, true] {
                session.store_reset();
                // With the store on, the cold run builds (and caches)
                // the indexes and the warm run probes them.
                for warmth in ["cold", "warm"] {
                    let got = run_in(&mut session, &src, Mode::planned(store));
                    prop_assert!(got == loop_ref, "{src} {warmth}, store={store}: {got:?} vs {loop_ref:?}");
                }
                session.eval_one("side := 1;").unwrap();
                let after_write = run_in(&mut session, &src, Mode::planned(store));
                prop_assert!(
                    after_write == loop_ref,
                    "{src} after unrelated write, store={store}: {after_write:?} vs {loop_ref:?}"
                );
            }
            // Mutate relations the queries actually read: every path
            // must see fresh rows exactly like `select_loop`.
            session
                .run(
                    "val suppliers = union(suppliers, {[S#=999, Sname=\"x\", City=\"y\"]});
                     val supplied_by = union(supplied_by, {[P#=1, Suppliers={[S#=999]}]});",
                )
                .unwrap();
            let loop_after = run_in(&mut session, &src, Mode::SELECT_LOOP);
            for store in [false, true] {
                let got = run_in(&mut session, &src, Mode::planned(store));
                prop_assert!(got == loop_after, "{src} after rebind, store={store}: {got:?} vs {loop_after:?}");
            }
        }
    }

    // The one `hom` fold path against ground truth computed in Rust:
    // the prelude's `card`/`sum`/`member` and a raw product fold over
    // a set that mixes small ints with `i64::MIN`/`i64::MAX`, so the
    // sum and product wrap.
    #[test]
    fn hom_folds_match_rust_ground_truth(
        xs in proptest::collection::vec(prop_oneof![Just(i64::MIN), Just(i64::MAX), -50i64..50], 0..60),
        k in prop_oneof![Just(i64::MIN), Just(i64::MAX), -50i64..50],
    ) {
        // Ground truth over the distinct elements: `S` is a set.
        let mut set = xs.clone();
        set.sort_unstable();
        set.dedup();
        let mut session = machiavelli::Session::new();
        session
            .bind_external("S", Value::set(xs.iter().map(|&x| Value::Int(x))), "{int}")
            .unwrap();
        session.bind_external("k", Value::Int(k), "int").unwrap();
        let got = session
            .eval_one("(card(S), sum(S), member(k, S), hom((fn(x) => x), *, 1, S));")
            .unwrap()
            .value;
        let expected = Value::tuple([
            Value::Int(set.len() as i64),
            Value::Int(set.iter().fold(0i64, |a, &x| a.wrapping_add(x))),
            Value::Bool(set.contains(&k)),
            Value::Int(set.iter().fold(1i64, |a, &x| a.wrapping_mul(x))),
        ]);
        prop_assert!(got == expected, "{xs:?}, k={k}: {got:?} vs {expected:?}");
    }
}

// ----- the one differential test for the one hash join ------------------------

/// What a [`join_scenarios`] case's warm, store-on run must leave in
/// the store.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    /// The build is cached and the warm run probes it by `KeyTuple`.
    Cached,
    /// Both paths raise the interpreter's error; nothing is cached.
    Raise,
}

/// Seeded equi-join scenarios for the hash join, as (name,
/// environment, query, expectation). Queries run through `eval_expr`
/// directly — no type checker in front — so ill-typed shapes (a
/// non-boolean strict filter, a relation mixing int and ref keys) are
/// expressible. Every result expression bumps the
/// `tick` ref and includes its value, so the **binding order** is part
/// of the result; rows carrying refs project `x.R = d`, so **ref
/// identity** is too.
fn join_scenarios(seed: u64) -> Vec<(&'static str, machiavelli::value::Env, String, Expect)> {
    use machiavelli::value::RefValue;
    let mut state = seed | 1;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m.max(1)
    };
    let rel = |n: u64, row: &mut dyn FnMut(u64) -> Vec<(&'static str, Value)>| {
        Value::set((0..n).map(|i| Value::record(row(i).into_iter().map(|(l, v)| (l.into(), v)))))
    };
    let int = |n: u64| Value::Int(n as i64);
    let ks = 3 + next(5);
    let (n_r, n_t, n_u) = (4 + next(36), 4 + next(16), 4 + next(8));
    let d = RefValue::new(Value::Int(7));
    let pool: Vec<RefValue> = (0..ks).map(|i| RefValue::new(int(i))).collect();
    let base = machiavelli::eval::builtin_env()
        .bind("tick", Value::Ref(RefValue::new(Value::Int(0))))
        .bind("d", Value::Ref(d.clone()));
    let flat_r = rel(n_r, &mut |i| vec![("K", int(i % ks)), ("A", int(i))]);
    let flat_t = rel(n_t, &mut |i| {
        vec![("K", int(i % ks)), ("J", int(i % 2)), ("B", int(i))]
    });
    let ticked = |tuple: &str, rest: &str| {
        format!("select let val u = (tick := !tick + 1) in ({tuple}, !tick) end where {rest}")
    };
    let (c1, c2) = (next(n_r), next(n_t));
    vec![
        (
            "ref-free rows, two generators, bare probe scan",
            base.bind("r", flat_r.clone()).bind("t", flat_t.clone()),
            ticked("x.A, y.B", "x <- r, y <- t with x.K = y.K"),
            Expect::Cached,
        ),
        (
            "ref-free rows, two generators, filters on both sides",
            base.bind("r", flat_r.clone()).bind("t", flat_t.clone()),
            ticked(
                "x.A, y.B",
                &format!("x <- r, y <- t with x.A >= {c1} andalso x.K = y.K andalso {c2} >= y.B"),
            ),
            Expect::Cached,
        ),
        (
            "ref-free rows, three generators",
            base.bind("r", flat_r.clone())
                .bind("t", flat_t.clone())
                .bind(
                    "u",
                    rel(n_u, &mut |i| vec![("J", int(i % 2)), ("C", int(i))]),
                ),
            ticked(
                "x.A, y.B, z.C",
                "x <- r, y <- t, z <- u with x.K = y.K andalso y.J = z.J",
            ),
            Expect::Cached,
        ),
        (
            "negated probe keys wrap at i64::MIN",
            base.bind(
                "r",
                rel(n_r, &mut |i| {
                    let k = if i == 0 { i64::MIN } else { -((i % ks) as i64) };
                    vec![("K", Value::Int(k)), ("A", int(i))]
                }),
            )
            .bind(
                "t",
                rel(n_t, &mut |i| {
                    let k = if i == 0 { i64::MIN } else { (i % ks) as i64 };
                    vec![("K", Value::Int(k)), ("B", int(i))]
                }),
            ),
            ticked("x.A, y.B", "x <- r, y <- t with -(x.K) = y.K"),
            Expect::Cached,
        ),
        (
            "rows with ref fields off the key path",
            base.bind(
                "r",
                rel(n_r, &mut |i| {
                    let r = if i % 2 == 0 {
                        d.clone()
                    } else {
                        RefValue::new(int(i))
                    };
                    vec![("K", int(i % ks)), ("A", int(i)), ("R", Value::Ref(r))]
                }),
            )
            .bind("t", flat_t.clone()),
            ticked("x.A, y.B, x.R = d", "x <- r, y <- t with x.K = y.K"),
            Expect::Cached,
        ),
        (
            "ref-valued keys on both sides (identity join)",
            base.bind(
                "r",
                rel(n_r, &mut |i| {
                    vec![
                        ("K", Value::Ref(pool[(i % ks) as usize].clone())),
                        ("A", int(i)),
                    ]
                }),
            )
            .bind(
                "t",
                rel(n_t, &mut |i| {
                    vec![
                        ("K", Value::Ref(pool[((i + 1) % ks) as usize].clone())),
                        ("B", int(i)),
                    ]
                }),
            ),
            ticked("x.A, y.B", "x <- r, y <- t with x.K = y.K"),
            Expect::Cached,
        ),
        (
            "probe keys mixing ints and refs over a ref-free build",
            base.bind(
                "r",
                rel(n_r, &mut |i| {
                    let k = if i % 3 == 2 {
                        Value::Ref(RefValue::new(int(i)))
                    } else {
                        int(i % ks)
                    };
                    vec![("K", k), ("A", int(i))]
                }),
            )
            .bind("t", flat_t.clone()),
            // The ref-valued probe keys must find nothing in the
            // ref-free build: `KeyTuple` compares with `value_eq`, and
            // a ref equals no int.
            ticked("x.A, y.B", "x <- r, y <- t with x.K = y.K"),
            Expect::Cached,
        ),
        (
            "strict non-boolean pushed build filter",
            base.bind("r", flat_r.clone()).bind("t", flat_t.clone()),
            ticked("x.A, y.B", "x <- r, y <- t with y.B andalso x.K = y.K"),
            Expect::Raise,
        ),
        (
            // Unequal record keys that print identically: the forged
            // label "B=2, C" makes the two-field record render as the
            // three-field one. A key built from the display form would
            // pair these rows, and since the two keys are consistent
            // the pair would survive `con`; the join must pair nothing.
            "record keys that collide under the renderer",
            base.bind(
                "r",
                rel(n_r, &mut |i| {
                    let k = Value::record([
                        ("A".into(), int(1)),
                        ("B".into(), int(2)),
                        ("C".into(), int(3)),
                    ]);
                    vec![("K", k), ("A", int(i))]
                }),
            )
            .bind(
                "t",
                rel(n_t, &mut |i| {
                    let k = Value::record([("A".into(), int(1)), ("B=2, C".into(), int(3))]);
                    vec![("K", k), ("B", int(i))]
                }),
            ),
            ticked("x.A, y.B", "x <- r, y <- t with x.K = y.K"),
            Expect::Cached,
        ),
        (
            "filtered probe pipeline over a two-row build",
            base.bind(
                "r",
                rel(2 * 64 + 8 + n_r, &mut |i| {
                    vec![("K", int(i % ks)), ("A", int(i))]
                }),
            )
            .bind("t", rel(2, &mut |i| vec![("K", int(i)), ("B", int(i))])),
            ticked("x.A, y.B", "x <- r, y <- t with x.A >= 0 andalso x.K = y.K"),
            Expect::Cached,
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The hash join is indistinguishable from `select_loop`: values,
    // error identity, ref identity and binding order agree with the
    // store off and on, cold (inline or fresh build) and warm (cached
    // build) — and the store counters prove the cached entry was
    // probed.
    #[test]
    fn hash_join_is_indistinguishable_from_select_loop(seed in 0u64..u64::MAX / 2) {
        for (name, env, src, expect) in join_scenarios(seed) {
            let expr = machiavelli::syntax::parse_expr(&src).unwrap();
            let tick = env.lookup("tick").unwrap();
            let ctx = EngineCtx::default();
            let run = |mode: Mode| {
                let Value::Ref(tick) = &tick else { unreachable!() };
                tick.set(Value::Int(0), ctx.dirty());
                ctx.set_mode(mode);
                machiavelli::eval::eval_expr(&ctx, &env, &expr)
                    .map(|v| machiavelli::value::show_value(&v))
                    .map_err(|e| e.to_string())
            };
            let reference = run(Mode::SELECT_LOOP);
            prop_assert!(
                reference.is_err() == (expect == Expect::Raise),
                "{name}: {reference:?}"
            );
            for store in [false, true] {
                ctx.reset_stats();
                for warmth in ["cold", "warm"] {
                    let got = run(Mode::planned(store));
                    prop_assert!(
                        got == reference,
                        "{name}, store={store}, {warmth}: {got:?} vs {reference:?}"
                    );
                }
                if !store {
                    continue;
                }
                let st = ctx.with_store(|s| s.stats());
                let probed = match expect {
                    Expect::Cached => st.entries >= 1 && st.hits >= 1,
                    Expect::Raise => st.entries == 0,
                };
                prop_assert!(probed, "{name}: {st:?}");
            }
        }
    }
}

/// Duplicate keys pinned deterministically: many rows per key on both
/// sides, and a build side with a single distinct key.
#[test]
fn hash_join_handles_duplicate_keys() {
    let mut session = machiavelli::Session::new();
    let dup_rows: String = (0..40)
        .map(|i| format!("[K={}, A={i}]", i % 3))
        .collect::<Vec<_>>()
        .join(", ");
    session
        .run(&format!(
            "val dups = {{{dup_rows}}}; val one = {{[K=1, B=7], [K=1, B=8]}};"
        ))
        .unwrap();
    for query in [
        "select (x.A, y.A) where x <- dups, y <- dups with x.K = y.K;",
        "select (x.A, y.B) where x <- dups, y <- one with x.K = y.K;",
    ] {
        let reference = run_in(&mut session, query, Mode::SELECT_LOOP);
        for store in [false, true] {
            let got = run_in(&mut session, query, Mode::planned(store));
            assert_eq!(got, reference, "{query}, store={store}");
        }
    }
}

// ----- interpreter vs native ------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn interpreted_join_matches_native(edges in arb_edges(), others in arb_edges()) {
        let mut s = machiavelli::Session::new();
        let r = edges_to_relation(&edges);
        let t = {
            // Rename to B/C so the join is on B.
            let rel = edges_to_relation(&others);
            rel.rename("A", "B2").rename("B", "C").rename("B2", "B")
        };
        s.bind_external("r", r.clone().into_value(), "{[A: int, B: int]}").unwrap();
        s.bind_external("t", t.clone().into_value(), "{[B: int, C: int]}").unwrap();
        let interpreted = s.eval_one("join(r, t);").unwrap().value;
        prop_assert_eq!(interpreted, nested_loop_join(&r, &t).into_value());
    }

    #[test]
    fn interpreted_select_matches_native_filter(edges in arb_edges(), k in 0i64..12) {
        let mut s = machiavelli::Session::new();
        let r = edges_to_relation(&edges);
        s.bind_external("r", r.clone().into_value(), "{[A: int, B: int]}").unwrap();
        let interpreted = s
            .eval_one(&format!("select x where x <- r with x.A > {k};"))
            .unwrap()
            .value;
        let native = r.select(|v| matches!(v, Value::Record(fs) if matches!(fs.get("A"), Some(Value::Int(a)) if *a > k)));
        prop_assert_eq!(interpreted, native.into_value());
    }
}
