//! The paper-vs-measured comparison: every figure's inferred types and
//! query results, printed side by side with the paper's output. Exits
//! non-zero if any check diverges.
//!
//! ```sh
//! cargo run --release -p machiavelli-fixtures --bin experiments
//! ```

use machiavelli::value::show_value;
use machiavelli::Session;
use machiavelli_fixtures::oodb::UniversityParams;
use machiavelli_fixtures::{
    fig2_session, scaled_parts_session, university_session, FIG5_POLY_SOURCE, FIG5_SOURCE,
};

struct Report {
    failures: usize,
}

impl Report {
    fn check(&mut self, what: &str, paper: &str, measured: &str, matches: bool) {
        let status = if matches { "OK " } else { "DIFF" };
        println!("[{status}] {what}");
        println!("       paper    : {paper}");
        println!("       measured : {measured}");
        if !matches {
            self.failures += 1;
        }
    }

    fn exact(&mut self, what: &str, paper_and_expected: &str, measured: &str) {
        let matches = paper_and_expected == measured;
        self.check(what, paper_and_expected, measured, matches);
    }
}

fn as_card(v: &machiavelli::value::Value) -> usize {
    match v {
        machiavelli::value::Value::Set(s) => s.len(),
        _ => 0,
    }
}

fn main() {
    let mut r = Report { failures: 0 };

    println!("== E0: introduction — Wealthy ==");
    let mut s = Session::new();
    let out = s
        .eval_one("fun Wealthy(S) = select x.Name where x <- S with x.Salary > 100000;")
        .unwrap();
    r.exact(
        "Wealthy type",
        "{[(\"a) Name:\"b,Salary:int]} -> {\"b}",
        &out.scheme.show(),
    );
    let out = s
        .eval_one(
            r#"Wealthy({[Name = "Joe", Salary = 22340],
                        [Name = "Fred", Salary = 123456],
                        [Name = "Helen", Salary = 132000]});"#,
        )
        .unwrap();
    r.exact(
        "Wealthy result",
        r#"{"Fred", "Helen"}"#,
        &show_value(&out.value),
    );

    println!("\n== E1: Figure 1 ==");
    let out = s
        .eval_one(
            "fun phone(x) = (case x.Status of Employee of y => y.Extension,
                                              Consultant of y => y.Telephone);",
        )
        .unwrap();
    r.check(
        "phone type (paper names variables differently; α-equivalent)",
        "[('a) Status:<Employee:[('b) Extension:'d], Consultant:[('c) Telephone:'d]>] -> 'd",
        &out.scheme.show(),
        out.scheme.show()
            == "[('a) Status:<Consultant:[('b) Telephone:'c],Employee:[('d) Extension:'c]>] -> 'c",
    );
    s.run(
        r#"val joe = [Name="Joe", Age=21,
                        Status=(Consultant of [Address="Philadelphia", Telephone=2221234])];"#,
    )
    .unwrap();
    let out = s.eval_one("phone(joe);").unwrap();
    r.exact("phone(joe)", "2221234", &show_value(&out.value));
    let out = s
        .eval_one("fun increment_age(x) = modify(x, Age, x.Age + 1);")
        .unwrap();
    r.exact(
        "increment_age type",
        "[('a) Age:int] -> [('a) Age:int]",
        &out.scheme.show(),
    );

    println!("\n== E9: §3.3 — Join3 conditional scheme ==");
    let out = s
        .eval_one("fun Join3(x,y,z) = join(x, join(y,z));")
        .unwrap();
    r.exact(
        "Join3 conditional scheme",
        "(\"a * \"b * \"c) -> \"d where { \"d = \"a lub \"e, \"e = \"b lub \"c }",
        &out.scheme.show(),
    );
    let out = s
        .eval_one(r#"Join3([Name="Joe"],[Age=21],[Office=27]);"#)
        .unwrap();
    r.exact(
        "Join3 application (canonical field order)",
        r#"[Age=21, Name="Joe", Office=27]"#,
        &show_value(&out.value),
    );
    let out = s.eval_one("project(it, [Name: string]);").unwrap();
    r.exact("projection", r#"[Name="Joe"]"#, &show_value(&out.value));

    println!("\n== E2/E3: Figures 2 and 3 ==");
    let mut s = fig2_session();
    let ty = s.type_of("parts;").unwrap();
    r.exact(
        "parts type (canonical field order)",
        "{[P#:int,Pinfo:<BasePart:[Cost:int],CompositePart:[AssemCost:int,SubParts:{[P#:int,Qty:int]}]>,Pname:string]}",
        &ty,
    );
    let out = s
        .eval_one("select x.Pname where x <- join(parts, {[Pinfo=(BasePart of [])]}) with true;")
        .unwrap();
    r.exact("base parts", r#"{"bolt", "nut"}"#, &show_value(&out.value));
    s.run("fun Join3(x,y,z) = join(x, join(y,z));").unwrap();
    let out = s
        .eval_one(
            r#"select x.Pname
               where x <- join(parts, supplied_by)
               with Join3(x.Suppliers, suppliers, {[Sname="Baker"]}) <> {};"#,
        )
        .unwrap();
    r.exact(
        "parts supplied by Baker (paper shows {\"bolt\", ...})",
        r#"{"bolt", "engine"}"#,
        &show_value(&out.value),
    );

    println!("\n== E4: Figure 4 — transitive closure ==");
    let s2 = Session::new();
    r.check(
        "Closure type (paper: {[A:\"a,B:\"b]} -> ...; its own x.B = y.A equates \"a and \"b)",
        "{[A:\"a,B:\"b]} -> {[A:\"a,B:\"b]}",
        &s2.scheme_of("Closure").unwrap().show(),
        s2.scheme_of("Closure").unwrap().show() == "{[A:\"a,B:\"a]} -> {[A:\"a,B:\"a]}",
    );

    println!("\n== E5: Figure 5 — cost and expensive_parts ==");
    let mut s = fig2_session();
    s.run(FIG5_SOURCE).unwrap();
    s.run(FIG5_POLY_SOURCE).unwrap();
    let out = s.eval_one("expensive_parts(parts, 1000);").unwrap();
    r.exact(
        "expensive_parts(parts, 1000) (paper: {\"engine\", ...})",
        r#"{"engine"}"#,
        &show_value(&out.value),
    );
    let out = s
        .eval_one("cost([Pinfo=(BasePart of [Cost=5]), Pname=\"b\", P#=1]);")
        .unwrap();
    r.exact("cost of a base part", "5", &show_value(&out.value));

    println!("\n== E7/E8: Figures 8 and 9 — views ==");
    let (mut s, uni) = university_session(UniversityParams {
        n_people: 100,
        seed: 2026,
        ..Default::default()
    });
    let counts = [
        ("PersonView", uni.objects.len()),
        ("EmployeeView", uni.count_employees()),
        ("StudentView", uni.count_students()),
        ("TFView", uni.count_tfs()),
    ];
    for (view, expected) in counts {
        let out = s.eval_one(&format!("card({view}(persons));")).unwrap();
        r.exact(
            &format!("{view} extent (vs generator ground truth)"),
            &expected.to_string(),
            &show_value(&out.value),
        );
    }
    let both = uni.roles.iter().filter(|x| x.0 && x.1).count();
    let out = s
        .eval_one("card(join(StudentView(persons), EmployeeView(persons)));")
        .unwrap();
    r.exact(
        "join of views = extent intersection",
        &both.to_string(),
        &show_value(&out.value),
    );
    let either = uni.roles.iter().filter(|x| x.0 || x.1).count();
    let out = s
        .eval_one("card(unionc(StudentView(persons), EmployeeView(persons)));")
        .unwrap();
    r.exact(
        "unionc of views = extent union",
        &either.to_string(),
        &show_value(&out.value),
    );

    println!("\n== E11: comprehension planner — plan shapes and agreement ==");
    {
        use machiavelli::store::Mode;
        let (mut s, _db) = scaled_parts_session(400, 40, 11);
        let join_query = "select (p.Pname, sb.P#) where p <- parts, sb <- supplied_by \
                          with p.P# = sb.P#;";
        let tree = s.plan_of(join_query).unwrap();
        println!("{tree}");
        r.check(
            "fig9-shape equi-join plans as hash build/probe",
            "plan contains a HashJoin node",
            if tree.contains("HashJoin") {
                "HashJoin"
            } else {
                "missing"
            },
            tree.contains("HashJoin"),
        );
        let fallback = s
            .plan_of("select x where x <- parts with not(member(x, parts));")
            .unwrap();
        r.check(
            "unsafe predicate falls back to select_loop",
            "Fallback (select_loop): …",
            &fallback,
            fallback.starts_with("Fallback (select_loop)"),
        );
        // Store off: E11 isolates the planner's build/probe win over
        // the nested loop; index *reuse* is measured separately in E12.
        let timed = |s: &mut Session, on: bool, query: &str| {
            let prev = s.engine().set_mode(Mode {
                planner: on,
                store: false,
            });
            let t0 = std::time::Instant::now();
            let out = s.eval_one(query).unwrap().value;
            let dt = t0.elapsed();
            s.engine().set_mode(prev);
            (out, dt)
        };
        let (planned, t_plan) = timed(&mut s, true, join_query);
        let (interpreted, t_interp) = timed(&mut s, false, join_query);
        r.check(
            "planner and select_loop agree on the equi-join",
            &format!("{} rows", as_card(&interpreted)),
            &format!("{} rows", as_card(&planned)),
            planned == interpreted,
        );
        let speedup = t_interp.as_secs_f64() / t_plan.as_secs_f64().max(1e-9);
        r.check(
            "hash build/probe beats the nested loop at n=400",
            "≥ 5×",
            &format!("{speedup:.1}× ({t_interp:.2?} vs {t_plan:.2?})"),
            speedup >= 5.0,
        );
    }

    println!("\n== E12: index store — repeated-plan reuse (fig5 cost recursion) ==");
    {
        use machiavelli::store::Mode;
        let (mut s, _db) = scaled_parts_session(200, 20, 11);
        s.run(FIG5_SOURCE).unwrap();
        let query = "expensive_parts(parts, 0);";
        let reps = 3u32;
        let timed = |s: &mut Session, planner: bool, store: bool| {
            let prev = s.engine().set_mode(Mode { planner, store });
            s.store_reset();
            let t0 = std::time::Instant::now();
            let mut out = None;
            for _ in 0..reps {
                out = Some(s.eval_one(query).unwrap().value);
            }
            let dt = t0.elapsed();
            s.engine().set_mode(prev);
            (out.unwrap(), dt)
        };
        let (v_store, t_store) = timed(&mut s, true, true);
        let stats = s.store_stats();
        let (v_rebuild, t_rebuild) = timed(&mut s, true, false);
        let (v_interp, t_interp) = timed(&mut s, false, false);
        r.check(
            "store, always-rebuild and select_loop agree",
            &format!("{} parts", as_card(&v_interp)),
            &format!("{} / {} parts", as_card(&v_store), as_card(&v_rebuild)),
            v_store == v_interp && v_rebuild == v_interp,
        );
        r.check(
            "the whole recursive sweep builds the parts index once",
            "1 build, hits ≥ 1",
            &format!("{} builds, {} hits", stats.builds, stats.hits),
            stats.builds == 1 && stats.hits >= 1,
        );
        let vs_interp = t_interp.as_secs_f64() / t_store.as_secs_f64().max(1e-9);
        let vs_rebuild = t_rebuild.as_secs_f64() / t_store.as_secs_f64().max(1e-9);
        println!(
            "       rebuild-vs-store : {vs_rebuild:.1}× ({t_rebuild:.2?} vs {t_store:.2?}, {reps} reps)"
        );
        r.check(
            "repeated fig5 eval beats the cold interpreted path",
            "≥ 3×",
            &format!("{vs_interp:.1}× ({t_interp:.2?} vs {t_store:.2?})"),
            vs_interp >= 3.0,
        );
    }

    println!("\n== E14: index store — cached indexes under unrelated writes ==");
    {
        // The repeated fig5 `cost` sweep mixed with ref writes to an
        // *unrelated* relation. Under a whole-store clear every write
        // would drop the store (one rebuild per write);
        // dependency-tracked invalidation must keep the `parts` index
        // warm through all of them.
        let (mut s, _db) = scaled_parts_session(120, 12, 11);
        s.run(FIG5_SOURCE).unwrap();
        s.run("val side = ref({[K=0]});").unwrap();
        s.store_reset();
        let first = s.eval_one("expensive_parts(parts, 0);").unwrap().value;
        let mut stable = true;
        for i in 0..4 {
            s.eval_one(&format!("side := {{[K={i}]}};")).unwrap();
            let again = s.eval_one("expensive_parts(parts, 0);").unwrap().value;
            stable = stable && again == first;
        }
        let stats = s.store_stats();
        r.check(
            "the parts index survives every unrelated ref write",
            "1 build, 0 invalidated, 0 cleared (a whole-store clear evicts all)",
            &format!(
                "{} builds, {} invalidated, {} cleared, results stable: {stable}",
                stats.builds, stats.invalidated, stats.cleared
            ),
            stats.builds == 1 && stats.invalidated == 0 && stats.cleared == 0 && stable,
        );
    }

    println!("\n== E10: §5 — unionc equation, member, dynamics ==");
    let mut s = Session::new();
    let lhs = s
        .eval_one(r#"unionc({[Name="a", Advisor=1]}, {[Name="b", Salary=9]});"#)
        .unwrap();
    let rhs = s
        .eval_one(
            r#"union(project({[Name="a", Advisor=1]}, {[Name: string]}),
                     project({[Name="b", Salary=9]}, {[Name: string]}));"#,
        )
        .unwrap();
    r.check(
        "unionc equation: union(s1,s2) = project(s1,⊓) ∪ project(s2,⊓)",
        &show_value(&rhs.value),
        &show_value(&lhs.value),
        lhs.value == rhs.value,
    );
    let out = s.eval_one("dynamic([A=1]) = dynamic([A=1]);").unwrap();
    r.exact(
        "dynamics equal only per creation",
        "false",
        &show_value(&out.value),
    );

    println!();
    if r.failures == 0 {
        println!("all experiments reproduce the paper (modulo documented display conventions)");
    } else {
        println!("{} experiment(s) diverged", r.failures);
        std::process::exit(1);
    }
}
