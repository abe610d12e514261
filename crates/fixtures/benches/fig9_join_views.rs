//! Decision defended: the paper's `join` on sets stays an O(n·m) nested
//! loop over `con_value` (the planner never sees it). No machibench
//! workload sends `join`, so this is where its cost shows: Figure 9's
//! join of views (intersection of extents) and the advisor-salary
//! query, interpreted vs the native `nested_loop_join`, as the store
//! grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

/// Short measurement windows so the full figure suite runs in minutes;
/// rerun individual benches with Criterion CLI flags for precision.
fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}
use machiavelli::value::Value;
use machiavelli_fixtures::oodb::{employee_view, student_view, UniversityParams};
use machiavelli_fixtures::relational::nested_loop_join;
use machiavelli_fixtures::university_session;

fn bench_join_of_views(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_join_views");
    group.sample_size(10);
    for n in [50usize, 150, 400] {
        let params = UniversityParams {
            n_people: n,
            seed: 2,
            ..Default::default()
        };
        let (mut session, uni) = university_session(params);
        let store = uni.store();
        group.bench_with_input(BenchmarkId::new("interpreted", n), &n, |b, _| {
            b.iter(|| {
                session
                    .eval_one("join(StudentView(persons), EmployeeView(persons));")
                    .unwrap()
                    .value
            })
        });
        group.bench_with_input(BenchmarkId::new("native", n), &n, |b, _| {
            b.iter(|| nested_loop_join(&student_view(&store), &employee_view(&store)))
        });
    }
    group.finish();
}

fn bench_advisor_salary_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_advisor_salary");
    group.sample_size(10);
    for n in [50usize, 200] {
        let params = UniversityParams {
            n_people: n,
            seed: 2,
            ..Default::default()
        };
        let (mut session, uni) = university_session(params);
        session
            .run("val supported_student = join(StudentView(persons), EmployeeView(persons));")
            .unwrap();
        let query = "select x.Name
                     where x <- supported_student, y <- EmployeeView(persons)
                     with x.Advisor = y.Id andalso x.Salary > y.Salary;";
        group.bench_with_input(BenchmarkId::new("interpreted", n), &n, |b, _| {
            b.iter(|| session.eval_one(query).unwrap().value)
        });

        let store = uni.store();
        group.bench_with_input(BenchmarkId::new("native", n), &n, |b, _| {
            b.iter(|| {
                let supported = nested_loop_join(&student_view(&store), &employee_view(&store));
                let employees = employee_view(&store);
                let mut names = Vec::new();
                for x in supported.iter() {
                    let Value::Record(xf) = x else { continue };
                    for y in employees.iter() {
                        let Value::Record(yf) = y else { continue };
                        if xf.get("Advisor") == yf.get("Id") {
                            if let (Some(Value::Int(xs)), Some(Value::Int(ys))) =
                                (xf.get("Salary"), yf.get("Salary"))
                            {
                                if xs > ys {
                                    names.push(xf["Name"].clone());
                                }
                            }
                        }
                    }
                }
                Value::set(names)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_join_of_views, bench_advisor_salary_query
}
criterion_main!(benches);
