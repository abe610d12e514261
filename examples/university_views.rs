//! The §5 object-oriented database scenario: person objects with
//! identity, the Figure 8 views, join-as-intersection (Figure 9), class
//! union, and in-place updates through references.
//!
//! ```sh
//! cargo run --example university_views [n_people]
//! ```

use machiavelli_fixtures::oodb::UniversityParams;
use machiavelli_fixtures::university_session;

fn main() {
    let n_people: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100);

    println!("generating a university with {n_people} person objects…");
    let (mut session, uni) = university_session(UniversityParams {
        n_people,
        seed: 2026,
        ..Default::default()
    });
    println!(
        "ground truth: {} employees, {} students, {} teaching fellows",
        uni.count_employees(),
        uni.count_students(),
        uni.count_tfs()
    );

    let queries = [
        ("people", "card(PersonView(persons));"),
        ("employees", "card(EmployeeView(persons));"),
        ("students", "card(StudentView(persons));"),
        ("teaching fellows", "card(TFView(persons));"),
        (
            "students ∩ employees (join of views)",
            "card(join(StudentView(persons), EmployeeView(persons)));",
        ),
        (
            "students ∪ employees (unionc, typed as {Person})",
            "card(unionc(StudentView(persons), EmployeeView(persons)));",
        ),
    ];
    for (what, q) in queries {
        let out = session.eval_one(q).expect(q);
        println!("{what}: {}", machiavelli::value::show_value(&out.value));
    }

    // Figure 9: students who earn more than their advisors.
    session
        .run("val supported_student = join(StudentView(persons), EmployeeView(persons));")
        .expect("supported_student");
    let out = session
        .eval_one(
            "card(select x.Name
             where x <- supported_student, y <- EmployeeView(persons)
             with x.Advisor = y.Id andalso x.Salary > y.Salary);",
        )
        .expect("advisor-salary query");
    println!(
        "students earning more than their advisor: {}",
        machiavelli::value::show_value(&out.value)
    );

    // Method inheritance: a function written for employees applies to
    // teaching fellows unmodified.
    session
        .run("fun Wealthy(S) = select x.Name where x <- S with x.Salary > 150000;")
        .expect("Wealthy");
    let emp = session
        .eval_one("card(Wealthy(EmployeeView(persons)));")
        .unwrap();
    let tfs = session.eval_one("card(Wealthy(TFView(persons)));").unwrap();
    println!(
        "wealthy employees: {}, wealthy teaching fellows: {}",
        machiavelli::value::show_value(&emp.value),
        machiavelli::value::show_value(&tfs.value)
    );

    // Updates through object identity: give everyone teaching CS a raise
    // and observe it through a *different* view.
    session
        .run(
            "val raises = select (x.Id := modify(!(x.Id), Salary, (Value of 1000000)))
             where x <- TFView(persons) with true;",
        )
        .expect("raises");
    let out = session
        .eval_one("card(select x where x <- EmployeeView(persons) with x.Salary = 1000000);")
        .expect("post-raise query");
    println!(
        "employees now at the TF super-salary: {} (= teaching fellows: {})",
        machiavelli::value::show_value(&out.value),
        uni.count_tfs()
    );
}
