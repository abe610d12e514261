//! The Figure 2–5 part–supplier scenario end to end: a generated
//! non-first-normal-form database, the paper's queries, and an
//! interpreter-vs-native cross-check of the recursive `cost` function.
//!
//! ```sh
//! cargo run --example part_supplier [n_parts]
//! ```

use machiavelli::value::Value;
use machiavelli_fixtures::relational::native_cost;
use machiavelli_fixtures::{scaled_parts_session, FIG5_SOURCE};

fn main() {
    let n_parts: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(40);

    println!("building a part-supplier database with {n_parts} parts…");
    let (mut session, db) = scaled_parts_session(n_parts, 8, 2026);

    // Figure 3, query 1: all base parts.
    let out = session
        .eval_one("card(join(parts, {[Pinfo=(BasePart of [])]}));")
        .expect("base-parts query");
    println!("base parts: {}", machiavelli::value::show_value(&out.value));

    // Figure 3, query 2: names of parts supplied by a given supplier.
    session
        .run("fun Join3(x,y,z) = join(x, join(y,z));")
        .expect("Join3");
    let out = session
        .eval_one(
            r#"card(select x.Pname
               where x <- join(parts, supplied_by)
               with Join3(x.Suppliers, suppliers, {[Sname="supplier0"]}) <> {});"#,
        )
        .expect("supplied-by query");
    println!(
        "parts supplied by supplier0: {}",
        machiavelli::value::show_value(&out.value)
    );

    // Figure 5: the recursive cost function, interpreted.
    session.run(FIG5_SOURCE).expect("cost definitions");
    let out = session
        .eval_one("select [P = x.P#, C = cost(x)] where x <- parts with true;")
        .expect("cost query");

    // Cross-check every part against the native implementation.
    let Value::Set(rows) = &out.value else {
        unreachable!()
    };
    let mut checked = 0;
    for row in rows.iter() {
        let Value::Record(fs) = row else {
            unreachable!()
        };
        let (Value::Int(p), Value::Int(c)) = (&fs["P"], &fs["C"]) else {
            unreachable!()
        };
        assert_eq!(native_cost(&db.parts, *p), Some(*c), "part {p}");
        checked += 1;
    }
    println!("interpreted cost verified against native for {checked} parts ✓");

    // The headline query: expensive parts.
    let out = session
        .eval_one("expensive_parts(parts, 5000);")
        .expect("expensive_parts");
    println!(
        ">> val it = {} : {}",
        machiavelli::value::show_value(&out.value),
        out.scheme.show()
    );
}
