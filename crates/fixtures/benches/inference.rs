//! Decision defended: type inference runs once per phrase, with no
//! cache of inferred schemes. Machibench phrases are one short line
//! each, so the wire benchmark never sees inference of long or wide
//! programs: here the paper's example programs (Figure 1, Join3,
//! Closure, the views) plus generated programs with growing record
//! width and chain depth.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

/// Short measurement windows so the full figure suite runs in minutes;
/// rerun individual benches with Criterion CLI flags for precision.
fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}
use machiavelli::types::infer_program;
use machiavelli_fixtures::oodb::MACHIAVELLI_VIEWS;

fn bench_paper_programs(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference_paper");
    let programs: &[(&str, String)] = &[
        (
            "wealthy",
            "fun Wealthy(S) = select x.Name where x <- S with x.Salary > 100000;".into(),
        ),
        (
            "phone",
            "fun phone(x) = (case x.Status of Employee of y => y.Extension, \
             Consultant of y => y.Telephone);"
                .into(),
        ),
        ("join3", "fun Join3(x,y,z) = join(x, join(y,z));".into()),
        (
            "closure",
            "fun member(x,S) = hom((fn(y) => x = y), orelse, false, S);
             fun Closure(R) =
               let val r = select [A=x.A,B=y.B]
                           where x <- R, y <- R
                           with (x.B = y.A) andalso not(member([A=x.A,B=y.B],R))
               in if r = {} then R else Closure(union(R,r)) end;"
                .into(),
        ),
        ("fig8_views", MACHIAVELLI_VIEWS.to_string()),
    ];
    for (name, src) in programs {
        group.bench_function(*name, |b| b.iter(|| infer_program(src).unwrap()));
    }
    group.finish();
}

/// A program selecting `w` fields from records of width `w` — stresses
/// record-kind merging.
fn wide_record_program(w: usize) -> String {
    let fields: Vec<String> = (0..w).map(|i| format!("F{i} = {i}")).collect();
    let sels: Vec<String> = (0..w).map(|i| format!("x.F{i}")).collect();
    format!(
        "fun wide(x) = ({});\nwide([{}]);",
        sels.join(", "),
        fields.join(", ")
    )
}

/// A chain of `n` let-polymorphic bindings, each used twice — stresses
/// generalization and instantiation.
fn let_chain_program(n: usize) -> String {
    let mut out = String::from("val f0 = (fn(x) => x);\n");
    for i in 1..n {
        out.push_str(&format!(
            "val f{i} = (fn(x) => f{}(f{}(x)));\n",
            i - 1,
            i - 1
        ));
    }
    out
}

fn bench_generated_programs(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference_scaling");
    for w in [4usize, 16, 64] {
        let src = wide_record_program(w);
        group.bench_with_input(BenchmarkId::new("record_width", w), &src, |b, src| {
            b.iter(|| infer_program(src).unwrap())
        });
    }
    for n in [8usize, 32, 128] {
        let src = let_chain_program(n);
        group.bench_with_input(BenchmarkId::new("let_chain", n), &src, |b, src| {
            b.iter(|| infer_program(src).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_paper_programs, bench_generated_programs
}
criterion_main!(benches);
