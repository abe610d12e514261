//! Decision defended: a session prepares phrases by shape, so a phrase
//! whose shape it has already elaborated skips the parser and type
//! inference. Asserted, not just timed: over the point lookup machibench's
//! `point_hot` sends, the median prepared run (lex, patch the literals,
//! evaluate, render) must take at most 0.6× the median first run of the
//! shape (lex, parse, infer, evaluate, render). A ratio holds across
//! hosts where an absolute time does not.
//!
//! Both run in one session holding `parts`, warm, with the index the
//! lookup probes already built:
//!
//! * **miss** — the lookup's first run, `MISSES` times: each renames the
//!   comprehension's binders (`x0`, `x1`, …), which makes a new shape
//!   with the same parse, inference and evaluation work;
//! * **hit** — one shape's runs after its first, `HITS` times, each with
//!   fresh literals.
//!
//! Run: `cargo bench -p machiavelli-fixtures --bench inference`.

use machiavelli::Session;
use std::hint::black_box;
use std::time::Instant;

const PARTS: usize = 2000;
const MISSES: usize = 401;
const HITS: usize = 2001;
const BOUND: f64 = 0.6;

/// The `point_hot` lookup, its binders suffixed with `tag`.
fn lookup(tag: usize, a: usize, b: usize) -> String {
    format!(
        "select [Pname = x{tag}.Pname, P# = x{tag}.P#] where y{tag} <- {{[P# = {a}], [P# = {b}]}}, \
         x{tag} <- parts with x{tag}.P# = y{tag}.P#;"
    )
}

/// A prelude session holding `parts`, its `P#` index already built.
fn primed() -> Session {
    let mut s = Session::new();
    let rows: Vec<String> = (0..PARTS)
        .map(|i| format!("[P#={i}, Pname=\"part{i}\"]"))
        .collect();
    s.run(&format!("val parts = {{{}}};", rows.join(",")))
        .expect("load parts");
    s.run(&lookup(0, 1, 2)).expect("warm the index");
    s
}

/// Wall time of one request as the server spends it: run, then render.
fn time(s: &mut Session, src: &str) -> u64 {
    let t0 = Instant::now();
    let outcomes = s.run(src).expect("lookup");
    black_box(outcomes.iter().map(|o| o.show()).collect::<Vec<_>>());
    t0.elapsed().as_nanos() as u64
}

fn median(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

fn main() {
    let mut s = primed();
    let misses: Vec<u64> = (1..=MISSES)
        .map(|i| time(&mut s, &lookup(i, i % PARTS, (i * 31) % PARTS)))
        .collect();
    let hits: Vec<u64> = (0..HITS)
        .map(|i| time(&mut s, &lookup(0, i % PARTS, (i * 31) % PARTS)))
        .collect();
    let (miss, hit) = (median(misses), median(hits));
    let ratio = hit as f64 / miss.max(1) as f64;
    eprintln!(
        "inference: point lookup, median first run {:.1} µs, median prepared run {:.1} µs \
         ({ratio:.2}x, bound {BOUND}x)",
        miss as f64 / 1e3,
        hit as f64 / 1e3
    );
    if ratio > BOUND {
        eprintln!("inference: a prepared run must take at most {BOUND}x a first run");
        std::process::exit(1);
    }
}
