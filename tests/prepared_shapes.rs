//! Prepared phrases are an optimisation that must be indistinguishable
//! from elaborating every phrase: seeded phrase sequences run on a
//! session with its prepared-phrase cache and on one without
//! (`machiavelli::testing::uncached_session`) must give the same reply or
//! error text at every step and the same canonical state at the end.
//!
//! The sequences mix keyed lookups with fresh literals, rebinds that
//! change a free identifier's type, `fun` redefinitions, type and
//! runtime errors, phrases that read `it`, open schemes, reads of a
//! relation whose variant row is still open, multi-phrase programs,
//! negative literals and escaped strings.
//!
//! The counter tests compare registry snapshots, so every test here
//! holds `SERIAL`: no other test in this binary bumps the phrase
//! counters while one is counting.

use machiavelli::testing::uncached_session;
use machiavelli::trace::metrics::{self, Counter};
use machiavelli::Session;
use machiavelli_fixtures::harness::{base_seed, canonical_state, Rng};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

const SEQUENCES: u64 = 12;
const STEPS: usize = 250;
const PARTS: u64 = 40;

const KINDS: &str = r#"val kinds = union({[K=1, I=(A of 1)]}, {[K=2, I=(B of "x")]});"#;

/// Names whose bindings the final comparison covers (`f` and `g` are
/// functions, which have no canonical form; the steps that call them
/// compare them).
const NAMES: [&str; 9] = ["parts", "kinds", "n", "s", "v", "a", "b", "r", "it"];

fn parts() -> String {
    let rows: Vec<String> = (0..PARTS)
        .map(|i| format!("[P#={i}, Pname=\"part{i}\"]"))
        .collect();
    format!("val parts = {{{}}};", rows.join(", "))
}

/// A string literal's source text, with escapes.
fn string_literal(rng: &mut Rng) -> String {
    const PIECES: [&str; 6] = ["a", "\\\"", "\\n", "\\t", "\\\\", "é"];
    let body: String = (0..rng.below(4))
        .map(|_| PIECES[rng.below(PIECES.len() as u64) as usize])
        .collect();
    format!("\"{body}\"")
}

/// One phrase (or program) from the pool, with fresh literals.
fn step(rng: &mut Rng) -> String {
    let k = rng.below(PARTS) as i64;
    let j = rng.below(1000) as i64 - 500;
    let b = if rng.below(2) == 0 { "true" } else { "false" };
    let lit = string_literal(rng);
    match rng.below(33) {
        0..=3 => format!(
            "select [Pname = x.Pname, P# = x.P#] where y <- {{[P# = {k}], [P# = {}]}}, \
             x <- parts with x.P# = y.P#;",
            rng.below(PARTS)
        ),
        4 => format!("select x.P# where x <- parts with x.P# > {j} andalso x.P# < -{k};"),
        // A rebind that changes the type of a free identifier, and back.
        5 => "val parts = 1;".to_string(),
        6 => parts(),
        7 => format!("parts + {k};"),
        // `fun` redefinitions, one of which changes the type.
        8 => format!("fun f(x) = x + {j};"),
        9 => format!("fun f(x) = x ^ {lit};"),
        10 => format!("f({j});"),
        11 => format!("f({lit});"),
        12 => format!("fun g(x) = if x > {k} then {b} else not({b});"),
        13 => format!("g({j});"),
        // Type errors and runtime errors.
        14 => format!("{j} + {lit};"),
        15 => format!("val v = {j} div {};", rng.below(2)),
        16 => format!("val v = {lit};"),
        // Phrases that read `it` (whatever it is bound to).
        17 => format!("it + {j};"),
        18 => format!("it ^ {lit};"),
        // Open schemes.
        19 => "{};".to_string(),
        20 => "val r = ref({});".to_string(),
        21 => format!("r := {{{j}}};"),
        22 => "!r;".to_string(),
        // Multi-phrase programs, some failing part-way.
        23 => format!("val a = {j}; val b = a * {k};"),
        24 => format!("val a = {lit}; {k} div 0; val b = {j};"),
        // A relation whose scheme holds a free variant row, as the
        // benchmark's `parts` does: phrases that leave the row alone,
        // phrases that extend it, and a projection that closes it.
        25 | 26 => format!("select x.K where x <- kinds with x.K > {j};"),
        27 => format!(
            "select x.K where x <- kinds with (case x.I of A of n => n > {j}, other => {b});"
        ),
        28 => format!("select x.K where x <- kinds with x.I = (A of {j});"),
        29 => format!("select x.K where x <- kinds with x.I = (C of {lit});"),
        30 => "project(kinds, {[K:int, I:<A:int, B:string>]});".to_string(),
        31 => KINDS.to_string(),
        // Reals, negatives, bools and strings in one phrase.
        _ => format!("val n = if {b} then -{k}.25 else {j}.5 + -0.75; val s = {lit} ^ \"-{k}\";"),
    }
}

/// A session under test, with the reference numbers it has shown.
struct Probe {
    session: Session,
    refs: Vec<String>,
}

impl Probe {
    fn new(session: Session) -> Probe {
        Probe {
            session,
            refs: Vec::new(),
        }
    }

    /// The reply a server would send (every outcome shown, or the
    /// error), with each `ref#<id>` renumbered in order of first
    /// appearance: ids come from one process-wide counter, so two
    /// sessions building the same cells number them differently.
    fn reply(&mut self, src: &str) -> String {
        let text = match self.session.run(src) {
            Ok(outcomes) => outcomes
                .iter()
                .map(|o| o.show())
                .collect::<Vec<_>>()
                .join("\n"),
            Err(e) => format!("ERR {e}"),
        };
        let mut out = String::new();
        let mut rest = text.as_str();
        while let Some(at) = rest.find("ref#") {
            out.push_str(&rest[..at + 4]);
            rest = &rest[at + 4..];
            let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
            let id = rest[..digits].to_string();
            let n = match self.refs.iter().position(|r| *r == id) {
                Some(n) => n,
                None => {
                    self.refs.push(id);
                    self.refs.len() - 1
                }
            };
            out.push_str(&n.to_string());
            rest = &rest[digits..];
        }
        out.push_str(rest);
        out
    }
}

fn names() -> Vec<String> {
    NAMES.iter().map(|n| n.to_string()).collect()
}

#[test]
fn cache_on_and_off_answer_alike() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let before = metrics::snapshot();
    for seq in 0..SEQUENCES {
        let seed = base_seed() ^ (seq + 1);
        let mut rng = Rng::new(seed);
        let mut cached = Probe::new(Session::new());
        let mut uncached = Probe::new(uncached_session());
        let setup = format!(
            "{} val r = ref({{0}}); fun f(x) = x; fun g(x) = true;",
            parts()
        );
        assert_eq!(cached.reply(&setup), uncached.reply(&setup));
        for i in 0..STEPS {
            let src = step(&mut rng);
            let (hot, cold) = (cached.reply(&src), uncached.reply(&src));
            assert_eq!(hot, cold, "seed {seed}, step {i}: {src}");
        }
        assert_eq!(
            canonical_state(&cached.session, &names()),
            canonical_state(&uncached.session, &names()),
            "seed {seed}: final state"
        );
    }
    // The comparison is not vacuous: the cached sessions served phrases
    // from their caches.
    let delta = metrics::snapshot().since(&before);
    assert!(delta.get(Counter::PhrasesPrepared) > 0, "{delta:?}");
}

#[test]
fn distinct_literals_of_one_shape_elaborate_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut s = Session::new();
    s.run(&parts()).unwrap();
    let before = metrics::snapshot();
    for i in 0..500u64 {
        let (a, b) = (i % PARTS, (i * 7 + 3) % PARTS);
        let out = s
            .eval_one(&format!(
                "select [Pname = x.Pname, P# = x.P#] where y <- {{[P# = {a}], [P# = {b}]}}, \
                 x <- parts with x.P# = y.P#;"
            ))
            .unwrap();
        assert!(out.show().contains(&format!("Pname=\"part{a}\"")));
    }
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.get(Counter::PhrasesPrepared), 499);
    assert_eq!(delta.get(Counter::PhrasesElaborated), 1);
    assert_eq!(delta.get(Counter::PhrasesUnprepared), 0);
}

#[test]
fn open_schemes_are_not_admitted() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut s = Session::new();
    let before = metrics::snapshot();
    // `{}` generalizes to `{"a}`; `r`'s scheme holds a free variable
    // until the first assignment fixes it.
    for src in ["{};", "{};", "val r = ref({});", "r := {1};", "!r;"] {
        s.run(src).unwrap();
    }
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.get(Counter::PhrasesPrepared), 0, "{delta:?}");
    assert_eq!(delta.get(Counter::PhrasesElaborated), 1, "only `!r;`");
    assert_eq!(delta.get(Counter::PhrasesUnprepared), 4);
    assert_eq!(
        s.eval_one("!r;").unwrap().show(),
        "val it = {1} : {int}",
        "r is now ground, so `!r;` is prepared"
    );
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.get(Counter::PhrasesPrepared), 1, "{delta:?}");
}

#[test]
fn stats_show_the_front_end_line() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let rendered = Session::new().stats().render();
    assert!(
        rendered.contains("front end: ") && rendered.contains(" prepared / "),
        "{rendered}"
    );
}
