//! The chaos suite: prove the server's resilience contract under
//! injected faults.
//!
//! Invariants asserted throughout:
//!
//! * the **process never aborts** — every failure, injected or real,
//!   reaches the client as a structured [`ServerError`];
//! * a panic poisons **only its own session**;
//! * deadlines, cancellation, row budgets, and admission control all
//!   produce their own typed errors and counters.
//!
//! The tests share the process-global counter registry, so every test
//! serializes on [`SERIAL`] and starts from a zeroed registry.

use machiavelli_server::faults::{FaultConfig, INJECTED_PANIC_PREFIX};
use machiavelli_server::{QueryGuard, Server, ServerConfig, ServerError, ServerRole};
use machiavelli_trace::metrics::{self, Counter};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

/// Serialize a test and quiet the panic hook for injected payloads
/// (hundreds of *expected* evaluator panics would otherwise spam stderr).
fn serial() -> MutexGuard<'static, ()> {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains(INJECTED_PANIC_PREFIX));
            if !injected {
                previous(info);
            }
        }));
    });
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn reset_counters() {
    metrics::reset(Counter::ALL);
}

fn base_config() -> ServerConfig {
    ServerConfig {
        queue_cap: 16,
        default_deadline: None,
        row_budget: None,
        faults: Some(FaultConfig::off()),
        durable_root: None,
        role: ServerRole::Primary,
        ..ServerConfig::default()
    }
}

/// A query with well over 256 evaluator steps, so the governance tick
/// (and with it every tick-hosted fail point) is guaranteed to fire.
fn ticking_query() -> String {
    let elems: Vec<String> = (0..200).map(|i| format!("{i} + 0")).collect();
    format!("{{{}}};", elems.join(", "))
}

/// A query that grinds for a long time (nested loop over a cross
/// product), with ticks throughout: the workload for deadline /
/// cancellation / admission tests. Measured on a 2-core host: over
/// `heavy_setup()` (220 rows) ≈ 40–50 ms in a release build, ≈ 0.2 s in
/// a debug one; over `big_setup(600)` ≈ 0.4 s release, ≈ 1.8 s debug.
/// A test that sleeps and then needs it still running uses the latter.
fn heavy_query() -> &'static str {
    "card(select [A = x.K + y.K] where x <- big, y <- big with x.K + y.K >= 0);"
}

fn heavy_setup() -> String {
    big_setup(220)
}

fn big_setup(rows: usize) -> String {
    let elems: Vec<String> = (0..rows).map(|i| format!("[K = {i}]")).collect();
    format!("val big = {{{}}};", elems.join(", "))
}

/// Setup + keyed join for the storm: every session builds and probes
/// its own cached index.
fn indexed_setup() -> String {
    let rows: Vec<String> = (0..64)
        .map(|i| format!("[K = {i}, A = {}]", i * 10))
        .collect();
    format!(
        "val r = {{{}}}; val probe = {{[K = 3], [K = 7]}};",
        rows.join(", ")
    )
}

const INDEXED_QUERY: &str = "select x.A where y <- probe, x <- r with x.K = y.K;";

// ---------------------------------------------------------------- isolation

#[test]
fn injected_panic_poisons_only_its_session() {
    let _g = serial();
    reset_counters();
    let server = Server::start(ServerConfig {
        faults: Some(FaultConfig {
            eval_panic_ppm: 1_000_000,
            seed: 1,
            ..FaultConfig::off()
        }),
        ..base_config()
    });
    let a = server.open_session().expect("open a");
    let b = server.open_session().expect("open b");

    // The big query ticks, and every tick panics: session a dies with a
    // structured error naming the injected fault.
    match server.eval(a, &ticking_query()) {
        Err(ServerError::SessionPanicked(msg)) => {
            assert!(msg.contains(INJECTED_PANIC_PREFIX), "{msg}")
        }
        other => panic!("expected SessionPanicked, got {other:?}"),
    }
    // a is poisoned; only close works.
    assert_eq!(server.eval(a, "1;"), Err(ServerError::SessionPoisoned(a)));
    // b — evaluated on the *same calling thread* — is untouched. (A small query
    // never reaches a governance tick, so it runs clean even with the
    // fault at p=1.)
    assert_eq!(
        server.eval(b, "20 + 22;").expect("b survives"),
        vec!["val it = 42 : int".to_string()]
    );
    server
        .close_session(a)
        .expect("poisoned sessions can close");

    let stats = server.stats();
    assert_eq!(stats.metrics.get(Counter::SessionsPanicked), 1, "{stats}");
    assert!(stats.metrics.get(Counter::FaultEvalPanics) >= 1);
    server.shutdown();
}

// ------------------------------------------------------------- governance

#[test]
fn deadlines_trip_before_and_during_evaluation() {
    let _g = serial();
    reset_counters();
    let server = Server::start(ServerConfig {
        default_deadline: Some(Duration::ZERO),
        ..base_config()
    });
    let sid = server.open_session().expect("open");
    // Expired before evaluation even starts: the pre-check that covers
    // time spent waiting for the session.
    assert_eq!(
        server.eval(sid, "1;"),
        Err(ServerError::DeadlineExceeded),
        "zero deadline trips at admission"
    );
    // And mid-evaluation: a generous-enough deadline to start, far too
    // short for the heavy query.
    server
        .submit_with(sid, &heavy_setup(), Arc::new(QueryGuard::unlimited()))
        .expect("admit setup")
        .wait()
        .expect("setup");
    let guard = Arc::new(QueryGuard::with_timeout(Duration::from_millis(10), None));
    let out = server
        .submit_with(sid, heavy_query(), guard)
        .expect("admit")
        .wait();
    assert_eq!(out, Err(ServerError::DeadlineExceeded));
    // The session survives a deadline trip (no poisoning) — probed
    // under an explicit unlimited guard, since this server's *default*
    // deadline is zero.
    let probe = server
        .submit_with(sid, "1 + 1;", Arc::new(QueryGuard::unlimited()))
        .expect("admit")
        .wait();
    assert!(probe.is_ok(), "{probe:?}");
    assert!(metrics::get(Counter::QueriesDeadline) >= 2);
    server.shutdown();
}

#[test]
fn cancellation_stops_an_in_flight_query() {
    let _g = serial();
    reset_counters();
    let server = Server::start(base_config());
    let sid = server.open_session().expect("open");
    server.eval(sid, &big_setup(600)).expect("setup");
    let pending = server.submit(sid, heavy_query()).expect("admit");
    std::thread::sleep(Duration::from_millis(20)); // let it start grinding
    pending.cancel();
    assert_eq!(pending.wait(), Err(ServerError::Cancelled));
    assert!(server.eval(sid, "2;").is_ok(), "session survives");
    assert!(metrics::get(Counter::QueriesCancelled) >= 1);
    server.shutdown();
}

#[test]
fn row_budget_is_a_ceiling_even_on_the_final_set() {
    let _g = serial();
    reset_counters();
    let server = Server::start(base_config());
    let sid = server.open_session().expect("open");
    let guard = Arc::new(QueryGuard::new(None, Some(50)));
    let out = server
        .submit_with(sid, &ticking_query(), guard)
        .expect("admit")
        .wait();
    assert_eq!(out, Err(ServerError::RowBudgetExceeded));
    assert!(server.eval(sid, "3;").is_ok(), "session survives");
    assert!(metrics::get(Counter::QueriesRowBudget) >= 1);
    server.shutdown();
}

#[test]
fn admission_control_sheds_with_busy() {
    let _g = serial();
    reset_counters();
    let server = Server::start(ServerConfig {
        queue_cap: 1,
        ..base_config()
    });
    let sid = server.open_session().expect("open");
    server.eval(sid, &big_setup(600)).expect("setup");
    // p1 occupies the session...
    let p1 = server.submit(sid, heavy_query()).expect("admit p1");
    std::thread::sleep(Duration::from_millis(30));
    // ...p2 fills the queue (capacity 1)...
    let p2 = server.submit(sid, "1;").expect("admit p2");
    // ...and p3 is shed at the door.
    assert_eq!(server.submit(sid, "2;").err(), Some(ServerError::Busy));
    assert!(metrics::get(Counter::QueriesShed) >= 1);
    // Shedding lost nothing that was admitted: cancel the grinder and
    // the queued query still completes.
    p1.cancel();
    assert_eq!(p1.wait(), Err(ServerError::Cancelled));
    assert_eq!(
        p2.wait().expect("queued query runs"),
        vec!["val it = 1 : int"]
    );
    server.shutdown();
}

// ------------------------------------------------- no waiting on a neighbour

#[test]
fn nothing_waits_behind_a_busy_session() {
    let _g = serial();
    reset_counters();
    let server = Server::start(ServerConfig {
        // Ignored by the server; a pool of one worker would queue all
        // three probes below behind the grinding query.
        workers: 1,
        ..base_config()
    });
    let busy = server.open_session().expect("open busy");
    let other = server.open_session().expect("open other");
    // 600² pairs, so the grinder outlasts the 200 ms bar.
    server.eval(busy, &big_setup(600)).expect("setup");
    let grinding = server
        .submit_with(busy, heavy_query(), Arc::new(QueryGuard::unlimited()))
        .expect("admit the grinder");
    std::thread::sleep(Duration::from_millis(30)); // let it start grinding
    let within = |what: &str, started: Instant| {
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(200),
            "{what} waited {took:?} behind another session's eval"
        );
    };
    let t = Instant::now();
    let health = server.health();
    within("health()", t);
    assert_eq!(health.slots.len(), 2);
    let t = Instant::now();
    assert_eq!(server.session_ids(), vec![busy, other]);
    within("session_ids()", t);
    let t = Instant::now();
    assert_eq!(
        server.eval(other, "1;").expect("the other session answers"),
        vec!["val it = 1 : int"]
    );
    within("eval on the other session", t);
    // Cancelled, not finished: the probes ran while it was grinding.
    grinding.cancel();
    assert_eq!(grinding.wait(), Err(ServerError::Cancelled));
    server.shutdown();
}

// ------------------------------------------------------- reproducible faults

/// A session's fault stream is seeded from the config seed and its
/// session id, so a fresh server replays the same faults for the same
/// requests, whatever ran in the process before.
#[test]
fn a_seed_replays_the_same_faults_per_session() {
    let _g = serial();
    let run = || {
        let server = Server::start(ServerConfig {
            faults: Some(FaultConfig {
                eval_panic_ppm: 300_000,
                seed: 7,
                ..FaultConfig::off()
            }),
            ..base_config()
        });
        let outcomes: Vec<_> = (0..40)
            .map(|_| {
                let sid = server.open_session().expect("opens are deterministic");
                server.eval(sid, &ticking_query())
            })
            .collect();
        server.shutdown();
        outcomes
    };
    let first = run();
    assert_eq!(first, run(), "the same seed and sessions drew other faults");
    let oks = first.iter().filter(|r| r.is_ok()).count();
    assert!(
        0 < oks && oks < first.len(),
        "at 30% per tick some evals must panic and some succeed: {oks} ok"
    );
}

// ------------------------------------------------------------- the storm

#[test]
fn chaos_storm_100_sessions_stays_live() {
    let _g = serial();
    reset_counters();
    let server = Server::start(ServerConfig {
        queue_cap: 16,
        default_deadline: Some(Duration::from_millis(500)),
        row_budget: Some(100_000),
        faults: Some(FaultConfig {
            eval_panic_ppm: 60_000,
            delay_ppm: 40_000,
            delay_ms: 1,
            seed: 42,
            ..FaultConfig::off()
        }),
        durable_root: None,
        role: ServerRole::Primary,
        ..ServerConfig::default()
    });

    let mut oks = 0u64;
    let mut panicked = 0u64;
    let mut poisoned_follow_ups = 0u64;
    let mut other_structured = 0u64;
    let mut open_sids = Vec::new();
    for i in 0..100u32 {
        let sid = server.open_session().expect("opens are shielded");
        open_sids.push(sid);
        let queries = [
            format!("val seed = {i};"),
            indexed_setup(),
            INDEXED_QUERY.to_string(),
            ticking_query(),
        ];
        for q in &queries {
            match server.eval(sid, q) {
                Ok(_) => oks += 1,
                Err(ServerError::SessionPanicked(msg)) => {
                    assert!(
                        msg.contains(INJECTED_PANIC_PREFIX),
                        "only injected faults: {msg}"
                    );
                    panicked += 1;
                }
                Err(ServerError::SessionPoisoned(_)) => poisoned_follow_ups += 1,
                Err(
                    ServerError::Busy
                    | ServerError::DeadlineExceeded
                    | ServerError::Cancelled
                    | ServerError::RowBudgetExceeded
                    | ServerError::Query(_),
                ) => other_structured += 1,
                Err(other) => panic!("unstructured failure reached a client: {other:?}"),
            }
        }
    }

    let stats = server.stats();
    assert_eq!(stats.metrics.get(Counter::SessionsStarted), 100, "{stats}");
    assert_eq!(
        stats.metrics.get(Counter::SessionsPanicked),
        panicked,
        "every panic was reported to exactly one client: {stats}"
    );
    assert!(oks > 0, "the storm still made progress");
    assert!(
        panicked > 0,
        "at p=6% per tick over 100 ticking sessions, panics must occur \
         (oks={oks} panicked={panicked} poisoned={poisoned_follow_ups} other={other_structured})"
    );

    // After the storm: every session can still close, and the server
    // still serves clean queries.
    for sid in open_sids {
        server.close_session(sid).expect("close");
    }
    let fresh = server.open_session().expect("open after storm");
    assert_eq!(
        server.eval(fresh, "6 * 7;").expect("server is live"),
        vec!["val it = 42 : int".to_string()]
    );
    assert_eq!(metrics::get(Counter::SessionsClosed), 100);
    server.shutdown();
}
