//! Decisions defended: no process-wide index tier (`first_query`), and
//! injected faults degrade service but never abort it (`faulted_read`).
//! Machibench opens one session per connection and injects no faults,
//! so it sees neither.
//!
//! Three groups:
//!
//! * `server/primed_read` — 100 primed sessions, round-robin
//!   hot-index reads. Every session built its own index while priming,
//!   so this times warm probes only.
//! * `server/first_query` — each iteration opens a session, loads the
//!   128-row relation, runs the hot query once (paying the index build)
//!   and closes the session. This is the per-session cost a
//!   process-wide index tier could save; `docs/PERFORMANCE.md` records
//!   why none is kept.
//! * `server/faulted_read` — the primed read loop under seeded fault
//!   injection (evaluator panics, delays): the server degrades
//!   gracefully — every faulted query returns a structured error,
//!   throughput is reduced, the process never aborts.
//!
//! Every read runs on the bench thread, under its session's lock.

use criterion::{criterion_group, criterion_main, Criterion};
use machiavelli_server::faults::FaultConfig;
use machiavelli_server::{Server, ServerConfig, ServerError, ServerRole};
use std::time::Duration;

const SESSIONS: usize = 100;

fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}

fn indexed_setup() -> String {
    let rows: Vec<String> = (0..128)
        .map(|i| format!("[K = {i}, A = {}]", i * 10))
        .collect();
    format!(
        "val r = {{{}}}; val probe = {{[K = 3], [K = 7], [K = 96]}};",
        rows.join(", ")
    )
}

const HOT_QUERY: &str = "select x.A where y <- probe, x <- r with x.K = y.K;";

fn start_server(faults: Option<FaultConfig>) -> Server {
    Server::start(ServerConfig {
        queue_cap: 64,
        default_deadline: Some(Duration::from_secs(5)),
        row_budget: None,
        faults: Some(faults.unwrap_or_else(FaultConfig::off)),
        durable_root: None,
        role: ServerRole::Primary,
        ..ServerConfig::default()
    })
}

/// Start a server and prime `SESSIONS` sessions with identical
/// relations plus one warm run of the hot query each.
fn primed_server(faults: Option<FaultConfig>) -> (Server, Vec<u64>) {
    let server = start_server(faults);
    let setup = indexed_setup();
    let sids: Vec<u64> = (0..SESSIONS)
        .map(|_| server.open_session().expect("open"))
        .collect();
    for &sid in &sids {
        // Under faults the priming evals may legitimately fail with
        // structured errors; anything else is a bench bug.
        for src in [setup.as_str(), HOT_QUERY] {
            if let Err(e) = server.eval(sid, src) {
                assert!(structured(&e), "unstructured priming failure: {e:?}");
            }
        }
    }
    (server, sids)
}

fn structured(e: &ServerError) -> bool {
    matches!(
        e,
        ServerError::Busy
            | ServerError::SessionPanicked(_)
            | ServerError::SessionPoisoned(_)
            | ServerError::DeadlineExceeded
            | ServerError::Cancelled
            | ServerError::RowBudgetExceeded
            | ServerError::Query(_)
    )
}

/// Silence the panic hook for *injected* payloads (the faulted group
/// would otherwise spray hundreds of expected backtraces into the
/// bench output); real panics still print.
fn quiet_injected_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains(machiavelli_server::faults::INJECTED_PANIC_PREFIX));
        if !injected {
            previous(info);
        }
    }));
}

fn bench_server(c: &mut Criterion) {
    quiet_injected_panics();
    let mut group = c.benchmark_group("server");
    group.sample_size(10);

    // --- warm hot-index reads ----------------------------------------
    let (server, sids) = primed_server(None);
    let mut next = 0usize;
    group.bench_function("primed_read", |b| {
        b.iter(|| {
            let sid = sids[next % sids.len()];
            next += 1;
            server.eval(sid, HOT_QUERY).expect("hot read")
        })
    });
    server.shutdown();

    // --- a fresh session's first keyed query --------------------------
    let server = start_server(None);
    let setup = indexed_setup();
    group.bench_function("first_query", |b| {
        b.iter(|| {
            let sid = server.open_session().expect("open");
            server.eval(sid, &setup).expect("setup");
            let out = server.eval(sid, HOT_QUERY).expect("first read");
            server.close_session(sid).expect("close");
            out
        })
    });
    server.shutdown();

    // --- graceful degradation under seeded faults --------------------
    let faults = FaultConfig {
        eval_panic_ppm: 30_000,
        delay_ppm: 20_000,
        delay_ms: 1,
        seed: 1989,
        ..FaultConfig::off()
    };
    let (server, sids) = primed_server(Some(faults));
    let mut next = 0usize;
    let mut faulted = 0u64;
    group.bench_function("faulted_read", |b| {
        b.iter(|| {
            let sid = sids[next % sids.len()];
            next += 1;
            match server.eval(sid, HOT_QUERY) {
                Ok(out) => out,
                Err(e) => {
                    assert!(structured(&e), "unstructured failure: {e:?}");
                    faulted += 1;
                    Vec::new()
                }
            }
        })
    });
    let stats = server.stats();
    eprintln!(
        "server_bench: faulted_read saw {faulted} structured errors during timing; \
         counters: {stats}"
    );
    server.shutdown();
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_server
}
criterion_main!(benches);
