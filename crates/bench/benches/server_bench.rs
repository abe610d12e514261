//! Server bench — hundreds of read-heavy concurrent sessions over the
//! shared index tier, and graceful degradation under injected faults.
//!
//! Three groups:
//!
//! * `server/shared_read/workers{1,4}` — 100 primed sessions per
//!   server, round-robin hot-index reads. The structural claim is
//!   asserted, not just timed: across all 200 sessions the process
//!   builds each hot index **once** (`publishes` stays fixed while
//!   every later session adopts).
//! * `server/faulted_read` — the same read loop under seeded fault
//!   injection (evaluator panics, delays, store poisoning): the server
//!   degrades gracefully — every faulted query returns a structured
//!   error, throughput is reduced, the process never aborts.
//!
//! Wall-clock speedup from `workers4` over `workers1` tracks the
//! machine's core count (a single-core container serializes the
//! workers); the one-build-per-hot-index invariant holds regardless.

use criterion::{criterion_group, criterion_main, Criterion};
use machiavelli::trace::metrics::Counter;
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

/// Start a server and prime `SESSIONS` sessions with identical
/// relations plus one warm run of the hot query each.
fn primed_server(workers: usize, faults: Option<FaultConfig>) -> (Server, Vec<u64>) {
    let server = Server::start(ServerConfig {
        workers,
        queue_cap: 64,
        default_deadline: Some(Duration::from_secs(5)),
        row_budget: None,
        shared_store: true,
        faults: Some(faults.unwrap_or_else(FaultConfig::off)),
        durable_root: None,
        role: ServerRole::Primary,
    });
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

    machiavelli_store::shared::reset_shared();

    // --- the shared-index hot path, 1 vs 4 workers -------------------
    let mut published_after_first_server = 0;
    for (nth, workers) in [1usize, 4].into_iter().enumerate() {
        let (server, sids) = primed_server(workers, None);
        let shared = server.stats();
        let publishes = shared.metrics.get(Counter::SharedPublishes);
        if nth == 0 {
            published_after_first_server = publishes;
            assert!(publishes >= 1, "the hot index was built: {shared}");
        } else {
            // The 100 sessions of the second server adopted the first
            // server's indexes: same content, zero further builds.
            assert_eq!(
                publishes,
                published_after_first_server,
                "one build per hot index across all {} sessions: {shared}",
                2 * SESSIONS
            );
        }
        // Every primed session except the original builder adopted
        // (cumulative across the servers started so far).
        let cumulative_sessions = ((nth + 1) * SESSIONS) as u64;
        assert!(
            shared.metrics.get(Counter::SharedAdoptions) >= cumulative_sessions - publishes,
            "later sessions adopt: {shared}"
        );
        let mut next = 0usize;
        group.bench_function(format!("shared_read/workers{workers}"), |b| {
            b.iter(|| {
                let sid = sids[next % sids.len()];
                next += 1;
                server.eval(sid, HOT_QUERY).expect("hot read")
            })
        });
        server.shutdown();
    }

    // --- graceful degradation under seeded faults --------------------
    let faults = FaultConfig {
        eval_panic_ppm: 30_000,
        delay_ppm: 20_000,
        delay_ms: 1,
        store_poison_ppm: 2_000,
        seed: 1989,
        ..FaultConfig::off()
    };
    let (server, sids) = primed_server(4, Some(faults));
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
