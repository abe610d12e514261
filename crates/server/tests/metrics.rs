//! Acceptance test for the `METRICS` wire verb: after a 100-query run
//! with zero panics, the server emits a parseable Prometheus-style
//! text exposition including a query-latency histogram.
//!
//! This file is its own test binary, so its process-global counters
//! (the metrics registry, the latency histogram) are isolated from the
//! chaos suite; the single test below owns them outright.

use machiavelli_server::faults::{FaultConfig, FaultPoint};
use machiavelli_server::wire::unescape_line;
use machiavelli_server::{serve_connection, Server, ServerConfig, ServerRole};

fn quiet_config() -> ServerConfig {
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

/// Every non-comment line must be `name[{labels}] value` with a
/// float-parseable value; returns (metric line, value) pairs.
fn parse_exposition(text: &str) -> Vec<(String, f64)> {
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("unparseable metrics line: {line:?}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric value in line: {line:?}"));
        assert!(
            name.chars().next().is_some_and(|c| c.is_ascii_alphabetic()),
            "metric name must start alphabetic: {line:?}"
        );
        samples.push((name.to_string(), value));
    }
    samples
}

/// Every series name (labels stripped) the exposition of a non-durable
/// server emitted at the commit before the counter registry — what
/// scrapers (`machibench` among them) key on — less the five series of
/// the retired shared index tier. Sorted. A durable server adds the
/// per-session gauge `machiavelli_repl_lag_groups`, which
/// `replication_wire.rs` reads.
const PINNED_SERIES: [&str; 28] = [
    "machiavelli_declines_total",
    "machiavelli_queries_cancelled_total",
    "machiavelli_queries_completed_total",
    "machiavelli_queries_deadline_total",
    "machiavelli_queries_row_budget_total",
    "machiavelli_queries_shed_total",
    "machiavelli_query_latency_seconds_bucket",
    "machiavelli_query_latency_seconds_count",
    "machiavelli_query_latency_seconds_sum",
    "machiavelli_queue_depth",
    "machiavelli_repl_acks_lost_total",
    "machiavelli_repl_acks_total",
    "machiavelli_repl_groups_applied_total",
    "machiavelli_repl_promotions_total",
    "machiavelli_repl_role",
    "machiavelli_repl_ship_bytes_total",
    "machiavelli_repl_ships_total",
    "machiavelli_repl_snap_transfers_total",
    "machiavelli_repl_stale_rejected_total",
    "machiavelli_sessions_closed_total",
    "machiavelli_sessions_panicked_total",
    "machiavelli_sessions_started_total",
    "machiavelli_wal_bytes_logged_total",
    "machiavelli_wal_checkpoints_total",
    "machiavelli_wal_commits_total",
    "machiavelli_wal_records_appended_total",
    "machiavelli_wal_recoveries_total",
    "machiavelli_wal_torn_tails_truncated_total",
];

fn sample(samples: &[(String, f64)], name: &str) -> f64 {
    samples
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("missing metric {name}"))
        .1
}

#[test]
fn metrics_exposition_after_hundred_query_run() {
    let server = Server::start(quiet_config());

    // Four sessions, 25 queries each: a mix of scalar evaluation,
    // planner-pipeline selects (with cache hits after the first), and
    // a couple of deliberate query errors (observed in the latency
    // histogram too — errors have latency).
    let mut sids = Vec::new();
    for _ in 0..4 {
        let sid = server.open_session().expect("open");
        server
            .eval(sid, "val r = {[K=1, A=10], [K=2, A=20], [K=3, A=30]};")
            .expect("setup");
        sids.push(sid);
    }
    for i in 0..25u64 {
        for &sid in &sids {
            let src = match i % 5 {
                0 => format!("{i} + 1;"),
                4 => "1 + true;".to_string(), // type error, still a query
                _ => format!("select x.A where x <- r with x.K = {};", i % 3 + 1),
            };
            let _ = server.eval(sid, &src);
        }
    }

    // Fetch the exposition over the wire protocol.
    let mut out = Vec::new();
    serve_connection(&server, "METRICS\nQUIT\n".as_bytes(), &mut out).expect("serve");
    let reply = String::from_utf8(out).expect("utf8");
    let mut lines = reply.lines();
    let metrics_line = lines.next().expect("one response line");
    assert!(metrics_line.starts_with("OK "), "{metrics_line}");
    assert_eq!(lines.next(), Some("OK bye"));

    let text = unescape_line(&metrics_line[3..]);
    let samples = parse_exposition(&text);

    // Histogram: cumulative buckets are monotonically non-decreasing,
    // terminate at +Inf, and +Inf agrees with _count.
    let buckets: Vec<&(String, f64)> = samples
        .iter()
        .filter(|(n, _)| n.starts_with("machiavelli_query_latency_seconds_bucket"))
        .collect();
    assert!(buckets.len() >= 2, "expected several buckets:\n{text}");
    for pair in buckets.windows(2) {
        assert!(
            pair[0].1 <= pair[1].1,
            "buckets must be cumulative: {} then {}",
            pair[0].0,
            pair[1].0
        );
    }
    let (last_name, last_value) = buckets.last().unwrap();
    assert!(last_name.contains("le=\"+Inf\""), "{last_name}");
    let count = sample(&samples, "machiavelli_query_latency_seconds_count");
    assert_eq!(*last_value, count, "+Inf bucket must equal _count");
    assert!(
        count >= 100.0,
        "expected >= 100 observed queries, got {count}"
    );
    assert!(
        sample(&samples, "machiavelli_query_latency_seconds_sum") >= 0.0,
        "sum present"
    );

    // Zero panics across the run.
    assert_eq!(sample(&samples, "machiavelli_sessions_panicked_total"), 0.0);
    assert_eq!(sample(&samples, "machiavelli_sessions_started_total"), 4.0);
    assert!(sample(&samples, "machiavelli_queries_completed_total") >= 100.0);

    // Gauges are present; nothing is in flight once eval() returned.
    assert_eq!(sample(&samples, "machiavelli_queue_depth"), 0.0);

    // The WAL counter family is always exported (zeros here: this
    // server runs without a durable root; the durability suite covers
    // the non-zero side).
    for name in [
        "machiavelli_wal_records_appended_total",
        "machiavelli_wal_bytes_logged_total",
        "machiavelli_wal_commits_total",
        "machiavelli_wal_checkpoints_total",
        "machiavelli_wal_recoveries_total",
        "machiavelli_wal_torn_tails_truncated_total",
    ] {
        assert!(sample(&samples, name) >= 0.0, "{name} present");
    }

    // The decline taxonomy is exported with one labelled line per
    // reason code, every one of them non-negative.
    let declines: Vec<&(String, f64)> = samples
        .iter()
        .filter(|(n, _)| n.starts_with("machiavelli_declines_total{reason="))
        .collect();
    assert_eq!(
        declines.len(),
        machiavelli_trace::DeclineReason::COUNT,
        "one line per decline reason:\n{text}"
    );

    // Name stability: every pinned series is still emitted, and the
    // only new ones are registry rows that were never rendered before —
    // the injected-fault tallies and the three prepared-phrase counters.
    let mut emitted: Vec<&str> = samples
        .iter()
        .map(|(n, _)| n.split('{').next().unwrap())
        .collect();
    emitted.sort_unstable();
    emitted.dedup();
    for name in PINNED_SERIES {
        assert!(emitted.contains(&name), "series {name} disappeared");
    }
    let added: Vec<&str> = emitted
        .iter()
        .copied()
        .filter(|n| !PINNED_SERIES.contains(n))
        .collect();
    const FRONT_END: [&str; 3] = [
        "machiavelli_phrases_elaborated_total",
        "machiavelli_phrases_prepared_total",
        "machiavelli_phrases_unprepared_total",
    ];
    // One tally per fail point, plus the front end's three.
    assert_eq!(
        added.len(),
        FaultPoint::ALL.len() + FRONT_END.len(),
        "{added:?}"
    );
    for name in added {
        assert!(
            name.starts_with("machiavelli_fault_") || FRONT_END.contains(&name),
            "unexpected new series {name}"
        );
    }
}
