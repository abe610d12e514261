//! One run of one workload: set up `machid` (several times, for a steady
//! `setup_s`), warm up, drive the closed loop for the window, scrape, check,
//! crash and restart the durable ones, and report.

use crate::client::{lag_groups, Conn, Delta, Machid, Scrape};
use crate::twins;
use crate::workload::{PoolEntry, Stream, Workload};
use machiavelli::Session;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads = connections = sessions; never more than `nproc` (2 on
/// the host this was calibrated on).
pub const CONNECTIONS: usize = 2;
/// Full set-ups per run; `setup_s` is their median and the last one serves
/// the window. `machid` polls for connections every 20 ms, which alone moves
/// a 100 ms set-up by a fifth; five repetitions steady the median.
const SETUP_REPS: usize = 5;
const WARMUP: Duration = Duration::from_secs(2);

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub machid_bin: PathBuf,
    /// `benchmark/out`: everything a run writes lives under it.
    pub out_dir: PathBuf,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The per-layer metrics that are median self times of one request, in µs,
/// in pipeline order. Their sum is what the in-process twins account for;
/// `machid.socket_ms` is the rest of `p50_ms`.
pub const LAYER_SELF_TIMES: [&str; 8] = [
    "syntax.parse_us",
    "types.infer_us",
    "plan.compile_us",
    "exec.run_us",
    "value.render_us",
    "wal.commit_us",
    "server.dispatch_us",
    "wire.line_us",
];

pub struct RunReport {
    /// The gated client-observed metrics.
    pub end_to_end: Vec<Metric>,
    /// Printed, never gated: `p99_ms`, `n_requests`, `restart_ms`, ….
    pub info: Vec<Metric>,
    /// Per-layer metrics; filled only on a traced run.
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Structural expectations of the workload that did not hold.
    pub violations: Vec<String>,
}

/// The pinned knobs for `workload`; everything else stays at its default.
/// Paths are added per process by [`set_up`].
pub fn pinned_env(workload: &Workload) -> Vec<(String, String)> {
    let mut env = vec![
        ("MACHID_WORKERS".to_string(), "2".to_string()),
        ("MACHIAVELLI_PAR_THREADS".to_string(), "2".to_string()),
    ];
    if let Some(rows) = workload.cache_budget_rows {
        // Both of the program's index caches: the per-session store and the
        // process-wide shared tier its server workers adopt from.
        env.push((
            "MACHIAVELLI_STORE_BUDGET_ROWS".to_string(),
            rows.to_string(),
        ));
        env.push((
            "MACHIAVELLI_SHARED_BUDGET_ROWS".to_string(),
            rows.to_string(),
        ));
    }
    env
}

/// The `machid` process(es) of a run with their loaded sessions.
struct Cluster {
    conns: Vec<Conn>,
    sids: Vec<u64>,
    // Dropped (killed) in this order: follower first, so it does not spend
    // its last moments retrying a dead primary.
    follower: Option<Machid>,
    primary: Machid,
}

fn io_err(what: &str, e: std::io::Error) -> String {
    format!("{what}: {e}")
}

/// Spawn, connect, `OPEN` and load. Returns the cluster and the seconds
/// from spawn to the first query answered on every connection.
fn set_up(cfg: &RunConfig, run_dir: &Path, script: &[String]) -> Result<(Cluster, f64), String> {
    let _ = std::fs::remove_dir_all(run_dir);
    std::fs::create_dir_all(run_dir).map_err(|e| io_err("create run dir", e))?;
    let started = Instant::now();
    let primary = spawn_primary(cfg, run_dir)?;
    let follower = if cfg.workload.follower {
        let mut env = pinned_env(&cfg.workload);
        env.push(("MACHID_ROLE".to_string(), "follower".to_string()));
        env.push(("MACHID_PRIMARY_ADDR".to_string(), primary.addr.clone()));
        env.push((
            "MACHID_DURABLE_ROOT".to_string(),
            run_dir.join("follower").display().to_string(),
        ));
        let log = run_dir.join("follower.log");
        Some(Machid::spawn(&cfg.machid_bin, &env, &log).map_err(|e| io_err("spawn follower", e))?)
    } else {
        None
    };
    let (conns, sids) = open_sessions(&primary)?;
    let mut cluster = Cluster {
        conns,
        sids,
        follower,
        primary,
    };
    std::thread::scope(|scope| {
        let loaders: Vec<_> = cluster
            .conns
            .iter_mut()
            .zip(&cluster.sids)
            .map(|(conn, &sid)| {
                scope.spawn(move || -> Result<(), String> {
                    for src in script {
                        let reply = conn
                            .round_trip(&format!("EVAL {sid} {src}\n"))
                            .map_err(|e| io_err("load", e))?;
                        if !reply.starts_with("VAL ") {
                            let head: String = reply.chars().take(200).collect();
                            return Err(format!("load step answered {head:?}"));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        loaders
            .into_iter()
            .try_for_each(|l| l.join().expect("loader thread panicked"))
    })?;
    Ok((cluster, started.elapsed().as_secs_f64()))
}

fn spawn_primary(cfg: &RunConfig, run_dir: &Path) -> Result<Machid, String> {
    let mut env = pinned_env(&cfg.workload);
    if cfg.workload.durable {
        env.push((
            "MACHID_DURABLE_ROOT".to_string(),
            run_dir.join("primary").display().to_string(),
        ));
    }
    let log = run_dir.join("primary.log");
    Machid::spawn(&cfg.machid_bin, &env, &log).map_err(|e| io_err("spawn machid", e))
}

/// One connection and one session each, opened in order so that session
/// ids (and with them the durable directories) are the same after a restart.
fn open_sessions(primary: &Machid) -> Result<(Vec<Conn>, Vec<u64>), String> {
    let mut conns = Vec::new();
    let mut sids = Vec::new();
    for _ in 0..CONNECTIONS {
        let mut conn = Conn::connect(&primary.addr).map_err(|e| io_err("connect", e))?;
        sids.push(conn.open_session().map_err(|e| io_err("OPEN", e))?);
        conns.push(conn);
    }
    Ok((conns, sids))
}

/// What one connection saw while driven.
#[derive(Default)]
struct ConnLog {
    latencies_ns: Vec<u64>,
    failed: u64,
    user_bytes: u64,
}

/// Closed loop: each connection sends its next request only after the
/// previous reply is fully read and checked, until `window` has passed.
/// Returns the logs and the seconds until the last connection finished.
fn drive(cluster: &mut Cluster, streams: &mut [Stream], window: Duration) -> (Vec<ConnLog>, f64) {
    let started = Instant::now();
    let deadline = started + window;
    let logs = std::thread::scope(|scope| {
        let drivers: Vec<_> = cluster
            .conns
            .iter_mut()
            .zip(&cluster.sids)
            .zip(streams.iter_mut())
            .map(|((conn, &sid), stream)| {
                scope.spawn(move || {
                    let mut log = ConnLog::default();
                    while Instant::now() < deadline {
                        let request = stream.next_request();
                        let line = request.wire_line(sid);
                        let sent = Instant::now();
                        let ok = match conn.round_trip(&line) {
                            Ok(reply) => request.accepts(reply),
                            Err(_) => false,
                        };
                        log.latencies_ns.push(sent.elapsed().as_nanos() as u64);
                        log.user_bytes += request.user_bytes();
                        if !ok {
                            log.failed += 1;
                        }
                    }
                    log
                })
            })
            .collect();
        drivers
            .into_iter()
            .map(|d| d.join().expect("driver thread panicked"))
            .collect()
    });
    (logs, started.elapsed().as_secs_f64())
}

/// The `q`-quantile of sorted `values` (nearest rank).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The `VAL` payload `machid` sends for `outcomes`.
pub fn payload(outcomes: &[machiavelli::Outcome]) -> String {
    let shown: Vec<String> = outcomes.iter().map(|o| o.show()).collect();
    shown.join("; ")
}

/// Answer every pool query on an in-process session fed the same load
/// script: the oracle for scans and joins.
fn pool_answers(
    workload: &Workload,
    seed: u64,
    script: &[String],
) -> Result<Vec<PoolEntry>, String> {
    let pool = workload.pool(seed);
    if pool.is_empty() {
        return Ok(Vec::new());
    }
    let mut oracle = Session::try_new().map_err(|e| format!("oracle session: {e}"))?;
    for src in script {
        oracle.run(src).map_err(|e| format!("oracle load: {e}"))?;
    }
    pool.into_iter()
        .map(|src| {
            let outcomes = oracle.run(&src).map_err(|e| format!("oracle query: {e}"))?;
            Ok(PoolEntry {
                expect: payload(&outcomes).into(),
                src: src.into(),
            })
        })
        .collect()
}

pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    let workload = &cfg.workload;
    let run_dir = cfg
        .out_dir
        .join(format!("{}-{}", workload.name, std::process::id()));
    let script = workload.load_script(cfg.seed);
    let answers = Arc::new(pool_answers(workload, cfg.seed, &script)?);

    let mut setups = Vec::new();
    let mut cluster = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up's processes must be gone before the next
        // starts, or its timing would include their teardown.
        drop(cluster.take());
        let (fresh, seconds) = set_up(cfg, &run_dir, &script)?;
        setups.push(seconds);
        cluster = Some(fresh);
    }
    let mut cluster = cluster.expect("SETUP_REPS is at least one");
    let mut streams: Vec<Stream> = (0..CONNECTIONS)
        .map(|conn| workload.stream(cfg.seed, conn, answers.clone()))
        .collect();

    let (warm_logs, _) = drive(&mut cluster, &mut streams, WARMUP);
    let before = Scrape::take(&mut cluster.conns[0]).map_err(|e| io_err("scrape", e))?;
    let (logs, elapsed) = drive(&mut cluster, &mut streams, Duration::from_secs(cfg.seconds));
    let after = Scrape::take(&mut cluster.conns[0]).map_err(|e| io_err("scrape", e))?;
    let delta = Delta {
        before: &before,
        after: &after,
    };

    let mut peak_rss_mb = cluster
        .primary
        .peak_rss_mb()
        .map_err(|e| io_err("VmHWM", e))?;
    let mut info = Vec::new();
    if let Some(follower) = &cluster.follower {
        peak_rss_mb += follower.peak_rss_mb().map_err(|e| io_err("VmHWM", e))?;
        let catchup_ms = await_follower(&mut cluster.conns[0])?;
        info.push(Metric::new("repl.catchup_ms", catchup_ms, "ms"));
    }

    let requests = |logs: &[ConnLog]| {
        logs.iter()
            .map(|l| l.latencies_ns.len() as u64)
            .sum::<u64>()
    };
    let failures = |logs: &[ConnLog]| logs.iter().map(|l| l.failed).sum::<u64>();
    let in_window = requests(&logs);
    let correct_in_window = in_window - failures(&logs);
    // A wrong answer while warming up is still a wrong answer.
    let mut attempted = in_window + requests(&warm_logs);
    let mut failed = failures(&logs) + failures(&warm_logs);
    let user_bytes: u64 = logs.iter().map(|l| l.user_bytes).sum();
    let mut latencies: Vec<u64> = logs.into_iter().flat_map(|l| l.latencies_ns).collect();
    latencies.sort_unstable();
    if latencies.is_empty() {
        return Err("no request completed in the window".to_string());
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let p50_ms = ms(quantile(&latencies, 0.50));

    info.push(Metric::new("n_requests", in_window as f64, "count"));
    if in_window >= 1000 {
        info.push(Metric::new("p99_ms", ms(quantile(&latencies, 0.99)), "ms"));
    }

    if workload.durable {
        let (restart_ms, checked, lost) = crash_and_read_back(cfg, cluster, &run_dir, &streams)?;
        attempted += checked;
        failed += lost;
        info.push(Metric::new("restart_ms", restart_ms, "ms"));
    } else {
        drop(cluster);
    }

    let mut violations = structural_violations(workload, &delta);
    let mut per_layer = Vec::new();
    if cfg.trace {
        let traced = twins::replay(cfg, &script, answers, &run_dir.join("twins"))?;
        violations.extend(traced.violations);
        per_layer = traced.metrics;
        per_layer.extend(scraped_layer_metrics(workload, &delta, user_bytes));
        // Σ layer self times + socket = p50, by construction: whatever the
        // in-process twins do not account for is the socket's.
        let layer_sum_us: f64 = per_layer
            .iter()
            .filter(|m| LAYER_SELF_TIMES.contains(&m.name))
            .map(|m| m.value)
            .sum();
        let socket_ms = p50_ms - layer_sum_us / 1e3;
        per_layer.push(Metric::new("machid.socket_ms", socket_ms, "ms"));
        info.extend(traced.info);
        info.push(Metric::new(
            "tcp_rps_per_conn",
            correct_in_window as f64 / elapsed / CONNECTIONS as f64,
            "1/s",
        ));
    }
    if failed == 0 && violations.is_empty() {
        let _ = std::fs::remove_dir_all(&run_dir);
    }

    let end_to_end = vec![
        Metric::new("throughput_rps", correct_in_window as f64 / elapsed, "1/s"),
        Metric::new("p50_ms", p50_ms, "ms"),
        Metric::new("p95_ms", ms(quantile(&latencies, 0.95)), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        Metric::new("setup_s", median_f64(&mut setups), "s"),
    ];
    Ok(RunReport {
        end_to_end,
        info,
        per_layer,
        attempted,
        failed,
        violations,
    })
}

/// Poll `HEALTH` until the follower has acknowledged every commit group.
/// Returns the milliseconds from the last acknowledged write to lag 0.
fn await_follower(conn: &mut Conn) -> Result<f64, String> {
    let started = Instant::now();
    loop {
        let behind = lag_groups(conn).map_err(|e| io_err("HEALTH", e))?;
        if behind == 0 {
            return Ok(started.elapsed().as_secs_f64() * 1e3);
        }
        if started.elapsed() > Duration::from_secs(20) {
            return Err(format!("follower still {behind} groups behind after 20 s"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// SIGKILL every process, restart the primary on the same durable root, and
/// ask each session for what its stream's model says was acknowledged.
/// Returns (restart ms, checks made, checks failed).
///
/// A process kill leaves the OS page cache intact, so this checks the commit
/// protocol (nothing acknowledged before its log record was written), not
/// what the device does on power loss.
fn crash_and_read_back(
    cfg: &RunConfig,
    cluster: Cluster,
    run_dir: &Path,
    streams: &[Stream],
) -> Result<(f64, u64, u64), String> {
    let sids_before = cluster.sids.clone();
    drop(cluster);
    let started = Instant::now();
    let primary = spawn_primary(cfg, run_dir)?;
    let (mut conns, sids) = open_sessions(&primary)?;
    let restart_ms = started.elapsed().as_secs_f64() * 1e3;
    if sids != sids_before {
        return Err(format!(
            "restart opened sessions {sids:?}, expected {sids_before:?}"
        ));
    }
    let (mut checked, mut lost) = (0, 0);
    for ((conn, &sid), stream) in conns.iter_mut().zip(&sids).zip(streams) {
        for check in stream.readback() {
            checked += 1;
            let ok = conn
                .round_trip(&check.wire_line(sid))
                .is_ok_and(|reply| check.accepts(reply));
            if !ok {
                lost += 1;
            }
        }
    }
    Ok((restart_ms, checked, lost))
}

/// The expectations in the issue's per-layer table that the real `machid`'s
/// own counters can confirm, so a mis-built workload fails loudly instead of
/// measuring the wrong layer.
fn structural_violations(workload: &Workload, delta: &Delta) -> Vec<String> {
    let mut violations = Vec::new();
    let mut expect = |holds: bool, what: String| {
        if !holds {
            violations.push(what);
        }
    };
    for counter in [
        "queries_shed_total",
        "queries_deadline_total",
        "queries_cancelled_total",
        "queries_row_budget_total",
        "sessions_panicked_total",
    ] {
        let n = delta.of(counter);
        expect(n == 0.0, format!("{counter} rose by {n} in the window"));
    }
    let commits = delta.of("wal_commits_total");
    if workload.durable {
        expect(
            commits > 0.0,
            "a durable workload made no WAL commit".into(),
        );
    } else {
        expect(
            commits == 0.0,
            format!("an in-memory workload made {commits} WAL commits"),
        );
    }
    let ships = delta.of("repl_ships_total") + delta.of("repl_snap_transfers_total");
    if workload.follower {
        expect(ships > 0.0, "the follower pulled nothing".into());
    } else {
        expect(ships == 0.0, format!("{ships} ships without a follower"));
    }
    violations
}

/// Per-layer metrics that come from `machid`'s counters over the window.
fn scraped_layer_metrics(workload: &Workload, delta: &Delta, user_bytes: u64) -> Vec<Metric> {
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let commits = delta.of("wal_commits_total");
    let wal_bytes = delta.of("wal_bytes_logged_total");
    let queries = delta.of("query_latency_seconds_count");
    vec![
        Metric::new(
            "store.shared_adoptions",
            delta.of("shared_adoptions_total"),
            "count",
        ),
        Metric::new("plan.declines", delta.of("declines_total"), "count"),
        Metric::new("wal.bytes_per_commit", per(wal_bytes, commits), "bytes"),
        Metric::new(
            "wal.records_per_commit",
            per(delta.of("wal_records_appended_total"), commits),
            "count",
        ),
        Metric::new(
            "wal.log_bytes_per_user_byte",
            per(wal_bytes, user_bytes as f64),
            "ratio",
        ),
        Metric::new(
            "server.eval_mean_us",
            per(delta.of("query_latency_seconds_sum") * 1e6, queries),
            "us",
        ),
        Metric::new("server.shed", delta.of("queries_shed_total"), "count"),
        Metric::new(
            "server.deadline",
            delta.of("queries_deadline_total"),
            "count",
        ),
        Metric::new(
            "server.panicked",
            delta.of("sessions_panicked_total"),
            "count",
        ),
        Metric::new("repl.ship_calls", delta.of("repl_ships_total"), "count"),
        Metric::new(
            "repl.snap_transfers",
            delta.of("repl_snap_transfers_total"),
            "count",
        ),
        // SHIP payloads are hex on the wire: two bytes per log byte.
        Metric::new(
            "repl.ship_bytes_per_wal_byte",
            per(2.0 * delta.of("repl_ship_bytes_total"), wal_bytes),
            "ratio",
        ),
        Metric::new(
            "repl.lag_groups_at_end",
            if workload.follower {
                delta.after.lag_groups as f64
            } else {
                0.0
            },
            "count",
        ),
    ]
}
