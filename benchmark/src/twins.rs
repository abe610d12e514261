//! The traced run: connection 0's request stream replayed through three
//! in-process twins built from the same generated data, each call into a
//! layer timed as a span.
//!
//! * the **session twin** makes the calls `Server` makes for one request, in
//!   pipeline order and timed separately: `parse_program`, `infer_phrase`,
//!   `plan_select`, then `Session::run` → `Outcome::show` →
//!   `SessionLog::commit`;
//! * the **server twin** times `Server::eval` (worker hand-off included);
//! * the **wire twin** times `serve_connection` over byte buffers.
//!
//! Spans are taken from outside the crates, so a layer's self time is its
//! span minus the spans of the layers it calls, matched by request id:
//!
//! ```text
//! syntax = parse_program          value  = show
//! types  = infer_phrase           wal    = commit
//! plan   = plan_select            server = Server::eval − (run + show + commit)
//! exec   = run − syntax − types − plan    wire = serve_connection − Server::eval
//! ```
//!
//! Inference is timed on a shadow type environment fed the same phrases as
//! the session, because `Session::type_of` clones the whole environment per
//! call (28 µs against 24 µs for a complete `run` of a keyed lookup) and so
//! cannot stand in for the inference `run` does.
//!
//! Nothing measured here feeds an end-to-end metric.

use crate::run::{median_f64, payload, Metric, RunConfig};
use crate::workload::{Op, PoolEntry, Request};
use machiavelli::eval::PRELUDE;
use machiavelli::plan::{find_select, plan_select};
use machiavelli::syntax::ast::{Phrase, PhraseKind};
use machiavelli::syntax::parse_program;
use machiavelli::types::{Inferencer, TypeEnv};
use machiavelli::Session;
use machiavelli_server::{serve_connection, Server, ServerConfig};
use machiavelli_wal::SessionLog;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Requests replayed with operator tracing on, after the timed replay, to
/// count rows examined per row returned.
const OPERATOR_PASS: usize = 50;

pub struct Traced {
    /// The per-layer metrics every workload has.
    pub metrics: Vec<Metric>,
    /// Printed, never gated: the wire twin's requests per second (what one
    /// connection would see with no socket in the way) and, on a durable
    /// workload, the checkpoint and recovery times. Those two are not in
    /// `metrics` because on an in-memory workload they would be a time that
    /// is 0 by construction, not a measurement.
    pub info: Vec<Metric>,
    pub violations: Vec<String>,
}

struct Span {
    request_id: usize,
    layer: &'static str,
    parent: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans are kept in memory and written out when the replay ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn span<T>(
        &mut self,
        request_id: usize,
        layer: &'static str,
        parent: &'static str,
        call: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let result = std::hint::black_box(call());
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            request_id,
            layer,
            parent,
            start_ns,
            end_ns,
        });
        result
    }

    /// Span durations in ns by request id, for one layer.
    fn durations(&self, layer: &str) -> BTreeMap<usize, f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.request_id, (s.end_ns - s.start_ns) as f64))
            .collect()
    }

    fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"request_id\":{},\"workload\":\"{workload}\",\"layer\":\"{}\",\
                 \"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request_id, s.layer, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

fn median_us(values: impl Iterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.map(|ns| ns / 1e3).collect();
    if values.is_empty() {
        0.0
    } else {
        median_f64(&mut values)
    }
}

/// Does the last phrase hold a `select`, and does the planner take it?
fn plan_last_select(program: &[Phrase]) -> Option<bool> {
    let expr = match &program.last()?.kind {
        PhraseKind::Val { expr, .. } | PhraseKind::Expr(expr) => expr,
        PhraseKind::Fun { body, .. } => body,
    };
    let (generators, pred, result) = find_select(expr)?;
    Some(plan_select(generators, pred, result).is_ok())
}

/// The type environment a session holds, kept beside the session twin by
/// inferring every phrase the session runs.
struct ShadowTypes {
    inferencer: Inferencer,
    env: TypeEnv,
}

impl ShadowTypes {
    fn with_prelude() -> Result<ShadowTypes, String> {
        let inferencer = Inferencer::new();
        let env = inferencer.builtin_env();
        let mut shadow = ShadowTypes { inferencer, env };
        shadow.infer_src(PRELUDE)?;
        Ok(shadow)
    }

    fn infer(&mut self, program: &[Phrase]) -> Result<(), String> {
        for phrase in program {
            self.inferencer
                .infer_phrase(&mut self.env, phrase)
                .map_err(|e| format!("shadow inference: {e}"))?;
        }
        Ok(())
    }

    fn infer_src(&mut self, src: &str) -> Result<(), String> {
        let program = parse_program(src).map_err(|e| format!("shadow parse: {e}"))?;
        self.infer(&program)
    }
}

fn open_twin_session(durable_dir: Option<&Path>) -> Result<(Session, Option<SessionLog>), String> {
    // A server worker's session consults the shared index tier; so does this.
    machiavelli::store::shared::set_shared_enabled(true);
    let mut session = Session::try_new().map_err(|e| format!("twin session: {e}"))?;
    let log = match durable_dir {
        Some(dir) => Some(
            SessionLog::open(dir, &mut session)
                .map_err(|e| format!("twin log: {e}"))?
                .0,
        ),
        None => None,
    };
    Ok((session, log))
}

fn server_twin(durable_dir: Option<&Path>, script: &[String]) -> Result<(Server, u64), String> {
    // One session's view, as on a fresh machid: nothing to adopt from the
    // twin that ran before.
    machiavelli::store::shared::reset_shared();
    let server = Server::start(ServerConfig {
        workers: 2,
        durable_root: durable_dir.map(Path::to_path_buf),
        ..ServerConfig::default()
    });
    let sid = server
        .open_session()
        .map_err(|e| format!("server twin open: {e}"))?;
    for src in script {
        server
            .eval(sid, src)
            .map_err(|e| format!("server twin load: {e}"))?;
    }
    Ok((server, sid))
}

pub fn replay(
    cfg: &RunConfig,
    script: &[String],
    answers: Arc<Vec<PoolEntry>>,
    twin_dir: &Path,
) -> Result<Traced, String> {
    let workload = &cfg.workload;
    let durable_dir = |twin: &str| workload.durable.then(|| twin_dir.join(twin));
    let requests: Vec<Request> = {
        let mut stream = workload.stream(cfg.seed, 0, answers.clone());
        (0..workload.traced_requests)
            .map(|_| stream.next_request())
            .collect()
    };
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut violations = Vec::new();
    let mut disagree = |twin: &str, id: usize| {
        violations.push(format!("{twin} twin answered request {id} differently"));
    };

    // ---- session twin -------------------------------------------------
    let session_dir = durable_dir("session");
    let (mut session, mut log) = open_twin_session(session_dir.as_deref())?;
    let mut types = ShadowTypes::with_prelude()?;
    for src in script {
        types.infer_src(src)?;
        let outcomes = session.run(src).map_err(|e| format!("twin load: {e}"))?;
        if let Some(log) = log.as_mut() {
            log.commit(&session, &outcomes)
                .map_err(|e| format!("twin load commit: {e}"))?;
        }
    }
    // The oracle session ran on this thread too: start the store's and the
    // lanes' counters (and the store itself) from zero, as loaded.
    session.reset_stats();
    let (mut src_bytes, mut resp_bytes) = (Vec::new(), Vec::new());
    let (mut selects, mut planned) = (0u64, 0u64);
    for (id, request) in requests.iter().enumerate() {
        let src = match &request.op {
            Op::Eval(src) => src,
            Op::Save => {
                let log = log.as_mut().ok_or("SAVE on an in-memory workload")?;
                tracer
                    .span(id, "wal.checkpoint", "server", || log.checkpoint(&session))
                    .map_err(|e| format!("twin checkpoint: {e}"))?;
                continue;
            }
        };
        src_bytes.push(src.len() as f64);
        let program = tracer
            .span(id, "syntax", "exec", || parse_program(src))
            .map_err(|e| format!("twin parse: {e}"))?;
        tracer.span(id, "types", "exec", || types.infer(&program))?;
        if let Some(took) = tracer.span(id, "plan", "exec", || plan_last_select(&program)) {
            selects += 1;
            planned += took as u64;
        }
        let outcomes = tracer
            .span(id, "exec", "server", || session.run(src))
            .map_err(|e| format!("twin run: {e}"))?;
        let shown = tracer.span(id, "value", "server", || payload(&outcomes));
        resp_bytes.push(shown.len() as f64);
        if shown != *request.expect {
            disagree("session", id);
        }
        // Timed on every workload, as the server takes this branch on every
        // request: without a log it is the cost of finding that out.
        tracer
            .span(id, "wal", "server", || {
                log.as_mut().map(|log| log.commit(&session, &outcomes))
            })
            .transpose()
            .map_err(|e| format!("twin commit: {e}"))?;
    }
    let store = session.store_stats();
    let exec = session.exec_stats();

    // Recovery: drop the durable twin, then time re-opening its directory.
    let mut info = Vec::new();
    if let Some(dir) = &session_dir {
        drop(log);
        drop(session);
        let started = Instant::now();
        (session, log) = open_twin_session(Some(dir))?;
        let recover_ms = started.elapsed().as_secs_f64() * 1e3;
        info.push(Metric::new("wal.recover_ms", recover_ms, "ms"));
    }

    // Operator pass: the engine's own operator spans give rows in and out.
    let (mut rows_in, mut rows_out) = (0u64, 0u64);
    session.set_tracing(Some(true));
    for request in requests.iter().take(OPERATOR_PASS) {
        let Op::Eval(src) = &request.op else { continue };
        let outcomes = session
            .run(src)
            .map_err(|e| format!("operator pass: {e}"))?;
        if let Some(log) = log.as_mut() {
            log.commit(&session, &outcomes)
                .map_err(|e| format!("operator pass commit: {e}"))?;
        }
        for query in session.trace_events() {
            for span in &query.spans {
                if span.parent.is_none() {
                    rows_out += span.rows;
                }
                if !query.spans.iter().any(|s| s.parent == Some(span.id)) {
                    rows_in += span.rows;
                }
            }
        }
    }
    session.set_tracing(None);
    drop(log);
    drop(session);

    // ---- server twin --------------------------------------------------
    {
        let (server, sid) = server_twin(durable_dir("server").as_deref(), script)?;
        for (id, request) in requests.iter().enumerate() {
            match &request.op {
                Op::Eval(src) => {
                    let shown = tracer
                        .span(id, "server", "wire", || server.eval(sid, src))
                        .map_err(|e| format!("server twin eval: {e}"))?;
                    if shown.join("; ") != *request.expect {
                        disagree("server", id);
                    }
                }
                Op::Save => {
                    tracer
                        .span(id, "server", "wire", || server.save_session(sid))
                        .map_err(|e| format!("server twin save: {e}"))?;
                }
            }
        }
    }

    // ---- wire twin ----------------------------------------------------
    {
        let (server, sid) = server_twin(durable_dir("wire").as_deref(), script)?;
        let mut reply = Vec::new();
        let started = Instant::now();
        for (id, request) in requests.iter().enumerate() {
            let line = request.wire_line(sid);
            reply.clear();
            tracer
                .span(id, "wire", "", || {
                    serve_connection(&server, line.as_bytes(), &mut reply)
                })
                .map_err(|e| format!("wire twin: {e}"))?;
            let ok = std::str::from_utf8(&reply)
                .ok()
                .and_then(|r| r.strip_suffix('\n'))
                .is_some_and(|r| request.accepts(r));
            if !ok {
                disagree("wire", id);
            }
        }
        let rps = requests.len() as f64 / started.elapsed().as_secs_f64();
        info.push(Metric::new("twin_rps_per_conn", rps, "1/s"));
    }

    tracer
        .write(
            &cfg.out_dir.join(format!("trace-{}.jsonl", workload.name)),
            workload.name,
        )
        .map_err(|e| format!("write trace: {e}"))?;

    // ---- self times ---------------------------------------------------
    let parse = tracer.durations("syntax");
    let infer = tracer.durations("types");
    let plan = tracer.durations("plan");
    let run = tracer.durations("exec");
    let show = tracer.durations("value");
    let commit = tracer.durations("wal");
    let checkpoint = tracer.durations("wal.checkpoint");
    let server = tracer.durations("server");
    let wire = tracer.durations("wire");
    // Self times are per Eval request (the median request is one).
    let syntax_us = median_us(parse.values().copied());
    let types_us = median_us(infer.values().copied());
    let plan_us = median_us(plan.values().copied());
    let exec_us = median_us(
        parse
            .keys()
            .map(|id| run[id] - parse[id] - infer[id] - plan[id]),
    );
    let value_us = median_us(show.values().copied());
    let wal_us = median_us(commit.values().copied());
    let server_us = median_us(
        parse
            .keys()
            .map(|id| server[id] - run[id] - show[id] - commit[id]),
    );
    let wire_us = median_us(parse.keys().map(|id| wire[id] - server[id]));

    let lookups = store.hits + store.misses;
    let hit_ratio = if lookups > 0 {
        store.hits as f64 / lookups as f64
    } else {
        0.0
    };
    let mut expect = |holds: bool, what: String| {
        if !holds {
            violations.push(what);
        }
    };
    match workload.name {
        "point_hot" => expect(
            hit_ratio >= 0.95,
            format!("point_hot store hit ratio {hit_ratio:.3} < 0.95"),
        ),
        "scan_join_cold" => expect(
            hit_ratio <= 0.05,
            format!("scan_join_cold store hit ratio {hit_ratio:.3} > 0.05: builds are cached"),
        ),
        "mixed_rw" => expect(
            store.invalidated > 0,
            "mixed_rw writes invalidated no cached index".to_string(),
        ),
        _ => {}
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let metrics = vec![
        Metric::new("syntax.parse_us", syntax_us, "us"),
        Metric::new("syntax.src_bytes", mean(&src_bytes), "bytes"),
        Metric::new("types.infer_us", types_us, "us"),
        Metric::new("plan.compile_us", plan_us, "us"),
        Metric::new("plan.planned_share", per(planned, selects), "ratio"),
        Metric::new("exec.run_us", exec_us, "us"),
        Metric::new(
            "exec.rows_in_per_row_out",
            per(rows_in, rows_out),
            "rows/row",
        ),
        Metric::new("exec.morsels", exec.morsels_executed as f64, "count"),
        Metric::new("exec.steals", exec.morsels_stolen as f64, "count"),
        Metric::new("store.hit_ratio", hit_ratio, "ratio"),
        Metric::new("store.builds", store.builds as f64, "count"),
        Metric::new("store.invalidated", store.invalidated as f64, "count"),
        Metric::new("store.evicted", store.evicted as f64, "count"),
        Metric::new("value.render_us", value_us, "us"),
        Metric::new("value.resp_bytes", mean(&resp_bytes), "bytes"),
        Metric::new("wal.commit_us", wal_us, "us"),
        Metric::new("server.dispatch_us", server_us, "us"),
        Metric::new("wire.line_us", wire_us, "us"),
    ];
    if !checkpoint.is_empty() {
        let checkpoint_ms = median_us(checkpoint.values().copied()) / 1e3;
        info.push(Metric::new("wal.checkpoint_ms", checkpoint_ms, "ms"));
    }
    Ok(Traced {
        metrics,
        info,
        violations,
    })
}
