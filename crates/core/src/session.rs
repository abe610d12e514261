//! An interactive Machiavelli session: parse → type-infer → evaluate.
//!
//! [`Session`] reproduces the paper's top-level loop: each phrase is
//! statically checked (rejecting ill-typed programs before evaluation),
//! then evaluated, and the result is reported in the paper's
//! `>> val it = … : …` form.

use crate::error::SessionError;
use machiavelli_eval::{builtin_env, eval_expr, PRELUDE};
use machiavelli_syntax::ast::{Expr, ExprKind, Phrase, PhraseKind};
use machiavelli_syntax::parse_program;
use machiavelli_trace::metrics::{self, Counter, Snapshot};
use machiavelli_types::{Inferencer, Scheme, TypeEnv};
use machiavelli_value::{show_value, Env, Value};

/// The result of one top-level phrase.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The bound name (`it` for bare expressions).
    pub name: machiavelli_syntax::Symbol,
    /// The computed value.
    pub value: Value,
    /// The inferred (possibly conditional) type scheme.
    pub scheme: Scheme,
}

impl Outcome {
    /// Render in the paper's output format:
    /// `val Wealthy = fn : {[("a) Name:"b,Salary:int]} -> {"b}`.
    pub fn show(&self) -> String {
        format!(
            "val {} = {} : {}",
            self.name,
            show_value(&self.value),
            self.scheme.show()
        )
    }
}

/// Every statistics surface a session can see, snapshotted at once:
/// the index store, the parallel lane and its scheduler, the typed
/// decline taxonomy, and the process-wide counter registry
/// (`machiavelli_trace::metrics`). One struct so callers (and the
/// REPL's `:stats`) render all of it through one code path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStats {
    /// Cached-index store counters (session-scoped).
    pub store: machiavelli_store::StoreStats,
    /// Parallel-lane hit/fallback counters (session-scoped).
    pub par: machiavelli_value::tuning::ParStats,
    /// Morsel-scheduler counters (session-scoped).
    pub exec: machiavelli_value::tuning::ExecStats,
    /// The parallel lane's effective worker-thread count.
    pub par_threads: usize,
    /// Typed decline counts (session-scoped), one entry per
    /// [`machiavelli_trace::DeclineReason`] variant in declaration
    /// order, zeros included.
    pub declines: Vec<(machiavelli_trace::DeclineReason, u64)>,
    /// The process-wide counters: server, shared index tier, WAL,
    /// replication, injected faults.
    pub metrics: Snapshot,
}

impl SessionStats {
    /// Render every section as the REPL's `:stats` shows it, one line
    /// per subsystem (no prompt decoration — the REPL prefixes `>> `).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let st = &self.store;
        let _ = writeln!(
            out,
            "index store: {} entries ({} plain / {} rc), {} rows cached",
            st.entries, st.plain_entries, st.rc_entries, st.cached_rows
        );
        let _ = writeln!(
            out,
            "hits {} / misses {} / builds {} / invalidated {} / cleared {} / evicted {}",
            st.hits, st.misses, st.builds, st.invalidated, st.cleared, st.evicted
        );
        let (ps, es) = (&self.par, &self.exec);
        let _ = writeln!(
            out,
            "parallel ({} threads): joins {} / join fallbacks {} / \
             morsels {} executed / {} stolen",
            self.par_threads,
            ps.par_joins,
            ps.par_join_fallbacks,
            es.morsels_executed,
            es.morsels_stolen
        );
        let m = |c| self.metrics.get(c);
        let _ = writeln!(
            out,
            "server: sessions {} started / {} panicked / {} closed, \
             queries {} completed / {} shed / {} deadline / {} cancelled / {} row-budget, \
             shared tier {} publishes / {} adoptions / {} lock recoveries",
            m(Counter::SessionsStarted),
            m(Counter::SessionsPanicked),
            m(Counter::SessionsClosed),
            m(Counter::QueriesCompleted),
            m(Counter::QueriesShed),
            m(Counter::QueriesDeadline),
            m(Counter::QueriesCancelled),
            m(Counter::QueriesRowBudget),
            m(Counter::SharedPublishes),
            m(Counter::SharedAdoptions),
            m(Counter::SharedLockRecoveries)
        );
        let _ = writeln!(
            out,
            "wal: {} records / {} bytes appended, {} commits / {} checkpoints / \
             {} recoveries / {} torn tails truncated",
            m(Counter::WalRecordsAppended),
            m(Counter::WalBytesLogged),
            m(Counter::WalCommits),
            m(Counter::WalCheckpoints),
            m(Counter::WalRecoveries),
            m(Counter::WalTornTailsTruncated)
        );
        let nonzero: Vec<String> = self
            .declines
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(r, n)| format!("{r} {n}"))
            .collect();
        if nonzero.is_empty() {
            out.push_str("declines: none\n");
        } else {
            let _ = writeln!(out, "declines: {}", nonzero.join(" / "));
        }
        out
    }
}

/// A stateful interpreter session.
pub struct Session {
    inferencer: Inferencer,
    type_env: TypeEnv,
    env: Env,
}

impl Session {
    /// A session with the standard prelude (`map`, `filter`, `member`,
    /// `prod`, `Closure`, …) loaded.
    pub fn new() -> Session {
        Session::try_new().expect("the standard prelude must type-check and evaluate")
    }

    /// Like [`Session::new`], reporting a prelude failure instead of
    /// panicking — the constructor server-hosted sessions use, so a
    /// broken prelude (or a governor trip during prelude evaluation)
    /// surfaces as a structured error rather than aborting a worker.
    pub fn try_new() -> Result<Session, SessionError> {
        let mut s = Session::bare();
        s.run(PRELUDE)?;
        Ok(s)
    }

    /// A session with only the language builtins (no prelude).
    pub fn bare() -> Session {
        let inferencer = Inferencer::new();
        let type_env = inferencer.builtin_env();
        Session {
            inferencer,
            type_env,
            env: builtin_env(),
        }
    }

    /// Run a program (one or more `;`-terminated phrases), returning one
    /// [`Outcome`] per phrase.
    pub fn run(&mut self, src: &str) -> Result<Vec<Outcome>, SessionError> {
        let program =
            parse_program(src).map_err(|e| SessionError::Parse(e.display_with_source(src)))?;
        let mut out = Vec::with_capacity(program.len());
        for phrase in &program {
            out.push(self.run_phrase(phrase)?);
        }
        Ok(out)
    }

    /// Run a program and return only the final outcome.
    pub fn eval_one(&mut self, src: &str) -> Result<Outcome, SessionError> {
        let mut outcomes = self.run(src)?;
        outcomes
            .pop()
            .ok_or_else(|| SessionError::Parse("empty program".into()))
    }

    /// Infer the type of a program's final phrase without changing the
    /// session (environments are cloned).
    pub fn type_of(&self, src: &str) -> Result<String, SessionError> {
        let program =
            parse_program(src).map_err(|e| SessionError::Parse(e.display_with_source(src)))?;
        let mut scratch_types = self.type_env.clone();
        // Fresh inferencer sharing nothing: instantiate schemes from the
        // cloned environment (schemes own their quantified variables, so
        // clones are safe to instantiate). Its ids continue from the
        // session's so display names never alias scheme variables.
        let mut inferencer = Inferencer::starting_at(self.inferencer.gen.next_id());
        let mut last = None;
        for phrase in &program {
            last = Some(
                inferencer
                    .infer_phrase(&mut scratch_types, phrase)
                    .map_err(SessionError::Type)?,
            );
        }
        last.map(|p| p.scheme.show())
            .ok_or_else(|| SessionError::Parse("empty program".into()))
    }

    /// Explain how the comprehension planner would execute the first
    /// `select` in the final phrase of `src`: the rendered physical
    /// operator tree, or the fallback line naming why the shape runs
    /// through the interpreter's nested loop instead. The session is not
    /// modified (nothing is type-checked or evaluated).
    ///
    /// Also behind the REPL's `:plan` command.
    pub fn plan_of(&self, src: &str) -> Result<String, SessionError> {
        let program =
            parse_program(src).map_err(|e| SessionError::Parse(e.display_with_source(src)))?;
        let Some(phrase) = program.last() else {
            return Err(SessionError::Parse("empty program".into()));
        };
        let expr = match &phrase.kind {
            PhraseKind::Val { expr, .. } | PhraseKind::Expr(expr) => expr,
            PhraseKind::Fun { body, .. } => body,
        };
        let Some((generators, pred, result)) = machiavelli_plan::find_select(expr) else {
            return Ok("no select comprehension in phrase".into());
        };
        Ok(
            match machiavelli_plan::plan_select(generators, pred, result) {
                Ok(plan) => machiavelli_plan::explain(&plan),
                Err(reason) => format!("Fallback (select_loop): {reason}"),
            },
        )
    }

    /// Statistics of the session's index store (cached hash indexes for
    /// repeated plans — see `machiavelli-store`). The store is scoped to
    /// the thread driving the session, which is the session's home
    /// thread; sessions sharing a thread share the store harmlessly
    /// (entries are keyed by relation storage identity, so they can
    /// never serve each other's relations).
    pub fn store_stats(&self) -> machiavelli_store::StoreStats {
        machiavelli_store::with_store(|s| s.stats())
    }

    /// Describe the live cached indexes in deterministic order (sorted
    /// by fingerprint, then storage id — pinnable in golden tests),
    /// with each entry's representation: `plain` entries are
    /// `Send + Sync` and eligible for the parallel cached probe, `rc`
    /// entries (identity-bearing rows) probe sequentially. Behind the
    /// REPL's `:indexes` command.
    pub fn store_indexes(&self) -> Vec<machiavelli_store::IndexInfo> {
        machiavelli_store::with_store(|s| s.indexes())
    }

    /// Drop all cached indexes and zero the statistics (tests and
    /// benchmarks use this to measure from a cold store; correctness
    /// never requires it — invalidation is automatic).
    pub fn store_reset(&self) {
        machiavelli_store::with_store(|s| s.reset());
    }

    /// Set the parallel lane's worker-thread count for this session
    /// (`None` restores the default: `MACHIAVELLI_PAR_THREADS`, else
    /// the machine's `available_parallelism`). Returns the previous
    /// override. A count of 1 keeps everything sequential. Like the
    /// index store, the setting is scoped to the thread driving the
    /// session.
    pub fn set_par_threads(&self, n: Option<usize>) -> Option<usize> {
        machiavelli_value::tuning::set_par_threads(n)
    }

    /// The parallel lane's effective worker-thread count.
    pub fn par_threads(&self) -> usize {
        machiavelli_value::tuning::par_threads()
    }

    /// This session's parallel-lane hit/fallback counters (joins probed
    /// on the plain-key path and their runtime fallbacks). Behind the
    /// REPL's `:stats` alongside the index-store counters.
    pub fn par_stats(&self) -> machiavelli_value::tuning::ParStats {
        machiavelli_value::tuning::par_stats()
    }

    /// Zero the parallel-lane counters.
    pub fn par_reset(&self) {
        machiavelli_value::tuning::reset_par_stats()
    }

    /// This session's morsel-scheduler counters (morsels executed and
    /// stolen by the plain-key join's probe fan-out). Behind the REPL's
    /// `:stats` alongside the parallel-lane counters.
    pub fn exec_stats(&self) -> machiavelli_value::tuning::ExecStats {
        machiavelli_value::tuning::exec_stats()
    }

    /// Zero the morsel-scheduler counters.
    pub fn exec_reset(&self) {
        machiavelli_value::tuning::reset_exec_stats()
    }

    /// One snapshot of every statistics surface — the store, parallel,
    /// scheduler, the typed decline counts, and the process-wide
    /// counter registry (server and shared-tier rows are all zero unless
    /// this process hosts sessions through `machiavelli-server`). Behind
    /// the REPL's `:stats` via [`SessionStats::render`].
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            store: self.store_stats(),
            par: self.par_stats(),
            exec: self.exec_stats(),
            par_threads: self.par_threads(),
            declines: machiavelli_trace::session_declines(),
            metrics: metrics::snapshot(),
        }
    }

    /// Zero every session-scoped counter in one call: the index store
    /// (entries, counters, and observed per-operator stats), the
    /// parallel lane and its scheduler, and the decline counts. The
    /// process-wide registry ([`SessionStats::metrics`]) is deliberately
    /// untouched — it aggregates across sessions.
    pub fn reset_stats(&self) {
        self.store_reset();
        self.par_reset();
        self.exec_reset();
        machiavelli_trace::reset_session_declines();
    }

    /// Enable/disable query tracing for this session's thread (`None`
    /// restores the `MACHIAVELLI_TRACE` env default), returning the
    /// previous override. With tracing on, every evaluated `select`
    /// records a [`machiavelli_trace::QueryTrace`] retrievable via
    /// [`Session::trace_events`].
    pub fn set_tracing(&self, on: Option<bool>) -> Option<bool> {
        machiavelli_trace::set_tracing(on)
    }

    /// Drain the traced queries recorded on this session's thread since
    /// the last drain (oldest first; the per-thread buffer keeps the
    /// most recent [`machiavelli_trace::MAX_EVENTS`]).
    pub fn trace_events(&self) -> Vec<machiavelli_trace::QueryTrace> {
        machiavelli_trace::take_events()
    }

    /// Per-fingerprint observed execution statistics accumulated by
    /// [`Session::analyze`] (sorted by fingerprint). These survive
    /// `clear()`-style invalidation in the store — cardinality priors
    /// outlive the indexes they were measured on — and drop on
    /// [`Session::store_reset`] / [`Session::reset_stats`].
    pub fn observed_stats(&self) -> Vec<(String, machiavelli_store::ObservedStats)> {
        machiavelli_store::with_store(|s| s.observed())
    }

    /// Run `src` with query tracing forced on and render each traced
    /// `select` as its physical operator tree annotated with what
    /// *actually happened*: per-operator yielded rows, open/next time,
    /// execution lane, cache outcome, and any typed decline codes —
    /// `EXPLAIN ANALYZE`, where [`Session::plan_of`] is `EXPLAIN`. The
    /// phrases evaluate for real (bindings stick, `it` updates), and
    /// fingerprinted operators persist observed row/time stats into the
    /// index store ([`Session::observed_stats`]). Behind the REPL's
    /// `:analyze` command.
    pub fn analyze(&mut self, src: &str) -> Result<String, SessionError> {
        let prev = machiavelli_trace::set_tracing(Some(true));
        // Stale events from earlier traced work would mis-attribute.
        let _ = machiavelli_trace::take_events();
        let result = self.run(src);
        machiavelli_trace::set_tracing(prev);
        let events = machiavelli_trace::take_events();
        result?;
        if events.is_empty() {
            return Ok("no select evaluated".into());
        }
        for q in &events {
            for s in &q.spans {
                if let Some(fp) = &s.fingerprint {
                    machiavelli_store::with_store(|st| {
                        st.note_observed(fp, s.rows, s.open_ns + s.next_ns)
                    });
                }
            }
        }
        let observed = self.observed_stats();
        let mut out = String::new();
        for q in &events {
            render_query_trace(&mut out, q);
        }
        // Accumulated per-fingerprint history (this run included), so
        // repeated `:analyze` shows cardinality stability at a glance.
        for (fp, os) in &observed {
            if events
                .iter()
                .flat_map(|q| &q.spans)
                .any(|s| s.fingerprint.as_deref() == Some(fp))
            {
                use std::fmt::Write as _;
                let _ = writeln!(
                    out,
                    "observed[{fp}]: runs={} last_rows={} avg_rows={}",
                    os.executions,
                    os.last_rows,
                    os.total_rows / os.executions.max(1)
                );
            }
        }
        Ok(out)
    }

    /// Look up a bound value.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.env.lookup(name)
    }

    /// Look up a bound scheme.
    pub fn scheme_of(&self, name: &str) -> Option<&Scheme> {
        self.type_env.lookup(name)
    }

    /// Bind an externally built value (e.g. a relation generated natively
    /// in Rust) with an explicit type, written in Machiavelli type syntax.
    /// The type is checked to be well-formed but the value is trusted.
    pub fn bind_external(
        &mut self,
        name: &str,
        value: Value,
        type_src: &str,
    ) -> Result<(), SessionError> {
        let te = machiavelli_syntax::parse_type(type_src)
            .map_err(|e| SessionError::Parse(e.display_with_source(type_src)))?;
        let ty = machiavelli_types::lower_open(&te, &self.inferencer.gen, 0)
            .map_err(SessionError::Type)?;
        self.type_env.bind(name, Scheme::mono(ty));
        self.env = self.env.bind(name, value);
        Ok(())
    }

    /// Persist bindings (description values only) to a self-contained
    /// string: each entry stores the name, the printed type, and the
    /// encoded value with its reference graph (sharing and cycles
    /// preserved). Only monomorphic bindings persist — polymorphic
    /// functions are code, not data.
    pub fn save_bindings(&self, names: &[&str]) -> Result<String, SessionError> {
        use std::fmt::Write as _;
        let mut out = String::new();
        for name in names {
            let value = self.get(name).ok_or_else(|| {
                SessionError::Type(machiavelli_types::TypeError::UnboundVariable(
                    (*name).to_string(),
                ))
            })?;
            let scheme = self.scheme_of(name).ok_or_else(|| {
                SessionError::Type(machiavelli_types::TypeError::UnboundVariable(
                    (*name).to_string(),
                ))
            })?;
            if !scheme.vars.is_empty() || !scheme.constraints.is_empty() {
                return Err(SessionError::Parse(format!(
                    "cannot persist `{name}`: polymorphic bindings do not persist"
                )));
            }
            let ty = scheme.show();
            let encoded = crate::persist::encode_value(&value)
                .map_err(|e| SessionError::Parse(format!("cannot persist `{name}`: {e}")))?;
            let _ = write!(
                out,
                "b{}:{name}{}:{ty}{}:{encoded}",
                name.len(),
                ty.len(),
                encoded.len()
            );
        }
        Ok(out)
    }

    /// The (printed type, value) of a binding *if it can persist*: bound
    /// and monomorphic. (Whether the value is a description value is
    /// encode-time business — closures surface as
    /// [`PersistError::NotADescription`](crate::persist::PersistError)
    /// there.) The durability layer uses this to decide what a bind
    /// record or checkpoint carries.
    pub fn persistable_binding(&self, name: &str) -> Option<(String, Value)> {
        let value = self.get(name)?;
        let scheme = self.scheme_of(name)?;
        if !scheme.vars.is_empty() || !scheme.constraints.is_empty() {
            return None;
        }
        Some((scheme.show(), value))
    }

    /// [`Session::save_bindings`] straight to a file, written via a
    /// temp file + fsync + atomic rename: a crash mid-save leaves the
    /// previous snapshot intact, never a truncated half-write.
    pub fn save_bindings_to(
        &self,
        path: &std::path::Path,
        names: &[&str],
    ) -> Result<(), SessionError> {
        let data = self.save_bindings(names)?;
        crate::persist::write_atomic(path, data.as_bytes())
            .map_err(|e| SessionError::Io(format!("saving bindings to {}: {e}", path.display())))
    }

    /// Load bindings previously written by [`Session::save_bindings_to`],
    /// returning the bound names.
    pub fn load_bindings_from(
        &mut self,
        path: &std::path::Path,
    ) -> Result<Vec<String>, SessionError> {
        let data = std::fs::read_to_string(path).map_err(|e| {
            SessionError::Io(format!("loading bindings from {}: {e}", path.display()))
        })?;
        self.load_bindings(&data)
    }

    /// Load bindings previously produced by [`Session::save_bindings`],
    /// returning the bound names. Reference identities are fresh (object
    /// identity is per session) but the saved sharing structure is
    /// preserved.
    pub fn load_bindings(&mut self, data: &str) -> Result<Vec<String>, SessionError> {
        let bytes = data.as_bytes();
        let mut pos = 0usize;
        let malformed =
            |pos: usize| SessionError::Parse(format!("malformed saved bindings at byte {pos}"));
        let read_sized = |bytes: &[u8], pos: &mut usize| -> Option<String> {
            let start = *pos;
            while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
            let n: usize = std::str::from_utf8(&bytes[start..*pos])
                .ok()?
                .parse()
                .ok()?;
            if bytes.get(*pos) != Some(&b':') {
                return None;
            }
            *pos += 1;
            let end = pos.checked_add(n).filter(|&e| e <= bytes.len())?;
            let s = std::str::from_utf8(&bytes[*pos..end]).ok()?.to_string();
            *pos = end;
            Some(s)
        };
        let mut names = Vec::new();
        while pos < bytes.len() {
            if bytes[pos] != b'b' {
                return Err(malformed(pos));
            }
            pos += 1;
            let name = read_sized(bytes, &mut pos).ok_or_else(|| malformed(pos))?;
            let ty = read_sized(bytes, &mut pos).ok_or_else(|| malformed(pos))?;
            let encoded = read_sized(bytes, &mut pos).ok_or_else(|| malformed(pos))?;
            let value = crate::persist::decode_value(&encoded)
                .map_err(|e| SessionError::Parse(format!("cannot load `{name}`: {e}")))?;
            self.bind_external(&name, value, &ty)?;
            names.push(name);
        }
        Ok(names)
    }

    fn run_phrase(&mut self, phrase: &Phrase) -> Result<Outcome, SessionError> {
        let typed = self
            .inferencer
            .infer_phrase(&mut self.type_env, phrase)
            .map_err(SessionError::Type)?;
        let value = match &phrase.kind {
            PhraseKind::Val { expr, .. } | PhraseKind::Expr(expr) => {
                eval_expr(&self.env, expr).map_err(SessionError::Eval)?
            }
            PhraseKind::Fun { name, params, body } => {
                let rec = Expr::new(
                    ExprKind::Rec {
                        name: *name,
                        body: Box::new(Expr::new(
                            ExprKind::Lambda {
                                params: params.clone(),
                                body: Box::new(body.clone()),
                            },
                            phrase.span,
                        )),
                    },
                    phrase.span,
                );
                eval_expr(&self.env, &rec).map_err(SessionError::Eval)?
            }
        };
        self.env = self.env.bind(typed.name, value.clone());
        Ok(Outcome {
            name: typed.name,
            value,
            scheme: typed.scheme,
        })
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

/// Render one traced query as an indented operator tree (children under
/// parents, sibling order = open order), one span per line:
///
/// ```text
/// select: total 1.2ms
///   HashJoin probe(x.K) build(y.K) [seq] [cache build] rows=3 open=1.0ms next=0.2ms
///     Scan x <- r [seq] rows=100 open=10.0µs next=80.0µs
/// ```
///
/// A query with no spans ran through the interpreter's nested loop;
/// decline codes (per-span and query-level) name every fallback taken.
fn render_query_trace(out: &mut String, q: &machiavelli_trace::QueryTrace) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "{}: total {}", q.label, fmt_ns(q.elapsed_ns));
    if q.spans.is_empty() {
        out.push_str("  (no pipeline: interpreted select_loop)\n");
    }
    // Depth-first over the parent links; spans are few (one per
    // operator), so the quadratic child scan is irrelevant.
    fn render_span(out: &mut String, spans: &[machiavelli_trace::OpSpan], id: u32, depth: usize) {
        use std::fmt::Write as _;
        let s = &spans[id as usize];
        let _ = write!(
            out,
            "{:indent$}{} [{}]",
            "",
            s.label,
            s.lane,
            indent = depth * 2
        );
        if let Some(c) = &s.cache {
            let _ = write!(out, " [cache {c}]");
        }
        let _ = write!(
            out,
            " rows={} open={} next={}",
            s.rows,
            fmt_ns(s.open_ns),
            fmt_ns(s.next_ns)
        );
        if !s.declines.is_empty() {
            let codes: Vec<&str> = s.declines.iter().map(|d| d.code()).collect();
            let _ = write!(out, " declines: {}", codes.join(", "));
        }
        out.push('\n');
        for child in spans.iter().filter(|c| c.parent == Some(id)) {
            render_span(out, spans, child.id, depth + 1);
        }
    }
    for root in q.spans.iter().filter(|s| s.parent.is_none()) {
        render_span(out, &q.spans, root.id, 1);
    }
    if !q.declines.is_empty() {
        let codes: Vec<&str> = q.declines.iter().map(|d| d.code()).collect();
        let _ = writeln!(out, "  declines: {}", codes.join(", "));
    }
}

/// Whether `src` can run on a read-only replica: every phrase is a bare
/// expression (no `val`/`fun` declarations, which durably bind names)
/// containing no `:=` assignment anywhere. A bare expression still
/// rebinds the scratch `it` — that is replica-local and overwritten by
/// the next shipped bind, so it does not count as a write.
///
/// Unparsable sources are reported read-only: the evaluator will
/// surface the real parse error, which is strictly more useful than a
/// misleading `ERR read-only`.
pub fn is_read_only_source(src: &str) -> bool {
    let Ok(program) = parse_program(src) else {
        return true;
    };
    let mut work: Vec<&Expr> = Vec::new();
    for phrase in &program {
        match &phrase.kind {
            PhraseKind::Val { .. } | PhraseKind::Fun { .. } => return false,
            PhraseKind::Expr(e) => work.push(e),
        }
    }
    // Iterative walk: query expressions can nest arbitrarily deep.
    while let Some(e) = work.pop() {
        match &e.kind {
            ExprKind::Assign { .. } => return false,
            ExprKind::Unit
            | ExprKind::Int(_)
            | ExprKind::Real(_)
            | ExprKind::Str(_)
            | ExprKind::Bool(_)
            | ExprKind::Var(_)
            | ExprKind::OpVal(_)
            | ExprKind::Raise(_) => {}
            ExprKind::Lambda { body, .. } => work.push(body),
            ExprKind::App { func, args } => {
                work.push(func);
                work.extend(args.iter());
            }
            ExprKind::If {
                cond,
                then_branch,
                else_branch,
            } => work.extend([cond.as_ref(), then_branch, else_branch]),
            ExprKind::Record(fields) => work.extend(fields.iter().map(|(_, e)| e)),
            ExprKind::Modify { expr, value, .. } => work.extend([expr.as_ref(), value]),
            ExprKind::Field { expr, .. }
            | ExprKind::Inject { expr, .. }
            | ExprKind::As { expr, .. }
            | ExprKind::Project { expr, .. }
            | ExprKind::Ref(expr)
            | ExprKind::Deref(expr)
            | ExprKind::Unop { expr, .. }
            | ExprKind::Rec { body: expr, .. }
            | ExprKind::MakeDynamic(expr)
            | ExprKind::Coerce { expr, .. } => work.push(expr),
            ExprKind::Case {
                expr,
                arms,
                default,
            } => {
                work.push(expr);
                work.extend(arms.iter().map(|a| &a.body));
                if let Some(d) = default {
                    work.push(d);
                }
            }
            ExprKind::Set(items) => work.extend(items.iter()),
            ExprKind::Union { left, right }
            | ExprKind::Unionc { left, right }
            | ExprKind::Con { left, right }
            | ExprKind::Join { left, right }
            | ExprKind::Binop { left, right, .. } => work.extend([left.as_ref(), right]),
            ExprKind::Hom { f, op, z, set } => work.extend([f.as_ref(), op, z, set]),
            ExprKind::HomStar { f, op, set } => work.extend([f.as_ref(), op, set]),
            ExprKind::Let { bound, body, .. } => work.extend([bound.as_ref(), body]),
            ExprKind::Select {
                result,
                generators,
                pred,
            } => {
                work.push(result);
                work.extend(generators.iter().map(|g| &g.source));
                work.push(pred);
            }
        }
    }
    true
}

/// Human-scale time with one stable decimal (`0ns` under a zeroed
/// trace clock, so golden tests pin the full rendering).
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_only_classification() {
        // Pure queries, however nested, are read-only.
        for src in [
            "1 + 2;",
            "!r;",
            "select x.Name where x <- S with x.Salary > 100000;",
            "let val x = !r in x + 1 end;",
            "hom(fn (x) => x, +, 0, {1, 2});",
            "case v of a of x => x, other => 0;",
            "modify(p, Age, 21);",
            "(fn (x) => !x)(r);",
            "ref(1);",                // a fresh local cell, never durable
            "this does not parse;;;", // evaluator surfaces the real error
        ] {
            assert!(is_read_only_source(src), "{src}");
        }
        // Declarations and assignments — anywhere — are writes.
        for src in [
            "val x = 1;",
            "fun f(x) = x;",
            "r := 1;",
            "1; r := 2; 3;",
            "let val x = 1 in r := x end;",
            "if b then r := 1 else ();",
            "(fn (x) => x := 1)(r);",
            "{r := 1};",
            "select (r := 1) where x <- S with true;",
            "modify(p, Age, (fn (u) => (q := 1))(()));",
        ] {
            assert!(!is_read_only_source(src), "{src}");
        }
    }

    #[test]
    fn simple_session() {
        let mut s = Session::bare();
        let out = s.eval_one("1;").unwrap();
        assert_eq!(out.show(), "val it = 1 : int");
        let out = s.eval_one("fun id(x) = x;").unwrap();
        assert_eq!(out.show(), "val id = fn : 'a -> 'a");
        let out = s.eval_one("id(1);").unwrap();
        assert_eq!(out.show(), "val it = 1 : int");
    }

    #[test]
    fn prelude_loads_and_types() {
        let s = Session::new();
        assert_eq!(
            s.scheme_of("map").unwrap().show(),
            "((\"a -> \"b) * {\"a}) -> {\"b}"
        );
        assert_eq!(
            s.scheme_of("member").unwrap().show(),
            "(\"a * {\"a}) -> bool"
        );
        assert_eq!(
            s.scheme_of("Closure").unwrap().show(),
            "{[A:\"a,B:\"a]} -> {[A:\"a,B:\"a]}"
        );
    }

    #[test]
    fn ill_typed_phrase_not_evaluated() {
        let mut s = Session::bare();
        assert!(matches!(s.run("1 + true;"), Err(SessionError::Type(_))));
        // The session stays usable.
        assert!(s.run("2;").is_ok());
    }

    #[test]
    fn it_binding_chains() {
        let mut s = Session::bare();
        s.run("41;").unwrap();
        let out = s.eval_one("it + 1;").unwrap();
        assert_eq!(out.show(), "val it = 42 : int");
    }

    #[test]
    fn type_of_does_not_mutate() {
        let mut s = Session::bare();
        let t = s.type_of("val x = 1; x;").unwrap();
        assert_eq!(t, "int");
        // `x` was not actually bound.
        assert!(matches!(s.run("x;"), Err(SessionError::Type(_))));
    }

    #[test]
    fn bind_external_value() {
        let mut s = Session::new();
        s.bind_external(
            "r",
            Value::set([Value::record([("A".into(), Value::Int(1))])]),
            "{[A: int]}",
        )
        .unwrap();
        let out = s.eval_one("select x.A where x <- r with true;").unwrap();
        assert_eq!(out.show(), "val it = {1} : {int}");
    }

    #[test]
    fn save_and_load_bindings() {
        let mut s = Session::new();
        s.run(
            r#"val db = {[Name="Joe", Salary=1], [Name="Sue", Salary=200000]};
                 val answer = 42;"#,
        )
        .unwrap();
        // The set literal generalizes to a scheme with a quantified desc
        // var? No — all fields are ground, so it is monomorphic enough to
        // persist. Save, then load into a fresh session and query.
        let saved = s.save_bindings(&["db", "answer"]).unwrap();
        let mut s2 = Session::new();
        let names = s2.load_bindings(&saved).unwrap();
        assert_eq!(names, vec!["db", "answer"]);
        let out = s2
            .eval_one("select x.Name where x <- db with x.Salary > 100000;")
            .unwrap();
        assert_eq!(out.show(), r#"val it = {"Sue"} : {string}"#);
        assert_eq!(s2.eval_one("answer;").unwrap().show(), "val it = 42 : int");
    }

    #[test]
    fn functions_do_not_persist() {
        let mut s = Session::new();
        s.run("fun f(x) = x;").unwrap();
        assert!(s.save_bindings(&["f"]).is_err());
    }

    #[test]
    fn persisted_refs_keep_sharing() {
        let mut s = Session::new();
        s.run(
            r#"val d = ref([Building=45]);
                 val emps = {[Name="Jones", Dept=d], [Name="Smith", Dept=d]};"#,
        )
        .unwrap();
        let saved = s.save_bindings(&["emps"]).unwrap();
        let mut s2 = Session::new();
        s2.load_bindings(&saved).unwrap();
        // Update the department through one employee; the other sees it.
        s2.run(
            "val one = hom((fn(x) => (x.Dept := [Building=67])),                            (fn(a,b) => a), (), emps);",
        )
        .unwrap();
        let out = s2
            .eval_one("card(select x where x <- emps with (!(x.Dept)).Building = 67);")
            .unwrap();
        assert_eq!(out.show(), "val it = 2 : int");
    }

    #[test]
    fn plan_of_renders_hash_join_and_fallback() {
        let s = crate::testing::pinned_session(1);
        let tree = s
            .plan_of("select (x.A, y.B) where x <- r, y <- s with x.K = y.K;")
            .unwrap();
        assert!(tree.starts_with("Project"), "{tree}");
        assert!(
            tree.contains("HashJoin[idx build] probe(x.K) build(y.K)"),
            "{tree}"
        );
        // Unsafe predicate: reported as a fallback, not an error.
        let tree = s
            .plan_of("select x where x <- r with member(x, s);")
            .unwrap();
        assert!(tree.starts_with("Fallback (select_loop):"), "{tree}");
        // No comprehension at all.
        let tree = s.plan_of("1 + 2;").unwrap();
        assert_eq!(tree, "no select comprehension in phrase");
        // Finds the select inside a function definition.
        let tree = s
            .plan_of("fun Wealthy(S) = select x.Name where x <- S with x.Salary > 100000;")
            .unwrap();
        assert!(
            tree.contains("Scan x <- S filter (x.Salary > 100000)"),
            "{tree}"
        );
    }

    #[test]
    fn store_stats_track_reuse_and_plan_of_flips_to_cached() {
        let mut s = crate::testing::pinned_session(1);
        s.run("val r = {[K=1, A=10], [K=2, A=20]}; val t = {[K=1, B=5]};")
            .unwrap();
        let q = "select (x.A, y.B) where x <- r, y <- t with x.K = y.K;";
        let cold = s.plan_of(q).unwrap();
        assert!(cold.contains("HashJoin[idx build]"), "{cold}");
        s.eval_one(q).unwrap();
        s.eval_one(q).unwrap();
        let stats = s.store_stats();
        assert_eq!((stats.builds, stats.hits), (1, 1), "{stats:?}");
        assert_eq!(stats.entries, 1, "{stats:?}");
        // The rendering now reports the live index (plain, with
        // plain-evaluable probe keys: statically eligible for the
        // plain-key path).
        let warm = s.plan_of(q).unwrap();
        assert!(warm.contains("HashJoin[idx cached, par]"), "{warm}");
        let indexes = s.store_indexes();
        assert_eq!(indexes.len(), 1);
        // Binder names are alpha-normalized to `_` in fingerprints, and
        // pure-data relations cache in plain (parallel-probable) form.
        assert_eq!(indexes[0].fingerprint, "join t build(_.K) filter()");
        assert_eq!(indexes[0].kind, machiavelli_store::IndexKind::Plain);
        s.store_reset();
        assert_eq!(s.store_stats(), machiavelli_store::StoreStats::default());
    }

    #[test]
    fn reset_stats_leaves_no_session_counter_behind() {
        let mut s = crate::testing::pinned_session(1);
        // Dirty every session-scoped surface: store counters (build +
        // hit), observed per-fingerprint stats (via analyze), and the
        // decline counts (a planner fallback plus a directly noted
        // lane decline).
        s.run("val r = {[K=1, A=10], [K=2, A=20]}; val t = {[K=1, B=5]};")
            .unwrap();
        let q = "select (x.A, y.B) where x <- r, y <- t with x.K = y.K;";
        s.analyze(q).unwrap();
        s.run(q).unwrap();
        s.run("select x where x <- r with member(x, r);").unwrap();
        machiavelli_trace::note_decline(machiavelli_trace::DeclineReason::ParJoinExtract);
        let dirty = s.stats();
        assert!(
            dirty.store != machiavelli_store::StoreStats::default(),
            "{dirty:?}"
        );
        assert!(
            dirty.declines.iter().any(|(_, n)| *n > 0),
            "workload should record at least one decline: {dirty:?}"
        );
        assert!(!s.observed_stats().is_empty());

        s.reset_stats();
        let clean = s.stats();
        assert_eq!(clean.store, machiavelli_store::StoreStats::default());
        assert_eq!(clean.par, machiavelli_value::tuning::ParStats::default());
        assert_eq!(clean.exec, machiavelli_value::tuning::ExecStats::default());
        assert!(
            clean.declines.iter().all(|(_, n)| *n == 0),
            "{:?}",
            clean.declines
        );
        assert_eq!(
            clean.declines.len(),
            machiavelli_trace::DeclineReason::COUNT,
            "snapshot still lists every reason code"
        );
        assert!(s.observed_stats().is_empty());
        assert!(s.store_indexes().is_empty());
    }

    #[test]
    fn save_to_file_is_atomic_and_loads_back() {
        let mut s = Session::new();
        s.run(r#"val db = {[Name="Joe", Salary=1]}; val answer = 42;"#)
            .unwrap();
        let dir = std::env::temp_dir().join(format!("mach-save-to-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bindings.mach");
        s.save_bindings_to(&path, &["db", "answer"]).unwrap();
        // Overwrite with a *smaller* save: the rename replaces wholesale
        // (an in-place truncate-and-rewrite could tear here).
        s.save_bindings_to(&path, &["answer"]).unwrap();
        let mut s2 = Session::new();
        assert_eq!(s2.load_bindings_from(&path).unwrap(), vec!["answer"]);
        assert_eq!(s2.eval_one("answer;").unwrap().show(), "val it = 42 : int");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistable_binding_filters_polymorphism() {
        let mut s = Session::new();
        s.run("val n = 7; fun poly(x) = x;").unwrap();
        let (ty, v) = s.persistable_binding("n").unwrap();
        assert_eq!(ty, "int");
        assert_eq!(v, Value::Int(7));
        assert!(s.persistable_binding("poly").is_none(), "polymorphic");
        assert!(s.persistable_binding("missing").is_none());
    }

    #[test]
    fn stats_render_includes_wal_line() {
        let s = Session::new();
        let rendered = s.stats().render();
        assert!(rendered.contains("wal: "), "{rendered}");
    }

    #[test]
    fn parse_errors_carry_position() {
        let mut s = Session::bare();
        let err = s.run("val = ;").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("syntax error"), "{msg}");
    }
}
