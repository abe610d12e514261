//! An interactive Machiavelli session: parse → type-infer → evaluate.
//!
//! [`Session`] reproduces the paper's top-level loop: each phrase is
//! statically checked (rejecting ill-typed programs before evaluation),
//! then evaluated, and the result is reported in the paper's
//! `>> val it = … : …` form. A phrase whose shape the session has
//! already elaborated skips the parser and inference (see
//! `prepared.rs`).

use crate::error::SessionError;
use crate::prepared::{self, Entry, Prepared};
use machiavelli_eval::{builtin_env, eval_expr, PRELUDE};
use machiavelli_store::{EngineCtx, IndexStore};
use machiavelli_syntax::ast::{Expr, ExprKind, Phrase, PhraseKind};
use machiavelli_syntax::lexer::lex;
use machiavelli_syntax::{parse_program, parse_tokens, ParseError, Shape};
use machiavelli_trace::metrics::{self, Counter, Snapshot};
use machiavelli_types::{Elaboration, Inferencer, Scheme, TypeEnv};
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

/// A program that stopped at a failing phrase: the outcomes of the
/// phrases before it (whose bindings stand) and the failure.
#[derive(Debug)]
pub struct PartialRun {
    pub completed: Vec<Outcome>,
    pub error: SessionError,
}

/// Every statistics surface a session can see, snapshotted at once:
/// the index store, the typed decline taxonomy, and the process-wide
/// counter registry (`machiavelli_trace::metrics`). One struct so
/// callers (and the REPL's `:stats`) render all of it through one code
/// path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStats {
    /// Cached-index store counters (session-scoped).
    pub store: machiavelli_store::StoreStats,
    /// Typed decline counts (session-scoped), one entry per
    /// [`machiavelli_trace::DeclineReason`] variant in declaration
    /// order, zeros included.
    pub declines: Vec<(machiavelli_trace::DeclineReason, u64)>,
    /// The process-wide counters: server, WAL, replication, injected
    /// faults.
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
            "index store: {} entries, {} rows cached",
            st.entries, st.cached_rows
        );
        let _ = writeln!(
            out,
            "hits {} / misses {} / builds {} / invalidated {} / cleared {} / evicted {}",
            st.hits, st.misses, st.builds, st.invalidated, st.cleared, st.evicted
        );
        let m = |c| self.metrics.get(c);
        let _ = writeln!(
            out,
            "server: sessions {} started / {} panicked / {} closed, \
             queries {} completed / {} shed / {} deadline / {} cancelled / {} row-budget",
            m(Counter::SessionsStarted),
            m(Counter::SessionsPanicked),
            m(Counter::SessionsClosed),
            m(Counter::QueriesCompleted),
            m(Counter::QueriesShed),
            m(Counter::QueriesDeadline),
            m(Counter::QueriesCancelled),
            m(Counter::QueriesRowBudget)
        );
        let _ = writeln!(
            out,
            "front end: {} prepared / {} elaborated / {} unprepared phrases",
            m(Counter::PhrasesPrepared),
            m(Counter::PhrasesElaborated),
            m(Counter::PhrasesUnprepared)
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

/// Morsel-scheduler counters, kept only because `benchmark/` reads
/// them through [`Session::exec_stats`]. Always zero: the engine has no
/// scheduler. Goes with the `exec.morsels` / `exec.steals` benchmark
/// metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    pub morsels_executed: u64,
    pub morsels_stolen: u64,
}

/// A stateful interpreter session.
pub struct Session {
    inferencer: Inferencer,
    type_env: TypeEnv,
    env: Env,
    prepared: Prepared,
    engine: EngineCtx,
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
            prepared: Prepared::new(prepared::CAPACITY),
            engine: EngineCtx::default(),
        }
    }

    /// The session's engine context: its index store, dirty sets,
    /// decline counts and execution mode.
    pub fn engine(&self) -> &EngineCtx {
        &self.engine
    }

    /// This session with its prepared-phrase cache switched off: every
    /// phrase is parsed and inferred (`testing::uncached_session`).
    pub(crate) fn uncached(mut self) -> Session {
        self.prepared = Prepared::new(0);
        self
    }

    /// Run a program (one or more `;`-terminated phrases), returning one
    /// [`Outcome`] per phrase.
    pub fn run(&mut self, src: &str) -> Result<Vec<Outcome>, SessionError> {
        self.run_partial(src).map_err(|p| p.error)
    }

    /// [`Session::run`], except that a failure also hands back the
    /// outcomes of the phrases that completed before it. Their bindings
    /// stand, so a durable caller logs them before reporting the error.
    pub fn run_partial(&mut self, src: &str) -> Result<Vec<Outcome>, PartialRun> {
        let failed = |error| PartialRun {
            completed: Vec::new(),
            error,
        };
        let parse_error = |e: ParseError| failed(SessionError::Parse(e.display_with_source(src)));
        let (program, shape) = if self.prepared.enabled() && src.len() <= prepared::SRC_CAP {
            let tokens = lex(src).map_err(parse_error)?;
            let shape = Shape::of(&tokens);
            if let Some(result) = self.run_prepared(&shape) {
                return result.map(|o| vec![o]).map_err(failed);
            }
            (parse_tokens(tokens).map_err(parse_error)?, Some(shape))
        } else {
            (parse_program(src).map_err(parse_error)?, None)
        };
        // Only a one-phrase program is a candidate for the cache.
        let shape = shape.filter(|_| program.len() == 1);
        let mut out = Vec::with_capacity(program.len());
        for phrase in program {
            match self.run_phrase(phrase, shape.as_ref()) {
                Ok(outcome) => out.push(outcome),
                Err(error) => {
                    return Err(PartialRun {
                        completed: out,
                        error,
                    })
                }
            }
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
        let store = self.engine.mode().store;
        Ok(
            match machiavelli_plan::compile(generators, pred, result).map(|l| l.physical(store)) {
                Ok(plan) => machiavelli_plan::explain(&plan, &self.engine),
                Err(reason) => format!("Fallback (select_loop): {reason}"),
            },
        )
    }

    /// Statistics of the session's index store (cached hash indexes for
    /// repeated plans — see `machiavelli-store`). The store is the
    /// session's own: another session, on this thread or any other,
    /// neither fills nor reads it.
    pub fn store_stats(&self) -> machiavelli_store::StoreStats {
        self.engine.with_store(|s| s.stats())
    }

    /// Describe the live cached indexes in deterministic order (sorted
    /// by fingerprint, then storage id — pinnable in golden tests).
    /// Behind the REPL's `:indexes` command.
    pub fn store_indexes(&self) -> Vec<machiavelli_store::IndexInfo> {
        self.engine.with_store(|s| s.indexes())
    }

    /// Drop all cached indexes and zero the statistics (tests and
    /// benchmarks use this to measure from a cold store; correctness
    /// never requires it — invalidation is automatic).
    pub fn store_reset(&self) {
        self.engine.with_store(IndexStore::reset);
    }

    /// Always [`ExecStats::default`] — see [`ExecStats`].
    pub fn exec_stats(&self) -> ExecStats {
        ExecStats::default()
    }

    /// One snapshot of every statistics surface — the store, the typed
    /// decline counts, and the process-wide counter registry (server
    /// rows are all zero unless this process hosts sessions through
    /// `machiavelli-server`). Behind the REPL's `:stats` via
    /// [`SessionStats::render`].
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            store: self.store_stats(),
            declines: self.engine.declines(),
            metrics: metrics::snapshot(),
        }
    }

    /// Zero every session-scoped counter in one call: the index store
    /// (entries and counters) and the decline counts. The process-wide
    /// registry ([`SessionStats::metrics`]) is deliberately untouched —
    /// it aggregates across sessions.
    pub fn reset_stats(&self) {
        self.engine.reset_stats();
    }

    /// Enable/disable query tracing for this session (`None` restores
    /// the `MACHIAVELLI_TRACE` default read when the session was made),
    /// returning the previous override. With tracing on, every evaluated
    /// `select` records a [`machiavelli_trace::QueryTrace`] retrievable
    /// via [`Session::trace_events`]. Other sessions are unaffected.
    pub fn set_tracing(&self, on: Option<bool>) -> Option<bool> {
        self.engine.tracer().set_tracing(on)
    }

    /// Drain the traced queries this session recorded since the last
    /// drain (oldest first; the session's buffer keeps the most recent
    /// [`machiavelli_trace::MAX_EVENTS`]).
    pub fn trace_events(&self) -> Vec<machiavelli_trace::QueryTrace> {
        self.engine.tracer().take_events()
    }

    /// Run `src` with query tracing forced on and render each traced
    /// `select` as its physical operator tree annotated with what
    /// *actually happened*: per-operator yielded rows, open/next time,
    /// cache outcome, and any typed decline codes —
    /// `EXPLAIN ANALYZE`, where [`Session::plan_of`] is `EXPLAIN`. The
    /// phrases evaluate for real (bindings stick, `it` updates), and the
    /// report is the span trees only. Behind the REPL's `:analyze`
    /// command.
    pub fn analyze(&mut self, src: &str) -> Result<String, SessionError> {
        let prev = self.set_tracing(Some(true));
        // Stale events from earlier traced work would mis-attribute.
        let _ = self.trace_events();
        let result = self.run(src);
        self.set_tracing(prev);
        let events = self.trace_events();
        result?;
        if events.is_empty() {
            return Ok("no select evaluated".into());
        }
        let mut out = String::new();
        for q in &events {
            render_query_trace(&mut out, q);
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
        self.type_env.rebind(name, Scheme::mono(ty));
        self.env = self.env.rebind(name, value);
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

    /// Run a phrase from the prepared cache, or `None` on a miss: no
    /// entry for `shape`, or one that read a top-level binding since
    /// replaced (the caller elaborates afresh and the entry is refilled).
    fn run_prepared(&mut self, shape: &Shape) -> Option<Result<Outcome, SessionError>> {
        let entry = self.prepared.get(&shape.key)?;
        let type_env = &self.type_env;
        if !entry
            .reads
            .iter()
            .all(|&(name, stamp)| type_env.stamp(name) == Some(stamp))
        {
            return None;
        }
        metrics::add(Counter::PhrasesPrepared, 1);
        shape.patch(&mut entry.phrase, &entry.slots);
        Some(
            eval_phrase(&self.engine, &self.env, &entry.phrase).map(|value| {
                self.type_env.rebind(entry.name, entry.scheme.clone());
                self.env = self.env.rebind(entry.name, value.clone());
                Outcome {
                    name: entry.name,
                    value,
                    scheme: entry.scheme.clone(),
                }
            }),
        )
    }

    /// Infer, evaluate and bind one phrase. Both environments are
    /// rebound only once evaluation has succeeded, so a failing phrase
    /// leaves the session as it found it. When `shape` is the phrase's
    /// shape, the elaborated phrase is admitted to the prepared cache if
    /// reusing it is sound (`docs/PERFORMANCE.md`, "Front end").
    fn run_phrase(
        &mut self,
        mut phrase: Phrase,
        shape: Option<&Shape>,
    ) -> Result<Outcome, SessionError> {
        let pending = self.inferencer.constraints.clone();
        let elaboration = match self
            .inferencer
            .elaborate_phrase(&mut self.type_env, &phrase)
        {
            Ok(elaboration) => elaboration,
            Err(e) => {
                self.inferencer.constraints = pending;
                metrics::add(Counter::PhrasesUnprepared, 1);
                return Err(SessionError::Type(e));
            }
        };
        let Elaboration {
            typed,
            reads,
            reads_untouched,
        } = elaboration;
        // Inference changed no earlier unification variable and left
        // none pending, and the scheme to rebind shares no cell: a later
        // instance would infer the same scheme with the same effects.
        let sound = pending.is_empty()
            && self.inferencer.constraints.is_empty()
            && reads_untouched
            && typed.scheme.is_ground();
        let slots = match shape {
            Some(shape) if sound => shape.slots(&mut phrase),
            _ => None,
        };
        let result = eval_phrase(&self.engine, &self.env, &phrase);
        match (shape, slots) {
            (Some(shape), Some(slots)) => {
                metrics::add(Counter::PhrasesElaborated, 1);
                let entry = Entry::new(phrase, slots, typed.name, typed.scheme.clone(), reads);
                self.prepared.insert(shape.key.clone(), entry);
            }
            _ => metrics::add(Counter::PhrasesUnprepared, 1),
        }
        let value = result.inspect_err(|_| self.inferencer.constraints = pending)?;
        self.type_env.rebind(typed.name, typed.scheme.clone());
        self.env = self.env.rebind(typed.name, value.clone());
        Ok(Outcome {
            name: typed.name,
            value,
            scheme: typed.scheme,
        })
    }
}

/// Evaluate a phrase's right-hand side (a `fun` as its recursive
/// closure).
fn eval_phrase(engine: &EngineCtx, env: &Env, phrase: &Phrase) -> Result<Value, SessionError> {
    match &phrase.kind {
        PhraseKind::Val { expr, .. } | PhraseKind::Expr(expr) => eval_expr(engine, env, expr),
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
            eval_expr(engine, env, &rec)
        }
    }
    .map_err(SessionError::Eval)
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
///   HashJoin probe(x.K) build(y.K) [cache build] rows=3 open=1.0ms next=0.2ms
///     Scan x <- r rows=100 open=10.0µs next=80.0µs
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
        let _ = write!(out, "{:indent$}{}", "", s.label, indent = depth * 2);
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
/// rebinds the scratch `it`, which no role logs or ships, so it does
/// not count as a write.
///
/// The check is syntactic: a call to a user closure whose body writes a
/// ref (`bump(r);`) passes. Followers are safe only because closures
/// are never shipped to them.
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
    fn top_level_environments_are_bounded_by_distinct_names() {
        let mut s = Session::new();
        let cycle = [
            "card(batch) + 1;",
            "val batch = {[K=1, A=2], [K=2, A=3]};",
            "fun f(x) = x + card(batch);",
            "val pick = fn (r) => r.A;",
        ];
        // `batch` is used before its first `val`: start it off bound.
        s.run("val batch = {[K=0, A=0]};").unwrap();
        for phrase in cycle {
            s.run(phrase).unwrap();
        }
        let types = s.type_env.iter().count();
        let spine = s.env.depth();
        assert_eq!(s.inferencer.constraints.len(), 0);
        for _ in 1..10_000 / cycle.len() {
            for phrase in cycle {
                s.run(phrase).unwrap();
            }
        }
        assert_eq!(s.type_env.iter().count(), types, "type env grew");
        assert_eq!(s.env.depth(), spine, "value env grew");
        assert_eq!(s.inferencer.constraints.len(), 0);
        assert_eq!(s.eval_one("f(1);").unwrap().show(), "val it = 3 : int");
    }

    #[test]
    fn rebinding_leaves_closures_on_the_value_they_captured() {
        let mut s = Session::bare();
        let out = s
            .run("val a = 1; fun f(x) = a; val a = 2; f(0); a;")
            .unwrap();
        assert_eq!(out[3].show(), "val it = 1 : int", "f sees the old a");
        assert_eq!(out[4].show(), "val it = 2 : int", "a is rebound");
        // A redefined function: callers defined earlier keep the old one.
        let out = s
            .run("fun g(x) = 1; fun h(x) = g(x); fun g(x) = 2; h(0); g(0);")
            .unwrap();
        assert_eq!(out[3].show(), "val it = 1 : int");
        assert_eq!(out[4].show(), "val it = 2 : int");
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
        let s = crate::testing::pinned_session();
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
        let mut s = crate::testing::pinned_session();
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
        // The rendering now reports the live index.
        let warm = s.plan_of(q).unwrap();
        assert!(warm.contains("HashJoin[idx cached]"), "{warm}");
        let indexes = s.store_indexes();
        assert_eq!(indexes.len(), 1);
        // Binder names are alpha-normalized to `_` in fingerprints.
        assert_eq!(indexes[0].fingerprint, "join t build(_.K) filter()");
        assert_eq!((indexes[0].rows, indexes[0].groups), (1, 1));
        s.store_reset();
        assert_eq!(s.store_stats(), machiavelli_store::StoreStats::default());
    }

    #[test]
    fn reset_stats_leaves_no_session_counter_behind() {
        let mut s = crate::testing::pinned_session();
        // Dirty every session-scoped surface: store counters (build +
        // hit) and the decline counts (a planner fallback plus a
        // directly noted store decline).
        s.run("val r = {[K=1, A=10], [K=2, A=20]}; val t = {[K=1, B=5]};")
            .unwrap();
        let q = "select (x.A, y.B) where x <- r, y <- t with x.K = y.K;";
        s.analyze(q).unwrap();
        s.run(q).unwrap();
        s.run("select x where x <- r with member(x, r);").unwrap();
        s.engine()
            .note_decline(machiavelli_trace::DeclineReason::StoreOverBudget);
        let dirty = s.stats();
        assert!(
            dirty.store != machiavelli_store::StoreStats::default(),
            "{dirty:?}"
        );
        assert!(
            dirty.declines.iter().any(|(_, n)| *n > 0),
            "workload should record at least one decline: {dirty:?}"
        );

        s.reset_stats();
        let clean = s.stats();
        assert_eq!(clean.store, machiavelli_store::StoreStats::default());
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
    fn prepared_cache_is_bounded_and_forgets_the_least_recent() {
        let mut s = Session::bare();
        s.run("val n = 1;").unwrap();
        let shape = |i: usize| format!("n + {i} + x{i};");
        for i in 0..prepared::CAPACITY + 8 {
            s.run(&format!("val x{i} = {i};")).unwrap();
            s.run(&shape(i)).unwrap();
            // Keep the first shape the most recently used.
            s.run(&shape(0)).unwrap();
        }
        assert_eq!(s.prepared.len(), prepared::CAPACITY);
        let prepared = metrics::get(Counter::PhrasesPrepared);
        assert_eq!(
            s.eval_one("n + 7 + x0;").unwrap().show(),
            "val it = 8 : int"
        );
        assert!(metrics::get(Counter::PhrasesPrepared) > prepared);
    }

    #[test]
    fn a_rebound_read_refills_its_entry() {
        let mut s = Session::bare();
        s.run("val k = 1;").unwrap();
        assert_eq!(s.eval_one("k + 1;").unwrap().show(), "val it = 2 : int");
        assert_eq!(s.eval_one("k + 2;").unwrap().show(), "val it = 3 : int");
        s.run("val k = 1.5;").unwrap();
        let err = s.run("k + 3;").unwrap_err();
        assert!(matches!(err, SessionError::Type(_)), "{err}");
        s.run(r#"val k = "a";"#).unwrap();
        let err = s.run("k + 3;").unwrap_err();
        assert!(matches!(err, SessionError::Type(_)), "{err}");
        s.run("val k = 10;").unwrap();
        assert_eq!(s.eval_one("k + 4;").unwrap().show(), "val it = 14 : int");
    }

    #[test]
    fn parse_errors_carry_position() {
        let mut s = Session::bare();
        let err = s.run("val = ;").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("syntax error"), "{msg}");
    }
}
