//! **Query tracing for the Machiavelli engine** — a zero-cost-when-off,
//! per-session trace ([`Tracer`]) of what the physical pipeline actually
//! did, plus
//! the engine-wide **decline taxonomy**, the process-wide **counter
//! registry** ([`metrics`]) and the query latency histogram the server's
//! `METRICS` verb exposes.
//!
//! The engine has two execution lanes (interpreted `select_loop` and
//! the planner pipeline) and chooses between them at run time, and the
//! pipeline's index store chooses whether and how to cache. Without a
//! trace, a query that silently fell back leaves no record of *which
//! operator* declined or *why*. This crate supplies the missing
//! structure:
//!
//! - **Spans** ([`OpSpan`]): one per physical operator open, recording
//!   wall time (open + cumulative `next`), rows yielded, and the
//!   index-store outcome ([`CacheOutcome`]). Spans nest by operator
//!   tree position and are collected into a [`QueryTrace`] per traced
//!   query, drained via [`Tracer::take_events`] (surfaced as
//!   `Session::trace_events` and rendered by `Session::analyze` / the
//!   REPL's `:analyze`).
//! - **Declines** ([`DeclineReason`]): every runtime fallback anywhere
//!   in the engine — planner fallback, store non-cacheability — reports
//!   a *typed code* through [`DeclineCounts::note`] (and to the open
//!   span through [`Tracer::note_decline`]), not just a bare counter
//!   bump. Decline counts are
//!   kept **twice**: per-session ([`DeclineCounts`], owned by the
//!   `Session` and reset with its other stats — `Session::stats` /
//!   `reset_stats`) and process-wide (in the [`metrics`] registry,
//!   feeding `METRICS` across every session).
//!   Decline accounting is *always on*; only span attachment is gated
//!   on tracing. Declines fire at most once per runtime fallback —
//!   static ineligibility (a shape that was never a candidate) stays
//!   uncounted.
//! - **Latency histogram**: fixed-bucket process-wide histogram of
//!   per-query wall time ([`observe_query_ns`] / [`latency_snapshot`]),
//!   rendered Prometheus-style by the server.
//!
//! **Zero cost when off.** A tracer resolves its session's override →
//! `MACHIAVELLI_TRACE` (read when the tracer is made) → off. Every span
//! entry point checks [`Tracer::active`] first and returns immediately
//! when tracing is off or no query is open; span labels are built
//! through closures so the formatting cost is never paid off-trace. The
//! clock is only read while tracing.
//!
//! **Clock hook.** Wall time comes from a caller-replaceable monotonic
//! clock ([`Tracer::set_clock`]); the default is [`now_ns`], a
//! process-epoch `Instant`. Golden tests install `|| 0` so rendered
//! times are deterministic.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub mod metrics;

// --- clock -----------------------------------------------------------------

/// Nanoseconds since the process's first call: the default trace clock
/// and the server's latency clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// --- spans -----------------------------------------------------------------

/// The index-store outcome for an operator that consulted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// A live cached index served the operator (no build).
    Hit,
    /// The operator built the index (and the store admitted it).
    Build,
    /// The store was disabled or bypassed; the index was built inline
    /// and dropped after the query.
    Bypass,
}

impl std::fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheOutcome::Hit => write!(f, "hit"),
            CacheOutcome::Build => write!(f, "build"),
            CacheOutcome::Bypass => write!(f, "bypass"),
        }
    }
}

/// One physical-operator span. Times are **inclusive** of children
/// (`next_ns` accumulates the full pull including everything the
/// operator itself pulled); `rows` counts bindings the operator
/// yielded to its parent.
#[derive(Debug, Clone)]
pub struct OpSpan {
    /// Slab id, also the child→parent link target.
    pub id: u32,
    /// The enclosing span at open time (`None` for the root operator).
    pub parent: Option<u32>,
    /// Static operator label, e.g. `HashJoin probe(x.K) build(y.K)`.
    pub label: String,
    /// Index-store outcome, for operators that consulted it.
    pub cache: Option<CacheOutcome>,
    /// Rows the operator yielded (or, for consumed inputs and build
    /// sides, rows it contributed).
    pub rows: u64,
    /// Wall time spent inside `open` (builds).
    pub open_ns: u64,
    /// Cumulative wall time across `next` calls, inclusive of children.
    pub next_ns: u64,
    /// Typed declines that fired while this operator was opening.
    pub declines: Vec<DeclineReason>,
}

/// A completed traced query: the span forest plus query-level declines
/// (those that fired outside any operator span — e.g. the planner
/// falling back before any operator opened).
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// Caller-supplied label (the evaluator passes the phrase kind).
    pub label: String,
    /// End-to-end wall time for the traced query.
    pub elapsed_ns: u64,
    /// Spans in open order; `parent` links encode the operator tree.
    pub spans: Vec<OpSpan>,
    /// Declines with no enclosing operator span.
    pub declines: Vec<DeclineReason>,
}

/// Cap on a tracer's buffered [`QueryTrace`] events (oldest evicted).
pub const MAX_EVENTS: usize = 64;

/// The query in progress and the completed ones not yet drained.
#[derive(Default)]
struct TraceState {
    depth: u32,
    start_ns: u64,
    label: String,
    spans: Vec<OpSpan>,
    stack: Vec<u32>,
    declines: Vec<DeclineReason>,
    events: Vec<QueryTrace>,
}

/// One session's tracer: whether it traces, its clock and its event
/// buffer. The session's engine context owns it, so two sessions never
/// see each other's queries or switches, whatever thread runs them.
pub struct Tracer {
    /// `MACHIAVELLI_TRACE` (`1`/`true`) as read when the tracer was made.
    env: bool,
    /// The [`Tracer::set_tracing`] override of `env`.
    on: Cell<Option<bool>>,
    clock: Cell<Option<fn() -> u64>>,
    state: RefCell<TraceState>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        let env = std::env::var("MACHIAVELLI_TRACE").is_ok_and(|s| {
            let s = s.trim();
            s == "1" || s.eq_ignore_ascii_case("true")
        });
        Tracer {
            env,
            on: Cell::new(None),
            clock: Cell::new(None),
            state: RefCell::default(),
        }
    }
}

impl Tracer {
    /// Is tracing on? The override, else `MACHIAVELLI_TRACE`.
    pub fn enabled(&self) -> bool {
        self.on.get().unwrap_or(self.env)
    }

    /// Override tracing (`None` restores `MACHIAVELLI_TRACE`),
    /// returning the previous override.
    pub fn set_tracing(&self, on: Option<bool>) -> Option<bool> {
        self.on.replace(on)
    }

    /// Install a replacement monotonic clock (nanoseconds; `None`
    /// restores [`now_ns`]), returning the previous hook. Golden tests
    /// install `|| 0` to redact times.
    pub fn set_clock(&self, f: Option<fn() -> u64>) -> Option<fn() -> u64> {
        self.clock.replace(f)
    }

    /// The trace clock. Only read while tracing is active — the
    /// off-path never reads a clock.
    pub fn now_ns(&self) -> u64 {
        self.clock.get().map_or_else(now_ns, |f| f())
    }

    /// Is a traced query open? The span entry points are no-ops unless
    /// this holds, so instrumentation sites can call them
    /// unconditionally (after gating label construction).
    pub fn active(&self) -> bool {
        self.enabled() && self.state.borrow().depth > 0
    }

    /// Open a traced query. Nested calls (a select inside a projected
    /// expression) fold into the enclosing trace — only the outermost
    /// `begin`/`end` pair produces a [`QueryTrace`]. No-op when tracing
    /// is off.
    pub fn begin_query(&self, label: &str) {
        if !self.enabled() {
            return;
        }
        let mut t = self.state.borrow_mut();
        t.depth += 1;
        if t.depth == 1 {
            t.start_ns = self.now_ns();
            t.label = label.to_string();
            t.spans.clear();
            t.stack.clear();
            t.declines.clear();
        }
    }

    /// Close the current traced query; the outermost close finalizes
    /// the [`QueryTrace`] into the event buffer. No-op when tracing is
    /// off or no query is open.
    pub fn end_query(&self) {
        if !self.enabled() {
            return;
        }
        let mut t = self.state.borrow_mut();
        if t.depth == 0 {
            return;
        }
        t.depth -= 1;
        if t.depth == 0 {
            let elapsed_ns = self.now_ns().saturating_sub(t.start_ns);
            let label = std::mem::take(&mut t.label);
            let spans = std::mem::take(&mut t.spans);
            let declines = std::mem::take(&mut t.declines);
            t.stack.clear();
            // Bound the buffer: a session that traces but never drains
            // (a long-lived server connection) keeps only the most
            // recent [`MAX_EVENTS`] queries.
            if t.events.len() >= MAX_EVENTS {
                t.events.remove(0);
            }
            t.events.push(QueryTrace {
                label,
                elapsed_ns,
                spans,
                declines,
            });
        }
    }

    /// Drain the completed query traces (oldest first).
    pub fn take_events(&self) -> Vec<QueryTrace> {
        std::mem::take(&mut self.state.borrow_mut().events)
    }

    /// Open an operator span nested under the current one. The label
    /// closure only runs when a traced query is active, so off-trace
    /// call sites pay one branch and no formatting. Returns `None`
    /// off-trace.
    pub fn open_op_with(&self, label: impl FnOnce() -> String) -> Option<u32> {
        if !self.active() {
            return None;
        }
        let mut t = self.state.borrow_mut();
        let id = t.spans.len() as u32;
        let parent = t.stack.last().copied();
        t.spans.push(OpSpan {
            id,
            parent,
            label: label(),
            cache: None,
            rows: 0,
            open_ns: 0,
            next_ns: 0,
            declines: Vec::new(),
        });
        t.stack.push(id);
        Some(id)
    }

    /// Close an operator span opened by [`Tracer::open_op_with`],
    /// recording its open-time wall cost. Tolerates an error-unwound
    /// stack (removes the span wherever it sits).
    pub fn close_op(&self, sid: Option<u32>, open_ns: u64) {
        let Some(sid) = sid else { return };
        let mut t = self.state.borrow_mut();
        if let Some(pos) = t.stack.iter().rposition(|&s| s == sid) {
            t.stack.truncate(pos);
        }
        if let Some(span) = t.spans.get_mut(sid as usize) {
            span.open_ns = open_ns;
        }
    }

    /// Accumulate one `next` call's wall time and yielded-row count
    /// into a span.
    pub fn add_next(&self, sid: u32, ns: u64, rows: u64) {
        if let Some(span) = self.state.borrow_mut().spans.get_mut(sid as usize) {
            span.next_ns += ns;
            span.rows += rows;
        }
    }

    /// Record the index-store outcome of the innermost open span, if a
    /// traced query is active.
    pub fn annotate_cache(&self, outcome: CacheOutcome) {
        if !self.active() {
            return;
        }
        let mut t = self.state.borrow_mut();
        if let Some(sid) = t.stack.last().copied() {
            t.spans[sid as usize].cache = Some(outcome);
        }
    }

    /// Attach a typed decline to the innermost open span (or the query)
    /// when a traced query is active.
    pub fn note_decline(&self, reason: DeclineReason) {
        if !self.active() {
            return;
        }
        let mut t = self.state.borrow_mut();
        match t.stack.last().copied() {
            Some(sid) => t.spans[sid as usize].declines.push(reason),
            None => t.declines.push(reason),
        }
    }
}

// --- decline taxonomy ------------------------------------------------------

macro_rules! decline_reasons {
    ($($(#[$doc:meta])* $variant:ident => $code:literal,)*) => {
        /// Why an execution left its preferred path: the engine-wide typed
        /// fallback taxonomy. Every variant corresponds to a runtime
        /// fallback — static ineligibility (a shape that was never a
        /// candidate) never emits one.
        /// `docs/OBSERVABILITY.md` catalogues each variant with its emission
        /// site.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum DeclineReason {
            $($(#[$doc])* $variant,)*
        }

        impl DeclineReason {
            /// Number of variants (sizes the count arrays).
            pub const COUNT: usize = [$($code,)*].len();

            /// Every variant, in stable rendering order.
            pub const ALL: [DeclineReason; DeclineReason::COUNT] =
                [$(DeclineReason::$variant,)*];

            /// Stable machine-readable code (the `reason` label in
            /// `METRICS` and the name `:analyze` prints).
            pub fn code(self) -> &'static str {
                match self {
                    $(DeclineReason::$variant => $code,)*
                }
            }

            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

decline_reasons! {
    /// Planner: the comprehension has no generators to plan.
    PlannerNoGenerators => "planner-no-generators",
    /// Planner: two generators bind the same variable.
    PlannerDuplicateBinder => "planner-duplicate-binder",
    /// Planner: a dependent generator's source could observe
    /// reordering (not provably safe to hoist).
    PlannerUnsafeDependentSource => "planner-unsafe-dependent-source",
    /// Planner: a predicate conjunct could observe evaluation order.
    PlannerUnsafeConjunct => "planner-unsafe-conjunct",
    /// Index store: the index exceeded the row budget and was returned
    /// un-cached.
    StoreOverBudget => "store-over-budget",
}

impl std::fmt::Display for DeclineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// One session's decline counts, one per [`DeclineReason`].
#[derive(Debug, Clone, Default)]
pub struct DeclineCounts([u64; DeclineReason::COUNT]);

impl DeclineCounts {
    /// Count a typed runtime fallback here and process-wide (the
    /// [`metrics`] registry), regardless of tracing.
    pub fn note(&mut self, reason: DeclineReason) {
        self.0[reason.index()] += 1;
        metrics::add_decline(reason);
    }

    /// The counts, one entry per variant in [`DeclineReason::ALL`]
    /// order, zeros included.
    pub fn snapshot(&self) -> Vec<(DeclineReason, u64)> {
        DeclineReason::ALL
            .iter()
            .map(|&r| (r, self.0[r.index()]))
            .collect()
    }
}

// --- query latency histogram -----------------------------------------------

/// Upper bucket bounds (nanoseconds) for the process-wide query latency
/// histogram: 50µs / 200µs / 1ms / 5ms / 20ms / 100ms / 500ms / 2s,
/// plus the implicit `+Inf` bucket. Fixed so dashboards can diff runs.
pub const LATENCY_BUCKET_NS: [u64; 8] = [
    50_000,
    200_000,
    1_000_000,
    5_000_000,
    20_000_000,
    100_000_000,
    500_000_000,
    2_000_000_000,
];

static LATENCY_COUNTS: [AtomicU64; LATENCY_BUCKET_NS.len() + 1] =
    [const { AtomicU64::new(0) }; LATENCY_BUCKET_NS.len() + 1];
static LATENCY_SUM_NS: AtomicU64 = AtomicU64::new(0);

/// Record one query's end-to-end wall time in the process-wide latency
/// histogram. The server calls this for every `EVAL`, traced or not.
pub fn observe_query_ns(ns: u64) {
    let i = LATENCY_BUCKET_NS
        .iter()
        .position(|&le| ns <= le)
        .unwrap_or(LATENCY_BUCKET_NS.len());
    LATENCY_COUNTS[i].fetch_add(1, Ordering::Relaxed);
    LATENCY_SUM_NS.fetch_add(ns, Ordering::Relaxed);
}

/// A point-in-time copy of the latency histogram. `buckets` holds
/// **cumulative** counts per upper bound (Prometheus `le` semantics);
/// the final entry is the `+Inf` bucket and equals `count`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// `(upper_bound_ns, cumulative_count)`, ending with `(u64::MAX, count)`.
    pub buckets: Vec<(u64, u64)>,
    /// Sum of observed latencies, nanoseconds.
    pub sum_ns: u64,
    /// Total observations.
    pub count: u64,
}

/// Snapshot the process-wide query latency histogram.
pub fn latency_snapshot() -> LatencySnapshot {
    let mut cumulative = 0;
    let mut buckets = Vec::with_capacity(LATENCY_COUNTS.len());
    for (i, c) in LATENCY_COUNTS.iter().enumerate() {
        cumulative += c.load(Ordering::Relaxed);
        let le = LATENCY_BUCKET_NS.get(i).copied().unwrap_or(u64::MAX);
        buckets.push((le, cumulative));
    }
    LatencySnapshot {
        buckets,
        sum_ns: LATENCY_SUM_NS.load(Ordering::Relaxed),
        count: cumulative,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with tracing on and the clock zeroed.
    fn tracing() -> Tracer {
        let t = Tracer::default();
        t.set_tracing(Some(true));
        t.set_clock(Some(|| 0));
        t
    }

    #[test]
    fn off_path_records_nothing() {
        let t = Tracer::default();
        t.set_tracing(Some(false));
        t.begin_query("q");
        let sid = t.open_op_with(|| panic!("label must not be built off-trace"));
        assert_eq!(sid, None);
        t.close_op(sid, 7);
        t.end_query();
        assert!(t.take_events().is_empty());
    }

    #[test]
    fn spans_nest_and_finalize() {
        let t = tracing();
        t.begin_query("fig9");
        let root = t.open_op_with(|| "HashJoin".to_string());
        t.annotate_cache(CacheOutcome::Build);
        let child = t.open_op_with(|| "Scan".to_string());
        t.close_op(child, 11);
        t.add_next(child.unwrap(), 3, 2);
        t.close_op(root, 23);
        t.end_query();
        let events = t.take_events();
        assert_eq!(events.len(), 1);
        let q = &events[0];
        assert_eq!(q.label, "fig9");
        assert_eq!(q.spans.len(), 2);
        assert_eq!(q.spans[0].parent, None);
        assert_eq!(q.spans[1].parent, Some(0));
        assert_eq!(q.spans[1].rows, 2);
        assert_eq!(q.spans[1].next_ns, 3);
        assert_eq!(q.spans[0].cache, Some(CacheOutcome::Build));
    }

    #[test]
    fn nested_queries_fold_into_outermost() {
        let t = tracing();
        t.begin_query("outer");
        t.begin_query("inner");
        let s = t.open_op_with(|| "Scan".to_string());
        t.close_op(s, 0);
        t.end_query();
        assert!(t.take_events().is_empty(), "inner end must not emit");
        t.end_query();
        let events = t.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].label, "outer");
        assert_eq!(events[0].spans.len(), 1);
    }

    #[test]
    fn declines_count_with_and_without_tracing() {
        let mut session = DeclineCounts::default();
        let t = tracing();
        session.note(DeclineReason::PlannerDuplicateBinder);
        t.note_decline(DeclineReason::PlannerDuplicateBinder); // no query open
        t.begin_query("q");
        let sid = t.open_op_with(|| "HashJoin".to_string());
        session.note(DeclineReason::StoreOverBudget);
        t.note_decline(DeclineReason::StoreOverBudget);
        t.close_op(sid, 0);
        session.note(DeclineReason::PlannerUnsafeConjunct);
        t.note_decline(DeclineReason::PlannerUnsafeConjunct);
        t.end_query();
        let events = t.take_events();
        let q = &events[0];
        assert_eq!(q.spans[0].declines, vec![DeclineReason::StoreOverBudget]);
        assert_eq!(q.declines, vec![DeclineReason::PlannerUnsafeConjunct]);
        let counts = session.snapshot();
        let get = |r: DeclineReason| counts.iter().find(|(c, _)| *c == r).unwrap().1;
        assert_eq!(get(DeclineReason::PlannerDuplicateBinder), 1);
        assert_eq!(get(DeclineReason::StoreOverBudget), 1);
        assert_eq!(get(DeclineReason::PlannerUnsafeConjunct), 1);
        assert_eq!(counts.len(), DeclineReason::COUNT);
        assert!(metrics::snapshot().decline(DeclineReason::PlannerDuplicateBinder) >= 1);
        let other = DeclineCounts::default();
        assert!(
            other.snapshot().iter().all(|(_, n)| *n == 0),
            "counts belong to the session that noted them"
        );
    }

    #[test]
    fn decline_codes_are_stable_and_distinct() {
        let mut codes: Vec<&str> = DeclineReason::ALL.iter().map(|r| r.code()).collect();
        assert_eq!(codes.len(), DeclineReason::COUNT);
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), DeclineReason::COUNT, "codes must be distinct");
    }

    #[test]
    fn latency_histogram_is_cumulative() {
        observe_query_ns(10_000); // ≤ 50µs
        observe_query_ns(3_000_000_000); // +Inf
        let snap = latency_snapshot();
        assert_eq!(snap.buckets.len(), LATENCY_BUCKET_NS.len() + 1);
        assert_eq!(snap.buckets.last().unwrap().0, u64::MAX);
        assert_eq!(snap.buckets.last().unwrap().1, snap.count);
        let mut prev = 0;
        for &(_, c) in &snap.buckets {
            assert!(c >= prev, "cumulative counts must be monotone");
            prev = c;
        }
        assert!(snap.count >= 2);
        assert!(snap.sum_ns >= 3_000_010_000);
    }

    #[test]
    fn clock_override_round_trips() {
        let t = Tracer::default();
        let prev = t.set_clock(Some(|| 42));
        assert_eq!(t.now_ns(), 42);
        t.set_clock(prev);
        let a = t.now_ns();
        let b = t.now_ns();
        assert!(b >= a, "default clock is monotone");
    }
}
