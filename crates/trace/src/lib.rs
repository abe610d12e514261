//! **Query tracing for the Machiavelli engine** — a zero-cost-when-off,
//! thread-local trace of what the physical pipeline actually did, plus
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
//!   query, drained via [`take_events`] (surfaced as
//!   `Session::trace_events` and rendered by `Session::analyze` / the
//!   REPL's `:analyze`).
//! - **Declines** ([`DeclineReason`]): every runtime fallback anywhere
//!   in the engine — planner fallback, store non-cacheability — reports
//!   a *typed code* through [`DeclineCounts::note`], not just a bare counter
//!   bump. Decline counts are
//!   kept **twice**: per-session ([`DeclineCounts`], owned by the
//!   `Session` and reset with its other stats — `Session::stats` /
//!   `reset_stats`) and process-wide (in the [`metrics`] registry,
//!   feeding `METRICS` across server workers).
//!   Decline accounting is *always on*; only span attachment is gated
//!   on tracing. Declines fire at most once per runtime fallback —
//!   static ineligibility (a shape that was never a candidate) stays
//!   uncounted.
//! - **Latency histogram**: fixed-bucket process-wide histogram of
//!   per-query wall time ([`observe_query_ns`] / [`latency_snapshot`]),
//!   rendered Prometheus-style by the server.
//!
//! **Zero cost when off.** Tracing resolves thread-local override →
//! `MACHIAVELLI_TRACE` env (read once) → off. Every span entry point
//! checks [`active`] first and returns immediately when tracing is off
//! or no query is open; span labels are built through closures so the
//! formatting cost is never paid off-trace. The clock is only read
//! while tracing.
//!
//! **Clock hook.** Wall time comes from a caller-replaceable monotonic
//! clock ([`set_clock`]); the default reads a process-epoch
//! `Instant`. Golden tests install `|| 0` so rendered times are
//! deterministic.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub mod metrics;

// --- enable / disable ------------------------------------------------------

thread_local! {
    static TRACING: Cell<Option<bool>> = const { Cell::new(None) };
    static CLOCK: Cell<Option<fn() -> u64>> = const { Cell::new(None) };
    static TRACER: RefCell<Tracer> = const { RefCell::new(Tracer::new()) };
}

/// Is tracing enabled on this thread (= session)? Thread-local override
/// → `MACHIAVELLI_TRACE` env (`1`/`true`, read once per process) → off.
pub fn tracing_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    TRACING.with(Cell::get).unwrap_or_else(|| {
        *ENV.get_or_init(|| {
            std::env::var("MACHIAVELLI_TRACE")
                .map(|s| {
                    let s = s.trim();
                    s == "1" || s.eq_ignore_ascii_case("true")
                })
                .unwrap_or(false)
        })
    })
}

/// Override tracing on this thread (`None` restores the env/default
/// resolution), returning the previous override.
pub fn set_tracing(on: Option<bool>) -> Option<bool> {
    TRACING.with(|c| c.replace(on))
}

// --- clock -----------------------------------------------------------------

/// Install a replacement monotonic clock (nanoseconds; `None` restores
/// the default process-epoch `Instant`), returning the previous hook.
/// Golden tests install `|| 0` to redact times.
pub fn set_clock(f: Option<fn() -> u64>) -> Option<fn() -> u64> {
    CLOCK.with(|c| c.replace(f))
}

/// Current trace clock reading in nanoseconds. Only called while
/// tracing is active — the off-path never reads a clock.
pub fn now_ns() -> u64 {
    if let Some(f) = CLOCK.with(Cell::get) {
        return f();
    }
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

struct Tracer {
    depth: u32,
    start_ns: u64,
    label: String,
    spans: Vec<OpSpan>,
    stack: Vec<u32>,
    declines: Vec<DeclineReason>,
    events: Vec<QueryTrace>,
}

impl Tracer {
    const fn new() -> Tracer {
        Tracer {
            depth: 0,
            start_ns: 0,
            label: String::new(),
            spans: Vec::new(),
            stack: Vec::new(),
            declines: Vec::new(),
            events: Vec::new(),
        }
    }
}

/// Is a traced query currently open on this thread? The span entry
/// points are no-ops unless this holds, so instrumentation sites can
/// call them unconditionally (after gating label construction).
pub fn active() -> bool {
    tracing_enabled() && TRACER.with(|t| t.borrow().depth > 0)
}

/// Open a traced query. Nested calls (a select inside a projected
/// expression) fold into the enclosing trace — only the outermost
/// `begin`/`end` pair produces a [`QueryTrace`]. No-op when tracing is
/// off.
pub fn begin_query(label: &str) {
    if !tracing_enabled() {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.depth += 1;
        if t.depth == 1 {
            t.start_ns = now_ns();
            t.label = label.to_string();
            t.spans.clear();
            t.stack.clear();
            t.declines.clear();
        }
    });
}

/// Close the current traced query; the outermost close finalizes the
/// [`QueryTrace`] into the event buffer. No-op when tracing is off or
/// no query is open.
pub fn end_query() {
    if !tracing_enabled() {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.depth == 0 {
            return;
        }
        t.depth -= 1;
        if t.depth == 0 {
            let elapsed_ns = now_ns().saturating_sub(t.start_ns);
            let label = std::mem::take(&mut t.label);
            let spans = std::mem::take(&mut t.spans);
            let declines = std::mem::take(&mut t.declines);
            t.stack.clear();
            // Bound the buffer: a thread that traces but never drains
            // (a long-lived server worker) keeps only the most recent
            // [`MAX_EVENTS`] queries.
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
    });
}

/// Per-thread cap on buffered [`QueryTrace`] events (oldest evicted).
pub const MAX_EVENTS: usize = 64;

/// Discard any in-flight traced query on this thread: depth, spans,
/// stack, and pending declines all reset; completed events are kept.
/// For panic recovery on reused worker threads — a query that unwound
/// mid-execution never reaches its [`end_query`], and without this the
/// leaked depth would fold the thread's *next* query into a phantom
/// outer one.
pub fn abort_query() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.depth = 0;
        t.label.clear();
        t.spans.clear();
        t.stack.clear();
        t.declines.clear();
    });
}

/// Drain this thread's completed query traces (oldest first).
pub fn take_events() -> Vec<QueryTrace> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().events))
}

/// Open an operator span nested under the current one. The label
/// closure only runs when a traced query is active, so off-trace call
/// sites pay one branch and no formatting. Returns `None` off-trace.
pub fn open_op_with(label: impl FnOnce() -> String) -> Option<u32> {
    if !active() {
        return None;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
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
    })
}

/// Close an operator span opened by [`open_op_with`], recording its
/// open-time wall cost. Tolerates an error-unwound stack (removes the
/// span wherever it sits).
pub fn close_op(sid: Option<u32>, open_ns: u64) {
    let Some(sid) = sid else { return };
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if let Some(pos) = t.stack.iter().rposition(|&s| s == sid) {
            t.stack.truncate(pos);
        }
        if let Some(span) = t.spans.get_mut(sid as usize) {
            span.open_ns = open_ns;
        }
    });
}

/// The innermost open span, if a traced query is active (declines that
/// fire during an operator open attach here).
pub fn current_span() -> Option<u32> {
    if !active() {
        return None;
    }
    TRACER.with(|t| t.borrow().stack.last().copied())
}

/// Accumulate one `next` call's wall time and yielded-row count into a
/// span.
pub fn add_next(sid: u32, ns: u64, rows: u64) {
    TRACER.with(|t| {
        if let Some(span) = t.borrow_mut().spans.get_mut(sid as usize) {
            span.next_ns += ns;
            span.rows += rows;
        }
    });
}

/// Record an operator's index-store outcome.
pub fn annotate_cache(sid: Option<u32>, outcome: CacheOutcome) {
    let Some(sid) = sid else { return };
    TRACER.with(|t| {
        if let Some(span) = t.borrow_mut().spans.get_mut(sid as usize) {
            span.cache = Some(outcome);
        }
    });
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
    /// Report a typed runtime fallback: counted here and process-wide
    /// (the [`metrics`] registry), regardless of tracing; additionally
    /// attached to the innermost open span (or the query) when a trace
    /// is active.
    pub fn note(&mut self, reason: DeclineReason) {
        self.0[reason.index()] += 1;
        metrics::add_decline(reason);
        if active() {
            TRACER.with(|t| {
                let mut t = t.borrow_mut();
                match t.stack.last().copied() {
                    Some(sid) => t.spans[sid as usize].declines.push(reason),
                    None => t.declines.push(reason),
                }
            });
        }
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

    /// Every trace test serializes on this lock *and* pins tracing
    /// explicitly: the thread-local tracer is per-test-thread, but the
    /// decline atomics are process-global.
    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        let prev = set_tracing(Some(true));
        let prev_clock = set_clock(Some(|| 0));
        let r = f();
        set_clock(prev_clock);
        set_tracing(prev);
        r
    }

    #[test]
    fn off_path_records_nothing() {
        let prev = set_tracing(Some(false));
        begin_query("q");
        let sid = open_op_with(|| panic!("label must not be built off-trace"));
        assert_eq!(sid, None);
        close_op(sid, 7);
        end_query();
        assert!(take_events().is_empty());
        set_tracing(prev);
    }

    #[test]
    fn spans_nest_and_finalize() {
        with_tracing(|| {
            take_events();
            begin_query("fig9");
            let root = open_op_with(|| "HashJoin".to_string());
            let child = open_op_with(|| "Scan".to_string());
            close_op(child, 11);
            add_next(child.unwrap(), 3, 2);
            annotate_cache(root, CacheOutcome::Build);
            close_op(root, 23);
            end_query();
            let events = take_events();
            assert_eq!(events.len(), 1);
            let t = &events[0];
            assert_eq!(t.label, "fig9");
            assert_eq!(t.spans.len(), 2);
            assert_eq!(t.spans[0].parent, None);
            assert_eq!(t.spans[1].parent, Some(0));
            assert_eq!(t.spans[1].rows, 2);
            assert_eq!(t.spans[1].next_ns, 3);
            assert_eq!(t.spans[0].cache, Some(CacheOutcome::Build));
        });
    }

    #[test]
    fn nested_queries_fold_into_outermost() {
        with_tracing(|| {
            take_events();
            begin_query("outer");
            begin_query("inner");
            let s = open_op_with(|| "Scan".to_string());
            close_op(s, 0);
            end_query();
            assert!(take_events().is_empty(), "inner end must not emit");
            end_query();
            let events = take_events();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].label, "outer");
            assert_eq!(events[0].spans.len(), 1);
        });
    }

    #[test]
    fn declines_count_with_and_without_tracing() {
        let mut session = DeclineCounts::default();
        session.note(DeclineReason::PlannerDuplicateBinder);
        with_tracing(|| {
            begin_query("q");
            let sid = open_op_with(|| "HashJoin".to_string());
            session.note(DeclineReason::StoreOverBudget);
            close_op(sid, 0);
            session.note(DeclineReason::PlannerUnsafeConjunct);
            end_query();
            let events = take_events();
            let t = &events[0];
            assert_eq!(t.spans[0].declines, vec![DeclineReason::StoreOverBudget]);
            assert_eq!(t.declines, vec![DeclineReason::PlannerUnsafeConjunct]);
        });
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
        let prev = set_clock(Some(|| 42));
        assert_eq!(now_ns(), 42);
        set_clock(prev);
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a, "default clock is monotone");
    }
}
