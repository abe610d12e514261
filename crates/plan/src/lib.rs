//! Comprehension query planner: compiles `select … where gens with pred`
//! into a physical operator pipeline.
//!
//! The paper's central database construct is the comprehension over
//! labeled-record sets. Its reference semantics (the evaluator's
//! `select_loop`) is a nested re-evaluation loop, so a two-generator
//! equi-join comprehension is O(n·m) even when the predicate is a plain
//! key equality. This crate is the classic comprehension-calculus route
//! out: analyse the comprehension *statically*, once, and run it as a
//! database-style operator pipeline.
//!
//! # The logical / physical split
//!
//! * [`logical`] — [`compile`](logical::compile) performs
//!   **generator-dependency analysis** (is each generator source
//!   independent of earlier binders, or must it be re-evaluated per
//!   binding?) and **predicate decomposition** (split the `with` clause
//!   into conjuncts, push single-generator filters down to their
//!   generator, detect `x.l = y.k`-style equi-join conjuncts). The
//!   result is a [`LogicalPlan`](logical::LogicalPlan): one
//!   [`Step`](logical::Step) per generator plus the residual conjuncts,
//!   all borrowing the AST (compiling allocates no expression clones).
//! * [`physical`] — [`PhysicalPlan`](physical::PhysicalPlan) is the
//!   executable operator tree (`Scan` / `IndexScan` / `Filter` /
//!   `HashJoin` / `NestedLoop` / `Project`), and
//!   [`execute`](physical::execute) is a
//!   **pull-based** executor over [`machiavelli_value::Value`] /
//!   [`machiavelli_value::MSet`]: operators yield extended environments
//!   one at a time, hash-join build/probe keys reuse the structural
//!   hashing of `machiavelli_value::hash` (no rendering, no per-row key
//!   allocation beyond the key values themselves), and every residual
//!   predicate, source and result expression is evaluated through an
//!   [`EvalHook`](physical::EvalHook) callback into the real evaluator
//!   — the planner never re-implements expression semantics. Operators
//!   that group a relation by key (`HashJoin` build tables, `IndexScan`
//!   groupings) are memoized through the session's **index store**
//!   (`machiavelli-store`) when their key/filter expressions are closed
//!   under the row binder — repeated plans build once and probe
//!   thereafter, and the store's pointer-identity + mutation-epoch
//!   keying guarantees a mutated or rebuilt relation can never serve a
//!   stale index.
//! * [`explain`] — renders the operator tree for `Session::plan_of` and
//!   the REPL's `:plan` command (golden-plan tests pin the output).
//! * [`exec`] — the morsel-driven work-stealing scheduler the plain-key
//!   join's probe fan-out runs on.
//!
//! # The fallback contract
//!
//! The evaluator keeps `select_loop` and uses it whenever
//! [`compile`](logical::compile) declines ([`Unplannable`]), so planning
//! is *transparent*: every comprehension either runs through a plan that
//! is observationally equivalent to the nested loop, or through the
//! nested loop itself. The planner only commits when reordering is
//! unobservable:
//!
//! * every `with` conjunct must be **planner-safe** (see
//!   [`analysis::is_safe_expr`]): a pure, total expression — variables,
//!   literals, field projection, record/set construction, comparisons,
//!   overflow-free arithmetic (`div`/`mod` can raise and are excluded),
//!   `andalso`/`orelse`/`not`, `if`, `union`, `con`. Safe conjuncts
//!   cannot raise or allocate identities, so evaluating them earlier,
//!   later, or not at all (for rows a hash join prunes) is unobservable;
//! * every generator source that *depends on earlier binders* must be
//!   planner-safe too (it is re-evaluated per binding either way, but a
//!   join above it may prune whole outer rows);
//! * independent sources and the result expression are unrestricted:
//!   the pipeline evaluates independent sources exactly once, in
//!   generator order (as `select_loop` does), and evaluates the result
//!   for exactly the bindings that satisfy the predicate, in the same
//!   nested-iteration order — so effects, fresh `ref` identities and
//!   raised errors in them are preserved, including which error
//!   surfaces first;
//! * a comprehension over any empty independent source yields `{}`
//!   without evaluating the predicate (both paths pre-evaluate
//!   independent sources in generator order and never reach the
//!   predicate), and duplicate elimination happens once, at the end,
//!   exactly as in `select_loop`.
//!
//! Shapes the analysis declines — unsafe conjuncts, unsafe dependent
//! sources, duplicate binders — fall back with **zero** behavior change.
//! (As everywhere in the evaluator, the contract assumes the program was
//! type-checked; the `Session` front door always does.)
//!
//! # The parallel execution contract
//!
//! The paper singles out *proper* `hom` applications — associative,
//! commutative `op`; effect-free `f` — as "computable in parallel".
//! Independence allows parallel evaluation, but only a measurement
//! says it pays: on this engine that is the hash-join probe alone, and
//! `hom` folds sequentially (`docs/PERFORMANCE.md` has the numbers).
//! Machiavelli values are `Rc`-based and thread-confined, so the
//! parallel lane runs on **extracted plain data**
//! ([`machiavelli_value::plain`]) and only where the static analysis
//! proves the extraction step itself is unobservable. What
//! parallelizes, and what falls back:
//!
//! * **Hash joins have one parallel shape: the plain-key join**
//!   (`physical::open_plain_join`). Eligibility is decided **once, at
//!   plan time**, and recorded on the operator (`PhysOp::HashJoin {
//!   par }`, rendered `[par]`): the probe keys must be
//!   [`parallel::par_evaluable`] under the earlier binders
//!   (binder-closed planner-safe expressions minus `con`); an
//!   *uncached* join additionally needs its build keys and pushed
//!   filters `par_evaluable` under the build binder (`build_ok`). At
//!   open time an eligible join obtains a **plain key→row-index table**
//!   ([`machiavelli_value::PlainIndex`], `Send + Sync`) — the index
//!   store's entry when the build is fingerprinted and cached in plain
//!   form (no build work at all), otherwise built inline by
//!   [`parallel::safe_eval`] (a direct-dispatch safe-class evaluator,
//!   no interpreter overhead) — extracts the probe keys sequentially,
//!   and fans only the extracted tuples out over
//!   [`exec::run_tasks`] workers
//!   ([`parallel::par_probe`]), which return match *indices*; the
//!   original `Rc` rows are re-bound by index on the session thread,
//!   so the yielded binding sequence — probe-major, build groups in
//!   canonical source order — is identical to the sequential probe,
//!   and the result expression still evaluates sequentially for
//!   exactly the same bindings in the same order.
//!   **Parallelism is a degree, not a lane**: the fan-out runs at
//!   `min(par_threads, probe morsels)` and inline at degree 1.
//!   **One size gate**, two morsels
//!   ([`machiavelli_value::tuning::par_join_min_rows`]): an inline
//!   build compares its build rows against it, a cached probe its probe
//!   rows; below it — or with the lane disabled, or at one worker
//!   thread — the join is the streaming sequential `Rc` hash join, with
//!   no drain and no spawn. A probe side that is not a bare filterless
//!   `Scan` is drained first, memory-capped at
//!   [`machiavelli_value::tuning::PAR_JOIN_MAX_PROBE_FACTOR`] × the
//!   build rows; past the cap the join reverts to the streaming
//!   sequential probe over the drained prefix plus the live remainder
//!   (`par-join-drain-cap`). A key value that does not extract via
//!   [`machiavelli_value::to_plain`] (identity-bearing keys — refs,
//!   dynamics — cannot cross the lane) falls back the same way
//!   (`par-join-extract`). Relations with no plain form stay on the
//!   store's `Rc`-lane entry, probed sequentially.
//! * **Index-aware build-side selection**: a two-generator equi-join
//!   over a bare first `Scan` may *swap* its build side at open time —
//!   preferring the side that already holds a live cached index, or the
//!   smaller relation when neither side is cached (`PhysOp::HashJoin {
//!   swap }`, decided from store metadata via a stats-neutral `peek`,
//!   rendered `HashJoin[idx cached, swapped]`). The flip is admitted
//!   only where it is unobservable: both sources independent and
//!   evaluated in generator order regardless of orientation, the
//!   swapped build's keys/filters closed under the first binder (so it
//!   is cacheable under its own fingerprint), and the comprehension's
//!   **result expression planner-safe** — a swap enumerates the same
//!   binding multiset probe-major over the other side, which only an
//!   effectful result could distinguish.
//! * **Everything else falls back sequentially with zero behavior
//!   change**: any key value that fails `to_plain` (references,
//!   dynamics, closures — identity- or code-bearing data), any key
//!   expression [`parallel::safe_eval`] declines, sub-threshold inputs,
//!   a disabled or single-threaded lane. The fallback is exact because
//!   everything the parallel attempt may have evaluated early
//!   (probe-side pipeline rows, pushed filters, keys) is planner-safe —
//!   pure, total, terminating — so re-running it sequentially
//!   reproduces the same bindings and the same first error. Hits and
//!   fallbacks are counted per session ([`machiavelli_value::tuning::par_stats`], REPL
//!   `:stats`) and as typed decline codes.

pub mod analysis;
pub mod exec;
pub mod explain;
pub mod logical;
pub mod parallel;
pub mod physical;

pub use analysis::{closed_under, find_select, is_safe_expr, mentions_any, split_conjuncts};
pub use explain::explain;
pub use logical::{compile, LogicalPlan, Step, Unplannable};
pub use physical::{
    execute, EvalHook, ExecError, IndexKey, ParInfo, PhysOp, PhysicalPlan, SwapInfo,
};

use machiavelli_syntax::ast::{Expr, Generator};

/// One-stop compilation: logical plan → physical pipeline. An error
/// means the shape is not covered and the caller must use its fallback
/// path (the reason renders lazily; the hot path never formats it).
pub fn plan_select<'a>(
    generators: &'a [Generator],
    pred: &'a Expr,
    result: &'a Expr,
) -> Result<PhysicalPlan<'a>, Unplannable<'a>> {
    compile(generators, pred, result).map(|l| l.physical())
}
