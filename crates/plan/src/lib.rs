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
//! * [`logical`] — [`compile`] performs **generator-dependency
//!   analysis** (is each generator source independent of earlier
//!   binders, or must it be re-evaluated per binding?) and **predicate
//!   decomposition** (split the `with` clause into conjuncts, push
//!   single-generator filters down to their generator, detect
//!   `x.l = y.k`-style equi-join conjuncts). The result is a
//!   [`LogicalPlan`]: one [`Step`] per generator plus the residual
//!   conjuncts, all borrowing the AST (compiling allocates no
//!   expression clones).
//! * [`physical`] — [`PhysicalPlan`] is the executable operator tree
//!   (`Scan` / `IndexScan` / `Filter` / `HashJoin` / `NestedLoop` /
//!   `Project`), and [`execute`] is a **pull-based** executor over [`machiavelli_value::Value`] /
//!   [`machiavelli_value::MSet`]: operators yield extended environments
//!   one at a time, hash-join build/probe keys reuse the structural
//!   hashing of `machiavelli_value::hash` (no rendering, no per-row key
//!   allocation beyond the key values themselves), and every residual
//!   predicate, source and result expression is evaluated through an
//!   [`EvalHook`] callback into the real evaluator
//!   — the planner never re-implements expression semantics. Operators
//!   that group a relation by key (`HashJoin` build tables, `IndexScan`
//!   groupings) are memoized through the session's **index store**
//!   (`machiavelli-store`) when their key/filter expressions are closed
//!   under the row binder — repeated plans build once and probe
//!   thereafter, and the store's pointer-identity keying plus its
//!   dirty-ref invalidation guarantee a mutated or rebuilt relation can
//!   never serve a stale index.
//! * [`explain`](mod@explain) — renders the operator tree for
//!   `Session::plan_of` and the REPL's `:plan` command (golden-plan
//!   tests pin the output).
//!
//! # The fallback contract
//!
//! The evaluator keeps `select_loop` and uses it whenever [`compile`]
//! declines ([`Unplannable`]), so planning is *transparent*: every comprehension either runs through a plan that
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
//!   nested-iteration order — every plan, hash joins included,
//!   enumerates bindings generator-nested — so effects, fresh `ref`
//!   identities and raised errors in them are preserved, including
//!   which error surfaces first;
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
//! # The hash join
//!
//! Every planned equi-join is one streaming build/probe operator
//! (`PhysOp::HashJoin`) that builds on the generator the query names
//! and probes with the ones before it. Its build table comes from the
//! index store when the build is fingerprinted (an `Rc<Index>` entry,
//! probed with `Index::get(&KeyTuple(key))`), otherwise it is built
//! inline through the hook. It probes on the session thread, streaming
//! (`docs/PERFORMANCE.md` records the retired alternatives and their
//! numbers).

pub mod analysis;
pub mod explain;
pub mod logical;
pub mod physical;

pub use analysis::{closed_under, find_select, is_safe_expr, mentions_any, split_conjuncts};
pub use explain::explain;
pub use logical::{compile, LogicalPlan, Step, Unplannable};
pub use physical::{execute, EvalHook, ExecError, IndexKey, PhysOp, PhysicalPlan};

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
