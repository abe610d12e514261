//! The physical operator pipeline: an executable tree of `Scan` /
//! `IndexScan` / `Filter` / `HashJoin` / `NestedLoop` operators under a
//! `Project`, plus a pull-based executor over [`Value`]/[`MSet`].
//!
//! Operators yield **environments**: each pulled row is the outer
//! evaluation environment extended with one binding per generator
//! (environments are persistent linked lists, so extension is O(1) and
//! shares all tails). Expression evaluation — sources, filters, keys,
//! the result — goes through the [`EvalHook`] callback into the real
//! evaluator, so the pipeline adds strategy, never new semantics.
//!
//! Hash-join and index-scan keys reuse the structural hashing of
//! [`machiavelli_value::hash_value`] with [`value_eq`] equality (the
//! store's [`KeyTuple`]) — collision-correct for all description
//! values, no rendering, no reliance on display injectivity
//! (`tests/properties.rs` joins two keys that print identically).
//!
//! # The index store
//!
//! Operators that group a relation by key — `HashJoin`'s build table,
//! `IndexScan`'s key index — request the grouping from the session's
//! [`machiavelli_store::IndexStore`] before constructing it inline, so
//! repeated plans over the same relation (the fig5 `cost` recursion,
//! re-run REPL queries) build once and probe thereafter. An index is
//! only *cacheable* when its key and pushed-filter expressions are
//! closed under the row binder ([`crate::analysis::closed_under`]) —
//! then its contents are a pure function of the relation's storage
//! identity and the expressions' text (the **fingerprint**), never of
//! the enclosing environment. Groupings hold **row indices** into the
//! relation's canonical slice. Cache consultation is
//! invisible in the results: a hit returns exactly the grouping an
//! inline build would have produced (same rows, same canonical order
//! per group), and the expressions skipped on a hit are planner-safe —
//! pure and total — so not re-evaluating them is unobservable. See
//! `machiavelli-store` for the invalidation contract (pointer-identity
//! keying + dirty-ref tracking).

use crate::analysis::{closed_under, mentions_any, stable_source, Conjunct};
use crate::logical::LogicalPlan;
use machiavelli_store::{EngineCtx, Index, KeyTuple};
use machiavelli_syntax::ast::{BinOp, Expr, ExprKind};
use machiavelli_syntax::pretty::expr_to_string;
use machiavelli_syntax::symbol::Symbol;
use machiavelli_trace::CacheOutcome;
use machiavelli_value::{show_value, value_eq, Env, MSet, Value};
use std::rc::Rc;

/// Callback into the host evaluator. The executor never interprets
/// expressions itself; it only decides *which* expressions to evaluate
/// *in which* environments — and reaches the evaluating session's index
/// store through [`EvalHook::engine`].
pub trait EvalHook {
    type Error;
    fn eval(&mut self, env: &Env, expr: &Expr) -> Result<Value, Self::Error>;
    /// The engine context of the session this evaluation belongs to.
    fn engine(&self) -> &EngineCtx;
}

/// Executor errors: either the hook failed, or a value had the wrong
/// shape at an operator boundary (mirroring the evaluator's own errors
/// so the dispatch layer can convert losslessly).
#[derive(Debug)]
pub enum ExecError<E> {
    /// The evaluator callback failed (raised, unbound, …).
    Eval(E),
    /// A generator source evaluated to a non-set (rendered value).
    NotASet(String),
    /// A strict conjunct (left operand of `andalso`) evaluated to a
    /// non-boolean (rendered value).
    NotABool(String),
}

impl<E> From<E> for ExecError<E> {
    fn from(e: E) -> Self {
        ExecError::Eval(e)
    }
}

/// One key of an [`PhysOp::IndexScan`]: an equality conjunct
/// `on = probe` split into the indexed side (mentions only the scan's
/// binder) and the probe side (an environment-level expression that
/// mentions the binder not at all).
#[derive(Debug)]
pub struct IndexKey<'a> {
    pub on: &'a Expr,
    pub probe: &'a Expr,
}

/// A physical operator. The tree is left-deep in generator order:
/// generator 0 is the innermost `Scan`/`IndexScan`, each later
/// generator wraps the pipeline in a join operator, and residual
/// conjuncts sit in `Filter` nodes at the level where they become
/// decidable.
#[derive(Debug)]
pub enum PhysOp<'a> {
    /// Materialize an independent source once and stream its elements,
    /// binding `var` (pushed-down conjuncts applied per element).
    Scan {
        var: Symbol,
        source: &'a Expr,
        filters: Vec<Conjunct<'a>>,
    },
    /// Equality-probe scan: group the source by the `on` key
    /// expressions (through the index store), evaluate the `probe`
    /// sides once in the outer environment, and stream only the
    /// matching group. Formed only when the keys are cacheable, so it
    /// always carries a fingerprint.
    IndexScan {
        var: Symbol,
        source: &'a Expr,
        keys: Vec<IndexKey<'a>>,
        filters: Vec<Conjunct<'a>>,
        fingerprint: String,
    },
    /// Cross/“θ” join: for each input row, iterate the source — evaluated
    /// once when independent, per input row when `dependent`.
    NestedLoop {
        input: Box<PhysOp<'a>>,
        var: Symbol,
        source: &'a Expr,
        dependent: bool,
        filters: Vec<Conjunct<'a>>,
    },
    /// Hash build/probe equi-join: build a table over the (independent)
    /// source keyed by `build_keys(var)`, then probe with
    /// `probe_keys(earlier binders)` per input row. `fingerprint` is
    /// `Some` when the build table is cacheable in the index store
    /// (build keys and pushed filters closed under `var`).
    HashJoin {
        input: Box<PhysOp<'a>>,
        var: Symbol,
        source: &'a Expr,
        filters: Vec<Conjunct<'a>>,
        probe_keys: Vec<&'a Expr>,
        build_keys: Vec<&'a Expr>,
        fingerprint: Option<String>,
    },
    /// Residual predicate evaluation over input rows.
    Filter {
        input: Box<PhysOp<'a>>,
        conjuncts: Vec<Conjunct<'a>>,
    },
}

/// The full pipeline: operator tree plus the projected result.
#[derive(Debug)]
pub struct PhysicalPlan<'a> {
    pub root: PhysOp<'a>,
    pub result: &'a Expr,
}

/// The static trace-span label of one operator: the `explain` line
/// minus the display-level markers — a span records the cache outcome
/// that *actually happened* as a separate field, so the label carries
/// only what is fixed at plan time. Only built while a trace is
/// active (the span API takes it as a closure).
fn op_label(op: &PhysOp<'_>) -> String {
    use crate::explain::{filters_suffix, keys_list};
    match op {
        PhysOp::Scan {
            var,
            source,
            filters,
        } => format!(
            "Scan {var} <- {}{}",
            expr_to_string(source),
            filters_suffix(filters)
        ),
        PhysOp::IndexScan {
            var,
            source,
            keys,
            filters,
            ..
        } => {
            let rendered: Vec<String> = keys
                .iter()
                .map(|IndexKey { on, probe }| {
                    format!("{} = {}", expr_to_string(on), expr_to_string(probe))
                })
                .collect();
            format!(
                "IndexScan {var} <- {} key({}){}",
                expr_to_string(source),
                rendered.join(", "),
                filters_suffix(filters)
            )
        }
        PhysOp::NestedLoop {
            var,
            source,
            dependent,
            filters,
            ..
        } => {
            let dep = if *dependent { " (dependent)" } else { "" };
            format!(
                "NestedLoop {var} <- {}{dep}{}",
                expr_to_string(source),
                filters_suffix(filters)
            )
        }
        PhysOp::HashJoin {
            probe_keys,
            build_keys,
            ..
        } => format!(
            "HashJoin probe({}) build({})",
            keys_list(probe_keys),
            keys_list(build_keys)
        ),
        PhysOp::Filter { conjuncts, .. } => {
            let rendered: Vec<String> = conjuncts.iter().map(|c| expr_to_string(c.expr)).collect();
            format!("Filter ({})", rendered.join(" andalso "))
        }
    }
}

/// Recognize an [`IndexKey`]-shaped conjunct of a single-binder scan:
/// `on = probe` with `on` mentioning only `var` and `probe` not
/// mentioning it (either orientation). Equality is total on all values,
/// so replacing the conjunct by an index probe can neither raise nor
/// change which rows pass.
fn index_key(e: &Expr, var: Symbol) -> Option<IndexKey<'_>> {
    let ExprKind::Binop {
        op: BinOp::Eq,
        left,
        right,
    } = &e.kind
    else {
        return None;
    };
    let binder = [var];
    let is_on = |e: &Expr| mentions_any(e, &binder) && closed_under(e, &binder);
    let is_probe = |e: &Expr| !mentions_any(e, &binder);
    if is_on(left) && is_probe(right) {
        Some(IndexKey {
            on: left,
            probe: right,
        })
    } else if is_on(right) && is_probe(left) {
        Some(IndexKey {
            on: right,
            probe: left,
        })
    } else {
        None
    }
}

/// Render a binder-closed key/filter expression with the binder printed
/// as `_`, so alpha-equivalent queries (`y <- t with … y.K …` vs
/// `z <- t with … z.K …`) produce the *same* fingerprint and share one
/// cached index instead of building the identical grouping twice.
/// Covers exactly the planner-safe class (the only expressions that
/// reach fingerprints); fully parenthesized and with string literals
/// escaped, so the rendering is injective on that class.
fn push_key_expr(e: &Expr, binder: Symbol, out: &mut String) {
    use std::fmt::Write as _;
    use ExprKind::*;
    match &e.kind {
        Var(x) if x.id() == binder.id() => out.push('_'),
        // Closed-under-binder expressions have no other variables; kept
        // for totality (`explain` never calls this on open exprs).
        Var(x) => out.push_str(x.as_str()),
        Unit => out.push_str("()"),
        Int(n) => {
            let _ = write!(out, "{n}");
        }
        // Bit pattern, to agree with `total_cmp`/hash equality on reals.
        Real(r) => {
            let _ = write!(out, "real:{}", r.to_bits());
        }
        Str(s) => {
            let _ = write!(out, "{s:?}");
        }
        Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Field { expr, label } => {
            push_key_expr(expr, binder, out);
            out.push('.');
            out.push_str(label.as_str());
        }
        If {
            cond,
            then_branch,
            else_branch,
        } => {
            out.push_str("(if ");
            push_key_expr(cond, binder, out);
            out.push_str(" then ");
            push_key_expr(then_branch, binder, out);
            out.push_str(" else ");
            push_key_expr(else_branch, binder, out);
            out.push(')');
        }
        Record(fields) => {
            out.push('[');
            for (i, (l, fe)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(l.as_str());
                out.push('=');
                push_key_expr(fe, binder, out);
            }
            out.push(']');
        }
        Set(items) => {
            out.push('{');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_key_expr(item, binder, out);
            }
            out.push('}');
        }
        Union { left, right } | Con { left, right } => {
            out.push_str(if matches!(&e.kind, Union { .. }) {
                "union("
            } else {
                "con("
            });
            push_key_expr(left, binder, out);
            out.push_str(", ");
            push_key_expr(right, binder, out);
            out.push(')');
        }
        Binop { op, left, right } => {
            out.push('(');
            push_key_expr(left, binder, out);
            let _ = write!(out, " {} ", op.symbol());
            push_key_expr(right, binder, out);
            out.push(')');
        }
        Unop { op, expr } => {
            out.push('(');
            out.push_str(match op {
                machiavelli_syntax::ast::UnOp::Neg => "-",
                machiavelli_syntax::ast::UnOp::Not => "not ",
            });
            push_key_expr(expr, binder, out);
            out.push(')');
        }
        // Not planner-safe, so never fingerprinted; render via the
        // pretty-printer for totality.
        _ => out.push_str(&expr_to_string(e)),
    }
}

/// The store fingerprint of an index-scan grouping: the rendered
/// source and (alpha-normalized) key expressions. The executor's cache
/// key already includes the relation's storage identity; the source
/// text is in the fingerprint so the *display* probe (`explain`'s
/// `[idx cached]` marker, which cannot evaluate the source) rarely
/// aliases two different relations.
fn scan_fingerprint(source: &Expr, var: Symbol, keys: &[IndexKey<'_>]) -> String {
    let mut out = format!("scan {} key(", expr_to_string(source));
    for (i, k) in keys.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_key_expr(k.on, var, &mut out);
    }
    out.push(')');
    out
}

/// The store fingerprint of a hash-join build table: rendered source
/// plus (alpha-normalized) build keys plus the pushed filters baked
/// into the table.
fn join_fingerprint(
    source: &Expr,
    var: Symbol,
    build_keys: &[&Expr],
    filters: &[Conjunct<'_>],
) -> String {
    let mut out = format!("join {} build(", expr_to_string(source));
    for (i, k) in build_keys.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_key_expr(k, var, &mut out);
    }
    out.push_str(") filter(");
    for (i, c) in filters.iter().enumerate() {
        if i > 0 {
            out.push_str(" andalso ");
        }
        push_key_expr(c.expr, var, &mut out);
    }
    out.push(')');
    out
}

impl<'a> LogicalPlan<'a> {
    /// Lower to the physical operator tree for a session whose index
    /// store is consulted (`store`) or not.
    pub fn physical(self, store: bool) -> PhysicalPlan<'a> {
        let mut steps = self.steps.into_iter();
        let first = steps.next().expect("compile() guarantees ≥1 generator");
        debug_assert!(first.keys.is_empty(), "first generator cannot equi-join");
        // Split the first generator's pushed filters into equality keys
        // an index can answer and ordinary per-row filters. Plain
        // filter shapes (no equality against the environment) stay a
        // `Scan` and never touch the index store — and so do sources
        // that construct fresh storage per evaluation (view calls,
        // literals): their index could never be looked up again, so
        // caching one would only pin dead clones. With the store
        // disabled (ablation mode) everything stays a `Scan`: plans are
        // recompiled per evaluation, so the toggle is always current,
        // and a grouping nothing will reuse is strictly worse than the
        // filtered scan.
        let mut keys: Vec<IndexKey<'a>> = Vec::new();
        let mut filters: Vec<Conjunct<'a>> = Vec::new();
        if store && stable_source(first.source) {
            for c in first.filters {
                match index_key(c.expr, first.var) {
                    Some(k) => keys.push(k),
                    None => filters.push(c),
                }
            }
        } else {
            filters = first.filters;
        }
        let mut root = if keys.is_empty() {
            PhysOp::Scan {
                var: first.var,
                source: first.source,
                filters,
            }
        } else {
            let fingerprint = scan_fingerprint(first.source, first.var, &keys);
            PhysOp::IndexScan {
                var: first.var,
                source: first.source,
                keys,
                filters,
                fingerprint,
            }
        };
        if !first.residual.is_empty() {
            root = PhysOp::Filter {
                input: Box::new(root),
                conjuncts: first.residual,
            };
        }
        for step in steps {
            root = if !step.keys.is_empty() {
                let build_keys: Vec<&'a Expr> = step.keys.iter().map(|k| k.build).collect();
                let probe_keys: Vec<&'a Expr> = step.keys.iter().map(|k| k.probe).collect();
                // Cacheable iff the table's contents depend on nothing
                // but the relation and the step's own binder, and the
                // source can actually share storage across evaluations
                // (a fresh-storage source can never hit). The
                // `store` guard also skips rendering the fingerprint
                // entirely when nothing will consult it.
                let binder = [step.var];
                let fingerprint = (store
                    && stable_source(step.source)
                    && build_keys.iter().all(|k| closed_under(k, &binder))
                    && step.filters.iter().all(|c| closed_under(c.expr, &binder)))
                .then(|| join_fingerprint(step.source, step.var, &build_keys, &step.filters));
                PhysOp::HashJoin {
                    input: Box::new(root),
                    var: step.var,
                    source: step.source,
                    filters: step.filters,
                    probe_keys,
                    build_keys,
                    fingerprint,
                }
            } else {
                PhysOp::NestedLoop {
                    input: Box::new(root),
                    var: step.var,
                    source: step.source,
                    dependent: step.dependent,
                    filters: step.filters,
                }
            };
            if !step.residual.is_empty() {
                root = PhysOp::Filter {
                    input: Box::new(root),
                    conjuncts: step.residual,
                };
            }
        }
        PhysicalPlan {
            root,
            result: self.result,
        }
    }
}

/// Run the pipeline in `env`, returning the canonical result set.
/// Independent sources are evaluated exactly once, in generator order;
/// the result expression runs per surviving binding, in the same order
/// the nested-loop semantics would reach it; deduplication happens once
/// at the end.
pub fn execute<H: EvalHook>(
    plan: &PhysicalPlan<'_>,
    env: &Env,
    hook: &mut H,
) -> Result<Value, ExecError<H::Error>> {
    let mut root = Node::open(&plan.root, env, hook)?;
    let mut out = Vec::new();
    while let Some(binding) = root.next(hook)? {
        out.push(hook.eval(&binding, plan.result)?);
    }
    let set = MSet::from_iter(out);
    hook.engine().charge_rows(set.len());
    Ok(Value::Set(set))
}

/// Check one conjunct against a candidate binding. `Ok(true)` accepts,
/// `Ok(false)` rejects; a strict conjunct evaluating to a non-boolean
/// reproduces the evaluator's `andalso` error.
fn check<H: EvalHook>(
    c: &Conjunct<'_>,
    env: &Env,
    hook: &mut H,
) -> Result<bool, ExecError<H::Error>> {
    match hook.eval(env, c.expr)? {
        Value::Bool(b) => Ok(b),
        other if c.strict => Err(ExecError::NotABool(show_value(&other))),
        _ => Ok(false),
    }
}

fn check_all<H: EvalHook>(
    cs: &[Conjunct<'_>],
    env: &Env,
    hook: &mut H,
) -> Result<bool, ExecError<H::Error>> {
    for c in cs {
        if !check(c, env, hook)? {
            return Ok(false);
        }
    }
    Ok(true)
}

fn as_set<E>(v: Value) -> Result<MSet, ExecError<E>> {
    match v {
        Value::Set(s) => Ok(s),
        other => Err(ExecError::NotASet(show_value(&other))),
    }
}

/// Build a hash-join build table: pushed filters prune rows, then each
/// row is keyed in the *outer* environment extended with only its own
/// binding (keys mention only this binder). Groups hold **row indices**
/// into the relation's canonical slice, accumulated in source order
/// (each group's list ascends) — the executor re-binds matches by
/// index, so the grouping never clones a row.
fn build_join_index<H: EvalHook>(
    items: &MSet,
    var: Symbol,
    filters: &[Conjunct<'_>],
    build_keys: &[&Expr],
    env: &Env,
    hook: &mut H,
) -> Result<Index, ExecError<H::Error>> {
    #[allow(clippy::mutable_key_type)] // refs hash by identity
    let mut table = Index::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let row_env = env.bind(var, item.clone());
        if !check_all(filters, &row_env, hook)? {
            continue;
        }
        let key = KeyTuple(
            build_keys
                .iter()
                .map(|k| hook.eval(&row_env, k))
                .collect::<Result<_, _>>()?,
        );
        table.entry(key).or_default().push(i as u32);
    }
    Ok(table)
}

/// Build an index-scan grouping: the *whole* relation grouped by the
/// `on` key expressions (filters are applied at probe time, so the
/// index is reusable across queries with different residual filters).
fn build_scan_index<H: EvalHook>(
    items: &MSet,
    var: Symbol,
    keys: &[IndexKey<'_>],
    env: &Env,
    hook: &mut H,
) -> Result<Index, ExecError<H::Error>> {
    #[allow(clippy::mutable_key_type)] // refs hash by identity
    let mut table = Index::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let row_env = env.bind(var, item.clone());
        let key = KeyTuple(
            keys.iter()
                .map(|k| hook.eval(&row_env, k.on))
                .collect::<Result<_, _>>()?,
        );
        table.entry(key).or_default().push(i as u32);
    }
    Ok(table)
}

/// Fetch-or-build an index through the store. The hook is never called
/// while the store is borrowed (a nested query evaluated by the hook
/// may consult the store itself), and a build error caches nothing.
#[allow(clippy::mutable_key_type)] // refs hash by identity
fn obtain_index<H: EvalHook>(
    items: &MSet,
    fingerprint: &str,
    build: impl FnOnce(&mut H) -> Result<Index, ExecError<H::Error>>,
    hook: &mut H,
) -> Result<Rc<Index>, ExecError<H::Error>> {
    if !hook.engine().mode().store {
        hook.engine().tracer().annotate_cache(CacheOutcome::Bypass);
        return Ok(Rc::new(build(hook)?));
    }
    if let Some(idx) = hook.engine().with_store(|s| s.lookup(items, fingerprint)) {
        hook.engine().tracer().annotate_cache(CacheOutcome::Hit);
        return Ok(idx);
    }
    let built = build(hook)?;
    hook.engine().tracer().annotate_cache(CacheOutcome::Build);
    Ok(hook.engine().insert(items, fingerprint, built))
}

/// Runtime state of one operator (same shape as [`PhysOp`]).
enum Node<'p> {
    Scan {
        var: Symbol,
        filters: &'p [Conjunct<'p>],
        base: Env,
        items: MSet,
        idx: usize,
    },
    /// An opened index scan: the matching group was fetched up front;
    /// iteration applies the residual pushed filters per row.
    IndexScan {
        var: Symbol,
        filters: &'p [Conjunct<'p>],
        base: Env,
        matches: Vec<Value>,
        idx: usize,
    },
    NestedLoop {
        input: Box<Node<'p>>,
        var: Symbol,
        source: &'p Expr,
        filters: &'p [Conjunct<'p>],
        /// `Some` when the source is independent (evaluated at open).
        fixed: Option<MSet>,
        /// The in-flight outer binding and its source cursor.
        cur: Option<(Env, MSet, usize)>,
    },
    HashJoin {
        input: Box<Node<'p>>,
        var: Symbol,
        probe_keys: &'p [&'p Expr],
        /// The build relation: match indices resolve into its canonical
        /// slice (the entry's pinned clone shares this storage on a
        /// cache hit, so indices are valid by construction).
        items: MSet,
        /// Build-row indices grouped by key, in source (canonical set)
        /// order — shared with the index store on a cache hit.
        table: Rc<Index>,
        /// The in-flight probe binding and its match cursor.
        cur: Option<(Env, Vec<u32>, usize)>,
    },
    Filter {
        input: Box<Node<'p>>,
        conjuncts: &'p [Conjunct<'p>],
    },
    /// A span-wrapped operator, present only while a query trace is
    /// active: `next` adds the inclusive elapsed time and yielded-row
    /// count of the inner node to span `sid`.
    Traced { sid: u32, inner: Box<Node<'p>> },
}

impl<'p> Node<'p> {
    /// Open the pipeline: recurse input-first so independent sources are
    /// evaluated in generator order (matching `select_loop`'s up-front
    /// source pass, including which source errors first).
    ///
    /// With a query trace active, every operator opens under its own
    /// span (children nest through this recursion) and comes back
    /// wrapped in [`Node::Traced`]; with tracing off this is one
    /// predicted-false branch per operator and no wrapper.
    fn open<H: EvalHook>(
        op: &'p PhysOp<'p>,
        env: &Env,
        hook: &mut H,
    ) -> Result<Node<'p>, ExecError<H::Error>> {
        if !hook.engine().tracer().active() {
            return Node::open_inner(op, env, hook);
        }
        let sid = hook.engine().tracer().open_op_with(|| op_label(op));
        let t0 = hook.engine().tracer().now_ns();
        let node = Node::open_inner(op, env, hook);
        let tracer = hook.engine().tracer();
        tracer.close_op(sid, tracer.now_ns().saturating_sub(t0));
        Ok(match (sid, node?) {
            (Some(sid), inner) => Node::Traced {
                sid,
                inner: Box::new(inner),
            },
            (None, inner) => inner,
        })
    }

    fn open_inner<H: EvalHook>(
        op: &'p PhysOp<'p>,
        env: &Env,
        hook: &mut H,
    ) -> Result<Node<'p>, ExecError<H::Error>> {
        Ok(match op {
            PhysOp::Scan {
                var,
                source,
                filters,
            } => {
                let items = as_set(hook.eval(env, source)?)?;
                Node::Scan {
                    var: *var,
                    filters,
                    base: env.clone(),
                    items,
                    idx: 0,
                }
            }
            PhysOp::IndexScan {
                var,
                source,
                keys,
                filters,
                fingerprint,
            } => {
                let items = as_set(hook.eval(env, source)?)?;
                // The probe sides are planner-safe: evaluating them once
                // here (even when the relation is empty) instead of per
                // element is unobservable.
                let probe: Vec<Value> = keys
                    .iter()
                    .map(|k| hook.eval(env, k.probe))
                    .collect::<Result<_, _>>()?;
                // A relation over the whole row budget would be declined
                // by the store: don't build a grouping nothing can ever
                // reuse — stream it like the filtered scan this shape
                // lowered to before the store existed.
                let matches = if items.len() > hook.engine().with_store(|s| s.budget_rows()) {
                    let mut matches = Vec::new();
                    for item in items.iter() {
                        let row_env = env.bind(*var, item.clone());
                        let mut hit = true;
                        for (k, want) in keys.iter().zip(&probe) {
                            if !value_eq(&hook.eval(&row_env, k.on)?, want) {
                                hit = false;
                                break;
                            }
                        }
                        if hit {
                            matches.push(item.clone());
                        }
                    }
                    matches
                } else {
                    let index = obtain_index(
                        &items,
                        fingerprint,
                        |hook| build_scan_index(&items, *var, keys, env, hook),
                        hook,
                    )?;
                    // Re-binding the group is len × O(1) `Rc` bumps;
                    // indices ascend, so rows stay in canonical order,
                    // exactly as a filter scan yields them.
                    index
                        .get(&KeyTuple(probe))
                        .map_or(&[][..], Vec::as_slice)
                        .iter()
                        .map(|&i| items.as_slice()[i as usize].clone())
                        .collect()
                };
                Node::IndexScan {
                    var: *var,
                    filters,
                    base: env.clone(),
                    matches,
                    idx: 0,
                }
            }
            PhysOp::NestedLoop {
                input,
                var,
                source,
                dependent,
                filters,
            } => {
                let input = Box::new(Node::open(input, env, hook)?);
                let fixed = if *dependent {
                    None
                } else {
                    Some(as_set(hook.eval(env, source)?)?)
                };
                Node::NestedLoop {
                    input,
                    var: *var,
                    source,
                    filters,
                    fixed,
                    cur: None,
                }
            }
            PhysOp::HashJoin {
                input,
                var,
                source,
                filters,
                probe_keys,
                build_keys,
                fingerprint,
            } => {
                let input = Box::new(Node::open(input, env, hook)?);
                let items = as_set(hook.eval(env, source)?)?;
                // A fingerprinted build goes through the store (a hit
                // skips the whole build phase — filters and keys — all
                // planner-safe, so unobservable); an environment-
                // dependent (or store-less) one is built inline.
                let table = match fingerprint {
                    Some(fp) => obtain_index(
                        &items,
                        fp,
                        |hook| build_join_index(&items, *var, filters, build_keys, env, hook),
                        hook,
                    )?,
                    None => Rc::new(build_join_index(
                        &items, *var, filters, build_keys, env, hook,
                    )?),
                };
                Node::HashJoin {
                    input,
                    var: *var,
                    probe_keys,
                    items,
                    table,
                    cur: None,
                }
            }
            PhysOp::Filter { input, conjuncts } => Node::Filter {
                input: Box::new(Node::open(input, env, hook)?),
                conjuncts,
            },
        })
    }

    /// Pull the next surviving binding, or `None` when exhausted.
    fn next<H: EvalHook>(&mut self, hook: &mut H) -> Result<Option<Env>, ExecError<H::Error>> {
        match self {
            Node::Scan {
                var,
                filters,
                base,
                items,
                idx,
            } => {
                while *idx < items.len() {
                    let item = items.as_slice()[*idx].clone();
                    *idx += 1;
                    let env = base.bind(*var, item);
                    if check_all(filters, &env, hook)? {
                        return Ok(Some(env));
                    }
                }
                Ok(None)
            }
            Node::IndexScan {
                var,
                filters,
                base,
                matches,
                idx,
            } => {
                while *idx < matches.len() {
                    let item = matches[*idx].clone();
                    *idx += 1;
                    let env = base.bind(*var, item);
                    if check_all(filters, &env, hook)? {
                        return Ok(Some(env));
                    }
                }
                Ok(None)
            }
            Node::NestedLoop {
                input,
                var,
                source,
                filters,
                fixed,
                cur,
            } => loop {
                if let Some((outer, items, idx)) = cur {
                    while *idx < items.len() {
                        let item = items.as_slice()[*idx].clone();
                        *idx += 1;
                        let env = outer.bind(*var, item);
                        if check_all(filters, &env, hook)? {
                            return Ok(Some(env));
                        }
                    }
                    *cur = None;
                }
                let Some(outer) = input.next(hook)? else {
                    return Ok(None);
                };
                let items = match fixed {
                    Some(s) => s.clone(),
                    None => as_set(hook.eval(&outer, source)?)?,
                };
                *cur = Some((outer, items, 0));
            },
            Node::HashJoin {
                input,
                var,
                probe_keys,
                items,
                table,
                cur,
            } => loop {
                if let Some((outer, matches, idx)) = cur {
                    if *idx < matches.len() {
                        let item = items.as_slice()[matches[*idx] as usize].clone();
                        *idx += 1;
                        return Ok(Some(outer.bind(*var, item)));
                    }
                    *cur = None;
                }
                // Empty-build short-circuit: nothing can ever match, so
                // don't even pull. Independent sources were all evaluated
                // at open; what this skips below is only the evaluation
                // of planner-safe dependent sources and pushed filters —
                // pure and total on type-checked programs, so skipping
                // them is unobservable under the crate's contract (an
                // *ill-typed* program driven straight through `eval_expr`
                // could see a NotASet/NotABool here that `select_loop`
                // would have raised).
                if table.is_empty() {
                    return Ok(None);
                }
                let Some(outer) = input.next(hook)? else {
                    return Ok(None);
                };
                let key = KeyTuple(
                    probe_keys
                        .iter()
                        .map(|k| hook.eval(&outer, k))
                        .collect::<Result<_, _>>()?,
                );
                if let Some(matches) = table.get(&key) {
                    // Copying the index list is a small memcpy; rows
                    // re-bind lazily above (len × O(1) `Rc` bumps).
                    *cur = Some((outer, matches.clone(), 0));
                }
            },
            Node::Filter { input, conjuncts } => loop {
                let Some(env) = input.next(hook)? else {
                    return Ok(None);
                };
                if check_all(conjuncts, &env, hook)? {
                    return Ok(Some(env));
                }
            },
            Node::Traced { sid, inner } => {
                let t0 = hook.engine().tracer().now_ns();
                let r = inner.next(hook);
                let tracer = hook.engine().tracer();
                let ns = tracer.now_ns().saturating_sub(t0);
                tracer.add_next(*sid, ns, matches!(r, Ok(Some(_))) as u64);
                r
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::compile;
    use machiavelli_syntax::parse_expr;

    /// A minimal structural evaluator covering the safe-expression class
    /// (the real evaluator lives above this crate; tests only need
    /// variables, fields, literals, `=`/`<`/`>`, sets and records).
    #[derive(Default)]
    struct MiniEval(EngineCtx);

    impl EvalHook for MiniEval {
        type Error = String;
        fn engine(&self) -> &EngineCtx {
            &self.0
        }
        fn eval(&mut self, env: &Env, expr: &Expr) -> Result<Value, String> {
            Ok(match &expr.kind {
                ExprKind::Int(n) => Value::Int(*n),
                ExprKind::Bool(b) => Value::Bool(*b),
                ExprKind::Str(s) => Value::str(s.as_str()),
                ExprKind::Var(x) => env.lookup(x).ok_or_else(|| format!("unbound {x}"))?,
                ExprKind::Field { expr, label } => match self.eval(env, expr)? {
                    Value::Record(fs) => fs
                        .get(label)
                        .cloned()
                        .ok_or_else(|| format!("no {label}"))?,
                    _ => return Err("not a record".into()),
                },
                ExprKind::Record(fields) => Value::record(
                    fields
                        .iter()
                        .map(|(l, fe)| Ok((*l, self.eval(env, fe)?)))
                        .collect::<Result<Vec<_>, String>>()?,
                ),
                ExprKind::Binop { op, left, right } => {
                    let l = self.eval(env, left)?;
                    let r = self.eval(env, right)?;
                    match op {
                        BinOp::Eq => Value::Bool(l == r),
                        BinOp::Lt => Value::Bool(l < r),
                        BinOp::Gt => Value::Bool(l > r),
                        _ => return Err("mini-eval: unsupported op".into()),
                    }
                }
                _ => return Err("mini-eval: unsupported expr".into()),
            })
        }
    }

    fn rows(label_vals: &[(i64, i64)]) -> Value {
        Value::set(label_vals.iter().map(|(k, a)| {
            Value::record([("K".into(), Value::Int(*k)), ("A".into(), Value::Int(*a))])
        }))
    }

    fn run(src: &str, env: &Env) -> Value {
        run_with(&mut MiniEval::default(), src, env)
    }

    fn run_with(hook: &mut MiniEval, src: &str, env: &Env) -> Value {
        let e = parse_expr(src).unwrap();
        let ExprKind::Select {
            result,
            generators,
            pred,
        } = &e.kind
        else {
            panic!()
        };
        let plan = compile(generators, pred, result).unwrap().physical(true);
        execute(&plan, env, hook).unwrap()
    }

    #[test]
    fn hash_join_pipeline_matches_expected() {
        let env = Env::new()
            .bind("r", rows(&[(1, 10), (2, 20), (3, 30)]))
            .bind("s", rows(&[(2, 200), (3, 300), (3, 301), (9, 900)]));
        let got = run(
            "select (x.A, y.A) where x <- r, y <- s with x.K = y.K",
            &env,
        );
        let want = Value::set([
            Value::tuple([Value::Int(20), Value::Int(200)]),
            Value::tuple([Value::Int(30), Value::Int(300)]),
            Value::tuple([Value::Int(30), Value::Int(301)]),
        ]);
        assert_eq!(got, want);
    }

    #[test]
    fn pushdown_filter_applies_before_join() {
        let env = Env::new()
            .bind("r", rows(&[(1, 1), (2, 2)]))
            .bind("s", rows(&[(1, 5), (2, 6)]));
        let got = run(
            "select y.A where x <- r, y <- s with x.K = y.K andalso x.A > 1",
            &env,
        );
        assert_eq!(got, Value::set([Value::Int(6)]));
    }

    #[test]
    fn empty_build_side_yields_empty() {
        let env = Env::new()
            .bind("r", rows(&[(1, 1)]))
            .bind("s", Value::set([]));
        let got = run("select x where x <- r, y <- s with x.K = y.K", &env);
        assert_eq!(got, Value::set([]));
    }

    #[test]
    fn non_set_source_errors_like_the_evaluator() {
        let env = Env::new().bind("r", Value::Int(3));
        let e = parse_expr("select x where x <- r with true").unwrap();
        let ExprKind::Select {
            result,
            generators,
            pred,
        } = &e.kind
        else {
            panic!()
        };
        let plan = compile(generators, pred, result).unwrap().physical(true);
        match execute(&plan, &env, &mut MiniEval::default()) {
            Err(ExecError::NotASet(shown)) => assert_eq!(shown, "3"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn index_scan_matches_filter_semantics() {
        let env = Env::new()
            .bind("r", rows(&[(1, 10), (2, 20), (2, 21), (3, 30)]))
            .bind("limit", Value::Int(2));
        let got = run("select x.A where x <- r with x.K = limit", &env);
        assert_eq!(got, Value::set([Value::Int(20), Value::Int(21)]));
        // Swapped orientation and an extra residual filter.
        let got = run(
            "select x.A where x <- r with x.A > 20 andalso limit = x.K",
            &env,
        );
        assert_eq!(got, Value::set([Value::Int(21)]));
    }

    #[test]
    fn index_scan_reuses_the_cached_grouping() {
        let mut hook = MiniEval::default();
        let env = Env::new()
            .bind("r", rows(&[(1, 10), (2, 20)]))
            .bind("limit", Value::Int(1));
        let q = "select x.A where x <- r with x.K = limit";
        assert_eq!(run_with(&mut hook, q, &env), Value::set([Value::Int(10)]));
        // Different probe constant, same relation storage: same index.
        let env2 = env.bind("limit", Value::Int(2));
        assert_eq!(run_with(&mut hook, q, &env2), Value::set([Value::Int(20)]));
        let stats = hook.0.with_store(|s| s.stats());
        assert_eq!((stats.builds, stats.hits), (1, 1), "{stats:?}");
    }

    #[test]
    fn cacheable_join_builds_once_across_executions() {
        let mut hook = MiniEval::default();
        let env = Env::new()
            .bind("r", rows(&[(1, 10), (2, 20)]))
            .bind("s", rows(&[(1, 100), (2, 200)]));
        let q = "select (x.A, y.A) where x <- r, y <- s with x.K = y.K";
        let first = run_with(&mut hook, q, &env);
        let second = run_with(&mut hook, q, &env);
        assert_eq!(first, second);
        let stats = hook.0.with_store(|s| s.stats());
        assert_eq!((stats.builds, stats.hits), (1, 1), "{stats:?}");
    }

    #[test]
    fn environment_dependent_build_is_not_cached() {
        let mut hook = MiniEval::default();
        let env = Env::new()
            .bind("r", rows(&[(1, 10), (2, 20)]))
            .bind("s", rows(&[(1, 100), (2, 200)]))
            .bind("cutoff", Value::Int(150));
        // The build-side filter mentions `cutoff`: correct results, but
        // the table must be rebuilt per execution (no fingerprint).
        let q = "select (x.A, y.A) where x <- r, y <- s \
                 with x.K = y.K andalso y.A > cutoff";
        let got = run_with(&mut hook, q, &env);
        assert_eq!(
            got,
            Value::set([Value::tuple([Value::Int(20), Value::Int(200)])])
        );
        run_with(&mut hook, q, &env);
        let stats = hook.0.with_store(|s| s.stats());
        assert_eq!(stats.builds, 0, "{stats:?}");
        assert_eq!(stats.entries, 0, "{stats:?}");
    }
}
