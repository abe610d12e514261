//! The call-by-value evaluator.
//!
//! Evaluation is type-erased: programs are checked by
//! `machiavelli-types` first, and the evaluator implements the paper's
//! dynamic semantics, including:
//!
//! * `hom(f, op, z, s)` as the right fold
//!   `op(f(x₁), op(f(x₂), … op(f(xₙ), z)…))` over the set's canonical
//!   order (a *proper* application — associative-commutative `op` — is
//!   order-independent, §2);
//! * `select … where … with …` by nested iteration over the generators;
//! * `modify` as a **pure** copy-and-update (no side effect, §3.2);
//! * references with object identity and `:=`;
//! * the database operations delegated to `machiavelli-value`.

use crate::error::EvalError;
use machiavelli_plan::{compile, mentions_any, ExecError};
use machiavelli_store::EngineCtx;
use machiavelli_syntax::ast::{BinOp, Expr, ExprKind, UnOp};
use machiavelli_syntax::symbol::Symbol;
use machiavelli_types::lower::lower_closed;
use machiavelli_value::{
    con_value, conforms, join_value, project_value, show_value, unionc_value, Builtin, Closure,
    DynValue, Env, Fields, MSet, RefValue, Value, ValueError,
};
use std::rc::Rc;

/// Maximum evaluator recursion depth: a logical guard against runaway
/// recursion.
const MAX_DEPTH: u32 = 10_000;

/// Below this much estimated stack headroom the evaluator reports a
/// graceful [`EvalError::StackOverflow`] instead of risking the OS
/// guard page (the offline `stacker` shim measures, it cannot grow).
const STACK_RED_ZONE: usize = 192 * 1024;

/// Entry point for per-level stack accounting; growth is a no-op under
/// the offline shim, the headroom check in [`Cx::enter`] is the guard.
fn with_stack<T>(f: impl FnOnce() -> T) -> T {
    stacker::maybe_grow(STACK_RED_ZONE, 1024 * 1024, f)
}

/// Evaluate an expression in `env` for the session whose engine context
/// is `ctx`: its mode picks the `select` strategy, its index store
/// serves the planner, its dirty sets record every `:=`, and its
/// decline counts record every fallback.
pub fn eval_expr(ctx: &EngineCtx, env: &Env, e: &Expr) -> Result<Value, EvalError> {
    let mut cx = Cx {
        ctx,
        depth: 0,
        ticks: 0,
    };
    cx.eval(env, e)
}

/// The cooperative tick: fault-injection points first (an injected
/// panic or delay must be able to fire even on un-governed sessions),
/// then the guard poll.
fn governed_tick() -> Result<(), EvalError> {
    machiavelli_value::faults::maybe_delay();
    machiavelli_value::faults::maybe_eval_panic();
    if let Some(trip) = machiavelli_value::governor::check_current() {
        return Err(EvalError::Interrupted(trip));
    }
    Ok(())
}

/// Balances a [`machiavelli_trace::begin_query`] on every exit from the
/// `select` arm — including `?` early returns and unwinds — so the
/// trace depth counter can never leak. Nested `select`s fold into the
/// outermost query's trace via the depth counter.
struct QueryTraceGuard;

impl Drop for QueryTraceGuard {
    fn drop(&mut self) {
        machiavelli_trace::end_query();
    }
}

/// The initial evaluation environment: builtins that are ordinary
/// identifiers.
pub fn builtin_env() -> Env {
    Env::new()
        .bind("union", Value::Builtin(Builtin::Union))
        .bind("not", Value::Builtin(Builtin::Not))
        .bind("applyc", Value::Builtin(Builtin::ApplyC))
}

/// Every this many `enter` calls the evaluator runs its cooperative
/// tick: fault-injection points plus the [`machiavelli_value::governor`]
/// poll. Depth alone cannot drive the tick — row loops evaluate at a
/// constant shallow depth, so a depth-keyed check would never fire on
/// exactly the long-running shapes deadlines exist for. A power of two
/// so the gate is a mask.
const GOVERNOR_TICK: u64 = 256;

struct Cx<'a> {
    ctx: &'a EngineCtx,
    depth: u32,
    /// Monotone count of `enter` calls (never decremented), driving the
    /// cooperative tick.
    ticks: u64,
}

impl Cx<'_> {
    fn enter(&mut self) -> Result<(), EvalError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(EvalError::StackOverflow);
        }
        // Periodically confirm real headroom remains; recursion depth
        // alone does not bound frame sizes.
        if self.depth.is_multiple_of(16)
            && stacker::remaining_stack().is_some_and(|rem| rem < STACK_RED_ZONE)
        {
            return Err(EvalError::StackOverflow);
        }
        self.ticks += 1;
        if self.ticks.is_multiple_of(GOVERNOR_TICK) {
            governed_tick()?;
        }
        Ok(())
    }

    fn eval(&mut self, env: &Env, e: &Expr) -> Result<Value, EvalError> {
        self.enter()?;
        let out = with_stack(|| self.eval_inner(env, e));
        self.depth -= 1;
        out
    }

    fn eval_inner(&mut self, env: &Env, e: &Expr) -> Result<Value, EvalError> {
        use ExprKind::*;
        match &e.kind {
            Unit => Ok(Value::Unit),
            Int(n) => Ok(Value::Int(*n)),
            Real(r) => Ok(Value::Real(*r)),
            Str(s) => Ok(Value::str(s.as_str())),
            Bool(b) => Ok(Value::Bool(*b)),
            Var(name) => env
                .lookup(name)
                .ok_or_else(|| EvalError::Unbound(name.to_string())),
            Lambda { params, body } => Ok(Value::Closure(Rc::new(Closure {
                params: params.clone(),
                body: (**body).clone(),
                env: env.clone(),
                rec_name: None,
            }))),
            App { func, args } => {
                let f = self.eval(env, func)?;
                let argv: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval(env, a))
                    .collect::<Result<_, _>>()?;
                self.apply(&f, argv)
            }
            If {
                cond,
                then_branch,
                else_branch,
            } => match self.eval(env, cond)? {
                Value::Bool(true) => self.eval(env, then_branch),
                Value::Bool(false) => self.eval(env, else_branch),
                other => Err(EvalError::NotAFunction(show_value(&other))),
            },
            Record(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (l, fe) in fields {
                    out.push((*l, self.eval(env, fe)?));
                }
                Ok(Value::Record(Fields::from_vec(out)))
            }
            Field { expr, label } => {
                let v = self.eval(env, expr)?;
                match &v {
                    Value::Record(fs) => fs.get(label).cloned().ok_or_else(|| {
                        ValueError::NoSuchField {
                            value: show_value(&v),
                            label: label.to_string(),
                        }
                        .into()
                    }),
                    other => Err(ValueError::NoSuchField {
                        value: show_value(other),
                        label: label.to_string(),
                    }
                    .into()),
                }
            }
            Modify { expr, label, value } => {
                let v = self.eval(env, expr)?;
                let new = self.eval(env, value)?;
                match v {
                    Value::Record(mut fs) => {
                        if !fs.contains_key(label) {
                            return Err(ValueError::NoSuchField {
                                value: "record".into(),
                                label: label.to_string(),
                            }
                            .into());
                        }
                        fs.insert(*label, new);
                        Ok(Value::Record(fs))
                    }
                    other => Err(ValueError::NoSuchField {
                        value: show_value(&other),
                        label: label.to_string(),
                    }
                    .into()),
                }
            }
            Inject { label, expr } => {
                let v = self.eval(env, expr)?;
                Ok(Value::variant(*label, v))
            }
            Case {
                expr,
                arms,
                default,
            } => {
                let v = self.eval(env, expr)?;
                let Value::Variant(label, payload) = &v else {
                    return Err(EvalError::NotAFunction(show_value(&v)));
                };
                for arm in arms {
                    if arm.label == *label {
                        let inner = env.bind(arm.var, (**payload).clone());
                        return self.eval(&inner, &arm.body);
                    }
                }
                match default {
                    Some(d) => self.eval(env, d),
                    None => Err(ValueError::AsMismatch {
                        expected: arms
                            .iter()
                            .map(|a| a.label.to_string())
                            .collect::<Vec<_>>()
                            .join("/"),
                        found: label.to_string(),
                    }
                    .into()),
                }
            }
            As { expr, label } => {
                let v = self.eval(env, expr)?;
                match &v {
                    Value::Variant(l, payload) if l == label => Ok((**payload).clone()),
                    Value::Variant(l, _) => Err(ValueError::AsMismatch {
                        expected: label.to_string(),
                        found: l.to_string(),
                    }
                    .into()),
                    other => Err(EvalError::NotAFunction(show_value(other))),
                }
            }
            Set(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(env, item)?);
                }
                Ok(Value::set(out))
            }
            Union { left, right } => {
                let l = self.eval(env, left)?;
                let r = self.eval(env, right)?;
                set_union(&l, &r)
            }
            Unionc { left, right } => {
                let l = self.eval(env, left)?;
                let r = self.eval(env, right)?;
                Ok(unionc_value(&l, &r)?)
            }
            Hom { f, op, z, set } => {
                let fv = self.eval(env, f)?;
                let opv = self.eval(env, op)?;
                let zv = self.eval(env, z)?;
                let sv = self.eval(env, set)?;
                let items = as_set(&sv)?;
                // `hom` with the union operator (the paper's map/filter
                // idiom) is a bulk accumulation: k per-step merges cost
                // O(k·n) element shifts, one `MSet::extend` costs one
                // sort plus one merge. Union is proper (associative,
                // commutative, idempotent), so batching is unobservable;
                // `f` still runs in right-fold order with the same
                // not-a-set error points as the generic fold.
                if matches!(opv, Value::Builtin(Builtin::Union)) && !items.is_empty() {
                    return self.union_fold(&fv, &zv, items.iter().rev());
                }
                // Right fold, per the paper's definition.
                let mut acc = zv;
                for x in items.iter().rev() {
                    let fx = self.apply(&fv, vec![x.clone()])?;
                    acc = self.apply(&opv, vec![fx, acc])?;
                }
                Ok(acc)
            }
            HomStar { f, op, set } => {
                let fv = self.eval(env, f)?;
                let opv = self.eval(env, op)?;
                let sv = self.eval(env, set)?;
                let items = as_set(&sv)?;
                let mut iter = items.iter().rev();
                let Some(last) = iter.next() else {
                    return Err(ValueError::EmptyHomStar.into());
                };
                let mut acc = self.apply(&fv, vec![last.clone()])?;
                // Same bulk-union path as `hom`, seeded by the first
                // application; on a singleton set the operator is never
                // applied, so `acc` passes through unchecked exactly
                // like the generic fold.
                if matches!(opv, Value::Builtin(Builtin::Union)) && items.len() > 1 {
                    return self.union_fold(&fv, &acc, iter);
                }
                for x in iter {
                    let fx = self.apply(&fv, vec![x.clone()])?;
                    acc = self.apply(&opv, vec![fx, acc])?;
                }
                Ok(acc)
            }
            Ref(inner) => {
                let v = self.eval(env, inner)?;
                Ok(Value::Ref(RefValue::new(v)))
            }
            Deref(inner) => {
                let v = self.eval(env, inner)?;
                match v {
                    Value::Ref(r) => Ok(r.get()),
                    other => Err(EvalError::NotAFunction(show_value(&other))),
                }
            }
            Assign { target, value } => {
                let t = self.eval(env, target)?;
                let v = self.eval(env, value)?;
                match t {
                    Value::Ref(r) => {
                        // Both of the session's dirty sets: any cached
                        // index (machiavelli-store) the write reaches is
                        // dropped before its next use — a `:=` can never
                        // be followed by a query serving pre-mutation
                        // rows from an index — and the attached log
                        // carries the write at its next commit.
                        r.set(v, self.ctx.dirty());
                        Ok(Value::Unit)
                    }
                    other => Err(EvalError::NotAFunction(show_value(&other))),
                }
            }
            Con { left, right } => {
                let l = self.eval(env, left)?;
                let r = self.eval(env, right)?;
                Ok(Value::Bool(con_value(&l, &r)))
            }
            Join { left, right } => {
                let l = self.eval(env, left)?;
                let r = self.eval(env, right)?;
                Ok(join_value(&l, &r)?)
            }
            Project { expr, ty } => {
                let v = self.eval(env, expr)?;
                let target = lower_closed(ty).map_err(|err| {
                    EvalError::Value(ValueError::ProjectionMismatch {
                        value: show_value(&v),
                        ty: err.to_string(),
                    })
                })?;
                Ok(project_value(&v, &target)?)
            }
            Let { name, bound, body } => {
                let bv = self.eval(env, bound)?;
                let inner = env.bind(*name, bv);
                self.eval(&inner, body)
            }
            Select {
                result,
                generators,
                pred,
            } => {
                // Default path: compile the comprehension into an operator
                // pipeline (hash build/probe for equi-join shapes, filter
                // pushdown). `plan_select` declines shapes where
                // reordering could be observable — those and a disabled
                // planner fall through to the nested-loop semantics
                // below. Expression evaluation inside the pipeline calls
                // back into `self`, so semantics live in one place.
                machiavelli_trace::begin_query("select");
                let _qt = QueryTraceGuard;
                let mode = self.ctx.mode();
                if mode.planner {
                    match compile(generators, pred, result).map(|l| l.physical(mode.store)) {
                        Ok(plan) => {
                            return match machiavelli_plan::execute(&plan, env, self) {
                                Ok(v) => Ok(v),
                                Err(ExecError::Eval(e)) => Err(e),
                                Err(ExecError::NotASet(shown)) => {
                                    Err(ValueError::NotASet(shown).into())
                                }
                                Err(ExecError::NotABool(shown)) => {
                                    Err(EvalError::NotAFunction(shown))
                                }
                            };
                        }
                        // The typed reason joins the decline taxonomy
                        // (always counted); the nested-loop fallback
                        // below is the behavior.
                        Err(u) => self.ctx.note_decline(u.decline_reason()),
                    }
                }
                // The paper's semantics builds the product of the sources,
                // so each independent source is evaluated exactly once.
                // Sources that mention earlier generator variables (a
                // strict extension) are re-evaluated per binding.
                let mut sources: Vec<Option<MSet>> = Vec::with_capacity(generators.len());
                let mut earlier: Vec<Symbol> = Vec::new();
                for g in generators {
                    if mentions_any(&g.source, &earlier) {
                        sources.push(None);
                    } else {
                        let v = self.eval(env, &g.source)?;
                        sources.push(Some(as_set(&v)?.clone()));
                    }
                    earlier.push(g.var);
                }
                // Results accumulate in a vector and canonicalize once —
                // per-element `MSet::insert` would shift O(n) each time.
                let mut out = Vec::new();
                self.select_loop(env, generators, &sources, pred, result, 0, &mut out)?;
                Ok(Value::Set(MSet::from_iter(out)))
            }
            Binop {
                op: BinOp::Andalso,
                left,
                right,
            } => match self.eval(env, left)? {
                Value::Bool(false) => Ok(Value::Bool(false)),
                Value::Bool(true) => self.eval(env, right),
                other => Err(EvalError::NotAFunction(show_value(&other))),
            },
            Binop {
                op: BinOp::Orelse,
                left,
                right,
            } => match self.eval(env, left)? {
                Value::Bool(true) => Ok(Value::Bool(true)),
                Value::Bool(false) => self.eval(env, right),
                other => Err(EvalError::NotAFunction(show_value(&other))),
            },
            Binop { op, left, right } => {
                let l = self.eval(env, left)?;
                let r = self.eval(env, right)?;
                apply_binop(*op, &l, &r)
            }
            Unop { op, expr } => {
                let v = self.eval(env, expr)?;
                match (op, v) {
                    // Wrapping, like every binary integer operator.
                    (UnOp::Neg, Value::Int(n)) => Ok(Value::Int(n.wrapping_neg())),
                    (UnOp::Neg, Value::Real(r)) => Ok(Value::Real(-r)),
                    (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (_, other) => Err(EvalError::NotAFunction(show_value(&other))),
                }
            }
            OpVal(op) => Ok(Value::Op(*op)),
            Rec { name, body } => {
                let ExprKind::Lambda {
                    params,
                    body: lbody,
                } = &body.kind
                else {
                    return Err(EvalError::NotAFunction("rec body".into()));
                };
                Ok(Value::Closure(Rc::new(Closure {
                    params: params.clone(),
                    body: (**lbody).clone(),
                    env: env.clone(),
                    rec_name: Some(*name),
                })))
            }
            Raise(msg) => Err(ValueError::Raised(msg.clone()).into()),
            MakeDynamic(inner) => {
                let v = self.eval(env, inner)?;
                Ok(Value::Dynamic(DynValue::new(v, None)))
            }
            Coerce { expr, ty } => {
                let v = self.eval(env, expr)?;
                let Value::Dynamic(d) = &v else {
                    return Err(EvalError::NotAFunction(show_value(&v)));
                };
                let target = lower_closed(ty).map_err(|err| {
                    EvalError::Value(ValueError::CoercionFailed {
                        value: show_value(&v),
                        ty: err.to_string(),
                    })
                })?;
                if conforms(&d.value, &target) {
                    Ok((*d.value).clone())
                } else {
                    Err(ValueError::CoercionFailed {
                        value: show_value(&d.value),
                        ty: machiavelli_types::show_type(&target),
                    }
                    .into())
                }
            }
        }
    }

    /// The shared bulk path for `hom`/`hom*` with the union operator:
    /// apply `f` over `items` (already in right-fold order, excluding
    /// whatever produced `seed`), then merge everything into `seed` with
    /// one `MSet::extend` instead of per-step merges. Error points match
    /// the generic fold exactly: each application result is set-checked
    /// as it arrives, and the seed is set-checked once, right after the
    /// first application (where the generic fold's first union would
    /// inspect it).
    fn union_fold<'a>(
        &mut self,
        fv: &Value,
        seed: &Value,
        items: impl Iterator<Item = &'a Value>,
    ) -> Result<Value, EvalError> {
        let mut parts: Vec<Value> = Vec::new();
        let mut seed_checked = false;
        for x in items {
            let fx = self.apply(fv, vec![x.clone()])?;
            let fx = as_set(&fx)?;
            if !seed_checked {
                as_set(seed)?;
                seed_checked = true;
            }
            parts.extend(fx.iter().cloned());
        }
        let mut acc = as_set(seed)?.clone();
        acc.extend(parts);
        Ok(Value::Set(acc))
    }

    /// Nested-loop evaluation of `select` over pre-evaluated independent
    /// sources (`Some`) and dependent sources re-evaluated per binding
    /// (`None`).
    #[allow(clippy::too_many_arguments)]
    fn select_loop(
        &mut self,
        env: &Env,
        generators: &[machiavelli_syntax::ast::Generator],
        sources: &[Option<MSet>],
        pred: &Expr,
        result: &Expr,
        idx: usize,
        out: &mut Vec<Value>,
    ) -> Result<(), EvalError> {
        if idx == generators.len() {
            if let Value::Bool(true) = self.eval(env, pred)? {
                out.push(self.eval(env, result)?);
            }
            return Ok(());
        }
        let g = &generators[idx];
        let dependent;
        let items: &MSet = match &sources[idx] {
            Some(pre) => pre,
            None => {
                let v = self.eval(env, &g.source)?;
                dependent = as_set(&v)?.clone();
                &dependent
            }
        };
        for item in items.iter() {
            let inner = env.bind(g.var, item.clone());
            self.select_loop(&inner, generators, sources, pred, result, idx + 1, out)?;
        }
        Ok(())
    }

    /// Apply a function value. Tuple-currying mismatch is bridged in both
    /// directions (a 2-parameter closure applied to one pair value, and
    /// vice versa) so first-class operators and closures compose.
    fn apply(&mut self, f: &Value, mut args: Vec<Value>) -> Result<Value, EvalError> {
        self.enter()?;
        let out = (|| match f {
            Value::Closure(c) => {
                if c.params.len() != args.len() {
                    if c.params.len() > 1 && args.len() == 1 {
                        // Destructure a tuple argument.
                        if let Value::Record(fs) = &args[0] {
                            if fs.len() == c.params.len() {
                                if let Some(items) = fs.tuple_items() {
                                    args = items.into_iter().cloned().collect();
                                }
                            }
                        }
                    } else if c.params.len() == 1 && args.len() > 1 {
                        args = vec![Value::tuple(args)];
                    }
                    if c.params.len() != args.len() {
                        return Err(EvalError::Arity {
                            expected: c.params.len(),
                            got: args.len(),
                        });
                    }
                }
                let mut env = c.env.clone();
                if let Some(name) = c.rec_name {
                    env = env.bind(name, Value::Closure(c.clone()));
                }
                for (p, a) in c.params.iter().zip(args) {
                    env = env.bind(p, a);
                }
                self.eval(&env, &c.body)
            }
            Value::Op(op) => {
                let (l, r) = two_args(args)?;
                apply_binop(*op, &l, &r)
            }
            Value::Builtin(Builtin::Union) => {
                let (l, r) = two_args(args)?;
                set_union(&l, &r)
            }
            Value::Builtin(Builtin::ApplyC) => {
                // §6 coercion application: dynamically just application
                // (the static rule guaranteed the argument carries at
                // least the domain's structure).
                let (f, x) = two_args(args)?;
                self.apply(&f, vec![x])
            }
            Value::Builtin(Builtin::Not) => {
                if args.len() != 1 {
                    return Err(EvalError::Arity {
                        expected: 1,
                        got: args.len(),
                    });
                }
                match &args[0] {
                    Value::Bool(b) => Ok(Value::Bool(!b)),
                    other => Err(EvalError::NotAFunction(show_value(other))),
                }
            }
            other => Err(EvalError::NotAFunction(show_value(other))),
        })();
        self.depth -= 1;
        out
    }
}

/// The planner's callback into the evaluator: pipeline operators
/// evaluate sources, filters, join keys and the result expression
/// through the ordinary `eval`, sharing depth/stack accounting.
impl machiavelli_plan::EvalHook for Cx<'_> {
    type Error = EvalError;
    fn eval(&mut self, env: &Env, expr: &Expr) -> Result<Value, EvalError> {
        Cx::eval(self, env, expr)
    }
    fn engine(&self) -> &EngineCtx {
        self.ctx
    }
}

/// Extract two arguments, destructuring a single tuple if needed.
fn two_args(args: Vec<Value>) -> Result<(Value, Value), EvalError> {
    match args.len() {
        2 => {
            let mut it = args.into_iter();
            Ok((it.next().unwrap(), it.next().unwrap()))
        }
        1 => match args.into_iter().next().unwrap() {
            Value::Record(fs) if fs.len() == 2 => match fs.tuple_items() {
                Some(items) => Ok((items[0].clone(), items[1].clone())),
                None => Err(EvalError::NotAFunction(show_value(&Value::Record(fs)))),
            },
            other => Err(EvalError::NotAFunction(show_value(&other))),
        },
        n => Err(EvalError::Arity {
            expected: 2,
            got: n,
        }),
    }
}

fn as_set(v: &Value) -> Result<&MSet, EvalError> {
    match v {
        Value::Set(s) => Ok(s),
        other => Err(ValueError::NotASet(show_value(other)).into()),
    }
}

fn set_union(l: &Value, r: &Value) -> Result<Value, EvalError> {
    match (l, r) {
        (Value::Set(a), Value::Set(b)) => Ok(Value::Set(a.union(b))),
        (Value::Set(_), other) | (other, _) => Err(ValueError::NotASet(show_value(other)).into()),
    }
}

/// Apply an infix operator to evaluated operands.
pub fn apply_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value, EvalError> {
    use BinOp::*;
    let num_err = || {
        EvalError::NotAFunction(format!(
            "{} {} {}",
            show_value(l),
            op.symbol(),
            show_value(r)
        ))
    };
    Ok(match (op, l, r) {
        (Add, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_add(*b)),
        (Sub, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_sub(*b)),
        (Mul, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_mul(*b)),
        (Div, Value::Int(a), Value::Int(b)) => {
            if *b == 0 {
                return Err(ValueError::Raised("Div".into()).into());
            }
            Value::Int(a.wrapping_div(*b))
        }
        (Mod, Value::Int(a), Value::Int(b)) => {
            if *b == 0 {
                return Err(ValueError::Raised("Mod".into()).into());
            }
            Value::Int(a.wrapping_rem(*b))
        }
        (Add, Value::Real(a), Value::Real(b)) => Value::Real(a + b),
        (Sub, Value::Real(a), Value::Real(b)) => Value::Real(a - b),
        (Mul, Value::Real(a), Value::Real(b)) => Value::Real(a * b),
        (RealDiv, Value::Real(a), Value::Real(b)) => Value::Real(a / b),
        (Concat, Value::Str(a), Value::Str(b)) => Value::str(format!("{a}{b}")),
        (Eq, a, b) => Value::Bool(a == b),
        (Ne, a, b) => Value::Bool(a != b),
        (Lt, Value::Int(a), Value::Int(b)) => Value::Bool(a < b),
        (Gt, Value::Int(a), Value::Int(b)) => Value::Bool(a > b),
        (Le, Value::Int(a), Value::Int(b)) => Value::Bool(a <= b),
        (Ge, Value::Int(a), Value::Int(b)) => Value::Bool(a >= b),
        (Lt, Value::Real(a), Value::Real(b)) => Value::Bool(a < b),
        (Gt, Value::Real(a), Value::Real(b)) => Value::Bool(a > b),
        (Le, Value::Real(a), Value::Real(b)) => Value::Bool(a <= b),
        (Ge, Value::Real(a), Value::Real(b)) => Value::Bool(a >= b),
        (Lt, Value::Str(a), Value::Str(b)) => Value::Bool(a < b),
        (Gt, Value::Str(a), Value::Str(b)) => Value::Bool(a > b),
        (Andalso, Value::Bool(a), Value::Bool(b)) => Value::Bool(*a && *b),
        (Orelse, Value::Bool(a), Value::Bool(b)) => Value::Bool(*a || *b),
        _ => return Err(num_err()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use machiavelli_syntax::parse_expr;

    fn run(src: &str) -> Value {
        let e = parse_expr(src).unwrap();
        eval_expr(&EngineCtx::default(), &builtin_env(), &e)
            .unwrap_or_else(|err| panic!("{src}: {err}"))
    }

    fn run_err(src: &str) -> EvalError {
        let e = parse_expr(src).unwrap();
        eval_expr(&EngineCtx::default(), &builtin_env(), &e).unwrap_err()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run("1 + 2 * 3"), Value::Int(7));
        assert_eq!(run("10 div 3"), Value::Int(3));
        assert_eq!(run("10 mod 3"), Value::Int(1));
        assert_eq!(run("-(3)"), Value::Int(-3));
    }

    #[test]
    fn integer_negation_wraps() {
        assert_eq!(run("-(0 - 9223372036854775807 - 1)"), Value::Int(i64::MIN));
    }

    #[test]
    fn division_by_zero_raises() {
        assert!(matches!(
            run_err("1 div 0"),
            EvalError::Value(ValueError::Raised(_))
        ));
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(run("1 < 2 andalso 3 > 2"), Value::Bool(true));
        assert_eq!(run("1 = 2 orelse 2 = 2"), Value::Bool(true));
        assert_eq!(run("not(true)"), Value::Bool(false));
    }

    #[test]
    fn short_circuit() {
        // The right side would raise if evaluated.
        assert_eq!(run("false andalso (1 div 0 = 0)"), Value::Bool(false));
        assert_eq!(run("true orelse (1 div 0 = 0)"), Value::Bool(true));
    }

    #[test]
    fn records_and_fields() {
        assert_eq!(run("[Name=\"Joe\", Age=21].Age"), Value::Int(21));
        assert_eq!(
            run("modify([Name=\"John\", Age=21], Age, 22)"),
            Value::record([
                ("Name".into(), Value::str("John")),
                ("Age".into(), Value::Int(22))
            ])
        );
    }

    #[test]
    fn modify_is_pure() {
        assert_eq!(
            run("let val r = [Age=21] in (modify(r, Age, 99), r.Age) end"),
            Value::tuple([
                Value::record([("Age".into(), Value::Int(99))]),
                Value::Int(21)
            ])
        );
    }

    #[test]
    fn lambda_and_application() {
        assert_eq!(run("(fn(x) => x + 1)(41)"), Value::Int(42));
        assert_eq!(run("(fn(x,y) => x * y)(6, 7)"), Value::Int(42));
    }

    #[test]
    fn sets_are_mathematical() {
        assert_eq!(run("{1, 2, 2, 1}"), run("{2, 1}"));
        assert_eq!(run("{1} = {1, 1}"), Value::Bool(true));
        assert_eq!(run("union({1,2},{2,3})"), run("{1,2,3}"));
    }

    #[test]
    fn hom_is_right_fold() {
        assert_eq!(run("hom((fn(x) => x), +, 0, {1,2,3,4})"), Value::Int(10));
        // Non-commutative op exposes the fold order: op(f(1), op(f(2), op(f(3), 0)))
        // with op = (fn(a,b) => a - b): 1 - (2 - (3 - 0)) = 2.
        assert_eq!(
            run("hom((fn(x) => x), (fn(a,b) => a - b), 0, {1,2,3})"),
            Value::Int(2)
        );
    }

    #[test]
    fn hom_star() {
        assert_eq!(run("hom*((fn(x) => x), +, {5,6})"), Value::Int(11));
        assert!(matches!(
            run_err("hom*((fn(x) => x), +, {})"),
            EvalError::Value(ValueError::EmptyHomStar)
        ));
    }

    #[test]
    fn hom_with_union_operator_value() {
        // map via hom, as in the paper.
        assert_eq!(
            run("hom((fn(x) => {x + 1}), union, {}, {1, 2, 3})"),
            run("{2, 3, 4}")
        );
    }

    #[test]
    fn select_basic() {
        assert_eq!(
            run("select x + 1 where x <- {1,2,3} with x > 1"),
            run("{3, 4}")
        );
    }

    #[test]
    fn select_multiple_generators() {
        assert_eq!(
            run("select (x, y) where x <- {1,2}, y <- {10} with true"),
            run("{(1,10), (2,10)}")
        );
    }

    #[test]
    fn wealthy_from_intro() {
        let src = r#"
            (fn(S) => select x.Name where x <- S with x.Salary > 100000)(
              {[Name = "Joe", Salary = 22340],
               [Name = "Fred", Salary = 123456],
               [Name = "Helen", Salary = 132000]})
        "#;
        assert_eq!(run(src), run("{\"Fred\", \"Helen\"}"));
    }

    #[test]
    fn case_and_injection() {
        assert_eq!(
            run("case (Consultant of [Telephone=2221234]) of \
                   Employee of y => y.Extension, Consultant of y => y.Telephone"),
            Value::Int(2221234)
        );
        assert_eq!(
            run("case (None of ()) of Value of v => true, other => false"),
            Value::Bool(false)
        );
    }

    #[test]
    fn as_extraction_and_mismatch() {
        assert_eq!(run("(Value of 3) as Value"), Value::Int(3));
        assert!(matches!(
            run_err("(None of ()) as Value"),
            EvalError::Value(ValueError::AsMismatch { .. })
        ));
    }

    #[test]
    fn refs_identity_and_mutation() {
        assert_eq!(run("ref(3) = ref(3)"), Value::Bool(false));
        assert_eq!(
            run("let val r = ref(3) in (r := 4, !r) end"),
            Value::tuple([Value::Unit, Value::Int(4)])
        );
    }

    #[test]
    fn shared_reference_update_paper_example() {
        // The §5 department example: updating through emp1 is visible
        // through emp2.
        let src = r#"
            let val d = ref([Dname="Sales", Building=45]) in
            let val emp1 = [Name="Jones", Department=d] in
            let val emp2 = [Name="Smith", Department=d] in
            let val u = (emp1.Department := modify(!(emp1.Department), Building, 67)) in
            (!(emp2.Department)).Building
            end end end end
        "#;
        assert_eq!(run(src), Value::Int(67));
    }

    #[test]
    fn join_con_project_eval() {
        assert_eq!(
            run(r#"join([Name=[First="Joe"], Age=21], [Name=[Last="Doe"]])"#),
            run(r#"[Name=[First="Joe", Last="Doe"], Age=21]"#)
        );
        assert_eq!(run("con([A=1],[B=2])"), Value::Bool(true));
        assert_eq!(run("con([A=1],[A=2])"), Value::Bool(false));
        assert_eq!(
            run(r#"project([Name="Joe", Age=21, Salary=22340], [Name:string, Salary:int])"#),
            run(r#"[Name="Joe", Salary=22340]"#)
        );
        assert_eq!(run("project(3, int)"), Value::Int(3));
    }

    #[test]
    fn unionc_eval() {
        assert_eq!(
            run("unionc({[Name=\"a\", Advisor=1]}, {[Name=\"b\", Salary=2]})"),
            run("{[Name=\"a\"], [Name=\"b\"]}")
        );
    }

    #[test]
    fn rec_factorial() {
        assert_eq!(
            run("rec(f, (fn(n) => if n = 0 then 1 else n * f(n - 1)))(10)"),
            Value::Int(3628800)
        );
    }

    #[test]
    fn dynamic_roundtrip() {
        assert_eq!(run("dynamic(dynamic(3), int)"), Value::Int(3));
        assert!(matches!(
            run_err("dynamic(dynamic(3), string)"),
            EvalError::Value(ValueError::CoercionFailed { .. })
        ));
        assert_eq!(run("dynamic(3) = dynamic(3)"), Value::Bool(false));
    }

    #[test]
    fn raise_propagates() {
        assert!(matches!(
            run_err("raise \"boom\""),
            EvalError::Value(ValueError::Raised(m)) if m == "boom"
        ));
    }

    #[test]
    fn string_ops() {
        assert_eq!(run("\"foo\" ^ \"bar\""), Value::str("foobar"));
        assert_eq!(run("\"abc\" = \"abc\""), Value::Bool(true));
    }

    #[test]
    fn tuple_bridge_application() {
        // A 2-param closure applied to one tuple value.
        assert_eq!(
            run("let val p = (6, 7) in (fn(x,y) => x * y)(p) end"),
            Value::Int(42)
        );
    }

    #[test]
    fn deep_recursion_overflows_gracefully() {
        let err = run_err("rec(f, (fn(n) => f(n + 1)))(0)");
        assert_eq!(err, EvalError::StackOverflow);
    }
}
