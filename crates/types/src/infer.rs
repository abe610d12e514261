//! Type inference: Milner's algorithm W extended with kinded variables
//! and conditional constraints, following \[OB88\] / §3.3 of the paper.
//!
//! Top-level behaviour mirrors the paper's interactive sessions:
//!
//! * non-expansive phrases (functions, literals, …) are **generalized**
//!   into conditional type schemes — unresolved `lub`/`glb` conditions
//!   print as the `where { … }` clause (e.g. `Join3`);
//! * expansive phrases (applications, queries, …) are evaluated by the
//!   interpreter, so their types are **resolved**: the solver runs in
//!   forced mode, committing kinded variables to minimal instances — this
//!   reproduces the fully ground types the paper prints for Figure 3's
//!   queries.

use crate::constraint::{solve, Constraint};
use crate::error::TypeError;
use crate::kind::Kind;
use crate::lower::lower_closed;
use crate::scheme::{generalize, instantiate, Scheme};
use crate::ty::{
    resolve, t_arrow, t_bool, t_dynamic, t_int, t_real, t_record, t_ref, t_set, t_str, t_tuple,
    t_unit, t_variant, TvRef, TvState, Ty, Type, VarGen,
};
use crate::unify::{require_desc, unify};
use machiavelli_syntax::ast::{BinOp, Expr, ExprKind, Phrase, PhraseKind, UnOp};
use machiavelli_syntax::symbol::Symbol;
use std::rc::Rc;

/// A lexically scoped type environment, keyed by interned symbols so
/// lookups compare interned-pointer ids, not string contents.
///
/// Every [`TypeEnv::bind`] and [`TypeEnv::rebind`] gives its binding a
/// fresh version stamp, so a caller that recorded the stamps of the
/// bindings a phrase read (see [`Inferencer::elaborate_phrase`]) can
/// tell later whether any of them has been replaced since.
#[derive(Debug, Clone, Default)]
pub struct TypeEnv {
    bindings: Vec<(Symbol, Scheme, u64)>,
    next_stamp: u64,
}

impl TypeEnv {
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, name: Symbol, scheme: Scheme) {
        self.next_stamp += 1;
        self.bindings.push((name, scheme, self.next_stamp));
    }

    /// Push a binding (shadowing any previous one).
    pub fn bind(&mut self, name: impl Into<Symbol>, scheme: Scheme) {
        self.push(name.into(), scheme);
    }

    /// Replace a top-level binding: drop the binding of `name` it
    /// shadows, if any, then push. Lookups answer as after
    /// [`TypeEnv::bind`], but the environment holds one entry per
    /// distinct top-level name however many phrases rebind it.
    pub fn rebind(&mut self, name: impl Into<Symbol>, scheme: Scheme) {
        let name = name.into();
        if let Some(i) = self.position(name) {
            self.bindings.remove(i);
        }
        self.push(name, scheme);
    }

    /// Pop the most recent `n` bindings.
    pub fn pop(&mut self, n: usize) {
        for _ in 0..n {
            self.bindings.pop();
        }
    }

    fn position(&self, name: Symbol) -> Option<usize> {
        self.bindings
            .iter()
            .rposition(|(n, ..)| n.id() == name.id())
    }

    /// Look up a name (innermost binding wins).
    pub fn lookup(&self, name: impl Into<Symbol>) -> Option<&Scheme> {
        let i = self.position(name.into())?;
        Some(&self.bindings[i].1)
    }

    /// The version stamp of the binding [`TypeEnv::lookup`] would find.
    pub fn stamp(&self, name: impl Into<Symbol>) -> Option<u64> {
        let i = self.position(name.into())?;
        Some(self.bindings[i].2)
    }

    /// Iterate over all bindings (outermost first).
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Scheme)> {
        self.bindings.iter().map(|(n, s, _)| (*n, s))
    }
}

/// The stateful inferencer: fresh-variable supply, current `let` level,
/// and the set of pending conditional constraints.
#[derive(Debug, Default)]
pub struct Inferencer {
    pub gen: VarGen,
    level: u32,
    pub constraints: Vec<Constraint>,
    /// The top-level bindings read by the phrase being elaborated:
    /// lookups that land below `top`, the environment's length when the
    /// phrase started.
    reads: Vec<(Symbol, u64)>,
    /// Every type variable of the schemes in `reads`, with its state
    /// when first read.
    read_cells: Vec<(TvRef, CellState)>,
    top: usize,
}

/// An unbound cell's level and kind; `None` once linked.
type CellState = Option<(u32, Kind)>;

fn cell_state(v: &TvRef) -> CellState {
    match &*v.0.borrow() {
        TvState::Unbound { level, kind, .. } => Some((*level, kind.clone())),
        TvState::Link(_) => None,
    }
}

/// Still unbound, at the same level, with the same kind holding the
/// very same field types. `before` keeps its kind's types alive, so
/// their addresses are identities.
fn same_cell_state(before: &CellState, after: &CellState) -> bool {
    let key = |k: &Kind| {
        let fields: Vec<*const Type> = k.field_types().iter().map(Rc::as_ptr).collect();
        (std::mem::discriminant(k), k.requires_desc(), fields)
    };
    match (before, after) {
        (Some((la, ka)), Some((lb, kb))) => la == lb && key(ka) == key(kb),
        _ => false,
    }
}

/// A phrase inferred by [`Inferencer::elaborate_phrase`], not yet bound.
#[derive(Debug, Clone)]
pub struct Elaboration {
    pub typed: PhraseType,
    /// The top-level bindings inference read, as (name,
    /// [`TypeEnv::stamp`]) pairs.
    pub reads: Vec<(Symbol, u64)>,
    /// Whether inference left every type variable of the schemes in
    /// `reads` as it found them: not linked, and with the same level and
    /// kind. Then it made no unification that a later run of the same
    /// phrase against those bindings would need to repeat.
    pub reads_untouched: bool,
}

/// Result of inferring one top-level phrase.
#[derive(Debug, Clone)]
pub struct PhraseType {
    /// The name bound (`it` for bare expressions).
    pub name: Symbol,
    /// The (possibly conditional) scheme entered into the environment.
    pub scheme: Scheme,
}

impl Inferencer {
    pub fn new() -> Self {
        Self::default()
    }

    /// An inferencer whose variable ids continue from `start` (see
    /// [`VarGen::starting_at`]).
    pub fn starting_at(start: u64) -> Self {
        Inferencer {
            gen: VarGen::starting_at(start),
            ..Self::default()
        }
    }

    fn fresh(&self, kind: Kind) -> Ty {
        self.gen.fresh_ty(kind, self.level)
    }

    /// Build the initial environment containing the builtin values that
    /// are ordinary identifiers (the special forms — `join`, `hom`, … —
    /// are AST nodes, not identifiers).
    pub fn builtin_env(&self) -> TypeEnv {
        let mut env = TypeEnv::new();
        // union : ∀"a. ({"a} * {"a}) -> {"a}
        let d = self.gen.fresh(Kind::Desc, u32::MAX);
        let dt: Ty = Rc::new(Type::Var(d.clone()));
        let set = t_set(dt);
        env.bind(
            "union",
            Scheme {
                vars: vec![d],
                constraints: Vec::new(),
                body: t_arrow(t_tuple([set.clone(), set.clone()]), set),
            },
        );
        // not : bool -> bool
        env.bind("not", Scheme::mono(t_arrow(t_bool(), t_bool())));
        // applyc : ∀"a "b 'c. (("a -> 'c) * "b) -> 'c  where "a <= "b
        //
        // The §6 sketch: replace the application rule by
        //   e : σ → τ   e' : ρ   ρ ≤ σ
        //   ---------------------------
        //          e(e') : τ
        // so a function over a *smaller* description type accepts any
        // larger argument, coerced implicitly. `applyc(f, x)` is that
        // rule as a combinator: the condition `"a <= "b` is carried in
        // the conditional scheme and checked at each use.
        let dom = self.gen.fresh(Kind::Desc, u32::MAX);
        let arg = self.gen.fresh(Kind::Desc, u32::MAX);
        let out = self.gen.fresh(Kind::Any, u32::MAX);
        let dom_ty: Ty = Rc::new(Type::Var(dom.clone()));
        let arg_ty: Ty = Rc::new(Type::Var(arg.clone()));
        let out_ty: Ty = Rc::new(Type::Var(out.clone()));
        env.bind(
            "applyc",
            Scheme {
                vars: vec![dom.clone(), arg, out],
                constraints: vec![Constraint::Sub {
                    sub: dom_ty.clone(),
                    sup: arg_ty.clone(),
                }],
                body: t_arrow(t_tuple([t_arrow(dom_ty, out_ty.clone()), arg_ty]), out_ty),
            },
        );
        env
    }

    /// Infer a top-level phrase, updating `env` with the new binding.
    ///
    /// On failure the pending-constraint set is rolled back to its state
    /// before the phrase, so one ill-typed phrase cannot poison later
    /// ones (the session keeps running, as in the paper's interactive
    /// transcripts).
    pub fn infer_phrase(
        &mut self,
        env: &mut TypeEnv,
        phrase: &Phrase,
    ) -> Result<PhraseType, TypeError> {
        let snapshot = self.constraints.clone();
        match self.elaborate_phrase(env, phrase) {
            Ok(Elaboration { typed, .. }) => {
                env.rebind(typed.name, typed.scheme.clone());
                Ok(typed)
            }
            Err(e) => {
                self.constraints = snapshot;
                Err(e)
            }
        }
    }

    /// Infer a top-level phrase without binding it: `env` is left as it
    /// was, so the caller binds the scheme only once the phrase has also
    /// evaluated. Also reports the top-level bindings inference read. On
    /// failure the caller restores the pending constraints, as
    /// [`Inferencer::infer_phrase`] does.
    pub fn elaborate_phrase(
        &mut self,
        env: &mut TypeEnv,
        phrase: &Phrase,
    ) -> Result<Elaboration, TypeError> {
        self.top = env.bindings.len();
        self.reads.clear();
        self.read_cells.clear();
        let result = self.elaborate_inner(env, phrase);
        // A failure can leave inner-scope bindings behind (a generator
        // bound before a later one failed to type): drop them.
        env.bindings.truncate(self.top);
        self.top = 0;
        let reads_untouched = self
            .read_cells
            .iter()
            .all(|(v, before)| same_cell_state(before, &cell_state(v)));
        self.read_cells.clear();
        Ok(Elaboration {
            typed: result?,
            reads: std::mem::take(&mut self.reads),
            reads_untouched,
        })
    }

    fn elaborate_inner(
        &mut self,
        env: &mut TypeEnv,
        phrase: &Phrase,
    ) -> Result<PhraseType, TypeError> {
        let (name, scheme) = match &phrase.kind {
            PhraseKind::Val { name, expr } => (*name, self.infer_top(env, expr, None)?),
            PhraseKind::Fun { name, params, body } => {
                let lambda = Expr::new(
                    ExprKind::Lambda {
                        params: params.clone(),
                        body: Box::new(body.clone()),
                    },
                    phrase.span,
                );
                (*name, self.infer_top(env, &lambda, Some(*name))?)
            }
            PhraseKind::Expr(expr) => (Symbol::intern("it"), self.infer_top(env, expr, None)?),
        };
        Ok(PhraseType { name, scheme })
    }

    /// Infer a top-level expression; `rec_name` makes the binding visible
    /// recursively (for `fun`).
    fn infer_top(
        &mut self,
        env: &mut TypeEnv,
        expr: &Expr,
        rec_name: Option<Symbol>,
    ) -> Result<Scheme, TypeError> {
        self.level = 1;
        let mut popped = 0;
        if let Some(name) = rec_name {
            let placeholder = self.fresh(Kind::Any);
            env.bind(name, Scheme::mono(placeholder));
            popped = 1;
        }
        let result = (|| {
            let t = self.infer_expr(env, expr)?;
            if let Some(name) = rec_name {
                let placeholder = env.lookup(name).unwrap().body.clone();
                unify(&placeholder, &t)?;
            }
            // Gentle pass first: resolve whatever is ground.
            solve(&mut self.constraints, &self.gen, self.level, false)?;
            if is_nonexpansive(expr) {
                Ok(generalize(&t, &mut self.constraints, 0))
            } else {
                // The interpreter will evaluate this phrase: commit
                // blocked kinded variables (forced mode), then present a
                // monomorphic scheme carrying any still-symbolic
                // conditions for display.
                solve(&mut self.constraints, &self.gen, self.level, true)?;
                let residual = self.constraints_mentioning(&t);
                Ok(Scheme {
                    vars: Vec::new(),
                    constraints: residual,
                    body: t,
                })
            }
        })();
        env.pop(popped);
        self.level = 0;
        result
    }

    /// Copies of pending constraints that mention variables of `t`
    /// (for display on monomorphic phrases).
    fn constraints_mentioning(&self, t: &Ty) -> Vec<Constraint> {
        let mut tvars = Vec::new();
        crate::ty::free_vars(t, &mut tvars);
        self.constraints
            .iter()
            .filter(|c| {
                let mut cvars = Vec::new();
                for ct in c.types() {
                    crate::ty::free_vars(&ct, &mut cvars);
                }
                cvars.iter().any(|v| tvars.contains(v))
            })
            .cloned()
            .collect()
    }

    /// Infer the type of an expression.
    pub fn infer_expr(&mut self, env: &mut TypeEnv, e: &Expr) -> Result<Ty, TypeError> {
        use ExprKind::*;
        match &e.kind {
            Unit => Ok(t_unit()),
            Int(_) => Ok(t_int()),
            Real(_) => Ok(t_real()),
            Str(_) => Ok(t_str()),
            Bool(_) => Ok(t_bool()),
            Var(name) => {
                let i = env
                    .position(*name)
                    .ok_or_else(|| TypeError::UnboundVariable(name.to_string()))?;
                let (_, scheme, stamp) = &env.bindings[i];
                if i < self.top && !self.reads.iter().any(|(n, _)| n.id() == name.id()) {
                    self.reads.push((*name, *stamp));
                    let mut cells = Vec::new();
                    crate::ty::free_vars(&scheme.body, &mut cells);
                    for c in &scheme.constraints {
                        for t in c.types() {
                            crate::ty::free_vars(&t, &mut cells);
                        }
                    }
                    for v in cells {
                        if !self.read_cells.iter().any(|(seen, _)| *seen == v) {
                            let state = cell_state(&v);
                            self.read_cells.push((v, state));
                        }
                    }
                }
                let scheme = scheme.clone();
                Ok(instantiate(
                    &scheme,
                    &self.gen,
                    self.level,
                    &mut self.constraints,
                ))
            }
            Lambda { params, body } => {
                let param_tys: Vec<Ty> = params.iter().map(|_| self.fresh(Kind::Any)).collect();
                for (p, t) in params.iter().zip(&param_tys) {
                    env.bind(*p, Scheme::mono(t.clone()));
                }
                let body_ty = self.infer_expr(env, body);
                env.pop(params.len());
                let body_ty = body_ty?;
                let dom = if param_tys.len() == 1 {
                    param_tys.into_iter().next().unwrap()
                } else {
                    t_tuple(param_tys)
                };
                Ok(t_arrow(dom, body_ty))
            }
            App { func, args } => {
                let f_ty = self.infer_expr(env, func)?;
                let arg_tys: Vec<Ty> = args
                    .iter()
                    .map(|a| self.infer_expr(env, a))
                    .collect::<Result<_, _>>()?;
                let dom = if arg_tys.len() == 1 {
                    arg_tys.into_iter().next().unwrap()
                } else {
                    t_tuple(arg_tys)
                };
                let out = self.fresh(Kind::Any);
                unify(&f_ty, &t_arrow(dom, out.clone()))?;
                Ok(out)
            }
            If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.infer_expr(env, cond)?;
                unify(&c, &t_bool())?;
                let t = self.infer_expr(env, then_branch)?;
                let f = self.infer_expr(env, else_branch)?;
                unify(&t, &f)?;
                Ok(t)
            }
            Record(fields) => {
                let mut tys = Vec::with_capacity(fields.len());
                for (l, fe) in fields {
                    tys.push((*l, self.infer_expr(env, fe)?));
                }
                Ok(t_record(tys))
            }
            Field { expr, label } => {
                let t = self.infer_expr(env, expr)?;
                let field_ty = self.fresh(Kind::Any);
                let rec_var = self.fresh(Kind::record([(*label, field_ty.clone())], false));
                unify(&t, &rec_var)?;
                Ok(field_ty)
            }
            Modify { expr, label, value } => {
                let t = self.infer_expr(env, expr)?;
                let v = self.infer_expr(env, value)?;
                let rec_var = self.fresh(Kind::record([(*label, v)], false));
                unify(&t, &rec_var)?;
                Ok(t)
            }
            Inject { label, expr } => {
                let t = self.infer_expr(env, expr)?;
                Ok(self.fresh(Kind::variant([(*label, t)], false)))
            }
            Case {
                expr,
                arms,
                default,
            } => {
                let scrut = self.infer_expr(env, expr)?;
                let result = self.fresh(Kind::Any);
                let mut arm_fields = Vec::with_capacity(arms.len());
                for arm in arms {
                    let payload = self.fresh(Kind::Any);
                    env.bind(arm.var, Scheme::mono(payload.clone()));
                    let body_ty = self.infer_expr(env, &arm.body);
                    env.pop(1);
                    unify(&body_ty?, &result)?;
                    arm_fields.push((arm.label, payload));
                }
                match default {
                    None => {
                        // Exactly these variants (the paper's Fig. 1
                        // `phone` prints a closed variant).
                        unify(&scrut, &t_variant(arm_fields))?;
                    }
                    Some(d) => {
                        // At least these variants; `other` covers the rest.
                        let var = self.fresh(Kind::variant(arm_fields, false));
                        unify(&scrut, &var)?;
                        let d_ty = self.infer_expr(env, d)?;
                        unify(&d_ty, &result)?;
                    }
                }
                Ok(result)
            }
            As { expr, label } => {
                let t = self.infer_expr(env, expr)?;
                let payload = self.fresh(Kind::Any);
                let var = self.fresh(Kind::variant([(*label, payload.clone())], false));
                unify(&t, &var)?;
                Ok(payload)
            }
            Set(items) => {
                let elem = self.fresh(Kind::Desc);
                for item in items {
                    let t = self.infer_expr(env, item)?;
                    unify(&t, &elem)?;
                }
                Ok(t_set(elem))
            }
            Union { left, right } => {
                let elem = self.fresh(Kind::Desc);
                let l = self.infer_expr(env, left)?;
                let r = self.infer_expr(env, right)?;
                unify(&l, &t_set(elem.clone()))?;
                unify(&r, &t_set(elem.clone()))?;
                Ok(t_set(elem))
            }
            Unionc { left, right } => {
                let l = self.infer_expr(env, left)?;
                let r = self.infer_expr(env, right)?;
                let d1 = self.fresh(Kind::Desc);
                let d2 = self.fresh(Kind::Desc);
                unify(&l, &t_set(d1.clone()))?;
                unify(&r, &t_set(d2.clone()))?;
                let out = self.fresh(Kind::Desc);
                self.constraints.push(Constraint::Glb {
                    result: out.clone(),
                    left: d1,
                    right: d2,
                });
                Ok(t_set(out))
            }
            Hom { f, op, z, set } => {
                // The set is inferred first so a concrete (possibly
                // recursive) element type grounds the element variable
                // before the body of `f` constrains it — mirrors the
                // generator-first order of `select`.
                let elem = self.fresh(Kind::Desc);
                let acc = self.fresh(Kind::Any);
                let s_ty = self.infer_expr(env, set)?;
                unify(&s_ty, &t_set(elem.clone()))?;
                let f_ty = self.infer_expr(env, f)?;
                unify(&f_ty, &t_arrow(elem, acc.clone()))?;
                let op_ty = self.infer_expr(env, op)?;
                unify(
                    &op_ty,
                    &t_arrow(t_tuple([acc.clone(), acc.clone()]), acc.clone()),
                )?;
                let z_ty = self.infer_expr(env, z)?;
                unify(&z_ty, &acc)?;
                Ok(acc)
            }
            HomStar { f, op, set } => {
                let elem = self.fresh(Kind::Desc);
                let acc = self.fresh(Kind::Any);
                let s_ty = self.infer_expr(env, set)?;
                unify(&s_ty, &t_set(elem.clone()))?;
                let f_ty = self.infer_expr(env, f)?;
                unify(&f_ty, &t_arrow(elem, acc.clone()))?;
                let op_ty = self.infer_expr(env, op)?;
                unify(
                    &op_ty,
                    &t_arrow(t_tuple([acc.clone(), acc.clone()]), acc.clone()),
                )?;
                Ok(acc)
            }
            Ref(inner) => {
                let t = self.infer_expr(env, inner)?;
                Ok(t_ref(t))
            }
            Deref(inner) => {
                let t = self.infer_expr(env, inner)?;
                let content = self.fresh(Kind::Any);
                unify(&t, &t_ref(content.clone()))?;
                Ok(content)
            }
            Assign { target, value } => {
                let t = self.infer_expr(env, target)?;
                let v = self.infer_expr(env, value)?;
                unify(&t, &t_ref(v))?;
                Ok(t_unit())
            }
            Con { left, right } => {
                let l = self.infer_expr(env, left)?;
                let r = self.infer_expr(env, right)?;
                require_desc(&l)?;
                require_desc(&r)?;
                let witness = self.fresh(Kind::Desc);
                self.constraints.push(Constraint::Lub {
                    result: witness,
                    left: l,
                    right: r,
                });
                Ok(t_bool())
            }
            Join { left, right } => {
                let l = self.infer_expr(env, left)?;
                let r = self.infer_expr(env, right)?;
                require_desc(&l)?;
                require_desc(&r)?;
                let out = self.fresh(Kind::Desc);
                self.constraints.push(Constraint::Lub {
                    result: out.clone(),
                    left: l,
                    right: r,
                });
                Ok(out)
            }
            Project { expr, ty } => {
                let source = self.infer_expr(env, expr)?;
                require_desc(&source)?;
                let target = lower_closed(ty)?;
                self.sub_propagate(&target, &source)?;
                Ok(target)
            }
            Let { name, bound, body } => {
                let scheme = if is_nonexpansive(bound) {
                    self.level += 1;
                    let t = self.infer_expr(env, bound);
                    self.level -= 1;
                    generalize(&t?, &mut self.constraints, self.level)
                } else {
                    Scheme::mono(self.infer_expr(env, bound)?)
                };
                env.bind(*name, scheme);
                let out = self.infer_expr(env, body);
                env.pop(1);
                out
            }
            Select {
                result,
                generators,
                pred,
            } => {
                for g in generators {
                    let src = self.infer_expr(env, &g.source)?;
                    let elem = self.fresh(Kind::Desc);
                    unify(&src, &t_set(elem.clone()))?;
                    env.bind(g.var, Scheme::mono(elem));
                }
                let out = (|| {
                    let p = self.infer_expr(env, pred)?;
                    unify(&p, &t_bool())?;
                    let r = self.infer_expr(env, result)?;
                    require_desc(&r)?;
                    Ok(t_set(r))
                })();
                env.pop(generators.len());
                out
            }
            Binop { op, left, right } => {
                let l = self.infer_expr(env, left)?;
                let r = self.infer_expr(env, right)?;
                self.binop_result(*op, &l, &r)
            }
            Unop { op, expr } => {
                let t = self.infer_expr(env, expr)?;
                match op {
                    UnOp::Neg => {
                        let t = resolve(&t);
                        match &*t {
                            Type::Real => Ok(t_real()),
                            _ => {
                                unify(&t, &t_int())?;
                                Ok(t_int())
                            }
                        }
                    }
                    UnOp::Not => {
                        unify(&t, &t_bool())?;
                        Ok(t_bool())
                    }
                }
            }
            OpVal(op) => {
                let (l, r, out) = self.binop_value_type(*op);
                Ok(t_arrow(t_tuple([l, r]), out))
            }
            Rec { name, body } => {
                if !matches!(body.kind, ExprKind::Lambda { .. }) {
                    return Err(TypeError::RecNotFunction);
                }
                let placeholder = self.fresh(Kind::Any);
                env.bind(*name, Scheme::mono(placeholder.clone()));
                let t = self.infer_expr(env, body);
                env.pop(1);
                unify(&placeholder, &t?)?;
                Ok(placeholder)
            }
            Raise(_) => Ok(self.fresh(Kind::Any)),
            MakeDynamic(inner) => {
                let t = self.infer_expr(env, inner)?;
                require_desc(&t)?;
                Ok(t_dynamic())
            }
            Coerce { expr, ty } => {
                let t = self.infer_expr(env, expr)?;
                unify(&t, &t_dynamic())?;
                lower_closed(ty)
            }
        }
    }

    /// Eagerly propagate the projection constraint `sub ≤ sup`: the
    /// annotation `sub` is closed and finite, so the relationship
    /// decomposes structurally; record positions become record-kinded
    /// variables, base/ref/dynamic positions unify. Recursive annotation
    /// types leave a residual [`Constraint::Sub`].
    fn sub_propagate(&mut self, sub: &Ty, sup: &Ty) -> Result<(), TypeError> {
        let sub = resolve(sub);
        match &*sub {
            Type::Unit
            | Type::Int
            | Type::Bool
            | Type::Str
            | Type::Real
            | Type::Dynamic
            | Type::Ref(_) => unify(sup, &sub),
            Type::Set(d) => {
                let s = self.fresh(Kind::Desc);
                unify(sup, &t_set(s.clone()))?;
                self.sub_propagate(d, &s)
            }
            Type::Record(fields) => {
                let holes: Vec<(crate::ty::Label, Ty)> =
                    fields.keys().map(|l| (*l, self.fresh(Kind::Any))).collect();
                let var = self.fresh(Kind::Record {
                    fields: holes.iter().cloned().collect(),
                    desc: true,
                });
                unify(sup, &var)?;
                for (l, hole) in &holes {
                    self.sub_propagate(&fields[l], hole)?;
                }
                Ok(())
            }
            Type::Variant(fields) => {
                // Variant labels are preserved by the ordering: the source
                // must be a variant with exactly these labels.
                let holes: Vec<(crate::ty::Label, Ty)> =
                    fields.keys().map(|l| (*l, self.fresh(Kind::Any))).collect();
                unify(sup, &t_variant(holes.clone()))?;
                for (l, hole) in &holes {
                    self.sub_propagate(&fields[l], hole)?;
                }
                Ok(())
            }
            Type::Rec(..) | Type::RecVar(_) | Type::Var(_) => {
                self.constraints.push(Constraint::Sub {
                    sub: sub.clone(),
                    sup: sup.clone(),
                });
                Ok(())
            }
            Type::Arrow(..) => Err(TypeError::NotDescription(crate::display::show_type(&sub))),
        }
    }

    fn binop_result(&mut self, op: BinOp, l: &Ty, r: &Ty) -> Result<Ty, TypeError> {
        use BinOp::*;
        match op {
            // `+ - * div mod` are overloaded on int and real, defaulting
            // to int when the operands leave the choice open (SML-style).
            Add | Sub | Mul | Div | Mod => {
                let t = self.numeric_operands(l, r)?;
                Ok(t)
            }
            RealDiv => {
                unify(l, &t_real())?;
                unify(r, &t_real())?;
                Ok(t_real())
            }
            Concat => {
                unify(l, &t_str())?;
                unify(r, &t_str())?;
                Ok(t_str())
            }
            Eq | Ne => {
                unify(l, r)?;
                require_desc(l)?;
                Ok(t_bool())
            }
            // Comparisons overload on int, real and string (default int).
            Lt | Gt | Le | Ge => {
                self.comparable_operands(l, r)?;
                Ok(t_bool())
            }
            Andalso | Orelse => {
                unify(l, &t_bool())?;
                unify(r, &t_bool())?;
                Ok(t_bool())
            }
        }
    }

    /// Unify the operands together, then admit int or real (defaulting an
    /// undetermined type to int).
    fn numeric_operands(&mut self, l: &Ty, r: &Ty) -> Result<Ty, TypeError> {
        unify(l, r)?;
        let t = resolve(l);
        match &*t {
            Type::Int | Type::Real => Ok(t),
            Type::Var(_) => {
                unify(&t, &t_int())?;
                Ok(t_int())
            }
            _ => {
                // Not numeric: report via the int unification error.
                unify(&t, &t_int())?;
                Ok(t_int())
            }
        }
    }

    /// As [`Self::numeric_operands`] but also admitting strings.
    fn comparable_operands(&mut self, l: &Ty, r: &Ty) -> Result<(), TypeError> {
        unify(l, r)?;
        let t = resolve(l);
        match &*t {
            Type::Int | Type::Real | Type::Str => Ok(()),
            Type::Var(_) => unify(&t, &t_int()),
            _ => unify(&t, &t_int()),
        }
    }

    /// The type of a first-class operator value (a binary function on a
    /// pair).
    fn binop_value_type(&mut self, op: BinOp) -> (Ty, Ty, Ty) {
        use BinOp::*;
        match op {
            Add | Sub | Mul | Div | Mod => (t_int(), t_int(), t_int()),
            RealDiv => (t_real(), t_real(), t_real()),
            Concat => (t_str(), t_str(), t_str()),
            Eq | Ne => {
                let d = self.fresh(Kind::Desc);
                (d.clone(), d, t_bool())
            }
            Lt | Gt | Le | Ge => (t_int(), t_int(), t_bool()),
            Andalso | Orelse => (t_bool(), t_bool(), t_bool()),
        }
    }
}

/// ML-style value restriction: only syntactic values generalize.
pub fn is_nonexpansive(e: &Expr) -> bool {
    use ExprKind::*;
    match &e.kind {
        Unit | Int(_) | Real(_) | Str(_) | Bool(_) | Var(_) | Lambda { .. } | OpVal(_) => true,
        Record(fields) => fields.iter().all(|(_, fe)| is_nonexpansive(fe)),
        Set(items) => items.iter().all(is_nonexpansive),
        Inject { expr, .. } => is_nonexpansive(expr),
        Rec { body, .. } => is_nonexpansive(body),
        _ => false,
    }
}

/// Convenience: infer a whole program from scratch, returning the phrase
/// types in order.
pub fn infer_program(src: &str) -> Result<Vec<PhraseType>, String> {
    let program = machiavelli_syntax::parse_program(src).map_err(|e| e.to_string())?;
    let mut inferencer = Inferencer::new();
    let mut env = inferencer.builtin_env();
    let mut out = Vec::with_capacity(program.len());
    for phrase in &program {
        out.push(
            inferencer
                .infer_phrase(&mut env, phrase)
                .map_err(|e| e.to_string())?,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Infer the last phrase of `src` and return its rendered scheme.
    fn infer_last(src: &str) -> String {
        let phrases = infer_program(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        phrases.last().unwrap().scheme.show()
    }

    fn infer_err(src: &str) -> String {
        infer_program(src).unwrap_err()
    }

    #[test]
    fn identity_is_polymorphic() {
        assert_eq!(infer_last("fun id(x) = x;"), "'a -> 'a");
        assert_eq!(infer_last("fun id(x) = x; id(1);"), "int");
    }

    #[test]
    fn literal_types() {
        assert_eq!(infer_last("1;"), "int");
        assert_eq!(infer_last("\"hello\";"), "string");
        assert_eq!(infer_last("true;"), "bool");
        assert_eq!(infer_last("1.5;"), "real");
        assert_eq!(infer_last("();"), "unit");
    }

    #[test]
    fn field_selection_is_polymorphic() {
        assert_eq!(infer_last("fun name(x) = x.Name;"), "[('a) Name:'b] -> 'b");
    }

    #[test]
    fn wealthy_example_from_intro() {
        let shown =
            infer_last("fun Wealthy(S) = select x.Name where x <- S with x.Salary > 100000;");
        assert_eq!(shown, "{[(\"a) Name:\"b,Salary:int]} -> {\"b}");
    }

    #[test]
    fn increment_age_from_fig1() {
        let shown = infer_last("fun increment_age(x) = modify(x, Age, x.Age + 1);");
        assert_eq!(shown, "[('a) Age:int] -> [('a) Age:int]");
    }

    #[test]
    fn phone_from_fig1() {
        let shown = infer_last(
            "fun phone(x) = (case x.Status of Employee of y => y.Extension,
                                              Consultant of y => y.Telephone);",
        );
        assert_eq!(
            shown,
            "[('a) Status:<Consultant:[('b) Telephone:'c],Employee:[('d) Extension:'c]>] -> 'c"
        );
    }

    #[test]
    fn join3_conditional_scheme() {
        let shown = infer_last("fun Join3(x,y,z) = join(x,join(y,z));");
        assert_eq!(
            shown,
            "(\"a * \"b * \"c) -> \"d where { \"d = \"a lub \"e, \"e = \"b lub \"c }"
        );
    }

    #[test]
    fn join3_application_resolves() {
        let shown = infer_last(
            "fun Join3(x,y,z) = join(x,join(y,z));
             Join3([Name=\"Joe\"],[Age=21],[Office=27]);",
        );
        assert_eq!(shown, "[Age:int,Name:string,Office:int]");
    }

    #[test]
    fn join_inconsistent_records_rejected() {
        let err = infer_err("join([Name=[First=\"Joe\"], Age=21], [Name=\"Joe\"]);");
        assert!(err.contains("no least upper bound"), "{err}");
    }

    #[test]
    fn project_example() {
        let shown =
            infer_last("project([Name=\"Joe\", Age=21, Salary=22340], [Name:string, Salary:int]);");
        assert_eq!(shown, "[Name:string,Salary:int]");
    }

    #[test]
    fn project_nested() {
        let shown = infer_last(
            "project([Name=[First=\"Joe\", Last=\"Doe\"], Salary=12345], [Name:[Last:string]]);",
        );
        assert_eq!(shown, "[Name:[Last:string]]");
    }

    #[test]
    fn project_not_substructure_rejected() {
        let err = infer_err("project([Age=21], [Name:string]);");
        assert!(err.contains("no field `Name`"), "{err}");
    }

    #[test]
    fn set_literals_and_union() {
        assert_eq!(infer_last("{1,2,3};"), "{int}");
        assert_eq!(infer_last("union({1},{2});"), "{int}");
        assert!(infer_err("{1,\"two\"};").contains("mismatch"));
    }

    #[test]
    fn sets_of_functions_rejected() {
        let err = infer_err("{(fn(x) => x)};");
        assert!(err.contains("not a description type"), "{err}");
    }

    #[test]
    fn hom_types() {
        assert_eq!(infer_last("hom((fn(x) => x), +, 0, {1,2,3});"), "int");
        assert_eq!(
            infer_last("fun sum(S) = hom((fn(x) => x), +, 0, S);"),
            "{int} -> int"
        );
        assert_eq!(
            infer_last("fun map(f,S) = hom((fn(x) => {f(x)}), union, {}, S);"),
            "((\"a -> \"b) * {\"a}) -> {\"b}"
        );
    }

    #[test]
    fn select_with_multiple_generators() {
        let shown = infer_last(
            "fun pairs(R,S) = select [A=x.A, B=y.B] where x <- R, y <- S with x.A = y.B;",
        );
        assert_eq!(
            shown,
            "({[(\"a) A:\"b]} * {[(\"c) B:\"b]}) -> {[A:\"b,B:\"b]}"
        );
    }

    #[test]
    fn references_and_assignment() {
        assert_eq!(
            infer_last("val d = ref([Building=45]);"),
            "ref([Building:int])"
        );
        assert_eq!(
            infer_last("val d = ref([Building=45]); !d;"),
            "[Building:int]"
        );
        assert_eq!(
            infer_last("val d = ref([Building=45]); d := modify(!d, Building, 67);"),
            "unit"
        );
    }

    #[test]
    fn ref_equality_is_allowed() {
        assert_eq!(infer_last("ref(3) = ref(3);"), "bool");
    }

    #[test]
    fn variant_injection_open() {
        let shown = infer_last("(Consultant of [Telephone=2221234]);");
        assert_eq!(shown, "<('a) Consultant:[Telephone:int]>");
    }

    #[test]
    fn case_with_other_keeps_row_open() {
        let shown = infer_last("fun isVal(x) = (case x of Value of v => true, other => false);");
        assert_eq!(shown, "<('a) Value:'b> -> bool");
    }

    #[test]
    fn as_extraction() {
        let shown = infer_last("fun getval(x) = x as Value;");
        assert_eq!(shown, "<('a) Value:'b> -> 'b");
    }

    #[test]
    fn unionc_glb() {
        let shown = infer_last("unionc({[Name=\"a\", Advisor=1]}, {[Name=\"b\", Salary=2]});");
        assert_eq!(shown, "{[Name:string]}");
    }

    #[test]
    fn con_is_bool() {
        assert_eq!(infer_last("con([A=1],[B=2]);"), "bool");
    }

    #[test]
    fn recursive_fun_closure() {
        let shown = infer_last(
            "fun member(x,S) = hom((fn(y) => x = y), orelse, false, S);
             fun Closure(R) =
               let val r = select [A=x.A,B=y.B]
                           where x <- R, y <- R
                           with (x.B = y.A) andalso not(member([A=x.A,B=y.B],R))
               in if r = {} then R else Closure(union(R,r))
               end;",
        );
        // Note: the predicate `x.B = y.A` forces the A and B fields to
        // share a type, so the principal type identifies them. (The
        // paper's Figure 4 prints distinct letters "a, "b but the two
        // are necessarily equal under its own equality rule.)
        assert_eq!(shown, "{[A:\"a,B:\"a]} -> {[A:\"a,B:\"a]}");
    }

    #[test]
    fn occurs_check_reported() {
        let err = infer_err("fun selfapp(x) = x(x);");
        assert!(err.contains("occurs check"), "{err}");
    }

    #[test]
    fn unbound_variable_reported() {
        let err = infer_err("nosuch;");
        assert!(err.contains("unbound variable `nosuch`"), "{err}");
    }

    #[test]
    fn dynamic_roundtrip() {
        assert_eq!(infer_last("dynamic([Name=\"Joe\"]);"), "dynamic");
        assert_eq!(
            infer_last("dynamic(dynamic([Name=\"Joe\"]), [Name: string]);"),
            "[Name:string]"
        );
    }

    #[test]
    fn let_polymorphism() {
        assert_eq!(
            infer_last("let id = (fn(x) => x) in (id(1), id(\"a\")) end;"),
            "int * string"
        );
    }

    #[test]
    fn value_restriction_blocks_generalization() {
        // `ref` results must not generalize.
        let err = infer_err(
            "fun id(x) = x;
             val r = ref(id);
             (r := (fn(x) => x + 1), (!r)(\"uh oh\"));",
        );
        assert!(!err.is_empty());
    }

    #[test]
    fn forced_resolution_of_variant_join() {
        // The Figure 3 shape: joining a ground variantful relation with a
        // variant-kinded literal resolves to the ground type.
        let shown = infer_last(
            "val parts = {[Pname=\"bolt\", Pinfo=(BasePart of [Cost=5])],
                          [Pname=\"engine\", Pinfo=(CompositePart of [AssemCost=1000])]};
             join(parts, {[Pinfo=(BasePart of [])]});",
        );
        assert_eq!(
            shown,
            "{[Pinfo:<BasePart:[Cost:int],CompositePart:[AssemCost:int]>,Pname:string]}"
        );
    }

    #[test]
    fn fun_with_tuple_of_sets() {
        let shown = infer_last("fun intersect(S,T) = join(S,T);");
        assert!(shown.contains("where"), "{shown}");
    }

    #[test]
    fn comparisons_overload_on_int_real_string() {
        assert_eq!(infer_last("\"a\" > \"b\";"), "bool");
        assert_eq!(infer_last("1.5 < 2.0;"), "bool");
        assert_eq!(infer_last("1 < 2;"), "bool");
        // … but not on bools or records.
        assert!(infer_err("true < false;").contains("mismatch"));
        assert!(infer_err("[A=1] < [A=2];").contains("mismatch"));
    }

    #[test]
    fn arithmetic_overloads_with_int_default() {
        assert_eq!(infer_last("1.5 + 2.5;"), "real");
        assert_eq!(infer_last("1 + 2;"), "int");
        // Undetermined operands default to int.
        assert_eq!(infer_last("fun dbl(x) = x + x;"), "int -> int");
        assert!(infer_err("\"a\" + \"b\";").contains("mismatch"));
    }

    #[test]
    fn string_concat() {
        assert_eq!(infer_last("\"a\" ^ \"b\";"), "string");
    }

    #[test]
    fn empty_set_stays_polymorphic_symbolically() {
        assert_eq!(infer_last("{};"), "{\"a}");
    }

    #[test]
    fn tuples_infer_as_products() {
        assert_eq!(infer_last("(1, \"two\", true);"), "int * string * bool");
    }
}
