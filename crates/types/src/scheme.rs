//! Conditional type schemes: generalization and instantiation.
//!
//! A [`Scheme`] is the paper's *principal conditional type-scheme*: a body
//! type, the set of quantified (kinded) variables, and the unresolved
//! conditions (`lub`/`glb`/`≤`) that any instance must satisfy.

use crate::constraint::Constraint;
use crate::display::{show_type_with, TypeNamer};
use crate::kind::Kind;
use crate::ty::{free_vars, resolve, TvRef, Ty, Type, VarGen};
use std::collections::HashMap;
use std::rc::Rc;

/// A (possibly conditional) polymorphic type scheme.
#[derive(Debug, Clone)]
pub struct Scheme {
    /// Quantified variables (unbound cells owned by this scheme).
    pub vars: Vec<TvRef>,
    /// Conditions carried by the scheme; re-activated at each instantiation.
    pub constraints: Vec<Constraint>,
    /// The body type.
    pub body: Ty,
}

impl Scheme {
    /// A monomorphic scheme (no quantification, no conditions).
    pub fn mono(body: Ty) -> Scheme {
        Scheme {
            vars: Vec::new(),
            constraints: Vec::new(),
            body,
        }
    }

    /// True when the scheme holds no type variable, quantified or not,
    /// and no condition. Type variables are shared mutable cells, so
    /// only such a scheme can be reused without replaying the
    /// unifications that built it.
    pub fn is_ground(&self) -> bool {
        self.vars.is_empty() && self.constraints.is_empty() && crate::ty::is_ground(&self.body)
    }

    /// Render as the paper prints it: the body, then a
    /// `where { … }` clause when conditions remain.
    pub fn show(&self) -> String {
        let mut namer = TypeNamer::new();
        let mut out = show_type_with(&self.body, &mut namer);
        if !self.constraints.is_empty() {
            // Print outermost condition first (the paper's order): the
            // constraints were pushed innermost-first during inference.
            let parts: Vec<String> = self
                .constraints
                .iter()
                .rev()
                .map(|c| c.show(&mut namer))
                .collect();
            out.push_str(&format!(" where {{ {} }}", parts.join(", ")));
        }
        out
    }
}

/// Generalize `body` at `level`: quantify every free variable bound deeper
/// than `level`, and move the pending constraints that mention any
/// quantified variable out of `pending` into the scheme.
///
/// Moving a constraint can drag further deep variables into the quantified
/// set (e.g. the fresh result variable of a `con`), so the computation
/// iterates to a fixpoint.
pub fn generalize(body: &Ty, pending: &mut Vec<Constraint>, level: u32) -> Scheme {
    let mut quantified: Vec<TvRef> = Vec::new();
    collect_deep(body, level, &mut quantified);

    let mut moved: Vec<Constraint> = Vec::new();
    loop {
        let mut progressed = false;
        let mut keep = Vec::with_capacity(pending.len());
        for c in pending.drain(..) {
            let mut cvars = Vec::new();
            for t in c.types() {
                free_vars(&t, &mut cvars);
            }
            if cvars.iter().any(|v| quantified.contains(v)) {
                // The constraint joins the scheme; its other deep
                // variables become quantified too.
                for v in cvars {
                    if v.level() > level && !quantified.contains(&v) {
                        quantified.push(v);
                    }
                }
                moved.push(c);
                progressed = true;
            } else {
                keep.push(c);
            }
        }
        *pending = keep;
        if !progressed {
            break;
        }
    }

    Scheme {
        vars: quantified,
        constraints: moved,
        body: body.clone(),
    }
}

fn collect_deep(t: &Ty, level: u32, out: &mut Vec<TvRef>) {
    let mut all = Vec::new();
    free_vars(t, &mut all);
    for v in all {
        if v.level() > level && !out.contains(&v) {
            out.push(v);
        }
    }
}

/// Instantiate `scheme`: replace each quantified variable with a fresh one
/// at `level` (kinds copied, with their field types instantiated too), and
/// push copies of the scheme's constraints onto `out_constraints`.
pub fn instantiate(
    scheme: &Scheme,
    gen: &VarGen,
    level: u32,
    out_constraints: &mut Vec<Constraint>,
) -> Ty {
    if scheme.vars.is_empty() && scheme.constraints.is_empty() {
        return scheme.body.clone();
    }
    let mut map: HashMap<usize, TvRef> = HashMap::new();
    // Phase 1: allocate fresh cells (kinds filled in phase 2, so kinds may
    // reference other quantified variables).
    for v in &scheme.vars {
        let fresh = gen.fresh(Kind::Any, level);
        map.insert(Rc::as_ptr(&v.0) as usize, fresh);
    }
    // Phase 2: copy kinds across the substitution.
    for v in &scheme.vars {
        let fresh = map[&(Rc::as_ptr(&v.0) as usize)].clone();
        let kind = match v.kind() {
            Kind::Any => Kind::Any,
            Kind::Desc => Kind::Desc,
            Kind::Record { fields, desc } => Kind::Record {
                fields: fields.iter().map(|(l, t)| (*l, copy_ty(t, &map))).collect(),
                desc,
            },
            Kind::Variant { fields, desc } => Kind::Variant {
                fields: fields.iter().map(|(l, t)| (*l, copy_ty(t, &map))).collect(),
                desc,
            },
        };
        fresh.set_kind(kind);
    }
    for c in &scheme.constraints {
        out_constraints.push(copy_constraint(c, &map));
    }
    copy_ty(&scheme.body, &map)
}

fn copy_constraint(c: &Constraint, map: &HashMap<usize, TvRef>) -> Constraint {
    match c {
        Constraint::Lub {
            result,
            left,
            right,
        } => Constraint::Lub {
            result: copy_ty(result, map),
            left: copy_ty(left, map),
            right: copy_ty(right, map),
        },
        Constraint::Glb {
            result,
            left,
            right,
        } => Constraint::Glb {
            result: copy_ty(result, map),
            left: copy_ty(left, map),
            right: copy_ty(right, map),
        },
        Constraint::Sub { sub, sup } => Constraint::Sub {
            sub: copy_ty(sub, map),
            sup: copy_ty(sup, map),
        },
    }
}

/// Structure-sharing copy of `t` under the variable substitution `map`
/// (non-quantified variables and variable-free subtrees are shared).
fn copy_ty(t: &Ty, map: &HashMap<usize, TvRef>) -> Ty {
    let t = resolve(t);
    match &*t {
        Type::Unit
        | Type::Int
        | Type::Bool
        | Type::Str
        | Type::Real
        | Type::Dynamic
        | Type::RecVar(_) => t,
        Type::Var(v) => match map.get(&(Rc::as_ptr(&v.0) as usize)) {
            Some(fresh) => Rc::new(Type::Var(fresh.clone())),
            None => t.clone(),
        },
        Type::Arrow(a, b) => {
            let ca = copy_ty(a, map);
            let cb = copy_ty(b, map);
            if Rc::ptr_eq(&ca, a) && Rc::ptr_eq(&cb, b) {
                t.clone()
            } else {
                Rc::new(Type::Arrow(ca, cb))
            }
        }
        Type::Record(fs) => Rc::new(Type::Record(
            fs.iter().map(|(l, ft)| (*l, copy_ty(ft, map))).collect(),
        )),
        Type::Variant(fs) => Rc::new(Type::Variant(
            fs.iter().map(|(l, ft)| (*l, copy_ty(ft, map))).collect(),
        )),
        Type::Set(e) => {
            let ce = copy_ty(e, map);
            if Rc::ptr_eq(&ce, e) {
                t.clone()
            } else {
                Rc::new(Type::Set(ce))
            }
        }
        Type::Ref(e) => {
            let ce = copy_ty(e, map);
            if Rc::ptr_eq(&ce, e) {
                t.clone()
            } else {
                Rc::new(Type::Ref(ce))
            }
        }
        Type::Rec(v, body) => {
            let cb = copy_ty(body, map);
            if Rc::ptr_eq(&cb, body) {
                t.clone()
            } else {
                Rc::new(Type::Rec(*v, cb))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::*;
    use crate::unify::unify;

    #[test]
    fn generalize_then_instantiate_fresh() {
        let gen = VarGen::new();
        // λx. x inferred at level 1: 'a -> 'a with 'a at level 1.
        let a = gen.fresh_ty(Kind::Any, 1);
        let body = t_arrow(a.clone(), a);
        let mut pending = Vec::new();
        let scheme = generalize(&body, &mut pending, 0);
        assert_eq!(scheme.vars.len(), 1);

        let mut cs = Vec::new();
        let inst1 = instantiate(&scheme, &gen, 1, &mut cs);
        let inst2 = instantiate(&scheme, &gen, 1, &mut cs);
        // The two instances unify with different types independently.
        unify(&inst1, &t_arrow(t_int(), t_int())).unwrap();
        unify(&inst2, &t_arrow(t_bool(), t_bool())).unwrap();
    }

    #[test]
    fn shallow_vars_not_quantified() {
        let gen = VarGen::new();
        let shallow = gen.fresh_ty(Kind::Any, 0);
        let deep = gen.fresh_ty(Kind::Any, 3);
        let body = t_arrow(shallow.clone(), deep);
        let mut pending = Vec::new();
        let scheme = generalize(&body, &mut pending, 0);
        assert_eq!(scheme.vars.len(), 1);
        let mut cs = Vec::new();
        let inst = instantiate(&scheme, &gen, 1, &mut cs);
        // The shallow var is shared between instance and original.
        let Type::Arrow(lhs, _) = &*inst else {
            panic!()
        };
        assert!(std::rc::Rc::ptr_eq(&resolve(lhs), &resolve(&shallow)));
    }

    #[test]
    fn constraints_move_into_scheme() {
        let gen = VarGen::new();
        let a = gen.fresh_ty(Kind::Desc, 1);
        let b = gen.fresh_ty(Kind::Desc, 1);
        let r = gen.fresh_ty(Kind::Desc, 1);
        let body = t_arrow(t_tuple([a.clone(), b.clone()]), r.clone());
        let mut pending = vec![Constraint::Lub {
            result: r,
            left: a,
            right: b,
        }];
        let scheme = generalize(&body, &mut pending, 0);
        assert!(pending.is_empty());
        assert_eq!(scheme.constraints.len(), 1);
        assert_eq!(scheme.vars.len(), 3);
    }

    #[test]
    fn unrelated_constraints_stay_pending() {
        let gen = VarGen::new();
        let a = gen.fresh_ty(Kind::Any, 1);
        let body = t_arrow(a.clone(), a);
        let outer1 = gen.fresh_ty(Kind::Desc, 0);
        let outer2 = gen.fresh_ty(Kind::Desc, 0);
        let outer3 = gen.fresh_ty(Kind::Desc, 0);
        let mut pending = vec![Constraint::Lub {
            result: outer3,
            left: outer1,
            right: outer2,
        }];
        let scheme = generalize(&body, &mut pending, 0);
        assert_eq!(pending.len(), 1);
        assert!(scheme.constraints.is_empty());
    }

    #[test]
    fn kinded_vars_instantiate_with_copied_kinds() {
        let gen = VarGen::new();
        let field = gen.fresh_ty(Kind::Desc, 1);
        let row = gen.fresh(Kind::record([("Name".into(), field.clone())], true), 1);
        let row_ty: Ty = Rc::new(Type::Var(row));
        let body = t_arrow(t_set(row_ty), t_set(field));
        let mut pending = Vec::new();
        let scheme = generalize(&body, &mut pending, 0);
        assert_eq!(scheme.vars.len(), 2);

        let mut cs = Vec::new();
        let inst = instantiate(&scheme, &gen, 1, &mut cs);
        // Instantiating and unifying the domain with a concrete relation
        // pins the instance's range, not the scheme.
        let rel = t_set(t_record([
            ("Name".into(), t_str()),
            ("Salary".into(), t_int()),
        ]));
        let out = gen.fresh_ty(Kind::Any, 1);
        unify(&inst, &t_arrow(rel, out.clone())).unwrap();
        assert_eq!(crate::display::show_type(&resolve(&out)), "{string}");
        // Original scheme unchanged: a second instance is still generic.
        let inst2 = instantiate(&scheme, &gen, 1, &mut cs);
        let rel2 = t_set(t_record([("Name".into(), t_int())]));
        let out2 = gen.fresh_ty(Kind::Any, 1);
        unify(&inst2, &t_arrow(rel2, out2.clone())).unwrap();
        assert_eq!(crate::display::show_type(&resolve(&out2)), "{int}");
    }

    #[test]
    fn scheme_show_where_clause() {
        let gen = VarGen::new();
        let a = gen.fresh_ty(Kind::Desc, 1);
        let b = gen.fresh_ty(Kind::Desc, 1);
        let r = gen.fresh_ty(Kind::Desc, 1);
        let body = t_arrow(t_tuple([a.clone(), b.clone()]), r.clone());
        let mut pending = vec![Constraint::Lub {
            result: r,
            left: a,
            right: b,
        }];
        let scheme = generalize(&body, &mut pending, 0);
        let shown = scheme.show();
        assert!(shown.contains("where {"), "{shown}");
        assert!(shown.contains("lub"), "{shown}");
    }
}
