//! Logical planning: generator-dependency analysis and predicate
//! decomposition, producing one [`Step`] per generator.
//!
//! The plan borrows the comprehension's AST — compiling performs no
//! expression clones, so re-planning a `select` on every evaluation (the
//! evaluator has no per-expression cache) costs one linear analysis pass.

use crate::analysis::{is_safe_expr, mentions_any, split_conjuncts, Conjunct};
use machiavelli_syntax::ast::{BinOp, Expr, ExprKind, Generator};
use machiavelli_syntax::pretty::expr_to_string;
use machiavelli_syntax::symbol::Symbol;
use std::fmt;

/// Why a comprehension was left to the nested-loop fallback.
///
/// Borrows the offending expression and renders lazily: the evaluator
/// calls `compile` on every `select` evaluation and discards the reason
/// on the (hot) fallback path — only `plan_of`/`:plan` ever format it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Unplannable<'a> {
    NoGenerators,
    DuplicateBinder(Symbol),
    UnsafeDependentSource { var: Symbol, source: &'a Expr },
    UnsafeConjunct(&'a Expr),
}

impl Unplannable<'_> {
    /// The typed code this planner fallback reports into the engine-wide
    /// decline taxonomy (the evaluator emits it via
    /// `EngineCtx::note_decline` when it takes the `select_loop`
    /// fallback).
    pub fn decline_reason(&self) -> machiavelli_trace::DeclineReason {
        match self {
            Unplannable::NoGenerators => machiavelli_trace::DeclineReason::PlannerNoGenerators,
            Unplannable::DuplicateBinder(_) => {
                machiavelli_trace::DeclineReason::PlannerDuplicateBinder
            }
            Unplannable::UnsafeDependentSource { .. } => {
                machiavelli_trace::DeclineReason::PlannerUnsafeDependentSource
            }
            Unplannable::UnsafeConjunct(_) => {
                machiavelli_trace::DeclineReason::PlannerUnsafeConjunct
            }
        }
    }
}

impl fmt::Display for Unplannable<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unplannable::NoGenerators => write!(f, "comprehension has no generators"),
            Unplannable::DuplicateBinder(b) => {
                write!(f, "generator binder `{b}` shadows an earlier generator")
            }
            Unplannable::UnsafeDependentSource { var, source } => write!(
                f,
                "dependent source of `{var}` is not planner-safe: {}",
                expr_to_string(source)
            ),
            Unplannable::UnsafeConjunct(e) => write!(
                f,
                "predicate conjunct is not planner-safe: {}",
                expr_to_string(e)
            ),
        }
    }
}

/// An equi-join conjunct `probe = build` usable for hash build/probe:
/// `probe` mentions only earlier generator binders (at least one), and
/// `build` mentions only the binder of the step it is attached to.
#[derive(Debug, Clone, Copy)]
pub struct EquiKey<'a> {
    pub probe: &'a Expr,
    pub build: &'a Expr,
}

/// The plan for one generator, in original generator order.
#[derive(Debug)]
pub struct Step<'a> {
    /// The generator's binder.
    pub var: Symbol,
    /// The generator's source expression.
    pub source: &'a Expr,
    /// True when the source mentions an earlier binder and must be
    /// re-evaluated per outer binding (a strict extension of the paper's
    /// product semantics, matching `select_loop`).
    pub dependent: bool,
    /// Pushed-down conjuncts mentioning only this step's binder.
    pub filters: Vec<Conjunct<'a>>,
    /// Equi-join conjuncts linking this step to earlier binders
    /// (non-empty ⇒ the physical plan uses a hash build/probe join;
    /// only ever non-empty on independent, non-first steps).
    pub keys: Vec<EquiKey<'a>>,
    /// Conjuncts that need this step's binder *and* earlier ones but do
    /// not fit the equi-join pattern: evaluated once this binder is
    /// bound (the earliest point the nested loop could decide them).
    pub residual: Vec<Conjunct<'a>>,
}

/// A compiled comprehension: steps in generator order plus the result.
#[derive(Debug)]
pub struct LogicalPlan<'a> {
    pub steps: Vec<Step<'a>>,
    pub result: &'a Expr,
}

/// Compile a comprehension into a [`LogicalPlan`], or decline with the
/// reason (the caller falls back to the nested-loop semantics; see the
/// crate docs for the exact contract).
pub fn compile<'a>(
    generators: &'a [Generator],
    pred: &'a Expr,
    result: &'a Expr,
) -> Result<LogicalPlan<'a>, Unplannable<'a>> {
    if generators.is_empty() {
        return Err(Unplannable::NoGenerators);
    }
    let binders: Vec<Symbol> = generators.iter().map(|g| g.var).collect();
    for (i, b) in binders.iter().enumerate() {
        if binders[..i].contains(b) {
            return Err(Unplannable::DuplicateBinder(*b));
        }
    }

    let mut steps: Vec<Step<'a>> = Vec::with_capacity(generators.len());
    for (i, g) in generators.iter().enumerate() {
        let dependent = mentions_any(&g.source, &binders[..i]);
        if dependent && !is_safe_expr(&g.source) {
            return Err(Unplannable::UnsafeDependentSource {
                var: g.var,
                source: &g.source,
            });
        }
        steps.push(Step {
            var: g.var,
            source: &g.source,
            dependent,
            filters: Vec::new(),
            keys: Vec::new(),
            residual: Vec::new(),
        });
    }

    for c in split_conjuncts(pred) {
        if !is_safe_expr(c.expr) {
            return Err(Unplannable::UnsafeConjunct(c.expr));
        }
        // The level of a conjunct is the last generator it mentions: the
        // earliest point the nested loop could have decided it.
        let level = (0..binders.len())
            .rev()
            .find(|&i| mentions_any(c.expr, &binders[i..i + 1]))
            .unwrap_or(0);
        let step_independent = !steps[level].dependent;
        let step = &mut steps[level];
        if !mentions_any(c.expr, &binders[..level]) {
            // Mentions at most this step's binder: a pushdown filter.
            step.filters.push(c);
        } else if let Some(key) = equi_key(c.expr, &binders, level) {
            if step_independent {
                step.keys.push(key);
            } else {
                // A dependent source is re-evaluated per outer binding —
                // there is no single build side to hash.
                step.residual.push(c);
            }
        } else {
            step.residual.push(c);
        }
    }

    Ok(LogicalPlan { steps, result })
}

/// Recognize `a = b` where one side mentions only earlier binders (at
/// least one) and the other only the level's binder — the hash-joinable
/// shape. Both orientations are accepted.
fn equi_key<'a>(e: &'a Expr, binders: &[Symbol], level: usize) -> Option<EquiKey<'a>> {
    let ExprKind::Binop {
        op: BinOp::Eq,
        left,
        right,
    } = &e.kind
    else {
        return None;
    };
    let this = &binders[level..level + 1];
    let earlier = &binders[..level];
    let later = &binders[level + 1..];
    let side = |e: &'a Expr| -> Option<bool> {
        // `true` = pure build side (this binder only), `false` = pure
        // probe side (earlier binders only, at least one).
        if mentions_any(e, later) {
            return None;
        }
        match (mentions_any(e, this), mentions_any(e, earlier)) {
            (true, false) => Some(true),
            (false, true) => Some(false),
            _ => None,
        }
    };
    match (side(left), side(right)) {
        (Some(false), Some(true)) => Some(EquiKey {
            probe: left,
            build: right,
        }),
        (Some(true), Some(false)) => Some(EquiKey {
            probe: right,
            build: left,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machiavelli_syntax::parse_expr;

    fn parts(src: &str) -> (Vec<Generator>, Expr, Expr) {
        let e = parse_expr(src).unwrap();
        let ExprKind::Select {
            result,
            generators,
            pred,
        } = e.kind
        else {
            panic!("not a select: {src}")
        };
        (generators, *pred, *result)
    }

    #[test]
    fn two_generator_equi_join_plans_hash() {
        let (g, p, r) =
            parts("select (x.A, y.B) where x <- r, y <- s with x.K = y.K andalso y.B > 1");
        let plan = compile(&g, &p, &r).unwrap();
        assert_eq!(plan.steps.len(), 2);
        assert!(!plan.steps[1].dependent);
        assert_eq!(plan.steps[1].keys.len(), 1);
        assert_eq!(plan.steps[1].filters.len(), 1, "y.B > 1 pushes down");
        assert!(plan.steps[0].filters.is_empty());
        assert!(plan.steps.iter().all(|s| s.residual.is_empty()));
    }

    #[test]
    fn swapped_orientation_detected() {
        let (g, p, r) = parts("select x where x <- r, y <- s with y.K = x.K");
        let plan = compile(&g, &p, &r).unwrap();
        assert_eq!(plan.steps[1].keys.len(), 1);
        assert_eq!(expr_to_string(plan.steps[1].keys[0].probe), "x.K");
        assert_eq!(expr_to_string(plan.steps[1].keys[0].build), "y.K");
    }

    #[test]
    fn dependent_source_classified() {
        let (g, p, r) = parts("select s where p <- db, s <- p.Suppliers with true");
        let plan = compile(&g, &p, &r).unwrap();
        assert!(!plan.steps[0].dependent);
        assert!(plan.steps[1].dependent);
    }

    #[test]
    fn non_equi_goes_residual() {
        let (g, p, r) = parts("select x where x <- r, y <- s with x.K < y.K");
        let plan = compile(&g, &p, &r).unwrap();
        assert!(plan.steps[1].keys.is_empty());
        assert_eq!(plan.steps[1].residual.len(), 1);
    }

    #[test]
    fn unsafe_pred_declines() {
        let (g, p, r) = parts("select x where x <- r with 1 div x.A = 0");
        let err = compile(&g, &p, &r).unwrap_err();
        assert!(err.to_string().contains("not planner-safe"), "{err}");
    }

    #[test]
    fn unsafe_dependent_source_declines() {
        let (g, p, r) = parts("select y where x <- r, y <- f(x) with true");
        assert!(compile(&g, &p, &r).is_err());
        // …but an unsafe *independent* source is fine (evaluated once).
        let (g, p, r) = parts("select y where x <- r, y <- f(r) with true");
        assert!(compile(&g, &p, &r).is_ok());
    }

    #[test]
    fn duplicate_binder_declines() {
        let (g, p, r) = parts("select x where x <- r, x <- s with true");
        assert!(compile(&g, &p, &r).is_err());
    }

    #[test]
    fn env_constant_equality_is_a_filter_not_a_join() {
        let (g, p, r) = parts("select y where x <- r, y <- s with y.K = limit");
        let plan = compile(&g, &p, &r).unwrap();
        assert!(plan.steps[1].keys.is_empty());
        assert_eq!(plan.steps[1].filters.len(), 1);
    }
}
