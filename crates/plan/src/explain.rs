//! Rendering of physical plans for `Session::plan_of` and the REPL's
//! `:plan` command. One operator per line, children indented two spaces;
//! expressions print in concrete syntax via the syntax crate's pretty
//! printer. Golden-plan tests pin this format.
//!
//! Store-backed operators carry an index marker: `HashJoin[idx cached]`
//! when the session's index store currently holds a live index with the
//! operator's fingerprint (the next execution will probe it),
//! `HashJoin[idx build]` when the next execution will build one, and a
//! bare `HashJoin` when the build table is environment-dependent and
//! never cached. The marker is a *display-level* probe by fingerprint —
//! rendering a plan does not evaluate the source, so the store cannot
//! be asked for the exact (storage, fingerprint) key the executor uses.
//!
//! A swappable join (see `physical::SwapInfo`) whose *first-generator*
//! side holds the live cached index renders with its sides exchanged as
//! `HashJoin[idx cached, swapped]` — the orientation the executor will
//! choose at open. (The size-based flip for two uncached sides depends
//! on relation cardinalities and cannot be predicted without
//! evaluating; it renders in the unswapped orientation.)
//!
//! A join that is **statically eligible** for the plain-key join path
//! (`physical::ParInfo`, decided once at plan time) carries a `par`
//! marker: `HashJoin[par]` for an uncached join whose build and probe
//! sides are both covered, `HashJoin[idx cached, par]` for a cached
//! index in plain form with covered probe keys. Only what is fixed at
//! plan time is rendered — never the ambient worker-thread count, so a
//! plan reads the same on every host. Whether an execution actually
//! fans out (lane enabled, >1 threads, size gate, every key extracting
//! to plain data) and at what degree is on the `:analyze` span.

use crate::analysis::Conjunct;
use crate::physical::{IndexKey, ParInfo, PhysOp, PhysicalPlan};
use machiavelli_store::IndexKind;
use machiavelli_syntax::pretty::expr_to_string;
use std::fmt::Write as _;

/// The `[idx cached]` / `[idx build]` marker for a cacheable operator.
fn idx_marker(fingerprint: &str) -> &'static str {
    if machiavelli_store::with_store(|s| s.has_fingerprint(fingerprint)) {
        "[idx cached]"
    } else {
        "[idx build]"
    }
}

/// The `, par` suffix for a cached **plain** index with eligible probe
/// keys: the next execution can probe it on the plain-key path.
fn cached_par_suffix(kind: IndexKind, par: &Option<ParInfo>) -> &'static str {
    match (kind, par) {
        (IndexKind::Plain, Some(_)) => ", par",
        _ => "",
    }
}

/// The `[par]` marker for an uncached join statically eligible for the
/// plain-key path (build and probe sides both covered).
fn par_marker(par: &Option<ParInfo>) -> &'static str {
    if par.as_ref().is_some_and(|i| i.build_ok) {
        "[par]"
    } else {
        ""
    }
}

/// Render the operator tree, e.g.:
///
/// ```text
/// Project (x.Pname, y.Sname)
///   HashJoin[idx build] probe(x.S#) build(y.S#)
///     Scan x <- parts
///     Build y <- suppliers filter (y.City = "Paris")
/// ```
pub fn explain(plan: &PhysicalPlan<'_>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Project {}", expr_to_string(plan.result));
    render(&plan.root, 1, &mut out);
    // Drop the trailing newline for easy embedding in REPL output.
    out.truncate(out.trim_end().len());
    out
}

/// The ` filter (…)` suffix of a scan/build line. Shared with the
/// executor's trace-span labels (`physical::op_label`), so `:plan` and
/// `:analyze` render filters identically.
pub(crate) fn filters_suffix(filters: &[Conjunct<'_>]) -> String {
    if filters.is_empty() {
        return String::new();
    }
    let rendered: Vec<String> = filters.iter().map(|c| expr_to_string(c.expr)).collect();
    format!(" filter ({})", rendered.join(" andalso "))
}

/// Comma-joined key expressions for `probe(…)`/`build(…)` lists.
/// Shared with the executor's trace-span labels.
pub(crate) fn keys_list(keys: &[&machiavelli_syntax::ast::Expr]) -> String {
    keys.iter()
        .map(|k| expr_to_string(k))
        .collect::<Vec<_>>()
        .join(", ")
}

fn render(op: &PhysOp<'_>, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    match op {
        PhysOp::Scan {
            var,
            source,
            filters,
        } => {
            let _ = writeln!(
                out,
                "{pad}Scan {var} <- {}{}",
                expr_to_string(source),
                filters_suffix(filters)
            );
        }
        PhysOp::NestedLoop {
            input,
            var,
            source,
            dependent,
            filters,
        } => {
            let dep = if *dependent { " (dependent)" } else { "" };
            let _ = writeln!(
                out,
                "{pad}NestedLoop {var} <- {}{dep}{}",
                expr_to_string(source),
                filters_suffix(filters)
            );
            render(input, depth + 1, out);
        }
        PhysOp::IndexScan {
            var,
            source,
            keys,
            filters,
            fingerprint,
        } => {
            let rendered: Vec<String> = keys
                .iter()
                .map(|IndexKey { on, probe }| {
                    format!("{} = {}", expr_to_string(on), expr_to_string(probe))
                })
                .collect();
            let _ = writeln!(
                out,
                "{pad}IndexScan{} {var} <- {} key({}){}",
                idx_marker(fingerprint),
                expr_to_string(source),
                rendered.join(", "),
                filters_suffix(filters)
            );
        }
        PhysOp::HashJoin {
            input,
            var,
            source,
            filters,
            probe_keys,
            build_keys,
            fingerprint,
            par,
            swap,
        } => {
            // Predict the build-side flip the executor will take at
            // open: the swapped side holds the live cached index and
            // the normal side does not. Mirrors the open-time decision
            // at display level (by fingerprint, not storage).
            let normal_kind = fingerprint
                .as_ref()
                .and_then(|fp| machiavelli_store::with_store(|s| s.fingerprint_kind(fp)));
            if normal_kind.is_none() {
                if let Some(sw) = swap {
                    let swapped_kind =
                        machiavelli_store::with_store(|s| s.fingerprint_kind(&sw.fingerprint));
                    if let (
                        Some(kind),
                        PhysOp::Scan {
                            var: pvar,
                            source: psource,
                            filters: pfilters,
                        },
                    ) = (swapped_kind, input.as_ref())
                    {
                        // Sides exchange: the second generator streams,
                        // the first builds (its pushed filters baked in).
                        let _ = writeln!(
                            out,
                            "{pad}HashJoin[idx cached, swapped{}] probe({}) build({})",
                            cached_par_suffix(kind, &sw.par),
                            keys_list(build_keys),
                            keys_list(probe_keys)
                        );
                        let _ = writeln!(
                            out,
                            "{pad}  Scan {var} <- {}{}",
                            expr_to_string(source),
                            filters_suffix(filters)
                        );
                        let _ = writeln!(
                            out,
                            "{pad}  Build {pvar} <- {}{}",
                            expr_to_string(psource),
                            filters_suffix(pfilters)
                        );
                        return;
                    }
                }
            }
            let marker = match (fingerprint, normal_kind) {
                (Some(_), Some(kind)) => {
                    format!("[idx cached{}]", cached_par_suffix(kind, par))
                }
                (Some(_), None) => "[idx build]".to_string(),
                (None, _) => par_marker(par).to_string(),
            };
            let _ = writeln!(
                out,
                "{pad}HashJoin{marker} probe({}) build({})",
                keys_list(probe_keys),
                keys_list(build_keys)
            );
            render(input, depth + 1, out);
            let _ = writeln!(
                out,
                "{pad}  Build {var} <- {}{}",
                expr_to_string(source),
                filters_suffix(filters)
            );
        }
        PhysOp::Filter { input, conjuncts } => {
            let rendered: Vec<String> = conjuncts.iter().map(|c| expr_to_string(c.expr)).collect();
            let _ = writeln!(out, "{pad}Filter ({})", rendered.join(" andalso "));
            render(input, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::compile;
    use machiavelli_syntax::ast::ExprKind;
    use machiavelli_syntax::parse_expr;

    fn plan_text(src: &str) -> String {
        // Render against an empty store so the idx marker is
        // deterministic (`[idx build]`).
        machiavelli_store::with_store(|s| s.reset());
        let e = parse_expr(src).unwrap();
        let ExprKind::Select {
            result,
            generators,
            pred,
        } = &e.kind
        else {
            panic!()
        };
        explain(&compile(generators, pred, result).unwrap().physical())
    }

    #[test]
    fn hash_join_rendering() {
        let text =
            plan_text("select (x.A, y.B) where x <- r, y <- s with x.K = y.K andalso y.B > 1");
        assert_eq!(
            text,
            "Project (x.A, y.B)\n  \
             HashJoin[idx build] probe(x.K) build(y.K)\n    \
             Scan x <- r\n    \
             Build y <- s filter (y.B > 1)"
        );
    }

    #[test]
    fn uncached_eligible_join_renders_par_marker() {
        // View-call sources construct fresh storage, so the join is
        // never store-cached — both key closures are plain-evaluable,
        // so it renders the static `par` marker instead (at any thread
        // count: the marker is eligibility, not a degree).
        for threads in [1, 4] {
            let prev = machiavelli_value::tuning::set_par_threads(Some(threads));
            let text = plan_text(
                "select (x.A, y.B) where x <- V(r), y <- W(s) \
                 with x.A > 1 andalso x.K = y.K andalso y.B > 2",
            );
            machiavelli_value::tuning::set_par_threads(prev);
            assert_eq!(
                text,
                "Project (x.A, y.B)\n  \
                 HashJoin[par] probe(x.K) build(y.K)\n    \
                 Scan x <- V(r) filter (x.A > 1)\n    \
                 Build y <- W(s) filter (y.B > 2)"
            );
        }
    }

    #[test]
    fn environment_dependent_join_renders_without_marker() {
        let text =
            plan_text("select (x.A, y.B) where x <- r, y <- s with x.K = y.K andalso y.B > cutoff");
        assert_eq!(
            text,
            "Project (x.A, y.B)\n  \
             HashJoin probe(x.K) build(y.K)\n    \
             Scan x <- r\n    \
             Build y <- s filter (y.B > cutoff)"
        );
    }

    #[test]
    fn index_scan_rendering() {
        let text = plan_text("select x.A where x <- r with x.K = limit andalso x.A > 0");
        assert_eq!(
            text,
            "Project x.A\n  \
             IndexScan[idx build] x <- r key(x.K = limit) filter (x.A > 0)"
        );
    }

    #[test]
    fn nested_loop_and_residual_rendering() {
        let text = plan_text("select x where x <- r, y <- s with x.K < y.K");
        assert_eq!(
            text,
            "Project x\n  \
             Filter (x.K < y.K)\n    \
             NestedLoop y <- s\n      \
             Scan x <- r"
        );
    }

    #[test]
    fn dependent_rendering() {
        let text = plan_text("select s where p <- db, s <- p.Suppliers with true");
        assert_eq!(
            text,
            "Project s\n  \
             NestedLoop s <- p.Suppliers (dependent)\n    \
             Scan p <- db"
        );
    }
}
