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

use crate::analysis::Conjunct;
use crate::physical::{IndexKey, PhysOp, PhysicalPlan};
use machiavelli_store::with_store;
use machiavelli_syntax::pretty::expr_to_string;
use std::fmt::Write as _;

/// Does the store hold a live index with this fingerprint?
fn cached(fingerprint: &str) -> bool {
    with_store(|s| s.has_fingerprint(fingerprint))
}

/// The `[idx cached]` / `[idx build]` marker for a cacheable operator.
fn idx_marker(live: bool) -> &'static str {
    if live {
        "[idx cached]"
    } else {
        "[idx build]"
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
                idx_marker(cached(fingerprint)),
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
        } => {
            let marker = fingerprint
                .as_deref()
                .map_or("", |fp| idx_marker(cached(fp)));
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
