//! The **plain-key parallel lane**: [`safe_eval`], a direct-dispatch
//! evaluator for the planner-safe expression class, and the plain-key
//! probe fan-out built on it.
//!
//! # The plain-key probe
//!
//! The executor keys rows **sequentially** on the `Rc` lane —
//! [`safe_eval`], a direct-dispatch evaluator with none of the
//! interpreter's environment allocation or depth accounting — and
//! extracts only the resulting **key tuples** to plain data
//! ([`extract_key`] → [`PlainKey`]). [`par_probe`] then fans the
//! extracted probe keys out, morsel by morsel, over a `Send + Sync`
//! [`PlainIndex`] — built inline for this query or served by the index
//! store, the fan-out cannot tell.
//!
//! Rows themselves never cross a thread (and are never deep-copied):
//! the result is, per probe row, the **indices** of matching build
//! rows, which the caller re-binds on the session thread. Every
//! failure mode — a key the safe evaluator declines, a key value that
//! does not extract — surfaces *before* the fan-out, so the workers
//! run infallible data plumbing only. Each such dynamic fallback is
//! additionally reported as a typed
//! `machiavelli_trace::DeclineReason` by the caller in `physical.rs`
//! (`par-join-*` codes), so `:analyze`, `:stats`, and the server's
//! `METRICS` exposition can say *why* a join stayed sequential — see
//! `docs/OBSERVABILITY.md`.

use crate::exec;
use machiavelli_syntax::ast::{BinOp, Expr, ExprKind, UnOp};
use machiavelli_syntax::symbol::Symbol;
use machiavelli_value::faults::{self, FaultConfig};
use machiavelli_value::governor::{self, QueryGuard};
use machiavelli_value::plain::{to_plain, PlainIndex, PlainKey, PlainValue};
use machiavelli_value::set::MSet;
use machiavelli_value::value::{value_eq, Fields, Value};
use std::sync::Arc;

// --- the plain expression class --------------------------------------------

/// Can [`safe_eval`] run `e` given bindings for `allowed`? A strict
/// subset of the planner-safe class: additionally requires every
/// variable to be among `allowed` (binder-closure) and excludes `con`
/// (whose consistency check is not mirrored). Exact on the safe class —
/// anything outside returns `false` and stays sequential.
pub fn par_evaluable(e: &Expr, allowed: &[Symbol]) -> bool {
    use ExprKind::*;
    match &e.kind {
        Var(x) => allowed.contains(x),
        Unit | Int(_) | Real(_) | Str(_) | Bool(_) => true,
        Record(fields) => fields.iter().all(|(_, fe)| par_evaluable(fe, allowed)),
        Field { expr, .. } | Unop { expr, .. } => par_evaluable(expr, allowed),
        If {
            cond,
            then_branch,
            else_branch,
        } => {
            par_evaluable(cond, allowed)
                && par_evaluable(then_branch, allowed)
                && par_evaluable(else_branch, allowed)
        }
        Set(items) => items.iter().all(|i| par_evaluable(i, allowed)),
        Union { left, right } => par_evaluable(left, allowed) && par_evaluable(right, allowed),
        Binop { op, left, right } => {
            // div/mod raise on zero (also outside the safe class); they
            // can never be reordered, let alone parallelized.
            !matches!(op, BinOp::Div | BinOp::Mod)
                && par_evaluable(left, allowed)
                && par_evaluable(right, allowed)
        }
        // `con` (consistency) is planner-safe but not mirrored by
        // `safe_eval`; everything else is outside the safe class.
        _ => false,
    }
}

// --- the Rc-lane safe evaluator --------------------------------------------

/// The environment of a [`safe_eval`]: an optional innermost binding
/// (the per-row one, so hot loops allocate nothing) over a slice of
/// outer bindings, searched back to front. Values are `Rc`-lane and
/// never leave the session thread.
#[derive(Clone, Copy)]
pub struct ValueBindings<'a> {
    pub head: Option<(Symbol, &'a Value)>,
    pub rest: &'a [(Symbol, Value)],
}

impl<'a> ValueBindings<'a> {
    fn lookup(&self, name: Symbol) -> Option<&'a Value> {
        if let Some((n, v)) = self.head {
            if n.id() == name.id() {
                return Some(v);
            }
        }
        self.rest
            .iter()
            .rev()
            .find(|(n, _)| n.id() == name.id())
            .map(|(_, v)| v)
    }
}

/// Evaluate a planner-safe, binder-closed expression on `Rc`-lane
/// values *without* the interpreter: no environment allocation, no
/// depth/stack accounting, direct dispatch. It mirrors the
/// interpreter's semantics constructor by constructor
/// (`Fields::from_vec` records, canonical sets, wrapping integer
/// arithmetic and negation, short-circuit `andalso`/`orelse`) and
/// **declines** (`None`) on anything else — an unsupported construct,
/// an unbound variable, an operand shape the interpreter would error
/// on. The caller then takes the interpreter path, which reproduces the
/// exact sequential behavior including errors: the lane either agrees
/// or steps aside.
///
/// This is what makes extraction cheap enough to win: keying a build
/// row costs a field scan and an `Rc` bump instead of an `EnvNode`
/// allocation plus a full interpreter dispatch per key.
pub fn safe_eval(e: &Expr, env: &ValueBindings<'_>) -> Option<Value> {
    use ExprKind::*;
    Some(match &e.kind {
        Unit => Value::Unit,
        Int(n) => Value::Int(*n),
        Real(r) => Value::Real(*r),
        Str(s) => Value::str(s.as_str()),
        Bool(b) => Value::Bool(*b),
        Var(x) => env.lookup(*x)?.clone(),
        Field { expr, label } => {
            let Value::Record(fs) = safe_eval(expr, env)? else {
                return None;
            };
            fs.get(label).cloned()?
        }
        Record(fields) => {
            let mut entries = Vec::with_capacity(fields.len());
            for (l, fe) in fields {
                entries.push((*l, safe_eval(fe, env)?));
            }
            Value::Record(Fields::from_vec(entries))
        }
        Set(items) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(safe_eval(item, env)?);
            }
            Value::Set(MSet::from_iter(out))
        }
        If {
            cond,
            then_branch,
            else_branch,
        } => match safe_eval(cond, env)? {
            Value::Bool(true) => safe_eval(then_branch, env)?,
            Value::Bool(false) => safe_eval(else_branch, env)?,
            _ => return None,
        },
        Union { left, right } => {
            let (Value::Set(a), Value::Set(b)) = (safe_eval(left, env)?, safe_eval(right, env)?)
            else {
                return None;
            };
            Value::Set(a.union(&b))
        }
        Binop {
            op: BinOp::Andalso,
            left,
            right,
        } => match safe_eval(left, env)? {
            Value::Bool(false) => Value::Bool(false),
            Value::Bool(true) => safe_eval(right, env)?,
            _ => return None,
        },
        Binop {
            op: BinOp::Orelse,
            left,
            right,
        } => match safe_eval(left, env)? {
            Value::Bool(true) => Value::Bool(true),
            Value::Bool(false) => safe_eval(right, env)?,
            _ => return None,
        },
        Binop { op, left, right } => {
            let l = safe_eval(left, env)?;
            let r = safe_eval(right, env)?;
            safe_binop(*op, &l, &r)?
        }
        Unop { op, expr } => match (op, safe_eval(expr, env)?) {
            (UnOp::Neg, Value::Int(n)) => Value::Int(n.wrapping_neg()),
            (UnOp::Neg, Value::Real(r)) => Value::Real(-r),
            (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
            _ => return None,
        },
        _ => return None,
    })
}

/// Mirror of the interpreter's `apply_binop` on the class
/// [`par_evaluable`] admits; `None` wherever it would error.
fn safe_binop(op: BinOp, l: &Value, r: &Value) -> Option<Value> {
    use BinOp::*;
    Some(match (op, l, r) {
        (Add, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_add(*b)),
        (Sub, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_sub(*b)),
        (Mul, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_mul(*b)),
        (Add, Value::Real(a), Value::Real(b)) => Value::Real(a + b),
        (Sub, Value::Real(a), Value::Real(b)) => Value::Real(a - b),
        (Mul, Value::Real(a), Value::Real(b)) => Value::Real(a * b),
        (RealDiv, Value::Real(a), Value::Real(b)) => Value::Real(a / b),
        (Concat, Value::Str(a), Value::Str(b)) => Value::str(format!("{a}{b}")),
        (Eq, a, b) => Value::Bool(value_eq(a, b)),
        (Ne, a, b) => Value::Bool(!value_eq(a, b)),
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
        _ => return None,
    })
}

// --- key extraction ---------------------------------------------------------

/// Is `e` a bare binder/field chain (`x`, `x.K`, `x.A.B`)? Such keys —
/// the common equi-join shape — resolve by reference, skipping the
/// owned `safe_eval` clone per row.
fn is_path(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Var(_) => true,
        ExprKind::Field { expr, .. } => is_path(expr),
        _ => false,
    }
}

/// Resolve a binder/field chain to a borrowed value (`None` where the
/// interpreter would error: unbound, non-record, missing field).
fn resolve_path<'v>(e: &Expr, env: &ValueBindings<'v>) -> Option<&'v Value> {
    match &e.kind {
        ExprKind::Var(x) => env.lookup(*x),
        ExprKind::Field { expr, label } => match resolve_path(expr, env)? {
            Value::Record(fs) => fs.get(label),
            _ => None,
        },
        _ => None,
    }
}

// `#[inline]` here and on `extract_key`: the per-probe-row loop in
// `physical::ParProbe::keys` runs 25–30 % slower without them (measured,
// 100 k rows).
#[inline]
fn extract_one(key: &Expr, env: &ValueBindings<'_>) -> Option<PlainValue> {
    if is_path(key) {
        to_plain(resolve_path(key, env)?)
    } else {
        to_plain(&safe_eval(key, env)?)
    }
}

/// Evaluate a key closure on the `Rc` lane and extract the tuple to
/// plain data ([`PlainKey`] — the index store's plain group key, so
/// extracted probe keys look up cached `PlainIndex` groups directly).
/// `None` when the safe evaluator declines or the key value is
/// identity-bearing (a `ref`/`dynamic` key cannot cross the lane — its
/// equality is identity, which plain data cannot represent).
#[inline]
pub fn extract_key(keys: &[&Expr], env: &ValueBindings<'_>) -> Option<PlainKey> {
    if let [single] = keys {
        return extract_one(single, env).map(PlainKey::One);
    }
    keys.iter()
        .map(|k| extract_one(k, env))
        .collect::<Option<Vec<_>>>()
        .map(PlainKey::Tuple)
}

// --- the probe fan-out ------------------------------------------------------

/// Every this many rows a worker chunk loop polls the query guard, so
/// cancellation and deadlines reach into a running fan-out instead of
/// waiting for it to drain. A power of two so the gate is a mask.
const CHUNK_TICK_MASK: usize = 1023;

/// Context a parallel worker carries across the thread boundary: the
/// coordinator's query guard (shared, `Sync`) and its effective fault
/// config (thread locals do not inherit, so the coordinator captures
/// both before fanning out). [`WorkerCx::enter`] runs the worker-side
/// fail point; [`WorkerCx::tripped`] is the chunk loop's poll — a
/// tripped guard makes workers bail with a **truncated** result, which
/// is safe because the coordinator re-checks the (sticky) guard after
/// every fan-out and surfaces the trip as an error before any result is
/// used.
#[derive(Clone, Default)]
struct WorkerCx {
    guard: Option<Arc<QueryGuard>>,
    faults: Option<FaultConfig>,
}

impl WorkerCx {
    /// Capture the coordinator's context (call before the fan-out).
    fn capture() -> WorkerCx {
        WorkerCx {
            guard: governor::current(),
            faults: faults::faults_active().then(faults::fault_config),
        }
    }

    /// Worker-side entry: install the fault config on this thread and
    /// run the injected-panic fail point. (Panics cross the scope join
    /// and are trapped by the coordinator's `catch_unwind` in
    /// `physical.rs`.)
    fn enter(&self) {
        if let Some(cfg) = self.faults {
            faults::set_fault_config(Some(cfg));
        }
        faults::maybe_worker_panic();
    }

    /// Chunk-loop poll: should this worker stop early?
    fn tripped(&self) -> bool {
        self.guard.as_ref().is_some_and(|g| g.check().is_some())
    }
}

/// Probe `index` with the pre-extracted `probe` keys at `degree`
/// workers, returning per probe row the **indices** of matching build
/// rows in build-source order (group lists ascend by construction).
/// The probe side is cut into **morsels** pulled via work stealing
/// ([`crate::exec::run_tasks`], which runs inline at degree 1), so
/// a skewed probe (one range where every key matches a huge group, the
/// rest cheap) does not serialize on the unluckiest fixed chunk; morsel
/// results concatenate in range order, so the caller's re-binding
/// sequence is identical to the sequential probe. Infallible: every
/// failure mode (a key that declines extraction) surfaced before the
/// fan-out, and a denied worker spawn (OS or injected fault) leaves its
/// seeded tasks to the surviving workers' stealers — down to the
/// coordinator draining everything inline.
///
/// Two caveats the caller (`physical.rs`) owns: a worker panic —
/// injected or real — resumes on the coordinator and must be trapped
/// with `catch_unwind`; and under a tripped [`QueryGuard`] workers bail
/// early with a **truncated** result, so the caller must re-check the
/// sticky guard after the call and error instead of using it.
pub fn par_probe(index: &PlainIndex, probe: &[PlainKey], degree: usize) -> Vec<Vec<u32>> {
    let cx = WorkerCx::capture();
    let cx = &cx;
    let (probed, _) = exec::run_tasks(
        degree,
        exec::morsels(probe.len()),
        || cx.enter(),
        |_, m: exec::Morsel| {
            let chunk = &probe[m.start..m.end];
            let mut out: Vec<Vec<u32>> = Vec::with_capacity(chunk.len());
            for (i, k) in chunk.iter().enumerate() {
                if i & CHUNK_TICK_MASK == 0 && cx.tripped() {
                    break;
                }
                out.push(index.get(k).to_vec());
            }
            out
        },
    );
    let mut matches = Vec::with_capacity(probe.len());
    for chunk in probed {
        matches.extend(chunk);
    }
    matches
}

#[cfg(test)]
mod tests {
    use super::*;
    use machiavelli_syntax::parse_expr;
    use machiavelli_trace::metrics::{self, Counter};
    use machiavelli_value::Value;

    #[test]
    fn par_evaluable_classifies() {
        let x = [Symbol::intern("x")];
        for src in ["x.K", "x.K + 1", "if x.A > 0 then x.B else 0", "{x.K}"] {
            assert!(par_evaluable(&parse_expr(src).unwrap(), &x), "{src}");
        }
        for src in ["y.K", "f(x)", "x.K div 2", "con(x, [A=1])", "!x"] {
            assert!(!par_evaluable(&parse_expr(src).unwrap(), &x), "{src}");
        }
    }

    #[test]
    fn safe_eval_mirrors_interpreter_semantics() {
        let row = Value::record([
            (Symbol::intern("K"), Value::Int(7)),
            (Symbol::intern("A"), Value::Int(-3)),
        ]);
        let env = ValueBindings {
            head: Some((Symbol::intern("x"), &row)),
            rest: &[],
        };
        let ev = |src: &str| safe_eval(&parse_expr(src).unwrap(), &env);
        assert_eq!(ev("x.K + 1"), Some(Value::Int(8)));
        assert_eq!(
            ev("(x.K, x.A)"),
            Some(Value::tuple([Value::Int(7), Value::Int(-3)]))
        );
        assert_eq!(ev("if x.A < 0 then 0 - x.A else x.A"), Some(Value::Int(3)));
        assert_eq!(
            ev("union({x.K}, {1})"),
            Some(Value::set([Value::Int(1), Value::Int(7)]))
        );
        assert_eq!(
            ev("false andalso (x.Missing = 1)"),
            Some(Value::Bool(false))
        );
        assert_eq!(ev("x.Missing"), None);
        assert_eq!(ev("f(x.K)"), None);
        assert_eq!(ev("x.K div 2"), None);
    }

    /// Extract `<var>.K` keys (the production extraction path).
    fn keys_by_k(rows: &[Value], var: &str) -> Vec<PlainKey> {
        let var = Symbol::intern(var);
        let key = parse_expr(&format!("{var}.K")).unwrap();
        rows.iter()
            .map(|row| {
                let env = ValueBindings {
                    head: Some((var, row)),
                    rest: &[],
                };
                extract_key(&[&key], &env).unwrap()
            })
            .collect()
    }

    fn row_k(k: i64, a: i64) -> Value {
        Value::record([
            (Symbol::intern("K"), Value::Int(k)),
            (Symbol::intern("A"), Value::Int(a)),
        ])
    }

    /// Index rows with K = 1, 2, 2, 9 by K, row by row in source order
    /// (the inline build's shape).
    fn index_1229() -> PlainIndex {
        let rows: Vec<Value> = [1, 2, 2, 9]
            .iter()
            .enumerate()
            .map(|(i, &k)| row_k(k, i as i64))
            .collect();
        let mut index = PlainIndex::with_capacity(rows.len());
        for (i, key) in keys_by_k(&rows, "x").into_iter().enumerate() {
            index.push(key, i as u32);
        }
        index
    }

    #[test]
    fn probe_matches_sequential_lookup_at_any_degree() {
        let index = index_1229();
        let probe_rows: Vec<Value> = [2, 5, 1].iter().map(|&k| row_k(k, 0)).collect();
        let probe = keys_by_k(&probe_rows, "y");
        // One-row morsels, so degrees above 1 really fan out.
        let prev = machiavelli_value::tuning::set_morsel_rows(Some(1));
        for degree in [1, 2, 4, 8] {
            let m = par_probe(&index, &probe, degree);
            assert_eq!(m, vec![vec![1, 2], vec![], vec![0]], "degree={degree}");
        }
        machiavelli_value::tuning::set_morsel_rows(prev);
        assert_eq!(par_probe(&index, &[], 4), Vec::<Vec<u32>>::new());
        let empty = PlainIndex::with_capacity(0);
        assert_eq!(par_probe(&empty, &probe[..1], 4), vec![Vec::<u32>::new()]);
    }

    #[test]
    fn identity_bearing_keys_do_not_extract() {
        use machiavelli_value::value::RefValue;
        let row = Value::record([(
            Symbol::intern("K"),
            Value::Ref(RefValue::new(Value::Int(1))),
        )]);
        let env = ValueBindings {
            head: Some((Symbol::intern("x"), &row)),
            rest: &[],
        };
        let key = parse_expr("x.K").unwrap();
        assert!(extract_key(&[&key], &env).is_none());
    }

    /// Run `f` with a fault config installed on this thread (workers
    /// inherit it through [`WorkerCx::capture`]) and one-row morsels,
    /// restoring both after.
    fn with_faults<T>(cfg: FaultConfig, f: impl FnOnce() -> T) -> T {
        let prev = faults::set_fault_config(Some(cfg));
        let prev_morsel = machiavelli_value::tuning::set_morsel_rows(Some(1));
        let out = f();
        machiavelli_value::tuning::set_morsel_rows(prev_morsel);
        faults::set_fault_config(prev);
        out
    }

    #[test]
    fn injected_worker_panic_resumes_on_the_coordinator() {
        // A panic on a fan-out worker must reach the caller as a
        // catchable unwind with the original payload, so the
        // driver in `physical.rs` can turn it into a structured
        // `ExecError::WorkerPanic` instead of aborting the process.
        let index = index_1229();
        let probe = keys_by_k(&[row_k(2, 0), row_k(1, 0)], "y");
        let cfg = FaultConfig {
            worker_panic_ppm: 1_000_000,
            seed: 11,
            ..FaultConfig::off()
        };
        let caught = with_faults(cfg, || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                par_probe(&index, &probe, 4)
            }))
        });
        let payload = caught.expect_err("worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains(machiavelli_value::faults::INJECTED_PANIC_PREFIX),
            "original payload survives: {msg:?}"
        );
    }

    #[test]
    fn injected_spawn_denial_degrades_to_inline_with_identical_results() {
        let index = index_1229();
        let probe_rows: Vec<Value> = [2, 5, 1].iter().map(|&k| row_k(k, 0)).collect();
        let probe = keys_by_k(&probe_rows, "y");
        let cfg = FaultConfig {
            spawn_fail_ppm: 1_000_000,
            seed: 5,
            ..FaultConfig::off()
        };
        let denied = || metrics::get(Counter::FaultSpawnFailures);
        let before = denied();
        let m = with_faults(cfg, || par_probe(&index, &probe, 4));
        assert_eq!(
            m,
            vec![vec![1, 2], vec![], vec![0]],
            "inline fallback agrees"
        );
        assert!(denied() > before, "the denial path actually ran");
    }
}
