//! End-to-end resilience: governor trips surface through a plain
//! [`Session`] as **structured errors** — the session-level half of the
//! contract the server's chaos suite proves at the process level.

use machiavelli::value::governor::{self, QueryGuard};
use machiavelli::Session;
use std::sync::Arc;
use std::time::Duration;

/// Run `f` with a guard installed on this thread, restoring after.
fn with_guard<T>(guard: Arc<QueryGuard>, f: impl FnOnce() -> T) -> (T, Arc<QueryGuard>) {
    let prev = governor::install(Some(guard.clone()));
    let out = f();
    governor::install(prev);
    (out, guard)
}

/// >256 evaluator steps, so the governance tick is guaranteed to fire.
fn ticking_query() -> String {
    let elems: Vec<String> = (0..200).map(|i| format!("{i} + 0")).collect();
    format!("{{{}}};", elems.join(", "))
}

#[test]
fn cancellation_interrupts_the_evaluator_tick() {
    let mut s = Session::new();
    let guard = Arc::new(QueryGuard::unlimited());
    guard.cancel();
    let (out, _) = with_guard(guard, || s.eval_one(&ticking_query()));
    let msg = out.expect_err("cancelled mid-evaluation").to_string();
    assert_eq!(msg, "runtime error: query cancelled");
    // The guard is uninstalled: the session evaluates normally again.
    assert!(s.eval_one("1 + 1;").is_ok());
}

#[test]
fn an_expired_deadline_interrupts_the_evaluator_tick() {
    let mut s = Session::new();
    let guard = Arc::new(QueryGuard::with_timeout(Duration::ZERO, None));
    let (out, guard) = with_guard(guard, || s.eval_one(&ticking_query()));
    let msg = out.expect_err("deadline hit mid-evaluation").to_string();
    assert_eq!(msg, "runtime error: query deadline exceeded");
    assert!(
        guard.tripped().is_some(),
        "the trip is latched on the guard"
    );
}

#[test]
fn row_budget_latches_even_when_charged_after_the_last_tick() {
    let mut s = Session::new();
    // Tiny query, tiny budget: the 5-row set charges at materialization
    // — after any possible tick — so evaluation itself may succeed...
    let guard = Arc::new(QueryGuard::new(None, Some(2)));
    let (out, guard) = with_guard(guard, || s.eval_one("{1, 2, 3, 4, 5};"));
    // ...but the latch records the violation for the host to honor
    // (the server turns this into `ServerError::RowBudgetExceeded`).
    let _ = out;
    assert_eq!(
        guard.tripped(),
        Some(machiavelli::value::governor::Trip::RowBudgetExceeded)
    );
    assert!(guard.rows_used() >= 5);
}
