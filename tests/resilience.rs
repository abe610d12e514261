//! End-to-end resilience: governor trips surface through a plain
//! [`Session`] as **structured errors** — the session-level half of the
//! contract the server's chaos suite proves at the process level.

use machiavelli::store::governor::QueryGuard;
use machiavelli::Session;
use std::sync::Arc;
use std::time::Duration;

/// Run `f` on `s` with a guard installed on the session, clearing it
/// after.
fn with_guard<T>(
    s: &mut Session,
    guard: Arc<QueryGuard>,
    f: impl FnOnce(&mut Session) -> T,
) -> (T, Arc<QueryGuard>) {
    s.engine().set_guard(Some(guard.clone()));
    let out = f(s);
    s.engine().set_guard(None);
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
    let (out, _) = with_guard(&mut s, guard, |s| s.eval_one(&ticking_query()));
    let msg = out.expect_err("cancelled mid-evaluation").to_string();
    assert_eq!(msg, "runtime error: query cancelled");
    // The guard is uninstalled: the session evaluates normally again.
    assert!(s.eval_one("1 + 1;").is_ok());
}

#[test]
fn an_expired_deadline_interrupts_the_evaluator_tick() {
    let mut s = Session::new();
    let guard = Arc::new(QueryGuard::with_timeout(Duration::ZERO, None));
    let (out, guard) = with_guard(&mut s, guard, |s| s.eval_one(&ticking_query()));
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
    let (out, guard) = with_guard(&mut s, guard, |s| s.eval_one("{1, 2, 3, 4, 5};"));
    // ...but the latch records the violation for the host to honor
    // (the server turns this into `ServerError::RowBudgetExceeded`).
    let _ = out;
    assert_eq!(
        guard.tripped(),
        Some(machiavelli::store::governor::Trip::RowBudgetExceeded)
    );
    assert!(guard.rows_used() >= 5);
}
