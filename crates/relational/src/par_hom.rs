//! Parallel `hom`.
//!
//! The paper observes that *proper* applications of `hom` — `op`
//! associative and commutative, `f` side-effect free — "have the property
//! of being computable in parallel". [`par_hom`] realizes the claim:
//! split the set across threads, fold each chunk, and combine the
//! partial results with `op`.
//!
//! Machiavelli's interpreted values are deliberately single-threaded
//! (`Rc`-based), so the parallel path operates on **extracted plain
//! data** (`machiavelli_value::plain`). Since PR 4 this is no longer an
//! ablation-only demonstration: the evaluator classifies proper `hom`
//! applications (known associative-commutative `op` with its identity
//! as `z`, `f` with a planner-safe body), extracts the set through
//! `to_plain`, and folds it here — falling back to the sequential
//! interpreter fold whenever the classification or extraction declines.
//!
//! # Failure behavior
//!
//! * A worker **panic** is re-raised on the coordinating thread with its
//!   original payload (`resume_unwind`), not swallowed or turned into a
//!   process abort.
//! * A failed **thread spawn** (OS limits) degrades gracefully: the
//!   chunk that could not get a thread is folded inline on the
//!   coordinating thread via [`seq_hom`] — the result is identical,
//!   only the parallelism is lost.

use crossbeam::thread;
use machiavelli_value::faults::{fire, FaultPoint};
use machiavelli_value::tuning::PAR_HOM_MIN_ITEMS_PER_THREAD;

/// Sequential `hom(f, op, z, items)` as the paper's right fold.
pub fn seq_hom<T, B>(items: &[T], f: impl Fn(&T) -> B, op: impl Fn(B, B) -> B, z: B) -> B {
    let mut acc = z;
    for x in items.iter().rev() {
        acc = op(f(x), acc);
    }
    acc
}

/// Parallel `hom` for *proper* applications: `op` must be associative
/// and commutative with identity `z` (each chunk is seeded with `z`, so
/// a non-identity `z` would be folded in once per chunk). Splits into
/// `n_threads` chunks; inputs smaller than
/// [`PAR_HOM_MIN_ITEMS_PER_THREAD`] per thread fold sequentially.
pub fn par_hom<T, B>(
    items: &[T],
    f: impl Fn(&T) -> B + Sync,
    op: impl Fn(B, B) -> B + Sync,
    z: B,
    n_threads: usize,
) -> B
where
    T: Sync,
    B: Send + Clone,
{
    let n_threads = n_threads.max(1);
    if items.len() < PAR_HOM_MIN_ITEMS_PER_THREAD * n_threads || n_threads == 1 {
        return seq_hom(items, &f, &op, z);
    }
    let chunk = items.len().div_ceil(n_threads);
    let partials = thread::scope(|scope| {
        // Spawn fallibly; a chunk whose spawn is declined by the OS is
        // remembered and folded inline below, while the threads that
        // did spawn keep working.
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|slice| {
                let f = &f;
                let op = &op;
                let z = z.clone();
                // The injected spawn fault exercises the same inline
                // fallback as a real OS decline.
                if fire(FaultPoint::SpawnFail) {
                    return Err(slice);
                }
                match scope.try_spawn(move |_| seq_hom(slice, f, op, z)) {
                    Ok(h) => Ok(h),
                    Err(_) => Err(slice),
                }
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h {
                // Propagate a worker panic with its original payload on
                // the coordinating thread (the scope still joins the
                // remaining workers while this unwinds).
                Ok(h) => h
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
                Err(slice) => seq_hom(slice, &f, &op, z.clone()),
            })
            .collect::<Vec<B>>()
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    let mut acc = z;
    for p in partials {
        acc = op(p, acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_hom_matches_definition() {
        // op(f(x1), op(f(x2), op(f(x3), z)))
        let r = seq_hom(&[1, 2, 3], |&x| x * 10, |a, b| a + b, 0);
        assert_eq!(r, 60);
    }

    #[test]
    fn par_matches_seq_for_proper_applications() {
        let data: Vec<i64> = (0..10_000).collect();
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                par_hom(&data, |&x| x, |a, b| a + b, 0, threads),
                seq_hom(&data, |&x| x, |a, b| a + b, 0)
            );
            assert_eq!(
                par_hom(&data, |&x| x % 97, |a, b| a.max(b), i64::MIN, threads),
                96
            );
        }
    }

    #[test]
    fn par_count_and_filtering_hom() {
        // filter-like hom: count elements above a threshold.
        let data: Vec<i64> = (0..5000).collect();
        let count = par_hom(&data, |&x| i64::from(x > 2499), |a, b| a + b, 0, 4);
        assert_eq!(count, 2500);
    }

    #[test]
    fn small_inputs_fall_back_to_sequential() {
        assert_eq!(par_hom(&[1, 2, 3], |&x| x, |a, b| a + b, 0, 16), 6);
        assert_eq!(par_hom::<i64, i64>(&[], |&x| x, |a, b| a + b, 7, 4), 7);
    }

    #[test]
    fn worker_panic_payload_reaches_the_caller() {
        let data: Vec<i64> = (0..1000).collect();
        let caught = std::panic::catch_unwind(|| {
            par_hom(
                &data,
                |&x| {
                    if x == 777 {
                        panic!("boom at {x}");
                    }
                    x
                },
                |a, b| a + b,
                0,
                4,
            )
        });
        let payload = caught.expect_err("worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "boom at 777", "original payload, not a join wrapper");
    }
}
