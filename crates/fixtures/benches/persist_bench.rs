//! Decision defended: each eval commits a delta through the write-ahead
//! log instead of re-encoding the session. The claim, asserted
//! structurally: **delta commits are flat in session size; full
//! re-encode is linear.** Machibench's durable workloads hold one
//! session size each, so they cannot see the scaling.
//!
//! Two sessions, 256 and 4096 bindings (16× apart). For each we time
//!
//! * `delta_commit/N`   — one ref write evaluated and committed through
//!   the write-ahead log (what every server eval pays), and
//! * `full_reencode/N`  — `Session::save_bindings` over every binding
//!   (what each save cost before the WAL, and what a checkpoint still
//!   costs — which is exactly why checkpoints are occasional and
//!   commits are not).
//!
//! Beyond the timings, the bench *asserts* the scaling shape on its own
//! median measurements: full re-encode must grow at least 4× across the
//! 16× size gap, delta commit at most 3× (generous bounds so a noisy
//! CI box cannot flake the claim, while still ruling out any
//! accidentally-linear commit path).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use machiavelli_wal::DurableSession;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SMALL: usize = 256;
const BIG: usize = 4096;

fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mach-persist-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A durable session holding `n` integer bindings plus one ref the
/// delta benchmark writes through.
fn primed(n: usize) -> (DurableSession, Vec<String>, PathBuf) {
    let dir = tempdir(&format!("n{n}"));
    let (mut ds, _) = DurableSession::open_bare(&dir).expect("open");
    let mut names = Vec::with_capacity(n + 1);
    // Batched binds: 256 phrases per eval keeps setup fast without one
    // giant commit group.
    for chunk in (0..n).collect::<Vec<_>>().chunks(256) {
        let src: String = chunk.iter().map(|i| format!("val k{i} = {i};")).collect();
        ds.eval(&src).expect("prime");
    }
    names.extend((0..n).map(|i| format!("k{i}")));
    ds.eval("val cursor = ref(0);").expect("bind cursor");
    names.push("cursor".to_string());
    (ds, names, dir)
}

/// Median wall time of `routine` over `iters` runs.
fn median_ns(iters: usize, mut routine: impl FnMut(usize)) -> u64 {
    let mut samples = Vec::with_capacity(iters);
    for i in 0..iters {
        let t0 = Instant::now();
        routine(i);
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn bench_persist(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist");
    group.sample_size(10);

    let mut medians = Vec::new();
    for &n in &[SMALL, BIG] {
        let (mut ds, names, dir) = primed(n);
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();

        // The timed claim, measured directly so it can be asserted.
        let delta_ns = median_ns(200, |i| {
            ds.eval(&format!("cursor := {i};")).expect("delta commit");
        });
        let full_ns = median_ns(20, |_| {
            black_box(ds.session().save_bindings(&name_refs).expect("re-encode"));
        });
        medians.push((n, delta_ns, full_ns));

        // The same operations under criterion for the report.
        let mut i = 0u64;
        group.bench_function(format!("delta_commit/{n}"), |b| {
            b.iter(|| {
                i += 1;
                ds.eval(&format!("cursor := {i};")).expect("delta commit")
            })
        });
        group.bench_function(format!("full_reencode/{n}"), |b| {
            b.iter(|| black_box(ds.session().save_bindings(&name_refs).expect("re-encode")))
        });
        drop(ds);
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();

    let (_, delta_small, full_small) = medians[0];
    let (_, delta_big, full_big) = medians[1];
    let delta_ratio = delta_big as f64 / delta_small.max(1) as f64;
    let full_ratio = full_big as f64 / full_small.max(1) as f64;
    eprintln!(
        "persist_bench: sessions {SMALL} -> {BIG} bindings (16x): \
         delta commit {delta_small}ns -> {delta_big}ns ({delta_ratio:.2}x), \
         full re-encode {full_small}ns -> {full_big}ns ({full_ratio:.2}x)"
    );
    assert!(
        full_ratio >= 4.0,
        "full re-encode must scale with session size (16x bindings, \
         only {full_ratio:.2}x slower)"
    );
    assert!(
        delta_ratio <= 3.0,
        "delta commit must stay flat in session size (16x bindings made \
         commits {delta_ratio:.2}x slower)"
    );
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_persist
}
criterion_main!(benches);
