//! Whole sets of runs, the result file, and the tools that calibrate and
//! apply the bounds of `BENCHMARK.json`.
//!
//! Every run is a child process of this program (see `single_run`), so a
//! set is a loop over children whose `RECORD` lines are collected.

use crate::json::Json;
use crate::run::CONNECTIONS;
use crate::workload::NAMES;
use crate::{Options, Paths};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

const SCHEMA: &str = "machibench/1";

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_json(path: &Path, value: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, value.render_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// The window a run measures: `--seconds`, else `run_seconds` of
/// `BENCHMARK.json`.
pub fn window_seconds(paths: &Paths, options: &Options) -> Result<u64, String> {
    if let Some(seconds) = options.seconds {
        return Ok(seconds);
    }
    read_json(&paths.benchmark_json())?
        .get("run_seconds")
        .and_then(Json::as_f64)
        .map(|s| s as u64)
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_string())
}

/// An end-to-end metric's gate, from `BENCHMARK.json`.
struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn bounds(paths: &Paths) -> Result<Vec<Bound>, String> {
    let spec = read_json(&paths.benchmark_json())?;
    spec.get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<Bound>>>()
        .filter(|b| !b.is_empty())
        .ok_or_else(|| "BENCHMARK.json has no usable end_to_end list".to_string())
}

/// One child run; its report lines are echoed and its `RECORD` returned.
fn child_run(
    paths: &Paths,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<Json, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(me)
        .arg("--root")
        .arg(&paths.root)
        .arg("--machid")
        .arg(&paths.machid_bin)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut record = None;
    for line in stdout.lines() {
        match line.strip_prefix("RECORD ") {
            Some(json) => record = Some(Json::parse(json)?),
            // The contract line is for the driver; a person reads the rest.
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    record.ok_or_else(|| format!("run of {workload} printed no result ({})", output.status))
}

fn selected(options: &Options) -> Result<Vec<&str>, String> {
    match &options.only {
        None => Ok(NAMES.to_vec()),
        Some(only) => NAMES
            .iter()
            .find(|n| *n == only)
            .map(|n| vec![*n])
            .ok_or_else(|| format!("unknown workload {only}; one of {NAMES:?}")),
    }
}

fn first_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix).
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

fn header(paths: &Paths, seed: u64, seconds: u64) -> Json {
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&paths.root)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = std::fs::create_dir_all(paths.out_dir());
    Json::obj([
        ("commit", Json::str(commit)),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds as f64)),
        ("nproc", Json::Num(nproc as f64)),
        ("connections", Json::Num(CONNECTIONS as f64)),
        (
            "kernel",
            Json::str(first_line("/proc/sys/kernel/osrelease")),
        ),
        ("fs_type", Json::str(fs_type(&paths.out_dir()))),
        (
            "flush_policy",
            Json::str("program default: one fdatasync per commit"),
        ),
    ])
}

/// `--sets k`: k full sets back to back, one result file each.
pub fn sets(paths: &Paths, options: &Options) -> Result<ExitCode, String> {
    let seconds = window_seconds(paths, options)?;
    let workloads = selected(options)?;
    let mut files = Vec::new();
    let mut all_correct = true;
    for set in 1..=options.sets.max(1) {
        let mut rows = Vec::new();
        for &workload in &workloads {
            let untraced = child_run(paths, workload, options.seed, seconds, false)?;
            let traced = child_run(paths, workload, options.seed, seconds, true)?;
            for run in [&untraced, &traced] {
                all_correct &= run.get("correct") == Some(&Json::Bool(true));
            }
            rows.push((
                workload,
                Json::obj([("untraced", untraced), ("traced", traced)]),
            ));
        }
        let result = Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("header", header(paths, options.seed, seconds)),
            ("workloads", Json::obj(rows)),
            // This benchmark measures; it claims nothing.
            ("claim", Json::Null),
        ]);
        let path = paths.out_dir().join(format!("result-{set}.json"));
        write_json(&path, &result)?;
        println!("wrote {}", path.display());
        files.push(path);
    }
    if !all_correct {
        println!(
            "FAILED: a run gave a wrong answer, lost a write, or broke a structural expectation"
        );
        return Ok(ExitCode::FAILURE);
    }
    match files.as_slice() {
        [a, b, ..] => compare(paths, a, b),
        _ => Ok(ExitCode::SUCCESS),
    }
}

fn metric_value(result: &Json, workload: &str, metric: &str) -> Option<f64> {
    result
        .get("workloads")?
        .get(workload)?
        .get("untraced")?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn failed_count(result: &Json, workload: &str) -> f64 {
    ["untraced", "traced"]
        .iter()
        .filter_map(|run| {
            result
                .get("workloads")?
                .get(workload)?
                .get(run)?
                .get("failed")?
                .as_f64()
        })
        .sum()
}

/// `compare a b`: each (metric, workload) row with both values, the ratio
/// with its base, and a verdict against the metric's bound. A row whose
/// calibrated A/A spread (`results/spread.json`) exceeds its bound cannot be
/// resolved by one pair of runs and is marked so rather than `unchanged`.
pub fn compare(paths: &Paths, a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    for (file, path) in [(&a, a_path), (&b, b_path)] {
        if file.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("{} is not a {SCHEMA} result", path.display()));
        }
    }
    let bounds = bounds(paths)?;
    let spread = read_json(&paths.results_dir().join("spread.json")).ok();
    println!(
        "compare: a = {}  b = {}",
        a_path.display(),
        b_path.display()
    );
    println!(
        "{:<24} {:<15} {:>12} {:>12}  {:<22} {:>6} {:>8}  verdict",
        "workload", "metric", "a", "b", "b/a (base a)", "bound", "spread"
    );
    let mut breaches = 0;
    let workloads = a.get("workloads").map(Json::as_obj).unwrap_or_default();
    for (workload, _) in workloads {
        for bound in &bounds {
            let (Some(va), Some(vb)) = (
                metric_value(&a, workload, &bound.name),
                metric_value(&b, workload, &bound.name),
            ) else {
                continue;
            };
            let worse = if bound.higher_is_better {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let row_spread = spread.as_ref().and_then(|s| {
                s.get("rows")?
                    .get(workload)?
                    .get(&bound.name)?
                    .get("spread")?
                    .as_f64()
            });
            let verdict = if row_spread.is_some_and(|s| s > bound.bound) {
                "unresolved"
            } else if worse > bound.bound {
                breaches += 1;
                "BREACH"
            } else if worse < -bound.bound {
                "better"
            } else {
                "unchanged"
            };
            println!(
                "{:<24} {:<15} {:>12.4} {:>12.4}  {:<22} {:>6.2} {:>8}  {verdict}",
                workload,
                bound.name,
                va,
                vb,
                format!("{:.4} of {:.4}", vb / va, va),
                bound.bound,
                row_spread.map_or("-".to_string(), |s| format!("{s:.4}")),
            );
        }
        let failed = failed_count(&a, workload) + failed_count(&b, workload);
        if failed > 0.0 {
            breaches += 1;
            println!("{workload:<24} failed operations: {failed}  BREACH (any failure is one)");
        }
    }
    if breaches > 0 {
        println!("{breaches} breach(es)");
        return Ok(ExitCode::FAILURE);
    }
    println!("no breach");
    Ok(ExitCode::SUCCESS)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the driver computes.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    [1, 2, 3].map(|i| {
        let (j, delta) = (i * (n + 1) / 4, (i * (n + 1) % 4) as f64);
        let j = j.clamp(1, n - 1);
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// `calibrate`: run every workload untraced on `runs` seeds and record, per
/// (metric, workload) row, the distance between the first and third quartile
/// as a share of the median. A bound is usable only where this spread is well
/// below it.
pub fn calibrate(paths: &Paths, options: &Options) -> Result<ExitCode, String> {
    if options.runs < 2 {
        return Err("calibrate needs at least 2 runs".to_string());
    }
    let seconds = window_seconds(paths, options)?;
    let bounds = bounds(paths)?;
    let mut rows = Vec::new();
    let mut too_wide = 0;
    for workload in selected(options)? {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); bounds.len()];
        for i in 0..options.runs as u64 {
            let record = child_run(paths, workload, options.seed + i, seconds, false)?;
            if record.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!(
                    "{workload} seed {} was not correct",
                    options.seed + i
                ));
            }
            for (bound, values) in bounds.iter().zip(&mut samples) {
                let value = record
                    .get("end_to_end")
                    .and_then(|m| m.get(&bound.name)?.get("value")?.as_f64())
                    .ok_or_else(|| format!("{workload} reported no {}", bound.name))?;
                values.push(value);
            }
        }
        let mut metrics = Vec::new();
        for (bound, values) in bounds.iter().zip(&samples) {
            let [q1, median, q3] = quartiles(values);
            let spread = (q3 - q1) / median;
            let verdict = if spread > bound.bound {
                too_wide += 1;
                "WIDER THAN BOUND"
            } else if spread > bound.bound / 3.0 {
                "above a third of the bound"
            } else {
                "steady"
            };
            println!(
                "calibrate {workload:<24} {:<15} median {median:>12.4} q1 {q1:>12.4} q3 {q3:>12.4} \
                 spread {spread:.4} bound {:.2}  {verdict}",
                bound.name, bound.bound
            );
            metrics.push((
                bound.name.clone(),
                Json::obj([
                    ("median", Json::Num(median)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("spread", Json::Num(spread)),
                    ("bound", Json::Num(bound.bound)),
                    (
                        "values",
                        Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                    ),
                ]),
            ));
        }
        rows.push((workload, Json::obj(metrics)));
    }
    let result = Json::obj([
        ("schema", Json::str("machibench-spread/1")),
        ("header", header(paths, options.seed, seconds)),
        ("runs", Json::Num(options.runs as f64)),
        ("rows", Json::obj(rows)),
    ]);
    let path = paths.results_dir().join("spread.json");
    write_json(&path, &result)?;
    println!("wrote {}", path.display());
    Ok(if too_wide == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
