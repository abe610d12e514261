//! `machibench`: the repo's wire-level benchmark. A seeded closed-loop
//! client over real TCP against a freshly spawned `machid`, five workloads,
//! a per-crate layer breakdown from a separate traced run, and the tools
//! that calibrate and apply the regression bounds in `BENCHMARK.json`.
//!
//! See `benchmark/README.md`. Started through `benchmark/run.sh`, which
//! builds `machid` and this program and passes their locations.

mod client;
mod json;
mod report;
mod run;
mod twins;
mod workload;

use json::Json;
use run::{Metric, RunConfig, RunReport, LAYER_SELF_TIMES};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

const USAGE: &str = "\
usage: benchmark/run.sh [options]
  --workload <name> --seed <n> --seconds <s> --trace <0|1>
        one run of one workload; the last line of stdout is its result
  [--sets <k>] [--only <name>] [--seed <n>] [--seconds <s>]
        k full sets (default 1): every workload untraced, then traced;
        writes benchmark/out/result-<i>.json and, for k >= 2, compares
        the first two
  compare <a.json> <b.json>
        apply the bounds of BENCHMARK.json to every (metric, workload) row
  calibrate [--runs <n>] [--seed <n>] [--seconds <s>]
        n untraced runs per workload on seeds seed..seed+n; writes the
        spread of every row to benchmark/results/spread.json";

/// Where things are; set by `run.sh`.
pub struct Paths {
    /// The `benchmark/` directory.
    pub root: PathBuf,
    pub machid_bin: PathBuf,
}

impl Paths {
    pub fn out_dir(&self) -> PathBuf {
        self.root.join("out")
    }

    pub fn results_dir(&self) -> PathBuf {
        self.root.join("results")
    }

    /// `BENCHMARK.json` sits at the root of the repo, beside `benchmark/`.
    pub fn benchmark_json(&self) -> PathBuf {
        self.root.join("..").join("BENCHMARK.json")
    }
}

pub struct Options {
    pub seed: u64,
    /// `None`: `run_seconds` of `BENCHMARK.json`.
    pub seconds: Option<u64>,
    pub only: Option<String>,
    pub sets: usize,
    pub runs: usize,
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("machibench: {message}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: Vec<String>) -> Result<ExitCode, String> {
    let mut paths = Paths {
        root: PathBuf::new(),
        machid_bin: PathBuf::new(),
    };
    let mut options = Options {
        seed: 1989,
        seconds: None,
        only: None,
        sets: 1,
        runs: 10,
    };
    let (mut workload, mut trace) = (None, false);
    let mut positional = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value\n{USAGE}"));
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("bad number {text:?}"))
        };
        match arg.as_str() {
            "--root" => paths.root = PathBuf::from(value()?),
            "--machid" => paths.machid_bin = PathBuf::from(value()?),
            "--workload" => workload = Some(value()?),
            "--only" => options.only = Some(value()?),
            "--seed" => options.seed = number(value()?)?,
            "--seconds" => options.seconds = Some(number(value()?)?),
            "--sets" => options.sets = number(value()?)? as usize,
            "--runs" => options.runs = number(value()?)? as usize,
            "--trace" => trace = number(value()?)? != 0,
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown option {flag}\n{USAGE}"))
            }
            _ => positional.push(arg),
        }
    }
    if paths.root.as_os_str().is_empty() || paths.machid_bin.as_os_str().is_empty() {
        return Err("start me through benchmark/run.sh".to_string());
    }
    match positional.first().map(String::as_str) {
        Some("compare") => match &positional[1..] {
            [a, b] => report::compare(&paths, a.as_ref(), b.as_ref()),
            _ => Err(format!("compare takes two result files\n{USAGE}")),
        },
        Some("calibrate") => report::calibrate(&paths, &options),
        Some(other) => Err(format!("unknown command {other}\n{USAGE}")),
        None => match workload {
            Some(name) => single_run(&paths, &options, &name, trace),
            None => report::sets(&paths, &options),
        },
    }
}

/// One run of one workload, in this process. This process takes the knobs
/// `machid` gets, so the in-process twins run under the same tuning (the
/// engine reads them once per process, which is why every run is a process
/// of its own).
fn single_run(
    paths: &Paths,
    options: &Options,
    name: &str,
    trace: bool,
) -> Result<ExitCode, String> {
    let workload = Workload::by_name(name)
        .ok_or_else(|| format!("unknown workload {name}; one of {:?}", workload::NAMES))?;
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MACHI") {
            std::env::remove_var(key);
        }
    }
    let machid_env = run::pinned_env(&workload);
    for (key, value) in &machid_env {
        std::env::set_var(key, value);
    }
    let cfg = RunConfig {
        workload,
        seed: options.seed,
        seconds: report::window_seconds(paths, options)?,
        trace,
        machid_bin: paths.machid_bin.clone(),
        out_dir: paths.out_dir(),
    };
    let report = run::run(&cfg)?;
    print_report(&cfg, &report);
    let correct = report.failed == 0 && report.violations.is_empty();
    let metrics = |list: &[Metric]| {
        Json::obj(list.iter().map(|m| {
            (
                m.name,
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )
        }))
    };
    let record = Json::obj([
        ("workload", Json::str(cfg.workload.name)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds as f64)),
        ("trace", Json::Bool(cfg.trace)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "violations",
            Json::Arr(report.violations.iter().map(Json::str).collect()),
        ),
        ("end_to_end", metrics(&report.end_to_end)),
        ("info", metrics(&report.info)),
        ("per_layer", metrics(&report.per_layer)),
        (
            "machid_env",
            Json::obj(machid_env.iter().map(|(k, v)| (k.clone(), Json::str(v)))),
        ),
    ]);
    println!("RECORD {}", record.render());
    // The contract line: end-to-end metrics untraced, per-layer traced.
    let contract = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "metrics",
            metrics(if trace {
                &report.per_layer
            } else {
                &report.end_to_end
            }),
        ),
    ]);
    println!("{}", contract.render());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_report(cfg: &RunConfig, report: &RunReport) {
    println!(
        "== {} seed {} window {} s {} ==",
        cfg.workload.name,
        cfg.seed,
        cfg.seconds,
        if cfg.trace { "traced" } else { "untraced" }
    );
    for m in report
        .end_to_end
        .iter()
        .chain(&report.info)
        .chain(&report.per_layer)
    {
        println!("  {:<30} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<30} {:>14} of {} attempted",
        "failed", report.failed, report.attempted
    );
    if cfg.trace {
        let value_of = |list: &[Metric], name: &str| {
            list.iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        let layer = |name: &str| value_of(&report.per_layer, name);
        let sum: f64 = LAYER_SELF_TIMES.iter().map(|name| layer(name)).sum();
        let terms: Vec<String> = LAYER_SELF_TIMES
            .iter()
            .map(|name| format!("{name} {:.1}", layer(name)))
            .collect();
        let p50 = value_of(&report.end_to_end, "p50_ms");
        println!(
            "  reconcile: {} = {sum:.1} us of layer self time; + machid.socket_ms {:.4} = p50_ms {p50:.4}",
            terms.join(" + "),
            layer("machid.socket_ms"),
        );
    }
    for violation in &report.violations {
        println!("  VIOLATION: {violation}");
    }
}
