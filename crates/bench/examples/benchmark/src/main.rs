//! `benchmark` — the repository benchmark: whole-run fleet wall clock on
//! three workloads, and a traced per-layer breakdown of that wall.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark compare A.jsonl B.jsonl
//! ```
//!
//! With `--trace 0` the benchmark runs the workload through
//! `fleet::run_threaded` again and again for `--seconds`, each run in a
//! fresh child process and one at a time, checks every run's outputs, and
//! reports the medians of the end-to-end metrics. The samples are appended
//! to `.bench_out/results.jsonl`, which `compare` reads.
//!
//! With `--trace 1` it runs rounds of three children — the traced
//! pipeline, the same pipeline untraced, and `run_threaded` — and reports
//! the per-layer metrics of the round with the median traced wall. The
//! spans go to `.bench_out/trace-NAME-seedN.json`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod child;
mod compare;
mod json;
mod pipeline;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use child::{ChildOutput, Metric, Metrics, END_TO_END};
use workloads::Workload;

/// Where results and span files go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

fn usage() -> &'static str {
    "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
     \x20      benchmark compare A.jsonl B.jsonl\n\
     workloads: fleet-ring4, hub-ingest, faults"
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => return child_main(&args[1..], started),
        Some("compare") => compare_main(&args[1..]),
        _ => bench_main(&args),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

struct Options {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 30;
    let mut trace = false;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = parse_number(value()?, flag)?,
            "--seconds" => seconds = parse_number(value()?, flag)?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn parse_number(raw: &str, flag: &str) -> Result<u64, String> {
    raw.parse()
        .map_err(|_| format!("{flag} takes a whole number, got `{raw}`"))
}

/// A child process: one measured run, printed as one JSON line.
fn child_main(args: &[String], started: Instant) -> ExitCode {
    let (Some(mode), Some(workload), Some(seed)) = (
        args.first(),
        args.get(1).and_then(|name| workloads::find(name)),
        args.get(2).and_then(|seed| seed.parse::<u64>().ok()),
    ) else {
        eprintln!("benchmark: malformed child invocation {args:?}");
        return ExitCode::from(2);
    };
    let output = match mode.as_str() {
        "run" => child::timed_run(workload, seed, started),
        "plain" => child::plain_pipeline(&workload.lossless_config(seed)),
        "traced" => child::traced_pipeline(
            &workload.lossless_config(seed),
            Some(&spans_path(workload, seed)),
        ),
        other => {
            eprintln!("benchmark: unknown child mode `{other}`");
            return ExitCode::from(2);
        }
    };
    println!("{}", output.to_json());
    ExitCode::SUCCESS
}

fn spans_path(workload: &Workload, seed: u64) -> PathBuf {
    Path::new(OUT_DIR).join(format!("trace-{}-seed{seed}.json", workload.name))
}

/// Runs one child to completion and parses its result line.
fn spawn_child(mode: &str, workload: &Workload, seed: u64) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["child", mode, workload.name, &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {mode} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{mode} child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{mode} child printed nothing"))?;
    ChildOutput::parse(line).map_err(|e| format!("{mode} child result: {e}"))
}

/// Repeats `attempt` until the next repetition would end past `budget`,
/// always at least once: the run measures for the time it was given.
fn repeat_for<T>(budget: Duration, mut attempt: impl FnMut() -> T) -> Vec<T> {
    let started = Instant::now();
    let mut results = Vec::new();
    let mut last = Duration::ZERO;
    while results.is_empty() || started.elapsed() + last <= budget {
        let began = Instant::now();
        results.push(attempt());
        last = began.elapsed();
    }
    results
}

fn bench_main(args: &[String]) -> Result<ExitCode, String> {
    let options = parse_options(args)?;
    let workload = options.workload;
    let host_threads = std::thread::available_parallelism().map_or(0, usize::from);
    eprintln!(
        "benchmark: {} seed {} for {} s, trace {}, {} worker threads on {} host threads",
        workload.name,
        options.seed,
        options.seconds,
        u8::from(options.trace),
        workloads::THREADS,
        host_threads
    );
    let budget = Duration::from_secs(options.seconds);
    let (metrics, attempted, failed) = if options.trace {
        traced(workload, options.seed, budget)
    } else {
        untraced(workload, options.seed, budget, host_threads)
    };

    for (name, metric) in &metrics {
        println!("{name} {} {}", json::number(metric.value), metric.unit);
    }
    let correct = failed == 0 && attempted > 0;
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, metric)| child::metric_json(name, metric))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Timed `run_threaded` reps: end-to-end metrics as medians over the reps.
fn untraced(
    workload: &Workload,
    seed: u64,
    budget: Duration,
    host_threads: usize,
) -> (Metrics, usize, usize) {
    let reps = repeat_for(budget, || spawn_child("run", workload, seed));
    let attempted = reps.len();
    let mut failed = 0;
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for rep in reps {
        match rep {
            Ok(output) => {
                if !output.failures.is_empty() {
                    failed += 1;
                    eprintln!("benchmark: incorrect run: {}", output.failures.join("; "));
                }
                for (name, _) in END_TO_END {
                    if let Some(metric) = output.metrics.get(name) {
                        samples.entry(name).or_default().push(metric.value);
                    }
                }
            }
            Err(error) => {
                failed += 1;
                eprintln!("benchmark: {error}");
            }
        }
    }

    let mut metrics = Metrics::new();
    for (name, unit) in END_TO_END {
        let values = samples.get(name).map_or(&[][..], Vec::as_slice);
        if let Some(median) = stats::median(values) {
            metrics.insert(
                name.to_owned(),
                Metric {
                    value: median,
                    unit: unit.to_owned(),
                },
            );
            eprintln!(
                "benchmark: {name}: median {median:.6} {unit} over {} reps",
                values.len()
            );
        }
    }
    if let Err(error) = append_results(workload, seed, host_threads, &samples) {
        eprintln!("benchmark: {error}");
    }
    (metrics, attempted, failed)
}

/// Appends one run's samples to the results log `compare` reads.
fn append_results(
    workload: &Workload,
    seed: u64,
    host_threads: usize,
    samples: &BTreeMap<&str, Vec<f64>>,
) -> Result<(), String> {
    let reps: Vec<String> = samples
        .iter()
        .map(|(name, values)| {
            let values: Vec<String> = values.iter().map(|&v| json::number(v)).collect();
            format!("{}: [{}]", json::quote(name), values.join(", "))
        })
        .collect();
    let line = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"host_threads\": {host_threads}, \
         \"reps\": {{{}}}}}",
        json::quote(workload.name),
        reps.join(", ")
    );
    let path = Path::new(OUT_DIR).join("results.jsonl");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
        })
        .and_then(|mut file| writeln!(file, "{line}"))
        .map_err(|e| format!("cannot append to {}: {e}", path.display()))
}

/// Traced rounds; reports the round with the median traced wall, so the
/// reported self times still add up to the reported wall.
fn traced(workload: &Workload, seed: u64, budget: Duration) -> (Metrics, usize, usize) {
    let rounds = repeat_for(budget, || -> Result<(Metrics, Vec<String>), String> {
        let traced = spawn_child("traced", workload, seed)?;
        let plain = spawn_child("plain", workload, seed)?;
        let run = spawn_child("run", workload, seed)?;
        Ok(child::per_layer(workload, &traced, &plain, &run))
    });
    let attempted = rounds.len();
    let mut failed = 0;
    let mut good = Vec::new();
    for round in rounds {
        match round {
            Ok((metrics, failures)) => {
                if !failures.is_empty() {
                    failed += 1;
                    eprintln!("benchmark: incorrect round: {}", failures.join("; "));
                }
                good.push(metrics);
            }
            Err(error) => {
                failed += 1;
                eprintln!("benchmark: {error}");
            }
        }
    }
    let wall = |metrics: &Metrics| metrics.get("trace.wall_s").map_or(0.0, |m| m.value);
    good.sort_by(|a, b| wall(a).total_cmp(&wall(b)));
    eprintln!(
        "benchmark: reporting the median of {} traced rounds",
        good.len()
    );
    let metrics = if good.is_empty() {
        Metrics::new()
    } else {
        good.swap_remove((good.len() - 1) / 2)
    };
    (metrics, attempted, failed)
}

/// `compare A.jsonl B.jsonl`, with the bounds of the `BENCHMARK.json` in
/// the working directory. Exits 1 when any verdict is `worse` or
/// `unresolved`.
fn compare_main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two results files".to_owned());
    };
    let bounds = compare::read_bounds(Path::new("BENCHMARK.json"))?;
    let a = compare::read_samples(Path::new(a))?;
    let b = compare::read_samples(Path::new(b))?;
    Ok(if compare::compare(&bounds, &a, &b) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
