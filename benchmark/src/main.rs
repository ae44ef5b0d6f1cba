//! One benchmark for the whole DSCT-EA stack. One process runs one
//! workload (so set-up time and peak memory are per workload), prints
//! every metric by name with its unit, runs the correctness gate and
//! exits non-zero if the gate fails. README.md is the glossary;
//! `../BENCHMARK.json` states the contract for the driver.
//!
//! ```text
//! benchmark --workload <name> [--seed 777] [--seconds 20] [--trace [0|1]] [--aa]
//! benchmark --contract        # prints the text of ../BENCHMARK.json
//! ```
//!
//! The benchmark calls only what a caller of the system calls: the
//! generators, `Gateway`/`IngressQueue`/`QuotaBook`,
//! `ScheduleServer`/`Router`/`plan_transfers`, `OnlineService`, the
//! solvers with default options through a `SolverContext`, the solution
//! oracle, and the public fields of the report structs. No ablation flag
//! and no evaluator internal, so those can be removed without editing
//! this package.

mod host;
mod inputs;
mod ladder;
mod offline;
mod report;
mod serve;
mod solvers;
mod spans;
mod spec;
mod stats;

use report::RunResult;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Errors of the system under test, passed up to `main`.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    aa: bool,
}

const USAGE: &str =
    "usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--aa]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: spec::DEFAULT_SEED,
        seconds: spec::DEFAULT_SECONDS,
        traced: false,
        aa: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} requires {what}"));
        match arg.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.traced = match it.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if !spec::WORKLOADS
        .iter()
        .any(|(name, _)| *name == args.workload)
    {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "--workload must be one of {}; got {:?}",
            names.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Where the traced run writes its spans: beside the build outputs.
fn trace_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("benchmark")
        .join(format!("{workload}.trace.json"))
}

/// Measures one workload in this process.
fn run(args: &Args) -> Res<(RunResult, Vec<String>)> {
    let host = host::Fingerprint::read();
    host.print(&args.workload, args.seed, args.seconds, args.traced);
    let serve_spec = serve::spec_of(&args.workload);
    if !args.traced {
        let mut out = match &serve_spec {
            None => offline::run_timed(args.seed, args.seconds)?,
            Some(spec) => serve::run_timed(spec, args.seed, args.seconds, &host)?,
        };
        let rss = host::peak_rss_mb().ok_or("VmHWM is missing from /proc/self/status")?;
        out.put_noted("peak_rss_mb", rss, None, "VmHWM at exit".into());
        let names = spec::END_TO_END
            .iter()
            .map(|m| m.name.to_string())
            .collect();
        return Ok((out, names));
    }
    let mut spans = spans::Spans::new();
    let mut out = match &serve_spec {
        None => offline::run_traced(args.seed, &mut spans)?,
        Some(spec) => ladder::run_traced(spec, args.seed, &host, &mut spans)?,
    };
    let layers = spec::per_layer();
    for layer in &layers {
        if out.value(&layer.name).is_none() {
            // The layer does no work on this workload.
            out.put(&layer.name, 0.0);
        }
    }
    let path = trace_path(&args.workload);
    spans.write_json(&path)?;
    println!("[benchmark] spans written to {}", path.display());
    for (name, fold) in spans.fold() {
        println!(
            "[benchmark] span {name:<24} count {:>8} total {:>12.6} s self {:>12.6} s",
            fold.count,
            fold.total_ns as f64 / 1e9,
            fold.self_ns as f64 / 1e9
        );
    }
    Ok((out, layers.into_iter().map(|m| m.name).collect()))
}

/// `--aa`: the same run twice in fresh processes; fails if any
/// end-to-end metric differs between the two by more than its bound.
fn run_aa(argv: &[String]) -> Res<bool> {
    let exe = std::env::current_exe()?;
    let passed: Vec<&String> = argv.iter().filter(|a| *a != "--aa").collect();
    let mut sets = Vec::new();
    for round in ["A1", "A2"] {
        let child = Command::new(&exe)
            .args(&passed)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let output = child.wait_with_output()?;
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        println!("---- {round} ----\n{}", stdout.trim_end());
        let line = stdout.lines().last().unwrap_or_default();
        let (correct, values) =
            report::parse_json_line(line).ok_or("run printed no result line")?;
        if !(output.status.success() && correct) {
            println!("[benchmark] A/A: run {round} failed its own gate");
            return Ok(false);
        }
        sets.push(values);
    }
    let mut ok = true;
    println!("---- A/A ----");
    for ((name, a), (_, b)) in sets[0].iter().zip(&sets[1]) {
        // Per-layer metrics (a traced A/A) carry no bound: printed only.
        let metric = spec::END_TO_END.iter().find(|m| m.name == name);
        let bound = metric.map_or(f64::INFINITY, |m| m.bound);
        let better = metric.map_or("", |m| m.better.as_str());
        let diff = (a - b).abs() / a.abs().max(f64::MIN_POSITIVE);
        let verdict = if diff <= bound { "ok" } else { "DIFFERS" };
        ok &= diff <= bound;
        println!(
            "{name:<44} {a:>16.6} {b:>16.6} diff {diff:>9.6} bound {bound:<6} \
             better {better:<6} {verdict}"
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--contract"] {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.aa {
        return match run_aa(&argv) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("[benchmark] A/A failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (out, names) = match run(&args) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("[benchmark] the system under test returned an error: {e}");
            return ExitCode::FAILURE;
        }
    };
    out.print_table();
    if let Some(missing) = names.iter().find(|n| out.value(n).is_none()) {
        eprintln!("[benchmark] {missing} could not be measured; no result");
        return ExitCode::FAILURE;
    }
    println!(
        "[benchmark] gate: {} ({} attempted, {} failed)",
        if out.correct() { "passed" } else { "FAILED" },
        out.attempted,
        out.failed
    );
    println!("{}", out.json_line(&names));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
