//! Command line of the benchmark.
//!
//! ```text
//! dimmunix_benchmark --workload W --seed N --seconds S --trace 0|1   one workload (the driver's form)
//! dimmunix_benchmark run     [--seed N] [--seconds S] [--out FILE]    every workload, end-to-end metrics
//! dimmunix_benchmark trace   [--seed N] [--seconds S] [--out FILE]    every workload, per-layer metrics
//! dimmunix_benchmark compare BASE CHANGE [--bench BENCHMARK.json]     ok / regressed / unresolved rows
//! dimmunix_benchmark spec                                             prints BENCHMARK.json
//! ```

use dimmunix_benchmark::measure::{host_cores, rustc_version};
use dimmunix_benchmark::report::{self, Report};
use dimmunix_benchmark::workloads::Plan;
use dimmunix_benchmark::{compare, json, probes, spec};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Reps per workload, each on a fresh runtime; `workloads::Outcome` says
/// how a reported value is taken over them.
const REPS: usize = 10;
/// A traced invocation splits its time between the probes, an untraced and
/// a traced replay: two reps each of this share of `--seconds`.
const TRACE_REPS: usize = 2;
const TRACE_WINDOW_SHARE: f64 = 0.15;
/// Everything the benchmark writes goes here, inside the current directory.
const WORK_ROOT: &str = ".bench_work";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("dimmunix_benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => compare_command(&args[1..]),
        Some(all @ ("run" | "trace")) => all_workloads(all == "trace", &args[1..]),
        Some(flag) if flag.starts_with("--") => one_workload(args),
        _ => Err(
            "expected `run`, `trace`, `compare`, `spec` or `--workload <name>`; \
                  see crates/benchmark/README.md"
                .into(),
        ),
    }
}

/// The value following `flag`, if the flag is present.
fn flag<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn number<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: bad value `{v}`")),
    }
}

/// Measured numbers mean nothing from a debug build or with the chaos
/// suite's hooks compiled into the hot path.
fn assert_measurable() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("built without optimisation; run with `cargo run --release`".into());
    }
    if dimmunix_core::fault_injection_compiled() {
        return Err(
            "fault-injection hooks are compiled in; build with `-p dimmunix_benchmark` so the \
             chaos crate stays out of the dependency graph"
                .into(),
        );
    }
    Ok(())
}

fn plan(seed: u64, seconds: f64, traced: bool) -> Plan {
    let (reps, share) = if traced {
        (TRACE_REPS, TRACE_WINDOW_SHARE)
    } else {
        (REPS, 1.0 / REPS as f64)
    };
    Plan {
        seed,
        window: Duration::from_secs_f64(seconds * share),
        reps,
        quick: false,
        work_dir: Path::new(WORK_ROOT).join(std::process::id().to_string()),
    }
}

/// The driver's form: one workload, one JSON object as the last line.
fn one_workload(args: &[String]) -> Result<ExitCode, String> {
    assert_measurable()?;
    let workload = flag(args, "--workload")?.ok_or("--workload <name> is required")?;
    let seed: u64 = number(args, "--seed", 1)?;
    let seconds: f64 = number(args, "--seconds", spec::RUN_SECONDS as f64)?;
    let traced = match flag(args, "--trace")? {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let plan = plan(seed, seconds, traced);
    let outcome = if traced {
        let trace_file = Path::new(WORK_ROOT).join("trace.jsonl");
        report::per_layer(workload, &plan, &trace_file)
    } else {
        report::end_to_end(workload, &plan)
    };
    // The generated inputs are per invocation; the trace file stays.
    let _ = std::fs::remove_dir_all(&plan.work_dir);
    let report = outcome?;
    print_report(&report);
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_report(report: &Report) {
    println!(
        "# workload={} seed={} host_cores={} rustc=\"{}\"",
        report.workload,
        report.seed,
        host_cores(),
        rustc_version()
    );
    for &(name, value) in &report.metrics {
        let unit = spec::unit_of(name).unwrap_or("");
        println!("{name:<36} {value:>16.4} {unit}");
    }
    println!(
        "fail_share                           {:>16.6} share ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for error in &report.errors {
        eprintln!("check failed: {error}");
    }
    println!("{}", report.result_line());
}

/// `run` / `trace`: every workload, each in its own child process of this
/// binary, so no workload inherits another's heap, threads or registrations.
fn all_workloads(traced: bool, args: &[String]) -> Result<ExitCode, String> {
    assert_measurable()?;
    let seed: u64 = number(args, "--seed", 1)?;
    let default_seconds = if traced {
        6.0
    } else {
        spec::RUN_SECONDS as f64
    };
    let seconds: f64 = number(args, "--seconds", default_seconds)?;
    let mut out = match flag(args, "--out")? {
        None => None,
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{path}: {e}"))?,
        ),
    };
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let [_, plain_pair_ns, _] = probes::baseline(seed, false);
    let mut all_correct = true;
    for (workload, _) in spec::WORKLOADS {
        let child = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let Some(result) = stdout.lines().last().filter(|l| l.starts_with('{')) else {
            return Err(format!(
                "{workload}: exited with {} and no result",
                child.status
            ));
        };
        // Everything but the machine-readable last line is the child's table.
        print!("{}", &stdout[..stdout.len() - result.len() - 1]);
        all_correct &= child.status.success();
        let parsed = json::parse(result).map_err(|e| format!("{workload}: {e}"))?;
        let p50 = parsed
            .get("metrics")
            .and_then(|m| m.get("op_ns_p50"))
            .and_then(|m| m.get("value"))
            .and_then(json::Value::as_f64);
        if let (Some(p50), true) = (p50, is_pair_workload(workload)) {
            // The overhead the ROADMAP asks for: derived and printed, not gated.
            println!(
                "overhead over a plain mutex pair     {:>16.4} ns ({:.1}x of {:.1} ns)",
                p50 - plain_pair_ns,
                p50 / plain_pair_ns,
                plain_pair_ns
            );
        }
        println!();
        if let Some(file) = out.as_mut() {
            writeln!(file, "{}", report::record_line(workload, seed, result))
                .map_err(|e| format!("--out: {e}"))?;
        }
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Whether the workload's op is one lock/unlock pair.
fn is_pair_workload(workload: &str) -> bool {
    !matches!(workload, "yield_handoff" | "monitor_backlog")
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let files: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let [base, change] = files[..] else {
        return Err("compare needs two result files (written by `run --out`)".into());
    };
    let bench: PathBuf = flag(args, "--bench")?.unwrap_or("BENCHMARK.json").into();
    let bench_text =
        std::fs::read_to_string(&bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let rows = compare::compare(&bench_text, Path::new(base), Path::new(change))?;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "change", "worse_by", "spread", "bound"
    );
    for r in &rows {
        println!(
            "{:<16} {:<16} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.change,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.word()
        );
    }
    let clean = rows.iter().all(|r| r.verdict == compare::Verdict::Ok);
    Ok(if clean && !rows.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
