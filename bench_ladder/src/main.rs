//! `bench_ladder` — see `README.md`.
//!
//! ```text
//! bench_ladder --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bench_ladder all <out-dir> [seed]
//! bench_ladder compare <A> <B>
//! ```

use std::path::Path;
use std::process::ExitCode;

use bench_ladder::compare::{compare, parse_declared, read_set, render, Declared};
use bench_ladder::report::{host_json, record_json, result_json};
use bench_ladder::run::{run, RunArgs, RunOutput};
use bench_ladder::spec::Workload;

const USAGE: &str = "usage:
  bench_ladder --workload <dock_small|dock_large|serve_hot|serve_churn> --seed <n> --seconds <s> --trace <0|1>
  bench_ladder all <out-dir> [seed]     every workload, untraced then traced, for BENCHMARK.json's run_seconds
  bench_ladder compare <A> <B>          two directories written by `all`";

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Every metric by name with its unit, one per line.
fn print_metrics(out: &RunOutput) {
    println!(
        "# {} seed {} {} s {} — host {}",
        out.args.workload.name(),
        out.args.seed,
        out.args.seconds,
        if out.args.trace { "traced" } else { "untraced" },
        host_json(&out.host).encode()
    );
    for m in &out.metrics {
        println!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = &out.trace_file {
        println!("# spans written to {}", path.display());
    }
    if let Some(why) = &out.first_failure {
        println!(
            "# {} of {} reps FAILED the oracle; first: {why}",
            out.failed, out.attempted
        );
    }
}

/// What a single run prints before its result line: the full record
/// (arguments, host, result) that `all` stores and `compare` reads.
const RECORD_PREFIX: &str = "record ";

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let out = run(parse_run_args(args)?)?;
    print_metrics(&out);
    println!("{RECORD_PREFIX}{}", record_json(&out).encode());
    println!("{}", result_json(&out).encode());
    Ok(if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn declared() -> Result<Declared, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    parse_declared(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// Every workload, untraced then traced, each in a process of its own
/// (as the driver runs them: peak memory is per process).
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let [dir, rest @ ..] = args else {
        return Err(USAGE.into());
    };
    let seed = match rest {
        [] => 1,
        [s] => s.parse::<u64>().map_err(|e| format!("seed: {e}"))?,
        _ => return Err(USAGE.into()),
    };
    let seconds = declared()?.run_seconds;
    let dir = Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut correct = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let child = std::process::Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            correct &= child.status.success();
            let stdout = String::from_utf8_lossy(&child.stdout);
            let mut record = None;
            for line in stdout.lines() {
                match line.strip_prefix(RECORD_PREFIX) {
                    Some(json) => record = Some(json.to_string()),
                    // The result object repeats the metrics printed above it.
                    None if line.starts_with('{') => {}
                    None => println!("{line}"),
                }
            }
            let record = record.ok_or_else(|| {
                format!(
                    "{} --trace {trace}: the run printed no record",
                    workload.name()
                )
            })?;
            let file = dir.join(format!("{}.s{seed}.t{trace}.json", workload.name()));
            std::fs::write(&file, record + "\n").map_err(|e| format!("{}: {e}", file.display()))?;
        }
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.into());
    };
    let comparison = compare(
        &read_set(Path::new(a))?,
        &read_set(Path::new(b))?,
        &declared()?,
    )?;
    print!("{}", render(&comparison));
    let clean = !comparison.regressed()
        && comparison.count_differences.is_empty()
        && comparison.failed_runs == 0;
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("bench_ladder measures optimized builds only: run it with `cargo run --release`");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => run_all(&args[1..]),
        Some("compare") => run_compare(&args[1..]),
        Some(_) => run_one(&args),
        None => Err(USAGE.into()),
    };
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("bench_ladder: {why}");
            ExitCode::from(2)
        }
    }
}
