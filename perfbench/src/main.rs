//! Runs one benchmark workload and prints its result line, or runs every
//! workload and collects their lines. See `perfbench/README.md`.

use perfbench::measure::{end_to_end, per_layer, Outcome};
use perfbench::report::{error_row, BenchError, ErrorKind};
use perfbench::workload::{Workload, DEFAULT_SEED};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str =
    "usage: perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
    workloads: ml1_fleet ml2_uplink ml4_storm fuzz_sweep";

/// Checked command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, BenchError> {
    let usage = |msg: String| BenchError::new(ErrorKind::Usage, msg);
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| usage(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| usage(format!("--seed: '{value}' is not a whole number")))?;
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| usage(format!("--seconds: '{value}' is not in (0, 3600]")))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage(format!("--trace: '{value}' is not 0 or 1"))),
                };
            }
            "--out" => parsed.out = Some(value),
            _ => return Err(usage(format!("unknown flag '{flag}'"))),
        }
    }
    if parsed.workload.is_empty() {
        return Err(usage("--workload is required".to_owned()));
    }
    Ok(parsed)
}

/// Prints the metrics for people (stderr), then any error rows and the
/// result line (stdout, result last).
fn emit(workload: &str, outcome: &Outcome) -> ExitCode {
    let report = &outcome.report;
    for m in &report.metrics {
        eprintln!("{workload:<11} {:<24} {:>18.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "{workload:<11} ops attempted {} failed {}",
        report.attempted, report.failed
    );
    for e in &outcome.errors {
        eprintln!("{workload:<11} error {e}");
        println!(
            "{}",
            error_row(workload, e, report.attempted, report.failed).render()
        );
    }
    if !report.metrics.is_empty() {
        println!("{}", report.to_json().render());
    }
    if report.correct && outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload, untraced then traced, each in a fresh process so
/// peak RSS is the workload's own, and optionally records the result
/// lines in one JSON file.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            let err = BenchError::new(ErrorKind::Host, format!("current_exe: {e}"));
            println!("{}", error_row("all", &err, 0, 0).render());
            return ExitCode::from(2);
        }
    };
    let mut all_ok = true;
    let mut entries = Vec::new();
    for w in Workload::ALL {
        let mut lines = Vec::new();
        for trace in ["0", "1"] {
            let run = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stderr(Stdio::inherit())
                .output();
            let line = match run {
                Ok(out) => {
                    all_ok &= out.status.success();
                    let stdout = String::from_utf8_lossy(&out.stdout);
                    stdout.lines().last().unwrap_or("null").to_owned()
                }
                Err(e) => {
                    all_ok = false;
                    let err = BenchError::new(ErrorKind::Host, format!("spawn: {e}"));
                    error_row(w.name(), &err, 0, 0).render()
                }
            };
            println!("{line}");
            lines.push(line);
        }
        if let [e2e, layers] = lines.as_slice() {
            entries.push(format!(
                "    \"{}\": {{\n      \"end_to_end\": {e2e},\n      \"per_layer\": {layers}\n    }}",
                w.name()
            ));
        }
    }
    if let Some(path) = &args.out {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let body = format!(
            "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"cpus\": {cpus},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            args.seed,
            args.seconds,
            entries.join(",\n")
        );
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            println!("{}", error_row("", &e, 0, 0).render());
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let workload = match Workload::from_name(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            println!("{}", error_row(&args.workload, &e, 0, 0).render());
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        per_layer(workload, args.seed, args.seconds)
    } else {
        end_to_end(workload, args.seed, args.seconds)
    };
    emit(workload.name(), &outcome)
}
