//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <enum-full|first-n|serve-mixed> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --workload all [--seed N] [--seconds S]        each workload in its own process
//! perfbench --workload <name> --repeat N [--seed S] [...]   N fresh processes, seeds S..S+N-1
//! ```
//!
//! A run prints its checks and metrics as text, then one JSON line with
//! `correct`, `attempted`, `failed` and `metrics`, and exits non-zero when
//! any output failed a check. See `README.md` beside this crate.

#![forbid(unsafe_code)]

mod common;
mod enum_full;
mod first_n;
mod loadgen;
mod procfs;
mod replay;
mod report;
mod serve_mixed;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use common::Opts;
use kbiplex::json::Json;
use report::{json_line, metric_line, parse_metric_line, Outcome};
use trace::Tracer;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["enum-full", "first-n", "serve-mixed"];
/// Default workload seed.
const DEFAULT_SEED: u64 = 7;
/// The benchmark's contract: the metric lists and the run length. Every
/// run checks its output against it.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`
/// (`end_to_end` or `per_layer`).
fn contract_metrics(key: &str) -> Result<Vec<(String, String)>, String> {
    let doc = Json::parse(CONTRACT).map_err(|e| e.0)?;
    let list =
        doc.get(key).ok_or(format!("BENCHMARK.json has no {key}"))?.as_arr(key).map_err(|e| e.0)?;
    list.iter()
        .map(|m| {
            let field = |k: &str| -> Result<String, String> {
                Ok(m.get(k)
                    .ok_or(format!("{key} entry without {k}"))?
                    .as_str(k)
                    .map_err(|e| e.0)?
                    .to_string())
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// The default length of the measured phase: `run_seconds` of the contract.
fn default_seconds() -> f64 {
    Json::parse(CONTRACT)
        .ok()
        .and_then(|d| d.get("run_seconds").and_then(|v| v.as_f64("run_seconds").ok()))
        .unwrap_or(35.0)
}

/// Fails the run unless it produced exactly the contract's metrics, with
/// the contract's units.
fn check_against_contract(out: &mut Outcome, trace: bool) {
    let key = if trace { "per_layer" } else { "end_to_end" };
    let want = match contract_metrics(key) {
        Ok(w) => w,
        Err(e) => {
            out.check(false, format!("BENCHMARK.json: {e}"));
            return;
        }
    };
    let got: Vec<(String, String)> =
        out.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
    let missing: Vec<&str> =
        want.iter().filter(|w| !got.contains(w)).map(|w| w.0.as_str()).collect();
    let extra: Vec<&str> = got.iter().filter(|g| !want.contains(g)).map(|g| g.0.as_str()).collect();
    let unmeasured: Vec<&str> =
        out.metrics.iter().filter(|m| !m.value.is_finite()).map(|m| m.name.as_str()).collect();
    out.check(
        missing.is_empty() && extra.is_empty() && unmeasured.is_empty(),
        format!("metrics differ from BENCHMARK.json {key}: missing {missing:?}, not listed {extra:?}, unmeasured {unmeasured:?}"),
    );
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: default_seconds(),
        trace: false,
        repeat: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n == 0 {
                    return Err("--repeat needs at least 1".into());
                }
                args.repeat = Some(n);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {} or all", WORKLOADS.join(", ")));
    }
    Ok(args)
}

/// Runs one workload in this process and prints its report.
fn run_one(args: &Args) -> ExitCode {
    let opts = Opts { seed: args.seed, seconds: args.seconds, trace: args.trace };
    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin);
    let mut out = Outcome::default();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let ticks = procfs::cpu_ticks();
    match args.workload.as_str() {
        "enum-full" => enum_full::run(&opts, &mut tracer, &mut out),
        "first-n" => first_n::run(&opts, &mut tracer, &mut out),
        "serve-mixed" => serve_mixed::run(&opts, &mut tracer, &mut out),
        _ => unreachable!("parse_args admits only known workloads"),
    }
    if let Some(steal) = procfs::steal_share(ticks, procfs::cpu_ticks()) {
        // CPU time the hypervisor gave to other guests: a run with a high
        // share measured a slower machine, not slower code.
        out.notes.push(format!("host steal during the run: {:.1}% of CPU time", steal * 100.0));
    }
    check_against_contract(&mut out, args.trace);
    for note in &out.notes {
        println!("note {note}");
    }
    if args.trace {
        print_trace(&args.workload, args.seed, &tracer);
    } else {
        for m in &out.named {
            println!("{}", metric_line(m));
        }
    }
    println!(
        "check attempted={} failed={} error_rate={}",
        out.attempted,
        out.failed,
        out.error_rate()
    );
    for m in &out.metrics {
        println!("{}", metric_line(m));
    }
    println!("{}", json_line(&out));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the span table of a traced run and writes the spans out.
fn print_trace(workload: &str, seed: u64, tracer: &Tracer) {
    let path = PathBuf::from(".bench_out").join(format!("trace-{workload}-seed{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("trace {} spans written to {}", tracer.spans().len(), path.display()),
        Err(e) => println!("trace spans not written ({}): {e}", path.display()),
    }
    println!("trace {:<24} {:>8} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
    for (name, t) in trace::totals(tracer.spans()) {
        println!(
            "trace {:<24} {:>8} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

/// Runs `workload` in a fresh process and returns its stdout and success.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    Ok((String::from_utf8_lossy(&output.stdout).into_owned(), output.status.success()))
}

/// `--workload all`: each workload in its own process; prints the
/// workload-named end-to-end metrics and error rates of all three.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        match child(w, args.seed, args.seconds, args.trace) {
            Ok((stdout, success)) => {
                ok &= success;
                for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                    println!("{w}: {line}");
                }
            }
            Err(e) => {
                ok = false;
                println!("{w}: {e}");
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--repeat N`: one workload in N fresh processes with seeds
/// `seed..seed+N`; prints each metric's median, quartiles and spread
/// ((q3 − q1) ÷ median, as the contract computes it).
fn run_repeat(args: &Args, n: usize) -> ExitCode {
    let mut values: std::collections::BTreeMap<String, (String, Vec<f64>)> = Default::default();
    let mut ok = true;
    for i in 0..n as u64 {
        let seed = args.seed + i;
        match child(&args.workload, seed, args.seconds, args.trace) {
            Ok((stdout, success)) => {
                ok &= success;
                let mut line_out = format!("run seed={seed} ok={success}");
                for (name, value, unit) in stdout.lines().filter_map(parse_metric_line) {
                    line_out.push_str(&format!(" {name}={value}"));
                    values.entry(name).or_insert_with(|| (unit, Vec::new())).1.push(value);
                }
                println!("{line_out}");
            }
            Err(e) => {
                ok = false;
                println!("run seed={seed} error: {e}");
            }
        }
    }
    println!(
        "{:<34} {:>6} {:>14} {:>14} {:>14} {:>8}",
        "metric", "unit", "q1", "median", "q3", "spread"
    );
    for (name, (unit, v)) in &values {
        // The middle quartile is the median as Python's `statistics` gives it
        // (the mean of the two middle values for an even count).
        let [q1, med, q3] = stats::quartiles(v).unwrap_or([f64::NAN; 3]);
        let spread = if med != 0.0 { (q3 - q1) / med.abs() } else { f64::NAN };
        println!("{name:<34} {unit:>6} {q1:>14.6} {med:>14.6} {q3:>14.6} {spread:>8.4}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match (args.workload.as_str(), args.repeat) {
        ("all", _) => run_all(&args),
        (_, Some(n)) => run_repeat(&args, n),
        _ => run_one(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_parses_and_lists_distinct_metrics() {
        for key in ["end_to_end", "per_layer"] {
            let list = contract_metrics(key).expect("BENCHMARK.json parses");
            assert!(!list.is_empty());
            let mut names: Vec<&str> = list.iter().map(|m| m.0.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), list.len(), "{key} repeats a name");
        }
        assert!(default_seconds() >= 1.0);
    }

    #[test]
    fn command_line_is_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload first-n --seed 9 --seconds 2 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("first-n", 9, 2.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload first-n --trace 2")).is_err());
        assert!(parse_args(&argv("--workload first-n --seed")).is_err());
        assert!(parse_args(&argv("--workload first-n --repeat 0")).is_err());
    }

    #[test]
    fn a_missing_or_extra_metric_fails_the_run() {
        let mut out = Outcome::default();
        out.metrics.push(report::metric("setup_s", 1.0, "s", report::Source::EndToEnd));
        out.metrics.push(report::metric("bogus", 1.0, "s", report::Source::EndToEnd));
        check_against_contract(&mut out, false);
        assert!(!out.correct());
        assert!(out.notes[0].contains("bogus"));
    }
}
