//! The repository benchmark.
//!
//! ```text
//! bench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!       [--json PATH] [--horizon-ms N]
//! ```
//!
//! Without `--workload` it runs all four workloads; without `--seed` it
//! uses 42. Each workload pools a few seeds derived from `--seed` (the
//! first is `--seed` itself); a timed round runs each of them once in a
//! fresh, single-threaded child process. `--seconds` is the time budget
//! of each phase of each workload (default 25): rounds start while the
//! next one still fits, and the first always runs. `--trace 0` runs only
//! the timed phase (end-to-end metrics), `--trace 1` only the traced
//! phase (per-layer metrics); without it both run. `--horizon-ms`
//! shortens every workload's simulated horizon (smoke runs). Every metric
//! prints as `workload metric value unit`; the last line of standard
//! output is a JSON summary. The exit code is non-zero when a run fails
//! or the correctness gate does.

use std::process::ExitCode;
use tango_perfbench::child::{self, Job, Kind};
use tango_perfbench::report::{self, Stamp};
use tango_perfbench::runner::{self, Phases};
use tango_perfbench::workloads::Workload;
use tango_types::SimTime;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    json: Option<String>,
    horizon_ms: Option<u64>,
    child: Option<Kind>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: runner::DEFAULT_SECONDS,
        trace: None,
        json: None,
        horizon_ms: None,
        child: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads
                    .push(Workload::from_name(&v).ok_or_else(|| bad(&v))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                args.trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                });
            }
            "--json" => args.json = Some(value()?),
            "--horizon-ms" => {
                let v = value()?;
                args.horizon_ms = Some(v.parse().ok().filter(|&h| h > 0).ok_or_else(|| bad(&v))?);
            }
            "--child" => {
                let v = value()?;
                args.child = Some(Kind::from_name(&v).ok_or_else(|| bad(&v))?);
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = Workload::ALL.to_vec();
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    let job = |workload: Workload| Job {
        workload,
        seed: args.seed,
        horizon: args
            .horizon_ms
            .map_or(workload.horizon(), SimTime::from_millis),
        threads: child::THREADS,
    };

    if let Some(kind) = args.child {
        return match child::run(kind, job(args.workloads[0])) {
            Ok(rec) => {
                print!("{}", rec.render());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench child: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let phases = Phases {
        timed: args.trace != Some(true),
        traced: args.trace != Some(false),
    };
    let stamp = Stamp::new(args.seed, args.seconds);
    println!("{}", stamp.line());
    let mut results = Vec::new();
    for &wl in &args.workloads {
        let result = runner::measure(job(wl), phases, args.seconds);
        for m in &result.metrics {
            println!("{}", report::metric_line(wl, m));
        }
        if let Some(d) = result.digest {
            println!("# {} digest={d:#018x} runs={}", wl.name(), result.runs);
        }
        for e in &result.errors {
            eprintln!("bench: {}: {e}", wl.name());
        }
        results.push((wl, result));
    }
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, report::full_json(&stamp, &results)) {
            eprintln!("bench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report::summary_json(&results));
    ExitCode::from(report::exit_code(&results))
}
