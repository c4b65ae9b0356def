//! `simbench` — end-to-end and per-layer host-speed benchmark of the
//! CPPE simulator. See README.md for the workloads, metrics and rules.
//!
//! ```text
//! simbench run [--workload W] [--seed S] [--seconds T] [--trace [0|1]] [--bless]
//! simbench compare --base DIR --head DIR
//! ```
//!
//! `run` without `--workload` runs every workload in turn, each in a
//! fresh child process (so each reports its own peak RSS), one at a
//! time. With `--workload` it runs that workload in this process.

mod check;
mod compare;
mod json;
mod ledger;
mod metrics;
mod probe;
mod record;
mod run;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Seconds of timed rounds when `--seconds` is not given; the value
/// `BENCHMARK.json` fixes as `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
  simbench run [--workload W] [--seed S] [--seconds T] [--trace [0|1]] [--bless]
  simbench compare --base DIR --head DIR";

/// Parsed `run` arguments.
struct RunArgs {
    workload: Option<&'static workload::Workload>,
    opt: run::Options,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        opt: run::Options {
            seed: 0,
            seconds: DEFAULT_SECONDS,
            trace: false,
            bless: false,
        },
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                out.workload = Some(workload::by_name(&name).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (known: {})", names.join(", "))
                })?);
            }
            "--seed" => {
                let v = value("--seed")?;
                out.opt.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                out.opt.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                out.opt.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--bless" => out.opt.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.opt.bless && out.opt.seed != 0 {
        return Err("--bless writes the seed-0 reference; drop --seed".into());
    }
    Ok(out)
}

/// Run every workload, each in a fresh child process, one at a time.
fn run_all(args: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating self: {e}"))?;
    for w in &workload::WORKLOADS {
        let status = Command::new(&exe)
            .arg("run")
            .args(["--workload", w.name])
            .args(args)
            .status()
            .map_err(|e| format!("starting {}: {e}", w.name))?;
        if !status.success() {
            return Err(format!("{} failed: {status}", w.name));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|r| match r.workload {
            Some(w) => run::run(w, &r.opt),
            None => run_all(&args[1..]),
        }),
        Some("compare") => {
            let mut base = None;
            let mut head = None;
            let mut it = args[1..].iter();
            let mut bad = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--base" => base = it.next().map(PathBuf::from),
                    "--head" => head = it.next().map(PathBuf::from),
                    other => bad = Some(format!("unknown argument {other:?}")),
                }
            }
            match (bad, base, head) {
                (None, Some(b), Some(h)) => compare::compare(&b, &h),
                (Some(e), _, _) => Err(e),
                _ => Err("compare needs --base DIR and --head DIR".into()),
            }
        }
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::from(2)
        }
    }
}
