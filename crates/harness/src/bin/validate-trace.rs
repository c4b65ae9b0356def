//! Validate exported trace artifacts: every `results/*.csv` must parse
//! as rectangular RFC-4180 CSV through the same `telemetry` parser the
//! golden tests use. Chrome traces (`*trace.json`) must be well-formed
//! JSON with balanced `ph:"B"`/`ph:"E"` span events; every other
//! `*.json` is a run record and goes through `harness::record::validate`.
//! Exits non-zero if any artifact is malformed or none was found.
//!
//! Usage: `validate-trace [DIR]` (default `results`).

use std::path::Path;
use std::process::ExitCode;

/// Check one artifact by its file name.
fn validate(name: &str, body: &str) -> Result<String, String> {
    if name.ends_with(".csv") {
        let cols = harness::telemetry::csv::validate(body)?;
        return Ok(format!("{} columns", cols.len()));
    }
    if name.ends_with("trace.json") {
        harness::telemetry::json::validate(body)?;
        let pairs = harness::telemetry::export::span_balance(body)?;
        return Ok(format!("spans balanced, {pairs} B/E pairs"));
    }
    harness::record::validate(body)
}

fn main() -> ExitCode {
    let dir = std::env::args().nth(1).unwrap_or_else(|| "results".into());
    let dir = Path::new(&dir);
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("[validate-trace] cannot read {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };

    let mut checked = 0usize;
    let mut failed = 0usize;
    let mut paths: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();

    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.ends_with(".csv") || name.ends_with(".json")) {
            continue;
        }
        let verdict = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|body| validate(name, &body));
        checked += 1;
        match verdict {
            Ok(detail) => println!("[validate-trace] OK   {} ({detail})", path.display()),
            Err(e) => {
                failed += 1;
                eprintln!("[validate-trace] FAIL {}: {e}", path.display());
            }
        }
    }

    println!("[validate-trace] {checked} artifacts checked, {failed} failed");
    if checked == 0 {
        eprintln!("[validate-trace] no .csv/.json artifacts found — nothing validated");
    }
    if failed > 0 || checked == 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
