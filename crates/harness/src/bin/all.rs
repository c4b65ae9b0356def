//! Regenerates every table and figure in one go. Usage:
//! `cargo run --release -p harness --bin all [--quick] [--scale X] [--threads N]`
//!
//! Runs the union of every report's cells, each distinct cell once,
//! then renders the reports in order. Exits non-zero if any report
//! failed to save, so a stale committed copy under `results/` cannot
//! pass for a fresh one.
use std::process::ExitCode;

fn main() -> ExitCode {
    let failed_saves = harness::experiments::plan_main(&harness::experiments::ALL);
    if failed_saves > 0 {
        eprintln!("[all] {failed_saves} report(s) failed to save");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
