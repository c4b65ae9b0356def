//! Regenerates every table and figure in one go. Usage:
//! `cargo run --release -p harness --bin all [--quick] [--scale X] [--threads N]`
//!
//! Runs the union of every report's cells, each distinct cell once,
//! then renders the reports in order. Exits non-zero if any report
//! failed to save.
fn main() -> std::process::ExitCode {
    harness::experiments::plan_main(&harness::experiments::ALL)
}
