//! Extension: stage latencies and policy-decision audit. Usage:
//! `cargo run --release -p harness --bin audit [--quick] [--scale X]`
//! (always records spans and decisions; writes `results/audit.txt`,
//! the `results/audit.json` run record and the per-page lifetime CSVs).
fn main() -> std::process::ExitCode {
    harness::experiments::plan_main(&[harness::experiments::audit::EXPERIMENT])
}
