//! Extension: eviction-traffic timeline. Usage:
//! `cargo run --release -p harness --bin timeline [--quick] [--scale X]
//! [--trace-format csv|json|chrome|all]` (the timeline always traces;
//! the format flag selects which artifacts land in `results/`).
fn main() -> std::process::ExitCode {
    harness::experiments::plan_main(&[harness::experiments::timeline::EXPERIMENT])
}
