//! Extension: resilience under deterministic fault injection. Usage:
//! `cargo run --release -p harness --bin chaos [--quick] [--scale X]`
fn main() -> std::process::ExitCode {
    harness::experiments::plan_main(&[harness::experiments::chaos::EXPERIMENT])
}
