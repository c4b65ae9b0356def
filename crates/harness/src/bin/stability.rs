//! Extension: jitter-seed robustness. Usage:
//! `cargo run --release -p harness --bin stability [--quick] [--scale X]`
fn main() -> std::process::ExitCode {
    harness::experiments::plan_main(&[harness::experiments::stability::EXPERIMENT])
}
