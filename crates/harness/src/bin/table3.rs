//! Regenerates the paper's table3 artifact. Usage:
//! `cargo run --release -p harness --bin table3 [--quick] [--scale X] [--threads N]`
fn main() -> std::process::ExitCode {
    harness::experiments::plan_main(&[harness::experiments::table3::EXPERIMENT])
}
