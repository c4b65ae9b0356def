//! Regenerates the paper's table4 artifact. Usage:
//! `cargo run --release -p harness --bin table4 [--quick] [--scale X] [--threads N]`
fn main() -> std::process::ExitCode {
    harness::experiments::plan_main(&[harness::experiments::table4::EXPERIMENT])
}
