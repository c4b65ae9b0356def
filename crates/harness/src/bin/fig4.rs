//! Regenerates the paper's fig4 artifact. Usage:
//! `cargo run --release -p harness --bin fig4 [--quick] [--scale X] [--threads N]`
fn main() -> std::process::ExitCode {
    harness::experiments::plan_main(&[harness::experiments::fig4::EXPERIMENT])
}
