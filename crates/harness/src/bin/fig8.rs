//! Regenerates the paper's fig8 artifact. Usage:
//! `cargo run --release -p harness --bin fig8 [--quick] [--scale X] [--threads N]`
fn main() -> std::process::ExitCode {
    harness::experiments::plan_main(&[harness::experiments::fig8::EXPERIMENT])
}
