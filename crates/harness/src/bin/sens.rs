//! Regenerates the paper's sens artifact. Usage:
//! `cargo run --release -p harness --bin sens [--quick] [--scale X] [--threads N]`
fn main() -> std::process::ExitCode {
    harness::experiments::plan_main(&[harness::experiments::sens::EXPERIMENT])
}
