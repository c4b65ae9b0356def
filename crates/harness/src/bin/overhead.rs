//! Regenerates the paper's overhead artifact. Usage:
//! `cargo run --release -p harness --bin overhead [--quick] [--scale X] [--threads N]`
fn main() -> std::process::ExitCode {
    harness::experiments::plan_main(&[harness::experiments::overhead::EXPERIMENT])
}
