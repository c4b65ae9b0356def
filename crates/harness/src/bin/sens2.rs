//! Extension: T1/T2 and fault-cost sensitivity. Usage:
//! `cargo run --release -p harness --bin sens2 [--quick] [--scale X]`
fn main() -> std::process::ExitCode {
    harness::experiments::plan_main(&[harness::experiments::sens2::EXPERIMENT])
}
