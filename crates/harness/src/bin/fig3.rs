//! Regenerates the paper's fig3 artifact. Usage:
//! `cargo run --release -p harness --bin fig3 [--quick] [--scale X] [--threads N]`
fn main() {
    harness::experiments::binary_main(harness::experiments::fig3::EXPERIMENT);
}
