//! Regenerates the paper's sens artifact. Usage:
//! `cargo run --release -p harness --bin sens [--quick] [--scale X] [--threads N]`
fn main() {
    harness::experiments::binary_main(harness::experiments::sens::EXPERIMENT);
}
