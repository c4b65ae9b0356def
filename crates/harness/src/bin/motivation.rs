//! Regenerates the paper's motivation artifact. Usage:
//! `cargo run --release -p harness --bin motivation [--quick] [--scale X] [--threads N]`
fn main() {
    harness::experiments::binary_main(harness::experiments::motivation::EXPERIMENT);
}
