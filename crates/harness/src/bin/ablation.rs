//! Extension: CPPE component ablation. Usage:
//! `cargo run --release -p harness --bin ablation [--quick] [--scale X] [--threads N]`
fn main() {
    harness::experiments::binary_main(harness::experiments::ablation::EXPERIMENT);
}
