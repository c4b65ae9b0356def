//! Extension: fault-lifecycle span profiler. Usage:
//! `cargo run --release -p harness --bin profile [--quick] [--scale X]`
//! (always traces with span recording on; writes the per-stage latency
//! report plus the `BENCH_profile.json` perf-regression export).
fn main() {
    harness::experiments::binary_main(harness::experiments::profile::EXPERIMENT);
}
