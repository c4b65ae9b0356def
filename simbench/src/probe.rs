//! Host-speed probe: a fixed kernel timed between cells, so every
//! timing can be put at the reference host's speed.
//!
//! On shared hosts the simulator slows by 30–60 % for windows that last
//! seconds to minutes. On the 2-vCPU development VM such windows hit
//! branchy, cache-resident code like the simulator's, while a
//! DRAM-latency pointer chase and a register-only multiply chain kept
//! their speed. A binary search over a 32 KiB table is branchy and
//! cache-resident too, and slows in step with the simulator: across
//! five minutes that swung between fast and slow windows, `simulate`
//! wall ÷ probe time stayed within −8 %…+4 % while `simulate` wall
//! alone moved by 58 %. The probe is part of the benchmark, which no
//! change claiming a gain may edit, so a faster simulator still shows
//! as a smaller ratio.

use std::hint::black_box;
use std::time::Instant;

/// Table size: 8192 keys, 32 KiB, resident in L1/L2.
const KEYS: usize = 8192;

/// Lookups per probe: about 0.2 ms on the reference host.
const LOOKUPS: u32 = 20_000;

/// Probe time on the reference host (2-vCPU Intel Xeon development VM,
/// rustc 1.95.0) in an unloaded window. Timings are reported as
/// `measured × REFERENCE_NS ÷ probe`: the time the same work takes on
/// that host when nothing interferes.
pub const REFERENCE_NS: f64 = 193_000.0;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// The probe's fixed input.
pub struct Probe {
    sorted: Vec<u32>,
}

impl Probe {
    /// Build the probe's table (the same on every run).
    #[must_use]
    pub fn new() -> Probe {
        let mut s = 99u64;
        let mut sorted: Vec<u32> = (0..KEYS).map(|_| xorshift(&mut s) as u32).collect();
        sorted.sort_unstable();
        Probe { sorted }
    }

    /// Wall time of one probe, in ns.
    #[must_use]
    pub fn time_ns(&self) -> f64 {
        let t = Instant::now();
        let mut s = 5u64;
        let mut acc = 0usize;
        for _ in 0..LOOKUPS {
            let key = xorshift(&mut s) as u32;
            acc += self.sorted.binary_search(&key).unwrap_or_else(|i| i);
        }
        black_box(acc);
        t.elapsed().as_nanos() as f64
    }
}

/// `measured_ns` put at the reference host's speed, given the probe
/// time taken around the measurement.
#[must_use]
pub fn calibrate(measured_ns: f64, probe_ns: f64) -> f64 {
    measured_ns * REFERENCE_NS / probe_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_deterministic_and_takes_time() {
        let a = Probe::new();
        let b = Probe::new();
        assert_eq!(a.sorted, b.sorted);
        assert!(a.sorted.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.time_ns() > 0.0);
    }

    #[test]
    fn calibration_scales_by_probe_speed() {
        assert_eq!(calibrate(1000.0, REFERENCE_NS), 1000.0);
        // A probe twice as slow as the reference halves the time.
        assert_eq!(calibrate(1000.0, 2.0 * REFERENCE_NS), 500.0);
    }
}
