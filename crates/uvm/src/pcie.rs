//! CPU↔GPU interconnect model.
//!
//! Table I: "16GB/s, 20 µs page fault service time". The link is modelled
//! as full duplex — one 16 GB/s lane per direction — with transfers in
//! each direction serialized FIFO. Page migrations (host→device) and
//! evictions (device→host) therefore overlap with each other but queue
//! behind earlier traffic in their own direction, which is what makes
//! thrashing (high eviction volume) consume real time in the simulator,
//! not just counters.

use gmmu::types::PAGE_SIZE;
use sim_core::error::{require_positive, ConfigError};
use sim_core::time::{transfer_cycles, Cycle};

/// The PCIe-like link.
#[derive(Debug)]
pub struct PcieLink {
    gb_per_s: f64,
    h2d_free: Cycle,
    d2h_free: Cycle,
    /// Total host→device bytes moved.
    pub bytes_h2d: u64,
    /// Total device→host bytes moved.
    pub bytes_d2h: u64,
}

impl PcieLink {
    /// Link with `gb_per_s` GB/s per direction (Table I: 16).
    ///
    /// # Errors
    /// Returns [`ConfigError::NotPositive`] for a non-positive (or
    /// non-finite) bandwidth.
    pub fn try_new(gb_per_s: f64) -> Result<Self, ConfigError> {
        require_positive("pcie_gb_per_s", gb_per_s)?;
        Ok(PcieLink {
            gb_per_s,
            h2d_free: Cycle::ZERO,
            d2h_free: Cycle::ZERO,
            bytes_h2d: 0,
            bytes_d2h: 0,
        })
    }

    /// Link with `gb_per_s` GB/s per direction (Table I: 16).
    /// Convenience wrapper over [`PcieLink::try_new`].
    ///
    /// # Panics
    /// Panics if the bandwidth is not positive.
    #[must_use]
    pub fn new(gb_per_s: f64) -> Self {
        PcieLink::try_new(gb_per_s).expect("link bandwidth must be positive")
    }

    /// Enqueue a host→device transfer of `pages` pages at `now`.
    /// Returns its completion time.
    pub fn transfer_h2d(&mut self, pages: u64, now: Cycle) -> Cycle {
        self.transfer_h2d_at(pages, now, 1.0)
    }

    /// Host→device transfer under a bandwidth multiplier (fault
    /// injection: degraded-link windows run at `bw_factor < 1`).
    #[inline]
    pub fn transfer_h2d_at(&mut self, pages: u64, now: Cycle, bw_factor: f64) -> Cycle {
        debug_assert!(bw_factor > 0.0 && bw_factor <= 1.0);
        let bytes = pages * PAGE_SIZE;
        self.bytes_h2d += bytes;
        let start = self.h2d_free.max(now);
        let done = start.after(transfer_cycles(bytes, self.gb_per_s * bw_factor));
        self.h2d_free = done;
        done
    }

    /// Enqueue a device→host transfer of `pages` pages at `now`.
    /// Returns its completion time.
    pub fn transfer_d2h(&mut self, pages: u64, now: Cycle) -> Cycle {
        self.transfer_d2h_at(pages, now, 1.0)
    }

    /// Device→host transfer under a bandwidth multiplier.
    #[inline]
    pub fn transfer_d2h_at(&mut self, pages: u64, now: Cycle, bw_factor: f64) -> Cycle {
        debug_assert!(bw_factor > 0.0 && bw_factor <= 1.0);
        let bytes = pages * PAGE_SIZE;
        self.bytes_d2h += bytes;
        let start = self.d2h_free.max(now);
        let done = start.after(transfer_cycles(bytes, self.gb_per_s * bw_factor));
        self.d2h_free = done;
        done
    }

    /// When the host→device direction becomes idle.
    #[must_use]
    pub fn h2d_free_at(&self) -> Cycle {
        self.h2d_free
    }

    /// When the device→host direction becomes idle.
    #[must_use]
    pub fn d2h_free_at(&self) -> Cycle {
        self.d2h_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_page_is_359_cycles_at_16gbps() {
        let mut l = PcieLink::new(16.0);
        let done = l.transfer_h2d(1, Cycle::ZERO);
        assert_eq!(done, Cycle(359));
        assert_eq!(l.bytes_h2d, 4096);
    }

    #[test]
    fn same_direction_serializes() {
        let mut l = PcieLink::new(16.0);
        let a = l.transfer_h2d(1, Cycle::ZERO);
        let b = l.transfer_h2d(1, Cycle::ZERO);
        assert_eq!(b, a.after(359));
    }

    #[test]
    fn directions_are_independent() {
        let mut l = PcieLink::new(16.0);
        let a = l.transfer_h2d(16, Cycle::ZERO);
        let b = l.transfer_d2h(16, Cycle::ZERO);
        assert_eq!(a, b, "full duplex: directions do not contend");
    }

    #[test]
    fn idle_gap_respected() {
        let mut l = PcieLink::new(16.0);
        l.transfer_h2d(1, Cycle::ZERO);
        let done = l.transfer_h2d(1, Cycle(10_000));
        assert_eq!(done, Cycle(10_359), "starts at now when link idle");
    }

    #[test]
    fn zero_pages_is_free() {
        let mut l = PcieLink::new(16.0);
        assert_eq!(l.transfer_h2d(0, Cycle(5)), Cycle(5));
    }

    #[test]
    fn chunk_transfer_time() {
        // 64 KB at 16 GB/s = 4096 ns = 5734.4 cycles → 5735.
        let mut l = PcieLink::new(16.0);
        assert_eq!(l.transfer_h2d(16, Cycle::ZERO), Cycle(5735));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_panics() {
        let _ = PcieLink::new(0.0);
    }

    #[test]
    fn try_new_reports_typed_error() {
        assert!(PcieLink::try_new(16.0).is_ok());
        let err = PcieLink::try_new(0.0).unwrap_err();
        assert!(err.to_string().contains("pcie_gb_per_s"));
        assert!(PcieLink::try_new(-4.0).is_err());
        assert!(PcieLink::try_new(f64::NAN).is_err());
    }

    #[test]
    fn unit_bandwidth_factor_is_bit_identical() {
        let mut a = PcieLink::new(16.0);
        let mut b = PcieLink::new(16.0);
        for i in 0..32u64 {
            let ta = a.transfer_h2d(i, Cycle(i * 100));
            let tb = b.transfer_h2d_at(i, Cycle(i * 100), 1.0);
            assert_eq!(ta, tb);
        }
        assert_eq!(a.bytes_h2d, b.bytes_h2d);
    }

    #[test]
    fn degraded_factor_slows_transfers() {
        let mut l = PcieLink::new(16.0);
        // 16 pages at quarter bandwidth ≈ 4× the nominal 5735 cycles.
        let done = l.transfer_h2d_at(16, Cycle::ZERO, 0.25);
        assert!(done.0 > 4 * 5700 && done.0 < 4 * 5800, "got {done}");
    }
}
