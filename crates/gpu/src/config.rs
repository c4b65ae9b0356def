//! Whole-system configuration (Table I defaults).

use gmmu::translation::TranslationConfig;
use sim_core::error::ConfigError;
use sim_core::fault::InjectionConfig;
use uvm::driver::ResilienceConfig;

/// Simulator configuration.
#[derive(Debug, Clone, Copy)]
pub struct GpuConfig {
    /// Streaming multiprocessors (Table I: 28).
    pub sms: usize,
    /// Concurrently modelled warp slots ("lanes") per SM. Each lane
    /// executes one partition of the workload's access stream; a lane
    /// blocked on a far fault does not stop its SM's other lanes —
    /// the replayable-fault behaviour of Zheng et al.
    pub warps_per_sm: usize,
    /// Address-translation hierarchy shape.
    pub translation: TranslationConfig,
    /// Far-fault base service latency in cycles (20 µs).
    pub fault_base_cycles: u64,
    /// Extra host cycles per additional distinct fault in a batch
    /// (~5 µs of driver-side fault processing).
    pub per_fault_cycles: u64,
    /// Interconnect bandwidth per direction (GB/s).
    pub pcie_gb_per_s: f64,
    /// Crash detector: untouched fraction of evicted pages (see
    /// `uvm::UvmConfig::crash_untouch_fraction`).
    pub crash_untouch_fraction: f64,
    /// Crash detector arming volume in footprint multiples (0 disables).
    pub crash_min_evicted_factor: u64,
    /// Kernel-launch overhead applied at every barrier release (≈5 µs).
    pub launch_overhead_cycles: u64,
    /// Relative jitter applied to every access's compute delay
    /// (0.25 = ±25 %). Models the SM timing skew the paper identifies
    /// as its second source of thrashing ("SM#1 might access a page at
    /// t1, and SM#2 might access the same page at t2"); without it the
    /// barrier-synchronized lanes consume in lock-step and the
    /// forward-distance sensitivity flattens out.
    pub compute_jitter: f64,
    /// Seed for the jitter PRNG (runs are bit-reproducible).
    pub jitter_seed: u64,
    /// Hard stop: declare `Timeout` past this many cycles.
    pub max_cycles: u64,
    /// Fault-injection scenario (chaos experiments). Disabled by
    /// default: no perturbation, no RNG draws, bit-identical runs.
    pub injection: InjectionConfig,
    /// Driver resilience: DMA retry budget/backoff and the thrash
    /// degradation ladder (`degraded_mode`, off by default so the
    /// paper's crash figures are unchanged).
    pub resilience: ResilienceConfig,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            sms: 28,
            warps_per_sm: 4,
            translation: TranslationConfig::default(),
            fault_base_cycles: 28_000,
            per_fault_cycles: 7_000,
            pcie_gb_per_s: 16.0,
            crash_untouch_fraction: 0.65,
            crash_min_evicted_factor: 4,
            launch_overhead_cycles: 7_000,
            compute_jitter: 0.3,
            jitter_seed: 0x6A17_7E12,
            max_cycles: 200_000_000_000,
            injection: InjectionConfig::disabled(),
            resilience: ResilienceConfig::default(),
        }
    }
}

impl GpuConfig {
    /// Total lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.sms * self.warps_per_sm
    }

    /// Validate the configuration: SM and lane counts, the translation
    /// hierarchy's shape ([`TranslationConfig::validate`]: TLB
    /// geometry, walk slots, and at most
    /// [`MAX_SMS`](gmmu::translation::MAX_SMS) = 63 L1 TLBs, one
    /// presence-mask bit each), link bandwidth and injection knobs.
    /// Every SM needs its own L1 TLB, so `sms` may not exceed
    /// `translation.num_sms`.
    ///
    /// # Errors
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.sms == 0 {
            return Err(ConfigError::Zero { field: "sms" });
        }
        if self.warps_per_sm == 0 {
            return Err(ConfigError::Zero {
                field: "warps_per_sm",
            });
        }
        self.translation.validate()?;
        sim_core::error::require_in_range(
            "sms",
            self.sms as f64,
            1.0,
            self.translation.num_sms as f64,
        )?;
        sim_core::error::require_positive("pcie_gb_per_s", self.pcie_gb_per_s)?;
        self.injection.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = GpuConfig::default();
        assert_eq!(c.sms, 28);
        assert_eq!(c.fault_base_cycles, 28_000);
        assert_eq!(c.pcie_gb_per_s, 16.0);
        assert_eq!(c.lanes(), 112);
        // The robustness layers are inert by default.
        assert!(!c.injection.any_enabled());
        assert!(!c.resilience.degraded_mode);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_injection_knobs() {
        let c = GpuConfig {
            injection: InjectionConfig {
                transfer_failure_prob: 2.0,
                ..InjectionConfig::disabled()
            },
            ..GpuConfig::default()
        };
        assert!(c.validate().is_err());
        let c = GpuConfig {
            pcie_gb_per_s: -1.0,
            ..GpuConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_more_sms_than_l1_tlbs() {
        let c = GpuConfig {
            sms: 29,
            ..GpuConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::OutOfRange {
                field: "sms",
                value: 29.0,
                min: 1.0,
                max: 28.0,
            })
        );
        // Fewer SMs than L1 TLBs is fine: the spare TLBs stay idle.
        for sms in [2, 4, 28] {
            let c = GpuConfig {
                sms,
                ..GpuConfig::default()
            };
            assert_eq!(c.validate(), Ok(()), "{sms} SMs");
        }
    }

    #[test]
    fn validate_rejects_more_l1_tlbs_than_mask_bits() {
        let with = |num_sms| GpuConfig {
            translation: TranslationConfig {
                num_sms,
                ..TranslationConfig::default()
            },
            ..GpuConfig::default()
        };
        assert_eq!(with(63).validate(), Ok(()));
        assert_eq!(
            with(64).validate(),
            Err(ConfigError::OutOfRange {
                field: "translation.num_sms",
                value: 64.0,
                min: 1.0,
                max: 63.0,
            })
        );
    }

    /// Each geometry that would panic in `Tlb::new` or `Walker::new`
    /// is a typed error instead.
    #[test]
    fn validate_rejects_unbuildable_translation_geometry() {
        use gmmu::tlb::TlbConfig;
        use gmmu::walker::WalkerConfig;
        let with = |l1: TlbConfig, l2: TlbConfig, concurrency| GpuConfig {
            translation: TranslationConfig {
                l1,
                l2,
                walker: WalkerConfig {
                    concurrency,
                    ..WalkerConfig::default()
                },
                ..TranslationConfig::default()
            },
            ..GpuConfig::default()
        };
        let (l1, l2) = (TlbConfig::l1_default(), TlbConfig::l2_default());
        let zero = |field| Err(ConfigError::Zero { field });
        assert_eq!(
            with(l1, l2, 0).validate(),
            zero("translation.walker.concurrency")
        );
        let l1_no_ways = TlbConfig {
            associativity: 0,
            ..l1
        };
        assert_eq!(
            with(l1_no_ways, l2, 64).validate(),
            zero("translation.l1.associativity")
        );
        let l2_empty = TlbConfig { entries: 0, ..l2 };
        assert_eq!(
            with(l1, l2_empty, 64).validate(),
            zero("translation.l2.entries")
        );
        let l2_ragged = TlbConfig { entries: 500, ..l2 };
        assert_eq!(
            with(l1, l2_ragged, 64).validate(),
            Err(ConfigError::NotMultiple {
                field: "translation.l2.entries",
                value: 500,
                of: 16,
            })
        );
        let l1_three_sets = TlbConfig {
            entries: 24,
            associativity: 8,
            ..l1
        };
        assert_eq!(
            with(l1_three_sets, l2, 64).validate(),
            Err(ConfigError::NotPowerOfTwo {
                field: "translation.l1 set count",
                value: 3,
            })
        );
        // Other power-of-two shapes are fine, and build.
        let l2_small = TlbConfig {
            entries: 64,
            associativity: 4,
            ..l2
        };
        let ok = with(l1, l2_small, 1);
        assert_eq!(ok.validate(), Ok(()));
        let _ = gmmu::translation::TranslationPath::new(&ok.translation);
    }

    #[test]
    fn validate_rejects_zero_sms_and_lanes() {
        let c = GpuConfig {
            sms: 0,
            ..GpuConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::Zero { field: "sms" }));
        let c = GpuConfig {
            warps_per_sm: 0,
            ..GpuConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::Zero {
                field: "warps_per_sm"
            })
        );
    }
}
