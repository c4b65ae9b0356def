//! The benchmark's workloads: fixed lists of simulator cells.
//!
//! A cell is one `(app, policy preset, oversubscription rate)` run at
//! the workload's footprint scale and lane count, built exactly the way
//! `harness::run_cell` builds it. At seed 0 every cell *is*
//! `harness::run_cell` (a test pins that); a non-zero seed XORs a mix of
//! the seed into the app's stream seed, the compute-jitter seed and the
//! policy seed, so each seed is a different but equally valid input.

use cppe::presets::PolicyPreset;
use gmmu::types::PAGES_PER_CHUNK;
use gpu::{GpuConfig, RunResult};
use sim_core::rng::SplitMix64;
use std::time::Instant;
use workloads::{registry, LaneItem, WorkloadSpec};

/// `ExpConfig::default().seed`: the policy seed every figure uses.
const EXP_SEED: u64 = 0xC0FFEE;

/// The 23 Table II apps, in Table II order.
const ALL_APPS: [&str; 23] = [
    "HOT", "LEU", "2DC", "3DC", "BKP", "PAT", "DWT", "KMN", "SAD", "NW", "BFS", "MVT", "BIC",
    "SRD", "HSD", "MRQ", "STN", "HWL", "SGM", "HIS", "SPV", "B+T", "HYB",
];

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the benchmark runs it (which layers it stresses or bypasses).
    pub why: &'static str,
    /// Apps, by Table II abbreviation.
    pub apps: &'static [&'static str],
    /// Policy presets run on every app.
    pub presets: &'static [PolicyPreset],
    /// Oversubscription rates (capacity = rate × footprint).
    pub rates: &'static [f64],
    /// Footprint scale (1.0 = Table II sizes).
    pub scale: f64,
    /// Warp slots per SM: 28 SMs × this = lanes.
    pub warps_per_sm: usize,
}

/// Every workload, in the order `run` without `--workload` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper-fig9",
        why: "the Fig. 9 sweep users run: 23 apps x 5 policies x 2 rates, 28 lanes; \
              nearly every access walks the page table",
        apps: &ALL_APPS,
        presets: &[
            PolicyPreset::Baseline,
            PolicyPreset::Random,
            PolicyPreset::ReservedLru10,
            PolicyPreset::ReservedLru20,
            PolicyPreset::Cppe,
        ],
        rates: &[0.75, 0.5],
        scale: 1.0,
        warps_per_sm: 1,
    },
    Workload {
        name: "fault-storm",
        why: "about 0.7 faults per access with single-page plans: batching, eviction, \
              shootdowns, waiters and the event queue do the most work",
        apps: &["SRD", "HSD", "MRQ", "STN", "HWL", "SGM", "HIS", "SPV"],
        presets: &[PolicyPreset::DisablePfOnFull, PolicyPreset::HpeNoPf],
        rates: &[0.5],
        scale: 1.0,
        warps_per_sm: 1,
    },
    Workload {
        name: "resident-112",
        why: "capacity equals footprint at 112 lanes: only the hit path runs, \
              eviction never does, and L1 TLB hits appear",
        apps: &ALL_APPS,
        presets: &[PolicyPreset::Baseline],
        rates: &[1.0],
        scale: 1.0,
        warps_per_sm: 4,
    },
    Workload {
        name: "footprint-x4",
        why: "4x footprint (about 130k pages): per-page state and TLB/PWC indexes \
              outgrow the host L2 cache; largest set-up per cell",
        apps: &["2DC", "3DC", "KMN", "HYB"],
        presets: &[PolicyPreset::Baseline, PolicyPreset::Cppe],
        rates: &[0.5],
        scale: 4.0,
        warps_per_sm: 1,
    },
];

/// Look a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One simulator run of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Index into [`Workload::apps`] (and the prepared [`App`] list).
    pub app: usize,
    /// Policy preset.
    pub preset: PolicyPreset,
    /// Oversubscription rate.
    pub rate: f64,
}

/// An app's generated input, shared by every cell of that app.
pub struct App {
    /// The Table II spec, with the seed mix applied.
    pub spec: WorkloadSpec,
    /// One item stream per lane.
    pub streams: Vec<Vec<LaneItem>>,
    /// Scaled footprint in pages.
    pub pages: u64,
}

/// Per-seed derived settings of a workload run.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// The simulator configuration every cell runs with.
    pub gpu: GpuConfig,
    /// Footprint scale.
    pub scale: f64,
    /// XORed into each app's stream seed.
    spec_mix: u64,
    /// XORed into each cell's policy seed.
    policy_mix: u64,
}

impl Setup {
    /// Settings for `w` at benchmark seed `seed` (0 = `harness::run_cell`).
    #[must_use]
    pub fn new(w: &Workload, seed: u64) -> Setup {
        let [spec_mix, jitter_mix, policy_mix] = if seed == 0 {
            [0; 3]
        } else {
            let mut r = SplitMix64::new(seed);
            [r.next_u64(), r.next_u64(), r.next_u64()]
        };
        let defaults = GpuConfig::default();
        Setup {
            gpu: GpuConfig {
                warps_per_sm: w.warps_per_sm,
                jitter_seed: defaults.jitter_seed ^ jitter_mix,
                ..defaults
            },
            scale: w.scale,
            spec_mix,
            policy_mix,
        }
    }

    /// The workload's cells in run order: app-major, then preset, then
    /// rate (the order `harness::cross` enumerates a sweep).
    #[must_use]
    pub fn cells(w: &Workload) -> Vec<Cell> {
        let mut cells = Vec::new();
        for app in 0..w.apps.len() {
            for &preset in w.presets {
                for &rate in w.rates {
                    cells.push(Cell { app, preset, rate });
                }
            }
        }
        cells
    }

    /// Table II spec of `abbr` with this seed's stream-seed mix.
    ///
    /// # Panics
    /// Panics on an abbreviation missing from the registry (the workload
    /// table above is static).
    #[must_use]
    pub fn spec(&self, abbr: &str) -> WorkloadSpec {
        let mut spec = registry::by_abbr(abbr).expect("workload table names registry apps");
        spec.seed ^= self.spec_mix;
        spec
    }

    /// Generate every lane's stream for `spec`, as `run_cell` does.
    #[must_use]
    pub fn streams(&self, spec: &WorkloadSpec) -> Vec<Vec<LaneItem>> {
        let lanes = self.gpu.lanes();
        (0..lanes)
            .map(|l| spec.lane_items(l, lanes, self.scale))
            .collect()
    }

    /// Generate `abbr`'s input.
    #[cfg(test)]
    #[must_use]
    pub fn app(&self, abbr: &str) -> App {
        let spec = self.spec(abbr);
        let streams = self.streams(&spec);
        let pages = spec.pages(self.scale);
        App {
            spec,
            streams,
            pages,
        }
    }

    /// Policy seed of a cell of `spec`: `run_cell`'s `cfg.seed ^ spec.seed`.
    #[must_use]
    pub fn policy_seed(&self, spec: &WorkloadSpec) -> u64 {
        EXP_SEED ^ spec.seed ^ self.policy_mix
    }

    /// Run one cell; also returns the wall time of `gpu::simulate`
    /// alone, in ns (the policy engine is built before the clock starts).
    #[must_use]
    pub fn run(&self, app: &App, cell: &Cell) -> (RunResult, f64) {
        let engine = cell.preset.build(self.policy_seed(&app.spec));
        let capacity = capacity_pages(app.pages, cell.rate);
        let t = Instant::now();
        let r = gpu::simulate(&self.gpu, engine, &app.streams, capacity, app.pages);
        (r, t.elapsed().as_nanos() as f64)
    }
}

/// GPU memory capacity in pages for a `pages`-page footprint at `rate`:
/// `rate × footprint`, whole chunks, at least two chunks (the rule of
/// `harness::capacity_pages`).
#[must_use]
pub fn capacity_pages(pages: u64, rate: f64) -> u32 {
    let cap = (pages as f64 * rate).round() as u64;
    let chunks = (cap / PAGES_PER_CHUNK).max(2);
    (chunks * PAGES_PER_CHUNK) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::ExpConfig;

    fn small(w: &Workload) -> Workload {
        Workload { scale: 0.25, ..*w }
    }

    #[test]
    fn app_table_is_the_registry() {
        let names: Vec<&str> = registry::all().iter().map(|w| w.abbr).collect();
        assert_eq!(names, ALL_APPS);
        for w in &WORKLOADS {
            for abbr in w.apps {
                assert!(registry::by_abbr(abbr).is_some(), "{abbr}");
            }
        }
    }

    #[test]
    fn capacity_matches_harness() {
        for spec in registry::all() {
            for scale in [0.25, 1.0, 4.0] {
                for rate in [0.01, 0.5, 0.75, 1.0] {
                    assert_eq!(
                        capacity_pages(spec.pages(scale), rate),
                        harness::capacity_pages(&spec, rate, scale),
                        "{} scale {scale} rate {rate}",
                        spec.abbr
                    );
                }
            }
        }
    }

    /// Seed-0 cells are `harness::run_cell`, and land on the golden
    /// cycle counts pinned by the repository's `perf_identity` test.
    #[test]
    fn seed_zero_cells_are_run_cell() {
        let golden = [
            ("STN", PolicyPreset::Baseline, 1_644_517u64),
            ("STN", PolicyPreset::Cppe, 1_995_500),
            ("KMN", PolicyPreset::Baseline, 13_467_250),
            ("KMN", PolicyPreset::Cppe, 10_008_513),
            ("SRD", PolicyPreset::Baseline, 12_238_983),
            ("SRD", PolicyPreset::Cppe, 8_551_454),
        ];
        let w = small(&WORKLOADS[1]);
        let setup = Setup::new(&w, 0);
        let exp = ExpConfig {
            scale: 0.25,
            ..ExpConfig::default()
        };
        assert_eq!(setup.gpu.lanes(), exp.gpu.lanes());
        for (abbr, preset, cycles) in golden {
            let app = setup.app(abbr);
            let cell = Cell {
                app: 0,
                preset,
                rate: 0.5,
            };
            let (ours, _) = setup.run(&app, &cell);
            let reference = harness::run_cell(&app.spec, preset, 0.5, &exp);
            assert_eq!(ours.cycles, cycles, "{abbr}/{}", preset.label());
            assert_eq!(reference.cycles, cycles, "{abbr}/{}", preset.label());
            assert_eq!(ours.accesses, reference.accesses);
            assert_eq!(ours.engine.faults, reference.engine.faults);
            assert_eq!(ours.translation, reference.translation);
        }
    }

    #[test]
    fn nonzero_seed_changes_some_cell() {
        let w = small(&WORKLOADS[1]);
        let cell = Cell {
            app: 0,
            preset: PolicyPreset::Baseline,
            rate: 0.5,
        };
        let cycles = |seed: u64, abbr: &str| {
            let setup = Setup::new(&w, seed);
            setup.run(&setup.app(abbr), &cell).0.cycles
        };
        let changed = ["STN", "KMN", "SRD"]
            .iter()
            .any(|abbr| cycles(0, abbr) != cycles(1, abbr));
        assert!(changed, "seed 1 left every cell's cycles unchanged");
    }

    #[test]
    fn cell_lists_have_the_documented_sizes() {
        let sizes: Vec<usize> = WORKLOADS.iter().map(|w| Setup::cells(w).len()).collect();
        assert_eq!(sizes, [230, 16, 23, 8]);
    }
}
