//! Experiment runner: one (workload × policy × oversubscription) cell,
//! as data ([`Cell`]); [`Cell::run`] is the one place the harness calls
//! the simulator, attaching the [`Tracing`] observer when the cell asks
//! for tracing.
//!
//! §VI methodology: "We first used an unlimited memory capacity to
//! determine the total memory footprint of each application. Next, we
//! reduced the memory size ... to two oversubscription rates: 75% and
//! 50%, so that 75% and 50% of each application's footprint fits in the
//! GPU memory." Capacity here is exactly `rate × footprint`, rounded to
//! whole chunks.

use crate::telemetry::{RunTelemetry, TraceConfig, TraceFormat};
use crate::tracing::Tracing;
use cppe::presets::PolicyPreset;
use gmmu::types::PAGES_PER_CHUNK;
use gpu::{simulate, simulate_with, GpuConfig, RunResult};
use workloads::{registry, LaneItem, WorkloadSpec};

/// The two oversubscription rates of the evaluation.
pub const RATES: [f64; 2] = [0.75, 0.50];

/// Shared experiment settings.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Footprint scale (1.0 = Table II sizes; smaller for quick runs —
    /// capacity always scales with the footprint, so oversubscription
    /// behaviour is preserved).
    pub scale: f64,
    /// GPU model.
    pub gpu: GpuConfig,
    /// Seed for stochastic policies (Random eviction).
    pub seed: u64,
    /// Trace every cell with these ring capacities (`--trace`); `None`
    /// runs untraced cells.
    pub trace: Option<TraceConfig>,
    /// Which trace artifacts to export when tracing (`--trace-format`;
    /// ignored with tracing off).
    pub trace_format: TraceFormat,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            // Full Table II footprints. One modelled warp slot per SM
            // keeps the lane count (28) below the chunk count of even
            // the smallest benchmark AND below MHPE's forward-distance
            // ceiling (T3 = 32), so the MRU victim window can learn to
            // skip past the chunks the SMs are actively consuming —
            // the regime the paper's 2..=8/32 constants assume.
            scale: 1.0,
            gpu: GpuConfig {
                warps_per_sm: 1,
                ..GpuConfig::default()
            },
            seed: 0xC0FFEE,
            trace: None,
            trace_format: TraceFormat::Csv,
        }
    }
}

impl ExpConfig {
    /// Fast settings for tests and smoke runs.
    #[must_use]
    pub fn quick() -> Self {
        ExpConfig {
            scale: 0.5,
            ..ExpConfig::default()
        }
    }
}

/// GPU memory capacity (in pages) for a workload at an oversubscription
/// rate: `rate × footprint`, whole chunks, at least two chunks.
#[must_use]
pub fn capacity_pages(spec: &WorkloadSpec, rate: f64, scale: f64) -> u32 {
    let pages = spec.pages(scale) as f64;
    let cap = (pages * rate).round() as u64;
    let chunks = (cap / PAGES_PER_CHUNK).max(2);
    (chunks * PAGES_PER_CHUNK) as u32
}

/// One run of the simulator, as data: workload, policy, capacity
/// rate, the seed passed to [`PolicyPreset::build`], GPU model,
/// footprint scale and tracing request.
#[derive(Clone)]
pub struct Cell {
    /// Workload to run.
    pub spec: WorkloadSpec,
    /// Policy preset.
    pub preset: PolicyPreset,
    /// Oversubscription rate (fraction of footprint that fits).
    pub rate: f64,
    /// Seed handed to [`PolicyPreset::build`].
    pub seed: u64,
    /// GPU model, including injection and resilience.
    pub gpu: GpuConfig,
    /// Footprint scale.
    pub scale: f64,
    /// Record the run's telemetry with these ring capacities; `None`
    /// runs untraced.
    pub trace: Option<TraceConfig>,
}

/// Exact identity of a [`Cell`] (see [`Cell::key`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey(String);

impl Cell {
    /// The standard cell: `cfg`'s GPU, scale and tracing request, seed
    /// `cfg.seed ^ spec.seed`.
    #[must_use]
    pub fn new(spec: &WorkloadSpec, preset: PolicyPreset, rate: f64, cfg: &ExpConfig) -> Cell {
        Cell {
            spec: spec.clone(),
            preset,
            rate,
            seed: cfg.seed ^ spec.seed,
            gpu: cfg.gpu,
            scale: cfg.scale,
            trace: cfg.trace,
        }
    }

    /// This cell traced with `trace`'s ring capacities and audit
    /// setting.
    #[must_use]
    pub fn traced(mut self, trace: TraceConfig) -> Cell {
        self.trace = Some(trace);
        self
    }

    /// [`Cell::new`] for a registry workload (panics on an unknown
    /// abbreviation).
    #[must_use]
    pub fn app(abbr: &str, preset: PolicyPreset, rate: f64, cfg: &ExpConfig) -> Cell {
        let spec = registry::by_abbr(abbr).expect("known app");
        Cell::new(&spec, preset, rate, cfg)
    }

    /// The cell's exact identity: two cells with equal keys run the
    /// same simulation. The spec is keyed by its fields (the phase
    /// builder by address), the rate and scale by their bits, and the
    /// GPU model and tracing request by their `Debug` text, which lists
    /// every field and prints each `f64` as its shortest round-trip
    /// decimal, so equal text means equal bits.
    #[must_use]
    pub fn key(&self) -> CellKey {
        let s = &self.spec;
        let spec = (s.abbr, s.footprint_mb.to_bits(), s.seed, s.build as usize);
        let bits = (self.rate.to_bits(), self.scale.to_bits());
        let (preset, seed, gpu, trace) = (self.preset, self.seed, &self.gpu, &self.trace);
        CellKey(format!(
            "{spec:?} {preset:?} {bits:?} {seed} {gpu:?} {trace:?}"
        ))
    }

    /// Per-lane access streams at the cell's scale.
    #[must_use]
    pub fn streams(&self) -> Vec<Vec<LaneItem>> {
        let lanes = self.gpu.lanes();
        (0..lanes)
            .map(|l| self.spec.lane_items(l, lanes, self.scale))
            .collect()
    }

    /// GPU memory capacity in pages ([`capacity_pages`]).
    #[must_use]
    pub fn capacity(&self) -> u32 {
        capacity_pages(&self.spec, self.rate, self.scale)
    }

    /// Simulate the cell; a traced cell also returns its telemetry.
    #[must_use]
    pub fn run(&self) -> (RunResult, Option<RunTelemetry>) {
        let engine = self.preset.build(self.seed);
        let (streams, capacity) = (self.streams(), self.capacity());
        let footprint = self.spec.pages(self.scale);
        match self.trace {
            None => (
                simulate(&self.gpu, engine, &streams, capacity, footprint),
                None,
            ),
            Some(trace) => {
                let mut tracing = Tracing::new(trace, self.gpu.warps_per_sm);
                let r = simulate_with(
                    &self.gpu,
                    engine,
                    &streams,
                    capacity,
                    footprint,
                    &mut tracing,
                );
                (r, Some(tracing.finish()))
            }
        }
    }
}

/// Run one cell of the evaluation matrix.
#[must_use]
pub fn run_cell(
    spec: &WorkloadSpec,
    preset: PolicyPreset,
    rate: f64,
    cfg: &ExpConfig,
) -> RunResult {
    Cell::new(spec, preset, rate, cfg).run().0
}

/// Speedup of `policy` over `base` (cycles ratio). `None` when either
/// run failed to complete — the caller decides how to render an 'X'.
#[must_use]
pub fn speedup(base: &RunResult, policy: &RunResult) -> Option<f64> {
    if !base.completed() || !policy.completed() || policy.cycles == 0 {
        return None;
    }
    Some(base.cycles as f64 / policy.cycles as f64)
}

/// Geometric mean of speedups (the paper reports averages across
/// benchmarks); skips `None`s.
#[must_use]
pub fn geomean(xs: &[Option<f64>]) -> Option<f64> {
    let vals: Vec<f64> = xs.iter().flatten().copied().filter(|v| *v > 0.0).collect();
    if vals.is_empty() {
        return None;
    }
    let log_sum: f64 = vals.iter().map(|v| v.ln()).sum();
    Some((log_sum / vals.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::registry;

    #[test]
    fn capacity_is_rate_times_footprint() {
        let w = registry::by_abbr("STN").unwrap();
        let pages = w.pages(0.25); // 4 MB * 0.25 = 256 pages
        assert_eq!(pages, 256);
        assert_eq!(capacity_pages(&w, 0.5, 0.25), 128);
        assert_eq!(capacity_pages(&w, 0.75, 0.25), 192);
    }

    #[test]
    fn capacity_floor_two_chunks() {
        let w = registry::by_abbr("STN").unwrap();
        assert_eq!(capacity_pages(&w, 0.01, 0.25), 32);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[None, None]), None);
        let g = geomean(&[Some(2.0), Some(8.0)]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        let g = geomean(&[Some(2.0), None, Some(8.0)]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn run_cell_smoke() {
        let cfg = ExpConfig::quick();
        let w = registry::by_abbr("STN").unwrap();
        let r = run_cell(&w, PolicyPreset::Baseline, 0.5, &cfg);
        assert!(r.accesses > 0);
        assert!(r.engine.faults > 0);
    }
}
