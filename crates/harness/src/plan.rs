//! The cell plan: an [`Experiment`] declares its runs as [`Cell`]s and
//! renders a [`Report`] from their [`Results`]. A plan runs the union
//! of its experiments' cells, each distinct [`CellKey`] once, on
//! scoped workers pulling from one atomic cursor; a panicking cell
//! becomes a [`gpu::Outcome::Crashed`] result instead of aborting the
//! plan.

use crate::report::Report;
use crate::runner::{Cell, CellKey, ExpConfig};
use crate::telemetry::RunTelemetry;
use cppe::presets::PolicyPreset;
use gpu::RunResult;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use workloads::{registry, WorkloadSpec};

/// One report: the cells it reads and how it renders them.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Report name (`results/<name>.txt`, the binary's name).
    pub name: &'static str,
    /// Every cell [`Experiment::render`] looks up.
    pub cells: fn(&ExpConfig) -> Vec<Cell>,
    /// Render the report, with any side files it exports, from the
    /// plan's results.
    pub render: fn(&ExpConfig, &Results) -> Report,
}

impl Experiment {
    /// An experiment (`const`, so each module declares its own).
    #[must_use]
    pub const fn new(
        name: &'static str,
        cells: fn(&ExpConfig) -> Vec<Cell>,
        render: fn(&ExpConfig, &Results) -> Report,
    ) -> Self {
        Experiment {
            name,
            cells,
            render,
        }
    }

    /// Run this experiment alone (a one-experiment plan) and render it.
    #[must_use]
    pub fn run(&self, cfg: &ExpConfig, threads: usize) -> Report {
        (self.render)(cfg, &run_plan(&[*self], cfg, threads))
    }
}

/// Results of a plan, looked up by cell.
pub struct Results {
    map: HashMap<CellKey, (RunResult, Option<RunTelemetry>)>,
    declared: usize,
}

impl Results {
    /// The result of `cell`.
    ///
    /// # Panics
    /// Panics when the plan did not declare `cell`.
    #[must_use]
    pub fn get(&self, cell: &Cell) -> &RunResult {
        &self.run(cell).0
    }

    /// The telemetry `cell` recorded (`None` unless it was traced).
    ///
    /// # Panics
    /// Panics when the plan did not declare `cell`.
    #[must_use]
    pub fn telemetry(&self, cell: &Cell) -> Option<&RunTelemetry> {
        self.run(cell).1.as_ref()
    }

    fn run(&self, cell: &Cell) -> &(RunResult, Option<RunTelemetry>) {
        self.map
            .get(&cell.key())
            .expect("the plan declared this cell")
    }

    /// The result of [`Cell::app`]`(abbr, preset, rate, cfg)`.
    #[must_use]
    pub fn cell(&self, abbr: &str, preset: PolicyPreset, rate: f64, cfg: &ExpConfig) -> &RunResult {
        self.get(&Cell::app(abbr, preset, rate, cfg))
    }

    /// Cells the plan declared, repeats included.
    #[must_use]
    pub fn declared(&self) -> usize {
        self.declared
    }

    /// Cells the plan ran: one per distinct key.
    #[must_use]
    pub fn runs(&self) -> usize {
        self.map.len()
    }
}

/// Run the union of `experiments`' cells, each distinct cell once.
#[must_use]
pub fn run_plan(experiments: &[Experiment], cfg: &ExpConfig, threads: usize) -> Results {
    let cells = experiments.iter().flat_map(|e| (e.cells)(cfg)).collect();
    run_cells_with(cells, threads, Cell::run)
}

/// Run `cells` through `exec` on up to `threads` workers (0 = available
/// parallelism); cells sharing a [`CellKey`] run once. The tests
/// substitute a counting or deliberately crashing "simulator" for
/// [`Cell::run`] here.
#[must_use]
pub fn run_cells_with<F>(cells: Vec<Cell>, threads: usize, exec: F) -> Results
where
    F: Fn(&Cell) -> (RunResult, Option<RunTelemetry>) + Sync,
{
    let declared = cells.len();
    let mut seen = HashSet::new();
    let jobs: Vec<(CellKey, Cell)> = cells
        .into_iter()
        .map(|cell| (cell.key(), cell))
        .filter(|(key, _)| seen.insert(key.clone()))
        .collect();
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    } else {
        threads
    }
    .min(jobs.len().max(1));

    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        while let Some((key, cell)) = jobs.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let result = catch_unwind(AssertUnwindSafe(|| exec(cell)))
                .unwrap_or_else(|payload| (RunResult::failed(panic_message(&*payload)), None));
            done.push((key.clone(), result));
        }
        done
    };
    let map = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("plan worker contains its panics"))
            .collect()
    });
    Results { map, declared }
}

/// Render a caught panic payload as `panic: <message>`.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(non-string payload)");
    format!("panic: {msg}")
}

/// Registry workloads by abbreviation.
///
/// # Panics
/// Panics on an unknown abbreviation.
#[must_use]
pub fn apps(abbrs: &[&str]) -> Vec<WorkloadSpec> {
    abbrs
        .iter()
        .map(|a| registry::by_abbr(a).expect("known app"))
        .collect()
}

/// Standard cells for `specs × presets × rates`.
#[must_use]
pub fn cross(
    specs: &[WorkloadSpec],
    presets: &[PolicyPreset],
    rates: &[f64],
    cfg: &ExpConfig,
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for spec in specs {
        for &preset in presets {
            for &rate in rates {
                cells.push(Cell::new(spec, preset, rate, cfg));
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_cell;
    use crate::telemetry::TraceConfig;
    use gpu::Outcome;
    use sim_core::fault::InjectionConfig;

    fn stub(cycles: u64) -> RunResult {
        let mut r = RunResult::failed("stub");
        r.outcome = Outcome::Completed;
        r.cycles = cycles;
        r
    }

    #[test]
    fn plan_returns_every_cell_and_matches_a_serial_run() {
        let cfg = ExpConfig::quick();
        let cells = cross(
            &apps(&["STN", "MRQ"]),
            &[PolicyPreset::Baseline, PolicyPreset::Cppe],
            &[0.5],
            &cfg,
        );
        assert_eq!(cells.len(), 4);
        let results = run_cells_with(cells, 2, Cell::run);
        assert_eq!(results.runs(), 4);
        let serial = run_cell(&apps(&["STN"])[0], PolicyPreset::Baseline, 0.5, &cfg);
        let cell = results.cell("STN", PolicyPreset::Baseline, 0.5, &cfg);
        assert_eq!(
            cell.cycles, serial.cycles,
            "parallel run must be deterministic"
        );
        assert!(results.cell("MRQ", PolicyPreset::Cppe, 0.5, &cfg).accesses > 0);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // The cursor hands out cells in racy claim order; the assembled
        // results must not depend on it. Run the same small matrix
        // single-threaded and with 8 workers and compare every cell's
        // observable counters.
        let cfg = ExpConfig::quick();
        let cells = cross(
            &apps(&["STN", "MRQ"]),
            &[PolicyPreset::Baseline, PolicyPreset::Cppe],
            &[0.5, 0.75],
            &cfg,
        );
        let serial = run_cells_with(cells.clone(), 1, Cell::run);
        let parallel = run_cells_with(cells.clone(), 8, Cell::run);
        assert_eq!(serial.runs(), parallel.runs());
        for cell in &cells {
            let (a, b) = (serial.get(cell), parallel.get(cell));
            let key = (cell.spec.abbr, cell.preset.label(), cell.rate);
            assert_eq!(a.cycles, b.cycles, "{key:?}: cycles diverged");
            assert_eq!(a.accesses, b.accesses, "{key:?}: accesses diverged");
            assert_eq!(a.engine.faults, b.engine.faults, "{key:?}: faults diverged");
            assert_eq!(
                a.engine.pages_migrated, b.engine.pages_migrated,
                "{key:?}: migrations diverged"
            );
            assert_eq!(
                a.engine.pages_evicted, b.engine.pages_evicted,
                "{key:?}: evictions diverged"
            );
            assert_eq!(a.bytes_h2d, b.bytes_h2d, "{key:?}: h2d bytes diverged");
        }
    }

    #[test]
    fn panicking_cell_yields_failed_result_not_aborted_plan() {
        // Regression: one panicking cell once unwound a scoped worker
        // and aborted the whole sweep. The panic is contained, the cell
        // runs exactly once (no retries), and it surfaces as a Crashed
        // cell while every other cell completes normally.
        let cfg = ExpConfig::quick();
        let cells = cross(
            &apps(&["STN", "MRQ"]),
            &[PolicyPreset::Baseline],
            &[0.5],
            &cfg,
        );
        let mrq_calls = AtomicUsize::new(0);
        let results = run_cells_with(cells, 2, |cell| {
            if cell.spec.abbr == "MRQ" {
                mrq_calls.fetch_add(1, Ordering::Relaxed);
                panic!("deliberate test panic: MRQ cell");
            }
            cell.run()
        });
        assert_eq!(results.runs(), 2, "every cell must be present");
        assert_eq!(
            mrq_calls.load(Ordering::Relaxed),
            1,
            "a panicking cell runs once"
        );
        let crashed = results.cell("MRQ", PolicyPreset::Baseline, 0.5, &cfg);
        assert_eq!(crashed.outcome, Outcome::Crashed);
        assert!(
            crashed
                .error
                .as_deref()
                .unwrap_or("")
                .contains("panic: deliberate test panic"),
            "failure must carry the panic message, got {:?}",
            crashed.error
        );
        let ok = results.cell("STN", PolicyPreset::Baseline, 0.5, &cfg);
        assert_eq!(ok.outcome, Outcome::Completed);
    }

    #[test]
    fn keys_are_exact_and_identical_cells_run_once() {
        let cfg = ExpConfig::quick();
        let base = Cell::app("STN", PolicyPreset::Random, 0.5, &cfg);
        let mut variants = vec![base.clone()];
        let mut vary = |f: &dyn Fn(&mut Cell)| {
            let mut c = base.clone();
            f(&mut c);
            variants.push(c);
        };
        vary(&|c| c.seed ^= 1);
        vary(&|c| c.gpu.jitter_seed ^= 1);
        vary(&|c| c.gpu.fault_base_cycles += 1);
        vary(&|c| c.trace = Some(TraceConfig::default()));
        vary(&|c| c.trace = Some(TraceConfig::audited()));
        vary(&|c| c.gpu.injection = InjectionConfig::combined(7));
        vary(&|c| c.rate = f64::from_bits(c.rate.to_bits() + 1));
        vary(&|c| c.scale = 0.25);
        vary(&|c| c.preset = PolicyPreset::Baseline);
        vary(&|c| c.spec = registry::by_abbr("MRQ").unwrap());
        let keys: Vec<CellKey> = variants.iter().map(Cell::key).collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "cells differing in one field share a key");
            }
        }
        assert_eq!(base.key(), base.clone().key());

        let distinct = variants.len();
        let mut cells = variants.clone();
        cells.extend(variants);
        let calls = AtomicUsize::new(0);
        let results = run_cells_with(cells, 3, |cell| {
            calls.fetch_add(1, Ordering::Relaxed);
            (stub(cell.seed), None)
        });
        assert_eq!(calls.load(Ordering::Relaxed), distinct, "one run per key");
        assert_eq!(results.runs(), distinct);
        assert_eq!(results.declared(), 2 * distinct);
        assert_eq!(results.get(&base).cycles, base.seed);
    }
}
