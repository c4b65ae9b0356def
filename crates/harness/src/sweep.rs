//! Parallel sweep executor.
//!
//! The evaluation matrix (23 workloads × policies × 2 rates) is
//! embarrassingly parallel: scoped workers pull job indices from one
//! atomic cursor until the list runs out. Each cell runs under
//! `catch_unwind`, so a panicking cell is recorded as a
//! [`gpu::Outcome::Crashed`] result instead of aborting the sweep.
//! Results come back keyed by `(workload, policy-label, rate)` for
//! deterministic assembly regardless of completion order.

use crate::runner::{run_cell, ExpConfig};
use cppe::presets::PolicyPreset;
use gpu::RunResult;
use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use workloads::WorkloadSpec;

/// Key identifying one cell: `(workload abbr, policy label, rate in %)`.
pub type CellKey = (String, String, u32);

/// One requested run.
#[derive(Debug, Clone)]
pub struct Job {
    /// Workload to run.
    pub spec: WorkloadSpec,
    /// Policy preset.
    pub preset: PolicyPreset,
    /// Oversubscription rate (fraction of footprint that fits).
    pub rate: f64,
}

impl Job {
    /// The result-map key for this job.
    #[must_use]
    pub fn key(&self) -> CellKey {
        (
            self.spec.abbr.to_string(),
            self.preset.label(),
            (self.rate * 100.0).round() as u32,
        )
    }
}

/// Run all jobs, using up to `threads` workers (0 = available
/// parallelism). Results are keyed deterministically regardless of
/// completion order.
///
/// A cell whose execution panics does not take the sweep down: it is
/// recorded as a [`gpu::Outcome::Crashed`] result carrying the panic
/// message, and reports render it as a crashed cell like any
/// simulator-detected livelock.
#[must_use]
pub fn run_sweep(jobs: Vec<Job>, cfg: &ExpConfig, threads: usize) -> BTreeMap<CellKey, RunResult> {
    run_sweep_with(jobs, threads, |job| {
        run_cell(&job.spec, job.preset, job.rate, cfg)
    })
}

/// [`run_sweep`] with an injected per-job executor — the
/// panic-containment tests substitute a deliberately crashing
/// "simulator" here. Jobs sharing a [`Job::key`] run once.
#[must_use]
pub fn run_sweep_with<F>(jobs: Vec<Job>, threads: usize, exec: F) -> BTreeMap<CellKey, RunResult>
where
    F: Fn(&Job) -> RunResult + Sync,
{
    let mut seen = HashSet::new();
    let jobs: Vec<(CellKey, Job)> = jobs
        .into_iter()
        .map(|job| (job.key(), job))
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
        while let Some((key, job)) = jobs.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let result = catch_unwind(AssertUnwindSafe(|| exec(job)))
                .unwrap_or_else(|payload| RunResult::failed(panic_message(&*payload)));
            done.push((key.clone(), result));
        }
        done
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker contains its panics"))
            .collect()
    })
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

/// Convenience: cross `specs × presets × rates` into jobs.
#[must_use]
pub fn cross(specs: &[WorkloadSpec], presets: &[PolicyPreset], rates: &[f64]) -> Vec<Job> {
    let mut jobs = Vec::new();
    for spec in specs {
        for &preset in presets {
            for &rate in rates {
                jobs.push(Job {
                    spec: spec.clone(),
                    preset,
                    rate,
                });
            }
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu::Outcome;
    use workloads::registry;

    #[test]
    fn sweep_returns_every_cell() {
        let specs = vec![
            registry::by_abbr("STN").unwrap(),
            registry::by_abbr("MRQ").unwrap(),
        ];
        let jobs = cross(
            &specs,
            &[PolicyPreset::Baseline, PolicyPreset::Cppe],
            &[0.5],
        );
        assert_eq!(jobs.len(), 4);
        let cfg = ExpConfig::quick();
        let results = run_sweep(jobs, &cfg, 2);
        assert_eq!(results.len(), 4);
        assert!(results.contains_key(&("STN".into(), "cppe".into(), 50)));
        assert!(results.contains_key(&("MRQ".into(), "baseline".into(), 50)));
    }

    #[test]
    fn sweep_matches_serial_run() {
        let spec = registry::by_abbr("STN").unwrap();
        let cfg = ExpConfig::quick();
        let serial = run_cell(&spec, PolicyPreset::Baseline, 0.5, &cfg);
        let jobs = cross(&[spec], &[PolicyPreset::Baseline], &[0.5]);
        let sweep = run_sweep(jobs, &cfg, 3);
        let cell = &sweep[&("STN".into(), "baseline".into(), 50)];
        assert_eq!(
            cell.cycles, serial.cycles,
            "parallel run must be deterministic"
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // The cursor hands out cells in racy claim order; the assembled
        // result map must not depend on it. Run the same small matrix
        // single-threaded and with 8 workers and compare every cell's
        // observable counters.
        let specs = vec![
            registry::by_abbr("STN").unwrap(),
            registry::by_abbr("MRQ").unwrap(),
        ];
        let jobs = || {
            cross(
                &specs,
                &[PolicyPreset::Baseline, PolicyPreset::Cppe],
                &[0.5, 0.75],
            )
        };
        let cfg = ExpConfig::quick();
        let serial = run_sweep(jobs(), &cfg, 1);
        let parallel = run_sweep(jobs(), &cfg, 8);
        assert_eq!(serial.len(), parallel.len());
        for (key, a) in &serial {
            let b = &parallel[key];
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
    fn panicking_cell_yields_failed_result_not_aborted_sweep() {
        // Regression: one panicking cell once unwound a scoped worker
        // and aborted the whole sweep. The panic is contained, the cell
        // runs exactly once (no retries), and it surfaces as a Crashed
        // cell while every other cell completes normally.
        let specs = vec![
            registry::by_abbr("STN").unwrap(),
            registry::by_abbr("MRQ").unwrap(),
        ];
        let jobs = cross(&specs, &[PolicyPreset::Baseline], &[0.5]);
        let cfg = ExpConfig::quick();
        let mrq_calls = AtomicUsize::new(0);
        let results = run_sweep_with(jobs, 2, |job| {
            if job.spec.abbr == "MRQ" {
                mrq_calls.fetch_add(1, Ordering::Relaxed);
                panic!("deliberate test panic: MRQ cell");
            }
            run_cell(&job.spec, job.preset, job.rate, &cfg)
        });
        assert_eq!(results.len(), 2, "every cell must be present");
        assert_eq!(
            mrq_calls.load(Ordering::Relaxed),
            1,
            "a panicking cell runs once"
        );
        let crashed = &results[&("MRQ".into(), "baseline".into(), 50)];
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
        let ok = &results[&("STN".into(), "baseline".into(), 50)];
        assert_eq!(ok.outcome, Outcome::Completed);
    }

    #[test]
    fn duplicate_jobs_run_once() {
        let spec = registry::by_abbr("STN").unwrap();
        let mut jobs = cross(&[spec], &[PolicyPreset::Baseline], &[0.5, 0.75]);
        jobs.extend(jobs.clone());
        let calls = AtomicUsize::new(0);
        let results = run_sweep_with(jobs, 3, |job| {
            calls.fetch_add(1, Ordering::Relaxed);
            let mut r = RunResult::failed("stub");
            r.outcome = Outcome::Completed;
            r.cycles = job.key().2.into();
            r
        });
        assert_eq!(calls.load(Ordering::Relaxed), 2, "one run per distinct key");
        assert_eq!(results.len(), 2);
        assert_eq!(results[&("STN".into(), "baseline".into(), 75)].cycles, 75);
    }
}
