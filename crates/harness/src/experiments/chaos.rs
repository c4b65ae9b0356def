//! Extension: resilience under deterministic fault injection.
//!
//! Re-runs a pattern-diverse workload subset at 50 % oversubscription
//! under each chaos scenario (degraded link, transient DMA failures,
//! far-fault latency spikes, fault-queue overflow, all four combined)
//! and reports the slowdown relative to the clean run, per policy. A
//! second section demonstrates the degradation ladder: a workload whose
//! baseline run thrash-crashes (Fig. 4's failure mode) survives in
//! degraded mode by shedding prefetch aggressiveness.

use crate::plan::{Experiment, Results};
use crate::record::{document, RunRecord};
use crate::report::{Report, Table};
use crate::runner::{Cell, ExpConfig};
use cppe::presets::PolicyPreset;
use gpu::Outcome;
use sim_core::fault::InjectionConfig;
use telemetry::TraceConfig;
use uvm::driver::ResilienceConfig;

/// Pattern-diverse subset (regular / irregular / mixed).
pub const APPS: [&str; 3] = ["2DC", "KMN", "SRD"];

/// Policies compared under injection.
pub const PRESETS: [PolicyPreset; 2] = [PolicyPreset::Baseline, PolicyPreset::Cppe];

/// Fault-queue depth of the overflow scenarios. A lane blocks on its
/// one far fault, so a batch holds at most one fault per lane: the depth
/// must sit below the experiment's 28 lanes for a batch to overflow.
pub const QUEUE_DEPTH: usize = 16;

/// The chaos scenarios, with the clean run first as the reference.
/// `combined` is [`InjectionConfig::combined`] at [`QUEUE_DEPTH`].
#[must_use]
pub fn scenarios(seed: u64) -> Vec<(&'static str, InjectionConfig)> {
    vec![
        ("clean", InjectionConfig::disabled()),
        ("link-degrade", InjectionConfig::link_degradation(seed)),
        (
            "dma-fail-5%",
            InjectionConfig::transient_failures(seed, 0.05),
        ),
        ("lat-spikes", InjectionConfig::latency_spikes(seed)),
        (
            "queue-16",
            InjectionConfig::batch_overflow(seed, QUEUE_DEPTH),
        ),
        (
            "combined",
            InjectionConfig {
                fault_queue_depth: QUEUE_DEPTH,
                ..InjectionConfig::combined(seed)
            },
        ),
    ]
}

/// Chaos as a plan entry.
pub const EXPERIMENT: Experiment = Experiment::new("chaos", cells, render);

/// One cell at 50 % under an injection scenario (driver resilience as
/// in `cfg`).
#[must_use]
pub fn injected(abbr: &str, preset: PolicyPreset, cfg: &ExpConfig, inj: InjectionConfig) -> Cell {
    let mut cell = Cell::app(abbr, preset, 0.5, cfg);
    cell.gpu.injection = inj;
    cell
}

/// The MVT baseline ladder cells: plain driver, degraded mode, and
/// degraded mode with recovery after 64 quiet batches. Traced runs
/// audit the ladder's decisions too, so every shed-mode call carries
/// its rung and fallback-policy provenance.
fn ladder(cfg: &ExpConfig) -> [Cell; 3] {
    let mut cfg = *cfg;
    cfg.trace = cfg.trace.map(|t| TraceConfig { audit: true, ..t });
    let off = InjectionConfig::disabled();
    [
        ResilienceConfig::default(),
        ResilienceConfig::degraded(),
        ResilienceConfig::degraded_with_recovery(64),
    ]
    .map(|resilience| {
        cfg.gpu.resilience = resilience;
        injected("MVT", PolicyPreset::Baseline, &cfg, off)
    })
}

/// Every app × policy under every scenario, then the ladder cells.
fn cells(cfg: &ExpConfig) -> Vec<Cell> {
    let mut cells = Vec::new();
    for abbr in APPS {
        for preset in PRESETS {
            for (_, injection) in scenarios(cfg.seed) {
                cells.push(injected(abbr, preset, cfg, injection));
            }
        }
    }
    cells.extend(ladder(cfg));
    cells
}

fn outcome_tag(o: Outcome) -> &'static str {
    match o {
        Outcome::Completed => "",
        Outcome::Degraded => "*",
        Outcome::Crashed => "†",
        Outcome::Timeout => "‡",
    }
}

/// Render the report (with the ladder run's exports as side files when
/// traced).
fn render(cfg: &ExpConfig, results: &Results) -> Report {
    let mut cols = vec!["app".to_string(), "policy".to_string()];
    for (name, _) in scenarios(cfg.seed) {
        cols.push(name.to_string());
    }
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut table = Table::new(&col_refs);

    // Driver resilience counters from the most hostile scenario
    // ("combined" runs last), per app × policy.
    let mut drv = Table::new(&[
        "app",
        "policy",
        "retries",
        "backoff cyc",
        "aborts",
        "splits",
        "deferred",
        "sheds",
        "fallbacks",
        "recoveries",
    ]);

    for abbr in APPS {
        for preset in PRESETS {
            let mut row = vec![abbr.to_string(), preset.label()];
            let mut clean_cycles = None;
            let mut combined = None;
            for (_, injection) in scenarios(cfg.seed) {
                let r = results.get(&injected(abbr, preset, cfg, injection));
                let cell = if !r.survived() || r.cycles == 0 {
                    format!("X{}", outcome_tag(r.outcome))
                } else if let Some(clean) = clean_cycles {
                    format!(
                        "{:.2}x{}",
                        r.cycles as f64 / clean as f64,
                        outcome_tag(r.outcome)
                    )
                } else {
                    clean_cycles = Some(r.cycles);
                    format!("{}", r.cycles)
                };
                row.push(cell);
                combined = Some(r);
            }
            table.row(row);
            if let Some(r) = combined {
                let d = &r.driver;
                drv.row(vec![
                    abbr.to_string(),
                    preset.label(),
                    d.retries.to_string(),
                    d.retry_backoff_cycles.to_string(),
                    d.migrations_aborted.to_string(),
                    d.batch_splits.to_string(),
                    d.deferred_faults.to_string(),
                    d.throttle_sheds.to_string(),
                    d.policy_fallbacks.to_string(),
                    d.rung_recoveries.to_string(),
                ]);
            }
        }
    }

    // Degradation-ladder demonstration: MVT's baseline run dies of
    // thrash (Fig. 4); in degraded mode the ladder sheds prefetch and
    // the run finishes. With recovery, after a quiet period with no
    // thrash-detector trips the driver re-arms the shed aggressiveness
    // one rung at a time.
    let [plain_cell, laddered_cell, recovered_cell] = ladder(cfg);
    let plain = results.get(&plain_cell);
    let laddered = results.get(&laddered_cell);
    let recovered = results.get(&recovered_cell);
    let ladder = format!(
        "MVT @ 50% (baseline policy): plain driver → {:?}; degraded mode →\n\
         {:?} in {} cycles (throttle sheds: {}, policy fallbacks: {});\n\
         with recovery (64 quiet batches) → {:?} in {} cycles\n\
         (sheds: {}, fallbacks: {}, rung recoveries: {})",
        plain.outcome,
        laddered.outcome,
        laddered.cycles,
        laddered.driver.throttle_sheds,
        laddered.driver.policy_fallbacks,
        recovered.outcome,
        recovered.cycles,
        recovered.driver.throttle_sheds,
        recovered.driver.policy_fallbacks,
        recovered.driver.rung_recoveries,
    );

    // When traced, the ladder demo is the interesting run to look at in
    // Perfetto: rung transitions sit on the "ladder" track. A lossy
    // trace is flagged so a truncated artifact never reads as complete,
    // and the audited decisions become a provenance-by-rung section:
    // which policy (including the thrash fallback) made each call at
    // which ladder rung, plus the run's regret against the Belady
    // oracle.
    let mut banner = String::new();
    let mut files = Vec::new();
    if let Some(t) = results.telemetry(&recovered_cell) {
        let loss = crate::report::loss_section(t);
        if !loss.is_empty() {
            banner = format!("\n{loss}");
        }
        let mut counts: std::collections::BTreeMap<(&'static str, &'static str, u32), u64> =
            std::collections::BTreeMap::new();
        for rec in &t.decisions {
            *counts
                .entry((rec.event.kind.name(), rec.event.policy, rec.event.rung))
                .or_insert(0) += 1;
        }
        let mut prov = Table::new(&["kind", "policy", "rung", "count"]);
        for ((kind, policy, rung), count) in counts {
            prov.row(vec![
                kind.to_string(),
                policy.to_string(),
                rung.to_string(),
                count.to_string(),
            ]);
        }
        let record = RunRecord::new("MVT ladder", &recovered_cell, recovered, Some(t));
        let oracle = &record
            .audit
            .as_ref()
            .expect("ladder runs record decisions")
            .oracle;
        banner.push_str(&format!(
            "\nDecision provenance across the ladder (recovered run),\n\
             by policy and rung:\n\n{}\n\
             Oracle regret: {} of {} chunk migrations avoidable;\n\
             eviction regret p50/p95 = {}/{} linearized accesses\n",
            prov.render(),
            oracle.avoidable_chunk_migrations(),
            oracle.actual_chunk_migrations,
            oracle.regret.quantile(0.5),
            oracle.regret.quantile(0.95),
        ));
        if cfg.trace_format.wants_chrome() {
            files.push((
                "chaos_mvt_ladder_trace.json".to_string(),
                telemetry::export::chrome_trace_json(t),
            ));
        }
        if cfg.trace_format.wants_json() {
            files.push(("chaos.json".to_string(), document(&[record])));
        }
        if cfg.trace_format.wants_csv() {
            files.push((
                "chaos_mvt_ladder_timeline.csv".to_string(),
                telemetry::export::timeline_csv(&t.series),
            ));
        }
    }

    let text = format!(
        "Chaos (extension) — run time under deterministic fault injection,\n\
         relative to each policy's clean run; 50% oversubscription,\n\
         scale={}, injection seed={:#x}\n\n{}\n\
         Cells: clean column is absolute cycles; others are slowdown\n\
         factors. * = completed degraded, † = crashed, ‡ = timeout.\n\n\
         Driver resilience counters under the combined scenario:\n\n{}\n\
         Degradation ladder:\n{}\n{}",
        cfg.scale,
        cfg.seed,
        table.render(),
        drv.render(),
        ladder,
        banner
    );
    Report { text, files }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_matches_uninjected_simulate() {
        // A "clean" scenario cell must be bit-identical to a run that
        // never heard of the injection layer.
        let cfg = ExpConfig {
            scale: 0.25,
            ..ExpConfig::quick()
        };
        let injected = injected(
            "STN",
            PolicyPreset::Baseline,
            &cfg,
            InjectionConfig::disabled(),
        )
        .run()
        .0;
        let spec = workloads::registry::by_abbr("STN").unwrap();
        let plain = crate::runner::run_cell(&spec, PolicyPreset::Baseline, 0.5, &cfg);
        assert_eq!(injected.cycles, plain.cycles);
        assert_eq!(injected.engine.pages_migrated, plain.engine.pages_migrated);
    }

    #[test]
    fn audited_ladder_run_records_rung_provenance() {
        // The degraded MVT run sheds rungs; with auditing on, the
        // decisions it records must carry those raised rungs so the
        // provenance-by-rung section has rows beyond rung 0.
        let mut cfg = ExpConfig {
            scale: 0.25,
            ..ExpConfig::quick()
        };
        cfg.trace = Some(TraceConfig::audited());
        cfg.gpu.resilience = ResilienceConfig::degraded();
        let (_, t) = injected(
            "MVT",
            PolicyPreset::Baseline,
            &cfg,
            InjectionConfig::disabled(),
        )
        .run();
        let t = t.expect("traced");
        assert!(!t.decisions.is_empty());
        assert!(
            t.decisions.iter().any(|d| d.event.rung > 0),
            "shed-mode decisions carry their ladder rung"
        );
    }

    #[test]
    fn overflow_scenarios_split_batches() {
        // Both overflow scenarios must fire at the experiment's lane
        // count: a depth at or above it never splits a batch.
        let cfg = ExpConfig {
            scale: 0.25,
            ..ExpConfig::quick()
        };
        assert!(QUEUE_DEPTH < cfg.gpu.lanes(), "{} lanes", cfg.gpu.lanes());
        for (name, injection) in scenarios(cfg.seed) {
            if injection.fault_queue_depth == 0 {
                continue;
            }
            let r = injected("KMN", PolicyPreset::Baseline, &cfg, injection)
                .run()
                .0;
            assert!(r.survived(), "{name}");
            let d = &r.driver;
            assert!(d.batch_splits > 0 && d.deferred_faults > 0, "{name}: {d:?}");
        }
    }

    #[test]
    fn injection_slows_but_does_not_kill() {
        let cfg = ExpConfig {
            scale: 0.25,
            ..ExpConfig::quick()
        };
        let clean = injected(
            "STN",
            PolicyPreset::Baseline,
            &cfg,
            InjectionConfig::disabled(),
        )
        .run()
        .0;
        let hurt = injected(
            "STN",
            PolicyPreset::Baseline,
            &cfg,
            InjectionConfig::combined(cfg.seed),
        )
        .run()
        .0;
        assert!(clean.survived());
        assert!(hurt.survived(), "injection must not kill the run");
        assert!(
            hurt.cycles >= clean.cycles,
            "perturbation can only slow things down: {} vs {}",
            hurt.cycles,
            clean.cycles
        );
    }
}
