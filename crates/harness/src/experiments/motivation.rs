//! §III Inefficiency 1 — HPE's counters are polluted by prefetching.
//!
//! Not a numbered figure, but the paper's first motivation claim:
//! HPE works when prefetching is disabled (its original setting), yet
//! with whole-chunk prefetch every counter saturates at migration time,
//! classification collapses to "regular", and HPE degrades. This
//! experiment runs HPE in both settings, plus LRU and CPPE for
//! reference, on a thrashing and an irregular app.

use crate::plan::{apps, cross, Experiment, Results};
use crate::report::{fmt_speedup, Report, Table};
use crate::runner::{speedup, Cell, ExpConfig};
use cppe::presets::PolicyPreset;

/// Apps contrasted: a Type IV thrasher (HPE's home turf) and a sparse
/// Type VI app (where misclassification hurts).
pub const APPS: [&str; 2] = ["SRD", "B+T"];

/// HPE and LRU with and without prefetch, plus CPPE.
pub const POLICIES: [PolicyPreset; 5] = [
    PolicyPreset::LruNoPf,
    PolicyPreset::HpeNoPf,
    PolicyPreset::Baseline,
    PolicyPreset::HpeNaive,
    PolicyPreset::Cppe,
];

/// §III Inefficiency 1 as a plan entry.
pub const EXPERIMENT: Experiment = Experiment::new("motivation", cells, render);

/// Each app under every policy at 50 %.
fn cells(cfg: &ExpConfig) -> Vec<Cell> {
    cross(&apps(&APPS), &POLICIES, &[0.5], cfg)
}

fn render(cfg: &ExpConfig, results: &Results) -> Report {
    let mut table = Table::new(&[
        "app",
        "hpe-nopf/lru-nopf",
        "hpe-naive-pf/baseline",
        "cppe/baseline",
    ]);
    for app in APPS {
        let [lru_nopf, hpe_nopf, baseline, hpe_pf, cppe] =
            POLICIES.map(|p| results.cell(app, p, 0.5, cfg));
        table.row(vec![
            app.to_string(),
            fmt_speedup(speedup(lru_nopf, hpe_nopf)),
            fmt_speedup(speedup(baseline, hpe_pf)),
            fmt_speedup(speedup(baseline, cppe)),
        ]);
    }
    format!(
        "§III Inefficiency 1 — HPE with and without prefetching,\n\
         50% oversubscription, scale={}\n\n{}\n\
         Column 1: HPE vs LRU with prefetch disabled (HPE's original\n\
         setting — it should help the thrasher). Column 2: HPE vs the\n\
         baseline with the naive prefetcher (counter pollution classifies\n\
         everything as regular). Column 3: CPPE, which restores the win\n\
         while keeping prefetch.\n",
        cfg.scale,
        table.render()
    )
    .into()
}

#[cfg(test)]
mod tests {

    use cppe::evict::hpe::{HpeClass, HpePolicy};
    use cppe::evict::EvictPolicy;
    use cppe::ChunkChain;
    use gmmu::types::ChunkId;

    #[test]
    fn pollution_classifies_everything_regular() {
        // Direct unit-level restatement of Inefficiency 1: an irregular
        // counter profile classifies irregular without prefetch, but a
        // prefetch-polluted chain (all counters = 16) turns "regular".
        let mut sparse = ChunkChain::new();
        let mut polluted = ChunkChain::new();
        for i in 0..20 {
            sparse.insert_tail(ChunkId(i), 0);
            sparse.touch(ChunkId(i), 0, 2); // 2 touches: irregular
            polluted.insert_tail(ChunkId(i), 0);
            polluted.touch(ChunkId(i), 0, 16); // prefetch pollution
        }
        let mut without_pf = HpePolicy::new();
        without_pf.on_memory_full(&sparse);
        assert_eq!(without_pf.class(), Some(HpeClass::Irregular1));

        let mut with_pf = HpePolicy::new();
        with_pf.on_memory_full(&polluted);
        assert_eq!(with_pf.class(), Some(HpeClass::Regular));
    }
}
