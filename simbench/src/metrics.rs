//! Metric definitions: the names, units, directions and regression
//! bounds `BENCHMARK.json` declares (a test keeps the two in step).

/// An end-to-end metric, measured with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name in the result line and records.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Every end-to-end metric. Timings are put at the reference host's
/// speed with the host-speed probe; without it, host interference
/// alone moves them by 20–50 % between runs (see README).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "sim_maccess_per_s",
        unit: "Maccess/s",
        higher_is_better: true,
        bound: 0.10,
    },
    EndToEnd {
        name: "ns_per_access_p50",
        unit: "ns",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "ns_per_access_p90",
        unit: "ns",
        higher_is_better: false,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.10,
    },
];

/// Every per-layer metric of a traced run: name, unit, and whether a
/// larger value is better.
pub const PER_LAYER: [(&str, &str, bool); 36] = [
    ("gmmu.translate.ns", "ns", false),
    ("gmmu.translate.per_access", "calls/access", false),
    ("gmmu.walks.per_access", "walks/access", false),
    ("gmmu.l1tlb.hit_ratio", "ratio", true),
    ("gmmu.l2tlb.hit_ratio", "ratio", true),
    ("gmmu.pwc.hit_ratio", "ratio", true),
    ("gmmu.shootdown.ns", "ns", false),
    ("gmmu.shootdown.per_access", "calls/access", false),
    ("gpu.cache.ns", "ns", false),
    ("gpu.cache.invalidate.ns", "ns", false),
    ("events.push_pop.ns", "ns", false),
    ("events.ops.per_access", "pairs/access", false),
    ("waiters.push_take.ns", "ns", false),
    ("waiters.per_access", "waits/access", false),
    ("uvm.service.ns_per_fault", "ns", false),
    ("uvm.faults.per_access", "faults/access", false),
    ("uvm.faults.per_batch", "faults/batch", true),
    ("uvm.coalesced_ratio", "ratio", false),
    ("cppe.select_victim.ns", "ns", false),
    ("cppe.plan_prefetch.ns", "ns", false),
    ("cppe.evictions.per_access", "chunks/access", false),
    ("cppe.prefetch.useful_ratio", "ratio", true),
    ("workloads.lane_items.ns_per_item", "ns", false),
    ("sim.loop_residual.ns_per_access", "ns", false),
    ("ledger.explained_frac", "ratio", true),
    ("trace.overhead", "ratio", false),
    ("share.gmmu.translate", "ratio", false),
    ("share.gpu.cache", "ratio", false),
    ("share.gpu.cache.invalidate", "ratio", false),
    ("share.events", "ratio", false),
    ("share.waiters", "ratio", false),
    ("share.uvm.service", "ratio", false),
    ("share.gmmu.shootdown", "ratio", false),
    ("share.cppe.select_victim", "ratio", false),
    ("share.cppe.plan_prefetch", "ratio", false),
    ("share.sim.loop_residual", "ratio", false),
];

/// Unit of a per-layer metric.
///
/// # Panics
/// Panics on a name missing from [`PER_LAYER`] (a bug in this program).
#[must_use]
pub fn layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, u, _)| u)
        .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::WORKLOADS;

    /// `BENCHMARK.json` at the repository root declares exactly these
    /// workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
        let b = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            b.get(key)
                .expect(key)
                .items()
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), workloads);
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names("per_layer"), layers);
        for (m, j) in END_TO_END.iter().zip(b.get("end_to_end").unwrap().items()) {
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(j.get("better").and_then(Json::as_str), Some(better));
        }
        for ((_, unit, higher), j) in PER_LAYER.iter().zip(b.get("per_layer").unwrap().items()) {
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(*unit));
            let better = if *higher { "higher" } else { "lower" };
            assert_eq!(j.get("better").and_then(Json::as_str), Some(better));
        }
        assert_eq!(
            b.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
        for (w, j) in WORKLOADS.iter().zip(b.get("workloads").unwrap().items()) {
            assert_eq!(j.get("why").and_then(Json::as_str), Some(w.why));
        }
    }
}
