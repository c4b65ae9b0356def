//! Belady oracle comparator: per-policy regret against offline OPT.
//!
//! An audited run records *what* every policy decided and the ledger
//! ([`crate::telemetry::PageLedger`]) reconstructs *what happened to every
//! page*; this module closes the loop by asking *what the omniscient
//! policy would have done*. Three regret measures come out:
//!
//! * **avoidable chunk migrations** — the ledger's actual chunk fetch
//!   count minus the Belady bound ([`crate::opt::opt_chunk_faults`])
//!   over the linearized access stream: migrations a clairvoyant
//!   eviction policy would not have paid,
//! * **prefetch usefulness** — every migrated page ends the run in
//!   exactly one of three states: *used* (evicted after being touched),
//!   *wasted* (evicted untouched — pure wasted PCIe bytes) or
//!   *resident at end*; the three fractions partition 1,
//! * **eviction regret** — for each audited eviction decision, how many
//!   linearized accesses earlier the chosen victim is next needed
//!   compared to the best chunk in the policy's own candidate window
//!   (Belady picks the furthest next use, so regret is ≥ 0 by
//!   construction and 0 when the policy matched the oracle).
//!
//! Everything here is offline replay over recorded telemetry — the
//! simulation hot path never sees it.

use crate::telemetry::{DecisionKind, PageLedger, RunTelemetry};
use gmmu::types::PAGE_SIZE;
use sim_core::FxHashMap;
use uvm::observe::DriverEvent;
use workloads::AccessStep;

/// Where every migrated page ended up: the usefulness partition of the
/// run's prefetch traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefetchUsefulness {
    /// Page migrations replayed by the ledger (demand + prefetch).
    pub pages_migrated: u64,
    /// Migrated pages evicted after being touched.
    pub used: u64,
    /// Migrated pages evicted untouched — wasted transfer bytes.
    pub wasted: u64,
    /// Migrated pages still resident when the stream ended.
    pub resident_end: u64,
}

impl PrefetchUsefulness {
    fn fraction(&self, part: u64) -> f64 {
        if self.pages_migrated == 0 {
            0.0
        } else {
            part as f64 / self.pages_migrated as f64
        }
    }

    /// Fraction of migrated pages that were touched before eviction.
    #[must_use]
    pub fn used_fraction(&self) -> f64 {
        self.fraction(self.used)
    }

    /// Fraction of migrated pages evicted untouched.
    #[must_use]
    pub fn wasted_fraction(&self) -> f64 {
        self.fraction(self.wasted)
    }

    /// Fraction of migrated pages resident at end of stream.
    #[must_use]
    pub fn resident_end_fraction(&self) -> f64 {
        self.fraction(self.resident_end)
    }

    /// Bytes moved for pages that were never touched.
    #[must_use]
    pub fn wasted_bytes(&self) -> u64 {
        self.wasted * PAGE_SIZE
    }
}

/// The eviction-regret distribution: one sample per audited eviction
/// decision, in linearized-access units.
#[derive(Debug, Clone, Default)]
pub struct RegretCdf {
    regrets: Vec<u64>,
}

impl RegretCdf {
    fn new(mut regrets: Vec<u64>) -> Self {
        regrets.sort_unstable();
        RegretCdf { regrets }
    }

    /// Decisions sampled.
    #[must_use]
    pub fn count(&self) -> usize {
        self.regrets.len()
    }

    /// Decisions whose victim matched the oracle's pick (regret 0).
    #[must_use]
    pub fn zero_regret(&self) -> usize {
        self.regrets.partition_point(|&r| r == 0)
    }

    /// Mean regret (0 when no decisions were sampled).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.regrets.is_empty() {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.regrets.iter().sum::<u64>() as f64 / self.regrets.len() as f64
            }
        }
    }

    /// Nearest-rank quantile (0 when empty; `q` clamped to `[0, 1]`).
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.regrets.is_empty() {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let rank = ((q * self.regrets.len() as f64).ceil() as usize).max(1);
        self.regrets[rank - 1]
    }

    /// Largest regret (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.regrets.last().copied().unwrap_or(0)
    }

    /// The sorted samples (for CDF export).
    #[must_use]
    pub fn samples(&self) -> &[u64] {
        &self.regrets
    }
}

/// One run's scorecard against the offline oracle.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Chunk capacity the oracle was given (matches the run's).
    pub capacity_chunks: usize,
    /// Chunk fetches the run actually paid (ledger replay).
    pub actual_chunk_migrations: u64,
    /// Belady's minimum chunk faults over the linearized stream.
    pub oracle_chunk_faults: u64,
    /// Prefetch-usefulness partition of the migrated pages.
    pub prefetch: PrefetchUsefulness,
    /// Eviction-regret distribution over audited eviction decisions.
    pub regret: RegretCdf,
    /// Audited eviction decisions replayed into the regret CDF.
    pub eviction_decisions: u64,
}

impl OracleReport {
    /// Chunk migrations a clairvoyant policy would have avoided
    /// (saturating: the linearized oracle is approximate with respect
    /// to simulated time, so it is clamped rather than trusted to be a
    /// strict lower bound on every interleaving).
    #[must_use]
    pub fn avoidable_chunk_migrations(&self) -> u64 {
        self.actual_chunk_migrations
            .saturating_sub(self.oracle_chunk_faults)
    }

    /// Score `telemetry` + its `ledger` against the oracle for the
    /// run's linearized access stream and chunk capacity.
    ///
    /// # Panics
    /// Panics if `capacity_chunks` is zero (the oracle needs capacity).
    #[must_use]
    pub fn compare(
        telemetry: &RunTelemetry,
        ledger: &PageLedger,
        accesses: &[AccessStep],
        capacity_chunks: usize,
    ) -> Self {
        let oracle_chunk_faults = crate::opt::opt_chunk_faults(accesses, capacity_chunks);
        let prefetch = prefetch_usefulness(telemetry, ledger);
        let (regret, eviction_decisions) = eviction_regret(telemetry, accesses);
        OracleReport {
            capacity_chunks,
            actual_chunk_migrations: ledger.chunk_migrations,
            oracle_chunk_faults,
            prefetch,
            regret,
            eviction_decisions,
        }
    }
}

/// Partition the run's migrated pages into used / wasted / resident-end
/// from the eviction events' resident/untouch accounting plus the
/// ledger's migration totals.
fn prefetch_usefulness(telemetry: &RunTelemetry, ledger: &PageLedger) -> PrefetchUsefulness {
    let pages_migrated: u64 = ledger.pages.values().map(|l| u64::from(l.migrations)).sum();
    let (mut evicted, mut untouched) = (0u64, 0u64);
    for event in &telemetry.events {
        if let DriverEvent::ChunkEvicted {
            resident, untouch, ..
        } = *event
        {
            evicted += u64::from(resident);
            untouched += u64::from(untouch);
        }
    }
    // Ring truncation can leave more evicted pages than replayed
    // migrations; saturate so the partition stays consistent.
    let evicted = evicted.min(pages_migrated);
    let untouched = untouched.min(evicted);
    PrefetchUsefulness {
        pages_migrated,
        used: evicted - untouched,
        wasted: untouched,
        resident_end: pages_migrated - evicted,
    }
}

/// Replay every audited eviction decision against the linearized
/// stream: regret = next-use distance the best candidate would have
/// bought minus the chosen victim's. Returns the CDF plus the number of
/// decisions scored.
fn eviction_regret(telemetry: &RunTelemetry, accesses: &[AccessStep]) -> (RegretCdf, u64) {
    let n = accesses.len();
    // Sorted access positions per chunk, and per-page occurrence queues
    // (front = next unconsumed occurrence of that page).
    let mut chunk_positions: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    let mut page_next: FxHashMap<u64, std::collections::VecDeque<usize>> = FxHashMap::default();
    for (i, a) in accesses.iter().enumerate() {
        chunk_positions.entry(a.page.chunk().0).or_default().push(i);
        page_next.entry(a.page.0).or_default().push_back(i);
    }

    // Map simulated cycles to stream positions: each recorded far fault
    // consumes that page's next occurrence, giving a (cycle, position)
    // checkpoint. Per-page queues (rather than one global cursor) keep
    // the mapping stable under the simulator's lane interleaving.
    let mut checkpoints: Vec<(u64, usize)> = Vec::new();
    for event in &telemetry.events {
        if let DriverEvent::FarFault { at, page } = *event {
            if let Some(q) = page_next.get_mut(&page.0) {
                if let Some(pos) = q.pop_front() {
                    checkpoints.push((at.0, pos));
                }
            }
        }
    }
    checkpoints.sort_unstable();

    // Next use of `chunk` strictly after stream position `pos`; a chunk
    // never needed again scores the stream length (the furthest
    // possible next use, what Belady likes best).
    let next_use = |chunk: u64, pos: usize| -> usize {
        chunk_positions
            .get(&chunk)
            .and_then(|v| {
                let i = v.partition_point(|&p| p <= pos);
                v.get(i).copied()
            })
            .unwrap_or(n)
    };

    let mut regrets = Vec::new();
    for rec in &telemetry.decisions {
        if rec.event.kind != DecisionKind::Eviction {
            continue;
        }
        // The last fault at or before the decision anchors it in the
        // linearized stream.
        let i = checkpoints.partition_point(|&(c, _)| c <= rec.cycle);
        let pos = if i == 0 { 0 } else { checkpoints[i - 1].1 };
        let chosen = next_use(rec.event.chosen, pos);
        let best = rec
            .event
            .pages
            .iter()
            .map(|&c| next_use(c, pos))
            .chain(std::iter::once(chosen))
            .max()
            .unwrap_or(chosen);
        regrets.push((best - chosen) as u64);
    }
    let count = regrets.len() as u64;
    (RegretCdf::new(regrets), count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{DecisionEvent, DecisionRecord};
    use gmmu::types::{ChunkId, VirtPage};
    use sim_core::time::Cycle;

    fn seq(pages: &[u64]) -> Vec<AccessStep> {
        pages
            .iter()
            .map(|&p| AccessStep {
                page: VirtPage(p),
                compute: 0,
            })
            .collect()
    }

    fn fault(cycle: u64, page: u64) -> DriverEvent {
        DriverEvent::FarFault {
            at: Cycle(cycle),
            page: VirtPage(page),
        }
    }

    fn evict_event(cycle: u64, chunk: u64, resident: u32, untouch: u32) -> DriverEvent {
        DriverEvent::ChunkEvicted {
            at: Cycle(cycle),
            chunk: ChunkId(chunk),
            resident,
            untouch,
            d2h: (Cycle(cycle), Cycle(cycle)),
        }
    }

    fn evict_decision(cycle: u64, chosen: u64, candidates: Vec<u64>) -> DecisionRecord {
        DecisionRecord {
            cycle,
            event: DecisionEvent {
                kind: DecisionKind::Eviction,
                policy: "lru",
                origin: "capacity",
                rung: 0,
                chosen,
                pages: candidates,
            },
        }
    }

    fn plan(cycle: u64, anchor: u64, pages: Vec<u64>) -> DecisionRecord {
        DecisionRecord {
            cycle,
            event: DecisionEvent {
                kind: DecisionKind::Prefetch,
                policy: "seq-local",
                origin: "whole-chunk",
                rung: 0,
                chosen: anchor,
                pages,
            },
        }
    }

    fn telemetry(events: Vec<DriverEvent>, decisions: Vec<DecisionRecord>) -> RunTelemetry {
        RunTelemetry {
            events,
            decisions,
            ..RunTelemetry::default()
        }
    }

    #[test]
    fn regret_zero_when_policy_matches_oracle() {
        // Stream (chunk ids): 0 1 2 0 1 — at the decision after the
        // fault on chunk 2, chunk 2's next use is furthest... actually
        // candidates {0, 1}: chunk 0 next used at position 3, chunk 1
        // at 4. Evicting 1 (furthest) is the oracle's pick.
        let accesses = seq(&[0, 16, 32, 0, 16]);
        let t = telemetry(
            vec![fault(10, 0), fault(20, 16), fault(30, 32)],
            vec![
                plan(10, 0, vec![0]),
                plan(20, 16, vec![16]),
                evict_decision(30, 1, vec![0, 1]),
                plan(30, 32, vec![32]),
            ],
        );
        let ledger = PageLedger::from_telemetry(&t, 16);
        let report = OracleReport::compare(&t, &ledger, &accesses, 2);
        assert_eq!(report.eviction_decisions, 1);
        assert_eq!(report.regret.count(), 1);
        assert_eq!(report.regret.max(), 0, "policy matched Belady");
        assert_eq!(report.regret.zero_regret(), 1);
    }

    #[test]
    fn regret_measures_distance_to_best_candidate() {
        // Same stream, but the policy evicts chunk 0 (next use at
        // position 3) while chunk 1's next use is position 4 → regret 1.
        let accesses = seq(&[0, 16, 32, 0, 16]);
        let t = telemetry(
            vec![fault(10, 0), fault(20, 16), fault(30, 32)],
            vec![
                plan(10, 0, vec![0]),
                plan(20, 16, vec![16]),
                evict_decision(30, 0, vec![0, 1]),
                plan(30, 32, vec![32]),
            ],
        );
        let ledger = PageLedger::from_telemetry(&t, 16);
        let report = OracleReport::compare(&t, &ledger, &accesses, 2);
        assert_eq!(report.regret.max(), 1);
        assert_eq!(report.regret.zero_regret(), 0);
        assert!((report.regret.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn never_reused_victim_caps_at_stream_length_and_wins() {
        // Chunk 1 is never accessed again: evicting it has next use n
        // (the cap), which is also the best → regret 0 even though
        // chunk 0 recurs.
        let accesses = seq(&[0, 16, 32, 0]);
        let t = telemetry(
            vec![fault(10, 0), fault(20, 16), fault(30, 32)],
            vec![
                plan(10, 0, vec![0]),
                plan(20, 16, vec![16]),
                evict_decision(30, 1, vec![0, 1]),
                plan(30, 32, vec![32]),
            ],
        );
        let ledger = PageLedger::from_telemetry(&t, 16);
        let report = OracleReport::compare(&t, &ledger, &accesses, 2);
        assert_eq!(report.regret.max(), 0);
    }

    #[test]
    fn avoidable_migrations_never_underflow() {
        let accesses = seq(&[0, 16, 0, 16]);
        let t = telemetry(vec![fault(10, 0)], vec![plan(10, 0, vec![0])]);
        let ledger = PageLedger::from_telemetry(&t, 16);
        let report = OracleReport::compare(&t, &ledger, &accesses, 2);
        // Actual (1, truncated telemetry) < oracle (2 compulsory).
        assert_eq!(report.actual_chunk_migrations, 1);
        assert_eq!(report.oracle_chunk_faults, 2);
        assert_eq!(report.avoidable_chunk_migrations(), 0, "saturates");
    }

    #[test]
    fn prefetch_usefulness_partitions_to_one() {
        // 4 pages migrate; chunk 0 (pages 0..=1 resident, 1 untouched)
        // is evicted; pages 32, 33 stay resident.
        let t = telemetry(
            vec![fault(10, 0), fault(50, 32), evict_event(60, 0, 2, 1)],
            vec![plan(10, 0, vec![0, 1]), plan(50, 32, vec![32, 33])],
        );
        let ledger = PageLedger::from_telemetry(&t, 16);
        let report = OracleReport::compare(&t, &ledger, &seq(&[0, 32]), 2);
        let p = &report.prefetch;
        assert_eq!(p.pages_migrated, 4);
        assert_eq!(p.used, 1);
        assert_eq!(p.wasted, 1);
        assert_eq!(p.resident_end, 2);
        assert_eq!(p.wasted_bytes(), 4096);
        let sum = p.used_fraction() + p.wasted_fraction() + p.resident_end_fraction();
        assert!((sum - 1.0).abs() < 1e-9, "fractions partition 1: {sum}");
    }

    #[test]
    fn empty_usefulness_reports_zero_fractions() {
        let p = PrefetchUsefulness::default();
        assert_eq!(p.used_fraction(), 0.0);
        assert_eq!(p.wasted_fraction(), 0.0);
        assert_eq!(p.resident_end_fraction(), 0.0);
    }

    #[test]
    fn regret_cdf_quantiles() {
        let cdf = RegretCdf::new(vec![5, 0, 0, 10]);
        assert_eq!(cdf.count(), 4);
        assert_eq!(cdf.zero_regret(), 2);
        assert_eq!(cdf.quantile(0.5), 0);
        assert_eq!(cdf.quantile(0.75), 5);
        assert_eq!(cdf.quantile(1.0), 10);
        assert_eq!(cdf.quantile(f64::NAN), 0);
        assert_eq!(cdf.max(), 10);
        assert!((cdf.mean() - 3.75).abs() < 1e-12);
        assert_eq!(cdf.samples(), &[0, 0, 5, 10]);
        let empty = RegretCdf::default();
        assert_eq!(empty.quantile(0.99), 0);
        assert_eq!(empty.max(), 0);
        assert_eq!(empty.mean(), 0.0);
    }
}
