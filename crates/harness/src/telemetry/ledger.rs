//! Page-lifetime ledger: the per-page decision-audit state machine.
//!
//! Built *offline* from one run's recorded telemetry (trace events plus
//! audited decisions), so it costs the simulation hot path nothing. The
//! ledger replays the stream and tracks every page through
//! first-touch → resident → evicted → re-faulted, computing:
//!
//! * **re-fault distance** — cycles (and intervening distinct faults)
//!   between a page's eviction and its next far fault,
//! * **residency durations** — a histogram of completed
//!   migration→eviction intervals,
//! * **per-page thrash scores** — how often each page re-faulted, the
//!   page-level signature of a wrong eviction.
//!
//! Residency comes from *prefetch decisions* (which carry the exact
//! planned page set after driver capping) and *eviction events* (which
//! carry the victim chunk); the ledger therefore needs an audited run
//! ([`crate::telemetry::tracer::TraceConfig::audit`]) with rings sized to hold the
//! full history — [`PageLedger::from_telemetry`] is exact only when
//! [`crate::telemetry::tracer::RunTelemetry::lossy`] is false.

use crate::telemetry::csv::CsvWriter;
use crate::telemetry::decision::DecisionKind;
use crate::telemetry::event::show;
use crate::telemetry::tracer::RunTelemetry;
use sim_core::stats::Histogram;
use sim_core::{FxHashMap, FxHashSet};
use uvm::observe::DriverEvent;

/// One page's lifetime through the run.
#[derive(Debug, Clone, Default)]
pub struct PageLife {
    /// Cycle of the first fault or migration that mentioned the page.
    pub first_seen: u64,
    /// Far faults taken on the page.
    pub faults: u32,
    /// Faults on the page after it had been evicted at least once —
    /// the page's thrash score.
    pub refaults: u32,
    /// Times the page became resident (demand or prefetch).
    pub migrations: u32,
    /// Times the page was evicted.
    pub evictions: u32,
    /// Is the page resident at the end of the recorded stream?
    pub resident: bool,
    /// Total cycles spent resident (open residency closed at the last
    /// recorded cycle).
    pub total_residency: u64,
    /// Sum of eviction→re-fault distances in cycles.
    pub refault_distance_sum: u64,
    /// Sum of distinct far faults between eviction and re-fault.
    pub refault_gap_faults_sum: u64,
    resident_since: Option<u64>,
    last_evicted: Option<(u64, u64)>,
}

impl PageLife {
    /// Mean eviction→re-fault distance in cycles (0 when the page never
    /// re-faulted).
    #[must_use]
    pub fn mean_refault_distance(&self) -> u64 {
        if self.refaults == 0 {
            0
        } else {
            self.refault_distance_sum / u64::from(self.refaults)
        }
    }
}

/// The assembled per-page audit of one run.
#[derive(Debug, Clone, Default)]
pub struct PageLedger {
    /// Per-page lifetimes keyed by virtual page index.
    pub pages: FxHashMap<u64, PageLife>,
    /// Completed residency durations (migration→eviction, cycles).
    pub residency: Histogram,
    /// Eviction→re-fault distances (cycles).
    pub refault_distance: Histogram,
    /// Distinct far faults between an eviction and the re-fault.
    pub refault_gap_faults: Histogram,
    /// Chunk-granularity in-migrations (a chunk going from zero to some
    /// resident pages) — the actual fetch count the Belady comparator
    /// weighs against the oracle.
    pub chunk_migrations: u64,
    /// Far faults replayed.
    pub total_faults: u64,
    /// Re-faults replayed (faults on previously evicted pages).
    pub total_refaults: u64,
    /// Eviction events whose chunk had no ledger-resident pages (stream
    /// truncated by ring overflow, or injected aborts) — non-zero means
    /// the ledger is approximate.
    pub unmatched_evictions: u64,
    pages_per_chunk: u64,
}

impl PageLedger {
    /// Replay `telemetry` into a ledger. `pages_per_chunk` maps pages
    /// to eviction-granularity chunks (the emitters' `PAGES_PER_CHUNK`).
    ///
    /// # Panics
    /// Panics if `pages_per_chunk` is zero.
    #[must_use]
    pub fn from_telemetry(telemetry: &RunTelemetry, pages_per_chunk: u64) -> Self {
        assert!(pages_per_chunk > 0, "pages_per_chunk must be positive");
        let mut ledger = PageLedger {
            pages_per_chunk,
            ..PageLedger::default()
        };
        let mut chunk_resident: FxHashMap<u64, FxHashSet<u64>> = FxHashMap::default();
        let mut fault_index = 0u64;
        let mut last_cycle = 0u64;

        // Merge the event and decision streams by cycle; events win
        // ties so a fault is registered before the plan it triggered
        // makes its page resident.
        let events: Vec<(u64, &DriverEvent)> = (telemetry.events.iter())
            .map(|e| (show(e).cycle, e))
            .collect();
        let decisions = &telemetry.decisions;
        let (mut ei, mut di) = (0usize, 0usize);
        loop {
            let take_event = match (events.get(ei), decisions.get(di)) {
                (Some(&(cycle, _)), Some(d)) => cycle <= d.cycle,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_event {
                let (cycle, event) = events[ei];
                ei += 1;
                last_cycle = last_cycle.max(cycle);
                match *event {
                    DriverEvent::FarFault { page, .. } => {
                        let page = page.0;
                        fault_index += 1;
                        ledger.total_faults += 1;
                        let life = ledger.pages.entry(page).or_insert_with(|| PageLife {
                            first_seen: cycle,
                            ..PageLife::default()
                        });
                        life.faults += 1;
                        if let Some((evicted_at, evicted_fault_index)) = life.last_evicted {
                            if !life.resident {
                                let distance = cycle.saturating_sub(evicted_at);
                                let gap = fault_index.saturating_sub(evicted_fault_index + 1);
                                life.refaults += 1;
                                life.refault_distance_sum += distance;
                                life.refault_gap_faults_sum += gap;
                                ledger.total_refaults += 1;
                                ledger.refault_distance.record(distance);
                                ledger.refault_gap_faults.record(gap);
                                life.last_evicted = None;
                            }
                        }
                    }
                    DriverEvent::ChunkEvicted { chunk, .. } => {
                        let Some(residents) = chunk_resident.remove(&chunk.0) else {
                            ledger.unmatched_evictions += 1;
                            continue;
                        };
                        for page in residents {
                            let life = ledger.pages.entry(page).or_default();
                            life.resident = false;
                            life.evictions += 1;
                            life.last_evicted = Some((cycle, fault_index));
                            if let Some(since) = life.resident_since.take() {
                                let dur = cycle.saturating_sub(since);
                                life.total_residency += dur;
                                ledger.residency.record(dur);
                            }
                        }
                    }
                    _ => {}
                }
            } else {
                let rec = &decisions[di];
                di += 1;
                last_cycle = last_cycle.max(rec.cycle);
                if rec.event.kind != DecisionKind::Prefetch {
                    continue; // eviction decisions are provenance-only
                }
                for &page in &rec.event.pages {
                    let life = ledger.pages.entry(page).or_insert_with(|| PageLife {
                        first_seen: rec.cycle,
                        ..PageLife::default()
                    });
                    if life.resident {
                        continue;
                    }
                    life.resident = true;
                    life.migrations += 1;
                    life.resident_since = Some(rec.cycle);
                    let chunk = page / pages_per_chunk;
                    let residents = chunk_resident.entry(chunk).or_default();
                    if residents.is_empty() {
                        ledger.chunk_migrations += 1;
                    }
                    residents.insert(page);
                }
            }
        }

        // Close out open residencies at the last recorded cycle so
        // total_residency covers the whole stream (the open interval is
        // deliberately kept out of the completed-residency histogram).
        for life in ledger.pages.values_mut() {
            if let Some(since) = life.resident_since {
                life.total_residency += last_cycle.saturating_sub(since);
            }
        }
        ledger
    }

    /// Pages the ledger tracked.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Highest per-page thrash score (re-fault count), with its page.
    #[must_use]
    pub fn max_thrash(&self) -> Option<(u64, u32)> {
        self.pages
            .iter()
            .filter(|(_, l)| l.refaults > 0)
            .max_by_key(|(page, l)| (l.refaults, std::cmp::Reverse(**page)))
            .map(|(page, l)| (*page, l.refaults))
    }

    /// The `n` highest-thrash pages, hottest first (ties: lowest page).
    #[must_use]
    pub fn top_thrash(&self, n: usize) -> Vec<(u64, u32)> {
        let mut v: Vec<(u64, u32)> = self
            .pages
            .iter()
            .filter(|(_, l)| l.refaults > 0)
            .map(|(page, l)| (*page, l.refaults))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Render the per-page lifetime table as CSV, sorted by page.
    #[must_use]
    pub fn lifetime_csv(&self) -> String {
        let mut w = CsvWriter::new(&[
            "page",
            "chunk",
            "first_seen_cycle",
            "faults",
            "refaults",
            "migrations",
            "evictions",
            "resident_at_end",
            "total_residency_cycles",
            "mean_refault_distance_cycles",
        ]);
        let mut pages: Vec<(&u64, &PageLife)> = self.pages.iter().collect();
        pages.sort_by_key(|(page, _)| **page);
        for (page, life) in pages {
            w.row(&[
                page.to_string(),
                (page / self.pages_per_chunk).to_string(),
                life.first_seen.to_string(),
                life.faults.to_string(),
                life.refaults.to_string(),
                life.migrations.to_string(),
                life.evictions.to_string(),
                u8::from(life.resident).to_string(),
                life.total_residency.to_string(),
                life.mean_refault_distance().to_string(),
            ]);
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::decision::{DecisionEvent, DecisionRecord};
    use gmmu::types::{ChunkId, VirtPage};
    use sim_core::time::Cycle;

    fn fault(cycle: u64, page: u64) -> DriverEvent {
        DriverEvent::FarFault {
            at: Cycle(cycle),
            page: VirtPage(page),
        }
    }

    fn evict(cycle: u64, chunk: u64) -> DriverEvent {
        DriverEvent::ChunkEvicted {
            at: Cycle(cycle),
            chunk: ChunkId(chunk),
            resident: 2,
            untouch: 1,
            d2h: (Cycle(cycle), Cycle(cycle)),
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
    fn tracks_first_touch_residency_eviction_and_refault() {
        // Page 0 faults at 10, pages 0-1 migrate, chunk 0 is evicted at
        // 100, page 0 re-faults at 150 and migrates again.
        let t = telemetry(
            vec![fault(10, 0), evict(100, 0), fault(150, 0)],
            vec![plan(10, 0, vec![0, 1]), plan(150, 0, vec![0])],
        );
        let ledger = PageLedger::from_telemetry(&t, 16);
        assert_eq!(ledger.page_count(), 2);
        assert_eq!(ledger.total_faults, 2);
        assert_eq!(ledger.total_refaults, 1);
        assert_eq!(ledger.chunk_migrations, 2, "chunk 0 fetched twice");
        assert_eq!(ledger.unmatched_evictions, 0);

        let p0 = &ledger.pages[&0];
        assert_eq!(p0.faults, 2);
        assert_eq!(p0.refaults, 1);
        assert_eq!(p0.migrations, 2);
        assert_eq!(p0.evictions, 1);
        assert!(p0.resident, "re-migrated at 150");
        assert_eq!(p0.mean_refault_distance(), 50);
        assert_eq!(p0.refault_gap_faults_sum, 0, "no faults in between");
        // Residency 10→100 for both pages.
        assert_eq!(ledger.residency.count(), 2);
        assert_eq!(ledger.residency.max(), 90);
        assert_eq!(ledger.refault_distance.max(), 50);

        let p1 = &ledger.pages[&1];
        assert_eq!(p1.faults, 0, "prefetched, never faulted");
        assert_eq!(p1.evictions, 1);
        assert!(!p1.resident);
    }

    #[test]
    fn refault_gap_counts_intervening_faults() {
        let t = telemetry(
            vec![
                fault(10, 0),
                evict(100, 0),
                fault(110, 32), // a different chunk faults in between
                fault(150, 0),
            ],
            vec![
                plan(10, 0, vec![0]),
                plan(110, 32, vec![32]),
                plan(150, 0, vec![0]),
            ],
        );
        let ledger = PageLedger::from_telemetry(&t, 16);
        assert_eq!(ledger.pages[&0].refault_gap_faults_sum, 1);
        assert_eq!(ledger.refault_gap_faults.max(), 1);
        assert_eq!(ledger.chunk_migrations, 3);
    }

    #[test]
    fn fault_before_same_cycle_plan_is_one_first_touch() {
        let t = telemetry(vec![fault(10, 5)], vec![plan(10, 5, vec![5])]);
        let ledger = PageLedger::from_telemetry(&t, 16);
        let p = &ledger.pages[&5];
        assert_eq!((p.faults, p.refaults, p.migrations), (1, 0, 1));
        assert!(p.resident);
        assert_eq!(p.total_residency, 0, "stream ends at the same cycle");
    }

    #[test]
    fn unmatched_eviction_is_counted_not_crashed() {
        let t = telemetry(vec![evict(50, 9)], vec![]);
        let ledger = PageLedger::from_telemetry(&t, 16);
        assert_eq!(ledger.unmatched_evictions, 1);
        assert_eq!(ledger.page_count(), 0);
    }

    #[test]
    fn open_residency_closes_at_last_cycle() {
        let t = telemetry(
            vec![fault(10, 0), fault(500, 16)],
            vec![plan(10, 0, vec![0])],
        );
        let ledger = PageLedger::from_telemetry(&t, 16);
        assert_eq!(ledger.pages[&0].total_residency, 490);
        assert_eq!(ledger.residency.count(), 0, "open interval not in hist");
    }

    #[test]
    fn lifetime_csv_is_sorted_and_valid() {
        let t = telemetry(
            vec![fault(10, 17), fault(20, 3), evict(100, 0), fault(150, 3)],
            vec![
                plan(10, 17, vec![17]),
                plan(20, 3, vec![3, 4]),
                plan(150, 3, vec![3]),
            ],
        );
        let ledger = PageLedger::from_telemetry(&t, 16);
        let csv = ledger.lifetime_csv();
        crate::telemetry::csv::validate(&csv).expect("well-formed CSV");
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("page,chunk,first_seen_cycle"));
        assert!(lines[1].starts_with("3,0,"), "sorted by page");
        assert!(lines[3].starts_with("17,1,"));
        assert_eq!(ledger.max_thrash(), Some((3, 1)));
        assert_eq!(ledger.top_thrash(4), vec![(3, 1)]);
    }
}
