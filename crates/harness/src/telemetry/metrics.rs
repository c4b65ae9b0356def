//! The per-epoch metric series.
//!
//! Metric names are dotted paths (`driver.retries`,
//! `cppe.pages_evicted`, `mem.resident_pages`). The first epoch sampled
//! fixes their order, so every exporter sees the same stable column
//! schema. Counters are monotone totals; gauges are point-in-time
//! levels.
//!
//! One epoch is sampled per fault batch; [`EpochSeries`] then exposes
//! totals and per-epoch deltas, with the invariant (checked by
//! [`EpochSeries::parity`]) that the deltas of every counter sum
//! exactly to its end-of-run total.

/// What kind of quantity a metric is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing total; exporters emit per-epoch
    /// deltas.
    Counter,
    /// Point-in-time level; exporters emit the sampled value.
    Gauge,
}

/// One sampled epoch: the totals of every metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRow {
    /// Epoch index (0-based, one per fault batch).
    pub epoch: u64,
    /// Simulated cycle of the sample (the batch dispatch).
    pub cycle: u64,
    /// Metric totals, in schema order.
    pub totals: Vec<u64>,
}

/// The sampled epoch series: a stable schema plus one row per epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochSeries {
    /// `(dotted name, kind)` in the order the first epoch named them.
    pub schema: Vec<(String, MetricKind)>,
    /// One row per epoch, in time order.
    pub rows: Vec<EpochRow>,
}

impl EpochSeries {
    /// Append one epoch of `(name, kind, total)` samples taken at
    /// `cycle`. The first epoch fixes the schema; every later one must
    /// name the same metrics in the same order.
    pub fn push<'a>(
        &mut self,
        cycle: u64,
        metrics: impl IntoIterator<Item = (&'a str, MetricKind, u64)>,
    ) {
        let first = self.rows.is_empty();
        let mut totals = Vec::with_capacity(self.schema.len());
        for (name, kind, total) in metrics {
            if first {
                self.schema.push((name.to_string(), kind));
            }
            debug_assert!(
                self.schema
                    .get(totals.len())
                    .is_some_and(|(n, k)| n == name && *k == kind),
                "epoch {} samples {name} out of schema order",
                self.rows.len()
            );
            totals.push(total);
        }
        debug_assert_eq!(totals.len(), self.schema.len(), "epoch schema changed");
        self.rows.push(EpochRow {
            epoch: self.rows.len() as u64,
            cycle,
            totals,
        });
    }

    /// Column index of `name`, if sampled.
    #[must_use]
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.schema.iter().position(|(n, _)| n == name)
    }

    /// Final total of metric `name` (0 when absent or no epochs).
    #[must_use]
    pub fn final_total(&self, name: &str) -> u64 {
        match (self.index_of(name), self.rows.last()) {
            (Some(i), Some(row)) => row.totals[i],
            _ => 0,
        }
    }

    /// Total of metric `name` at the last epoch sampled at or before
    /// `cycle` (0 when none).
    #[must_use]
    pub fn total_at(&self, name: &str, cycle: u64) -> u64 {
        let Some(i) = self.index_of(name) else {
            return 0;
        };
        self.rows
            .iter()
            .take_while(|r| r.cycle <= cycle)
            .last()
            .map_or(0, |r| r.totals[i])
    }

    /// Per-epoch values for row `i`: counters as deltas against the
    /// previous epoch, gauges as sampled.
    #[must_use]
    pub fn epoch_values(&self, i: usize) -> Vec<u64> {
        let row = &self.rows[i];
        self.schema
            .iter()
            .enumerate()
            .map(|(c, &(_, kind))| match kind {
                MetricKind::Gauge => row.totals[c],
                MetricKind::Counter => {
                    let prev = if i == 0 {
                        0
                    } else {
                        self.rows[i - 1].totals[c]
                    };
                    row.totals[c].saturating_sub(prev)
                }
            })
            .collect()
    }

    /// Verify counter parity: for every counter, the sum of per-epoch
    /// deltas must equal the final total, and totals must be monotone.
    ///
    /// # Errors
    /// Returns the first offending metric name.
    pub fn parity(&self) -> Result<(), String> {
        for (c, (name, kind)) in self.schema.iter().enumerate() {
            if *kind != MetricKind::Counter {
                continue;
            }
            let mut prev = 0u64;
            let mut delta_sum = 0u64;
            for row in &self.rows {
                let v = row.totals[c];
                if v < prev {
                    return Err(format!("{name}: non-monotone total {v} after {prev}"));
                }
                delta_sum += v - prev;
                prev = v;
            }
            if delta_sum != prev {
                return Err(format!(
                    "{name}: delta sum {delta_sum} != final total {prev}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_deltas_and_parity() {
        let mut s = EpochSeries::default();
        s.push(
            100,
            [("c", MetricKind::Counter, 4), ("g", MetricKind::Gauge, 10)],
        );
        s.push(
            250,
            [("c", MetricKind::Counter, 9), ("g", MetricKind::Gauge, 6)],
        );
        assert_eq!(s.epoch_values(0), vec![4, 10]);
        assert_eq!(s.epoch_values(1), vec![5, 6], "counter delta, gauge level");
        assert_eq!(s.final_total("c"), 9);
        assert_eq!(s.total_at("c", 100), 4);
        assert_eq!(s.total_at("c", 99), 0);
        s.parity().expect("deltas reconcile");
    }

    #[test]
    fn parity_catches_non_monotone_counters() {
        let mut s = EpochSeries::default();
        s.push(1, [("c", MetricKind::Counter, 5)]);
        s.push(2, [("c", MetricKind::Counter, 3)]);
        assert!(s.parity().is_err());
    }
}
