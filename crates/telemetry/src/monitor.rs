//! Periodic in-run snapshot sampler over the metrics registry.
//!
//! The epoch series ([`crate::metrics::EpochSeries`]) records *every*
//! fault batch — exhaustive, but only consumable after the run. The
//! [`Monitor`] is the live-view counterpart: on a fixed cadence
//! (simulated cycles, wall-clock ticks, or both) it copies the current
//! registry totals into a bounded drop-oldest ring of
//! [`MonitorSnapshot`]s, which `timeline --monitor` exports as a
//! `*_monitor.json` document ([`monitor_json`]).
//!
//! Ring conventions match [`crate::ring::TraceRing`]: bounded, oldest
//! snapshots dropped first, drops counted (surfaced as
//! `telemetry.monitor.dropped`, registered only when the monitor is on
//! so non-monitored schemas never grow), capacity 0 counts without
//! storing. Like the rest of the tracer, the monitor only *reads*
//! simulation state, so enabling it cannot change a run's results.

use crate::json;
use crate::metrics::{MetricKind, MetricsRegistry};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Schema marker for monitor snapshot dumps.
pub const MONITOR_SCHEMA: &str = "cppe-monitor-v1";

/// A [`Duration`] as whole milliseconds, saturating at `u64::MAX`.
///
/// `Duration::as_millis` returns `u128`; the `as u64` narrowing the
/// telemetry structs used to do silently wraps for durations past
/// ~584 million years. Unreachable in practice, but wall-clock fields
/// feed monotonicity checks in validators — saturate instead of wrap
/// so even absurd clock readings can never produce a *smaller* value.
#[must_use]
fn saturating_millis(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// One sampled snapshot: every registered metric total at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorSnapshot {
    /// Monotone sample number (counts drops too: `seq` of the oldest
    /// retained snapshot tells how many were lost before it).
    pub seq: u64,
    /// Simulated cycle of the sample.
    pub cycle: u64,
    /// Wall-clock milliseconds since the monitor started.
    pub wall_ms: u64,
    /// Metric totals in schema order. Early snapshots may be shorter
    /// than the final schema — metrics register on first sight, and a
    /// snapshot only covers what existed when it was taken.
    pub totals: Vec<u64>,
}

/// The finished time series a run's monitor produced.
#[derive(Debug, Clone, Default)]
pub struct MonitorSeries {
    /// `(dotted name, kind)` in registration order.
    pub schema: Vec<(String, MetricKind)>,
    /// Retained snapshots, oldest first.
    pub snapshots: Vec<MonitorSnapshot>,
    /// Samples taken over the run (retained + dropped).
    pub sampled: u64,
    /// Snapshots evicted by the ring (oldest first).
    pub dropped: u64,
}

/// The sampler. Owned by the tracer when `TraceConfig::monitor` is on.
#[derive(Debug)]
pub struct Monitor {
    /// Minimum simulated cycles between samples (`u64::MAX` disables
    /// cycle-driven sampling).
    cadence: u64,
    /// Wall-clock tick forcing a sample (`None` disables).
    wall_tick: Option<Duration>,
    capacity: usize,
    schema: Vec<(String, MetricKind)>,
    buf: VecDeque<MonitorSnapshot>,
    sampled: u64,
    dropped: u64,
    last_cycle: Option<u64>,
    started: Instant,
    last_wall: Instant,
}

impl Monitor {
    /// Sampler with the given cycle cadence, wall tick (0 ms = wall
    /// ticks off) and ring capacity (0 = count samples, store none).
    #[must_use]
    pub fn new(cadence: u64, wall_tick_ms: u64, capacity: usize) -> Self {
        let now = Instant::now();
        Monitor {
            cadence,
            wall_tick: (wall_tick_ms > 0).then(|| Duration::from_millis(wall_tick_ms)),
            capacity,
            schema: Vec::new(),
            buf: VecDeque::with_capacity(capacity.min(4096)),
            sampled: 0,
            dropped: 0,
            last_cycle: None,
            started: now,
            last_wall: now,
        }
    }

    /// Snapshots evicted so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Samples taken so far (retained + dropped).
    #[must_use]
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// Sample if a tick is due: the first call always samples, then
    /// whenever `cycle` has advanced past the cadence or the wall tick
    /// has elapsed.
    pub fn maybe_sample(&mut self, cycle: u64, registry: &MetricsRegistry) {
        let due_cycle = self
            .last_cycle
            .is_none_or(|last| cycle >= last.saturating_add(self.cadence));
        let due_wall = self
            .wall_tick
            .is_some_and(|tick| self.last_wall.elapsed() >= tick);
        if due_cycle || due_wall {
            self.force_sample(cycle, registry);
        }
    }

    /// Sample unconditionally (cadence state still advances).
    fn force_sample(&mut self, cycle: u64, registry: &MetricsRegistry) {
        // Registration is append-only, so the known schema is always a
        // prefix of the registry's — extend with the new tail.
        for (name, kind, _) in registry.iter().skip(self.schema.len()) {
            self.schema.push((name.to_string(), kind));
        }
        let snap = MonitorSnapshot {
            seq: self.sampled,
            cycle,
            wall_ms: saturating_millis(self.started.elapsed()),
            totals: registry.iter().map(|(_, _, v)| v).collect(),
        };
        self.sampled += 1;
        self.last_cycle = Some(cycle);
        self.last_wall = Instant::now();
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(snap);
    }

    /// Consume into the finished series.
    #[must_use]
    pub fn into_series(self) -> MonitorSeries {
        MonitorSeries {
            schema: self.schema,
            snapshots: self.buf.into(),
            sampled: self.sampled,
            dropped: self.dropped,
        }
    }
}

/// Render a monitor series as one JSON document (schema
/// [`MONITOR_SCHEMA`]).
#[must_use]
pub fn monitor_json(series: &MonitorSeries) -> String {
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"schema\":{},\"sampled\":{},\"dropped\":{},\"metrics\":[",
        json::string(MONITOR_SCHEMA),
        series.sampled,
        series.dropped
    );
    for (i, (name, kind)) in series.schema.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let kind = match kind {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        };
        let _ = write!(s, "{{\"name\":{},\"kind\":\"{kind}\"}}", json::string(name));
    }
    s.push_str("],\"snapshots\":[");
    for (i, snap) in series.snapshots.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"seq\":{},\"cycle\":{},\"wall_ms\":{},\"totals\":[",
            snap.seq, snap.cycle, snap.wall_ms
        );
        for (j, v) in snap.totals.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(s, "{v}");
        }
        s.push_str("]}");
    }
    s.push_str("]}");
    s
}

/// Schema-check a monitor dump (the `validate-trace` hook). Returns a
/// one-line summary.
///
/// # Errors
/// Describes the first malformation: bad JSON, wrong/missing schema
/// marker, non-monotone `seq`/`cycle`, or a snapshot wider than the
/// metric schema.
pub fn validate_doc(body: &str) -> Result<String, String> {
    let v = json::parse(body)?;
    match v.get("schema").and_then(json::Value::as_str) {
        Some(MONITOR_SCHEMA) => {}
        other => return Err(format!("schema marker {other:?}, want {MONITOR_SCHEMA:?}")),
    }
    let metrics = v
        .get("metrics")
        .and_then(json::Value::as_array)
        .ok_or("missing \"metrics\" array")?;
    for m in metrics {
        if m.get("name").and_then(json::Value::as_str).is_none() {
            return Err("metric entry without a name".into());
        }
        match m.get("kind").and_then(json::Value::as_str) {
            Some("counter" | "gauge") => {}
            other => return Err(format!("metric kind {other:?}")),
        }
    }
    let snapshots = v
        .get("snapshots")
        .and_then(json::Value::as_array)
        .ok_or("missing \"snapshots\" array")?;
    let sampled = v
        .get("sampled")
        .and_then(json::Value::as_u64)
        .ok_or("missing \"sampled\"")?;
    let dropped = v
        .get("dropped")
        .and_then(json::Value::as_u64)
        .ok_or("missing \"dropped\"")?;
    if (snapshots.len() as u64).saturating_add(dropped) != sampled {
        return Err(format!(
            "accounting mismatch: {} retained + {dropped} dropped != {sampled} sampled",
            snapshots.len()
        ));
    }
    let mut prev: Option<(u64, u64)> = None;
    for snap in snapshots {
        let seq = snap
            .get("seq")
            .and_then(json::Value::as_u64)
            .ok_or("snapshot without seq")?;
        let cycle = snap
            .get("cycle")
            .and_then(json::Value::as_u64)
            .ok_or("snapshot without cycle")?;
        let totals = snap
            .get("totals")
            .and_then(json::Value::as_array)
            .ok_or("snapshot without totals")?;
        if totals.len() > metrics.len() {
            return Err(format!(
                "snapshot seq {seq}: {} totals but only {} metrics",
                totals.len(),
                metrics.len()
            ));
        }
        if let Some((pseq, pcycle)) = prev {
            if seq <= pseq {
                return Err(format!("non-monotone seq {seq} after {pseq}"));
            }
            if cycle < pcycle {
                return Err(format!("non-monotone cycle {cycle} after {pcycle}"));
            }
        }
        prev = Some((seq, cycle));
    }
    Ok(format!(
        "{} snapshots over {} metrics ({dropped} dropped)",
        snapshots.len(),
        metrics.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.set("a.count", MetricKind::Counter, 1);
        r.set("b.level", MetricKind::Gauge, 10);
        r
    }

    #[test]
    fn saturating_millis_never_wraps() {
        assert_eq!(saturating_millis(Duration::ZERO), 0);
        assert_eq!(saturating_millis(Duration::from_millis(1234)), 1234);
        // In-range u128 millis convert exactly...
        assert_eq!(
            saturating_millis(Duration::from_secs(u64::MAX / 1000)),
            (u64::MAX / 1000) * 1000
        );
        // ...while Duration::MAX (~5.8e17 s → millis > u64::MAX) pins to
        // the ceiling instead of wrapping to a tiny value like `as u64`.
        assert_eq!(saturating_millis(Duration::MAX), u64::MAX);
        assert!(Duration::MAX.as_millis() > u128::from(u64::MAX));
    }

    #[test]
    fn first_sample_always_fires_then_cadence_gates() {
        let mut m = Monitor::new(100, 0, 16);
        let r = registry();
        m.maybe_sample(5, &r);
        assert_eq!(m.sampled(), 1);
        m.maybe_sample(50, &r);
        assert_eq!(m.sampled(), 1, "within cadence: skipped");
        m.maybe_sample(105, &r);
        assert_eq!(m.sampled(), 2);
        let s = m.into_series();
        assert_eq!(s.snapshots.len(), 2);
        assert_eq!(s.snapshots[0].cycle, 5);
        assert_eq!(s.snapshots[1].totals, vec![1, 10]);
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn cadence_max_disables_cycle_ticks() {
        let mut m = Monitor::new(u64::MAX, 0, 16);
        let r = registry();
        m.maybe_sample(5, &r);
        m.maybe_sample(u64::MAX - 1, &r);
        assert_eq!(m.sampled(), 1, "only the unconditional first sample");
    }

    #[test]
    fn wall_tick_forces_sample_within_cadence() {
        let mut m = Monitor::new(u64::MAX, 1, 16);
        let r = registry();
        m.maybe_sample(10, &r);
        std::thread::sleep(Duration::from_millis(3));
        m.maybe_sample(11, &r);
        assert_eq!(m.sampled(), 2, "wall tick elapsed");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut m = Monitor::new(0, 0, 2);
        let r = registry();
        for c in 0..5 {
            m.maybe_sample(c, &r);
        }
        assert_eq!(m.dropped(), 3);
        let s = m.into_series();
        assert_eq!(s.sampled, 5);
        assert_eq!(s.snapshots.len(), 2);
        assert_eq!(s.snapshots[0].seq, 3, "oldest dropped first");
    }

    #[test]
    fn capacity_zero_counts_without_storing() {
        let mut m = Monitor::new(0, 0, 0);
        let r = registry();
        for c in 0..3 {
            m.maybe_sample(c, &r);
        }
        let s = m.into_series();
        assert!(s.snapshots.is_empty());
        assert_eq!(s.dropped, 3);
        assert_eq!(s.sampled, 3);
    }

    #[test]
    fn schema_grows_with_registry_and_old_snapshots_stay_short() {
        let mut m = Monitor::new(0, 0, 16);
        let mut r = registry();
        m.maybe_sample(1, &r);
        r.set("c.new", MetricKind::Counter, 7);
        m.maybe_sample(2, &r);
        let s = m.into_series();
        assert_eq!(s.schema.len(), 3);
        assert_eq!(s.snapshots[0].totals.len(), 2);
        assert_eq!(s.snapshots[1].totals, vec![1, 10, 7]);
    }

    #[test]
    fn json_roundtrips_through_validate() {
        let mut m = Monitor::new(0, 0, 2);
        let r = registry();
        for c in 0..4 {
            m.maybe_sample(c * 10, &r);
        }
        let doc = monitor_json(&m.into_series());
        json::validate(&doc).unwrap();
        let detail = validate_doc(&doc).unwrap();
        assert!(detail.contains("2 snapshots"), "{detail}");
        assert!(detail.contains("2 dropped"), "{detail}");
    }

    #[test]
    fn validate_rejects_malformed_docs() {
        assert!(validate_doc("{}").is_err(), "missing schema");
        assert!(
            validate_doc("{\"schema\":\"cppe-monitor-v0\"}").is_err(),
            "wrong schema"
        );
        let bad_accounting = "{\"schema\":\"cppe-monitor-v1\",\"sampled\":5,\
             \"dropped\":0,\"metrics\":[],\"snapshots\":[]}";
        assert!(validate_doc(bad_accounting)
            .unwrap_err()
            .contains("accounting"));
        let bad_seq = "{\"schema\":\"cppe-monitor-v1\",\"sampled\":2,\"dropped\":0,\
             \"metrics\":[{\"name\":\"a\",\"kind\":\"counter\"}],\
             \"snapshots\":[{\"seq\":1,\"cycle\":5,\"wall_ms\":0,\"totals\":[1]},\
             {\"seq\":1,\"cycle\":6,\"wall_ms\":0,\"totals\":[2]}]}";
        assert!(validate_doc(bad_seq).unwrap_err().contains("seq"));
    }

    #[test]
    fn empty_series_renders_and_validates() {
        let doc = monitor_json(&MonitorSeries::default());
        json::validate(&doc).unwrap();
        validate_doc(&doc).unwrap();
    }
}
