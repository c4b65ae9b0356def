//! Cross-run bench history.
//!
//! The repo's bench artifacts (`BENCH_profile.json`, `BENCH_audit.json`)
//! are each a snapshot of *one* run; regressions that creep in over
//! several PRs are invisible to any single snapshot diff. Every sample
//! they yield is a simulated quantity (cycles, chunks), so the history
//! is machine-independent: host speed is measured only by `simbench`,
//! whose records carry the machine identity. This module keeps a JSONL
//! ledger
//! (`bench-history/history.jsonl`, schema [`HISTORY_SCHEMA`]) that the
//! `trend` binary appends each bench summary to and reads back to
//! compute per-cell deltas — latest value against the median of its
//! own history, flagged significant beyond 3 robust sigmas
//! (`1.4826 × MAD`) — plus a self-contained HTML dashboard with inline
//! SVG sparklines.
//!
//! The ledger is append-only and salvage-tolerant on read (a torn or
//! hand-mangled line is skipped with a warning, mirroring the result
//! store's journal posture), so concurrent CI appends can never brick
//! the trend job.

use std::fmt::Write as _;
use std::path::Path;
use telemetry::json;

/// Schema marker stamped into every history line.
pub const HISTORY_SCHEMA: &str = "cppe-bench-history-v1";

/// One measured scalar from one bench artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Cell key, e.g. `"STN"`.
    pub cell: String,
    /// Metric name, e.g. `"fault_total_p99"`.
    pub metric: String,
    /// The value.
    pub value: f64,
    /// Unit label for display, e.g. `"cycles"`, `"chunks"`.
    pub unit: String,
}

/// One appended bench summary: a labelled set of samples from one
/// artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// Caller-chosen label (commit, CI run id, "committed"/"fresh").
    pub label: String,
    /// Source artifact kind: `"profile"` or `"audit"`.
    pub source: String,
    /// The measurements.
    pub samples: Vec<Sample>,
}

/// Extract history samples from a bench artifact, dispatching on its
/// schema marker.
///
/// # Errors
/// Describes why the document is not a recognized bench artifact.
pub fn extract(doc: &str) -> Result<(String, Vec<Sample>), String> {
    if doc.contains("\"schema\":\"cppe-profile-v1\"") {
        return Ok(("profile".to_string(), extract_profile(doc)?));
    }
    if doc.contains("\"schema\":\"cppe-audit-v1\"") {
        return Ok(("audit".to_string(), extract_audit(doc)?));
    }
    Err("document carries no recognized bench schema \
         (expected cppe-profile-v1 or cppe-audit-v1)"
        .to_string())
}

fn workloads_of(doc: &str) -> Result<Vec<json::Value>, String> {
    let v = json::parse(doc).map_err(|e| format!("invalid JSON: {e}"))?;
    v.get("workloads")
        .and_then(json::Value::as_array)
        .map(<[json::Value]>::to_vec)
        .ok_or_else(|| "missing \"workloads\" array".to_string())
}

fn extract_profile(doc: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for w in workloads_of(doc)? {
        let app = w
            .get("app")
            .and_then(json::Value::as_str)
            .ok_or("workload missing \"app\"")?
            .to_string();
        let p99 = w
            .get("stages")
            .and_then(json::Value::as_array)
            .and_then(|stages| {
                stages
                    .iter()
                    .find(|s| s.get("stage").and_then(json::Value::as_str) == Some("fault_total"))
            })
            .and_then(|s| s.get("p99").and_then(json::Value::as_f64));
        if let Some(p99) = p99 {
            samples.push(Sample {
                cell: app,
                metric: "fault_total_p99".to_string(),
                value: p99,
                unit: "cycles".to_string(),
            });
        }
    }
    if samples.is_empty() {
        return Err("cppe-profile-v1 document yielded no samples".to_string());
    }
    Ok(samples)
}

fn extract_audit(doc: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for w in workloads_of(doc)? {
        let app = w
            .get("app")
            .and_then(json::Value::as_str)
            .ok_or("workload missing \"app\"")?
            .to_string();
        let oracle = w.get("oracle");
        if let Some(avoidable) = oracle
            .and_then(|o| o.get("avoidable_chunk_migrations"))
            .and_then(json::Value::as_f64)
        {
            samples.push(Sample {
                cell: app.clone(),
                metric: "avoidable_chunk_migrations".to_string(),
                value: avoidable,
                unit: "chunks".to_string(),
            });
        }
        if let Some(p95) = oracle
            .and_then(|o| o.get("regret"))
            .and_then(|r| r.get("p95"))
            .and_then(json::Value::as_f64)
        {
            samples.push(Sample {
                cell: app,
                metric: "regret_p95".to_string(),
                value: p95,
                unit: "cycles".to_string(),
            });
        }
    }
    if samples.is_empty() {
        return Err("cppe-audit-v1 document yielded no samples".to_string());
    }
    Ok(samples)
}

/// Render one history JSONL line.
#[must_use]
pub fn entry_json(entry: &HistoryEntry) -> String {
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"v\":{},\"label\":{},\"source\":{},\"samples\":[",
        json::string(HISTORY_SCHEMA),
        json::string(&entry.label),
        json::string(&entry.source),
    );
    for (i, sample) in entry.samples.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"cell\":{},\"metric\":{},\"value\":{},\"unit\":{}}}",
            json::string(&sample.cell),
            json::string(&sample.metric),
            fmt_value(sample.value),
            json::string(&sample.unit),
        );
    }
    s.push_str("]}");
    s
}

fn fmt_value(v: f64) -> String {
    // Round-trippable but stable: integral values print bare.
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// Parse one history line back.
///
/// # Errors
/// Names the first missing or mistyped field.
pub fn entry_from_json(line: &str) -> Result<HistoryEntry, String> {
    let v = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    if v.get("v").and_then(json::Value::as_str) != Some(HISTORY_SCHEMA) {
        return Err(format!("line does not carry schema {HISTORY_SCHEMA:?}"));
    }
    let field = |k: &str| -> Result<String, String> {
        v.get(k)
            .and_then(json::Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing/mistyped field {k:?}"))
    };
    let raw = v
        .get("samples")
        .and_then(json::Value::as_array)
        .ok_or("missing/mistyped field \"samples\"")?;
    let mut samples = Vec::with_capacity(raw.len());
    for s in raw {
        let sfield = |k: &str| -> Result<String, String> {
            s.get(k)
                .and_then(json::Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("sample missing/mistyped field {k:?}"))
        };
        samples.push(Sample {
            cell: sfield("cell")?,
            metric: sfield("metric")?,
            value: s
                .get("value")
                .and_then(json::Value::as_f64)
                .ok_or("sample missing/mistyped field \"value\"")?,
            unit: sfield("unit")?,
        });
    }
    Ok(HistoryEntry {
        label: field("label")?,
        source: field("source")?,
        samples,
    })
}

/// Append one entry to the JSONL ledger (parent dirs created).
///
/// # Errors
/// Propagates the underlying I/O error.
pub fn append(path: &Path, entry: &HistoryEntry) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", entry_json(entry))?;
    f.sync_data()
}

/// Load the ledger, skipping unparseable lines (salvage posture).
/// Returns the entries in file order plus the skipped-line count.
///
/// # Errors
/// Propagates the underlying I/O error (a missing file is an error —
/// the caller distinguishes "no history yet" itself).
pub fn load(path: &Path) -> std::io::Result<(Vec<HistoryEntry>, usize)> {
    let body = std::fs::read_to_string(path)?;
    let mut entries = Vec::new();
    let mut skipped = 0usize;
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match entry_from_json(line) {
            Ok(e) => entries.push(e),
            Err(e) => {
                skipped += 1;
                eprintln!("[trend] WARNING: skipping history line {}: {e}", i + 1);
            }
        }
    }
    Ok((entries, skipped))
}

/// One per-(source, cell, metric) series assembled from the ledger.
#[derive(Debug, Clone)]
pub struct TrendSeries {
    /// `"profile"` / `"audit"`.
    pub source: String,
    /// Cell key.
    pub cell: String,
    /// Metric name.
    pub metric: String,
    /// Display unit.
    pub unit: String,
    /// Values in append order, paired with their entry labels.
    pub points: Vec<(String, f64)>,
}

impl TrendSeries {
    /// Latest value.
    #[must_use]
    pub fn latest(&self) -> f64 {
        self.points.last().map_or(f64::NAN, |(_, v)| *v)
    }

    /// Median of everything *before* the latest point (the baseline
    /// the delta is judged against). `None` with fewer than 2 points.
    #[must_use]
    pub fn prior_median(&self) -> Option<f64> {
        let n = self.points.len();
        (n >= 2).then(|| median(self.points[..n - 1].iter().map(|(_, v)| *v)))
    }

    /// Robust sigma (`1.4826 × MAD`) of the prior points.
    #[must_use]
    pub fn prior_sigma(&self) -> Option<f64> {
        let n = self.points.len();
        if n < 2 {
            return None;
        }
        let prior: Vec<f64> = self.points[..n - 1].iter().map(|(_, v)| *v).collect();
        let med = median(prior.iter().copied());
        Some(1.4826 * median(prior.iter().map(|v| (v - med).abs())))
    }

    /// Latest-vs-prior-median delta and whether it clears the 3-sigma
    /// significance bar (any nonzero delta when the history is flat).
    #[must_use]
    pub fn delta(&self) -> Option<(f64, bool)> {
        let med = self.prior_median()?;
        let delta = self.latest() - med;
        let sigma = self.prior_sigma().unwrap_or(0.0);
        let significant = if sigma > 0.0 {
            delta.abs() > 3.0 * sigma
        } else {
            delta != 0.0
        };
        Some((delta, significant))
    }
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Group ledger entries into per-cell series (deterministic order:
/// source, then cell, then metric).
#[must_use]
pub fn series(entries: &[HistoryEntry]) -> Vec<TrendSeries> {
    let mut map: std::collections::BTreeMap<(String, String, String), TrendSeries> =
        std::collections::BTreeMap::new();
    for entry in entries {
        for s in &entry.samples {
            map.entry((entry.source.clone(), s.cell.clone(), s.metric.clone()))
                .or_insert_with(|| TrendSeries {
                    source: entry.source.clone(),
                    cell: s.cell.clone(),
                    metric: s.metric.clone(),
                    unit: s.unit.clone(),
                    points: Vec::new(),
                })
                .points
                .push((entry.label.clone(), s.value));
        }
    }
    map.into_values().collect()
}

/// Render the text trend report.
#[must_use]
pub fn render_report(entries: &[HistoryEntry], skipped: usize) -> String {
    let all = series(entries);
    let mut t = crate::report::Table::new(&[
        "source", "cell", "metric", "n", "median", "latest", "delta", "verdict",
    ]);
    let mut significant = 0usize;
    for s in &all {
        let (median_txt, delta_txt, verdict) = match s.delta() {
            Some((delta, sig)) => {
                if sig {
                    significant += 1;
                }
                (
                    format!("{:.3}", s.prior_median().unwrap_or(f64::NAN)),
                    format!("{delta:+.3}"),
                    if sig { "SIGNIFICANT" } else { "ok" },
                )
            }
            None => ("-".to_string(), "-".to_string(), "single point"),
        };
        t.row(vec![
            s.source.clone(),
            s.cell.clone(),
            s.metric.clone(),
            s.points.len().to_string(),
            median_txt,
            format!("{:.3}", s.latest()),
            delta_txt,
            verdict.to_string(),
        ]);
    }
    let skipped_note = if skipped > 0 {
        format!("\nWARNING: {skipped} unparseable history lines skipped.\n")
    } else {
        String::new()
    };
    format!(
        "bench trend — {} entries, {} series, {} significant deltas \
         (|latest − median| > 3 × 1.4826 × MAD)\n\n{}{skipped_note}",
        entries.len(),
        all.len(),
        significant,
        t.render(),
    )
}

/// Inline SVG sparkline for one series (self-contained, no scripts).
fn sparkline(points: &[(String, f64)]) -> String {
    const W: f64 = 220.0;
    const H: f64 = 36.0;
    const PAD: f64 = 3.0;
    if points.is_empty() {
        return String::new();
    }
    let values: Vec<f64> = points.iter().map(|(_, v)| *v).collect();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in &values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = if hi > lo { hi - lo } else { 1.0 };
    let x = |i: usize| {
        if values.len() == 1 {
            W / 2.0
        } else {
            PAD + (W - 2.0 * PAD) * i as f64 / (values.len() - 1) as f64
        }
    };
    let y = |v: f64| H - PAD - (H - 2.0 * PAD) * (v - lo) / span;
    let mut path = String::new();
    for (i, &v) in values.iter().enumerate() {
        let _ = write!(
            path,
            "{}{:.1},{:.1}",
            if i > 0 { " " } else { "" },
            x(i),
            y(v)
        );
    }
    let (lx, ly) = (x(values.len() - 1), y(*values.last().unwrap()));
    format!(
        "<svg width=\"{W:.0}\" height=\"{H:.0}\" viewBox=\"0 0 {W:.0} {H:.0}\">\
         <polyline fill=\"none\" stroke=\"#2c7\" stroke-width=\"1.5\" points=\"{path}\"/>\
         <circle cx=\"{lx:.1}\" cy=\"{ly:.1}\" r=\"2.5\" fill=\"#2c7\"/></svg>"
    )
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Render the self-contained HTML dashboard.
#[must_use]
pub fn render_html(entries: &[HistoryEntry], skipped: usize) -> String {
    let all = series(entries);
    let mut rows = String::new();
    for s in &all {
        let (delta_txt, class) = match s.delta() {
            Some((delta, true)) => (format!("{delta:+.3}"), "sig"),
            Some((delta, false)) => (format!("{delta:+.3}"), "ok"),
            None => ("-".to_string(), "ok"),
        };
        let _ = writeln!(
            rows,
            "<tr class=\"{class}\"><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td class=\"num\">{:.3} {}</td>\
             <td class=\"num\">{delta_txt}</td><td>{}</td></tr>",
            html_escape(&s.source),
            html_escape(&s.cell),
            html_escape(&s.metric),
            s.points.len(),
            s.latest(),
            html_escape(&s.unit),
            sparkline(&s.points),
        );
    }
    let labels: Vec<String> = entries
        .iter()
        .map(|e| format!("{} ({})", html_escape(&e.label), html_escape(&e.source)))
        .collect();
    let skipped_note = if skipped > 0 {
        format!("<p class=\"warn\">WARNING: {skipped} unparseable history lines skipped.</p>")
    } else {
        String::new()
    };
    format!(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
         <title>CPPE bench trend</title><style>\
         body{{font:14px/1.4 system-ui,sans-serif;margin:2em;color:#222}}\
         table{{border-collapse:collapse}}\
         td,th{{border:1px solid #ccc;padding:4px 10px;text-align:left}}\
         td.num{{text-align:right;font-variant-numeric:tabular-nums}}\
         tr.sig td{{background:#fee}}\
         .warn{{color:#b00}}\
         </style></head><body>\n\
         <h1>CPPE bench trend</h1>\n\
         <p>{entries_n} history entries ({labels}); schema {schema}. \
         Significant = |latest &minus; prior median| &gt; 3 &times; 1.4826 &times; MAD.</p>\n\
         {skipped_note}\n\
         <table><tr><th>source</th><th>cell</th><th>metric</th><th>n</th>\
         <th>latest</th><th>&Delta; vs median</th><th>trend</th></tr>\n\
         {rows}</table>\n</body></html>\n",
        entries_n = entries.len(),
        labels = labels.join(", "),
        schema = HISTORY_SCHEMA,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(label: &str, p99: f64) -> HistoryEntry {
        HistoryEntry {
            label: label.to_string(),
            source: "profile".to_string(),
            samples: vec![Sample {
                cell: "STN".to_string(),
                metric: "fault_total_p99".to_string(),
                value: p99,
                unit: "cycles".to_string(),
            }],
        }
    }

    #[test]
    fn entry_round_trips_through_jsonl() {
        let e = entry("run \"1\"\nodd", 12.5);
        let line = entry_json(&e);
        json::validate(&line).unwrap();
        assert_eq!(entry_from_json(&line).unwrap(), e);
    }

    #[test]
    fn extract_rejects_unknown_and_retired_schemas() {
        assert!(extract("{\"schema\":\"bogus\"}").is_err());
        // Host wall-clock exports are not history sources.
        assert!(extract("{\"schema\":\"cppe-speed-v1\",\"cells\":[]}").is_err());
    }

    #[test]
    fn extract_reads_profile_stage_p99() {
        let doc = "{\"schema\":\"cppe-profile-v1\",\"workloads\":[\
                   {\"app\":\"STN\",\"stages\":[\
                   {\"stage\":\"fault_total\",\"p99\":900},\
                   {\"stage\":\"gmmu_walk\",\"p99\":10}]}]}";
        let (source, samples) = extract(doc).unwrap();
        assert_eq!(source, "profile");
        let p99 = samples
            .iter()
            .find(|s| s.metric == "fault_total_p99")
            .unwrap();
        assert!((p99.value - 900.0).abs() < 1e-9);
    }

    #[test]
    fn append_load_and_salvage() {
        let dir = std::env::temp_dir().join(format!("cppe-hist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("history.jsonl");
        append(&path, &entry("a", 10.0)).unwrap();
        append(&path, &entry("b", 11.0)).unwrap();
        // A torn third line must be skipped, not fatal.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"v\":\"cppe-bench-hist").unwrap();
        }
        let (entries, skipped) = load(&path).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(skipped, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flat_history_flags_any_move_and_noise_needs_three_sigma() {
        // Flat prior: any nonzero delta is significant.
        let flat = series(&[entry("a", 10.0), entry("b", 10.0), entry("c", 10.5)]);
        assert_eq!(flat.len(), 1);
        let (delta, sig) = flat[0].delta().unwrap();
        assert!((delta - 0.5).abs() < 1e-9);
        assert!(sig);
        // Noisy prior: a move inside 3 robust sigmas is not.
        let noisy = series(&[
            entry("a", 10.0),
            entry("b", 12.0),
            entry("c", 9.0),
            entry("d", 11.0),
            entry("e", 10.6),
        ]);
        let (_, sig) = noisy[0].delta().unwrap();
        assert!(!sig);
    }

    #[test]
    fn report_and_html_render() {
        let entries = vec![entry("a", 10.0), entry("b", 20.0)];
        let text = render_report(&entries, 0);
        assert!(text.contains("STN"));
        assert!(text.contains("SIGNIFICANT"));
        let html = render_html(&entries, 1);
        assert!(html.contains("<svg"));
        assert!(html.contains("polyline"));
        assert!(html.contains("unparseable history lines"));
        assert!(html.contains(HISTORY_SCHEMA));
    }
}
