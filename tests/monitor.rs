//! Monitor-series and bench-history integration tests.
//!
//! The monitor sampler must observe without perturbing: with it on at
//! its default cadence, every simulated quantity stays bit-identical to
//! the `tests/perf_identity.rs` golden fingerprints, and the sampled
//! series is a valid monitor dump. The bench-history ledger renders a
//! trend dashboard from two appended entries.

use cppe::presets::PolicyPreset;
use gpu::GpuConfig;
use harness::runner::ExpConfig;
use harness::{capacity_pages, history};
use workloads::registry;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cppe-monitor-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Monitored runs must be bit-identical to the untraced golden
/// fingerprints: the sampler reads the registry, never the simulation.
#[test]
fn monitored_runs_match_golden_fingerprints() {
    // (app, preset, cycles, faults, pages_migrated, pages_evicted,
    // batches, bytes_h2d, bytes_d2h, wrong_evictions) from
    // tests/perf_identity.rs.
    let golden: [(&str, PolicyPreset, [u64; 8]); 2] = [
        (
            "STN",
            PolicyPreset::Baseline,
            [1_644_517, 116, 1856, 1728, 31, 7_602_176, 7_077_888, 0],
        ),
        (
            "STN",
            PolicyPreset::Cppe,
            [1_995_500, 132, 1828, 1700, 42, 7_487_488, 6_963_200, 102],
        ),
    ];
    for (abbr, preset, want) in golden {
        let cfg = ExpConfig {
            scale: 0.25,
            gpu: GpuConfig {
                trace: telemetry::TraceConfig::monitored(),
                ..ExpConfig::default().gpu
            },
            ..ExpConfig::default()
        };
        let spec = registry::by_abbr(abbr).unwrap();
        let lanes = cfg.gpu.lanes();
        let streams: Vec<_> = (0..lanes)
            .map(|l| spec.lane_items(l, lanes, cfg.scale))
            .collect();
        let capacity = capacity_pages(&spec, 0.5, cfg.scale);
        let engine = preset.build(cfg.seed ^ spec.seed);
        let r = gpu::simulate(&cfg.gpu, engine, &streams, capacity, spec.pages(cfg.scale));
        let got = [
            r.cycles,
            r.engine.faults,
            r.engine.pages_migrated,
            r.engine.pages_evicted,
            r.driver.batches,
            r.bytes_h2d,
            r.bytes_d2h,
            r.wrong_evictions,
        ];
        assert_eq!(
            got,
            want,
            "{abbr}/{}: monitored run diverged from golden fingerprint",
            preset.label()
        );
        let t = r.telemetry.as_ref().expect("monitored runs are traced");
        assert!(t.monitor.sampled > 0, "sampler must have fired");
        let doc = telemetry::monitor::monitor_json(&t.monitor);
        telemetry::monitor::validate_doc(&doc).expect("valid monitor dump");
    }
}

/// Two appended bench-history entries render a dashboard with
/// sparklines — the `trend` binary's code path, minus the CLI shell.
#[test]
fn bench_history_renders_trend_dashboard() {
    let dir = temp_dir("trend");
    let ledger = dir.join("history.jsonl");
    let profile_doc = |p99: u64| {
        format!(
            "{{\"schema\":\"cppe-profile-v1\",\"workloads\":[{{\"app\":\"STN\",\
             \"outcome\":\"completed\",\"cycles\":7,\
             \"stages\":[{{\"stage\":\"fault_total\",\"p99\":{p99}}}]}}]}}"
        )
    };
    for (label, p99) in [("committed", 10), ("fresh", 14)] {
        let (source, samples) = history::extract(&profile_doc(p99)).unwrap();
        history::append(
            &ledger,
            &history::HistoryEntry {
                label: label.to_string(),
                source,
                samples,
            },
        )
        .unwrap();
    }
    let (entries, skipped) = history::load(&ledger).unwrap();
    assert_eq!((entries.len(), skipped), (2, 0));
    let html = history::render_html(&entries, skipped);
    assert!(html.contains("<svg"), "dashboard has sparklines");
    assert!(html.contains("STN"));
    assert!(html.contains("+4.000"), "delta vs prior median rendered");
    std::fs::remove_dir_all(&dir).unwrap();
}
