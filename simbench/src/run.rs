//! One workload run: set-up, a warm-up and correctness round, timed
//! rounds for the requested seconds, and (traced) the layer ledger.
//!
//! The loop is closed with one caller: every round runs each cell once,
//! one after another, on this single thread. Rounds are interleaved so
//! slow drift on the machine spreads over every cell instead of landing
//! on whichever cells happen to run last.

use crate::check::{self, Fingerprint};
use crate::json::Json;
use crate::ledger::{self, ratio, LAYERS};
use crate::metrics::{layer_unit, END_TO_END};
use crate::probe::{self, Probe};
use crate::record::{self, Machine, Spans};
use crate::stats::{median, percentile};
use crate::workload::{App, Cell, Setup, Workload};
use gpu::RunResult;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use workloads::{LaneItem, WorkloadSpec};

/// Fewest timed rounds a run makes, however long they take.
const MIN_ROUNDS: usize = 3;

/// Options of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Benchmark seed (0 = the paper's inputs, checked against the
    /// committed reference).
    pub seed: u64,
    /// Seconds of timed rounds.
    pub seconds: f64,
    /// Also build the layer ledger and write spans.
    pub trace: bool,
    /// Write the reference table from round 0 instead of checking it.
    pub bless: bool,
}

/// Correctness bookkeeping over every cell run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("FAIL {what}: {p}");
            }
        }
    }
}

/// Run `w` and print its results; the last stdout line is the JSON
/// result object.
///
/// # Errors
/// Returns a message when the reference table cannot be read or
/// written, or the record cannot be saved.
pub fn run(w: &Workload, opt: &Options) -> Result<(), String> {
    let setup = Setup::new(w, opt.seed);
    let cells = Setup::cells(w);
    let keys: Vec<String> = cells.iter().map(|c| check::cell_key(w, c)).collect();
    let machine = Machine::probe();
    eprintln!(
        "[{}] seed {} | {} cells | {} lanes | scale {} | {}\n[{}] {}",
        w.name,
        opt.seed,
        cells.len(),
        setup.gpu.lanes(),
        w.scale,
        machine.key(),
        w.name,
        w.why
    );

    // Set-up: what `run_cell` pays per cell. Timed before round 0 and
    // again after every timed round, so its repetitions sample the whole
    // run the way the cells do.
    let probe = Probe::new();
    let specs: Vec<WorkloadSpec> = w.apps.iter().map(|a| setup.spec(a)).collect();
    let mut clock = SetupClock::new(specs.len(), cells.len());
    let mut streams: Vec<Vec<Vec<LaneItem>>> = Vec::with_capacity(specs.len());
    clock.time(&setup, &specs, &cells, &probe, |s| streams.push(s))?;
    let items: u64 = streams.iter().flatten().map(|s| s.len() as u64).sum();
    let apps: Vec<App> = specs
        .iter()
        .zip(streams)
        .map(|(spec, streams)| App {
            pages: spec.pages(w.scale),
            spec: spec.clone(),
            streams,
        })
        .collect();

    // Round 0: warm-up and correctness against the reference.
    let reference = if opt.seed == 0 && !opt.bless {
        let path = check::reference_path(w);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Some(check::parse_reference(&text)?)
    } else {
        None
    };
    let mut tally = Tally::default();
    let mut runs: Vec<RunResult> = Vec::with_capacity(cells.len());
    let mut prints: Vec<Fingerprint> = Vec::with_capacity(cells.len());
    for (cell, key) in cells.iter().zip(&keys) {
        let (r, _) = setup.run(&apps[cell.app], cell);
        let fp = Fingerprint::of(&r);
        let mut problems = check::problems(&r, &fp, None);
        if let Some(reference) = &reference {
            match reference.get(key) {
                Some(want) => problems.extend(fp.diff(want)),
                None => problems.push("no reference row".into()),
            }
        }
        tally.record(key, &problems);
        runs.push(r);
        prints.push(fp);
    }
    if opt.bless {
        let rows: Vec<(Cell, Fingerprint)> = cells.iter().copied().zip(prints).collect();
        let path = check::reference_path(w);
        std::fs::write(&path, check::render_reference(w, &rows))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "[{}] blessed {} cells into {}",
            w.name,
            rows.len(),
            path.display()
        );
        return Ok(());
    }

    // Timed rounds until the budget is spent.
    let round = Round {
        setup: &setup,
        apps: &apps,
        cells: &cells,
        keys: &keys,
        prints: &prints,
        probe: &probe,
    };
    // Per cell and round: (measured `simulate` ns, probe ns around it).
    let mut samples: Vec<Vec<(f64, f64)>> = vec![Vec::new(); cells.len()];
    let mut round_walls: Vec<f64> = Vec::new();
    // Traced runs follow every timed round with a traced round (a span
    // around each `simulate` call) and one pass of the ledger's replays
    // (a span around each replay phase), so all three sample the same
    // stretch of host time.
    let mut spans = Spans::new();
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut replays = opt.trace.then(|| ledger::Replays::new(&apps, &runs));
    let started = Instant::now();
    while round_walls.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < opt.seconds {
        let t = Instant::now();
        round.run(&mut tally, None, |c, ns, probe_ns| {
            samples[c].push((ns, probe_ns))
        });
        round_walls.push(t.elapsed().as_nanos() as f64);
        clock.time(&setup, &specs, &cells, &probe, drop)?;
        if let Some(replays) = replays.as_mut() {
            let root = spans.open("round.traced", None);
            let t = Instant::now();
            round.run(&mut tally, Some((&mut spans, root)), |_, _, _| {});
            traced_walls.push(t.elapsed().as_nanos() as f64);
            spans.close(root, cells.len() as u64);
            replays.pass(&setup, w, &apps, &cells, &mut spans);
        }
    }
    let rounds = round_walls.len();
    let timed_seconds = started.elapsed().as_secs_f64();
    // Every round repeats identical deterministic work, so a cell's
    // rounds differ only by the host. The ledger sets the fastest round,
    // as measured, against the replays' fastest passes; the end-to-end
    // metrics put every round at the reference host's speed.
    let accesses: f64 = runs.iter().map(|r| r.accesses as f64).sum();
    let fastest_ns: Vec<f64> = samples
        .iter()
        .map(|s| s.iter().map(|&(ns, _)| ns).fold(f64::INFINITY, f64::min))
        .collect();
    let uncalibrated = accesses / fastest_ns.iter().sum::<f64>() * 1e3;
    let probe_ns: Vec<f64> = samples.iter().flatten().map(|&(_, p)| p).collect();
    let probe_median = median(&probe_ns);
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();

    if let Some(replays) = replays {
        let led = replays.ledger(&cells, &runs, &fastest_ns);
        layer_metrics(&mut metrics, &led, &runs, &clock.stream_medians(), items);
        metrics.insert(
            "trace.overhead",
            median(&traced_walls) / median(&round_walls),
        );
        let spans_json = Json::obj()
            .with("workload", w.name)
            .with("seed", opt.seed)
            .with("machine", machine.json())
            .with("spans", spans.json());
        let path = record::write_out(&format!("{}.spans.json", w.name), &spans_json.render())
            .map_err(|e| format!("writing spans: {e}"))?;
        eprintln!("[{}] spans written to {}", w.name, path.display());
    } else {
        let calibrated: Vec<Vec<f64>> = samples
            .iter()
            .map(|s| s.iter().map(|&(ns, p)| probe::calibrate(ns, p)).collect())
            .collect();
        let wall: f64 = calibrated.iter().map(|s| median(s)).sum();
        let per_access: Vec<f64> = calibrated
            .iter()
            .zip(&runs)
            .flat_map(|(s, r)| s.iter().map(move |ns| ns / r.accesses.max(1) as f64))
            .collect();
        metrics.insert("sim_maccess_per_s", accesses / wall * 1e3);
        metrics.insert("ns_per_access_p50", percentile(&per_access, 50.0));
        metrics.insert("ns_per_access_p90", percentile(&per_access, 90.0));
        metrics.insert("setup_s", clock.total_ns(&cells) / 1e9);
        metrics.insert("peak_rss_mb", record::peak_rss_mib());
    }

    // Human-readable lines, then the record, then the result line.
    let unit = |name: &str| {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map_or_else(|| layer_unit(name), |m| m.unit)
    };
    println!(
        "{}: seed {} | {} cells x {} timed rounds in {:.1} s (round wall min/median/max \
         {:.3}/{:.3}/{:.3} s) | {} timed samples | {} of {} cell runs failed\n  \
         probe median {:.0} ns (reference {:.0} ns); fastest rounds as measured: {:.4} Maccess/s",
        w.name,
        opt.seed,
        cells.len(),
        rounds,
        timed_seconds,
        percentile(&round_walls, 0.0) / 1e9,
        median(&round_walls) / 1e9,
        percentile(&round_walls, 100.0) / 1e9,
        cells.len() * rounds,
        tally.failed,
        tally.attempted,
        probe_median,
        probe::REFERENCE_NS,
        uncalibrated
    );
    for (name, value) in &metrics {
        println!("  {name:<34} {value:>14.4} {}", unit(name));
    }
    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|(&name, &value)| {
                (
                    name.to_string(),
                    Json::obj().with("value", value).with("unit", unit(name)),
                )
            })
            .collect(),
    );
    let rec = Json::obj()
        .with("schema", "simbench-record-v1")
        .with("workload", w.name)
        .with("seed", opt.seed)
        .with("trace", opt.trace)
        .with("seconds", opt.seconds)
        .with("rounds", rounds)
        .with("cells", cells.len())
        .with("samples", cells.len() * rounds)
        .with("attempted", tally.attempted)
        .with("failed", tally.failed)
        .with("machine", machine.json())
        .with("probe_ns_median", probe_median)
        .with("uncalibrated_sim_maccess_per_s", uncalibrated)
        .with("metrics", metrics_json.clone());
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let kind = if opt.trace { "trace" } else { "e2e" };
    record::write_out(
        &format!("records/{}-s{}-{kind}-{stamp}.json", w.name, opt.seed),
        &rec.render(),
    )
    .map_err(|e| format!("writing record: {e}"))?;
    let result = Json::obj()
        .with("correct", tally.failed == 0)
        .with("attempted", tally.attempted)
        .with("failed", tally.failed)
        .with("metrics", metrics_json);
    println!("{}", result.render());
    Ok(())
}

/// Set-up times, one repetition per pass, at the reference host's
/// speed: per app, generating every lane's stream; per cell,
/// `preset.build` plus `GpuConfig::validate`.
struct SetupClock {
    stream_ns: Vec<Vec<f64>>,
    cell_ns: Vec<Vec<f64>>,
}

impl SetupClock {
    fn new(apps: usize, cells: usize) -> SetupClock {
        SetupClock {
            stream_ns: vec![Vec::new(); apps],
            cell_ns: vec![Vec::new(); cells],
        }
    }

    /// Time one set-up of every app and cell, calibrated by probes taken
    /// before and after the pass; `keep` receives each app's streams
    /// once its timer has stopped.
    fn time(
        &mut self,
        setup: &Setup,
        specs: &[WorkloadSpec],
        cells: &[Cell],
        probe: &Probe,
        mut keep: impl FnMut(Vec<Vec<LaneItem>>),
    ) -> Result<(), String> {
        let before = probe.time_ns();
        let mut stream_ns = Vec::with_capacity(specs.len());
        for spec in specs {
            let t = Instant::now();
            let streams = black_box(setup.streams(spec));
            stream_ns.push(t.elapsed().as_nanos() as f64);
            keep(streams);
        }
        let mut cell_ns = Vec::with_capacity(cells.len());
        for cell in cells {
            let t = Instant::now();
            black_box(cell.preset.build(setup.policy_seed(&specs[cell.app])));
            black_box(setup.gpu.validate()).map_err(|e| format!("invalid config: {e}"))?;
            cell_ns.push(t.elapsed().as_nanos() as f64);
        }
        let probe_ns = (before + probe.time_ns()) / 2.0;
        for (reps, ns) in self.stream_ns.iter_mut().zip(stream_ns) {
            reps.push(probe::calibrate(ns, probe_ns));
        }
        for (reps, ns) in self.cell_ns.iter_mut().zip(cell_ns) {
            reps.push(probe::calibrate(ns, probe_ns));
        }
        Ok(())
    }

    /// Median stream-generation time of each app.
    fn stream_medians(&self) -> Vec<f64> {
        self.stream_ns.iter().map(|r| median(r)).collect()
    }

    /// What `run_cell` pays in set-up summed over `cells`, in ns.
    fn total_ns(&self, cells: &[Cell]) -> f64 {
        let streams = self.stream_medians();
        cells
            .iter()
            .zip(&self.cell_ns)
            .map(|(cell, reps)| streams[cell.app] + median(reps))
            .sum()
    }
}

/// One pass over every cell of a workload.
struct Round<'a> {
    setup: &'a Setup,
    apps: &'a [App],
    cells: &'a [Cell],
    keys: &'a [String],
    /// Round-0 fingerprints every later run must reproduce.
    prints: &'a [Fingerprint],
    probe: &'a Probe,
}

impl Round<'_> {
    /// Run every cell once (with a span around each run under `spans`'
    /// parent when given), pass each `simulate` wall and the mean of the
    /// probes taken just before and after it to `sample`, and check each
    /// result against its round-0 fingerprint.
    fn run(
        &self,
        tally: &mut Tally,
        mut spans: Option<(&mut Spans, usize)>,
        mut sample: impl FnMut(usize, f64, f64),
    ) {
        let mut before = self.probe.time_ns();
        for (c, cell) in self.cells.iter().enumerate() {
            let span = spans
                .as_mut()
                .map(|(s, parent)| s.open(&format!("simulate:{}", self.keys[c]), Some(*parent)));
            let (r, ns) = self.setup.run(&self.apps[cell.app], cell);
            if let (Some((s, _)), Some(id)) = (spans.as_mut(), span) {
                s.close(id, r.accesses);
            }
            let after = self.probe.time_ns();
            sample(c, ns, (before + after) / 2.0);
            before = after;
            let fp = Fingerprint::of(&r);
            tally.record(
                &self.keys[c],
                &check::problems(&r, &fp, Some(&self.prints[c])),
            );
        }
    }
}

/// Per-layer metrics of a traced run from the ledger and the round-0
/// counters.
fn layer_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    led: &ledger::Ledger,
    runs: &[RunResult],
    stream_ns: &[f64],
    items: u64,
) {
    let sum = |f: &dyn Fn(&RunResult) -> u64| runs.iter().map(|r| f(r) as f64).sum::<f64>();
    let accesses = led.accesses;
    let l1 = sum(&|r| r.translation.l1_hits);
    let l1_all = l1 + sum(&|r| r.translation.l1_misses);
    let l2 = sum(&|r| r.translation.l2_hits);
    let pwc = sum(&|r| r.translation.pwc_hits);
    let serviced = sum(&|r| r.driver.faults_serviced);
    let coalesced = sum(&|r| r.driver.coalesced_faults);
    let evicted = sum(&|r| r.engine.pages_evicted);

    m.insert("gmmu.translate.ns", led.unit(0));
    m.insert("gmmu.translate.per_access", ratio(l1_all, accesses));
    m.insert(
        "gmmu.walks.per_access",
        ratio(sum(&|r| r.translation.walks), accesses),
    );
    m.insert("gmmu.l1tlb.hit_ratio", ratio(l1, l1_all));
    m.insert(
        "gmmu.l2tlb.hit_ratio",
        ratio(l2, l2 + sum(&|r| r.translation.l2_misses)),
    );
    m.insert(
        "gmmu.pwc.hit_ratio",
        ratio(pwc, pwc + sum(&|r| r.translation.pwc_misses)),
    );
    m.insert("gpu.cache.ns", led.unit(1));
    m.insert("gpu.cache.invalidate.ns", led.unit(2));
    m.insert("events.push_pop.ns", led.unit(3));
    m.insert("events.ops.per_access", ratio(led.layer_count[3], accesses));
    m.insert("waiters.push_take.ns", led.unit(4));
    m.insert("waiters.per_access", ratio(led.layer_count[4], accesses));
    m.insert("uvm.service.ns_per_fault", led.unit(5));
    m.insert("uvm.faults.per_access", ratio(serviced, accesses));
    m.insert(
        "uvm.faults.per_batch",
        ratio(serviced + coalesced, sum(&|r| r.driver.batches)),
    );
    m.insert(
        "uvm.coalesced_ratio",
        ratio(coalesced, serviced + coalesced),
    );
    m.insert("gmmu.shootdown.ns", led.unit(6));
    m.insert("gmmu.shootdown.per_access", ratio(evicted, accesses));
    m.insert("cppe.select_victim.ns", led.unit(7));
    m.insert("cppe.plan_prefetch.ns", led.unit(8));
    m.insert(
        "cppe.evictions.per_access",
        ratio(sum(&|r| r.engine.chunk_evictions), accesses),
    );
    // With nothing evicted no prefetched page was found untouched.
    m.insert(
        "cppe.prefetch.useful_ratio",
        1.0 - ratio(sum(&|r| r.engine.total_untouch), evicted),
    );
    m.insert(
        "workloads.lane_items.ns_per_item",
        ratio(stream_ns.iter().sum(), items as f64),
    );
    let explained = led.explained_ns();
    m.insert(
        "sim.loop_residual.ns_per_access",
        ratio(led.wall_ns - explained, accesses),
    );
    m.insert("ledger.explained_frac", ratio(explained, led.wall_ns));
    for (i, (name, _)) in LAYERS.iter().enumerate() {
        m.insert(name, led.share(i));
    }
    m.insert(
        "share.sim.loop_residual",
        ratio(led.wall_ns - explained, led.wall_ns),
    );
}
