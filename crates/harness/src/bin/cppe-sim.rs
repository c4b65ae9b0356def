//! `cppe-sim` — run one workload under one policy and print a full
//! report. The general-purpose entry point for exploring the simulator.
//!
//! ```text
//! cargo run --release -p harness --bin cppe-sim -- \
//!     --workload SRD --policy cppe --rate 0.5 [--scale 1.0] \
//!     [--lanes 28] [--seed 42] [--trace-out FILE | --trace-in FILE]
//! ```
//!
//! `--policy` takes a preset's label, as reports print it
//! (`PolicyPreset::label`); the usage line lists them.

use cppe::presets::PolicyPreset;
use gpu::{simulate_with, EvictionPasses, FireCounts, GpuConfig};
use workloads::registry;

struct Args {
    workload: String,
    policy: PolicyPreset,
    rate: f64,
    scale: f64,
    lanes: usize,
    seed: u64,
    trace_out: Option<String>,
    trace_in: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: cppe-sim --workload ABBR --policy NAME [--rate 0.5] [--scale 1.0]\n\
         \x20               [--lanes 28] [--seed 42] [--trace-out FILE | --trace-in FILE]\n\
         policies: {} mhpe-fd<N> mhpe-t1-<N> mhpe-t3-<N>\n\
         workloads: {}",
        PolicyPreset::FIXED.map(|p| p.label()).join(" "),
        registry::all()
            .iter()
            .map(|w| w.abbr)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: "SRD".into(),
        policy: PolicyPreset::Cppe,
        rate: 0.5,
        scale: 1.0,
        lanes: 28,
        seed: 42,
        trace_out: None,
        trace_in: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let val = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--workload" | "-w" => a.workload = val(&mut i),
            "--policy" | "-p" => {
                let name = val(&mut i);
                a.policy = PolicyPreset::from_label(&name).unwrap_or_else(|| usage());
            }
            "--rate" | "-r" => a.rate = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--scale" | "-s" => a.scale = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--lanes" => a.lanes = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => a.seed = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--trace-out" => a.trace_out = Some(val(&mut i)),
            "--trace-in" => a.trace_in = Some(val(&mut i)),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    a
}

fn main() {
    let args = parse_args();
    let spec = registry::by_abbr(&args.workload).unwrap_or_else(|| usage());
    let sms = 28usize;
    let gpu = GpuConfig {
        sms,
        warps_per_sm: args.lanes.div_ceil(sms).max(1),
        ..GpuConfig::default()
    };

    let streams = if let Some(path) = &args.trace_in {
        workloads::trace::load(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("failed to load trace: {e}");
            std::process::exit(1);
        })
    } else {
        (0..args.lanes)
            .map(|l| spec.lane_items(l, args.lanes, args.scale))
            .collect()
    };
    if let Some(path) = &args.trace_out {
        if let Err(e) = workloads::trace::save(std::path::Path::new(path), &streams) {
            eprintln!("failed to save trace: {e}");
            std::process::exit(1);
        }
        eprintln!("trace written to {path}");
    }

    let pages = spec.pages(args.scale);
    let capacity = (((pages as f64 * args.rate) as u64).max(32) / 16 * 16) as u32;
    let engine = args.policy.build(args.seed);
    let mut fired = (FireCounts::default(), EvictionPasses::default());
    let t0 = std::time::Instant::now();
    let r = simulate_with(&gpu, engine, &streams, capacity, pages, &mut fired);
    let (fired, passes) = fired;
    let wall = t0.elapsed();

    println!(
        "workload          {} ({}, Type {}, {:.1} MB at scale {})",
        spec.name,
        spec.abbr,
        spec.pattern.roman(),
        spec.footprint_mb * args.scale,
        args.scale
    );
    println!("policy            {}", args.policy.label());
    println!(
        "memory            {capacity} of {pages} pages resident ({:.0}%)",
        args.rate * 100.0
    );
    println!("outcome           {:?}", r.outcome);
    println!(
        "cycles            {} ({:.3} ms simulated)",
        r.cycles,
        r.cycles as f64 / 1.4e6
    );
    println!("accesses          {}", r.accesses);
    println!(
        "faults            {} ({} serviced, {} coalesced, {} batches)",
        r.engine.faults, r.driver.faults_serviced, r.driver.coalesced_faults, r.driver.batches
    );
    println!(
        "pages migrated    {} ({} prefetched)",
        r.engine.pages_migrated, r.engine.pages_prefetched
    );
    println!(
        "chunk evictions   {} ({} pages, untouch {})",
        r.engine.chunk_evictions, r.engine.pages_evicted, r.engine.total_untouch
    );
    println!("wrong evictions   {}", r.wrong_evictions);
    let (pushes, pops) = (fired.queue.pushes, fired.queue.pops);
    println!(
        "event queue       pushes {} near lane, {} far lane, {} page, {} driver; \
         pops {} near lane, {} far lane, {} page, {} driver; {} stamp compares; \
         {} woken lanes replayed inline, {} hit wakes returned without a push",
        pushes.near_lane,
        pushes.far_lane,
        pushes.page,
        pushes.driver,
        pops.near_lane,
        pops.far_lane,
        pops.page,
        pops.driver,
        fired.queue.stamp_compares,
        fired.inline_wakes,
        fired.queue.direct_wakes
    );
    println!(
        "skipped scans     {} of {} L2 probes answered by the presence bits; \
         {} of {} walks skipped no-op PWC re-inserts",
        fired.l2_probes.bitmap_misses,
        fired.l2_probes.probes,
        fired.walk_reinserts_skipped,
        r.translation.walks
    );
    let (sd, inv) = (passes.shootdown, passes.invalidation);
    println!(
        "tlb shootdown     {} chunk row passes dropped {} entries; {} single-page removes",
        sd.chunk_passes, sd.chunk_pass_removes, sd.page_removes
    );
    println!(
        "cache invalidate  {} L1-bank span passes ({} skipped by the chunk gate) for {} evicted pages",
        inv.span_passes, inv.spans_skipped, inv.pages
    );
    let vi = passes.victim_index;
    println!(
        "victim index      {} positional selections ({} extra rounds); re-slots {} tail, {} head",
        vi.selections, vi.extra_rounds, vi.tail_reslots, vi.head_reslots
    );
    let pins = passes.pins;
    println!(
        "dense chunk state {} pins in {} pin-set clears ({} epoch wraps); \
         pin stamps grown to {} chunks, chain index to {}",
        pins.inserted, pins.clears, pins.epoch_wraps, pins.stamped_chunks, vi.indexed_chunks
    );
    println!(
        "pcie              {} B in, {} B out",
        r.bytes_h2d, r.bytes_d2h
    );
    println!(
        "tlb               L1 {}/{} hits, L2 {}/{} hits, {} walks",
        r.translation.l1_hits,
        r.translation.l1_hits + r.translation.l1_misses,
        r.translation.l2_hits,
        r.translation.l2_hits + r.translation.l2_misses,
        r.translation.walks
    );
    println!(
        "overhead          chain {} / evict-buf {} / pattern-buf {} entries ({:.1} KB)",
        r.overhead.chain_max_len,
        r.overhead.evicted_buffer_max,
        r.overhead.pattern_buffer_max,
        r.overhead.storage_bytes() as f64 / 1024.0
    );
    if let Some(t) = &r.mhpe {
        println!(
            "mhpe              switched_at={:?} fd_final={:?} first-4-interval untouch={:?}",
            t.switched_at,
            t.fd_trace.last(),
            &t.interval_untouch[..t.interval_untouch.len().min(4)]
        );
    }
    eprintln!("(wall time {wall:.2?})");
}
