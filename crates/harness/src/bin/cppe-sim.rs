//! `cppe-sim` — run one workload under one policy and print a full
//! report. The general-purpose entry point for exploring the simulator.
//!
//! ```text
//! cargo run --release -p harness --bin cppe-sim -- \
//!     --workload SRD --policy cppe --rate 0.5 [--scale 1.0] \
//!     [--lanes 28] [--seed 42] [--trace-out FILE | --trace-in FILE]
//! ```
//!
//! Policies: baseline random lru-10 lru-20 nopf cppe cppe-s1 mhpe hpe
//! hpe-nopf lru-nopf tree

use cppe::presets::PolicyPreset;
use gpu::{simulate_with, EvictionPasses, FireCounts, GpuConfig};
use workloads::registry;

fn parse_policy(name: &str) -> Option<PolicyPreset> {
    Some(match name {
        "baseline" => PolicyPreset::Baseline,
        "random" => PolicyPreset::Random,
        "lru-10" | "lru-10%" => PolicyPreset::ReservedLru10,
        "lru-20" | "lru-20%" => PolicyPreset::ReservedLru20,
        "nopf" | "nopf-on-full" => PolicyPreset::DisablePfOnFull,
        "cppe" => PolicyPreset::Cppe,
        "cppe-s1" => PolicyPreset::CppeScheme1,
        "mhpe" => PolicyPreset::MhpeOnly,
        "hpe" => PolicyPreset::HpeNaive,
        "hpe-nopf" => PolicyPreset::HpeNoPf,
        "lru-nopf" => PolicyPreset::LruNoPf,
        "tree" => PolicyPreset::LruTree,
        _ => return None,
    })
}

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
         policies: baseline random lru-10 lru-20 nopf cppe cppe-s1 mhpe hpe hpe-nopf lru-nopf tree\n\
         workloads: {}",
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
                a.policy = parse_policy(&name).unwrap_or_else(|| usage());
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
    println!(
        "fast lane         {} of {} accesses ran ahead inline ({} streaks, longest {})",
        fired.run_ahead, r.accesses, fired.streaks, fired.longest_streak
    );
    let (sd, inv) = (passes.shootdown, passes.invalidation);
    println!(
        "tlb shootdown     {} chunk row passes dropped {} entries; {} single-page removes",
        sd.chunk_passes, sd.chunk_pass_removes, sd.page_removes
    );
    println!(
        "cache invalidate  {} L1-bank span passes for {} evicted pages",
        inv.span_passes, inv.pages
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
