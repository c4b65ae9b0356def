//! Seeded model tests of the chunk chain (Fig. 2) and its order index.
//!
//! Each case draws an operation stream from `sim_core`'s xoshiro RNG,
//! applies it to a [`ChunkChain`] and to a `VecDeque` model (front =
//! LRU, back = MRU), and after every operation compares order, length
//! and the positional victim query `nth_from_lru` against the model's
//! pos-th eligible chunk. A failure names the seed and the step, which
//! is the shortest failing prefix of that stream. Std-only, so it runs
//! in the default test suite.

use cppe::chain::ChunkChain;
use gmmu::types::ChunkId;
use sim_core::rng::Xoshiro256ss;
use sim_core::FxHashSet;
use std::collections::{BTreeSet, VecDeque};

const SEEDS: u64 = 64;

/// Chunk ids a stream draws from; exclude sets also draw from ids past
/// it, which are never in the chain.
const UNIVERSE: u64 = 160;

#[derive(Debug, Clone, Copy)]
enum ChainOp {
    InsertTail(u64, u64),
    InsertHead(u64, u64),
    Remove(u64),
    Touch(u64, u64),
}

/// Weights of insert-tail, insert-head, remove and touch, in that order.
const MIXES: [[u64; 4]; 3] = [
    [3, 3, 2, 2], // balanced
    [6, 1, 2, 3], // tail-heavy, like eviction under LRU-family policies
    [1, 6, 2, 1], // head-heavy, like MHPE's wrong-eviction reinserts
];

fn draw_op(rng: &mut Xoshiro256ss, mix: [u64; 4], universe: u64) -> ChainOp {
    let c = rng.gen_range(universe);
    let i = rng.gen_range(16);
    let mut pick = rng.gen_range(mix.iter().sum());
    let mut kind = 0;
    while pick >= mix[kind] {
        pick -= mix[kind];
        kind += 1;
    }
    match kind {
        0 => ChainOp::InsertTail(c, i),
        1 => ChainOp::InsertHead(c, i),
        2 => ChainOp::Remove(c),
        _ => ChainOp::Touch(c, i),
    }
}

fn apply(chain: &mut ChunkChain, model: &mut VecDeque<u64>, op: ChainOp) -> Result<(), String> {
    match op {
        ChainOp::InsertTail(c, i) => {
            chain.insert_tail(ChunkId(c), i);
            model.retain(|&x| x != c);
            model.push_back(c);
        }
        ChainOp::InsertHead(c, i) => {
            chain.insert_head(ChunkId(c), i);
            model.retain(|&x| x != c);
            model.push_front(c);
        }
        ChainOp::Remove(c) => {
            let had = model.contains(&c);
            if chain.remove(ChunkId(c)) != had {
                return Err(format!("remove({c}) disagreed with the model"));
            }
            model.retain(|&x| x != c);
        }
        ChainOp::Touch(c, i) => {
            chain.touch(ChunkId(c), i, 1);
            if model.contains(&c) {
                model.retain(|&x| x != c);
                model.push_back(c);
            }
        }
    }
    Ok(())
}

/// The model's answer to `nth_from_lru`: the pos-th non-excluded chunk
/// from the LRU end, saturating to the last eligible one.
fn model_nth(model: &VecDeque<u64>, pos: usize, exclude: &FxHashSet<ChunkId>) -> Option<ChunkId> {
    let eligible: Vec<u64> = model
        .iter()
        .copied()
        .filter(|&c| !exclude.contains(&ChunkId(c)))
        .collect();
    eligible.get(pos).or(eligible.last()).map(|&c| ChunkId(c))
}

/// An exclude set of up to 15 ids, some present in the chain, some
/// never in it.
fn draw_exclude(rng: &mut Xoshiro256ss, model: &VecDeque<u64>) -> FxHashSet<ChunkId> {
    let mut ex = FxHashSet::default();
    for _ in 0..rng.gen_range(16) {
        let c = if !model.is_empty() && rng.gen_bool(0.6) {
            model[rng.gen_range(model.len() as u64) as usize]
        } else {
            UNIVERSE + rng.gen_range(UNIVERSE)
        };
        ex.insert(ChunkId(c));
    }
    ex
}

fn check_against_model(
    chain: &ChunkChain,
    model: &VecDeque<u64>,
    rng: &mut Xoshiro256ss,
) -> Result<(), String> {
    if chain.len() != model.len() {
        return Err(format!("len {} vs model {}", chain.len(), model.len()));
    }
    if !chain.order_consistent() {
        return Err("order index disagrees with the list".into());
    }
    let exclude = draw_exclude(rng, model);
    // Positions up to well past the eligible count (saturation).
    for pos in [0, model.len() / 2, model.len(), model.len() + 7]
        .into_iter()
        .chain([rng.gen_range(model.len() as u64 + 8) as usize])
    {
        for ex in [&exclude, &FxHashSet::default()] {
            let (got, want) = (chain.nth_from_lru(pos, ex), model_nth(model, pos, ex));
            if got != want {
                return Err(format!(
                    "nth_from_lru({pos}) = {got:?}, model {want:?} (exclude {ex:?})"
                ));
            }
        }
    }
    Ok(())
}

/// The slab-backed chunk chain and its order index behave exactly like
/// a `VecDeque` model under seeded operation streams, including
/// head-heavy ones; both ends of the index re-slot along the way.
#[test]
fn chain_matches_reference_model() {
    let (mut tail_reslots, mut head_reslots) = (0, 0);
    for seed in 0..SEEDS {
        let mut rng = Xoshiro256ss::new(seed);
        let mix = MIXES[seed as usize % MIXES.len()];
        // Small universes keep the chain near empty and one-chunk states.
        let universe = if seed % 4 == 3 { 3 } else { UNIVERSE };
        let mut chain = ChunkChain::new();
        let mut model = VecDeque::new();
        let steps = 50 + rng.gen_range(600) as usize;
        for step in 0..steps {
            let op = draw_op(&mut rng, mix, universe);
            let checked = apply(&mut chain, &mut model, op)
                .and_then(|()| check_against_model(&chain, &model, &mut rng));
            if let Err(e) = checked {
                panic!("seed {seed}, step {step} ({op:?}): {e}");
            }
        }
        let order: Vec<u64> = chain.iter_lru().map(|c| c.0).collect();
        assert_eq!(order, Vec::from(model), "seed {seed}: final order");
        let counts = chain.index_counts();
        tail_reslots += counts.tail_reslots;
        head_reslots += counts.head_reslots;
    }
    assert!(tail_reslots > 0, "no stream re-slotted at the tail end");
    assert!(head_reslots > 0, "no stream re-slotted at the head end");
}

/// Victim selection never returns an excluded or absent chunk, returns
/// Some whenever an eligible chunk exists, and `nth_from_lru` returns
/// the model's pos-th eligible chunk. Covers empty and one-chunk
/// chains, exclude sets with absent chunks, and positions past the
/// eligible count.
#[test]
fn chain_selection_respects_exclusion() {
    for seed in 0..4 * SEEDS {
        let mut rng = Xoshiro256ss::new(seed);
        let n = match seed {
            0..=7 => 0,
            8..=15 => 1,
            _ => rng.gen_range(32),
        };
        let chunks: BTreeSet<u64> = (0..n).map(|_| rng.gen_range(64)).collect();
        let excluded: BTreeSet<u64> = (0..rng.gen_range(32)).map(|_| rng.gen_range(72)).collect();
        let fd = rng.gen_range(12) as usize;
        let interval = rng.gen_range(8);

        let mut chain = ChunkChain::new();
        for (i, &c) in chunks.iter().enumerate() {
            chain.insert_tail(ChunkId(c), (i % 4) as u64);
        }
        let ex: FxHashSet<ChunkId> = excluded.iter().map(|&c| ChunkId(c)).collect();
        let eligible = chunks.iter().any(|c| !excluded.contains(c));
        for victim in [
            chain.select_mru_old(fd, interval, &ex),
            chain.select_lru_old(interval, &ex),
            chain.nth_from_lru(fd, &ex),
        ] {
            assert_eq!(victim.is_some(), eligible, "seed {seed}");
            if let Some(v) = victim {
                assert!(chunks.contains(&v.0), "seed {seed}: {v:?} absent");
                assert!(!excluded.contains(&v.0), "seed {seed}: {v:?} excluded");
            }
        }
        let model: VecDeque<u64> = chunks.iter().copied().collect();
        for pos in 0..chunks.len() + 3 {
            assert_eq!(
                chain.nth_from_lru(pos, &ex),
                model_nth(&model, pos, &ex),
                "seed {seed}, pos {pos}"
            );
        }
    }
}
