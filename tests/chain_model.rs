//! Seeded model tests of the chunk chain (Fig. 2), its two indexes and
//! the dense pin set its victim searches skip.
//!
//! Each case draws an operation stream from `sim_core`'s xoshiro RNG,
//! applies it to a [`ChunkChain`] and to a `VecDeque` model (front =
//! LRU, back = MRU, each chunk with its last-referenced interval), and
//! after every operation compares order, length and the three victim
//! searches — `nth_from_lru`, `select_mru_old` and `select_lru_old` —
//! against the model's answers computed with a hashed pin set, and
//! `nth_from_lru` also against the list walk it replaced. The pin sets
//! hold chunks in the chain, chunks outside it and ids far past the
//! chain's dense index. A failure names the seed and the step, which is
//! the shortest failing prefix of that stream. Std-only, so it runs in
//! the default test suite.

use cppe::chain::ChunkChain;
use cppe::pins::PinSet;
use gmmu::types::ChunkId;
use sim_core::rng::Xoshiro256ss;
use sim_core::FxHashSet;
use std::collections::{BTreeSet, VecDeque};

const SEEDS: u64 = 64;

/// Chunk ids a stream draws from; exclude sets also draw from ids past
/// it, which are never in the chain.
const UNIVERSE: u64 = 160;

/// Pinned ids from here on lie far past the chain's dense index.
const FAR: u64 = 1 << 18;

/// The model: `(chunk, last-referenced interval)`, LRU first.
type Model = VecDeque<(u64, u64)>;

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

fn apply(chain: &mut ChunkChain, model: &mut Model, op: ChainOp) -> Result<(), String> {
    match op {
        ChainOp::InsertTail(c, i) => {
            chain.insert_tail(ChunkId(c), i);
            model.retain(|&(x, _)| x != c);
            model.push_back((c, i));
        }
        ChainOp::InsertHead(c, i) => {
            chain.insert_head(ChunkId(c), i);
            model.retain(|&(x, _)| x != c);
            model.push_front((c, i));
        }
        ChainOp::Remove(c) => {
            let had = model.iter().any(|&(x, _)| x == c);
            if chain.remove(ChunkId(c)) != had {
                return Err(format!("remove({c}) disagreed with the model"));
            }
            model.retain(|&(x, _)| x != c);
        }
        ChainOp::Touch(c, i) => {
            chain.touch(ChunkId(c), i, 1);
            if model.iter().any(|&(x, _)| x == c) {
                model.retain(|&(x, _)| x != c);
                model.push_back((c, i));
            }
        }
    }
    Ok(())
}

/// The model's unpinned chunks, LRU first.
fn eligible(model: &Model, pinned: &FxHashSet<ChunkId>) -> Vec<(u64, u64)> {
    model
        .iter()
        .copied()
        .filter(|&(c, _)| !pinned.contains(&ChunkId(c)))
        .collect()
}

/// The model's answer to `nth_from_lru`: the pos-th unpinned chunk from
/// the LRU end, saturating to the last eligible one.
fn model_nth(model: &Model, pos: usize, pinned: &FxHashSet<ChunkId>) -> Option<ChunkId> {
    let eligible = eligible(model, pinned);
    eligible
        .get(pos)
        .or(eligible.last())
        .map(|&(c, _)| ChunkId(c))
}

/// Old partition: last referenced before the interval before `current`.
fn is_old(last_ref: u64, current: u64) -> bool {
    last_ref + 2 <= current
}

/// The model's answer to `select_mru_old`: skip `fd` unpinned old chunks
/// from the MRU end, saturating to the LRU-most old one; with no old
/// chunk, the LRU-most unpinned chunk.
fn model_mru_old(
    model: &Model,
    fd: usize,
    current: u64,
    pinned: &FxHashSet<ChunkId>,
) -> Option<ChunkId> {
    let eligible = eligible(model, pinned);
    let old: Vec<u64> = eligible
        .iter()
        .rev()
        .filter(|&&(_, r)| is_old(r, current))
        .map(|&(c, _)| c)
        .collect();
    old.get(fd)
        .or(old.last())
        .or(eligible.first().map(|(c, _)| c))
        .map(|&c| ChunkId(c))
}

/// The model's answer to `select_lru_old`: the LRU-most unpinned old
/// chunk, else the LRU-most unpinned chunk.
fn model_lru_old(model: &Model, current: u64, pinned: &FxHashSet<ChunkId>) -> Option<ChunkId> {
    let eligible = eligible(model, pinned);
    eligible
        .iter()
        .find(|&&(_, r)| is_old(r, current))
        .or(eligible.first())
        .map(|&(c, _)| ChunkId(c))
}

/// A hashed pin set of up to 15 ids: some in the chain, some never in
/// it, and some far past the chain's dense index.
fn draw_pinned(rng: &mut Xoshiro256ss, model: &Model) -> FxHashSet<ChunkId> {
    let mut pinned = FxHashSet::default();
    for _ in 0..rng.gen_range(16) {
        let c = match rng.gen_range(10) {
            0..=5 if !model.is_empty() => model[rng.gen_range(model.len() as u64) as usize].0,
            6 => FAR + rng.gen_range(FAR),
            _ => UNIVERSE + rng.gen_range(UNIVERSE),
        };
        pinned.insert(ChunkId(c));
    }
    pinned
}

/// Compare the chain with the model. `pins` is reused across calls, so
/// its epochs advance the way the driver's do across batches.
fn check_against_model(
    chain: &ChunkChain,
    model: &Model,
    pins: &mut PinSet,
    rng: &mut Xoshiro256ss,
) -> Result<(), String> {
    if chain.len() != model.len() {
        return Err(format!("len {} vs model {}", chain.len(), model.len()));
    }
    if !chain.indexes_consistent() {
        return Err("an index disagrees with the list".into());
    }
    let pinned = draw_pinned(rng, model);
    let none = FxHashSet::default();
    // Positions up to well past the eligible count (saturation).
    for pos in [0, model.len() / 2, model.len(), model.len() + 7]
        .into_iter()
        .chain([rng.gen_range(model.len() as u64 + 8) as usize])
    {
        for hashed in [&pinned, &none] {
            pins.load(hashed.iter().copied());
            let got = chain.nth_from_lru(pos, pins);
            let (want, walk) = (
                model_nth(model, pos, hashed),
                chain.nth_from_lru_walk(pos, pins),
            );
            if got != want || got != walk {
                return Err(format!(
                    "nth_from_lru({pos}) = {got:?}, model {want:?}, walk {walk:?} (pins {hashed:?})"
                ));
            }
            let current = rng.gen_range(20);
            let got = chain.select_mru_old(pos, current, pins);
            let want = model_mru_old(model, pos, current, hashed);
            if got != want {
                return Err(format!(
                    "select_mru_old({pos}, {current}) = {got:?}, model {want:?} (pins {hashed:?})"
                ));
            }
            let (got, want) = (
                chain.select_lru_old(current, pins),
                model_lru_old(model, current, hashed),
            );
            if got != want {
                return Err(format!(
                    "select_lru_old({current}) = {got:?}, model {want:?} (pins {hashed:?})"
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
        let mut pins = PinSet::new();
        let steps = 50 + rng.gen_range(600) as usize;
        for step in 0..steps {
            let op = draw_op(&mut rng, mix, universe);
            let checked = apply(&mut chain, &mut model, op)
                .and_then(|()| check_against_model(&chain, &model, &mut pins, &mut rng));
            if let Err(e) = checked {
                panic!("seed {seed}, step {step} ({op:?}): {e}");
            }
        }
        let order: Vec<u64> = chain.iter_lru().map(|c| c.0).collect();
        let want: Vec<u64> = model.iter().map(|&(c, _)| c).collect();
        assert_eq!(order, want, "seed {seed}: final order");
        let counts = chain.index_counts();
        tail_reslots += counts.tail_reslots;
        head_reslots += counts.head_reslots;
    }
    assert!(tail_reslots > 0, "no stream re-slotted at the tail end");
    assert!(head_reslots > 0, "no stream re-slotted at the head end");
}

/// Victim selection never returns a pinned or absent chunk, returns
/// Some whenever an eligible chunk exists, and `nth_from_lru` returns
/// the model's pos-th eligible chunk. Covers empty and one-chunk
/// chains, pin sets with absent chunks and with ids far past the
/// chain's dense index, and positions past the eligible count.
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
        let mut excluded: BTreeSet<u64> =
            (0..rng.gen_range(32)).map(|_| rng.gen_range(72)).collect();
        if rng.gen_bool(0.5) {
            excluded.insert(FAR + rng.gen_range(FAR));
        }
        let fd = rng.gen_range(12) as usize;
        let interval = rng.gen_range(8);

        let mut chain = ChunkChain::new();
        for (i, &c) in chunks.iter().enumerate() {
            chain.insert_tail(ChunkId(c), (i % 4) as u64);
        }
        let hashed: FxHashSet<ChunkId> = excluded.iter().map(|&c| ChunkId(c)).collect();
        let mut ex = PinSet::new();
        ex.load(hashed.iter().copied());
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
        let model: Model = chunks
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, (i % 4) as u64))
            .collect();
        for pos in 0..chunks.len() + 3 {
            assert_eq!(
                chain.nth_from_lru(pos, &ex),
                model_nth(&model, pos, &hashed),
                "seed {seed}, pos {pos}"
            );
        }
    }
}
