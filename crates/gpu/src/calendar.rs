//! The event loop's lane-indexed wake calendar.
//!
//! The loop schedules three kinds of event: a lane's next wake
//! (`LaneReady`), a faulted page's migration completing (`PageReady`)
//! and the host driver finishing a batch (`DriverFree`). Far faults are
//! replayable, so a blocked lane has no wake queued and a running lane
//! exactly one: at most one `LaneReady` per lane is ever pending. The
//! calendar is built for that:
//!
//! * **Near lane wakes** — under [`RING`] cycles ahead — sit in a ring
//!   of per-cycle buckets. The lane ids thread the buckets themselves:
//!   each bucket holds a `[head, tail]` lane pair and each lane its
//!   successor, so a push or pop touches no slab and moves no payload.
//!   The ring's [`RingBitmap`] (shared with `sim_core::EventQueue`)
//!   finds the earliest occupied bucket.
//! * **Far events** — every `PageReady`, and the lane wakes `RING` or
//!   more cycles ahead, such as a barrier relaunch — sit in one
//!   cycle-sorted run. Completions mostly arrive in cycle order, so a
//!   push is usually an append; an earlier one is inserted behind every
//!   entry at or before its cycle. Far lane wakes stay there until they
//!   pop: nothing drains into the ring.
//! * **`DriverFree`** has one slot: the driver serves one batch at a
//!   time.
//!
//! A pop takes the least `(cycle, stamp)` of the ring head, the far
//! front and the driver slot. The stamp is one global push counter, so
//! events at one cycle pop in push order across all three kinds — the
//! order `gpu::reference`'s binary heap keeps, which bit-identity
//! needs. Within a bucket and within the far run push order already
//! holds, so stamps are compared only when two kinds' heads share a
//! cycle.
//!
//! A hit's next wake is pushed and the very next step pops, so
//! [`WakeCalendar::push_lane_then_pop`] does both with the pop decided
//! first. The wake's stamp is the newest, so it loses every tie: when
//! it is strictly earlier than every queued head it is the pop and never
//! enters the calendar; otherwise the least head pops and only then is
//! the wake pushed, into the ring or the far run as the push-time clock
//! chose. The pop no longer waits on the push's stores.

use gmmu::types::VirtPage;
use sim_core::events::{RingBitmap, RING};
use sim_core::time::Cycle;
use std::collections::VecDeque;

const MASK: u64 = RING - 1;
/// End of a bucket's lane list, and the head of an empty bucket.
const NIL: u32 = u32::MAX;
/// Successor of a lane with no queued wake.
const IDLE: u32 = u32::MAX - 1;

/// One scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// The lane issues its next stream item.
    LaneReady(u32),
    /// The migration for this faulted page completed; its waiters replay.
    PageReady(VirtPage),
    /// The host driver finished processing the current batch.
    DriverFree,
}

/// Calendar operations per event kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// Lane wakes under `RING` (2048) cycles ahead, in the ring.
    pub near_lane: u64,
    /// Lane wakes 2048 or more cycles ahead, in the far run.
    pub far_lane: u64,
    /// Page completions.
    pub page: u64,
    /// Driver frees.
    pub driver: u64,
}

/// The event traffic of one run through the wake calendar.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounts {
    /// Events scheduled, per kind.
    pub pushes: KindCounts,
    /// Events fired, per kind.
    pub pops: KindCounts,
    /// Push-stamp compares: two kinds' heads shared a cycle, so push
    /// order decided which popped first.
    pub stamp_compares: u64,
    /// Lane wakes `push_lane_then_pop` returned without queueing them,
    /// being strictly the earliest event. Each is also counted as a
    /// push and a pop of its kind.
    pub direct_wakes: u64,
}

/// A far-run entry.
#[derive(Debug, Clone, Copy)]
struct Far {
    at: Cycle,
    stamp: u64,
    event: Event,
}

/// Which head a pop takes.
enum Head {
    Ring(usize),
    Far,
    Driver,
}

/// The loop's event scheduler: min-ordered by cycle, push order among
/// equal cycles.
pub(crate) struct WakeCalendar {
    /// Per bucket: `[head, tail]` of its lane list, `NIL` head when
    /// empty. Bucket `at & (RING - 1)` holds the wakes of the one cycle
    /// in `[now, now + RING)` that maps there.
    buckets: Box<[[u32; 2]]>,
    /// Per lane: the next lane in its bucket (`NIL` at the tail and for
    /// a far wake), or `IDLE` with no wake queued.
    next: Vec<u32>,
    /// Per lane: the push stamp of its queued wake.
    stamps: Vec<u64>,
    occupied: RingBitmap,
    /// Page completions and far lane wakes, sorted by cycle and push
    /// order among equal cycles.
    far: VecDeque<Far>,
    /// The pending `DriverFree`, with its push stamp.
    driver: Option<(Cycle, u64)>,
    /// Pushes so far: the next push's stamp.
    stamp: u64,
    now: Cycle,
    counts: QueueCounts,
}

impl WakeCalendar {
    /// An empty calendar for `lanes` lanes, with the clock at zero.
    pub(crate) fn new(lanes: usize) -> Self {
        WakeCalendar {
            buckets: vec![[NIL; 2]; RING as usize].into_boxed_slice(),
            next: vec![IDLE; lanes],
            stamps: vec![0; lanes],
            occupied: RingBitmap::new(),
            far: VecDeque::new(),
            driver: None,
            stamp: 0,
            now: Cycle::ZERO,
            counts: QueueCounts::default(),
        }
    }

    /// Cycle of the most recently popped event.
    #[inline]
    pub(crate) fn now(&self) -> Cycle {
        self.now
    }

    /// The run's traffic so far.
    pub(crate) fn counts(&self) -> QueueCounts {
        self.counts
    }

    /// Take the next push stamp, checking `at` is not in the past.
    #[inline]
    fn stamp(&mut self, at: Cycle) -> u64 {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        self.stamp += 1;
        self.stamp
    }

    /// Wake `lane` at `at`. The lane must have no wake queued.
    #[inline]
    pub(crate) fn push_lane(&mut self, at: Cycle, lane: u32) {
        let stamp = self.stamp(at);
        self.queue_lane(at, stamp, lane, at.0 - self.now.0 < RING);
    }

    /// `push_lane(at, lane)` then `pop()`: the same event, clock and
    /// counts, the compares `pop` would have made with the wake queued
    /// included. A wake strictly earlier than every queued head is
    /// returned without touching the ring or the far run.
    #[inline]
    pub(crate) fn push_lane_then_pop(&mut self, at: Cycle, lane: u32) -> (Cycle, Event) {
        let stamp = self.stamp(at);
        let near = at.0 - self.now.0 < RING;
        let ring = self.occupied.first(self.now);
        let ring_at = ring.map_or(u64::MAX, |(_, c)| c.0);
        let far_at = self.far.front().map_or(u64::MAX, |f| f.at.0);
        let driver_at = self.driver.map_or(u64::MAX, |(at, _)| at.0);
        if at.0 < ring_at.min(far_at).min(driver_at) {
            debug_assert_eq!(
                self.next[lane as usize], IDLE,
                "lane {lane} already has a queued wake"
            );
            let c = &mut self.counts;
            if near {
                c.pushes.near_lane += 1;
                c.pops.near_lane += 1;
            } else {
                c.pushes.far_lane += 1;
                c.pops.far_lane += 1;
            }
            c.direct_wakes += 1;
            self.now = at;
            return (at, Event::LaneReady(lane));
        }
        let popped = match ring {
            // No compare, the wake queued or not: a near wake at the
            // ring head's cycle would queue behind it, and a far wake is
            // past every ring cycle.
            Some((idx, c)) if c.0 < far_at.min(driver_at) => self.pop_ring(idx, c),
            _ => {
                // Queued, the wake would head its kind when earlier than
                // that kind's head, and `pop` would compare its cycle.
                let (ring_head, far_head) = if near {
                    (ring_at.min(at.0), far_at)
                } else {
                    (ring_at, far_at.min(at.0))
                };
                self.counts.stamp_compares += ties(ring_head, far_head, driver_at);
                self.pop_least(ring).expect("a head is queued")
            }
        };
        self.queue_lane(at, stamp, lane, near);
        popped
    }

    /// Queue `lane`'s wake at `at` with push stamp `stamp`: in the ring
    /// when `near`, else in the far run.
    #[inline]
    fn queue_lane(&mut self, at: Cycle, stamp: u64, lane: u32, near: bool) {
        let l = lane as usize;
        debug_assert_eq!(self.next[l], IDLE, "lane {lane} already has a queued wake");
        self.next[l] = NIL;
        if near {
            self.stamps[l] = stamp;
            let idx = (at.0 & MASK) as usize;
            let bucket = &mut self.buckets[idx];
            if bucket[0] == NIL {
                bucket[0] = lane;
                self.occupied.set(idx);
            } else {
                self.next[bucket[1] as usize] = lane;
            }
            bucket[1] = lane;
            self.counts.pushes.near_lane += 1;
        } else {
            self.far_push(at, stamp, Event::LaneReady(lane));
            self.counts.pushes.far_lane += 1;
        }
    }

    /// `page`'s migration completes at `at`.
    #[inline]
    pub(crate) fn push_page(&mut self, at: Cycle, page: VirtPage) {
        let stamp = self.stamp(at);
        self.far_push(at, stamp, Event::PageReady(page));
        self.counts.pushes.page += 1;
    }

    /// The driver frees up at `at`. No `DriverFree` may be queued.
    pub(crate) fn push_driver(&mut self, at: Cycle) {
        let stamp = self.stamp(at);
        debug_assert!(self.driver.is_none(), "two queued DriverFree events");
        self.driver = Some((at, stamp));
        self.counts.pushes.driver += 1;
    }

    /// Add an entry to the far run, after every entry at or before its
    /// cycle (its push-order place).
    fn far_push(&mut self, at: Cycle, stamp: u64, event: Event) {
        let entry = Far { at, stamp, event };
        if self.far.back().is_none_or(|f| f.at <= at) {
            self.far.push_back(entry);
        } else {
            let pos = self.far.partition_point(|f| f.at <= at);
            self.far.insert(pos, entry);
        }
    }

    /// True when an event is queued at the current cycle, so the next
    /// pop would not advance the clock. The ring bucket `now` maps to
    /// can only hold wakes at `now`.
    #[inline]
    pub(crate) fn pending_now(&self) -> bool {
        self.buckets[(self.now.0 & MASK) as usize][0] != NIL
            || self.far.front().is_some_and(|f| f.at == self.now)
            || self.driver.is_some_and(|(at, _)| at == self.now)
    }

    /// Pop the least `(cycle, stamp)` event, advancing the clock to it.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(Cycle, Event)> {
        let ring = self.occupied.first(self.now);
        let far_at = self.far.front().map_or(u64::MAX, |f| f.at.0);
        let driver_at = self.driver.map_or(u64::MAX, |(at, _)| at.0);
        // The common pop: a ring wake strictly ahead of both other heads.
        if let Some((idx, at)) = ring {
            if at.0 < far_at.min(driver_at) {
                return Some(self.pop_ring(idx, at));
            }
        }
        let ring_at = ring.map_or(u64::MAX, |(_, c)| c.0);
        self.counts.stamp_compares += ties(ring_at, far_at, driver_at);
        self.pop_least(ring)
    }

    /// Pop by full `(cycle, stamp)` order across the three heads.
    fn pop_least(&mut self, ring: Option<(usize, Cycle)>) -> Option<(Cycle, Event)> {
        let ring = ring.map(|(idx, at)| {
            let head = self.buckets[idx][0] as usize;
            (at, self.stamps[head], Head::Ring(idx))
        });
        let far = self.far.front().map(|f| (f.at, f.stamp, Head::Far));
        let driver = self.driver.map(|(at, stamp)| (at, stamp, Head::Driver));
        let (at, _, head) = [ring, far, driver]
            .into_iter()
            .flatten()
            .min_by_key(|h| (h.0, h.1))?;
        Some(match head {
            Head::Ring(idx) => self.pop_ring(idx, at),
            Head::Far => {
                let f = self.far.pop_front().expect("far head exists");
                match f.event {
                    Event::LaneReady(lane) => {
                        self.next[lane as usize] = IDLE;
                        self.counts.pops.far_lane += 1;
                    }
                    _ => self.counts.pops.page += 1,
                }
                self.now = at;
                (at, f.event)
            }
            Head::Driver => {
                self.driver = None;
                self.counts.pops.driver += 1;
                self.now = at;
                (at, Event::DriverFree)
            }
        })
    }

    /// Pop the head lane of bucket `idx`, which stands for cycle `at`.
    #[inline]
    fn pop_ring(&mut self, idx: usize, at: Cycle) -> (Cycle, Event) {
        let bucket = &mut self.buckets[idx];
        let lane = bucket[0];
        let next = std::mem::replace(&mut self.next[lane as usize], IDLE);
        bucket[0] = next;
        if next == NIL {
            self.occupied.clear(idx);
        }
        self.counts.pops.near_lane += 1;
        self.now = at;
        (at, Event::LaneReady(lane))
    }
}

/// The stamp compares a pop makes over heads at these cycles
/// (`u64::MAX` for none). It folds the heads in ring, far, driver order,
/// and each head that shares the least cycle before it costs one.
#[inline]
fn ties(ring: u64, far: u64, driver: u64) -> u64 {
    let shares = |at: u64, least: u64| u64::from(at != u64::MAX && at == least);
    shares(far, ring) + shares(driver, ring.min(far))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::rng::Xoshiro256ss;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The calendar beside a binary heap keyed by `(cycle, push
    /// sequence)`, and beside a second calendar fed the same schedule
    /// through `push_lane` and `pop` alone: every answer of the one must
    /// be the heap's, and its counts the second calendar's.
    struct Model {
        cal: WakeCalendar,
        /// Never calls `push_lane_then_pop`.
        plain: WakeCalendar,
        heap: BinaryHeap<Reverse<(u64, u64)>>,
        /// Pushed events, by push sequence.
        events: Vec<Event>,
        /// Lanes with no wake queued.
        idle: Vec<u32>,
        driver_queued: bool,
        /// The cycles of the last few pushes, to push ties against.
        recent: VecDeque<u64>,
        /// The pushes the calendar should count.
        pushes: KindCounts,
        /// `push_lane_then_pop` wakes earlier than every queued event,
        /// near and far.
        direct: [u64; 2],
        /// `push_lane_then_pop` wakes that tied the earliest queued
        /// event, by its kind: lane, page, driver.
        tied: [u64; 3],
    }

    impl Model {
        fn new(lanes: u32) -> Self {
            Model {
                cal: WakeCalendar::new(lanes as usize),
                plain: WakeCalendar::new(lanes as usize),
                heap: BinaryHeap::new(),
                events: Vec::new(),
                idle: (0..lanes).collect(),
                driver_queued: false,
                recent: VecDeque::new(),
                pushes: KindCounts::default(),
                direct: [0; 2],
                tied: [0; 3],
            }
        }

        fn push(&mut self, at: u64, event: Event) {
            push_to(&mut self.cal, at, event);
            self.record(at, event);
        }

        /// Queue a push in the heap and the plain calendar, and count it.
        fn record(&mut self, at: u64, event: Event) {
            let now = self.plain.now().0;
            push_to(&mut self.plain, at, event);
            match event {
                Event::LaneReady(_) if at - now < RING => self.pushes.near_lane += 1,
                Event::LaneReady(_) => self.pushes.far_lane += 1,
                Event::PageReady(_) => self.pushes.page += 1,
                Event::DriverFree => self.pushes.driver += 1,
            }
            self.heap.push(Reverse((at, self.events.len() as u64)));
            self.events.push(event);
            self.recent.push_back(at);
            if self.recent.len() > 8 {
                self.recent.pop_front();
            }
        }

        /// Pop all three; panic unless they agree.
        fn pop(&mut self) -> Option<(Cycle, Event)> {
            let got = self.cal.pop();
            self.check(got)
        }

        /// The loop's hit path: `lane`'s wake at `at` handed to the pop.
        fn push_lane_then_pop(&mut self, at: u64, lane: u32) -> Option<(Cycle, Event)> {
            match self.heap.peek() {
                Some(&Reverse((t, seq))) if t <= at => {
                    if t == at {
                        self.tied[match self.events[seq as usize] {
                            Event::LaneReady(_) => 0,
                            Event::PageReady(_) => 1,
                            Event::DriverFree => 2,
                        }] += 1;
                    }
                }
                _ => self.direct[usize::from(at - self.cal.now().0 >= RING)] += 1,
            }
            self.record(at, Event::LaneReady(lane));
            let got = self.cal.push_lane_then_pop(Cycle(at), lane);
            self.check(Some(got))
        }

        fn check(&mut self, got: Option<(Cycle, Event)>) -> Option<(Cycle, Event)> {
            let want = self
                .heap
                .pop()
                .map(|Reverse((at, seq))| (Cycle(at), self.events[seq as usize]));
            let pushes = self.events.len();
            assert_eq!(got, want, "after {pushes} pushes");
            assert_eq!(self.plain.pop(), want, "after {pushes} pushes");
            let direct_wakes = self.direct[0] + self.direct[1];
            assert_eq!(self.cal.counts().direct_wakes, direct_wakes);
            assert_eq!(
                QueueCounts {
                    direct_wakes: 0,
                    ..self.cal.counts()
                },
                self.plain.counts(),
                "after {pushes} pushes"
            );
            match want {
                Some((_, Event::LaneReady(lane))) => self.idle.push(lane),
                Some((_, Event::DriverFree)) => self.driver_queued = false,
                _ => {}
            }
            want
        }

        /// A cycle to push at: about a quarter land on a recent push's
        /// cycle, across kinds and in either order.
        fn draw_at(&self, rng: &mut Xoshiro256ss) -> u64 {
            let now = self.cal.now().0;
            let tie = self
                .recent
                .iter()
                .copied()
                .filter(|&t| t >= now)
                .nth(rng.gen_range(8) as usize);
            match (tie, rng.gen_range(8)) {
                (Some(t), 0 | 1) => t,
                (_, 2 | 3) => now + rng.gen_range(16),
                (_, 4) => now + rng.gen_range(700),
                // Either side of the ring's far edge.
                (_, 5) => now + RING - 2 + rng.gen_range(4),
                (_, 6) => now + RING + rng.gen_range(8_000),
                // A narrow far band: far ties and mid-run inserts.
                _ => now + 28_000 + rng.gen_range(4),
            }
        }

        /// A hit's wake: mostly as `draw_at`, but a third of the time
        /// on or just before the earliest queued event, either side of
        /// a direct return.
        fn draw_wake_at(&self, rng: &mut Xoshiro256ss) -> u64 {
            let now = self.cal.now().0;
            match (self.heap.peek(), rng.gen_range(6)) {
                (Some(&Reverse((t, _))), 0) => t,
                (Some(&Reverse((t, _))), 1) => t.saturating_sub(1).max(now),
                _ => self.draw_at(rng),
            }
        }

        fn take_idle(&mut self, rng: &mut Xoshiro256ss) -> u32 {
            let i = rng.gen_range(self.idle.len() as u64) as usize;
            self.idle.swap_remove(i)
        }

        /// Push one random event: mostly lane wakes, some page
        /// completions, a driver free when none is queued.
        fn push_random(&mut self, rng: &mut Xoshiro256ss) {
            let at = self.draw_at(rng);
            let kind = rng.gen_range(10);
            let event = if kind < 6 && !self.idle.is_empty() {
                Event::LaneReady(self.take_idle(rng))
            } else if kind == 9 && !self.driver_queued {
                self.driver_queued = true;
                Event::DriverFree
            } else {
                Event::PageReady(VirtPage(rng.gen_range(1 << 20)))
            };
            self.push(at, event);
        }

        fn check_pending_now(&self) {
            let next = self.heap.peek().map(|r| r.0 .0);
            assert_eq!(self.cal.pending_now(), next == Some(self.cal.now().0));
        }
    }

    fn push_to(cal: &mut WakeCalendar, at: u64, event: Event) {
        match event {
            Event::LaneReady(lane) => cal.push_lane(Cycle(at), lane),
            Event::PageReady(page) => cal.push_page(Cycle(at), page),
            Event::DriverFree => cal.push_driver(Cycle(at)),
        }
    }

    #[test]
    fn matches_a_binary_heap_under_random_schedules() {
        let (mut direct, mut tied) = ([0; 2], [0; 3]);
        for seed in 0..8 {
            let mut rng = Xoshiro256ss::new(seed);
            let mut m = Model::new(1 + rng.gen_range(12) as u32);
            for _ in 0..6 {
                m.push_random(&mut rng);
            }
            let mut pops = 0u64;
            // A lane whose hit handed its next wake to the next pop.
            let mut hit: Option<u32> = None;
            loop {
                let next = match hit.take() {
                    Some(lane) => {
                        let at = m.draw_wake_at(&mut rng);
                        m.push_lane_then_pop(at, lane)
                    }
                    None => m.pop(),
                };
                let Some((_, event)) = next else { break };
                pops += 1;
                m.check_pending_now();
                if pops >= 20_000 {
                    continue;
                }
                // For a while, half the lane wakes hit; other handlers
                // push zero to three follow-ups.
                match event {
                    Event::LaneReady(lane) if rng.gen_range(2) == 0 => {
                        m.idle.retain(|&l| l != lane);
                        hit = Some(lane);
                    }
                    _ => {
                        for _ in 0..rng.gen_range(4) {
                            m.push_random(&mut rng);
                        }
                        m.check_pending_now();
                    }
                }
            }
            let c = m.cal.counts();
            assert_eq!(c.pushes, m.pushes, "seed {seed}");
            assert_eq!(c.pops, c.pushes, "seed {seed}");
            assert!(
                c.pushes.far_lane > 0 && c.pushes.driver > 0,
                "seed {seed}: {c:?}"
            );
            assert!(c.stamp_compares > 0, "seed {seed}: no cross-kind tie");
            // Ten laps of the ring at least: its buckets wrapped.
            assert!(
                m.cal.now().0 > 10 * RING,
                "seed {seed}: now {}",
                m.cal.now()
            );
            for (sum, n) in direct.iter_mut().zip(m.direct) {
                *sum += n;
            }
            for (sum, n) in tied.iter_mut().zip(m.tied) {
                *sum += n;
            }
        }
        // Direct wakes on either side of the ring's far edge, and wakes
        // that lost a tie to each kind of head.
        assert!(direct.iter().all(|&n| n > 0), "direct {direct:?}");
        assert!(tied.iter().all(|&n| n > 0), "tied {tied:?}");
    }

    #[test]
    fn cross_kind_ties_pop_in_push_order() {
        // At one cycle: a far lane wake, a page, a ring lane wake pushed
        // once the cycle is in the window, the driver, another page.
        let mut m = Model::new(2);
        let t = 3 * RING;
        m.push(t, Event::LaneReady(0));
        m.push(t, Event::PageReady(VirtPage(7)));
        m.push(t - 10, Event::PageReady(VirtPage(1)));
        assert_eq!(
            m.pop(),
            Some((Cycle(t - 10), Event::PageReady(VirtPage(1))))
        );
        m.push(t, Event::LaneReady(1));
        m.push(t, Event::DriverFree);
        m.push(t, Event::PageReady(VirtPage(8)));
        m.check_pending_now();
        while m.pop().is_some() {
            m.check_pending_now();
        }
        assert!(m.cal.counts().stamp_compares >= 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already has a queued wake")]
    fn a_lane_has_at_most_one_queued_wake() {
        let mut cal = WakeCalendar::new(1);
        cal.push_lane(Cycle(5), 0);
        cal.push_lane(Cycle(9), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already has a queued wake")]
    fn a_handed_wake_needs_an_idle_lane() {
        let mut cal = WakeCalendar::new(1);
        cal.push_lane(Cycle(5), 0);
        cal.push_lane_then_pop(Cycle(3), 0);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut cal = WakeCalendar::new(1);
        cal.push_page(Cycle(10), VirtPage(0));
        cal.pop();
        cal.push_lane(Cycle(9), 0);
    }
}
