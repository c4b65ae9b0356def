//! Bounded drop-oldest ring buffer.
//!
//! Long runs emit far more events, decisions and spans than anyone
//! wants to keep; each is held in a ring that
//! keeps the most recent `capacity` and counts what it dropped, so the
//! exporters can say "…and 1 234 earlier events" instead of the process
//! eating memory or panicking.

use std::collections::VecDeque;

/// Drop-oldest bounded buffer.
#[derive(Debug, Clone)]
pub struct BoundedRing<T> {
    buf: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Default for BoundedRing<T> {
    fn default() -> Self {
        BoundedRing::new(0)
    }
}

impl<T> BoundedRing<T> {
    /// Ring holding at most `capacity` items (capacity 0 keeps nothing
    /// and counts everything as dropped).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BoundedRing {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Record an item, evicting the oldest if the ring is full.
    pub fn push(&mut self, item: T) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
    }

    /// Items currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the ring empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Items dropped because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate held items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// Drain into a `Vec`, oldest first.
    #[must_use]
    pub fn into_vec(self) -> Vec<T> {
        self.buf.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_drops_oldest_without_panicking() {
        let mut r = BoundedRing::new(3);
        for i in 0..10u64 {
            r.push(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 7);
        assert_eq!(
            r.iter().copied().collect::<Vec<_>>(),
            vec![7, 8, 9],
            "newest survive"
        );
    }

    #[test]
    fn zero_capacity_counts_only() {
        let mut r = BoundedRing::new(0);
        r.push(1u64);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
        assert!(BoundedRing::<u64>::default().is_empty());
    }

    #[test]
    fn into_vec_preserves_order_and_payloads() {
        let mut r = BoundedRing::new(8);
        for i in 0..4u64 {
            r.push(vec![i, i + 1]);
        }
        let v = r.into_vec();
        assert_eq!(v.len(), 4);
        assert!(v.windows(2).all(|w| w[0][0] < w[1][0]));
        assert_eq!(v[2], vec![2, 3]);
    }
}
