//! Physical frame allocator for GPU device memory.
//!
//! GPU memory is modelled as a flat pool of 4 KB frames. The evaluation
//! sizes the pool per application: "we reduced the memory size in the
//! simulator to two oversubscription rates: 75% and 50%, so that 75% and
//! 50% of each application's footprint fits in the GPU memory" (§VI).

use gmmu::types::Frame;
use sim_core::error::ConfigError;

/// Fixed-capacity frame pool with a LIFO free list.
#[derive(Debug)]
pub struct FrameAllocator {
    capacity: u32,
    next_unused: u32,
    free_list: Vec<Frame>,
}

impl FrameAllocator {
    /// Pool of `capacity` frames.
    ///
    /// # Errors
    /// Returns [`ConfigError::Zero`] for an empty pool.
    pub fn try_new(capacity: u32) -> Result<Self, ConfigError> {
        if capacity == 0 {
            return Err(ConfigError::Zero {
                field: "capacity_pages",
            });
        }
        Ok(FrameAllocator {
            capacity,
            next_unused: 0,
            free_list: Vec::new(),
        })
    }

    /// Pool of `capacity` frames. Convenience wrapper over
    /// [`FrameAllocator::try_new`].
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: u32) -> Self {
        FrameAllocator::try_new(capacity).expect("GPU memory needs at least one frame")
    }

    /// Total frames.
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Frames currently available.
    #[must_use]
    pub fn free(&self) -> u32 {
        (self.capacity - self.next_unused) + self.free_list.len() as u32
    }

    /// Frames currently allocated.
    #[must_use]
    pub fn in_use(&self) -> u32 {
        self.capacity - self.free()
    }

    /// Allocate one frame, or `None` when the pool is exhausted.
    pub fn alloc(&mut self) -> Option<Frame> {
        if let Some(f) = self.free_list.pop() {
            return Some(f);
        }
        if self.next_unused < self.capacity {
            let f = Frame(self.next_unused);
            self.next_unused += 1;
            Some(f)
        } else {
            None
        }
    }

    /// Return a frame to the pool.
    ///
    /// # Panics
    /// Panics (debug builds) if `frame` was never handed out.
    #[inline]
    pub fn release(&mut self, frame: Frame) {
        debug_assert!(frame.0 < self.next_unused, "released frame never allocated");
        debug_assert!(
            !self.free_list.contains(&frame),
            "double free of frame {frame:?}"
        );
        self.free_list.push(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_until_exhaustion() {
        let mut a = FrameAllocator::new(3);
        assert_eq!(a.free(), 3);
        let f: Vec<_> = (0..3).map(|_| a.alloc().unwrap()).collect();
        assert_eq!(a.alloc(), None);
        assert_eq!(a.free(), 0);
        assert_eq!(a.in_use(), 3);
        // Frames are distinct.
        assert_ne!(f[0], f[1]);
        assert_ne!(f[1], f[2]);
    }

    #[test]
    fn release_recycles() {
        let mut a = FrameAllocator::new(2);
        let f0 = a.alloc().unwrap();
        let _f1 = a.alloc().unwrap();
        a.release(f0);
        assert_eq!(a.free(), 1);
        assert_eq!(a.alloc(), Some(f0));
    }

    #[test]
    #[should_panic(expected = "double free")]
    #[cfg(debug_assertions)] // debug_assert! compiles out in release
    fn double_free_panics_in_debug() {
        let mut a = FrameAllocator::new(2);
        let f = a.alloc().unwrap();
        a.release(f);
        a.release(f);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_panics() {
        let _ = FrameAllocator::new(0);
    }

    #[test]
    fn try_new_reports_typed_error() {
        assert!(FrameAllocator::try_new(1).is_ok());
        let err = FrameAllocator::try_new(0).unwrap_err();
        assert!(err.to_string().contains("capacity_pages"));
    }

    #[test]
    fn free_accounting_through_churn() {
        let mut a = FrameAllocator::new(8);
        let mut held = Vec::new();
        for _ in 0..8 {
            held.push(a.alloc().unwrap());
        }
        for f in held.drain(..4) {
            a.release(f);
        }
        assert_eq!(a.free(), 4);
        for _ in 0..4 {
            assert!(a.alloc().is_some());
        }
        assert_eq!(a.alloc(), None);
    }
}
