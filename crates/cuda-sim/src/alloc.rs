//! First-fit device-memory allocator with free-list coalescing.
//!
//! The allocator models the *capacity* constraint of the device (the M2070's
//! 6 GB is what forces the paper's row-slab pipeline); payload bytes live in
//! per-buffer host allocations, so this structure only tracks address
//! ranges. Ranges are allocated first-fit from a sorted free list and
//! coalesced with both neighbours on free — fragmentation behaves the way a
//! real bump-free heap does, and the OOM error reports the largest free
//! block so callers can distinguish fragmentation from exhaustion.

use crate::error::SimError;

/// Byte alignment of every allocation (matches CUDA's 256-byte guarantee).
pub const ALIGN: u64 = 256;

/// A free range `[start, start + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FreeBlock {
    start: u64,
    len: u64,
}

/// The allocator state.
#[derive(Debug)]
pub struct Allocator {
    capacity: u64,
    /// Optional soft cap below `capacity`: the device *reports* (and this
    /// allocator enforces) only this many bytes, modelling a card partly
    /// occupied by another tenant. Installed by fault injection.
    limit: Option<u64>,
    /// Sorted, non-adjacent free blocks.
    free: Vec<FreeBlock>,
    /// Outstanding allocations: `(start, len)`, kept for validation.
    live: Vec<(u64, u64)>,
    /// High-water mark of bytes in use.
    peak_used: u64,
}

impl Allocator {
    /// A fresh allocator over `capacity` bytes.
    pub fn new(capacity: u64) -> Allocator {
        Allocator {
            capacity,
            limit: None,
            free: vec![FreeBlock {
                start: 0,
                len: capacity,
            }],
            live: Vec::new(),
            peak_used: 0,
        }
    }

    /// Total capacity in bytes, as reported to callers. A soft limit (see
    /// [`Allocator::set_limit`]) lowers the reported value.
    pub fn capacity(&self) -> u64 {
        match self.limit {
            Some(l) => l.min(self.capacity),
            None => self.capacity,
        }
    }

    /// Install (or clear) a soft capacity cap below the physical size.
    /// Capping below the bytes already in use makes every further
    /// allocation fail until enough is freed.
    pub fn set_limit(&mut self, limit: Option<u64>) {
        self.limit = limit;
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.capacity - self.raw_free()
    }

    /// High-water mark of allocated bytes.
    pub fn peak_used(&self) -> u64 {
        self.peak_used
    }

    /// Free bytes in the actual free list, ignoring any soft limit.
    fn raw_free(&self) -> u64 {
        self.free.iter().map(|b| b.len).sum()
    }

    /// Total free bytes (may be fragmented), as reported to callers —
    /// clamped by the soft limit so the capacity lie stays consistent.
    pub fn free_total(&self) -> u64 {
        self.raw_free()
            .min(self.capacity().saturating_sub(self.used()))
    }

    /// Largest single free block, clamped like [`Allocator::free_total`].
    pub fn largest_free(&self) -> u64 {
        self.free
            .iter()
            .map(|b| b.len)
            .max()
            .unwrap_or(0)
            .min(self.free_total())
    }

    /// Allocate `bytes` (rounded up to [`ALIGN`]); returns the range start.
    pub fn alloc(&mut self, bytes: u64) -> Result<u64, SimError> {
        if bytes == 0 {
            return Err(SimError::InvalidRequest("zero-byte allocation".into()));
        }
        let len = bytes.div_ceil(ALIGN) * ALIGN;
        // Enforce the soft limit before touching the free list, so a cap
        // below current usage fails cleanly instead of finding a real block.
        if self.used() + len > self.capacity() {
            return Err(SimError::OutOfMemory {
                requested: len,
                largest_free: self.largest_free(),
                free_total: self.free_total(),
                capacity: self.capacity(),
            });
        }
        // First fit.
        for i in 0..self.free.len() {
            if self.free[i].len >= len {
                let start = self.free[i].start;
                if self.free[i].len == len {
                    self.free.remove(i);
                } else {
                    self.free[i].start += len;
                    self.free[i].len -= len;
                }
                self.live.push((start, len));
                self.peak_used = self.peak_used.max(self.used());
                return Ok(start);
            }
        }
        Err(SimError::OutOfMemory {
            requested: len,
            largest_free: self.largest_free(),
            free_total: self.free_total(),
            capacity: self.capacity(),
        })
    }

    /// Free a previously allocated range by its start address.
    ///
    /// Panics in debug builds on a double free or unknown address; in
    /// release builds an unknown free is ignored (matching the tolerant
    /// behaviour of `cudaFree` on a dead context).
    pub fn free(&mut self, start: u64) {
        let Some(pos) = self.live.iter().position(|&(s, _)| s == start) else {
            debug_assert!(false, "free of unknown address {start}");
            return;
        };
        let (_, len) = self.live.swap_remove(pos);
        // Insert into the sorted free list, coalescing with neighbours.
        let idx = self.free.partition_point(|b| b.start < start);
        let merges_prev = idx > 0 && self.free[idx - 1].start + self.free[idx - 1].len == start;
        let merges_next = idx < self.free.len() && start + len == self.free[idx].start;
        match (merges_prev, merges_next) {
            (true, true) => {
                self.free[idx - 1].len += len + self.free[idx].len;
                self.free.remove(idx);
            }
            (true, false) => self.free[idx - 1].len += len,
            (false, true) => {
                self.free[idx].start = start;
                self.free[idx].len += len;
            }
            (false, false) => self.free.insert(idx, FreeBlock { start, len }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_round_trip() {
        let mut a = Allocator::new(4096);
        let x = a.alloc(100).unwrap();
        assert_eq!(x % ALIGN, 0);
        assert_eq!(a.used(), 256, "rounded to alignment");
        a.free(x);
        assert_eq!(a.used(), 0);
        assert_eq!(a.largest_free(), 4096, "coalesced back to one block");
    }

    #[test]
    fn zero_byte_allocation_rejected() {
        let mut a = Allocator::new(4096);
        assert!(matches!(a.alloc(0), Err(SimError::InvalidRequest(_))));
    }

    #[test]
    fn oom_reports_fragmentation() {
        let mut a = Allocator::new(1024);
        let b0 = a.alloc(256).unwrap();
        let b1 = a.alloc(256).unwrap();
        let _b2 = a.alloc(256).unwrap();
        let _b3 = a.alloc(256).unwrap();
        // Free two non-adjacent blocks: 512 free, but largest block 256.
        a.free(b0);
        a.free(b1);
        // b0 and b1 are adjacent, so they coalesce; grab a fresh pattern:
        let c0 = a.alloc(256).unwrap();
        let _c1 = a.alloc(256).unwrap();
        a.free(c0);
        // Now free space = 256 (hole) — asking 512 must OOM with stats.
        match a.alloc(512) {
            Err(SimError::OutOfMemory {
                requested,
                largest_free,
                free_total,
                capacity,
            }) => {
                assert_eq!(requested, 512);
                assert_eq!(largest_free, 256);
                assert_eq!(free_total, 256);
                assert_eq!(capacity, 1024);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn coalescing_merges_both_sides() {
        let mut a = Allocator::new(3 * ALIGN);
        let x = a.alloc(ALIGN).unwrap();
        let y = a.alloc(ALIGN).unwrap();
        let z = a.alloc(ALIGN).unwrap();
        assert_eq!(a.free_total(), 0);
        a.free(x);
        a.free(z);
        assert_eq!(a.free_total(), 2 * ALIGN);
        assert_eq!(a.largest_free(), ALIGN, "two separate holes");
        a.free(y);
        assert_eq!(a.largest_free(), 3 * ALIGN, "middle free merges all three");
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut a = Allocator::new(4096);
        let x = a.alloc(1024).unwrap();
        let y = a.alloc(1024).unwrap();
        a.free(x);
        a.free(y);
        assert_eq!(a.peak_used(), 2048);
        assert_eq!(a.used(), 0);
    }

    #[test]
    fn exhaustion_then_reuse() {
        let mut a = Allocator::new(1024);
        let blocks: Vec<u64> = (0..4).map(|_| a.alloc(256).unwrap()).collect();
        assert!(a.alloc(1).is_err());
        for b in blocks {
            a.free(b);
        }
        assert!(a.alloc(1024).is_ok());
    }

    #[test]
    fn soft_limit_caps_reported_and_usable_memory() {
        let mut a = Allocator::new(4096);
        a.set_limit(Some(1024));
        assert_eq!(a.capacity(), 1024);
        assert_eq!(a.free_total(), 1024);
        let x = a.alloc(512).unwrap();
        assert_eq!(a.free_total(), 512);
        assert_eq!(a.largest_free(), 512, "clamped below the real 3584 B hole");
        match a.alloc(1024) {
            Err(SimError::OutOfMemory {
                requested,
                free_total,
                capacity,
                ..
            }) => {
                assert_eq!(requested, 1024);
                assert_eq!(free_total, 512);
                assert_eq!(capacity, 1024, "the lie is consistent");
            }
            other => panic!("expected OOM under the soft limit, got {other:?}"),
        }
        a.free(x);
        a.set_limit(None);
        assert_eq!(a.capacity(), 4096);
        assert!(
            a.alloc(4096).is_ok(),
            "clearing the limit restores capacity"
        );
    }

    #[test]
    fn soft_limit_below_usage_blocks_all_allocation() {
        let mut a = Allocator::new(4096);
        let _x = a.alloc(2048).unwrap();
        a.set_limit(Some(1024));
        assert_eq!(a.free_total(), 0, "already over the cap");
        assert!(a.alloc(1).is_err());
    }

    #[test]
    fn distinct_allocations_do_not_overlap() {
        let mut a = Allocator::new(1 << 20);
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for i in 1..50u64 {
            let len = i * 37;
            let start = a.alloc(len).unwrap();
            let aligned = len.div_ceil(ALIGN) * ALIGN;
            for &(s, l) in &ranges {
                assert!(start + aligned <= s || s + l <= start, "overlap");
            }
            ranges.push((start, aligned));
        }
    }
}
