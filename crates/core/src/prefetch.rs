//! Software-prefetch hints for the scatter/gather hot loops.
//!
//! The PCPM scatter loop walks contiguous source runs but writes message
//! values through per-destination-partition bin cursors, and the gather
//! loop applies a streamed value array to random accumulator slots — both
//! patterns where the next few cache lines are computable well before the
//! demand access. [`Prefetch`] issues `core::arch` prefetch hints for
//! exactly those lines.
//!
//! Design rules (DESIGN.md §12):
//!
//! * **Hints only.** A prefetch never reads or writes the referenced
//!   memory; it cannot fault and cannot change any engine's output. Every
//!   call is bounds-checked and out-of-range indices are ignored, so
//!   callers can prefetch a fixed distance ahead without clamping.
//! * **Feature-gated.** The `prefetch` cargo feature (default on) plus an
//!   `x86_64` target are required for real hints; everywhere else the
//!   hints compile to nothing. The *runtime* knob
//!   (`NativeOpts::prefetch` / `SimOpts::prefetch`) is separate so A/B
//!   censuses don't need a rebuild.
//! * **The sim stays honest.** The simulated path never calls these host
//!   hints; it charges an explicit `mem.prefetch` counter through
//!   [`hipa_numasim`]'s `ThreadCtx::prefetch` instead, so modelled cycles
//!   account for prefetch issue cost and the early DRAM traffic.

/// Distance (in elements) the scatter/gather loops run ahead of the demand
/// access. Covers the L2 latency at one element per few cycles without
/// thrashing the L1 fill buffers; shared by native and sim paths so the
/// modelled access stream matches the host's.
pub const PREFETCH_DISTANCE: usize = 16;

/// L2 capacity assumed by the *native* PCPM kernels' adaptive hint gate
/// (the simulated path reads the machine spec instead). PCPM sizes
/// partitions so the random-access working set — the `partition_bytes`-wide
/// contribution/accumulator span — stays cache-resident, in which case
/// hints only burn issue slots; they arm exactly when the configured
/// partition spills this capacity (1 MB, the Xeon 4210's per-core L2).
pub const NATIVE_L2_BYTES: usize = 1 << 20;

/// An array a hot loop hints ahead into: a plain slice, or a
/// [`SharedSlice`](crate::disjoint::SharedSlice).
pub trait Prefetch {
    /// Hints that element `i` will be read soon. Out-of-range `i` is a
    /// no-op, as is the whole call without the `prefetch` feature or off
    /// x86_64. x86 has no distinct write-prefetch in the T0 family worth
    /// modelling separately, so the same hint serves a coming write.
    fn prefetch(&self, i: usize);
}

impl<T> Prefetch for [T] {
    #[inline(always)]
    fn prefetch(&self, i: usize) {
        #[cfg(all(feature = "prefetch", target_arch = "x86_64"))]
        if i < self.len() {
            // SAFETY: `i < self.len()` so the pointer is in-bounds;
            // `_mm_prefetch` is a hint that performs no memory access and
            // has no architectural effect, so it is safe on any address.
            unsafe {
                core::arch::x86_64::_mm_prefetch(
                    self.as_ptr().add(i) as *const i8,
                    core::arch::x86_64::_MM_HINT_T0,
                );
            }
        }
        #[cfg(not(all(feature = "prefetch", target_arch = "x86_64")))]
        let _ = i;
    }
}

/// Collapses per-element hint sites to one hint per cache line.
///
/// The hot loops index 4-byte elements, so 16 consecutive indices share one
/// 64-byte line; hinting each of them would spend 16 issue slots on one
/// fetch. Loops keep one filter per prefetched array and only call the
/// prefetch helper when [`LineFilter::admit`] accepts the index. The filter
/// remembers a single line — exactly right for the (mostly ascending)
/// source/destination runs these loops walk.
#[derive(Debug)]
pub struct LineFilter(usize);

/// 4-byte elements per 64-byte cache line, as a shift.
const LINE_SHIFT: u32 = 4;

impl LineFilter {
    #[inline(always)]
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        LineFilter(usize::MAX)
    }

    /// `true` iff `index` falls on a different cache line than the last
    /// admitted index (the caller should then issue the hint).
    #[inline(always)]
    pub fn admit(&mut self, index: usize) -> bool {
        let line = index >> LINE_SHIFT;
        if line == self.0 {
            false
        } else {
            self.0 = line;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_and_out_of_bounds_are_noops_semantically() {
        let v = vec![1u32, 2, 3];
        v.prefetch(0);
        v.prefetch(2);
        v.prefetch(3); // out of range: ignored
        v.prefetch(usize::MAX);
        let empty: Vec<f32> = Vec::new();
        empty.prefetch(0);
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn line_filter_admits_once_per_line() {
        let mut f = LineFilter::new();
        assert!(f.admit(0));
        for i in 1..16 {
            assert!(!f.admit(i), "index {i} shares line 0");
        }
        assert!(f.admit(16));
        assert!(f.admit(0)); // going back is a new line again
        assert!(!f.admit(15));
    }
}
