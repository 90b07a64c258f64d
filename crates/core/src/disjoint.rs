//! A shared-slice primitive for the native engines' disjoint-write pattern.
//!
//! Partition-centric PageRank writes are *structurally* disjoint: each
//! thread owns a fixed vertex range (accumulator and rank writes stay inside
//! it) and a fixed slot range of every message bin. `std` has no safe way to
//! hand different threads interleaved mutable views chosen at runtime, so
//! the engines share one [`SharedSlice`] and uphold the disjointness
//! contract themselves — the same pattern the paper's C++ uses implicitly,
//! here confined to one audited module.
//!
//! # Enforcement
//!
//! The contract is enforced on two fronts (DESIGN.md §10, §15):
//!
//! * **statically** by `hipa-audit`: every file touching `SharedSlice` must
//!   carry a `//! disjointness:` header naming the partition plan that keeps
//!   its indices disjoint (a plan symbol that must exist in the tree), and
//!   every `unsafe` site a `SAFETY:` comment — and bare `std::thread`
//!   parallelism is banned outside the instrumented pool, so no thread
//!   escapes the checker below;
//! * **dynamically** by the `check-hb` cargo feature: every element
//!   carries shadow state ([`crate::hb::shadow`]) checked against
//!   FastTrack-style vector clocks that the rayon shim threads through every
//!   pool synchronization edge (scope spawn/join, barriers, claim cursors —
//!   `rayon::hb`). Two *unordered* accesses to one element, at least one a
//!   write, panic with both thread tags, the index, and the unordered
//!   clocks; reads are tracked as an adaptive epoch that promotes to a read
//!   vector clock under concurrent readers. Writes *ordered* by a modeled
//!   edge — e.g. two scopes separated by a join — are not flagged: the
//!   checker verifies the synchronization discipline, not a per-lifetime
//!   single-writer rule.
//!
//! The shadow tables are pooled and generation-stamped (the `WriterTags`
//! predecessor zeroed an `O(len)` table on every construction; serve and
//! SpMV build fresh slices per phase, so construction is now O(1) amortised
//! — see `crate::hb` for the cost model). Debug builds additionally verify
//! bounds on every access. With the feature off, the shadow machinery does
//! not exist: accesses compile to a single raw-pointer read/write, and
//! ranks are bitwise identical either way (the shadow state never feeds the
//! arithmetic).

use crate::prefetch::Prefetch;
use std::cell::UnsafeCell;

/// A slice whose elements may be written concurrently by multiple threads,
/// provided no element is accessed by two threads without synchronisation.
pub struct SharedSlice<'a, T> {
    data: &'a [UnsafeCell<T>],
    #[cfg(feature = "check-hb")]
    shadow: crate::hb::shadow::ShadowTable,
}

#[cfg(feature = "check-hb")]
impl<T> Drop for SharedSlice<'_, T> {
    fn drop(&mut self) {
        crate::hb::shadow::ShadowTable::release(std::mem::take(&mut self.shadow));
    }
}

// SAFETY: `SharedSlice` only adds the *capability* for shared mutation; the
// soundness obligation (disjoint element access across threads, or access
// separated by a barrier) is documented on `write`/`get`/`update` and
// upheld by the engines: every write index is derived from the writing
// thread's own partition plan.
unsafe impl<T: Send + Sync> Sync for SharedSlice<'_, T> {}
// SAFETY: same argument as `Sync` above — moving the wrapper to another
// thread moves only the capability, not any element access.
unsafe impl<T: Send + Sync> Send for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wraps a uniquely borrowed slice.
    pub fn new(slice: &'a mut [T]) -> Self {
        #[cfg(feature = "check-hb")]
        let shadow = crate::hb::shadow::ShadowTable::acquire(slice.len());
        // SAFETY: `&mut [T]` guarantees unique access; `UnsafeCell<T>` has
        // the same layout as `T`, so the cast is valid. All further aliasing
        // goes through raw-pointer reads/writes below.
        let data = unsafe { &*(slice as *mut [T] as *const [UnsafeCell<T>]) };
        SharedSlice {
            data,
            #[cfg(feature = "check-hb")]
            shadow,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Writes `value` at `i`.
    ///
    /// # Safety
    /// No other thread may read or write element `i` concurrently (writes by
    /// the same thread, or phases separated by a barrier, are fine).
    #[inline]
    pub unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.data.len());
        #[cfg(feature = "check-hb")]
        self.shadow.on_write(i);
        // SAFETY: caller upholds exclusive access to element `i`; the index
        // is bounds-checked above in debug builds.
        unsafe { *self.data[i].get() = value };
    }

    /// Reads element `i`.
    ///
    /// # Safety
    /// No other thread may write element `i` concurrently. (`check-hb`
    /// catches a read-write race from either side: the read panics if it
    /// races a recorded write, or the later write panics against the
    /// recorded read.)
    #[inline]
    pub unsafe fn get(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.data.len());
        #[cfg(feature = "check-hb")]
        self.shadow.on_read(i);
        // SAFETY: caller guarantees no concurrent writer for element `i`.
        unsafe { *self.data[i].get() }
    }

    /// Applies `f` to element `i` in place (read-modify-write).
    ///
    /// # Safety
    /// No other thread may access element `i` concurrently.
    #[inline]
    pub unsafe fn update(&self, i: usize, f: impl FnOnce(&mut T)) {
        debug_assert!(i < self.data.len());
        #[cfg(feature = "check-hb")]
        self.shadow.on_write(i);
        // SAFETY: caller upholds exclusive access to element `i` for the
        // duration of `f`.
        unsafe { f(&mut *self.data[i].get()) };
    }
}

impl<T> Prefetch for SharedSlice<'_, T> {
    /// A prefetch hint performs no memory access, so this is *safe* under
    /// any concurrent writes and never touches the checker's shadow state.
    #[inline(always)]
    fn prefetch(&self, i: usize) {
        self.data.prefetch(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_roundtrip() {
        let mut v = vec![0u32; 8];
        {
            let s = SharedSlice::new(&mut v);
            for i in 0..8 {
                // SAFETY: single-threaded — no concurrent access.
                unsafe { s.write(i, i as u32 * 2) };
            }
            // SAFETY: single-threaded — no concurrent access.
            unsafe { s.update(3, |x| *x += 1) };
            // SAFETY: single-threaded — no concurrent access.
            assert_eq!(unsafe { s.get(3) }, 7);
        }
        assert_eq!(v, vec![0, 2, 4, 7, 8, 10, 12, 14]);
    }

    #[test]
    fn disjoint_parallel_writes() {
        let n = 1024;
        let mut v = vec![0usize; n];
        {
            let s = SharedSlice::new(&mut v);
            std::thread::scope(|scope| {
                for t in 0..4 {
                    let s = &s;
                    scope.spawn(move || {
                        let lo = t * n / 4;
                        let hi = (t + 1) * n / 4;
                        for i in lo..hi {
                            // SAFETY: ranges are disjoint per thread.
                            unsafe { s.write(i, i) };
                        }
                    });
                }
            });
        }
        assert!(v.iter().enumerate().all(|(i, &x)| x == i));
    }

    /// The runtime checker half of the soundness contract: two threads
    /// writing the same element must panic with both tags and the index.
    /// Bare `std::thread` spawns/joins are *not* modeled synchronization
    /// edges (only the instrumented pool, barriers, and claim cursors are),
    /// so the two writers stay unordered even though the scope fully
    /// serialises them — which makes this negative control deterministic.
    /// The second writer catches its own panic (`thread::scope` would
    /// replace the payload on join).
    #[cfg(feature = "check-hb")]
    #[test]
    fn overlapping_writes_panic_under_check_hb() {
        let n = 64;
        let mut v = vec![0usize; n];
        let s = SharedSlice::new(&mut v);
        let msg = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    for i in 0..n {
                        // SAFETY: sole writer so far; bounds are valid.
                        unsafe { s.write(i, i) };
                    }
                })
                .join()
                .expect("first writer completes");
            scope
                .spawn(|| {
                    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        // SAFETY: deliberately overlapping — the checker
                        // must catch this (bounds are still valid).
                        unsafe { s.write(7, 0) };
                    }))
                    .expect_err("overlap must panic");
                    err.downcast_ref::<String>().cloned().expect("string payload")
                })
                .join()
                .expect("second writer caught its panic")
        });
        assert!(
            msg.contains("check-disjoint: overlapping SharedSlice write at index 7"),
            "unexpected message: {msg}"
        );
    }
}
