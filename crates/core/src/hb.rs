//! Happens-before machinery behind the `check-hb` race checker.
//!
//! The rayon shim's [`rayon::hb`] module maintains per-thread vector clocks
//! and threads them through every pool synchronization edge. This module
//! adds the engine-side pieces (DESIGN.md §15):
//!
//! * [`ClaimCounter`] — the FCFS work-claim counter the engines and
//!   `crate::par::run_indexed` share. Plain builds claim with a `Relaxed`
//!   RMW (uniqueness is all the contract needs); under the checker feature
//!   the RMW upgrades to `AcqRel` and takes a matching vector-clock edge,
//!   so successive claimants are ordered in the model exactly as on the
//!   hardware.
//! * [`TrackedBarrier`] — `std::sync::Barrier` plus a release-before /
//!   acquire-after clock edge: everything before any participant's `wait`
//!   happens-before everything after every participant's `wait`, which is
//!   precisely the barrier's guarantee. HiPa's dedicated compute workers
//!   synchronise through this.
//! * `shadow` — the per-element shadow state backing `SharedSlice`:
//!   last-write epoch and adaptive read state (a single epoch until two
//!   unordered readers force promotion to a full read vector clock — the
//!   FastTrack representation). Tables are
//!   pooled and generation-stamped: `SharedSlice::new` pops a table from a
//!   global free list in O(1) and bumps its generation (a slot is live only
//!   when its stamp matches), so per-phase slice construction — serve and
//!   SpMV build fresh slices every phase — costs one lock plus, at most,
//!   zeroing the *tail* a larger slice grows; never an O(len) zeroing of
//!   the whole table, which is what the old `WriterTags` did.
//!
//! With the feature off every type here still exists, but compiles down
//! to its bare substrate (a `Relaxed` counter, a plain barrier), so call
//! sites are unconditional and the instrumented build cannot drift from the
//! real one.

use std::sync::atomic::AtomicUsize;

/// FCFS work-claim counter: `claim()` hands out `0, 1, 2, …`, exactly once
/// each, to any number of racing claimants.
pub struct ClaimCounter {
    next: AtomicUsize,
    #[cfg(feature = "check-hb")]
    clock: rayon::hb::SyncClock,
}

impl Default for ClaimCounter {
    fn default() -> Self {
        ClaimCounter::new()
    }
}

impl ClaimCounter {
    pub fn new() -> ClaimCounter {
        ClaimCounter {
            next: AtomicUsize::new(0),
            #[cfg(feature = "check-hb")]
            clock: rayon::hb::SyncClock::new(),
        }
    }

    /// Claims the next index.
    #[inline]
    pub fn claim(&self) -> usize {
        // ordering: relaxed via `CLAIM_ORDERING` (FCFS claim counter — only
        // uniqueness of the claimed index matters; results become visible
        // through the enclosing scope's join). Under the checker feature the
        // constant upgrades to `AcqRel` and the claim takes a matching
        // vector-clock edge, so the modeled ordering exists on the hardware.
        let i = self.next.fetch_add(1, rayon::hb::CLAIM_ORDERING);
        #[cfg(feature = "check-hb")]
        self.clock.rel_acq();
        i
    }
}

/// `std::sync::Barrier` with a vector-clock edge under the checker
/// feature: each participant releases its clock before waiting and
/// acquires the merged clock after, so pre-barrier events of *all*
/// participants happen-before post-barrier events of all participants.
/// Without the feature this is exactly a `std::sync::Barrier`.
pub struct TrackedBarrier {
    inner: std::sync::Barrier,
    #[cfg(feature = "check-hb")]
    clock: rayon::hb::SyncClock,
}

impl TrackedBarrier {
    pub fn new(n: usize) -> TrackedBarrier {
        TrackedBarrier {
            inner: std::sync::Barrier::new(n),
            #[cfg(feature = "check-hb")]
            clock: rayon::hb::SyncClock::new(),
        }
    }

    pub fn wait(&self) -> std::sync::BarrierWaitResult {
        // All `release`s complete before the barrier opens, so every
        // participant's `acquire` below absorbs every participant's past.
        #[cfg(feature = "check-hb")]
        self.clock.release();
        let r = self.inner.wait();
        #[cfg(feature = "check-hb")]
        self.clock.acquire();
        r
    }
}

/// Per-element shadow state (write epochs, adaptive read state) and the
/// generation-stamped table pool. Only `SharedSlice` talks to this.
#[cfg(feature = "check-hb")]
pub(crate) mod shadow {
    use rayon::hb;
    use std::sync::Mutex;

    /// Read state of one element: FastTrack's adaptive
    /// representation — a single epoch while reads are totally ordered,
    /// promoted to a full vector clock on the first pair of concurrent
    /// readers.
    #[derive(Default)]
    enum ReadState {
        #[default]
        None,
        Epoch(u32, u64),
        Clock(hb::VClock),
    }

    #[derive(Default)]
    struct Slot {
        /// Matches the owning table's generation when this slot is live;
        /// any other value means "untouched this lifetime".
        gen: u64,
        /// Epoch `(tid, clk)` of the last write this slice lifetime.
        write: Option<(u32, u64)>,
        read: ReadState,
    }

    /// One shadow table: a generation stamp plus one mutex-guarded slot per
    /// element. Pooled in a process-wide free list; see [`ShadowTable::acquire`].
    #[derive(Default)]
    pub(crate) struct ShadowTable {
        gen: u64,
        slots: Vec<Mutex<Slot>>,
    }

    /// Free list of retired tables; bounded so pathological slice churn
    /// cannot hoard memory.
    static POOL: Mutex<Vec<ShadowTable>> = Mutex::new(Vec::new());
    const POOL_CAP: usize = 16;

    /// Ignore mutex poisoning throughout: a detected race panics while the
    /// reporting thread owns a slot lock, and the shadow state stays valid
    /// regardless (generation stamps gate every slot).
    fn unpoison<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
        r.unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    impl ShadowTable {
        /// Pops a pooled table (or starts an empty one), bumps its
        /// generation — invalidating every recycled slot in O(1) — and
        /// grows it to `len` slots if needed (zeroing only the new tail).
        pub(crate) fn acquire(len: usize) -> ShadowTable {
            let mut t = unpoison(POOL.lock()).pop().unwrap_or_default();
            t.gen += 1;
            if t.slots.len() < len {
                t.slots.resize_with(len, Mutex::default);
            }
            t
        }

        /// Returns a table to the free list (dropped if the list is full).
        pub(crate) fn release(t: ShadowTable) {
            if t.slots.is_empty() {
                return;
            }
            let mut pool = unpoison(POOL.lock());
            if pool.len() < POOL_CAP {
                pool.push(t);
            }
        }

        fn slot(&self, i: usize) -> std::sync::MutexGuard<'_, Slot> {
            let mut s = unpoison(self.slots[i].lock());
            if s.gen != self.gen {
                *s = Slot { gen: self.gen, ..Slot::default() };
            }
            s
        }

        /// FastTrack write rule: a prior write or read whose epoch this
        /// thread's clock does not cover is a race; then record this write
        /// and clear the read state (future conflicts will be caught
        /// against the fresher write epoch).
        pub(crate) fn on_write(&self, i: usize) {
            let mut slot = self.slot(i);
            let (me, now) = hb::my_epoch();
            if let Some((tid, clk)) = slot.write {
                if !hb::clock_covers(tid, clk) {
                    let msg = format!(
                        "check-disjoint: overlapping SharedSlice write at index {i}: thread \
                         tag {me} ({:?}) wrote an element first written by thread tag {tid} \
                         with no happens-before edge between the writes — prior write clock \
                         t{tid}@{clk}, this thread's clock {} — the disjoint-write contract \
                         (crates/core/src/disjoint.rs) is violated",
                        std::thread::current().id(),
                        hb::my_clock().render(),
                    );
                    drop(slot);
                    panic!("{msg}");
                }
            }
            let racy_read = match &slot.read {
                ReadState::None => None,
                ReadState::Epoch(t, c) => (!hb::clock_covers(*t, *c)).then_some((*t, *c)),
                ReadState::Clock(vc) => vc.iter().find(|&(t, c)| !hb::clock_covers(t, c)),
            };
            if let Some((t, c)) = racy_read {
                let msg = format!(
                    "check-hb: read-write race on SharedSlice index {i}: thread tag {me} \
                     ({:?}) wrote an element read by thread tag {t} with no happens-before \
                     edge between the accesses — read clock t{t}@{c}, this thread's clock \
                     {} — the element needed a synchronization edge (scope join, barrier, \
                     or claim cursor) between the read and the write",
                    std::thread::current().id(),
                    hb::my_clock().render(),
                );
                drop(slot);
                panic!("{msg}");
            }
            slot.read = ReadState::None;
            slot.write = Some((me, now));
        }

        /// FastTrack read rule: a prior write this thread's clock does not
        /// cover is a race; then fold this read into the adaptive read
        /// state (same-epoch or ordered reads stay a single epoch; a
        /// concurrent second reader promotes to a read vector clock).
        pub(crate) fn on_read(&self, i: usize) {
            let mut slot = self.slot(i);
            let (me, now) = hb::my_epoch();
            if let Some((tid, clk)) = slot.write {
                if !hb::clock_covers(tid, clk) {
                    let msg = format!(
                        "check-hb: write-read race on SharedSlice index {i}: thread tag {me} \
                         ({:?}) read an element written by thread tag {tid} with no \
                         happens-before edge between the accesses — write clock t{tid}@{clk}, \
                         this thread's clock {} — the element needed a synchronization edge \
                         (scope join, barrier, or claim cursor) between the write and the read",
                        std::thread::current().id(),
                        hb::my_clock().render(),
                    );
                    drop(slot);
                    panic!("{msg}");
                }
            }
            slot.read = match std::mem::take(&mut slot.read) {
                ReadState::None => ReadState::Epoch(me, now),
                ReadState::Epoch(t, c) if t == me || hb::clock_covers(t, c) => {
                    ReadState::Epoch(me, now)
                }
                ReadState::Epoch(t, c) => {
                    let mut vc = hb::VClock::new();
                    vc.set_max(t, c);
                    vc.set_max(me, now);
                    ReadState::Clock(vc)
                }
                ReadState::Clock(mut vc) => {
                    vc.set_max(me, now);
                    ReadState::Clock(vc)
                }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_counter_hands_out_unique_indices() {
        let c = ClaimCounter::new();
        let mut seen = Vec::new();
        loop {
            let i = c.claim();
            if i >= 100 {
                break;
            }
            seen.push(i);
        }
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn tracked_barrier_is_a_barrier() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 4;
        let barrier = TrackedBarrier::new(n);
        let before = AtomicUsize::new(0);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap();
        pool.scope(|s| {
            for _ in 0..n {
                s.spawn(|_| {
                    // ordering: relaxed (test tally; the barrier orders it).
                    before.fetch_add(1, Ordering::Relaxed);
                    barrier.wait();
                    // ordering: relaxed (read after the barrier).
                    assert_eq!(before.load(Ordering::Relaxed), n);
                });
            }
        });
    }
}
