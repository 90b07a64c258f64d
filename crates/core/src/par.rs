//! Deterministic work-sharing helpers for the preprocessing pipeline.
//!
//! Everything here is *output-deterministic*: results are bit-identical for
//! any thread count, because work is split into fixed index ranges whose
//! per-range computation does not depend on scheduling. The PCPM layout
//! builder, the inverse-degree arrays, and the degree-prefix construction
//! all route through these helpers behind the `build_threads` knob on
//! [`NativeOpts`](crate::runs::NativeOpts) /
//! [`SimOpts`](crate::runs::SimOpts).
//!
//! disjointness: chunked-claim plan — `run_indexed` hands each chunk index
//! to exactly one worker, and every `SharedSlice` write below is confined to
//! the claimed chunk's fixed index range; each slice lives for one
//! `run_indexed` call, so elements have a single writer per slice lifetime.

use crate::disjoint::SharedSlice;
use crate::hb::ClaimCounter;
use hipa_graph::DiGraph;

/// Vertices per parallel work chunk for element-wise tabulation.
const TAB_CHUNK: usize = 16 * 1024;

/// Runs `f(i)` for every `i in 0..items`, work-shared over at most
/// `threads` workers pulling indices from a shared counter. Inline when one
/// worker suffices. `f` must tolerate any execution order; callers get
/// determinism by making each index's work independent.
///
/// The `workers` claim-loop jobs land on the rayon shim's persistent pool
/// (no OS threads are spawned per call since the shim grew resident
/// workers), and the job count — not the pool width — is what bounds this
/// helper's concurrency, so the `threads` knob holds on any pool.
pub fn run_indexed(items: usize, threads: usize, f: impl Fn(usize) + Sync) {
    let workers = threads.min(items);
    if workers <= 1 {
        for i in 0..items {
            f(i);
        }
        return;
    }
    let next = ClaimCounter::new();
    let next = &next;
    let f = &f;
    rayon::scope(|s| {
        for _ in 0..workers {
            s.spawn(move |_| loop {
                // ordering: see `ClaimCounter::claim` — relaxed uniqueness
                // normally, an AcqRel + vector-clock edge under the checker
                // features; results become visible via the scope join.
                let i = next.claim();
                if i >= items {
                    break;
                }
                f(i);
            });
        }
    });
}

/// Fills a fresh `Vec` with `f(i)` for `i in 0..n`, parallel over fixed
/// chunks. Bit-identical to `(0..n).map(f).collect()` since every element is
/// computed independently.
pub fn par_tabulate<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Copy + Default + Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    let mut out = vec![T::default(); n];
    {
        let s = SharedSlice::new(&mut out);
        let chunks = n.div_ceil(TAB_CHUNK).max(1);
        run_indexed(chunks, threads, |c| {
            let lo = c * TAB_CHUNK;
            let hi = ((c + 1) * TAB_CHUNK).min(n);
            for i in lo..hi {
                // SAFETY: chunk index ranges are disjoint.
                unsafe { s.write(i, f(i)) };
            }
        });
    }
    out
}

/// `1/outdeg` per vertex (0 for dangling vertices), computed on
/// `threads` workers.
pub fn inv_deg_parallel(g: &DiGraph, threads: usize) -> Vec<f32> {
    par_tabulate(g.num_vertices(), threads, |v| {
        let d = g.out_degree(v as u32);
        if d == 0 {
            0.0
        } else {
            1.0 / d as f32
        }
    })
}

/// Parallel degree-prefix construction, bit-identical to
/// [`hipa_partition::degree_prefix`]: per-block sums in parallel, a
/// sequential exclusive scan over the block sums, then each block's interior
/// prefix filled in parallel from its exact starting value. (u64 addition is
/// associative, so regrouping cannot change any prefix entry.)
pub fn degree_prefix_parallel(degrees: &[u32], threads: usize) -> Vec<u64> {
    let n = degrees.len();
    if threads.max(1) == 1 || n < 2 * TAB_CHUNK {
        return hipa_partition::degree_prefix(degrees);
    }
    let chunks = n.div_ceil(TAB_CHUNK);
    let mut block_sums = vec![0u64; chunks];
    {
        let sums = SharedSlice::new(&mut block_sums);
        run_indexed(chunks, threads, |c| {
            let lo = c * TAB_CHUNK;
            let hi = ((c + 1) * TAB_CHUNK).min(n);
            let s: u64 = degrees[lo..hi].iter().map(|&d| d as u64).sum();
            // SAFETY: one writer per block.
            unsafe { sums.write(c, s) };
        });
    }
    let mut starts = vec![0u64; chunks];
    let mut acc = 0u64;
    for c in 0..chunks {
        starts[c] = acc;
        acc += block_sums[c];
    }
    let mut prefix = vec![0u64; n + 1];
    prefix[n] = acc;
    {
        let p = SharedSlice::new(&mut prefix);
        let starts = &starts;
        run_indexed(chunks, threads, |c| {
            let lo = c * TAB_CHUNK;
            let hi = ((c + 1) * TAB_CHUNK).min(n);
            let mut acc = starts[c];
            for v in lo..hi {
                // SAFETY: blocks write disjoint prefix ranges; prefix[n] is
                // written before the scope and never touched here (hi <= n).
                unsafe { p.write(v, acc) };
                acc += degrees[v] as u64;
            }
        });
    }
    prefix
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tabulate_matches_map_collect() {
        for threads in [1usize, 2, 5] {
            let got = par_tabulate(40_000, threads, |i| (i as u64).wrapping_mul(0x9e3779b9));
            let want: Vec<u64> = (0..40_000).map(|i| (i as u64).wrapping_mul(0x9e3779b9)).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn degree_prefix_parallel_matches_sequential() {
        let degs: Vec<u32> = (0..100_000u32).map(|i| (i * 7919) % 23).collect();
        let want = hipa_partition::degree_prefix(&degs);
        for threads in [1usize, 2, 3, 8] {
            assert_eq!(degree_prefix_parallel(&degs, threads), want, "threads={threads}");
        }
        // Small inputs route through the sequential path.
        assert_eq!(
            degree_prefix_parallel(&degs[..100], 4),
            hipa_partition::degree_prefix(&degs[..100])
        );
        assert_eq!(degree_prefix_parallel(&[], 4), vec![0]);
    }

    #[test]
    fn run_indexed_covers_every_index() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        run_indexed(1000, 4, |i| {
            // ordering: relaxed (test tally; the scope join publishes it).
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        // ordering: relaxed (read after join — no concurrent writers left).
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn inv_deg_handles_dangling() {
        let g = DiGraph::from_edge_list(&hipa_graph::gen::path(3));
        assert_eq!(inv_deg_parallel(&g, 1), vec![1.0, 1.0, 0.0]);
    }
}
