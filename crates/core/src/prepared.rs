//! Resident preprocessed state for repeated partition-centric passes.
//!
//! The paper's §3.3 persistent-thread model amortizes preprocessing across
//! iterations; [`PcpmPrepared`] is the data half of that contract for the
//! extension algorithms and the rank server. It bundles everything a sweep
//! needs that depends only on the graph — each destination's source list in
//! the partition-centric summation order, the per-thread destination ranges,
//! the inverse out-degrees and the dangling-vertex list — so callers
//! (iterative personalized PageRank, `hipa-serve`) build it **once** and run
//! many sweeps against it instead of paying full preprocessing per call.
//!
//! # The summation order
//!
//! The partition-centric push (§3.2–3.4) adds into a destination `v` of
//! partition `q` first its intra-edges, sources in ascending order (the
//! scatter pass walks `q`'s vertices in order), then its inbox messages,
//! whose slots are ordered by source partition, then source vertex — so
//! every other in-neighbour, again ascending. A multi-edge adds once per
//! copy. [`PcpmPrepared::sources_of`] lists exactly that sequence, so a pull
//! that sums it from `0.0` rounds every element the way the push did, for
//! any width, thread count and partition size.

use crate::par::inv_deg_parallel;
use crate::pcpm::count_layout_build;
use hipa_graph::{Csr, DiGraph};
use std::ops::Range;

/// Immutable per-graph preprocessing shared by every sweep over one graph
/// snapshot. Build with [`PcpmPrepared::build`]; share via `Arc`.
#[derive(Debug, Clone)]
pub struct PcpmPrepared {
    /// Source lists, CSR-style: the sources of `v` are
    /// `pull_src[pull_offsets[v]..pull_offsets[v + 1]]`, in the push
    /// summation order (module docs). One build, counted by
    /// [`crate::pcpm::layout_builds_total`].
    pub pull_offsets: Vec<u64>,
    pub pull_src: Vec<u32>,
    /// Destination ranges owned by each of the `threads` workers:
    /// contiguous, disjoint, ascending and covering `0..n`, balanced by
    /// [`dst_ranges`].
    pub thread_dsts: Vec<Range<usize>>,
    /// Worker count the destination ranges were planned for.
    pub threads: usize,
    /// Partition size in vertices.
    pub verts_per_partition: usize,
    /// `1/outdeg` per vertex (0 for dangling vertices).
    pub inv_deg: Vec<f32>,
    /// Dangling vertices in ascending order — summing rank mass over this
    /// list visits vertices in the same order as a full `0..n` scan, so
    /// results stay bitwise identical to the scan it replaces.
    pub dangling: Vec<u32>,
    pub num_vertices: usize,
    pub num_edges: usize,
}

impl PcpmPrepared {
    /// Preprocesses `g` for `threads`-worker sweeps with
    /// `verts_per_partition`-vertex cache partitions. This is the expensive
    /// step (source lists + ranges + degree tables) that resident callers
    /// pay once.
    pub fn build(g: &DiGraph, threads: usize, verts_per_partition: usize) -> Self {
        let threads = threads.max(1);
        let vpp = verts_per_partition.max(1);
        count_layout_build();
        let (pull_offsets, pull_src) = pull_lists(g.out_csr(), vpp);
        let thread_dsts = dst_ranges(&pull_offsets, threads);
        PcpmPrepared {
            pull_offsets,
            pull_src,
            thread_dsts,
            threads,
            verts_per_partition: vpp,
            inv_deg: inv_deg_parallel(g, threads),
            dangling: g.dangling_vertices(),
            num_vertices: g.num_vertices(),
            num_edges: g.num_edges(),
        }
    }

    /// The sources of destination `v`, in the push summation order.
    #[inline]
    pub fn sources_of(&self, v: usize) -> &[u32] {
        &self.pull_src[self.pull_offsets[v] as usize..self.pull_offsets[v + 1] as usize]
    }
}

/// Builds every destination's source list from the out-CSR: one counting
/// pass, then two placement passes over the sources in ascending order —
/// first each source's targets inside its own `vpp`-vertex partition (the
/// push's intra pass), then its other targets (the push's inbox).
fn pull_lists(csr: &Csr, vpp: usize) -> (Vec<u64>, Vec<u32>) {
    let n = csr.num_vertices();
    let mut offsets = vec![0u64; n + 1];
    for &t in csr.targets_raw() {
        offsets[t as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut src = vec![0u32; csr.num_edges()];
    let mut cursor = offsets[..n].to_vec();
    for intra in [true, false] {
        for u in 0..n as u32 {
            let lo = u as usize / vpp * vpp;
            for &t in csr.neighbors(u) {
                // Wrapping: a target below `lo` lands far past `vpp`.
                if ((t as usize).wrapping_sub(lo) < vpp) == intra {
                    let c = &mut cursor[t as usize];
                    src[*c as usize] = u;
                    *c += 1;
                }
            }
        }
    }
    (offsets, src)
}

/// Splits the destinations `0..n` (`offsets` has `n + 1` entries, as
/// [`PcpmPrepared::pull_offsets`]) into `threads` contiguous ranges of
/// about equal cost, a destination costing its list length plus one for
/// its output write. Each boundary is the one whose preceding cost lies
/// nearest its share of the total, so a dominant list ends up in a range
/// of its own. Always returns `threads` ranges; some are empty when there
/// are fewer destinations than threads or one list dominates.
pub fn dst_ranges(offsets: &[u64], threads: usize) -> Vec<Range<usize>> {
    let threads = threads.max(1);
    let n = offsets.len().saturating_sub(1);
    // Cost of the destinations before `v`: strictly increasing in `v`.
    let cost = |v: usize| offsets[v] + v as u64;
    let total = cost(n);
    let mut bounds = vec![0usize];
    for t in 1..threads {
        let target = total * t as u64 / threads as u64;
        let (mut lo, mut hi) = (bounds[t - 1], n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if cost(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        // `lo` is the first boundary at or past the target; its predecessor
        // may lie nearer.
        if lo > bounds[t - 1] && target - cost(lo - 1) < cost(lo) - target {
            lo -= 1;
        }
        bounds.push(lo);
    }
    bounds.push(n);
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcpm::layout_builds_total;
    use hipa_graph::EdgeList;

    fn ranges_cover(r: &[Range<usize>], n: usize, threads: usize) {
        assert_eq!(r.len(), threads);
        let mut covered = 0usize;
        for (i, r) in r.iter().enumerate() {
            assert_eq!(r.start, covered, "range {i} not contiguous");
            assert!(r.start <= r.end, "range {i} reversed");
            covered = r.end;
        }
        assert_eq!(covered, n);
    }

    #[test]
    fn prepared_matches_graph_shape() {
        let g = hipa_graph::datasets::small_test_graph(60);
        let p = PcpmPrepared::build(&g, 4, 128);
        assert_eq!(p.num_vertices, g.num_vertices());
        assert_eq!(p.num_edges, g.num_edges());
        assert_eq!(p.inv_deg.len(), g.num_vertices());
        assert_eq!(p.pull_src.len(), g.num_edges());
        ranges_cover(&p.thread_dsts, g.num_vertices(), 4);
        // Each list is a permutation of the in-neighbours.
        for v in 0..g.num_vertices() {
            let mut got = p.sources_of(v).to_vec();
            got.sort_unstable();
            assert_eq!(got, g.in_csr().neighbors(v as u32), "v{v}");
        }
        // Dangling list is ascending and matches out-degrees.
        assert!(p.dangling.windows(2).all(|w| w[0] < w[1]));
        for &v in &p.dangling {
            assert_eq!(g.out_degree(v), 0);
        }
    }

    #[test]
    fn sources_list_intra_first_then_the_rest() {
        // vpp 2: partitions {0,1} {2,3}. Destination 1 hears from 3 (inter)
        // and from 0 twice and 1 (intra), so intra sources come first.
        let el = EdgeList::from_pairs([(3, 1), (0, 1), (1, 1), (0, 1), (2, 1), (3, 3)]);
        let p = PcpmPrepared::build(&DiGraph::from_edge_list(&el), 1, 2);
        assert_eq!(p.sources_of(1), &[0, 0, 1, 2, 3]);
        assert_eq!(p.sources_of(3), &[3]);
        assert!(p.sources_of(0).is_empty() && p.sources_of(2).is_empty());
    }

    #[test]
    fn dst_ranges_split_edge_cases() {
        // n = 0: every range empty.
        ranges_cover(&dst_ranges(&[0], 3), 0, 3);
        assert!(dst_ranges(&[0], 3).iter().all(|r| r.is_empty()));
        // n < threads: each vertex at most once, the rest empty.
        let r = dst_ranges(&[0, 1, 2], 4);
        ranges_cover(&r, 2, 4);
        assert_eq!(r.iter().filter(|r| !r.is_empty()).count(), 2);
        // Every edge into one vertex: that hub gets a range to itself, and
        // the edgeless vertices fill the others.
        let n = 100usize;
        for hub in [0, n / 2, n - 1] {
            let offsets: Vec<u64> = (0..=n).map(|v| if v <= hub { 0 } else { 1000 }).collect();
            let r = dst_ranges(&offsets, 3);
            ranges_cover(&r, n, 3);
            assert!(r.contains(&(hub..hub + 1)), "hub {hub}: {r:?}");
        }
        // One thread owns everything.
        assert_eq!(dst_ranges(&[0, 5, 9], 1), vec![0..2]);
    }

    #[test]
    fn build_bumps_layout_counter_once() {
        let g = hipa_graph::datasets::small_test_graph(61);
        let before = layout_builds_total();
        let _p = PcpmPrepared::build(&g, 2, 64);
        let after = layout_builds_total();
        assert_eq!(after - before, 1, "one prepared build = one layout build");
    }
}
