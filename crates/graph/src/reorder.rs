//! Graph reordering — the §2.1 toolbox for *temporal* locality.
//!
//! The paper's background discusses concentrating hot vertices through
//! reordering (its reference \[9\], "A closer look at lightweight graph
//! reordering"). These utilities produce relabelled graphs so the effect of
//! vertex order on the partition census and on engine performance can be
//! studied (see the `reordering` example and bench):
//!
//! * [`by_degree_desc`] — classic hub clustering: highest-degree vertices
//!   first, which packs the hot working set into the first partitions;
//! * [`random_permutation`] — the adversarial baseline, destroying any
//!   locality present in the input order;
//! * [`by_partition_locality`] — a greedy lightweight pass that keeps each
//!   vertex close to its most-frequent neighbour block (a cheap stand-in for
//!   community-preserving orders).

use crate::{Csr, EdgeList, VertexId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A vertex relabelling: `perm[old] = new`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    forward: Vec<VertexId>,
}

impl Permutation {
    /// Builds from a forward mapping (`perm[old] = new`).
    ///
    /// # Panics
    /// Panics if the mapping is not a bijection on `0..n`.
    pub fn new(forward: Vec<VertexId>) -> Self {
        let n = forward.len();
        let mut seen = vec![false; n];
        for &t in &forward {
            assert!((t as usize) < n && !seen[t as usize], "not a permutation");
            seen[t as usize] = true;
        }
        Permutation { forward }
    }

    pub fn identity(n: usize) -> Self {
        Permutation { forward: (0..n as u32).collect() }
    }

    #[inline]
    pub fn map(&self, v: VertexId) -> VertexId {
        self.forward[v as usize]
    }

    pub fn len(&self) -> usize {
        self.forward.len()
    }

    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// The inverse mapping (`inv[new] = old`).
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0 as VertexId; self.forward.len()];
        for (old, &new) in self.forward.iter().enumerate() {
            inv[new as usize] = old as VertexId;
        }
        Permutation { forward: inv }
    }

    /// Applies the relabelling to an edge list.
    pub fn apply(&self, el: &EdgeList) -> EdgeList {
        assert_eq!(el.num_vertices(), self.forward.len(), "size mismatch");
        EdgeList::new(
            el.num_vertices(),
            el.edges().iter().map(|e| crate::Edge::new(self.map(e.src), self.map(e.dst))).collect(),
        )
    }
}

/// Degree-descending order: hubs get the smallest ids (out-degree by
/// default since the paper partitions by out-edges; ties keep input order,
/// so the result is deterministic).
pub fn by_degree_desc(csr: &Csr) -> Permutation {
    let n = csr.num_vertices();
    let mut order: Vec<VertexId> = (0..n as u32).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(csr.degree(v)), v));
    // order[new] = old  ->  forward[old] = new.
    let mut forward = vec![0 as VertexId; n];
    for (new, &old) in order.iter().enumerate() {
        forward[old as usize] = new as VertexId;
    }
    Permutation::new(forward)
}

/// Cagra-style frequency sub-clustering *within* partition boundaries
/// ("Making Caches Work for Graph Analytics", arXiv 1608.01362): inside
/// each block of `verts_per_partition` consecutive vertices, the hottest
/// vertices (highest degree in `csr` — pass the in-CSR so "hot" means
/// "accumulated into most often" for pull/gather kernels) are packed at
/// the block's front, ties keeping input order. Unlike [`by_degree_desc`]
/// this never moves a vertex across a partition boundary, so the partition
/// census (intra/inter split, bin sizes) is *identical* to the input
/// order's — only the access pattern within each partition's working set
/// changes, concentrating the frequently-touched accumulator lines at the
/// front where they stay resident in L1/L2.
pub fn by_frequency_clusters(csr: &Csr, verts_per_partition: usize) -> Permutation {
    let n = csr.num_vertices();
    let vpp = verts_per_partition.max(1);
    let mut forward = vec![0 as VertexId; n];
    let mut block: Vec<VertexId> = Vec::with_capacity(vpp);
    let mut start = 0usize;
    while start < n {
        let end = (start + vpp).min(n);
        block.clear();
        block.extend(start as u32..end as u32);
        block.sort_by_key(|&v| (std::cmp::Reverse(csr.degree(v)), v));
        for (i, &old) in block.iter().enumerate() {
            forward[old as usize] = (start + i) as VertexId;
        }
        start = end;
    }
    Permutation::new(forward)
}

/// Uniformly random relabelling (deterministic in `seed`).
pub fn random_permutation(n: usize, seed: u64) -> Permutation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut forward: Vec<VertexId> = (0..n as u32).collect();
    use rand::seq::SliceRandom;
    forward.shuffle(&mut rng);
    Permutation::new(forward)
}

/// Greedy locality order: vertices are grouped by the block (of
/// `block_size` vertices in the *input* order) where most of their
/// out-neighbours live, then concatenated block-major. Cheap (one pass over
/// the edges), and improves the intra-edge share on graphs with latent
/// community structure.
pub fn by_partition_locality(csr: &Csr, block_size: usize) -> Permutation {
    let n = csr.num_vertices();
    let bs = block_size.max(1);
    let blocks = n.div_ceil(bs).max(1);
    // Dominant neighbour block per vertex.
    let mut counts = vec![0u32; blocks];
    let mut home = vec![0u32; n];
    for v in 0..n as u32 {
        counts.iter_mut().for_each(|c| *c = 0);
        let mut best = (v as usize / bs) as u32; // default: own block
        let mut best_count = 0;
        for &t in csr.neighbors(v) {
            let b = t as usize / bs;
            counts[b] += 1;
            if counts[b] > best_count {
                best_count = counts[b];
                best = b as u32;
            }
        }
        home[v as usize] = best;
    }
    // Stable counting sort by home block.
    let mut order: Vec<VertexId> = (0..n as u32).collect();
    order.sort_by_key(|&v| home[v as usize]);
    let mut forward = vec![0 as VertexId; n];
    for (new, &old) in order.iter().enumerate() {
        forward[old as usize] = new as VertexId;
    }
    Permutation::new(forward)
}

/// BFS cluster growth — a lightweight stand-in for the "sophisticated"
/// partitioning preprocessors of the paper's §5 (METIS/KaHIP/PuLP family):
/// grows clusters of at most `cluster_verts` vertices by breadth-first
/// expansion over the *undirected* neighbourhood, then relabels
/// cluster-major. One pass over the edges; recovers community structure far
/// better than the greedy per-vertex pass on graphs with latent locality.
pub fn by_cluster_growth(csr: &Csr, cluster_verts: usize) -> Permutation {
    let n = csr.num_vertices();
    let cap = cluster_verts.max(1);
    // Undirected adjacency for the growth (direction is irrelevant to
    // communication volume).
    let undirected = {
        let mut edges = Vec::with_capacity(2 * csr.num_edges());
        for (s, d) in csr.iter_edges() {
            edges.push(crate::Edge::new(s, d));
            edges.push(crate::Edge::new(d, s));
        }
        Csr::from_edges(n, &edges)
    };
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for seed in 0..n as u32 {
        if visited[seed as usize] {
            continue;
        }
        // Grow one cluster from this seed.
        let mut grown = 0usize;
        visited[seed as usize] = true;
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            grown += 1;
            if grown >= cap {
                // Cluster is full: anything left in the queue seeds later
                // clusters (keep their visited mark; push to order lazily
                // via a fresh growth from them).
                while let Some(rest) = queue.pop_front() {
                    visited[rest as usize] = false;
                }
                break;
            }
            for &u in undirected.neighbors(v) {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    let mut forward = vec![0 as VertexId; n];
    for (new, &old) in order.iter().enumerate() {
        forward[old as usize] = new as VertexId;
    }
    Permutation::new(forward)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::partition_census;
    use crate::DiGraph;

    #[test]
    fn permutation_roundtrip() {
        let p = Permutation::new(vec![2, 0, 1]);
        let inv = p.inverse();
        for v in 0..3u32 {
            assert_eq!(inv.map(p.map(v)), v);
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_non_bijection() {
        Permutation::new(vec![0, 0, 1]);
    }

    #[test]
    fn apply_preserves_structure() {
        let el = EdgeList::from_pairs([(0, 1), (1, 2), (2, 0)]);
        let p = Permutation::new(vec![1, 2, 0]);
        let out = p.apply(&el);
        // Same cycle, relabelled.
        let g = DiGraph::from_edge_list(&out);
        for v in 0..3u32 {
            assert_eq!(g.out_degree(v), 1);
            assert_eq!(g.in_degree(v), 1);
        }
    }

    #[test]
    fn degree_desc_puts_hubs_first() {
        let g = crate::datasets::small_test_graph(44);
        let p = by_degree_desc(g.out_csr());
        let re = DiGraph::from_edge_list(&p.apply(&EdgeList::new(
            g.num_vertices(),
            g.out_csr().iter_edges().map(|(s, d)| crate::Edge::new(s, d)).collect(),
        )));
        // New vertex 0 has the max degree; degrees are non-increasing.
        let degs: Vec<u32> = (0..re.num_vertices() as u32).map(|v| re.out_degree(v)).collect();
        assert!(degs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn frequency_clusters_stay_inside_partitions() {
        let g = crate::datasets::small_test_graph(46);
        let n = g.num_vertices();
        for vpp in [1usize, 7, 64, 1024, n + 5] {
            let p = by_frequency_clusters(g.in_csr(), vpp);
            for v in 0..n as u32 {
                assert_eq!(
                    p.map(v) as usize / vpp,
                    v as usize / vpp,
                    "vpp={vpp} moved v{v} across a partition boundary"
                );
            }
            // Within each block, degrees are non-increasing in the new order.
            let inv = p.inverse();
            for b in 0..n.div_ceil(vpp) {
                let lo = b * vpp;
                let hi = ((b + 1) * vpp).min(n);
                let degs: Vec<u32> =
                    (lo..hi).map(|new| g.in_csr().degree(inv.map(new as u32))).collect();
                assert!(degs.windows(2).all(|w| w[0] >= w[1]), "block {b} not sorted: {degs:?}");
            }
        }
    }

    #[test]
    fn frequency_clusters_preserve_partition_census() {
        // The whole point: hub packing without touching the intra/inter
        // split that the partition plan depends on.
        let g = crate::datasets::small_test_graph(47);
        let el = EdgeList::new(
            g.num_vertices(),
            g.out_csr().iter_edges().map(|(s, d)| crate::Edge::new(s, d)).collect(),
        );
        let vpp = 256;
        let p = by_frequency_clusters(g.in_csr(), vpp);
        let before = partition_census(g.out_csr(), vpp);
        let after = partition_census(&Csr::from_edge_list(&p.apply(&el)), vpp);
        assert_eq!(before.num_parts, after.num_parts);
        assert_eq!(before.intra_total, after.intra_total);
        assert_eq!(before.inter_total, after.inter_total);
    }

    #[test]
    fn random_permutation_is_deterministic() {
        assert_eq!(random_permutation(100, 5), random_permutation(100, 5));
        assert_ne!(random_permutation(100, 5), random_permutation(100, 6));
    }

    #[test]
    fn cluster_growth_covers_every_vertex_once() {
        let g = crate::datasets::small_test_graph(45);
        let p = by_cluster_growth(g.out_csr(), 64);
        assert_eq!(p.len(), g.num_vertices());
        // Permutation::new already validated bijectivity; also smoke-apply.
        let el = EdgeList::new(
            g.num_vertices(),
            g.out_csr().iter_edges().map(|(s, d)| crate::Edge::new(s, d)).collect(),
        );
        assert_eq!(p.apply(&el).num_edges(), g.num_edges());
    }

    #[test]
    fn cluster_growth_beats_greedy_on_shuffled_communities() {
        use crate::gen::{zipf_graph, ZipfParams};
        let el = zipf_graph(
            &ZipfParams {
                num_vertices: 4096,
                mean_degree: 8.0,
                locality: 0.9,
                block_size: 256,
                target_exponent: 0.0,
                ..Default::default()
            },
            7,
        );
        let shuffled = random_permutation(el.num_vertices(), 13).apply(&el);
        let csr = Csr::from_edge_list(&shuffled);
        let intra = |p: &Permutation| {
            let c = partition_census(&Csr::from_edge_list(&p.apply(&shuffled)), 256);
            c.intra_total
        };
        let base = partition_census(&csr, 256).intra_total;
        let greedy = intra(&by_partition_locality(&csr, 256));
        let cluster = intra(&by_cluster_growth(&csr, 256));
        assert!(cluster > base, "cluster {cluster} vs shuffled {base}");
        assert!(cluster > greedy, "cluster {cluster} vs greedy {greedy}");
    }

    #[test]
    fn locality_order_improves_intra_share_on_shuffled_communities() {
        // Build a block-local graph, destroy its order, then recover
        // locality with the greedy pass.
        use crate::gen::{zipf_graph, ZipfParams};
        let el = zipf_graph(
            &ZipfParams {
                num_vertices: 4096,
                mean_degree: 8.0,
                locality: 0.9,
                block_size: 256,
                target_exponent: 0.0,
                ..Default::default()
            },
            3,
        );
        let shuffled = random_permutation(el.num_vertices(), 9).apply(&el);
        let csr_shuffled = Csr::from_edge_list(&shuffled);
        let before = partition_census(&csr_shuffled, 256).intra_total;

        let p = by_partition_locality(&csr_shuffled, 256);
        let recovered = Csr::from_edge_list(&p.apply(&shuffled));
        let after = partition_census(&recovered, 256).intra_total;
        assert!(after > before, "locality pass should increase intra edges: {before} -> {after}");
    }
}
