//! The hierarchical partitioning plan of HiPa (paper §3.1–§3.2).
//!
//! Level 1 (Eq. 3): edge-balanced NUMA boundaries rounded *up* to whole
//! cache partitions of |P| vertices; the last node absorbs the leftover.
//! Level 2 (Eq. 4): inside each node, contiguous partition *groups* are
//! assigned to threads so every group carries ≈ |Eᵢ|/C edges (the loosened
//! condition Σ D(v) ≥ |Eᵢ|/C from the end of §3.2).
//! Below the partition ([`hipa_plan_shared`]): §3.2 assumes many more
//! partitions than threads. On a node with fewer, the threads share
//! partitions instead, each owning one contiguous destination sub-range
//! balanced by in-edges ([`Share`]).

use crate::balanced::edge_balanced_with_prefix;
use crate::{degree_prefix, edges_in};
use std::ops::Range;

/// One thread's slice of a node: a contiguous group of cache partitions, or
/// one destination sub-range of a shared partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadPlan {
    /// Global cache-partition indices owned by this thread (`mⱼ` many); the
    /// one shared partition when `share.of > 1`.
    pub part_range: Range<usize>,
    /// Vertices covered by those partitions; for a shared partition, the
    /// destination sub-range this thread sums into and finalises.
    pub vertex_range: Range<u32>,
    /// Out-edges carried by those vertices.
    pub edges: u64,
    /// This thread's share of `part_range` ([`Share::WHOLE`] unless the node
    /// has fewer partitions than threads).
    pub share: Share,
}

/// The level below the partition: thread `index` of the `of` consecutive
/// threads that split one partition into destination sub-ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Share {
    pub index: usize,
    pub of: usize,
}

impl Share {
    /// The thread owns its partitions whole.
    pub const WHOLE: Share = Share { index: 0, of: 1 };
}

/// One NUMA node's slice of the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodePlan {
    /// Global cache-partition indices on this node (`nᵢ` many).
    pub part_range: Range<usize>,
    /// Vertices on this node (a multiple of |P| except on the last node).
    pub vertex_range: Range<u32>,
    /// Out-edges on this node (≈ |E|/N by Eq. 2/3).
    pub edges: u64,
    /// Per-thread groups, edge-balanced by Eq. 4.
    pub threads: Vec<ThreadPlan>,
}

/// The full two-level partitioning result (Fig. 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HiPaPlan {
    /// |P| — vertices per cache partition.
    pub verts_per_partition: usize,
    pub num_vertices: usize,
    pub num_edges: u64,
    /// Total cache partitions (global, contiguous, node-aligned).
    pub num_partitions: usize,
    pub nodes: Vec<NodePlan>,
}

impl HiPaPlan {
    /// Vertex range of a global partition index.
    pub fn partition_vertices(&self, p: usize) -> Range<u32> {
        assert!(p < self.num_partitions);
        let lo = p * self.verts_per_partition;
        let hi = ((p + 1) * self.verts_per_partition).min(self.num_vertices);
        lo as u32..hi as u32
    }

    /// Global partition index owning a vertex.
    #[inline]
    pub fn partition_of(&self, v: u32) -> usize {
        v as usize / self.verts_per_partition
    }

    /// NUMA node owning a vertex.
    pub fn node_of(&self, v: u32) -> usize {
        self.nodes
            .iter()
            .position(|n| n.vertex_range.contains(&v))
            .expect("vertex outside every node range")
    }

    /// Total number of threads across all nodes.
    pub fn total_threads(&self) -> usize {
        self.nodes.iter().map(|n| n.threads.len()).sum()
    }

    /// Iterates `(node_index, thread_index_in_node, &ThreadPlan)` in global
    /// thread order (node-major — the order engines create their pools in).
    pub fn threads(&self) -> impl Iterator<Item = (usize, usize, &ThreadPlan)> {
        self.nodes
            .iter()
            .enumerate()
            .flat_map(|(ni, n)| n.threads.iter().enumerate().map(move |(ti, t)| (ni, ti, t)))
    }
}

/// Builds the hierarchical plan.
///
/// * `out_degrees` — per-vertex out-degree (the paper picks out-edges as the
///   partitioning basis, §3.1);
/// * `nodes` — NUMA node count N;
/// * `threads_per_node` — groups per node C (HiPa uses every logical core);
/// * `verts_per_partition` — |P| = partition bytes / 4.
///
/// ```
/// use hipa_partition::hipa_plan;
/// // 32 vertices of degree 3, two NUMA nodes, two threads each, |P| = 4.
/// let plan = hipa_plan(&[3; 32], 2, 2, 4);
/// assert_eq!(plan.num_partitions, 8);
/// // Uniform degrees split evenly: 4 partitions per node, 2 per thread.
/// assert!(plan.nodes.iter().all(|n| n.part_range.len() == 4));
/// assert!(plan.threads().all(|(_, _, t)| t.part_range.len() == 2));
/// ```
pub fn hipa_plan(
    out_degrees: &[u32],
    nodes: usize,
    threads_per_node: usize,
    verts_per_partition: usize,
) -> HiPaPlan {
    let prefix = degree_prefix(out_degrees);
    hipa_plan_with_prefix(&prefix, nodes, threads_per_node, verts_per_partition)
}

/// [`hipa_plan`] with a precomputed degree prefix (`prefix.len() == n + 1`,
/// `prefix[v]` = out-edges of vertices `< v`). Lets callers build the prefix
/// in parallel and share it across planning passes.
pub fn hipa_plan_with_prefix(
    prefix: &[u64],
    nodes: usize,
    threads_per_node: usize,
    verts_per_partition: usize,
) -> HiPaPlan {
    assert!(nodes >= 1 && threads_per_node >= 1 && verts_per_partition >= 1);
    assert!(!prefix.is_empty(), "prefix must have n + 1 entries");
    let n = prefix.len() - 1;
    let total_edges = prefix[n];
    let num_partitions = n.div_ceil(verts_per_partition).max(1);

    // Level 1 (Eq. 3): edge-balanced node boundaries, rounded up to whole
    // partitions; the last node takes whatever remains.
    let raw = edge_balanced_with_prefix(prefix, nodes);
    let mut node_bounds = Vec::with_capacity(nodes + 1);
    node_bounds.push(0usize);
    for (i, r) in raw.iter().enumerate() {
        let b = if i + 1 == nodes {
            n
        } else {
            let parts = (r.end as usize).div_ceil(verts_per_partition);
            (parts * verts_per_partition).min(n)
        };
        node_bounds.push(b.max(*node_bounds.last().unwrap()));
    }
    *node_bounds.last_mut().unwrap() = n;

    let mut node_plans = Vec::with_capacity(nodes);
    let mut prev_p_hi = 0usize;
    for i in 0..nodes {
        let v_lo = node_bounds[i];
        let v_hi = node_bounds[i + 1];
        let vertex_range = v_lo as u32..v_hi as u32;
        // An empty node owns no partitions; anchor its empty range at the
        // previous node's end — `v_lo / |P|` would land inside the previous
        // node's range whenever v_lo is not a partition multiple.
        let p_lo = if v_hi == v_lo { prev_p_hi } else { v_lo / verts_per_partition };
        let p_hi = if v_hi == v_lo { p_lo } else { (v_hi - 1) / verts_per_partition + 1 };
        prev_p_hi = p_hi;
        let node_edges = edges_in(prefix, &vertex_range);

        // Level 2 (Eq. 4): split this node's partitions into edge-balanced
        // per-thread groups. Work at partition granularity: boundary for
        // thread j is the first partition whose cumulative edges reach
        // (j+1)·|Eᵢ|/C.
        let node_parts = p_hi - p_lo;
        let mut part_edge_prefix = Vec::with_capacity(node_parts + 1);
        part_edge_prefix.push(0u64);
        for p in p_lo..p_hi {
            let pv_lo = (p * verts_per_partition).max(v_lo);
            let pv_hi = ((p + 1) * verts_per_partition).min(v_hi);
            let e = prefix[pv_hi] - prefix[pv_lo];
            part_edge_prefix.push(part_edge_prefix.last().unwrap() + e);
        }
        let mut threads = Vec::with_capacity(threads_per_node);
        let mut start_part = 0usize;
        for j in 1..=threads_per_node {
            let end_part = if j == threads_per_node {
                node_parts
            } else {
                let quota = node_edges * j as u64 / threads_per_node as u64;
                part_edge_prefix.partition_point(|&p| p < quota).max(start_part).min(node_parts)
            };
            let g_lo = p_lo + start_part;
            let g_hi = p_lo + end_part;
            let gv_lo = ((g_lo * verts_per_partition).max(v_lo)).min(v_hi);
            let gv_hi = ((g_hi * verts_per_partition).min(v_hi)).max(gv_lo);
            let vr = gv_lo as u32..gv_hi as u32;
            threads.push(ThreadPlan {
                part_range: g_lo..g_hi,
                edges: edges_in(prefix, &vr),
                vertex_range: vr,
                share: Share::WHOLE,
            });
            start_part = end_part;
        }
        node_plans.push(NodePlan {
            part_range: p_lo..p_hi,
            vertex_range,
            edges: node_edges,
            threads,
        });
    }
    HiPaPlan {
        verts_per_partition,
        num_vertices: n,
        num_edges: total_edges,
        num_partitions,
        nodes: node_plans,
    }
}

/// [`hipa_plan_with_prefix`] plus the level below the partition.
///
/// On a node with at least as many partitions as threads the plan is
/// exactly [`hipa_plan_with_prefix`]'s and `in_degrees` is never called. On
/// a node with fewer (but at least one), thread `j` of the node's `C` goes to
/// the node's partition `⌊j·nᵢ/C⌋`, so every partition gets a run of
/// consecutive threads. When `k ≥ 2` threads share a partition, each owns
/// one contiguous destination sub-range of it, cut where the partition's
/// in-edges reach `i/k` of their total; `in_degrees(p)` returns the in-edge
/// count of each vertex of partition `p`. Every sub-range keeps at least one
/// vertex while the partition has vertices to give.
///
/// ```
/// use hipa_partition::{hipa_plan_shared, Share};
/// // 8 vertices, one partition, three threads; in-edges all on vertex 0..4.
/// let in_deg = |_p: usize| vec![2, 2, 2, 2, 0, 0, 0, 0];
/// let plan = hipa_plan_shared(&[0; 9], 1, 3, 8, in_deg);
/// let subs: Vec<_> = plan.threads().map(|(_, _, t)| t.vertex_range.clone()).collect();
/// assert_eq!(subs, vec![0..2, 2..3, 3..8]); // 4, 2 and 2 in-edges
/// assert!(plan.threads().all(|(_, _, t)| t.part_range == (0..1)));
/// assert_eq!(plan.nodes[0].threads[1].share, Share { index: 1, of: 3 });
/// ```
pub fn hipa_plan_shared(
    prefix: &[u64],
    nodes: usize,
    threads_per_node: usize,
    verts_per_partition: usize,
    mut in_degrees: impl FnMut(usize) -> Vec<u32>,
) -> HiPaPlan {
    let mut plan = hipa_plan_with_prefix(prefix, nodes, threads_per_node, verts_per_partition);
    let c = threads_per_node;
    for node in &mut plan.nodes {
        let np = node.part_range.len();
        if np == 0 || np >= c {
            continue;
        }
        // Threads ⌈q·C/nᵢ⌉..⌈(q+1)·C/nᵢ⌉ are those with ⌊j·nᵢ/C⌋ = q.
        let mut j = 0;
        for (q, p) in node.part_range.clone().enumerate() {
            let end = ((q + 1) * c).div_ceil(np);
            let k = end - j;
            let lo = (p * verts_per_partition).max(node.vertex_range.start as usize);
            let hi = ((p + 1) * verts_per_partition).min(node.vertex_range.end as usize);
            let vr = lo as u32..hi as u32;
            let cuts =
                if k == 1 { vec![vr.start, vr.end] } else { dst_cuts(&vr, &in_degrees(p), k) };
            for i in 0..k {
                let sub = cuts[i]..cuts[i + 1];
                node.threads[j + i] = ThreadPlan {
                    part_range: p..p + 1,
                    edges: edges_in(prefix, &sub),
                    vertex_range: sub,
                    share: if k == 1 { Share::WHOLE } else { Share { index: i, of: k } },
                };
            }
            j = end;
        }
    }
    plan
}

/// `k + 1` boundaries splitting `vr` into `k` contiguous sub-ranges of about
/// equal in-edge count (`in_degrees[i]` belongs to vertex `vr.start + i`).
/// Each sub-range gets at least one vertex while vertices last.
fn dst_cuts(vr: &Range<u32>, in_degrees: &[u32], k: usize) -> Vec<u32> {
    let m = vr.len();
    assert_eq!(in_degrees.len(), m, "one in-degree per partition vertex");
    let mut prefix = Vec::with_capacity(m + 1);
    prefix.push(0u64);
    for &d in in_degrees {
        prefix.push(prefix.last().unwrap() + d as u64);
    }
    let total = prefix[m];
    let mut cuts = vec![0usize];
    for i in 1..k {
        // First cut whose prefix reaches i/k of the total.
        let raw = prefix.partition_point(|&x| x * (k as u64) < total * i as u64);
        let lo = (cuts[i - 1] + 1).min(m);
        let hi = m.saturating_sub(k - i).max(lo);
        cuts.push(raw.clamp(lo, hi));
    }
    cuts.push(m);
    cuts.into_iter().map(|c| vr.start + c as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example of Fig. 2: seven partitions of equal vertex count;
    /// P0–P2 hold 10 edges each, P3–P4 hold 15, P5–P6 hold 30. Two NUMA
    /// nodes with two threads each. Expected: n = (5, 2); within node 0 the
    /// groups are m = (3, 2); within node 1, m = (1, 1).
    #[test]
    fn fig2_worked_example() {
        let vpp = 10usize;
        let mut degs = Vec::new();
        for per_part in [10u32, 10, 10, 15, 15, 30, 30] {
            // Spread the partition's edges over its 10 vertices.
            for k in 0..10 {
                let base = per_part / 10;
                let extra = u32::from(k < per_part % 10);
                degs.push(base + extra);
            }
        }
        let plan = hipa_plan(&degs, 2, 2, vpp);
        assert_eq!(plan.num_partitions, 7);
        assert_eq!(plan.nodes[0].part_range, 0..5);
        assert_eq!(plan.nodes[1].part_range, 5..7);
        assert_eq!(plan.nodes[0].edges, 60);
        assert_eq!(plan.nodes[1].edges, 60);
        let m: Vec<usize> = plan.threads().map(|(_, _, t)| t.part_range.len()).collect();
        assert_eq!(m, vec![3, 2, 1, 1]);
        // Each group carries 30 edges.
        for (_, _, t) in plan.threads() {
            assert_eq!(t.edges, 30);
        }
    }

    #[test]
    fn node_boundaries_are_partition_multiples() {
        let degs: Vec<u32> = (0..997).map(|i| 1 + (i * 13) % 7).collect();
        let plan = hipa_plan(&degs, 2, 4, 64);
        for (i, node) in plan.nodes.iter().enumerate() {
            if i + 1 < plan.nodes.len() {
                assert_eq!(node.vertex_range.end as usize % 64, 0, "node {i} boundary not aligned");
            }
        }
        assert_eq!(plan.nodes.last().unwrap().vertex_range.end as usize, 997);
    }

    #[test]
    fn plan_covers_all_vertices_and_edges() {
        let degs: Vec<u32> = (0..500).map(|i| (i % 17) as u32).collect();
        let plan = hipa_plan(&degs, 3, 3, 32);
        let mut v = 0u32;
        let mut e = 0u64;
        for node in &plan.nodes {
            assert_eq!(node.vertex_range.start, v);
            v = node.vertex_range.end;
            e += node.edges;
            // Threads tile the node.
            let mut p = node.part_range.start;
            let mut te = 0u64;
            for t in &node.threads {
                assert_eq!(t.part_range.start, p);
                p = t.part_range.end;
                te += t.edges;
            }
            assert_eq!(p, node.part_range.end);
            assert_eq!(te, node.edges);
        }
        assert_eq!(v as usize, 500);
        assert_eq!(e, degs.iter().map(|&d| d as u64).sum::<u64>());
    }

    #[test]
    fn partition_lookup_helpers() {
        let degs = vec![1u32; 100];
        let plan = hipa_plan(&degs, 2, 2, 16);
        assert_eq!(plan.num_partitions, 7);
        assert_eq!(plan.partition_vertices(0), 0..16);
        assert_eq!(plan.partition_vertices(6), 96..100);
        assert_eq!(plan.partition_of(15), 0);
        assert_eq!(plan.partition_of(16), 1);
        let v = 40u32;
        let node = plan.node_of(v);
        assert!(plan.nodes[node].vertex_range.contains(&v));
    }

    #[test]
    fn single_node_single_thread_degenerates() {
        let degs = vec![3u32; 10];
        let plan = hipa_plan(&degs, 1, 1, 4);
        assert_eq!(plan.nodes.len(), 1);
        assert_eq!(plan.nodes[0].threads.len(), 1);
        assert_eq!(plan.nodes[0].threads[0].vertex_range, 0..10);
        assert_eq!(plan.nodes[0].threads[0].edges, 30);
    }

    #[test]
    fn more_threads_than_partitions_leaves_idle_threads() {
        let degs = vec![1u32; 8];
        let plan = hipa_plan(&degs, 1, 8, 4); // 2 partitions, 8 threads
        let nonempty = plan.threads().filter(|(_, _, t)| !t.part_range.is_empty()).count();
        assert!(nonempty <= 2);
        assert_eq!(plan.threads().map(|(_, _, t)| t.part_range.len()).sum::<usize>(), 2);
    }

    /// Regression: with more nodes than vertices, trailing empty nodes used
    /// to anchor their (empty) part_range at `v_lo / |P|`, which falls
    /// *inside* the previous node's partition range when |V| is not a
    /// multiple of |P|. Saved proptest seed: degs = [2], nodes = 2, tpn = 1,
    /// vpp = 2 → node 1 reported part_range 0..0 while node 0 owns 0..1.
    #[test]
    fn empty_trailing_node_does_not_overlap_previous_partitions() {
        let plan = hipa_plan(&[2], 2, 1, 2);
        assert_eq!(plan.num_partitions, 1);
        assert_eq!(plan.nodes[0].part_range, 0..1);
        assert_eq!(plan.nodes[1].part_range, 1..1);
        assert!(plan.nodes[1].threads.iter().all(|t| t.part_range == (1..1)));

        // Part ranges must tile [0, num_partitions] contiguously for any
        // empty-node layout.
        for (degs, nodes, tpn, vpp) in [
            (vec![2u32], 2, 1, 2),
            (vec![1, 1, 1], 3, 2, 2),
            (vec![5], 3, 1, 4),
            (vec![0, 7], 2, 2, 3),
        ] {
            let plan = hipa_plan(&degs, nodes, tpn, vpp);
            let mut p = 0usize;
            for node in &plan.nodes {
                assert_eq!(
                    node.part_range.start, p,
                    "gap/overlap in {degs:?} n={nodes} tpn={tpn} vpp={vpp}"
                );
                p = node.part_range.end;
            }
            assert_eq!(p, plan.num_partitions);
        }
    }

    #[test]
    fn hot_vertex_respects_loosened_condition() {
        // One partition holds nearly all edges; groups still tile and the
        // loosened condition (some groups exceed quota, others may be empty)
        // holds.
        let mut degs = vec![0u32; 64];
        degs[0] = 1000;
        degs[63] = 10;
        let plan = hipa_plan(&degs, 2, 2, 16);
        let total: u64 = plan.nodes.iter().map(|n| n.edges).sum();
        assert_eq!(total, 1010);
        for node in &plan.nodes {
            let sum: u64 = node.threads.iter().map(|t| t.edges).sum();
            assert_eq!(sum, node.edges);
        }
    }
}
