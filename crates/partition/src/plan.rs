//! The hierarchical partitioning plan of HiPa (paper §3.1–§3.2).
//!
//! Level 1 (Eq. 3): edge-balanced NUMA boundaries rounded *up* to whole
//! cache partitions of |P| vertices; the last node absorbs the leftover.
//! Level 2 (Eq. 4): inside each node, contiguous partition *groups* are
//! assigned to threads so every group carries ≈ |Eᵢ|/C edges (the loosened
//! condition Σ D(v) ≥ |Eᵢ|/C from the end of §3.2).
//! Below the partition ([`hipa_plan_shared`]): Eq. 4 assumes many more
//! partitions than threads; with few, whole-partition groups leave threads
//! idle or overloaded. The shared plan instead cuts each node's destination
//! range into `C` contiguous ranges of about equal in-edge count, wherever
//! the cuts fall. A partition that several ranges overlap is shared: each
//! of its threads owns one contiguous destination sub-range of it
//! ([`Share`]); every other partition stays whole.

use crate::balanced::edge_balanced_with_prefix;
use crate::{degree_prefix, edges_in};
use std::ops::Range;

/// One thread's slice of a node: one contiguous destination range, over a
/// contiguous group of cache partitions whose first and last may be shared
/// with the neighbouring threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadPlan {
    /// Global cache-partition indices this thread works in (`mⱼ` many).
    pub part_range: Range<usize>,
    /// The destinations this thread sums into and finalises: whole
    /// partitions, except a sub-range of a shared first or last partition.
    pub vertex_range: Range<u32>,
    /// Out-edges carried by those vertices.
    pub edges: u64,
    /// This thread's share of its first partition ([`Share::WHOLE`] unless
    /// that partition is shared).
    pub share: Share,
    /// This thread's share of its last partition (the same partition as
    /// `share`'s when it has one).
    pub last_share: Share,
}

impl ThreadPlan {
    /// This thread's share of `p`, one of its partitions: every partition
    /// between its first and last is whole.
    pub fn share_of(&self, p: usize) -> Share {
        debug_assert!(self.part_range.contains(&p), "partition {p} is not this thread's");
        if p == self.part_range.start {
            self.share
        } else if p + 1 == self.part_range.end {
            self.last_share
        } else {
            Share::WHOLE
        }
    }
}

/// The level below the partition: thread `index` of the `of` consecutive
/// threads that split one partition into destination sub-ranges, in
/// destination order.
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
    /// Per-thread groups, edge-balanced by Eq. 4 ([`hipa_plan_with_prefix`])
    /// or by in-edges ([`hipa_plan_shared`]).
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
                last_share: Share::WHOLE,
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

/// The in-edge counts a shared plan balances by.
pub trait InDegrees {
    /// The in-edge count of each vertex of partition `p`.
    fn in_degrees(&mut self, p: usize) -> Vec<u32>;

    /// Partition `p`'s in-edges in all; by default the sum of
    /// [`Self::in_degrees`]. A source that knows the total without the
    /// per-vertex counts should say so here: the plan asks for every
    /// partition's total but for per-vertex counts only where a cut falls.
    fn in_edges(&mut self, p: usize) -> u64 {
        self.in_degrees(p).iter().map(|&d| u64::from(d)).sum()
    }
}

impl<F: FnMut(usize) -> Vec<u32>> InDegrees for F {
    fn in_degrees(&mut self, p: usize) -> Vec<u32> {
        self(p)
    }
}

/// [`hipa_plan_with_prefix`]'s nodes, with each node's threads planned by
/// in-edges, down to the level below the partition.
///
/// Each node's destination range is cut into `C` contiguous ranges, cut `i`
/// where the node's in-edges reach `i/C` of their total; every range keeps
/// at least one vertex while the node has vertices to give. Thread `j`
/// owns range `j`. A partition that `k ≥ 2` ranges overlap is shared: the
/// thread at position `i` among them holds [`Share`] `{ index: i, of: k }`
/// of it, and owns the destination sub-range its range covers. Every other
/// partition is whole. `ins.in_edges(p)` is read for every partition of a
/// non-empty node, `ins.in_degrees(p)` only for a partition that some cut
/// falls in (its end included), so at most `C − 1` per node.
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
    mut ins: impl InDegrees,
) -> HiPaPlan {
    let mut plan = hipa_plan_with_prefix(prefix, nodes, threads_per_node, verts_per_partition);
    for node in &mut plan.nodes {
        if node.part_range.is_empty() {
            continue;
        }
        let cuts = dst_cuts(node, verts_per_partition, threads_per_node, &mut ins);
        let v0 = node.vertex_range.start;
        let ranges: Vec<Range<u32>> =
            cuts.windows(2).map(|w| v0 + w[0] as u32..v0 + w[1] as u32).collect();
        let parts: Vec<Range<usize>> = ranges
            .iter()
            .map(|r| {
                if r.is_empty() {
                    // Only the node's tail runs dry: anchor there.
                    node.part_range.end..node.part_range.end
                } else {
                    r.start as usize / verts_per_partition
                        ..(r.end as usize - 1) / verts_per_partition + 1
                }
            })
            .collect();
        let share = |j: usize, p: usize| {
            let on_p = || parts.iter().enumerate().filter(|(_, r)| r.contains(&p));
            match on_p().count() {
                1 => Share::WHOLE,
                of => Share {
                    index: on_p().position(|(t, _)| t == j).expect("a thread's own partition"),
                    of,
                },
            }
        };
        node.threads = (0..threads_per_node)
            .map(|j| {
                let (pr, vr) = (parts[j].clone(), ranges[j].clone());
                let (share, last_share) = if pr.is_empty() {
                    (Share::WHOLE, Share::WHOLE)
                } else {
                    (share(j, pr.start), share(j, pr.end - 1))
                };
                ThreadPlan {
                    edges: edges_in(prefix, &vr),
                    part_range: pr,
                    vertex_range: vr,
                    share,
                    last_share,
                }
            })
            .collect();
    }
    plan
}

/// The `C + 1` cuts of `node`'s destination range (offsets from its first
/// vertex) into `C` contiguous ranges of about equal in-edge count: cut `i`
/// is the first offset where the in-edges reach `i/C` of the node's, moved
/// only as far as it takes to leave every range at least one vertex while
/// vertices last. Partition totals locate each cut; per-vertex in-degrees
/// are read only for the partition it falls in.
fn dst_cuts(node: &NodePlan, vpp: usize, c: usize, ins: &mut impl InDegrees) -> Vec<usize> {
    let m = node.vertex_range.len();
    let p0 = node.part_range.start;
    let mut part_prefix = vec![0u64];
    for p in node.part_range.clone() {
        part_prefix.push(part_prefix.last().unwrap() + ins.in_edges(p));
    }
    let total = *part_prefix.last().unwrap();
    // The last partition read, and its in-edge prefix.
    let mut read: Option<(usize, Vec<u64>)> = None;
    let mut cuts = vec![0usize];
    for i in 1..c {
        let lo = (cuts[i - 1] + 1).min(m);
        let hi = m.saturating_sub(c - i).max(lo);
        let reached = |x: u64| x * c as u64 >= total * i as u64;
        let cut = if total == 0 {
            lo
        } else {
            // The quota is crossed by a vertex of partition `q`, so the raw
            // cut lies in `qs + 1..=qe`.
            let q = part_prefix[1..].partition_point(|&x| !reached(x));
            let (qs, qe) = (q * vpp, ((q + 1) * vpp).min(m));
            if lo >= qe {
                lo
            } else if hi <= qs {
                hi
            } else {
                if read.as_ref().is_none_or(|(r, _)| *r != q) {
                    let degs = ins.in_degrees(p0 + q);
                    assert_eq!(degs.len(), qe - qs, "one in-degree per partition vertex");
                    let mut pre = Vec::with_capacity(degs.len() + 1);
                    pre.push(part_prefix[q]);
                    for d in degs {
                        pre.push(pre.last().unwrap() + u64::from(d));
                    }
                    assert_eq!(pre.last(), part_prefix.get(q + 1), "in-degrees sum to in-edges");
                    read = Some((q, pre));
                }
                let pre = &read.as_ref().unwrap().1;
                (qs + pre.partition_point(|&x| !reached(x))).clamp(lo, hi)
            }
        };
        cuts.push(cut);
    }
    cuts.push(m);
    cuts
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

    /// Three partitions on two threads (the wiki shape): the one cut falls
    /// inside partition 1, so thread 0 holds partition 0 whole and the
    /// first share of 1, thread 1 the second share of 1 and partition 2
    /// whole. Only partition 1's per-vertex in-degrees are read.
    #[test]
    fn shared_plan_cuts_inside_a_partition() {
        let ins = [vec![1, 1, 1, 1], vec![3, 3, 3, 3], vec![1, 1, 1, 1]];
        let mut asked = Vec::new();
        let plan = hipa_plan_shared(&[0; 13], 1, 2, 4, |p: usize| {
            asked.push(p);
            ins[p].clone()
        });
        // The totals come from the default sum; the cut asks for 1 again.
        assert_eq!(asked, vec![0, 1, 2, 1]);
        let t = &plan.nodes[0].threads;
        assert_eq!((t[0].vertex_range.clone(), t[0].part_range.clone()), (0..6, 0..2));
        assert_eq!((t[1].vertex_range.clone(), t[1].part_range.clone()), (6..12, 1..3));
        assert_eq!((t[0].share_of(0), t[0].share_of(1)), (Share::WHOLE, Share { index: 0, of: 2 }));
        assert_eq!((t[1].share_of(1), t[1].share_of(2)), (Share { index: 1, of: 2 }, Share::WHOLE));
    }

    /// A hot first or last destination holds every quota; the cuts still
    /// leave each thread one vertex.
    #[test]
    fn hot_end_vertex_leaves_every_thread_a_vertex() {
        for degs in [vec![900, 0, 0], vec![0, 0, 900]] {
            let plan = hipa_plan_shared(&[0; 4], 1, 3, 4, |_p: usize| degs.clone());
            let ranges: Vec<_> = plan.threads().map(|(_, _, t)| t.vertex_range.clone()).collect();
            assert_eq!(ranges, vec![0..1, 1..2, 2..3], "{degs:?}");
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
