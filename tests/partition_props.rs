//! Property-based tests for the partitioning invariants of §3.1–§3.2.

use hipa::partition::{
    degree_prefix, edge_balanced, edges_in, hipa_plan, hipa_plan_shared, hipa_plan_with_prefix,
    InDegrees, Share,
};
use proptest::prelude::*;

fn degrees_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..50, 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Edge-balanced parts tile the vertex space and each part's edge count
    /// deviates from the quota by at most one vertex's degree.
    #[test]
    fn edge_balanced_respects_quota(degs in degrees_strategy(), parts in 1usize..16) {
        let prefix = degree_prefix(&degs);
        let total = *prefix.last().unwrap();
        let r = edge_balanced(&degs, parts);
        prop_assert_eq!(r.len(), parts);
        let mut expect = 0u32;
        let max_deg = *degs.iter().max().unwrap() as f64;
        for range in &r {
            prop_assert_eq!(range.start, expect);
            expect = range.end;
            let e = edges_in(&prefix, range) as f64;
            let quota = total as f64 / parts as f64;
            prop_assert!((e - quota).abs() <= max_deg + 1.0,
                "part {:?}: {} edges vs quota {}", range, e, quota);
        }
        prop_assert_eq!(expect as usize, degs.len());
    }

    /// The hierarchical plan covers all vertices and edges, aligns interior
    /// node boundaries to |P|, and its per-thread groups tile each node.
    #[test]
    fn hipa_plan_invariants(
        degs in degrees_strategy(),
        nodes in 1usize..4,
        tpn in 1usize..6,
        vpp in 1usize..64,
    ) {
        let plan = hipa_plan(&degs, nodes, tpn, vpp);
        let total_edges: u64 = degs.iter().map(|&d| d as u64).sum();
        prop_assert_eq!(plan.num_edges, total_edges);
        prop_assert_eq!(plan.num_vertices, degs.len());
        let mut v = 0u32;
        let mut e = 0u64;
        for (i, node) in plan.nodes.iter().enumerate() {
            prop_assert_eq!(node.vertex_range.start, v);
            v = node.vertex_range.end;
            e += node.edges;
            if i + 1 < plan.nodes.len() {
                let end = node.vertex_range.end as usize;
                prop_assert!(end.is_multiple_of(vpp) || end == degs.len(),
                    "interior node boundary must be a multiple of |P| (or capped at |V|): {}", end);
            }
            // Thread groups tile the node's partitions and edges.
            let mut p = node.part_range.start;
            let mut te = 0u64;
            prop_assert_eq!(node.threads.len(), tpn);
            for t in &node.threads {
                prop_assert_eq!(t.part_range.start, p);
                p = t.part_range.end;
                te += t.edges;
            }
            prop_assert_eq!(p, node.part_range.end);
            prop_assert_eq!(te, node.edges);
        }
        prop_assert_eq!(v as usize, degs.len());
        prop_assert_eq!(e, total_edges);
    }

    /// The shared plan, on any node shape. Its thread ranges tile each node
    /// in thread order, none empty while vertices last; each partition's
    /// sharers are consecutive threads numbered `0..k` of `k`, and every
    /// partition between a thread's first and last is whole; `edges` counts
    /// the range's out-edges; no thread takes more than `⌈Eᵢ/C⌉` in-edges
    /// plus the node's largest in-degree; per-vertex in-degrees are asked
    /// at most once per partition, and only of a partition that a cut falls
    /// in (its end included). One thread per node is Eq. 4's plan.
    #[test]
    fn shared_plan_cuts_nodes_by_in_edges(
        degs in degrees_strategy(),
        ins in prop::collection::vec(0u32..40, 1..64),
        nodes in 1usize..4,
        tpn in 1usize..6,
        vpp in 1usize..256,
    ) {
        let prefix = degree_prefix(&degs);
        let base = hipa_plan_with_prefix(&prefix, nodes, tpn, vpp);
        // Cubed: a few hot destinations, as in power-law graphs, so one
        // vertex can hold several threads' quotas.
        let in_deg = |v: u32| ins[v as usize % ins.len()].pow(3);
        let mut src = Ins { asked: Vec::new(), degs: |p: usize| {
            base.partition_vertices(p).map(in_deg).collect()
        } };
        let plan = hipa_plan_shared(&prefix, nodes, tpn, vpp, &mut src);
        prop_assert_eq!(plan.nodes.len(), base.nodes.len());
        let mut asked = src.asked.clone();
        asked.sort();
        asked.dedup();
        prop_assert_eq!(asked.len(), src.asked.len(), "a partition asked twice");
        for (node, old) in plan.nodes.iter().zip(&base.nodes) {
            prop_assert_eq!(&node.part_range, &old.part_range);
            prop_assert_eq!(&node.vertex_range, &old.vertex_range);
            prop_assert_eq!(node.threads.len(), tpn);
            let node_in: u64 = node.vertex_range.clone().map(|v| in_deg(v) as u64).sum();
            let max_in = node.vertex_range.clone().map(in_deg).max().unwrap_or(0) as u64;
            let mut v = node.vertex_range.start;
            for t in &node.threads {
                let vr = &t.vertex_range;
                prop_assert_eq!(vr.start, v, "ranges must tile the node in thread order");
                prop_assert!(vr.end >= v);
                v = vr.end;
                prop_assert_eq!(t.edges, edges_in(&prefix, vr));
                if node.vertex_range.len() >= tpn {
                    prop_assert!(!vr.is_empty(), "idle thread on a node of {} vertices",
                        node.vertex_range.len());
                }
                if !vr.is_empty() {
                    let want = vr.start as usize / vpp..(vr.end as usize - 1) / vpp + 1;
                    prop_assert_eq!(&t.part_range, &want);
                }
                let t_in: u64 = vr.clone().map(|v| in_deg(v) as u64).sum();
                prop_assert!(t_in <= node_in.div_ceil(tpn as u64) + max_in,
                    "{} in-edges of {} over {} threads", t_in, node_in, tpn);
            }
            prop_assert_eq!(v, node.vertex_range.end, "ranges must tile the node");
            for p in node.part_range.clone() {
                let on_p: Vec<usize> =
                    (0..tpn).filter(|&j| node.threads[j].part_range.contains(&p)).collect();
                let k = on_p.len();
                prop_assert!(k >= 1, "partition {} has no thread", p);
                prop_assert_eq!(on_p[k - 1] - on_p[0] + 1, k, "sharers of {} not consecutive", p);
                for (i, &j) in on_p.iter().enumerate() {
                    let want = if k == 1 { Share::WHOLE } else { Share { index: i, of: k } };
                    prop_assert_eq!(node.threads[j].share_of(p), want);
                }
            }
            // Thread boundaries strictly inside the node.
            let cuts: Vec<u32> = node.threads[1..].iter().map(|t| t.vertex_range.start).collect();
            for &p in src.asked.iter().filter(|p| node.part_range.contains(p)) {
                let pv = base.partition_vertices(p);
                prop_assert!(cuts.iter().any(|&c| pv.start < c && c <= pv.end),
                    "asked in-degrees of partition {} ({:?}), cuts {:?}", p, pv, cuts);
            }
        }
        if tpn == 1 {
            prop_assert_eq!(plan, base);
        }
    }

    /// The plan is Fig. 3's 2-level lookup table (thread → partition range,
    /// partition → vertex range), and it is consistent: every partition has
    /// exactly one owning thread, and a thread's vertex range is the
    /// concatenation of its partitions' vertex ranges.
    #[test]
    fn lookup_table_consistent(
        degs in degrees_strategy(),
        nodes in 1usize..3,
        tpn in 1usize..5,
        vpp in 1usize..48,
    ) {
        let plan = hipa_plan(&degs, nodes, tpn, vpp);
        let mut owned = vec![0u32; plan.num_partitions];
        for (_, _, t) in plan.threads() {
            for p in t.part_range.clone() {
                owned[p] += 1;
            }
            let parts = &t.part_range;
            if parts.is_empty() {
                prop_assert!(t.vertex_range.is_empty());
            } else {
                prop_assert_eq!(t.vertex_range.start, plan.partition_vertices(parts.start).start);
                prop_assert_eq!(t.vertex_range.end, plan.partition_vertices(parts.end - 1).end);
            }
        }
        prop_assert!(owned.iter().all(|&c| c == 1), "each partition owned exactly once");
    }
}

/// A shared plan's in-edge source that records which partitions it was
/// asked per-vertex in-degrees of; totals are read without asking.
struct Ins<F> {
    asked: Vec<usize>,
    degs: F,
}

impl<F: Fn(usize) -> Vec<u32>> InDegrees for &mut Ins<F> {
    fn in_degrees(&mut self, p: usize) -> Vec<u32> {
        self.asked.push(p);
        (self.degs)(p)
    }
    fn in_edges(&mut self, p: usize) -> u64 {
        (self.degs)(p).iter().map(|&d| d as u64).sum()
    }
}
