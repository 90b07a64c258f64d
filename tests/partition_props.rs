//! Property-based tests for the partitioning invariants of §3.1–§3.2.

use hipa::partition::{
    degree_prefix, edge_balanced, edges_in, hipa_plan, hipa_plan_shared, hipa_plan_with_prefix,
    vertex_balanced, LookupTable, Share,
};
use proptest::prelude::*;

fn degrees_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..50, 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Vertex-balanced parts tile 0..n and differ in size by at most one.
    #[test]
    fn vertex_balanced_tiles_and_balances(n in 0usize..5000, parts in 1usize..64) {
        let r = vertex_balanced(n, parts);
        prop_assert_eq!(r.len(), parts);
        let mut expect = 0u32;
        for range in &r {
            prop_assert_eq!(range.start, expect);
            expect = range.end;
        }
        prop_assert_eq!(expect as usize, n);
        let sizes: Vec<usize> = r.iter().map(|x| x.len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1);
    }

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

    /// The level below the partition. A node with at least as many
    /// partitions as threads keeps `hipa_plan_with_prefix`'s plan and never
    /// asks for in-degrees. On a node with fewer, every thread holds one
    /// partition; each partition's sharers are consecutive, numbered
    /// `0..k` of `k`, and their destination sub-ranges tile it exactly once,
    /// contiguous and non-overlapping; none is empty when the partition has
    /// at least `k` vertices.
    #[test]
    fn shared_plan_splits_only_short_nodes(
        degs in degrees_strategy(),
        ins in prop::collection::vec(0u32..40, 1..64),
        nodes in 1usize..4,
        tpn in 1usize..6,
        vpp in 1usize..256,
    ) {
        let prefix = degree_prefix(&degs);
        let base = hipa_plan_with_prefix(&prefix, nodes, tpn, vpp);
        let mut asked = Vec::new();
        let plan = hipa_plan_shared(&prefix, nodes, tpn, vpp, |p| {
            asked.push(p);
            base.partition_vertices(p).map(|v| ins[v as usize % ins.len()]).collect()
        });
        prop_assert_eq!(plan.nodes.len(), base.nodes.len());
        for (node, old) in plan.nodes.iter().zip(&base.nodes) {
            let np = old.part_range.len();
            if np == 0 || np >= tpn {
                prop_assert_eq!(node, old);
                prop_assert!(asked.iter().all(|p| !old.part_range.contains(p)));
                continue;
            }
            prop_assert_eq!(&node.part_range, &old.part_range);
            prop_assert_eq!(node.threads.len(), tpn);
            let mut j = 0;
            for p in node.part_range.clone() {
                let sharers: Vec<_> =
                    node.threads.iter().skip(j).take_while(|t| t.part_range == (p..p + 1)).collect();
                let k = sharers.len();
                prop_assert!(k >= 1, "partition {} has no thread", p);
                let pv = base.partition_vertices(p);
                let pv = pv.start.max(node.vertex_range.start)..pv.end.min(node.vertex_range.end);
                let mut v = pv.start;
                for (i, t) in sharers.iter().enumerate() {
                    let want = if k == 1 { Share::WHOLE } else { Share { index: i, of: k } };
                    prop_assert_eq!(t.share, want);
                    prop_assert_eq!(t.vertex_range.start, v, "sub-ranges must be contiguous");
                    prop_assert!(t.vertex_range.end >= v);
                    v = t.vertex_range.end;
                    prop_assert_eq!(t.edges, edges_in(&prefix, &t.vertex_range));
                    if pv.len() >= k {
                        prop_assert!(!t.vertex_range.is_empty(), "idle sharer of partition {}", p);
                    }
                }
                prop_assert_eq!(v, pv.end, "sub-ranges must tile partition {}", p);
                j += k;
            }
            prop_assert_eq!(j, tpn, "every thread holds one partition");
        }
        if base.nodes.iter().all(|n| n.part_range.is_empty() || n.part_range.len() >= tpn) {
            prop_assert_eq!(plan, base);
        }
    }

    /// The lookup table is consistent with its plan: every partition has
    /// exactly one owning thread and thread vertex ranges concatenate
    /// their partitions.
    #[test]
    fn lookup_table_consistent(
        degs in degrees_strategy(),
        nodes in 1usize..3,
        tpn in 1usize..5,
        vpp in 1usize..48,
    ) {
        let plan = hipa_plan(&degs, nodes, tpn, vpp);
        let lt = LookupTable::from_plan(&plan);
        prop_assert_eq!(lt.num_partitions(), plan.num_partitions);
        let mut owned = vec![0u32; plan.num_partitions];
        for t in 0..lt.num_threads() {
            for p in lt.partitions_of(t) {
                owned[p] += 1;
            }
            let vr = lt.thread_vertices(t);
            let parts = lt.partitions_of(t);
            if !parts.is_empty() {
                prop_assert_eq!(vr.start, lt.vertices_of(parts.start).start);
                prop_assert_eq!(vr.end, lt.vertices_of(parts.end - 1).end);
            }
        }
        prop_assert!(owned.iter().all(|&c| c == 1), "each partition owned exactly once");
    }
}
