//! Property-based tests for the PCPM layout (compression, edge
//! conservation, PNG/slot-view consistency) and for the resident pull
//! layout's summation order, against random graphs.

use hipa::core::{PcpmLayout, PcpmPrepared};
use hipa::graph::{Csr, DiGraph, EdgeList};
use proptest::prelude::*;

fn graph_strategy() -> impl Strategy<Value = EdgeList> {
    (2usize..200, prop::collection::vec((0u32..200, 0u32..200), 0..800)).prop_map(|(n, pairs)| {
        let edges =
            pairs.into_iter().map(|(s, d)| (s % n as u32, d % n as u32)).collect::<Vec<_>>();
        let mut el = EdgeList::from_pairs(edges);
        // Ensure the declared vertex count covers n even with no edges.
        let el2 = EdgeList::new(n.max(el.num_vertices()), el.edges().to_vec());
        el = el2;
        el.dedup_simplify();
        el
    })
}

/// Raw graphs as the server sees them: multi-edges and self-loops kept,
/// zero-degree vertices, and (every other case) edges at vertex `n - 1`.
fn multigraph_strategy() -> impl Strategy<Value = EdgeList> {
    (1usize..120, prop::collection::vec((0u32..120, 0u32..120), 0..500), any::<bool>()).prop_map(
        |(n, pairs, touch_last)| {
            let last = n as u32 - 1;
            let mut pairs: Vec<_> =
                pairs.into_iter().map(|(s, d)| (s % n as u32, d % n as u32)).collect();
            if touch_last {
                pairs.extend([(last, 0), (0, last), (last, last)]);
            }
            EdgeList::new(n, pairs.into_iter().map(Into::into).collect())
        },
    )
}

/// Each destination's sources in the order the partition-centric push adds
/// them: walk the intra adjacency in source order, then every partition's
/// inbox slots ascending (a slot's source read off the PNG scatter view).
fn push_order_walk(l: &PcpmLayout) -> Vec<Vec<u32>> {
    let mut lists = vec![Vec::new(); l.num_vertices];
    for u in 0..l.num_vertices as u32 {
        for &t in l.intra_of(u) {
            lists[t as usize].push(u);
        }
    }
    let mut slot_src = vec![0u32; l.total_msgs as usize];
    for p in 0..l.num_partitions {
        for pair in l.png_of(p) {
            for (i, &src) in l.png_sources(pair).iter().enumerate() {
                slot_src[pair.slot_start as usize + i] = src;
            }
        }
    }
    for q in 0..l.num_partitions {
        for slot in l.part_slot_ranges[q].clone() {
            for &t in l.dests_of(slot) {
                lists[t as usize].push(slot_src[slot as usize]);
            }
        }
    }
    lists
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The source lists `PcpmPrepared` builds straight from the out-CSR
    /// are, destination by destination, the push's summation order — what
    /// makes the pull sweep bitwise equal to the push.
    #[test]
    fn pull_lists_are_the_push_order(el in multigraph_strategy(), vi in 0usize..4, threads in 1usize..4) {
        let g = DiGraph::from_edge_list(&el);
        let vpp = [1, 7, 64, g.num_vertices()][vi];
        let want = push_order_walk(&PcpmLayout::build(g.out_csr(), vpp, false));
        let p = PcpmPrepared::build(&g, threads, vpp);
        for (v, w) in want.iter().enumerate() {
            prop_assert_eq!(p.sources_of(v), w.as_slice(), "v{} vpp={}", v, vpp);
        }
        prop_assert_eq!(p.pull_offsets[g.num_vertices()] as usize, el.num_edges());
    }

    /// Every edge is represented exactly once (intra + message destinations),
    /// in all four layout modes.
    #[test]
    fn edge_conservation(el in graph_strategy(), vpp in 1usize..64) {
        let csr = Csr::from_edge_list(&el);
        for binned in [false, true] {
            for compress in [false, true] {
                let l = PcpmLayout::build_ext(&csr, vpp, binned, compress);
                prop_assert_eq!(l.total_edges() as usize, el.num_edges(),
                    "binned={} compress={}", binned, compress);
                if !compress {
                    // One destination per message when compression is off.
                    prop_assert_eq!(l.dest_verts.len() as u64, l.total_msgs);
                }
                if binned {
                    prop_assert!(l.intra_dst.is_empty());
                }
            }
        }
    }

    /// Messages never beat physics: compressed count is bounded below by
    /// the number of (source, destination-partition) pairs and above by the
    /// inter-edge count.
    #[test]
    fn compression_bounds(el in graph_strategy(), vpp in 1usize..32) {
        let csr = Csr::from_edge_list(&el);
        let l = PcpmLayout::build(&csr, vpp, false);
        let uncompressed = PcpmLayout::build_ext(&csr, vpp, false, false);
        prop_assert!(l.total_msgs <= uncompressed.total_msgs);
        prop_assert_eq!(l.dest_verts.len(), uncompressed.dest_verts.len());
    }

    /// Every slot is covered by exactly one PNG bin, with the source inside
    /// the bin's source partition and the slot inside the destination
    /// partition's range.
    #[test]
    fn png_covers_slots(el in graph_strategy(), vpp in 1usize..48) {
        let csr = Csr::from_edge_list(&el);
        let l = PcpmLayout::build(&csr, vpp, false);
        let mut covered = vec![false; l.total_msgs as usize];
        for p in 0..l.num_partitions {
            for pair in l.png_of(p) {
                let srcs = l.png_sources(pair);
                prop_assert_eq!(srcs.len(), pair.len as usize);
                for (k, &src) in srcs.iter().enumerate() {
                    let slot = pair.slot_start + k as u64;
                    prop_assert!(!covered[slot as usize]);
                    covered[slot as usize] = true;
                    prop_assert_eq!(l.partition_of(src), p);
                    prop_assert!(l.part_slot_ranges[pair.dst_part as usize].contains(&slot));
                }
            }
        }
        prop_assert!(covered.iter().all(|&c| c));
    }

    /// Destination lists land in the right partition, and intra edges stay
    /// inside their own partition.
    #[test]
    fn destinations_respect_partitions(el in graph_strategy(), vpp in 1usize..48) {
        let csr = Csr::from_edge_list(&el);
        let l = PcpmLayout::build(&csr, vpp, false);
        for q in 0..l.num_partitions {
            for k in l.part_slot_ranges[q].clone() {
                for &dst in l.dests_of(k) {
                    prop_assert_eq!(l.partition_of(dst), q);
                }
            }
        }
        for v in 0..l.num_vertices as u32 {
            for &dst in l.intra_of(v) {
                prop_assert_eq!(l.partition_of(dst), l.partition_of(v));
            }
        }
    }

    /// The layout census agrees with the graph-side census in `hipa-graph`.
    #[test]
    fn layout_census_matches_graph_stats(el in graph_strategy(), vpp in 1usize..48) {
        let csr = Csr::from_edge_list(&el);
        let l = PcpmLayout::build(&csr, vpp, false);
        let c = hipa::graph::stats::partition_census(&csr, vpp);
        prop_assert_eq!(l.intra_dst.len() as u64, c.intra_total);
        prop_assert_eq!(l.dest_verts.len() as u64, c.inter_total);
        prop_assert_eq!(l.total_msgs, c.inter_compressed_total);
    }

    /// CSR round-trips through transpose twice.
    #[test]
    fn csr_double_transpose_roundtrip(el in graph_strategy()) {
        let csr = Csr::from_edge_list(&el);
        prop_assert_eq!(csr.transposed().transposed(), csr);
    }

    /// Out-degrees and in-degrees both sum to |E|.
    #[test]
    fn degree_sums_match(el in graph_strategy()) {
        let g = DiGraph::from_edge_list(&el);
        let out: u64 = (0..g.num_vertices()).map(|v| g.out_degree(v as u32) as u64).sum();
        let inn: u64 = (0..g.num_vertices()).map(|v| g.in_degree(v as u32) as u64).sum();
        prop_assert_eq!(out, el.num_edges() as u64);
        prop_assert_eq!(inn, el.num_edges() as u64);
    }
}
