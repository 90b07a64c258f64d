//! The hot-kernel pass invariants (DESIGN.md §12), as tier-1 tests:
//!
//! * the corpus x strategy equality matrix — within a reorder strategy,
//!   every engine returns bitwise-identical f32 ranks on all four execution
//!   paths (native/sim x prefetch on/off);
//! * `by_frequency_clusters` is always a valid permutation that never moves
//!   a vertex across a partition boundary, so the partition census the
//!   engines plan against is untouched (property-tested);
//! * reordered runs still answer the same question: ranks mapped back to
//!   the input labelling agree with the input-order run to float tolerance.

use hipa::graph::reorder::by_frequency_clusters;
use hipa::graph::stats::partition_census;
use hipa::prelude::*;
use hipa_baselines::all_engines;
use proptest::prelude::*;

fn corpus() -> Vec<(&'static str, DiGraph)> {
    use hipa::graph::gen::*;
    vec![
        ("rmat", hipa::graph::datasets::small_test_graph(31)),
        ("star", DiGraph::from_edge_list(&star(48))),
        ("er", DiGraph::from_edge_list(&erdos_renyi(220, 1600, 9))),
    ]
}

const STRATEGIES: [ReorderStrategy; 4] = [
    ReorderStrategy::None,
    ReorderStrategy::DegreeDesc,
    ReorderStrategy::FrequencyClusters,
    ReorderStrategy::Random(23),
];

/// Within one (engine, graph, strategy) cell, all four execution paths
/// must agree bit-for-bit: prefetch hints never touch data, and the sim
/// replays the native arithmetic exactly.
#[test]
fn equality_matrix_native_sim_prefetch_within_strategy() {
    let cfg = PageRankConfig::default().with_iterations(5);
    for (gname, g) in corpus() {
        for e in all_engines() {
            for strat in STRATEGIES {
                let nat = NativeOpts::new(4, 512).with_reorder(strat);
                let sim = SimOpts::new(MachineSpec::tiny_test())
                    .with_threads(4)
                    .with_partition_bytes(512)
                    .with_reorder(strat);
                let reference = e.run_native(&g, &cfg, &nat).ranks;
                let paths = [
                    ("native off", e.run_native(&g, &cfg, &nat.clone().with_prefetch(false)).ranks),
                    ("sim on", e.run_sim(&g, &cfg, &sim).ranks),
                    ("sim off", e.run_sim(&g, &cfg, &sim.clone().with_prefetch(false)).ranks),
                ];
                for (path, ranks) in paths {
                    assert_eq!(
                        reference,
                        ranks,
                        "{} on {gname} / {}: {path} diverged from native on",
                        e.name(),
                        strat.name()
                    );
                }
            }
        }
        // Fewer partitions than threads, where HiPa's threads share a
        // partition by destination sub-range: one partition at 2, 3 and 4
        // threads, two partitions at 3. A one-socket machine takes any of
        // those thread counts.
        let n = g.num_vertices();
        for (bytes, threads) in [(n * 4, 2), (n * 4, 3), (n * 4, 4), (n.div_ceil(2) * 4, 3)] {
            for strat in STRATEGIES {
                let at =
                    format!("HiPa on {gname} / {} ({bytes} B, {threads} threads)", strat.name());
                let nat = NativeOpts::new(threads, bytes).with_reorder(strat);
                let sim = SimOpts::new(MachineSpec::tiny_test().with_sockets(1))
                    .with_threads(threads)
                    .with_partition_bytes(bytes)
                    .with_reorder(strat);
                let reference = HiPa.run_native(&g, &cfg, &nat).ranks;
                let paths = [
                    (
                        "native off",
                        HiPa.run_native(&g, &cfg, &nat.clone().with_prefetch(false)).ranks,
                    ),
                    (
                        "1-thread native",
                        HiPa.run_native(&g, &cfg, &NativeOpts::new(1, bytes).with_reorder(strat))
                            .ranks,
                    ),
                    ("sim on", HiPa.run_sim(&g, &cfg, &sim).ranks),
                    ("sim off", HiPa.run_sim(&g, &cfg, &sim.with_prefetch(false)).ranks),
                ];
                for (path, ranks) in paths {
                    assert_eq!(reference, ranks, "{at}: {path} diverged from native on");
                }
            }
        }
    }
}

/// Reordering relabels the computation but not the answer: ranks mapped
/// back to input labels match the input-order run (float tolerance —
/// summation order inside each partition legitimately differs).
#[test]
fn reordered_runs_map_back_to_input_order_ranks() {
    let g = hipa::graph::datasets::small_test_graph(32);
    let cfg = PageRankConfig::default().with_iterations(10);
    let base =
        HiPa.run_native(&g, &cfg, &NativeOpts::new(4, 512).with_reorder(ReorderStrategy::None));
    for strat in &STRATEGIES[1..] {
        let run = HiPa.run_native(&g, &cfg, &NativeOpts::new(4, 512).with_reorder(*strat));
        for (v, (&a, &b)) in base.ranks.iter().zip(&run.ranks).enumerate() {
            assert!((a - b).abs() <= 2e-4 * a.abs().max(1e-6), "{}: v{v} {a} vs {b}", strat.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `by_frequency_clusters` is partition-preserving on arbitrary graphs
    /// and block sizes: a bijection (checked by `Permutation::new`) with
    /// `map(v) / vpp == v / vpp` for every vertex, leaving the partition
    /// census bit-identical.
    #[test]
    fn frequency_clusters_is_partition_preserving(
        n in 1usize..300,
        edges in prop::collection::vec((0u32..300, 0u32..300), 0..900),
        vpp in 1usize..128,
    ) {
        let pairs: Vec<(u32, u32)> =
            edges.into_iter().map(|(s, d)| (s % n as u32, d % n as u32)).collect();
        let el = EdgeList::new(n, pairs.into_iter().map(Into::into).collect());
        let g = DiGraph::from_edge_list(&el);
        let p = by_frequency_clusters(g.in_csr(), vpp);
        prop_assert_eq!(p.len(), n);
        for v in 0..n as u32 {
            prop_assert_eq!(
                p.map(v) as usize / vpp,
                v as usize / vpp,
                "v{} crossed a partition boundary (vpp={})", v, vpp
            );
        }
        let before = partition_census(g.out_csr(), vpp);
        let after = partition_census(&Csr::from_edge_list(&p.apply(&el)), vpp);
        prop_assert_eq!(before.num_parts, after.num_parts);
        prop_assert_eq!(before.intra_total, after.intra_total);
        prop_assert_eq!(before.inter_total, after.inter_total);
    }
}
