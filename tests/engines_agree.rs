//! Cross-crate integration: every engine (HiPa + four baselines), on both
//! execution paths (native threads and simulated machine), agrees with the
//! sequential f64 oracle on a spread of graph shapes and both dangling
//! policies — and each engine's sim path is bit-identical to its native
//! path.

use hipa::core::reference::{max_rel_error, reference_pagerank};
use hipa::prelude::*;
use hipa_baselines::all_engines;

fn graphs() -> Vec<(&'static str, DiGraph)> {
    use hipa::graph::gen::*;
    vec![
        ("cycle", DiGraph::from_edge_list(&cycle(64))),
        ("star", DiGraph::from_edge_list(&star(40))),
        ("path-dangling", DiGraph::from_edge_list(&path(50))),
        ("grid", DiGraph::from_edge_list(&grid(8, 9))),
        ("rmat", hipa::graph::datasets::small_test_graph(7)),
        (
            "zipf-local",
            DiGraph::from_edge_list(&zipf_graph(
                &ZipfParams {
                    num_vertices: 900,
                    mean_degree: 9.0,
                    locality: 0.4,
                    block_size: 128,
                    ..Default::default()
                },
                11,
            )),
        ),
        ("er", DiGraph::from_edge_list(&erdos_renyi(300, 2400, 5))),
    ]
}

#[test]
fn every_engine_native_matches_oracle() {
    for (gname, g) in graphs() {
        for policy in [DanglingPolicy::Ignore, DanglingPolicy::Redistribute] {
            let cfg = PageRankConfig::default().with_iterations(10).with_dangling(policy);
            let oracle = reference_pagerank(&g, &cfg);
            for e in all_engines() {
                let run = e.run_native(&g, &cfg, &NativeOpts::new(3, 512));
                let err = max_rel_error(&run.ranks, &oracle);
                assert!(
                    err < 5e-3,
                    "{} native on {gname} ({policy:?}): max rel err {err}",
                    e.name()
                );
            }
        }
    }
}

#[test]
fn every_engine_sim_is_bitwise_identical_to_native() {
    let machine = MachineSpec::tiny_test();
    for (gname, g) in graphs() {
        let cfg = PageRankConfig::default().with_iterations(6);
        for e in all_engines() {
            let threads = 4;
            let sim = e.run_sim(
                &g,
                &cfg,
                &SimOpts::new(machine.clone()).with_threads(threads).with_partition_bytes(512),
            );
            let nat = e.run_native(&g, &cfg, &NativeOpts::new(threads, 512));
            assert_eq!(sim.ranks, nat.ranks, "{} on {gname}: sim != native", e.name());
        }
        // Few partitions: one partition shared by 2, 3 and 4 threads, two
        // partitions for three threads, and more partitions than threads but
        // not a multiple (three on two, five on three), where HiPa's cuts
        // fall inside partitions. The one-socket machine takes any of those
        // thread counts.
        let n = g.num_vertices();
        let shapes = [
            (n * 4, 2),
            (n * 4, 3),
            (n * 4, 4),
            (n.div_ceil(2) * 4, 3),
            (n.div_ceil(3) * 4, 2),
            (n.div_ceil(5) * 4, 3),
        ];
        for policy in [DanglingPolicy::Ignore, DanglingPolicy::Redistribute] {
            let cfg = cfg.with_dangling(policy);
            for e in all_engines() {
                for (bytes, threads) in shapes {
                    let at = format!(
                        "{} on {gname} ({policy:?}, {bytes} B, {threads} threads)",
                        e.name()
                    );
                    let nat = e.run_native(&g, &cfg, &NativeOpts::new(threads, bytes));
                    let one = e.run_native(&g, &cfg, &NativeOpts::new(1, bytes));
                    let sim = e.run_sim(
                        &g,
                        &cfg,
                        &SimOpts::new(machine.clone().with_sockets(1))
                            .with_threads(threads)
                            .with_partition_bytes(bytes),
                    );
                    assert_eq!(nat.ranks, one.ranks, "{at}: native != 1-thread native");
                    assert_eq!(nat.ranks, sim.ranks, "{at}: native != sim");
                }
            }
        }
    }
}

#[test]
fn engines_agree_with_each_other_to_float_tolerance() {
    let g = hipa::graph::datasets::small_test_graph(13);
    let cfg = PageRankConfig::default().with_iterations(12);
    let runs: Vec<(String, Vec<f32>)> = all_engines()
        .iter()
        .map(|e| (e.name().to_string(), e.run_native(&g, &cfg, &NativeOpts::new(2, 1024)).ranks))
        .collect();
    let (base_name, base) = &runs[0];
    for (name, ranks) in &runs[1..] {
        for (v, (a, b)) in ranks.iter().zip(base).enumerate() {
            assert!(
                (a - b).abs() <= 1e-4 * b.abs().max(1e-6),
                "{name} vs {base_name} differ at v{v}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn hipa_and_ppr_share_exact_arithmetic() {
    // Same layout, same accumulation order: bit-equal, not just close.
    let g = hipa::graph::datasets::small_test_graph(14);
    let cfg = PageRankConfig::default().with_iterations(9);
    let opts = NativeOpts::new(5, 2048);
    let a = HiPa.run_native(&g, &cfg, &opts);
    let b = Ppr.run_native(&g, &cfg, &opts);
    assert_eq!(a.ranks, b.ranks);
}

/// The vertex-centric pulls sum each destination's in-neighbours in
/// ascending in-CSR order, in f32: an iteration of v-PR is bitwise
/// `base + d · spmv_reference(rank / outdeg)`, one of Polymer the same over
/// its pre-scaled contributions `rank · (1 / outdeg)`. (Their sim paths run
/// the same region bodies, so they need this pin: native-vs-sim equality
/// cannot see an order change.)
#[test]
fn vertex_centric_pulls_sum_in_ascending_source_order() {
    let cfg = PageRankConfig::default().with_iterations(3);
    let opts = NativeOpts::new(4, 1024);
    for (gname, g) in graphs() {
        let n = g.num_vertices();
        let base = hipa::core::kernel::base_value(&cfg, n, 0.0);
        let inv_deg = hipa::core::par::inv_deg_parallel(&g, 1);
        let oracle = |contrib: &dyn Fn(usize, f32) -> f32| {
            let mut rank = vec![1.0f32 / n as f32; n];
            for _ in 0..cfg.iterations {
                let x: Vec<f32> = rank.iter().enumerate().map(|(u, &r)| contrib(u, r)).collect();
                let y = hipa_algos::spmv_reference(&g, &x);
                rank = y.iter().map(|&y| base + cfg.damping * y).collect();
            }
            rank
        };
        let vpr = oracle(&|u, r| r / g.out_degree(u as u32) as f32);
        let polymer = oracle(&|u, r| r * inv_deg[u]);
        assert_eq!(Vpr.run_native(&g, &cfg, &opts).ranks, vpr, "v-PR on {gname}");
        assert_eq!(Polymer.run_native(&g, &cfg, &opts).ranks, polymer, "Polymer on {gname}");
    }
}

#[test]
fn thread_count_does_not_change_any_engine_result() {
    let g = hipa::graph::datasets::small_test_graph(15);
    let cfg = PageRankConfig::default().with_iterations(7);
    for e in all_engines() {
        let one = e.run_native(&g, &cfg, &NativeOpts::new(1, 1024));
        let many = e.run_native(&g, &cfg, &NativeOpts::new(6, 1024));
        assert_eq!(one.ranks, many.ranks, "{} not thread-count invariant", e.name());
    }
}

#[test]
fn partition_size_changes_layout_not_results_much() {
    // Partition size changes accumulation order (different intra/inter
    // splits), so results may differ in low bits — but must stay within
    // float tolerance of the oracle for every size.
    let g = hipa::graph::datasets::small_test_graph(16);
    let cfg = PageRankConfig::default().with_iterations(10);
    let oracle = reference_pagerank(&g, &cfg);
    for pbytes in [64usize, 256, 1024, 8192, 1 << 20] {
        let run = HiPa.run_native(&g, &cfg, &NativeOpts::new(3, pbytes));
        let err = max_rel_error(&run.ranks, &oracle);
        assert!(err < 5e-3, "partition {pbytes}: err {err}");
    }
}

#[test]
fn zero_iterations_returns_uniform() {
    let g = hipa::graph::datasets::small_test_graph(17);
    let cfg = PageRankConfig::default().with_iterations(0);
    let n = g.num_vertices() as f32;
    for e in all_engines() {
        let run = e.run_native(&g, &cfg, &NativeOpts::new(2, 1024));
        assert!(run.ranks.iter().all(|&r| (r - 1.0 / n).abs() < 1e-9), "{}", e.name());
    }
}

#[test]
fn every_engine_runs_an_empty_graph() {
    let g = DiGraph::from_edge_list(&EdgeList::new(0, Vec::new()));
    for tolerance in [None, Some(1e-6)] {
        let mut cfg = PageRankConfig::default().with_iterations(10);
        if let Some(t) = tolerance {
            cfg = cfg.with_tolerance(t);
        }
        for e in all_engines() {
            let native = e.run_native(&g, &cfg, &NativeOpts::new(2, 1024));
            let sim = e.run_sim(&g, &cfg, &SimOpts::new(MachineSpec::tiny_test()));
            for (path, ranks, iterations, converged) in [
                ("native", native.ranks, native.iterations_run, native.converged),
                ("sim", sim.ranks, sim.iterations_run, sim.converged),
            ] {
                let at = format!("{} {path}, tolerance {tolerance:?}", e.name());
                assert!(ranks.is_empty(), "{at}");
                assert_eq!(iterations, 0, "{at}");
                assert_eq!(converged, tolerance.is_some(), "{at}");
            }
        }
    }
}

#[test]
fn every_engine_tolerance_stops_within_one_iteration_of_hipa() {
    // The shared convergence rule (hipa_core::convergence) makes every
    // engine stop on the same residual decision; accumulation order differs
    // per engine in the low f32 bits, so the stop iteration may shift by at
    // most one around the threshold crossing. The tolerance sits above the
    // corpus's f32 oscillation floor (~3e-6 L1 on the star graph, where the
    // residual plateaus instead of reaching zero).
    let cap = 200;
    let cfg = PageRankConfig::default().with_iterations(cap).with_tolerance(1e-5);
    for (gname, g) in graphs() {
        let reference = HiPa.run_native(&g, &cfg, &NativeOpts::new(3, 512));
        assert!(reference.converged, "HiPa failed to converge on {gname}");
        assert!(reference.iterations_run < cap);
        for e in all_engines() {
            let run = e.run_native(&g, &cfg, &NativeOpts::new(3, 512));
            assert!(run.converged, "{} did not converge on {gname}", e.name());
            let (a, b) = (run.iterations_run as i64, reference.iterations_run as i64);
            assert!((a - b).abs() <= 1, "{} stopped at {a} on {gname}, HiPa at {b}", e.name());
        }
    }
}

#[test]
fn every_engine_early_stop_matches_run_to_cap() {
    // Stopping at tolerance must not change the answer: the early-stopped
    // ranks agree with the same engine run to the full cap. At stop, the
    // remaining L1 distance to the fixed point is bounded by
    // tol·d/(1−d) ≈ 5.7e-5, so 1e-4 per vertex is a safe bound.
    let cap = 300;
    let cfg_tol = PageRankConfig::default().with_iterations(cap).with_tolerance(1e-5);
    let cfg_cap = PageRankConfig::default().with_iterations(cap);
    for (gname, g) in graphs() {
        for e in all_engines() {
            let early = e.run_native(&g, &cfg_tol, &NativeOpts::new(3, 512));
            assert!(early.converged, "{} on {gname}", e.name());
            assert!(early.iterations_run < cap, "{} on {gname}", e.name());
            let full = e.run_native(&g, &cfg_cap, &NativeOpts::new(3, 512));
            assert_eq!(full.iterations_run, cap);
            assert!(!full.converged, "no tolerance set, flag must stay false");
            for (v, (a, b)) in early.ranks.iter().zip(&full.ranks).enumerate() {
                assert!(
                    (a - b).abs() < 1e-4,
                    "{} on {gname} at v{v}: early {a} vs cap {b}",
                    e.name()
                );
            }
        }
    }
}

#[test]
fn every_engine_tolerance_sim_agrees_with_native() {
    // The sim path shares the engine's arithmetic, so under tolerance both
    // paths stop at the same iteration with bit-equal ranks.
    let cfg = PageRankConfig::default().with_iterations(100).with_tolerance(1e-6);
    let g = hipa::graph::datasets::small_test_graph(19);
    for e in all_engines() {
        let nat = e.run_native(&g, &cfg, &NativeOpts::new(4, 512));
        let sim = e.run_sim(
            &g,
            &cfg,
            &SimOpts::new(MachineSpec::tiny_test()).with_threads(4).with_partition_bytes(512),
        );
        assert_eq!(nat.iterations_run, sim.iterations_run, "{} stop iteration", e.name());
        assert_eq!(nat.converged, sim.converged, "{} converged flag", e.name());
        assert!(nat.converged, "{} should converge within 100 iterations", e.name());
        assert_eq!(nat.ranks, sim.ranks, "{}: sim != native under tolerance", e.name());
    }
}

#[test]
fn converged_flag_is_accurate() {
    let g = hipa::graph::datasets::small_test_graph(20);
    for e in all_engines() {
        // Unreachable tolerance within a 2-iteration cap: ran to cap, not
        // converged.
        let tight = PageRankConfig::default().with_iterations(2).with_tolerance(1e-12);
        let run = e.run_native(&g, &tight, &NativeOpts::new(2, 512));
        assert!(!run.converged, "{}", e.name());
        assert_eq!(run.iterations_run, 2, "{}", e.name());
        // No tolerance: never reported converged.
        let fixed = PageRankConfig::default().with_iterations(5);
        let run = e.run_native(&g, &fixed, &NativeOpts::new(2, 512));
        assert!(!run.converged, "{}", e.name());
        assert_eq!(run.iterations_run, 5, "{}", e.name());
    }
}

#[test]
fn invalid_struct_literal_tolerance_is_normalised_away() {
    // `with_tolerance` asserts positivity, but a struct literal can smuggle
    // in 0.0 / NaN — the shared module normalises those to "no tolerance",
    // so engines run to the cap without useless delta tracking.
    let g = hipa::graph::datasets::small_test_graph(22);
    let baseline = PageRankConfig::default().with_iterations(8);
    for bad in [0.0f32, -3.0, f32::NAN, f32::INFINITY] {
        let cfg = PageRankConfig { tolerance: Some(bad), ..baseline };
        for e in all_engines() {
            let run = e.run_native(&g, &cfg, &NativeOpts::new(2, 512));
            assert_eq!(run.iterations_run, 8, "{} tol {bad}", e.name());
            assert!(!run.converged, "{} tol {bad}", e.name());
            let clean = e.run_native(&g, &baseline, &NativeOpts::new(2, 512));
            assert_eq!(run.ranks, clean.ranks, "{} tol {bad}", e.name());
        }
    }
}

#[test]
fn hipa_tolerance_stops_early_and_matches_long_run() {
    let g = hipa::graph::datasets::small_test_graph(18);
    let cap = 200;
    let cfg_tol = PageRankConfig::default().with_iterations(cap).with_tolerance(1e-7);
    let run = HiPa.run_native(&g, &cfg_tol, &NativeOpts::new(3, 1024));
    assert!(run.converged);
    assert!(run.iterations_run < cap, "should converge early, ran {}", run.iterations_run);
    assert!(run.iterations_run > 3, "suspiciously fast: {}", run.iterations_run);
    // The converged result matches a long fixed run closely.
    let long = HiPa.run_native(
        &g,
        &PageRankConfig::default().with_iterations(cap),
        &NativeOpts::new(3, 1024),
    );
    for (a, b) in run.ranks.iter().zip(&long.ranks) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }
}

#[test]
fn hipa_tolerance_sim_agrees_with_native() {
    let g = hipa::graph::datasets::small_test_graph(19);
    let cfg = PageRankConfig::default().with_iterations(100).with_tolerance(1e-6);
    let nat = HiPa.run_native(&g, &cfg, &NativeOpts::new(4, 512));
    let sim = HiPa.run_sim(
        &g,
        &cfg,
        &SimOpts::new(MachineSpec::tiny_test()).with_threads(4).with_partition_bytes(512),
    );
    assert_eq!(nat.iterations_run, sim.iterations_run, "same stop iteration");
    assert_eq!(nat.ranks, sim.ranks, "bitwise-equal converged ranks");
}

#[test]
fn cycle_converges_immediately_under_tolerance() {
    // The uniform start IS the fixed point of a cycle: one iteration's delta
    // is already ~0.
    let g = DiGraph::from_edge_list(&hipa::graph::gen::cycle(32));
    let cfg = PageRankConfig::default().with_iterations(50).with_tolerance(1e-6);
    let run = HiPa.run_native(&g, &cfg, &NativeOpts::new(2, 64));
    assert_eq!(run.iterations_run, 1);
    assert!(run.converged);
}
