//! The full happens-before detector (DESIGN.md §15): with `check-hb` on,
//! every `SharedSlice` element carries a write epoch *and* adaptive read
//! state, checked against the vector clocks the rayon shim threads through
//! every pool synchronization edge. This suite proves three things:
//!
//! * **soundness controls** — seeded races the write-only `check-disjoint`
//!   subset cannot see (a read racing a scope job's write; writes from two
//!   different pools with no join between them) panic, naming both thread
//!   tags, the element index, and the two unordered clocks;
//! * **precision controls** — accesses ordered by a modeled edge (scope
//!   join, sequential scopes across pools) are *not* flagged;
//! * **invariance** — all ten engine paths, the partition-centric SpMV,
//!   and the serve layer run race-clean with bitwise-identical ranks and
//!   simulated cycles across repeated runs (the shadow machinery observes
//!   the arithmetic, never feeds it).
//!
//! Run with: `cargo test -q --features check-hb`.
//!
//! disjointness: negative-control plan — the direct `SharedSlice` use below
//! deliberately leaves two accesses unordered so the detector's panic paths
//! are exercised; the engine and serve runs use each engine's own plan.

#![cfg(feature = "check-hb")]

use hipa::core::disjoint::SharedSlice;
use hipa::prelude::*;
use hipa::serve::{edge_list_of, loadgen::run_load, LoadConfig, ServeConfig, Server};
use hipa_algos::{teleport_from_seeds, PersonalizedConfig, PprSolver};
use hipa_baselines::all_engines;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// Extracts the formatted race message from a caught panic payload.
fn payload_msg(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|m| m.to_string()))
        .expect("panic payload is a string")
}

/// Seeded race 1 — read-write across an unjoined scope: a pool job writes
/// an element while the scope body (the main thread, which never becomes a
/// pool worker) reads the same element *before the join*. The write-only
/// subset is blind to this; `check-hb` must panic naming both threads. A
/// deliberately unmodeled relaxed flag sequences the wall-clock order
/// (write first, read second) so the detecting side is deterministic.
#[test]
fn unjoined_scope_read_write_race_is_caught() {
    let mut v = vec![0u32; 16];
    let s = SharedSlice::new(&mut v);
    let wrote = AtomicBool::new(false);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rayon::scope(|scope| {
            let (s, wrote) = (&s, &wrote);
            scope.spawn(move |_| {
                // SAFETY: in-bounds; the unsynchronised read below is the
                // race under test — the checker aborts the racing access
                // before any aliasing read happens.
                unsafe { s.write(5, 7) };
                // ordering: relaxed — deliberately *not* a modeled (or even
                // paired) edge: the flag only sequences the interleaving so
                // the main thread's read lands second.
                wrote.store(true, Ordering::Relaxed);
            });
            // ordering: relaxed — see above; spin until the job has written.
            while !wrote.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
            // SAFETY: in-bounds; deliberately races the job's write — the
            // checker panics here, before the aliasing read executes.
            let _ = unsafe { s.get(5) };
        });
    }))
    .expect_err("a read racing a scope job's write must panic under check-hb");
    let msg = payload_msg(err);
    assert!(
        msg.contains("check-hb: write-read race on SharedSlice index 5"),
        "unexpected panic message: {msg}"
    );
    assert!(
        msg.contains("thread tag") && msg.contains("written by thread tag"),
        "message must name both thread tags: {msg}"
    );
    assert!(
        msg.contains("write clock t") && msg.contains("this thread's clock"),
        "message must show the two unordered clocks: {msg}"
    );
}

/// Seeded race 2 — write-write across two pools: a job on pool A and a job
/// on pool B (spawned from inside A's still-open scope, so no join orders
/// them) write the same element. Under `check-disjoint` semantics this is
/// the classic overlapping-plan violation; the clocks prove there is no
/// happens-before edge even though the two writes never touch one pool's
/// internal queue. The relaxed flag again makes pool B's write land second.
#[test]
fn cross_pool_write_write_race_is_caught() {
    let pool_a = rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("pool A");
    let pool_b = rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("pool B");
    let mut v = vec![0u32; 8];
    let s = SharedSlice::new(&mut v);
    let wrote = AtomicBool::new(false);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool_a.scope(|sa| {
            let (s, wrote) = (&s, &wrote);
            sa.spawn(move |_| {
                // SAFETY: in-bounds; the cross-pool write below is the race
                // under test.
                unsafe { s.write(3, 1) };
                // ordering: relaxed — deliberately not a modeled edge; only
                // sequences the interleaving (A's write first).
                wrote.store(true, Ordering::Relaxed);
            });
            // ordering: relaxed — see above.
            while !wrote.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
            // Pool A's scope is still open: nothing orders its job before
            // anything pool B runs.
            pool_b.scope(|sb| {
                let s = &s;
                sb.spawn(move |_| {
                    // SAFETY: deliberately overlapping — the checker must
                    // abort this write (index stays in bounds).
                    unsafe { s.write(3, 2) };
                });
            });
        });
    }))
    .expect_err("unordered writes from two pools must panic under check-hb");
    let msg = payload_msg(err);
    assert!(
        msg.contains("check-disjoint: overlapping SharedSlice write at index 3"),
        "unexpected panic message: {msg}"
    );
    assert!(
        msg.contains("thread tag") && msg.contains("first written by thread tag"),
        "message must name both writer tags: {msg}"
    );
    assert!(
        msg.contains("prior write clock t") && msg.contains("this thread's clock"),
        "message must show the two unordered clocks: {msg}"
    );
}

/// Precision control: accesses *ordered* by modeled edges are never
/// flagged. A scope join orders a job's writes before the caller's reads
/// and re-writes; a second scope on a *different* pool is ordered through
/// the caller's join-then-fork, so "same element, two pools" is fine when
/// the scopes are sequential.
#[test]
fn joined_and_sequential_accesses_are_not_flagged() {
    let n = 64;
    let mut v = vec![0u32; n];
    {
        let s = SharedSlice::new(&mut v);
        rayon::scope(|scope| {
            let s = &s;
            scope.spawn(move |_| {
                for i in 0..n {
                    // SAFETY: sole writer inside this scope.
                    unsafe { s.write(i, i as u32) };
                }
            });
        });
        // After the join the caller reads and overwrites freely.
        for i in 0..n {
            // SAFETY: the scope join ordered the job's writes before this.
            assert_eq!(unsafe { s.get(i) }, i as u32);
            // SAFETY: as above — single-threaded after the join.
            unsafe { s.write(i, 0) };
        }
        let pool_a = rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("pool A");
        let pool_b = rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("pool B");
        for pool in [&pool_a, &pool_b] {
            pool.scope(|scope| {
                let s = &s;
                scope.spawn(move |_| {
                    for i in 0..n {
                        // SAFETY: scopes are sequential — each join-then-
                        // fork chain orders this write after the last one.
                        unsafe { s.write(i, 1) };
                    }
                });
            });
        }
    }
    assert!(v.iter().all(|&x| x == 1));
}

/// Shared invariance body: all ten engine paths on `g` run race-clean under
/// the full detector with ranks bitwise identical between native and sim,
/// across thread counts, and across repeated runs — and the simulated cycle
/// counts are bitwise stable too (the shadow state never feeds the model).
fn assert_engine_paths_bitwise_stable(g: &DiGraph, iterations: usize) {
    let machine = MachineSpec::tiny_test();
    let g = g.clone();
    let cfg = PageRankConfig::default().with_iterations(iterations);
    // 512 B gives more partitions than threads; `n * 4` bytes gives one
    // partition, which HiPa's four threads share by destination sub-range.
    for (e, bytes) in
        all_engines().iter().flat_map(|e| [512, g.num_vertices() * 4].map(|bytes| (e, bytes)))
    {
        let name = format!("{} at {bytes} B", e.name());
        let nat = e.run_native(&g, &cfg, &NativeOpts::new(4, bytes));
        let nat2 = e.run_native(&g, &cfg, &NativeOpts::new(4, bytes));
        assert_eq!(nat.ranks, nat2.ranks, "{name}: native re-run changed ranks");
        let one = e.run_native(&g, &cfg, &NativeOpts::new(1, bytes));
        assert_eq!(nat.ranks, one.ranks, "{name}: thread count changed ranks");
        let sopts = || SimOpts::new(machine.clone()).with_threads(4).with_partition_bytes(bytes);
        let sim = e.run_sim(&g, &cfg, &sopts());
        let sim2 = e.run_sim(&g, &cfg, &sopts());
        assert_eq!(nat.ranks, sim.ranks, "{name}: native != sim under check-hb");
        assert_eq!(sim.ranks, sim2.ranks, "{name}: sim re-run changed ranks");
        assert_eq!(
            sim.compute_cycles.to_bits(),
            sim2.compute_cycles.to_bits(),
            "{name}: sim re-run changed compute cycles"
        );
        assert_eq!(
            sim.preprocess_cycles.to_bits(),
            sim2.preprocess_cycles.to_bits(),
            "{name}: sim re-run changed preprocess cycles"
        );
    }
}

/// The fixed-corpus invariance run.
#[test]
fn engine_corpus_is_race_clean_and_bitwise_stable() {
    let g = hipa::graph::datasets::small_test_graph(11);
    assert_engine_paths_bitwise_stable(&g, 6);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Seeded invariance sweep: whatever small graph and iteration budget
    /// the strategy picks, the detector leaves every engine path's ranks
    /// and simulated cycles bitwise unchanged.
    #[test]
    fn engine_paths_bitwise_stable_across_seeds(seed in 0u64..512, iters in 3usize..8) {
        let g = hipa::graph::datasets::small_test_graph(seed);
        assert_engine_paths_bitwise_stable(&g, iters);
    }
}

/// The partition-centric SpMV — a fresh `SharedSlice` per sweep, the
/// workload that motivated the pooled shadow tables — runs race-clean.
#[test]
fn partition_centric_spmv_is_race_clean() {
    let g = hipa::graph::datasets::small_test_graph(23);
    let x: Vec<f32> = (0..g.num_vertices()).map(|v| 1.0 + (v % 7) as f32).collect();
    let want = hipa_algos::spmv_reference(&g, &x);
    let got = hipa_algos::spmv_partition_centric(&g, &x, 4, 128);
    for (v, (a, b)) in got.iter().zip(&want).enumerate() {
        assert!((a - b).abs() <= 1e-3 * b.abs().max(1e-6), "spmv differs at v{v}: {a} vs {b}");
    }
}

/// A skewed graph under the detector: two thirds of the edges point at one
/// hub, the last vertex, so its destination range holds it alone and the
/// other two ranges split the rest. Three pull jobs at widths 1 and 8 run race-clean, and
/// every lane is bitwise the one-thread solo sweep of its vector.
#[test]
fn skewed_pull_sweep_is_race_clean_and_bitwise_solo() {
    let n = 600u32;
    let hub = n - 1;
    let edges: Vec<(u32, u32)> =
        (0..n).flat_map(|u| [(u, hub), (u, hub), (u, (u * 7 + 1) % n)]).collect();
    let g = DiGraph::from_edge_list(&EdgeList::from_pairs(edges));
    let n = n as usize;
    let mut ws = hipa_algos::SpmvWorkspace::new(&g, 3, 64);
    let dsts = &ws.prepared().thread_dsts;
    assert!(dsts.contains(&(hub as usize..hub as usize + 1)), "hub range: {dsts:?}");
    let mut solo = hipa_algos::SpmvWorkspace::new(&g, 1, 64);
    for w in [1usize, 8] {
        let xs: Vec<f32> = (0..w * n).map(|i| 1.0 / (1 + (i * 13) % 19) as f32).collect();
        let mut ys = vec![0.0f32; w * n];
        ws.run_batch_into(&xs, &mut ys, w);
        for b in 0..w {
            let x: Vec<f32> = xs.iter().skip(b).step_by(w).copied().collect();
            let want: Vec<u32> = solo.run(&x).iter().map(|y| y.to_bits()).collect();
            let got: Vec<u32> = ys.iter().skip(b).step_by(w).map(|y| y.to_bits()).collect();
            assert_eq!(got, want, "width {w}, vector {b}");
        }
    }
}

/// The interleaved multi-vector PPR batch — outputs written `width` values
/// at a time, members re-packed as they freeze — runs race-clean,
/// and each member stays bitwise equal to its solo solve. Member 0 is
/// uniform and the rest seed one vertex each, so with this cap the batch
/// narrows several times and keeps some members to the last iteration.
#[test]
fn staggered_ppr_batch_is_race_clean() {
    let g = hipa::graph::datasets::small_test_graph(134);
    let n = g.num_vertices();
    let cfg = PersonalizedConfig {
        iterations: 14,
        threads: 3,
        verts_per_partition: 32,
        ..Default::default()
    };
    let teleports: Vec<Vec<f32>> = (0..8)
        .map(|b| match b {
            0 => vec![1.0; n],
            _ => teleport_from_seeds(n, &[((3 + b * 7919) % n) as u32]).unwrap(),
        })
        .collect();
    let mut solver = PprSolver::new(&g, &cfg);
    let batch = solver.solve_batch(&teleports);
    let mut freezes: Vec<usize> = batch.iter().map(|r| r.iterations_run).collect();
    freezes.sort_unstable();
    freezes.dedup();
    assert!(freezes.len() >= 3, "members must freeze at staggered points: {freezes:?}");
    assert!(batch.iter().any(|r| r.converged) && batch.iter().any(|r| !r.converged));
    for (b, t) in teleports.iter().enumerate() {
        let solo = solver.solve(t);
        assert_eq!(batch[b].ranks, solo.ranks, "member {b}");
        assert_eq!(batch[b].iterations_run, solo.iterations_run, "member {b}");
    }
}

/// Serve smoke: the rank server under seeded concurrent load — epochs,
/// batching, and the background census/scheduler threads — runs race-clean
/// under the detector, and every request is answered.
#[test]
fn serve_census_is_race_clean_under_load() {
    let g = hipa::graph::datasets::small_test_graph(21);
    let server = Server::start(
        edge_list_of(&g),
        ServeConfig { threads: 2, verts_per_partition: 32, batch_max: 4, ..Default::default() },
    );
    let report = run_load(
        &server,
        &LoadConfig {
            users: 3,
            requests_per_user: 8,
            seed: 5,
            mix: (2, 2, 1),
            topk: 4,
            ppr_sources_max: 2,
            invalid_share: 0.1,
            mean_gap_ns: 0,
        },
    );
    assert_eq!(report.completed, 24, "every request must be answered under check-hb");
}
