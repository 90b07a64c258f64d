//! HiPa on real host threads.
//!
//! One persistent worker per plan thread runs the complete iterative
//! scatter–gather loop with barrier synchronisation ([`TrackedBarrier`]:
//! `std::sync::Barrier`, plus a vector-clock edge under the race-checker
//! features) (Algorithm 2: threads outlive the whole computation instead of
//! being recreated per parallel region). The compute workers deliberately
//! stay on dedicated `std::thread::scope` threads rather than the rayon
//! shim's pool — the one sanctioned bare-thread site outside the shims
//! (audit rule 6): they block on a barrier twice per iteration, which
//! would wedge a pool narrower than `threads`, and their spawn cost is
//! amortised over the whole run. All cross-thread data flows pass a barrier
//! wait, so the tracked edges keep the `check-hb` detector exact here. Preprocessing, in contrast, rides the shim's persistent pool
//! via `crate::par::run_indexed`.
//!
//! The iteration itself is the shared partition-centric kernel
//! ([`crate::kernel`]) with the [`Native`] charge: this file keeps only the
//! plan, the preprocessing, the worker lifecycle and the reductions.
//!
//! The plan ([`hipa_plan_shared`]) gives each thread one contiguous
//! destination range of about `1/threads` of the in-edges, cut wherever the
//! in-edges say, not at partition boundaries: a thread's first and last
//! partitions may be shared with its neighbours ([`Share`]), the ones
//! between are whole. A sharer walks the partition's sources in ascending
//! order but adds only into its own destination sub-range, writes its own
//! run of the partition's PNG slots, walks the whole inbox in slot order
//! applying only its own destinations, and finalises only its sub-range.
//! Each (thread, shared partition) pair's lists are copied out once in
//! preprocessing ([`PcpmLayout::sub_range_lists`]), keeping only the
//! sources and slots that reach it, so a sharer streams only its own edges
//! ([`Unit::shared`]); a whole partition reads the layout's lists in place
//! ([`Unit::whole`]).
//!
//! Thread 0 also records each phase's run-level span, from its phase start
//! to its exit from the phase's barrier: that span minus the slowest
//! thread's own is the barrier wait an imbalance costs.
//!
//! Every destination sums in the one-thread order (intra contributions in
//! source order during scatter, then inbox messages in slot order during
//! gather), the order the simulated path runs through the same kernel, so
//! native and simulated runs produce bit-equal f32 ranks for any thread
//! count.
//!
//! disjointness: HiPa plan (`hipa_plan_shared`) — each worker owns the
//! units of its `part_range` partitions, whole or its `Share` of them (the
//! kernel's writes stay inside its own destinations and message runs, see
//! [`crate::kernel`]), and its own index in the per-thread partial arrays;
//! `ctrl` is written only by thread 0 and read after the join. Every slice
//! is created once before spawn and ownership never migrates, so each
//! element has one writer thread for the whole run.

use crate::config::{DanglingPolicy, PageRankConfig};
use crate::convergence;
use crate::disjoint::SharedSlice;
use crate::hb::TrackedBarrier;
use crate::kernel::{base_value, dangling_mass, Kernel, Native, State, Step, Unit};
use crate::pcpm::{PcpmLayout, SubRangeLists};
use crate::runs::{NativeOpts, NativeRun, RunEnd};
use hipa_graph::{DiGraph, VERTEX_BYTES};
use hipa_obs::{PoolCounters, Recorder, RUN_LEVEL};
use hipa_partition::{hipa_plan_shared, Share};
use std::sync::OnceLock;
use std::time::Instant;

pub fn run(g: &DiGraph, cfg: &PageRankConfig, opts: &NativeOpts) -> NativeRun {
    if let Some(run) = crate::preorder::native(g, cfg, opts, run) {
        return run;
    }
    let n = g.num_vertices();
    if n == 0 {
        return NativeRun::empty("HiPa", cfg, opts);
    }
    let rec = Recorder::new(opts.trace);
    let threads = opts.threads.max(1);
    let tol = convergence::effective_tolerance(cfg.tolerance);
    // Residuals are needed for the stop rule *or* the trace's convergence
    // trajectory; the deterministic reduction is shared either way.
    let track = tol.is_some() || rec.enabled();
    let vpp = (opts.partition_bytes / VERTEX_BYTES).max(1);

    let build_threads = opts.effective_build_threads();

    // The pool deltas attribute the build phase's scheduling work (the
    // compute loop below runs on dedicated barrier threads, not the pool).
    let pc = PoolCounters::start(&rec);
    let t0 = Instant::now();
    // On the host there is no NUMA topology to honour; the hierarchical plan
    // degenerates to its cache level (one node, `threads` groups). The whole
    // preprocessing pipeline runs on `build_threads` workers and is
    // bit-identical to the sequential build.
    let prefix = crate::par::degree_prefix_parallel(g.out_degrees(), build_threads);
    let layout = PcpmLayout::build_par_ext(g.out_csr(), vpp, false, true, build_threads);
    let plan = hipa_plan_shared(&prefix, 1, threads, vpp, &layout);
    let thread_plans: Vec<_> = plan.threads().map(|(_, _, t)| t).collect();
    // The destinations thread `j` owns in partition `p`.
    let dsts = |j: usize, p: usize| {
        let (t, pv) = (&thread_plans[j].vertex_range, layout.partition_vertices(p));
        t.start.max(pv.start)..t.end.min(pv.end)
    };
    // Each (thread, shared partition) pair's lists, one pair per build
    // worker; a thread shares at most its first and last partition.
    let shared: Vec<(usize, usize)> = thread_plans
        .iter()
        .enumerate()
        .flat_map(|(j, t)| t.part_range.clone().map(move |p| (j, p)))
        .filter(|&(j, p)| thread_plans[j].share_of(p).of > 1)
        .collect();
    let subs: Vec<OnceLock<SubRangeLists>> = shared.iter().map(|_| OnceLock::new()).collect();
    crate::par::run_indexed(shared.len(), build_threads, |i| {
        let (j, p) = shared[i];
        let lists = layout.sub_range_lists(p, dsts(j, p));
        subs[i].set(lists).expect("each pair's lists are built once");
    });
    let units: Vec<Vec<Unit>> = thread_plans
        .iter()
        .enumerate()
        .map(|(j, t)| {
            t.part_range
                .clone()
                .map(|p| match t.share_of(p) {
                    Share::WHOLE => Unit::whole(&layout, p),
                    share => {
                        let i = shared.binary_search(&(j, p)).expect("a shared pair");
                        let l = subs[i].get().expect("built above");
                        Unit::shared(&layout, p, share, dsts(j, p), l)
                    }
                })
                .collect()
        })
        .collect();
    let inv_deg = crate::par::inv_deg_parallel(g, build_threads);
    let preprocess = t0.elapsed();

    let mut state = State::new(&inv_deg, layout.total_msgs as usize);
    let mut partials = vec![0.0f64; threads];
    let base0 = base_value(cfg, n, dangling_mass(g, cfg, &state.rank));
    let mut delta_partials = vec![0.0f64; threads];
    // ctrl[0] = stop flag (tolerance reached), ctrl[1] = iterations executed.
    let mut ctrl_box = vec![0u32; 2];

    let num_parts = layout.num_partitions;
    // Adaptive hint gate — see the sim path: hints arm only when the
    // partition's random-access span spills the (assumed) L2.
    let do_prefetch = opts.prefetch && opts.partition_bytes > crate::prefetch::NATIVE_L2_BYTES;

    let t1 = Instant::now();
    {
        // SAFETY: each worker steps only its own plan units, and the two
        // barriers per iteration order every scatter against every gather.
        let kernel = unsafe { Kernel::new(&layout, g, cfg, &inv_deg, &mut state, do_prefetch) };
        let partials_s = SharedSlice::new(&mut partials);
        let deltas_s = SharedSlice::new(&mut delta_partials);
        let ctrl_s = SharedSlice::new(&mut ctrl_box);
        let barrier = TrackedBarrier::new(threads);
        std::thread::scope(|scope| {
            for j in 0..threads {
                let kernel = &kernel;
                let partials_s = &partials_s;
                let deltas_s = &deltas_s;
                let ctrl_s = &ctrl_s;
                let barrier = &barrier;
                let rec = &rec;
                let units = &units[j];
                let partials_all = 0..threads;
                scope.spawn(move || {
                    let mut spans = rec.thread_spans(j);
                    let mut base = base0;
                    for it in 0..cfg.iterations {
                        let scatter_t = spans.start();
                        for u in units {
                            kernel.scatter(u, &mut Native);
                        }
                        spans.end(scatter_t, "scatter", it);
                        barrier.wait();
                        if j == 0 {
                            // Thread 0's phase start to its barrier exit:
                            // the phase's wall time, the slowest thread's
                            // span plus the barrier's wait.
                            rec.end(scatter_t, "scatter", RUN_LEVEL, it as i64);
                        }

                        let gather_t = spans.start();
                        let step = Step::native(base, track);
                        let mut dpart = 0.0f64;
                        let mut delta = 0.0f64;
                        for u in units {
                            kernel.apply_inbox(u, &mut Native);
                            kernel.finalise(u, &step, &mut delta, &mut dpart, &mut Native);
                        }
                        // SAFETY: slot j of both partial arrays is this
                        // thread's own.
                        unsafe {
                            partials_s.write(j, dpart);
                            deltas_s.write(j, delta);
                        }
                        spans.end(gather_t, "gather", it);
                        barrier.wait();
                        if j == 0 {
                            rec.end(gather_t, "gather", RUN_LEVEL, it as i64);
                        }

                        // --- Reduction, on every thread: all read the
                        // same partials in the same order, so all reach the
                        // same base and stop decision with no third barrier.
                        // A partial is rewritten only after the next scatter
                        // barrier, which every reader reaches after reading.
                        if matches!(cfg.dangling, DanglingPolicy::Redistribute) {
                            let mut mass = 0.0f64;
                            for t in partials_all.clone() {
                                // SAFETY: written before the gather barrier;
                                // see above for the next write.
                                mass += unsafe { partials_s.get(t) };
                            }
                            base = base_value(cfg, n, mass);
                        }
                        let mut stop = false;
                        if track {
                            let parts: Vec<f64> = partials_all
                                .clone()
                                // SAFETY: as for the partials above.
                                .map(|i| unsafe { deltas_s.get(i) })
                                .collect();
                            let residual = convergence::reduce(&parts);
                            if j == 0 {
                                rec.gauge(it, Some(residual), Some(num_parts as u64));
                            }
                            stop = tol.is_some_and(|t| convergence::should_stop(residual, t));
                        }
                        if j == 0 {
                            // SAFETY: only thread 0 writes ctrl, and it is
                            // read only after the workers have joined.
                            unsafe {
                                ctrl_s.write(1, it as u32 + 1);
                                ctrl_s.write(0, u32::from(stop));
                            }
                        }
                        if stop {
                            break;
                        }
                    }
                    spans.flush(rec);
                });
            }
        });
    }
    let compute = t1.elapsed();
    let iterations_run = ctrl_box[1] as usize;
    let converged = ctrl_box[0] == 1;

    let end = RunEnd {
        engine: "HiPa",
        g,
        threads,
        partitions: Some(num_parts),
        ranks: state.rank,
        iterations_run,
        converged,
    };
    NativeRun::finish(end, rec, pc, preprocess, compute)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{max_rel_error, reference_pagerank};
    use hipa_graph::gen::cycle;

    #[test]
    fn native_matches_reference_on_cycle() {
        let g = DiGraph::from_edge_list(&cycle(64));
        let cfg = PageRankConfig::default().with_iterations(15);
        let run = run(&g, &cfg, &NativeOpts::new(4, 64));
        let oracle = reference_pagerank(&g, &cfg);
        assert!(max_rel_error(&run.ranks, &oracle) < 1e-4);
    }

    #[test]
    fn native_thread_count_does_not_change_result() {
        let g = hipa_graph::datasets::small_test_graph(21);
        let cfg = PageRankConfig::default().with_iterations(8);
        let r1 = run(&g, &cfg, &NativeOpts::new(1, 1024));
        let r4 = run(&g, &cfg, &NativeOpts::new(4, 1024));
        assert_eq!(r1.ranks, r4.ranks, "bitwise determinism across thread counts");
        // Few partitions (1024 vertices): one partition shared by 2, 3 and
        // 4 threads, two partitions for three threads, and three for two
        // (a cut inside a partition, another partition whole). Each matches
        // 1-thread native and the sim.
        for (bytes, threads) in [(4096, 2), (4096, 3), (4096, 4), (2048, 3), (1368, 2)] {
            let one = run(&g, &cfg, &NativeOpts::new(1, bytes));
            let many = run(&g, &cfg, &NativeOpts::new(threads, bytes));
            let sim = crate::hipa::sim::run(
                &g,
                &cfg,
                &crate::runs::SimOpts::new(hipa_numasim::MachineSpec::tiny_test().with_sockets(1))
                    .with_threads(threads)
                    .with_partition_bytes(bytes),
            );
            assert_eq!(many.ranks, one.ranks, "{bytes} B partitions, {threads} threads");
            assert_eq!(many.ranks, sim.ranks, "{bytes} B partitions, {threads} threads: sim");
        }
    }
}
