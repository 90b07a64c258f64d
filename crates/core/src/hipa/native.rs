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
//! via `crate::par::run_indexed`. All writes are structurally disjoint —
//! each thread owns its vertex ranges and its message slots — and go
//! through [`SharedSlice`](crate::disjoint::SharedSlice).
//!
//! With fewer partitions than threads, the plan's level below the partition
//! ([`Share`]) lets several threads share one partition. Each walks the
//! partition's sources in ascending order but adds only into its own
//! destination sub-range, writes its own run of the partition's PNG slots,
//! walks the whole inbox in slot order applying only its own destinations,
//! and finalises only its sub-range. Each sub-range's lists are copied out
//! once in preprocessing ([`PcpmLayout::sub_range_lists`]), keeping only the
//! sources and slots that reach it, so a sharer streams only its own edges;
//! a whole partition reads the layout's lists in place, through the same
//! kernel.
//!
//! The arithmetic order (intra contributions in source order during
//! scatter, then inbox messages in slot order during gather) is identical
//! to the simulated path, so native and simulated runs produce bit-equal
//! f32 ranks for any thread count.
//!
//! disjointness: HiPa plan (`hipa_plan_shared`) — each worker owns the
//! vertex ranges of its `part_range` partitions, or its `Share` destination
//! sub-range of a shared partition (rank/acc writes), the PNG message slots
//! of its partitions or its `Unit::msgs` run of the shared partition's
//! messages (vals writes), and its own index in the per-thread partial
//! arrays; `ctrl` is written only by thread 0 and read after the join. Every
//! slice is created once before spawn and ownership never migrates, so each
//! element has one writer thread for the whole run.

use crate::config::{DanglingPolicy, PageRankConfig};
use crate::convergence;
use crate::disjoint::SharedSlice;
use crate::hb::TrackedBarrier;
use crate::pcpm::{PcpmLayout, SubRangeLists};
use crate::prefetch::{prefetch_read, LineFilter, PREFETCH_DISTANCE};
use crate::runs::{NativeOpts, NativeRun};
use hipa_graph::{DiGraph, VERTEX_BYTES};
use hipa_obs::{PoolCounters, Recorder, TraceMeta, PATH_NATIVE, RUN_LEVEL};
use hipa_partition::{hipa_plan_shared, Share, ThreadPlan};
use std::ops::Range;
use std::sync::OnceLock;
use std::time::Instant;

pub fn run(g: &DiGraph, cfg: &PageRankConfig, opts: &NativeOpts) -> NativeRun {
    if let Some(run) = crate::preorder::native(g, cfg, opts, run) {
        return run;
    }
    let n = g.num_vertices();
    let rec = Recorder::new(opts.trace);
    if n == 0 {
        let converged = convergence::effective_tolerance(cfg.tolerance).is_some();
        return NativeRun {
            ranks: Vec::new(),
            preprocess: Default::default(),
            compute: Default::default(),
            iterations_run: 0,
            converged,
            trace: rec.finish(TraceMeta {
                engine: "HiPa".into(),
                path: PATH_NATIVE,
                threads: opts.threads.max(1) as u64,
                converged,
                ..TraceMeta::default()
            }),
        };
    }
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
    let plan = hipa_plan_shared(&prefix, 1, threads, vpp, |p| layout.in_degrees(p));
    let thread_plans: Vec<_> = plan.threads().map(|(_, _, t)| t).collect();
    // Each sharer's lists, one sharer per build worker.
    let sharers: Vec<usize> = (0..threads).filter(|&j| thread_plans[j].share.of > 1).collect();
    let subs: Vec<OnceLock<SubRangeLists>> = (0..threads).map(|_| OnceLock::new()).collect();
    crate::par::run_indexed(sharers.len(), build_threads, |i| {
        let t = thread_plans[sharers[i]];
        let lists = layout.sub_range_lists(t.part_range.start, t.vertex_range.clone());
        subs[sharers[i]].set(lists).expect("each sharer's lists are built once");
    });
    let units: Vec<Vec<Unit>> = thread_plans
        .iter()
        .zip(&subs)
        .map(|(t, sub)| t.part_range.clone().map(|p| Unit::new(&layout, p, t, sub.get())).collect())
        .collect();
    let inv_deg = crate::par::inv_deg_parallel(g, build_threads);
    let preprocess = t0.elapsed();

    let d = cfg.damping;
    let inv_n = 1.0f32 / n as f32;
    let mut rank = vec![inv_n; n];
    let mut acc = vec![0.0f32; n];
    let mut vals = vec![0.0f32; layout.total_msgs as usize];
    let mut partials = vec![0.0f64; threads];
    let init_dangling: f64 = match cfg.dangling {
        DanglingPolicy::Ignore => 0.0,
        DanglingPolicy::Redistribute => {
            (0..n).filter(|&v| g.out_degree(v as u32) == 0).map(|v| rank[v] as f64).sum()
        }
    };
    let base0 = (1.0 - d) * inv_n + d * (init_dangling as f32) * inv_n;
    let mut delta_partials = vec![0.0f64; threads];
    // ctrl[0] = stop flag (tolerance reached), ctrl[1] = iterations executed.
    let mut ctrl_box = vec![0u32; 2];

    let num_parts = layout.num_partitions;
    let degs = g.out_degrees();
    // Adaptive hint gate — see the sim path: hints arm only when the
    // partition's random-access span spills the (assumed) L2.
    let do_prefetch = opts.prefetch && opts.partition_bytes > crate::prefetch::NATIVE_L2_BYTES;

    let t1 = Instant::now();
    {
        let rank_s = SharedSlice::new(&mut rank);
        let acc_s = SharedSlice::new(&mut acc);
        let vals_s = SharedSlice::new(&mut vals);
        let partials_s = SharedSlice::new(&mut partials);
        let deltas_s = SharedSlice::new(&mut delta_partials);
        let ctrl_s = SharedSlice::new(&mut ctrl_box);
        let barrier = TrackedBarrier::new(threads);
        std::thread::scope(|scope| {
            for j in 0..threads {
                let rank_s = &rank_s;
                let acc_s = &acc_s;
                let vals_s = &vals_s;
                let partials_s = &partials_s;
                let deltas_s = &deltas_s;
                let ctrl_s = &ctrl_s;
                let barrier = &barrier;
                let layout = &layout;
                let inv_deg = &inv_deg;
                let rec = &rec;
                let units = &units[j];
                let partials_all = 0..threads;
                scope.spawn(move || {
                    let mut spans = rec.thread_spans(j);
                    let mut base = base0;
                    for it in 0..cfg.iterations {
                        // --- Scatter own units: intra pass, then one
                        // sequential bin write per destination (PNG view) ---
                        let scatter_t = spans.start();
                        for u in units {
                            u.intra.for_each(|_, v, intra| {
                                if intra.is_empty() {
                                    return;
                                }
                                // SAFETY: rank is only written post-barrier.
                                let val = unsafe { rank_s.get(v) } * inv_deg[v];
                                for &dst in intra {
                                    // SAFETY: these intra destinations lie in
                                    // this unit's own destination range.
                                    unsafe { acc_s.update(dst as usize, |a| *a += val) };
                                }
                            });
                            for pair in layout.png_of(u.part) {
                                let first = pair.src_start as usize;
                                let lo = first.max(u.msgs.start);
                                let hi = (first + pair.len as usize).min(u.msgs.end);
                                if lo >= hi {
                                    continue;
                                }
                                let srcs = &layout.png_src[lo..hi];
                                let slot0 = pair.slot_start as usize + (lo - first);
                                if do_prefetch {
                                    // Warm this bin's write cursor: the slot
                                    // run starts on a cold line per pair.
                                    vals_s.prefetch(slot0);
                                }
                                let mut pf = LineFilter::new();
                                for (k, &src) in srcs.iter().enumerate() {
                                    if do_prefetch {
                                        if let Some(&ahead) = srcs.get(k + PREFETCH_DISTANCE) {
                                            if pf.admit(ahead as usize) {
                                                rank_s.prefetch(ahead as usize);
                                                prefetch_read(inv_deg, ahead as usize);
                                            }
                                        }
                                    }
                                    // SAFETY: rank is only written post-barrier.
                                    let r = unsafe { rank_s.get(src as usize) };
                                    let val = r * inv_deg[src as usize];
                                    // SAFETY: each PNG slot has exactly one
                                    // writer — the owner of its `msgs` run.
                                    unsafe { vals_s.write(slot0 + k, val) };
                                }
                            }
                        }
                        spans.end(scatter_t, "scatter", it);
                        barrier.wait();

                        // --- Gather + finalise own partitions ---
                        let gather_t = spans.start();
                        let mut dpart = 0.0f64;
                        let mut delta = 0.0f64;
                        for u in units {
                            let mut pf = LineFilter::new();
                            u.inbox.for_each(|i, slot, dests| {
                                if do_prefetch {
                                    // Run ahead on the neighbour-offset runs:
                                    // warm the accumulators of the slot
                                    // PREFETCH_DISTANCE messages out (each
                                    // dest line is prefetched exactly once).
                                    for &dst in u.inbox.list(i + PREFETCH_DISTANCE).unwrap_or(&[]) {
                                        if pf.admit(dst as usize) {
                                            acc_s.prefetch(dst as usize);
                                        }
                                    }
                                }
                                if dests.is_empty() {
                                    return;
                                }
                                // SAFETY: the inbox is only read after the
                                // scatter barrier.
                                let val = unsafe { vals_s.get(slot) };
                                for &dst in dests {
                                    // SAFETY: dest vertices lie in the unit's
                                    // own destination range.
                                    unsafe { acc_s.update(dst as usize, |a| *a += val) };
                                }
                            });
                            for v in u.dsts.clone() {
                                // SAFETY: own range.
                                let a = unsafe { acc_s.get(v) };
                                let new = base + d * a;
                                if track {
                                    // SAFETY: own range (pre-write read).
                                    let old = unsafe { rank_s.get(v) };
                                    delta += convergence::l1_term(new, old);
                                }
                                // SAFETY: v is in this thread's own range;
                                // rank is read cross-thread only pre-barrier.
                                unsafe {
                                    rank_s.write(v, new);
                                    acc_s.write(v, 0.0);
                                }
                                if matches!(cfg.dangling, DanglingPolicy::Redistribute)
                                    && degs[v] == 0
                                {
                                    dpart += new as f64;
                                }
                            }
                        }
                        // SAFETY: slot j of both partial arrays is this
                        // thread's own.
                        unsafe {
                            partials_s.write(j, dpart);
                            deltas_s.write(j, delta);
                        }
                        spans.end(gather_t, "gather", it);
                        barrier.wait();

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
                            base = (1.0 - d) * inv_n + d * (mass as f32) * inv_n;
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

    rec.record("preprocess", RUN_LEVEL, RUN_LEVEL, preprocess.as_nanos() as f64);
    rec.record("compute", RUN_LEVEL, RUN_LEVEL, compute.as_nanos() as f64);
    pc.finish(&rec, threads as u64);
    let trace = rec.finish(TraceMeta {
        engine: "HiPa".into(),
        path: PATH_NATIVE,
        machine: None,
        vertices: n as u64,
        edges: g.num_edges() as u64,
        threads: threads as u64,
        partitions: Some(num_parts as u64),
        iterations_run: iterations_run as u64,
        converged,
    });

    NativeRun { ranks: rank, preprocess, compute, iterations_run, converged, trace }
}

/// Entry `i`'s list is `items[offsets[i]..offsets[i + 1]]`. Its key (a
/// source vertex or an inbox slot) is `first + keys[i]`, or `first + i` when
/// there are no keys: a whole partition, read straight from the layout.
#[derive(Clone, Copy)]
struct Lists<'a> {
    first: usize,
    keys: Option<&'a [u32]>,
    offsets: &'a [u64],
    items: &'a [u32],
}

impl<'a> Lists<'a> {
    /// Calls `f(i, key, list)` for every entry, in order.
    #[inline]
    fn for_each(self, mut f: impl FnMut(usize, usize, &'a [u32])) {
        let lists = self.offsets.windows(2).map(|w| &self.items[w[0] as usize..w[1] as usize]);
        match self.keys {
            None => lists.enumerate().for_each(|(i, l)| f(i, self.first + i, l)),
            Some(keys) => keys
                .iter()
                .zip(lists)
                .enumerate()
                .for_each(|(i, (&k, l))| f(i, self.first + k as usize, l)),
        }
    }

    /// Entry `i`'s list, if there is one.
    #[inline]
    fn list(self, i: usize) -> Option<&'a [u32]> {
        self.offsets.get(i..i + 2).map(|w| &self.items[w[0] as usize..w[1] as usize])
    }
}

/// One worker's share of one partition: the whole partition, read straight
/// from the layout, or one [`Share`] of it, read from the lists copied for
/// its destination sub-range (only the sources and slots that reach it).
struct Unit<'a> {
    part: usize,
    /// Destinations this unit sums into and finalises.
    dsts: Range<usize>,
    intra: Lists<'a>,
    inbox: Lists<'a>,
    /// This unit's run of the partition's PNG messages (`png_src` indices).
    msgs: Range<usize>,
}

impl<'a> Unit<'a> {
    /// The unit of partition `p` for plan entry `t`; `sub` holds `t`'s
    /// sub-range lists when it shares `p`.
    fn new(
        layout: &'a PcpmLayout,
        p: usize,
        t: &ThreadPlan,
        sub: Option<&'a SubRangeLists>,
    ) -> Self {
        let vr = layout.partition_vertices(p);
        let sr = &layout.part_slot_ranges[p];
        let (vs, ss) = (vr.start as usize, sr.start as usize);
        let (intra, inbox, dsts) = match sub {
            None => (
                Lists {
                    first: vs,
                    keys: None,
                    offsets: &layout.intra_offsets[vs..=vr.end as usize],
                    items: &layout.intra_dst,
                },
                Lists {
                    first: ss,
                    keys: None,
                    offsets: &layout.dest_offsets[ss..=sr.end as usize],
                    items: &layout.dest_verts,
                },
                vs..vr.end as usize,
            ),
            Some(l) => (
                Lists {
                    first: vs,
                    keys: Some(&l.intra.keys),
                    offsets: &l.intra.offsets,
                    items: &l.intra.items,
                },
                Lists {
                    first: ss,
                    keys: Some(&l.inbox.keys),
                    offsets: &l.inbox.offsets,
                    items: &l.inbox.items,
                },
                t.vertex_range.start as usize..t.vertex_range.end as usize,
            ),
        };
        let Share { index, of } = t.share;
        let m = layout.png_msgs(p);
        Unit {
            part: p,
            dsts,
            intra,
            inbox,
            msgs: m.start + m.len() * index / of..m.start + m.len() * (index + 1) / of,
        }
    }
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
        // Fewer partitions than threads (1024 vertices): one partition
        // shared by 2, 3 and 4 threads, and two partitions for three threads
        // (one split, one not). Each matches 1-thread native and the sim.
        for (bytes, threads) in [(4096, 2), (4096, 3), (4096, 4), (2048, 3)] {
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
