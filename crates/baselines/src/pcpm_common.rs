//! The execution model of the two NUMA-oblivious partition-centric
//! baselines (p-PR and GPOP-lite).
//!
//! Both run the shared partition-centric kernel (`hipa_core::kernel`, the
//! same one HiPa runs) over the PCPM layout, but — unlike HiPa — with the
//! conventional partition-centric execution model the paper's §3.2/§3.3
//! argue against. This file keeps only that model:
//!
//! * **many-to-many threads↔partitions**: partitions are claimed first-come-
//!   first-serve from a shared atomic counter (the native path really does
//!   this; the simulated path charges the atomic claim and deals partitions
//!   round-robin, which is what FCFS converges to under uniform progress);
//! * **Algorithm 1 thread lifecycle**: a fresh OS-placed thread pool per
//!   parallel region (2 regions per iteration). The recreation cost is
//!   charged on the simulated path (`create_pool` per region); the native
//!   path runs both regions on one persistent rayon pool of `threads`
//!   resident workers — real frameworks sit on a persistent runtime too,
//!   and the FCFS claiming is the baseline-defining behaviour, not the
//!   thread spawns;
//! * **NUMA-oblivious placement**: all pages interleaved.
//!
//! GPOP-lite differs from p-PR by `include_intra_in_bins` (the framework
//! bins every edge, with no direct intra-edge application), by its wider
//! bin payload and per-edge framework ops (both in the simulator's
//! `SimRegions`), and by touching per-partition framework metadata
//! (Flags/State) in every phase.
//!
//! disjointness: FCFS claim plan — a shared `ClaimCounter` hands each
//! partition index to exactly one thread per region, so the kernel's
//! acc/rank/contrib/vals writes (all inside the claimed partition's unit)
//! and the per-partition `delta_parts[q]` slot are disjoint, as is the
//! per-thread `partials[j]` slot. The kernel's slices live for the whole
//! run (the partials' for one gather region); the pool scope's join orders
//! one region's writes before the next region's, whichever thread claims a
//! partition there.

use hipa_core::convergence;
use hipa_core::disjoint::SharedSlice;
use hipa_core::hb::ClaimCounter;
use hipa_core::kernel::{
    base_value, dangling_mass, Arr, Kernel, Native, Sim, SimRegions, State, Step, Unit,
};
use hipa_core::{
    DanglingPolicy, NativeOpts, NativeRun, PageRankConfig, PcpmLayout, RunEnd, SimOpts, SimRun,
};
use hipa_graph::{DiGraph, VERTEX_BYTES};
use hipa_numasim::{PhaseBalance, Placement, SimMachine, ThreadPlacement};
use hipa_obs::{PoolCounters, Recorder, RUN_LEVEL};
use std::time::Instant;

/// Behavioural knobs distinguishing p-PR from GPOP-lite.
#[derive(Debug, Clone, Copy)]
pub struct PcpmParams {
    pub label: &'static str,
    /// Bin every edge (GPOP) instead of applying intra-edges directly (p-PR).
    pub include_intra_in_bins: bool,
    /// Framework metadata bytes per partition, read+written each phase.
    pub meta_bytes_per_part: usize,
    /// Bytes per message in the bins: 4 for the hand-tuned p-PR (pure
    /// values), 8 for the generic framework (id + value pairs).
    pub payload_bytes: usize,
    /// Framework overhead per processed edge/message (user-function
    /// dispatch, id decoding, bounds/state checks) in arithmetic-op units.
    /// 0 for hand-tuned code.
    pub extra_ops_per_edge: u64,
}

pub fn run_native(
    g: &DiGraph,
    cfg: &PageRankConfig,
    opts: &NativeOpts,
    params: &PcpmParams,
) -> NativeRun {
    if let Some(run) =
        hipa_core::preorder::native(g, cfg, opts, |g, cfg, opts| run_native(g, cfg, opts, params))
    {
        return run;
    }
    let n = g.num_vertices();
    if n == 0 {
        return NativeRun::empty(params.label, cfg, opts);
    }
    let rec = Recorder::new(opts.trace);
    let threads = opts.threads.max(1);
    // Adaptive hint gate — see the sim path: hints arm only when the
    // partition's random-access span spills the (assumed) L2.
    let do_prefetch = opts.prefetch && opts.partition_bytes > hipa_core::prefetch::NATIVE_L2_BYTES;
    let tol = convergence::effective_tolerance(cfg.tolerance);
    // Residuals feed the stop rule *or* the trace's convergence trajectory.
    let track = tol.is_some() || rec.enabled();
    let vpp = (opts.partition_bytes / VERTEX_BYTES).max(1);

    let build_threads = opts.effective_build_threads();

    let pc = PoolCounters::start(&rec);
    let t0 = Instant::now();
    let layout = PcpmLayout::build_par_ext(
        g.out_csr(),
        vpp,
        params.include_intra_in_bins,
        true,
        build_threads,
    );
    let inv_deg = hipa_core::par::inv_deg_parallel(g, build_threads);
    // One persistent pool of `threads` resident workers for the whole run
    // (see the module docs); construction is part of the setup cost.
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("rayon pool");
    let preprocess = t0.elapsed();

    let parts = layout.num_partitions;
    let mut state = State::new(&inv_deg, layout.total_msgs as usize);
    let mut dangling = dangling_mass(g, cfg, &state.rank);
    // Residuals are accumulated per *partition* (not per thread): FCFS
    // claiming makes the thread→partition map nondeterministic, and the
    // shared convergence rule requires a deterministic f64 reduction order.
    let mut delta_parts = vec![0.0f64; if track { parts } else { 0 }];
    let mut iterations_run = 0usize;
    let mut converged = false;
    let claims_counter = rec.counter("partition_claims");

    let t1 = Instant::now();
    {
        // SAFETY: a claimed partition is stepped by one thread only, and the
        // scatter region joins before the gather region starts.
        let kernel = unsafe { Kernel::new(&layout, g, cfg, &inv_deg, &mut state, do_prefetch) };
        // One FCFS-claimed region on the pool: `body(j, p)` runs for every
        // partition `p` that thread `j` claims.
        let region = |(phase, claims_phase): (&str, &str),
                      it: usize,
                      body: &(dyn Fn(usize, usize) + Sync)| {
            let region_t = rec.start();
            let counter = ClaimCounter::new();
            pool.scope(|scope| {
                for j in 0..threads {
                    let (counter, rec, claims_counter) = (&counter, &rec, claims_counter.clone());
                    scope.spawn(move |_| {
                        let mut spans = rec.thread_spans(j);
                        let span_t = spans.start();
                        let mut claims = 0u64;
                        loop {
                            // ordering: see `ClaimCounter::claim` — relaxed
                            // uniqueness normally, an AcqRel + vector-clock
                            // edge under the checker features; data
                            // visibility comes from the region's join.
                            let p = counter.claim();
                            if p >= parts {
                                break;
                            }
                            claims += 1;
                            body(j, p);
                        }
                        spans.end(span_t, phase, it);
                        spans.record(claims_phase, it, claims as f64);
                        claims_counter.add(claims);
                        spans.flush(rec);
                    });
                }
            });
            rec.end(region_t, phase, RUN_LEVEL, it as i64);
        };
        for it in 0..cfg.iterations {
            region(("scatter", "scatter.claims"), it, &|_, p| {
                kernel.scatter(&Unit::whole(&layout, p), &mut Native)
            });
            let step = Step::native(base_value(cfg, n, dangling), track);
            let mut partials = vec![0.0f64; threads];
            {
                let partials_s = SharedSlice::new(&mut partials);
                let deltas_s = SharedSlice::new(&mut delta_parts);
                region(("gather", "gather.claims"), it, &|j, q| {
                    let u = Unit::whole(&layout, q);
                    let mut delta = 0.0f64;
                    kernel.apply_inbox(&u, &mut Native);
                    // SAFETY: slot j is this thread's running dangling sum,
                    // slot q belongs to the exclusively claimed partition.
                    unsafe {
                        partials_s.update(j, |dpart| {
                            kernel.finalise(&u, &step, &mut delta, dpart, &mut Native)
                        });
                        if track {
                            deltas_s.write(q, delta);
                        }
                    }
                });
            }
            if matches!(cfg.dangling, DanglingPolicy::Redistribute) {
                dangling = partials.iter().sum();
            }
            iterations_run += 1;
            if track && convergence::check(&rec, it, &delta_parts, Some(parts as u64), tol) {
                converged = true;
                break;
            }
        }
    }
    let compute = t1.elapsed();
    let end = RunEnd {
        engine: params.label,
        g,
        threads,
        partitions: Some(parts),
        ranks: state.rank,
        iterations_run,
        converged,
    };
    NativeRun::finish(end, rec, pc, preprocess, compute)
}

pub fn run_sim(g: &DiGraph, cfg: &PageRankConfig, opts: &SimOpts, params: &PcpmParams) -> SimRun {
    if let Some(run) =
        hipa_core::preorder::sim(g, cfg, opts, |g, cfg, opts| run_sim(g, cfg, opts, params))
    {
        return run;
    }
    let n = g.num_vertices();
    if n == 0 {
        return SimRun::empty(params.label, cfg, opts);
    }
    let mut machine = SimMachine::new(opts.machine.clone());
    let rec = Recorder::new(opts.trace);
    let threads = opts.threads.clamp(1, machine.spec().topology.logical_cpus());
    let vpp = (opts.partition_bytes / VERTEX_BYTES).max(1);
    // Adaptive hint gate (DESIGN.md §12): PCPM's partition-resident random
    // accesses don't need hints; they arm when the partition spills the L2.
    let do_prefetch = opts.prefetch && opts.partition_bytes > opts.machine.l2.size_bytes;
    let m = g.num_edges();

    // Host-side build on `build_threads` workers; the simulated preprocessing
    // cost charged below is unchanged (same passes, same bytes). The pool
    // deltas attribute the build's real scheduling work.
    let pc = PoolCounters::start(&rec);
    let layout = PcpmLayout::build_par_ext(
        g.out_csr(),
        vpp,
        params.include_intra_in_bins,
        true,
        opts.effective_build_threads(),
    );
    let msgs = layout.total_msgs as usize;
    let parts = layout.num_partitions;

    // NUMA-oblivious: interleaved everywhere. The runtime metadata widths
    // follow the PCPM encoding, as in hipa-core's sim path.
    let il = || Placement::Interleaved;
    let payload = params.payload_bytes;
    let extra_ops = params.extra_ops_per_edge;
    let regions = SimRegions::alloc(&mut machine, &layout, payload, extra_ops, |a, bytes| {
        let min = if matches!(a, Arr::PngPairs | Arr::Vals) { 64 } else { 4 };
        (bytes.max(min), il())
    });
    let sched_r = machine.alloc("fcfs_counter", 64, il());
    let meta_r = machine.alloc("part_meta", (params.meta_bytes_per_part * parts).max(64), il());
    let csr_tgt_r = machine.alloc("csr_targets", 4 * m.max(1), il());
    let csr_off_r = machine.alloc("csr_offsets", 8 * (n + 1), il());

    // Preprocessing: the PCPM layout build (three edge passes + writes).
    machine.seq(|ctx| {
        for _pass in 0..3 {
            ctx.stream_read(csr_off_r, 0, 8 * (n + 1));
            if m > 0 {
                ctx.stream_read(csr_tgt_r, 0, 4 * m);
            }
            ctx.compute(2 * m as u64);
        }
        regions.bind(ctx, &[Arr::Deg, Arr::Vals]);
    });
    let preprocess_cycles = machine.cycles();
    rec.record("preprocess", RUN_LEVEL, RUN_LEVEL, preprocess_cycles);

    let inv_deg = hipa_core::par::inv_deg_parallel(g, opts.effective_build_threads());
    let mut state = State::new(&inv_deg, msgs);
    let mut dangling = dangling_mass(g, cfg, &state.rank);
    let meta = params.meta_bytes_per_part;
    // One FCFS claim: the atomic on the shared counter, then the claimed
    // partition's framework metadata.
    let claim = |ctx: &mut hipa_numasim::ThreadCtx, p: usize| {
        ctx.atomic_rmw(sched_r, 0, 8);
        if meta > 0 {
            ctx.stream_read(meta_r, p * meta, meta);
            ctx.stream_write(meta_r, p * meta, meta);
        }
    };
    let tol = convergence::effective_tolerance(cfg.tolerance);
    // `track_model` (the tolerance check) governs the *charged* rank-vector
    // traffic; `track_host` additionally materialises ranks host-side so
    // the trace can carry the convergence trajectory. Cycles and counters
    // are identical with tracing on or off.
    let track_model = tol.is_some();
    let track_host = track_model || rec.enabled();
    // Per-partition residual slots, mirroring the native path's
    // deterministic reduction order.
    let mut delta_parts = vec![0.0f64; if track_host { parts } else { 0 }];
    let mut iterations_run = 0usize;
    let mut converged = false;
    let claims_counter = rec.counter("partition_claims");
    {
        // SAFETY: `phase_balanced` steps the simulated threads one after
        // another on this thread, so no two units ever run at the same time.
        let kernel = unsafe { Kernel::new(&layout, g, cfg, &inv_deg, &mut state, do_prefetch) };
        for it in 0..cfg.iterations {
            let last = it + 1 == cfg.iterations;
            let step = Step::sim(base_value(cfg, n, dangling), last, track_model, track_host);

            // --- Scatter region: fresh OS-placed pool, FCFS claims ---
            let pool = machine.create_pool(threads, &ThreadPlacement::OsRandom);
            let scatter_c0 = machine.cycles();
            machine.phase_balanced(pool, PhaseBalance::Dynamic, |j, ctx| {
                let mut claims = 0u64;
                for p in (j..parts).step_by(threads) {
                    claims += 1;
                    claim(ctx, p);
                    kernel.scatter(&Unit::whole(&layout, p), &mut Sim { ctx, regions: &regions });
                }
                rec.record("scatter.claims", j as i64, it as i64, claims as f64);
                if rec.enabled() {
                    rec.record("scatter", j as i64, it as i64, ctx.thread_cycles());
                }
                claims_counter.add(claims);
            });
            rec.record("scatter", RUN_LEVEL, it as i64, machine.cycles() - scatter_c0);

            // --- Gather region ---
            let mut partials = vec![0.0f64; threads];
            let pool = machine.create_pool(threads, &ThreadPlacement::OsRandom);
            let gather_c0 = machine.cycles();
            machine.phase_balanced(pool, PhaseBalance::Dynamic, |j, ctx| {
                let mut claims = 0u64;
                for q in (j..parts).step_by(threads) {
                    claims += 1;
                    claim(ctx, q);
                    let u = Unit::whole(&layout, q);
                    let mut c = Sim { ctx, regions: &regions };
                    let mut delta = 0.0f64;
                    kernel.apply_inbox(&u, &mut c);
                    kernel.finalise(&u, &step, &mut delta, &mut partials[j], &mut c);
                    if track_host {
                        delta_parts[q] = delta;
                    }
                }
                rec.record("gather.claims", j as i64, it as i64, claims as f64);
                if rec.enabled() {
                    rec.record("gather", j as i64, it as i64, ctx.thread_cycles());
                }
                claims_counter.add(claims);
            });
            rec.record("gather", RUN_LEVEL, it as i64, machine.cycles() - gather_c0);
            if matches!(cfg.dangling, DanglingPolicy::Redistribute) {
                dangling = partials.iter().sum();
            }
            iterations_run = it + 1;
            if track_host && convergence::check(&rec, it, &delta_parts, Some(parts as u64), tol) {
                converged = true;
                break;
            }
        }
    }

    let end = RunEnd {
        engine: params.label,
        g,
        threads,
        partitions: Some(parts),
        ranks: state.rank,
        iterations_run,
        converged,
    };
    SimRun::finish(end, rec, pc, &machine, preprocess_cycles)
}
