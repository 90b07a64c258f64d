//! HiPa on the simulated NUMA machine.
//!
//! Region placement follows §3.4: every array is one contiguous virtual
//! range whose pages are distributed so that the slice belonging to node
//! `i`'s vertices / partitions / message slots physically lives on node `i`.
//! Threads are created once, pinned node-major (physical cores before SMT
//! siblings), and run the whole iterative scatter–gather computation
//! (Algorithm 2).
//!
//! The iteration is the shared partition-centric kernel ([`crate::kernel`])
//! with the [`Sim`] charge over this engine's [`SimRegions`]; this file keeps
//! the plan, the region placement and allocation order, the preprocessing
//! charge and the thread lifecycle of each [`HiPaVariant`]. The simulator
//! plans whole partitions ([`Unit::whole`]); `phase_balanced` replays the
//! simulated threads one after another on one host thread, so the kernel's
//! `SharedSlice` accesses never overlap.

use crate::config::{DanglingPolicy, PageRankConfig};
use crate::convergence;
use crate::hipa::placement::vertex_ends;
use crate::kernel::{base_value, dangling_mass, Arr, Kernel, Sim, SimRegions, State, Step, Unit};
use crate::pcpm::PcpmLayout;
use crate::runs::{RunEnd, SimOpts, SimRun};
use hipa_graph::{DiGraph, VERTEX_BYTES};
use hipa_numasim::{PhaseBalance, Placement, PoolId, SimMachine, ThreadPlacement};
use hipa_obs::{PoolCounters, Recorder, RUN_LEVEL};
use hipa_partition::hipa_plan_with_prefix;

/// Design-choice switches for the ablation experiments (DESIGN.md §7). The
/// default is the full HiPa design; each ablation bin flips one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HiPaVariant {
    /// Inter-edge compression (§3.4, Fig. 4). Off = one message per edge.
    pub compress_inter: bool,
    /// Thread-data pinning (§3.3): threads pinned to cores node-major and
    /// partitions statically grouped per thread. Off = OS-placed threads
    /// claiming partitions FCFS.
    pub thread_pinning: bool,
    /// Algorithm 2 persistent threads. Off = a fresh parallel region (new
    /// pool) per phase, Algorithm 1 style.
    pub persistent_threads: bool,
    /// §3.4 partition-mapped NUMA placement. Off = everything interleaved.
    pub partitioned_placement: bool,
}

impl Default for HiPaVariant {
    fn default() -> Self {
        HiPaVariant {
            compress_inter: true,
            thread_pinning: true,
            persistent_threads: true,
            partitioned_placement: true,
        }
    }
}

/// Appends one element's worth of coverage to the last node's range —
/// offset arrays have `len + 1` entries and the extra entry must be covered
/// by the placement.
fn plus_one_elem(mut ends: Vec<u64>) -> Vec<u64> {
    if let Some(l) = ends.last_mut() {
        *l += 1;
    }
    ends
}

pub fn run(g: &DiGraph, cfg: &PageRankConfig, opts: &SimOpts) -> SimRun {
    run_variant(g, cfg, opts, &HiPaVariant::default())
}

/// [`run`] with explicit design-choice switches (ablations).
pub fn run_variant(
    g: &DiGraph,
    cfg: &PageRankConfig,
    opts: &SimOpts,
    variant: &HiPaVariant,
) -> SimRun {
    if let Some(run) =
        crate::preorder::sim(g, cfg, opts, |g, cfg, opts| run_variant(g, cfg, opts, variant))
    {
        return run;
    }
    let n = g.num_vertices();
    if n == 0 {
        return SimRun::empty("HiPa", cfg, opts);
    }
    let mut machine = SimMachine::new(opts.machine.clone());
    let rec = Recorder::new(opts.trace);
    let topo = machine.spec().topology;
    let sockets = topo.sockets;
    let threads = opts.threads.clamp(sockets, topo.logical_cpus());
    assert_eq!(
        threads % sockets,
        0,
        "HiPa distributes threads evenly: {threads} threads on {sockets} nodes"
    );
    let tpn = threads / sockets;
    let vpp = (opts.partition_bytes / VERTEX_BYTES).max(1);
    // Adaptive hint gate (DESIGN.md §12): PCPM sizes partitions so the
    // random-access working set (one partition's contribution/accumulator
    // span) is cache-resident — hints there only burn issue slots. They arm
    // exactly when the configured partition spills the L2.
    let do_prefetch = opts.prefetch && opts.partition_bytes > opts.machine.l2.size_bytes;

    // ---- Preprocessing (host work; its simulated cost is charged below).
    // Runs on `build_threads` host workers; the structures are bit-identical
    // to the sequential build, so the simulated run is unaffected. The pool
    // deltas attribute the build's real scheduling work. ----
    let pc = PoolCounters::start(&rec);
    let build_threads = opts.effective_build_threads();
    let prefix = crate::par::degree_prefix_parallel(g.out_degrees(), build_threads);
    let plan = hipa_plan_with_prefix(&prefix, sockets, tpn, vpp);
    let layout =
        PcpmLayout::build_par_ext(g.out_csr(), vpp, false, variant.compress_inter, build_threads);
    let parts = layout.num_partitions;
    let msgs = layout.total_msgs as usize;

    // ---- Regions: partition-mapped contiguous layout (§3.4), or fully
    // interleaved when the placement ablation disables it ----
    let partitioned = variant.partitioned_placement;
    let blocked_by_index = |ends: &[u64], elem: usize| -> Placement {
        if partitioned {
            crate::hipa::placement::blocked_by_index(ends, elem)
        } else {
            Placement::Interleaved
        }
    };
    let v_ends = vertex_ends(&plan);
    let intra_ends: Vec<u64> = v_ends.iter().map(|&v| layout.intra_offsets[v as usize]).collect();
    // Each node's end in an array indexed by partition runs: the end of its
    // last partition's run.
    let node_ends = |run_end: &dyn Fn(usize) -> u64| -> Vec<u64> {
        let last = |nd: &hipa_partition::NodePlan| nd.part_range.end.checked_sub(1);
        plan.nodes.iter().map(|nd| last(nd).map_or(0, run_end)).collect()
    };
    // The PNG scatter view is split by *source* partition ownership.
    let pair_ends = node_ends(&|p| layout.png_index[p].end as u64);
    let msg_ends: Vec<u64> = v_ends.iter().map(|&v| layout.msg_offsets[v as usize]).collect();
    // Gather-side arrays are split by *destination* partition ownership, so
    // a node gathers from local memory (Fig. 1).
    let slot_ends = node_ends(&|p| layout.part_slot_ranges[p].end);
    let dest_ends: Vec<u64> = slot_ends.iter().map(|&s| layout.dest_offsets[s as usize]).collect();
    // Runtime metadata widths follow the real PCPM encoding: u32 intra
    // offsets, 12-byte PNG bin headers, u32 source lists, MSB-flagged u32
    // destination lists. (Host-side mirrors may be wider; only the charged
    // widths model DRAM traffic.) The vertex arrays are split by vertex
    // ownership.
    let regions = SimRegions::alloc(&mut machine, &layout, 4, 0, |a, bytes| {
        let placement = match a {
            Arr::IntraOffsets => blocked_by_index(&plus_one_elem(v_ends.clone()), 4),
            Arr::IntraDst => blocked_by_index(&intra_ends, 4),
            Arr::PngPairs => blocked_by_index(&pair_ends, 12),
            Arr::PngSrc => blocked_by_index(&msg_ends, 4),
            Arr::Vals => blocked_by_index(&slot_ends, 4),
            Arr::DestVerts => blocked_by_index(&dest_ends, 4),
            Arr::Rank | Arr::Contrib | Arr::Acc | Arr::InvDeg | Arr::Deg => {
                blocked_by_index(&v_ends, 4)
            }
        };
        (bytes, placement)
    });
    // Raw CSR as loaded from disk, before any NUMA awareness: interleaved.
    let m = g.num_edges();
    let csr_tgt_r = machine.alloc("csr_targets", 4 * m.max(1), Placement::Interleaved);
    let csr_off_r = machine.alloc("csr_offsets", 8 * (n + 1), Placement::Interleaved);

    // ---- Charge the preprocessing cost: plan (one degree scan), PCPM
    // layout (three edge passes), and the NUMA-aware binding copy of every
    // array the engine will use (§4.2's "graph partitioning and NUMA-aware
    // data binding" overhead).
    machine.seq(|ctx| {
        ctx.stream_read(csr_off_r, 0, 8 * (n + 1));
        ctx.compute(2 * n as u64);
        for _pass in 0..3 {
            ctx.stream_read(csr_off_r, 0, 8 * (n + 1));
            if m > 0 {
                ctx.stream_read(csr_tgt_r, 0, 4 * m);
            }
            ctx.compute(2 * m as u64);
        }
        regions.bind(ctx, &[Arr::Vals]);
    });
    let preprocess_cycles = machine.cycles();
    rec.record("preprocess", RUN_LEVEL, RUN_LEVEL, preprocess_cycles);

    // ---- Thread management per variant. Full HiPa: one persistent pool,
    // pinned node-major (physical cores before hyper-thread siblings),
    // Algorithm 2. Ablations fall back to OS placement, node binding, or
    // per-region pools (Algorithm 1).
    let placement = if variant.thread_pinning {
        let mut cpus = Vec::with_capacity(threads);
        for node in 0..sockets {
            let on_socket = topo.logicals_on_socket(node);
            assert!(tpn <= on_socket.len(), "{tpn} threads exceed node {node}'s logical CPUs");
            cpus.extend_from_slice(&on_socket[..tpn]);
        }
        ThreadPlacement::Pinned(cpus)
    } else {
        ThreadPlacement::OsRandom
    };
    // Without persistent threads, NUMA-awareness falls back to per-region
    // node binding (the migration-prone Algorithm 1 pattern of §3.3).
    let per_region_placement = if variant.thread_pinning {
        let bind: Vec<usize> = plan.threads().map(|(node, _, _)| node).collect();
        ThreadPlacement::BindNode(bind)
    } else {
        ThreadPlacement::OsRandom
    };
    let persistent_pool: Option<PoolId> = if variant.persistent_threads {
        Some(machine.create_pool(threads, &placement))
    } else {
        None
    };
    let balance = if variant.thread_pinning { PhaseBalance::Static } else { PhaseBalance::Dynamic };
    let pool =
        persistent_pool.unwrap_or_else(|| machine.create_pool(threads, &per_region_placement));

    // ---- Host-side working state (actual computation data) ----
    let inv_deg = crate::par::inv_deg_parallel(g, build_threads);
    let mut state = State::new(&inv_deg, msgs);
    let thread_parts: Vec<Vec<usize>> = if variant.thread_pinning {
        plan.threads().map(|(_, _, t)| t.part_range.clone().collect()).collect()
    } else {
        // FCFS claiming, emulated as a round-robin deal (the order a shared
        // counter converges to under uniform progress).
        (0..threads).map(|j| (j..parts).step_by(threads).collect()).collect()
    };

    // Init phase: every thread first-touches its own slices.
    let init_c0 = machine.cycles();
    machine.phase_balanced(pool, balance, |j, ctx| {
        for &p in &thread_parts[j] {
            let vr = layout.partition_vertices(p);
            let (lo, len) = (vr.start as usize, vr.len());
            if len == 0 {
                continue;
            }
            for a in [Arr::Contrib, Arr::Acc, Arr::InvDeg] {
                ctx.stream_write(regions.id(a), 4 * lo, 4 * len);
            }
        }
    });
    rec.record("init", RUN_LEVEL, RUN_LEVEL, machine.cycles() - init_c0);

    let mut dangling = dangling_mass(g, cfg, &state.rank);

    // ---- Iterations: scatter; barrier; gather+finalize; barrier ----
    let tol = convergence::effective_tolerance(cfg.tolerance);
    // The recorder must not perturb the model: `track_model` (the tolerance
    // check) governs the *charged* rank-vector traffic, while `track_host`
    // additionally materialises ranks host-side so the trace can carry the
    // convergence trajectory. Cycles and counters are identical with
    // tracing on or off.
    let track_model = tol.is_some();
    let track_host = track_model || rec.enabled();
    let mut iterations_run = 0usize;
    let mut converged = false;
    {
        // SAFETY: `phase_balanced` steps the simulated threads one after
        // another on this thread, so no two units ever run at the same time.
        let kernel = unsafe { Kernel::new(&layout, g, cfg, &inv_deg, &mut state, do_prefetch) };
        for it in 0..cfg.iterations {
            let last = it + 1 == cfg.iterations;
            let step = Step::sim(base_value(cfg, n, dangling), last, track_model, track_host);

            // Scatter: stream own partitions, apply intra edges in-cache, write
            // compressed messages into destination bins.
            let pool = persistent_pool
                .unwrap_or_else(|| machine.create_pool(threads, &per_region_placement));
            let scatter_c0 = machine.cycles();
            machine.phase_balanced(pool, balance, |j, ctx| {
                let mut c = Sim { ctx, regions: &regions };
                for &p in &thread_parts[j] {
                    kernel.scatter(&Unit::whole(&layout, p), &mut c);
                }
                if rec.enabled() {
                    rec.record("scatter", j as i64, it as i64, c.ctx.thread_cycles());
                }
            });
            rec.record("scatter", RUN_LEVEL, it as i64, machine.cycles() - scatter_c0);

            // Gather: stream the partition's inbox, propagate each message to
            // its destination vertices, then finalise the partition's new ranks.
            let pool = persistent_pool
                .unwrap_or_else(|| machine.create_pool(threads, &per_region_placement));
            let gather_c0 = machine.cycles();
            let mut partials = vec![0.0f64; threads];
            let mut delta_partials = vec![0.0f64; threads];
            machine.phase_balanced(pool, balance, |j, ctx| {
                let mut c = Sim { ctx, regions: &regions };
                for &q in &thread_parts[j] {
                    let u = Unit::whole(&layout, q);
                    kernel.apply_inbox(&u, &mut c);
                    kernel.finalise(&u, &step, &mut delta_partials[j], &mut partials[j], &mut c);
                }
                if rec.enabled() {
                    rec.record("gather", j as i64, it as i64, c.ctx.thread_cycles());
                }
            });
            rec.record("gather", RUN_LEVEL, it as i64, machine.cycles() - gather_c0);
            if matches!(cfg.dangling, DanglingPolicy::Redistribute) {
                dangling = partials.iter().sum();
            }
            iterations_run = it + 1;
            if track_host && convergence::check(&rec, it, &delta_partials, Some(parts as u64), tol)
            {
                converged = true;
                break;
            }
        }
    }

    let end = RunEnd {
        engine: "HiPa",
        g,
        threads,
        partitions: Some(parts),
        ranks: state.rank,
        iterations_run,
        converged,
    };
    SimRun::finish(end, rec, pc, &machine, preprocess_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{max_rel_error, reference_pagerank};
    use crate::runs::NativeOpts;
    use hipa_numasim::MachineSpec;

    #[test]
    fn sim_matches_reference_and_native_bitwise() {
        let g = hipa_graph::datasets::small_test_graph(33);
        let cfg = PageRankConfig::default().with_iterations(6);
        let opts = SimOpts::new(MachineSpec::tiny_test()).with_partition_bytes(512);
        let sim = run(&g, &cfg, &opts);
        let oracle = reference_pagerank(&g, &cfg);
        assert!(
            max_rel_error(&sim.ranks, &oracle) < 1e-3,
            "err {}",
            max_rel_error(&sim.ranks, &oracle)
        );
        let native = crate::hipa::native::run(&g, &cfg, &NativeOpts::new(3, 512));
        assert_eq!(sim.ranks, native.ranks, "sim and native must be bit-identical");
    }

    #[test]
    fn sim_produces_memory_activity_and_time() {
        let g = hipa_graph::datasets::small_test_graph(34);
        let cfg = PageRankConfig::default().with_iterations(3);
        let opts = SimOpts::new(MachineSpec::tiny_test()).with_partition_bytes(1024);
        let sim = run(&g, &cfg, &opts);
        assert!(sim.compute_cycles > 0.0);
        assert!(sim.preprocess_cycles > 0.0);
        assert!(sim.report.mem.reads > 0);
        assert!(sim.report.mem.dram_local + sim.report.mem.dram_remote > 0);
        // Pinned persistent threads: one pool, no migrations.
        assert_eq!(sim.report.migrations, 0);
        assert_eq!(
            sim.report.threads_created as usize,
            MachineSpec::tiny_test().topology.logical_cpus()
        );
    }

    #[test]
    fn numa_placement_keeps_most_traffic_local() {
        let g = hipa_graph::datasets::small_test_graph(35);
        let cfg = PageRankConfig::default().with_iterations(5);
        let opts = SimOpts::new(MachineSpec::tiny_test()).with_partition_bytes(512);
        let sim = run(&g, &cfg, &opts);
        let frac = sim.report.mem.remote_fraction();
        assert!(frac < 0.45, "remote fraction {frac} too high for a NUMA-aware engine");
    }
}
