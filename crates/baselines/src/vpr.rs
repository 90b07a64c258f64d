//! v-PR: hand-optimised pull-based vertex-centric PageRank (§4.1).
//!
//! "Each vertex pulls the value from its in-neighbors for accumulation.
//! This enables all columns of an adjacency matrix to be traversed
//! asynchronously in parallel without storing the partial sum." — i.e. no
//! contribution array is materialised: every in-edge performs two random
//! reads (`rank[u]`, `1/outdeg[u]`) against the full vertex arrays. One
//! parallel region per iteration; new-vs-old rank vectors are double
//! buffered. NUMA-oblivious: interleaved pages, OS-random thread placement,
//! threads recreated every region (Algorithm 1 — charged on the simulated
//! path via `create_pool` per iteration). The native path uses a rayon
//! thread pool — the idiomatic Rust data-parallel runtime, whose workers
//! are persistent — with one pre-computed edge-balanced range per worker;
//! its `num_threads(threads)` genuinely bounds the run's concurrency now
//! that the shim backs pools with resident workers.
//!
//! disjointness: edge-balanced plan (`edge_balanced`) — each worker writes
//! `next` only inside its own vertex range plus its own slot `j` of the
//! partial arrays; slices are recreated per iteration region.

use hipa_core::convergence;
use hipa_core::disjoint::SharedSlice;
use hipa_core::kernel::{base_value, dangling_mass};
use hipa_core::prefetch::{prefetch_read, LineFilter, PREFETCH_DISTANCE};
use hipa_core::{
    DanglingPolicy, Engine, NativeOpts, NativeRun, PageRankConfig, RunEnd, SimOpts, SimRun,
};
use hipa_graph::DiGraph;
use hipa_numasim::{PhaseBalance, Placement, SimMachine, ThreadPlacement};
use hipa_obs::{PoolCounters, Recorder, RUN_LEVEL};
use hipa_partition::edge_balanced;
use std::ops::Range;
use std::time::Instant;

/// The v-PR methodology.
#[derive(Debug, Clone, Copy, Default)]
pub struct Vpr;

impl Engine for Vpr {
    fn name(&self) -> &'static str {
        "v-PR"
    }

    fn numa_aware(&self) -> bool {
        false
    }

    fn run_native(&self, g: &DiGraph, cfg: &PageRankConfig, opts: &NativeOpts) -> NativeRun {
        run_native(g, cfg, opts)
    }

    fn run_sim(&self, g: &DiGraph, cfg: &PageRankConfig, opts: &SimOpts) -> SimRun {
        run_sim(g, cfg, opts)
    }
}

/// In-degree array (pull workload is proportional to in-edges).
fn in_degrees(g: &DiGraph) -> Vec<u32> {
    (0..g.num_vertices()).map(|v| g.in_degree(v as u32)).collect()
}

pub fn run_native(g: &DiGraph, cfg: &PageRankConfig, opts: &NativeOpts) -> NativeRun {
    if let Some(run) = hipa_core::preorder::native(g, cfg, opts, run_native) {
        return run;
    }
    let n = g.num_vertices();
    if n == 0 {
        return NativeRun::empty("v-PR", cfg, opts);
    }
    let rec = Recorder::new(opts.trace);
    let threads = opts.threads.max(1);
    let do_prefetch = opts.prefetch;
    let tol = convergence::effective_tolerance(cfg.tolerance);
    // Residuals feed the stop rule *or* the trace's convergence trajectory.
    let track = tol.is_some() || rec.enabled();

    // Pool construction is part of the engine's setup cost — inside the
    // preprocess window, like the layout builds of the PCPM engines. The
    // `threads` knob bounds the run's concurrency: the pool has exactly
    // `threads` resident workers and every spawn below lands on them.
    let pc = PoolCounters::start(&rec);
    let t0 = Instant::now();
    let ranges = edge_balanced(&in_degrees(g), threads);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("rayon pool");
    let preprocess = t0.elapsed();

    let d = cfg.damping;
    let mut cur = vec![1.0f32 / n as f32; n];
    let mut next = vec![0.0f32; n];
    let mut dangling = dangling_mass(g, cfg, &cur);
    let degs = g.out_degrees();
    let in_csr = g.in_csr();

    let t1 = Instant::now();
    let mut iterations_run = 0usize;
    let mut converged = false;
    for it in 0..cfg.iterations {
        let base = base_value(cfg, n, dangling);
        let pull_t = rec.start();
        let mut partials = vec![0.0f64; threads];
        let mut delta_partials = vec![0.0f64; threads];
        {
            let cur = &cur;
            let next_s = SharedSlice::new(&mut next);
            let partials_s = SharedSlice::new(&mut partials);
            let deltas_s = SharedSlice::new(&mut delta_partials);
            // One parallel region per iteration (Algorithm 1): the rayon
            // scope fans the pre-balanced ranges out across the pool.
            pool.scope(|scope| {
                for (j, r) in ranges.iter().enumerate() {
                    let next_s = &next_s;
                    let partials_s = &partials_s;
                    let deltas_s = &deltas_s;
                    let rec = &rec;
                    let r = r.clone();
                    scope.spawn(move |_| {
                        let mut spans = rec.thread_spans(j);
                        let span_t = spans.start();
                        let mut dpart = 0.0f64;
                        let mut delta = 0.0f64;
                        // Flat lookahead over the range's contiguous CSR
                        // target window: per-list lookahead would rarely
                        // fire on power-law degrees (< PREFETCH_DISTANCE).
                        let tgts = in_csr.targets_raw();
                        let ehi = in_csr.offset(r.end) as usize;
                        let mut e = in_csr.offset(r.start) as usize;
                        let mut pf = LineFilter::new();
                        for v in r.start as usize..r.end as usize {
                            let mut acc = 0.0f32;
                            for &u in in_csr.neighbors(v as u32) {
                                if do_prefetch {
                                    let ea = e + PREFETCH_DISTANCE;
                                    if ea < ehi {
                                        let au = tgts[ea] as usize;
                                        if pf.admit(au) {
                                            prefetch_read(cur, au);
                                            prefetch_read(degs, au);
                                        }
                                    }
                                }
                                e += 1;
                                // No stored contributions: divide per edge
                                // ("without storing the partial sum", §4.1).
                                acc += cur[u as usize] / degs[u as usize] as f32;
                            }
                            let new = base + d * acc;
                            if track {
                                delta += convergence::l1_term(new, cur[v]);
                            }
                            // SAFETY: vertex ranges are disjoint per thread.
                            unsafe { next_s.write(v, new) };
                            if matches!(cfg.dangling, DanglingPolicy::Redistribute) && degs[v] == 0
                            {
                                dpart += new as f64;
                            }
                        }
                        // SAFETY: slot j of both partial arrays is this
                        // thread's own.
                        unsafe {
                            partials_s.write(j, dpart);
                            deltas_s.write(j, delta);
                        }
                        spans.end(span_t, "pull", it);
                        spans.flush(rec);
                    });
                }
            });
        }
        rec.end(pull_t, "pull", RUN_LEVEL, it as i64);
        if matches!(cfg.dangling, DanglingPolicy::Redistribute) {
            dangling = partials.iter().sum();
        }
        std::mem::swap(&mut cur, &mut next);
        iterations_run += 1;
        if track && convergence::check(&rec, it, &delta_partials, None, tol) {
            converged = true;
            break;
        }
    }
    let compute = t1.elapsed();
    let end = RunEnd {
        engine: "v-PR",
        g,
        threads,
        partitions: None,
        ranks: cur,
        iterations_run,
        converged,
    };
    NativeRun::finish(end, rec, pc, preprocess, compute)
}

pub fn run_sim(g: &DiGraph, cfg: &PageRankConfig, opts: &SimOpts) -> SimRun {
    if let Some(run) = hipa_core::preorder::sim(g, cfg, opts, run_sim) {
        return run;
    }
    let n = g.num_vertices();
    if n == 0 {
        return SimRun::empty("v-PR", cfg, opts);
    }
    let mut machine = SimMachine::new(opts.machine.clone());
    let rec = Recorder::new(opts.trace);
    let threads = opts.threads.clamp(1, machine.spec().topology.logical_cpus());
    let do_prefetch = opts.prefetch;
    let m = g.num_edges();
    // The simulated path models its own thread lifecycle (`create_pool` per
    // region); the pool deltas attribute any real shim-pool work it does.
    let pc = PoolCounters::start(&rec);

    // NUMA-oblivious placement: everything interleaved.
    let rank_a = machine.alloc("rank_a", 4 * n, Placement::Interleaved);
    let rank_b = machine.alloc("rank_b", 4 * n, Placement::Interleaved);
    let deg_r = machine.alloc("deg", 4 * n, Placement::Interleaved);
    let in_off_r = machine.alloc("in_offsets", 8 * (n + 1), Placement::Interleaved);
    let in_tgt_r = machine.alloc("in_targets", 4 * m.max(1), Placement::Interleaved);

    // Preprocessing: build the transpose (one CSR pass + one write pass) and
    // the inverse-degree array.
    machine.seq(|ctx| {
        ctx.stream_read(in_off_r, 0, 8 * (n + 1));
        if m > 0 {
            ctx.stream_read(in_tgt_r, 0, 4 * m);
            ctx.stream_write(in_tgt_r, 0, 4 * m);
        }
        ctx.stream_write(in_off_r, 0, 8 * (n + 1));
        ctx.compute(2 * (n + m) as u64);
    });
    let preprocess_cycles = machine.cycles();
    rec.record("preprocess", RUN_LEVEL, RUN_LEVEL, preprocess_cycles);

    let ranges = edge_balanced(&in_degrees(g), threads);
    let d = cfg.damping;
    let mut cur = vec![1.0f32 / n as f32; n];
    let mut next = vec![0.0f32; n];
    let mut dangling = dangling_mass(g, cfg, &cur);
    let degs = g.out_degrees();
    let in_csr = g.in_csr();
    let (mut cur_r, mut next_r) = (rank_a, rank_b);
    let tol = convergence::effective_tolerance(cfg.tolerance);
    // `track_model` (the tolerance check) governs the *charged* rank-vector
    // traffic; `track_host` additionally computes host-side deltas for the
    // trace's convergence trajectory. Cycles and counters are identical
    // with tracing on or off.
    let track_model = tol.is_some();
    let track_host = track_model || rec.enabled();
    let mut iterations_run = 0usize;
    let mut converged = false;

    for it in 0..cfg.iterations {
        let base = base_value(cfg, n, dangling);
        let mut partials = vec![0.0f64; threads];
        let mut delta_partials = vec![0.0f64; threads];
        // New parallel region (fresh pool, OS-random placement) per
        // iteration — the Algorithm-1 thread-lifecycle model.
        let pool = machine.create_pool(threads, &ThreadPlacement::OsRandom);
        let pull_c0 = machine.cycles();
        {
            let cur = &cur;
            let next = &mut next;
            let partials = &mut partials;
            let delta_partials = &mut delta_partials;
            let ranges: &[Range<u32>] = &ranges;
            machine.phase_balanced(pool, PhaseBalance::Dynamic, |j, ctx| {
                let r = ranges[j].clone();
                let (lo, hi) = (r.start as usize, r.end as usize);
                if lo == hi {
                    partials[j] = 0.0;
                    return;
                }
                let len = hi - lo;
                ctx.stream_read(in_off_r, 8 * lo, 8 * (len + 1));
                let elo = in_csr.offset(lo as u32) as usize;
                let ehi = in_csr.offset(hi as u32) as usize;
                if ehi > elo {
                    ctx.stream_read(in_tgt_r, 4 * elo, 4 * (ehi - elo));
                }
                ctx.stream_write(next_r, 4 * lo, 4 * len);
                if track_model {
                    // Delta tracking re-streams the old ranks of the range.
                    ctx.stream_read(cur_r, 4 * lo, 4 * len);
                }
                if matches!(cfg.dangling, DanglingPolicy::Redistribute) {
                    ctx.stream_read(deg_r, 4 * lo, 4 * len);
                }
                let mut dpart = 0.0f64;
                let mut delta = 0.0f64;
                // Flat lookahead over the contiguous target window (see the
                // native kernel): hints the rank/degree lines of the edge
                // PREFETCH_DISTANCE positions onward.
                let tgts = in_csr.targets_raw();
                let mut e = elo;
                let mut pf = LineFilter::new();
                for v in lo..hi {
                    let mut acc = 0.0f32;
                    for &u in in_csr.neighbors(v as u32) {
                        if do_prefetch {
                            let ea = e + PREFETCH_DISTANCE;
                            if ea < ehi {
                                let au = tgts[ea] as usize;
                                if pf.admit(au) {
                                    ctx.prefetch(cur_r, 4 * au, 4);
                                    ctx.prefetch(deg_r, 4 * au, 4);
                                }
                            }
                        }
                        e += 1;
                        // The heart of v-PR's cost profile: two random reads
                        // per in-edge plus a division — no stored
                        // contribution array ("without storing the partial
                        // sum", §4.1).
                        ctx.read(cur_r, 4 * u as usize, 4);
                        ctx.read(deg_r, 4 * u as usize, 4);
                        acc += cur[u as usize] / degs[u as usize] as f32;
                    }
                    let new = base + d * acc;
                    if track_host {
                        delta += convergence::l1_term(new, cur[v]);
                    }
                    next[v] = new;
                    ctx.compute(12 * in_csr.degree(v as u32) as u64 + 2);
                    if matches!(cfg.dangling, DanglingPolicy::Redistribute) && degs[v] == 0 {
                        dpart += new as f64;
                    }
                }
                partials[j] = dpart;
                delta_partials[j] = delta;
                if rec.enabled() {
                    rec.record("pull", j as i64, it as i64, ctx.thread_cycles());
                }
            });
        }
        rec.record("pull", RUN_LEVEL, it as i64, machine.cycles() - pull_c0);
        if matches!(cfg.dangling, DanglingPolicy::Redistribute) {
            dangling = partials.iter().sum();
        }
        std::mem::swap(&mut cur, &mut next);
        std::mem::swap(&mut cur_r, &mut next_r);
        iterations_run += 1;
        if track_host && convergence::check(&rec, it, &delta_partials, None, tol) {
            converged = true;
            break;
        }
    }

    let end = RunEnd {
        engine: "v-PR",
        g,
        threads,
        partitions: None,
        ranks: cur,
        iterations_run,
        converged,
    };
    SimRun::finish(end, rec, pc, &machine, preprocess_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipa_core::reference::{max_rel_error, reference_pagerank};
    use hipa_numasim::MachineSpec;

    #[test]
    fn vpr_native_matches_reference() {
        let g = hipa_graph::datasets::small_test_graph(40);
        let cfg = PageRankConfig::default().with_iterations(8);
        let run = run_native(&g, &cfg, &NativeOpts::new(3, 1024));
        let oracle = reference_pagerank(&g, &cfg);
        assert!(max_rel_error(&run.ranks, &oracle) < 1e-3);
    }

    #[test]
    fn vpr_sim_bitwise_matches_native() {
        let g = hipa_graph::datasets::small_test_graph(41);
        let cfg = PageRankConfig::default().with_iterations(5);
        let sim = run_sim(&g, &cfg, &SimOpts::new(MachineSpec::tiny_test()).with_threads(8));
        let nat = run_native(&g, &cfg, &NativeOpts::new(8, 1024));
        assert_eq!(sim.ranks, nat.ranks);
    }

    #[test]
    fn vpr_creates_threads_every_iteration() {
        let g = hipa_graph::datasets::small_test_graph(42);
        let cfg = PageRankConfig::default().with_iterations(4);
        let sim = run_sim(&g, &cfg, &SimOpts::new(MachineSpec::tiny_test()).with_threads(4));
        assert_eq!(sim.report.threads_created, 4 * 4);
    }
}
