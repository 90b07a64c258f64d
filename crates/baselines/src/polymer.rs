//! Polymer-lite: a model of the Polymer NUMA-aware vertex-centric system
//! (Zhang et al., PPoPP'15 — the paper's reference [38]).
//!
//! Polymer's key ideas, reproduced here: vertex data and each vertex's
//! in-edges are placed on the NUMA node that owns the vertex (edge-balanced
//! node ranges), and the per-edge random accesses are kept node-local by
//! maintaining a per-node *replica* of the contribution array, refreshed by
//! bulk streaming once per iteration. The result is the paper's Fig. 5
//! profile: the lowest remote-access *fraction* of all systems, but high
//! *total* traffic (replication + whole-array random reads), which is why
//! Polymer trails every partition-centric engine in Table 2.
//!
//! Threads are bound to their node per parallel region (Algorithm 1 with
//! `BindNode` — the migration-heavy pattern §3.3 analyses), three regions
//! per iteration: contribute, replicate, pull. The recreation/bind cost is
//! charged on the simulated path (`create_pool` per region); the native
//! path runs all three regions on one persistent rayon pool of `threads`
//! resident workers, keeping the per-region range decomposition identical.
//!
//! disjointness: edge-balanced decomposition (`edge_balanced_with_prefix`) —
//! each pull-region thread writes rank only inside its own `pull` vertex
//! range plus its own slot `j` of the partial arrays; slices are recreated
//! per region, so each slice lifetime has one writer per element.

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
use hipa_partition::{degree_prefix, edge_balanced_with_prefix};
use std::ops::Range;
use std::time::Instant;

/// The Polymer-lite methodology.
#[derive(Debug, Clone, Copy, Default)]
pub struct Polymer;

impl Engine for Polymer {
    fn name(&self) -> &'static str {
        "Polymer"
    }

    fn numa_aware(&self) -> bool {
        true
    }

    fn run_native(&self, g: &DiGraph, cfg: &PageRankConfig, opts: &NativeOpts) -> NativeRun {
        run_native(g, cfg, opts)
    }

    fn run_sim(&self, g: &DiGraph, cfg: &PageRankConfig, opts: &SimOpts) -> SimRun {
        run_sim(g, cfg, opts)
    }
}

/// Work decomposition shared by both paths: `nodes` edge-balanced node
/// ranges (by in-degree — pull workload), each split into that node's
/// per-thread ranges, plus per-thread replication slices of the full array.
struct Decomp {
    node_ranges: Vec<Range<u32>>,
    /// (node, pull-range, replication-range) per global thread.
    threads: Vec<(usize, Range<u32>, Range<usize>)>,
}

fn decompose(g: &DiGraph, nodes: usize, threads: usize) -> Decomp {
    let n = g.num_vertices();
    let in_degs: Vec<u32> = (0..n).map(|v| g.in_degree(v as u32)).collect();
    let prefix = degree_prefix(&in_degs);
    let node_ranges = edge_balanced_with_prefix(&prefix, nodes);
    let mut out = Vec::with_capacity(threads);
    for (node, nr) in node_ranges.iter().enumerate() {
        let tpn = threads / nodes + usize::from(node < threads % nodes);
        if tpn == 0 {
            continue;
        }
        // Pull ranges: edge-balance the node's vertices across its threads.
        let sub_prefix: Vec<u64> =
            (nr.start..=nr.end).map(|v| prefix[v as usize] - prefix[nr.start as usize]).collect();
        let sub = edge_balanced_with_prefix(&sub_prefix, tpn);
        // Replication ranges: each of the node's threads copies an equal
        // slice of the FULL contribution array into the node's mirror.
        for (t, s) in sub.iter().enumerate() {
            let rep_lo = n * t / tpn;
            let rep_hi = n * (t + 1) / tpn;
            out.push((node, nr.start + s.start..nr.start + s.end, rep_lo..rep_hi));
        }
    }
    Decomp { node_ranges, threads: out }
}

pub fn run_native(g: &DiGraph, cfg: &PageRankConfig, opts: &NativeOpts) -> NativeRun {
    if let Some(run) = hipa_core::preorder::native(g, cfg, opts, run_native) {
        return run;
    }
    let n = g.num_vertices();
    if n == 0 {
        return NativeRun::empty("Polymer", cfg, opts);
    }
    let rec = Recorder::new(opts.trace);
    let threads = opts.threads.max(1);
    let do_prefetch = opts.prefetch;
    let tol = convergence::effective_tolerance(cfg.tolerance);
    // Residuals feed the stop rule *or* the trace's convergence trajectory.
    let track = tol.is_some() || rec.enabled();
    // The host has no NUMA topology; model two virtual nodes as on the
    // paper's machine (one when single-threaded).
    let nodes = 2.min(threads);

    let pc = PoolCounters::start(&rec);
    let t0 = Instant::now();
    let inv_deg = hipa_core::par::inv_deg_parallel(g, 1);
    let decomp = decompose(g, nodes, threads);
    // One persistent pool of `threads` resident workers for all three
    // per-iteration regions (see the module docs); construction is part of
    // the setup cost.
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("rayon pool");
    let preprocess = t0.elapsed();

    let d = cfg.damping;
    let mut rank = vec![1.0f32 / n as f32; n];
    let mut contrib = vec![0.0f32; n];
    let mut mirrors: Vec<Vec<f32>> = (0..nodes).map(|_| vec![0.0f32; n]).collect();
    let mut dangling = dangling_mass(g, cfg, &rank);
    let degs = g.out_degrees();
    let in_csr = g.in_csr();

    let t1 = Instant::now();
    let mut iterations_run = 0usize;
    let mut converged = false;
    for it in 0..cfg.iterations {
        let base = base_value(cfg, n, dangling);
        // --- Region 1: contribute (own vertices) ---
        let contribute_t = rec.start();
        {
            let rank = &rank;
            let contrib_s = SharedSlice::new(&mut contrib);
            pool.scope(|scope| {
                for (j, (_node, pull, _rep)) in decomp.threads.iter().enumerate() {
                    let contrib_s = &contrib_s;
                    let inv_deg = &inv_deg;
                    let rec = &rec;
                    let pull = pull.clone();
                    scope.spawn(move |_| {
                        let mut spans = rec.thread_spans(j);
                        let span_t = spans.start();
                        for v in pull.start as usize..pull.end as usize {
                            // SAFETY: pull ranges are disjoint.
                            unsafe { contrib_s.write(v, rank[v] * inv_deg[v]) };
                        }
                        spans.end(span_t, "contribute", it);
                        spans.flush(rec);
                    });
                }
            });
        }
        rec.end(contribute_t, "contribute", RUN_LEVEL, it as i64);
        // --- Region 2: replicate the contribution array per node ---
        let replicate_t = rec.start();
        {
            let contrib = &contrib;
            let mirror_s: Vec<SharedSlice<f32>> =
                mirrors.iter_mut().map(|mv| SharedSlice::new(mv)).collect();
            let mirror_s = &mirror_s;
            pool.scope(|scope| {
                for (j, (node, _pull, rep)) in decomp.threads.iter().enumerate() {
                    let node = *node;
                    let rec = &rec;
                    let rep = rep.clone();
                    scope.spawn(move |_| {
                        let mut spans = rec.thread_spans(j);
                        let span_t = spans.start();
                        for v in rep {
                            // SAFETY: replication slices are disjoint within
                            // a node's mirror; different nodes use different
                            // mirrors.
                            unsafe { mirror_s[node].write(v, contrib[v]) };
                        }
                        spans.end(span_t, "replicate", it);
                        spans.flush(rec);
                    });
                }
            });
        }
        rec.end(replicate_t, "replicate", RUN_LEVEL, it as i64);
        // --- Region 3: pull from the node-local mirror ---
        let pull_t = rec.start();
        let mut partials = vec![0.0f64; decomp.threads.len()];
        let mut delta_partials = vec![0.0f64; decomp.threads.len()];
        {
            let rank_s = SharedSlice::new(&mut rank);
            let partials_s = SharedSlice::new(&mut partials);
            let deltas_s = SharedSlice::new(&mut delta_partials);
            let mirrors = &mirrors;
            pool.scope(|scope| {
                for (j, (node, pull, _rep)) in decomp.threads.iter().enumerate() {
                    let rank_s = &rank_s;
                    let partials_s = &partials_s;
                    let deltas_s = &deltas_s;
                    let mirror = &mirrors[*node];
                    let rec = &rec;
                    let pull = pull.clone();
                    scope.spawn(move |_| {
                        let mut spans = rec.thread_spans(j);
                        let span_t = spans.start();
                        let mut dpart = 0.0f64;
                        let mut delta = 0.0f64;
                        // Flat lookahead over the range's contiguous CSR
                        // target window (power-law lists are mostly shorter
                        // than PREFETCH_DISTANCE, so per-list hints would
                        // rarely fire).
                        let tgts = in_csr.targets_raw();
                        let ehi = in_csr.offset(pull.end) as usize;
                        let mut e = in_csr.offset(pull.start) as usize;
                        let mut pf = LineFilter::new();
                        for v in pull.start as usize..pull.end as usize {
                            let mut acc = 0.0f32;
                            for &u in in_csr.neighbors(v as u32) {
                                if do_prefetch {
                                    let ea = e + PREFETCH_DISTANCE;
                                    if ea < ehi {
                                        let au = tgts[ea] as usize;
                                        if pf.admit(au) {
                                            prefetch_read(mirror, au);
                                        }
                                    }
                                }
                                e += 1;
                                acc += mirror[u as usize];
                            }
                            let new = base + d * acc;
                            if track {
                                // SAFETY: own pull range (pre-write read).
                                let old = unsafe { rank_s.get(v) };
                                delta += convergence::l1_term(new, old);
                            }
                            // SAFETY: disjoint pull ranges.
                            unsafe { rank_s.write(v, new) };
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
        iterations_run += 1;
        if track && convergence::check(&rec, it, &delta_partials, None, tol) {
            converged = true;
            break;
        }
    }
    let compute = t1.elapsed();
    let end = RunEnd {
        engine: "Polymer",
        g,
        threads,
        partitions: None,
        ranks: rank,
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
        return SimRun::empty("Polymer", cfg, opts);
    }
    let mut machine = SimMachine::new(opts.machine.clone());
    let rec = Recorder::new(opts.trace);
    let topo = machine.spec().topology;
    let nodes = topo.sockets;
    let threads = opts.threads.clamp(nodes.min(topo.logical_cpus()), topo.logical_cpus());
    let do_prefetch = opts.prefetch;
    let m = g.num_edges();
    // The simulated path models its own thread lifecycle (`create_pool` per
    // region); the pool deltas attribute any real shim-pool work it does.
    let pc = PoolCounters::start(&rec);

    let decomp = decompose(g, nodes, threads);
    let in_csr = g.in_csr();

    // NUMA-aware placement: vertex arrays blocked by node ranges, each
    // node's in-edge slice local, one full mirror region per node.
    let node_v_ends: Vec<u64> = decomp.node_ranges.iter().map(|r| r.end as u64).collect();
    let blocked4 = |ends: &[u64]| {
        Placement::Blocked(ends.iter().enumerate().map(|(i, &e)| (e as usize * 4, i)).collect())
    };
    let rank_r = machine.alloc("rank", 4 * n, blocked4(&node_v_ends));
    let contrib_r = machine.alloc("contrib", 4 * n, blocked4(&node_v_ends));
    let invdeg_r = machine.alloc("inv_deg", 4 * n, blocked4(&node_v_ends));
    let deg_r = machine.alloc("deg", 4 * n, blocked4(&node_v_ends));
    let in_off_r = machine.alloc(
        "in_offsets",
        8 * (n + 1),
        Placement::Blocked(
            node_v_ends
                .iter()
                .enumerate()
                .map(|(i, &e)| {
                    let e = if i + 1 == nodes { e + 1 } else { e };
                    (e as usize * 8, i)
                })
                .collect(),
        ),
    );
    let in_tgt_r = machine.alloc(
        "in_targets",
        4 * m.max(1),
        Placement::Blocked(
            node_v_ends
                .iter()
                .enumerate()
                .map(|(i, &e)| (in_csr.offset(e as u32) as usize * 4, i))
                .collect(),
        ),
    );
    let mirror_rs: Vec<_> = (0..nodes)
        .map(|i| machine.alloc(&format!("mirror{i}"), 4 * n, Placement::Node(i)))
        .collect();

    // Preprocessing: Polymer builds per-node subgraphs — one full CSR pass
    // plus the placement copy of every array.
    machine.seq(|ctx| {
        ctx.stream_read(in_off_r, 0, 8 * (n + 1));
        if m > 0 {
            ctx.stream_read(in_tgt_r, 0, 4 * m);
            ctx.stream_write(in_tgt_r, 0, 4 * m);
        }
        ctx.stream_write(in_off_r, 0, 8 * (n + 1));
        ctx.stream_write(invdeg_r, 0, 4 * n);
        ctx.stream_write(rank_r, 0, 4 * n);
        ctx.compute(2 * (n + m) as u64);
    });
    let preprocess_cycles = machine.cycles();
    rec.record("preprocess", RUN_LEVEL, RUN_LEVEL, preprocess_cycles);

    let inv_deg = hipa_core::par::inv_deg_parallel(g, 1);
    let d = cfg.damping;
    let mut rank = vec![1.0f32 / n as f32; n];
    let mut contrib = vec![0.0f32; n];
    let mut mirrors: Vec<Vec<f32>> = (0..nodes).map(|_| vec![0.0f32; n]).collect();
    let mut dangling = dangling_mass(g, cfg, &rank);
    let degs = g.out_degrees();
    let bind: Vec<usize> = decomp.threads.iter().map(|(node, _, _)| *node).collect();
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

        // --- Region 1: contribute ---
        let pool = machine.create_pool(bind.len(), &ThreadPlacement::BindNode(bind.clone()));
        let contribute_c0 = machine.cycles();
        {
            let rank = &rank;
            let contrib = &mut contrib;
            let decomp = &decomp;
            let inv_deg = &inv_deg;
            machine.phase_balanced(pool, PhaseBalance::Dynamic, |j, ctx| {
                let (_, pull, _) = &decomp.threads[j];
                let (lo, hi) = (pull.start as usize, pull.end as usize);
                if lo == hi {
                    return;
                }
                ctx.stream_read(rank_r, 4 * lo, 4 * (hi - lo));
                ctx.stream_read(invdeg_r, 4 * lo, 4 * (hi - lo));
                ctx.stream_write(contrib_r, 4 * lo, 4 * (hi - lo));
                for v in lo..hi {
                    contrib[v] = rank[v] * inv_deg[v];
                }
                ctx.compute((hi - lo) as u64);
                if rec.enabled() {
                    rec.record("contribute", j as i64, it as i64, ctx.thread_cycles());
                }
            });
        }
        rec.record("contribute", RUN_LEVEL, it as i64, machine.cycles() - contribute_c0);

        // --- Region 2: replicate per node ---
        let pool = machine.create_pool(bind.len(), &ThreadPlacement::BindNode(bind.clone()));
        let replicate_c0 = machine.cycles();
        {
            let contrib = &contrib;
            let mirrors = &mut mirrors;
            let decomp = &decomp;
            let mirror_rs = &mirror_rs;
            machine.phase_balanced(pool, PhaseBalance::Dynamic, |j, ctx| {
                let (node, _, rep) = &decomp.threads[j];
                let (lo, hi) = (rep.start, rep.end);
                if lo == hi {
                    return;
                }
                ctx.stream_read(contrib_r, 4 * lo, 4 * (hi - lo));
                ctx.stream_write(mirror_rs[*node], 4 * lo, 4 * (hi - lo));
                mirrors[*node][lo..hi].copy_from_slice(&contrib[lo..hi]);
                ctx.compute((hi - lo) as u64 / 8);
                if rec.enabled() {
                    rec.record("replicate", j as i64, it as i64, ctx.thread_cycles());
                }
            });
        }
        rec.record("replicate", RUN_LEVEL, it as i64, machine.cycles() - replicate_c0);

        // --- Region 3: pull from the local mirror ---
        let mut partials = vec![0.0f64; bind.len()];
        let mut delta_partials = vec![0.0f64; bind.len()];
        let pool = machine.create_pool(bind.len(), &ThreadPlacement::BindNode(bind.clone()));
        let pull_c0 = machine.cycles();
        {
            let rank = &mut rank;
            let mirrors = &mirrors;
            let decomp = &decomp;
            let partials = &mut partials;
            let delta_partials = &mut delta_partials;
            machine.phase_balanced(pool, PhaseBalance::Dynamic, |j, ctx| {
                let (node, pull, _) = &decomp.threads[j];
                let (lo, hi) = (pull.start as usize, pull.end as usize);
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
                ctx.stream_write(rank_r, 4 * lo, 4 * len);
                if track_model {
                    // Delta tracking re-streams the old ranks of the range.
                    ctx.stream_read(rank_r, 4 * lo, 4 * len);
                }
                if matches!(cfg.dangling, DanglingPolicy::Redistribute) {
                    ctx.stream_read(deg_r, 4 * lo, 4 * len);
                }
                let mirror = &mirrors[*node];
                let mr = mirror_rs[*node];
                let mut dpart = 0.0f64;
                let mut delta = 0.0f64;
                // Flat lookahead over the contiguous target window: hints
                // the mirror line of the edge PREFETCH_DISTANCE onward.
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
                                    ctx.prefetch(mr, 4 * au, 4);
                                }
                            }
                        }
                        e += 1;
                        // One random read per edge, always node-local, plus
                        // the framework's atomic writeAdd into the
                        // accumulator (Polymer applies updates with CAS).
                        ctx.read(mr, 4 * u as usize, 4);
                        ctx.atomic_rmw(rank_r, 4 * v, 4);
                        acc += mirror[u as usize];
                    }
                    let new = base + d * acc;
                    if track_host {
                        delta += convergence::l1_term(new, rank[v]);
                    }
                    rank[v] = new;
                    // edgeMap dispatch + dense/sparse checks per edge.
                    ctx.compute(in_csr.degree(v as u32) as u64 * 28 + 2);
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
        iterations_run += 1;
        if track_host && convergence::check(&rec, it, &delta_partials, None, tol) {
            converged = true;
            break;
        }
    }

    let end = RunEnd {
        engine: "Polymer",
        g,
        threads,
        partitions: None,
        ranks: rank,
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
    fn polymer_native_matches_reference() {
        let g = hipa_graph::datasets::small_test_graph(70);
        let cfg = PageRankConfig::default().with_iterations(8);
        let run = run_native(&g, &cfg, &NativeOpts::new(4, 0));
        let oracle = reference_pagerank(&g, &cfg);
        assert!(max_rel_error(&run.ranks, &oracle) < 1e-3);
    }

    #[test]
    fn polymer_sim_bitwise_matches_native() {
        let g = hipa_graph::datasets::small_test_graph(71);
        let cfg = PageRankConfig::default().with_iterations(4);
        let sim = run_sim(&g, &cfg, &SimOpts::new(MachineSpec::tiny_test()).with_threads(4));
        let nat = run_native(&g, &cfg, &NativeOpts::new(4, 0));
        assert_eq!(sim.ranks, nat.ranks);
    }

    #[test]
    fn polymer_keeps_random_reads_local_but_pays_migrations() {
        let g = hipa_graph::datasets::small_test_graph(72);
        let cfg = PageRankConfig::default().with_iterations(5);
        let sim = run_sim(&g, &cfg, &SimOpts::new(MachineSpec::tiny_test()).with_threads(8));
        let frac = sim.report.mem.remote_fraction();
        assert!(frac < 0.45, "Polymer remote fraction {frac} should be modest");
        // Three bound pools per iteration: migrations accumulate.
        assert!(sim.report.migrations > 0);
        assert_eq!(sim.report.threads_created, 3 * 5 * 8);
    }
}
