//! Polymer-lite: a model of the Polymer NUMA-aware vertex-centric system
//! (Zhang et al., PPoPP'15 — the paper's reference \[38\]).
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
//! Each region body and the iteration loop are written once over
//! `region::Substrate`, so the two paths' ranks are bit-equal by
//! construction.
//!
//! disjointness: edge-balanced decomposition (`edge_balanced_with_prefix`) —
//! each contribute and pull body writes `contrib`/`rank` only inside its own
//! `pull` vertex range, each replicate body only its own `rep` slice of its
//! node's mirror; slices are recreated per region.

use crate::region::{self, charge_transpose, iterate, Solved, Substrate, Track};
use hipa_core::convergence;
use hipa_core::disjoint::SharedSlice;
use hipa_core::kernel::{dangling_mass, Charge};
use hipa_core::prefetch::{LineFilter, PREFETCH_DISTANCE};
use hipa_core::{DanglingPolicy, Engine, NativeOpts, NativeRun, PageRankConfig, SimOpts, SimRun};
use hipa_graph::DiGraph;
use hipa_numasim::{Placement, SimMachine, ThreadPlacement};
use hipa_obs::Recorder;
use hipa_partition::edge_balanced_with_prefix;
use std::ops::Range;

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

/// Polymer's arrays, as indices into its region table (the order it
/// allocates them in); node `i`'s replica of the contributions is
/// `MIRROR + i`.
const RANK: usize = 0;
const CONTRIB: usize = 1;
const INV_DEG: usize = 2;
const DEG: usize = 3;
const IN_OFFSETS: usize = 4;
const IN_TARGETS: usize = 5;
const MIRROR: usize = 6;

/// Work decomposition shared by both paths: `nodes` edge-balanced node
/// ranges (by in-degree — pull workload), each split into that node's
/// per-thread ranges, plus per-thread replication slices of the full array.
struct Decomp {
    node_ranges: Vec<Range<u32>>,
    /// (node, pull-range, replication-range) per global thread.
    threads: Vec<(usize, Range<usize>, Range<usize>)>,
}

fn decompose(g: &DiGraph, nodes: usize, threads: usize) -> Decomp {
    let n = g.num_vertices();
    // The in-CSR offsets are the in-degree prefix sums.
    let prefix = g.in_csr().offsets_raw();
    let node_ranges = edge_balanced_with_prefix(prefix, nodes);
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
            let pull = (nr.start + s.start) as usize..(nr.start + s.end) as usize;
            out.push((node, pull, n * t / tpn..n * (t + 1) / tpn));
        }
    }
    Decomp { node_ranges, threads: out }
}

/// The run on substrate `s`: its ranks, iterations run and converged flag.
fn run<S: Substrate>(
    s: &mut S,
    g: &DiGraph,
    cfg: &PageRankConfig,
    rec: &Recorder,
    decomp: &Decomp,
    inv_deg: &[f32],
    prefetch: bool,
) -> Solved {
    let n = g.num_vertices();
    let (in_csr, degs) = (g.in_csr(), g.out_degrees());
    let redistribute = matches!(cfg.dangling, DanglingPolicy::Redistribute);
    let track = Track::new(cfg, rec);
    let mut rank = vec![1.0f32 / n as f32; n];
    let mut contrib = vec![0.0f32; n];
    let mut mirrors = vec![vec![0.0f32; n]; decomp.node_ranges.len()];
    let dangling = dangling_mass(g, cfg, &rank);
    let (iterations_run, converged) = iterate(cfg, n, rec, track, dangling, |it, base| {
        // --- Region 1: contribute (own vertices) ---
        {
            let (rank, contrib) = (&rank, SharedSlice::new(&mut contrib));
            s.region("contribute", it, |j, c| {
                let pull = decomp.threads[j].1.clone();
                if pull.is_empty() {
                    return;
                }
                c.stream_read(RANK, pull.start, pull.len());
                c.stream_read(INV_DEG, pull.start, pull.len());
                c.stream_write(CONTRIB, pull.start, pull.len());
                c.compute(pull.len() as u64);
                for v in pull {
                    // SAFETY: pull ranges are disjoint.
                    unsafe { contrib.write(v, rank[v] * inv_deg[v]) };
                }
            });
        }
        // --- Region 2: replicate the contribution array per node ---
        {
            let contrib = &contrib;
            let mirrors: Vec<SharedSlice<f32>> =
                mirrors.iter_mut().map(|m| SharedSlice::new(m)).collect();
            s.region("replicate", it, |j, c| {
                let (node, _, ref rep) = decomp.threads[j];
                if rep.is_empty() {
                    return;
                }
                c.stream_read(CONTRIB, rep.start, rep.len());
                c.stream_write(MIRROR + node, rep.start, rep.len());
                c.compute(rep.len() as u64 / 8);
                for v in rep.clone() {
                    // SAFETY: replication slices are disjoint within a
                    // node's mirror; different nodes use different mirrors.
                    unsafe { mirrors[node].write(v, contrib[v]) };
                }
            });
        }
        // --- Region 3: pull from the node-local mirror ---
        let (mirrors, rank) = (&mirrors, SharedSlice::new(&mut rank));
        s.region("pull", it, |j, c| {
            let (node, ref pull, _) = decomp.threads[j];
            let (lo, hi) = (pull.start, pull.end);
            if lo == hi {
                return (0.0, 0.0);
            }
            let len = hi - lo;
            c.stream_read(IN_OFFSETS, lo, len + 1);
            let elo = in_csr.offset(lo as u32) as usize;
            let ehi = in_csr.offset(hi as u32) as usize;
            if ehi > elo {
                c.stream_read(IN_TARGETS, elo, ehi - elo);
            }
            c.stream_write(RANK, lo, len);
            if track.model {
                // Delta tracking re-streams the old ranks of the range.
                c.stream_read(RANK, lo, len);
            }
            if redistribute {
                c.stream_read(DEG, lo, len);
            }
            let mirror = &mirrors[node][..];
            let (mut dpart, mut delta) = (0.0f64, 0.0f64);
            // Flat lookahead over the range's contiguous CSR target window:
            // hints the mirror line of the edge PREFETCH_DISTANCE onward
            // (power-law lists are mostly shorter than PREFETCH_DISTANCE,
            // so per-list hints would rarely fire).
            let tgts = &in_csr.targets_raw()[..ehi];
            let mut e = elo;
            let mut pf = LineFilter::new();
            for v in lo..hi {
                let mut acc = 0.0f32;
                for &u in in_csr.neighbors(v as u32) {
                    if prefetch {
                        if let Some(&au) = tgts.get(e + PREFETCH_DISTANCE) {
                            if pf.admit(au as usize) {
                                c.prefetch(MIRROR + node, mirror, au as usize);
                            }
                        }
                    }
                    e += 1;
                    // One random read per edge, always node-local, plus the
                    // framework's atomic writeAdd into the accumulator
                    // (Polymer applies updates with CAS).
                    c.read(MIRROR + node, u as usize);
                    c.atomic_rmw(RANK, v);
                    acc += mirror[u as usize];
                }
                let new = base + cfg.damping * acc;
                // SAFETY: v is in this body's own pull range (the old rank
                // is read before it is overwritten).
                unsafe {
                    if track.host {
                        delta += convergence::l1_term(new, rank.get(v));
                    }
                    rank.write(v, new);
                }
                // edgeMap dispatch + dense/sparse checks per edge.
                c.compute(in_csr.degree(v as u32) as u64 * 28 + 2);
                if redistribute && degs[v] == 0 {
                    dpart += new as f64;
                }
            }
            (dpart, delta)
        })
    });
    (rank, iterations_run, converged)
}

pub fn run_native(g: &DiGraph, cfg: &PageRankConfig, opts: &NativeOpts) -> NativeRun {
    let setup = |threads: usize| {
        // The host has no NUMA topology; model two virtual nodes as on the
        // paper's machine (one when single-threaded).
        let inv_deg = hipa_core::par::inv_deg_parallel(g, 1);
        (decompose(g, 2.min(threads), threads), inv_deg)
    };
    region::native(&Polymer, g, cfg, opts, setup, |s, rec, (decomp, inv_deg)| {
        run(s, g, cfg, rec, &decomp, &inv_deg, opts.prefetch)
    })
}

pub fn run_sim(g: &DiGraph, cfg: &PageRankConfig, opts: &SimOpts) -> SimRun {
    let (n, m) = (g.num_vertices(), g.num_edges());
    let nodes = opts.machine.topology.sockets;
    let setup = |machine: &mut SimMachine, threads| {
        let decomp = decompose(g, nodes, threads);
        let in_csr = g.in_csr();
        // NUMA-aware placement: vertex arrays blocked by node ranges, each
        // node's in-edge slice local, one full mirror region per node.
        let blocked = |end_bytes: &dyn Fn(usize, u32) -> usize| {
            let ends = decomp.node_ranges.iter().enumerate();
            Placement::Blocked(ends.map(|(i, r)| (end_bytes(i, r.end), i)).collect())
        };
        let vertex4 = || blocked(&|_, e| e as usize * 4);
        // The offsets' extra last entry lives on the last node.
        let offsets8 = blocked(&|i, e| (e as usize + usize::from(i + 1 == nodes)) * 8);
        let mut alloc =
            |name: &str, bytes, placement, w| (machine.alloc(name, bytes, placement), w);
        let mut regions = vec![
            alloc("rank", 4 * n, vertex4(), 4),
            alloc("contrib", 4 * n, vertex4(), 4),
            alloc("inv_deg", 4 * n, vertex4(), 4),
            alloc("deg", 4 * n, vertex4(), 4),
            alloc("in_offsets", 8 * (n + 1), offsets8, 8),
            alloc("in_targets", 4 * m.max(1), blocked(&|_, e| in_csr.offset(e) as usize * 4), 4),
        ];
        for i in 0..nodes {
            regions.push(alloc(&format!("mirror{i}"), 4 * n, Placement::Node(i), 4));
        }
        // Preprocessing: Polymer builds per-node subgraphs — the transpose
        // plus the placement copy of every array.
        let id = |a: usize| regions[a].0;
        let in_csr_r = (id(IN_OFFSETS), id(IN_TARGETS));
        machine.seq(|ctx| charge_transpose(ctx, in_csr_r, n, m, &[id(INV_DEG), id(RANK)]));
        // A fresh pool per region, each thread bound to its node.
        let bind = ThreadPlacement::BindNode(decomp.threads.iter().map(|t| t.0).collect());
        (regions, bind, (decomp, hipa_core::par::inv_deg_parallel(g, 1)))
    };
    region::sim(&Polymer, g, cfg, opts, nodes, setup, |s, rec, (decomp, inv_deg)| {
        run(s, g, cfg, rec, &decomp, &inv_deg, opts.prefetch)
    })
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
