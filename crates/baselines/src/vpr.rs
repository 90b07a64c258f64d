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
//! path via `create_pool` per iteration). The native path runs the regions
//! on a rayon pool of exactly `threads` resident workers, with one
//! pre-computed edge-balanced range per worker.
//!
//! The pull body and the iteration loop are written once over
//! `region::Substrate`: the native path compiles every charge
//! away, the simulated one prices it, so the two paths' ranks are bit-equal
//! by construction.
//!
//! disjointness: edge-balanced plan (`edge_balanced_with_prefix`) — each
//! pull body writes `next` only inside its own vertex range; slices are
//! recreated per iteration region.

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

/// v-PR's arrays, as indices into its region table (the order it
/// allocates them in): rank buffers `RANK` and `RANK + 1`, then the
/// out-degrees and the in-CSR.
const RANK: usize = 0;
const DEG: usize = 2;
const IN_OFFSETS: usize = 3;
const IN_TARGETS: usize = 4;

/// The run on substrate `s`: its ranks, iterations run and converged flag.
fn run<S: Substrate>(
    s: &mut S,
    g: &DiGraph,
    cfg: &PageRankConfig,
    rec: &Recorder,
    ranges: &[Range<u32>],
    prefetch: bool,
) -> Solved {
    let n = g.num_vertices();
    let (in_csr, degs) = (g.in_csr(), g.out_degrees());
    let redistribute = matches!(cfg.dangling, DanglingPolicy::Redistribute);
    let track = Track::new(cfg, rec);
    let mut cur = vec![1.0f32 / n as f32; n];
    let mut next = vec![0.0f32; n];
    let dangling = dangling_mass(g, cfg, &cur);
    let (iterations_run, converged) = iterate(cfg, n, rec, track, dangling, |it, base| {
        // This iteration reads rank buffer `b` and writes the other.
        let b = it % 2;
        let parts = {
            let (cur, next) = (&cur[..], SharedSlice::new(&mut next));
            s.region("pull", it, |j, c| {
                let (lo, hi) = (ranges[j].start as usize, ranges[j].end as usize);
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
                c.stream_write(RANK + 1 - b, lo, len);
                if track.model {
                    // Delta tracking re-streams the old ranks of the range.
                    c.stream_read(RANK + b, lo, len);
                }
                if redistribute {
                    c.stream_read(DEG, lo, len);
                }
                let (mut dpart, mut delta) = (0.0f64, 0.0f64);
                // Flat lookahead over the range's contiguous CSR target
                // window: hints the rank/degree lines of the edge
                // PREFETCH_DISTANCE positions onward (per-list lookahead
                // would rarely fire on power-law degrees).
                let tgts = &in_csr.targets_raw()[..ehi];
                let mut e = elo;
                let mut pf = LineFilter::new();
                for v in lo..hi {
                    let mut acc = 0.0f32;
                    for &u in in_csr.neighbors(v as u32) {
                        if prefetch {
                            if let Some(&au) = tgts.get(e + PREFETCH_DISTANCE) {
                                if pf.admit(au as usize) {
                                    c.prefetch(RANK + b, cur, au as usize);
                                    c.prefetch(DEG, degs, au as usize);
                                }
                            }
                        }
                        e += 1;
                        // The heart of v-PR's cost profile: two random reads
                        // per in-edge plus a division — no stored
                        // contribution array ("without storing the partial
                        // sum", §4.1).
                        c.read(RANK + b, u as usize);
                        c.read(DEG, u as usize);
                        acc += cur[u as usize] / degs[u as usize] as f32;
                    }
                    let new = base + cfg.damping * acc;
                    if track.host {
                        delta += convergence::l1_term(new, cur[v]);
                    }
                    // SAFETY: vertex ranges are disjoint per thread.
                    unsafe { next.write(v, new) };
                    c.compute(12 * in_csr.degree(v as u32) as u64 + 2);
                    if redistribute && degs[v] == 0 {
                        dpart += new as f64;
                    }
                }
                (dpart, delta)
            })
        };
        std::mem::swap(&mut cur, &mut next);
        parts
    });
    (cur, iterations_run, converged)
}

pub fn run_native(g: &DiGraph, cfg: &PageRankConfig, opts: &NativeOpts) -> NativeRun {
    // Ranges balanced by in-edges, the pull workload: the in-CSR offsets are
    // the in-degree prefix sums.
    let setup = |threads| edge_balanced_with_prefix(g.in_csr().offsets_raw(), threads);
    region::native(&Vpr, g, cfg, opts, setup, |s, rec, ranges| {
        run(s, g, cfg, rec, &ranges, opts.prefetch)
    })
}

pub fn run_sim(g: &DiGraph, cfg: &PageRankConfig, opts: &SimOpts) -> SimRun {
    let (n, m) = (g.num_vertices(), g.num_edges());
    let setup = |machine: &mut SimMachine, threads| {
        // NUMA-oblivious placement: everything interleaved.
        let mut il = |name, bytes, w| (machine.alloc(name, bytes, Placement::Interleaved), w);
        let regions = vec![
            il("rank_a", 4 * n, 4),
            il("rank_b", 4 * n, 4),
            il("deg", 4 * n, 4),
            il("in_offsets", 8 * (n + 1), 8),
            il("in_targets", 4 * m.max(1), 4),
        ];
        // Preprocessing: build the transpose and the inverse-degree array.
        let in_csr_r = (regions[IN_OFFSETS].0, regions[IN_TARGETS].0);
        machine.seq(|ctx| charge_transpose(ctx, in_csr_r, n, m, &[]));
        // A fresh pool with OS-random placement per iteration: the
        // Algorithm-1 thread-lifecycle model.
        let ranges = edge_balanced_with_prefix(g.in_csr().offsets_raw(), threads);
        (regions, ThreadPlacement::OsRandom, ranges)
    };
    region::sim(&Vpr, g, cfg, opts, 1, setup, |s, rec, ranges| {
        run(s, g, cfg, rec, &ranges, opts.prefetch)
    })
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
