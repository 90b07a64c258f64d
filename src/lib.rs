//! # HiPa — Hierarchical Partitioning for Fast PageRank on NUMA Multicore Systems
//!
//! A from-scratch Rust reproduction of the ICPP 2021 paper by YuAng Chen and
//! Yeh-Ching Chung, including every substrate the paper depends on:
//!
//! * [`graph`] — CSR graph structures, deterministic generators (R-MAT /
//!   Kronecker, Zipf power-law) and scaled stand-ins for the paper's six
//!   evaluation graphs;
//! * [`numasim`] — a deterministic NUMA multicore simulator (cache
//!   hierarchy, page placement, OS thread-placement model, bandwidth
//!   roofline) substituting for the paper's two Xeon testbeds;
//! * [`partition`] — the hierarchical partitioner (Eq. 2–4), whose plan is
//!   the 2-level lookup table of Fig. 3;
//! * [`core`] — the HiPa engine itself (thread-data pinning, compressed
//!   scatter/gather, partition-mapped layout) with bit-identical native and
//!   simulated execution paths;
//! * [`baselines`] — the four comparators of the evaluation: v-PR, p-PR,
//!   GPOP-lite, Polymer-lite;
//! * [`algos`] — the paper's §6 extensions: SpMV, PageRank-Delta, BFS;
//! * [`obs`] — a zero-overhead-when-off metrics and tracing layer whose
//!   [`obs::RunTrace`] captures per-phase timings, per-iteration residuals
//!   and simulator counters from every engine on both execution paths;
//! * [`serve`] — a resident rank server: one preprocessed state per graph
//!   epoch, top-k lookups, batched multi-vector personalized PageRank, and
//!   streamed edge updates committed as delta epochs.
//!
//! ## Quickstart
//!
//! ```
//! use hipa::prelude::*;
//!
//! // A small scale-free graph.
//! let g = hipa::graph::datasets::small_test_graph(7);
//! // PageRank with the paper's defaults (d = 0.85, 20 iterations).
//! let ranks = hipa::pagerank(&g, 4);
//! assert_eq!(ranks.len(), g.num_vertices());
//! let total: f32 = ranks.iter().sum();
//! assert!(total > 0.0 && total <= 1.0 + 1e-3);
//! ```
//!
//! The benchmark harnesses that regenerate every table and figure of the
//! paper live in `crates/bench` — see `DESIGN.md` for the experiment index
//! and `EXPERIMENTS.md` for recorded paper-vs-measured results.

pub use hipa_algos as algos;
pub use hipa_baselines as baselines;
pub use hipa_core as core;
pub use hipa_graph as graph;
pub use hipa_numasim as numasim;
pub use hipa_obs as obs;
pub use hipa_partition as partition;
pub use hipa_report as report;
pub use hipa_serve as serve;

/// The most common imports.
pub mod prelude {
    pub use hipa_baselines::{Gpop, Polymer, Ppr, Vpr};
    pub use hipa_core::{
        DanglingPolicy, Engine, HiPa, NativeOpts, PageRankConfig, ReorderStrategy, SimOpts,
    };
    pub use hipa_graph::{datasets::Dataset, Csr, DiGraph, EdgeList};
    pub use hipa_numasim::{MachineSpec, SimMachine};
}

use hipa_core::{Engine, NativeOpts, PageRankConfig};
use hipa_graph::DiGraph;

/// Convenience: run HiPa PageRank natively with the paper's default
/// configuration (damping 0.85, 20 iterations, 256 KB partitions) on
/// `threads` worker threads.
pub fn pagerank(g: &DiGraph, threads: usize) -> Vec<f32> {
    hipa_core::HiPa
        .run_native(g, &PageRankConfig::default(), &NativeOpts::new(threads, 256 * 1024))
        .ranks
}

/// Convenience: the `k` highest-ranked vertices with their ranks,
/// descending, ties by index (see [`algos::topk`]).
pub use hipa_algos::top_k;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pagerank_convenience_runs() {
        let g = hipa_graph::datasets::small_test_graph(5);
        let r = pagerank(&g, 2);
        assert_eq!(r.len(), g.num_vertices());
    }

    #[test]
    fn top_k_sorts_descending() {
        let ranks = vec![0.1f32, 0.5, 0.2, 0.5];
        let top = top_k(&ranks, 3);
        assert_eq!(top[0].0, 1); // ties broken by index
        assert_eq!(top[1].0, 3);
        assert_eq!(top[2].0, 2);
    }
}
