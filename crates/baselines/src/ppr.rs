//! p-PR: hand-optimised partition-centric PageRank, NUMA-oblivious (§4.1).
//!
//! The paper's re-implementation of PCPM \[21\] "with enhancement in memory
//! safety": the same compressed scatter/gather layout HiPa uses, but with
//! conventional partition-centric execution — interleaved placement, FCFS
//! partition claiming, per-region thread pools. Its finely-tuned parameters
//! in the paper are 256 KB partitions and 20 threads (half the logical
//! cores), which the harnesses pass explicitly.

use crate::pcpm_common::{run_native, run_sim, PcpmParams};
use hipa_core::{Engine, NativeOpts, NativeRun, PageRankConfig, SimOpts, SimRun};
use hipa_graph::DiGraph;

const PARAMS: PcpmParams = PcpmParams {
    label: "p-PR",
    include_intra_in_bins: false,
    meta_bytes_per_part: 0,
    payload_bytes: 4,
    extra_ops_per_edge: 0,
};

/// The p-PR methodology.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ppr;

impl Engine for Ppr {
    fn name(&self) -> &'static str {
        "p-PR"
    }

    fn numa_aware(&self) -> bool {
        false
    }

    fn run_native(&self, g: &DiGraph, cfg: &PageRankConfig, opts: &NativeOpts) -> NativeRun {
        run_native(g, cfg, opts, &PARAMS)
    }

    fn run_sim(&self, g: &DiGraph, cfg: &PageRankConfig, opts: &SimOpts) -> SimRun {
        run_sim(g, cfg, opts, &PARAMS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipa_core::reference::{max_rel_error, reference_pagerank};
    use hipa_numasim::MachineSpec;

    #[test]
    fn ppr_native_matches_reference() {
        let g = hipa_graph::datasets::small_test_graph(50);
        let cfg = PageRankConfig::default().with_iterations(8);
        let run = Ppr.run_native(&g, &cfg, &NativeOpts::new(4, 512));
        let oracle = reference_pagerank(&g, &cfg);
        assert!(max_rel_error(&run.ranks, &oracle) < 1e-3);
    }

    #[test]
    fn ppr_sim_bitwise_matches_native() {
        let g = hipa_graph::datasets::small_test_graph(51);
        let cfg = PageRankConfig::default().with_iterations(4);
        let sim = Ppr.run_sim(
            &g,
            &cfg,
            &SimOpts::new(MachineSpec::tiny_test()).with_threads(4).with_partition_bytes(512),
        );
        let nat = Ppr.run_native(&g, &cfg, &NativeOpts::new(4, 512));
        assert_eq!(sim.ranks, nat.ranks);
    }

    #[test]
    fn ppr_matches_hipa_bitwise() {
        // Same layout, same arithmetic order — p-PR and HiPa agree exactly.
        let g = hipa_graph::datasets::small_test_graph(52);
        let cfg = PageRankConfig::default().with_iterations(4);
        let a = Ppr.run_native(&g, &cfg, &NativeOpts::new(2, 512));
        let b = hipa_core::HiPa.run_native(&g, &cfg, &NativeOpts::new(2, 512));
        assert_eq!(a.ranks, b.ranks);
    }

    #[test]
    fn ppr_is_numa_oblivious_in_sim() {
        let g = hipa_graph::datasets::small_test_graph(53);
        let cfg = PageRankConfig::default().with_iterations(5);
        let sim = Ppr.run_sim(
            &g,
            &cfg,
            &SimOpts::new(MachineSpec::tiny_test()).with_threads(8).with_partition_bytes(512),
        );
        // Interleaved pages on 2 nodes: remote fraction should be near 50%.
        let frac = sim.report.mem.remote_fraction();
        assert!(frac > 0.3, "remote fraction {frac} unexpectedly low");
        // Algorithm 1: two pools per iteration.
        assert_eq!(sim.report.threads_created, (2 * 5) * 8);
    }
}
