//! Shared harness configuration for the benchmark binaries that regenerate
//! the paper's tables and figures (see DESIGN.md §4 for the index).
//!
//! # Scaling convention
//!
//! The datasets are ~64–1000× smaller than the paper's (DESIGN.md §5), and
//! the simulated machines shrink their caches by [`SCALE`] = 64 to match, so
//! cache-capacity effects keep their shape. Partition sizes are always
//! *quoted in paper units* (e.g. "256KB") and divided by [`SCALE`] before
//! they reach an engine.
#![forbid(unsafe_code)]

pub mod snapshot;

use hipa_core::{Engine, PageRankConfig, SimOpts, SimRun};
use hipa_graph::{datasets::Dataset, DiGraph};
use hipa_numasim::MachineSpec;

/// Cache-scaling factor pairing the scaled datasets with scaled machines.
pub const SCALE: usize = 64;

/// The paper's iteration count for timed runs (§4.1).
pub const PAPER_ITERATIONS: usize = 20;

/// The paper's main machine, cache-scaled.
pub fn skylake() -> MachineSpec {
    MachineSpec::skylake_4210().scaled(SCALE)
}

/// The paper's §4.5 comparison machine, cache-scaled.
pub fn haswell() -> MachineSpec {
    MachineSpec::haswell_e5_2667().scaled(SCALE)
}

/// Converts a paper-units partition size to simulated bytes.
pub fn scaled_partition(paper_bytes: usize) -> usize {
    (paper_bytes / SCALE).max(64)
}

/// One methodology with the per-paper tuned execution parameters (§4.1:
/// HiPa/v-PR/Polymer use all 40 threads; p-PR and GPOP are run at their
/// best-performing thread counts, 20; GPOP uses 1 MB partitions, the others
/// 256 KB).
pub struct Method {
    pub engine: Box<dyn Engine>,
    pub threads: usize,
    /// Partition size in paper units.
    pub partition_paper_bytes: usize,
}

impl Method {
    /// Runs this method on a graph on the given (already scaled) machine.
    pub fn run(&self, g: &DiGraph, machine: MachineSpec, iterations: usize) -> SimRun {
        let opts = SimOpts::new(machine)
            .with_threads(self.threads)
            .with_partition_bytes(scaled_partition(self.partition_paper_bytes));
        let cfg = PageRankConfig::default().with_iterations(iterations);
        self.engine.run_sim(g, &cfg, &opts)
    }

    pub fn name(&self) -> &'static str {
        self.engine.name()
    }

    /// Like [`Self::run`] but with a convergence tolerance (the engine stops
    /// as soon as the shared L1 rule fires, `SimRun::converged`, with
    /// `iterations` as the cap) and the trace recorder enabled, so the
    /// returned run carries its `RunTrace` (per-phase cycle spans, the
    /// residual trajectory, and the simulator's memory counters).
    pub fn run_to_tolerance_traced(
        &self,
        g: &DiGraph,
        machine: MachineSpec,
        iterations: usize,
        tolerance: f32,
    ) -> SimRun {
        let opts = SimOpts::new(machine)
            .with_threads(self.threads)
            .with_partition_bytes(scaled_partition(self.partition_paper_bytes))
            .with_trace(true);
        let cfg = PageRankConfig::default().with_iterations(iterations).with_tolerance(tolerance);
        self.engine.run_sim(g, &cfg, &opts)
    }

    /// Like [`Self::run`] but overriding the thread count (Fig. 6 sweeps).
    pub fn run_with_threads(
        &self,
        g: &DiGraph,
        machine: MachineSpec,
        iterations: usize,
        threads: usize,
    ) -> SimRun {
        let opts = SimOpts::new(machine)
            .with_threads(threads)
            .with_partition_bytes(scaled_partition(self.partition_paper_bytes));
        let cfg = PageRankConfig::default().with_iterations(iterations);
        self.engine.run_sim(g, &cfg, &opts)
    }
}

/// The five methods in Table 2 column order with the paper's settings.
pub fn paper_methods() -> Vec<Method> {
    vec![
        Method { engine: Box::new(hipa_core::HiPa), threads: 40, partition_paper_bytes: 256 << 10 },
        Method {
            engine: Box::new(hipa_baselines::Ppr),
            threads: 20,
            partition_paper_bytes: 256 << 10,
        },
        Method {
            engine: Box::new(hipa_baselines::Vpr),
            threads: 40,
            partition_paper_bytes: 256 << 10,
        },
        Method {
            engine: Box::new(hipa_baselines::Gpop),
            threads: 20,
            partition_paper_bytes: 1 << 20,
        },
        Method {
            engine: Box::new(hipa_baselines::Polymer),
            threads: 40,
            partition_paper_bytes: 256 << 10,
        },
    ]
}

/// Dataset list in Table 1/2 row order.
pub fn paper_datasets() -> Vec<Dataset> {
    Dataset::ALL.to_vec()
}

/// Parses `--fast` (fewer iterations / fewer graphs for smoke runs) and
/// `--csv` flags that all bins accept.
pub struct BinArgs {
    pub fast: bool,
    pub csv: bool,
}

impl BinArgs {
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().collect();
        BinArgs { fast: args.iter().any(|a| a == "--fast"), csv: args.iter().any(|a| a == "--csv") }
    }

    /// Iteration count honouring `--fast`.
    pub fn iterations(&self) -> usize {
        if self.fast {
            5
        } else {
            PAPER_ITERATIONS
        }
    }

    /// Dataset list honouring `--fast` (journal + wiki only).
    pub fn datasets(&self) -> Vec<Dataset> {
        if self.fast {
            vec![Dataset::Journal, Dataset::Wiki]
        } else {
            paper_datasets()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_partition_floors() {
        assert_eq!(scaled_partition(256 << 10), 4096);
        assert_eq!(scaled_partition(1 << 20), 16 * 1024);
        assert_eq!(scaled_partition(1024), 64);
    }

    #[test]
    fn paper_methods_in_table2_order() {
        let names: Vec<_> = paper_methods().iter().map(|m| m.name()).collect();
        assert_eq!(names, ["HiPa", "p-PR", "v-PR", "GPOP", "Polymer"]);
    }
}
