//! The common engine interface and run-result types.
//!
//! Every methodology the paper evaluates (HiPa, p-PR, v-PR, GPOP-lite,
//! Polymer-lite) implements [`Engine`] with two paths:
//!
//! * **native** — real `std::thread` execution on the host. Produces correct
//!   ranks and wall-clock timings (the criterion benches drive this path).
//!   The development host has two vCPUs shared with other jobs, so native
//!   speedups hold only against the host's spare capacity — the simulated
//!   path is the measurement substrate for the paper's tables.
//! * **sim** — the same computation executed against
//!   [`hipa_numasim::SimMachine`], producing identical ranks plus the
//!   modelled cycle counts and memory-system statistics.

use crate::config::PageRankConfig;
use crate::convergence;
use hipa_graph::DiGraph;
use hipa_numasim::{MachineSpec, SimMachine, SimReport};
use hipa_obs::{
    record_sim_report, PoolCounters, Recorder, RunTrace, TraceMeta, PATH_NATIVE, PATH_SIM,
    RUN_LEVEL,
};
use std::time::Duration;

/// Vertex-relabelling preprocessing applied before an engine runs (the
/// §2.1 temporal-locality toolbox, plumbed as a run option — see
/// [`crate::preorder`]). The engine computes on the relabelled graph and
/// the wrapper maps the ranks back to original vertex ids, so callers see
/// ranks indexed exactly as their input. Native and sim paths relabel
/// identically, preserving the native==sim bitwise-equality invariant
/// within each strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReorderStrategy {
    /// Run on the input order unchanged (the default).
    #[default]
    None,
    /// Global hub clustering: `hipa_graph::reorder::by_degree_desc`.
    DegreeDesc,
    /// Cagra-style frequency sub-clustering *within* partition boundaries:
    /// `hipa_graph::reorder::by_frequency_clusters` with the run's
    /// `partition_bytes / 4` vertices per partition. Packs each partition's
    /// hot (high in-degree) vertices at its front so the frequently-written
    /// accumulator lines fit the private caches; the partition census is
    /// unchanged.
    FrequencyClusters,
    /// Adversarial baseline: `hipa_graph::reorder::random_permutation` with
    /// this seed (destroys locality; for A/B censuses).
    Random(u64),
}

impl ReorderStrategy {
    /// Short label for census tables.
    pub fn name(&self) -> &'static str {
        match self {
            ReorderStrategy::None => "input",
            ReorderStrategy::DegreeDesc => "degree-desc",
            ReorderStrategy::FrequencyClusters => "freq-clusters",
            ReorderStrategy::Random(_) => "random",
        }
    }
}

/// Options for the native path.
#[derive(Debug, Clone)]
pub struct NativeOpts {
    /// Worker thread count.
    pub threads: usize,
    /// Cache-partition size in bytes (|P| = bytes / 4). Ignored by
    /// vertex-centric engines.
    pub partition_bytes: usize,
    /// Threads used for preprocessing (plan, PCPM layout, inverse-degree
    /// array). `0` inherits `threads`. Preprocessing output is bit-identical
    /// for every value.
    pub build_threads: usize,
    /// Record a [`RunTrace`] (per-phase spans, convergence trajectory) into
    /// [`NativeRun::trace`]. Ranks and timings semantics are unchanged;
    /// off by default so the hot paths see a no-op recorder.
    pub trace: bool,
    /// Issue software-prefetch hints in the scatter/gather hot loops
    /// (default on). Hints never change ranks — this knob exists for A/B
    /// timing censuses. Compiled out entirely without hipa-core's
    /// `prefetch` feature or off x86_64 (see [`crate::prefetch`]).
    pub prefetch: bool,
    /// Vertex-relabelling preprocessing (default [`ReorderStrategy::None`]).
    /// The relabel pass runs on the host and is counted in
    /// [`NativeRun::preprocess`].
    pub reorder: ReorderStrategy,
}

impl NativeOpts {
    pub fn new(threads: usize, partition_bytes: usize) -> Self {
        NativeOpts {
            threads,
            partition_bytes,
            build_threads: 0,
            trace: false,
            prefetch: true,
            reorder: ReorderStrategy::None,
        }
    }

    pub fn with_build_threads(mut self, build_threads: usize) -> Self {
        self.build_threads = build_threads;
        self
    }

    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    pub fn with_prefetch(mut self, prefetch: bool) -> Self {
        self.prefetch = prefetch;
        self
    }

    pub fn with_reorder(mut self, reorder: ReorderStrategy) -> Self {
        self.reorder = reorder;
        self
    }

    /// Resolved preprocessing thread count: `build_threads`, or `threads`
    /// when unset.
    pub fn effective_build_threads(&self) -> usize {
        if self.build_threads == 0 {
            self.threads.max(1)
        } else {
            self.build_threads
        }
    }
}

impl Default for NativeOpts {
    fn default() -> Self {
        NativeOpts::new(4, 256 * 1024)
    }
}

/// Options for the simulated path.
#[derive(Debug, Clone)]
pub struct SimOpts {
    pub machine: MachineSpec,
    /// Worker thread count (≤ the machine's logical CPUs).
    pub threads: usize,
    /// Cache-partition size in bytes *on the simulated machine* — pass the
    /// scaled value when using a scaled machine.
    pub partition_bytes: usize,
    /// Host threads used to *construct* the layout and auxiliary arrays
    /// (the simulated preprocessing cost model is unaffected — the built
    /// structures are bit-identical for every value). `0` inherits
    /// `threads`.
    pub build_threads: usize,
    /// Record a [`RunTrace`] into [`SimRun::trace`]. The modelled cycle and
    /// traffic counts are identical with tracing on or off — the recorder
    /// observes the simulation, it is not part of the simulated program.
    pub trace: bool,
    /// Model software-prefetch hints in the scatter/gather loops (default
    /// on, mirroring the native path). The sim charges an explicit
    /// `mem.prefetch` counter plus issue/DRAM-stream costs per hint — see
    /// `hipa_numasim`'s `ThreadCtx::prefetch`.
    pub prefetch: bool,
    /// Vertex-relabelling preprocessing (default [`ReorderStrategy::None`]).
    /// Like `build_threads`, the relabel itself runs on the host and is
    /// excluded from the simulated preprocessing cycles; the simulated
    /// iterations then run on the relabelled graph.
    pub reorder: ReorderStrategy,
}

impl SimOpts {
    pub fn new(machine: MachineSpec) -> Self {
        let threads = machine.topology.logical_cpus();
        SimOpts {
            machine,
            threads,
            partition_bytes: 256 * 1024,
            build_threads: 0,
            trace: false,
            prefetch: true,
            reorder: ReorderStrategy::None,
        }
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    pub fn with_partition_bytes(mut self, bytes: usize) -> Self {
        self.partition_bytes = bytes;
        self
    }

    pub fn with_build_threads(mut self, build_threads: usize) -> Self {
        self.build_threads = build_threads;
        self
    }

    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    pub fn with_prefetch(mut self, prefetch: bool) -> Self {
        self.prefetch = prefetch;
        self
    }

    pub fn with_reorder(mut self, reorder: ReorderStrategy) -> Self {
        self.reorder = reorder;
        self
    }

    /// Resolved preprocessing thread count: `build_threads`, or `threads`
    /// when unset.
    pub fn effective_build_threads(&self) -> usize {
        if self.build_threads == 0 {
            self.threads.max(1)
        } else {
            self.build_threads
        }
    }
}

/// Result of a native run.
#[derive(Debug, Clone)]
pub struct NativeRun {
    pub ranks: Vec<f32>,
    /// Partitioning + layout construction (the paper's "overhead", §4.2).
    pub preprocess: Duration,
    /// The timed iterations.
    pub compute: Duration,
    /// Iterations actually executed. Every engine honours
    /// [`PageRankConfig::tolerance`] through the shared
    /// [`convergence`] rule, so this is less than the
    /// `iterations` cap exactly when [`Self::converged`] is true.
    pub iterations_run: usize,
    /// Whether the shared convergence check
    /// ([`convergence::should_stop`])
    /// fired: the last iteration's L1 rank delta fell below the configured
    /// tolerance. Always `false` when no (valid) tolerance was set.
    pub converged: bool,
    /// Structured trace of the run; present iff [`NativeOpts::trace`] was
    /// set (and `hipa-obs` was not built with its `off` feature).
    pub trace: Option<RunTrace>,
}

/// How a run on `g` ended, on either path.
pub struct RunEnd<'a> {
    pub engine: &'a str,
    pub g: &'a DiGraph,
    pub threads: usize,
    /// Cache partitions, for the partition-centric engines.
    pub partitions: Option<usize>,
    pub ranks: Vec<f32>,
    pub iterations_run: usize,
    pub converged: bool,
}

impl RunEnd<'_> {
    fn meta(&self, path: &'static str, machine: Option<String>) -> TraceMeta {
        TraceMeta {
            engine: self.engine.into(),
            path,
            machine,
            vertices: self.g.num_vertices() as u64,
            edges: self.g.num_edges() as u64,
            threads: self.threads as u64,
            partitions: self.partitions.map(|p| p as u64),
            iterations_run: self.iterations_run as u64,
            converged: self.converged,
        }
    }
}

impl NativeRun {
    /// Records the run's phase times and pool deltas into `rec`, then
    /// closes its trace.
    pub fn finish(
        end: RunEnd,
        rec: Recorder,
        pc: PoolCounters,
        preprocess: Duration,
        compute: Duration,
    ) -> Self {
        rec.record("preprocess", RUN_LEVEL, RUN_LEVEL, preprocess.as_nanos() as f64);
        rec.record("compute", RUN_LEVEL, RUN_LEVEL, compute.as_nanos() as f64);
        pc.finish(&rec, end.threads as u64);
        let trace = rec.finish(end.meta(PATH_NATIVE, None));
        let RunEnd { ranks, iterations_run, converged, .. } = end;
        NativeRun { ranks, preprocess, compute, iterations_run, converged, trace }
    }

    /// `engine`'s run on a graph with no vertices: no ranks, no iterations,
    /// and `converged` exactly when a (valid) tolerance was set.
    pub fn empty(engine: &str, cfg: &PageRankConfig, opts: &NativeOpts) -> Self {
        let converged = convergence::effective_tolerance(cfg.tolerance).is_some();
        NativeRun {
            ranks: Vec::new(),
            preprocess: Duration::ZERO,
            compute: Duration::ZERO,
            iterations_run: 0,
            converged,
            trace: Recorder::new(opts.trace).finish(TraceMeta {
                engine: engine.into(),
                path: PATH_NATIVE,
                threads: opts.threads.max(1) as u64,
                converged,
                ..TraceMeta::default()
            }),
        }
    }
}

/// Result of a simulated run.
#[derive(Debug, Clone)]
pub struct SimRun {
    pub ranks: Vec<f32>,
    /// Iterations actually executed (see [`NativeRun::iterations_run`]).
    pub iterations_run: usize,
    /// Whether the convergence tolerance stopped the run (see
    /// [`NativeRun::converged`]).
    pub converged: bool,
    /// Full machine report (cycles include preprocessing).
    pub report: SimReport,
    /// Simulated cycles spent in preprocessing (partitioning, layout, NUMA
    /// placement) — excluded from Table 2, reported in §4.2.
    pub preprocess_cycles: f64,
    /// Simulated cycles spent in the PageRank iterations.
    pub compute_cycles: f64,
    /// Structured trace of the run (spans in simulated cycles, counters
    /// bridged from the machine report); present iff [`SimOpts::trace`] was
    /// set (and `hipa-obs` was not built with its `off` feature).
    pub trace: Option<RunTrace>,
}

impl SimRun {
    /// Records the iterations' cycles (everything `machine` ran after the
    /// first `preprocess_cycles`), the machine report and the pool deltas
    /// into `rec`, then closes its trace.
    pub fn finish(
        end: RunEnd,
        rec: Recorder,
        pc: PoolCounters,
        machine: &SimMachine,
        preprocess_cycles: f64,
    ) -> Self {
        let compute_cycles = machine.cycles() - preprocess_cycles;
        rec.record("compute", RUN_LEVEL, RUN_LEVEL, compute_cycles);
        let report = machine.report(end.engine);
        record_sim_report(&rec, &report);
        pc.finish(&rec, end.threads as u64);
        let trace = rec.finish(end.meta(PATH_SIM, Some(report.machine.clone())));
        let RunEnd { ranks, iterations_run, converged, .. } = end;
        SimRun {
            ranks,
            iterations_run,
            converged,
            report,
            preprocess_cycles,
            compute_cycles,
            trace,
        }
    }

    /// [`NativeRun::empty`] on the simulated path: an idle machine's report
    /// and no cycles.
    pub fn empty(engine: &str, cfg: &PageRankConfig, opts: &SimOpts) -> Self {
        let converged = convergence::effective_tolerance(cfg.tolerance).is_some();
        let report = SimMachine::new(opts.machine.clone()).report(engine);
        SimRun {
            ranks: Vec::new(),
            iterations_run: 0,
            converged,
            trace: Recorder::new(opts.trace).finish(TraceMeta {
                engine: engine.into(),
                path: PATH_SIM,
                machine: Some(report.machine.clone()),
                threads: opts.threads as u64,
                converged,
                ..TraceMeta::default()
            }),
            report,
            preprocess_cycles: 0.0,
            compute_cycles: 0.0,
        }
    }

    /// Simulated seconds for the iterations only (Table 2's quantity).
    pub fn compute_seconds(&self) -> f64 {
        self.compute_cycles / (self.report.ghz * 1e9)
    }

    /// Simulated seconds of preprocessing overhead (§4.2's quantity).
    pub fn preprocess_seconds(&self) -> f64 {
        self.preprocess_cycles / (self.report.ghz * 1e9)
    }

    /// Iterations needed to amortise preprocessing (§4.2 reports 12.7 for
    /// HiPa on average).
    pub fn amortization_iterations(&self, iterations: usize) -> f64 {
        if self.compute_cycles == 0.0 {
            return 0.0;
        }
        let per_iter = self.compute_cycles / iterations.max(1) as f64;
        self.preprocess_cycles / per_iter
    }
}

/// A PageRank methodology under evaluation.
pub trait Engine: Sync {
    /// Short name as used in the paper's tables ("HiPa", "p-PR", ...).
    fn name(&self) -> &'static str;

    /// Whether the engine places data and threads NUMA-aware (affects which
    /// placement policy the harness reports it under).
    fn numa_aware(&self) -> bool;

    /// Real-thread execution.
    fn run_native(&self, g: &DiGraph, cfg: &PageRankConfig, opts: &NativeOpts) -> NativeRun;

    /// Simulated execution on the machine model.
    fn run_sim(&self, g: &DiGraph, cfg: &PageRankConfig, opts: &SimOpts) -> SimRun;
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipa_numasim::MachineSpec;

    #[test]
    fn sim_opts_builder() {
        let o = SimOpts::new(MachineSpec::tiny_test()).with_threads(4).with_partition_bytes(1024);
        assert_eq!(o.threads, 4);
        assert_eq!(o.partition_bytes, 1024);
    }

    #[test]
    fn sim_run_derived_metrics() {
        let machine = MachineSpec::tiny_test();
        let m = hipa_numasim::SimMachine::new(machine);
        let run = SimRun {
            ranks: vec![],
            iterations_run: 20,
            converged: false,
            report: m.report("x"),
            preprocess_cycles: 5.0e9,
            compute_cycles: 10.0e9,
            trace: None,
        };
        // tiny_test runs at 1 GHz.
        assert!((run.compute_seconds() - 10.0).abs() < 1e-9);
        assert!((run.preprocess_seconds() - 5.0).abs() < 1e-9);
        assert!((run.amortization_iterations(20) - 10.0).abs() < 1e-9);
    }
}
