//! The HiPa engine: hierarchical partitioning + thread-data pinning +
//! compressed scatter/gather (paper §3).
//!
//! Both execution paths run the same partition-centric kernel
//! ([`crate::kernel`]) over the same data layout, so the native and
//! simulated runs produce **bit-identical** f32 rank vectors (the
//! integration tests assert this):
//!
//! * [`native`] — persistent `std::thread` workers, one per plan thread,
//!   with barrier-synchronised scatter/gather phases (Algorithm 2);
//! * [`sim`] — the same phases executed on [`hipa_numasim::SimMachine`] with
//!   NUMA-aware partition-mapped region placement (§3.4).

pub mod native;
pub mod placement;
pub mod sim;

use crate::config::PageRankConfig;
use crate::runs::{Engine, NativeOpts, NativeRun, SimOpts, SimRun};
use hipa_graph::DiGraph;

/// The HiPa methodology (paper §3). Unit struct implementing [`Engine`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HiPa;

impl Engine for HiPa {
    fn name(&self) -> &'static str {
        "HiPa"
    }

    fn numa_aware(&self) -> bool {
        true
    }

    fn run_native(&self, g: &DiGraph, cfg: &PageRankConfig, opts: &NativeOpts) -> NativeRun {
        native::run(g, cfg, opts)
    }

    fn run_sim(&self, g: &DiGraph, cfg: &PageRankConfig, opts: &SimOpts) -> SimRun {
        sim::run(g, cfg, opts)
    }
}
