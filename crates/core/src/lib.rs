//! The HiPa engine — the paper's primary contribution.
//!
//! HiPa accelerates PageRank on NUMA multicores with hierarchical
//! partitioning (NUMA level, Eq. 3; cache level, Eq. 4), thread-data
//! pinning over persistent threads (Algorithm 2), PCPM-style inter-edge
//! compression (Fig. 4) and a partition-mapped contiguous data layout
//! (§3.4).
//!
//! This crate provides:
//!
//! * [`PageRankConfig`] / [`reference_pagerank`] — the algorithm definition
//!   (Eq. 1) and an f64 sequential oracle every engine is tested against;
//! * [`Engine`] — the common interface all five methodologies implement,
//!   with a native (real threads) and a simulated (NUMA machine model)
//!   execution path each;
//! * [`PcpmLayout`] — the partition-centric scatter/gather data layout with
//!   compressed inter-edges, shared with the `p-PR` and `GPOP` baselines;
//! * [`kernel`] — the partition-centric iteration over that layout, written
//!   once for HiPa, p-PR and GPOP on both execution paths;
//! * [`HiPa`] — the engine itself.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod config;
pub mod convergence;
pub mod disjoint;
pub mod hb;
pub mod hipa;
pub mod kernel;
pub mod par;
pub mod pcpm;
pub mod prefetch;
pub mod preorder;
pub mod prepared;
pub mod reference;
pub mod runs;

pub use config::{DanglingPolicy, PageRankConfig};
pub use hipa::sim::HiPaVariant;
pub use hipa::HiPa;
pub use pcpm::{layout_builds_total, PcpmLayout};
pub use prepared::PcpmPrepared;
pub use reference::reference_pagerank;
pub use runs::{Engine, NativeOpts, NativeRun, ReorderStrategy, RunEnd, SimOpts, SimRun};
