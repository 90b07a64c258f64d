//! Extensions of the HiPa methodology beyond PageRank — the paper's §6
//! future-work list: SpMV, PageRank-Delta, and BFS.
//!
//! Each algorithm comes with a plain sequential reference and a
//! partition-centric implementation built on the same [`hipa_core::PcpmLayout`]
//! scatter/gather machinery (compressed inter-edges, cache-sized partitions,
//! disjoint per-thread ownership), demonstrating that the hierarchical
//! partitioning generalises exactly as the paper claims. The resident
//! [`SpmvWorkspace`] behind personalized PageRank instead pulls each
//! destination's sources in that machinery's summation order
//! ([`hipa_core::PcpmPrepared`]), bit for bit the same sums. [`topk`] holds
//! the rank order every top-k consumer shares.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bfs;
pub mod cc;
pub mod ppr;
pub mod prdelta;
pub mod spmv;
pub mod spmv_sim;
pub mod topk;
pub mod wspmv;

pub use bfs::{bfs_levels, bfs_partition_centric};
pub use cc::{label_propagation, wcc_by_propagation, LabelPropagation};
pub use ppr::{
    personalized_from_seed, personalized_pagerank, teleport_from_seeds, PersonalizedConfig,
    PersonalizedResult, PprSolver,
};
pub use prdelta::{pagerank_delta, PrDeltaConfig, PrDeltaResult};
pub use spmv::{spmv_partition_centric, spmv_reference, SpmvWorkspace};
pub use spmv_sim::{spmv_sim, SpmvSimRun};
pub use topk::{rank_order, top_k};
pub use wspmv::{wspmv_partition_centric, wspmv_reference, WeightedPcpm};
