//! Graph partitioning for the HiPa reproduction.
//!
//! Three partitioners, in increasing order of paper-specificity:
//!
//! * [`vertex_balanced`] — equal vertex counts per part (the "intuitive
//!   idea" §3.1 dismisses for skewed graphs);
//! * [`edge_balanced`] — equal out-edge counts per part, Eq. 2, as used by
//!   Polymer-style NUMA-aware systems;
//! * [`hipa_plan`] — the paper's hierarchical partitioning: Eq. 3 rounds the
//!   NUMA-level edge-balanced boundaries up to whole L2-sized cache
//!   partitions (the last node absorbing the leftover), then Eq. 4
//!   edge-balances each node's partitions into per-thread *groups*, giving
//!   the one-to-many thread→partition ownership that eliminates FCFS
//!   contention (§3.2); [`hipa_plan_shared`] adds the level below the
//!   partition for nodes with fewer partitions than threads.
//!
//! [`LookupTable`] is the 2-level table of Fig. 3 (thread → partition range,
//! partition → vertex range).
#![forbid(unsafe_code)]

pub mod balanced;
pub mod lookup;
pub mod plan;
pub mod quality;

pub use balanced::{edge_balanced, edge_balanced_with_prefix, vertex_balanced};
pub use lookup::LookupTable;
pub use plan::{
    hipa_plan, hipa_plan_shared, hipa_plan_with_prefix, HiPaPlan, NodePlan, Share, ThreadPlan,
};
pub use quality::{plan_quality, PlanQuality};

use std::ops::Range;

/// Builds the exclusive prefix sum of a degree array: `prefix[v]` = edges of
/// vertices `< v`; `prefix[n]` = |E|. Shared by all the partitioners.
pub fn degree_prefix(degrees: &[u32]) -> Vec<u64> {
    let mut prefix = Vec::with_capacity(degrees.len() + 1);
    let mut acc = 0u64;
    prefix.push(0);
    for &d in degrees {
        acc += d as u64;
        prefix.push(acc);
    }
    prefix
}

/// Number of edges inside a contiguous vertex range, given the prefix sums.
#[inline]
pub fn edges_in(prefix: &[u64], r: &Range<u32>) -> u64 {
    prefix[r.end as usize] - prefix[r.start as usize]
}
