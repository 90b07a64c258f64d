//! The four comparator methodologies of the paper's evaluation (§4.1), each
//! with a native and a simulated path behind the common
//! [`hipa_core::Engine`] interface:
//!
//! * [`Vpr`] — hand-optimised pull-based vertex-centric PageRank ("v-PR"):
//!   every vertex pulls `rank[u]/outdeg[u]` straight from its in-neighbours
//!   with no stored partial-contribution array (two random reads per edge),
//!   one parallel region per iteration, NUMA-oblivious.
//! * [`Ppr`] — hand-optimised partition-centric PageRank ("p-PR"): the PCPM
//!   scatter/gather layout with compressed inter-edges, but NUMA-oblivious
//!   (interleaved placement, OS-random thread placement, FCFS partition
//!   claiming via an atomic counter, threads recreated per parallel region —
//!   Algorithm 1).
//! * [`Gpop`] — a GPOP-like partition-centric framework model: like p-PR but
//!   every edge is binned (no direct intra-edge application), plus
//!   per-partition framework metadata (Flags/State) touched in every phase.
//!   The paper runs it with 1 MB partitions and physical-core thread counts.
//! * [`Polymer`] — a Polymer-like NUMA-aware vertex-centric engine:
//!   node-blocked data placement, a per-node replica of the contribution
//!   array refreshed each iteration (remote traffic is the streaming
//!   replication; the per-edge random reads are all node-local), threads
//!   bound to nodes per parallel region (migration-heavy Algorithm 1).
//!
//! All five engines (these four plus [`hipa_core::HiPa`]) compute the same
//! ranks up to f32 rounding order, and each engine's native and simulated
//! paths are bit-identical: p-PR and GPOP run the shared partition-centric
//! kernel, v-PR and Polymer write each region body once and run it through
//! one region runner (`region.rs`).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod gpop;
pub mod pcpm_common;
pub mod polymer;
pub mod ppr;
mod region;
pub mod vpr;

pub use gpop::Gpop;
pub use polymer::Polymer;
pub use ppr::Ppr;
pub use vpr::Vpr;

use hipa_core::Engine;

/// All five engines in the paper's column order (Table 2): HiPa, p-PR,
/// v-PR, GPOP, Polymer.
pub fn all_engines() -> Vec<Box<dyn Engine>> {
    vec![Box::new(hipa_core::HiPa), Box::new(Ppr), Box::new(Vpr), Box::new(Gpop), Box::new(Polymer)]
}
