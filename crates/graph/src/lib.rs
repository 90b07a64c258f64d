//! Graph substrate for the HiPa reproduction.
//!
//! This crate provides everything the engines need from a graph:
//!
//! * [`EdgeList`] — a flat list of directed edges, the interchange format
//!   produced by the generators and the I/O readers.
//! * [`Csr`] — compressed sparse row adjacency, the canonical in-memory
//!   representation, built by one counting sort from an edge list. A
//!   [`DiGraph`] bundles the out-CSR with its transpose (the in-CSR) since
//!   pull-based engines traverse in-edges while push-based engines traverse
//!   out-edges. The transpose is built on first use.
//! * [`gen`] — deterministic graph generators (RMAT/Kronecker, Zipf
//!   power-law, Erdős–Rényi, and small structured graphs for tests).
//! * [`datasets`] — scaled synthetic stand-ins for the six graphs of the
//!   paper's Table 1 (journal, pld, wiki, kron, twitter, mpi).
//! * [`stats`] — degree statistics and the intra-/inter-edge census that
//!   Table 1 reports per cache-sized partition.
//! * [`reorder`] — vertex relabelling (degree clustering, random, greedy
//!   locality) for the §2.1 temporal-locality experiments.
//! * [`components`] — weakly-connected components (dataset sanity checks).
//! * [`io`] — plain-text and binary edge-list readers/writers.
//!
//! Per the paper's experimental setup (§4.1), vertex ids and rank values are
//! 4 bytes wide: [`VertexId`] is `u32` and [`Rank`] is `f32`.
#![forbid(unsafe_code)]

pub mod components;
pub mod csr;
pub mod datasets;
pub mod edgelist;
pub mod gen;
pub mod io;
pub mod reorder;
pub mod stats;

pub use csr::{Csr, DiGraph};
pub use edgelist::{Edge, EdgeList};

/// Vertex identifier. The paper fixes vertex ids to 4 bytes (§4.1).
pub type VertexId = u32;

/// PageRank value. The paper fixes rank values to 4 bytes (§4.1).
pub type Rank = f32;

/// Number of bytes a single vertex-attribute entry occupies. Used when a
/// byte-sized cache partition is converted into a vertex count
/// (|P| = partition bytes / VERTEX_BYTES, paper §3.1).
pub const VERTEX_BYTES: usize = 4;
