//! Deterministic graph generators.
//!
//! Every generator takes an explicit seed and uses `StdRng`, so a given
//! (parameters, seed) pair always yields the same graph. The paper's
//! stand-in datasets in [`crate::datasets`] are built from these.

pub mod ba;
pub mod er;
pub mod rmat;
pub mod structured;
pub mod zipf;

pub use ba::barabasi_albert;
pub use er::erdos_renyi;
pub use rmat::{rmat, RmatParams};
pub use structured::{complete, cycle, grid, path, star};
pub use zipf::{zipf_graph, ZipfParams};
