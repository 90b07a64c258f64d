//! Scaled synthetic stand-ins for the six graphs in the paper's Table 1.
//!
//! The originals (LiveJournal, Pay-Level-Domain, Wiki Links, Graph500
//! Kronecker scale-23, Twitter follower, Twitter influence) range from
//! 68 M to 2.1 B edges — far beyond what a per-access machine simulation can
//! chew through. Each stand-in keeps the original's *character* (mean
//! degree, degree skew, id ordering, and the intra-/inter-edge balance that
//! drives the paper's partition-size results) at 64–1000× reduced scale.
//! All are deterministic: fixed generator parameters, fixed seed.
//!
//! The substitution is documented in `DESIGN.md` §2/§5; the realised sizes
//! are printed by the Table 1 harness (`cargo run -p hipa-bench --bin table1`).

use crate::gen::{rmat, zipf_graph, RmatParams, ZipfParams};
use crate::{DiGraph, EdgeList};

/// The six evaluation graphs of the paper, as scaled stand-ins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// LiveJournal social network (paper: 4.8 M vertices, 68.5 M edges).
    Journal,
    /// Pay-Level-Domain web hyperlinks (paper: 42.9 M / 0.6 B).
    Pld,
    /// Wikipedia links (paper: 18.3 M / 0.2 B).
    Wiki,
    /// Graph500 Kronecker scale-23 (paper: 67 M / 2.1 B).
    Kron,
    /// Twitter follower network (paper: 41.7 M / 1.5 B).
    Twitter,
    /// Twitter influence / MPI crawl (paper: 52.6 M / 2.0 B).
    Mpi,
}

impl Dataset {
    /// All six, in the paper's Table 1 order.
    pub const ALL: [Dataset; 6] = [
        Dataset::Journal,
        Dataset::Pld,
        Dataset::Wiki,
        Dataset::Kron,
        Dataset::Twitter,
        Dataset::Mpi,
    ];

    /// Short name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Journal => "journal",
            Dataset::Pld => "pld",
            Dataset::Wiki => "wiki",
            Dataset::Kron => "kron",
            Dataset::Twitter => "twitter",
            Dataset::Mpi => "mpi",
        }
    }

    /// Original (paper) vertex and edge counts, for the scale column the
    /// EXPERIMENTS.md report prints next to the realised stand-in sizes.
    pub fn paper_size(self) -> (u64, u64) {
        match self {
            Dataset::Journal => (4_800_000, 68_500_000),
            Dataset::Pld => (42_900_000, 600_000_000),
            Dataset::Wiki => (18_300_000, 200_000_000),
            Dataset::Kron => (67_000_000, 2_100_000_000),
            Dataset::Twitter => (41_700_000, 1_500_000_000),
            Dataset::Mpi => (52_600_000, 2_000_000_000),
        }
    }

    /// Generates the stand-in edge list. Deterministic.
    pub fn edge_list(self) -> EdgeList {
        match self {
            // Social network, community id ordering destroyed by crawl →
            // inter-heavy under contiguous splits: shuffled R-MAT.
            Dataset::Journal => rmat(
                &RmatParams {
                    scale: 16,
                    edges: 1_070_000,
                    a: 0.57,
                    b: 0.19,
                    c: 0.19,
                    simplify: true,
                    shuffle_ids: true,
                },
                0xC0FF_EE01,
            ),
            // Web PLD graph: strong hub skew (popular domains), mild crawl
            // locality.
            Dataset::Pld => zipf_graph(
                &ZipfParams {
                    num_vertices: 160_000,
                    mean_degree: 15.5,
                    degree_exponent: 1.7,
                    max_degree_frac: 0.02,
                    target_exponent: 0.85,
                    locality: 0.15,
                    block_size: 4096,
                    simplify: true,
                },
                0xC0FF_EE02,
            ),
            // Wiki links: article ids cluster by topic → intra-heavy.
            Dataset::Wiki => zipf_graph(
                &ZipfParams {
                    num_vertices: 143_000,
                    mean_degree: 12.5,
                    degree_exponent: 1.8,
                    max_degree_frac: 0.02,
                    target_exponent: 0.75,
                    locality: 0.5,
                    block_size: 4096,
                    simplify: true,
                },
                0xC0FF_EE03,
            ),
            // Graph500 Kronecker, reference parameters and id shuffle.
            Dataset::Kron => rmat(
                &RmatParams {
                    scale: 16,
                    edges: 2_030_000,
                    a: 0.57,
                    b: 0.19,
                    c: 0.19,
                    simplify: true,
                    shuffle_ids: true,
                },
                0xC0FF_EE04,
            ),
            // Twitter follower: extreme skew; crawl ids are uncorrelated
            // with degree (Table 1 shows twitter is as intra-poor as
            // journal), so ids are shuffled.
            Dataset::Twitter => rmat(
                &RmatParams {
                    scale: 16,
                    edges: 2_300_000,
                    a: 0.57,
                    b: 0.19,
                    c: 0.19,
                    simplify: true,
                    shuffle_ids: true,
                },
                0xC0FF_EE05,
            ),
            // Twitter influence (MPI crawl): densest, highest intra count in
            // Table 1 → strong community locality.
            Dataset::Mpi => zipf_graph(
                &ZipfParams {
                    num_vertices: 64_000,
                    mean_degree: 42.0,
                    degree_exponent: 1.7,
                    max_degree_frac: 0.03,
                    target_exponent: 0.8,
                    locality: 0.6,
                    block_size: 8192,
                    simplify: true,
                },
                0xC0FF_EE06,
            ),
        }
    }

    /// Generates the stand-in as a [`DiGraph`].
    pub fn build(self) -> DiGraph {
        DiGraph::from_edge_list(&self.edge_list())
    }
}

/// A small (~1 K vertex) skewed graph for unit/integration tests that need a
/// "realistic" shape without dataset-scale build times.
pub fn small_test_graph(seed: u64) -> DiGraph {
    DiGraph::from_edge_list(&rmat(
        &RmatParams {
            scale: 10,
            edges: 12_000,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            simplify: true,
            shuffle_ids: true,
        },
        seed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_are_deterministic() {
        // Only the two cheapest; full determinism of generators is covered in
        // the generator tests.
        assert_eq!(Dataset::Journal.edge_list(), Dataset::Journal.edge_list());
    }

    #[test]
    fn journal_standin_size_in_band() {
        let el = Dataset::Journal.edge_list();
        assert_eq!(el.num_vertices(), 65_536);
        assert!(
            (800_000..1_100_000).contains(&el.num_edges()),
            "journal edges = {}",
            el.num_edges()
        );
    }

    #[test]
    fn small_test_graph_usable() {
        let g = small_test_graph(1);
        assert_eq!(g.num_vertices(), 1024);
        assert!(g.num_edges() > 5_000);
    }

    #[test]
    fn names_match_paper_order() {
        let names: Vec<_> = Dataset::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(names, ["journal", "pld", "wiki", "kron", "twitter", "mpi"]);
    }
}
