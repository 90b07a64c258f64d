//! The benchmark's input graphs: the paper's journal and wiki stand-ins,
//! relabelled by the benchmark seed.
//!
//! The relabelling shuffles vertex ids only inside aligned blocks of
//! `BLOCK` vertices. Every seed therefore yields a graph isomorphic to the
//! stand-in, with the same partition census at every partition size the
//! engines, the simulator and the server use (all multiples of `BLOCK`
//! vertices), and so the same iterations to tolerance; only the id order
//! inside each block, and with it the cache behaviour, changes.

use hipa::graph::datasets::Dataset;
use hipa::graph::reorder::Permutation;
use hipa::graph::EdgeList;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The smallest partition in use: the simulator's 4 KiB (cache-scaled
/// 256 KiB) partitions of 4-byte ranks.
const BLOCK: usize = 1024;

/// The seed's relabelling of `n` vertex ids: a shuffle inside each
/// `BLOCK`-vertex block.
pub fn relabelling(n: usize, seed: u64) -> Permutation {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9a4f_b10c);
    let mut forward: Vec<u32> = (0..n as u32).collect();
    for block in forward.chunks_mut(BLOCK) {
        for i in (1..block.len()).rev() {
            block.swap(i, rng.gen_range(0..=i));
        }
    }
    Permutation::new(forward)
}

/// `dataset`'s stand-in relabelled by the seed, and the relabelling.
pub fn relabelled(dataset: Dataset, seed: u64) -> (EdgeList, Permutation) {
    let edges = dataset.edge_list();
    let p = relabelling(edges.num_vertices(), seed);
    (p.apply(&edges), p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipa::graph::DiGraph;

    #[test]
    fn relabelling_is_seeded_and_block_local() {
        let base = Dataset::Journal.edge_list();
        let (a, p) = relabelled(Dataset::Journal, 1);
        assert_eq!(a, relabelled(Dataset::Journal, 1).0);
        assert_ne!(a, relabelled(Dataset::Journal, 2).0);
        assert_eq!(a.num_edges(), base.num_edges());
        for (e, f) in base.edges().iter().zip(a.edges()) {
            assert_eq!((p.map(e.src), p.map(e.dst)), (f.src, f.dst));
            assert_eq!(e.src as usize / BLOCK, f.src as usize / BLOCK);
            assert_eq!(e.dst as usize / BLOCK, f.dst as usize / BLOCK);
        }
        let (g, h) = (DiGraph::from_edge_list(&base), DiGraph::from_edge_list(&a));
        let mut da: Vec<u32> = g.out_degrees().to_vec();
        let mut db: Vec<u32> = h.out_degrees().to_vec();
        da.sort_unstable();
        db.sort_unstable();
        assert_eq!(da, db, "same degree sequence");
    }
}
