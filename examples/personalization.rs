//! Personalized PageRank: importance *as seen from a seed user*, computed
//! with the partition-centric SpMV machinery, contrasted with the global
//! ranking.
//!
//! ```text
//! cargo run --release --example personalization
//! ```

use hipa::algos::{personalized_from_seed, PersonalizedConfig};
use hipa::prelude::*;

fn main() {
    let g = Dataset::Journal.build();
    let global = hipa::pagerank(&g, 4);
    let top_global = hipa::top_k(&global, 5);
    println!("global top-5: {:?}", top_global.iter().map(|(v, _)| *v).collect::<Vec<_>>());

    // Seed the walk at an arbitrary mid-rank user and see the ranking warp.
    let seed = 12_345u32;
    let res = personalized_from_seed(&g, seed, &PersonalizedConfig::default());
    println!(
        "personalized from user#{seed}: converged = {} after {} iterations",
        res.converged, res.iterations_run
    );
    let top_local = hipa::top_k(&res.ranks, 5);
    println!("seeded top-5: {:?}", top_local.iter().map(|(v, _)| *v).collect::<Vec<_>>());
    println!(
        "seed's own rank: global {:.2e} vs personalized {:.2e}",
        global[seed as usize], res.ranks[seed as usize]
    );
}
