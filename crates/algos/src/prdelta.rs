//! PageRank-Delta: incremental PageRank that only propagates *changes*.
//!
//! Second entry in the paper's §6 extension list. Instead of touching every
//! edge every iteration, a vertex propagates only when its accumulated
//! incoming delta exceeds a threshold; ranks converge to the same fixed
//! point as power iteration (with the `Ignore` dangling policy of Eq. 1).
//!
//! Each round walks the frontier in ascending vertex order and pushes along
//! the out-CSR, so every destination sums its incoming pushes in ascending
//! source order: the result is a pure function of the graph and the
//! config. The pushes are random writes over the whole rank range; nothing
//! confines them to cache-sized destination ranges.

use hipa_graph::DiGraph;

/// Parameters for PageRank-Delta.
#[derive(Debug, Clone, Copy)]
pub struct PrDeltaConfig {
    pub damping: f32,
    /// A vertex propagates only if its pending delta magnitude exceeds this.
    pub threshold: f32,
    /// Hard round cap (safety net; convergence normally stops earlier).
    pub max_rounds: usize,
}

impl Default for PrDeltaConfig {
    fn default() -> Self {
        PrDeltaConfig { damping: 0.85, threshold: 1e-9, max_rounds: 200 }
    }
}

/// Outcome of a PageRank-Delta run.
#[derive(Debug, Clone)]
pub struct PrDeltaResult {
    pub ranks: Vec<f32>,
    /// Rounds executed before the frontier drained (or the cap hit).
    pub rounds: usize,
    /// Total vertex activations (Σ frontier sizes) — the work saved relative
    /// to `rounds × |V|` is PageRank-Delta's selling point.
    pub activations: u64,
    /// True if the frontier drained before `max_rounds`.
    pub converged: bool,
}

/// Runs PageRank-Delta to convergence.
pub fn pagerank_delta(g: &DiGraph, cfg: &PrDeltaConfig) -> PrDeltaResult {
    let n = g.num_vertices();
    if n == 0 {
        return PrDeltaResult { ranks: Vec::new(), rounds: 0, activations: 0, converged: true };
    }
    let d = cfg.damping;
    let base = (1.0 - d) / n as f32;
    let (offsets, targets) = (g.out_csr().offsets_raw(), g.out_csr().targets_raw());
    // Series form of Eq. 1's fixed point (Ignore dangling):
    // r = Σ_k (dM)^k · (1-d)/n·1. Round k absorbs term k into `rank` and
    // pushes its d-scaled propagation as the next round's deltas.
    let mut rank = vec![0.0f32; n];
    let mut delta: Vec<f32> = vec![base; n];
    let mut pending = vec![0.0f32; n];
    // Always in ascending vertex order: built by the ascending scan below.
    let mut frontier: Vec<u32> = (0..n as u32).collect();
    let mut activations = 0u64;
    let mut rounds = 0usize;

    while !frontier.is_empty() && rounds < cfg.max_rounds {
        rounds += 1;
        activations += frontier.len() as u64;
        for &v in &frontier {
            let v = v as usize;
            let dv = delta[v];
            rank[v] += dv;
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            if lo == hi {
                continue; // Eq. 1 drops dangling mass.
            }
            let push = d * dv / (hi - lo) as f32;
            for &u in &targets[lo..hi] {
                pending[u as usize] += push;
            }
        }
        // Build the next frontier; sub-threshold deltas are absorbed into
        // the rank immediately but not propagated further (bounded error).
        frontier.clear();
        for v in 0..n {
            let p = pending[v];
            if p != 0.0 {
                if p.abs() > cfg.threshold {
                    delta[v] = p;
                    frontier.push(v as u32);
                } else {
                    rank[v] += p;
                }
                pending[v] = 0.0;
            }
        }
    }
    PrDeltaResult { ranks: rank, rounds, activations, converged: frontier.is_empty() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipa_core::{reference_pagerank, PageRankConfig};
    use hipa_graph::gen::{cycle, star};

    fn assert_close_to_power_iteration(g: &DiGraph, rounds_for_oracle: usize) {
        let res = pagerank_delta(g, &PrDeltaConfig::default());
        assert!(res.converged, "did not converge");
        let oracle =
            reference_pagerank(g, &PageRankConfig::default().with_iterations(rounds_for_oracle));
        for (v, (a, b)) in res.ranks.iter().zip(&oracle).enumerate() {
            assert!((*a as f64 - b).abs() < 1e-4, "vertex {v}: delta {a} vs oracle {b}");
        }
    }

    #[test]
    fn converges_on_cycle_to_uniform() {
        let g = DiGraph::from_edge_list(&cycle(16));
        let res = pagerank_delta(&g, &PrDeltaConfig::default());
        for &r in &res.ranks {
            assert!((r - 1.0 / 16.0).abs() < 1e-5, "rank {r}");
        }
    }

    #[test]
    fn matches_power_iteration_on_star() {
        let g = DiGraph::from_edge_list(&star(9));
        assert_close_to_power_iteration(&g, 120);
    }

    #[test]
    fn matches_power_iteration_on_skewed_graph() {
        let g = hipa_graph::datasets::small_test_graph(90);
        assert_close_to_power_iteration(&g, 120);
    }

    #[test]
    fn threshold_saves_activations() {
        let g = hipa_graph::datasets::small_test_graph(91);
        let tight = pagerank_delta(&g, &PrDeltaConfig { threshold: 1e-10, ..Default::default() });
        let loose = pagerank_delta(&g, &PrDeltaConfig { threshold: 1e-5, ..Default::default() });
        assert!(loose.activations < tight.activations);
        assert!(loose.converged && tight.converged);
    }

    /// The original round loop, which grouped each round's frontier into
    /// fresh per-partition buckets of `vpp` vertices before pushing, kept
    /// as an oracle: pushing the ascending frontier directly must not change
    /// a single bit of the ranks nor the activation/round counts, whatever
    /// the bucket size.
    fn pagerank_delta_bucketed_oracle(
        g: &DiGraph,
        cfg: &PrDeltaConfig,
        vpp: usize,
    ) -> PrDeltaResult {
        let n = g.num_vertices();
        if n == 0 {
            return PrDeltaResult { ranks: Vec::new(), rounds: 0, activations: 0, converged: true };
        }
        let d = cfg.damping;
        let base = (1.0 - d) / n as f32;
        let mut rank = vec![0.0f32; n];
        let mut delta: Vec<f32> = vec![base; n];
        let mut pending = vec![0.0f32; n];
        let num_parts = n.div_ceil(vpp);
        let mut frontier: Vec<u32> = (0..n as u32).collect();
        let mut activations = 0u64;
        let mut rounds = 0usize;
        while !frontier.is_empty() && rounds < cfg.max_rounds {
            rounds += 1;
            activations += frontier.len() as u64;
            let mut by_part: Vec<Vec<u32>> = vec![Vec::new(); num_parts];
            for &v in &frontier {
                by_part[v as usize / vpp].push(v);
            }
            for part in &by_part {
                for &v in part {
                    let dv = delta[v as usize];
                    rank[v as usize] += dv;
                    let deg = g.out_degree(v);
                    if deg == 0 {
                        continue;
                    }
                    let push = d * dv / deg as f32;
                    for &u in g.out_csr().neighbors(v) {
                        pending[u as usize] += push;
                    }
                }
            }
            frontier.clear();
            for v in 0..n {
                let p = pending[v];
                if p != 0.0 {
                    if p.abs() > cfg.threshold {
                        delta[v] = p;
                        frontier.push(v as u32);
                    } else {
                        rank[v] += p;
                    }
                    pending[v] = 0.0;
                }
            }
        }
        PrDeltaResult { ranks: rank, rounds, activations, converged: frontier.is_empty() }
    }

    #[test]
    fn frontier_order_rounds_match_bucketed_oracle_bitwise() {
        let rmat_4k = DiGraph::from_edge_list(&hipa_graph::gen::rmat(
            &hipa_graph::gen::RmatParams {
                scale: 12,
                edges: 40_000,
                a: 0.57,
                b: 0.19,
                c: 0.19,
                simplify: true,
                shuffle_ids: true,
            },
            94,
        ));
        let graphs = [90u64, 92, 93].map(|seed| {
            (format!("small_test_graph({seed})"), hipa_graph::datasets::small_test_graph(seed))
        });
        for (name, g) in graphs.into_iter().chain([("rmat scale 12".to_string(), rmat_4k)]) {
            for cfg in [
                PrDeltaConfig::default(),
                PrDeltaConfig { threshold: 1e-5, ..Default::default() },
                PrDeltaConfig { max_rounds: 9, ..Default::default() },
            ] {
                let got = pagerank_delta(&g, &cfg);
                for vpp in [7, 64, 1024] {
                    let want = pagerank_delta_bucketed_oracle(&g, &cfg, vpp);
                    let at = format!("{name}, {cfg:?}, vpp {vpp}");
                    assert_eq!(got.ranks, want.ranks, "{at}: ranks drifted");
                    assert_eq!(got.activations, want.activations, "{at}");
                    assert_eq!(got.rounds, want.rounds, "{at}");
                    assert_eq!(got.converged, want.converged, "{at}");
                }
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::from_edge_list(&hipa_graph::EdgeList::new(0, vec![]));
        let res = pagerank_delta(&g, &PrDeltaConfig::default());
        assert!(res.converged);
        assert!(res.ranks.is_empty());
    }
}
