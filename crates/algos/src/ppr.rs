//! Personalized PageRank: rank mass teleports to a *preference
//! distribution* instead of uniformly — the standard tool for
//! seed-relative importance (e.g. "importance as seen from this user").
//!
//! Implemented as power iteration over the resident SpMV:
//! `r ← (1-d)·p + d·Aᵀ(r ⊘ outdeg)`, with dangling mass optionally
//! redirected to the preference vector. Each sweep pulls every
//! destination's sources in the partition-centric push order, so results
//! are bitwise those of the push the solver used to run.
//!
//! [`PprSolver`] is the resident form: it owns one [`SpmvWorkspace`]
//! (source lists, destination ranges and pool built once) plus the
//! precomputed inverse-degree and dangling-vertex tables, and solves many
//! preference vectors against them —
//! one at a time ([`solve`](PprSolver::solve)) or as a batch
//! ([`solve_batch`](PprSolver::solve_batch)) where every power iteration
//! advances the whole batch through **one** multi-vector graph sweep.
//! The batch keeps only its still-iterating members, vertex-interleaved:
//! when a member converges its ranks are copied out and the rest re-packed
//! one narrower, so later sweeps carry no frozen slots. Re-packing moves
//! values without summing them, and each member's sums keep the solo
//! order, so every batch member's result is bitwise identical to a solo
//! run.

use crate::spmv::SpmvWorkspace;
use hipa_core::PcpmPrepared;
use hipa_graph::DiGraph;
use std::sync::Arc;

/// Configuration for personalized PageRank.
#[derive(Debug, Clone)]
pub struct PersonalizedConfig {
    pub damping: f32,
    pub iterations: usize,
    /// Stop early when the L1 delta drops below this.
    pub tolerance: Option<f32>,
    /// Send dangling mass to the preference vector (keeps `Σr = 1`).
    pub redistribute_dangling: bool,
    /// Partition size (vertices) for the SpMV layout.
    pub verts_per_partition: usize,
    /// Worker threads for the SpMV.
    pub threads: usize,
}

impl Default for PersonalizedConfig {
    fn default() -> Self {
        PersonalizedConfig {
            damping: 0.85,
            iterations: 100,
            tolerance: Some(1e-7),
            redistribute_dangling: true,
            verts_per_partition: 64 * 1024 / 4,
            threads: 4,
        }
    }
}

/// Result of a personalized PageRank run.
#[derive(Debug, Clone)]
pub struct PersonalizedResult {
    pub ranks: Vec<f32>,
    pub iterations_run: usize,
    pub converged: bool,
}

/// Panics unless `teleport` is a valid unnormalised preference vector for an
/// `n`-vertex graph: right length, non-negative, positive total mass.
fn validate_teleport(teleport: &[f32], n: usize) {
    assert_eq!(teleport.len(), n, "teleport length mismatch");
    let mass: f64 = teleport
        .iter()
        .map(|&x| {
            assert!(x >= 0.0, "teleport entries must be non-negative");
            x as f64
        })
        .sum();
    assert!(mass > 0.0, "teleport distribution must have positive mass");
}

/// Uniform preference vector over a seed set. Non-panicking validation for
/// request paths taking user-supplied seeds (the serve layer): `Err` on an
/// empty set or any out-of-range seed.
pub fn teleport_from_seeds(num_vertices: usize, seeds: &[u32]) -> Result<Vec<f32>, String> {
    if seeds.is_empty() {
        return Err("empty personalization seed set".to_string());
    }
    let mut p = vec![0.0f32; num_vertices];
    for &s in seeds {
        if (s as usize) >= num_vertices {
            return Err(format!("seed vertex {s} out of range: graph has {num_vertices} vertices"));
        }
        p[s as usize] += 1.0;
    }
    Ok(p)
}

/// A resident personalized-PageRank engine over one graph snapshot: the
/// expensive preprocessing (per-destination source lists, destination
/// ranges, worker pool, inverse degrees, dangling list) happens once in [`new`](Self::new) and is reused
/// by every subsequent solve — the one-shot path used to redo all of it on
/// **every power iteration**.
pub struct PprSolver {
    ws: SpmvWorkspace,
    cfg: PersonalizedConfig,
}

impl PprSolver {
    /// Preprocesses `g` per `cfg` (threads, partition size). The expensive
    /// call; solves after it cost only the iterations themselves.
    pub fn new(g: &DiGraph, cfg: &PersonalizedConfig) -> Self {
        PprSolver {
            ws: SpmvWorkspace::new(g, cfg.threads, cfg.verts_per_partition),
            cfg: cfg.clone(),
        }
    }

    /// Wraps an existing shared preprocessed state (threads / partition size
    /// come from the state, the iteration schedule from `cfg`).
    pub fn from_prepared(prepared: Arc<PcpmPrepared>, cfg: &PersonalizedConfig) -> Self {
        let mut cfg = cfg.clone();
        cfg.threads = prepared.threads;
        cfg.verts_per_partition = prepared.verts_per_partition;
        PprSolver { ws: SpmvWorkspace::from_prepared(prepared), cfg }
    }

    pub fn prepared(&self) -> &Arc<PcpmPrepared> {
        self.ws.prepared()
    }

    /// Solves one preference vector. Equivalent to a batch of one.
    pub fn solve(&mut self, teleport: &[f32]) -> PersonalizedResult {
        self.solve_slices(&[teleport]).pop().expect("batch of one")
    }

    /// Solves a batch of preference vectors through shared multi-vector
    /// sweeps: each power iteration makes **one** pass over the graph for
    /// the whole batch, amortizing the graph traffic across all
    /// still-active vectors. A vector that converges leaves the batch, so
    /// `results[b]` is bitwise identical to `solve(&teleports[b])`.
    pub fn solve_batch(&mut self, teleports: &[Vec<f32>]) -> Vec<PersonalizedResult> {
        let slices: Vec<&[f32]> = teleports.iter().map(|t| t.as_slice()).collect();
        self.solve_slices(&slices)
    }

    /// The batch solve. Every per-vertex array is vertex-interleaved over
    /// the `w` members still iterating (`rank[v*w + b]`), so each power
    /// iteration is one [`SpmvWorkspace::run_batch_into`] sweep at width
    /// `w`. A member that converges has its ranks copied out and the rest
    /// re-packed to width `w - 1`. Re-packing moves values, never sums
    /// them, and each member's dangling and delta sums still run in
    /// ascending vertex order, so no width changes any result bit.
    fn solve_slices(&mut self, teleports: &[&[f32]]) -> Vec<PersonalizedResult> {
        let prep = Arc::clone(self.ws.prepared());
        let n = prep.num_vertices;
        let mut w = teleports.len();
        // Normalise every preference vector (f64 mass, as the one-shot path
        // always did).
        let mut p = vec![0.0f32; w * n];
        for (b, t) in teleports.iter().enumerate() {
            validate_teleport(t, n);
            let mass: f64 = t.iter().map(|&x| x as f64).sum();
            for v in 0..n {
                p[v * w + b] = (t[v] as f64 / mass) as f32;
            }
        }

        let d = self.cfg.damping;
        let mut rank = p.clone();
        let mut x = vec![0.0f32; w * n];
        let mut y = vec![0.0f32; w * n];
        // `live[b]` is the teleport index of interleaved slot `b`.
        let mut live: Vec<usize> = (0..w).collect();
        let mut results: Vec<Option<PersonalizedResult>> = vec![None; w];
        let mut dangling = vec![0.0f64; w];
        let mut delta = vec![0.0f64; w];
        for iter in 1..=self.cfg.iterations {
            if w == 0 {
                break;
            }
            for (v, (xv, rv)) in x.chunks_exact_mut(w).zip(rank.chunks_exact(w)).enumerate() {
                for (xb, &rb) in xv.iter_mut().zip(rv) {
                    *xb = rb * prep.inv_deg[v];
                }
            }
            self.ws.run_batch_into(&x, &mut y, w);
            // Dangling mass from the precomputed list — ascending, so each
            // member's f64 sum matches the full scan it replaces.
            dangling[..w].fill(0.0);
            if self.cfg.redistribute_dangling {
                for &v in &prep.dangling {
                    for (s, &r) in dangling.iter_mut().zip(&rank[v as usize * w..][..w]) {
                        *s += r as f64;
                    }
                }
            }
            delta[..w].fill(0.0);
            for ((rv, pv), yv) in
                rank.chunks_exact_mut(w).zip(p.chunks_exact(w)).zip(y.chunks_exact(w))
            {
                for b in 0..w {
                    let nv = (1.0 - d) * pv[b] + d * (yv[b] + (dangling[b] as f32) * pv[b]);
                    delta[b] += (nv - rv[b]).abs() as f64;
                    rv[b] = nv;
                }
            }
            let converged = |b: usize| self.cfg.tolerance.is_some_and(|tol| delta[b] < tol as f64);
            if (0..w).any(converged) {
                let keep: Vec<usize> = (0..w).filter(|&b| !converged(b)).collect();
                for b in (0..w).filter(|&b| converged(b)) {
                    results[live[b]] = Some(member_result(&rank, w, b, iter, true));
                }
                repack(&mut p, w, &keep);
                repack(&mut rank, w, &keep);
                live = keep.iter().map(|&b| live[b]).collect();
                w = keep.len();
                x.truncate(w * n);
                y.truncate(w * n);
            }
        }
        for (b, &member) in live.iter().enumerate() {
            results[member] = Some(member_result(&rank, w, b, self.cfg.iterations, false));
        }
        results.into_iter().map(|r| r.expect("every member finishes")).collect()
    }
}

/// Slot `b` of a `w`-wide interleaved rank batch, as a finished result.
fn member_result(
    rank: &[f32],
    w: usize,
    b: usize,
    iterations_run: usize,
    converged: bool,
) -> PersonalizedResult {
    PersonalizedResult {
        ranks: rank.iter().skip(b).step_by(w).copied().collect(),
        iterations_run,
        converged,
    }
}

/// Narrows a `w`-wide interleaved batch in place to the slots in `keep`
/// (ascending), in that order. Slot `j`'s new home `v*keep.len() + j` never
/// lies past the old one `v*w + keep[j]`, so a forward pass reads every
/// value before anything overwrites it.
fn repack(buf: &mut Vec<f32>, w: usize, keep: &[usize]) {
    let n = buf.len() / w;
    let nw = keep.len();
    for v in 0..n {
        for (j, &b) in keep.iter().enumerate() {
            buf[v * nw + j] = buf[v * w + b];
        }
    }
    buf.truncate(n * nw);
}

/// Runs personalized PageRank with an explicit preference distribution
/// (`teleport` must be non-negative; it is normalised internally).
///
/// One-shot wrapper over [`PprSolver`]: preprocesses once for the whole run
/// (not once per iteration, as this path historically did), solves, drops.
///
/// # Panics
/// Panics if `teleport` has the wrong length or sums to zero.
pub fn personalized_pagerank(
    g: &DiGraph,
    teleport: &[f32],
    cfg: &PersonalizedConfig,
) -> PersonalizedResult {
    validate_teleport(teleport, g.num_vertices());
    PprSolver::new(g, cfg).solve(teleport)
}

/// Convenience: personalization concentrated on a single seed vertex.
///
/// # Panics
/// Panics if `seed >= g.num_vertices()` — the seed is user input on the
/// serving path, which pre-validates via [`teleport_from_seeds`] instead.
pub fn personalized_from_seed(
    g: &DiGraph,
    seed: u32,
    cfg: &PersonalizedConfig,
) -> PersonalizedResult {
    let n = g.num_vertices();
    assert!(
        (seed as usize) < n,
        "personalization seed {seed} out of range: graph has {n} vertices"
    );
    let mut p = vec![0.0f32; n];
    p[seed as usize] = 1.0;
    personalized_pagerank(g, &p, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::PushOracle;
    use hipa_core::{reference_pagerank, DanglingPolicy, PageRankConfig};
    use hipa_graph::gen::{cycle, star};

    /// The vector-major batch solve this module used to run (members at
    /// `b*n..(b+1)*n`, frozen in place by an `active` mask) over the
    /// partition-centric push, kept as the oracle for the interleaved pull.
    impl PprSolver {
        fn solve_vector_major(
            &mut self,
            oracle: &mut PushOracle,
            teleports: &[&[f32]],
        ) -> Vec<PersonalizedResult> {
            let prep = Arc::clone(self.ws.prepared());
            let n = prep.num_vertices;
            let k = teleports.len();
            if k == 0 {
                return Vec::new();
            }
            // Normalise every preference vector (f64 mass, as the one-shot path
            // always did).
            let mut p = vec![0.0f32; k * n];
            for (b, t) in teleports.iter().enumerate() {
                validate_teleport(t, n);
                let mass: f64 = t.iter().map(|&x| x as f64).sum();
                for v in 0..n {
                    p[b * n + v] = (t[v] as f64 / mass) as f32;
                }
            }

            let d = self.cfg.damping;
            let mut rank = p.clone();
            let mut x = vec![0.0f32; k * n];
            let mut y = vec![0.0f32; k * n];
            let mut active = vec![true; k];
            let mut iters = vec![0usize; k];
            let mut conv = vec![false; k];
            for _ in 0..self.cfg.iterations {
                if !active.iter().any(|&a| a) {
                    break;
                }
                for b in 0..k {
                    if active[b] {
                        let base = b * n;
                        for v in 0..n {
                            x[base + v] = rank[base + v] * prep.inv_deg[v];
                        }
                    }
                }
                oracle.run_batch_vector_major(&x, &mut y, &active);
                for b in 0..k {
                    if !active[b] {
                        continue;
                    }
                    let base = b * n;
                    // Dangling mass from the precomputed list — ascending, so
                    // the f64 summation order matches the full-scan it replaces.
                    let dangling: f64 = if self.cfg.redistribute_dangling {
                        prep.dangling.iter().map(|&v| rank[base + v as usize] as f64).sum()
                    } else {
                        0.0
                    };
                    let mut delta = 0.0f64;
                    for v in 0..n {
                        let nv = (1.0 - d) * p[base + v]
                            + d * (y[base + v] + (dangling as f32) * p[base + v]);
                        delta += (nv - rank[base + v]).abs() as f64;
                        rank[base + v] = nv;
                    }
                    iters[b] += 1;
                    if let Some(tol) = self.cfg.tolerance {
                        if delta < tol as f64 {
                            conv[b] = true;
                            active[b] = false;
                        }
                    }
                }
            }
            (0..k)
                .map(|b| PersonalizedResult {
                    ranks: rank[b * n..(b + 1) * n].to_vec(),
                    iterations_run: iters[b],
                    converged: conv[b],
                })
                .collect()
        }
    }

    #[test]
    fn uniform_teleport_reduces_to_global_pagerank() {
        let g = hipa_graph::datasets::small_test_graph(130);
        let n = g.num_vertices();
        let uniform = vec![1.0f32; n];
        let res = personalized_pagerank(&g, &uniform, &PersonalizedConfig::default());
        assert!(res.converged);
        let oracle = reference_pagerank(
            &g,
            &PageRankConfig::default()
                .with_iterations(150)
                .with_dangling(DanglingPolicy::Redistribute),
        );
        for (v, (a, b)) in res.ranks.iter().zip(&oracle).enumerate() {
            assert!((*a as f64 - b).abs() < 1e-4, "v{v}: {a} vs {b}");
        }
    }

    #[test]
    fn mass_is_preserved() {
        let g = hipa_graph::datasets::small_test_graph(131);
        let res = personalized_from_seed(&g, 5, &PersonalizedConfig::default());
        let sum: f64 = res.ranks.iter().map(|&r| r as f64).sum();
        assert!((sum - 1.0).abs() < 1e-3, "sum {sum}");
    }

    #[test]
    fn seed_vertex_dominates_nearby() {
        // On a cycle, rank decays geometrically with distance from the seed.
        // Convergence rate is d^k, so give it headroom beyond 100 rounds.
        let g = DiGraph::from_edge_list(&cycle(32));
        let cfg = PersonalizedConfig { iterations: 300, ..Default::default() };
        let res = personalized_from_seed(&g, 0, &cfg);
        assert!(res.converged);
        assert!(res.ranks[0] > res.ranks[1]);
        assert!(res.ranks[1] > res.ranks[2]);
        assert!(res.ranks[2] > res.ranks[16]);
    }

    #[test]
    fn hub_seed_on_star() {
        let g = DiGraph::from_edge_list(&star(9));
        let res = personalized_from_seed(&g, 0, &PersonalizedConfig::default());
        // Seeding the hub: hub keeps the most mass; spokes all equal.
        assert!(res.ranks[0] > res.ranks[1]);
        for s in 2..9 {
            assert!((res.ranks[s] - res.ranks[1]).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "positive mass")]
    fn rejects_zero_teleport() {
        let g = DiGraph::from_edge_list(&cycle(4));
        personalized_pagerank(&g, &[0.0; 4], &PersonalizedConfig::default());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_seed() {
        let g = DiGraph::from_edge_list(&cycle(4));
        personalized_from_seed(&g, 4, &PersonalizedConfig::default());
    }

    #[test]
    fn teleport_from_seeds_validates() {
        assert!(teleport_from_seeds(4, &[]).is_err());
        assert!(teleport_from_seeds(4, &[0, 4]).unwrap_err().contains("out of range"));
        let p = teleport_from_seeds(4, &[1, 3, 3]).unwrap();
        assert_eq!(p, vec![0.0, 1.0, 0.0, 2.0]);
    }

    #[test]
    fn solver_reuse_is_bitwise_stable() {
        let g = hipa_graph::datasets::small_test_graph(132);
        let mut solver = PprSolver::new(&g, &PersonalizedConfig::default());
        let mut seed = vec![0.0f32; g.num_vertices()];
        seed[3] = 1.0;
        let a = solver.solve(&seed);
        let b = solver.solve(&seed);
        assert_eq!(a.ranks, b.ranks, "repeat solves on one solver must be bitwise equal");
        let one_shot = personalized_from_seed(&g, 3, &PersonalizedConfig::default());
        assert_eq!(a.ranks, one_shot.ranks, "solver equals the one-shot path");
        assert_eq!(a.iterations_run, one_shot.iterations_run);
    }

    #[test]
    fn batch_members_freeze_independently() {
        // A cycle seed converges slowly, the uniform vector fast; batching
        // them must not perturb either (bitwise vs solo).
        let g = hipa_graph::datasets::small_test_graph(133);
        let n = g.num_vertices();
        let cfg = PersonalizedConfig { iterations: 80, ..Default::default() };
        let mut solver = PprSolver::new(&g, &cfg);
        let teleports: Vec<Vec<f32>> = vec![
            teleport_from_seeds(n, &[0]).unwrap(),
            vec![1.0; n],
            teleport_from_seeds(n, &[1, 2, 3]).unwrap(),
        ];
        let batch = solver.solve_batch(&teleports);
        for (b, t) in teleports.iter().enumerate() {
            let solo = solver.solve(t);
            assert_eq!(batch[b].ranks, solo.ranks, "batch slot {b}");
            assert_eq!(batch[b].iterations_run, solo.iterations_run, "batch slot {b}");
            assert_eq!(batch[b].converged, solo.converged, "batch slot {b}");
        }
    }

    /// The integration corpus of `tests/serve.rs` (indices 0–4), then
    /// seeded random graphs; the last keeps multi-edges and self-loops.
    fn corpus_graph(i: usize, seed: u64) -> DiGraph {
        use hipa_graph::gen::{barabasi_albert, erdos_renyi, path};
        let edges = match i {
            0 => cycle(64),
            1 => star(40),
            2 => path(50),
            3 => return hipa_graph::datasets::small_test_graph(7),
            4 => erdos_renyi(300, 2400, 5),
            5 => {
                let n = 20 + (seed % 300) as usize;
                erdos_renyi(n, n * (1 + (seed % 8) as usize), seed)
            }
            6 => barabasi_albert(30 + (seed % 400) as usize, 1 + (seed % 4) as usize, seed),
            _ => {
                let n = 10 + (seed % 200) as u32;
                let pairs = (0..6 * n).map(|i| {
                    let h =
                        (i as u64 + 1).wrapping_mul(seed | 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    ((h >> 40) as u32 % n, (h >> 20) as u32 % (n / 3 + 1))
                });
                hipa_graph::EdgeList::new(n as usize, pairs.map(Into::into).collect())
            }
        };
        DiGraph::from_edge_list(&edges)
    }

    /// `w` preference vectors that freeze at staggered iterations: member
    /// 0 is uniform, the rest each seed one vertex (spread by `seed`). A
    /// seed's neighbourhood sets how fast its mass settles — a dangling
    /// seed in one sweep, a seed on a long cycle never — so the members
    /// meet the tolerance at different iterations or run to the cap.
    fn staggered_teleports(n: usize, w: usize, seed: u64) -> Vec<Vec<f32>> {
        (0..w)
            .map(|b| match b {
                0 => vec![1.0f32; n],
                _ => {
                    let hot = (seed as usize).wrapping_add(b * 7919) % n;
                    teleport_from_seeds(n, &[hot as u32]).unwrap()
                }
            })
            .collect()
    }

    /// Solves `teleports` on `g` three ways — interleaved batch, the
    /// vector-major push oracle, one solo solve each — and checks every
    /// result bit.
    fn assert_batch_matches_oracle_and_solo(
        g: &DiGraph,
        solver: &mut PprSolver,
        teleports: &[Vec<f32>],
    ) {
        let slices: Vec<&[f32]> = teleports.iter().map(|t| t.as_slice()).collect();
        let batch = solver.solve_batch(teleports);
        let mut push = PushOracle::new(g, solver.cfg.verts_per_partition);
        let oracle = solver.solve_vector_major(&mut push, &slices);
        for (b, t) in teleports.iter().enumerate() {
            let solo = solver.solve(t);
            for (name, want) in [("oracle", &oracle[b]), ("solo", &solo)] {
                let bits = |r: &PersonalizedResult| -> Vec<u32> {
                    r.ranks.iter().map(|x| x.to_bits()).collect()
                };
                assert_eq!(bits(&batch[b]), bits(want), "member {b} ranks vs {name}");
                assert_eq!(batch[b].iterations_run, want.iterations_run, "member {b} vs {name}");
                assert_eq!(batch[b].converged, want.converged, "member {b} vs {name}");
            }
        }
    }

    #[test]
    fn staggered_freezes_match_the_vector_major_oracle() {
        let g = hipa_graph::datasets::small_test_graph(134);
        let cfg = PersonalizedConfig {
            iterations: 14,
            threads: 3,
            verts_per_partition: 32,
            ..Default::default()
        };
        let mut solver = PprSolver::new(&g, &cfg);
        let teleports = staggered_teleports(g.num_vertices(), 8, 3);
        let batch = solver.solve_batch(&teleports);
        // The batch really re-packs several times and keeps members to the
        // cap: at least three distinct freeze points, both outcomes present.
        let mut freezes: Vec<usize> = batch.iter().map(|r| r.iterations_run).collect();
        freezes.sort_unstable();
        freezes.dedup();
        assert!(freezes.len() >= 3, "freeze points {freezes:?}");
        let runs: Vec<(usize, bool)> =
            batch.iter().map(|r| (r.iterations_run, r.converged)).collect();
        assert!(runs.iter().any(|r| r.1) && runs.iter().any(|r| !r.1), "{runs:?}");
        assert_batch_matches_oracle_and_solo(&g, &mut solver, &teleports);
    }

    #[test]
    fn empty_batch_solves_to_nothing() {
        let g = DiGraph::from_edge_list(&cycle(4));
        assert!(PprSolver::new(&g, &PersonalizedConfig::default()).solve_batch(&[]).is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The interleaved batch is bitwise the vector-major oracle and the
        /// solo solves, for every width, thread count, partition size and
        /// freeze pattern (tolerance or cap, dangling mass on or off).
        #[test]
        fn interleaved_batch_is_bitwise_the_oracle(
            graph in 0usize..8,
            seed in 0u64..10_000,
            wi in 0usize..7,
            threads in 1usize..4,
            vi in 0usize..5,
            cap in 1usize..60,
            ti in 0usize..3,
            redistribute in 0u8..2,
        ) {
            let g = corpus_graph(graph, seed);
            let cfg = PersonalizedConfig {
                iterations: cap,
                tolerance: Some([1e-3, 1e-5, 1e-7][ti]),
                redistribute_dangling: redistribute == 1,
                threads,
                verts_per_partition: [1, 7, 32, 256, 1 << 20][vi],
                ..Default::default()
            };
            let w = [1, 2, 3, 4, 8, 16, 33][wi];
            let mut solver = PprSolver::new(&g, &cfg);
            assert_batch_matches_oracle_and_solo(
                &g,
                &mut solver,
                &staggered_teleports(g.num_vertices(), w, seed),
            );
        }
    }
}
