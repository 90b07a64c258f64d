//! Sparse matrix–vector multiplication over the adjacency structure.
//!
//! The paper frames PageRank as iterated SpMV (§1) and names SpMV first in
//! its extension list. Here `y = Aᵀx` with `A` the (unweighted) adjacency
//! matrix: `y[v] = Σ_{u→v} x[u]` — exactly PageRank's propagation step
//! without damping — computed either directly from the in-CSR (reference)
//! or as a destination-owned pull over [`PcpmPrepared`]'s source lists,
//! which hold each destination's in-neighbours in the partition-centric
//! push order (intra sources ascending, then every other source ascending).
//!
//! [`SpmvWorkspace`] is the resident form: it builds the source lists, the
//! per-thread destination ranges and the worker pool **once** and runs many
//! sweeps (`run`), including multi-vector batches (`run_batch_into`) that
//! amortize one graph pass across a batch of input vectors. A batch is
//! vertex-interleaved — entry `v` of vector `b` sits at `v*w + b` — so each
//! source row is `w` contiguous values, summed in register-wide chunks of up
//! to 32 lanes, and a solo sweep is simply the width-1 case of the same
//! kernel. Every element is summed in
//! the push kernel's order, so neither batching nor the thread count nor
//! the pull itself changes a result bit; the push survives as the test-only
//! oracle below. Each sweep is one pool scope. The historical one-shot
//! entry point [`spmv_partition_centric`] is a thin wrapper that builds a
//! workspace, runs once, and drops it — bitwise-identical output.
//!
//! disjointness: destination ranges (`dst_ranges`) — each pool job writes
//! the `y` entries `v*w..(v+1)*w` of the destinations in its own contiguous
//! range `PcpmPrepared::thread_dsts[j]` and only reads `x`, so every output
//! element has a single writer job (= thread) per slice lifetime.

use hipa_core::disjoint::SharedSlice;
use hipa_core::PcpmPrepared;
use hipa_graph::DiGraph;
use std::ops::Range;
use std::sync::Arc;

/// Sequential reference: `y[v] = Σ_{u -> v} x[u]` via the in-CSR.
pub fn spmv_reference(g: &DiGraph, x: &[f32]) -> Vec<f32> {
    let n = g.num_vertices();
    assert_eq!(x.len(), n, "vector length mismatch");
    let mut y = vec![0.0f32; n];
    for v in 0..n as u32 {
        let mut acc = 0.0f32;
        for &u in g.in_csr().neighbors(v) {
            acc += x[u as usize];
        }
        y[v as usize] = acc;
    }
    y
}

/// A resident partition-centric SpMV engine: one preprocessed state
/// ([`PcpmPrepared`]: source lists + destination ranges + degree tables)
/// and one persistent worker pool. Build once, run many times — each
/// [`run`](Self::run) costs only the sweep itself, none of the
/// preprocessing the one-shot path used to repeat per call.
///
/// Accumulation order per element matches the partition-centric PageRank
/// push (intra contributions in source order, then inbox messages in
/// ascending slot order), per input vector independently, so every entry is
/// bitwise-deterministic for any thread count, any batch width, and
/// identical between the one-shot and resident paths.
pub struct SpmvWorkspace {
    prepared: Arc<PcpmPrepared>,
    /// Resident workers (`None` when a single worker runs the sweep inline).
    pool: Option<rayon::ThreadPool>,
}

impl SpmvWorkspace {
    /// Preprocesses `g` and spins up the resident pool. The expensive call —
    /// everything after it is sweep-only.
    pub fn new(g: &DiGraph, threads: usize, verts_per_partition: usize) -> Self {
        Self::from_prepared(Arc::new(PcpmPrepared::build(g, threads, verts_per_partition)))
    }

    /// Wraps an existing shared preprocessed state (the serve layer shares
    /// one `Arc<PcpmPrepared>` between the solver and its bookkeeping).
    pub fn from_prepared(prepared: Arc<PcpmPrepared>) -> Self {
        let pool = (prepared.threads > 1).then(|| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(prepared.threads)
                .build()
                .expect("pool build cannot fail")
        });
        SpmvWorkspace { prepared, pool }
    }

    /// The shared preprocessed state this workspace sweeps against.
    pub fn prepared(&self) -> &Arc<PcpmPrepared> {
        &self.prepared
    }

    /// One SpMV: `y = Aᵀx`.
    pub fn run(&mut self, x: &[f32]) -> Vec<f32> {
        let n = self.prepared.num_vertices;
        assert_eq!(x.len(), n, "vector length mismatch");
        let mut y = vec![0.0f32; n];
        // A width-1 interleaved batch is the plain vector.
        self.run_batch_into(x, &mut y, 1);
        y
    }

    /// Batched SpMV over `width` vertex-interleaved vectors: `xs[v*width + b]`
    /// is entry `v` of input vector `b`, and `ys` is laid out the same way.
    /// One graph pass serves the whole batch: each destination sums its
    /// sources' `width`-value rows into a local accumulator and stores it
    /// once, so `ys` needs no clearing and `width == 1` is the solo sweep.
    /// Each vector's output is bitwise identical to a solo [`run`](Self::run)
    /// on the same input.
    pub fn run_batch_into(&mut self, xs: &[f32], ys: &mut [f32], width: usize) {
        let n = self.prepared.num_vertices;
        assert_eq!(xs.len(), width * n, "input batch length mismatch");
        assert_eq!(ys.len(), width * n, "output batch length mismatch");
        if n == 0 || width == 0 {
            return;
        }
        let prep = &*self.prepared;
        let y_s = SharedSlice::new(ys);
        // The widest power-of-two chunk, up to 32 lanes, that fits the row.
        let pull = |dsts: Range<usize>| match width {
            1 => pull_rows::<1>(prep, xs, &y_s, dsts, 1),
            2..=3 => pull_rows::<2>(prep, xs, &y_s, dsts, width),
            4..=7 => pull_rows::<4>(prep, xs, &y_s, dsts, width),
            8..=15 => pull_rows::<8>(prep, xs, &y_s, dsts, width),
            16..=31 => pull_rows::<16>(prep, xs, &y_s, dsts, width),
            _ => pull_rows::<32>(prep, xs, &y_s, dsts, width),
        };
        match &self.pool {
            Some(pool) => pool.scope(|s| {
                for dsts in prep.thread_dsts.iter().cloned() {
                    let pull = &pull;
                    s.spawn(move |_| pull(dsts));
                }
            }),
            None => prep.thread_dsts.iter().cloned().for_each(pull),
        }
    }
}

/// The pull for one destination range at batch width `w >= C`. Each
/// destination walks its source list once per `C`-lane chunk of its row,
/// summing the chunk into a register accumulator in list order and storing
/// it once. When `C` does not divide `w`, the last chunk ends at the row's
/// end and overlaps its predecessor: the shared lanes are summed again in
/// the same order, to the same bits, by the same job. Lanes never mix, so
/// the chunking changes no result bit.
fn pull_rows<const C: usize>(
    prep: &PcpmPrepared,
    xs: &[f32],
    y_s: &SharedSlice<'_, f32>,
    dsts: Range<usize>,
    w: usize,
) {
    // One-lane chunks serve only the solo sweep: a constant stride there.
    let w = if C == 1 { 1 } else { w };
    let chunks = w.div_ceil(C);
    for v in dsts {
        let srcs = prep.sources_of(v);
        for k in 0..chunks {
            let lane = (k * C).min(w - C);
            let mut acc = [0.0f32; C];
            for &s in srcs {
                let row: &[f32; C] = xs[s as usize * w + lane..][..C].try_into().expect("C lanes");
                for (a, &x) in acc.iter_mut().zip(row) {
                    *a += x;
                }
            }
            for (b, &a) in acc.iter().enumerate() {
                // SAFETY: `v` lies in this job's own destination range.
                unsafe { y_s.write(v * w + lane + b, a) };
            }
        }
    }
}

/// Partition-centric SpMV: each of `threads` workers pulls its own
/// destination range's sources in the push order of `verts_per_partition`-
/// vertex partitions (HiPa §3.2–3.4's summation, destination-owned).
///
/// One-shot wrapper over [`SpmvWorkspace`]: builds the full preprocessed
/// state, sweeps once, drops it. Prefer a workspace for anything iterative.
pub fn spmv_partition_centric(
    g: &DiGraph,
    x: &[f32],
    threads: usize,
    verts_per_partition: usize,
) -> Vec<f32> {
    let n = g.num_vertices();
    assert_eq!(x.len(), n, "vector length mismatch");
    if n == 0 {
        return Vec::new();
    }
    SpmvWorkspace::new(g, threads, verts_per_partition).run(x)
}

/// The partition-centric push this module used to run — scatter intra
/// contributions and PNG message slots, then gather each inbox — in its
/// vector-major batch form (vector `b` at `b*n..(b+1)*n`, an `active` mask
/// per vector), kept as the oracle the pull kernel is checked against bit
/// for bit. It walks every partition in order on the calling thread: a
/// push's per-element summation order never depended on the owner map.
#[cfg(test)]
pub(crate) struct PushOracle {
    layout: hipa_core::PcpmLayout,
    vals: Vec<f32>,
}

#[cfg(test)]
impl PushOracle {
    pub(crate) fn new(g: &DiGraph, verts_per_partition: usize) -> Self {
        let layout = hipa_core::PcpmLayout::build(g.out_csr(), verts_per_partition.max(1), false);
        PushOracle { layout, vals: Vec::new() }
    }

    pub(crate) fn run_batch_vector_major(&mut self, xs: &[f32], ys: &mut [f32], active: &[bool]) {
        let layout = &self.layout;
        let n = layout.num_vertices;
        let k = active.len();
        assert_eq!(xs.len(), k * n, "input batch length mismatch");
        assert_eq!(ys.len(), k * n, "output batch length mismatch");
        if n == 0 || !active.iter().any(|&a| a) {
            return;
        }
        for b in 0..k {
            if active[b] {
                ys[b * n..(b + 1) * n].fill(0.0);
            }
        }
        let tm = layout.total_msgs as usize;
        self.vals.resize(k * tm, 0.0);

        // Phase 1 — scatter: intra-edges apply directly into `ys`;
        // inter-edges write their compressed message slots.
        for p in 0..layout.num_partitions {
            let vr = layout.partition_vertices(p);
            for v in vr.start as usize..vr.end as usize {
                for &dst in layout.intra_of(v as u32) {
                    for b in 0..k {
                        if active[b] {
                            ys[b * n + dst as usize] += xs[b * n + v];
                        }
                    }
                }
            }
            for pair in layout.png_of(p) {
                for (i, &src) in layout.png_sources(pair).iter().enumerate() {
                    let slot = pair.slot_start as usize + i;
                    for b in 0..k {
                        if active[b] {
                            self.vals[b * tm + slot] = xs[b * n + src as usize];
                        }
                    }
                }
            }
        }

        // Phase 2 — gather: each partition streams its inbox and
        // accumulates into its own `ys` entries.
        for q in 0..layout.num_partitions {
            for slot in layout.part_slot_ranges[q].clone() {
                let base = slot as usize;
                for &dst in layout.dests_of(slot) {
                    for b in 0..k {
                        if active[b] {
                            ys[b * n + dst as usize] += self.vals[b * tm + base];
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipa_graph::gen::{cycle, star};
    use hipa_graph::EdgeList;

    fn close(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= 1e-5 * x.abs().max(1.0))
    }

    #[test]
    fn spmv_cycle_rotates() {
        let g = DiGraph::from_edge_list(&cycle(5));
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        // y[v] = x[v-1 mod 5]
        let y = spmv_reference(&g, &x);
        assert_eq!(y, vec![5.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn spmv_star_sums_spokes() {
        let g = DiGraph::from_edge_list(&star(4));
        let x = vec![10.0, 1.0, 2.0, 3.0];
        let y = spmv_reference(&g, &x);
        assert_eq!(y[0], 6.0);
        assert_eq!(&y[1..], &[10.0, 10.0, 10.0]);
    }

    #[test]
    fn partition_centric_matches_reference() {
        let g = hipa_graph::datasets::small_test_graph(80);
        let x: Vec<f32> = (0..g.num_vertices()).map(|i| (i % 7) as f32 * 0.25 + 0.1).collect();
        let want = spmv_reference(&g, &x);
        for (threads, vpp) in [(1, 64), (3, 64), (4, 301), (8, 4096)] {
            let got = spmv_partition_centric(&g, &x, threads, vpp);
            assert!(close(&got, &want), "threads={threads} vpp={vpp}");
        }
    }

    #[test]
    fn partition_centric_deterministic_across_threads() {
        let g = hipa_graph::datasets::small_test_graph(81);
        let x: Vec<f32> = (0..g.num_vertices()).map(|i| 1.0 / (i + 1) as f32).collect();
        let a = spmv_partition_centric(&g, &x, 1, 128);
        let b = spmv_partition_centric(&g, &x, 6, 128);
        assert_eq!(a, b, "bitwise determinism across thread counts");
    }

    #[test]
    fn workspace_reuse_is_bitwise_stable() {
        let g = hipa_graph::datasets::small_test_graph(82);
        let x: Vec<f32> = (0..g.num_vertices()).map(|i| ((i * 13) % 11) as f32 * 0.5).collect();
        let one_shot = spmv_partition_centric(&g, &x, 4, 128);
        let mut ws = SpmvWorkspace::new(&g, 4, 128);
        for round in 0..3 {
            assert_eq!(ws.run(&x), one_shot, "round {round}");
        }
    }

    #[test]
    fn interleaved_sweep_equals_solo_runs() {
        let g = hipa_graph::datasets::small_test_graph(84);
        let n = g.num_vertices();
        let mut ws = SpmvWorkspace::new(&g, 2, 128);
        for w in [1usize, 3, 8] {
            let xs: Vec<f32> = (0..w * n).map(|i| ((i * 7) % 13) as f32 * 0.25).collect();
            let mut ys = vec![-1.0f32; w * n];
            ws.run_batch_into(&xs, &mut ys, w);
            for b in 0..w {
                let x: Vec<f32> = xs.iter().skip(b).step_by(w).copied().collect();
                let y: Vec<f32> = ys.iter().skip(b).step_by(w).copied().collect();
                assert_eq!(y, ws.run(&x), "width {w}, vector {b}");
            }
        }
    }

    #[test]
    fn interleaved_sweep_matches_vector_major_oracle() {
        // A dataset graph, and one with multi-edges and self-loops (which
        // the dataset simplifies away).
        let mut pairs: Vec<_> = (0..400u32).map(|i| ((i * 37) % 90, (i * i + 3) % 90)).collect();
        pairs.extend([(5, 5), (5, 5), (89, 0)]);
        let multi = EdgeList::from_pairs(pairs);
        for g in [hipa_graph::datasets::small_test_graph(85), DiGraph::from_edge_list(&multi)] {
            let n = g.num_vertices();
            for vpp in [1, 7, 32, 256, 1 << 20] {
                let mut oracle = PushOracle::new(&g, vpp);
                for (threads, w) in (1..=3).flat_map(|t| [1, 2, 3, 4, 8, 16, 33].map(|w| (t, w))) {
                    let mut ws = SpmvWorkspace::new(&g, threads, vpp);
                    // Non-dyadic values, so any change in summation order shows.
                    let major: Vec<f32> =
                        (0..w * n).map(|i| 1.0 / (1 + (i * 11) % 17) as f32).collect();
                    let mut want = vec![0.0f32; w * n];
                    oracle.run_batch_vector_major(&major, &mut want, &vec![true; w]);
                    let inter: Vec<f32> = (0..w * n).map(|i| major[(i % w) * n + i / w]).collect();
                    let mut got = vec![0.0f32; w * n];
                    ws.run_batch_into(&inter, &mut got, w);
                    for i in 0..w * n {
                        assert_eq!(
                            got[i].to_bits(),
                            want[(i % w) * n + i / w].to_bits(),
                            "t={threads} vpp={vpp} w={w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = DiGraph::from_edge_list(&EdgeList::new(0, vec![]));
        assert!(spmv_partition_centric(&g, &[], 4, 16).is_empty());
        let g = DiGraph::from_edge_list(&EdgeList::new(3, vec![]));
        assert_eq!(spmv_partition_centric(&g, &[1.0, 2.0, 3.0], 2, 16), vec![0.0; 3]);
    }
}
