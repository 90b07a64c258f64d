//! Sparse matrix–vector multiplication over the adjacency structure.
//!
//! The paper frames PageRank as iterated SpMV (§1) and names SpMV first in
//! its extension list. Here `y = Aᵀx` with `A` the (unweighted) adjacency
//! matrix: `y[v] = Σ_{u→v} x[u]` — exactly PageRank's propagation step
//! without damping — computed either directly from the in-CSR (reference)
//! or with the partition-centric compressed scatter/gather layout plus
//! per-thread partition ownership (HiPa methodology).
//!
//! [`SpmvWorkspace`] is the resident form: it builds the layout, the
//! `hipa_plan` ownership map and the worker pool **once** and runs many
//! sweeps (`run`), including multi-vector batches (`run_batch_into`) that
//! amortize one graph pass across a batch of input vectors. A batch is
//! vertex-interleaved — entry `v` of vector `b` sits at `v*w + b`, message
//! slots likewise at `slot*w + b` — so each intra-edge and each gathered
//! destination moves `w` contiguous values in one plain loop, and a solo
//! sweep is simply the width-1 case of the same kernel. Every element is
//! still summed in the solo order (intra contributions in source order,
//! then inbox slots ascending), so batching never changes a result bit.
//! The historical one-shot entry point [`spmv_partition_centric`] is a thin
//! wrapper that builds a workspace, runs once, and drops it —
//! bitwise-identical output.
//!
//! disjointness: HiPa plan (`hipa_plan`) — each scatter job writes the PNG
//! message slots sourced from its own partitions plus the `y` entries of its
//! own partitions (intra-edges stay inside the source partition), and each
//! gather job writes the `y` entries of its own partitions; the two phases
//! are separated by a pool-scope join and each phase wraps its outputs in a
//! fresh `SharedSlice`, so every element has a single writer job (= thread)
//! per slice lifetime.

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
/// ([`PcpmPrepared`]: layout + plan + degree tables), one persistent worker
/// pool, and a reusable message-slot scratch buffer. Build once, run many
/// times — each [`run`](Self::run) costs only the sweep itself, none of the
/// preprocessing the one-shot path used to repeat per call.
///
/// Accumulation order per element matches the PageRank engines (intra
/// contributions in source order during scatter, then inbox messages in
/// ascending slot order during gather), per input vector independently, so
/// every entry is bitwise-deterministic for any thread count, any batch
/// width, and identical between the one-shot and resident paths.
pub struct SpmvWorkspace {
    prepared: Arc<PcpmPrepared>,
    /// Resident workers (`None` when a single worker runs the sweep inline).
    pool: Option<rayon::ThreadPool>,
    /// Message-slot values, `total_msgs × width` interleaved (`vals[slot*w +
    /// b]`), reused across runs.
    vals: Vec<f32>,
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
        SpmvWorkspace { prepared, pool, vals: Vec::new() }
    }

    /// The shared preprocessed state this workspace sweeps against.
    pub fn prepared(&self) -> &Arc<PcpmPrepared> {
        &self.prepared
    }

    pub fn num_vertices(&self) -> usize {
        self.prepared.num_vertices
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
    /// One graph pass serves the whole batch; every edge moves `width`
    /// contiguous values, so the inner loop is a plain add with no per-vector
    /// bookkeeping, and `width == 1` is the solo sweep. Each vector's output
    /// is bitwise identical to a solo [`run`](Self::run) on the same input.
    pub fn run_batch_into(&mut self, xs: &[f32], ys: &mut [f32], width: usize) {
        let n = self.prepared.num_vertices;
        assert_eq!(xs.len(), width * n, "input batch length mismatch");
        assert_eq!(ys.len(), width * n, "output batch length mismatch");
        if n == 0 || width == 0 {
            return;
        }
        ys.fill(0.0);

        let prep = &*self.prepared;
        let layout = &prep.layout;
        let w = width;
        self.vals.resize(w * layout.total_msgs as usize, 0.0);

        // Phase 1 — scatter: intra-edges apply directly into the owner's own
        // partitions of `ys`; inter-edges write their compressed message
        // slots (`vals[slot*w + b]`). The pool-scope join is the barrier.
        {
            let y_s = SharedSlice::new(ys);
            let vals_s = SharedSlice::new(&mut self.vals);
            let scatter_part = |my: Range<usize>| {
                for p in my {
                    let vr = layout.partition_vertices(p);
                    for v in vr.start as usize..vr.end as usize {
                        let xv = &xs[v * w..][..w];
                        for &dst in layout.intra_of(v as u32) {
                            let base = dst as usize * w;
                            for (b, &xb) in xv.iter().enumerate() {
                                // SAFETY: intra destinations stay in this
                                // job's own partitions.
                                unsafe { y_s.update(base + b, |a| *a += xb) };
                            }
                        }
                    }
                    for pair in layout.png_of(p) {
                        for (i, &src) in layout.png_sources(pair).iter().enumerate() {
                            let base = (pair.slot_start as usize + i) * w;
                            for (b, &xb) in xs[src as usize * w..][..w].iter().enumerate() {
                                // SAFETY: one writer per slot — slots are
                                // sourced from exactly one partition.
                                unsafe { vals_s.write(base + b, xb) };
                            }
                        }
                    }
                }
            };
            on_owners(&self.pool, &prep.thread_parts, &scatter_part);
        }

        // Phase 2 — gather: each owner streams its partitions' inboxes
        // (read-only now) and accumulates into its own `ys` entries.
        {
            let y_s = SharedSlice::new(ys);
            let vals: &[f32] = &self.vals;
            let gather_part = |my: Range<usize>| {
                for q in my {
                    for slot in layout.part_slot_ranges[q].clone() {
                        let msg = &vals[slot as usize * w..][..w];
                        for &dst in layout.dests_of(slot) {
                            let base = dst as usize * w;
                            for (b, &m) in msg.iter().enumerate() {
                                // SAFETY: destinations lie in q, owned by
                                // this job alone.
                                unsafe { y_s.update(base + b, |a| *a += m) };
                            }
                        }
                    }
                }
            };
            on_owners(&self.pool, &prep.thread_parts, &gather_part);
        }
    }

    /// Convenience batch form: one input vector per element, outputs in the
    /// same order.
    pub fn run_batch(&mut self, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let n = self.prepared.num_vertices;
        let k = xs.len();
        let mut flat_x = vec![0.0f32; k * n];
        for (b, x) in xs.iter().enumerate() {
            assert_eq!(x.len(), n, "vector length mismatch in batch slot {b}");
            for (v, &xv) in x.iter().enumerate() {
                flat_x[v * k + b] = xv;
            }
        }
        let mut flat_y = vec![0.0f32; k * n];
        self.run_batch_into(&flat_x, &mut flat_y, k);
        (0..k).map(|b| flat_y.iter().skip(b).step_by(k).copied().collect()).collect()
    }
}

/// Runs `job` once per `hipa_plan` owner range: one pool job per range, or
/// inline in owner order without a pool. Returns after every job (the pool
/// scope's join is the phase barrier).
fn on_owners(
    pool: &Option<rayon::ThreadPool>,
    parts: &[Range<usize>],
    job: &(dyn Fn(Range<usize>) + Sync),
) {
    match pool {
        Some(pool) => pool.scope(|s| {
            for my in parts.iter().cloned() {
                s.spawn(move |_| job(my));
            }
        }),
        None => parts.iter().cloned().for_each(job),
    }
}

/// Partition-centric SpMV: scatter `x` through the compressed message bins,
/// gather per destination partition, with `threads` workers owning disjoint
/// partition groups (one-to-many, as in HiPa §3.2).
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

/// The vector-major batch sweep this module used to run (vector `b` at
/// `b*n..(b+1)*n`, an `active` mask per vector), kept verbatim as the
/// oracle the interleaved kernel is checked against bit for bit.
#[cfg(test)]
impl SpmvWorkspace {
    pub(crate) fn run_batch_vector_major(&mut self, xs: &[f32], ys: &mut [f32], active: &[bool]) {
        let n = self.prepared.num_vertices;
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

        let prep = &*self.prepared;
        let layout = &prep.layout;
        let tm = layout.total_msgs as usize;
        self.vals.resize(k * tm, 0.0);

        // Phase 1 — scatter: intra-edges apply directly into the owner's own
        // partitions of `ys`; inter-edges write their compressed message
        // slots. The pool-scope join is the barrier.
        {
            let y_s = SharedSlice::new(ys);
            let vals_s = SharedSlice::new(&mut self.vals);
            let scatter_part = |my: Range<usize>| {
                for p in my {
                    let vr = layout.partition_vertices(p);
                    for v in vr.start as usize..vr.end as usize {
                        for &dst in layout.intra_of(v as u32) {
                            for b in 0..k {
                                if active[b] {
                                    // SAFETY: intra destinations stay in
                                    // this job's own partitions.
                                    unsafe {
                                        y_s.update(b * n + dst as usize, |a| *a += xs[b * n + v])
                                    };
                                }
                            }
                        }
                    }
                    for pair in layout.png_of(p) {
                        for (i, &src) in layout.png_sources(pair).iter().enumerate() {
                            let slot = pair.slot_start as usize + i;
                            for b in 0..k {
                                if active[b] {
                                    // SAFETY: one writer per slot — slots
                                    // are sourced from exactly one
                                    // partition.
                                    unsafe {
                                        vals_s.write(b * tm + slot, xs[b * n + src as usize])
                                    };
                                }
                            }
                        }
                    }
                }
            };
            match &self.pool {
                Some(pool) => pool.scope(|s| {
                    for my in prep.thread_parts.iter().cloned() {
                        let f = &scatter_part;
                        s.spawn(move |_| f(my));
                    }
                }),
                None => {
                    for my in prep.thread_parts.iter().cloned() {
                        scatter_part(my);
                    }
                }
            }
        }

        // Phase 2 — gather: each owner streams its partitions' inboxes
        // (read-only now) and accumulates into its own `ys` entries.
        {
            let y_s = SharedSlice::new(ys);
            let vals: &[f32] = &self.vals;
            let gather_part = |my: Range<usize>| {
                for q in my {
                    for slot in layout.part_slot_ranges[q].clone() {
                        let base = slot as usize;
                        for &dst in layout.dests_of(slot) {
                            for b in 0..k {
                                if active[b] {
                                    // SAFETY: destinations lie in q, owned
                                    // by this job alone.
                                    unsafe {
                                        y_s.update(b * n + dst as usize, |a| {
                                            *a += vals[b * tm + base]
                                        })
                                    };
                                }
                            }
                        }
                    }
                }
            };
            match &self.pool {
                Some(pool) => pool.scope(|s| {
                    for my in prep.thread_parts.iter().cloned() {
                        let f = &gather_part;
                        s.spawn(move |_| f(my));
                    }
                }),
                None => {
                    for my in prep.thread_parts.iter().cloned() {
                        gather_part(my);
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
    fn batch_matches_solo_runs_bitwise() {
        let g = hipa_graph::datasets::small_test_graph(83);
        let n = g.num_vertices();
        let xs: Vec<Vec<f32>> = (0..5)
            .map(|b| (0..n).map(|i| ((i * (b + 2) + b) % 9) as f32 * 0.125).collect())
            .collect();
        let mut ws = SpmvWorkspace::new(&g, 3, 256);
        let batch = ws.run_batch(&xs);
        for (b, x) in xs.iter().enumerate() {
            assert_eq!(batch[b], ws.run(x), "batch slot {b}");
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
        let g = hipa_graph::datasets::small_test_graph(85);
        let n = g.num_vertices();
        for (threads, vpp, w) in [(1, 7, 2), (2, 32, 5), (3, 256, 33)] {
            let mut ws = SpmvWorkspace::new(&g, threads, vpp);
            // Non-dyadic values, so any change in summation order shows.
            let major: Vec<f32> = (0..w * n).map(|i| 1.0 / (1 + (i * 11) % 17) as f32).collect();
            let mut want = vec![0.0f32; w * n];
            ws.run_batch_vector_major(&major, &mut want, &vec![true; w]);
            let inter: Vec<f32> = (0..w * n).map(|i| major[(i % w) * n + i / w]).collect();
            let mut got = vec![0.0f32; w * n];
            ws.run_batch_into(&inter, &mut got, w);
            for i in 0..w * n {
                assert_eq!(
                    got[i].to_bits(),
                    want[(i % w) * n + i / w].to_bits(),
                    "t={threads} w={w}"
                );
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
