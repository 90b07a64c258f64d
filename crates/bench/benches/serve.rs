//! Criterion benches of the serving hot path: what the `SpmvWorkspace`
//! bugfix actually buys per call (one-shot layout rebuild vs resident
//! reuse), the per-query cost of batched multi-vector PPR as the batch
//! widens — the amortization curve behind `--bin serve`'s census — and one
//! edge commit on an idle server. CI runs these with `--test` (bodies
//! once), so they double as a smoke test of the resident-reuse entry points
//! and of the commit path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hipa_algos::{teleport_from_seeds, PersonalizedConfig, PprSolver, SpmvWorkspace};
use hipa_graph::{datasets::small_test_graph, DiGraph};
use hipa_serve::{edge_list_of, Request, Response, ServeConfig, Server};
use std::time::Duration;

const THREADS: usize = 2;
const VPP: usize = 256;

fn graph() -> DiGraph {
    small_test_graph(77)
}

/// One SpMV through the one-shot wrapper (rebuilds source lists, ranges and
/// pool every call — the pre-fix hot path) vs a resident workspace.
fn bench_spmv_residency(c: &mut Criterion) {
    let g = graph();
    let n = g.num_vertices();
    let x: Vec<f32> = (0..n).map(|v| 1.0 + (v % 7) as f32).collect();
    let mut group = c.benchmark_group("serve_spmv_residency");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    group.bench_function("one_shot_rebuild", |b| {
        b.iter(|| hipa_algos::spmv_partition_centric(&g, &x, THREADS, VPP))
    });
    let mut ws = SpmvWorkspace::new(&g, THREADS, VPP);
    group.bench_function("resident_workspace", |b| b.iter(|| ws.run(&x)));
    group.finish();
}

/// Per-query cost of a k-wide PPR batch: one multi-vector sweep serves all
/// k source sets, so time/k should fall as k grows.
fn bench_ppr_batch_width(c: &mut Criterion) {
    let g = graph();
    let n = g.num_vertices();
    let cfg = PersonalizedConfig {
        iterations: 10,
        threads: THREADS,
        verts_per_partition: VPP,
        ..Default::default()
    };
    let mut group = c.benchmark_group("serve_ppr_batch_width");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    let mut solver = PprSolver::new(&g, &cfg);
    for k in [1usize, 4, 16, 32] {
        let teleports: Vec<Vec<f32>> =
            (0..k).map(|i| teleport_from_seeds(n, &[((i * n) / k) as u32]).unwrap()).collect();
        group.bench_with_input(BenchmarkId::new("batch", k), &k, |b, _| {
            b.iter(|| solver.solve_batch(&teleports))
        });
    }
    group.finish();
}

/// One single-edge commit on an idle server: merge the edge into the CSR,
/// re-rank with a cold PageRank-Delta, sort the rank order, publish. Each
/// call adds a different edge, so every commit makes a new epoch.
fn bench_edge_commit(c: &mut Criterion) {
    let g = graph();
    let n = g.num_vertices();
    let cfg = ServeConfig { threads: THREADS, verts_per_partition: VPP, ..Default::default() };
    let server = Server::start(edge_list_of(&g), cfg);
    let mut group = c.benchmark_group("serve_edge_commit");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    let mut i = 0usize;
    group.bench_function("one_edge", |b| {
        b.iter(|| {
            i += 1;
            let edge = ((i * 7919 % n) as u32, (i * 104_729 % n) as u32);
            let resp = server.call(Request::AddEdges { edges: vec![edge] });
            assert!(matches!(resp, Response::EdgesCommitted { accepted: 1, .. }), "{resp:?}");
        })
    });
    group.finish();
}

criterion_group!(benches, bench_spmv_residency, bench_ppr_batch_width, bench_edge_commit);
criterion_main!(benches);
