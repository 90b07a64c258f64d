//! Criterion benches of the preprocessing structures: the hierarchical plan
//! (Eq. 2–4), the PCPM layout build (compression) and the CSR build.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hipa_core::PcpmLayout;
use hipa_partition::hipa_plan;
use std::time::Duration;

fn bench_layout(c: &mut Criterion) {
    let g = hipa_graph::datasets::small_test_graph(4);
    let mut group = c.benchmark_group("preprocessing");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    group.throughput(criterion::Throughput::Elements(g.num_edges() as u64));

    for vpp in [64usize, 256] {
        group.bench_with_input(BenchmarkId::new("pcpm_build", vpp), &vpp, |b, &vpp| {
            b.iter(|| PcpmLayout::build(g.out_csr(), vpp, false))
        });
    }
    group.bench_function("hipa_plan", |b| b.iter(|| hipa_plan(g.out_degrees(), 2, 8, 64)));
    group.bench_function("csr_build", |b| {
        let el = hipa_graph::gen::rmat(&hipa_graph::gen::RmatParams::graph500(10, 8), 3);
        b.iter(|| hipa_graph::Csr::from_edge_list(&el))
    });
    group.finish();
}

/// Sequential vs parallel PCPM layout build at several worker counts.
/// The graph is big enough (~50k vertices) that the default chunk
/// decomposition produces a dozen chunks per pass, so the parallel path is
/// genuinely exercised rather than degenerating to one chunk.
fn bench_parallel_build(c: &mut Criterion) {
    use hipa_graph::gen::{zipf_graph, ZipfParams};
    let g = hipa_graph::DiGraph::from_edge_list(&zipf_graph(
        &ZipfParams {
            num_vertices: 50_000,
            mean_degree: 12.0,
            locality: 0.3,
            block_size: 256,
            ..Default::default()
        },
        29,
    ));
    let csr = g.out_csr();
    let vpp = 512usize;
    let mut group = c.benchmark_group("parallel_build");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    group.throughput(criterion::Throughput::Elements(g.num_edges() as u64));
    group.bench_function("seq", |b| b.iter(|| PcpmLayout::build_seq_ext(csr, vpp, false, true)));
    for threads in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("par", threads), &threads, |b, &t| {
            b.iter(|| PcpmLayout::build_par_ext(csr, vpp, false, true, t))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_layout, bench_parallel_build);
criterion_main!(benches);
