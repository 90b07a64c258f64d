//! Criterion benches of the five native engines (the real-thread paths) on
//! a small scale-free graph. Absolute wall-clock numbers on the development
//! host (2 vCPUs shared with other jobs) do not reproduce the paper — the
//! simulated harness bins do — and on this 1,024-vertex graph a 2-thread
//! HiPa solve reads slower than a 1-thread one (thread start and barriers
//! outweigh five short iterations), but these benches track regressions in
//! the engines' real code paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hipa_baselines::all_engines;
use hipa_core::{Engine, NativeOpts, PageRankConfig};
use std::time::Duration;

fn bench_engines(c: &mut Criterion) {
    let g = hipa_graph::datasets::small_test_graph(1);
    let cfg = PageRankConfig::default().with_iterations(5);
    let opts = NativeOpts::new(2, 1024);
    let mut group = c.benchmark_group("native_pagerank");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    group.throughput(criterion::Throughput::Elements((g.num_edges() * cfg.iterations) as u64));
    for e in all_engines() {
        group.bench_function(BenchmarkId::from_parameter(e.name()), |b| {
            b.iter(|| e.run_native(&g, &cfg, &opts).ranks)
        });
    }
    group.finish();
}

fn bench_thread_scaling(c: &mut Criterion) {
    let g = hipa_graph::datasets::small_test_graph(2);
    let cfg = PageRankConfig::default().with_iterations(5);
    let mut group = c.benchmark_group("hipa_native_threads");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            let opts = NativeOpts::new(t, 1024);
            b.iter(|| hipa_core::HiPa.run_native(&g, &cfg, &opts).ranks)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_thread_scaling);
criterion_main!(benches);
