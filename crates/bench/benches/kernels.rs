//! Criterion benches for the hot-kernel pass (DESIGN.md §12): native
//! scatter/gather with software prefetch on vs off, and the cost of the
//! frequency sub-clustering relabel itself. On the development host (2
//! vCPUs shared with other jobs) the prefetch delta is within noise — the
//! `kernels` harness bin's simulated A/B is the authoritative measurement;
//! this bench exists to keep the prefetched code paths exercised and
//! regression-tracked.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hipa_core::{Engine, NativeOpts, PageRankConfig, ReorderStrategy};
use std::time::Duration;

fn bench_prefetch_ab(c: &mut Criterion) {
    let g = hipa_graph::datasets::Dataset::Journal.build();
    let cfg = PageRankConfig::default().with_iterations(5);
    let mut group = c.benchmark_group("native_prefetch");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    group.throughput(criterion::Throughput::Elements((g.num_edges() * cfg.iterations) as u64));
    for prefetch in [false, true] {
        let label = if prefetch { "on" } else { "off" };
        group.bench_with_input(BenchmarkId::from_parameter(label), &prefetch, |b, &p| {
            // Partition above NATIVE_L2_BYTES so the adaptive gate arms the
            // hints; at paper-tuned sizes the A/B is a no-op by design.
            let opts = NativeOpts::new(2, 2 << 20).with_prefetch(p);
            b.iter(|| hipa_core::HiPa.run_native(&g, &cfg, &opts).ranks)
        });
    }
    group.finish();
}

fn bench_reorder_prepare(c: &mut Criterion) {
    let g = hipa_graph::datasets::Dataset::Journal.build();
    let mut group = c.benchmark_group("reorder_prepare");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    for strat in [ReorderStrategy::DegreeDesc, ReorderStrategy::FrequencyClusters] {
        group.bench_with_input(BenchmarkId::from_parameter(strat.name()), &strat, |b, &s| {
            b.iter(|| hipa_core::preorder::prepare(&g, s, 4096).graph.num_edges())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_prefetch_ab, bench_reorder_prepare);
criterion_main!(benches);
