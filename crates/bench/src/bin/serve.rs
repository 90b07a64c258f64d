//! Serve census: batch amortization proof + seeded open-loop load run.
//!
//! ```text
//! cargo run --release -p hipa-bench --bin serve -- [--fast] [--csv]
//!          [--graph NAME] [--batch K] [--users N] [--requests N] [--seed S]
//!          [--threads N] [--json-out FILE]
//! ```
//!
//! Part 1 (amortization): solves the same `K >= 8` single-seed personalized
//! PageRank queries three ways — the pre-fix shape (`personalized_from_seed`
//! per query, one layout build *each*), a resident [`PprSolver`] advancing
//! all K vectors through one multi-vector sweep per iteration (one layout
//! build total), and the full [`Server`] batch path — timing each and
//! reading the process-wide [`layout_builds_total`] counter before/after, so
//! the "K builds vs exactly 1" claim is a measured counter delta, not an
//! assertion. Batch results are checked bitwise against the naive runs.
//!
//! Part 2 (sweep cost): the wall time per sweep of a resident solve at
//! batch widths 1 and 8, the median of several solves with no tolerance,
//! so every sweep runs at full width.
//!
//! Part 3 (load): a seeded open-loop load run against a fresh server;
//! throughput, p50/p95/p99 latency per request class, the server's own
//! per-sweep histogram (`serve.ppr.sweep`), and queue-depth gauges are
//! exported into a `RunTrace` (written with `--json-out`).

use hipa_algos::{personalized_from_seed, teleport_from_seeds, PersonalizedConfig, PprSolver};
use hipa_bench::BinArgs;
use hipa_core::layout_builds_total;
use hipa_graph::datasets::Dataset;
use hipa_obs::{Recorder, RunTrace, TraceMeta, PATH_NATIVE};
use hipa_report::Table;
use hipa_serve::{run_load, LoadConfig, Request, Response, SamplerConfig, ServeConfig, Server};
use std::time::{Duration, Instant};

fn flag_value(argv: &[String], flag: &str) -> Option<String> {
    argv.iter()
        .position(|a| a == flag)
        .map(|i| argv.get(i + 1).unwrap_or_else(|| panic!("{flag} needs a value")).clone())
}

fn flag_usize(argv: &[String], flag: &str, default: usize) -> usize {
    flag_value(argv, flag)
        .map(|v| v.parse().unwrap_or_else(|e| panic!("{flag}: {e}")))
        .unwrap_or(default)
}

fn top1(ranks: &[f32]) -> u32 {
    let mut best = 0u32;
    for v in 1..ranks.len() as u32 {
        if ranks[v as usize] > ranks[best as usize] {
            best = v;
        }
    }
    best
}

fn ms(ns: u128) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

fn main() {
    let args = BinArgs::parse();
    let argv: Vec<String> = std::env::args().collect();
    let ds = match flag_value(&argv, "--graph").as_deref() {
        None => {
            if args.fast {
                Dataset::Wiki
            } else {
                Dataset::Journal
            }
        }
        Some(name) => *Dataset::ALL
            .iter()
            .find(|d| d.name() == name)
            .unwrap_or_else(|| panic!("unknown dataset '{name}'")),
    };
    let threads = flag_usize(&argv, "--threads", if args.fast { 2 } else { 4 });
    let k = flag_usize(&argv, "--batch", if args.fast { 8 } else { 16 }).max(8);
    let seed = flag_usize(&argv, "--seed", 42) as u64;
    let vpp = 16 * 1024;

    let g = ds.build();
    let n = g.num_vertices();
    let pcfg = PersonalizedConfig {
        iterations: if args.fast { 20 } else { 50 },
        threads,
        verts_per_partition: vpp,
        ..Default::default()
    };
    // K seed vertices spread across the id range, deterministic in `seed`.
    let seeds: Vec<u32> =
        (0..k).map(|i| ((i * n) / k) as u32 + (seed % (n / k).max(1) as u64) as u32).collect();

    // --- Part 1: amortization census ------------------------------------
    // Naive pre-fix shape: every query pays its own layout build.
    let b0 = layout_builds_total();
    let t0 = Instant::now();
    let naive: Vec<_> = seeds.iter().map(|&s| personalized_from_seed(&g, s, &pcfg)).collect();
    let naive_ns = t0.elapsed().as_nanos();
    let naive_builds = layout_builds_total() - b0;

    // Resident solver: one build, one multi-vector sweep per iteration.
    let teleports: Vec<Vec<f32>> =
        seeds.iter().map(|&s| teleport_from_seeds(n, &[s]).expect("valid seed")).collect();
    let b1 = layout_builds_total();
    let t1 = Instant::now();
    let mut solver = PprSolver::new(&g, &pcfg);
    let batch = solver.solve_batch(&teleports);
    let batch_ns = t1.elapsed().as_nanos();
    let batch_builds = layout_builds_total() - b1;

    for (i, (res, want)) in batch.iter().zip(&naive).enumerate() {
        assert_eq!(
            res.ranks, want.ranks,
            "batch member {i} (seed {}) diverged from its solo solve",
            seeds[i]
        );
        assert_eq!(res.iterations_run, want.iterations_run);
    }

    // Full server path: start (one build + the *global* delta ranks, which
    // the naive path never computes — priced separately) then serve the K
    // queries as one admission batch against the resident state.
    let b2 = layout_builds_total();
    let t2 = Instant::now();
    let server = Server::start(
        ds.edge_list(),
        ServeConfig {
            threads,
            verts_per_partition: vpp,
            batch_max: k,
            ppr: pcfg.clone(),
            ..Default::default()
        },
    );
    // First response proves the resident state (incl. global ranks) is up.
    assert!(matches!(server.call(Request::TopK { k: 1 }), Response::TopK { .. }));
    let start_ns = t2.elapsed().as_nanos();
    let t3 = Instant::now();
    let tickets: Vec<_> =
        seeds.iter().map(|&s| server.submit(Request::Ppr { sources: vec![s], k: 10 })).collect();
    let responses: Vec<Response> = tickets.into_iter().map(|t| t.wait()).collect();
    let serve_ns = t3.elapsed().as_nanos();
    let serve_builds = layout_builds_total() - b2;
    for (i, resp) in responses.iter().enumerate() {
        match resp {
            Response::Ppr { top, iterations, .. } => {
                assert_eq!(top[0].0, top1(&naive[i].ranks), "server top-1 mismatch for seed {i}");
                assert_eq!(*iterations, naive[i].iterations_run);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    let batches_run = server.stats().ppr_batches.get();

    let mut census = Table::new(
        &format!(
            "Serve census on {}: {k} single-seed PPR queries ({} iters, {threads} threads)",
            ds.name(),
            pcfg.iterations
        ),
        &["path", "wall ms", "layout builds", "speedup"],
    );
    for (name, ns, builds) in [
        ("naive (k one-shot solves)", naive_ns, Some(naive_builds)),
        ("resident solver, 1 batch", batch_ns, Some(batch_builds)),
        ("server start (global ranks)", start_ns, None),
        ("server k-query batch", serve_ns, Some(serve_builds)),
    ] {
        census.row(vec![
            name.to_string(),
            ms(ns),
            builds.map(|b| b.to_string()).unwrap_or_else(|| "(with below)".into()),
            format!("{:.2}x", naive_ns as f64 / ns as f64),
        ]);
    }
    census.print();
    println!(
        "amortization: {k} sources through {batches_run} batched sweep(s); \
         layout builds {naive_builds} -> {batch_builds} (server start+batch: {serve_builds})"
    );
    assert_eq!(naive_builds, k as u64, "naive path must rebuild per query");
    assert_eq!(batch_builds, 1, "resident solver must build exactly once");
    assert_eq!(serve_builds, 1, "server must build exactly once for start + the whole batch");
    drop(server);

    // --- Part 2: resident sweep cost -------------------------------------
    let sweeps = if args.fast { 10 } else { 20 };
    let rounds = if args.fast { 3 } else { 7 };
    let fixed = PersonalizedConfig { iterations: sweeps, tolerance: None, ..pcfg.clone() };
    let mut solver = PprSolver::new(&g, &fixed);
    let mut sweep_ns = Vec::new();
    let mut per_sweep = Table::new(
        &format!(
            "Resident solve on {}: ms per sweep ({sweeps} sweeps, no tolerance, median of \
             {rounds} solves, {threads} threads)",
            ds.name()
        ),
        &["width", "ms/sweep", "min", "max"],
    );
    for width in [1usize, 8] {
        let batch = &teleports[..width];
        let mut ns: Vec<u128> = (0..rounds)
            .map(|_| {
                let t = Instant::now();
                let res = solver.solve_batch(batch);
                let elapsed = t.elapsed().as_nanos();
                assert!(res.iter().all(|r| r.iterations_run == sweeps));
                elapsed / sweeps as u128
            })
            .collect();
        ns.sort_unstable();
        let median = ns[rounds / 2];
        per_sweep.row(vec![width.to_string(), ms(median), ms(ns[0]), ms(ns[rounds - 1])]);
        sweep_ns.push((width, median));
    }
    per_sweep.print();
    drop(solver);

    // --- Part 3: seeded open-loop load ----------------------------------
    let users = flag_usize(&argv, "--users", if args.fast { 4 } else { 8 });
    let requests = flag_usize(&argv, "--requests", if args.fast { 16 } else { 64 });
    let server = Server::start(
        ds.edge_list(),
        ServeConfig {
            threads,
            verts_per_partition: vpp,
            batch_max: 32,
            ppr: pcfg.clone(),
            // Live health sampler: ticks through the load window so the
            // exported trace carries a `sampler.*` trajectory too.
            sampler: Some(SamplerConfig {
                interval: Duration::from_millis(10),
                capacity: 512,
                expo_path: None,
            }),
            ..Default::default()
        },
    );
    let lcfg = LoadConfig {
        users,
        requests_per_user: requests,
        seed,
        mean_gap_ns: if args.fast { 50_000 } else { 200_000 },
        ..Default::default()
    };
    let report = run_load(&server, &lcfg);
    let stats = server.stats();

    let mut load = Table::new(
        &format!(
            "Open-loop load on {}: {users} users x {requests} reqs, seed {seed}, \
             mix {:?}, {:.0} req/s",
            ds.name(),
            lcfg.mix,
            report.throughput_rps
        ),
        &["class", "served", "p50 us", "p95 us", "p99 us", "max us"],
    );
    for (name, served, h) in [
        ("topk", stats.topk_served.get(), &stats.topk_latency),
        ("ppr", stats.ppr_served.get(), &stats.ppr_latency),
        ("edges", stats.edges_served.get(), &stats.edges_latency),
    ] {
        let q = |p: f64| {
            if h.is_empty() {
                "-".to_string()
            } else {
                format!("{:.0}", h.quantile(p) as f64 / 1e3)
            }
        };
        load.row(vec![
            name.to_string(),
            served.to_string(),
            q(0.50),
            q(0.95),
            q(0.99),
            if h.is_empty() { "-".into() } else { format!("{:.0}", h.max() as f64 / 1e3) },
        ]);
    }
    load.print();
    if !stats.ppr_sweep.is_empty() {
        println!(
            "server ppr sweep (serve.ppr.sweep, per batch solve): p50 {} ms  max {} ms",
            ms(stats.ppr_sweep.quantile(0.50) as u128),
            ms(stats.ppr_sweep.max() as u128)
        );
    }
    println!(
        "errors: {}  epochs: {}  ppr batches: {} ({} sources)  queue depth max: {}",
        stats.errors.get(),
        stats.epochs.get(),
        stats.ppr_batches.get(),
        stats.ppr_batched_sources.get(),
        stats.queue_depth.max()
    );
    let frames = stats.frames();
    if let Some(last) = frames.last() {
        println!(
            "sampler: {} frame(s); last tick depth {} p99 {:.0}us {} req/s",
            frames.len(),
            last.queue_depth,
            last.latency_p99_ns as f64 / 1e3,
            last.throughput_rps
        );
    }
    if args.csv {
        print!("{}", census.to_csv());
        print!("{}", per_sweep.to_csv());
        print!("{}", load.to_csv());
    }

    // Trace export: census counters + the full serve namespace.
    let rec = Recorder::new(true);
    rec.set_counter("serve.census.k", k as u64);
    rec.set_counter("serve.census.naive_ns", naive_ns as u64);
    rec.set_counter("serve.census.batch_ns", batch_ns as u64);
    rec.set_counter("serve.census.server_start_ns", start_ns as u64);
    rec.set_counter("serve.census.server_ns", serve_ns as u64);
    rec.set_counter("serve.census.naive_layout_builds", naive_builds);
    rec.set_counter("serve.census.batch_layout_builds", batch_builds);
    rec.set_counter("serve.census.server_layout_builds", serve_builds);
    for (width, ns) in sweep_ns {
        rec.set_counter(&format!("serve.census.sweep_w{width}_ns"), ns as u64);
    }
    stats.export_into(&rec, report.wall);
    let trace = rec
        .finish(TraceMeta {
            engine: "hipa-serve".into(),
            path: PATH_NATIVE,
            machine: None,
            vertices: n as u64,
            edges: g.num_edges() as u64,
            threads: threads as u64,
            partitions: Some(n.div_ceil(vpp) as u64),
            iterations_run: report.completed,
            converged: true,
        })
        .expect("recorder enabled");
    if let Some(path) = flag_value(&argv, "--json-out") {
        let json = RunTrace::array_to_json(std::slice::from_ref(&trace)) + "\n";
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote serve trace to {path}");
    }
}
