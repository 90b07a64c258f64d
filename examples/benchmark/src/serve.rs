//! The serving side: set-up of the resident server, the open-loop load
//! window against it, the checks on every response, the edge commits timed
//! on the idle server, and the per-layer probes of the server and of the
//! `algos` calls it is built from.

use crate::load::{self, class_of, Class, Schedule, CLASSES};
use crate::report::Report;
use crate::stats::{median, percentile, supported_percentile};
use hipa::algos::{pagerank_delta, teleport_from_seeds, PprSolver};
use hipa::core::PcpmPrepared;
use hipa::graph::{DiGraph, EdgeList};
use hipa::serve::{Request, Response, ServeConfig, Server};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// `k` of every top-k and personalized request (the loadgen default).
const K: usize = 10;
/// A run whose generator was later, at the 99th percentile, than this share
/// of the mean gap between arrivals did not offer the arrival process it
/// claims, and fails. Lateness never hides server time, since every latency
/// runs from the due time; the limit only keeps the arrivals Poisson. On a
/// busy two-core host the p99 reaches 11 ms (a fifth of a gap at 17 req/s).
const MAX_LATENESS_P99_GAP_SHARE: f64 = 0.5;
/// Personalized answers re-solved per checked epoch.
const CHECKED_PPR_PER_EPOCH: usize = 2;
/// Single-edge commits timed on the idle server after the window.
const COMMIT_PROBES: usize = 9;
/// Top-k and personalized requests timed on the idle server (traced pass).
const READ_PROBES: usize = 9;

/// The server configuration under test: two sweep threads, defaults
/// otherwise.
pub fn config() -> ServeConfig {
    ServeConfig { threads: 2, ..ServeConfig::default() }
}

/// Starts a server on `edges` and waits for its first top-k answer, which
/// proves the resident state is built. Returns the server and the seconds
/// that took.
pub fn start(edges: EdgeList) -> (Server, f64) {
    let t = Instant::now();
    let server = Server::start(edges, config());
    let ready = matches!(server.call(Request::TopK { k: 1 }), Response::TopK { .. });
    assert!(ready, "a fresh server must answer top-k");
    (server, t.elapsed().as_secs_f64())
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One call on the idle server: its milliseconds and response.
fn timed_call(server: &Server, req: Request) -> (f64, Response) {
    let t = Instant::now();
    let resp = server.call(req);
    (ms_since(t), resp)
}

/// Latency samples of one class's answered (non-error) requests.
fn latencies(run: &load::LoadRun, schedule: &Schedule, class: Class) -> Vec<f64> {
    run.outcomes
        .iter()
        .zip(&schedule.requests)
        .filter(|(o, r)| class_of(r) == class && !matches!(o.response, Response::Error { .. }))
        .map(|(o, _)| o.latency_ms)
        .collect()
}

/// Sends `schedule` to `server` (whose initial graph is `edges0`), checks
/// every response, and times single-edge commits on the idle server.
/// Reports the end-to-end latencies, or with `traced` the per-layer serve,
/// loadgen and algos metrics.
pub fn run(
    server: &Server,
    edges0: &EdgeList,
    schedule: &Schedule,
    seed: u64,
    traced: bool,
    report: &mut Report,
) {
    let n = edges0.num_vertices();
    let run = load::run(server, schedule);
    let window_s = schedule.window.as_secs_f64();
    let lateness: Vec<f64> = run.outcomes.iter().map(|o| o.lateness_ms).collect();
    let late_p99 = percentile(&lateness, 99.0);
    eprintln!(
        "serve: {} requests in {window_s:.1}s, generator lateness p99 {late_p99:.3} ms",
        schedule.requests.len(),
    );
    let mean_gap_ms = window_s * 1e3 / schedule.requests.len().max(1) as f64;
    let max_late_ms = MAX_LATENESS_P99_GAP_SHARE * mean_gap_ms;
    report.op(late_p99 <= max_late_ms, || {
        format!("load generator ran late: p99 {late_p99:.3} ms > {max_late_ms:.3} ms")
    });
    check(schedule, &run, edges0, seed, report);
    let lat: Vec<Vec<f64>> = CLASSES.iter().map(|&(c, _)| latencies(&run, schedule, c)).collect();
    for ((_, name), xs) in CLASSES.iter().zip(&lat).filter(|(_, xs)| !xs.is_empty()) {
        let tail = supported_percentile(xs.len())
            .filter(|&q| q > 50.0)
            .map(|q| format!(", p{q} {:.2} ms", percentile(xs, q)))
            .unwrap_or_default();
        eprintln!("serve: {name}: {} answered, p50 {:.2} ms{tail}", xs.len(), percentile(xs, 50.0));
    }

    // The server's counters before the probes below add to them. The
    // set-up's readiness request was one drain of its own.
    let stats = server.stats();
    let drains = stats.queue_depth.count().saturating_sub(1);
    let (depth_p50, depth_max) = (stats.queue_depth.quantile(0.5), stats.queue_depth.max());
    let (ppr_batches, ppr_sources) = (stats.ppr_batches.get(), stats.ppr_batched_sources.get());
    let epochs = stats.epochs.get();

    let mut commit_ms = Vec::with_capacity(COMMIT_PROBES);
    for i in 1..=COMMIT_PROBES {
        let edge = ((i * 7919 % n) as u32, (i * 104_729 % n) as u32);
        let (ms, resp) = timed_call(server, Request::AddEdges { edges: vec![edge] });
        report.op(matches!(resp, Response::EdgesCommitted { accepted: 1, .. }), || {
            format!("commit probe got {resp:?}")
        });
        commit_ms.push(ms);
    }
    let commit_ms = median(&commit_ms);

    if !traced {
        report.put("latency_ms_p50.topk", percentile(&lat[0], 50.0), "ms");
        report.put("latency_ms_p50.personalized", percentile(&lat[1], 50.0), "ms");
        report.put("edge_commit_ms", commit_ms, "ms");
        return;
    }

    report.put("loadgen.offered_rps", schedule.requests.len() as f64 / window_s, "1/s");
    for (class, name) in CLASSES {
        let count = schedule.requests.iter().filter(|r| class_of(r) == class).count();
        report.put(format!("loadgen.requests.{name}"), count as f64, "count");
    }
    report.put("loadgen.lateness_ms_p99", late_p99, "ms");
    report.put("loadgen.lateness_ms_max", lateness.iter().copied().fold(0.0, f64::max), "ms");
    report.put("loadgen.drain_ms", run.drain_ms, "ms");

    report.put("serve.queue_depth_p50", depth_p50 as f64, "count");
    report.put("serve.queue_depth_max", depth_max as f64, "count");
    report.put("serve.drains", drains as f64, "count");
    report.put(
        "serve.ppr_batch_width_mean",
        ppr_sources as f64 / ppr_batches.max(1) as f64,
        "count",
    );
    report.put("serve.epochs", epochs as f64, "count");
    let committed: usize = schedule
        .requests
        .iter()
        .zip(&run.outcomes)
        .filter_map(|(req, o)| match (req, &o.response) {
            (Request::AddEdges { edges }, Response::EdgesCommitted { .. }) => Some(edges.len()),
            _ => None,
        })
        .sum();
    report.put("serve.edges_committed", committed as f64, "count");

    // Service times: single calls on the now idle server. The personalized
    // probes replay every few of the window's valid requests, whose sweep
    // counts vary from 1 to 30.
    let mut topk_ms = Vec::with_capacity(READ_PROBES);
    for _ in 0..READ_PROBES {
        let (ms, resp) = timed_call(server, Request::TopK { k: K });
        report.op(matches!(resp, Response::TopK { .. }), || format!("top-k probe got {resp:?}"));
        topk_ms.push(ms);
    }
    let valid_ppr: Vec<&Request> = schedule
        .requests
        .iter()
        .zip(&run.outcomes)
        .filter(|(_, o)| matches!(o.response, Response::Ppr { .. }))
        .map(|(r, _)| r)
        .collect();
    let stride = valid_ppr.len().div_ceil(READ_PROBES).max(1);
    let (mut ppr_ms, mut ppr_sweeps) = (Vec::new(), 0);
    for req in valid_ppr.into_iter().step_by(stride) {
        let (ms, resp) = timed_call(server, req.clone());
        let sweeps = match resp {
            Response::Ppr { iterations, .. } => Some(iterations),
            _ => None,
        };
        report.op(sweeps.is_some(), || format!("personalized replay got {resp:?}"));
        ppr_ms.push(ms);
        ppr_sweeps += sweeps.unwrap_or(0);
    }
    let svc = [median(&topk_ms), median(&ppr_ms), commit_ms];
    for (((_, name), xs), svc_ms) in CLASSES.iter().zip(&lat).zip(svc) {
        report.put(format!("serve.service_ms.{name}"), svc_ms, "ms");
        if *name != "edges" {
            report.put(
                format!("serve.queue_wait_ms_p50.{name}"),
                percentile(xs, 50.0) - svc_ms,
                "ms",
            );
        }
    }
    // Busy share of the scheduler, estimated from idle service times: every
    // answered top-k at its median cost, every personalized answer at its
    // own sweep count times the probes' mean time per sweep, every epoch at
    // a commit's cost. Batched sweeps cost less per source, so with batches
    // wider than one this overestimates.
    let ms_per_sweep = ppr_ms.iter().sum::<f64>() / ppr_sweeps.max(1) as f64;
    let busy_ms: f64 = run
        .outcomes
        .iter()
        .map(|o| match o.response {
            Response::TopK { .. } => svc[0],
            Response::Ppr { iterations, .. } => iterations as f64 * ms_per_sweep,
            _ => 0.0,
        })
        .sum::<f64>()
        + epochs as f64 * commit_ms;
    report.put("serve.busy_frac", busy_ms / (window_s * 1e3), "ratio");
    // The one tail with ten or more samples beyond it on both workloads;
    // their 40 and 60 personalized requests support no percentile above p50.
    report.put("serve.latency_ms_p95.topk", percentile(&lat[0], 95.0), "ms");

    algos_probes(edges0, seed, report);
}

/// Times the `algos` and `core` calls the server is built from, on its
/// initial graph: layout build, batched personalized solves, PageRank-Delta
/// and top-k extraction.
fn algos_probes(edges0: &EdgeList, seed: u64, report: &mut Report) {
    let cfg = config();
    let g = DiGraph::from_edge_list(edges0);
    let n = g.num_vertices() as u32;
    let timed = |f: &mut dyn FnMut(), reps: usize| {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                f();
                ms_since(t)
            })
            .collect();
        median(&samples)
    };
    let mut prepared = None;
    let build_ms = timed(
        &mut || prepared = Some(PcpmPrepared::build(&g, cfg.threads, cfg.verts_per_partition)),
        3,
    );
    report.put("algos.prepared_build_ms", build_ms, "ms");
    let mut solver = PprSolver::from_prepared(Arc::new(prepared.expect("built")), &cfg.ppr);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xa160);
    let teleports: Vec<Vec<f32>> = (0..32)
        .map(|_| teleport_from_seeds(n as usize, &[rng.gen_range(0..n)]).expect("valid seed"))
        .collect();
    // Solo solves of the first eight sources, then those eight and all 32
    // as one batch each: a batch costs one graph sweep per iteration.
    let mut next = teleports[..8].iter().cycle();
    let solo_ms = timed(&mut || drop(solver.solve(next.next().expect("cycle"))), 8);
    report.put("algos.ppr_ms.b1", solo_ms, "ms");
    for width in [8, 32] {
        let ms = timed(&mut || drop(solver.solve_batch(&teleports[..width])), 1);
        report.put(format!("algos.ppr_ms.b{width}"), ms, "ms");
    }
    let mut ranks = Vec::new();
    let prdelta_ms = timed(&mut || ranks = pagerank_delta(&g, &cfg.delta).ranks, 3);
    report.put("algos.prdelta_ms", prdelta_ms, "ms");
    report.put("serve.topk_extract_ms", timed(&mut || drop(hipa::top_k(&ranks, K)), 9), "ms");
}

/// Checks every response of the window:
/// - its class matches the request's;
/// - it is an error exactly when a personalized seed is out of range;
/// - top-k entries are `k` distinct in-range vertices in descending rank;
/// - edge commits advance the epoch in submit order;
/// - at up to three epochs that reads saw (the first, the last and one
///   drawn from the seed), top-k answers equal `hipa::top_k` of a
///   fresh PageRank-Delta on that epoch's graph, and personalized answers
///   equal a solo solve on a fresh layout.
fn check(
    schedule: &Schedule,
    run: &load::LoadRun,
    edges0: &EdgeList,
    seed: u64,
    report: &mut Report,
) {
    let n = edges0.num_vertices();
    let mut commits: Vec<(u64, usize)> = Vec::new();
    let mut read_epochs = BTreeSet::new();
    let mut ok = Vec::with_capacity(schedule.requests.len());
    for (i, (req, o)) in schedule.requests.iter().zip(&run.outcomes).enumerate() {
        ok.push(match (req, &o.response) {
            (Request::TopK { k }, Response::TopK { entries, epoch }) => {
                read_epochs.insert(*epoch);
                let mut ids: Vec<u32> = entries.iter().map(|e| e.0).collect();
                let sorted = entries.windows(2).all(|w| w[0].1 >= w[1].1);
                ids.sort_unstable();
                ids.dedup();
                sorted && ids.len() == *k && ids.iter().all(|&v| (v as usize) < n)
            }
            (Request::Ppr { sources, .. }, Response::Ppr { epoch, .. }) => {
                read_epochs.insert(*epoch);
                sources.iter().all(|&s| (s as usize) < n)
            }
            (Request::Ppr { sources, .. }, Response::Error { .. }) => {
                sources.iter().any(|&s| s as usize >= n)
            }
            (Request::AddEdges { edges }, Response::EdgesCommitted { accepted, epoch }) => {
                commits.push((*epoch, i));
                *accepted == edges.len()
            }
            _ => false,
        });
    }
    let in_order = commits.first().is_none_or(|c| c.0 == 1)
        && commits.windows(2).all(|w| w[1].0 == w[0].0 || w[1].0 == w[0].0 + 1);
    report.op(in_order, || "edge commits did not advance the epoch in submit order".to_string());

    let epochs: Vec<u64> = read_epochs.into_iter().collect();
    let mut chosen = BTreeSet::new();
    if let (Some(&first), Some(&last)) = (epochs.first(), epochs.last()) {
        chosen.insert(first);
        chosen.insert(last);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xc4ec);
        chosen.insert(epochs[rng.gen_range(0..epochs.len())]);
    }
    let cfg = config();
    for &epoch in &chosen {
        let mut edges = edges0.clone();
        for &(e, i) in &commits {
            if let (true, Request::AddEdges { edges: add }) = (e <= epoch, &schedule.requests[i]) {
                for &(s, d) in add {
                    edges.push(s, d);
                }
            }
        }
        let g = DiGraph::from_edge_list(&edges);
        let ranks = pagerank_delta(&g, &cfg.delta).ranks;
        let mut solver = None;
        let mut ppr_checked = 0;
        for (i, (req, o)) in schedule.requests.iter().zip(&run.outcomes).enumerate() {
            let same = match (req, &o.response) {
                (Request::TopK { k }, Response::TopK { entries, epoch: e }) if *e == epoch => {
                    *entries == hipa::top_k(&ranks, *k)
                }
                (Request::Ppr { sources, k }, Response::Ppr { top, iterations, epoch: e, .. })
                    if *e == epoch && ppr_checked < CHECKED_PPR_PER_EPOCH =>
                {
                    ppr_checked += 1;
                    let solver = solver.get_or_insert_with(|| {
                        let prepared =
                            PcpmPrepared::build(&g, cfg.threads, cfg.verts_per_partition);
                        PprSolver::from_prepared(Arc::new(prepared), &cfg.ppr)
                    });
                    let teleport = teleport_from_seeds(n, sources).expect("valid sources");
                    let want = solver.solve(&teleport);
                    *top == hipa::top_k(&want.ranks, *k) && *iterations == want.iterations_run
                }
                _ => continue,
            };
            if !same {
                eprintln!("request {i} at epoch {epoch}: answer differs from a fresh solve");
                ok[i] = false;
            }
        }
    }
    for (i, (req, o)) in schedule.requests.iter().zip(&run.outcomes).enumerate() {
        report.op(ok[i], || format!("request {i} {req:?} got {:?}", o.response));
    }
}
