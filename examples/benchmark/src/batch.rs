//! The batch side: one simulated Table-2 row (five engines, paper thread
//! counts and partition sizes, cache-scaled Skylake), then native solves to
//! tolerance until the window closes: HiPa alone end to end, or in the
//! traced pass rounds of all five engines in an order the seed permutes.

use crate::report::Report;
use crate::stats::{median, percentile};
use hipa::core::reference::{max_rel_error, reference_pagerank};
use hipa::core::{NativeOpts, PageRankConfig, SimOpts, SimRun};
use hipa::graph::DiGraph;
use hipa::obs::{RunTrace, RUN_LEVEL};
use hipa_bench::{paper_methods, scaled_partition, skylake, Method};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Native worker threads; the benchmark is sized for a two-core machine.
const THREADS: usize = 2;
/// L1 stopping rule and iteration cap of the native solves.
const TOLERANCE: f32 = 1e-5;
const CAP: usize = 100;
/// Iterations of the simulated row (the cost of a simulated iteration is
/// about a third of a second per engine on wiki).
const SIM_ITERATIONS: usize = 3;
/// Oracle agreement required of every engine, as in `tests/engines_agree.rs`.
const ORACLE_TOLERANCE: f64 = 5e-3;
/// Fewest native rounds a run makes, however short its window.
const MIN_ROUNDS: usize = 3;

/// The phases whose slowest-thread time each engine's native trace reports.
const PHASES: [(&str, &[&str]); 5] = [
    ("hipa", &["scatter", "gather"]),
    ("p-pr", &["scatter", "gather"]),
    ("v-pr", &["pull"]),
    ("gpop", &["scatter", "gather"]),
    ("polymer", &["contribute", "replicate", "pull"]),
];

/// Engine key used in metric names: the paper's label, lower-cased.
fn key(m: &Method) -> String {
    m.name().to_ascii_lowercase()
}

/// One way of running an engine natively in a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Variant {
    /// Two threads, tracing off: the end-to-end solve.
    Plain,
    /// Two threads, tracing on.
    Traced,
    /// One thread, tracing off: the base of the 2-thread speedup.
    OneThread,
}

#[derive(Default)]
struct EngineSamples {
    wall_ms: BTreeMap<Variant, Vec<f64>>,
    preprocess_ms: Vec<f64>,
    iter_ms: Vec<f64>,
    phase_ms: BTreeMap<&'static str, Vec<f64>>,
    pool_jobs: Vec<f64>,
    pool_parks: Vec<f64>,
    iterations: usize,
    ranks: Option<Vec<f32>>,
    last_trace: Option<RunTrace>,
}

/// Mean over iterations of the slowest thread's time in `phase`, in ms.
fn slowest_thread_ms(trace: &RunTrace, phase: &str) -> Option<f64> {
    let mut per_iter: BTreeMap<i64, f64> = BTreeMap::new();
    for s in &trace.spans {
        if s.phase == phase && s.thread != RUN_LEVEL && s.iter != RUN_LEVEL {
            let slot = per_iter.entry(s.iter).or_insert(0.0);
            *slot = slot.max(s.value);
        }
    }
    (!per_iter.is_empty()).then(|| per_iter.values().sum::<f64>() / per_iter.len() as f64 / 1e6)
}

/// The 10th percentile of a run's solve times. On a machine shared with
/// other tenants the median moves with their load from run to run; the fast
/// tail moves far less.
fn p10(xs: &[f64]) -> f64 {
    percentile(xs, 10.0)
}

/// Runs the batch side on `g` for `window` and reports its end-to-end
/// metrics, or with `traced` its per-layer metrics (appending the engines'
/// own traces to `traces`).
pub fn run(
    g: &DiGraph,
    seed: u64,
    window: Duration,
    traced: bool,
    report: &mut Report,
    traces: &mut Vec<RunTrace>,
) {
    let deadline = Instant::now() + window;
    let methods = paper_methods();
    let cfg = PageRankConfig::default().with_iterations(CAP).with_tolerance(TOLERANCE);

    // Simulated row first: fixed work, so the native rounds fill the rest.
    let sim_cfg = PageRankConfig::default().with_iterations(SIM_ITERATIONS);
    let mut sim: Vec<(SimRun, f64)> = Vec::new();
    for m in &methods {
        let opts = SimOpts::new(skylake())
            .with_threads(m.threads)
            .with_partition_bytes(scaled_partition(m.partition_paper_bytes))
            .with_trace(traced);
        let t = Instant::now();
        let run = m.engine.run_sim(g, &sim_cfg, &opts);
        sim.push((run, t.elapsed().as_secs_f64()));
    }

    // End to end only HiPa, the engine under study, solves natively; the
    // traced pass runs all five engines three ways each.
    let hipa = methods.iter().position(|m| key(m) == "hipa").expect("HiPa is a paper method");
    let (mut order, variants): (Vec<usize>, &[Variant]) = if traced {
        ((0..methods.len()).collect(), &[Variant::Plain, Variant::Traced, Variant::OneThread])
    } else {
        (vec![hipa], &[Variant::Plain])
    };
    let mut samples: Vec<EngineSamples> =
        methods.iter().map(|_| EngineSamples::default()).collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xba7c_0de5);
    let mut round = 0;
    while round < MIN_ROUNDS || Instant::now() < deadline {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for &e in &order {
            let m = &methods[e];
            let s = &mut samples[e];
            for &variant in variants {
                let threads = if variant == Variant::OneThread { 1 } else { THREADS };
                let opts = NativeOpts::new(threads, m.partition_paper_bytes)
                    .with_trace(variant == Variant::Traced);
                let t = Instant::now();
                let run = m.engine.run_native(g, &cfg, &opts);
                let wall_ms = t.elapsed().as_secs_f64() * 1e3;
                s.wall_ms.entry(variant).or_default().push(wall_ms);
                let same = match &s.ranks {
                    None => {
                        s.iterations = run.iterations_run;
                        s.ranks = Some(run.ranks);
                        true
                    }
                    Some(first) => *first == run.ranks && s.iterations == run.iterations_run,
                };
                report.op(same && run.converged, || {
                    format!(
                        "{} ({variant:?}, round {round}): ranks differ from round 0 or the solve \
                         did not converge",
                        m.name()
                    )
                });
                if let Some(trace) = run.trace {
                    s.preprocess_ms.push(run.preprocess.as_secs_f64() * 1e3);
                    s.iter_ms.push(run.compute.as_secs_f64() * 1e3 / s.iterations.max(1) as f64);
                    for phase in PHASES.iter().find(|(k, _)| *k == key(m)).map_or(&[][..], |p| p.1)
                    {
                        if let Some(ms) = slowest_thread_ms(&trace, phase) {
                            s.phase_ms.entry(phase).or_default().push(ms);
                        }
                    }
                    s.pool_jobs.push(trace.counter("pool.jobs").unwrap_or(0) as f64);
                    s.pool_parks.push(trace.counter("pool.parks").unwrap_or(0) as f64);
                    s.last_trace = Some(trace);
                }
            }
        }
        round += 1;
    }
    eprintln!(
        "batch: {round} native rounds on {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    // Output checks, outside every timed region: each engine agrees with the
    // f64 oracle run for as many iterations as the engine ran.
    let native: Vec<(&Method, &[f32], usize)> = methods
        .iter()
        .zip(&samples)
        .filter_map(|(m, s)| Some((m, s.ranks.as_deref()?, s.iterations)))
        .collect();
    let mut oracles = BTreeMap::new();
    for iters in native.iter().map(|n| n.2).chain([SIM_ITERATIONS]) {
        oracles.entry(iters).or_insert_with(|| {
            reference_pagerank(g, &PageRankConfig::default().with_iterations(iters))
        });
    }
    for (m, ranks, iters) in native {
        let err = max_rel_error(ranks, &oracles[&iters]);
        report.op(err < ORACLE_TOLERANCE, || {
            format!("{} native: max relative error {err} against the oracle", m.name())
        });
    }
    for (m, (run, _)) in methods.iter().zip(&sim) {
        let err = max_rel_error(&run.ranks, &oracles[&SIM_ITERATIONS]);
        report.op(err < ORACLE_TOLERANCE, || {
            format!("{} simulated: max relative error {err} against the oracle", m.name())
        });
    }

    let sim_host_s: f64 = sim.iter().map(|(_, host_s)| host_s).sum();
    if !traced {
        report.put("solve_ms_p10.hipa", p10(&samples[hipa].wall_ms[&Variant::Plain]), "ms");
        for (m, (run, _)) in methods.iter().zip(&sim) {
            report.put(format!("sim_mcycles.{}", key(m)), run.compute_cycles / 1e6, "Mcycles");
        }
        report.put("sim_host_s", sim_host_s, "s");
        return;
    }

    for (m, s) in methods.iter().zip(&mut samples) {
        let k = key(m);
        report.put(format!("engine.solve_ms_p10.{k}"), p10(&s.wall_ms[&Variant::Plain]), "ms");
        report.put(format!("engine.preprocess_ms.{k}"), median(&s.preprocess_ms), "ms");
        report.put(format!("engine.iter_ms.{k}"), median(&s.iter_ms), "ms");
        for (phase, ms) in &s.phase_ms {
            report.put(format!("engine.phase_ms.{k}.{phase}"), median(ms), "ms");
        }
        let speedup = median(&s.wall_ms[&Variant::OneThread]) / median(&s.wall_ms[&Variant::Plain]);
        report.put(format!("engine.speedup_2t.{k}"), speedup, "ratio");
        report.put(format!("engine.iterations.{k}"), s.iterations as f64, "count");
        if k != "hipa" {
            // HiPa runs its own scoped threads, not the shim pool.
            report.put(format!("pool.jobs_per_solve.{k}"), median(&s.pool_jobs), "count");
            report.put(format!("pool.parks_per_solve.{k}"), median(&s.pool_parks), "count");
        }
        traces.extend(s.last_trace.take());
    }
    let hipa = &samples[hipa].wall_ms;
    report.put(
        "obs.trace_overhead_frac",
        median(&hipa[&Variant::Traced]) / median(&hipa[&Variant::Plain]) - 1.0,
        "ratio",
    );

    let edge_iters = (g.num_edges() * SIM_ITERATIONS * methods.len()) as f64;
    report.put("numasim.host_ns_per_edge_iter", sim_host_s * 1e9 / edge_iters, "ns");
    for (m, (run, host_s)) in methods.iter().zip(sim) {
        let k = key(m);
        let r = &run.report;
        report.put(format!("numasim.host_s.{k}"), host_s, "s");
        report.put(format!("numasim.compute_mcycles.{k}"), run.compute_cycles / 1e6, "Mcycles");
        report.put(
            format!("numasim.preprocess_mcycles.{k}"),
            run.preprocess_cycles / 1e6,
            "Mcycles",
        );
        report.put(format!("numasim.mape.{k}"), r.mape(g.num_edges()), "B/edge");
        report.put(format!("numasim.remote_frac.{k}"), r.mem.remote_fraction(), "ratio");
        report.put(format!("numasim.llc_hit_frac.{k}"), r.mem.llc_hit_ratio(), "ratio");
        if let Some(trace) = run.trace {
            if k == "hipa" {
                for phase in ["scatter", "gather"] {
                    let cycles: f64 = trace
                        .spans
                        .iter()
                        .filter(|s| {
                            s.phase == phase && s.thread == RUN_LEVEL && s.iter != RUN_LEVEL
                        })
                        .map(|s| s.value)
                        .sum();
                    report.put(
                        format!("numasim.phase_mcycles.hipa.{phase}"),
                        cycles / 1e6,
                        "Mcycles",
                    );
                }
            }
            traces.push(trace);
        }
    }
}
