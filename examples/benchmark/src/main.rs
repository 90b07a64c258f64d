//! The repository benchmark: batch PageRank (native and simulated) and the
//! open-loop rank server, end to end and per layer. See README.md.
//!
//! ```text
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- \
//!     --workload <journal-readwrite|wiki-readonly> --seed <u64> --seconds <n> \
//!     --trace <0|1> [--trace-out FILE]
//! ```
//!
//! Prints every metric as `name value unit`, then one JSON result line. With
//! `--trace 0` the metrics are the end-to-end ones of `BENCHMARK.json`, with
//! `--trace 1` the per-layer ones (and `--trace-out` writes the engines'
//! `hipa-obs/v1` traces plus one trace of those metrics, for `hipa-perf
//! diff`). Exits 1 if any output check fails or the metrics differ from the
//! declared ones, 2 on bad arguments.

mod batch;
mod graphs;
mod load;
mod report;
mod serve;
mod stats;

use hipa::graph::datasets::Dataset;
use hipa::graph::DiGraph;
use hipa::obs::{Recorder, RunTrace, TraceMeta, PATH_NATIVE, RUN_LEVEL};
use load::{Schedule, Traffic};
use report::Report;
use stats::median;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: benchmark --workload <journal-readwrite|wiki-readonly> --seed <u64> \
                     --seconds <n> --trace <0|1> [--trace-out FILE]";

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Share of `--seconds` given to the serve window; the batch side has the
/// rest.
const SERVE_SHARE: f64 = 0.8;

/// One workload: the graph the batch engines solve, and the traffic offered
/// to a server holding the journal graph.
struct Workload {
    name: &'static str,
    batch: Dataset,
    traffic: Traffic,
}

/// The mixes are synthetic (the repository has no request log): the
/// read-write mix turns five in every hundred top-k lookups of the
/// read-only mix into edge writes. Each rate puts the scheduler at the same
/// estimated utilisation, from service times measured on an idle server
/// (README.md, "Traffic").
const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "journal-readwrite",
        batch: Dataset::Journal,
        traffic: Traffic { rate_rps: 12.0, mix: (85, 10, 5) },
    },
    Workload {
        name: "wiki-readonly",
        batch: Dataset::Wiki,
        traffic: Traffic { rate_rps: 17.0, mix: (90, 10, 0) },
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = WORKLOADS.iter().find(|w| w.name == name);
                workload = Some(w.ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                })
            }
            "--trace-out" => trace_out = Some(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

/// The per-layer metrics as one `hipa-obs/v1` trace: each metric is a
/// whole-run sample of a dotted phase, which `hipa-perf diff` compares as
/// an advisory series.
fn metrics_trace(workload: &str, report: &Report) -> RunTrace {
    let rec = Recorder::new(true);
    // A metric without samples has no value to record (the coverage check
    // has already failed the run for it).
    for (name, value, _) in report.metrics.iter().filter(|m| m.1.is_finite()) {
        rec.record(name, RUN_LEVEL, RUN_LEVEL, *value);
    }
    let meta = TraceMeta {
        engine: format!("benchmark-{workload}"),
        path: PATH_NATIVE,
        machine: None,
        vertices: 0,
        edges: 0,
        threads: 2,
        partitions: None,
        iterations_run: 0,
        converged: true,
    };
    rec.finish(meta).expect("recorder enabled")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let doc = match std::fs::read_to_string(BENCHMARK_JSON) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("benchmark: reading {BENCHMARK_JSON}: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    match report::declared_workloads(&doc) {
        Ok(names) if names.iter().any(|n| n == w.name) => {}
        other => {
            eprintln!(
                "benchmark: workload '{}' is not declared in BENCHMARK.json ({other:?})",
                w.name
            );
            return ExitCode::from(2);
        }
    }

    let mut report = Report::default();
    let mut traces = Vec::new();

    // Set-up, several times: generate the graphs, build the batch graph's
    // CSR, start a server on journal and wait for its first answer.
    let (mut setup_s, mut generate_s, mut csr_s, mut start_s) = (vec![], vec![], vec![], vec![]);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let (batch_edges, batch_relabel) = graphs::relabelled(w.batch, args.seed);
        let (server_edges, server_relabel) = match w.batch {
            Dataset::Journal => (batch_edges.clone(), batch_relabel),
            _ => graphs::relabelled(Dataset::Journal, args.seed),
        };
        generate_s.push(t.elapsed().as_secs_f64());
        let t_csr = Instant::now();
        let g = DiGraph::from_edge_list(&batch_edges);
        csr_s.push(t_csr.elapsed().as_secs_f64());
        let (server, started) = serve::start(server_edges.clone());
        start_s.push(started);
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some((g, server_edges, server_relabel, server));
    }
    let (g, server_edges, server_relabel, server) = last.expect("at least one set-up");
    if args.trace {
        report.put("graph.generate_s", median(&generate_s), "s");
        report.put("graph.csr_build_s", median(&csr_s), "s");
        report.put("serve.start_s", median(&start_s), "s");
    } else {
        report.put("setup_s", median(&setup_s), "s");
    }
    eprintln!(
        "set-up: {} ({} vertices) + server on journal ({} vertices), median {:.3}s",
        w.batch.name(),
        g.num_vertices(),
        server_edges.num_vertices(),
        median(&setup_s)
    );

    let serve_window = Duration::from_secs_f64(args.seconds * SERVE_SHARE);
    let batch_window = Duration::from_secs_f64(args.seconds) - serve_window;
    batch::run(&g, args.seed, batch_window, args.trace, &mut report, &mut traces);
    drop(g);
    let schedule = Schedule::new(args.seed, &w.traffic, serve_window, &server_relabel);
    serve::run(&server, &server_edges, &schedule, args.seed, args.trace, &mut report);
    drop(server);

    let list = if args.trace { "per_layer" } else { "end_to_end" };
    let problems = match report::declared(&doc, list) {
        Ok(declared) => report::coverage_problems(&report.metrics, &declared),
        Err(e) => vec![format!("BENCHMARK.json: {e}")],
    };
    for p in &problems {
        eprintln!("coverage: {p}");
    }
    if let Some(path) = &args.trace_out {
        traces.push(metrics_trace(w.name, &report));
        let json = RunTrace::array_to_json(&traces) + "\n";
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("benchmark: writing {path}: {e}");
            return ExitCode::from(2);
        }
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} {value} {unit}");
    }
    let correct = report.failed == 0 && problems.is_empty();
    println!("{}", report::result_json(correct, &report));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_workloads() {
        let doc = std::fs::read_to_string(BENCHMARK_JSON).unwrap();
        let names = report::declared_workloads(&doc).unwrap();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        for list in ["end_to_end", "per_layer"] {
            let declared = report::declared(&doc, list).unwrap();
            let m: Vec<_> = declared.iter().map(|(n, _)| (n.clone(), 1.0, "x")).collect();
            let problems = report::coverage_problems(&m, &declared);
            assert!(problems.iter().all(|p| p.contains("has unit x")), "{list}: {problems:?}");
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a =
            parse_args(&argv("--workload wiki-readonly --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.workload.name, a.seed, a.seconds, a.trace), ("wiki-readonly", 3, 10.0, true));
        assert!(parse_args(&argv("--workload wiki --seed 3 --seconds 10 --trace 0")).is_err());
        let bad_trace = "--workload wiki-readonly --seed 3 --seconds 10 --trace 2";
        assert!(parse_args(&argv(bad_trace)).is_err());
        assert!(parse_args(&argv("--workload wiki-readonly --seed 3 --trace 0")).is_err());
    }
}
