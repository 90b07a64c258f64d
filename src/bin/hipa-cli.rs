//! `hipa-cli` — command-line front end for the HiPa reproduction.
//!
//! ```text
//! hipa-cli generate rmat --scale 14 --edge-factor 16 --seed 1 -o g.bin
//! hipa-cli stats dataset:journal --partition 256K
//! hipa-cli pagerank g.bin --engine hipa --threads 8 --iterations 20 --top 10
//! hipa-cli simulate dataset:journal --machine skylake --cache-scale 64 --threads 40
//! hipa-cli bfs dataset:wiki --source 0
//! ```
//!
//! Graphs are referenced either as a file path (`.bin` = the binary format,
//! anything else = SNAP-style text) or as `dataset:<name>` for the six
//! built-in scaled stand-ins.

use hipa::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    if let Some(note) = build_note() {
        eprintln!("{note}");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// The startup note of a binary built with the race detector compiled in:
/// every shared-slice access is then checked, so wall-clock timings are
/// many times those of a plain build.
fn build_note() -> Option<&'static str> {
    cfg!(feature = "check-hb").then_some("built with check-hb: timings are not representative")
}

const USAGE: &str = "usage:
  hipa-cli generate <rmat|zipf|er> [--scale N] [--vertices N] [--edges N]
           [--edge-factor N] [--mean-degree X] [--seed N] -o FILE
  hipa-cli stats <GRAPH> [--partition SIZE]
  hipa-cli pagerank <GRAPH> [--engine NAME] [--threads N] [--iterations N]
           [--tolerance X] [--partition SIZE] [--top K] [--trace-out FILE]
           [--reorder ORDER] [--no-prefetch]
  hipa-cli simulate <GRAPH> [--machine skylake|haswell|tiny] [--cache-scale N]
           [--engine NAME] [--threads N] [--iterations N] [--tolerance X]
           [--partition SIZE] [--trace-out FILE] [--reorder ORDER] [--no-prefetch]
  hipa-cli bfs <GRAPH> [--source V]
  hipa-cli compare <GRAPH> [--threads N] [--iterations N] [--tolerance X]
           [--partition SIZE] [--trace-out FILE] [--reorder ORDER] [--no-prefetch]
  hipa-cli serve <GRAPH> [--threads N] [--users N] [--requests N] [--batch N]
           [--seed S] [--top K] [--trace-out FILE] [--sample-ms N] [--expo-out FILE]
  hipa-cli convert <IN> -o <OUT>

GRAPH = path (.bin or edge-list text) or dataset:<journal|pld|wiki|kron|twitter|mpi>
SIZE  = bytes, with optional K/M suffix (e.g. 256K, 1M)
NAME  = hipa | ppr | vpr | gpop | polymer
ORDER = input | degree-desc | freq-clusters | random[:SEED]  (vertex relabelling
        before the run; ranks are mapped back to the input labelling)
FILE  = --trace-out writes a JSON RunTrace (per-phase timings, residual
        trajectory, counters); pretty-print it with hipa-bench's trace bin.
        A .folded sidecar holds flamegraph-style collapsed stacks.
--no-prefetch disables the hot-loop software-prefetch hints (DESIGN.md 12)";

type Result<T> = std::result::Result<T, String>;

/// Minimal flag parser: `--key value` pairs plus positional arguments.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        // Valueless switches; everything else under `--` takes a value.
        const BOOL_FLAGS: &[&str] = &["no-prefetch"];
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if BOOL_FLAGS.contains(&key) {
                    flags.push((key.to_string(), "true".into()));
                    continue;
                }
                let val = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                flags.push((key.to_string(), val.clone()));
            } else if a == "-o" {
                let val = it.next().ok_or("-o needs a value")?;
                flags.push(("out".into(), val.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// `--reorder NAME` as a [`ReorderStrategy`]; absent = input order.
    fn get_reorder(&self) -> Result<ReorderStrategy> {
        Ok(match self.get("reorder") {
            None | Some("input") | Some("none") => ReorderStrategy::None,
            Some("degree-desc") => ReorderStrategy::DegreeDesc,
            Some("freq-clusters") => ReorderStrategy::FrequencyClusters,
            Some(s) => match s.strip_prefix("random") {
                Some("") => ReorderStrategy::Random(42),
                Some(seed) => ReorderStrategy::Random(
                    seed.strip_prefix(':')
                        .and_then(|n| n.parse().ok())
                        .ok_or_else(|| format!("--reorder: bad seed in '{s}'"))?,
                ),
                None => return Err(format!("unknown reorder strategy '{s}'")),
            },
        })
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        }
    }

    fn get_u64(&self, key: &str, default: u64) -> Result<u64> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        }
    }

    /// `--tolerance X` as an L1 convergence threshold; absent = run to cap.
    fn get_tolerance(&self) -> Result<Option<f32>> {
        match self.get("tolerance") {
            None => Ok(None),
            Some(v) => {
                let t: f32 = v.parse().map_err(|e| format!("--tolerance: {e}"))?;
                if !(t.is_finite() && t > 0.0) {
                    return Err(format!("--tolerance: must be a positive finite number, got {v}"));
                }
                Ok(Some(t))
            }
        }
    }
}

/// Writes one or more `RunTrace`s as JSON (single object for one trace, an
/// array otherwise) to `path`, plus a `path.folded` sidecar with the
/// flamegraph-style collapsed stacks of every trace (`flamegraph.pl` /
/// inferno input; see `RunTrace::to_collapsed`).
fn write_traces(path: &str, traces: &[hipa::obs::RunTrace]) -> Result<()> {
    let json = match traces {
        [one] => one.to_json(),
        many => hipa::obs::RunTrace::array_to_json(many),
    };
    std::fs::write(path, json + "\n").map_err(|e| format!("writing {path}: {e}"))?;
    let folded: String = traces.iter().map(|t| t.to_collapsed()).collect();
    let fpath = format!("{path}.folded");
    std::fs::write(&fpath, folded).map_err(|e| format!("writing {fpath}: {e}"))?;
    eprintln!("wrote {} trace(s) to {path} (+ collapsed stacks in {fpath})", traces.len());
    Ok(())
}

/// Parses a byte size with optional K/M suffix.
fn parse_size(s: &str) -> Result<usize> {
    let s = s.trim();
    let (num, mult) = if let Some(n) = s.strip_suffix(['K', 'k']) {
        (n, 1024)
    } else if let Some(n) = s.strip_suffix(['M', 'm']) {
        (n, 1024 * 1024)
    } else {
        (s, 1)
    };
    num.parse::<usize>().map(|v| v * mult).map_err(|e| format!("bad size '{s}': {e}"))
}

fn load_graph(spec: &str) -> Result<DiGraph> {
    if let Some(name) = spec.strip_prefix("dataset:") {
        let ds = Dataset::ALL
            .iter()
            .find(|d| d.name() == name)
            .ok_or_else(|| format!("unknown dataset '{name}'"))?;
        eprintln!("generating dataset stand-in '{name}'...");
        return Ok(ds.build());
    }
    let el = hipa::graph::io::load_path(spec).map_err(|e| format!("loading {spec}: {e}"))?;
    Ok(DiGraph::from_edge_list(&el))
}

fn engine_by_name(name: &str) -> Result<Box<dyn Engine>> {
    Ok(match name {
        "hipa" => Box::new(HiPa),
        "ppr" | "p-pr" => Box::new(Ppr),
        "vpr" | "v-pr" => Box::new(Vpr),
        "gpop" => Box::new(Gpop),
        "polymer" => Box::new(Polymer),
        other => return Err(format!("unknown engine '{other}'")),
    })
}

fn run(args: &[String]) -> Result<()> {
    let cmd = args.first().ok_or("missing command")?.clone();
    let rest = Args::parse(&args[1..])?;
    match cmd.as_str() {
        "generate" => generate(&rest),
        "stats" => stats(&rest),
        "pagerank" => pagerank(&rest),
        "simulate" => simulate(&rest),
        "bfs" => bfs(&rest),
        "compare" => compare(&rest),
        "serve" => serve(&rest),
        "convert" => convert(&rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn generate(a: &Args) -> Result<()> {
    let kind = a.positional.first().ok_or("generate: need rmat|zipf|er")?;
    let seed = a.get_u64("seed", 1)?;
    let out = a.get("out").ok_or("generate: need -o FILE")?;
    let el = match kind.as_str() {
        "rmat" => {
            let scale = a.get_usize("scale", 14)? as u32;
            let ef = a.get_usize("edge-factor", 16)?;
            hipa::graph::gen::rmat(&hipa::graph::gen::RmatParams::graph500(scale, ef), seed)
        }
        "zipf" => {
            let n = a.get_usize("vertices", 1 << 14)?;
            let mean: f64 = a
                .get("mean-degree")
                .map(|v| v.parse().map_err(|e| format!("--mean-degree: {e}")))
                .transpose()?
                .unwrap_or(12.0);
            hipa::graph::gen::zipf_graph(
                &hipa::graph::gen::ZipfParams {
                    num_vertices: n,
                    mean_degree: mean,
                    ..Default::default()
                },
                seed,
            )
        }
        "er" => {
            let n = a.get_usize("vertices", 1 << 14)?;
            let m = a.get_usize("edges", n * 8)?;
            hipa::graph::gen::erdos_renyi(n, m, seed)
        }
        other => return Err(format!("unknown generator '{other}'")),
    };
    hipa::graph::io::save_path(out, &el).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {} vertices, {} edges to {out}", el.num_vertices(), el.num_edges());
    Ok(())
}

fn stats(a: &Args) -> Result<()> {
    let g = load_graph(a.positional.first().ok_or("stats: need a graph")?)?;
    let part = parse_size(a.get("partition").unwrap_or("256K"))?;
    let sum = hipa::graph::stats::degree_summary(g.out_csr());
    let census = hipa::graph::stats::partition_census(g.out_csr(), part / 4);
    let comp = hipa::graph::components::weakly_connected_components(g.out_csr());
    println!("vertices:        {}", g.num_vertices());
    println!("edges:           {}", g.num_edges());
    println!("dangling:        {}", g.dangling_vertices().len());
    println!("out-degree:      mean {:.2}, max {}, p99 {}", sum.mean, sum.max, sum.p99);
    println!("top-10% share:   {:.1}%", sum.top10_edge_share * 100.0);
    println!("wcc:             {} components, largest {}", comp.num_components, comp.largest);
    println!(
        "census @{}B:     {} partitions, intra {} / inter {} (compress {:.2}x)",
        part,
        census.num_parts,
        census.intra_total,
        census.inter_total,
        census.compression_ratio()
    );
    Ok(())
}

fn pagerank(a: &Args) -> Result<()> {
    let g = load_graph(a.positional.first().ok_or("pagerank: need a graph")?)?;
    let engine = engine_by_name(a.get("engine").unwrap_or("hipa"))?;
    let threads = a.get_usize("threads", 4)?;
    let iters = a.get_usize("iterations", 20)?;
    let part = parse_size(a.get("partition").unwrap_or("256K"))?;
    let top = a.get_usize("top", 10)?;
    let mut cfg = PageRankConfig::default().with_iterations(iters);
    if let Some(t) = a.get_tolerance()? {
        cfg = cfg.with_tolerance(t);
    }
    let trace_out = a.get("trace-out");
    let opts = NativeOpts::new(threads, part)
        .with_trace(trace_out.is_some())
        .with_prefetch(!a.has("no-prefetch"))
        .with_reorder(a.get_reorder()?);
    let run = engine.run_native(&g, &cfg, &opts);
    let stop = if run.converged { " (converged)" } else { "" };
    println!(
        "{}: preprocess {:.2?}, compute {:.2?} for {} iterations{stop} x {} edges",
        engine.name(),
        run.preprocess,
        run.compute,
        run.iterations_run,
        g.num_edges()
    );
    for (v, r) in hipa::top_k(&run.ranks, top) {
        println!("  v{v:<9} {r:.6}");
    }
    if let (Some(path), Some(trace)) = (trace_out, &run.trace) {
        write_traces(path, std::slice::from_ref(trace))?;
    }
    Ok(())
}

fn simulate(a: &Args) -> Result<()> {
    let g = load_graph(a.positional.first().ok_or("simulate: need a graph")?)?;
    let machine = match a.get("machine").unwrap_or("skylake") {
        "skylake" => MachineSpec::skylake_4210(),
        "haswell" => MachineSpec::haswell_e5_2667(),
        "tiny" => MachineSpec::tiny_test(),
        other => return Err(format!("unknown machine '{other}'")),
    };
    let scale = a.get_usize("cache-scale", 64)?;
    let machine = machine.scaled(scale.max(1));
    let engine = engine_by_name(a.get("engine").unwrap_or("hipa"))?;
    let threads = a.get_usize("threads", machine.topology.logical_cpus())?;
    check_sim_threads(engine.name(), threads, &machine)?;
    let iters = a.get_usize("iterations", 20)?;
    let part = parse_size(a.get("partition").unwrap_or("256K"))? / scale.max(1);
    let mut cfg = PageRankConfig::default().with_iterations(iters);
    if let Some(t) = a.get_tolerance()? {
        cfg = cfg.with_tolerance(t);
    }
    let trace_out = a.get("trace-out");
    let opts = SimOpts::new(machine)
        .with_threads(threads)
        .with_partition_bytes(part.max(64))
        .with_trace(trace_out.is_some())
        .with_prefetch(!a.has("no-prefetch"))
        .with_reorder(a.get_reorder()?);
    let run = engine.run_sim(&g, &cfg, &opts);
    let stop = if run.converged { ", converged" } else { "" };
    println!("machine:        {}", run.report.machine);
    println!("engine:         {}", engine.name());
    println!(
        "sim compute:    {:.4}s ({} iterations{stop})",
        run.compute_seconds(),
        run.iterations_run
    );
    println!("sim preprocess: {:.4}s", run.preprocess_seconds());
    println!(
        "MApE/iter:      {:.1} B/edge",
        run.report.mape(g.num_edges()) / run.iterations_run.max(1) as f64
    );
    println!("remote traffic: {:.1}%", run.report.mem.remote_fraction() * 100.0);
    println!("LLC hit ratio:  {:.1}%", run.report.mem.llc_hit_ratio() * 100.0);
    println!(
        "threads:        {} created, {} migrations",
        run.report.threads_created, run.report.migrations
    );
    if let (Some(path), Some(trace)) = (trace_out, &run.trace) {
        write_traces(path, std::slice::from_ref(trace))?;
    }
    Ok(())
}

/// HiPa's simulated path spreads its threads evenly over the machine's
/// sockets: after its clamp to `sockets..=logical CPUs`, the count must be a
/// multiple of the socket count.
fn check_sim_threads(engine: &str, threads: usize, machine: &MachineSpec) -> Result<()> {
    let topo = machine.topology;
    let sockets = topo.sockets;
    if engine == HiPa.name() && !threads.clamp(sockets, topo.logical_cpus()).is_multiple_of(sockets)
    {
        return Err(format!(
            "--threads {threads}: HiPa needs a multiple of the machine's {sockets} sockets"
        ));
    }
    Ok(())
}

/// Stands up a resident rank server on the graph, drives it with the seeded
/// open-loop load generator, and prints throughput + per-class latency
/// percentiles. `--trace-out` writes the serve counters and the queue-depth
/// series as a `RunTrace`.
fn serve(a: &Args) -> Result<()> {
    use hipa::serve::{edge_list_of, run_load, LoadConfig, SamplerConfig, ServeConfig, Server};

    let g = load_graph(a.positional.first().ok_or("serve: need a graph")?)?;
    let threads = a.get_usize("threads", 4)?;
    // `--sample-ms N` turns on the background health sampler; `--expo-out
    // FILE` additionally rewrites a plain-text exposition file each tick.
    let sampler = match (a.get_usize("sample-ms", 0)?, a.get("expo-out")) {
        (0, None) => None,
        (ms, expo) => Some(SamplerConfig {
            interval: std::time::Duration::from_millis(if ms == 0 { 50 } else { ms as u64 }),
            expo_path: expo.map(std::path::PathBuf::from),
            ..Default::default()
        }),
    };
    let cfg = ServeConfig {
        threads,
        batch_max: a.get_usize("batch", 32)?,
        sampler,
        ..Default::default()
    };
    let lcfg = LoadConfig {
        users: a.get_usize("users", 8)?,
        requests_per_user: a.get_usize("requests", 32)?,
        seed: a.get_u64("seed", 42)?,
        topk: a.get_usize("top", 10)?,
        ..Default::default()
    };
    let server = Server::start(edge_list_of(&g), cfg);
    let report = run_load(&server, &lcfg);
    let stats = server.stats();
    println!(
        "served {} requests in {:.2?} ({:.0} req/s), {} errors",
        report.completed, report.wall, report.throughput_rps, report.errors
    );
    for (name, served, h) in [
        ("topk", stats.topk_served.get(), &stats.topk_latency),
        ("ppr", stats.ppr_served.get(), &stats.ppr_latency),
        ("edges", stats.edges_served.get(), &stats.edges_latency),
    ] {
        if h.is_empty() {
            println!("  {name:<6} {served:>6} served");
            continue;
        }
        println!(
            "  {name:<6} {served:>6} served  p50 {:>8.0}us  p95 {:>8.0}us  p99 {:>8.0}us",
            h.quantile(0.50) as f64 / 1e3,
            h.quantile(0.95) as f64 / 1e3,
            h.quantile(0.99) as f64 / 1e3,
        );
    }
    println!(
        "  epochs {}  ppr batches {} ({} sources)  queue depth max {}",
        stats.epochs.get(),
        stats.ppr_batches.get(),
        stats.ppr_batched_sources.get(),
        stats.queue_depth.max()
    );
    let frames = stats.frames();
    if let Some(last) = frames.last() {
        println!(
            "  sampler {} frame(s), last: depth {} p99 {:.0}us {} req/s",
            frames.len(),
            last.queue_depth,
            last.latency_p99_ns as f64 / 1e3,
            last.throughput_rps
        );
    }
    if let Some(path) = a.get("trace-out") {
        let rec = hipa::obs::Recorder::new(true);
        stats.export_into(&rec, report.wall);
        let trace = rec
            .finish(hipa::obs::TraceMeta {
                engine: "hipa-serve".into(),
                path: hipa::obs::PATH_NATIVE,
                machine: None,
                vertices: g.num_vertices() as u64,
                edges: g.num_edges() as u64,
                threads: threads as u64,
                partitions: None,
                iterations_run: report.completed,
                converged: true,
            })
            .expect("recorder enabled");
        write_traces(path, std::slice::from_ref(&trace))?;
    }
    Ok(())
}

fn compare(a: &Args) -> Result<()> {
    let g = load_graph(a.positional.first().ok_or("compare: need a graph")?)?;
    let threads = a.get_usize("threads", 4)?;
    let iters = a.get_usize("iterations", 10)?;
    let part = parse_size(a.get("partition").unwrap_or("256K"))?;
    let mut cfg = PageRankConfig::default().with_iterations(iters);
    if let Some(t) = a.get_tolerance()? {
        cfg = cfg.with_tolerance(t);
    }
    println!(
        "{:<10} {:>12} {:>12} {:>7} {:>14}",
        "engine", "preprocess", "compute", "iters", "max vs HiPa"
    );
    let trace_out = a.get("trace-out");
    let mut traces: Vec<hipa::obs::RunTrace> = Vec::new();
    let mut hipa_ranks: Option<Vec<f32>> = None;
    for e in hipa::baselines::all_engines() {
        let opts = NativeOpts::new(threads, part)
            .with_trace(trace_out.is_some())
            .with_prefetch(!a.has("no-prefetch"))
            .with_reorder(a.get_reorder()?);
        let run = e.run_native(&g, &cfg, &opts);
        let dev = match &hipa_ranks {
            None => {
                hipa_ranks = Some(run.ranks.clone());
                0.0
            }
            Some(base) => run
                .ranks
                .iter()
                .zip(base)
                .map(|(x, y)| ((x - y).abs() / y.abs().max(1e-12)) as f64)
                .fold(0.0, f64::max),
        };
        let iters_cell = format!("{}{}", run.iterations_run, if run.converged { "" } else { "*" });
        println!(
            "{:<10} {:>12} {:>12} {:>7} {:>13.2e}",
            e.name(),
            format!("{:.2?}", run.preprocess),
            format!("{:.2?}", run.compute),
            iters_cell,
            dev
        );
        traces.extend(run.trace);
    }
    if let Some(path) = trace_out {
        write_traces(path, &traces)?;
    }
    Ok(())
}

fn convert(a: &Args) -> Result<()> {
    let input = a.positional.first().ok_or("convert: need an input graph")?;
    let out = a.get("out").ok_or("convert: need -o FILE")?;
    let el = hipa::graph::io::load_path(input).map_err(|e| format!("loading {input}: {e}"))?;
    hipa::graph::io::save_path(out, &el).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "converted {input} -> {out} ({} vertices, {} edges)",
        el.num_vertices(),
        el.num_edges()
    );
    Ok(())
}

/// `--source`, checked against the graph before it is narrowed to a vertex
/// id.
fn bfs_source(a: &Args, num_vertices: usize) -> Result<u32> {
    let source = a.get_usize("source", 0)?;
    if source >= num_vertices {
        return Err(format!("--source {source}: the graph has {num_vertices} vertices"));
    }
    Ok(source as u32)
}

fn bfs(a: &Args) -> Result<()> {
    let g = load_graph(a.positional.first().ok_or("bfs: need a graph")?)?;
    let source = bfs_source(a, g.num_vertices())?;
    let levels = hipa::algos::bfs_partition_centric(&g, source, 64 * 1024 / 4);
    let reached = levels.iter().filter(|&&l| l != hipa::algos::bfs::UNREACHED).count();
    let max = levels.iter().filter(|&&l| l != hipa::algos::bfs::UNREACHED).max().unwrap_or(&0);
    println!(
        "bfs from v{source}: reached {reached}/{} vertices, max level {max}",
        g.num_vertices()
    );
    let mut hist = vec![0usize; *max as usize + 1];
    for &l in &levels {
        if l != hipa::algos::bfs::UNREACHED {
            hist[l as usize] += 1;
        }
    }
    for (l, c) in hist.iter().enumerate() {
        println!("  level {l:<3} {c}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_size_suffixes() {
        assert_eq!(parse_size("256K").unwrap(), 256 * 1024);
        assert_eq!(parse_size("1M").unwrap(), 1 << 20);
        assert_eq!(parse_size("512").unwrap(), 512);
        assert!(parse_size("x").is_err());
    }

    #[test]
    fn args_parser_mixes_flags_and_positionals() {
        let raw: Vec<String> =
            ["g.bin", "--threads", "8", "-o", "out.bin"].iter().map(|s| s.to_string()).collect();
        let a = Args::parse(&raw).unwrap();
        assert_eq!(a.positional, vec!["g.bin"]);
        assert_eq!(a.get("threads"), Some("8"));
        assert_eq!(a.get("out"), Some("out.bin"));
        assert_eq!(a.get_usize("threads", 1).unwrap(), 8);
        assert_eq!(a.get_usize("missing", 7).unwrap(), 7);
    }

    #[test]
    fn engine_names_resolve() {
        for n in ["hipa", "ppr", "vpr", "gpop", "polymer"] {
            assert!(engine_by_name(n).is_ok());
        }
        assert!(engine_by_name("nope").is_err());
    }

    #[test]
    fn hipa_sim_threads_must_fill_every_socket() {
        let skylake = MachineSpec::skylake_4210();
        assert_eq!(skylake.topology.sockets, 2);
        let err = check_sim_threads("HiPa", 3, &skylake).unwrap_err();
        assert!(err.contains("2 sockets"), "{err}");
        // 1 clamps up to one thread per socket; past the CPU count clamps
        // down to all of them.
        for ok in [1, 2, 4, 40, 1000] {
            assert!(check_sim_threads("HiPa", ok, &skylake).is_ok(), "{ok} threads");
        }
        assert!(check_sim_threads("p-PR", 3, &skylake).is_ok());
    }

    #[test]
    fn bfs_source_must_name_a_vertex() {
        let args = |v: &str| Args::parse(&["--source".to_string(), v.to_string()]).unwrap();
        assert_eq!(bfs_source(&args("4"), 5).unwrap(), 4);
        assert_eq!(bfs_source(&Args::parse(&[]).unwrap(), 5).unwrap(), 0);
        for bad in ["5", "4294967296"] {
            let err = bfs_source(&args(bad), 5).unwrap_err();
            assert!(err.contains("5 vertices"), "{err}");
        }
        assert!(bfs_source(&Args::parse(&[]).unwrap(), 0).is_err(), "an empty graph has no source");
    }

    #[test]
    fn check_hb_builds_say_so() {
        assert_eq!(build_note().is_some(), cfg!(feature = "check-hb"));
        if let Some(note) = build_note() {
            assert!(note.contains("timings are not representative"), "{note}");
        }
    }

    #[test]
    fn missing_value_is_an_error() {
        let raw: Vec<String> = ["--threads"].iter().map(|s| s.to_string()).collect();
        assert!(Args::parse(&raw).is_err());
    }

    #[test]
    fn bool_flags_take_no_value() {
        let raw: Vec<String> =
            ["--no-prefetch", "--threads", "2", "g.bin"].iter().map(|s| s.to_string()).collect();
        let a = Args::parse(&raw).unwrap();
        assert!(a.has("no-prefetch"));
        assert_eq!(a.get("threads"), Some("2"));
        assert_eq!(a.positional, vec!["g.bin"]);
    }

    #[test]
    fn reorder_strategies_parse() {
        let parse = |v: Option<&str>| {
            let raw: Vec<String> =
                v.iter().flat_map(|v| ["--reorder".to_string(), v.to_string()]).collect();
            Args::parse(&raw).unwrap().get_reorder()
        };
        assert_eq!(parse(None).unwrap(), ReorderStrategy::None);
        assert_eq!(parse(Some("input")).unwrap(), ReorderStrategy::None);
        assert_eq!(parse(Some("degree-desc")).unwrap(), ReorderStrategy::DegreeDesc);
        assert_eq!(parse(Some("freq-clusters")).unwrap(), ReorderStrategy::FrequencyClusters);
        assert_eq!(parse(Some("random")).unwrap(), ReorderStrategy::Random(42));
        assert_eq!(parse(Some("random:7")).unwrap(), ReorderStrategy::Random(7));
        assert!(parse(Some("random:x")).is_err());
        assert!(parse(Some("sorted")).is_err());
    }
}
