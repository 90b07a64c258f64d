//! `hipa-perf` — the regression gate CLI.
//!
//! ```text
//! hipa-perf diff A B [--wall-tol 0.5] [--deterministic-only]
//! hipa-perf pairs --parent BIN --change BIN --workload W --seeds 9201-9210
//!                 [--detail METRIC]...
//! ```
//!
//! A and B are either two `hipa-bench/v1` snapshots (from `--bin
//! bench-snapshot`) or two raw trace documents (from `--bin trace
//! --json-out`); the kind is auto-detected from the schema tag and must
//! match on both sides. Prints the delta table and exits 0 when B holds the
//! line against A, 1 on regression (any deterministic drift, advisory drift
//! past the threshold, or coverage drift), 2 on usage or parse errors.
//!
//! `pairs` runs two built benchmark executables (`BIN --workload W --seed S
//! --seconds N --trace 0`, `N` the `run_seconds` of the repository's
//! `BENCHMARK.json`) once per seed, alternating which goes first,
//! and prints the pairs table of [`hipa_perf::pairs`]. It exits 0 when
//! every run exited 0 with `correct: true` and `failed: 0`, 1 otherwise.
//! Before each pair it times one and then two concurrent copies of
//! `hipa-perf spin` (a fixed compute loop) for the host calibration.

use hipa_obs::{Json, RunTrace};
use hipa_perf::pairs::{self, Pair, Run};
use hipa_perf::{diff_snapshots, diff_trace_docs, DiffOptions, Snapshot, SNAPSHOT_SCHEMA};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: hipa-perf diff <A> <B> [--wall-tol FRACTION] [--deterministic-only]\n\
       hipa-perf pairs --parent BIN --change BIN --workload W --seeds A-B\n\
                       [--detail METRIC]...";

/// The repository benchmark's declaration; `pairs` runs for its `run_seconds`.
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// A parsed input document: one snapshot or a set of traces.
enum Doc {
    Snapshot(Snapshot),
    Traces(Vec<RunTrace>),
}

fn load(path: &str) -> Result<Doc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let is_snapshot = v.get("schema").and_then(Json::as_str) == Some(SNAPSHOT_SCHEMA);
    if is_snapshot {
        Snapshot::from_json(&text).map(Doc::Snapshot).map_err(|e| format!("{path}: {e}"))
    } else {
        RunTrace::parse_many(&text).map(Doc::Traces).map_err(|e| format!("{path}: {e}"))
    }
}

fn run(argv: &[String]) -> Result<bool, String> {
    match argv.first().map(String::as_str) {
        Some("diff") => run_diff(&argv[1..]),
        Some("pairs") => run_pairs(&argv[1..]),
        // One calibration copy; `pairs` runs it as a child process.
        Some("spin") => {
            pairs::spin();
            Ok(true)
        }
        _ => Err(USAGE.into()),
    }
}

fn run_diff(argv: &[String]) -> Result<bool, String> {
    let mut paths: Vec<&str> = Vec::new();
    let mut opts = DiffOptions::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--wall-tol" => {
                let v = it.next().ok_or("--wall-tol needs a value")?;
                opts.wall_tol =
                    v.parse::<f64>().map_err(|e| format!("bad --wall-tol '{v}': {e}"))?;
                if !opts.wall_tol.is_finite() || opts.wall_tol < 0.0 {
                    return Err(format!("--wall-tol must be a finite fraction >= 0, got {v}"));
                }
            }
            "--deterministic-only" => opts.deterministic_only = true,
            p if !p.starts_with("--") => paths.push(p),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    let [a, b] = paths[..] else {
        return Err(USAGE.into());
    };
    let report = match (load(a)?, load(b)?) {
        (Doc::Snapshot(sa), Doc::Snapshot(sb)) => diff_snapshots(&sa, &sb, &opts),
        (Doc::Traces(ta), Doc::Traces(tb)) => diff_trace_docs(&ta, &tb, &opts),
        _ => return Err(format!("{a} and {b} are different document kinds (snapshot vs trace)")),
    };
    print!("{}", report.render());
    Ok(report.ok())
}

/// `A-B`, inclusive.
fn parse_seeds(spec: &str) -> Result<Vec<u64>, String> {
    let num = |s: &str| s.trim().parse::<u64>().map_err(|e| format!("bad seed '{s}': {e}"));
    let (a, b) = spec.split_once('-').ok_or(format!("--seeds '{spec}' is not A-B"))?;
    let seeds: Vec<u64> = (num(a)?..=num(b)?).collect();
    if seeds.is_empty() {
        return Err(format!("--seeds '{spec}' names no seed"));
    }
    Ok(seeds)
}

/// `run_seconds` from [`BENCHMARK_JSON`], the run length both sides use.
fn run_seconds() -> Result<String, String> {
    let v = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let secs = v.get("run_seconds").and_then(Json::as_f64);
    secs.map(|s| s.to_string()).ok_or_else(|| "BENCHMARK.json has no run_seconds".into())
}

fn run_pairs(argv: &[String]) -> Result<bool, String> {
    let (mut parent, mut change, mut workload, mut seeds) = (None, None, None, None);
    let mut detail = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--parent" => parent = Some(value()?),
            "--change" => change = Some(value()?),
            "--workload" => workload = Some(value()?),
            "--seeds" => seeds = Some(parse_seeds(&value()?)?),
            "--detail" => detail.push(value()?),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    let (Some(parent), Some(change), Some(workload), Some(seeds)) =
        (parent, change, workload, seeds)
    else {
        return Err(USAGE.into());
    };
    let seconds = run_seconds()?;
    let bench = |bin: &str, seed: u64| -> Result<Run, String> {
        let out = Command::new(bin)
            .args(["--workload", &workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds, "--trace", "0"])
            .output()
            .map_err(|e| format!("{bin}: {e}"))?;
        Ok(Run::from_stdout(out.status.success(), &String::from_utf8_lossy(&out.stdout)))
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut done = Vec::with_capacity(seeds.len());
    for (i, &seed) in seeds.iter().enumerate() {
        let spin_ratio = pairs::spin_ratio(spin_copies(1)?, spin_copies(2)?);
        let parent_first = i % 2 == 0;
        let (p, c) = if parent_first {
            let p = bench(&parent, seed)?;
            (p, bench(&change, seed)?)
        } else {
            let c = bench(&change, seed)?;
            (bench(&parent, seed)?, c)
        };
        eprintln!("hipa-perf pairs: seed {seed} done ({}/{})", i + 1, seeds.len());
        done.push(Pair { seed, parent_first, parent: p, change: c, spin_ratio, nproc });
    }
    print!("{}", pairs::render(&workload, &done, &detail));
    Ok(done.iter().all(|p| p.parent.ok() && p.change.ok()))
}

/// Wall time of `copies` concurrent `hipa-perf spin` child processes.
fn spin_copies(copies: usize) -> Result<Duration, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let t = Instant::now();
    let children: Vec<_> = (0..copies)
        .map(|_| Command::new(&exe).arg("spin").spawn())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("spin: {e}"))?;
    for mut child in children {
        child.wait().map_err(|e| format!("spin: {e}"))?;
    }
    Ok(t.elapsed())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hipa-perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_an_inclusive_range() {
        assert_eq!(parse_seeds("9301-9303"), Ok(vec![9301, 9302, 9303]));
        assert!(parse_seeds("9301,9302").is_err());
        assert!(parse_seeds("5-3").is_err());
        assert!(parse_seeds("a-3").is_err());
    }

    #[test]
    fn run_length_comes_from_the_benchmark_declaration() {
        let secs: f64 = run_seconds().unwrap().parse().unwrap();
        assert!(secs > 0.0);
    }
}
