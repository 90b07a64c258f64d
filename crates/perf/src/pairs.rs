//! `hipa-perf pairs` — the paired-run protocol behind every wall-clock claim.
//!
//! Two built benchmark executables (a parent and a change) run the same
//! workload once per seed, alternating which side goes first. Each run's
//! last stdout line is the benchmark's result JSON (`correct`, `failed`,
//! `metrics`). The table gives, per metric, each side's median with
//! exclusive-method quartiles, the ratio of medians and how many pairs the
//! change read lower. Every pair also records how much of a second core the
//! host had to spare ([`spin_ratio`]) and `nproc`, so a claim carries the
//! host state it was measured under. The binary runs the [`spin`] copies as
//! child processes, so the calibration needs no threads of its own.
//!
//! The statistics here are pure functions of the parsed runs; the process
//! spawning lives in the binary.

use hipa_obs::Json;
use std::time::Duration;

/// One benchmark run: its exit status and its parsed last-line result.
#[derive(Debug, Clone)]
pub struct Run {
    pub exit_ok: bool,
    pub correct: bool,
    pub failed: u64,
    /// `(name, value)` in the order the run printed them.
    pub metrics: Vec<(String, f64)>,
}

impl Run {
    /// Parses the last non-empty line of a run's stdout. A run with no
    /// parsable result line reads as incorrect with no metrics.
    pub fn from_stdout(exit_ok: bool, stdout: &str) -> Run {
        let bad = Run { exit_ok, correct: false, failed: 0, metrics: Vec::new() };
        let Some(last) = stdout.lines().rev().find(|l| !l.trim().is_empty()) else {
            return bad;
        };
        let Ok(v) = Json::parse(last.trim()) else { return bad };
        let metrics = match v.get("metrics") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect(),
            _ => Vec::new(),
        };
        Run {
            exit_ok,
            correct: v.get("correct").and_then(Json::as_bool).unwrap_or(false),
            failed: v.get("failed").and_then(Json::as_f64).map_or(u64::MAX, |f| f as u64),
            metrics,
        }
    }

    /// Exited 0, checked its own answers, and failed no operation.
    pub fn ok(&self) -> bool {
        self.exit_ok && self.correct && self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }
}

/// One seed's two runs plus the host state taken just before them.
#[derive(Debug, Clone)]
pub struct Pair {
    pub seed: u64,
    pub parent_first: bool,
    pub parent: Run,
    pub change: Run,
    pub spin_ratio: f64,
    pub nproc: usize,
}

/// The median (mean of the middle two for an even count). `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the exclusive method (positions
/// `(n + 1)·i/4`, linearly interpolated between the two nearest ranks, the
/// rank pair clamped to the sample), the method of Python's
/// `statistics.quantiles` default. A single value is its own
/// quartiles; `NaN`s when empty.
pub fn quartiles_exclusive(xs: &[f64]) -> (f64, f64) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// `(wins, ties)`: pairs where the change read strictly lower, and equal.
pub fn wins_and_ties(parent: &[f64], change: &[f64]) -> (usize, usize) {
    parent
        .iter()
        .zip(change)
        .fold((0, 0), |(w, t), (p, c)| (w + usize::from(c < p), t + usize::from(c == p)))
}

/// Four significant digits with trailing zeros trimmed (`printf`'s `%.4g`
/// without the exponent form).
pub fn sig4(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let decimals = (3 - x.abs().log10().floor() as i32).max(0) as usize;
    let s = format!("{x:.decimals$}");
    if s.contains('.') {
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        s
    }
}

/// The calibration workload: a fixed xorshift loop, tens of milliseconds
/// on one core, that touches no memory.
pub fn spin() -> u64 {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..30_000_000 {
        x = std::hint::black_box(x ^ (x << 13) ^ (x >> 7) ^ (x << 17));
    }
    x
}

/// Host spare capacity from two timings of [`spin`]: `one` for a single
/// copy, `two` for two copies run at once. Two copies' throughput relative
/// to one: 2.0 when a second core is fully free, 1.0 when it is taken.
pub fn spin_ratio(one: Duration, two: Duration) -> f64 {
    2.0 * one.as_secs_f64() / two.as_secs_f64()
}

/// Renders the pairs table for one workload: the all-runs-correct line,
/// one row per metric both sides reported (in the parent's order), then
/// per-pair host state and, for each metric in `detail`, its per-pair
/// values.
pub fn render(workload: &str, pairs: &[Pair], detail: &[String]) -> String {
    let mut out = String::new();
    let seeds: Vec<String> = pairs.iter().map(|p| p.seed.to_string()).collect();
    let all_ok = pairs.iter().all(|p| p.parent.ok() && p.change.ok());
    out.push_str(&format!(
        "### {workload}: {} pairs, seeds {}; every run exited 0 with correct=true, failed=0: {}\n",
        pairs.len(),
        seeds.join(","),
        if all_ok { "True" } else { "False" }
    ));
    out.push_str(&format!(
        "{:<32}{:>30}{:>30}{:>15}  change wins\n",
        "metric", "parent p50 [q1, q3]", "change p50 [q1, q3]", "change/parent"
    ));
    let names: Vec<&str> = pairs
        .first()
        .map(|p| p.parent.metrics.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    let cell = |xs: &[f64]| {
        let (q1, q3) = quartiles_exclusive(xs);
        format!("{} [{}, {}]", sig4(median(xs)), sig4(q1), sig4(q3))
    };
    for name in names {
        let p: Vec<f64> = pairs.iter().filter_map(|p| p.parent.metric(name)).collect();
        let c: Vec<f64> = pairs.iter().filter_map(|p| p.change.metric(name)).collect();
        if p.len() != pairs.len() || c.len() != pairs.len() {
            continue;
        }
        let (wins, ties) = wins_and_ties(&p, &c);
        let tie_note = if ties > 0 { format!(" ({ties} ties)") } else { String::new() };
        out.push_str(&format!(
            "{name:<32}{:>30}{:>30}{:>15.3}  {wins}/{}{tie_note}\n",
            cell(&p),
            cell(&c),
            median(&c) / median(&p),
            pairs.len()
        ));
    }
    out.push_str("per pair: first side, 2-thread/1-thread spin ratio, nproc:\n");
    for chunk in pairs.chunks(5) {
        let row: Vec<String> = chunk
            .iter()
            .map(|p| {
                let first = if p.parent_first { "parent" } else { "change" };
                format!("{}: {first} {:.2} {}", p.seed, p.spin_ratio, p.nproc)
            })
            .collect();
        out.push_str(&format!("  {}\n", row.join(", ")));
    }
    for name in detail {
        out.push_str(&format!("per-pair {name}, parent -> change:\n"));
        for chunk in pairs.chunks(5) {
            let row: Vec<String> = chunk
                .iter()
                .map(|p| {
                    let v = |r: &Run| r.metric(name).map_or("-".to_string(), |x| format!("{x:.1}"));
                    format!("{}: {} -> {}", p.seed, v(&p.parent), v(&p.change))
                })
                .collect();
            out.push_str(&format!("  {}\n", row.join(", ")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(metrics: &[(&str, f64)]) -> Run {
        Run {
            exit_ok: true,
            correct: true,
            failed: 0,
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    #[test]
    fn median_and_exclusive_quartiles_match_reference_values() {
        // Reference: Python `statistics.median` / `statistics.quantiles`.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&ten), 5.5);
        assert_eq!(quartiles_exclusive(&ten), (2.75, 8.25));
        let odd = [7.0, 1.0, 3.0, 9.0, 5.0];
        assert_eq!(median(&odd), 5.0);
        assert_eq!(quartiles_exclusive(&odd), (2.0, 8.0));
        // Two values: the clamped positions extrapolate, as Python does.
        assert_eq!(quartiles_exclusive(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles_exclusive(&[4.0]), (4.0, 4.0));
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn wins_count_strictly_lower_and_ties_apart() {
        let parent = [10.0, 10.0, 10.0, 10.0];
        let change = [9.0, 10.0, 11.0, 5.0];
        assert_eq!(wins_and_ties(&parent, &change), (2, 1));
    }

    #[test]
    fn sig4_trims_like_percent_g() {
        assert_eq!(sig4(0.893), "0.893");
        assert_eq!(sig4(171.2), "171.2");
        assert_eq!(sig4(0.13942), "0.1394");
        assert_eq!(sig4(3.65), "3.65");
        assert_eq!(sig4(90.0), "90");
        assert_eq!(sig4(12345.6), "12346");
        assert_eq!(sig4(0.0), "0");
    }

    #[test]
    fn parses_the_last_line_and_flags_bad_runs() {
        let out = "setup_s 0.8 s\n{\"correct\":true,\"attempted\":9,\"failed\":0,\
                   \"metrics\":{\"setup_s\":{\"value\":0.8,\"unit\":\"s\"},\
                   \"latency_ms_p50.topk\":{\"value\":0.14,\"unit\":\"ms\"}}}\n\n";
        let r = Run::from_stdout(true, out);
        assert!(r.ok());
        assert_eq!(r.metric("setup_s"), Some(0.8));
        assert_eq!(r.metrics.len(), 2);
        assert!(!Run::from_stdout(false, out).ok(), "nonzero exit");
        assert!(!Run::from_stdout(true, "panicked\n").ok(), "no result line");
        let failed = out.replace("\"failed\":0", "\"failed\":2");
        assert!(!Run::from_stdout(true, &failed).ok(), "failed operations");
    }

    #[test]
    fn render_reports_medians_ratio_wins_and_host_state() {
        let pairs: Vec<Pair> = (0..4)
            .map(|i| Pair {
                seed: 100 + i,
                parent_first: i % 2 == 0,
                parent: run(&[("lat", 10.0 + i as f64), ("sim", 2.0)]),
                change: run(&[("lat", 5.0 + i as f64), ("sim", 2.0)]),
                spin_ratio: 1.5,
                nproc: 2,
            })
            .collect();
        let t = render("wiki-readonly", &pairs, &["lat".to_string()]);
        assert!(t.contains("4 pairs, seeds 100,101,102,103"), "{t}");
        assert!(t.contains("failed=0: True"), "{t}");
        let lat = t.lines().find(|l| l.starts_with("lat ")).expect("lat row");
        assert!(lat.contains("11.5 [10.25, 12.75]") && lat.contains("6.5 [5.25, 7.75]"), "{lat}");
        assert!(lat.contains("0.565") && lat.ends_with("4/4"), "{lat}");
        let sim = t.lines().find(|l| l.starts_with("sim ")).expect("sim row");
        assert!(sim.ends_with("0/4 (4 ties)"), "{sim}");
        assert!(t.contains("100: parent 1.50 2, 101: change 1.50 2"), "{t}");
        assert!(t.contains("100: 10.0 -> 5.0"), "{t}");
        let mut bad = pairs.clone();
        bad[2].change.correct = false;
        assert!(render("w", &bad, &[]).contains("failed=0: False"));
    }

    #[test]
    fn spin_ratio_is_the_two_copy_throughput() {
        let ms = Duration::from_millis;
        assert_eq!(spin_ratio(ms(40), ms(40)), 2.0, "second core free");
        assert_eq!(spin_ratio(ms(40), ms(80)), 1.0, "second core taken");
        assert!((spin_ratio(ms(40), ms(50)) - 1.6).abs() < 1e-12);
    }
}
