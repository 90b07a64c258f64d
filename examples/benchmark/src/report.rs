//! What a run reports: named metrics with units, the tally of attempted and
//! failed operations, and the check that the metrics are exactly the ones
//! `BENCHMARK.json` declares.

use hipa::obs::Json;

/// Metrics in emission order, and the operations attempted and failed.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Counts one operation; a failed one is reported on stderr.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }
}

/// The metric list (`"end_to_end"` or `"per_layer"`) declared in a
/// `BENCHMARK.json` document, as `(name, unit)` pairs.
pub fn declared(doc: &str, list: &str) -> Result<Vec<(String, String)>, String> {
    let doc = Json::parse(doc)?;
    let items = doc.get(list).and_then(Json::as_arr).ok_or(format!("no '{list}' list"))?;
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k).and_then(Json::as_str).map(str::to_string).ok_or(format!("{list}: no {k}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// The workload names a `BENCHMARK.json` document declares.
pub fn declared_workloads(doc: &str) -> Result<Vec<String>, String> {
    let doc = Json::parse(doc)?;
    let items = doc.get("workloads").and_then(Json::as_arr).ok_or("no 'workloads' list")?;
    items
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).map(str::to_string).ok_or("unnamed workload"))
        .map(|r| r.map_err(str::to_string))
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Every way the emitted metrics differ from the declared ones: a name
/// outside `[A-Za-z0-9_.-]+`, a repeated name, a value that is not a finite
/// number (no samples), an undeclared metric, a wrong unit, or a declared
/// metric that was not emitted.
pub fn coverage_problems(
    emitted: &[(String, f64, &'static str)],
    declared: &[(String, String)],
) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, (name, value, unit)) in emitted.iter().enumerate() {
        if !valid_name(name) {
            problems.push(format!("metric name '{name}' is outside [A-Za-z0-9_.-]+"));
        }
        if !value.is_finite() {
            problems.push(format!("metric '{name}' has no value"));
        }
        if emitted[..i].iter().any(|(n, _, _)| n == name) {
            problems.push(format!("metric '{name}' emitted twice"));
        }
        match declared.iter().find(|(n, _)| n == name) {
            None => problems.push(format!("metric '{name}' is not declared")),
            Some((_, u)) if u != unit => {
                problems.push(format!("metric '{name}' has unit {unit}, declared {u}"))
            }
            Some(_) => {}
        }
    }
    for (name, _) in declared {
        if !emitted.iter().any(|(n, _, _)| n == name) {
            problems.push(format!("declared metric '{name}' was not emitted"));
        }
    }
    problems
}

/// The one-line result object: `correct`, `attempted`, `failed`, and every
/// metric as `{"value": v, "unit": u}` (`null` for a value that is not a
/// finite number).
pub fn result_json(correct: bool, report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { Json::Num(*value) } else { Json::Null };
            let m = Json::Obj(vec![
                ("value".into(), value),
                ("unit".into(), Json::Str((*unit).into())),
            ]);
            (name.clone(), m)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(report.attempted as f64)),
        ("failed".into(), Json::Num(report.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"workloads": [{"name": "a", "why": "x"}],
        "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                       {"name": "solve_ms.hipa", "unit": "ms", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "graph.generate_s", "unit": "s", "better": "lower"}]}"#;

    fn metrics(items: &[(&str, &'static str)]) -> Vec<(String, f64, &'static str)> {
        items.iter().map(|&(n, u)| (n.to_string(), 1.5, u)).collect()
    }

    #[test]
    fn exact_coverage_passes() {
        let d = declared(DOC, "end_to_end").unwrap();
        let m = metrics(&[("solve_ms.hipa", "ms"), ("setup_s", "s")]);
        assert!(coverage_problems(&m, &d).is_empty());
        assert_eq!(declared_workloads(DOC).unwrap(), ["a"]);
    }

    #[test]
    fn coverage_flags_every_mismatch() {
        let d = declared(DOC, "end_to_end").unwrap();
        let mut m = metrics(&[("setup_s", "ms"), ("bad name", "s"), ("setup_s", "s")]);
        m[1].1 = f64::NAN;
        let p = coverage_problems(&m, &d).join("\n");
        assert!(p.contains("has unit ms"), "{p}");
        assert!(p.contains("outside"), "{p}");
        assert!(p.contains("not declared"), "{p}");
        assert!(p.contains("emitted twice"), "{p}");
        assert!(p.contains("'bad name' has no value"), "{p}");
        assert!(p.contains("'solve_ms.hipa' was not emitted"), "{p}");
    }

    #[test]
    fn result_line_round_trips() {
        let mut r = Report { metrics: metrics(&[("setup_s", "s")]), ..Report::default() };
        r.op(true, String::new);
        let line = result_json(true, &r);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("failed").and_then(Json::as_u64), Some(0));
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }
}
