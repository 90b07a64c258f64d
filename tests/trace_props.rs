//! Cross-crate tests of the observability layer: counter exactness under
//! concurrency, the zero-overhead-when-off contract, and the native/sim
//! `RunTrace` agreement for every engine.

use hipa::obs::{Recorder, RunTrace, TraceMeta, RUN_LEVEL};
use hipa::prelude::*;
use hipa_baselines::all_engines;
use proptest::prelude::*;

fn finish_trace(rec: Recorder) -> RunTrace {
    rec.finish(TraceMeta::default()).expect("enabled recorder must produce a trace")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Counter totals are exact whatever the interleaving: `threads` workers
    /// each add their own list of increments; the counter must end at the
    /// grand total.
    #[test]
    fn counters_exact_under_concurrent_increments(
        per_thread in prop::collection::vec(prop::collection::vec(0u64..1000, 1..40), 1..8)
    ) {
        let rec = Recorder::new(true);
        let expected: u64 = per_thread.iter().flatten().sum();
        rayon::scope(|s| {
            for incs in per_thread {
                let rec = &rec;
                s.spawn(move |_| {
                    let c = rec.counter("hits");
                    for v in incs {
                        c.add(v);
                    }
                });
            }
        });
        let trace = finish_trace(rec);
        prop_assert_eq!(trace.counter("hits"), Some(expected));
    }
}

/// The disabled recorder produces no trace at all, and its handles are
/// inert: spans, counters and gauges all vanish.
#[test]
fn disabled_recorder_emits_nothing() {
    let rec = Recorder::new(false);
    assert!(!rec.enabled());
    let t = rec.start();
    rec.end(t, "phase", 0, 0);
    rec.counter("c").incr();
    rec.gauge(0, Some(1.0), None);
    let mut spans = rec.thread_spans(0);
    let t = spans.start();
    spans.end(t, "phase", 0);
    spans.flush(&rec);
    assert!(rec.finish(TraceMeta::default()).is_none());
}

/// Disabled engines return `trace: None` on both paths; the ranks they
/// produce are bitwise unaffected by turning tracing on.
#[test]
fn tracing_never_perturbs_ranks() {
    let g = hipa::graph::datasets::small_test_graph(21);
    for cfg in [
        PageRankConfig::default().with_iterations(6),
        PageRankConfig::default().with_iterations(30).with_tolerance(1e-5),
    ] {
        for e in all_engines() {
            let plain = e.run_native(&g, &cfg, &NativeOpts::new(4, 2048));
            let traced = e.run_native(&g, &cfg, &NativeOpts::new(4, 2048).with_trace(true));
            assert!(plain.trace.is_none(), "{}: trace off must yield None", e.name());
            assert_eq!(plain.ranks, traced.ranks, "{} native ranks drifted", e.name());

            let sopts =
                SimOpts::new(MachineSpec::tiny_test()).with_threads(4).with_partition_bytes(2048);
            let plain_s = e.run_sim(&g, &cfg, &sopts);
            let traced_s = e.run_sim(&g, &cfg, &sopts.clone().with_trace(true));
            assert!(plain_s.trace.is_none(), "{}: sim trace off must yield None", e.name());
            assert_eq!(plain_s.ranks, traced_s.ranks, "{} sim ranks drifted", e.name());
            assert_eq!(
                plain_s.report.cycles,
                traced_s.report.cycles,
                "{}: tracing must not change simulated cycles",
                e.name()
            );
        }
    }
}

/// A trace's `(phase, thread, iter)` span keys, sorted: the per-thread
/// ones, or the run-level ones (region and whole-run spans).
fn span_keys(t: &RunTrace, run_level: bool) -> Vec<(String, i64, i64)> {
    let mut keys: Vec<_> = t
        .spans
        .iter()
        .filter(|s| (s.thread == RUN_LEVEL) == run_level)
        .map(|s| (s.phase.clone(), s.thread, s.iter))
        .collect();
    keys.sort();
    keys
}

/// Every engine's native and sim traces agree on the run's shape: same
/// iteration count, same converged flag, residual recorded every iteration,
/// and matching residual *values* (both paths execute bit-identical rank
/// updates, and the trace reduction is deterministic). They also record the
/// same spans: the same per-thread `(phase, thread, iter)` keys and the same
/// run-level keys for every engine (v-PR and Polymer record theirs through
/// one region runner on both substrates; HiPa's native barrier workers
/// record each region span on thread 0, from its phase start to its barrier
/// exit). The one key only HiPa's sim trace carries is the simulated
/// threads' first-touch `init` phase.
#[test]
fn native_and_sim_traces_agree() {
    let g = hipa::graph::datasets::small_test_graph(22);
    let cfg = PageRankConfig::default().with_iterations(40).with_tolerance(1e-4);
    for e in all_engines() {
        let nat = e.run_native(&g, &cfg, &NativeOpts::new(4, 2048).with_trace(true));
        let sopts = SimOpts::new(MachineSpec::tiny_test())
            .with_threads(4)
            .with_partition_bytes(2048)
            .with_trace(true);
        let sim = e.run_sim(&g, &cfg, &sopts);
        let nt = nat.trace.expect("native trace");
        let st = sim.trace.expect("sim trace");
        assert_eq!(nt.meta.engine, st.meta.engine);
        assert_eq!(nt.meta.iterations_run, st.meta.iterations_run, "{}", e.name());
        assert_eq!(nt.meta.converged, st.meta.converged, "{}", e.name());
        assert!(nt.meta.converged, "{} should converge at 1e-4 within 40 iters", e.name());
        assert_eq!(nt.iterations.len() as u64, nt.meta.iterations_run);
        assert_eq!(st.iterations.len() as u64, st.meta.iterations_run);
        assert_eq!(nt.time_unit(), "ns");
        assert_eq!(st.time_unit(), "cycles");
        for (a, b) in nt.iterations.iter().zip(&st.iterations) {
            assert_eq!(a.iter, b.iter);
            let (ra, rb) =
                (a.residual.expect("native residual"), b.residual.expect("sim residual"));
            assert_eq!(ra, rb, "{} residual diverged at iter {}", e.name(), a.iter);
        }
        assert_eq!(span_keys(&nt, false), span_keys(&st, false), "{} per-thread spans", e.name());
        let mut sim_run_level = span_keys(&st, true);
        if e.name() == "HiPa" {
            sim_run_level.retain(|(phase, _, _)| phase != "init");
        }
        assert_eq!(span_keys(&nt, true), sim_run_level, "{} run-level spans", e.name());
    }
}

/// Forward-compat contract (prep for `hipa-obs/v2`): a reader of today's
/// schema must skip unknown object fields anywhere in the document — a
/// future writer may *add* fields freely — but must refuse a bumped schema
/// string outright, because a version bump signals changed semantics.
#[test]
fn trace_parser_skips_unknown_fields_and_rejects_schema_bumps() {
    use hipa::obs::Json;

    let g = hipa::graph::datasets::small_test_graph(24);
    let cfg = PageRankConfig::default().with_iterations(4);
    let sopts = SimOpts::new(MachineSpec::tiny_test()).with_threads(2).with_trace(true);
    let trace = HiPa.run_sim(&g, &cfg, &sopts).trace.expect("sim trace");

    // Inject unknown fields at the top level, into a span, and into an
    // iteration gauge; the parse must come back bitwise-equal.
    let mut v = Json::parse(&trace.to_json()).expect("own JSON parses");
    let inject = |obj: &mut Json, key: &str| {
        if let Json::Obj(fields) = obj {
            fields.push((key.to_string(), Json::Arr(vec![Json::Num(7.0), Json::Null])));
        }
    };
    inject(&mut v, "x_v2_extension");
    if let Some(Json::Arr(spans)) = match &mut v {
        Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == "spans").map(|(_, s)| s),
        _ => None,
    } {
        inject(&mut spans[0], "x_span_cost_model");
    }
    if let Some(Json::Arr(iters)) = match &mut v {
        Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == "iterations").map(|(_, s)| s),
        _ => None,
    } {
        inject(&mut iters[0], "x_frontier_bytes");
    }
    let reparsed = RunTrace::from_json(&v.render()).expect("unknown fields must be skipped");
    assert_eq!(reparsed, trace);
    // An array document with decorated members parses too.
    let arr = Json::Arr(vec![v.clone(), Json::parse(&trace.to_json()).unwrap()]);
    let many = RunTrace::parse_many(&arr.render()).expect("array with unknown fields");
    assert_eq!(many, vec![trace.clone(), trace.clone()]);

    // Version bump: hard error naming both schemas.
    let bumped = trace.to_json().replace("hipa-obs/v1", "hipa-obs/v2");
    let err = RunTrace::from_json(&bumped).expect_err("v2 must be rejected");
    assert!(err.contains("hipa-obs/v2"), "error should name the found schema: {err}");
    assert!(err.contains("hipa-obs/v1"), "error should name the supported schema: {err}");
    // And a document with no schema at all is rejected, not guessed at.
    let stripped = trace.to_json().replacen("\"schema\":\"hipa-obs/v1\",", "", 1);
    assert!(RunTrace::from_json(&stripped).expect_err("schema required").contains("schema"));
}

/// Engine traces survive the JSON round trip, one object or as an array.
#[test]
fn engine_traces_round_trip_json() {
    let g = hipa::graph::datasets::small_test_graph(23);
    let cfg = PageRankConfig::default().with_iterations(5).with_tolerance(1e-6);
    let mut traces = Vec::new();
    for e in all_engines() {
        let sopts = SimOpts::new(MachineSpec::tiny_test()).with_threads(2).with_trace(true);
        let run = e.run_sim(&g, &cfg, &sopts);
        traces.push(run.trace.expect("sim trace"));
    }
    for t in &traces {
        let back = RunTrace::from_json(&t.to_json()).expect("round trip");
        assert_eq!(t, &back);
        assert!(!t.render().is_empty());
    }
    let arr = RunTrace::array_to_json(&traces);
    let back = RunTrace::parse_many(&arr).expect("array round trip");
    assert_eq!(traces, back);
}
