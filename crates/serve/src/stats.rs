//! Serve-side metrics: per-class latency histograms, epoch-build stage
//! times, request counters, queue-depth gauges — all exportable into a
//! `RunTrace` through the existing `hipa-obs` recorder.

use crate::sampler::SampleFrame;
use hipa_obs::{Counter, Histogram, Recorder, RUN_LEVEL};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Duration;

/// Shared statistics of one [`Server`](crate::Server) lifetime. Clients and
/// the scheduler record concurrently; everything is commutative counters or
/// histograms, so totals depend only on what was served, not on timing.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Request latency (submit → response), nanoseconds, per request class.
    pub topk_latency: Histogram,
    pub ppr_latency: Histogram,
    pub edges_latency: Histogram,
    /// Requests answered per class (errors count toward their class too).
    pub topk_served: Counter,
    pub ppr_served: Counter,
    pub edges_served: Counter,
    /// Requests answered with [`Response::Error`](crate::Response::Error).
    pub errors: Counter,
    /// Multi-vector PPR sweeps run (one per batch chunk).
    pub ppr_batches: Counter,
    /// PPR source-set requests that went through a batched sweep — with
    /// `ppr_batches` this gives the realized amortization factor.
    pub ppr_batched_sources: Counter,
    /// Time per multi-vector PPR sweep, nanoseconds: one sample per
    /// `solve_batch` call, its wall time divided by the sweeps it ran (its
    /// longest member's iterations). A personalized answer's solve time is
    /// about `iterations × ppr_sweep`.
    pub ppr_sweep: Histogram,
    /// Delta re-rank epochs committed.
    pub epochs: Counter,
    /// Epoch-build stage times, nanoseconds: the CSR graph (built from the
    /// edge list at start, merged from the previous epoch's at a commit),
    /// the PCPM layout and solver, the PageRank-Delta re-rank, and the sort
    /// of the rank order. `csr`, `rerank` and `order` hold one sample per
    /// epoch (epoch 0 included, so `epochs + 1`); `layout` holds one per
    /// epoch that a personalized batch read (epoch 0 always), exported as
    /// `serve.epoch.layout.count`. Fewer layouts than `epochs + 1` means
    /// commits that no personalized read followed.
    pub epoch_csr: Histogram,
    pub epoch_layout: Histogram,
    pub epoch_rerank: Histogram,
    pub epoch_order: Histogram,
    /// Admission-queue depth observed at each scheduler drain.
    pub queue_depth: Histogram,
    /// The per-drain depth series, in drain order (for trace export).
    pub queue_depth_series: Mutex<Vec<u64>>,
    /// Bounded time-series ring of background-sampler ticks (empty unless
    /// [`crate::ServeConfig::sampler`] is set).
    pub sampler_frames: Mutex<VecDeque<SampleFrame>>,
}

impl ServeStats {
    pub fn total_served(&self) -> u64 {
        self.topk_served.get() + self.ppr_served.get() + self.edges_served.get()
    }

    /// Records one scheduler drain observing `depth` queued requests.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_depth.record(depth);
        self.queue_depth_series.lock().unwrap().push(depth);
    }

    /// Pushes one sampler tick into the ring, evicting the oldest frame at
    /// `capacity` so memory stays bounded for resident servers.
    pub fn push_frame(&self, frame: SampleFrame, capacity: usize) {
        let mut ring = self.sampler_frames.lock().unwrap();
        while ring.len() >= capacity.max(1) {
            ring.pop_front();
        }
        ring.push_back(frame);
    }

    /// Snapshot of the sampler ring, oldest first.
    pub fn frames(&self) -> Vec<SampleFrame> {
        self.sampler_frames.lock().unwrap().iter().cloned().collect()
    }

    /// The epoch-build stage histograms by stage name.
    pub fn epoch_stages(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("csr", &self.epoch_csr),
            ("layout", &self.epoch_layout),
            ("rerank", &self.epoch_rerank),
            ("order", &self.epoch_order),
        ]
    }

    /// All-class latency histogram: the three per-class histograms merged
    /// into a fresh one (wait-free reads; recording continues undisturbed).
    pub fn merged_latency(&self) -> Histogram {
        let all = Histogram::new();
        all.merge(&self.topk_latency);
        all.merge(&self.ppr_latency);
        all.merge(&self.edges_latency);
        all
    }

    /// Plain-text metric exposition (one `name{labels} value` line per
    /// metric, `#`-prefixed comments) — the format the sampler rewrites to
    /// [`crate::sampler::SamplerConfig::expo_path`] each tick so standard
    /// scrapers can watch a resident server.
    pub fn render_exposition(&self, queue_depth_now: u64, uptime: Duration) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# hipa-serve metrics (plain-text exposition)");
        let _ = writeln!(out, "hipa_serve_uptime_seconds {:.3}", uptime.as_secs_f64());
        let _ = writeln!(out, "hipa_serve_requests_total {}", self.total_served());
        let _ = writeln!(out, "hipa_serve_errors_total {}", self.errors.get());
        let _ = writeln!(out, "hipa_serve_epochs_total {}", self.epochs.get());
        let _ = writeln!(out, "hipa_serve_queue_depth {queue_depth_now}");
        for (class, served, h) in [
            ("topk", &self.topk_served, &self.topk_latency),
            ("ppr", &self.ppr_served, &self.ppr_latency),
            ("edges", &self.edges_served, &self.edges_latency),
        ] {
            let _ = writeln!(out, "hipa_serve_served_total{{class=\"{class}\"}} {}", served.get());
            if h.is_empty() {
                continue;
            }
            for (q, label) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                let _ = writeln!(
                    out,
                    "hipa_serve_latency_ns{{class=\"{class}\",quantile=\"{label}\"}} {}",
                    h.quantile(q)
                );
            }
            let _ = writeln!(out, "hipa_serve_latency_ns_max{{class=\"{class}\"}} {}", h.max());
        }
        for (stage, h) in self.epoch_stages() {
            if h.is_empty() {
                continue;
            }
            for (q, label) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                let _ = writeln!(
                    out,
                    "hipa_serve_epoch_stage_ns{{stage=\"{stage}\",quantile=\"{label}\"}} {}",
                    h.quantile(q)
                );
            }
            let _ = writeln!(out, "hipa_serve_epoch_stage_ns_max{{stage=\"{stage}\"}} {}", h.max());
        }
        if !self.ppr_sweep.is_empty() {
            for (q, label) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                let _ = writeln!(
                    out,
                    "hipa_serve_ppr_sweep_ns{{quantile=\"{label}\"}} {}",
                    self.ppr_sweep.quantile(q)
                );
            }
            let _ = writeln!(out, "hipa_serve_ppr_sweep_ns_max {}", self.ppr_sweep.max());
        }
        let all = self.merged_latency();
        if !all.is_empty() {
            for (q, label) in [(0.50, "0.5"), (0.99, "0.99")] {
                let _ = writeln!(
                    out,
                    "hipa_serve_latency_ns{{class=\"all\",quantile=\"{label}\"}} {}",
                    all.quantile(q)
                );
            }
        }
        if let Some(f) = self.sampler_frames.lock().unwrap().back() {
            let _ = writeln!(out, "hipa_serve_throughput_rps {}", f.throughput_rps);
            let _ = writeln!(out, "hipa_serve_sampler_ticks_total {}", f.seq + 1);
        }
        out
    }

    /// Writes every statistic into `rec` under the `serve.` counter
    /// namespace plus a `queue.depth` metric series (dotted phases are
    /// excluded from flamegraph export by convention). `wall` is the
    /// measurement window for the throughput counter.
    pub fn export_into(&self, rec: &Recorder, wall: Duration) {
        rec.set_counter("serve.topk.served", self.topk_served.get());
        rec.set_counter("serve.ppr.served", self.ppr_served.get());
        rec.set_counter("serve.edges.served", self.edges_served.get());
        rec.set_counter("serve.errors", self.errors.get());
        rec.set_counter("serve.ppr.batches", self.ppr_batches.get());
        rec.set_counter("serve.ppr.batched_sources", self.ppr_batched_sources.get());
        rec.set_counter("serve.epochs", self.epochs.get());
        rec.set_counter("serve.epoch.layout.count", self.epoch_layout.count());
        let classes = [
            ("topk".to_string(), &self.topk_latency),
            ("ppr".to_string(), &self.ppr_latency),
            ("edges".to_string(), &self.edges_latency),
        ];
        let stages = self.epoch_stages().map(|(stage, h)| (format!("epoch.{stage}"), h));
        let sweep = ("ppr.sweep".to_string(), &self.ppr_sweep);
        for (name, h) in classes.into_iter().chain(stages).chain([sweep]) {
            if h.is_empty() {
                continue;
            }
            rec.set_counter(&format!("serve.{name}.p50_ns"), h.quantile(0.50));
            rec.set_counter(&format!("serve.{name}.p95_ns"), h.quantile(0.95));
            rec.set_counter(&format!("serve.{name}.p99_ns"), h.quantile(0.99));
            rec.set_counter(&format!("serve.{name}.max_ns"), h.max());
            rec.set_counter(&format!("serve.{name}.mean_ns"), h.mean());
        }
        rec.set_counter("serve.queue.max_depth", self.queue_depth.max());
        for (i, &depth) in self.queue_depth_series.lock().unwrap().iter().enumerate() {
            rec.record("queue.depth", RUN_LEVEL, i as i64, depth as f64);
        }
        // Background-sampler trajectory: dotted `sampler.*` metric series
        // (excluded from flamegraphs, advisory under the perf-gate policy).
        let frames = self.sampler_frames.lock().unwrap();
        if !frames.is_empty() {
            rec.set_counter("sampler.frames", frames.len() as u64);
            for f in frames.iter() {
                let i = f.seq as i64;
                rec.record("sampler.queue.depth", RUN_LEVEL, i, f.queue_depth as f64);
                rec.record("sampler.p99_ns", RUN_LEVEL, i, f.latency_p99_ns as f64);
                rec.record("sampler.throughput_rps", RUN_LEVEL, i, f.throughput_rps as f64);
            }
        }
        drop(frames);
        let secs = wall.as_secs_f64();
        if secs > 0.0 {
            rec.set_counter(
                "serve.throughput_rps",
                (self.total_served() as f64 / secs).round() as u64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipa_obs::TraceMeta;

    #[test]
    fn export_writes_the_serve_namespace() {
        let stats = ServeStats::default();
        stats.topk_served.add(10);
        stats.ppr_served.add(5);
        for i in 0..100 {
            stats.ppr_latency.record(1000 + i * 10);
        }
        stats.observe_queue_depth(3);
        stats.observe_queue_depth(7);
        let rec = Recorder::new(true);
        stats.export_into(&rec, Duration::from_secs(2));
        let trace = rec.finish(TraceMeta::default()).unwrap();
        assert_eq!(trace.counter("serve.topk.served"), Some(10));
        assert_eq!(trace.counter("serve.throughput_rps"), Some(8)); // 15 / 2s
        assert!(trace.counter("serve.ppr.p95_ns").unwrap() >= 1000);
        assert_eq!(trace.counter("serve.queue.max_depth"), Some(7));
        assert_eq!(trace.spans.iter().filter(|s| s.phase == "queue.depth").count(), 2);
    }

    #[test]
    fn epoch_stages_export_as_advisory_ns_counters() {
        let stats = ServeStats::default();
        for (i, (_, h)) in stats.epoch_stages().into_iter().enumerate() {
            h.record(1000 * (i as u64 + 1));
        }
        let rec = Recorder::new(true);
        stats.export_into(&rec, Duration::from_secs(1));
        let trace = rec.finish(TraceMeta::default()).unwrap();
        for stage in ["csr", "layout", "rerank", "order"] {
            for q in ["p50", "p95", "p99", "max", "mean"] {
                let name = format!("serve.epoch.{stage}.{q}_ns");
                assert!(trace.counter(&name).is_some(), "{name}");
            }
        }
        assert!(trace.counter("serve.epoch.order.max_ns").unwrap() >= 4000);
        let text = stats.render_exposition(0, Duration::from_secs(1));
        assert!(text.contains("hipa_serve_epoch_stage_ns{stage=\"rerank\",quantile=\"0.5\"}"));
        assert!(text.contains("hipa_serve_epoch_stage_ns_max{stage=\"order\"}"), "{text}");
    }

    #[test]
    fn layouts_built_export_next_to_epochs() {
        let stats = ServeStats::default();
        stats.epochs.add(3);
        stats.epoch_layout.record(7);
        let rec = Recorder::new(true);
        stats.export_into(&rec, Duration::from_secs(1));
        let trace = rec.finish(TraceMeta::default()).unwrap();
        assert_eq!(trace.counter("serve.epochs"), Some(3));
        assert_eq!(trace.counter("serve.epoch.layout.count"), Some(1));
        assert_eq!(trace.counter("serve.epoch.rerank.count"), None);
        // Zero layouts still export, so the trace always carries the name.
        let rec = Recorder::new(true);
        ServeStats::default().export_into(&rec, Duration::from_secs(1));
        let trace = rec.finish(TraceMeta::default()).unwrap();
        assert_eq!(trace.counter("serve.epoch.layout.count"), Some(0));
    }

    #[test]
    fn ppr_sweep_time_exports_as_ns_counters_and_exposition() {
        let stats = ServeStats::default();
        let text = stats.render_exposition(0, Duration::from_secs(1));
        assert!(!text.contains("hipa_serve_ppr_sweep_ns"), "no sweeps, no lines: {text}");
        for ns in [3_000_000, 4_000_000, 9_000_000] {
            stats.ppr_sweep.record(ns);
        }
        let rec = Recorder::new(true);
        stats.export_into(&rec, Duration::from_secs(1));
        let trace = rec.finish(TraceMeta::default()).unwrap();
        for q in ["p50", "p95", "p99", "max", "mean"] {
            let name = format!("serve.ppr.sweep.{q}_ns");
            assert!(trace.counter(&name).is_some(), "{name}");
        }
        assert!(trace.counter("serve.ppr.sweep.max_ns").unwrap() >= 9_000_000);
        let text = stats.render_exposition(0, Duration::from_secs(1));
        assert!(text.contains("hipa_serve_ppr_sweep_ns{quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("hipa_serve_ppr_sweep_ns_max"), "{text}");
    }

    fn frame(seq: u64, served: u64) -> SampleFrame {
        SampleFrame {
            seq,
            elapsed_ns: seq * 1000,
            queue_depth: seq,
            total_served: served,
            errors: 0,
            latency_p50_ns: 100,
            latency_p99_ns: 900,
            throughput_rps: 50,
        }
    }

    #[test]
    fn frame_ring_is_bounded_and_ordered() {
        let stats = ServeStats::default();
        for i in 0..10 {
            stats.push_frame(frame(i, i * 2), 4);
        }
        let frames = stats.frames();
        assert_eq!(frames.len(), 4);
        assert_eq!(frames.first().unwrap().seq, 6, "oldest frames evicted");
        assert_eq!(frames.last().unwrap().seq, 9);
    }

    #[test]
    fn frames_export_as_sampler_series() {
        let stats = ServeStats::default();
        stats.push_frame(frame(0, 5), 8);
        stats.push_frame(frame(1, 9), 8);
        let rec = Recorder::new(true);
        stats.export_into(&rec, Duration::from_secs(1));
        let trace = rec.finish(hipa_obs::TraceMeta::default()).unwrap();
        assert_eq!(trace.counter("sampler.frames"), Some(2));
        assert_eq!(trace.spans.iter().filter(|s| s.phase == "sampler.queue.depth").count(), 2);
        assert_eq!(trace.spans.iter().filter(|s| s.phase == "sampler.p99_ns").count(), 2);
        // Dotted metric series stay out of the flamegraph export.
        assert!(!trace.to_collapsed().contains("sampler"));
    }

    #[test]
    fn merged_latency_spans_all_classes() {
        let stats = ServeStats::default();
        stats.topk_latency.record(100);
        stats.ppr_latency.record(1_000_000);
        stats.edges_latency.record(10_000);
        let all = stats.merged_latency();
        assert_eq!(all.count(), 3);
        assert!(all.max() >= 1_000_000);
        // Re-merging later picks up new recordings: snapshots are cheap.
        stats.topk_latency.record(50);
        assert_eq!(stats.merged_latency().count(), 4);
    }

    #[test]
    fn exposition_renders_expected_lines() {
        let stats = ServeStats::default();
        stats.topk_served.add(3);
        stats.topk_latency.record(500);
        stats.topk_latency.record(700);
        stats.push_frame(frame(2, 3), 8);
        let text = stats.render_exposition(5, Duration::from_secs(10));
        assert!(text.contains("hipa_serve_uptime_seconds 10.000"), "{text}");
        assert!(text.contains("hipa_serve_requests_total 3"), "{text}");
        assert!(text.contains("hipa_serve_queue_depth 5"), "{text}");
        assert!(text.contains("hipa_serve_served_total{class=\"topk\"} 3"), "{text}");
        assert!(text.contains("class=\"topk\",quantile=\"0.99\""), "{text}");
        assert!(text.contains("hipa_serve_throughput_rps 50"), "{text}");
        assert!(text.contains("hipa_serve_sampler_ticks_total 3"), "{text}");
        // Classes with no traffic emit no quantile lines.
        assert!(!text.contains("class=\"ppr\",quantile"), "{text}");
    }
}
