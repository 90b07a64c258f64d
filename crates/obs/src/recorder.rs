//! The recording front-end: counters, span timers, per-iteration gauges.
//!
//! A [`Recorder`] is either *live* (holds buffers behind mutexes) or a
//! *no-op* (`inner: None`) — the no-op is what every engine path gets when
//! tracing is disabled, and all its methods reduce to an `Option` check on
//! an immutable field, so the hot loops pay no atomics, no locks, and no
//! `Instant::now()` calls. The `off` cargo feature folds the constructor to
//! the no-op unconditionally, making the entire layer dead code at compile
//! time. A criterion bench (`obs_overhead`) holds the off-path to <1%
//! engine-throughput impact.
//!
//! Worker threads should not contend on the shared buffers once per sample;
//! they accumulate locally in a [`ThreadSpans`] and flush once when the
//! thread finishes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::trace::{IterationGauge, RunTrace, SpanSample, TraceMeta};

/// A named atomic event counter. Increments are `Relaxed`: counts are exact
/// (fetch_add never loses updates) but impose no ordering on the payload.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn add(&self, n: u64) {
        // ordering: relaxed (statistics counter — exact count, no payload).
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        // ordering: relaxed (statistics read; totals are reported after the
        // parallel regions join).
        self.value.load(Ordering::Relaxed)
    }
}

/// Cloneable handle to a registered [`Counter`]; a handle from a disabled
/// recorder is empty and its methods do nothing.
#[derive(Debug, Clone, Default)]
pub struct CounterHandle(Option<Arc<Counter>>);

impl CounterHandle {
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.add(n);
        }
    }

    pub fn incr(&self) {
        self.add(1);
    }
}

/// Token from [`Recorder::start`] / [`ThreadSpans::start`]; `None` when the
/// recorder is disabled, so the off-path never reads the clock.
#[derive(Debug, Clone, Copy)]
pub struct SpanStart(Option<Instant>);

#[derive(Debug, Default)]
struct Buffers {
    spans: Mutex<Vec<SpanSample>>,
    gauges: Mutex<Vec<IterationGauge>>,
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
}

/// The recording front-end shared (by reference) across worker threads.
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Option<Buffers>,
}

impl Recorder {
    /// A live recorder when `enabled` (and the crate was not built with the
    /// `off` feature); the no-op recorder otherwise.
    pub fn new(enabled: bool) -> Recorder {
        if cfg!(feature = "off") || !enabled {
            Recorder { inner: None }
        } else {
            Recorder { inner: Some(Buffers::default()) }
        }
    }

    /// The no-op recorder (same as `Recorder::new(false)`).
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Begins a span; reads the clock only when enabled.
    pub fn start(&self) -> SpanStart {
        SpanStart(self.inner.as_ref().map(|_| Instant::now()))
    }

    /// Ends a span begun with [`start`](Self::start), recording elapsed
    /// nanoseconds. Pass [`RUN_LEVEL`](crate::RUN_LEVEL) for `thread`/`iter` when the sample
    /// is not per-thread / per-iteration.
    pub fn end(&self, start: SpanStart, phase: &str, thread: i64, iter: i64) {
        if let (Some(buf), Some(t0)) = (&self.inner, start.0) {
            push_span(buf, phase, thread, iter, t0.elapsed().as_nanos() as f64);
        }
    }

    /// Records a span with an externally measured value (simulated cycles,
    /// pre-computed nanoseconds, claim counts).
    pub fn record(&self, phase: &str, thread: i64, iter: i64, value: f64) {
        if let Some(buf) = &self.inner {
            push_span(buf, phase, thread, iter, value);
        }
    }

    /// Records the per-iteration gauges (convergence trajectory).
    pub fn gauge(&self, iter: usize, residual: Option<f64>, active_partitions: Option<u64>) {
        if let Some(buf) = &self.inner {
            buf.gauges.lock().unwrap().push(IterationGauge {
                iter: iter as u64,
                residual,
                active_partitions,
            });
        }
    }

    /// Registers (or finds) a named counter and returns a handle to it.
    pub fn counter(&self, name: &str) -> CounterHandle {
        let Some(buf) = &self.inner else {
            return CounterHandle(None);
        };
        let mut reg = buf.counters.lock().unwrap();
        if let Some((_, c)) = reg.iter().find(|(n, _)| n == name) {
            return CounterHandle(Some(Arc::clone(c)));
        }
        let c = Arc::new(Counter::default());
        reg.push((name.to_string(), Arc::clone(&c)));
        CounterHandle(Some(c))
    }

    /// Sets a counter to an externally computed total (sim bridge).
    pub fn set_counter(&self, name: &str, value: u64) {
        if let Some(c) = self.counter(name).0 {
            // Counters start at 0 and the bridge sets each name once.
            c.add(value.saturating_sub(c.get()));
        }
    }

    /// A thread-local span buffer for worker `thread`; accumulates samples
    /// without touching the shared mutexes until
    /// [`flush`](ThreadSpans::flush).
    pub fn thread_spans(&self, thread: usize) -> ThreadSpans {
        ThreadSpans { thread: thread as i64, enabled: self.enabled(), buf: Vec::new() }
    }

    /// Consumes the recorder into a [`RunTrace`]; `None` when disabled.
    /// Spans are sorted (iter, thread, insertion order preserved otherwise)
    /// and counters by name, so traces are deterministic across runs with
    /// the same schedule.
    pub fn finish(self, meta: TraceMeta) -> Option<RunTrace> {
        let buf = self.inner?;
        let mut spans = buf.spans.into_inner().unwrap();
        spans.sort_by_key(|a| (a.iter, a.thread));
        let mut gauges = buf.gauges.into_inner().unwrap();
        gauges.sort_by_key(|g| g.iter);
        let mut counters: Vec<(String, u64)> =
            buf.counters.into_inner().unwrap().into_iter().map(|(n, c)| (n, c.get())).collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        Some(RunTrace { meta, spans, iterations: gauges, counters })
    }
}

fn push_span(buf: &Buffers, phase: &str, thread: i64, iter: i64, value: f64) {
    buf.spans.lock().unwrap().push(SpanSample { phase: phase.to_string(), thread, iter, value });
}

/// Per-worker span accumulator; see [`Recorder::thread_spans`].
#[derive(Debug)]
pub struct ThreadSpans {
    thread: i64,
    enabled: bool,
    buf: Vec<SpanSample>,
}

impl ThreadSpans {
    pub fn start(&self) -> SpanStart {
        SpanStart(self.enabled.then(Instant::now))
    }

    /// Ends a span begun with [`start`](Self::start) at iteration `iter`.
    pub fn end(&mut self, start: SpanStart, phase: &str, iter: usize) {
        if let Some(t0) = start.0 {
            self.record(phase, iter, t0.elapsed().as_nanos() as f64);
        }
    }

    /// Records an externally measured per-thread value.
    pub fn record(&mut self, phase: &str, iter: usize, value: f64) {
        if self.enabled {
            self.buf.push(SpanSample {
                phase: phase.to_string(),
                thread: self.thread,
                iter: iter as i64,
                value,
            });
        }
    }

    /// Appends the accumulated samples to the shared recorder — one lock
    /// acquisition per worker thread per run.
    pub fn flush(self, rec: &Recorder) {
        if let Some(buf) = &rec.inner {
            if !self.buf.is_empty() {
                buf.spans.lock().unwrap().extend(self.buf);
            }
        }
    }
}

/// Convenience: a [`TraceMeta`] with everything zeroed, for tests and
/// callers that fill fields incrementally.
impl Default for TraceMeta {
    fn default() -> TraceMeta {
        TraceMeta {
            engine: String::new(),
            path: crate::trace::PATH_NATIVE,
            machine: None,
            vertices: 0,
            edges: 0,
            threads: 0,
            partitions: None,
            iterations_run: 0,
            converged: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RUN_LEVEL;

    #[test]
    fn disabled_recorder_produces_no_trace() {
        let rec = Recorder::new(false);
        assert!(!rec.enabled());
        let s = rec.start();
        rec.end(s, "scatter", 0, 0);
        rec.record("gather", 0, 0, 1.0);
        rec.gauge(0, Some(0.5), None);
        rec.counter("claims").incr();
        let mut ts = rec.thread_spans(3);
        let s2 = ts.start();
        ts.end(s2, "scatter", 0);
        ts.flush(&rec);
        assert!(rec.finish(TraceMeta::default()).is_none());
    }

    /// With the `off` feature, even an "enabled" recorder records nothing —
    /// the kill switch is compile-time.
    #[cfg(feature = "off")]
    #[test]
    fn off_feature_disables_enabled_recorder() {
        let rec = Recorder::new(true);
        assert!(!rec.enabled());
        rec.record("scatter", 0, 0, 1.0);
        assert!(rec.finish(TraceMeta::default()).is_none());
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn spans_and_gauges_are_captured_and_sorted() {
        let rec = Recorder::new(true);
        rec.record("gather", RUN_LEVEL, 1, 10.0);
        rec.record("scatter", 2, 0, 5.0);
        rec.record("scatter", 0, 0, 7.0);
        rec.gauge(1, Some(0.1), Some(4));
        rec.gauge(0, Some(0.2), Some(4));
        let trace = rec.finish(TraceMeta::default()).unwrap();
        let order: Vec<(i64, i64)> = trace.spans.iter().map(|s| (s.iter, s.thread)).collect();
        assert_eq!(order, vec![(0, 0), (0, 2), (1, RUN_LEVEL)]);
        assert_eq!(trace.iterations[0].iter, 0);
        assert_eq!(trace.iterations[1].residual, Some(0.1));
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn counters_register_once_and_accumulate() {
        let rec = Recorder::new(true);
        let a = rec.counter("claims");
        let b = rec.counter("claims");
        a.add(3);
        b.incr();
        rec.set_counter("mem.reads", 100);
        let trace = rec.finish(TraceMeta::default()).unwrap();
        assert_eq!(trace.counter("claims"), Some(4));
        assert_eq!(trace.counter("mem.reads"), Some(100));
        // Sorted by name.
        assert_eq!(trace.counters[0].0, "claims");
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn thread_spans_flush_once() {
        let rec = Recorder::new(true);
        rayon::scope(|scope| {
            for j in 0..4usize {
                let rec = &rec;
                scope.spawn(move |_| {
                    let mut ts = rec.thread_spans(j);
                    for it in 0..3usize {
                        ts.record("scatter", it, 1.0);
                    }
                    ts.flush(rec);
                });
            }
        });
        let trace = rec.finish(TraceMeta::default()).unwrap();
        assert_eq!(trace.spans.len(), 12);
        assert_eq!(trace.phase_value("scatter"), Some(12.0));
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn concurrent_counter_increments_are_exact() {
        let rec = Recorder::new(true);
        let handle = rec.counter("events");
        rayon::scope(|scope| {
            for _ in 0..8 {
                let h = handle.clone();
                scope.spawn(move |_| {
                    for _ in 0..10_000 {
                        h.incr();
                    }
                });
            }
        });
        let trace = rec.finish(TraceMeta::default()).unwrap();
        assert_eq!(trace.counter("events"), Some(80_000));
    }
}
