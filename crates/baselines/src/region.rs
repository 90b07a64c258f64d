//! The vertex-centric engines' parallel regions (Algorithm 1: one region
//! per phase), on either substrate.
//!
//! v-PR and Polymer write each region body once, over
//! [`hipa_core::kernel::Charge`] keyed by the index of an array in the
//! engine's [`Table`] of simulated regions, and one iteration loop generic
//! over a [`Substrate`]:
//!
//! * [`OnPool`] runs a region's bodies on the run's rayon pool, one scope
//!   per region, with a span per thread and one for the region;
//! * [`OnMachine`] creates a simulated pool per region with the engine's
//!   placement (the thread-recreation cost Algorithm 1 pays), replays the
//!   bodies under `PhaseBalance::Dynamic`, and records each simulated
//!   thread's cycles (when tracing) and the region's.
//!
//! disjointness: one body per thread slot (`Substrate::region`) — slot `j`
//! of a region's results is written only by body `j`; what a body writes
//! beyond that is its engine's plan.

use hipa_core::convergence;
use hipa_core::disjoint::SharedSlice;
use hipa_core::kernel::{base_value, Charge, Native, Sim};
use hipa_core::{
    preorder, DanglingPolicy, Engine, NativeOpts, NativeRun, PageRankConfig, RunEnd, SimOpts,
    SimRun,
};
use hipa_graph::DiGraph;
use hipa_numasim::{PhaseBalance, RegionId, SimMachine, ThreadCtx, ThreadPlacement};
use hipa_obs::{PoolCounters, Recorder, RUN_LEVEL};
use std::time::Instant;

/// An engine's simulated regions, indexed by array: each one's region and
/// element width, in allocation order.
pub type Table = Vec<(RegionId, usize)>;

/// Which residual work a run does, by one rule on both substrates: the
/// modelled program reads the old ranks (a charged access) only to check
/// the stop rule's tolerance `tol`; the host also sums residual terms for
/// the trace's convergence trajectory, so cycles do not depend on tracing.
#[derive(Debug, Clone, Copy)]
pub struct Track {
    pub tol: Option<f64>,
    pub model: bool,
    pub host: bool,
}

impl Track {
    pub fn new(cfg: &PageRankConfig, rec: &Recorder) -> Self {
        let tol = convergence::effective_tolerance(cfg.tolerance);
        Track { tol, model: tol.is_some(), host: tol.is_some() || rec.enabled() }
    }
}

/// A pull engine's ranks, iterations run, and whether the stop rule fired.
pub type Solved = (Vec<f32>, usize, bool);

/// A native run of engine `e` on `opts.threads` pool workers (on the
/// relabelled graph first, if `opts` asks for a reordering). `setup` (given
/// the thread count) and the pool's construction are timed as
/// preprocessing, `solve` as compute.
pub fn native<X>(
    e: &dyn Engine,
    g: &DiGraph,
    cfg: &PageRankConfig,
    opts: &NativeOpts,
    setup: impl FnOnce(usize) -> X,
    solve: impl FnOnce(&mut OnPool, &Recorder, X) -> Solved,
) -> NativeRun {
    if let Some(run) = preorder::native(g, cfg, opts, |g, cfg, opts| e.run_native(g, cfg, opts)) {
        return run;
    }
    if g.num_vertices() == 0 {
        return NativeRun::empty(e.name(), cfg, opts);
    }
    let rec = Recorder::new(opts.trace);
    let threads = opts.threads.max(1);
    let pc = PoolCounters::start(&rec);
    let t0 = Instant::now();
    let x = setup(threads);
    // The `threads` knob bounds the run's concurrency: the pool has exactly
    // `threads` resident workers and every region's bodies land on them.
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("rayon pool");
    let preprocess = t0.elapsed();
    let t1 = Instant::now();
    let (ranks, iterations_run, converged) =
        solve(&mut OnPool { pool, threads, rec: &rec }, &rec, x);
    let compute = t1.elapsed();
    let engine = e.name();
    let end = RunEnd { engine, g, threads, partitions: None, ranks, iterations_run, converged };
    NativeRun::finish(end, rec, pc, preprocess, compute)
}

/// A simulated run of engine `e` on `opts.threads` simulated threads (at
/// least `min_threads`, at most the machine's logical CPUs; on the
/// relabelled graph first, if `opts` asks for a reordering). `setup` (given
/// the machine and the thread count) allocates the engine's regions and
/// charges its preprocessing; it returns them with the placement of every
/// region's fresh pool.
pub fn sim<X>(
    e: &dyn Engine,
    g: &DiGraph,
    cfg: &PageRankConfig,
    opts: &SimOpts,
    min_threads: usize,
    setup: impl FnOnce(&mut SimMachine, usize) -> (Table, ThreadPlacement, X),
    solve: impl FnOnce(&mut OnMachine, &Recorder, X) -> Solved,
) -> SimRun {
    if let Some(run) = preorder::sim(g, cfg, opts, |g, cfg, opts| e.run_sim(g, cfg, opts)) {
        return run;
    }
    if g.num_vertices() == 0 {
        return SimRun::empty(e.name(), cfg, opts);
    }
    let mut machine = SimMachine::new(opts.machine.clone());
    let rec = Recorder::new(opts.trace);
    let cpus = machine.spec().topology.logical_cpus();
    let threads = opts.threads.clamp(min_threads.min(cpus), cpus);
    // The simulated path models its own thread lifecycle (`create_pool` per
    // region); the pool deltas attribute any real shim-pool work it does.
    let pc = PoolCounters::start(&rec);
    let (regions, placement, x) = setup(&mut machine, threads);
    let preprocess_cycles = machine.cycles();
    rec.record("preprocess", RUN_LEVEL, RUN_LEVEL, preprocess_cycles);
    let mut s =
        OnMachine { machine: &mut machine, regions: &regions, placement, threads, rec: &rec };
    let (ranks, iterations_run, converged) = solve(&mut s, &rec, x);
    let engine = e.name();
    let end = RunEnd { engine, g, threads, partitions: None, ranks, iterations_run, converged };
    SimRun::finish(end, rec, pc, &machine, preprocess_cycles)
}

/// The preprocessing charge of both pull engines: building the in-CSR
/// (`off`sets and `tgt`s) in one CSR pass and one write pass, then one
/// streamed write of each vertex array in `copies`.
pub fn charge_transpose(
    ctx: &mut ThreadCtx,
    (off, tgt): (RegionId, RegionId),
    n: usize,
    m: usize,
    copies: &[RegionId],
) {
    ctx.stream_read(off, 0, 8 * (n + 1));
    if m > 0 {
        ctx.stream_read(tgt, 0, 4 * m);
        ctx.stream_write(tgt, 0, 4 * m);
    }
    ctx.stream_write(off, 0, 8 * (n + 1));
    for &r in copies {
        ctx.stream_write(r, 0, 4 * n);
    }
    ctx.compute(2 * (n + m) as u64);
}

/// Dangling mass and residual terms of one pull slot.
pub type Partial = (f64, f64);

/// The iteration loop of a pull engine over `n` vertices whose initial
/// ranks hold `dangling` mass: `step(it, base)` runs one iteration's regions
/// and returns each pull slot's [`Partial`]. Returns the iterations run and
/// whether the stop rule fired.
pub fn iterate(
    cfg: &PageRankConfig,
    n: usize,
    rec: &Recorder,
    track: Track,
    mut dangling: f64,
    mut step: impl FnMut(usize, f32) -> Vec<Partial>,
) -> (usize, bool) {
    for it in 0..cfg.iterations {
        let parts = step(it, base_value(cfg, n, dangling));
        if matches!(cfg.dangling, DanglingPolicy::Redistribute) {
            dangling = parts.iter().map(|p| p.0).sum();
        }
        let deltas: Vec<f64> = parts.iter().map(|p| p.1).collect();
        if track.host && convergence::check(rec, it, &deltas, None, track.tol) {
            return (it + 1, true);
        }
    }
    (cfg.iterations, false)
}

/// Where a region's bodies run.
pub trait Substrate {
    /// The charge each body announces its accesses to.
    type C<'c, 'm>: Charge<usize>
    where
        Self: 'c,
        'm: 'c;

    /// Runs `body(j, charge)` for every thread slot `j` as `phase` of
    /// iteration `it`, and returns each slot's result.
    fn region<T: Copy + Default + Send + Sync>(
        &mut self,
        phase: &'static str,
        it: usize,
        body: impl for<'c, 'm> Fn(usize, &mut Self::C<'c, 'm>) -> T + Sync,
    ) -> Vec<T>;
}

/// The host: `threads` bodies per region on the run's pool.
pub struct OnPool<'r> {
    pool: rayon::ThreadPool,
    threads: usize,
    rec: &'r Recorder,
}

impl Substrate for OnPool<'_> {
    type C<'c, 'm>
        = Native
    where
        Self: 'c,
        'm: 'c;

    fn region<T: Copy + Default + Send + Sync>(
        &mut self,
        phase: &'static str,
        it: usize,
        body: impl for<'c, 'm> Fn(usize, &mut Native) -> T + Sync,
    ) -> Vec<T> {
        let mut out = vec![T::default(); self.threads];
        let region_t = self.rec.start();
        {
            let out_s = SharedSlice::new(&mut out);
            self.pool.scope(|scope| {
                for j in 0..self.threads {
                    let (out_s, body, rec) = (&out_s, &body, self.rec);
                    scope.spawn(move |_| {
                        let mut spans = rec.thread_spans(j);
                        let span_t = spans.start();
                        // SAFETY: slot j is this body's own.
                        unsafe { out_s.write(j, body(j, &mut Native)) };
                        spans.end(span_t, phase, it);
                        spans.flush(rec);
                    });
                }
            });
        }
        self.rec.end(region_t, phase, RUN_LEVEL, it as i64);
        out
    }
}

/// The simulated machine: a fresh pool of `threads` per region, placed by
/// `placement`, charging `regions`.
pub struct OnMachine<'a> {
    machine: &'a mut SimMachine,
    regions: &'a Table,
    placement: ThreadPlacement,
    threads: usize,
    rec: &'a Recorder,
}

impl Substrate for OnMachine<'_> {
    type C<'c, 'm>
        = Sim<'c, 'm, Table>
    where
        Self: 'c,
        'm: 'c;

    fn region<T: Copy + Default + Send + Sync>(
        &mut self,
        phase: &'static str,
        it: usize,
        body: impl for<'c, 'm> Fn(usize, &mut Sim<'c, 'm, Table>) -> T + Sync,
    ) -> Vec<T> {
        let pool = self.machine.create_pool(self.threads, &self.placement);
        let c0 = self.machine.cycles();
        let mut out = vec![T::default(); self.threads];
        let (regions, rec) = (self.regions, self.rec);
        self.machine.phase_balanced(pool, PhaseBalance::Dynamic, |j, ctx| {
            out[j] = body(j, &mut Sim { ctx, regions });
            if rec.enabled() {
                rec.record(phase, j as i64, it as i64, ctx.thread_cycles());
            }
        });
        rec.record(phase, RUN_LEVEL, it as i64, self.machine.cycles() - c0);
        out
    }
}
