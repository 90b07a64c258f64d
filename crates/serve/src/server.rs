//! The resident rank server: one scheduler thread, an admission queue, and
//! one immutable preprocessed state per graph epoch.
//!
//! Top-k lookups never enter the queue: each epoch publishes a `RankView`
//! (its global ranks, sorted once into rank order), and
//! [`Server::submit`] answers a top-k on the caller's thread by copying a
//! prefix of the newest published view. Everything else parks on a ticket;
//! the scheduler drains the queue in arrival order, groups
//! personalized-PageRank source sets into **one multi-vector
//! partition-centric sweep** per batch chunk (amortizing the graph pass
//! across the whole batch), and commits streamed edge updates as a *delta
//! epoch* only after every read drained in the same cycle has been answered
//! — readers never observe a half-updated graph. A new epoch's view is
//! published before its writers are acknowledged, so a writer's next top-k
//! sees its own edges. Invalid user input (out-of-range seeds or endpoints)
//! produces an error response instead of killing the server.

use crate::sampler::{SampleFrame, SamplerConfig};
use crate::stats::ServeStats;
use hipa_algos::{
    pagerank_delta, rank_order, teleport_from_seeds, top_k, PersonalizedConfig, PprSolver,
    PrDeltaConfig,
};
use hipa_core::PcpmPrepared;
use hipa_graph::{DiGraph, EdgeList};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads of the resident sweep pool.
    pub threads: usize,
    /// Partition size (vertices) of the resident layout.
    pub verts_per_partition: usize,
    /// Maximum personalized-PageRank source sets advanced through one
    /// multi-vector sweep.
    pub batch_max: usize,
    /// Iteration schedule for personalized PageRank (threads / partition
    /// size are taken from the resident state, not from here).
    pub ppr: PersonalizedConfig,
    /// PageRank-Delta parameters for the global ranks and epoch re-ranks.
    pub delta: PrDeltaConfig,
    /// Background health sampler; `None` (the default) spawns no thread.
    pub sampler: Option<SamplerConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 4,
            verts_per_partition: 16 * 1024,
            batch_max: 32,
            ppr: PersonalizedConfig::default(),
            delta: PrDeltaConfig::default(),
            sampler: None,
        }
    }
}

/// A client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// The `k` highest globally-ranked vertices.
    TopK { k: usize },
    /// Personalized PageRank from a user source set; responds with the `k`
    /// highest personalized ranks.
    Ppr { sources: Vec<u32>, k: usize },
    /// Stream new edges in; committed at the next delta epoch.
    AddEdges { edges: Vec<(u32, u32)> },
}

/// The server's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    TopK {
        entries: Vec<(u32, f32)>,
        epoch: u64,
    },
    Ppr {
        top: Vec<(u32, f32)>,
        iterations: usize,
        converged: bool,
        epoch: u64,
    },
    /// Edges accepted and visible: `epoch` is the first epoch whose ranks
    /// include them.
    EdgesCommitted {
        accepted: usize,
        epoch: u64,
    },
    /// Invalid request input; the server keeps running.
    Error {
        message: String,
    },
}

struct TicketInner {
    slot: Mutex<Option<Response>>,
    cv: Condvar,
}

impl TicketInner {
    /// Stores the response and wakes the waiter. Tolerates a poisoned slot:
    /// a `Reply` dropped while its thread unwinds fills its ticket through
    /// here, and a second panic there would abort the process.
    fn fill(&self, resp: Response) {
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(resp);
        self.cv.notify_all();
    }
}

/// A pending response; blocks on [`wait`](Ticket::wait).
pub struct Ticket(Arc<TicketInner>);

impl Ticket {
    /// Blocks until the response is there (a top-k's is there at submit).
    pub fn wait(self) -> Response {
        let mut slot = self.0.slot.lock().unwrap();
        while slot.is_none() {
            slot = self.0.cv.wait(slot).unwrap();
        }
        slot.take().expect("response present")
    }

    /// Waits at most `timeout` for the response. On timeout the ticket
    /// comes back unchanged, so the caller can wait on it again later.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Response, Ticket> {
        let slot = self.0.slot.lock().expect("ticket slot poisoned");
        let (mut slot, _) = self
            .0
            .cv
            .wait_timeout_while(slot, timeout, |s| s.is_none())
            .expect("ticket slot poisoned");
        match slot.take() {
            Some(resp) => Ok(resp),
            None => {
                drop(slot);
                Err(self)
            }
        }
    }
}

/// The work a queued request asks of the scheduler. Top-k lookups are
/// answered at submit, so the queue has no way to hold one.
enum Job {
    Ppr { sources: Vec<u32>, k: usize },
    AddEdges { edges: Vec<(u32, u32)> },
}

/// Where and since when a queued request awaits its response. A `Reply`
/// dropped without an answer (a batch that unwinds, a queue dropped with
/// work in it) fills its ticket with [`Response::Error`], so every ticket
/// resolves. `answered` records the answer on the reply itself: the slot
/// cannot tell, because the client may already have taken the answer out.
struct Reply {
    ticket: Arc<TicketInner>,
    submitted: Instant,
    answered: bool,
}

impl Reply {
    fn new(ticket: &Arc<TicketInner>, submitted: Instant) -> Self {
        Reply { ticket: Arc::clone(ticket), submitted, answered: false }
    }

    fn answer(mut self, resp: Response) {
        self.ticket.fill(resp);
        self.answered = true;
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if !self.answered {
            let message = "the server dropped this request without answering it".to_string();
            self.ticket.fill(Response::Error { message });
        }
    }
}

struct Pending {
    job: Job,
    reply: Reply,
}

struct QueueState {
    pending: VecDeque<Pending>,
    shutdown: bool,
}

/// One epoch's global ranks and their rank order (rank descending, ties by
/// index, the order of [`hipa_algos::top_k`]), immutable once built. A
/// top-k answer is a prefix of `order`.
struct RankView {
    ranks: Vec<f32>,
    order: Vec<u32>,
    epoch: u64,
}

impl RankView {
    fn top_k(&self, k: usize) -> Vec<(u32, f32)> {
        self.order.iter().take(k).map(|&v| (v, self.ranks[v as usize])).collect()
    }
}

struct Shared {
    queue: Mutex<QueueState>,
    cv: Condvar,
    stats: ServeStats,
    /// The newest published epoch's view. Readers clone the `Arc` under the
    /// lock and read outside it; the scheduler swaps in each new epoch.
    view: Mutex<Arc<RankView>>,
}

/// The resident rank server. Construct with [`Server::start`]; submit from
/// any number of client threads; drop (or [`shutdown`](Server::shutdown))
/// to drain and join the scheduler.
pub struct Server {
    shared: Arc<Shared>,
    num_vertices: usize,
    scheduler: Option<std::thread::JoinHandle<()>>,
    sampler: Option<(Arc<SamplerCtl>, std::thread::JoinHandle<()>)>,
}

/// Stop signal for the sampler thread: a flag under a mutex plus a condvar
/// so shutdown interrupts the inter-tick sleep promptly instead of waiting
/// out the interval.
struct SamplerCtl {
    stop: Mutex<bool>,
    cv: Condvar,
}

/// Snapshot of a [`DiGraph`]'s edges as an [`EdgeList`] (CSR order) — the
/// form [`Server::start`] consumes.
pub fn edge_list_of(g: &DiGraph) -> EdgeList {
    let mut edges = EdgeList::new(g.num_vertices(), Vec::new());
    for (s, d) in g.out_csr().iter_edges() {
        edges.push(s, d);
    }
    edges
}

/// Everything the scheduler owns for one graph epoch. The PPR solver (its
/// `PcpmPrepared` source lists — the epoch's "layout" — and its worker pool)
/// is built by the epoch's first personalized batch: an epoch that no
/// personalized request reads never pays for a layout.
struct EpochState {
    graph: DiGraph,
    solver: Option<PprSolver>,
    view: Arc<RankView>,
}

/// Records the time since `t` as one sample of an epoch-build stage.
fn stage(h: &hipa_obs::Histogram, t: Instant) {
    h.record(t.elapsed().as_nanos() as u64);
}

impl EpochState {
    /// Builds epoch 0 in full, layout included, recording each stage's time
    /// in `stats`.
    fn start(edges: &EdgeList, cfg: &ServeConfig, stats: &ServeStats) -> EpochState {
        let t = Instant::now();
        let graph = DiGraph::from_edge_list(edges);
        stage(&stats.epoch_csr, t);
        let mut state = Self::ranked(graph, cfg, 0, stats);
        state.solver(cfg, stats);
        state
    }

    /// The next epoch: this epoch's graph with `edges` merged into its
    /// CSR, re-ranked and sorted. Its layout waits for its first
    /// personalized batch.
    fn commit(&self, edges: &[(u32, u32)], cfg: &ServeConfig, stats: &ServeStats) -> EpochState {
        let t = Instant::now();
        let graph = DiGraph::from_out_csr(self.graph.out_csr().with_edges_added(edges));
        stage(&stats.epoch_csr, t);
        Self::ranked(graph, cfg, self.epoch() + 1, stats)
    }

    /// Ranks `graph` with a cold PageRank-Delta and sorts the rank order.
    fn ranked(graph: DiGraph, cfg: &ServeConfig, epoch: u64, stats: &ServeStats) -> EpochState {
        let t = Instant::now();
        let ranks = pagerank_delta(&graph, &cfg.delta).ranks;
        stage(&stats.epoch_rerank, t);
        let t = Instant::now();
        let order = rank_order(&ranks);
        stage(&stats.epoch_order, t);
        EpochState { graph, solver: None, view: Arc::new(RankView { ranks, order, epoch }) }
    }

    /// This epoch's PPR solver, building its layout on the first call.
    fn solver(&mut self, cfg: &ServeConfig, stats: &ServeStats) -> &mut PprSolver {
        let graph = &self.graph;
        self.solver.get_or_insert_with(|| {
            let t = Instant::now();
            let prepared =
                Arc::new(PcpmPrepared::build(graph, cfg.threads, cfg.verts_per_partition));
            let solver = PprSolver::from_prepared(prepared, &cfg.ppr);
            stage(&stats.epoch_layout, t);
            solver
        })
    }

    fn epoch(&self) -> u64 {
        self.view.epoch
    }
}

impl Server {
    /// Builds epoch 0 on the calling thread (one layout build, one
    /// converged global rank vector and its rank order, one worker pool),
    /// then starts the scheduler thread. A failure in that build panics
    /// here, in the caller, and no thread is left behind.
    pub fn start(edges: EdgeList, cfg: ServeConfig) -> Server {
        let num_vertices = edges.num_vertices();
        let stats = ServeStats::default();
        let state = EpochState::start(&edges, &cfg, &stats);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState { pending: VecDeque::new(), shutdown: false }),
            cv: Condvar::new(),
            stats,
            view: Mutex::new(Arc::clone(&state.view)),
        });
        let sampler = cfg.sampler.clone().map(|scfg| {
            let ctl = Arc::new(SamplerCtl { stop: Mutex::new(false), cv: Condvar::new() });
            let (shared, ctl2) = (Arc::clone(&shared), Arc::clone(&ctl));
            let handle = std::thread::Builder::new()
                .name("hipa-serve-sampler".to_string())
                .spawn(move || sampler_loop(shared, ctl2, scfg))
                .expect("spawn sampler");
            (ctl, handle)
        });
        let shared2 = Arc::clone(&shared);
        let scheduler = std::thread::Builder::new()
            .name("hipa-serve-scheduler".to_string())
            .spawn(move || scheduler_loop(shared2, state, cfg))
            .expect("spawn scheduler");
        Server { shared, num_vertices, scheduler: Some(scheduler), sampler }
    }

    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Submits a request and returns at once with its [`Ticket`]. A top-k
    /// is answered here, from the newest published epoch, so its ticket is
    /// already resolved; every other request is queued for the scheduler.
    pub fn submit(&self, req: Request) -> Ticket {
        let submitted = Instant::now();
        let ticket = Arc::new(TicketInner { slot: Mutex::new(None), cv: Condvar::new() });
        let job = match req {
            Request::TopK { k } => {
                let view = Arc::clone(&self.shared.view.lock().expect("rank view poisoned"));
                let resp = Response::TopK { entries: view.top_k(k), epoch: view.epoch };
                let stats = &self.shared.stats;
                stats.topk_served.incr();
                stats.topk_latency.record(submitted.elapsed().as_nanos() as u64);
                ticket.fill(resp);
                return Ticket(ticket);
            }
            Request::Ppr { sources, k } => Job::Ppr { sources, k },
            Request::AddEdges { edges } => Job::AddEdges { edges },
        };
        {
            let mut q = self.shared.queue.lock().unwrap();
            let reply = Reply::new(&ticket, submitted);
            q.pending.push_back(Pending { job, reply });
        }
        self.shared.cv.notify_all();
        Ticket(ticket)
    }

    /// Submit and block for the response.
    pub fn call(&self, req: Request) -> Response {
        self.submit(req).wait()
    }

    pub fn stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    /// Stops accepting work after the queue drains and joins the scheduler.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if let Some(handle) = self.scheduler.take() {
            {
                let mut q = self.shared.queue.lock().unwrap();
                q.shutdown = true;
            }
            self.shared.cv.notify_all();
            let _ = handle.join();
        }
        // Stop the sampler after the scheduler drains so the final frame
        // sees the fully-served totals.
        if let Some((ctl, handle)) = self.sampler.take() {
            *ctl.stop.lock().unwrap() = true;
            ctl.cv.notify_all();
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn respond(
    shared: &Shared,
    reply: Reply,
    resp: Response,
    hist: fn(&ServeStats) -> &hipa_obs::Histogram,
) {
    if matches!(resp, Response::Error { .. }) {
        shared.stats.errors.incr();
    }
    hist(&shared.stats).record(reply.submitted.elapsed().as_nanos() as u64);
    reply.answer(resp);
}

fn scheduler_loop(shared: Arc<Shared>, mut state: EpochState, cfg: ServeConfig) {
    let n = state.graph.num_vertices();
    loop {
        // Admission: wait for work, then drain the whole queue in arrival
        // order. One drain = one scheduling cycle.
        let batch: Vec<Pending> = {
            let mut q = shared.queue.lock().unwrap();
            while q.pending.is_empty() && !q.shutdown {
                q = shared.cv.wait(q).unwrap();
            }
            if q.pending.is_empty() && q.shutdown {
                return;
            }
            q.pending.drain(..).collect()
        };
        shared.stats.observe_queue_depth(batch.len() as u64);

        // Classify: reads are batched now; edge updates are deferred to the
        // end of the cycle so every read drained alongside them still sees
        // the pre-update epoch — "reads drained between delta epochs".
        let mut ppr_batch: Vec<(Reply, Vec<f32>, usize)> = Vec::new();
        let mut edge_updates: Vec<(Reply, Vec<(u32, u32)>)> = Vec::new();
        for Pending { job, reply } in batch {
            match job {
                Job::Ppr { sources, k } => match teleport_from_seeds(n, &sources) {
                    Ok(teleport) => ppr_batch.push((reply, teleport, k)),
                    Err(message) => {
                        shared.stats.ppr_served.incr();
                        respond(&shared, reply, Response::Error { message }, |s| &s.ppr_latency);
                    }
                },
                Job::AddEdges { edges } => {
                    if let Some(&(s, d)) =
                        edges.iter().find(|&&(s, d)| s as usize >= n || d as usize >= n)
                    {
                        shared.stats.edges_served.incr();
                        let message =
                            format!("edge ({s}, {d}) out of range: graph has {n} vertices");
                        respond(&shared, reply, Response::Error { message }, |s| &s.edges_latency);
                    } else {
                        edge_updates.push((reply, edges));
                    }
                }
            }
        }

        // Batched personalized PageRank: up to `batch_max` source sets per
        // multi-vector sweep. Batch composition cannot change any result —
        // each batch member is bitwise-equal to a solo solve.
        let mut ppr_batch = VecDeque::from(ppr_batch);
        while !ppr_batch.is_empty() {
            let take = cfg.batch_max.max(1).min(ppr_batch.len());
            let mut replies = Vec::with_capacity(take);
            let mut teleports = Vec::with_capacity(take);
            for (reply, teleport, k) in ppr_batch.drain(..take) {
                replies.push((reply, k));
                teleports.push(teleport);
            }
            let solver = state.solver(&cfg, &shared.stats);
            let solve_start = Instant::now();
            let results = solver.solve_batch(&teleports);
            let sweeps = results.iter().map(|r| r.iterations_run).max().unwrap_or(0);
            if sweeps > 0 {
                let ns = solve_start.elapsed().as_nanos() as u64;
                shared.stats.ppr_sweep.record(ns / sweeps as u64);
            }
            shared.stats.ppr_batches.incr();
            shared.stats.ppr_batched_sources.add(replies.len() as u64);
            for ((reply, k), res) in replies.into_iter().zip(results) {
                shared.stats.ppr_served.incr();
                let resp = Response::Ppr {
                    top: top_k(&res.ranks, k),
                    iterations: res.iterations_run,
                    converged: res.converged,
                    epoch: state.epoch(),
                };
                respond(&shared, reply, resp, |s| &s.ppr_latency);
            }
        }

        // Delta epoch: all reads of this cycle are answered; merge the
        // streamed edges into the CSR, re-rank via PageRank-Delta, publish
        // the new rank view, then acknowledge the writers with the new
        // epoch. The new epoch's layout waits for its first personalized
        // batch.
        if !edge_updates.is_empty() {
            let edges: Vec<(u32, u32)> = edge_updates
                .iter()
                .flat_map(|(_, batch_edges)| batch_edges.iter().copied())
                .collect();
            state = state.commit(&edges, &cfg, &shared.stats);
            *shared.view.lock().expect("rank view poisoned") = Arc::clone(&state.view);
            shared.stats.epochs.incr();
            for (reply, batch_edges) in edge_updates {
                shared.stats.edges_served.incr();
                let resp =
                    Response::EdgesCommitted { accepted: batch_edges.len(), epoch: state.epoch() };
                respond(&shared, reply, resp, |s| &s.edges_latency);
            }
        }
    }
}

/// Background sampler: one [`SampleFrame`] per tick until told to stop,
/// plus one final frame at shutdown so even the shortest server lifetime
/// leaves a trajectory. All reads are wait-free or take the queue lock for
/// a single `len()`; a tick never blocks request processing measurably.
fn sampler_loop(shared: Arc<Shared>, ctl: Arc<SamplerCtl>, cfg: SamplerConfig) {
    let started = Instant::now();
    let mut seq = 0u64;
    let mut prev_served = 0u64;
    let mut prev_elapsed_ns = 0u64;
    let tick = |seq: u64, prev_served: &mut u64, prev_elapsed_ns: &mut u64| {
        let queue_depth = shared.queue.lock().unwrap().pending.len() as u64;
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        let total_served = shared.stats.total_served();
        let all = shared.stats.merged_latency();
        let window_ns = elapsed_ns.saturating_sub(*prev_elapsed_ns).max(1);
        let throughput_rps =
            ((total_served - *prev_served) as f64 * 1e9 / window_ns as f64).round() as u64;
        let (latency_p50_ns, latency_p99_ns) =
            if all.is_empty() { (0, 0) } else { (all.quantile(0.50), all.quantile(0.99)) };
        shared.stats.push_frame(
            SampleFrame {
                seq,
                elapsed_ns,
                queue_depth,
                total_served,
                errors: shared.stats.errors.get(),
                latency_p50_ns,
                latency_p99_ns,
                throughput_rps,
            },
            cfg.capacity,
        );
        *prev_served = total_served;
        *prev_elapsed_ns = elapsed_ns;
        if let Some(path) = &cfg.expo_path {
            // Sampling must never take the server down; drop write errors.
            let _ = std::fs::write(
                path,
                shared.stats.render_exposition(queue_depth, started.elapsed()),
            );
        }
    };
    loop {
        {
            let mut stop = ctl.stop.lock().unwrap();
            while !*stop {
                let (guard, timeout) = ctl.cv.wait_timeout(stop, cfg.interval).unwrap();
                stop = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            if *stop {
                break;
            }
        }
        tick(seq, &mut prev_served, &mut prev_elapsed_ns);
        seq += 1;
    }
    // Final frame: totals after the scheduler drained.
    tick(seq, &mut prev_served, &mut prev_elapsed_ns);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipa_graph::gen::cycle;

    fn small_cfg() -> ServeConfig {
        ServeConfig { threads: 2, verts_per_partition: 64, ..Default::default() }
    }

    #[test]
    fn topk_matches_global_ranks() {
        let edges = edge_list_of(&hipa_graph::datasets::small_test_graph(140));
        let g = DiGraph::from_edge_list(&edges);
        let cfg = small_cfg();
        let want = top_k(&pagerank_delta(&g, &cfg.delta).ranks, 5);
        let server = Server::start(edges, cfg);
        match server.call(Request::TopK { k: 5 }) {
            Response::TopK { entries, epoch } => {
                assert_eq!(entries, want);
                assert_eq!(epoch, 0);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn invalid_seed_gets_error_and_server_survives() {
        let edges = EdgeList::from_pairs([(0, 1), (1, 2), (2, 3), (3, 0)]);
        let server = Server::start(edges, small_cfg());
        match server.call(Request::Ppr { sources: vec![99], k: 3 }) {
            Response::Error { message } => assert!(message.contains("out of range"), "{message}"),
            other => panic!("unexpected response {other:?}"),
        }
        // The server is still alive and serving.
        match server.call(Request::Ppr { sources: vec![0], k: 3 }) {
            Response::Ppr { top, .. } => assert_eq!(top.len(), 3),
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(server.stats().errors.get(), 1);
    }

    #[test]
    fn edge_commit_advances_epoch_and_reranks() {
        let edges = cycle(6);
        let cfg = small_cfg();
        let server = Server::start(edges.clone(), cfg.clone());
        let before = match server.call(Request::TopK { k: 6 }) {
            Response::TopK { entries, epoch } => {
                assert_eq!(epoch, 0);
                entries
            }
            other => panic!("unexpected response {other:?}"),
        };
        match server.call(Request::AddEdges { edges: vec![(0, 3), (1, 3)] }) {
            Response::EdgesCommitted { accepted, epoch } => {
                assert_eq!(accepted, 2);
                assert_eq!(epoch, 1);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Post-epoch ranks equal a from-scratch delta run on the grown graph.
        let mut grown = edges;
        grown.push(0, 3);
        grown.push(1, 3);
        let want = top_k(&pagerank_delta(&DiGraph::from_edge_list(&grown), &cfg.delta).ranks, 6);
        match server.call(Request::TopK { k: 6 }) {
            Response::TopK { entries, epoch } => {
                assert_eq!(epoch, 1);
                assert_eq!(entries, want);
                assert_ne!(entries, before, "re-rank must reflect the new edges");
            }
            other => panic!("unexpected response {other:?}"),
        }
        // A writer's next read sees its own epoch: the view is published
        // before the commit is acknowledged.
        for (s, d) in [(2, 5), (4, 0), (5, 1)] {
            let committed = match server.call(Request::AddEdges { edges: vec![(s, d)] }) {
                Response::EdgesCommitted { epoch, .. } => epoch,
                other => panic!("unexpected response {other:?}"),
            };
            match server.call(Request::TopK { k: 1 }) {
                Response::TopK { epoch, .. } => assert_eq!(epoch, committed),
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(server.stats().epochs.get(), 4);
        // Out-of-range endpoints are rejected without dying.
        match server.call(Request::AddEdges { edges: vec![(0, 99)] }) {
            Response::Error { message } => assert!(message.contains("out of range")),
            other => panic!("unexpected response {other:?}"),
        }
    }

    /// The answer a fresh solver on `edges` gives to a personalized request.
    fn fresh_ppr(edges: &EdgeList, cfg: &ServeConfig, sources: &[u32], k: usize) -> Response {
        let g = DiGraph::from_edge_list(edges);
        let prepared = Arc::new(PcpmPrepared::build(&g, cfg.threads, cfg.verts_per_partition));
        let teleport = teleport_from_seeds(g.num_vertices(), sources).unwrap();
        let res = PprSolver::from_prepared(prepared, &cfg.ppr).solve(&teleport);
        Response::Ppr {
            top: top_k(&res.ranks, k),
            iterations: res.iterations_run,
            converged: res.converged,
            epoch: 0,
        }
    }

    /// `resp` with its epoch replaced by 0, for comparison with
    /// [`fresh_ppr`].
    fn at_epoch_zero(resp: Response) -> (Response, u64) {
        match resp {
            Response::Ppr { top, iterations, converged, epoch } => {
                (Response::Ppr { top, iterations, converged, epoch: 0 }, epoch)
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn commits_defer_the_layout_to_the_first_personalized_batch() {
        let mut edges = edge_list_of(&hipa_graph::datasets::small_test_graph(144));
        let cfg = small_cfg();
        let server = Server::start(edges.clone(), cfg.clone());
        let stats = server.stats();
        let k = 4;
        for i in 0..k {
            let edge = (i * 37 % 1000, i * 101 % 1000 + 3);
            let resp = server.call(Request::AddEdges { edges: vec![edge] });
            assert!(matches!(resp, Response::EdgesCommitted { accepted: 1, .. }), "{resp:?}");
            edges.push(edge.0, edge.1);
        }
        assert_eq!(stats.epochs.get(), k as u64);
        assert_eq!(stats.epoch_rerank.count(), k as u64 + 1);
        assert_eq!(stats.epoch_layout.count(), 1, "back-to-back commits built a layout");

        // The first personalized read builds the newest epoch's layout, and
        // answers exactly as a fresh solver on the grown graph does.
        let req = |s: u32| Request::Ppr { sources: vec![s, s + 5], k: 6 };
        let (got, epoch) = at_epoch_zero(server.call(req(11)));
        assert_eq!(epoch, k as u64);
        assert_eq!(got, fresh_ppr(&edges, &cfg, &[11, 16], 6));
        assert_eq!(stats.epoch_layout.count(), 2);
        // Later reads of the same epoch reuse it.
        let (got, _) = at_epoch_zero(server.call(req(40)));
        assert_eq!(got, fresh_ppr(&edges, &cfg, &[40, 45], 6));
        assert_eq!(stats.epoch_layout.count(), 2);
    }

    #[test]
    fn ppr_drained_with_a_commit_answers_at_the_old_epoch() {
        let edges = edge_list_of(&hipa_graph::datasets::small_test_graph(145));
        let ppr = PersonalizedConfig { iterations: 2000, tolerance: None, ..Default::default() };
        let cfg = ServeConfig { ppr, ..small_cfg() };
        let server = Server::start(edges.clone(), cfg.clone());
        // Hold the scheduler in a long sweep, then queue a read and a write
        // behind it so both land in its next drain.
        let blocker = server.submit(Request::Ppr { sources: vec![0], k: 1 });
        while server.stats().queue_depth.count() == 0 {
            std::thread::yield_now();
        }
        let read = server.submit(Request::Ppr { sources: vec![7], k: 5 });
        let write = server.submit(Request::AddEdges { edges: vec![(7, 8), (9, 7)] });
        assert!(matches!(blocker.wait(), Response::Ppr { .. }));
        let (got, epoch) = at_epoch_zero(read.wait());
        assert!(matches!(write.wait(), Response::EdgesCommitted { accepted: 2, epoch: 1 }));
        assert_eq!(*server.stats().queue_depth_series.lock().unwrap(), vec![1, 2]);
        assert_eq!(epoch, 0, "a read drained with a commit saw the new epoch");
        assert_eq!(got, fresh_ppr(&edges, &cfg, &[7], 5));
        assert_eq!(server.stats().epoch_layout.count(), 1);
    }

    #[test]
    fn topk_never_waits_behind_a_ppr_sweep() {
        let edges = edge_list_of(&hipa_graph::datasets::small_test_graph(142));
        let n = edges.num_vertices() as u32;
        let ppr = PersonalizedConfig { iterations: 2000, tolerance: None, ..Default::default() };
        let server = Server::start(edges, ServeConfig { ppr, ..small_cfg() });
        // Each personalized answer takes 2000 sweeps; the top-k below must
        // not wait for any of them.
        let sweeps: Vec<Ticket> =
            (0..4).map(|i| server.submit(Request::Ppr { sources: vec![i % n], k: 3 })).collect();
        match server.submit(Request::TopK { k: 3 }).wait() {
            Response::TopK { entries, epoch } => assert_eq!((entries.len(), epoch), (3, 0)),
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(server.stats().ppr_served.get(), 0, "top-k waited behind the sweep");
        for t in sweeps {
            assert!(matches!(t.wait(), Response::Ppr { iterations: 2000, .. }));
        }
        // Top-k never entered the queue: the only drains held sweeps.
        let drains = server.stats().queue_depth.count();
        assert!((1..=4).contains(&drains), "{drains} drains");
    }

    #[test]
    fn wait_timeout_hands_the_ticket_back() {
        let edges = edge_list_of(&hipa_graph::datasets::small_test_graph(143));
        let ppr = PersonalizedConfig { iterations: 2000, tolerance: None, ..Default::default() };
        let server = Server::start(edges, ServeConfig { ppr, ..small_cfg() });
        let long = server.submit(Request::Ppr { sources: vec![0], k: 3 });
        let queued = server.submit(Request::Ppr { sources: vec![1], k: 3 });
        // Behind (or inside) a 2000-sweep batch, 1 ms is far too short.
        let queued = match queued.wait_timeout(Duration::from_millis(1)) {
            Err(ticket) => ticket,
            Ok(resp) => panic!("answered within 1 ms: {resp:?}"),
        };
        assert!(matches!(queued.wait(), Response::Ppr { iterations: 2000, .. }));
        let done = long.wait_timeout(Duration::from_secs(600));
        assert!(matches!(done, Ok(Response::Ppr { iterations: 2000, .. })));
        // One sweep-time sample per batch solve.
        let stats = server.stats();
        assert_eq!(stats.ppr_sweep.count(), stats.ppr_batches.get());
    }

    fn ticket_and_reply() -> (Ticket, Reply) {
        let ticket = Arc::new(TicketInner { slot: Mutex::new(None), cv: Condvar::new() });
        let reply = Reply::new(&ticket, Instant::now());
        (Ticket(ticket), reply)
    }

    #[test]
    fn dropped_reply_resolves_its_ticket_with_an_error() {
        let (ticket, reply) = ticket_and_reply();
        drop(reply);
        match ticket.wait() {
            Response::Error { message } => {
                assert!(message.contains("without answering"), "{message}")
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn answered_reply_keeps_its_answer() {
        let (ticket, reply) = ticket_and_reply();
        let resp = Response::EdgesCommitted { accepted: 2, epoch: 7 };
        reply.answer(resp.clone());
        assert_eq!(ticket.wait(), resp);
    }

    #[test]
    fn start_builds_epoch_zero_before_returning() {
        let server = Server::start(cycle(16), small_cfg());
        // Every stage of the epoch-0 build is already recorded.
        for (stage, h) in server.stats().epoch_stages() {
            assert_eq!(h.count(), 1, "stage {stage}");
        }
        assert_eq!(server.stats().queue_depth.count(), 0);
        assert!(matches!(server.call(Request::TopK { k: 2 }), Response::TopK { epoch: 0, .. }));
        assert_eq!(server.stats().queue_depth.count(), 0, "top-k must not drain the queue");
    }

    #[test]
    fn sampler_records_frames_and_exposition() {
        let edges = edge_list_of(&hipa_graph::datasets::small_test_graph(141));
        let expo = std::env::temp_dir().join("hipa_serve_sampler_test.prom");
        let _ = std::fs::remove_file(&expo);
        let cfg = ServeConfig {
            sampler: Some(SamplerConfig {
                interval: std::time::Duration::from_millis(5),
                capacity: 4,
                expo_path: Some(expo.clone()),
            }),
            ..small_cfg()
        };
        let server = Server::start(edges, cfg);
        for _ in 0..20 {
            assert!(matches!(server.call(Request::TopK { k: 3 }), Response::TopK { .. }));
        }
        let shared = Arc::clone(&server.shared);
        server.shutdown();

        let frames = shared.stats.frames();
        // At least the final shutdown frame is always present, and the ring
        // stays at its bound no matter how many ticks ran.
        assert!(!frames.is_empty());
        assert!(frames.len() <= 4, "ring must stay bounded, got {}", frames.len());
        // seq is monotone even across eviction.
        for w in frames.windows(2) {
            assert!(w[1].seq > w[0].seq);
        }
        let last = frames.last().unwrap();
        assert_eq!(last.total_served, 20);
        assert_eq!(last.errors, 0);
        assert!(last.latency_p99_ns >= last.latency_p50_ns);

        let text = std::fs::read_to_string(&expo).expect("exposition file written");
        assert!(text.contains("hipa_serve_requests_total 20"), "{text}");
        assert!(text.contains("hipa_serve_served_total{class=\"topk\"} 20"), "{text}");
        assert!(text.contains("hipa_serve_latency_ns{class=\"all\",quantile=\"0.99\"}"), "{text}");
        let _ = std::fs::remove_file(&expo);
    }

    #[test]
    fn shutdown_drains_cleanly() {
        let edges = cycle(8);
        let server = Server::start(edges, small_cfg());
        let tickets: Vec<Ticket> = (0..10).map(|_| server.submit(Request::TopK { k: 2 })).collect();
        for t in tickets {
            assert!(matches!(t.wait(), Response::TopK { .. }));
        }
        server.shutdown();
    }
}
