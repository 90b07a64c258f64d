//! `hipa-serve` — PageRank as a service on the HiPa substrate.
//!
//! The paper's §3.3 persistent-thread model (Algorithm 2) is exactly a
//! resident engine; this crate is the serving layer ROADMAP asks for on top
//! of it. A [`Server`] holds one immutable state per graph epoch — the
//! graph, converged global ranks sorted once into rank order, and, from the
//! epoch's first personalized request on, the PCPM layout + `hipa_plan`
//! ownership ([`hipa_core::PcpmPrepared`]) and the resident worker pool —
//! and serves three request classes:
//!
//! * **Top-k lookups** ([`Request::TopK`]) answered inside
//!   [`Server::submit`], on the caller's thread, as a prefix of the newest
//!   published epoch's rank order: no sort, no queue, no waiting behind a
//!   sweep or a rebuild;
//! * **Personalized PageRank** ([`Request::Ppr`]): many user source sets are
//!   grouped and advanced through **one multi-vector partition-centric
//!   sweep** per power iteration ([`hipa_algos::PprSolver::solve_batch`]),
//!   amortizing the graph pass across the batch — and, because batch
//!   members freeze individually at their own convergence, every response
//!   is bitwise identical to a solo solve, so batching is invisible to
//!   clients;
//! * **Edge streaming** ([`Request::AddEdges`]): updates are committed as
//!   *delta epochs* — all reads drained in the same scheduling cycle are
//!   answered against the old state first, then the new edges are merged
//!   into the CSR and the graph is re-ranked via PageRank-Delta
//!   ([`hipa_algos::pagerank_delta`]), the new epoch's rank order is
//!   published, and only then are the writers acknowledged. The commit
//!   builds no PCPM layout; the epoch's first personalized batch does.
//!
//! Personalized PageRank and edge updates go through an admission queue
//! and a single batch scheduler thread. [`Ticket::wait_timeout`] bounds a
//! client's wait and hands the ticket back when the time runs out.
//!
//! Invalid user input (out-of-range personalization seeds or edge
//! endpoints) yields [`Response::Error`] instead of a server panic. Latency
//! histograms (p50/p95/p99), epoch-build stage times, time per PPR sweep,
//! throughput and queue-depth gauges accumulate in [`ServeStats`] and
//! export into a `RunTrace` via `hipa-obs`
//! ([`ServeStats::export_into`]); the deterministic open-loop load
//! generator lives in [`loadgen`]. An opt-in background [`sampler`]
//! ([`ServeConfig`]'s `sampler` field) snapshots queue depth, merged
//! latency quantiles and windowed throughput into a bounded time-series
//! ring each tick, and can rewrite a plain-text exposition file for
//! external scrapers.
#![forbid(unsafe_code)]

pub mod loadgen;
pub mod sampler;
pub mod server;
pub mod stats;

pub use loadgen::{run_load, LoadConfig, LoadReport};
pub use sampler::{SampleFrame, SamplerConfig};
pub use server::{edge_list_of, Request, Response, ServeConfig, Server, Ticket};
pub use stats::ServeStats;
