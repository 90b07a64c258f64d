//! The open-loop load generator: a seeded Poisson arrival schedule, sent
//! from the calling thread at the due times whether or not earlier requests
//! were answered.
//!
//! Each request is timed from its *due* time to its response, so a stall
//! of the generator counts against the server as it would for a user. The
//! server answers each request class in submit order (an error is answered
//! at once, ahead of earlier requests of its class, but is not timed), so one
//! collector job per class, waiting on that class's tickets in order, stamps
//! every response as it arrives. The server's own histograms cannot serve
//! here: they round each sample up to the next sixteenth of its power of
//! two, so two runs a few percent apart often read the same median.
//!
//! A one-thread watchdog pool fails the process if tickets are still
//! unanswered a minute after the load window, because `Ticket::wait` has no
//! timeout.

use hipa::graph::reorder::Permutation;
use hipa::serve::loadgen::request_for;
use hipa::serve::{LoadConfig, Request, Response, Server, Ticket};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long after the end of the load window unanswered tickets fail the run.
const WATCHDOG_GRACE: Duration = Duration::from_secs(60);

/// The request classes, in the order of `LoadConfig::mix`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    TopK,
    Personalized,
    Edges,
}

pub const CLASSES: [(Class, &str); 3] =
    [(Class::TopK, "topk"), (Class::Personalized, "personalized"), (Class::Edges, "edges")];

pub fn class_of(req: &Request) -> Class {
    match req {
        Request::TopK { .. } => Class::TopK,
        Request::Ppr { .. } => Class::Personalized,
        Request::AddEdges { .. } => Class::Edges,
    }
}

/// The offered load of one workload: Poisson arrivals at `rate_rps`, in
/// the proportions `mix` (top-k : personalized : edge writes).
pub struct Traffic {
    pub rate_rps: f64,
    pub mix: (u32, u32, u32),
}

/// The requests of one run and when each is due, in nanoseconds from the
/// start of the load window.
#[derive(Debug)]
pub struct Schedule {
    pub due_ns: Vec<u64>,
    pub requests: Vec<Request>,
    pub window: Duration,
}

impl Schedule {
    /// `rate_rps × window` Poisson arrivals: that many due times drawn
    /// uniformly over the window and sorted (a Poisson process given its
    /// count). Request content from `hipa::serve::loadgen::request_for`
    /// with the loadgen's default seed and the traffic's mix (2% of
    /// personalized requests carry an out-of-range seed), its vertex ids
    /// mapped through `relabel`, the relabelling of the server's graph.
    /// Every run thus offers the same requests on the same graph up to
    /// relabelling, and the run's seed draws the ids and the arrival times.
    /// A pure function of its arguments.
    pub fn new(seed: u64, traffic: &Traffic, window: Duration, relabel: &Permutation) -> Schedule {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_a11e_d0c5_0001);
        let count = (traffic.rate_rps * window.as_secs_f64()).round() as usize;
        let window_ns = window.as_nanos() as u64;
        let mut due_ns: Vec<u64> = (0..count).map(|_| rng.gen_range(0..window_ns)).collect();
        due_ns.sort_unstable();
        let cfg = LoadConfig { mix: traffic.mix, ..LoadConfig::default() };
        let n = relabel.len();
        let map = |v: u32| if (v as usize) < n { relabel.map(v) } else { v };
        let requests = (0..count)
            .map(|i| match request_for(&cfg, n, 0, i) {
                Request::Ppr { sources, k } => {
                    Request::Ppr { sources: sources.into_iter().map(map).collect(), k }
                }
                Request::AddEdges { edges } => Request::AddEdges {
                    edges: edges.into_iter().map(|(s, d)| (map(s), map(d))).collect(),
                },
                top_k => top_k,
            })
            .collect();
        Schedule { due_ns, requests, window }
    }
}

/// What happened to one scheduled request.
#[derive(Debug)]
pub struct Outcome {
    pub response: Response,
    /// Due time to response, milliseconds.
    pub latency_ms: f64,
    /// Due time to submit, milliseconds: how late the generator ran.
    pub lateness_ms: f64,
}

/// Measurements of one open-loop run; `outcomes[i]` answers
/// `schedule.requests[i]`.
pub struct LoadRun {
    pub outcomes: Vec<Outcome>,
    /// Last submit to last response, milliseconds.
    pub drain_ms: f64,
}

/// Sends `schedule` to `server` and waits for every response. Exits the
/// process with code 1 if any ticket is unanswered `WATCHDOG_GRACE` after
/// the window.
pub fn run(server: &Server, schedule: &Schedule) -> LoadRun {
    let n = schedule.requests.len();
    let watchdog = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("watchdog pool");
    let collectors =
        rayon::ThreadPoolBuilder::new().num_threads(CLASSES.len()).build().expect("collector pool");
    let answered = AtomicUsize::new(0);
    let finished = (Mutex::new(false), Condvar::new());
    let stamped = Mutex::new(Vec::with_capacity(n));
    let mut sent = Vec::with_capacity(n);
    let start = Instant::now();
    let deadline = start + schedule.window + WATCHDOG_GRACE;
    watchdog.scope(|dog| {
        dog.spawn(|_| {
            let mut done = finished.0.lock().expect("watchdog flag poisoned");
            while !*done {
                let now = Instant::now();
                if now >= deadline {
                    // ordering: relaxed (a progress count for the message).
                    let answered = answered.load(Ordering::Relaxed);
                    eprintln!(
                        "watchdog: {} of {n} tickets unanswered {}s after the load window; \
                         failing the run",
                        n - answered,
                        WATCHDOG_GRACE.as_secs()
                    );
                    std::process::exit(1);
                }
                done = finished.1.wait_timeout(done, deadline - now).expect("watchdog wait").0;
            }
        });
        collectors.scope(|s| {
            let mut queues = Vec::new();
            for _ in CLASSES {
                let (tx, rx) = mpsc::channel::<(usize, Ticket)>();
                queues.push(tx);
                let (answered, stamped) = (&answered, &stamped);
                s.spawn(move |_| {
                    let mut mine = Vec::new();
                    for (i, ticket) in rx {
                        let response = ticket.wait();
                        mine.push((i, response, Instant::now()));
                        // ordering: relaxed (a progress count for the
                        // watchdog's message; publishes no data).
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                    stamped.lock().expect("collector results poisoned").extend(mine);
                });
            }
            for (i, (req, &due_ns)) in schedule.requests.iter().zip(&schedule.due_ns).enumerate() {
                let due = start + Duration::from_nanos(due_ns);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let ticket = server.submit(req.clone());
                sent.push(Instant::now());
                let class = CLASSES.iter().position(|c| c.0 == class_of(req)).expect("a class");
                queues[class].send((i, ticket)).expect("collector alive");
            }
            // Dropping the senders ends each collector once its last ticket
            // is answered.
        });
        *finished.0.lock().expect("watchdog flag poisoned") = true;
        finished.1.notify_all();
    });
    let mut stamped = stamped.into_inner().expect("collector results poisoned");
    stamped.sort_by_key(|s| s.0);
    let last_submit = sent.last().copied().unwrap_or(start);
    let last_answer = stamped.iter().map(|s| s.2).max().unwrap_or(last_submit);
    let outcomes = stamped
        .into_iter()
        .zip(&schedule.due_ns)
        .zip(&sent)
        .map(|(((_, response, at), &due_ns), &sent)| {
            let due = start + Duration::from_nanos(due_ns);
            Outcome {
                response,
                latency_ms: at.duration_since(due).as_secs_f64() * 1e3,
                lateness_ms: sent.duration_since(due).as_secs_f64() * 1e3,
            }
        })
        .collect();
    LoadRun { outcomes, drain_ms: last_answer.duration_since(last_submit).as_secs_f64() * 1e3 }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::graphs::relabelling;

    const MIX: (u32, u32, u32) = (85, 10, 5);
    const N: usize = 3000;

    fn schedule(seed: u64, mix: (u32, u32, u32), secs: u64) -> Schedule {
        let traffic = Traffic { rate_rps: 50.0, mix };
        Schedule::new(seed, &traffic, Duration::from_secs(secs), &relabelling(N, seed))
    }

    fn render(s: &Schedule) -> String {
        format!("{:?} {:?}", s.due_ns, s.requests)
    }

    #[test]
    fn same_seed_gives_identical_schedule() {
        let (a, b) = (schedule(7, MIX, 4), schedule(7, MIX, 4));
        assert_eq!(a.due_ns.len(), 200);
        assert_eq!(render(&a), render(&b));
    }

    #[test]
    fn different_seed_changes_times_and_ids_but_not_the_problem() {
        let (a, b) = (schedule(7, MIX, 4), schedule(8, MIX, 4));
        assert_ne!(a.due_ns, b.due_ns);
        assert_ne!(format!("{:?}", a.requests), format!("{:?}", b.requests));
        // Undoing each seed's relabelling gives back the same requests.
        let undo = |s: &Schedule, seed| {
            let inv = relabelling(N, seed).inverse();
            let map = |v: u32| if (v as usize) < N { inv.map(v) } else { v };
            s.requests
                .iter()
                .map(|r| match r {
                    Request::Ppr { sources, k } => {
                        format!("ppr {:?} {k}", sources.iter().map(|&v| map(v)).collect::<Vec<_>>())
                    }
                    Request::AddEdges { edges } => format!(
                        "edges {:?}",
                        edges.iter().map(|&(s, d)| (map(s), map(d))).collect::<Vec<_>>()
                    ),
                    Request::TopK { k } => format!("topk {k}"),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(undo(&a, 7), undo(&b, 8));
    }

    #[test]
    fn arrivals_are_ordered_inside_the_window_at_the_offered_rate() {
        let s = schedule(3, MIX, 20);
        assert!(s.due_ns.windows(2).all(|w| w[0] <= w[1]));
        assert!(*s.due_ns.last().unwrap() < 20_000_000_000);
        assert_eq!(s.due_ns.len(), 1000);
        // Poisson arrivals: gaps have mean 1/rate and a coefficient of
        // variation near 1.
        let gaps: Vec<f64> = s.due_ns.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e6).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let sd = (gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
        assert!((mean - 20.0).abs() < 2.0, "mean gap {mean} ms");
        assert!((sd / mean - 1.0).abs() < 0.15, "gap cv {}", sd / mean);
    }

    #[test]
    fn a_zero_weight_class_is_never_sent() {
        let s = schedule(3, (90, 10, 0), 20);
        assert!(s.requests.iter().all(|r| class_of(r) != Class::Edges));
        assert!(s.requests.iter().any(|r| class_of(r) == Class::Personalized));
    }
}
