//! The per-metric noise policy: which numbers must be bitwise stable and
//! which are allowed to wobble with the host.
//!
//! Everything this repo computes falls in one of two classes:
//!
//! * **Deterministic** — a pure function of (engine, dataset, config):
//!   modelled sim cycles, `mem.*` traffic counters, partition-claim totals,
//!   iteration counts, residual trajectories, rank bits, layout-build
//!   counts, and the serve layer's per-class served/error totals under the
//!   seeded load generator. Any drift in these is a real behavioural change
//!   and the diff engine treats it as a hard failure.
//! * **Advisory** — anything the host clock or OS scheduler touches: native
//!   wall-times, latency quantiles, throughput, pool scheduling statistics
//!   (steals/parks are races by design), admission-queue depths, and the
//!   batch/epoch grouping (epoch and layout counts) that follows scheduler
//!   drain timing. These are gated by a relative threshold
//!   ([`crate::DiffOptions::wall_tol`]).
//!
//! The split is a *name* policy so that it applies uniformly to live
//! `RunTrace`s and to snapshots parsed back from disk; DESIGN.md §14
//! documents the patterns.

/// Classification of one metric under the diff engine's noise policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Must be bitwise equal across runs; any drift fails a diff.
    Deterministic,
    /// Host-timing dependent; compared under a relative threshold.
    Advisory,
}

/// Classifies a named counter (the `RunTrace::counters` namespace).
pub fn counter_class(name: &str) -> MetricClass {
    let advisory = name.ends_with("_ns")            // latency/wall quantities
        || name.ends_with("_rps")                   // throughput
        || name.starts_with("pool.")                // work-stealing races by design
        || name.starts_with("sampler.")             // wall-clock sampling
        || name.starts_with("serve.queue.")         // admission timing
        || name == "serve.ppr.batches"              // grouping follows drain timing
        || name == "serve.epochs"                   // delta-epoch coalescing follows drain timing
        || name == "serve.epoch.layout.count"; // layouts follow which epochs a PPR drain read
    if advisory {
        MetricClass::Advisory
    } else {
        MetricClass::Deterministic
    }
}

/// Classifies a span-phase *total* from a trace whose `time_unit` is
/// `"cycles"` (sim) or `"ns"` (native).
///
/// Claim counts (`*.claims`) are deterministic totals — FCFS engines claim
/// every partition exactly once per iteration, whatever the thread
/// interleaving. Other dotted phases are metric series (`queue.depth`,
/// `sampler.*`) and advisory. Undotted phases are time: modelled cycles are
/// deterministic, host nanoseconds are advisory.
pub fn phase_class(time_unit: &str, phase: &str) -> MetricClass {
    if phase.contains(".claims") {
        MetricClass::Deterministic
    } else if phase.contains('.') || time_unit != "cycles" {
        MetricClass::Advisory
    } else {
        MetricClass::Deterministic
    }
}

/// For advisory metrics: which direction is a regression?
///
/// `Some(true)` — larger is worse (times, latencies); `Some(false)` —
/// smaller is worse (rates); `None` — no direction at all: scheduler-race
/// counters (steals, queue depths, batch/epoch grouping) are recorded for
/// the reader but never gate, because any value a race produces is a
/// legitimate execution.
pub fn higher_is_worse(name: &str) -> Option<bool> {
    if name.ends_with("_rps") {
        Some(false)
    } else if name.ends_with("_ns") || name.starts_with("wall_ns.") {
        Some(true)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_classify_by_the_documented_patterns() {
        for det in [
            "mem.reads",
            "mem.prefetch",
            "partition_claims",
            "serve.topk.served",
            "serve.errors",
            "serve.ppr.batched_sources",
            "serve.census.k",
            "serve.census.naive_layout_builds",
        ] {
            assert_eq!(counter_class(det), MetricClass::Deterministic, "{det}");
        }
        for adv in [
            "serve.ppr.p99_ns",
            "serve.census.naive_ns",
            "serve.census.sweep_w8_ns",
            "serve.throughput_rps",
            "pool.steals",
            "pool.width",
            "serve.queue.max_depth",
            "serve.ppr.batches",
            "serve.epochs",
            "sampler.frames",
        ] {
            assert_eq!(counter_class(adv), MetricClass::Advisory, "{adv}");
        }
    }

    #[test]
    fn epoch_stage_timings_are_advisory_times() {
        for stage in ["csr", "layout", "rerank", "order"] {
            for q in ["p50", "p95", "p99", "max", "mean"] {
                let name = format!("serve.epoch.{stage}.{q}_ns");
                assert_eq!(counter_class(&name), MetricClass::Advisory, "{name}");
                assert_eq!(higher_is_worse(&name), Some(true), "{name}");
            }
        }
    }

    #[test]
    fn layout_count_is_advisory_without_direction() {
        let name = "serve.epoch.layout.count";
        assert_eq!(counter_class(name), MetricClass::Advisory);
        assert_eq!(higher_is_worse(name), None);
        // Served totals stay deterministic.
        assert_eq!(counter_class("serve.edges.served"), MetricClass::Deterministic);
    }

    #[test]
    fn ppr_sweep_timings_are_advisory_times() {
        for q in ["p50", "p95", "p99", "max", "mean"] {
            let name = format!("serve.ppr.sweep.{q}_ns");
            assert_eq!(counter_class(&name), MetricClass::Advisory, "{name}");
            assert_eq!(higher_is_worse(&name), Some(true), "{name}");
        }
    }

    #[test]
    fn phases_classify_by_unit_and_kind() {
        assert_eq!(phase_class("cycles", "scatter"), MetricClass::Deterministic);
        assert_eq!(phase_class("ns", "scatter"), MetricClass::Advisory);
        assert_eq!(phase_class("ns", "scatter.claims"), MetricClass::Deterministic);
        assert_eq!(phase_class("cycles", "scatter.claims"), MetricClass::Deterministic);
        assert_eq!(phase_class("ns", "queue.depth"), MetricClass::Advisory);
        assert_eq!(phase_class("cycles", "queue.depth"), MetricClass::Advisory);
    }

    #[test]
    fn advisory_direction() {
        assert_eq!(higher_is_worse("wall_ns.compute"), Some(true));
        assert_eq!(higher_is_worse("serve.ppr.p99_ns"), Some(true));
        assert_eq!(higher_is_worse("serve.throughput_rps"), Some(false));
        // Scheduler-race counters have no regression direction.
        assert_eq!(higher_is_worse("pool.steals"), None);
        assert_eq!(higher_is_worse("serve.queue.max_depth"), None);
        assert_eq!(higher_is_worse("serve.epochs"), None);
    }
}
