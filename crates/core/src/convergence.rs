//! The single definition of "converged" shared by every engine.
//!
//! All five methodologies (HiPa and the four comparators) stop early under
//! the same rule so tolerance-mode comparisons are apples-to-apples:
//!
//! * **Norm** — the L1 rank delta of one iteration, `Σ_v |new_v − old_v|`,
//!   summed over *all* vertices (dangling included; their rank still moves
//!   through the teleport/base term).
//! * **Accumulation** — each owner (thread or partition) accumulates its
//!   f32 differences into a private f64 partial ([`l1_term`]); partials are
//!   then summed in a fixed owner order ([`reduce`]) so the residual — and
//!   therefore the stop iteration — is deterministic even for engines that
//!   claim work first-come-first-serve.
//! * **Decision** — [`should_stop`]: stop as soon as the residual drops
//!   strictly below the tolerance, checked at the end of every iteration.
//!
//! Tolerances are sanitised once, here: [`effective_tolerance`] treats
//! non-positive and non-finite values (reachable by constructing
//! [`PageRankConfig`](crate::PageRankConfig) with a struct literal, which
//! bypasses `with_tolerance`'s assert) as "no tolerance", so no engine
//! burns cycles tracking deltas that can never satisfy the check.

/// Sanitises `PageRankConfig::tolerance` into the f64 the engines compare
/// against. `None`, non-finite and non-positive tolerances all disable
/// convergence checking (the run executes exactly `iterations`).
pub fn effective_tolerance(tolerance: Option<f32>) -> Option<f64> {
    match tolerance {
        Some(t) if t.is_finite() && t > 0.0 => Some(t as f64),
        _ => None,
    }
}

/// One vertex's contribution to the L1 residual, accumulated in f64.
#[inline]
pub fn l1_term(new: f32, old: f32) -> f64 {
    (new - old).abs() as f64
}

/// Deterministic reduction of per-owner residual partials: a plain sum in
/// slice order. Engines with static ownership pass per-thread partials;
/// FCFS engines pass per-partition partials so the claim order cannot
/// perturb the f64 sum.
pub fn reduce(partials: &[f64]) -> f64 {
    partials.iter().sum()
}

/// The one stop decision: an iteration whose L1 residual fell strictly
/// below the tolerance is the last.
#[inline]
pub fn should_stop(residual_sum: f64, tol: f64) -> bool {
    residual_sum < tol
}

/// One iteration's end-of-step check, for engines that reduce on one
/// thread: reduces the partials, records the residual as iteration `it`'s
/// gauge (with the run's partition count, if it has one) and says whether
/// the run stops here.
pub fn check(
    rec: &hipa_obs::Recorder,
    it: usize,
    partials: &[f64],
    partitions: Option<u64>,
    tol: Option<f64>,
) -> bool {
    let residual = reduce(partials);
    rec.gauge(it, Some(residual), partitions);
    tol.is_some_and(|t| should_stop(residual, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_tolerance_accepts_positive_finite() {
        assert_eq!(effective_tolerance(Some(1e-6)), Some(1e-6f32 as f64));
        assert_eq!(effective_tolerance(Some(0.5)), Some(0.5));
    }

    #[test]
    fn effective_tolerance_normalises_invalid_to_none() {
        // Reachable via struct-literal construction of PageRankConfig.
        assert_eq!(effective_tolerance(Some(0.0)), None);
        assert_eq!(effective_tolerance(Some(-1.0)), None);
        assert_eq!(effective_tolerance(Some(f32::NAN)), None);
        assert_eq!(effective_tolerance(Some(f32::INFINITY)), None);
        assert_eq!(effective_tolerance(Some(f32::NEG_INFINITY)), None);
        assert_eq!(effective_tolerance(None), None);
    }

    #[test]
    fn stop_is_strictly_below() {
        assert!(should_stop(0.9e-6, 1e-6));
        assert!(!should_stop(1e-6, 1e-6));
        assert!(!should_stop(2e-6, 1e-6));
        assert!(should_stop(0.0, 1e-30));
    }

    #[test]
    fn reduce_sums_in_slice_order() {
        assert_eq!(reduce(&[]), 0.0);
        assert_eq!(reduce(&[1.5, 2.5]), 4.0);
        // Order-sensitivity check: reduce is defined as left-to-right slice
        // order, which is what makes FCFS engines deterministic when they
        // hand in per-partition slots.
        let parts = [1e16, 1.0, -1e16];
        assert_eq!(reduce(&parts), ((1e16f64 + 1.0) + -1e16));
    }

    #[test]
    fn l1_term_is_absolute_f64() {
        assert_eq!(l1_term(0.25, 0.75), 0.5);
        assert_eq!(l1_term(0.75, 0.25), 0.5);
        assert_eq!(l1_term(0.5, 0.5), 0.0);
    }
}
