//! `hipa-perf` — the longitudinal observability layer on top of `hipa-obs`.
//!
//! A single `RunTrace` answers "what did this run do"; this crate answers
//! "what changed since last time". Three pieces:
//!
//! * [`Snapshot`] — the `hipa-bench/v1` benchmark-snapshot format: one
//!   machine-readable document distilling a whole census (every engine ×
//!   execution path × dataset, plus serve and kernel-variant entries) into
//!   per-entry metric lists, each metric pre-classified as **deterministic**
//!   or **advisory** ([`policy`]).
//! * [`diff`] — the snapshot/trace diff engine with the per-metric noise
//!   policy: deterministic metrics (sim cycles, event counters, iteration
//!   counts, residuals, rank fingerprints) must be *bitwise equal* — any
//!   drift is a regression — while advisory metrics (host wall-times,
//!   throughput) are gated by a configurable relative threshold.
//! * the `hipa-perf` binary — `hipa-perf diff A B` renders a delta table
//!   and exits nonzero on regression, which is what the CI perf-gate and
//!   `results/run_all.sh` call; `hipa-perf pairs` runs two benchmark
//!   executables in alternating pairs and tabulates them ([`pairs`]).
//!
//! The deterministic/advisory split is the load-bearing idea (DESIGN.md
//! §14): this repo's engines produce bit-identical ranks and modelled
//! cycles for a fixed config, so the measurement layer can demand exact
//! equality for everything the paper's claims rest on, and confine noise
//! tolerance to the host clock.
#![forbid(unsafe_code)]

pub mod diff;
pub mod pairs;
pub mod policy;
pub mod snapshot;

pub use diff::{diff_snapshots, diff_trace_docs, DiffOptions, DiffReport};
pub use policy::{counter_class, phase_class, MetricClass};
pub use snapshot::{entry_from_trace, BenchEntry, MetricValue, Snapshot, SNAPSHOT_SCHEMA};

/// FNV-1a over a byte stream; the fingerprint primitive for rank vectors.
pub fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bitwise fingerprint of a rank vector (hex FNV-1a over the little-endian
/// f32 bit patterns). Two runs agree on this string iff their ranks are
/// bitwise identical — the cheapest way to carry the "ranks are
/// deterministic" claim inside a snapshot.
pub fn ranks_fingerprint(ranks: &[f32]) -> String {
    format!("{:016x}", fnv1a64(ranks.iter().flat_map(|r| r.to_bits().to_le_bytes())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_bit_sensitive() {
        let a = vec![0.25f32, 0.5, 0.125];
        let mut b = a.clone();
        assert_eq!(ranks_fingerprint(&a), ranks_fingerprint(&b));
        b[1] = f32::from_bits(b[1].to_bits() ^ 1); // one ULP
        assert_ne!(ranks_fingerprint(&a), ranks_fingerprint(&b));
        assert_eq!(ranks_fingerprint(&[]).len(), 16);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a("a") per the published test vectors.
        assert_eq!(fnv1a64(*b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(*b""), 0xcbf29ce484222325);
    }
}
