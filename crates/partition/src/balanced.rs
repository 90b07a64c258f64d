//! Edge-balanced contiguous partitioning (paper §3.1, Eq. 2).
//!
//! It preserves vertex order and produces disjoint ranges covering `0..n`
//! (the paper's ∩ Vᵢ = ∅, ∪ Vᵢ = V conditions). Every part receives
//! ≈ |E|/N out-edges, so vertex counts vary on skewed graphs.

use std::ops::Range;

/// Splits `0..degrees.len()` into `parts` contiguous ranges each holding
/// ≈ `|E|/parts` out-edges (Eq. 2). Boundary `i` is the smallest vertex
/// index whose prefix edge count reaches `i · |E|/parts`, so a single
/// ultra-hot vertex can make neighbouring parts empty — that is inherent to
/// contiguous edge balancing and handled downstream.
pub fn edge_balanced(degrees: &[u32], parts: usize) -> Vec<Range<u32>> {
    let prefix = crate::degree_prefix(degrees);
    edge_balanced_with_prefix(&prefix, parts)
}

/// [`edge_balanced`] with a precomputed prefix array (`prefix.len() == n+1`).
pub fn edge_balanced_with_prefix(prefix: &[u64], parts: usize) -> Vec<Range<u32>> {
    assert!(parts >= 1, "need at least one part");
    let n = prefix.len() - 1;
    let total = prefix[n];
    let mut out = Vec::with_capacity(parts);
    let mut start = 0u32;
    for i in 1..=parts {
        let end = if i == parts {
            n as u32
        } else {
            let quota = total * i as u64 / parts as u64;
            // Smallest boundary with prefix >= quota, but never before the
            // previous boundary.
            let b = prefix.partition_point(|&p| p < quota) as u32;
            b.max(start).min(n as u32)
        };
        out.push(start..end);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{degree_prefix, edges_in};

    fn check_cover(ranges: &[Range<u32>], n: usize) {
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, n as u32);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must tile");
        }
    }

    #[test]
    fn edge_balanced_uniform_degrees_split_evenly() {
        let degs = vec![2u32; 12];
        let r = edge_balanced(&degs, 3);
        assert_eq!(r, vec![0..4, 4..8, 8..12]);
    }

    #[test]
    fn edge_balanced_skewed() {
        // One hub with 90 edges then 10 vertices of degree 1.
        let mut degs = vec![90u32];
        degs.extend(std::iter::repeat_n(1, 10));
        let r = edge_balanced(&degs, 2);
        check_cover(&r, 11);
        let prefix = degree_prefix(&degs);
        // First part is just the hub (90 >= 50 quota).
        assert_eq!(r[0], 0..1);
        assert_eq!(edges_in(&prefix, &r[1]), 10);
    }

    #[test]
    fn edge_balanced_quota_within_factor_two() {
        // Paper Eq. 2: each node's edges ~ |E|/N. With bounded max degree the
        // deviation is at most one vertex's degree.
        let degs: Vec<u32> = (0..100).map(|i| 1 + (i * 7) % 13).collect();
        let prefix = degree_prefix(&degs);
        let total: u64 = prefix[100];
        for parts in [2usize, 3, 4, 8] {
            let r = edge_balanced(&degs, parts);
            check_cover(&r, 100);
            let quota = total as f64 / parts as f64;
            let maxdeg = 13f64;
            for range in &r {
                let e = edges_in(&prefix, range) as f64;
                assert!(
                    (e - quota).abs() <= maxdeg + 1.0,
                    "part {range:?}: {e} edges vs quota {quota}"
                );
            }
        }
    }

    #[test]
    fn edge_balanced_empty_parts_possible_but_cover_holds() {
        let degs = vec![100u32, 0, 0, 0];
        let r = edge_balanced(&degs, 4);
        check_cover(&r, 4);
    }

    #[test]
    fn edge_balanced_all_zero_degrees() {
        let degs = vec![0u32; 8];
        let r = edge_balanced(&degs, 2);
        check_cover(&r, 8);
    }
}
