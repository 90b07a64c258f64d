//! Rank order: the vertices of a rank vector sorted by rank, highest first.
//!
//! Every consumer (the facade's `top_k`, the server's per-epoch order and
//! its personalized answers) shares one sort key, so they agree on every
//! tie: rank descending, ties by ascending index, `-0.0` equal to `+0.0`,
//! and NaN after every number (a NaN rank sorts last instead of panicking a
//! comparator).

/// The packed sort key of vertex `v` with rank `r`: ascending keys are the
/// rank order. The high half maps `r` to a `u32` that *decreases* as the
/// rank grows (the sign-magnitude float bits made monotone, then inverted);
/// NaN takes `u32::MAX`, which no number reaches. The low half is `v`, so
/// equal ranks fall back to the index and every key is distinct.
fn key(v: u32, r: f32) -> u64 {
    let hi = if r.is_nan() {
        u32::MAX
    } else {
        // `+ 0.0` turns -0.0 into +0.0 and leaves every other value alone.
        let bits = (r + 0.0).to_bits();
        let ascending = if bits >> 31 == 1 { !bits } else { bits | (1 << 31) };
        !ascending
    };
    ((hi as u64) << 32) | v as u64
}

fn keys(ranks: &[f32]) -> Vec<u64> {
    ranks.iter().enumerate().map(|(v, &r)| key(v as u32, r)).collect()
}

/// Every vertex in rank order: one key sort, `O(n log n)`.
pub fn rank_order(ranks: &[f32]) -> Vec<u32> {
    let mut keys = keys(ranks);
    keys.sort_unstable();
    keys.into_iter().map(|k| k as u32).collect()
}

/// The `k` highest-ranked vertices with their ranks, in rank order (all of
/// them when `k` exceeds the vertex count). Selects before it sorts:
/// `O(n + k log k)`.
pub fn top_k(ranks: &[f32], k: usize) -> Vec<(u32, f32)> {
    if k == 0 {
        return Vec::new();
    }
    let mut keys = keys(ranks);
    if k < keys.len() {
        keys.select_nth_unstable(k - 1);
        keys.truncate(k);
    }
    keys.sort_unstable();
    keys.into_iter().map(|key| key as u32).map(|v| (v, ranks[v as usize])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The full-sort `top_k` this module replaced: the oracle for the
    /// selection (NaN-free input only — its comparator panics on NaN).
    fn top_k_by_sort(ranks: &[f32], k: usize) -> Vec<(u32, f32)> {
        let mut idx: Vec<u32> = (0..ranks.len() as u32).collect();
        idx.sort_unstable_by(|&a, &b| {
            ranks[b as usize].partial_cmp(&ranks[a as usize]).unwrap().then(a.cmp(&b))
        });
        idx.truncate(k);
        idx.into_iter().map(|v| (v, ranks[v as usize])).collect()
    }

    fn bits(top: &[(u32, f32)]) -> Vec<(u32, u32)> {
        top.iter().map(|&(v, r)| (v, r.to_bits())).collect()
    }

    /// Ranks mostly drawn from a small pool, so duplicates, zeros of both
    /// signs, negatives and infinities are common.
    fn rank() -> impl Strategy<Value = f32> {
        const POOL: [f32; 10] =
            [0.0, -0.0, 1.0, -1.0, 0.125, 0.25, 0.5, f32::INFINITY, f32::NEG_INFINITY, 1e-40];
        (0usize..13, -1e6f32..1e6f32).prop_map(|(i, x)| POOL.get(i).copied().unwrap_or(x))
    }

    proptest! {
        #[test]
        fn selection_and_order_match_the_full_sort(
            ranks in proptest::collection::vec(rank(), 0..200)
        ) {
            let n = ranks.len();
            let order = rank_order(&ranks);
            prop_assert_eq!(order.len(), n);
            for k in [0, 1, 10, n, n + 3] {
                let top = top_k(&ranks, k);
                prop_assert_eq!(bits(&top), bits(&top_k_by_sort(&ranks, k)), "k = {}", k);
                let prefix: Vec<(u32, f32)> =
                    order.iter().take(k).map(|&v| (v, ranks[v as usize])).collect();
                prop_assert_eq!(bits(&prefix), bits(&top), "order[..{}]", k);
            }
        }
    }

    #[test]
    fn nan_sorts_after_every_number() {
        let ranks = [f32::NAN, 0.5, f32::NEG_INFINITY, -f32::NAN, 0.5, -0.0];
        assert_eq!(rank_order(&ranks), vec![1, 4, 5, 2, 0, 3]);
        let top = top_k(&ranks, 4);
        assert_eq!(top.iter().map(|e| e.0).collect::<Vec<_>>(), vec![1, 4, 5, 2]);
        assert!(top_k(&ranks, 6)[4].1.is_nan());
    }

    #[test]
    fn k_beyond_n_returns_every_vertex() {
        let ranks = [0.25f32, 0.5, 0.0];
        assert_eq!(top_k(&ranks, 7), vec![(1, 0.5), (0, 0.25), (2, 0.0)]);
        assert!(top_k(&[], 3).is_empty());
    }

    #[test]
    fn signed_zeros_tie_by_index() {
        let ranks = [-0.0f32, 0.0, -0.0];
        assert_eq!(rank_order(&ranks), vec![0, 1, 2]);
        let top = top_k(&ranks, 1);
        assert_eq!(bits(&top), vec![(0, (-0.0f32).to_bits())]);
    }
}
