//! Property-based tests of the sketch guarantees on arbitrary streams.

use dtrack_sketch::exact::ExactRanks;
use dtrack_sketch::{GkSummary, KllSketch};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// GK: every rank query is bracketed by its certified bounds and the
    /// midpoint is within εn, any insertion order.
    #[test]
    fn gk_certified_bounds(
        mut values in proptest::collection::hash_set(0u64..100_000, 10..800),
        probe in 0u64..100_000,
    ) {
        let eps = 0.1;
        let mut gk = GkSummary::new(eps);
        let mut exact = ExactRanks::new();
        let values: Vec<u64> = values.drain().collect();
        for &v in &values {
            gk.insert(v);
            exact.insert(v);
        }
        let truth = exact.rank(probe);
        let (lo, hi) = gk.rank_bounds(probe);
        prop_assert!(lo <= truth && truth <= hi,
            "bounds [{lo},{hi}] exclude {truth}");
        let est = gk.estimate_rank(probe);
        prop_assert!((est - truth as f64).abs() <= eps * values.len() as f64 + 1.0);
    }

    /// KLL: total weight is conserved up to the sketch's own error bound
    /// (odd-sized compactions shift weight by ±2^ℓ with a fair coin —
    /// that is the unbiasedness mechanism, so the deviation is bounded
    /// like any other rank estimate).
    #[test]
    fn kll_weight_near_conservation(
        stream in proptest::collection::vec(0u64..1_000_000, 1..3000),
        seed in 0u64..1000,
    ) {
        let e = 0.05;
        let mut kll = KllSketch::with_error(e, seed);
        for &x in &stream {
            kll.insert(x);
        }
        let total = kll.estimate_rank(u64::MAX);
        let bound = 5.0 * e * stream.len() as f64 + 8.0;
        prop_assert!((total - stream.len() as f64).abs() <= bound,
            "weight {total} vs {} (bound {bound})", stream.len());
        prop_assert_eq!(kll.n(), stream.len() as u64);
    }

    /// KLL merge conserves weight and n.
    #[test]
    fn kll_merge_conserves(
        a in proptest::collection::vec(0u64..100_000, 1..1000),
        b in proptest::collection::vec(0u64..100_000, 1..1000),
        seed in 0u64..1000,
    ) {
        let mut ka = KllSketch::with_error(0.1, seed);
        let mut kb = KllSketch::with_error(0.1, seed ^ 1);
        for &x in &a { ka.insert(x); }
        for &x in &b { kb.insert(x); }
        ka.merge(&kb);
        prop_assert_eq!(ka.n(), (a.len() + b.len()) as u64);
        let total = ka.estimate_rank(u64::MAX);
        let n = (a.len() + b.len()) as f64;
        prop_assert!((total - n).abs() <= 5.0 * 0.1 * n + 8.0,
            "weight {} vs {}", total, n);
    }
}
