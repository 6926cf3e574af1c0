//! Greenwald–Khanna deterministic quantile summary (paper reference \[12\]).
//!
//! Maintains tuples `(v, g, Δ)` with the invariant `g_i + Δ_i ≤ ⌊2εn⌋`
//! (after compression), guaranteeing every rank query is answered within
//! `±εn`. This is the simplified (band-free) variant: the error guarantee
//! is identical to full GK; only the worst-case space constant differs.
//!
//! Ranks follow the paper's convention: `rank(x)` = number of elements
//! strictly smaller than `x`, and streams are assumed duplicate-free
//! (§4: "A(t) contains no duplicates").

/// One summary tuple: value, rank-gap to predecessor, rank uncertainty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GkTuple {
    /// Stored stream value.
    pub v: u64,
    /// `rmin(v_i) − rmin(v_{i−1})`.
    pub g: u64,
    /// `rmax(v_i) − rmin(v_i)`.
    pub delta: u64,
}

/// Greenwald–Khanna ε-approximate quantile summary.
#[derive(Debug, Clone)]
pub struct GkSummary {
    epsilon: f64,
    tuples: Vec<GkTuple>,
    n: u64,
    since_compress: u64,
}

impl GkSummary {
    /// New summary with additive rank error `ε·n`.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        Self {
            epsilon,
            tuples: Vec::new(),
            n: 0,
            since_compress: 0,
        }
    }

    /// Error parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Elements inserted.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the summary is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Insert one element.
    pub fn insert(&mut self, v: u64) {
        self.n += 1;
        // Position of the successor tuple (first with value ≥ v).
        let pos = self.tuples.partition_point(|t| t.v < v);
        let tuple = if pos == 0 || pos == self.tuples.len() {
            // New minimum or maximum: exact.
            GkTuple { v, g: 1, delta: 0 }
        } else {
            let succ = self.tuples[pos];
            GkTuple {
                v,
                g: 1,
                delta: succ.g + succ.delta - 1,
            }
        };
        self.tuples.insert(pos, tuple);
        self.since_compress += 1;
        if self.since_compress as f64 >= 1.0 / (2.0 * self.epsilon) {
            self.compress();
            self.since_compress = 0;
        }
    }

    /// Merge adjacent tuples whose combined uncertainty stays within the
    /// invariant `g_i + g_{i+1} + Δ_{i+1} ≤ ⌊2εn⌋`.
    pub fn compress(&mut self) {
        if self.tuples.len() < 3 {
            return;
        }
        let budget = (2.0 * self.epsilon * self.n as f64).floor() as u64;
        // Scan left→right; greedily merge the accumulated run into the next
        // tuple when allowed. First and last tuples stay exact. Survivors
        // are written back over the scanned prefix (`kept ≤ i`, so the
        // look-ahead at `i + 1` always reads an untouched tuple).
        let last = self.tuples.len() - 1;
        let mut kept = 1;
        let mut pending_g = 0u64; // g mass of tuples merged into successor
        for i in 1..=last {
            let t = self.tuples[i];
            if i < last
                && pending_g + t.g + self.tuples[i + 1].g + self.tuples[i + 1].delta <= budget
            {
                // Merge t into its successor.
                pending_g += t.g;
            } else {
                self.tuples[kept] = GkTuple {
                    v: t.v,
                    g: t.g + pending_g,
                    delta: t.delta,
                };
                kept += 1;
                pending_g = 0;
            }
        }
        self.tuples.truncate(kept);
    }

    /// Rank estimate: number of elements `< x`, within `±εn`.
    pub fn estimate_rank(&self, x: u64) -> f64 {
        let (lo, hi) = self.rank_bounds(x);
        (lo + hi) as f64 / 2.0
    }

    /// Certified rank interval `[lo, hi]` containing the true rank of `x`.
    pub fn rank_bounds(&self, x: u64) -> (u64, u64) {
        if self.tuples.is_empty() {
            return (0, 0);
        }
        // i = last tuple with v_i < x.
        let i = self.tuples.partition_point(|t| t.v < x);
        if i == 0 {
            return (0, 0); // x ≤ min, and min is exact
        }
        let rmin_i: u64 = self.tuples[..i].iter().map(|t| t.g).sum();
        if i == self.tuples.len() {
            return (self.n, self.n); // x > max, max is exact
        }
        let hi = rmin_i + self.tuples[i].g + self.tuples[i].delta;
        (rmin_i, hi.saturating_sub(1).max(rmin_i))
    }

    /// ε-approximate φ-quantile: an element whose rank is within `±εn`
    /// of `⌊φ·n⌋`.
    pub fn quantile(&self, phi: f64) -> Option<u64> {
        if self.tuples.is_empty() {
            return None;
        }
        let target = (phi.clamp(0.0, 1.0) * self.n as f64).floor();
        // Pick the tuple minimizing the worst-case certified rank
        // deviation max(|rmin−target|, |rmax−target|). The compression
        // invariant (g+Δ ≤ 2εn) guarantees the minimum is ≤ εn, so the
        // returned element always meets the ε guarantee — unlike
        // "first tuple inside a ±εn window", which can hand back an
        // element at the far edge of the window.
        let mut best = self.tuples[0].v;
        let mut best_err = f64::INFINITY;
        let mut rmin = 0u64;
        for t in &self.tuples {
            rmin += t.g;
            let rmax = rmin + t.delta;
            let err = (target - rmin as f64)
                .abs()
                .max((target - rmax as f64).abs());
            if err < best_err {
                best_err = err;
                best = t.v;
            }
        }
        Some(best)
    }

    /// The stored tuples, for serialization.
    pub fn tuples(&self) -> &[GkTuple] {
        &self.tuples
    }

    /// Resident size in words.
    pub fn space_words(&self) -> u64 {
        3 * self.tuples.len() as u64 + 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{seq::SliceRandom, SeedableRng};

    /// `compress` as it was before it compacted in place (a fresh output
    /// vector per call), kept as the reference the in-place version is
    /// compared against.
    fn compress_reference(tuples: &[GkTuple], epsilon: f64, n: u64) -> Vec<GkTuple> {
        if tuples.len() < 3 {
            return tuples.to_vec();
        }
        let budget = (2.0 * epsilon * n as f64).floor() as u64;
        let mut out = vec![tuples[0]];
        let last = tuples.len() - 1;
        let mut pending_g = 0u64;
        for i in 1..=last {
            let t = tuples[i];
            if i < last && pending_g + t.g + tuples[i + 1].g + tuples[i + 1].delta <= budget {
                pending_g += t.g;
            } else {
                out.push(GkTuple {
                    v: t.v,
                    g: t.g + pending_g,
                    delta: t.delta,
                });
                pending_g = 0;
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// In-place `compress` yields exactly the reference's tuples on
        /// the states an arbitrary stream reaches, called as often as
        /// every insert.
        #[test]
        fn in_place_compress_matches_reference(
            stream in proptest::collection::vec(any::<u64>(), 0..600),
            eps_milli in 2u64..400,
            every in 1usize..40,
        ) {
            let epsilon = eps_milli as f64 / 1000.0;
            let mut gk = GkSummary::new(epsilon);
            for (i, &v) in stream.iter().enumerate() {
                gk.insert(v);
                if i % every == 0 {
                    let want = compress_reference(&gk.tuples, gk.epsilon, gk.n);
                    gk.compress();
                    prop_assert_eq!(&gk.tuples, &want, "after {} inserts", i + 1);
                }
            }
        }
    }

    fn check_all_ranks(gk: &GkSummary, sorted: &[u64], eps: f64) {
        let n = sorted.len() as f64;
        for probe in 0..50 {
            let x = sorted[probe * sorted.len() / 50] + 1;
            let truth = sorted.partition_point(|&v| v < x) as f64;
            let est = gk.estimate_rank(x);
            assert!(
                (est - truth).abs() <= eps * n + 1.0,
                "x={x} est={est} truth={truth} n={n}"
            );
            let (lo, hi) = gk.rank_bounds(x);
            assert!(
                lo as f64 <= truth && truth <= hi as f64,
                "bounds [{lo},{hi}] exclude {truth}"
            );
        }
    }

    #[test]
    fn sorted_insertions() {
        let eps = 0.05;
        let mut gk = GkSummary::new(eps);
        let data: Vec<u64> = (0..2000).map(|i| i * 3).collect();
        for &v in &data {
            gk.insert(v);
        }
        check_all_ranks(&gk, &data, eps);
    }

    #[test]
    fn reverse_sorted_insertions() {
        let eps = 0.05;
        let mut gk = GkSummary::new(eps);
        let data: Vec<u64> = (0..2000).map(|i| i * 3).collect();
        for &v in data.iter().rev() {
            gk.insert(v);
        }
        check_all_ranks(&gk, &data, eps);
    }

    #[test]
    fn random_insertions_multiple_epsilons() {
        for &eps in &[0.1, 0.02, 0.005] {
            let mut rng = SmallRng::seed_from_u64(21);
            let mut data: Vec<u64> = (0..5000u64).map(|i| i * 7 + 1).collect();
            data.shuffle(&mut rng);
            let mut gk = GkSummary::new(eps);
            for &v in &data {
                gk.insert(v);
            }
            data.sort_unstable();
            check_all_ranks(&gk, &data, eps);
        }
    }

    #[test]
    fn space_stays_sublinear() {
        let eps = 0.01;
        let mut rng = SmallRng::seed_from_u64(22);
        let mut data: Vec<u64> = (0..50_000u64).collect();
        data.shuffle(&mut rng);
        let mut gk = GkSummary::new(eps);
        for &v in &data {
            gk.insert(v);
        }
        // O(1/ε · log(εn)) with a modest constant; assert well below n.
        assert!(
            gk.len() < 4000,
            "summary kept {} tuples for n=50000",
            gk.len()
        );
    }

    #[test]
    fn quantiles_are_within_epsilon() {
        let eps = 0.02;
        let mut rng = SmallRng::seed_from_u64(23);
        let mut data: Vec<u64> = (0..10_000u64).collect();
        data.shuffle(&mut rng);
        let mut gk = GkSummary::new(eps);
        for &v in &data {
            gk.insert(v);
        }
        for &phi in &[0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let q = gk.quantile(phi).unwrap();
            // data is 0..10000 so value == rank.
            let target = phi * 10_000.0;
            assert!(
                (q as f64 - target).abs() <= eps * 10_000.0 + 1.0,
                "phi={phi} got {q}"
            );
        }
    }

    #[test]
    fn empty_and_single() {
        let gk = GkSummary::new(0.1);
        assert_eq!(gk.estimate_rank(5), 0.0);
        assert_eq!(gk.quantile(0.5), None);
        let mut gk = GkSummary::new(0.1);
        gk.insert(42);
        assert_eq!(gk.estimate_rank(42), 0.0);
        assert_eq!(gk.estimate_rank(43), 1.0);
        assert_eq!(gk.quantile(0.5), Some(42));
    }

    #[test]
    fn min_and_max_exact() {
        let mut rng = SmallRng::seed_from_u64(24);
        let mut data: Vec<u64> = (100..1100u64).collect();
        data.shuffle(&mut rng);
        let mut gk = GkSummary::new(0.05);
        for &v in &data {
            gk.insert(v);
        }
        assert_eq!(gk.rank_bounds(100), (0, 0));
        assert_eq!(gk.rank_bounds(1100), (1000, 1000));
    }
}
