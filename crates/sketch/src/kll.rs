//! KLL-style randomized quantile sketch with unbiased rank estimates.
//!
//! This is our implementation of the paper's black-box **Algorithm A**
//! (§4): "an algorithm that produces an unbiased estimator for any rank
//! with variance O((εn)²) … using O(1/ε·log^1.5(1/ε)) working space to
//! maintain a rank estimation summary of size O(1/ε)" (citing \[24\],
//! improved by \[1\] — *Mergeable summaries*). We implement the modern
//! descendant of \[1\]: a compactor hierarchy with geometrically decaying
//! capacities (Karnin–Lang–Liberty). Unbiasedness comes from the same
//! mechanism as in \[1\]: every compaction keeps the odd- or even-indexed
//! survivors with a fair coin, so each discarded element's rank mass is
//! redistributed without bias. The protocol uses A only through the
//! three guarantees below, so any summary that has them substitutes for
//! the one the paper cites.
//!
//! Guarantees (verified empirically in the tests below):
//! * `E[estimate_rank(x)] = rank(x)` for any fixed query `x`;
//! * `Var[estimate_rank(x)] ≤ (ε·n)²` for the capacity chosen by
//!   [`KllSketch::with_error`];
//! * summary size `O(1/ε)` independent of `n` (up to a small additive
//!   `O(log(n))` term from the minimum per-level capacity).
//!
//! Per-level capacities depend only on `k` and the hierarchy height, so
//! they are cached (`caps`) instead of recomputed per insert. Invariant:
//! `caps[l] == max(MIN_CAP, ⌈k·(2/3)^(height−1−l)⌉)` for every level, so
//! every code path that grows the hierarchy — a top-level compaction,
//! and `merge` with a taller sketch — refreshes the cache before the
//! next capacity check.
//!
//! ## What an insert touches
//!
//! Level 0's buffer and a copy of its capacity (`cap0`) live in the
//! struct, so an insert is `n += 1`, one push, one compare and the
//! `stored` counter — no other level is read unless level 0 overflows.
//! (`compactors[0]` stays empty; a cascade swaps the level-0 buffer in
//! for its duration.) `stored()`, and so `space_words()`, read that
//! counter: insert, compaction and merge keep it equal to the sum of the
//! level lengths.
//!
//! A cascade compacts over-capacity levels bottom-up, exactly as a scan
//! of every level would, with the same RNG draws in the same order:
//!
//! * From the state where **every level fits**, only level 0 changed, so
//!   the cascade stops at the first level that fits: the levels above it
//!   are untouched and within capacity, and a scan would pass them by.
//!   A compaction of the top level grows the hierarchy; the new top is
//!   the one level left to check, so stopping there is exact too.
//! * A grow shrinks every lower level's capacity, which can leave
//!   levels *below* the new top over capacity. A full scan leaves them
//!   so until the next one reaches them, so `grow` — and `merge`, which
//!   adds to every level — set `cap0` to **0**, a capacity no non-empty
//!   level 0 fits. The next insert then always cascades, and a cascade
//!   that starts from `cap0 == 0` scans every level without stopping.
//!   If it grows nothing, every level fits again and `cap0` is restored.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Minimum per-level buffer capacity.
const MIN_CAP: usize = 8;
/// Capacity decay ratio per level below the top.
const DECAY: f64 = 2.0 / 3.0;
/// Safety constant mapping error parameter → top-level capacity.
/// Var ≈ n²/(2·k²·(something)) for the decayed hierarchy; k = C/ε keeps the
/// standard deviation comfortably below ε·n (validated by tests).
const CAP_CONST: f64 = 2.0;

/// Randomized mergeable quantile sketch (unbiased rank estimates).
#[derive(Debug, Clone)]
pub struct KllSketch {
    /// Level 0: items of weight 1, unsorted.
    level0: Vec<u64>,
    /// `caps[0]` while every level fits, 0 when the next cascade must
    /// scan every level (module docs).
    cap0: usize,
    /// Items stored across all levels.
    stored: usize,
    n: u64,
    /// `compactors[l]` holds items of weight `2^l`, unsorted;
    /// `compactors[0]` is empty outside a cascade (`level0` holds them).
    compactors: Vec<Vec<u64>>,
    /// `caps[l]` is level `l`'s capacity at the current height.
    caps: Vec<usize>,
    /// Top-level capacity parameter `k`.
    k: usize,
    rng: SmallRng,
}

impl KllSketch {
    /// New sketch with top-level capacity `k ≥ 8`.
    pub fn new(k: usize, seed: u64) -> Self {
        let k = k.max(MIN_CAP);
        Self {
            level0: Vec::new(),
            cap0: k,
            stored: 0,
            n: 0,
            compactors: vec![Vec::new()],
            caps: vec![k],
            k,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// New sketch calibrated so that the rank-estimate standard deviation
    /// is at most `e·n` ("error parameter e" in the paper's §4 sense).
    /// `e` may exceed 1 (coarse summaries are meaningful for subsampled
    /// levels of the rank-tracking tree); capacity bottoms out at
    /// a small constant (`MIN_CAP`, private).
    pub fn with_error(e: f64, seed: u64) -> Self {
        assert!(e > 0.0);
        Self::new((CAP_CONST / e).ceil() as usize, seed)
    }

    /// Append an empty top level; every level below is now one step
    /// deeper, so all capacities are recomputed (level `l` sits at depth
    /// `height − 1 − l`).
    fn grow(&mut self) {
        self.compactors.push(Vec::new());
        let (k, height) = (self.k as f64, self.compactors.len() as i32);
        let cap = |depth| ((k * DECAY.powi(depth)).ceil() as usize).max(MIN_CAP);
        self.caps.clear();
        self.caps.extend((0..height).rev().map(cap));
        // Lower levels may now be over their shrunken capacities.
        self.cap0 = 0;
    }

    /// Insert one element.
    pub fn insert(&mut self, x: u64) {
        self.n += 1;
        self.stored += 1;
        self.level0.push(x);
        if self.level0.len() > self.cap0 {
            self.compact_cascade();
        }
    }

    /// Compact over-capacity levels bottom-up: up to the first level that
    /// fits when every level fitted before (`cap0 != 0`), else all of
    /// them (module docs).
    fn compact_cascade(&mut self) {
        let scan_all = self.cap0 == 0;
        // Every level fits after this cascade unless it grows (`grow`
        // zeroes `cap0` again).
        self.cap0 = self.caps[0];
        std::mem::swap(&mut self.level0, &mut self.compactors[0]);
        let mut l = 0;
        while l < self.compactors.len() {
            if self.compactors[l].len() > self.caps[l] {
                self.compact_level(l);
                // A compaction can overflow level l+1; continue upward.
            } else if !scan_all {
                break;
            }
            l += 1;
        }
        std::mem::swap(&mut self.level0, &mut self.compactors[0]);
    }

    /// Sort level `l`, keep odd- or even-indexed elements (fair coin), and
    /// promote the survivors to level `l+1`.
    fn compact_level(&mut self, l: usize) {
        if self.compactors.len() == l + 1 {
            self.grow();
        }
        let (lower, upper) = self.compactors.split_at_mut(l + 1);
        let buf = &mut lower[l];
        buf.sort_unstable();
        let offset = usize::from(self.rng.gen::<bool>());
        upper[0].extend(buf.iter().skip(offset).step_by(2));
        self.stored -= buf.len() - (buf.len() - offset).div_ceil(2);
        // Emptied in place: the level keeps its allocation.
        buf.clear();
    }

    /// Every level bottom-up; level `l` holds items of weight `2^l`.
    fn levels(&self) -> impl Iterator<Item = &[u64]> {
        std::iter::once(&self.level0)
            .chain(&self.compactors[1..])
            .map(Vec::as_slice)
    }

    /// Elements inserted.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Total stored items across all levels.
    pub fn stored(&self) -> usize {
        self.stored
    }

    /// Resident size in words.
    pub fn space_words(&self) -> u64 {
        self.stored as u64 + self.compactors.len() as u64 + 4
    }

    /// Unbiased estimate of the number of inserted elements `< x`.
    pub fn estimate_rank(&self, x: u64) -> f64 {
        self.levels()
            .enumerate()
            .map(|(l, items)| {
                let below = items.iter().filter(|&&v| v < x).count() as f64;
                below * (1u64 << l) as f64
            })
            .sum()
    }

    /// Merge another sketch into this one (mergeability per \[1\]).
    pub fn merge(&mut self, other: &KllSketch) {
        while self.compactors.len() < other.compactors.len() {
            self.grow();
        }
        let mine = std::iter::once(&mut self.level0).chain(&mut self.compactors[1..]);
        for (items, theirs) in mine.zip(other.levels()) {
            items.extend_from_slice(theirs);
        }
        self.n += other.n;
        self.stored += other.stored;
        // Any level may be over capacity now: scan them all.
        self.cap0 = 0;
        self.compact_cascade();
    }

    /// Freeze into a transmissible summary (the "summary computed by Av"
    /// that §4 sends to the coordinator when a node fills).
    pub fn summary(&self) -> KllSummary {
        KllSummary {
            levels: self
                .levels()
                .map(|c| {
                    let mut v = c.to_vec();
                    v.sort_unstable();
                    v
                })
                .collect(),
        }
    }

    /// Approximate φ-quantile: the smallest stored value whose estimated
    /// count of elements `≤` it reaches `φ·n` (the largest if none does).
    /// One sort of the stored `(value, weight)` pairs and a prefix walk.
    pub fn quantile(&self, phi: f64) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        let target = phi.clamp(0.0, 1.0) * self.n as f64;
        let mut weighted: Vec<(u64, u64)> = self
            .levels()
            .enumerate()
            .flat_map(|(l, items)| items.iter().map(move |&v| (v, 1u64 << l)))
            .collect();
        weighted.sort_unstable();
        // Integer weights summing below 2^53: exact as `f64`.
        let mut at_most = 0u64;
        for copies in weighted.chunk_by(|a, b| a.0 == b.0) {
            at_most += copies.iter().map(|&(_, w)| w).sum::<u64>();
            if at_most as f64 >= target {
                return Some(copies[0].0);
            }
        }
        weighted.last().map(|&(v, _)| v)
    }
}

/// Immutable, transmissible form of a [`KllSketch`].
///
/// On the wire this costs one word per stored item plus one word per level
/// (weights are implied by level index) plus the count `n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KllSummary {
    /// Sorted items per level; level `l` items have weight `2^l`.
    pub levels: Vec<Vec<u64>>,
}

impl KllSummary {
    /// Unbiased estimate of the number of summarized elements `< x`.
    pub fn estimate_rank(&self, x: u64) -> f64 {
        self.levels
            .iter()
            .enumerate()
            .map(|(l, items)| items.partition_point(|&v| v < x) as f64 * (1u64 << l) as f64)
            .sum()
    }

    /// Total stored items.
    pub fn stored(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }
}

/// `KllSketch` as it was before level 0 and its capacity moved into the
/// struct: every insert scans every level, `stored()` sums them and
/// `quantile` re-estimates each candidate. Kept verbatim as the
/// reference the differential test holds the sketch to.
#[cfg(test)]
mod reference {
    use super::{KllSummary, CAP_CONST, DECAY, MIN_CAP};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The reference sketch.
    #[derive(Debug, Clone)]
    pub struct KllSketch {
        /// `compactors[l]` holds items of weight `2^l`, unsorted.
        compactors: Vec<Vec<u64>>,
        /// `caps[l]` is level `l`'s capacity at the current height.
        caps: Vec<usize>,
        /// Top-level capacity parameter `k`.
        k: usize,
        n: u64,
        rng: SmallRng,
    }

    impl KllSketch {
        /// New sketch with top-level capacity `k ≥ 8`.
        pub fn new(k: usize, seed: u64) -> Self {
            let k = k.max(MIN_CAP);
            Self {
                compactors: vec![Vec::new()],
                caps: vec![k],
                k,
                n: 0,
                rng: SmallRng::seed_from_u64(seed),
            }
        }

        /// New sketch calibrated so that the rank-estimate standard deviation
        /// is at most `e·n` ("error parameter e" in the paper's §4 sense).
        /// `e` may exceed 1 (coarse summaries are meaningful for subsampled
        /// levels of the rank-tracking tree); capacity bottoms out at
        /// a small constant (`MIN_CAP`, private).
        pub fn with_error(e: f64, seed: u64) -> Self {
            assert!(e > 0.0);
            Self::new((CAP_CONST / e).ceil() as usize, seed)
        }

        /// Append an empty top level; every level below is now one step
        /// deeper, so all capacities are recomputed (level `l` sits at depth
        /// `height − 1 − l`).
        fn grow(&mut self) {
            self.compactors.push(Vec::new());
            let (k, height) = (self.k as f64, self.compactors.len() as i32);
            let cap = |depth| ((k * DECAY.powi(depth)).ceil() as usize).max(MIN_CAP);
            self.caps.clear();
            self.caps.extend((0..height).rev().map(cap));
        }

        /// Insert one element.
        pub fn insert(&mut self, x: u64) {
            self.n += 1;
            self.compactors[0].push(x);
            self.compact_cascade();
        }

        /// Compact any over-capacity level, bottom-up, until all fit.
        fn compact_cascade(&mut self) {
            let mut l = 0;
            while l < self.compactors.len() {
                if self.compactors[l].len() > self.caps[l] {
                    self.compact_level(l);
                    // A compaction can overflow level l+1; continue upward.
                }
                l += 1;
            }
        }

        /// Sort level `l`, keep odd- or even-indexed elements (fair coin), and
        /// promote the survivors to level `l+1`.
        fn compact_level(&mut self, l: usize) {
            if self.compactors.len() == l + 1 {
                self.grow();
            }
            let (lower, upper) = self.compactors.split_at_mut(l + 1);
            let buf = &mut lower[l];
            buf.sort_unstable();
            let offset = usize::from(self.rng.gen::<bool>());
            upper[0].extend(buf.iter().skip(offset).step_by(2));
            // Emptied in place: the level keeps its allocation.
            buf.clear();
        }

        /// Elements inserted.
        pub fn n(&self) -> u64 {
            self.n
        }

        /// Total stored items across all levels.
        pub fn stored(&self) -> usize {
            self.compactors.iter().map(Vec::len).sum()
        }

        /// Resident size in words.
        pub fn space_words(&self) -> u64 {
            self.stored() as u64 + self.compactors.len() as u64 + 4
        }

        /// Unbiased estimate of the number of inserted elements `< x`.
        pub fn estimate_rank(&self, x: u64) -> f64 {
            self.compactors
                .iter()
                .enumerate()
                .map(|(l, items)| {
                    let below = items.iter().filter(|&&v| v < x).count() as f64;
                    below * (1u64 << l) as f64
                })
                .sum()
        }

        /// Merge another sketch into this one (mergeability per \[1\]).
        pub fn merge(&mut self, other: &KllSketch) {
            while self.compactors.len() < other.compactors.len() {
                self.grow();
            }
            for (l, items) in other.compactors.iter().enumerate() {
                self.compactors[l].extend_from_slice(items);
            }
            self.n += other.n;
            self.compact_cascade();
        }

        /// Freeze into a transmissible summary (the "summary computed by Av"
        /// that §4 sends to the coordinator when a node fills).
        pub fn summary(&self) -> KllSummary {
            KllSummary {
                levels: self
                    .compactors
                    .iter()
                    .map(|c| {
                        let mut v = c.clone();
                        v.sort_unstable();
                        v
                    })
                    .collect(),
            }
        }

        /// Approximate φ-quantile via binary search over rank estimates.
        pub fn quantile(&self, phi: f64) -> Option<u64> {
            if self.n == 0 {
                return None;
            }
            let target = phi.clamp(0.0, 1.0) * self.n as f64;
            // Candidate values: all stored items.
            let mut vals: Vec<u64> = self
                .compactors
                .iter()
                .flat_map(|c| c.iter().copied())
                .collect();
            vals.sort_unstable();
            vals.dedup();
            // Smallest stored value whose rank estimate reaches the target.
            let mut best = *vals.last()?;
            for &v in &vals {
                if self.estimate_rank(v) + self.weight_of(v) >= target {
                    best = v;
                    break;
                }
            }
            Some(best)
        }

        /// Total weight of stored copies of `v`.
        fn weight_of(&self, v: u64) -> f64 {
            self.compactors
                .iter()
                .enumerate()
                .map(|(l, items)| {
                    items.iter().filter(|&&u| u == v).count() as f64 * (1u64 << l) as f64
                })
                .sum()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_once(seed: u64, n: u64, e: f64, x: u64) -> f64 {
        let mut s = KllSketch::with_error(e, seed);
        // Insert a fixed permuted sequence (seed-independent data).
        let mut v: Vec<u64> = (0..n).collect();
        // Deterministic shuffle independent of sketch randomness.
        let mut prng = SmallRng::seed_from_u64(999);
        use rand::seq::SliceRandom;
        v.shuffle(&mut prng);
        for &i in &v {
            s.insert(i);
        }
        s.estimate_rank(x)
    }

    #[test]
    fn exact_when_small() {
        let mut s = KllSketch::new(100, 0);
        for i in 0..50u64 {
            s.insert(i);
        }
        assert_eq!(s.estimate_rank(25), 25.0);
        assert_eq!(s.estimate_rank(0), 0.0);
        assert_eq!(s.estimate_rank(1000), 50.0);
    }

    #[test]
    fn estimates_are_unbiased() {
        // Mean over independent sketch seeds ≈ true rank.
        let (n, e, x) = (4_000u64, 0.05, 1_700u64);
        let reps = 400;
        let mean: f64 = (0..reps).map(|s| run_once(s, n, e, x)).sum::<f64>() / reps as f64;
        // sd per run ≤ e·n = 200 → SE of mean ≤ 10.
        assert!((mean - x as f64).abs() < 40.0, "mean {mean} truth {x}");
    }

    #[test]
    fn variance_within_calibration() {
        let (n, e, x) = (4_000u64, 0.05, 2_000u64);
        let reps = 300;
        let samples: Vec<f64> = (0..reps).map(|s| run_once(1000 + s, n, e, x)).collect();
        let mean = samples.iter().sum::<f64>() / reps as f64;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (reps - 1) as f64;
        let bound = (e * n as f64).powi(2);
        assert!(var <= bound, "var {var} > bound {bound}");
    }

    #[test]
    fn size_is_independent_of_n() {
        let mut s = KllSketch::with_error(0.01, 7);
        let mut sizes = Vec::new();
        for i in 0..200_000u64 {
            s.insert(i.wrapping_mul(0x9E3779B97F4A7C15) >> 16);
            if i % 50_000 == 49_999 {
                sizes.push(s.stored());
            }
        }
        // k = 200 → steady-state ≈ 3k plus MIN_CAP·levels slack.
        for &sz in &sizes {
            assert!(sz < 1200, "stored {sz}");
        }
        // Growth from 50k to 200k elements is at most the slack, not linear.
        assert!(sizes[3] < sizes[0] + 300, "sizes {sizes:?}");
    }

    #[test]
    fn merge_preserves_totals_and_accuracy() {
        let mut a = KllSketch::with_error(0.02, 1);
        let mut b = KllSketch::with_error(0.02, 2);
        for i in 0..5_000u64 {
            a.insert(i);
        }
        for i in 5_000..10_000u64 {
            b.insert(i);
        }
        a.merge(&b);
        assert_eq!(a.n(), 10_000);
        let est = a.estimate_rank(7_500);
        assert!((est - 7_500.0).abs() < 0.02 * 10_000.0 * 3.0, "est {est}");
    }

    #[test]
    fn summary_matches_sketch_estimates() {
        let mut s = KllSketch::with_error(0.05, 3);
        for i in 0..3_000u64 {
            s.insert((i * 37) % 10_000);
        }
        let sum = s.summary();
        for &x in &[0u64, 100, 5_000, 9_999, 20_000] {
            assert_eq!(s.estimate_rank(x), sum.estimate_rank(x));
        }
        assert_eq!(sum.stored(), s.stored());
    }

    #[test]
    fn rank_estimates_are_monotone() {
        let mut s = KllSketch::with_error(0.03, 4);
        for i in 0..10_000u64 {
            s.insert((i * 31) % 50_000);
        }
        let mut prev = -1.0;
        for x in (0..50_000u64).step_by(1000) {
            let r = s.estimate_rank(x);
            assert!(r >= prev, "rank dipped at {x}: {r} < {prev}");
            prev = r;
        }
    }

    #[test]
    fn quantile_tracks_uniform_data() {
        let mut s = KllSketch::with_error(0.02, 5);
        for i in 0..10_000u64 {
            s.insert((i * 7919) % 10_000); // permutation of 0..10000
        }
        for &phi in &[0.1, 0.5, 0.9] {
            let q = s.quantile(phi).unwrap() as f64;
            assert!((q - phi * 10_000.0).abs() < 400.0, "phi {phi} → {q}");
        }
        assert_eq!(KllSketch::new(8, 0).quantile(0.5), None);
    }

    /// Seed-independent input for the golden test: 16-bit values.
    fn golden_value(i: u64) -> u64 {
        i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48
    }

    /// Exact summaries recorded from the implementation before the
    /// capacity cache and in-place compaction: the hot-loop rewrite must
    /// keep scan order, compaction decisions and RNG draws, so every item
    /// at every level is pinned — across heights 3, 7 and 10 and a
    /// `merge` into a shorter sketch that cascades to a new top level.
    #[test]
    fn summaries_are_bit_identical_to_recorded_goldens() {
        let golden: [&[&[u64]]; 3] = [
            &[
                &[6771, 16333, 31804, 56836],
                &[8166, 10423, 23637, 25894, 39108, 41365, 50927, 54579],
                &[5909, 21380, 40503, 55974],
            ],
            &[
                &[23559, 39030, 48592, 64063],
                &[2179, 11741, 27211, 42682, 58153],
                &[],
                &[3574, 19045, 34516, 46335, 61806],
                &[],
                &[],
                &[8166, 12477, 25691, 39563, 52980],
            ],
            &[
                &[18471, 33942, 43504, 58974],
                &[6652, 22123, 37594, 53065],
                &[],
                &[13957, 29428, 41246, 56717],
                &[],
                &[1276, 10837, 24051, 34475, 47359, 58849],
                &[288, 10053, 23267, 37343, 50886, 65494],
                &[114, 14441, 28469, 39348, 45132, 56951],
                &[],
                &[10394, 24140, 38109, 51197, 59441],
            ],
        ];
        let mut a = KllSketch::new(8, 42);
        let mut fed = 0u64;
        for (n, want) in [40u64, 400, 4_000].into_iter().zip(golden) {
            while fed < n {
                a.insert(golden_value(fed));
                fed += 1;
            }
            let got = a.summary();
            assert_eq!(a.n(), n);
            assert_eq!(got.levels, want, "levels at n = {n}");
        }

        let mut b = KllSketch::new(8, 43);
        for i in 0..1_000u64 {
            b.insert(golden_value(10_000 + i));
        }
        assert_eq!(b.compactors.len(), 8, "shorter than `a` before the merge");
        b.merge(&a);
        let merged: &[&[u64]] = &[
            &[18471, 33942, 43504, 49534, 58974],
            &[6652, 9031, 18592, 22123, 34063, 37594, 53065, 53187],
            &[6774, 22245, 37716, 50929],
            &[],
            &[],
            &[],
            &[],
            &[],
            &[],
            &[],
            &[10394, 24140, 38109, 51197, 59441],
        ];
        let got = b.summary();
        assert_eq!(b.n(), 5_000);
        assert_eq!(got.levels, merged, "levels after merge");
    }

    /// The cache invariants — `caps` against the formula, `cap0` either
    /// `caps[0]` with every level within capacity or the 0 sentinel, and
    /// `stored` the sum of the levels — at every height a growing sketch
    /// passes through and after a `merge` that grows it by several levels.
    #[test]
    fn cached_capacities_match_the_formula_at_every_height() {
        fn check(s: &KllSketch) {
            let height = s.compactors.len();
            assert_eq!(s.caps.len(), height);
            for (l, &cap) in s.caps.iter().enumerate() {
                let depth = (height - 1 - l) as i32;
                let formula =
                    ((s.k as f64 * (2.0f64 / 3.0).powi(depth)).ceil() as usize).max(MIN_CAP);
                assert_eq!(cap, formula, "level {l} at height {height}");
            }
            check_counters(s);
        }
        let mut heights = std::collections::BTreeSet::new();
        let mut s = KllSketch::new(50, 9);
        check(&s);
        for i in 0..20_000u64 {
            s.insert(golden_value(i));
            if heights.insert(s.compactors.len()) {
                check(&s);
            }
        }
        assert!(heights.len() >= 8, "heights reached: {heights:?}");
        check(&s);

        let mut short = KllSketch::new(50, 10);
        short.insert(1);
        short.merge(&s);
        assert!(short.compactors.len() >= s.compactors.len());
        check(&short);
    }

    /// `stored` counts the levels, `compactors[0]` is empty outside a
    /// cascade, and `cap0` is the 0 sentinel or `caps[0]` with every level
    /// within capacity.
    fn check_counters(s: &KllSketch) {
        assert!(s.compactors[0].is_empty(), "level 0 lives in `level0`");
        assert_eq!(s.stored, s.levels().map(<[u64]>::len).sum::<usize>());
        if s.cap0 != 0 {
            assert_eq!(s.cap0, s.caps[0]);
            for (l, items) in s.levels().enumerate() {
                assert!(items.len() <= s.caps[l], "level {l} over capacity");
            }
        }
    }

    #[test]
    fn coarse_error_parameter_gives_tiny_sketch() {
        // e ≥ 1 is used by high levels of the rank-tracking tree.
        let mut s = KllSketch::with_error(2.0, 6);
        for i in 0..10_000u64 {
            s.insert(i);
        }
        assert!(s.stored() <= MIN_CAP * s.compactors.len() + MIN_CAP);
    }

    /// Every observable of `got` equals the reference's: `n`, `stored`,
    /// `space_words`, the summary, `quantile` at seven φ and
    /// `estimate_rank` to the bit on a grid of stored items ± 1.
    fn assert_same(got: &KllSketch, want: &reference::KllSketch, at: &str) {
        check_counters(got);
        assert_eq!(got.n(), want.n(), "{at}: n");
        assert_eq!(got.stored(), want.stored(), "{at}: stored");
        assert_eq!(got.space_words(), want.space_words(), "{at}: space_words");
        let summary = want.summary();
        assert_eq!(got.summary(), summary, "{at}: summary");
        let mut grid = vec![0, u64::MAX];
        for &v in summary.levels.iter().flatten().step_by(5) {
            grid.extend([v.saturating_sub(1), v, v.saturating_add(1)]);
        }
        for x in grid {
            let (g, w) = (got.estimate_rank(x), want.estimate_rank(x));
            assert_eq!(g.to_bits(), w.to_bits(), "{at}: rank of {x}");
        }
        for phi in [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(got.quantile(phi), want.quantile(phi), "{at}: φ = {phi}");
        }
    }

    /// `len` values shaped at random: uniform over `u64`, an ascending or
    /// a descending run, or draws from a few small values (duplicates,
    /// within the run and across runs).
    fn run_values(prng: &mut SmallRng, len: usize) -> Vec<u64> {
        let start = prng.gen_range(0..1u64 << 40);
        match prng.gen_range(0..4u32) {
            0 => (0..len).map(|_| prng.gen()).collect(),
            1 => (start..start + len as u64).collect(),
            2 => (start..start + len as u64).rev().collect(),
            _ => {
                let few: Vec<u64> = (0..prng.gen_range(1..6usize))
                    .map(|_| prng.gen_range(0..100u64))
                    .collect();
                (0..len)
                    .map(|_| few[prng.gen_range(0..few.len())])
                    .collect()
            }
        }
    }

    /// Feeds `values` to both sketches; counts inserts whose cascade grew
    /// a hierarchy that was already at least 8 levels tall.
    fn insert_both(
        got: &mut KllSketch,
        want: &mut reference::KllSketch,
        values: &[u64],
        tall_grows: &mut u32,
    ) {
        for &x in values {
            let height = got.compactors.len();
            got.insert(x);
            want.insert(x);
            if height >= 8 && got.compactors.len() > height {
                *tall_grows += 1;
            }
        }
    }

    /// Differential test against the scan-every-level sketch: seeded
    /// sequences of insert runs, merges with taller and shorter sketches
    /// and summaries at random points, for `k` from 8 to 300.
    #[test]
    fn matches_the_scan_every_level_reference() {
        let mut prng = SmallRng::seed_from_u64(0xD1FF);
        let (mut tall_grows, mut merge_grows) = (0, 0);
        let (mut merged_taller, mut merged_shorter) = (0, 0);
        for case in 0..10 {
            let seed = prng.gen();
            let (mut got, mut want) = match case {
                0 => (KllSketch::new(8, seed), reference::KllSketch::new(8, seed)),
                1 => (
                    KllSketch::new(300, seed),
                    reference::KllSketch::new(300, seed),
                ),
                2 => (
                    KllSketch::with_error(0.03, seed),
                    reference::KllSketch::with_error(0.03, seed),
                ),
                _ => {
                    let k = prng.gen_range(8..301usize);
                    (KllSketch::new(k, seed), reference::KllSketch::new(k, seed))
                }
            };
            let k = got.k;
            let mut step = 0;
            while got.n() < 30_000 {
                step += 1;
                let at = format!("case {case} (k = {k}), step {step}");
                match prng.gen_range(0..12u32) {
                    0 => {
                        let (ko, so) = (prng.gen_range(8..301usize), prng.gen());
                        let mut og = KllSketch::new(ko, so);
                        let mut ow = reference::KllSketch::new(ko, so);
                        let len = if prng.gen() {
                            prng.gen_range(1..got.n() as usize / 4 + 2)
                        } else {
                            prng.gen_range(got.n() as usize..2 * got.n() as usize + 200)
                        };
                        let values = run_values(&mut prng, len);
                        insert_both(&mut og, &mut ow, &values, &mut tall_grows);
                        let height = got.compactors.len();
                        match og.compactors.len().cmp(&height) {
                            std::cmp::Ordering::Greater => merged_taller += 1,
                            std::cmp::Ordering::Less => merged_shorter += 1,
                            std::cmp::Ordering::Equal => {}
                        }
                        got.merge(&og);
                        want.merge(&ow);
                        if got.compactors.len() > height {
                            merge_grows += 1;
                        }
                        assert_same(&got, &want, &format!("{at}, after a merge"));
                    }
                    1 => assert_eq!(got.summary(), want.summary(), "{at}: summary"),
                    _ => {
                        let len = prng.gen_range(1..2_000usize);
                        let values = run_values(&mut prng, len);
                        insert_both(&mut got, &mut want, &values, &mut tall_grows);
                    }
                }
                if step % 6 == 0 {
                    assert_same(&got, &want, &at);
                }
            }
            assert_same(&got, &want, &format!("case {case} (k = {k}), end"));
        }
        assert!(tall_grows > 0, "no cascade grew a hierarchy of height ≥ 8");
        assert!(merge_grows > 0, "no merge grew the hierarchy");
        assert!(
            merged_taller > 0 && merged_shorter > 0,
            "{merged_taller} / {merged_shorter}"
        );
    }
}
