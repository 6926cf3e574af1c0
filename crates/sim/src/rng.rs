//! Deterministic randomness utilities.
//!
//! All protocol randomness flows from a single master seed so experiments
//! replay exactly. Each site gets an independent stream via
//! [`site_seed`] (a splitmix64 hash of the master seed and the site id),
//! each copy of a protocol a wrapper runs via [`instance_seed`].
//!
//! The module also provides [`GeometricSkips`], which turns the paper's
//! "on every arriving element, report with probability `p`" into an O(1)
//! amortized skip counter: instead of flipping a coin per element, sample
//! the number of failures before the next success from the geometric
//! distribution. This is an exact (not approximate) reformulation.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// splitmix64 — a strong 64-bit mixer, used to derive independent seeds.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the seed of site `site`'s randomness from the master seed.
/// `stream` tags the protocol drawing it (0 count, 1 frequency, 2 rank,
/// 3 sampling), so different protocols under one master seed draw
/// independent streams.
pub fn site_seed(master: u64, site: usize, stream: usize) -> u64 {
    splitmix64(
        splitmix64(master ^ 0xD1B5_4A32_D192_ED03)
            ^ splitmix64(site as u64)
            ^ splitmix64((stream as u64).wrapping_mul(0xA24B_AED4_963E_E407)),
    )
}

/// Master seed of sub-instance `index` of a wrapper that runs several
/// independent copies of a protocol: a windowed epoch, a boosted copy.
pub fn instance_seed(master: u64, index: u64) -> u64 {
    splitmix64(master ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Construct a fast non-cryptographic PRNG from a 64-bit seed.
pub fn rng_from_seed(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Bernoulli trial with success probability `p` (clamped to [0, 1]).
pub fn flip<R: Rng>(rng: &mut R, p: f64) -> bool {
    if p >= 1.0 {
        true
    } else if p <= 0.0 {
        false
    } else {
        rng.gen::<f64>() < p
    }
}

/// Exact geometric skip sampler for repeated Bernoulli(`p`) trials.
///
/// `remaining` counts how many further failures occur before the next
/// success. Each call to [`GeometricSkips::trial`] consumes one trial and
/// returns whether it succeeded; successes schedule the next gap. The
/// sequence of outcomes is distributed identically to independent coin
/// flips with probability `p` (see the unit test comparing distributions),
/// but costs O(1) amortized regardless of how small `p` is.
#[derive(Debug, Clone)]
pub struct GeometricSkips {
    p: f64,
    remaining: u64,
}

impl GeometricSkips {
    /// Create a sampler for success probability `p`, drawing the first gap.
    pub fn new<R: Rng>(p: f64, rng: &mut R) -> Self {
        let mut s = Self { p, remaining: 0 };
        s.remaining = s.draw_gap(rng);
        s
    }

    /// Success probability this sampler was configured with.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Change the success probability; redraws the gap, which is correct
    /// because the geometric distribution is memoryless.
    pub fn set_p<R: Rng>(&mut self, p: f64, rng: &mut R) {
        self.p = p;
        self.remaining = self.draw_gap(rng);
    }

    /// Run one Bernoulli(`p`) trial.
    pub fn trial<R: Rng>(&mut self, rng: &mut R) -> bool {
        if self.remaining == 0 {
            self.remaining = self.draw_gap(rng);
            true
        } else {
            self.remaining -= 1;
            false
        }
    }

    /// Number of failures before the next success, Geometric(`p`) on
    /// {0, 1, 2, ...}. Inverse-CDF sampling: ⌊ln U / ln(1−p)⌋.
    fn draw_gap<R: Rng>(&self, rng: &mut R) -> u64 {
        if self.p >= 1.0 {
            return 0;
        }
        if self.p <= 0.0 {
            return u64::MAX;
        }
        // U in (0, 1]; ln(U) in (-inf, 0].
        let u: f64 = 1.0 - rng.gen::<f64>();
        let g = (u.ln() / (1.0 - self.p).ln()).floor();
        if g >= u64::MAX as f64 {
            u64::MAX
        } else {
            g as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        // Flipping one input bit flips roughly half the output bits.
        let a = splitmix64(42);
        let b = splitmix64(43);
        let flipped = (a ^ b).count_ones();
        assert!((16..=48).contains(&flipped), "flipped {flipped}");
    }

    #[test]
    fn site_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for site in 0..100 {
            for stream in 0..10 {
                assert!(seen.insert(site_seed(7, site, stream)));
            }
        }
    }

    #[test]
    fn flip_edge_probabilities() {
        let mut rng = rng_from_seed(1);
        assert!(flip(&mut rng, 1.0));
        assert!(flip(&mut rng, 1.5));
        assert!(!flip(&mut rng, 0.0));
        assert!(!flip(&mut rng, -0.5));
    }

    #[test]
    fn flip_frequency_matches_p() {
        let mut rng = rng_from_seed(2);
        let trials = 200_000;
        let hits = (0..trials).filter(|_| flip(&mut rng, 0.3)).count();
        let freq = hits as f64 / trials as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn geometric_p_one_always_succeeds() {
        let mut rng = rng_from_seed(3);
        let mut g = GeometricSkips::new(1.0, &mut rng);
        for _ in 0..100 {
            assert!(g.trial(&mut rng));
        }
    }

    #[test]
    fn geometric_p_zero_never_succeeds() {
        let mut rng = rng_from_seed(4);
        let mut g = GeometricSkips::new(0.0, &mut rng);
        for _ in 0..100 {
            assert!(!g.trial(&mut rng));
        }
    }

    #[test]
    fn geometric_matches_bernoulli_frequency() {
        // The skip sampler must produce the same long-run success rate as
        // naive coin flipping.
        for &p in &[0.5, 0.1, 0.01] {
            let mut rng = rng_from_seed(5);
            let mut g = GeometricSkips::new(p, &mut rng);
            let trials = 400_000;
            let hits = (0..trials).filter(|_| g.trial(&mut rng)).count();
            let freq = hits as f64 / trials as f64;
            let sd = (p * (1.0 - p) / trials as f64).sqrt();
            assert!(
                (freq - p).abs() < 6.0 * sd + 1e-9,
                "p={p} freq={freq} sd={sd}"
            );
        }
    }

    #[test]
    fn geometric_gap_distribution_matches_theory() {
        // P(gap = t) = (1-p)^t p. Check the empirical mean (1-p)/p.
        let p = 0.2;
        let mut rng = rng_from_seed(6);
        let g = GeometricSkips::new(p, &mut rng);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| g.draw_gap(&mut rng) as f64).sum::<f64>() / n as f64;
        let expect = (1.0 - p) / p;
        assert!((mean - expect).abs() < 0.1, "mean {mean} expect {expect}");
    }

    #[test]
    fn set_p_redraws_gap() {
        let mut rng = rng_from_seed(7);
        let mut g = GeometricSkips::new(0.0001, &mut rng);
        g.set_p(1.0, &mut rng);
        assert!(g.trial(&mut rng));
    }
}
