//! Frequency tracking via rank tracking (§1.2).
//!
//! "A rank-tracking algorithm also solves the frequency-tracking problem
//! …, by turning each element x into a pair (x, y) to break all ties …
//! When the frequency of x is desired, we ask for the ranks of (x, 0) and
//! (x, ∞) and take the difference."
//!
//! Pairs are encoded as `x·2³² + y` (so `x < 2³²` and `y < 2³²`); the
//! per-occurrence tie-breaker `y = site + k·seq` is unique across sites
//! without coordination.

pub use crate::query::RankQuery;

/// Encode the pair `(item, tie)` as a single orderable element.
pub fn encode(item: u32, tie: u32) -> u64 {
    ((item as u64) << 32) | tie as u64
}

/// Decode an encoded pair back to `(item, tie)`.
pub fn decode(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// Per-site tie-breaker generator: site `i` of `k` issues
/// `i, i+k, i+2k, …` — globally unique with no communication.
#[derive(Debug, Clone)]
pub struct TieBreaker {
    next: u64,
    k: u64,
}

impl TieBreaker {
    /// Tie-breaker stream for site `site` of `k`.
    pub fn new(site: usize, k: usize) -> Self {
        Self {
            next: site as u64,
            k: k as u64,
        }
    }

    /// Issue the next tie value.
    pub fn next_tie(&mut self) -> u32 {
        let t = self.next;
        self.next += self.k;
        assert!(t <= u32::MAX as u64, "tie-breaker space exhausted");
        t as u32
    }
}

/// Frequency of `item` from a rank structure over encoded pairs:
/// `rank((item+1, 0)) − rank((item, 0))`.
pub fn frequency_from_ranks<R: RankQuery>(ranks: &R, item: u32) -> f64 {
    ranks.rank(encode(item + 1, 0)) - ranks.rank(encode(item, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrackingConfig;
    use crate::rank::RandomizedRank;
    use dtrack_sim::Runner;

    #[test]
    fn encode_is_order_preserving_and_invertible() {
        assert!(encode(1, u32::MAX) < encode(2, 0));
        assert!(encode(5, 3) < encode(5, 4));
        assert_eq!(decode(encode(7, 9)), (7, 9));
    }

    #[test]
    fn tie_breakers_are_globally_unique() {
        let k = 4;
        let mut seen = std::collections::HashSet::new();
        let mut breakers: Vec<TieBreaker> = (0..k).map(|i| TieBreaker::new(i, k)).collect();
        for _ in 0..1000 {
            for b in &mut breakers {
                assert!(seen.insert(b.next_tie()));
            }
        }
    }

    #[test]
    fn frequency_via_rank_tracks_hot_item() {
        let (k, eps, n) = (9, 0.2, 30_000u64);
        let proto = RandomizedRank::new(TrackingConfig::new(k, eps));
        let reps = 25;
        let mut total = 0.0;
        for seed in 0..reps {
            let mut r = Runner::new(&proto, seed);
            let mut breakers: Vec<TieBreaker> = (0..k).map(|i| TieBreaker::new(i, k)).collect();
            for t in 0..n {
                let site = (t % k as u64) as usize;
                let item = if t % 4 == 0 {
                    7u32
                } else {
                    (1000 + t % 4096) as u32
                };
                let v = encode(item, breakers[site].next_tie());
                r.feed(site, &v);
            }
            total += frequency_from_ranks(r.coord(), 7);
        }
        let mean = total / reps as f64;
        let truth = (n / 4) as f64;
        assert!(
            (mean - truth).abs() < 0.2 * truth,
            "mean {mean} truth {truth}"
        );
    }
}
