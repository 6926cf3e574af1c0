//! Phased / non-stationary workloads.
//!
//! * [`Sequential`] — site 0 receives all its elements first, then site 1,
//!   and so on: the arrival order used by the Theorem 3.2 reduction ("we
//!   arrange the element arrivals in a round so that site S1 gets all its
//!   elements first, then S2 …").
//! * [`DriftingItems`] — the item distribution shifts over time (the hot
//!   set rotates), stressing the per-round restart logic of the frequency
//!   protocol: what was heavy in round i may be absent in round i+1.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::assign::SiteAssign;
use crate::items::ItemGen;

/// Sequential site assignment: the first `per_site` elements go to site
/// 0, the next `per_site` to site 1, … wrapping around.
#[derive(Debug, Clone)]
pub struct Sequential {
    k: usize,
    per_site: u64,
    issued: u64,
}

impl Sequential {
    /// Assignment over `k` sites, `per_site` consecutive elements each.
    pub fn new(k: usize, per_site: u64) -> Self {
        assert!(k >= 1 && per_site >= 1);
        Self {
            k,
            per_site,
            issued: 0,
        }
    }
}

impl SiteAssign for Sequential {
    fn next_site(&mut self, _rng: &mut SmallRng) -> usize {
        let site = ((self.issued / self.per_site) as usize) % self.k;
        self.issued += 1;
        site
    }
    fn k(&self) -> usize {
        self.k
    }
}

/// Zipf-like items whose hot set rotates every `phase_len` elements:
/// during phase `p`, item `j` is remapped to `(j + p·stride) mod domain`.
#[derive(Debug, Clone)]
pub struct DriftingItems {
    domain: u64,
    phase_len: u64,
    stride: u64,
    issued: u64,
    /// Zipf CDF over the *unrotated* ranks.
    cdf: Vec<f64>,
}

impl DriftingItems {
    /// Drifting zipf(`s`) items over `[0, domain)`, rotating by `stride`
    /// every `phase_len` elements.
    pub fn new(domain: u64, s: f64, phase_len: u64, stride: u64) -> Self {
        assert!(domain >= 1 && s > 0.0 && phase_len >= 1);
        let mut cdf = Vec::with_capacity(domain as usize);
        let mut acc = 0.0;
        for i in 0..domain {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Self {
            domain,
            phase_len,
            stride,
            issued: 0,
            cdf,
        }
    }
}

impl ItemGen for DriftingItems {
    fn next_item(&mut self, rng: &mut SmallRng) -> u64 {
        let phase = self.issued / self.phase_len;
        self.issued += 1;
        let u: f64 = rng.gen();
        let rank = self.cdf.partition_point(|&c| c < u) as u64;
        (rank + phase * self.stride) % self.domain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sequential_fills_sites_in_order() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut a = Sequential::new(3, 4);
        let seq: Vec<usize> = (0..14).map(|_| a.next_site(&mut rng)).collect();
        assert_eq!(seq, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 0, 0]);
    }

    #[test]
    fn drifting_hot_set_rotates() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut g = DriftingItems::new(100, 1.5, 5_000, 10);
        // Phase 0: item 0 hottest.
        let mut phase0 = std::collections::HashMap::new();
        for _ in 0..5_000 {
            *phase0.entry(g.next_item(&mut rng)).or_insert(0u32) += 1;
        }
        // Phase 1: item 10 hottest.
        let mut phase1 = std::collections::HashMap::new();
        for _ in 0..5_000 {
            *phase1.entry(g.next_item(&mut rng)).or_insert(0u32) += 1;
        }
        let top = |m: &std::collections::HashMap<u64, u32>| {
            m.iter().max_by_key(|(_, &c)| c).map(|(&i, _)| i).unwrap()
        };
        assert_eq!(top(&phase0), 0);
        assert_eq!(top(&phase1), 10);
    }

    #[test]
    fn drifting_stays_in_domain() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut g = DriftingItems::new(17, 1.0, 7, 3);
        for _ in 0..1000 {
            assert!(g.next_item(&mut rng) < 17);
        }
    }
}
