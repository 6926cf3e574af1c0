//! Constant-factor tracking of `n` — the round structure (§2.1).
//!
//! "Each site Si keeps track of its own counter ni. Whenever ni doubles,
//! it sends an update to the coordinator. The coordinator sets
//! `n′ = Σ n′i` … When n′ doubles (more precisely, when n′ changes by a
//! factor between 2 and 4), the coordinator broadcasts n′ to all the
//! sites." The broadcast value `n̄` is always a constant-factor
//! approximation of the true `n`, costs `O(k logN)` communication in
//! total, and divides the execution into `O(logN)` rounds. All three
//! randomized protocols embed this component, and so do the
//! deterministic frequency and rank baselines; it is factored out here as
//! a pair of plain state machines that the protocols drive from their
//! message handlers, plus the broadcast itself, [`NewRound`].

use dtrack_sim::wire::{WireError, WireReader, WireSink};
use dtrack_sim::{Decode, Encode};

/// The coordinator's round broadcast of a new `n̄` — the whole down
/// vocabulary of every protocol built on this tracker (randomized count,
/// frequency and rank, and the deterministic frequency and rank
/// baselines): one word, one varint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NewRound {
    /// The new coarse estimate of `n`.
    pub n_bar: u64,
}

impl Encode for NewRound {
    fn encode(&self, w: &mut impl WireSink) {
        w.put_varint(self.n_bar);
    }
}

impl Decode for NewRound {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(NewRound { n_bar: r.varint()? })
    }
}

/// Site-side half of the coarse tracker.
#[derive(Debug, Clone)]
pub struct CoarseSite {
    ni: u64,
    next_report: u64,
}

impl CoarseSite {
    /// Fresh site with zero counter.
    pub fn new() -> Self {
        Self {
            ni: 0,
            next_report: 1,
        }
    }

    /// Local element count.
    pub fn ni(&self) -> u64 {
        self.ni
    }

    /// Register one arriving element. Returns `Some(ni)` when the local
    /// counter just doubled and must be reported to the coordinator.
    pub fn on_item(&mut self) -> Option<u64> {
        self.ni += 1;
        if self.ni >= self.next_report {
            self.next_report = self.ni * 2;
            Some(self.ni)
        } else {
            None
        }
    }
}

impl Default for CoarseSite {
    fn default() -> Self {
        Self::new()
    }
}

/// Coordinator-side half of the coarse tracker.
#[derive(Debug, Clone)]
pub struct CoarseCoord {
    n_prime: Vec<u64>,
    n_bar: u64,
    round: u32,
}

impl CoarseCoord {
    /// Fresh coordinator over `k` sites.
    pub fn new(k: usize) -> Self {
        Self {
            n_prime: vec![0; k],
            n_bar: 0,
            round: 0,
        }
    }

    /// Last broadcast value `n̄` (0 before the first broadcast).
    pub fn n_bar(&self) -> u64 {
        self.n_bar
    }

    /// Current round index (incremented at each broadcast).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Sum of the last reported per-site counters, `n′`.
    pub fn n_prime(&self) -> u64 {
        self.n_prime.iter().sum()
    }

    /// Process a site's doubling report. Returns `Some(new n̄)` when the
    /// coordinator must broadcast (n′ reached twice the last broadcast
    /// value, or the very first report arrived).
    pub fn on_report(&mut self, from: usize, ni: u64) -> Option<u64> {
        self.n_prime[from] = ni;
        let n_prime = self.n_prime();
        if n_prime >= 2 * self.n_bar || (self.n_bar == 0 && n_prime >= 1) {
            self.n_bar = n_prime;
            self.round += 1;
            Some(self.n_bar)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_reports_on_doublings() {
        let mut s = CoarseSite::new();
        let mut reports = Vec::new();
        for _ in 0..100 {
            if let Some(r) = s.on_item() {
                reports.push(r);
            }
        }
        assert_eq!(reports, vec![1, 2, 4, 8, 16, 32, 64]);
        assert_eq!(s.ni(), 100);
    }

    #[test]
    fn report_count_is_logarithmic() {
        let mut s = CoarseSite::new();
        let mut count = 0;
        for _ in 0..1_000_000u64 {
            if s.on_item().is_some() {
                count += 1;
            }
        }
        assert!(count <= 21, "reports {count}");
    }

    #[test]
    fn coordinator_broadcasts_on_doubling() {
        let mut c = CoarseCoord::new(2);
        assert_eq!(c.on_report(0, 1), Some(1)); // first report
        assert_eq!(c.on_report(1, 1), Some(2)); // n'=2 ≥ 2·1
        assert_eq!(c.on_report(0, 2), None); // n'=3 < 4
        assert_eq!(c.on_report(1, 2), Some(4)); // n'=4 ≥ 4
        assert_eq!(c.round(), 3);
    }

    /// n̄ stays within a constant factor of the true count under any
    /// interleaving of arrivals.
    #[test]
    fn n_bar_is_constant_factor_of_n() {
        let k = 5;
        let mut sites: Vec<CoarseSite> = (0..k).map(|_| CoarseSite::new()).collect();
        let mut coord = CoarseCoord::new(k);
        let mut n = 0u64;
        let mut broadcasts = 0;
        for t in 0..200_000u64 {
            // Skewed interleaving: site 0 gets half of everything.
            let site = if t % 2 == 0 {
                0
            } else {
                (t % k as u64) as usize
            };
            n += 1;
            if let Some(ni) = sites[site].on_item() {
                if coord.on_report(site, ni).is_some() {
                    broadcasts += 1;
                }
            }
            if coord.n_bar() > 0 {
                let ratio = n as f64 / coord.n_bar() as f64;
                // n' undercounts each site by <2× and n̄ lags n' by <2×;
                // n̄ never exceeds n.
                assert!(
                    (1.0..=4.0 + k as f64).contains(&ratio),
                    "t={t} ratio={ratio}"
                );
            }
        }
        // O(logN) broadcasts.
        assert!(broadcasts <= 25, "broadcasts {broadcasts}");
    }

    #[test]
    fn rounds_advance_monotonically() {
        let mut c = CoarseCoord::new(1);
        let mut s = CoarseSite::new();
        let mut last_round = 0;
        for _ in 0..10_000 {
            if let Some(ni) = s.on_item() {
                c.on_report(0, ni);
            }
            assert!(c.round() >= last_round);
            last_round = c.round();
        }
        assert!(c.round() >= 10);
    }
}
