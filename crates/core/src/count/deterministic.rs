//! The trivial deterministic count-tracking baseline (§1).
//!
//! "Every time a counter nᵢ has increased by a 1+ε factor, the player
//! informs the coordinator of the change." One-way communication,
//! `O(k/ε·logN)` messages — and that is optimal for deterministic
//! algorithms even with two-way communication [29], which is exactly what
//! the randomized protocol beats by `√k`.

use dtrack_sim::wire::{WireError, WireReader, WireSink};
use dtrack_sim::{Coordinator, Decode, Encode, Net, Outbox, Protocol, Site, SiteId, Words};

use crate::config::TrackingConfig;

/// Site → coordinator message: the current local counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetCountUp(pub u64);

impl Words for DetCountUp {
    fn words(&self) -> u64 {
        1
    }
}

impl Encode for DetCountUp {
    fn encode(&self, w: &mut impl WireSink) {
        w.put_varint(self.0);
    }
}

impl Decode for DetCountUp {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(DetCountUp(r.varint()?))
    }
}

/// Protocol factory for the deterministic baseline.
#[derive(Debug, Clone, Copy)]
pub struct DeterministicCount {
    cfg: TrackingConfig,
}

impl DeterministicCount {
    /// Create for `k` sites and error parameter ε.
    pub fn new(cfg: TrackingConfig) -> Self {
        Self { cfg }
    }
}

/// Site state: local counter plus the next reporting threshold.
#[derive(Debug, Clone)]
pub struct DetCountSite {
    epsilon: f64,
    ni: u64,
    last_reported: u64,
}

impl Site for DetCountSite {
    type Item = u64;
    type Up = DetCountUp;
    type Down = ();

    fn on_item(&mut self, _item: &u64, out: &mut Outbox<DetCountUp>) {
        self.ni += 1;
        let threshold = (self.last_reported as f64) * (1.0 + self.epsilon);
        if self.last_reported == 0 || self.ni as f64 >= threshold {
            self.last_reported = self.ni;
            out.send(DetCountUp(self.ni));
        }
    }

    fn on_message(&mut self, _msg: &(), _out: &mut Outbox<DetCountUp>) {
        // One-way protocol: the coordinator never sends anything.
    }

    fn space_words(&self) -> u64 {
        3
    }
}

/// Coordinator state: last reported counter per site.
#[derive(Debug, Clone)]
pub struct DetCountCoord {
    last: Vec<u64>,
}

impl DetCountCoord {
    /// The tracked estimate `n̂ = Σᵢ (last reported nᵢ)`.
    ///
    /// Guarantee: `n̂ ≤ n ≤ (1+ε)·n̂` deterministically.
    pub fn estimate(&self) -> f64 {
        self.last.iter().sum::<u64>() as f64
    }
}

impl Coordinator for DetCountCoord {
    type Up = DetCountUp;
    type Down = ();

    fn on_message(&mut self, from: SiteId, msg: &DetCountUp, _net: &mut Net<()>) {
        self.last[from] = msg.0;
    }
}

/// A closed epoch digests to its final (1+ε)-underestimate; the
/// sliding-window adapter sums those across buckets.
impl crate::window::EpochProtocol for DeterministicCount {
    type Digest = crate::window::ScalarCount;

    fn digest(coord: &DetCountCoord) -> Self::Digest {
        crate::window::ScalarCount(coord.estimate())
    }
}

/// Tree aggregation: each level re-runs the deterministic tracker with
/// its share of the error budget; an aggregator replays its estimate's
/// growth as anonymous elements (count sites ignore item values).
impl dtrack_sim::exec::topology::TreeProtocol for DeterministicCount {
    type Cursor = crate::topology::ScalarCursor;

    fn level_instance(&self, children: usize, eps_factor: f64) -> Self {
        Self::new(TrackingConfig::new(children, self.cfg.epsilon * eps_factor))
    }

    fn restream(coord: &DetCountCoord, cursor: &mut Self::Cursor, emit: &mut dyn FnMut(&u64)) {
        cursor.advance(coord.estimate(), &mut |v| emit(&v));
    }
}

impl Protocol for DeterministicCount {
    type Site = DetCountSite;
    type Coord = DetCountCoord;

    fn k(&self) -> usize {
        self.cfg.k
    }

    fn build_site(&self, _master_seed: u64, _me: SiteId) -> DetCountSite {
        DetCountSite {
            epsilon: self.cfg.epsilon,
            ni: 0,
            last_reported: 0,
        }
    }

    fn build_coord(&self, _master_seed: u64) -> DetCountCoord {
        DetCountCoord {
            last: vec![0; self.cfg.k],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrack_sim::Runner;

    #[test]
    fn guarantee_holds_at_every_time_instant() {
        let cfg = TrackingConfig::new(8, 0.1);
        let p = DeterministicCount::new(cfg);
        let mut r = Runner::new(&p, 0);
        for t in 0..50_000u64 {
            // Adversarial skew: site 0 gets most elements.
            let site = if t % 3 == 0 { (t % 8) as usize } else { 0 };
            r.feed(site, &t);
            let n = (t + 1) as f64;
            let est = r.coord().estimate();
            assert!(est <= n + 1e-9, "overestimate at t={t}");
            assert!(
                n <= est * (1.0 + cfg.epsilon) + 1e-9,
                "t={t} est={est} n={n}"
            );
        }
    }

    #[test]
    fn communication_is_k_over_eps_log_n() {
        let (k, eps, n) = (16, 0.1, 100_000u64);
        let p = DeterministicCount::new(TrackingConfig::new(k, eps));
        let mut r = Runner::new(&p, 0);
        for t in 0..n {
            r.feed((t % k as u64) as usize, &t);
        }
        let msgs = r.stats().total_msgs() as f64;
        // Per site: log_{1+ε}(n/k) ≈ ln(n/k)/ε ≈ 87 messages.
        let per_site = ((n / k as u64) as f64).ln() / eps;
        assert!(msgs > 0.5 * k as f64 * per_site, "msgs {msgs}");
        assert!(
            msgs < 2.0 * k as f64 * per_site + 2.0 * k as f64,
            "msgs {msgs}"
        );
        // Strictly one-way.
        assert_eq!(r.stats().down_msgs, 0);
    }

    #[test]
    fn space_is_constant() {
        let p = DeterministicCount::new(TrackingConfig::new(4, 0.05));
        let mut r = Runner::new(&p, 0);
        for t in 0..10_000u64 {
            r.feed((t % 4) as usize, &t);
        }
        assert_eq!(r.space().max_peak(), 3);
    }

    #[test]
    fn first_element_is_reported() {
        let p = DeterministicCount::new(TrackingConfig::new(2, 0.5));
        let mut r = Runner::new(&p, 0);
        r.feed(1, &0);
        assert_eq!(r.coord().estimate(), 1.0);
    }
}
