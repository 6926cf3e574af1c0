//! Continuous distributed sampling baseline (Cormode–Muthukrishnan–Yi–
//! Zhang, paper reference \[9\]; Table 1 row "sampling").
//!
//! Maintains a uniform random sample of size `Θ(1/ε²)` over the union of
//! the streams, with `O(1/ε²·logN)` total communication and `O(1)` space
//! per site. Every element independently draws a geometric *level*
//! (`P(level ≥ j) = 2^{−j}`); sites forward elements whose level reaches
//! the current global level `L`; when the coordinator's sample overflows
//! it raises `L`, discards lower-level elements, and broadcasts the new
//! `L`. The retained elements at level ≥ L form a Bernoulli(2^{−L})
//! sample, from which count, any frequency, and any rank can all be
//! estimated within `±εn` — this is the optimal algorithm in the
//! `k ≥ 1/ε²` regime (§1.2) and one end of the Theorem 3.2
//! space-communication trade-off.

use rand::rngs::SmallRng;
use rand::Rng;

use dtrack_sim::rng::{rng_from_seed, site_seed};
use dtrack_sim::wire::{WireError, WireReader, WireSink};
use dtrack_sim::{Coordinator, Decode, Encode, Net, Outbox, Protocol, Site, SiteId};

use crate::config::TrackingConfig;

/// Capacity safety factor: sample holds `⌈C/ε²⌉` elements.
const CAP_CONST: f64 = 8.0;

/// Site → coordinator message: a sampled element and its level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleUp {
    /// The element.
    pub item: u64,
    /// Its geometric level.
    pub level: u32,
}

impl Encode for SampleUp {
    fn encode(&self, w: &mut impl WireSink) {
        w.put_varint(self.item);
        w.put_varint(u64::from(self.level));
    }
}

impl Decode for SampleUp {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SampleUp {
            item: r.varint()?,
            level: r.varint_u32()?,
        })
    }
}

/// Coordinator → site message: the new global level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelDown(pub u32);

impl Encode for LevelDown {
    fn encode(&self, w: &mut impl WireSink) {
        w.put_varint(u64::from(self.0));
    }
}

impl Decode for LevelDown {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(LevelDown(r.varint_u32()?))
    }
}

/// Protocol factory for the sampling baseline.
#[derive(Debug, Clone, Copy)]
pub struct ContinuousSampling {
    cfg: TrackingConfig,
}

impl ContinuousSampling {
    /// Create for `k` sites and error parameter ε.
    pub fn new(cfg: TrackingConfig) -> Self {
        Self { cfg }
    }

    /// Sample capacity `⌈8/ε²⌉`.
    pub fn capacity(&self) -> usize {
        (CAP_CONST / (self.cfg.epsilon * self.cfg.epsilon)).ceil() as usize
    }
}

/// Site state: just the current level and a PRNG — `O(1)` space.
#[derive(Debug, Clone)]
pub struct SamplingSite {
    level: u32,
    rng: SmallRng,
}

impl Site for SamplingSite {
    type Item = u64;
    type Up = SampleUp;
    type Down = LevelDown;

    fn on_item(&mut self, item: &u64, out: &mut Outbox<SampleUp>) {
        // Geometric level: number of leading coin-flip successes.
        let g = self.rng.gen::<u64>().trailing_ones();
        if g >= self.level {
            out.send(SampleUp {
                item: *item,
                level: g,
            });
        }
    }

    fn on_message(&mut self, msg: &LevelDown, _out: &mut Outbox<SampleUp>) {
        self.level = msg.0;
    }

    fn space_words(&self) -> u64 {
        6
    }
}

/// Coordinator state: the level-`L` sample.
#[derive(Debug, Clone)]
pub struct SamplingCoord {
    capacity: usize,
    level: u32,
    sample: Vec<(u64, u32)>,
}

impl SamplingCoord {
    /// Current global level `L`.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Current sample (elements with level ≥ L).
    pub fn sample(&self) -> impl Iterator<Item = u64> + '_ {
        self.sample.iter().map(|&(v, _)| v)
    }

    /// Inverse sampling rate `2^L`.
    fn scale(&self) -> f64 {
        (1u64 << self.level.min(62)) as f64
    }

    /// Estimate of the total count `n`.
    pub fn estimate_count(&self) -> f64 {
        self.sample.len() as f64 * self.scale()
    }

    /// Estimate of `f_j`.
    pub fn estimate_frequency(&self, item: u64) -> f64 {
        self.sample.iter().filter(|&&(v, _)| v == item).count() as f64 * self.scale()
    }

    /// Estimate of `rank(x)`.
    pub fn estimate_rank(&self, x: u64) -> f64 {
        self.sample.iter().filter(|&&(v, _)| v < x).count() as f64 * self.scale()
    }
}

impl Coordinator for SamplingCoord {
    type Up = SampleUp;
    type Down = LevelDown;

    fn on_message(&mut self, _from: SiteId, msg: &SampleUp, net: &mut Net<LevelDown>) {
        if msg.level >= self.level {
            self.sample.push((msg.item, msg.level));
        }
        if self.sample.len() > self.capacity {
            // Raise the level until the sample fits again.
            while self.sample.len() > self.capacity {
                self.level += 1;
                self.sample.retain(|&(_, g)| g >= self.level);
            }
            net.broadcast(LevelDown(self.level));
        }
    }
}

/// A closed epoch digests to its Bernoulli(2^{−L}) sample, each element
/// weighted by the inverse sampling rate 2^L — so the digest answers
/// count, frequency, *and* rank queries, just like the live coordinator.
/// Merging concatenates point sets (each keeps its own epoch's weight).
impl crate::window::EpochProtocol for ContinuousSampling {
    type Digest = crate::window::WeightedValues;

    fn digest(coord: &SamplingCoord) -> Self::Digest {
        let w = coord.scale();
        crate::window::WeightedValues::from_points(coord.sample().map(|v| (v, w)).collect())
    }
}

impl Protocol for ContinuousSampling {
    type Site = SamplingSite;
    type Coord = SamplingCoord;

    fn k(&self) -> usize {
        self.cfg.k
    }

    fn build_site(&self, master_seed: u64, me: SiteId) -> SamplingSite {
        SamplingSite {
            level: 0,
            rng: rng_from_seed(site_seed(master_seed, me, 3)),
        }
    }

    fn build_coord(&self, _master_seed: u64) -> SamplingCoord {
        SamplingCoord {
            capacity: self.capacity(),
            level: 0,
            sample: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrack_sim::Runner;

    fn run(k: usize, eps: f64, n: u64, seed: u64) -> Runner<ContinuousSampling> {
        let proto = ContinuousSampling::new(TrackingConfig::new(k, eps));
        let mut r = Runner::new(&proto, seed);
        for t in 0..n {
            r.feed((t % k as u64) as usize, &t);
        }
        r
    }

    #[test]
    fn exact_before_overflow() {
        let r = run(4, 0.2, 100, 1); // capacity 200 > 100 → level 0
        assert_eq!(r.coord().level(), 0);
        assert_eq!(r.coord().estimate_count(), 100.0);
        assert_eq!(r.coord().estimate_frequency(5), 1.0);
        assert_eq!(r.coord().estimate_rank(50), 50.0);
    }

    #[test]
    fn count_estimate_within_epsilon() {
        let (k, eps, n) = (8, 0.1, 200_000u64);
        let reps = 30;
        let hits = (0..reps)
            .filter(|&s| {
                let est = run(k, eps, n, s).coord().estimate_count();
                (est - n as f64).abs() <= eps * n as f64
            })
            .count();
        assert!(hits >= 25, "hits {hits}/{reps}");
    }

    #[test]
    fn rank_estimate_within_epsilon() {
        let (k, eps, n) = (8, 0.1, 100_000u64);
        // Items are 0..n in order, so rank(x) = x.
        let reps = 30;
        let hits = (0..reps)
            .filter(|&s| {
                let est = run(k, eps, n, 100 + s).coord().estimate_rank(n / 4);
                (est - (n / 4) as f64).abs() <= eps * n as f64
            })
            .count();
        assert!(hits >= 25, "hits {hits}/{reps}");
    }

    #[test]
    fn sample_size_stays_bounded() {
        let (k, eps, n) = (4, 0.1, 500_000u64);
        let r = run(k, eps, n, 3);
        let cap = ContinuousSampling::new(TrackingConfig::new(k, eps)).capacity();
        assert!(r.coord().sample.len() <= cap);
        assert!(r.coord().level() > 0);
        // After a raise the sample should not be degenerate either.
        assert!(
            r.coord().sample.len() > cap / 8,
            "{}",
            r.coord().sample.len()
        );
    }

    #[test]
    fn communication_independent_of_k() {
        // O(1/ε²·logN + k·logN): for k ≪ 1/ε² doubling k shouldn't double cost.
        let (eps, n) = (0.05, 200_000u64);
        let w8 = run(8, eps, n, 5).stats().total_words() as f64;
        let w64 = run(64, eps, n, 5).stats().total_words() as f64;
        assert!(w64 < 2.0 * w8, "w8={w8} w64={w64}");
    }

    #[test]
    fn site_space_is_constant() {
        let r = run(4, 0.2, 50_000, 7);
        assert!(r.space().max_peak() <= 6);
    }

    #[test]
    fn frequency_estimate_tracks_hot_item() {
        let (k, eps) = (4, 0.1);
        let n = 100_000u64;
        let proto = ContinuousSampling::new(TrackingConfig::new(k, eps));
        let reps = 20;
        let mut total = 0.0;
        for seed in 0..reps {
            let mut r = Runner::new(&proto, seed);
            for t in 0..n {
                let item = if t % 5 == 0 { 7 } else { 1_000 + t };
                r.feed((t % k as u64) as usize, &item);
            }
            total += r.coord().estimate_frequency(7);
        }
        let mean = total / reps as f64;
        let truth = (n / 5) as f64;
        assert!((mean - truth).abs() < 0.25 * truth, "mean {mean}");
    }
}
