//! Randomized count-tracking (§2.1, Theorem 2.1).
//!
//! Each site reports its current counter with probability
//! `p = Θ(√k/(εn))` per arriving element. The coordinator estimates
//! `n̂ᵢ = n̄ᵢ − 1 + 1/p` (where `n̄ᵢ` is the last reported value), which is
//! unbiased with variance ≤ `1/p²` (Lemma 2.1), so `n̂ = Σ n̂ᵢ` has
//! variance ≤ `k/p² = (εn)²` — error `εn` with constant probability by
//! Chebyshev. The coarse tracker (O(k logN) communication) maintains `n̄`
//! and the round structure; when `p` halves at a round boundary each site
//! re-thins its report history so "the whole system looks as if it had
//! always been running with the new p".

use rand::rngs::SmallRng;
use rand::Rng;

use dtrack_sim::rng::{flip, rng_from_seed, site_seed, GeometricSkips};
use dtrack_sim::wire::{WireError, WireReader, WireSink};
use dtrack_sim::{Coordinator, Decode, Encode, Net, Outbox, Protocol, Site, SiteId};

use crate::coarse::{CoarseCoord, CoarseSite, NewRound};
use crate::config::TrackingConfig;

/// Site → coordinator messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CountUp {
    /// Coarse-tracker doubling report of the local counter.
    Coarse(u64),
    /// Probabilistic report of the current local counter.
    Report(u64),
    /// Re-thinned `n̄ᵢ` after a `p`-halving; 0 means "treat as absent".
    Adjusted(u64),
}

impl Encode for CountUp {
    fn encode(&self, w: &mut impl WireSink) {
        match self {
            CountUp::Coarse(n) => {
                w.put_u8(0);
                w.put_varint(*n);
            }
            CountUp::Report(n) => {
                w.put_u8(1);
                w.put_varint(*n);
            }
            CountUp::Adjusted(n) => {
                w.put_u8(2);
                w.put_varint(*n);
            }
        }
    }
}

impl Decode for CountUp {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(CountUp::Coarse(r.varint()?)),
            1 => Ok(CountUp::Report(r.varint()?)),
            2 => Ok(CountUp::Adjusted(r.varint()?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Protocol factory for randomized count-tracking.
#[derive(Debug, Clone, Copy)]
pub struct RandomizedCount {
    cfg: TrackingConfig,
    rethin: bool,
}

impl RandomizedCount {
    /// Create for `k` sites and error parameter ε.
    pub fn new(cfg: TrackingConfig) -> Self {
        Self { cfg, rethin: true }
    }

    /// **Ablation arm**: disable the p-halving re-thinning step (§2.1's
    /// "adjusts its n̄ᵢ appropriately"). Sites keep their stale `n̄ᵢ`
    /// across round boundaries, which biases the estimator right after
    /// each `p` halving — used by the `exp_ablation` experiment to show
    /// the step is necessary, never in production.
    pub fn ablation_no_rethinning(cfg: TrackingConfig) -> Self {
        Self { cfg, rethin: false }
    }
}

/// Site state for [`RandomizedCount`].
#[derive(Debug, Clone)]
pub struct RandCountSite {
    cfg: TrackingConfig,
    rethin: bool,
    coarse: CoarseSite,
    /// Last counter value reported under the current `p` regime.
    n_bar_i: Option<u64>,
    p: f64,
    skips: GeometricSkips,
    rng: SmallRng,
}

impl RandCountSite {
    fn new(cfg: TrackingConfig, rethin: bool, seed: u64) -> Self {
        let mut rng = rng_from_seed(seed);
        let skips = GeometricSkips::new(1.0, &mut rng);
        Self {
            cfg,
            rethin,
            coarse: CoarseSite::new(),
            n_bar_i: None,
            p: 1.0,
            skips,
            rng,
        }
    }

    /// One `p → p/2` re-thinning step (§2.1 "Dealing with a decreasing p").
    /// Returns true if `n_bar_i` changed.
    fn halve_adjust(&mut self) -> bool {
        self.p /= 2.0;
        let Some(v) = self.n_bar_i else {
            return false;
        };
        // The old last-success survives the thinning with probability 1/2.
        if self.rng.gen::<bool>() {
            return false;
        }
        // Otherwise scan backward for the previous success under the new p:
        // positions v−1, v−2, … are success with probability p each
        // (old-success ∧ survives ≡ Bernoulli(p·old, thinned) = new p).
        let mut j = v - 1;
        while j > 0 {
            if flip(&mut self.rng, self.p) {
                break;
            }
            j -= 1;
        }
        self.n_bar_i = if j == 0 { None } else { Some(j) };
        true
    }
}

impl Site for RandCountSite {
    type Item = u64;
    type Up = CountUp;
    type Down = NewRound;

    fn on_item(&mut self, _item: &u64, out: &mut Outbox<CountUp>) {
        if let Some(r) = self.coarse.on_item() {
            out.send(CountUp::Coarse(r));
        }
        if self.skips.trial(&mut self.rng) {
            self.n_bar_i = Some(self.coarse.ni());
            out.send(CountUp::Report(self.coarse.ni()));
        }
    }

    fn on_message(&mut self, &NewRound { n_bar }: &NewRound, out: &mut Outbox<CountUp>) {
        let p_new = self.cfg.p_for(n_bar);
        let mut changed = false;
        // p is always a power of two; apply one halving step per factor 2.
        while self.p > p_new * 1.000_001 {
            if self.rethin {
                changed |= self.halve_adjust();
            } else {
                self.p /= 2.0; // ablation arm: stale n̄ᵢ kept
            }
        }
        if changed {
            out.send(CountUp::Adjusted(self.n_bar_i.unwrap_or(0)));
        }
        self.skips.set_p(self.p, &mut self.rng);
    }

    fn space_words(&self) -> u64 {
        // ni, next_report, n̄ᵢ, p, skip counter, and the PRNG state: O(1).
        10
    }
}

/// Coordinator state for [`RandomizedCount`].
#[derive(Debug, Clone)]
pub struct RandCountCoord {
    cfg: TrackingConfig,
    coarse: CoarseCoord,
    n_bar_i: Vec<Option<u64>>,
    p: f64,
}

impl RandCountCoord {
    fn new(cfg: TrackingConfig) -> Self {
        Self {
            cfg,
            coarse: CoarseCoord::new(cfg.k),
            n_bar_i: vec![None; cfg.k],
            p: 1.0,
        }
    }

    /// The tracked estimate `n̂ = Σᵢ (n̄ᵢ − 1 + 1/p)` over reporting sites.
    pub fn estimate(&self) -> f64 {
        self.n_bar_i
            .iter()
            .flatten()
            .map(|&v| v as f64 - 1.0 + 1.0 / self.p)
            .sum()
    }

    /// **Ablation arm**: the naive one-case estimator the paper warns
    /// against below eq. (1) — a site with no report contributes
    /// `1/p − 1` instead of 0, incurring a Θ(1/p) bias per silent site.
    pub fn estimate_naive(&self) -> f64 {
        self.n_bar_i
            .iter()
            .map(|v| v.unwrap_or(0) as f64 - 1.0 + 1.0 / self.p)
            .sum()
    }

    /// Current sampling probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Current coarse estimate `n̄`.
    pub fn n_bar(&self) -> u64 {
        self.coarse.n_bar()
    }

    /// Current round index.
    pub fn round(&self) -> u32 {
        self.coarse.round()
    }
}

impl Coordinator for RandCountCoord {
    type Up = CountUp;
    type Down = NewRound;

    fn on_message(&mut self, from: SiteId, msg: &CountUp, net: &mut Net<NewRound>) {
        match msg {
            CountUp::Coarse(ni) => {
                if let Some(n_bar) = self.coarse.on_report(from, *ni) {
                    self.p = self.cfg.p_for(n_bar);
                    net.broadcast(NewRound { n_bar });
                }
            }
            CountUp::Report(ni) => {
                self.n_bar_i[from] = Some(*ni);
            }
            CountUp::Adjusted(v) => {
                self.n_bar_i[from] = if *v == 0 { None } else { Some(*v) };
            }
        }
    }
}

/// A closed epoch of count tracking digests to its final estimate; the
/// sliding-window adapter sums those across buckets.
impl crate::window::EpochProtocol for RandomizedCount {
    type Digest = crate::window::ScalarCount;

    fn digest(coord: &RandCountCoord) -> Self::Digest {
        crate::window::ScalarCount(coord.estimate())
    }
}

/// Tree aggregation: each level re-runs §2.1's tracker over its own
/// children with its share of the error budget (the ablation arm keeps
/// its no-re-thinning behavior at every level); an aggregator replays
/// its estimate's growth as anonymous elements.
impl dtrack_sim::exec::topology::TreeProtocol for RandomizedCount {
    type Cursor = crate::topology::ScalarCursor;

    fn level_instance(&self, children: usize, eps_factor: f64) -> Self {
        Self {
            cfg: TrackingConfig::new(children, self.cfg.epsilon * eps_factor),
            rethin: self.rethin,
        }
    }

    fn restream(coord: &RandCountCoord, cursor: &mut Self::Cursor, emit: &mut dyn FnMut(&u64)) {
        cursor.advance(coord.estimate(), &mut |v| emit(&v));
    }
}

impl Protocol for RandomizedCount {
    type Site = RandCountSite;
    type Coord = RandCountCoord;

    fn k(&self) -> usize {
        self.cfg.k
    }

    fn build_site(&self, master_seed: u64, me: SiteId) -> RandCountSite {
        RandCountSite::new(self.cfg, self.rethin, site_seed(master_seed, me, 0))
    }

    fn build_coord(&self, _master_seed: u64) -> RandCountCoord {
        RandCountCoord::new(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrack_sim::Runner;

    fn run(k: usize, eps: f64, n: u64, seed: u64) -> Runner<RandomizedCount> {
        let p = RandomizedCount::new(TrackingConfig::new(k, eps));
        let mut r = Runner::new(&p, seed);
        for t in 0..n {
            r.feed((t % k as u64) as usize, &t);
        }
        r
    }

    #[test]
    fn exact_while_p_is_one() {
        // n̄ ≤ √k/ε keeps p = 1 → every element reported → exact estimate.
        let p = RandomizedCount::new(TrackingConfig::new(4, 0.1));
        let mut r = Runner::new(&p, 1);
        for t in 0..15u64 {
            r.feed((t % 4) as usize, &t);
            assert_eq!(r.coord().estimate(), (t + 1) as f64, "at t={t}");
        }
    }

    #[test]
    fn estimate_is_unbiased_at_fixed_time() {
        let (k, eps, n) = (9, 0.15, 30_000u64);
        let reps = 60;
        let mean: f64 = (0..reps)
            .map(|s| run(k, eps, n, s).coord().estimate())
            .sum::<f64>()
            / reps as f64;
        // sd per run ≤ εn = 4500 → SE ≤ 581.
        assert!((mean - n as f64).abs() < 2_000.0, "mean {mean} truth {n}");
    }

    #[test]
    fn error_within_epsilon_with_high_probability() {
        let (k, eps, n) = (16, 0.1, 50_000u64);
        let reps = 50;
        let hits = (0..reps)
            .filter(|&s| {
                let est = run(k, eps, n, 1000 + s).coord().estimate();
                (est - n as f64).abs() <= eps * n as f64
            })
            .count();
        // Theorem 2.1: ≥ 0.9; allow slack for small reps.
        assert!(hits >= 40, "only {hits}/{reps} within εn");
    }

    #[test]
    fn communication_beats_deterministic_scaling() {
        // At large k and small ε the randomized protocol must use fewer
        // messages than the deterministic (1+ε)-threshold baseline.
        let (k, eps, n) = (64, 0.05, 200_000u64);
        let rand_msgs = run(k, eps, n, 7).stats().total_msgs() as f64;
        let det_msgs = {
            let p = crate::count::DeterministicCount::new(TrackingConfig::new(k, eps));
            let mut r = Runner::new(&p, 7);
            for t in 0..n {
                r.feed((t % k as u64) as usize, &t);
            }
            r.stats().total_msgs() as f64
        };
        assert!(
            rand_msgs < det_msgs,
            "randomized {rand_msgs} ≥ deterministic {det_msgs}"
        );
        // And it stays within the theorem's shape (constant ~3 for the
        // √k/ε term, plus the additive O(k logN) coarse-tracking term).
        let bound =
            3.0 * (k as f64).sqrt() / eps * (n as f64).log2() + 3.0 * k as f64 * (n as f64).log2();
        assert!(rand_msgs < bound, "msgs {rand_msgs} bound {bound}");
    }

    #[test]
    fn space_is_constant() {
        let r = run(8, 0.1, 20_000, 3);
        assert!(r.space().max_peak() <= 10);
    }

    #[test]
    fn adjustment_keeps_estimate_sane_across_rounds() {
        // Track error at many time instants; coarse errors would explode
        // if the re-thinning were biased.
        let (k, eps, n) = (16, 0.1, 80_000u64);
        let p = RandomizedCount::new(TrackingConfig::new(k, eps));
        let mut total = 0.0;
        let reps = 30;
        for seed in 0..reps {
            let mut r = Runner::new(&p, seed);
            for t in 0..n {
                r.feed((t % k as u64) as usize, &t);
                if t == n / 2 {
                    total += r.coord().estimate();
                }
            }
        }
        let mean = total / reps as f64;
        let truth = (n / 2 + 1) as f64;
        assert!(
            (mean - truth).abs() < 0.06 * truth,
            "mean {mean} truth {truth}"
        );
    }

    #[test]
    fn p_matches_config_after_rounds() {
        let (k, eps, n) = (16, 0.1, 100_000u64);
        let r = run(k, eps, n, 5);
        let c = r.coord();
        assert_eq!(c.p(), TrackingConfig::new(k, eps).p_for(c.n_bar()));
        assert!(c.p() < 1.0);
        assert!(c.round() > 10);
    }

    #[test]
    fn single_site_stream() {
        // All elements at one site (case (a) of the hard distribution).
        let (k, eps, n) = (16, 0.1, 50_000u64);
        let proto = RandomizedCount::new(TrackingConfig::new(k, eps));
        let reps = 40;
        let hits = (0..reps)
            .filter(|&seed| {
                let mut r = Runner::new(&proto, seed);
                for t in 0..n {
                    r.feed(3, &t);
                }
                (r.coord().estimate() - n as f64).abs() <= eps * n as f64
            })
            .count();
        assert!(hits >= 32, "only {hits}/{reps} within εn");
    }
}
