//! Deterministic frequency-tracking baseline ([29]-style).
//!
//! Each site runs a Misra–Gries summary with `⌈4/ε⌉` counters and keeps
//! the coordinator's copy of every counter within a granularity of
//! `g = max(1, ⌊εn̄/(4k)⌋)`: a counter whose value drifted by ≥ g since its
//! last report is re-sent, and a counter evicted after having been
//! reported is retracted with a zero report. Error budget:
//!
//! * MG truncation: ≤ εnᵢ/4 per site, ≤ εn/4 total;
//! * staleness: < g per (site, counter), ≤ k·g ≤ εn̄/4 ≤ εn/4 total.
//!
//! Communication is `Θ(k/ε·logN)` words — the deterministic optimum [29]
//! that Theorem 3.1's randomized protocol beats by `√k`. Space is the
//! optimal `O(1/ε)` per site.

use dtrack_sim::wire::{WireError, WireReader, WireSink};
use dtrack_sim::{Coordinator, Decode, Encode, Net, Outbox, Protocol, Site, SiteId, Words};
use dtrack_sketch::hash::FastMap;

use crate::coarse::{CoarseCoord, CoarseSite, NewRound};
use crate::config::TrackingConfig;

/// Site → coordinator messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetFreqUp {
    /// Coarse-tracker doubling report.
    Coarse(u64),
    /// Counter refresh: `item → value` (0 retracts an evicted counter).
    Counter(u64, u64),
}

impl Words for DetFreqUp {
    fn words(&self) -> u64 {
        match self {
            DetFreqUp::Coarse(_) => 1,
            DetFreqUp::Counter(_, _) => 2,
        }
    }
}

impl Encode for DetFreqUp {
    fn encode(&self, w: &mut impl WireSink) {
        match self {
            DetFreqUp::Coarse(n) => {
                w.put_u8(0);
                w.put_varint(*n);
            }
            DetFreqUp::Counter(item, value) => {
                w.put_u8(1);
                w.put_varint(*item);
                w.put_varint(*value);
            }
        }
    }
}

impl Decode for DetFreqUp {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(DetFreqUp::Coarse(r.varint()?)),
            1 => Ok(DetFreqUp::Counter(r.varint()?, r.varint()?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Protocol factory for the deterministic baseline.
#[derive(Debug, Clone, Copy)]
pub struct DeterministicFrequency {
    cfg: TrackingConfig,
}

impl DeterministicFrequency {
    /// Create for `k` sites and error parameter ε.
    pub fn new(cfg: TrackingConfig) -> Self {
        Self { cfg }
    }
}

/// Site state: Misra–Gries counters plus last-reported values.
#[derive(Debug, Clone)]
pub struct DetFreqSite {
    cfg: TrackingConfig,
    coarse: CoarseSite,
    /// `item → (mg_counter, last_reported)`.
    counters: FastMap<u64, (u64, u64)>,
    capacity: usize,
    granularity: u64,
}

impl DetFreqSite {
    fn new(cfg: TrackingConfig) -> Self {
        Self {
            cfg,
            coarse: CoarseSite::new(),
            counters: FastMap::default(),
            capacity: (4.0 / cfg.epsilon).ceil() as usize,
            granularity: 1,
        }
    }

    fn maybe_report(item: u64, c: u64, reported: &mut u64, g: u64, out: &mut Outbox<DetFreqUp>) {
        if c.abs_diff(*reported) >= g {
            *reported = c;
            out.send(DetFreqUp::Counter(item, c));
        }
    }
}

impl Site for DetFreqSite {
    type Item = u64;
    type Up = DetFreqUp;
    type Down = NewRound;

    fn on_item(&mut self, item: &u64, out: &mut Outbox<DetFreqUp>) {
        let g = self.granularity;
        if let Some((c, reported)) = self.counters.get_mut(item) {
            *c += 1;
            Self::maybe_report(*item, *c, reported, g, out);
        } else if self.counters.len() < self.capacity {
            let mut reported = 0;
            Self::maybe_report(*item, 1, &mut reported, g, out);
            self.counters.insert(*item, (1, reported));
        } else {
            // Misra–Gries decrement-all; retract evicted reported counters
            // and refresh survivors that drifted a full granularity.
            let mut retractions = Vec::new();
            let mut refreshes = Vec::new();
            self.counters.retain(|&j, (c, reported)| {
                *c -= 1;
                if *c == 0 {
                    if *reported > 0 {
                        retractions.push(j);
                    }
                    false
                } else {
                    if reported.abs_diff(*c) >= g {
                        *reported = *c;
                        refreshes.push((j, *c));
                    }
                    true
                }
            });
            for j in retractions {
                out.send(DetFreqUp::Counter(j, 0));
            }
            for (j, c) in refreshes {
                out.send(DetFreqUp::Counter(j, c));
            }
        }
        if let Some(r) = self.coarse.on_item() {
            out.send(DetFreqUp::Coarse(r));
        }
    }

    fn on_message(&mut self, &NewRound { n_bar }: &NewRound, _out: &mut Outbox<DetFreqUp>) {
        let g = self.cfg.epsilon * n_bar as f64 / (4.0 * self.cfg.k as f64);
        self.granularity = (g.floor() as u64).max(1);
    }

    fn space_words(&self) -> u64 {
        3 * self.counters.len() as u64 + 6
    }
}

/// Coordinator state: mirrored counters per site.
#[derive(Debug, Clone)]
pub struct DetFreqCoord {
    cfg: TrackingConfig,
    coarse: CoarseCoord,
    mirrored: Vec<FastMap<u64, u64>>,
}

impl DetFreqCoord {
    fn new(cfg: TrackingConfig) -> Self {
        Self {
            cfg,
            coarse: CoarseCoord::new(cfg.k),
            mirrored: (0..cfg.k).map(|_| FastMap::default()).collect(),
        }
    }

    /// The tracked estimate of `f_j` (within `±εn` deterministically).
    pub fn estimate_frequency(&self, item: u64) -> f64 {
        self.mirrored
            .iter()
            .map(|m| m.get(&item).copied().unwrap_or(0))
            .sum::<u64>() as f64
    }

    /// Items whose estimate is ≥ `threshold`.
    pub fn heavy_hitters(&self, threshold: f64) -> Vec<(u64, f64)> {
        let mut candidates: Vec<u64> = self
            .mirrored
            .iter()
            .flat_map(|m| m.keys().copied())
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        let mut out: Vec<(u64, f64)> = candidates
            .into_iter()
            .map(|j| (j, self.estimate_frequency(j)))
            .filter(|&(_, f)| f >= threshold)
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        out
    }
}

impl Coordinator for DetFreqCoord {
    type Up = DetFreqUp;
    type Down = NewRound;

    fn on_message(&mut self, from: SiteId, msg: &DetFreqUp, net: &mut Net<NewRound>) {
        match msg {
            DetFreqUp::Coarse(ni) => {
                if let Some(n_bar) = self.coarse.on_report(from, *ni) {
                    let _ = self.cfg; // granularity is site-side
                    net.broadcast(NewRound { n_bar });
                }
            }
            DetFreqUp::Counter(item, value) => {
                if *value == 0 {
                    self.mirrored[from].remove(item);
                } else {
                    self.mirrored[from].insert(*item, *value);
                }
            }
        }
    }
}

/// A closed epoch digests to its mirrored-counter table (every tracked
/// item with its estimate); the sliding-window adapter sum-merges the
/// tables across buckets.
///
/// The digest carries **explicitly zero correction state**
/// ([`crate::window::ItemCounts::from_pairs`]): unlike the randomized
/// protocol, this estimator has no sampling step and hence no eq. (4)
/// absent branch — its Misra–Gries tables count tracked items exactly
/// (to εn̄/(2k) granularity), and an untracked item truly estimates to 0
/// in the whole-stream estimator as well. A `−d/p`-style term here
/// would *introduce* bias, not remove it.
impl crate::window::EpochProtocol for DeterministicFrequency {
    type Digest = crate::window::ItemCounts;

    fn digest(coord: &DetFreqCoord) -> Self::Digest {
        crate::window::ItemCounts::from_pairs(coord.heavy_hitters(f64::NEG_INFINITY))
    }
}

/// Tree aggregation: each level re-runs the Misra–Gries tracker with
/// its share of the error budget; an aggregator replays each tracked
/// item's estimate growth as copies of that item.
impl dtrack_sim::exec::topology::TreeProtocol for DeterministicFrequency {
    type Cursor = crate::topology::ItemCursor;

    fn level_instance(&self, children: usize, eps_factor: f64) -> Self {
        Self::new(TrackingConfig::new(children, self.cfg.epsilon * eps_factor))
    }

    fn restream(coord: &DetFreqCoord, cursor: &mut Self::Cursor, emit: &mut dyn FnMut(&u64)) {
        let digest = <Self as crate::window::EpochProtocol>::digest(coord);
        cursor.advance(&digest, &mut |item| emit(&item));
    }
}

impl Protocol for DeterministicFrequency {
    type Site = DetFreqSite;
    type Coord = DetFreqCoord;

    fn k(&self) -> usize {
        self.cfg.k
    }

    fn build_site(&self, _master_seed: u64, _me: SiteId) -> DetFreqSite {
        DetFreqSite::new(self.cfg)
    }

    fn build_coord(&self, _master_seed: u64) -> DetFreqCoord {
        DetFreqCoord::new(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrack_sim::Runner;
    use dtrack_sketch::exact::ExactCounts;

    #[test]
    fn error_within_epsilon_at_all_times() {
        let (k, eps, n) = (8, 0.1, 40_000u64);
        let proto = DeterministicFrequency::new(TrackingConfig::new(k, eps));
        let mut r = Runner::new(&proto, 0);
        let mut exact = ExactCounts::new();
        for t in 0..n {
            let item = if t % 4 == 0 { 7 } else { t % 4000 };
            r.feed((t % k as u64) as usize, &item);
            exact.observe(item);
            if t % 997 == 0 {
                for &j in &[7u64, 1, 2, 424_242] {
                    let est = r.coord().estimate_frequency(j);
                    let truth = exact.frequency(j) as f64;
                    assert!(
                        (est - truth).abs() <= eps * exact.n() as f64 + 1.0,
                        "t={t} item={j} est={est} truth={truth}"
                    );
                }
            }
        }
    }

    #[test]
    fn space_is_one_over_eps() {
        let (k, eps, n) = (4, 0.05, 30_000u64);
        let proto = DeterministicFrequency::new(TrackingConfig::new(k, eps));
        let mut r = Runner::new(&proto, 0);
        for t in 0..n {
            r.feed((t % k as u64) as usize, &(t % 10_000));
        }
        // capacity = 80 counters × 3 words + slack.
        assert!(r.space().max_peak() <= 3 * 80 + 6);
    }

    #[test]
    fn communication_scales_linearly_in_k() {
        let eps = 0.2;
        let n = 60_000u64;
        let words_at = |k: usize| {
            let proto = DeterministicFrequency::new(TrackingConfig::new(k, eps));
            let mut r = Runner::new(&proto, 0);
            for t in 0..n {
                r.feed((t % k as u64) as usize, &(t % 50));
            }
            r.stats().total_words() as f64
        };
        let w4 = words_at(4);
        let w64 = words_at(64);
        // Deterministic cost grows ~k (16× here); allow wide tolerance.
        assert!(w64 > 4.0 * w4, "w4={w4} w64={w64}");
    }

    #[test]
    fn heavy_hitters_found() {
        let (k, eps, n) = (4, 0.1, 20_000u64);
        let proto = DeterministicFrequency::new(TrackingConfig::new(k, eps));
        let mut r = Runner::new(&proto, 0);
        for t in 0..n {
            let item = if t % 3 == 0 { 5 } else { 1000 + (t % 5000) };
            r.feed((t % k as u64) as usize, &item);
        }
        let hh = r.coord().heavy_hitters(0.2 * n as f64);
        assert_eq!(hh.len(), 1);
        assert_eq!(hh[0].0, 5);
    }
}
