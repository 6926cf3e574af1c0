//! Randomized frequency-tracking (§3.1, Theorem 3.1).
//!
//! Per site and round, a Manku–Motwani counter list tracks sampled items:
//! a counter is created with probability `p`, then counts exactly, and
//! updated values are forwarded to the coordinator with probability `p`.
//! Independently, every element is side-sampled with probability `p` and
//! sent. The coordinator's estimator (eq. 4) is
//!
//! ```text
//! f̂'ᵢⱼ = c̄ᵢⱼ − 2 + 2/p   if a counter update for j was received,
//!        −dᵢⱼ/p           otherwise,
//! ```
//!
//! which is unbiased with variance `O(1/p²)` (Lemma 3.1) — the
//! `−dᵢⱼ/p` branch is the correction that removes the `Θ(εn/√k)` bias a
//! naive "0 when absent" estimator would incur. Rounds restart the
//! structure from scratch with the halved `p`; a site that receives more
//! than `n̄/k` elements in a round splits itself into a fresh *virtual
//! site* to cap its space at `O(1/(ε√k))`.

use rand::rngs::SmallRng;

use dtrack_sim::rng::{flip, rng_from_seed, site_seed};
use dtrack_sim::wire::{WireError, WireReader, WireSink};
use dtrack_sim::{Coordinator, Decode, Encode, Net, Outbox, Protocol, Site, SiteId};
use dtrack_sketch::hash::FastMap;
use dtrack_sketch::sticky::{StickyCounters, StickyEvent};

use crate::coarse::{CoarseCoord, CoarseSite, NewRound};
use crate::config::TrackingConfig;

/// Site → coordinator messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FreqUp {
    /// Coarse-tracker doubling report.
    Coarse(u64),
    /// A counter for `item` was created (value 1 implied).
    CounterNew(u64),
    /// Probabilistic forward of counter `item → value`.
    CounterUpdate(u64, u64),
    /// Side-sampled element.
    Sample(u64),
    /// The site exceeded `n̄/k` elements this round and restarts as a new
    /// virtual site.
    VirtualSplit,
    /// The site switched to the round announced with coarse estimate
    /// `n̄`. Because site→coordinator delivery is FIFO, this message
    /// separates the site's old-round messages from its new-round ones —
    /// the coordinator closes the site's live segment exactly here (not
    /// at broadcast time), which keeps the estimator correct even when
    /// communication is not instant (the channel runtime).
    RoundAck(u64),
}

impl Encode for FreqUp {
    fn encode(&self, w: &mut impl WireSink) {
        match self {
            FreqUp::Coarse(n) => {
                w.put_u8(0);
                w.put_varint(*n);
            }
            FreqUp::CounterNew(item) => {
                w.put_u8(1);
                w.put_varint(*item);
            }
            FreqUp::CounterUpdate(item, value) => {
                w.put_u8(2);
                w.put_varint(*item);
                w.put_varint(*value);
            }
            FreqUp::Sample(item) => {
                w.put_u8(3);
                w.put_varint(*item);
            }
            FreqUp::VirtualSplit => w.put_u8(4),
            FreqUp::RoundAck(n_bar) => {
                w.put_u8(5);
                w.put_varint(*n_bar);
            }
        }
    }
}

impl Decode for FreqUp {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(FreqUp::Coarse(r.varint()?)),
            1 => Ok(FreqUp::CounterNew(r.varint()?)),
            2 => Ok(FreqUp::CounterUpdate(r.varint()?, r.varint()?)),
            3 => Ok(FreqUp::Sample(r.varint()?)),
            4 => Ok(FreqUp::VirtualSplit),
            5 => Ok(FreqUp::RoundAck(r.varint()?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Protocol factory for randomized frequency-tracking.
#[derive(Debug, Clone, Copy)]
pub struct RandomizedFrequency {
    cfg: TrackingConfig,
}

impl RandomizedFrequency {
    /// Create for `k` sites and error parameter ε.
    pub fn new(cfg: TrackingConfig) -> Self {
        Self { cfg }
    }
}

/// Site state for [`RandomizedFrequency`].
#[derive(Debug, Clone)]
pub struct RandFreqSite {
    cfg: TrackingConfig,
    coarse: CoarseSite,
    sticky: StickyCounters,
    p: f64,
    /// Elements received in the current virtual segment.
    segment_count: u64,
    /// Virtual-split threshold `max(1, n̄/k)`.
    segment_cap: u64,
    rng: SmallRng,
}

impl RandFreqSite {
    fn new(cfg: TrackingConfig, seed: u64) -> Self {
        Self {
            cfg,
            coarse: CoarseSite::new(),
            sticky: StickyCounters::new(1.0),
            p: 1.0,
            segment_count: 0,
            segment_cap: 1,
            rng: rng_from_seed(seed),
        }
    }
}

impl Site for RandFreqSite {
    type Item = u64;
    type Up = FreqUp;
    type Down = NewRound;

    fn on_item(&mut self, item: &u64, out: &mut Outbox<FreqUp>) {
        // Virtual-site space cap (§3.1): restart before absorbing the
        // element that would exceed n̄/k.
        if self.segment_count >= self.segment_cap {
            out.send(FreqUp::VirtualSplit);
            self.sticky.clear();
            self.segment_count = 0;
        }
        self.segment_count += 1;
        match self.sticky.observe(*item, &mut self.rng) {
            StickyEvent::Created => out.send(FreqUp::CounterNew(*item)),
            StickyEvent::Incremented(c) => {
                if flip(&mut self.rng, self.p) {
                    out.send(FreqUp::CounterUpdate(*item, c));
                }
            }
            StickyEvent::Ignored => {}
        }
        // Independent side sample (for the −d/p estimator branch).
        if flip(&mut self.rng, self.p) {
            out.send(FreqUp::Sample(*item));
        }
        // Coarse report last, so the messages above still belong to the
        // old round if this element triggers a round switch.
        if let Some(r) = self.coarse.on_item() {
            out.send(FreqUp::Coarse(r));
        }
    }

    fn on_message(&mut self, &NewRound { n_bar }: &NewRound, out: &mut Outbox<FreqUp>) {
        self.p = self.cfg.p_for(n_bar);
        self.segment_cap = (n_bar / self.cfg.k as u64).max(1);
        self.segment_count = 0;
        self.sticky = StickyCounters::new(self.p);
        out.send(FreqUp::RoundAck(n_bar));
    }

    fn space_words(&self) -> u64 {
        self.sticky.space_words() + 8
    }
}

/// Live state of one virtual site at the coordinator. Carries the
/// sampling probability its messages were generated under.
#[derive(Debug, Clone)]
struct LiveSegment {
    p: f64,
    /// `j → c̄ᵢⱼ` (last received counter value).
    counters: FastMap<u64, u64>,
    /// `j → dᵢⱼ` (side-sample hits).
    samples: FastMap<u64, u64>,
}

impl LiveSegment {
    fn new(p: f64) -> Self {
        Self {
            p,
            counters: FastMap::default(),
            samples: FastMap::default(),
        }
    }

    /// **Ablation arm**: the biased eq. (2) estimator the paper warns
    /// against ("this estimator is biased and its bias might be as large
    /// as Θ(εn/√k)") — items with no counter contribute 0 instead of
    /// −d/p.
    fn estimate_naive(&self, item: u64) -> f64 {
        match self.counters.get(&item) {
            Some(&c_bar) => c_bar as f64 - 2.0 + 2.0 / self.p,
            None => 0.0,
        }
    }

    /// The estimator f̂'ᵢⱼ of eq. (4) for one item.
    fn estimate(&self, item: u64) -> f64 {
        match self.counters.get(&item) {
            Some(&c_bar) => c_bar as f64 - 2.0 + 2.0 / self.p,
            None => match self.samples.get(&item) {
                Some(&d) => -(d as f64) / self.p,
                None => 0.0,
            },
        }
    }

    /// Fold the whole segment into the archives and reset under `new_p`.
    /// `tracked` receives the counter-branch contributions of eq. (4)
    /// (which double as the biased eq. (2) estimator for the ablation
    /// arm); `corrections` receives the absent-branch `−d/p` terms for
    /// items side-sampled but never countered. Keeping the two branches
    /// in separate archives is what lets an epoch digest preserve the
    /// estimator's structure instead of flattening it.
    fn fold_into(
        &mut self,
        tracked: &mut FastMap<u64, f64>,
        corrections: &mut FastMap<u64, f64>,
        new_p: f64,
    ) {
        for (&item, &c_bar) in &self.counters {
            *tracked.entry(item).or_insert(0.0) += c_bar as f64 - 2.0 + 2.0 / self.p;
        }
        for (&item, &d) in &self.samples {
            if !self.counters.contains_key(&item) {
                *corrections.entry(item).or_insert(0.0) -= d as f64 / self.p;
            }
        }
        self.counters.clear();
        self.samples.clear();
        self.p = new_p;
    }

    /// Append this (still-live) segment's digest contributions:
    /// counter-branch pairs to `tracked`, absent-branch `−d/p` terms to
    /// `corrections` — the same two-branch split as [`Self::fold_into`],
    /// read non-destructively at epoch-seal time.
    fn digest_into(&self, tracked: &mut Vec<(u64, f64)>, corrections: &mut Vec<(u64, f64)>) {
        for (&item, &c_bar) in &self.counters {
            tracked.push((item, c_bar as f64 - 2.0 + 2.0 / self.p));
        }
        for (&item, &d) in &self.samples {
            if !self.counters.contains_key(&item) {
                corrections.push((item, -(d as f64) / self.p));
            }
        }
    }
}

/// Coordinator state for [`RandomizedFrequency`].
#[derive(Debug, Clone)]
pub struct RandFreqCoord {
    cfg: TrackingConfig,
    coarse: CoarseCoord,
    p: f64,
    /// Per real site: the currently live virtual segment.
    live: Vec<LiveSegment>,
    /// Closed rounds and closed virtual segments: counter-branch
    /// contributions of eq. (4), pre-aggregated per item. Alone, this is
    /// the biased eq. (2) estimator — the ablation arm.
    archive_tracked: FastMap<u64, f64>,
    /// Closed rounds and closed virtual segments: absent-branch `−d/p`
    /// correction mass per item, kept separate from `archive_tracked` so
    /// epoch digests can carry the correction terms explicitly.
    archive_corrections: FastMap<u64, f64>,
}

impl RandFreqCoord {
    fn new(cfg: TrackingConfig) -> Self {
        Self {
            cfg,
            coarse: CoarseCoord::new(cfg.k),
            p: 1.0,
            live: (0..cfg.k).map(|_| LiveSegment::new(1.0)).collect(),
            archive_tracked: FastMap::default(),
            archive_corrections: FastMap::default(),
        }
    }

    /// The tracked estimate of `f_j` (may be slightly negative for rare
    /// items — the estimator is unbiased, not truncated).
    pub fn estimate_frequency(&self, item: u64) -> f64 {
        let archived = self.archive_tracked.get(&item).copied().unwrap_or(0.0)
            + self.archive_corrections.get(&item).copied().unwrap_or(0.0);
        let live: f64 = self.live.iter().map(|seg| seg.estimate(item)).sum();
        archived + live
    }

    /// **Ablation arm**: the biased eq. (2) estimate of `f_j` (no −d/p
    /// correction). Exposed only so `exp_ablation` can measure the bias
    /// the paper predicts; use [`Self::estimate_frequency`] otherwise.
    pub fn estimate_frequency_naive(&self, item: u64) -> f64 {
        let archived = self.archive_tracked.get(&item).copied().unwrap_or(0.0);
        let live: f64 = self.live.iter().map(|seg| seg.estimate_naive(item)).sum();
        archived + live
    }

    /// Items whose estimate is ≥ `threshold` (candidate heavy hitters).
    /// Scans the archives plus live counters — items never sampled
    /// anywhere cannot be heavy (their estimate would be ≤ 0).
    pub fn heavy_hitters(&self, threshold: f64) -> Vec<(u64, f64)> {
        let mut candidates: Vec<u64> = self.archive_tracked.keys().copied().collect();
        candidates.extend(self.archive_corrections.keys().copied());
        for seg in &self.live {
            candidates.extend(seg.counters.keys().copied());
        }
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

    /// Current sampling probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Current coarse estimate of `n`.
    pub fn n_bar(&self) -> u64 {
        self.coarse.n_bar()
    }
}

impl Coordinator for RandFreqCoord {
    type Up = FreqUp;
    type Down = NewRound;

    fn on_message(&mut self, from: SiteId, msg: &FreqUp, net: &mut Net<NewRound>) {
        match msg {
            FreqUp::Coarse(ni) => {
                if let Some(n_bar) = self.coarse.on_report(from, *ni) {
                    // Announce the round; each site's live segment is
                    // closed when its RoundAck arrives (FIFO-safe).
                    self.p = self.cfg.p_for(n_bar);
                    net.broadcast(NewRound { n_bar });
                }
            }
            FreqUp::RoundAck(n_bar) => {
                let new_p = self.cfg.p_for(*n_bar);
                self.live[from].fold_into(
                    &mut self.archive_tracked,
                    &mut self.archive_corrections,
                    new_p,
                );
            }
            FreqUp::VirtualSplit => {
                let p = self.live[from].p;
                self.live[from].fold_into(
                    &mut self.archive_tracked,
                    &mut self.archive_corrections,
                    p,
                );
            }
            FreqUp::CounterNew(item) => {
                self.live[from].counters.insert(*item, 1);
            }
            FreqUp::CounterUpdate(item, value) => {
                self.live[from].counters.insert(*item, *value);
            }
            FreqUp::Sample(item) => {
                *self.live[from].samples.entry(*item).or_insert(0) += 1;
            }
        }
    }
}

/// A closed epoch digests to the estimator's full two-branch structure:
/// the counter-backed items with their eq. (4) estimates, *plus* the
/// per-item `−d/p` correction terms of the absent branch — both the
/// archived rounds' and the still-live segments' side-sample state at
/// seal time. The digest therefore answers every item query with
/// exactly the value [`RandFreqCoord::estimate_frequency`] would have
/// returned at the moment of sealing, so closing an epoch introduces no
/// bias: windowed rare-item estimates inherit the live estimator's
/// unbiasedness (Lemma 3.1). The sliding-window adapter sum-merges both
/// branches across buckets and pro-rates both for straddling buckets.
impl crate::window::EpochProtocol for RandomizedFrequency {
    type Digest = crate::window::ItemCounts;

    fn digest(coord: &RandFreqCoord) -> Self::Digest {
        let mut tracked: Vec<(u64, f64)> = coord
            .archive_tracked
            .iter()
            .map(|(&item, &v)| (item, v))
            .collect();
        let mut corrections: Vec<(u64, f64)> = coord
            .archive_corrections
            .iter()
            .map(|(&item, &v)| (item, v))
            .collect();
        for seg in &coord.live {
            seg.digest_into(&mut tracked, &mut corrections);
        }
        crate::window::ItemCounts::with_corrections(tracked, corrections)
    }
}

/// Tree aggregation: each level re-runs §3.1's tracker over its own
/// children with its share of the error budget; an aggregator replays
/// each tracked item's estimate growth as copies of that item.
/// Corrections-only items (estimate ≤ 0) are never replayed — see
/// `crate::topology::ItemCursor`.
impl dtrack_sim::exec::topology::TreeProtocol for RandomizedFrequency {
    type Cursor = crate::topology::ItemCursor;

    fn level_instance(&self, children: usize, eps_factor: f64) -> Self {
        Self::new(TrackingConfig::new(children, self.cfg.epsilon * eps_factor))
    }

    fn restream(coord: &RandFreqCoord, cursor: &mut Self::Cursor, emit: &mut dyn FnMut(&u64)) {
        let digest = <Self as crate::window::EpochProtocol>::digest(coord);
        cursor.advance(&digest, &mut |item| emit(&item));
    }
}

/// **Ablation arm**: [`RandomizedFrequency`] with the epoch digests'
/// `−d/p` correction branch dropped — closed epochs flatten to the
/// counter-backed table only, the windowed analogue of the paper's
/// biased eq. (2) estimator. (This is *harsher* than the pre-fix
/// digests, which kept archived correction mass inside their flat table
/// and dropped only the live segments' sample-only terms — measured
/// ≈ +6 vs ≈ +60 elements/item on the bias harness; see CHANGES.md.) The
/// wire protocol, sites, and coordinator are *identical* to the real
/// protocol (same messages, same words, same RNG stream); only
/// [`crate::window::EpochProtocol::digest`] differs. Exists solely so
/// the windowed bias harness (`exp_ablation` arm 5, `exp_window`, the
/// release-gated bias tests) can measure the positive rare-item bias
/// the correction removes; never use it for answers.
#[derive(Debug, Clone, Copy)]
pub struct UncorrectedFrequency(RandomizedFrequency);

impl RandomizedFrequency {
    /// This protocol with uncorrected (tracked-table-only) epoch
    /// digests, for the windowed bias ablation.
    pub fn ablation_uncorrected_digests(self) -> UncorrectedFrequency {
        UncorrectedFrequency(self)
    }
}

impl Protocol for UncorrectedFrequency {
    type Site = RandFreqSite;
    type Coord = RandFreqCoord;

    fn k(&self) -> usize {
        self.0.k()
    }

    fn build_site(&self, master_seed: u64, me: SiteId) -> RandFreqSite {
        self.0.build_site(master_seed, me)
    }

    fn build_coord(&self, master_seed: u64) -> RandFreqCoord {
        self.0.build_coord(master_seed)
    }
}

impl crate::window::EpochProtocol for UncorrectedFrequency {
    type Digest = crate::window::ItemCounts;

    fn digest(coord: &RandFreqCoord) -> Self::Digest {
        <RandomizedFrequency as crate::window::EpochProtocol>::digest(coord).uncorrected()
    }
}

impl Protocol for RandomizedFrequency {
    type Site = RandFreqSite;
    type Coord = RandFreqCoord;

    fn k(&self) -> usize {
        self.cfg.k
    }

    fn build_site(&self, master_seed: u64, me: SiteId) -> RandFreqSite {
        RandFreqSite::new(self.cfg, site_seed(master_seed, me, 1))
    }

    fn build_coord(&self, _master_seed: u64) -> RandFreqCoord {
        RandFreqCoord::new(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrack_sim::Runner;

    /// Feed a stream where item 7 has frequency `hot_share·n` and the rest
    /// is spread over many cold items, round-robin across sites.
    fn run_hot(
        k: usize,
        eps: f64,
        n: u64,
        hot_share: f64,
        seed: u64,
    ) -> Runner<RandomizedFrequency> {
        let proto = RandomizedFrequency::new(TrackingConfig::new(k, eps));
        let mut r = Runner::new(&proto, seed);
        let hot_every = (1.0 / hot_share) as u64;
        for t in 0..n {
            let item = if t % hot_every == 0 { 7 } else { 1000 + t };
            r.feed((t % k as u64) as usize, &item);
        }
        r
    }

    #[test]
    fn exact_while_p_is_one() {
        let proto = RandomizedFrequency::new(TrackingConfig::new(4, 0.1));
        let mut r = Runner::new(&proto, 1);
        for t in 0..12u64 {
            r.feed((t % 4) as usize, &(t % 3));
        }
        assert_eq!(r.coord().estimate_frequency(0), 4.0);
        assert_eq!(r.coord().estimate_frequency(1), 4.0);
        assert_eq!(r.coord().estimate_frequency(2), 4.0);
        assert_eq!(r.coord().estimate_frequency(99), 0.0);
    }

    #[test]
    fn hot_item_estimate_is_unbiased() {
        let (k, eps, n) = (9, 0.15, 40_000u64);
        let truth = (n / 10) as f64;
        let reps = 50;
        let mean: f64 = (0..reps)
            .map(|s| run_hot(k, eps, n, 0.1, s).coord().estimate_frequency(7))
            .sum::<f64>()
            / reps as f64;
        // sd ≤ εn = 6000 → SE ≤ 849.
        assert!((mean - truth).abs() < 3_000.0, "mean {mean} truth {truth}");
    }

    #[test]
    fn error_within_epsilon_with_high_probability() {
        let (k, eps, n) = (16, 0.12, 60_000u64);
        let truth = (n / 5) as f64;
        let reps = 40;
        let hits = (0..reps)
            .filter(|&s| {
                let est = run_hot(k, eps, n, 0.2, 500 + s)
                    .coord()
                    .estimate_frequency(7);
                (est - truth).abs() <= eps * n as f64
            })
            .count();
        assert!(hits >= 32, "only {hits}/{reps} within εn");
    }

    #[test]
    fn absent_items_estimate_near_zero() {
        let (k, eps, n) = (16, 0.1, 50_000u64);
        let reps = 30;
        for s in 0..reps {
            let r = run_hot(k, eps, n, 0.1, 900 + s);
            let est = r.coord().estimate_frequency(424_242);
            assert!(est.abs() <= eps * n as f64, "absent item est {est}");
        }
    }

    #[test]
    fn space_respects_virtual_site_cap() {
        // All elements to one site: without virtual splits its counter
        // list would hold ~p·n = √k/ε entries; with them it stays at
        // O(1/(ε√k)).
        let (k, eps, n) = (16, 0.05, 60_000u64);
        let proto = RandomizedFrequency::new(TrackingConfig::new(k, eps));
        let mut r = Runner::new(&proto, 3);
        for t in 0..n {
            r.feed(2, &(t % 64)); // heavy duplication at one site
        }
        let bound = 1.0 / (eps * (k as f64).sqrt()); // = 80 words of counters
        let peak = r.space().max_peak() as f64;
        // Counters cost 2 words each plus constants; allow constant slack.
        assert!(peak < 20.0 * bound + 60.0, "peak {peak}, 1/(ε√k) = {bound}");
    }

    #[test]
    fn communication_scales_below_deterministic() {
        let (k, eps, n) = (64, 0.2, 150_000u64);
        let r = run_hot(k, eps, n, 0.1, 11);
        let words = r.stats().total_words() as f64;
        let det_like = k as f64 / eps * (n as f64).log2();
        assert!(
            words < det_like,
            "randomized used {words} words ≥ deterministic-like {det_like}"
        );
    }

    #[test]
    fn heavy_hitters_contains_hot_item() {
        let (k, eps, n) = (9, 0.1, 40_000u64);
        let r = run_hot(k, eps, n, 0.2, 21);
        let hh = r.coord().heavy_hitters(0.1 * n as f64);
        assert!(hh.iter().any(|&(j, _)| j == 7), "hh = {hh:?}");
    }

    #[test]
    fn estimates_sum_roughly_to_n() {
        // Σ_j f̂_j over a small domain should be close to n (each element
        // contributes to exactly one item's estimator). A single run's sum
        // deviates with std ≈ 2εn, so any fixed seed is a lottery against
        // a ~3εn bound; average a few seeds to test the mean instead.
        let (k, eps, n) = (9, 0.1, 30_000u64);
        let seeds = 8u64;
        let mut avg = 0.0;
        for seed in 0..seeds {
            let proto = RandomizedFrequency::new(TrackingConfig::new(k, eps));
            let mut r = Runner::new(&proto, seed);
            for t in 0..n {
                r.feed((t % k as u64) as usize, &(t % 10));
            }
            avg += (0..10u64)
                .map(|j| r.coord().estimate_frequency(j))
                .sum::<f64>();
        }
        avg /= seeds as f64;
        assert!(
            (avg - n as f64).abs() < 1.5 * eps * n as f64,
            "avg {avg} vs n {n}"
        );
    }
}
