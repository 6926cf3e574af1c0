//! Deterministic rank-tracking baseline: ε-quantised delta batches.
//!
//! The deterministic comparator for Theorem 4.1's randomized tracker.
//! Every site reports each element once, inside a batch of the elements
//! it received since its last report, and the coordinator keeps every
//! point it is sent.
//!
//! # Algorithm
//!
//! * **Rounds.** The coarse tracker ([`crate::coarse`]) broadcasts
//!   [`NewRound`] with `n̄`, the sum of the sites' last doubling reports.
//!   That sum never exceeds the true count, so `n̄ ≤ n` at every site at
//!   every instant, and a stale `n̄` is only ever too small.
//! * **Site.** It buffers arriving elements in an open batch whose cap
//!   is `max(1, ⌊ε·n̄/(2k)⌋)` (1 before the first broadcast). When the
//!   batch holds `cap` elements the site sorts them, cuts the sorted
//!   batch of `b` elements into consecutive blocks of
//!   `s = max(1, ⌊ε·b⌋)` (the last block may be shorter), and sends one
//!   [`DetRankUp::Summary`] with a tuple `(block's middle element, block
//!   size, 0)` per block. Then it clears the batch. A new round changes
//!   only the cap; the open batch is not flushed.
//! * **Coordinator.** It keeps every point `(v, g)` it received in
//!   value-sorted runs with prefix weights. A new run is merged into the
//!   previous one while it is at least half that run's size, so there are
//!   `O(log P)` runs over `P` points. `rank(x)` is the sum over runs of
//!   the weight of the points below `x`: one binary search per run.
//!
//! # Guarantee
//!
//! At any instant, for every `x`, `|estimate_rank(x) − rank(x)| ≤ εn`.
//! The error has two parts.
//!
//! 1. **Unreported elements.** A site's open batch holds at most
//!    `cap − 1` elements. With `cap = 1` that is none; otherwise
//!    `cap = ⌊ε·n̄/(2k)⌋ ≤ εn/(2k)`, because the site's `n̄ ≤ n`. Over `k`
//!    sites, at most `εn/2` elements are unreported, and each moves a
//!    rank by at most one.
//! 2. **Quantisation.** The elements of a sorted batch below `x` are a
//!    prefix of it, so every block but the one holding that prefix's end
//!    counts exactly. That block has `m ≤ s` elements, `j` of them below
//!    `x`; it counts `m` if its middle element (index `⌊m/2⌋`) is below
//!    `x`, which means `j > ⌊m/2⌋`, and 0 otherwise, which means
//!    `j ≤ ⌊m/2⌋`. Either way it errs by at most `⌊m/2⌋ ≤ ⌊s/2⌋`, which is
//!    0 when `s = 1` and at most `ε·b/2` otherwise. Batches partition the
//!    reported elements, so together they err by at most `εn/2`.
//!
//! This holds deterministically on the lock-step executor, where every
//! message is applied before the next element arrives. On threaded
//! executors a batch in flight is unreported for as long as it travels,
//! on top of part 1; the bound holds again at every quiesced cut.
//!
//! # Cost
//!
//! A batch of `b` elements costs `2 + 3⌈b/s⌉` words. While `ε·cap < 2`
//! blocks are single elements, and a batch costs at most 5 words per
//! element. Once `s ≥ 2`, `s ≥ ε·b/2`, so a batch has at most `2/ε + 1`
//! tuples. A round holds fewer than `3n̄` elements (it ends once the
//! reported counts double `n̄`, and each under-reports its site by less
//! than 2×), so it ships `O(k/ε)` full batches. A round therefore costs
//! about `min(5 × its elements, (2k/ε)(2 + 3/ε))` words, and over the
//! coarse tracker's `O(log N)` rounds the total is
//! `O(min(n, k/ε²·log N))`.
//!
//! # Space
//!
//! * Site: the open batch, at most `cap − 1 ≤ εn/(2k)` values, so
//!   `O(εn/k)`. (A Greenwald–Khanna summary would hold
//!   `O(1/ε·log εn)`, but it must be re-shipped whole to stay current.)
//! * Coordinator: every point it received,
//!   `O(min(n, k/ε²·log N))` values and prefix weights.

use dtrack_sim::wire::{WireError, WireReader, WireSink};
use dtrack_sim::{Coordinator, Decode, Encode, Net, Outbox, Protocol, Site, SiteId};
use dtrack_sketch::gk::GkTuple;

use crate::coarse::{CoarseCoord, CoarseSite, NewRound};
use crate::config::TrackingConfig;

/// Site → coordinator messages.
#[derive(Debug, Clone, PartialEq)]
pub enum DetRankUp {
    /// Coarse-tracker doubling report.
    Coarse(u64),
    /// One batch of the elements the site received since its last
    /// report, as weighted points.
    Summary {
        /// Round broadcasts the site had seen when it sent the batch.
        round: u32,
        /// Elements in the batch: the sum of the tuple weights `g`. It is
        /// not sent; the decoder sums the weights.
        n_local: u64,
        /// Value-sorted `(v, g, delta)` tuples; the batch protocol sends
        /// `delta = 0`.
        tuples: Vec<GkTuple>,
    },
}

// Tuples are encoded columnar: the tuple values `v` form a sorted run,
// so they delta-compress; `g` and `delta` follow as plain varints.
// `GkTuple` lives in `dtrack-sketch`, which does not depend on
// `dtrack-sim`, so the fields are serialized inline here rather than
// via an `Encode` impl on the sketch type.
impl Encode for DetRankUp {
    fn encode(&self, w: &mut impl WireSink) {
        match self {
            DetRankUp::Coarse(n) => {
                w.put_u8(0);
                w.put_varint(*n);
            }
            DetRankUp::Summary { round, tuples, .. } => {
                w.put_u8(1);
                w.put_varint(u64::from(*round));
                w.put_delta_run(tuples.iter().map(|t| t.v));
                for t in tuples {
                    w.put_varint(t.g);
                    w.put_varint(t.delta);
                }
            }
        }
    }
}

/// A `Summary`'s `n_local` is its tuple weights' sum; a sum past `u64`
/// is [`WireError::Overflow`].
impl Decode for DetRankUp {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(DetRankUp::Coarse(r.varint()?)),
            1 => {
                let round = r.varint_u32()?;
                let values = r.delta_run()?;
                let mut tuples = Vec::with_capacity(values.len());
                let mut n_local = 0u64;
                for v in values {
                    let g = r.varint()?;
                    let delta = r.varint()?;
                    n_local = n_local.checked_add(g).ok_or(WireError::Overflow)?;
                    tuples.push(GkTuple { v, g, delta });
                }
                Ok(DetRankUp::Summary {
                    round,
                    n_local,
                    tuples,
                })
            }
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Protocol factory for the deterministic baseline.
#[derive(Debug, Clone, Copy)]
pub struct DeterministicRank {
    cfg: TrackingConfig,
}

impl DeterministicRank {
    /// Create for `k` sites and error parameter ε.
    pub fn new(cfg: TrackingConfig) -> Self {
        Self { cfg }
    }
}

/// Site state: the open batch and its cap.
#[derive(Debug, Clone)]
pub struct DetRankSite {
    cfg: TrackingConfig,
    coarse: CoarseSite,
    round: u32,
    cap: usize,
    batch: Vec<u64>,
}

impl DetRankSite {
    fn new(cfg: TrackingConfig) -> Self {
        Self {
            cfg,
            coarse: CoarseSite::new(),
            round: 0,
            cap: 1,
            batch: Vec::new(),
        }
    }

    /// Sort the full batch, quantise it into blocks of `⌊ε·b⌋` and empty it.
    fn ship(&mut self) -> DetRankUp {
        self.batch.sort_unstable();
        let b = self.batch.len();
        let s = ((self.cfg.epsilon * b as f64) as usize).max(1);
        let tuples = self
            .batch
            .chunks(s)
            .map(|block| GkTuple {
                v: block[block.len() / 2],
                g: block.len() as u64,
                delta: 0,
            })
            .collect();
        self.batch.clear();
        DetRankUp::Summary {
            round: self.round,
            n_local: b as u64,
            tuples,
        }
    }
}

impl Site for DetRankSite {
    type Item = u64;
    type Up = DetRankUp;
    type Down = NewRound;

    fn on_item(&mut self, item: &u64, out: &mut Outbox<DetRankUp>) {
        self.batch.push(*item);
        if self.batch.len() >= self.cap {
            out.send(self.ship());
        }
        if let Some(r) = self.coarse.on_item() {
            out.send(DetRankUp::Coarse(r));
        }
    }

    fn on_message(&mut self, msg: &NewRound, _out: &mut Outbox<DetRankUp>) {
        self.round += 1;
        let k = self.cfg.k as f64;
        self.cap = ((self.cfg.epsilon * msg.n_bar as f64 / (2.0 * k)) as usize).max(1);
    }

    fn space_words(&self) -> u64 {
        self.batch.len() as u64 + 4
    }
}

/// Value-sorted points with prefix weights.
#[derive(Debug, Clone)]
struct SortedRun {
    values: Vec<u64>,
    /// `below[i]` is the weight of `values[..i]`; one longer than `values`.
    below: Vec<u64>,
}

impl SortedRun {
    /// Build from value-sorted `(v, g)` points.
    fn from_sorted(points: impl ExactSizeIterator<Item = (u64, u64)>) -> Self {
        let mut values = Vec::with_capacity(points.len());
        let mut below = Vec::with_capacity(points.len() + 1);
        let mut total = 0;
        below.push(total);
        for (v, g) in points {
            total += g;
            values.push(v);
            below.push(total);
        }
        Self { values, below }
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    fn points(&self) -> impl ExactSizeIterator<Item = (u64, u64)> + '_ {
        let weights = self.below.windows(2).map(|w| w[1] - w[0]);
        self.values.iter().copied().zip(weights)
    }

    /// Total weight of the points with value below `x`.
    fn weight_below(&self, x: u64) -> u64 {
        self.below[self.values.partition_point(|&v| v < x)]
    }

    /// The sorted union of two runs.
    fn merged(&self, other: &SortedRun) -> SortedRun {
        let mut merged = Vec::with_capacity(self.len() + other.len());
        let (mut a, mut b) = (self.points().peekable(), other.points().peekable());
        loop {
            let next = match (a.peek(), b.peek()) {
                (Some(p), Some(q)) if p.0 <= q.0 => a.next(),
                (_, Some(_)) => b.next(),
                _ => a.next(),
            };
            match next {
                Some(point) => merged.push(point),
                None => break,
            }
        }
        SortedRun::from_sorted(merged.into_iter())
    }
}

/// Coordinator state: every point received, in sorted runs.
#[derive(Debug, Clone)]
pub struct DetRankCoord {
    coarse: CoarseCoord,
    /// Runs from oldest (largest) to newest; each holds fewer than half
    /// the points of the one before it, so there are `O(log P)` runs.
    runs: Vec<SortedRun>,
    reported: u64,
}

impl DetRankCoord {
    fn new(cfg: TrackingConfig) -> Self {
        Self {
            coarse: CoarseCoord::new(cfg.k),
            runs: Vec::new(),
            reported: 0,
        }
    }

    /// The tracked estimate of `rank(x)` (within `±εn` deterministically).
    pub fn estimate_rank(&self, x: u64) -> f64 {
        self.runs.iter().map(|r| r.weight_below(x)).sum::<u64>() as f64
    }

    /// Elements reported so far (`n` less the sites' open batches).
    pub fn reported_total(&self) -> u64 {
        self.reported
    }

    fn absorb(&mut self, mut run: SortedRun) {
        while let Some(prev) = self.runs.last() {
            if 2 * run.len() < prev.len() {
                break;
            }
            run = prev.merged(&run);
            self.runs.pop();
        }
        self.runs.push(run);
    }
}

impl Coordinator for DetRankCoord {
    type Up = DetRankUp;
    type Down = NewRound;

    fn on_message(&mut self, from: SiteId, msg: &DetRankUp, net: &mut Net<NewRound>) {
        match msg {
            DetRankUp::Coarse(ni) => {
                if let Some(n_bar) = self.coarse.on_report(from, *ni) {
                    net.broadcast(NewRound { n_bar });
                }
            }
            DetRankUp::Summary {
                n_local, tuples, ..
            } => {
                self.reported += n_local;
                if !tuples.is_empty() {
                    self.absorb(SortedRun::from_sorted(tuples.iter().map(|t| (t.v, t.g))));
                }
            }
        }
    }
}

/// A closed epoch's digest is every point the coordinator holds.
impl crate::window::EpochProtocol for DeterministicRank {
    type Digest = crate::window::WeightedValues;

    fn digest(coord: &DetRankCoord) -> Self::Digest {
        let points = coord
            .runs
            .iter()
            .flat_map(SortedRun::points)
            .map(|(v, g)| (v, g as f64))
            .collect();
        crate::window::WeightedValues::from_points(points)
    }
}

/// Tree aggregation: each level re-runs the batch tracker with its
/// share of the error budget; an aggregator replays its digest's CDF
/// growth as value copies (CDF-matching greedy — see
/// `crate::topology::CdfCursor`; repeated values are fine, a batch
/// quantises duplicates like any other values).
impl dtrack_sim::exec::topology::TreeProtocol for DeterministicRank {
    type Cursor = crate::topology::CdfCursor;

    fn level_instance(&self, children: usize, eps_factor: f64) -> Self {
        Self::new(TrackingConfig::new(children, self.cfg.epsilon * eps_factor))
    }

    fn restream(coord: &DetRankCoord, cursor: &mut Self::Cursor, emit: &mut dyn FnMut(&u64)) {
        let digest = <Self as crate::window::EpochProtocol>::digest(coord);
        cursor.advance(&digest, &mut |v| emit(&v));
    }
}

impl Protocol for DeterministicRank {
    type Site = DetRankSite;
    type Coord = DetRankCoord;

    fn k(&self) -> usize {
        self.cfg.k
    }

    fn build_site(&self, _master_seed: u64, _me: SiteId) -> DetRankSite {
        DetRankSite::new(self.cfg)
    }

    fn build_coord(&self, _master_seed: u64) -> DetRankCoord {
        DetRankCoord::new(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrack_sim::Runner;
    use dtrack_workload::items::DistinctSeq;

    /// Arrival orders of the values `0..n`, each as `(site, value)` at
    /// time `t`.
    #[derive(Debug, Clone, Copy)]
    enum Order {
        Ascending,
        Descending,
        /// Scrambled values, every one of them at site 0.
        OneSiteTakesAll,
        /// Alternately the smallest and the largest value not yet sent.
        Zigzag,
        /// Scrambled values at scrambled sites.
        Scrambled,
    }

    impl Order {
        const ALL: [Order; 5] = [
            Order::Ascending,
            Order::Descending,
            Order::OneSiteTakesAll,
            Order::Zigzag,
            Order::Scrambled,
        ];

        fn arrival(self, t: u64, n: u64, k: usize) -> (usize, u64) {
            // A prime above every n used here, so `t ↦ t·P mod n` is a
            // bijection of 0..n.
            const P: u64 = 2_654_435_761;
            let round_robin = (t % k as u64) as usize;
            match self {
                Order::Ascending => (round_robin, t),
                Order::Descending => (round_robin, n - 1 - t),
                Order::OneSiteTakesAll => (0, t * P % n),
                Order::Zigzag => (
                    round_robin,
                    if t.is_multiple_of(2) {
                        t / 2
                    } else {
                        n - 1 - t / 2
                    },
                ),
                Order::Scrambled => ((t.wrapping_mul(P) >> 7) as usize % k, t * P % n),
            }
        }
    }

    /// Counts of the values `0..n` seen so far (a Fenwick tree): exact
    /// ranks and quantiles in `O(log n)`.
    struct Seen(Vec<u64>);

    impl Seen {
        fn insert(&mut self, v: u64) {
            let mut i = v as usize + 1;
            while i < self.0.len() {
                self.0[i] += 1;
                i += i & i.wrapping_neg();
            }
        }

        /// Values seen that are below `x`.
        fn rank(&self, x: u64) -> u64 {
            let (mut i, mut sum) = (x as usize, 0);
            while i > 0 {
                sum += self.0[i];
                i &= i - 1;
            }
            sum
        }

        /// The smallest seen value with exactly `r` seen values below it.
        fn select(&self, r: u64) -> u64 {
            let (mut pos, mut left) = (0usize, r);
            let mut step = (self.0.len() - 1).next_power_of_two();
            while step > 0 {
                if pos + step < self.0.len() && self.0[pos + step] <= left {
                    pos += step;
                    left -= self.0[pos];
                }
                step /= 2;
            }
            pos as u64
        }
    }

    /// The guarantee as stated in the module docs: seven quantiles, every
    /// 997 elements, within `εn` under five arrival orders.
    #[test]
    fn error_within_epsilon_at_many_times() {
        let configs: [(usize, f64, u64); 5] = [
            (2, 0.05, 200_000),
            (4, 0.1, 30_000),
            (16, 0.05, 60_000),
            (64, 0.01, 65_536),
            (2, 0.01, 1 << 20),
        ];
        for (k, eps, n) in configs {
            for order in Order::ALL {
                let proto = DeterministicRank::new(TrackingConfig::new(k, eps));
                let mut r = Runner::new(&proto, 0);
                let mut seen = Seen(vec![0; n as usize + 1]);
                let mut worst = 0.0f64;
                for t in 0..n {
                    let (site, v) = order.arrival(t, n, k);
                    r.feed(site, &v);
                    seen.insert(v);
                    if t % 997 != 996 {
                        continue;
                    }
                    let m = t + 1;
                    for q in 1..=7 {
                        let x = seen.select(m * q / 8);
                        let truth = seen.rank(x) as f64;
                        let err = (r.coord().estimate_rank(x) - truth).abs();
                        worst = worst.max(err / m as f64);
                        assert!(
                            err <= eps * m as f64,
                            "{order:?} k={k} ε={eps} t={t} x={x} err={err}"
                        );
                    }
                }
                assert!(worst <= eps, "{order:?} k={k} ε={eps}: {worst}");
            }
        }
    }

    #[test]
    fn reported_total_close_to_n() {
        let (k, eps, n) = (4, 0.1, 20_000u64);
        let proto = DeterministicRank::new(TrackingConfig::new(k, eps));
        let mut r = Runner::new(&proto, 0);
        let seq = DistinctSeq::new(9);
        for t in 0..n {
            r.feed((t % k as u64) as usize, &seq.value_at(t));
        }
        let reported = r.coord().reported_total() as f64;
        assert!(
            (reported - n as f64).abs() <= eps * n as f64,
            "reported {reported}"
        );
    }

    #[test]
    fn communication_scales_linearly_in_k() {
        let (eps, n) = (0.25, 40_000u64);
        let words_at = |k: usize| {
            let proto = DeterministicRank::new(TrackingConfig::new(k, eps));
            let mut r = Runner::new(&proto, 0);
            let seq = DistinctSeq::new(10);
            for t in 0..n {
                r.feed((t % k as u64) as usize, &seq.value_at(t));
            }
            r.stats().total_words() as f64
        };
        let w4 = words_at(4);
        let w64 = words_at(64);
        assert!(w64 > 3.0 * w4, "w4={w4} w64={w64}");
    }

    /// Once batches are long enough to quantise (`ε·cap ≥ 2`), an element
    /// costs a fraction of a word: re-shipping whole summaries cost tens
    /// of words per element here.
    #[test]
    fn quantized_batches_ship_fewer_words_than_elements() {
        let (k, eps, n) = (2, 0.05, 200_000u64);
        let proto = DeterministicRank::new(TrackingConfig::new(k, eps));
        let mut r = Runner::new(&proto, 0);
        let seq = DistinctSeq::new(11);
        for t in 0..n {
            r.feed((t % k as u64) as usize, &seq.value_at(t));
        }
        let words = r.stats().total_words();
        assert!(words < n / 2, "{words} words for {n} elements");
    }
}
