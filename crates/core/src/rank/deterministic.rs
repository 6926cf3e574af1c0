//! Deterministic rank-tracking baseline ([6]-style, Cormode et al.).
//!
//! Per round, each site maintains a Greenwald–Khanna summary (error ε/4)
//! over its round-local elements and re-ships the whole summary whenever
//! its round-local count grows by a `(1+ε/4)` factor. The coordinator
//! sums, per site and round, the latest summary's rank estimate. Error
//! budget: GK truncation ≤ εn/4 plus un-shipped growth ≤ εn/4 per site
//! aggregate. Communication is `O(k/ε²·logN·log(εn))` words — the cost
//! the paper attributes to [6] ("O(k/ε²·logN) under certain inputs") and
//! the natural deterministic comparator for Theorem 4.1's `√k/ε·logN`.

use dtrack_sim::wire::{WireError, WireReader, WireSink};
use dtrack_sim::{Coordinator, Decode, Encode, Net, Outbox, Protocol, Site, SiteId, Words};
use dtrack_sketch::gk::{GkSummary, GkTuple};

use crate::coarse::{CoarseCoord, CoarseSite};
use crate::config::TrackingConfig;

/// Site → coordinator messages.
#[derive(Debug, Clone, PartialEq)]
pub enum DetRankUp {
    /// Coarse-tracker doubling report.
    Coarse(u64),
    /// Full refresh of this site's summary for the current round.
    Summary {
        /// Round index the summary belongs to.
        round: u32,
        /// Elements summarized (round-local count).
        n_local: u64,
        /// GK tuples (3 words each on the wire).
        tuples: Vec<GkTuple>,
    },
}

impl Words for DetRankUp {
    fn words(&self) -> u64 {
        match self {
            DetRankUp::Coarse(_) => 1,
            DetRankUp::Summary { tuples, .. } => 2 + 3 * tuples.len() as u64,
        }
    }
}

// GK tuples are encoded columnar: the tuple values `v` form a sorted
// run (a GK summary invariant), so they delta-compress; `g` and `delta`
// are small by construction (≤ 2εn_local) and follow as plain varints.
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
            DetRankUp::Summary {
                round,
                n_local,
                tuples,
            } => {
                w.put_u8(1);
                w.put_varint(u64::from(*round));
                w.put_varint(*n_local);
                w.put_delta_run(tuples.iter().map(|t| t.v));
                for t in tuples {
                    w.put_varint(t.g);
                    w.put_varint(t.delta);
                }
            }
        }
    }
}

impl Decode for DetRankUp {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(DetRankUp::Coarse(r.varint()?)),
            1 => {
                let round = r.varint_u32()?;
                let n_local = r.varint()?;
                let values = r.delta_run()?;
                let mut tuples = Vec::with_capacity(values.len());
                for v in values {
                    let g = r.varint()?;
                    let delta = r.varint()?;
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

/// Coordinator → site messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetRankDown {
    /// Broadcast of a new coarse estimate (starts a new round).
    NewRound {
        /// Round index.
        round: u32,
    },
}

impl Words for DetRankDown {
    fn words(&self) -> u64 {
        1
    }
}

impl Encode for DetRankDown {
    fn encode(&self, w: &mut impl WireSink) {
        let DetRankDown::NewRound { round } = self;
        w.put_varint(u64::from(*round));
    }
}

impl Decode for DetRankDown {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(DetRankDown::NewRound {
            round: r.varint_u32()?,
        })
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

/// Site state: per-round GK summary plus the reporting threshold.
#[derive(Debug, Clone)]
pub struct DetRankSite {
    cfg: TrackingConfig,
    coarse: CoarseSite,
    round: u32,
    gk: GkSummary,
    round_count: u64,
    next_report: u64,
}

impl DetRankSite {
    fn new(cfg: TrackingConfig) -> Self {
        Self {
            cfg,
            coarse: CoarseSite::new(),
            round: 0,
            gk: GkSummary::new(cfg.epsilon / 4.0),
            round_count: 0,
            next_report: 1,
        }
    }
}

impl Site for DetRankSite {
    type Item = u64;
    type Up = DetRankUp;
    type Down = DetRankDown;

    fn on_item(&mut self, item: &u64, out: &mut Outbox<DetRankUp>) {
        self.gk.insert(*item);
        self.round_count += 1;
        if self.round_count >= self.next_report {
            self.next_report =
                ((self.round_count as f64) * (1.0 + self.cfg.epsilon / 4.0)).ceil() as u64;
            self.gk.compress();
            out.send(DetRankUp::Summary {
                round: self.round,
                n_local: self.round_count,
                tuples: self.gk.tuples().to_vec(),
            });
        }
        if let Some(r) = self.coarse.on_item() {
            out.send(DetRankUp::Coarse(r));
        }
    }

    fn on_message(&mut self, msg: &DetRankDown, out: &mut Outbox<DetRankUp>) {
        let DetRankDown::NewRound { round } = msg;
        // Final flush of the closing round so nothing is left unreported.
        if self.round_count > 0 {
            self.gk.compress();
            out.send(DetRankUp::Summary {
                round: self.round,
                n_local: self.round_count,
                tuples: self.gk.tuples().to_vec(),
            });
        }
        self.round = *round;
        self.gk = GkSummary::new(self.cfg.epsilon / 4.0);
        self.round_count = 0;
        self.next_report = 1;
    }

    fn space_words(&self) -> u64 {
        self.gk.space_words() + 8
    }
}

/// A frozen GK summary at the coordinator.
#[derive(Debug, Clone)]
struct SummaryView {
    n_local: u64,
    tuples: Vec<GkTuple>,
}

impl SummaryView {
    /// Midpoint rank estimate from the tuples (same logic as
    /// [`GkSummary::estimate_rank`]).
    fn estimate_rank(&self, x: u64) -> f64 {
        if self.tuples.is_empty() {
            return 0.0;
        }
        let i = self.tuples.partition_point(|t| t.v < x);
        if i == 0 {
            return 0.0;
        }
        let rmin: u64 = self.tuples[..i].iter().map(|t| t.g).sum();
        if i == self.tuples.len() {
            return self.n_local as f64;
        }
        let hi = (rmin + self.tuples[i].g + self.tuples[i].delta).saturating_sub(1);
        (rmin + hi.max(rmin)) as f64 / 2.0
    }
}

/// Coordinator state: latest summary per (site, round).
#[derive(Debug, Clone)]
pub struct DetRankCoord {
    coarse: CoarseCoord,
    /// `summaries[site]` maps round → latest view for that round.
    summaries: Vec<Vec<Option<SummaryView>>>,
}

impl DetRankCoord {
    fn new(cfg: TrackingConfig) -> Self {
        Self {
            coarse: CoarseCoord::new(cfg.k),
            summaries: vec![Vec::new(); cfg.k],
        }
    }

    /// The tracked estimate of `rank(x)` (within `±εn` deterministically).
    pub fn estimate_rank(&self, x: u64) -> f64 {
        self.summaries
            .iter()
            .flat_map(|rounds| rounds.iter().flatten())
            .map(|s| s.estimate_rank(x))
            .sum()
    }

    /// Sum of all summarized local counts (≈ n up to unreported growth).
    pub fn reported_total(&self) -> u64 {
        self.summaries
            .iter()
            .flat_map(|rounds| rounds.iter().flatten())
            .map(|s| s.n_local)
            .sum()
    }
}

impl Coordinator for DetRankCoord {
    type Up = DetRankUp;
    type Down = DetRankDown;

    fn on_message(&mut self, from: SiteId, msg: &DetRankUp, net: &mut Net<DetRankDown>) {
        match msg {
            DetRankUp::Coarse(ni) => {
                if self.coarse.on_report(from, *ni).is_some() {
                    net.broadcast(DetRankDown::NewRound {
                        round: self.coarse.round(),
                    });
                }
            }
            DetRankUp::Summary {
                round,
                n_local,
                tuples,
            } => {
                let rounds = &mut self.summaries[from];
                while rounds.len() <= *round as usize {
                    rounds.push(None);
                }
                rounds[*round as usize] = Some(SummaryView {
                    n_local: *n_local,
                    tuples: tuples.clone(),
                });
            }
        }
    }
}

/// A closed epoch digests each retained GK summary into weighted value
/// points `(v, g)`: the prefix-sum of `g` below `x` is GK's certified
/// minimum rank `rmin(x)`, within `ε/4·n_local` of the summary's
/// midpoint estimate (the `delta` halves are dropped — a one-sided
/// truncation already inside the GK error budget).
impl crate::window::EpochProtocol for DeterministicRank {
    type Digest = crate::window::WeightedValues;

    fn digest(coord: &DetRankCoord) -> Self::Digest {
        let mut points = Vec::new();
        for s in coord
            .summaries
            .iter()
            .flat_map(|rounds| rounds.iter().flatten())
        {
            points.extend(s.tuples.iter().map(|t| (t.v, t.g as f64)));
        }
        crate::window::WeightedValues::from_points(points)
    }
}

/// Tree aggregation: each level re-runs the GK-based deterministic tracker with its
/// share of the error budget; an aggregator replays its digest's CDF
/// growth as value copies (CDF-matching greedy — see
/// `crate::topology::CdfCursor`; repeated values are fine, the
/// receiving summaries handle duplicates by design).
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

    #[test]
    fn error_within_epsilon_at_many_times() {
        let (k, eps, n) = (4, 0.1, 30_000u64);
        let proto = DeterministicRank::new(TrackingConfig::new(k, eps));
        let mut r = Runner::new(&proto, 0);
        let seq = DistinctSeq::new(8);
        let mut all: Vec<u64> = Vec::new();
        for t in 0..n {
            let v = seq.value_at(t);
            r.feed((t % k as u64) as usize, &v);
            all.push(v);
            if t % 2_003 == 2_002 {
                let mut sorted = all.clone();
                sorted.sort_unstable();
                let x = sorted[sorted.len() / 2];
                let truth = sorted.partition_point(|&v| v < x) as f64;
                let est = r.coord().estimate_rank(x);
                assert!(
                    (est - truth).abs() <= eps * all.len() as f64 + 2.0,
                    "t={t} est={est} truth={truth}"
                );
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
}
