//! Randomized rank-tracking (§4, Theorem 4.1) — "Algorithm C".
//!
//! Within a round (coarse estimate `n̄`), each site splits its arrivals
//! into *chunks* of at most `n̄/k` elements. A chunk's elements form
//! blocks of size `b = εn̄/√k`; a balanced binary tree is (implicitly)
//! built over the blocks in arrival order. For every tree node `v` at
//! level `ℓ`, an instance of Algorithm A (our KLL sketch) with error
//! parameter `Θ(2^{−ℓ}/√h)` absorbs the node's elements as they arrive;
//! when the node fills, its summary is shipped to the coordinator and the
//! instance is freed — so at most one instance per level is ever active.
//! Independently every element is sampled with probability
//! `p = Θ(√k/(εn̄))` and shipped.
//!
//! The coordinator answers `rank(x)` by decomposing each chunk's received
//! prefix of `q` blocks canonically (binary representation of `q`, one
//! full node per set bit), summing the nodes' unbiased estimates, and
//! covering the partial tail block with the Horvitz–Thompson `c/p`
//! sample estimate. Per-chunk variance is `O(b²)`, over ≤ 2k chunks per
//! round `O((εn̄)²)`, geometrically decaying across rounds — total
//! variance `O((εn)²)`.
//!
//! ## Error budget and calibration
//!
//! Theorem 4.1's target: `|rank̂(x) − rank(x)| ≤ εn` with probability
//! ≥ 0.9 at any fixed time. The estimate is unbiased; its variance has
//! two independent parts per chunk (`b = εn̄/√k`, `h` the tree height):
//!
//! * **tail** — the partial block, fewer than `b` elements, is covered by
//!   Horvitz–Thompson samples at rate `p = C_P·√k/(εn̄)`, so it adds
//!   less than `b/p = (εn̄)²/(C_P·k)`;
//! * **nodes** — a prefix of `q` full blocks is at most `h + 1`
//!   canonical nodes. A level-ℓ node holds `2^ℓ·b` elements in a sketch
//!   of error `e_ℓ = 2^{−ℓ}/(C_E·√h)`, and `KllSketch::with_error`
//!   keeps the sd within `e·m` over `m` elements, so a node adds at most
//!   `b²/(C_E²·h)` and a prefix at most `(1 + 1/h)·b²/C_E²`.
//!
//! A round has at most `2k` chunks and `k·b² = (εn̄)²`, so it adds at
//! most `2(εn̄)²·(1/C_P + (1 + 1/h)/C_E²)`; `n̄` at least doubles from
//! round to round, so the earlier rounds add a geometric tail. The words follow
//! the same split. A sample costs 2 words, at `C_P·√k/ε` samples a round
//! in expectation. A level-ℓ node's summary holds `O(2^ℓ·C_E·√h)` items
//! and a chunk has one such node per `2^ℓ` blocks, so each tree level
//! costs `O(C_E·√h)` items per block. But a summary never holds more
//! than its node's elements, nor fewer than KLL's floor of 8 items per
//! sketch level, so below `C_E ≈ 1` it stops shrinking. At k 64, ε 0.01,
//! n 2²⁰ summaries are 84 % of the words at the calibrated constants,
//! and halving `C_E` again saves 1.5 %.
//!
//! The bound is loose: Chebyshev on it would need constants ten times
//! larger than the measured target needs. So `(C_P, C_E)` is the
//! cheapest pair tried that meets the target, with margin, on every cell
//! of a lock-step grid: k ∈ {4, 16, 64, 256} × ε ∈ {0.01, 0.02, 0.05} ×
//! n ∈ {10⁵, 135 004, 1.5·10⁵, 10⁶}, 200 seeds a cell, on `exp_accuracy`'s
//! rank workload, plus n = 2¹⁷·{1.005, 1.05, 1.1, 1.2, 1.3} on the four
//! hardest (k, ε). The statistic is the max |error| over the 9 deciles.
//! A cell passes at ≥ 187 of 200 runs within εn: the one-sided binomial
//! margin `0.9·N + 1.645·√(0.09·N)` that `exp_accuracy` also applies.
//! The n values put every k at round phases n/n̄ of 1.53, 1.03, 1.14 and
//! 1.91. Just after a round starts is the hardest time: the new round's
//! tails are sampled at half the rate, under a budget that has barely
//! grown. Not every pair ran every cell: the phase scan ran on (4, 1)
//! only; (8, 4) and (4, 0.5) ran the two round-start n only; (2, 1)
//! ran 10⁵, 1.5·10⁵ and 10⁶.
//!
//! | `(C_P, C_E)` | worst cell: runs within εn | guard p99, mid-round | guard runs within εn, round start | words, k 64, ε 0.01, n 2²⁰ (mean of 6 seeds) |
//! |---|---|---|---|---|
//! | (8, 4) | 199 | 0.45 εn: budget not spent | 200 | 547 079 |
//! | (4, 2) | 193 | 0.70 εn | 195 | 405 209 |
//! | **(4, 1)** | 190 | 0.64 εn | 194 | 374 783 |
//! | (4, 0.5) | 176: fails | 0.68 εn | 184: fails | 369 064 |
//! | (3, 1) | 181: fails | 0.73 εn | 185: fails | 361 904 |
//! | (2, 1) | 165: fails | 0.96 εn | 174: fails | 348 412 |
//!
//! The guard columns are the release-gated test
//! `calibration_meets_the_target_and_spends_the_budget`, on one stream
//! at k 64, ε 0.02, n 400 000 (mid-round) and k 64, ε 0.01, n 150 000
//! (round start). Each cell must meet the margin, read p99 ≥ 0.6 εn and
//! show no decile bias beyond 3 standard errors. (8, 4) fails the p99
//! check mid-round; the cheaper pairs miss the margin at round start.
//!
//! ## Answering
//!
//! A query costs one binary search per chunk plus the chunk's tail
//! scan. Each chunk keeps its canonical node summaries flattened into
//! one sorted item run with the running weight below every position,
//! so the decomposition's estimate is a single `partition_point`
//! instead of one search per level of every node summary. The flat run
//! is built lazily by the first query after a `Summary` changes the
//! chunk, and lives in a shared cell: a `Summary` replaces the cell
//! rather than clearing it, so a coordinator and its snapshot clones
//! share cells, a run a snapshot reader builds is inherited by the next
//! publish, and a publish copies one pointer per chunk for it.
//!
//! The flat answer is bit-identical to summing the node summaries'
//! estimates one by one: every canonical term is an integer (item
//! counts times `2^ℓ`) and every partial sum stays below 2^53, where
//! `f64` addition of integers is exact, so the integer total converts
//! to the same `f64`.

use std::sync::{Arc, OnceLock};

use rand::rngs::SmallRng;
use rand::Rng;

use dtrack_sim::rng::{flip, rng_from_seed, site_seed};
use dtrack_sim::wire::{WireError, WireReader, WireSink};
use dtrack_sim::{Coordinator, Decode, Encode, Net, Outbox, Protocol, Site, SiteId, Words};
use dtrack_sketch::hash::FastMap;
use dtrack_sketch::kll::{KllSketch, KllSummary};

use crate::coarse::{CoarseCoord, CoarseSite, NewRound};
use crate::config::TrackingConfig;

/// Sampling-rate factor: `p = min(1, C_P·√k/(εn̄))`. Calibrated with
/// `C_E` to Theorem 4.1's 0.9 (module docs, "Error budget and
/// calibration").
const C_P: f64 = 4.0;
/// Sketch-error divisor: `e_ℓ = 2^{−ℓ}/(C_E·√h)`.
const C_E: f64 = 1.0;

/// Site → coordinator messages.
#[derive(Debug, Clone, PartialEq)]
pub enum RankUp {
    /// Coarse-tracker doubling report.
    Coarse(u64),
    /// First element of a new chunk: announces the coarse estimate `n̄`
    /// the chunk runs under, so the coordinator assigns the right
    /// sampling probability to the chunk's tail samples even when
    /// delivery is asynchronous (FIFO per site suffices).
    ChunkStart {
        /// Site-local chunk sequence number.
        chunk: u32,
        /// Coarse estimate the chunk's round runs under.
        n_bar: u64,
    },
    /// Sampled element of the current chunk.
    Sample {
        /// Site-local chunk sequence number.
        chunk: u32,
        /// The element.
        value: u64,
    },
    /// Summary of a filled tree node.
    Summary {
        /// Site-local chunk sequence number.
        chunk: u32,
        /// Tree level (0 = leaf blocks).
        level: u32,
        /// The node's Algorithm-A summary.
        summary: KllSummary,
    },
}

impl Words for RankUp {
    fn words(&self) -> u64 {
        match self {
            RankUp::Coarse(_) => 1,
            RankUp::ChunkStart { .. } => 2,
            RankUp::Sample { .. } => 2,
            RankUp::Summary { summary, .. } => 2 + summary.words(),
        }
    }
}

// A `KllSummary` is serialized inline (it lives in `dtrack-sketch`,
// which does not depend on `dtrack-sim`): varint `n`, varint level
// count, then one delta run per level — each level's items are sorted
// (a KLL invariant), so they gap-compress. The accounting mirrors
// `KllSummary::words` = stored + levels + 1: one varint per stored
// item/level-length/`n`.
impl Encode for RankUp {
    fn encode(&self, w: &mut impl WireSink) {
        match self {
            RankUp::Coarse(n) => {
                w.put_u8(0);
                w.put_varint(*n);
            }
            RankUp::ChunkStart { chunk, n_bar } => {
                w.put_u8(1);
                w.put_varint(u64::from(*chunk));
                w.put_varint(*n_bar);
            }
            RankUp::Sample { chunk, value } => {
                w.put_u8(2);
                w.put_varint(u64::from(*chunk));
                w.put_varint(*value);
            }
            RankUp::Summary {
                chunk,
                level,
                summary,
            } => {
                w.put_u8(3);
                w.put_varint(u64::from(*chunk));
                w.put_varint(u64::from(*level));
                w.put_varint(summary.n);
                w.put_varint(summary.levels.len() as u64);
                for items in &summary.levels {
                    w.put_delta_run(items.iter().copied());
                }
            }
        }
    }
}

impl Decode for RankUp {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(RankUp::Coarse(r.varint()?)),
            1 => Ok(RankUp::ChunkStart {
                chunk: r.varint_u32()?,
                n_bar: r.varint()?,
            }),
            2 => Ok(RankUp::Sample {
                chunk: r.varint_u32()?,
                value: r.varint()?,
            }),
            3 => {
                let chunk = r.varint_u32()?;
                let level = r.varint_u32()?;
                let n = r.varint()?;
                let num_levels = r.varint()?;
                // Each level costs ≥ 1 byte (its run length varint).
                if num_levels > r.remaining() as u64 {
                    return Err(WireError::Truncated);
                }
                let mut levels = Vec::with_capacity(num_levels as usize);
                for _ in 0..num_levels {
                    levels.push(r.delta_run()?);
                }
                Ok(RankUp::Summary {
                    chunk,
                    level,
                    summary: KllSummary { levels, n },
                })
            }
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Protocol factory for randomized rank-tracking.
#[derive(Debug, Clone, Copy)]
pub struct RandomizedRank {
    cfg: TrackingConfig,
}

impl RandomizedRank {
    /// Create for `k` sites and error parameter ε.
    pub fn new(cfg: TrackingConfig) -> Self {
        Self { cfg }
    }
}

/// Geometry of a chunk for a given round.
#[derive(Debug, Clone, Copy)]
struct ChunkGeometry {
    /// Elements per chunk, `max(1, n̄/k)`.
    cap: u64,
    /// Block size `b = max(1, ⌊εn̄/√k⌋)`.
    block: u64,
    /// Highest tree level, `⌊log₂(#blocks)⌋`.
    max_level: u32,
}

impl ChunkGeometry {
    fn for_round(cfg: &TrackingConfig, n_bar: u64) -> Self {
        let cap = (n_bar / cfg.k as u64).max(1);
        let block = ((cfg.epsilon * n_bar as f64 / cfg.sqrt_k()) as u64).max(1);
        let num_blocks = cap.div_ceil(block).max(1);
        let max_level = 63 - num_blocks.leading_zeros();
        Self {
            cap,
            block,
            max_level: max_level.min(30),
        }
    }

    /// Tree height `h` used in the error parameters (≥ 1).
    fn h(&self) -> f64 {
        (self.max_level as f64).max(1.0)
    }

    /// Error parameter of a level-ℓ node's sketch.
    fn level_error(&self, level: u32) -> f64 {
        1.0 / ((1u64 << level) as f64 * C_E * self.h().sqrt())
    }
}

/// Site state for [`RandomizedRank`].
#[derive(Debug, Clone)]
pub struct RandRankSite {
    cfg: TrackingConfig,
    coarse: CoarseSite,
    p: f64,
    n_bar: u64,
    geom: ChunkGeometry,
    chunk_id: u32,
    chunk_count: u64,
    /// One active Algorithm-A instance per level, index = level.
    sketches: Vec<KllSketch>,
    rng: SmallRng,
}

impl RandRankSite {
    fn new(cfg: TrackingConfig, seed: u64) -> Self {
        let mut s = Self {
            cfg,
            coarse: CoarseSite::new(),
            p: 1.0,
            n_bar: 0,
            geom: ChunkGeometry::for_round(&cfg, 0),
            chunk_id: 0,
            chunk_count: 0,
            sketches: Vec::new(),
            rng: rng_from_seed(seed),
        };
        s.rebuild_sketches();
        s
    }

    fn rebuild_sketches(&mut self) {
        self.sketches = (0..=self.geom.max_level)
            .map(|l| KllSketch::with_error(self.geom.level_error(l), self.rng.gen()))
            .collect();
    }

    fn fresh_sketch(&mut self, level: u32) -> KllSketch {
        KllSketch::with_error(self.geom.level_error(level), self.rng.gen())
    }
}

impl Site for RandRankSite {
    type Item = u64;
    type Up = RankUp;
    type Down = NewRound;

    fn on_item(&mut self, item: &u64, out: &mut Outbox<RankUp>) {
        // Chunk rollover: the previous chunk absorbed its n̄/k elements.
        if self.chunk_count >= self.geom.cap {
            self.chunk_id += 1;
            self.chunk_count = 0;
            self.rebuild_sketches();
        }
        if self.chunk_count == 0 {
            out.send(RankUp::ChunkStart {
                chunk: self.chunk_id,
                n_bar: self.n_bar,
            });
        }
        self.chunk_count += 1;
        // Every active node on the leaf-to-root path absorbs the element.
        for sk in &mut self.sketches {
            sk.insert(*item);
        }
        // Side sample (tail estimator). Sent before any node-completion
        // summary so the coordinator can prune samples covered by blocks.
        if flip(&mut self.rng, self.p) {
            out.send(RankUp::Sample {
                chunk: self.chunk_id,
                value: *item,
            });
        }
        // Node completions: level ℓ fills every block·2^ℓ elements.
        for level in 0..=self.geom.max_level {
            let span = self.geom.block << level;
            if self.chunk_count.is_multiple_of(span) {
                let fresh = self.fresh_sketch(level);
                let full = std::mem::replace(&mut self.sketches[level as usize], fresh);
                out.send(RankUp::Summary {
                    chunk: self.chunk_id,
                    level,
                    summary: full.summary(),
                });
            } else {
                break; // higher levels fill only when lower ones do
            }
        }
        // Coarse report last: earlier messages belong to the old round if
        // this element triggers a round switch.
        if let Some(r) = self.coarse.on_item() {
            out.send(RankUp::Coarse(r));
        }
    }

    fn on_message(&mut self, &NewRound { n_bar }: &NewRound, _out: &mut Outbox<RankUp>) {
        self.n_bar = n_bar;
        let x = C_P * self.cfg.sqrt_k() / (self.cfg.epsilon * n_bar.max(1) as f64);
        self.p = x.min(1.0);
        self.geom = ChunkGeometry::for_round(&self.cfg, n_bar);
        self.chunk_id += 1;
        self.chunk_count = 0;
        self.rebuild_sketches();
    }

    fn space_words(&self) -> u64 {
        self.sketches
            .iter()
            .map(KllSketch::space_words)
            .sum::<u64>()
            + 12
    }
}

/// Coordinator-side view of one chunk.
#[derive(Debug, Default, Clone)]
struct ChunkView {
    /// Sampling probability of the chunk's round.
    p: f64,
    /// Received node summaries per level, in completion order.
    levels: Vec<Vec<KllSummary>>,
    /// Samples not yet covered by a completed leaf block.
    tail: Vec<u64>,
    /// `levels`' canonical decomposition flattened for queries, built by
    /// the first query that needs it. A `Summary` installs a fresh cell
    /// and never clears one in place, so clones share cells safely.
    flat: Arc<OnceLock<FlatCanonical>>,
}

/// A chunk's canonical node summaries merged into one sorted run.
#[derive(Debug, Default)]
struct FlatCanonical {
    /// Every item of every canonical node summary, sorted.
    items: Vec<u64>,
    /// `below[i]` = total weight (`2^ℓ` per level-ℓ item) of
    /// `items[..i]`; one longer than `items`, ending in the total.
    below: Vec<u64>,
}

impl ChunkView {
    /// Number of completed leaf blocks `q`.
    fn leaf_count(&self) -> u64 {
        self.levels.first().map_or(0, |v| v.len() as u64)
    }

    /// The canonical decomposition of the `q` completed blocks (one full
    /// node per set bit of `q`, largest first) as weighted items
    /// `(value, 2^ℓ)`, node by node. A node not yet received — summaries
    /// may arrive out of order — contributes nothing.
    fn canonical(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let q = self.leaf_count();
        let mut consumed = 0u64;
        (0..64 - q.leading_zeros())
            .rev()
            .filter_map(move |level| {
                if (q >> level) & 1 == 0 {
                    return None;
                }
                let idx = (consumed >> level) as usize;
                consumed += 1 << level;
                self.levels.get(level as usize)?.get(idx)
            })
            .flat_map(|s| {
                s.levels
                    .iter()
                    .enumerate()
                    .flat_map(|(l, items)| items.iter().map(move |&v| (v, 1u64 << l)))
            })
    }

    /// The flattened [`ChunkView::canonical`], built on first use.
    fn flat(&self) -> &FlatCanonical {
        self.flat.get_or_init(|| {
            let mut points: Vec<(u64, u64)> = self.canonical().collect();
            points.sort_unstable_by_key(|&(v, _)| v);
            let mut below = Vec::with_capacity(points.len() + 1);
            let mut total = 0u64;
            below.push(total);
            below.extend(points.iter().map(|&(_, w)| {
                total += w;
                total
            }));
            FlatCanonical {
                items: points.into_iter().map(|(v, _)| v).collect(),
                below,
            }
        })
    }

    /// Unbiased rank estimate for this chunk: canonical decomposition of
    /// the `q` completed blocks plus the sampled tail.
    fn estimate_rank(&self, x: u64) -> f64 {
        let flat = self.flat();
        let mut est = flat.below[flat.items.partition_point(|&v| v < x)] as f64;
        if self.p > 0.0 {
            est += self.tail.iter().filter(|&&v| v < x).count() as f64 / self.p;
        }
        est
    }

    /// Unbiased estimate of the chunk's element count.
    fn estimate_total(&self) -> f64 {
        self.estimate_rank(u64::MAX)
    }

    /// Append this chunk's rank mass as weighted value points: the
    /// canonical decomposition's summary items at their level weights
    /// `2^ℓ`, plus the sampled tail at weight `1/p` — by construction
    /// the prefix-sum of these points reproduces [`ChunkView::estimate_rank`]
    /// for every query `x`.
    fn digest_points(&self, out: &mut Vec<(u64, f64)>) {
        out.extend(self.canonical().map(|(v, w)| (v, w as f64)));
        if self.p > 0.0 {
            out.extend(self.tail.iter().map(|&v| (v, 1.0 / self.p)));
        }
    }
}

/// Coordinator state for [`RandomizedRank`].
#[derive(Debug, Clone)]
pub struct RandRankCoord {
    cfg: TrackingConfig,
    coarse: CoarseCoord,
    p: f64,
    /// `(site, chunk) → view`; chunks are never discarded (they stay
    /// queryable for the lifetime of the tracking period).
    chunks: FastMap<(usize, u32), ChunkView>,
}

impl RandRankCoord {
    fn new(cfg: TrackingConfig) -> Self {
        Self {
            cfg,
            coarse: CoarseCoord::new(cfg.k),
            p: 1.0,
            chunks: FastMap::default(),
        }
    }

    fn view(&mut self, site: usize, chunk: u32) -> &mut ChunkView {
        let p = self.p;
        self.chunks
            .entry((site, chunk))
            .or_insert_with(|| ChunkView {
                p,
                ..ChunkView::default()
            })
    }

    /// The tracked estimate of `rank(x)` (unbiased; error `O(εn)`).
    pub fn estimate_rank(&self, x: u64) -> f64 {
        self.chunks.values().map(|c| c.estimate_rank(x)).sum()
    }

    /// Unbiased estimate of the total element count `n`.
    pub fn estimate_total(&self) -> f64 {
        self.chunks.values().map(ChunkView::estimate_total).sum()
    }

    /// ε-approximate φ-quantile over the value domain `[lo, hi)`, by
    /// binary search on the monotone rank estimator.
    pub fn quantile(&self, phi: f64, mut lo: u64, mut hi: u64) -> u64 {
        let target = phi.clamp(0.0, 1.0) * self.estimate_total();
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if self.estimate_rank(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Current coarse estimate of `n`.
    pub fn n_bar(&self) -> u64 {
        self.coarse.n_bar()
    }

    /// Number of chunk views held.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

impl Coordinator for RandRankCoord {
    type Up = RankUp;
    type Down = NewRound;

    fn on_message(&mut self, from: SiteId, msg: &RankUp, net: &mut Net<NewRound>) {
        match msg {
            RankUp::Coarse(ni) => {
                if let Some(n_bar) = self.coarse.on_report(from, *ni) {
                    let x = C_P * self.cfg.sqrt_k() / (self.cfg.epsilon * n_bar.max(1) as f64);
                    self.p = x.min(1.0);
                    net.broadcast(NewRound { n_bar });
                }
            }
            RankUp::ChunkStart { chunk, n_bar } => {
                let x = C_P * self.cfg.sqrt_k() / (self.cfg.epsilon * (*n_bar).max(1) as f64);
                let p = x.min(1.0);
                self.chunks.entry((from, *chunk)).or_default().p = p;
            }
            RankUp::Sample { chunk, value } => {
                self.view(from, *chunk).tail.push(*value);
            }
            RankUp::Summary {
                chunk,
                level,
                summary,
            } => {
                let view = self.view(from, *chunk);
                while view.levels.len() <= *level as usize {
                    view.levels.push(Vec::new());
                }
                view.levels[*level as usize].push(summary.clone());
                // A fresh cell, not a cleared one: snapshot clones keep
                // the cell that matches their own `levels`.
                view.flat = Arc::default();
                if *level == 0 {
                    // Samples received so far are covered by completed
                    // blocks; only the (empty) tail remains.
                    view.tail.clear();
                }
            }
        }
    }
}

/// A closed epoch digests every chunk's canonical decomposition into
/// weighted value points (summary items at `2^ℓ`, sampled tails at
/// `1/p`), so the digest's prefix-sum rank equals the coordinator's
/// unbiased [`RandRankCoord::estimate_rank`] at epoch close.
impl crate::window::EpochProtocol for RandomizedRank {
    type Digest = crate::window::WeightedValues;

    fn digest(coord: &RandRankCoord) -> Self::Digest {
        let mut points = Vec::new();
        for chunk in coord.chunks.values() {
            chunk.digest_points(&mut points);
        }
        crate::window::WeightedValues::from_points(points)
    }
}

/// Tree aggregation: each level re-runs the paper's §4 randomized tracker with its
/// share of the error budget; an aggregator replays its digest's CDF
/// growth as value copies (CDF-matching greedy — see
/// `crate::topology::CdfCursor`; repeated values are fine, the
/// receiving summaries handle duplicates by design).
impl dtrack_sim::exec::topology::TreeProtocol for RandomizedRank {
    type Cursor = crate::topology::CdfCursor;

    fn level_instance(&self, children: usize, eps_factor: f64) -> Self {
        Self::new(TrackingConfig::new(children, self.cfg.epsilon * eps_factor))
    }

    fn restream(coord: &RandRankCoord, cursor: &mut Self::Cursor, emit: &mut dyn FnMut(&u64)) {
        let digest = <Self as crate::window::EpochProtocol>::digest(coord);
        cursor.advance(&digest, &mut |v| emit(&v));
    }
}

impl Protocol for RandomizedRank {
    type Site = RandRankSite;
    type Coord = RandRankCoord;

    fn k(&self) -> usize {
        self.cfg.k
    }

    fn build_site(&self, master_seed: u64, me: SiteId) -> RandRankSite {
        RandRankSite::new(self.cfg, site_seed(master_seed, me, 2))
    }

    fn build_coord(&self, _master_seed: u64) -> RandRankCoord {
        RandRankCoord::new(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrack_sim::Runner;
    use dtrack_workload::items::DistinctSeq;

    /// Feed `n` distinct elements round-robin; returns runner plus the
    /// sorted elements for ground truth.
    fn run(k: usize, eps: f64, n: u64, seed: u64) -> (Runner<RandomizedRank>, Vec<u64>) {
        let proto = RandomizedRank::new(TrackingConfig::new(k, eps));
        let mut r = Runner::new(&proto, seed);
        let seq = DistinctSeq::new(42);
        let mut all = Vec::with_capacity(n as usize);
        for t in 0..n {
            let v = seq.value_at(t);
            r.feed((t % k as u64) as usize, &v);
            all.push(v);
        }
        all.sort_unstable();
        (r, all)
    }

    fn true_rank(sorted: &[u64], x: u64) -> f64 {
        sorted.partition_point(|&v| v < x) as f64
    }

    #[test]
    fn geometry_matches_paper_formulas() {
        let cfg = TrackingConfig::new(16, 0.01);
        let g = ChunkGeometry::for_round(&cfg, 1_600_000);
        assert_eq!(g.cap, 100_000);
        assert_eq!(g.block, 4_000); // εn̄/√k = 0.01·1.6e6/4
                                    // #blocks = 25 → max_level 4.
        assert_eq!(g.max_level, 4);
        assert!((g.h() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn exact_for_tiny_streams() {
        // Early rounds: p=1, block=1 → leaf summaries of single elements,
        // everything exact.
        let (r, sorted) = run(4, 0.1, 30, 1);
        for &x in &[sorted[0], sorted[10], sorted[29], u64::MAX] {
            let est = r.coord().estimate_rank(x);
            assert!(
                (est - true_rank(&sorted, x)).abs() < 1e-6,
                "x={x} est={est}"
            );
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow in debug; runs in release CI")]
    fn rank_estimates_are_unbiased() {
        let (k, eps, n) = (9, 0.2, 30_000u64);
        let reps = 40;
        // Query the (sorted) median element across seeds.
        let mut total = 0.0;
        let mut truth = 0.0;
        for s in 0..reps {
            let (r, sorted) = run(k, eps, n, s);
            let x = sorted[(n / 2) as usize];
            truth = true_rank(&sorted, x);
            total += r.coord().estimate_rank(x);
        }
        let mean = total / reps as f64;
        // sd ≲ εn = 6000 → SE ≲ 950.
        assert!((mean - truth).abs() < 3_000.0, "mean {mean} truth {truth}");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow in debug; runs in release CI")]
    fn error_within_epsilon_with_good_probability() {
        let (k, eps, n) = (16, 0.15, 40_000u64);
        let reps = 30;
        let mut within_eps = 0;
        let mut within_2eps = 0;
        for s in 0..reps {
            let (r, sorted) = run(k, eps, n, 100 + s);
            let x = sorted[(n / 3) as usize];
            let err = (r.coord().estimate_rank(x) - true_rank(&sorted, x)).abs();
            if err <= eps * n as f64 {
                within_eps += 1;
            }
            if err <= 2.0 * eps * n as f64 {
                within_2eps += 1;
            }
        }
        assert!(within_2eps >= 27, "within 2εn: {within_2eps}/{reps}");
        assert!(within_eps >= 18, "within εn: {within_eps}/{reps}");
    }

    #[test]
    fn estimate_total_tracks_n() {
        let (r, _) = run(9, 0.2, 25_000, 7);
        let est = r.coord().estimate_total();
        assert!((est - 25_000.0).abs() < 0.2 * 25_000.0, "total est {est}");
    }

    #[test]
    fn quantile_binary_search() {
        let (k, eps, n) = (9, 0.1, 30_000u64);
        let (r, sorted) = run(k, eps, n, 9);
        let q = r.coord().quantile(0.5, 0, u64::MAX);
        let rank_of_q = true_rank(&sorted, q);
        assert!(
            (rank_of_q - n as f64 / 2.0).abs() <= 3.0 * eps * n as f64,
            "median candidate has rank {rank_of_q}"
        );
    }

    #[test]
    fn space_is_sublinear_in_chunk() {
        let (k, eps, n) = (16, 0.05, 100_000u64);
        let (r, _) = run(k, eps, n, 11);
        // Space bound: O(√h/(ε√k)·log^1.5) words; chunk cap is n̄/k ≈
        // thousands of elements — assert we stay far below buffering a
        // whole chunk.
        let cap = (r.coord().n_bar() / k as u64).max(1);
        let peak = r.space().max_peak();
        assert!(
            peak < cap,
            "site space {peak} should be well below chunk size {cap}"
        );
    }

    #[test]
    fn monotone_rank_estimates() {
        let (r, sorted) = run(4, 0.1, 20_000, 13);
        let mut prev = -1.0;
        for i in (0..sorted.len()).step_by(997) {
            let est = r.coord().estimate_rank(sorted[i]);
            assert!(est >= prev, "dip at {i}: {est} < {prev}");
            prev = est;
        }
    }

    #[test]
    fn single_site_stream_still_accurate() {
        let (k, eps, n) = (9, 0.2, 30_000u64);
        let proto = RandomizedRank::new(TrackingConfig::new(k, eps));
        let reps = 20;
        let mut ok = 0;
        for seed in 0..reps {
            let mut r = Runner::new(&proto, seed);
            let seq = DistinctSeq::new(5);
            let mut all: Vec<u64> = (0..n).map(|t| seq.value_at(t)).collect();
            for v in &all {
                r.feed(0, v);
            }
            all.sort_unstable();
            let x = all[(n / 2) as usize];
            let err = (r.coord().estimate_rank(x) - true_rank(&all, x)).abs();
            if err <= 2.0 * eps * n as f64 {
                ok += 1;
            }
        }
        assert!(ok >= 17, "ok {ok}/{reps}");
    }

    /// Fewest hits out of `trials` runs that show `P[hit] ≥ 0.9` with a
    /// one-sided binomial margin, `trials·0.9 + z·√(trials·0.9·0.1)` with
    /// `z = 1.645`: the normal-approximation test that rejects "P ≤ 0.9"
    /// at 5 %, the margin `exp_accuracy` holds its rows to.
    fn hits_needed(trials: usize) -> usize {
        let t = trials as f64;
        (t * 0.9 + 1.645 * (t * 0.9 * 0.1).sqrt()).ceil() as usize
    }

    /// Theorem 4.1's target held from both sides, over 200 protocol seeds
    /// on one stream per cell: the max-decile error is within εn often
    /// enough, by the binomial margin; the budget is spent, p99 ≥ 0.6 εn;
    /// and no decile's mean signed error is more than 3 standard errors
    /// from 0. The first cell (k 64, ε 0.02, n 400 000) sits mid-round:
    /// the constants `(C_P, C_E) = (8, 4)` read p99 0.45 εn there and
    /// fail. The second (k 64, ε 0.01, n 150 000) sits just after a
    /// round starts, the hardest time: half the calibrated `C_P`, (2, 1),
    /// reads 174 of 200 runs within εn there and fails.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "400 runs of up to 400 000 elements; runs in release CI"
    )]
    fn calibration_meets_the_target_and_spends_the_budget() {
        for (k, eps, n) in [(64usize, 0.02, 400_000usize), (64, 0.01, 150_000)] {
            let at = format!("k {k}, ε {eps}, n {n}");
            let proto = RandomizedRank::new(TrackingConfig::new(k, eps));
            let seq = DistinctSeq::new(42);
            let batch: Vec<(usize, u64)> = (0..n as u64)
                .map(|t| ((t % k as u64) as usize, seq.value_at(t)))
                .collect();
            let mut sorted: Vec<u64> = batch.iter().map(|&(_, v)| v).collect();
            sorted.sort_unstable();
            let budget = eps * n as f64;
            // `signed[d]`: (rank̂ − rank)/εn at decile d + 1, one per seed.
            let mut signed = vec![Vec::new(); 9];
            let mut worst = Vec::new();
            for seed in 0..200 {
                let mut r = Runner::new(&proto, seed);
                r.feed_batch(&batch);
                let mut max = 0.0f64;
                for (d, errs) in signed.iter_mut().enumerate() {
                    let i = (d + 1) * n / 10;
                    let err = (r.coord().estimate_rank(sorted[i]) - i as f64) / budget;
                    errs.push(err);
                    max = max.max(err.abs());
                }
                worst.push(max);
            }
            let hits = worst.iter().filter(|&&e| e <= 1.0).count();
            let needed = hits_needed(worst.len());
            assert!(hits >= needed, "{at}: {hits}/200 within εn, need {needed}");
            worst.sort_by(f64::total_cmp);
            let p99 = worst[worst.len() * 99 / 100];
            assert!(p99 >= 0.6, "{at}: p99 {p99:.2} εn, the budget is not spent");
            for (d, errs) in signed.iter().enumerate() {
                let m = errs.len() as f64;
                let mean = errs.iter().sum::<f64>() / m;
                let var = errs.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (m - 1.0);
                let se = (var / m).sqrt();
                assert!(
                    mean.abs() <= 3.0 * se,
                    "{at}, decile {}: mean signed error {mean:.4} εn, SE {se:.4}",
                    d + 1
                );
            }
        }
    }

    /// Every site's peak space, the `CommStats` totals and three quantile
    /// answers. First recorded before `KllSketch` counted its stored items
    /// instead of summing its levels (peak space reads that count after
    /// every element); re-recorded when `C_P` / `C_E` were calibrated to
    /// Theorem 4.1's 0.9.
    #[test]
    fn runner_peaks_totals_and_quantiles_match_recorded_goldens() {
        struct Golden {
            k: usize,
            eps: f64,
            seed: u64,
            /// Up msgs / words / bytes, down msgs / words / bytes,
            /// broadcasts, elements.
            comm: [u64; 8],
            peaks: &'static [u64],
            /// At φ = 0.1, 0.5, 0.9.
            quantiles: [u64; 3],
        }
        #[rustfmt::skip]
        let goldens = [
            Golden {
                k: 8, eps: 0.05, seed: 3,
                comm: [3091, 18590, 109060, 128, 128, 216, 16, 40000],
                peaks: &[213, 209, 207, 204, 206, 211, 205, 208],
                quantiles: [1817386404873260210, 9097340047507447630, 16511439237792368911],
            },
            Golden {
                k: 8, eps: 0.05, seed: 4,
                comm: [3081, 18582, 109006, 128, 128, 216, 16, 40000],
                peaks: &[202, 205, 211, 216, 207, 216, 208, 217],
                quantiles: [1889391126023239946, 9352881200160300595, 16776418564675424325],
            },
            Golden {
                k: 64, eps: 0.01, seed: 3,
                comm: [25803, 135937, 766979, 1024, 1024, 1728, 16, 40000],
                peaks: &[
                    133, 135, 133, 133, 133, 135, 135, 133, 136, 135, 133, 133, 134, 133, 134, 133,
                    133, 133, 131, 133, 130, 134, 131, 133, 136, 136, 133, 135, 134, 133, 132, 135,
                    134, 129, 133, 133, 134, 134, 134, 134, 132, 133, 133, 134, 132, 135, 132, 133,
                    138, 135, 132, 134, 134, 135, 133, 129, 131, 134, 134, 133, 133, 136, 135, 133,
                ],
                quantiles: [1878155160777490289, 9162816141160057310, 16580392505403175200],
            },
            Golden {
                k: 64, eps: 0.01, seed: 4,
                comm: [25763, 135734, 765355, 1024, 1024, 1728, 16, 40000],
                peaks: &[
                    136, 136, 134, 130, 133, 133, 133, 133, 133, 134, 132, 133, 137, 133, 134, 134,
                    133, 133, 133, 133, 133, 135, 131, 131, 133, 133, 134, 132, 135, 134, 134, 135,
                    134, 133, 134, 132, 135, 132, 135, 133, 134, 136, 135, 133, 134, 138, 133, 132,
                    131, 132, 133, 134, 137, 132, 129, 132, 131, 134, 135, 133, 134, 132, 134, 131,
                ],
                quantiles: [1807404102151136792, 9223584897064287389, 16626590028909800067],
            },
        ];
        for g in goldens {
            let at = format!("k = {}, seed = {}", g.k, g.seed);
            let (r, _) = run(g.k, g.eps, 40_000, g.seed);
            let s = r.stats();
            let comm = [
                s.up_msgs,
                s.up_words,
                s.up_bytes,
                s.down_msgs,
                s.down_words,
                s.down_bytes,
                s.broadcast_events,
                s.elements,
            ];
            assert_eq!(comm, g.comm, "{at}: totals");
            let peaks: Vec<u64> = (0..g.k).map(|site| r.space().peak(site)).collect();
            assert_eq!(peaks, g.peaks, "{at}: peak space per site");
            let quantiles = [0.1, 0.5, 0.9].map(|phi| r.coord().quantile(phi, 0, u64::MAX));
            assert_eq!(quantiles, g.quantiles, "{at}: quantiles");
        }
    }

    // The per-summary walk the flat cells replaced — one
    // `KllSummary::estimate_rank` per canonical node — kept as the
    // reference the coordinator's answers must match bit for bit.

    /// One chunk's estimate by the per-summary walk; `gaps` counts the
    /// canonical nodes read *past* a larger node not yet received (the
    /// case where the walk's position must still advance over the gap).
    fn reference_chunk_rank(c: &ChunkView, x: u64, gaps: &mut u64) -> f64 {
        let q = c.leaf_count();
        let mut est = 0.0;
        let mut consumed = 0u64;
        let mut missing = false;
        if q > 0 {
            for level in (0..64 - q.leading_zeros() as u64).rev() {
                if (q >> level) & 1 == 1 {
                    let idx = (consumed >> level) as usize;
                    match c.levels.get(level as usize).and_then(|s| s.get(idx)) {
                        Some(s) => {
                            est += s.estimate_rank(x);
                            *gaps += u64::from(missing);
                        }
                        None => missing = true,
                    }
                    consumed += 1 << level;
                }
            }
        }
        if c.p > 0.0 {
            est += c.tail.iter().filter(|&&v| v < x).count() as f64 / c.p;
        }
        est
    }

    fn reference_rank(coord: &RandRankCoord, x: u64) -> f64 {
        let mut gaps = 0;
        coord
            .chunks
            .values()
            .map(|c| reference_chunk_rank(c, x, &mut gaps))
            .sum()
    }

    fn reference_gaps(coord: &RandRankCoord) -> u64 {
        let mut gaps = 0;
        for c in coord.chunks.values() {
            reference_chunk_rank(c, 0, &mut gaps);
        }
        gaps
    }

    fn reference_quantile(coord: &RandRankCoord, phi: f64, mut lo: u64, mut hi: u64) -> u64 {
        let target = phi.clamp(0.0, 1.0) * reference_rank(coord, u64::MAX);
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if reference_rank(coord, mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn reference_digest(coord: &RandRankCoord) -> crate::window::WeightedValues {
        let mut points = Vec::new();
        for c in coord.chunks.values() {
            let q = c.leaf_count();
            let mut consumed = 0u64;
            for level in (0..64 - q.leading_zeros() as u64).rev() {
                if (q >> level) & 1 == 1 {
                    let idx = (consumed >> level) as usize;
                    if let Some(s) = c.levels.get(level as usize).and_then(|s| s.get(idx)) {
                        for (l, items) in s.levels.iter().enumerate() {
                            let w = (1u64 << l) as f64;
                            points.extend(items.iter().map(|&v| (v, w)));
                        }
                    }
                    consumed += 1 << level;
                }
            }
            if c.p > 0.0 {
                points.extend(c.tail.iter().map(|&v| (v, 1.0 / c.p)));
            }
        }
        crate::window::WeightedValues::from_points(points)
    }

    /// Query points: 0, `u64::MAX`, a spread of stored items (summary
    /// items and tail samples) each ± 1, and the quartiles of `fed`.
    fn query_grid(coord: &RandRankCoord, fed: &[u64]) -> Vec<u64> {
        let mut stored: Vec<u64> = coord
            .chunks
            .values()
            .flat_map(|c| {
                c.levels
                    .iter()
                    .flatten()
                    .flat_map(|s| s.levels.iter().flatten())
                    .chain(&c.tail)
                    .copied()
            })
            .collect();
        stored.sort_unstable();
        let step = (stored.len() / 40).max(1);
        let mut grid = vec![0, u64::MAX];
        for &v in stored.iter().step_by(step) {
            grid.extend([v.saturating_sub(1), v, v.saturating_add(1)]);
        }
        let mut sorted = fed.to_vec();
        sorted.sort_unstable();
        if !sorted.is_empty() {
            grid.extend((1..4).map(|i| sorted[i * (sorted.len() - 1) / 4]));
        }
        grid
    }

    /// Ranks on the grid and the total equal the reference's bits.
    fn assert_ranks_match_reference(coord: &RandRankCoord, fed: &[u64], at: &str) {
        for x in query_grid(coord, fed) {
            assert_eq!(
                coord.estimate_rank(x).to_bits(),
                reference_rank(coord, x).to_bits(),
                "{at}: rank({x})"
            );
        }
        assert_eq!(
            coord.estimate_total().to_bits(),
            reference_rank(coord, u64::MAX).to_bits(),
            "{at}: total"
        );
    }

    /// Every answer the coordinator gives — ranks on the grid, the total,
    /// three quantiles and the epoch digest — equals the reference's bits.
    fn assert_matches_reference(coord: &RandRankCoord, fed: &[u64], at: &str) {
        assert_ranks_match_reference(coord, fed, at);
        for phi in [0.25, 0.5, 0.75] {
            assert_eq!(
                coord.quantile(phi, 0, u64::MAX),
                reference_quantile(coord, phi, 0, u64::MAX),
                "{at}: quantile({phi})"
            );
        }
        assert_eq!(
            <RandomizedRank as crate::window::EpochProtocol>::digest(coord),
            reference_digest(coord),
            "{at}: digest"
        );
    }

    #[test]
    fn flat_answers_match_per_summary_walk_at_runner_checkpoints() {
        let proto = RandomizedRank::new(TrackingConfig::new(8, 0.05));
        let seq = DistinctSeq::new(3);
        for seed in 0..5 {
            let mut r = Runner::new(&proto, seed);
            let mut fed = Vec::new();
            for t in 0..12_000u64 {
                let v = seq.value_at(t);
                r.feed((t % 8) as usize, &v);
                fed.push(v);
                if t % 997 == 0 {
                    assert_matches_reference(r.coord(), &fed, &format!("seed {seed} t {t}"));
                }
            }
            assert!(
                r.coord().chunks.values().any(|c| c.levels.len() > 2),
                "seed {seed}: the stream reached multi-level chunk trees"
            );
            assert_matches_reference(r.coord(), &fed, &format!("seed {seed} end"));
        }
    }

    #[test]
    fn flat_answers_match_per_summary_walk_under_adversarial_reorder() {
        use dtrack_sim::{DeliveryPolicy, EventRuntime};
        let proto = RandomizedRank::new(TrackingConfig::new(8, 0.05));
        let seq = DistinctSeq::new(4);
        let mut gapped = 0;
        for seed in 0..3 {
            let policy = DeliveryPolicy::AdversarialReorder { window: 64 };
            let mut ev = EventRuntime::with_policy(&proto, seed, policy);
            let mut fed = Vec::new();
            for t in 0..10_000u64 {
                let v = seq.value_at(t);
                ev.feed((t % 8) as usize, v);
                fed.push(v);
                // A gapped state lasts a few ticks: look at every one.
                if reference_gaps(ev.coord()) > 0 {
                    gapped += 1;
                    let at = format!("seed {seed} t {t} (gapped)");
                    assert_ranks_match_reference(ev.coord(), &fed, &at);
                }
                if t % 331 == 0 {
                    assert_matches_reference(ev.coord(), &fed, &format!("seed {seed} t {t}"));
                }
            }
            ev.quiesce();
            assert_matches_reference(ev.coord(), &fed, &format!("seed {seed} quiesced"));
        }
        assert!(
            gapped > 0,
            "no state had a node past a missing canonical node"
        );
    }

    #[test]
    fn snapshot_clones_share_flat_cells_and_stay_exact() {
        let proto = RandomizedRank::new(TrackingConfig::new(8, 0.05));
        let seq = DistinctSeq::new(5);
        let mut r = Runner::new(&proto, 17);
        let mut fed = Vec::new();
        let feed =
            |r: &mut Runner<RandomizedRank>, fed: &mut Vec<u64>, ts: std::ops::Range<u64>| {
                for t in ts {
                    let v = seq.value_at(t);
                    r.feed((t % 8) as usize, &v);
                    fed.push(v);
                }
            };
        feed(&mut r, &mut fed, 0..6_000);
        let snap = r.coord().clone();
        let snap_fed = fed.clone();
        assert_matches_reference(&snap, &snap_fed, "clone");
        // The clone built its cells; the original shares them.
        for (key, c) in &r.coord().chunks {
            assert!(Arc::ptr_eq(&c.flat, &snap.chunks[key].flat), "{key:?}");
            assert!(c.flat.get().is_some(), "{key:?}: built via the clone");
        }
        feed(&mut r, &mut fed, 6_000..12_000);
        let replaced = snap
            .chunks
            .iter()
            .filter(|(key, c)| !Arc::ptr_eq(&c.flat, &r.coord().chunks[key].flat))
            .count();
        assert!(replaced > 0, "later summaries install fresh cells");
        assert_matches_reference(r.coord(), &fed, "original after more summaries");
        assert_matches_reference(&snap, &snap_fed, "clone after the original moved on");
    }
}
