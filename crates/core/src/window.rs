//! Sliding-window tracking: `f(last W elements)` from epoch-restarted
//! copies of any whole-stream protocol.
//!
//! The paper's protocols track count, frequencies, and ranks over the
//! *entire* union of the streams. Real monitoring deployments mostly ask
//! about the *recent* stream — "heavy hitters in the last hour", "p99
//! over the last W readings". [`Windowed`] is a generic adapter that
//! turns any [`EpochProtocol`] into a sliding-window tracker using the
//! standard exponential-histogram-of-epochs construction (Datar–Gionis–
//! Indyk–Motwani style, applied to restart-based protocol instances):
//!
//! 1. **Epochs.** The coordinator splits the global stream into epochs
//!    of ≈ `granularity` elements each (the seal *cadence* is
//!    approximate: the coordinator learns the global count from per-site
//!    heartbeat [`WinUp::Tick`]s, so an epoch may overrun by up to
//!    `k · tick` ≤ `granularity/2` elements). Each epoch is tracked by a
//!    **fresh instance** of the inner protocol, built from an
//!    epoch-specific seed — the live epoch's sites run on the real
//!    sites, wrapped in [`WinSite`].
//! 2. **Sealing (two-phase).** When the live epoch fills, the
//!    coordinator broadcasts [`WinDown::Seal`] and opens the next
//!    epoch's inner coordinator alongside the sealing one; each site
//!    replaces its inner site state with a fresh epoch instance and
//!    replies [`WinUp::SealAck`], stamped with the number of elements it
//!    has consumed. Only when **all `k` acks** are in does the finished
//!    inner coordinator move into the closed-bucket histogram. Its range
//!    ends at the sum of the `k` stamps — exactly the elements its sites
//!    fed it, however late each seal arrived — and the next epoch's
//!    range opens there. No further seal is initiated while one is in
//!    flight; if the heartbeat clock crossed the next boundary meanwhile,
//!    the next seal starts the moment this one completes.
//! 3. **The histogram invariant.** Closed buckets are kept youngest-to-
//!    oldest with geometrically growing spans: at most
//!    [`BUCKETS_PER_CLASS`] buckets of each span class (1, 2, 4, …
//!    epochs). When a class overflows, its two *oldest* buckets are
//!    digested ([`EpochProtocol::digest`]) and merged
//!    ([`MergeDigest::merged`]) into one bucket of twice the span — so
//!    only `O(BUCKETS_PER_CLASS · log(W/granularity))` instances are
//!    ever resident.
//! 4. **Expiry.** A bucket whose newest element is older than `W` is
//!    dropped entirely.
//! 5. **Queries.** A windowed answer sums the digests of all buckets
//!    overlapping the window plus the live instance, with the single
//!    *straddling* bucket pro-rated by its overlap fraction (assuming
//!    within-bucket uniformity — the usual EH half-count rule, refined).
//!
//! ## Error model
//!
//! Three error sources stack, each bounded by design:
//! * the inner protocol's own `ε` per bucket (independent across
//!   buckets, so they aggregate sub-linearly);
//! * the straddling bucket's pro-rating, off by at most the arrival
//!   non-uniformity within one bucket of span ≤ `W/BUCKETS_PER_CLASS`;
//! * the window cut's lag: the cut sits `W` behind the heartbeat clock,
//!   which trails the true stream position by the elements not yet
//!   covered by a delivered [`WinUp::Tick`] — less than one tick per
//!   site (`granularity/2` in total) once the ticks are delivered, more
//!   while they are in flight (see *Off-model behavior*).
//!
//! Bucket boundaries add no error: they are the sites' own stamps.
//!
//! Digesting itself adds **no estimator bias**: digests preserve the
//! inner estimator's structure rather than flattening it. In
//! particular, frequency digests ([`ItemCounts`]) carry the randomized
//! estimator's per-epoch `−d/p` correction terms for items that were
//! side-sampled but never countered, so a closed bucket answers every
//! item query with exactly the value the live estimator would have
//! given at seal time — rare items included. (Earlier revisions
//! flattened each epoch to a single point table that dropped the live
//! segments' sample-only `−d/p` terms at seal time, leaving windowed
//! rare-item estimates with a small positive bias; the bias harness in
//! `exp_ablation`/`exp_window` pins the corrected digests at mean
//! signed rare-item error ≈ 0 and keeps a *fully* uncorrected ablation
//! arm — all correction terms dropped, not just the live-segment ones —
//! to show the worst-case damage.)
//!
//! With the default `granularity = W/32` the total stays within the
//! configured `ε` on the standard workloads, as a mean over ≥ 20 seeds —
//! pinned by the windowed accuracy tests for the lock-step and event
//! executors, for real threads, and over sockets.
//!
//! ## Off-model behavior
//!
//! Under the instant-delivery executors (`Runner`, `EventRuntime` with
//! `DeliveryPolicy::Instant`) the seal handshake completes inside the
//! same message cascade that triggered it, epoch tags always match, and
//! the adapter is fully deterministic — bit-identical across those two
//! executors like every other protocol. Under delayed delivery, sites
//! keep feeding the sealing epoch until the seal reaches them; those
//! messages still carry the sealing epoch's tag and are absorbed into
//! its (still-open) bucket, and the site's stamp counts them, so the
//! bucket's range ends where its sites actually switched. The stamps,
//! not the arrival times of control messages, decide every boundary:
//! deterministic count, for one, answers under fixed-latency delivery
//! exactly as under lock-step (`tests/windowed.rs`). Messages for
//! already-digested or expired epochs are dropped.
//!
//! On the real transports (the thread-per-site `ChannelRuntime`, the
//! in-process halves, TCP) `Seal`s travel the site's control lane,
//! drained before every element, so a site switches as soon as the seal
//! is *sent*, not after it drains a data backlog. What remains is the
//! heartbeat clock's lag: a site's ticks queue behind its reports. On
//! in-process links the per-site credit (`SITE_CREDIT` unapplied ups)
//! bounds each site's lag by `SITE_CREDIT · tick_every` elements —
//! `SITE_CREDIT · granularity / 2` in total, which is `W` at the default
//! granularity — even if the OS starves the coordinator thread; over
//! TCP the sockets' window is the backpressure. A lagging clock moves
//! the window cut back (answers cover more than the last `W`), never
//! the bucket boundaries.
//!
//! ## Example
//!
//! Track the size of the last 4 096 elements of a 40 000-element stream:
//!
//! ```
//! use dtrack_core::count::RandomizedCount;
//! use dtrack_core::window::Windowed;
//! use dtrack_core::TrackingConfig;
//! use dtrack_sim::Runner;
//!
//! let inner = RandomizedCount::new(TrackingConfig::new(4, 0.1));
//! let proto = Windowed::new(inner, 4096);
//! let mut r = Runner::new(&proto, 7);
//! for t in 0..40_000u64 {
//!     r.feed((t % 4) as usize, &t);
//! }
//! let est = r.coord().windowed_count();
//! // The whole stream is 10× the window; a windowed tracker must not
//! // drift toward it.
//! assert!((est - 4096.0).abs() < 0.25 * 4096.0, "estimate {est}");
//! // O(log(W/granularity)) resident instances, not one per epoch:
//! assert!(r.coord().bucket_count() <= 24);
//! ```

use std::collections::BTreeMap;
use std::collections::VecDeque;

use dtrack_sim::rng::instance_seed;
use dtrack_sim::wire::{WireError, WireReader, WireSink};
use dtrack_sim::{Coordinator, Decode, Encode, Net, Outbox, Protocol, Site, SiteId};

/// Maximum closed buckets per span class before the two oldest merge.
///
/// Larger values mean more resident instances but a finer-grained old
/// edge of the window (the straddling bucket spans at most
/// ≈ `W/BUCKETS_PER_CLASS` elements).
pub const BUCKETS_PER_CLASS: usize = 4;

/// Default number of base epochs per window: `granularity = W/32`.
const DEFAULT_EPOCHS_PER_WINDOW: u64 = 32;

/// A protocol whose finished epochs can be *digested* into a compact,
/// mergeable summary — the requirement for running under [`Windowed`].
///
/// `Clone` is required because every site keeps a copy of the factory to
/// rebuild its inner site state at each epoch seal (all seven Table-1
/// protocol factories are `Copy`). The windowed site and coordinator
/// hold that copy, and the coordinator holds digests, so both are
/// `Send + Sync + 'static` like the coordinator itself
/// ([`Coordinator`]'s bounds).
pub trait EpochProtocol: Protocol + Clone + Send + Sync + 'static {
    /// Immutable summary of one closed epoch, extracted from its inner
    /// coordinator. Query capabilities are expressed by the digest type
    /// implementing [`CountDigest`] / [`FrequencyDigest`] /
    /// [`RankDigest`]; how two epochs combine is the digest's own
    /// [`MergeDigest::merged`].
    type Digest: MergeDigest + Clone + Send + Sync + 'static;

    /// Summarize a (finished or live) inner coordinator.
    fn digest(coord: &Self::Coord) -> Self::Digest;
}

/// Digests of *adjacent* epochs combine into the digest of their
/// concatenation. Count, frequencies, and ranks are all sum-decomposable
/// over a stream partition, so this is a sum-like merge for every digest
/// in this module.
pub trait MergeDigest {
    /// This (older) epoch's digest followed by `younger`'s.
    fn merged(self, younger: &Self) -> Self;
}

/// Digests that answer "how many elements does this epoch hold".
pub trait CountDigest {
    /// Estimated number of elements summarized.
    fn count(&self) -> f64;
}

/// Digests that answer per-item frequency queries.
pub trait FrequencyDigest {
    /// Estimated number of occurrences of `item`.
    fn frequency(&self, item: u64) -> f64;

    /// The items this digest tracks — the candidate set for heavy-hitter
    /// enumeration (items outside it estimate to ≤ 0).
    fn items(&self) -> Vec<u64>;
}

/// Digests that answer rank queries over the value domain.
pub trait RankDigest {
    /// Estimated number of elements with value `< x`.
    fn rank(&self, x: u64) -> f64;
}

/// Digest of a count-tracking epoch: a single estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScalarCount(pub f64);

impl MergeDigest for ScalarCount {
    /// Sum-merge with another epoch's count.
    fn merged(self, other: &Self) -> Self {
        ScalarCount(self.0 + other.0)
    }
}

impl CountDigest for ScalarCount {
    fn count(&self) -> f64 {
        self.0
    }
}

/// Digest of a frequency-tracking epoch, preserving the estimator's
/// *two-branch structure* instead of flattening it to a point table:
///
/// * `tracked` — the items the epoch's estimator backed with a counter,
///   with their (eq. 4 counter-branch) estimates, sorted by item;
/// * `corrections` — the per-epoch `−d/p` correction terms of the
///   eq. (4) absent branch: one `(item, −d/p)` entry for every item that
///   was side-sampled but never countered in the epoch, sorted by item.
///
/// A [`FrequencyDigest::frequency`] query sums both branches, so the
/// digest reproduces the whole-stream estimator's answer for *every*
/// item — including the small negative correction for rare items —
/// which is what keeps windowed frequency estimates unbiased (the paper
/// warns the uncorrected estimator's bias "might be as large as
/// Θ(εn/√k)"). Items in neither branch answer 0, exactly as the live
/// estimator does for items it never sampled.
///
/// The correction state is carried **per item** rather than as a single
/// pooled scalar: a pooled aggregate would be unbiased only averaged
/// over some assumed query distribution, while per-item terms make each
/// individual query unbiased. The pooled mass is still exposed as
/// [`ItemCounts::absent_correction`] for diagnostics and bias tests.
///
/// Both branches merge additively across adjacent epochs (an item may
/// be tracked in one epoch and only-corrected in another; the
/// concatenated stream's estimator is the sum of the per-epoch
/// estimators), and both scale linearly under the straddling-bucket
/// pro-rating, like every other digest field.
///
/// Exact (deterministic) protocols construct digests via
/// [`ItemCounts::from_pairs`], which carries **explicitly zero
/// correction**: their tables are exact counts with no sampling step,
/// so there is no absent-branch mass to restore.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ItemCounts {
    /// Counter-backed `(item, estimate)` pairs, sorted by item.
    tracked: Vec<(u64, f64)>,
    /// Absent-branch `(item, −d/p)` correction terms, sorted by item.
    /// Disjoint from `tracked` within a single epoch; may overlap it
    /// after merges (queries sum the branches).
    corrections: Vec<(u64, f64)>,
}

/// Sort by item and combine duplicates by summation.
fn normalize_pairs(mut pairs: Vec<(u64, f64)>) -> Vec<(u64, f64)> {
    pairs.sort_unstable_by_key(|&(item, _)| item);
    pairs.dedup_by(|younger, older| {
        if younger.0 == older.0 {
            older.1 += younger.1;
            true
        } else {
            false
        }
    });
    pairs
}

fn lookup(pairs: &[(u64, f64)], item: u64) -> f64 {
    match pairs.binary_search_by_key(&item, |&(i, _)| i) {
        Ok(idx) => pairs[idx].1,
        Err(_) => 0.0,
    }
}

impl ItemCounts {
    /// Build from arbitrary-order `(item, estimate)` pairs, combining
    /// duplicates by summation, with **zero correction state** — the
    /// constructor for exact tables (deterministic frequency tracking),
    /// whose estimators have no absent branch to preserve.
    pub fn from_pairs(pairs: Vec<(u64, f64)>) -> Self {
        Self {
            tracked: normalize_pairs(pairs),
            corrections: Vec::new(),
        }
    }

    /// Build from counter-branch `(item, estimate)` pairs plus
    /// absent-branch `(item, −d/p)` correction terms (both in arbitrary
    /// order, duplicates combined by summation) — the constructor for
    /// randomized estimators whose unbiasedness rests on the correction
    /// branch.
    pub fn with_corrections(pairs: Vec<(u64, f64)>, corrections: Vec<(u64, f64)>) -> Self {
        Self {
            tracked: normalize_pairs(pairs),
            corrections: normalize_pairs(corrections),
        }
    }

    /// This digest with the correction branch dropped entirely — the
    /// **ablation arm**, the windowed analogue of the paper's biased
    /// eq. (2) estimator. (Strictly more biased than the pre-fix
    /// digests, which flattened to one table but retained the
    /// *archived* correction mass.) Exposed so the bias harness can
    /// measure the damage; never use it for answers.
    pub fn uncorrected(self) -> Self {
        Self {
            tracked: self.tracked,
            corrections: Vec::new(),
        }
    }

    /// Number of distinct tracked (counter-backed) items.
    pub fn len(&self) -> usize {
        self.tracked.len()
    }

    /// Whether no items are tracked.
    pub fn is_empty(&self) -> bool {
        self.tracked.is_empty()
    }

    /// The aggregate `−d/p` correction mass this digest carries (≤ 0 for
    /// a single epoch) — the pooled view of the absent branch, for
    /// diagnostics and bias tests. Queries use the per-item terms.
    pub fn absent_correction(&self) -> f64 {
        self.corrections.iter().map(|&(_, c)| c).sum()
    }
}

impl MergeDigest for ItemCounts {
    /// Sum-merge with another epoch's digest, branch by branch.
    fn merged(self, other: &Self) -> Self {
        let mut tracked = self.tracked;
        tracked.extend_from_slice(&other.tracked);
        let mut corrections = self.corrections;
        corrections.extend_from_slice(&other.corrections);
        Self {
            tracked: normalize_pairs(tracked),
            corrections: normalize_pairs(corrections),
        }
    }
}

impl FrequencyDigest for ItemCounts {
    /// Counter branch plus correction branch: the full eq. (4)
    /// estimator for `item`, 0 only if the epoch neither countered nor
    /// side-sampled it (which is the live estimator's answer too).
    fn frequency(&self, item: u64) -> f64 {
        lookup(&self.tracked, item) + lookup(&self.corrections, item)
    }

    /// Tracked items only: corrections are ≤ 0, so an item outside the
    /// tracked branch estimates to ≤ 0 and cannot be a heavy hitter.
    fn items(&self) -> Vec<u64> {
        self.tracked.iter().map(|&(i, _)| i).collect()
    }
}

/// Digest of a rank-tracking (or sampling) epoch: weighted value points
/// sorted by value; `rank(x)` is the weight mass strictly below `x`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WeightedValues(Vec<(u64, f64)>);

impl WeightedValues {
    /// Build from arbitrary-order `(value, weight)` points.
    pub fn from_points(mut points: Vec<(u64, f64)>) -> Self {
        points.sort_unstable_by_key(|&(v, _)| v);
        Self(points)
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no points are stored.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The stored `(value, weight)` points, sorted by value — the raw
    /// CDF support, used by the topology layer's CDF-matching replay
    /// (`crate::topology::CdfCursor`).
    pub fn points(&self) -> &[(u64, f64)] {
        &self.0
    }
}

impl MergeDigest for WeightedValues {
    /// Concatenation-merge with another epoch's points.
    fn merged(self, other: &Self) -> Self {
        let mut all = self.0;
        all.extend_from_slice(&other.0);
        all.sort_unstable_by_key(|&(v, _)| v);
        Self(all)
    }
}

impl RankDigest for WeightedValues {
    fn rank(&self, x: u64) -> f64 {
        let cut = self.0.partition_point(|&(v, _)| v < x);
        self.0[..cut].iter().map(|&(_, w)| w).sum()
    }
}

impl CountDigest for WeightedValues {
    fn count(&self) -> f64 {
        self.0.iter().map(|&(_, w)| w).sum()
    }
}

impl FrequencyDigest for WeightedValues {
    fn frequency(&self, item: u64) -> f64 {
        let lo = self.0.partition_point(|&(v, _)| v < item);
        self.0[lo..]
            .iter()
            .take_while(|&&(v, _)| v == item)
            .map(|&(_, w)| w)
            .sum()
    }

    fn items(&self) -> Vec<u64> {
        let mut items: Vec<u64> = self.0.iter().map(|&(v, _)| v).collect();
        items.dedup(); // points are value-sorted
        items
    }
}

/// Site → coordinator messages of the windowed adapter.
#[derive(Debug, Clone, PartialEq)]
pub enum WinUp<U> {
    /// Heartbeat: the site absorbed another `tick` local elements. The
    /// coordinator's only source of global stream progress.
    Tick,
    /// The site has switched to the next epoch (second phase of the seal
    /// handshake). At most one seal is in flight and links are
    /// exactly-once, so the ack needs no epoch tag. The coordinator
    /// closes the previous epoch's bucket at the sum of the `k` stamps.
    SealAck {
        /// Elements the site had consumed when it switched.
        at: u64,
    },
    /// A message of the inner protocol, tagged with its epoch.
    Inner {
        /// Epoch the sending inner site instance belongs to.
        epoch: u64,
        /// The inner message.
        msg: U,
    },
}

impl<U: Encode> Encode for WinUp<U> {
    fn encode(&self, w: &mut impl WireSink) {
        match self {
            WinUp::Tick => w.put_u8(0),
            WinUp::SealAck { at } => {
                w.put_u8(1);
                w.put_varint(*at);
            }
            WinUp::Inner { epoch, msg } => {
                w.put_u8(2);
                w.put_varint(*epoch);
                msg.encode(w);
            }
        }
    }
}

impl<U: Decode> Decode for WinUp<U> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(WinUp::Tick),
            1 => Ok(WinUp::SealAck { at: r.varint()? }),
            2 => Ok(WinUp::Inner {
                epoch: r.varint()?,
                msg: U::decode(r)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Coordinator → site messages of the windowed adapter.
#[derive(Debug, Clone, PartialEq)]
pub enum WinDown<D> {
    /// The live epoch is sealed; sites restart their inner instance for
    /// epoch `next`.
    Seal {
        /// Index of the epoch that now begins.
        next: u64,
    },
    /// A message of the inner protocol, tagged with its epoch.
    Inner {
        /// Epoch of the inner coordinator instance that sent it.
        epoch: u64,
        /// The inner message.
        msg: D,
    },
}

impl<D: Encode> Encode for WinDown<D> {
    fn encode(&self, w: &mut impl WireSink) {
        match self {
            WinDown::Seal { next } => {
                w.put_u8(0);
                w.put_varint(*next);
            }
            WinDown::Inner { epoch, msg } => {
                w.put_u8(1);
                w.put_varint(*epoch);
                msg.encode(w);
            }
        }
    }
}

impl<D: Decode> Decode for WinDown<D> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(WinDown::Seal { next: r.varint()? }),
            1 => Ok(WinDown::Inner {
                epoch: r.varint()?,
                msg: D::decode(r)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Build site `me`'s inner state for epoch `epoch` via the per-site
/// constructor [`Protocol::build_site`] — one site instance, not `k`, so
/// an epoch seal costs `O(1)` constructions per site and `O(k)` across
/// the system. Each epoch's instance is seeded by [`instance_seed`], so
/// sites and coordinator agree without communication.
fn sub_site<P: EpochProtocol>(proto: &P, master_seed: u64, epoch: u64, me: SiteId) -> P::Site {
    proto.build_site(instance_seed(master_seed, epoch), me)
}

/// Build the inner coordinator for epoch `epoch` via
/// [`Protocol::build_coord`] — no discarded site constructions.
fn sub_coord<P: EpochProtocol>(proto: &P, master_seed: u64, epoch: u64) -> P::Coord {
    proto.build_coord(instance_seed(master_seed, epoch))
}

/// Sliding-window adapter: tracks `f(last window elements)` by running
/// epoch-restarted copies of `inner` under the exponential-histogram
/// construction described in the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct Windowed<P> {
    inner: P,
    window: u64,
    granularity: u64,
}

impl<P: EpochProtocol> Windowed<P> {
    /// Window of the last `window ≥ 2` elements, with the default epoch
    /// granularity `max(1, window/32)`.
    pub fn new(inner: P, window: u64) -> Self {
        let granularity = (window / DEFAULT_EPOCHS_PER_WINDOW).max(1);
        Self::with_granularity(inner, window, granularity)
    }

    /// Explicit epoch granularity (elements per base epoch). Smaller
    /// epochs mean a sharper window edge but more frequent restarts
    /// (more communication) and more resident buckets.
    pub fn with_granularity(inner: P, window: u64, granularity: u64) -> Self {
        assert!(window >= 2, "window must be ≥ 2, got {window}");
        assert!(granularity >= 1, "granularity must be ≥ 1");
        assert!(
            granularity <= window,
            "granularity {granularity} exceeds window {window}"
        );
        Self {
            inner,
            window,
            granularity,
        }
    }

    /// The window size `W` in elements.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Elements per base epoch.
    pub fn granularity(&self) -> u64 {
        self.granularity
    }

    /// The wrapped whole-stream protocol factory.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Local elements between heartbeats: `k` sites holding back less
    /// than a tick each bounds the coordinator's global-count error by
    /// `k·tick ≤ granularity/2`.
    fn tick_every(&self) -> u64 {
        (self.granularity / (2 * self.inner.k() as u64)).max(1)
    }
}

/// Site state of [`Windowed`]: the live epoch's inner site plus the
/// count of elements consumed (the heartbeat clock and the seal stamp).
pub struct WinSite<P: EpochProtocol> {
    proto: P,
    me: SiteId,
    master_seed: u64,
    tick_every: u64,
    epoch: u64,
    sub: P::Site,
    fed: u64,
    /// Scratch buffer for the inner site's outgoing messages.
    sub_out: Outbox<<P::Site as Site>::Up>,
}

impl<P: EpochProtocol> WinSite<P> {
    /// Current epoch index (for white-box tests).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn forward(&mut self, out: &mut Outbox<WinUp<<P::Site as Site>::Up>>) {
        for msg in self.sub_out.drain() {
            out.send(WinUp::Inner {
                epoch: self.epoch,
                msg,
            });
        }
    }
}

impl<P: EpochProtocol> Site for WinSite<P> {
    type Item = <P::Site as Site>::Item;
    type Up = WinUp<<P::Site as Site>::Up>;
    type Down = WinDown<<P::Site as Site>::Down>;

    fn on_item(&mut self, item: &Self::Item, out: &mut Outbox<Self::Up>) {
        self.sub.on_item(item, &mut self.sub_out);
        self.forward(out);
        self.fed += 1;
        if self.fed.is_multiple_of(self.tick_every) {
            out.send(WinUp::Tick);
        }
    }

    fn on_message(&mut self, msg: &Self::Down, out: &mut Outbox<Self::Up>) {
        match msg {
            WinDown::Seal { next } => {
                // The consumed count carries over: global progress does
                // not reset with the epoch.
                self.epoch = *next;
                self.sub = sub_site(&self.proto, self.master_seed, *next, self.me);
                out.send(WinUp::SealAck { at: self.fed });
            }
            WinDown::Inner { epoch, msg } => {
                if *epoch == self.epoch {
                    self.sub.on_message(msg, &mut self.sub_out);
                    self.forward(out);
                }
                // Stale inner downs (sealed epoch) are dropped: the
                // instance they addressed no longer exists.
            }
        }
    }

    fn space_words(&self) -> u64 {
        // Inner site + epoch index, consumed count, tick parameter, and
        // the factory handle.
        self.sub.space_words() + 4
    }
}

/// One closed epoch range in the histogram.
#[derive(Clone)]
struct Bucket<P: EpochProtocol> {
    /// Coordinator-clock position of the bucket's first element.
    start: u64,
    /// Coordinator-clock position one past the bucket's last element.
    end: u64,
    /// Base epochs merged into this bucket (its span class; a power of
    /// two by construction).
    span: u64,
    state: BucketState<P>,
}

#[derive(Clone)]
enum BucketState<P: EpochProtocol> {
    /// Freshly sealed: the inner coordinator is retained so late
    /// messages (off-model delivery) can still be absorbed.
    Open { epoch: u64, coord: P::Coord },
    /// Digested (by an EH merge): compact and immutable.
    Digested(P::Digest),
}

impl<P: EpochProtocol> Bucket<P> {
    fn with_digest<R>(&self, f: impl FnOnce(&P::Digest) -> R) -> R {
        match &self.state {
            BucketState::Open { coord, .. } => f(&P::digest(coord)),
            BucketState::Digested(d) => f(d),
        }
    }

    fn into_digest(self) -> P::Digest {
        match self.state {
            BucketState::Open { coord, .. } => P::digest(&coord),
            BucketState::Digested(d) => d,
        }
    }
}

/// Coordinator state of [`Windowed`]: the live inner coordinator plus
/// the exponential histogram of closed buckets.
///
/// Cloning a `WinCoord` freezes the whole histogram — live epoch,
/// in-flight `next_live`, and every closed bucket — at one
/// coordinator-apply boundary. Seals mutate the histogram only inside a
/// single `on_message` call, so a clone taken between applies (which is
/// the only time the executors' live-query snapshots are taken) is
/// always seal-consistent: the bucket set and the live segment belong to
/// the same prefix of the stream.
#[derive(Clone)]
pub struct WinCoord<P: EpochProtocol> {
    proto: P,
    master_seed: u64,
    window: u64,
    granularity: u64,
    tick_every: u64,
    /// Global element count as reconstructed from heartbeats (lags the
    /// truth by < `k · tick_every` once they are delivered).
    n_approx: u64,
    /// Live epoch index.
    epoch: u64,
    /// Stream position where the live epoch opened: the previous seal's
    /// summed stamps.
    epoch_start: u64,
    live: P::Coord,
    /// The next epoch's inner coordinator while a seal handshake is in
    /// flight (`await_acks > 0`): sites that already switched feed it.
    next_live: Option<P::Coord>,
    /// Outstanding [`WinUp::SealAck`]s for the in-flight seal (0 = no
    /// seal in flight).
    await_acks: usize,
    /// `n_approx` when the last seal was initiated: the seal cadence.
    seal_start: u64,
    /// Sum of the in-flight seal's stamps received so far.
    seal_at: u64,
    /// Closed buckets, oldest first; spans are non-increasing toward the
    /// back by the EH merge rule.
    closed: VecDeque<Bucket<P>>,
    /// Scratch buffer for the inner coordinators' outgoing messages
    /// (typed through the coordinator: the derived `Clone` then asks
    /// nothing of the inner sites).
    sub_net: Net<<P::Coord as Coordinator>::Down>,
}

impl<P: EpochProtocol> WinCoord<P> {
    /// The window size `W`.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Global element count as seen through heartbeats.
    pub fn n_approx(&self) -> u64 {
        self.n_approx
    }

    /// Live epoch index (equals the number of seals so far).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of closed buckets currently resident — bounded by
    /// `O(BUCKETS_PER_CLASS · log(window/granularity))` regardless of
    /// stream length.
    pub fn bucket_count(&self) -> usize {
        self.closed.len()
    }

    /// Overlap fraction of a bucket with the current window.
    fn overlap(&self, b: &Bucket<P>) -> f64 {
        let cut = self.n_approx.saturating_sub(self.window);
        if b.end <= cut {
            0.0
        } else if b.start >= cut {
            1.0
        } else {
            (b.end - cut) as f64 / (b.end - b.start).max(1) as f64
        }
    }

    /// `Σ overlap(bucket) · f(digest)` over closed buckets, the live
    /// epoch, and (mid-handshake) the next epoch's partial content.
    fn fold(&self, f: impl Fn(&P::Digest) -> f64) -> f64 {
        let mut acc = 0.0;
        for b in &self.closed {
            let frac = self.overlap(b);
            if frac > 0.0 {
                acc += frac * b.with_digest(&f);
            }
        }
        acc += f(&P::digest(&self.live));
        if let Some(next) = &self.next_live {
            acc += f(&P::digest(next));
        }
        acc
    }

    /// Materialize every overlapping digest once, as `(overlap, digest)`
    /// pairs in [`WinCoord::fold`]'s summation order — for queries that
    /// probe the same digests many times (heavy-hitter enumeration,
    /// quantile binary search), where re-digesting undigested buckets
    /// per probe would cost O(probes × buckets) digest extractions.
    fn snapshot(&self) -> Vec<(f64, P::Digest)> {
        let mut out = Vec::new();
        for b in &self.closed {
            let frac = self.overlap(b);
            if frac > 0.0 {
                out.push((frac, b.with_digest(Clone::clone)));
            }
        }
        out.push((1.0, P::digest(&self.live)));
        if let Some(next) = &self.next_live {
            out.push((1.0, P::digest(next)));
        }
        out
    }

    /// Phase one of a seal, once the heartbeat clock has advanced a
    /// granularity past the last one and no seal is in flight: announce
    /// the next epoch and start counting acks. The live coordinator keeps
    /// absorbing its epoch's messages until every site has switched.
    fn seal_if_due(&mut self, net: &mut Net<WinDown<<P::Site as Site>::Down>>) {
        if self.await_acks > 0 || self.n_approx - self.seal_start < self.granularity {
            return;
        }
        let next = self.epoch + 1;
        self.next_live = Some(sub_coord(&self.proto, self.master_seed, next));
        self.await_acks = self.proto.k();
        self.seal_start = self.n_approx;
        self.seal_at = 0;
        net.broadcast(WinDown::Seal { next });
    }

    /// Phase two, on the `k`-th ack: close the sealed epoch's bucket at
    /// the summed stamps and open the next epoch's range there.
    fn complete_seal(&mut self) {
        let finished = std::mem::replace(
            &mut self.live,
            self.next_live
                .take()
                .expect("seal in flight has a next coord"),
        );
        self.closed.push_back(Bucket {
            start: self.epoch_start,
            end: self.seal_at,
            span: 1,
            state: BucketState::Open {
                epoch: self.epoch,
                coord: finished,
            },
        });
        self.epoch += 1;
        self.epoch_start = self.seal_at;
        self.expire();
        self.compact();
    }

    /// Drop buckets wholly older than the window.
    fn expire(&mut self) {
        let cut = self.n_approx.saturating_sub(self.window);
        while self.closed.front().is_some_and(|b| b.end <= cut) {
            self.closed.pop_front();
        }
    }

    /// Restore the EH invariant: at most [`BUCKETS_PER_CLASS`] buckets
    /// per span class, merging the two oldest of the smallest overfull
    /// class (cascading into larger classes as merges double spans).
    fn compact(&mut self) {
        loop {
            let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
            for b in &self.closed {
                *counts.entry(b.span).or_insert(0) += 1;
            }
            let Some((&class, _)) = counts.iter().find(|&(_, &n)| n > BUCKETS_PER_CLASS) else {
                break;
            };
            let i = self
                .closed
                .iter()
                .position(|b| b.span == class)
                .expect("counted class has a bucket");
            let j = (i + 1..self.closed.len())
                .find(|&j| self.closed[j].span == class)
                .expect("overfull class has a second bucket");
            let younger = self.closed.remove(j).expect("index in range");
            let older = self.closed.remove(i).expect("index in range");
            let (start, end) = (older.start, younger.end);
            let merged = older.into_digest().merged(&younger.into_digest());
            self.closed.insert(
                i,
                Bucket {
                    start,
                    end,
                    span: class * 2,
                    state: BucketState::Digested(merged),
                },
            );
        }
    }
}

impl<P: EpochProtocol> WinCoord<P>
where
    P::Digest: CountDigest,
{
    /// Estimated number of elements in the last `W` — the sliding-window
    /// counterpart of the whole-stream `estimate()`.
    pub fn windowed_count(&self) -> f64 {
        self.fold(CountDigest::count)
    }
}

impl<P: EpochProtocol> WinCoord<P>
where
    P::Digest: FrequencyDigest,
{
    /// Estimated occurrences of `item` among the last `W` elements.
    pub fn windowed_frequency(&self, item: u64) -> f64 {
        self.fold(|d| d.frequency(item))
    }

    /// Items whose windowed estimate is ≥ `threshold` — the sliding
    /// heavy hitters, sorted by decreasing estimate. Candidates are the
    /// union of the overlapping digests' tracked items (anything else
    /// estimates to ≤ 0).
    pub fn windowed_heavy_hitters(&self, threshold: f64) -> Vec<(u64, f64)> {
        let digests = self.snapshot();
        let mut candidates: Vec<u64> = digests.iter().flat_map(|(_, d)| d.items()).collect();
        candidates.sort_unstable();
        candidates.dedup();
        let mut out: Vec<(u64, f64)> = candidates
            .into_iter()
            .map(|j| {
                let est = digests.iter().map(|(frac, d)| frac * d.frequency(j)).sum();
                (j, est)
            })
            .filter(|&(_, f)| f >= threshold)
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        out
    }
}

impl<P: EpochProtocol> WinCoord<P>
where
    P::Digest: RankDigest,
{
    /// Estimated number of elements `< x` among the last `W` elements.
    pub fn windowed_rank(&self, x: u64) -> f64 {
        self.fold(|d| d.rank(x))
    }

    /// Estimated total weight of the window (`rank(∞)`).
    pub fn windowed_total(&self) -> f64 {
        self.windowed_rank(u64::MAX)
    }

    /// φ-quantile of the last `W` elements over `[lo, hi)`, by binary
    /// search on the monotone windowed rank estimator (digests are
    /// materialized once, not once per search step).
    pub fn windowed_quantile(&self, phi: f64, mut lo: u64, mut hi: u64) -> u64 {
        let digests = self.snapshot();
        let rank = |x: u64| -> f64 { digests.iter().map(|(frac, d)| frac * d.rank(x)).sum() };
        let target = phi.clamp(0.0, 1.0) * rank(u64::MAX);
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if rank(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Re-wrap an inner coordinator's outgoing downs with an epoch tag.
fn forward<D>(sub_net: &mut Net<D>, epoch: u64, net: &mut Net<WinDown<D>>) {
    for (dest, down) in sub_net.drain() {
        match dest {
            dtrack_sim::Dest::Site(to) => net.send(to, WinDown::Inner { epoch, msg: down }),
            dtrack_sim::Dest::Broadcast => net.broadcast(WinDown::Inner { epoch, msg: down }),
        }
    }
}

impl<P: EpochProtocol> Coordinator for WinCoord<P> {
    type Up = WinUp<<P::Site as Site>::Up>;
    type Down = WinDown<<P::Site as Site>::Down>;

    fn on_message(&mut self, from: SiteId, msg: &Self::Up, net: &mut Net<Self::Down>) {
        match msg {
            WinUp::Inner { epoch, msg } => {
                if *epoch == self.epoch {
                    self.live.on_message(from, msg, &mut self.sub_net);
                    let tag = self.epoch;
                    forward(&mut self.sub_net, tag, net);
                } else if self.await_acks > 0 && *epoch == self.epoch + 1 {
                    // A site that already switched feeds the next epoch
                    // while the seal handshake is still in flight.
                    let next = self.next_live.as_mut().expect("seal in flight");
                    next.on_message(from, msg, &mut self.sub_net);
                    forward(&mut self.sub_net, *epoch, net);
                } else if let Some(b) = self
                    .closed
                    .iter_mut()
                    .find(|b| matches!(&b.state, BucketState::Open { epoch: e, .. } if e == epoch))
                {
                    // Late message into a sealed, still-open bucket
                    // (possible only off-model): absorb it so the final
                    // digest reflects it, but drop any replies — the
                    // sites' instances for that epoch are gone.
                    if let BucketState::Open { coord, .. } = &mut b.state {
                        coord.on_message(from, msg, &mut self.sub_net);
                        self.sub_net.drain().for_each(drop);
                    }
                }
                // Digested or expired epoch: dropped.
            }
            WinUp::SealAck { at } => {
                // Every ack answers the one seal in flight; an ack with
                // none in flight is a misbehaving peer's, dropped.
                if self.await_acks > 0 {
                    self.seal_at = self.seal_at.saturating_add(*at);
                    self.await_acks -= 1;
                    if self.await_acks == 0 {
                        self.complete_seal();
                        // Ticks applied while a lagging site held the
                        // handshake open may already span the next epoch;
                        // its seal cannot wait for a tick that may never
                        // come (every site may have finished its stream).
                        self.seal_if_due(net);
                    }
                }
            }
            WinUp::Tick => {
                self.n_approx += self.tick_every;
                self.seal_if_due(net);
            }
        }
    }
}

impl<P: EpochProtocol> Protocol for Windowed<P> {
    type Site = WinSite<P>;
    type Coord = WinCoord<P>;

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn build_site(&self, master_seed: u64, me: SiteId) -> Self::Site {
        WinSite {
            proto: self.inner.clone(),
            me,
            master_seed,
            tick_every: self.tick_every(),
            epoch: 0,
            sub: sub_site(&self.inner, master_seed, 0, me),
            fed: 0,
            sub_out: Outbox::new(),
        }
    }

    fn build_coord(&self, master_seed: u64) -> Self::Coord {
        WinCoord {
            proto: self.inner.clone(),
            master_seed,
            window: self.window,
            granularity: self.granularity,
            tick_every: self.tick_every(),
            n_approx: 0,
            epoch: 0,
            epoch_start: 0,
            live: sub_coord(&self.inner, master_seed, 0),
            next_live: None,
            await_acks: 0,
            seal_start: 0,
            seal_at: 0,
            closed: VecDeque::new(),
            sub_net: Net::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::RandomizedCount;
    use crate::frequency::FreqUp;
    use crate::TrackingConfig;
    use dtrack_sim::{Runner, Words};

    #[test]
    fn item_counts_merge_and_lookup() {
        let a = ItemCounts::from_pairs(vec![(3, 1.0), (1, 2.0), (3, 0.5)]);
        assert_eq!(a.frequency(3), 1.5);
        assert_eq!(a.frequency(1), 2.0);
        assert_eq!(a.frequency(2), 0.0);
        assert_eq!(a.absent_correction(), 0.0, "from_pairs carries none");
        let b = ItemCounts::from_pairs(vec![(2, 4.0), (3, 1.0)]);
        let m = a.merged(&b);
        assert_eq!(m.frequency(3), 2.5);
        assert_eq!(m.frequency(2), 4.0);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn item_counts_corrections_answer_untracked_queries() {
        // Epoch tracked item 1; items 7 and 9 were side-sampled only →
        // they answer their own −d/p, not 0.
        let d = ItemCounts::with_corrections(vec![(1, 10.0)], vec![(7, -2.0), (9, -0.5)]);
        assert_eq!(d.frequency(1), 10.0);
        assert_eq!(d.frequency(7), -2.0);
        assert_eq!(d.frequency(9), -0.5);
        assert_eq!(
            d.frequency(8),
            0.0,
            "never sampled → 0, like the live estimator"
        );
        assert_eq!(d.len(), 1, "only tracked items count");
        assert_eq!(d.absent_correction(), -2.5);
        // Candidate enumeration stays tracked-only: corrections are ≤ 0.
        assert_eq!(d.items(), vec![1]);
    }

    #[test]
    fn item_counts_merge_sums_branches_independently() {
        // Item 7: tracked in epoch A, correction-only in epoch B — the
        // concatenated estimator is the sum of the per-epoch branches.
        let a = ItemCounts::with_corrections(vec![(7, 4.0)], vec![(3, -1.0)]);
        let b = ItemCounts::with_corrections(vec![(1, 2.0)], vec![(7, -0.25), (3, -0.75)]);
        let m = a.merged(&b);
        assert_eq!(m.frequency(7), 3.75);
        assert_eq!(m.frequency(3), -1.75);
        assert_eq!(m.frequency(1), 2.0);
        assert_eq!(m.absent_correction(), -2.0);
        // The ablation view drops exactly the correction branch.
        let flat = m.clone().uncorrected();
        assert_eq!(flat.frequency(7), 4.0);
        assert_eq!(flat.frequency(3), 0.0);
        assert_eq!(flat.absent_correction(), 0.0);
    }

    #[test]
    fn weighted_values_rank_and_count() {
        let d = WeightedValues::from_points(vec![(10, 1.0), (5, 2.0), (10, 3.0)]);
        assert_eq!(d.rank(5), 0.0);
        assert_eq!(d.rank(6), 2.0);
        assert_eq!(d.rank(11), 6.0);
        assert_eq!(d.count(), 6.0);
        assert_eq!(d.frequency(10), 4.0);
        let m = d.merged(&WeightedValues::from_points(vec![(7, 1.0)]));
        assert_eq!(m.rank(8), 3.0);
    }

    #[test]
    fn window_message_word_accounting_includes_the_tag() {
        assert_eq!(WinUp::<u64>::Tick.words(), 1);
        assert_eq!(
            WinUp::Inner {
                epoch: 9,
                msg: 5u64
            }
            .words(),
            2
        );
        assert_eq!(WinDown::<u64>::Seal { next: 1 }.words(), 1);
        assert_eq!(
            WinDown::Inner {
                epoch: 9,
                msg: 5u64
            }
            .words(),
            2
        );
        // A wrapped signal costs the tag alone: the signal carries no
        // field, and the message already costs a word.
        assert_eq!(
            WinUp::Inner {
                epoch: 9,
                msg: FreqUp::VirtualSplit
            }
            .words(),
            1
        );
    }

    #[test]
    fn epoch_advances_and_buckets_stay_logarithmic() {
        let inner = RandomizedCount::new(TrackingConfig::new(4, 0.2));
        let proto = Windowed::new(inner, 1024);
        let mut r = Runner::new(&proto, 3);
        for t in 0..50_000u64 {
            r.feed((t % 4) as usize, &t);
        }
        let c = r.coord();
        // 50k elements at granularity 32 → well over a thousand epochs…
        assert!(c.epoch() > 1_000, "epoch {}", c.epoch());
        // …but only O(BUCKETS_PER_CLASS · log(W/granularity)) buckets.
        assert!(c.bucket_count() <= 28, "buckets {}", c.bucket_count());
        // Heartbeat clock tracks the true count within k·tick + slack.
        let n = c.n_approx() as f64;
        assert!((n - 50_000.0).abs() <= 64.0, "n_approx {n}");
    }

    #[test]
    fn a_boundary_crossed_during_a_handshake_seals_when_it_completes() {
        // k = 2, granularity 8, one tick per 2 elements. Site 0 crosses
        // the first boundary, acks the seal and feeds on past the next
        // one; site 1 lags and acks last, having fed nothing. The next
        // seal must start on that ack: no further tick may ever come.
        let proto =
            Windowed::with_granularity(RandomizedCount::new(TrackingConfig::new(2, 0.2)), 64, 8);
        let mut c = proto.build_coord(5);
        let mut net = Net::new();
        let seals = |net: &mut Net<_>| {
            let downs: Vec<_> = net.drain().map(|(_, d)| d).collect();
            downs
                .iter()
                .filter(|d| matches!(d, WinDown::Seal { .. }))
                .count()
        };
        for _ in 0..4 {
            c.on_message(0, &WinUp::Tick, &mut net);
        }
        assert_eq!(seals(&mut net), 1, "the first boundary seals");
        c.on_message(0, &WinUp::SealAck { at: 8 }, &mut net);
        for _ in 0..4 {
            c.on_message(0, &WinUp::Tick, &mut net);
        }
        assert_eq!(seals(&mut net), 0, "no second seal while one is in flight");
        c.on_message(1, &WinUp::SealAck { at: 0 }, &mut net);
        assert_eq!(c.epoch(), 1);
        assert_eq!(c.bucket_count(), 1);
        assert_eq!(
            seals(&mut net),
            1,
            "the crossed boundary seals at completion"
        );
    }

    #[test]
    fn windowed_count_ignores_ancient_history() {
        let inner = RandomizedCount::new(TrackingConfig::new(4, 0.1));
        let proto = Windowed::new(inner, 2048);
        let mut r = Runner::new(&proto, 11);
        for t in 0..40_000u64 {
            r.feed((t % 4) as usize, &t);
        }
        let est = r.coord().windowed_count();
        // The whole stream is ~20× the window.
        assert!(
            (est - 2048.0).abs() < 0.3 * 2048.0,
            "windowed estimate {est} vs window 2048"
        );
    }

    #[test]
    fn before_the_first_seal_the_window_is_the_whole_stream() {
        // ε small enough that p stays 1 for the whole 50-element stream
        // (n̄ < 2√k/ε), so the inner estimate is exact.
        let inner = RandomizedCount::new(TrackingConfig::new(2, 0.05));
        let proto = Windowed::new(inner, 10_000);
        let mut r = Runner::new(&proto, 1);
        for t in 0..50u64 {
            r.feed((t % 2) as usize, &t);
        }
        // Tiny stream ≪ granularity: everything still lives in epoch 0,
        // and the inner protocol is in its exact (p = 1) regime.
        assert_eq!(r.coord().epoch(), 0);
        assert_eq!(r.coord().bucket_count(), 0);
        assert_eq!(r.coord().windowed_count(), 50.0);
    }

    #[test]
    fn windowed_frequency_follows_the_recent_hot_item() {
        use crate::frequency::DeterministicFrequency;
        let inner = DeterministicFrequency::new(TrackingConfig::new(4, 0.1));
        let proto = Windowed::new(inner, 4096);
        let mut r = Runner::new(&proto, 5);
        let n = 40_000u64;
        for t in 0..n {
            // First half: item 1 hot; second half: item 2 hot.
            let item = if t < n / 2 { 1u64 } else { 2u64 };
            r.feed((t % 4) as usize, &item);
        }
        let stale = r.coord().windowed_frequency(1);
        let hot = r.coord().windowed_frequency(2);
        assert!(hot > 0.7 * 4096.0, "recent hot item estimates {hot}");
        assert!(stale < 0.1 * 4096.0, "stale hot item estimates {stale}");
    }

    #[test]
    fn windowed_rank_reflects_recent_values_only() {
        use crate::sampling::ContinuousSampling;
        let inner = ContinuousSampling::new(TrackingConfig::new(4, 0.1));
        let proto = Windowed::new(inner, 4096);
        let mut r = Runner::new(&proto, 9);
        let n = 40_000u64;
        for t in 0..n {
            // Values climb with time: the window holds only the largest.
            r.feed((t % 4) as usize, &t);
        }
        let c = r.coord();
        let total = c.windowed_total();
        assert!((total - 4096.0).abs() < 0.35 * 4096.0, "total {total}");
        // The window's median value ≈ n − W/2; ancient small values must
        // contribute nothing.
        let med = c.windowed_quantile(0.5, 0, u64::MAX) as f64;
        let expect = n as f64 - 2048.0;
        assert!(
            (med - expect).abs() < 2500.0,
            "median {med} expect {expect}"
        );
    }

    #[test]
    #[should_panic(expected = "window must be ≥ 2")]
    fn rejects_degenerate_window() {
        let inner = RandomizedCount::new(TrackingConfig::new(2, 0.2));
        let _ = Windowed::new(inner, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds window")]
    fn rejects_granularity_above_window() {
        let inner = RandomizedCount::new(TrackingConfig::new(2, 0.2));
        let _ = Windowed::with_granularity(inner, 16, 17);
    }
}
