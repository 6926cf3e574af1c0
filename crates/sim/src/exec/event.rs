//! Deterministic discrete-event executor with pluggable delivery
//! policies and fault injection.
//!
//! [`EventRuntime`] is the third executor of the workspace, between the
//! idealized lock-step [`crate::Runner`] and the genuinely concurrent
//! [`crate::runtime::ChannelRuntime`]: it relaxes the paper's
//! instant-communication assumption — messages can be delayed, reordered,
//! lost, duplicated, and whole sites can drop off — while staying
//! **single-threaded and fully deterministic**, so every off-model
//! scenario is bit-for-bit reproducible from its seed. (The channel
//! runtime also relaxes instant delivery, but its thread interleaving
//! differs run to run; it can show *that* a protocol degrades, not
//! replay *how*.)
//!
//! ## Model
//!
//! The runtime keeps a virtual clock in abstract **ticks**. Each call to
//! [`EventRuntime::feed`] schedules one arrival at the current tick and
//! advances the clock by one; [`EventRuntime::feed_at`] places arrivals
//! on an explicit timeline (see `dtrack_workload`'s timed schedules).
//! Every message induced by an event is assigned a delivery time
//! `now + delay`, where `delay` comes from the [`DeliveryPolicy`]; events
//! with equal delivery times are processed FIFO in creation order.
//!
//! With [`DeliveryPolicy::Instant`] this FIFO tie-break makes the runtime
//! equivalent to [`crate::Runner`]: every state machine observes the
//! exact same message sequence, so communication statistics, space peaks
//! and query answers agree bit for bit (pinned by the
//! `exec_equivalence` integration test).
//!
//! ## Fault injection and delivery guarantees
//!
//! [`EventRuntime::with_faults`] layers a [`FaultPlan`] *under* the
//! delivery policy: each of the `2k` star links (one per site per
//! direction) becomes a [`LinkModel`] with its own seeded loss and
//! duplication streams, sender-side **sequence numbers**, and a
//! receiver-side reassembly endpoint. The resulting guarantees, from the
//! wire up:
//!
//! * **The raw link is at-least-once, unordered.** A transmission
//!   attempt is lost with probability `loss`; the link retransmits on a
//!   fixed RTO ([`RETRY_TICKS`]) until a copy gets through, so a loss
//!   is extra delay, never silence. With probability `dup` an extra
//!   copy trails the primary. Different messages on one link can
//!   overtake each other (retransmission delays compose with the
//!   delivery policy's per-message delay).
//! * **The endpoint upgrades it to exactly-once, in-order.** The
//!   receiver releases link messages to the protocol strictly in
//!   sequence-number order (a hold-back buffer fills gaps, TCP-style)
//!   and discards duplicates by sequence number. Head-of-line blocking
//!   behind a lost message is therefore *visible to protocols as
//!   latency* — the same class of perturbation as
//!   [`DeliveryPolicy::RandomDelay`] — but never as duplicated or
//!   reordered *processing* on a single link.
//! * **Where idempotence is required:** nowhere in the protocols. The
//!   Table-1 state machines and the `Windowed` seal/ack handshake all
//!   assume exactly-once in-order per-link delivery, and the endpoint
//!   provides it; idempotence lives in the transport's dedup, and the
//!   `tests/faults.rs` property suite *proves* the upgrade by asserting
//!   coordinator answers are bit-identical with duplication on and off.
//! * **Churn is partition, not crash.** An offline site keeps its state;
//!   its arrivals reroute deterministically to the next online site (the
//!   global element multiset is preserved, so whole-stream answers are
//!   unaffected once quiesced) and coordinator→site deliveries are
//!   parked and replayed in order at rejoin. For `Windowed<P>`, a
//!   rejoining site's lagging control plane is absorbed by the mergeable
//!   digest machinery — seals it missed while away arrive on rejoin and
//!   its epochs re-synchronize, at some accuracy cost the fault suite
//!   bounds by ε.
//!
//! Fault randomness is drawn from **per-link, per-concern PRNG streams**
//! (see [`crate::exec::faults::fault_seed`]), independent of the delivery policy's
//! delay stream and of all protocol streams. Consequently a fault-free
//! plan leaves runs bit-identical to the pre-fault runtime, and enabling
//! one fault does not perturb another's draws. Link-layer overhead
//! (retransmissions, duplicate copies, parked/rerouted deliveries) is
//! counted in [`FaultStats`], *not* in [`CommStats`] — the paper's
//! message/word accounting charges protocol sends only, so fault-free
//! baselines stay exact.

use std::collections::{BTreeMap, BinaryHeap};

use rand::rngs::SmallRng;
use rand::Rng;

use crate::exec::faults::{
    draw_failed_attempts, fault_seed, link_stream, ChurnSchedule, FaultPlan, FaultStats, DUP_LAG,
    RETRY_TICKS, STRAGGLER_SITE,
};
use crate::net::Outbox;
use crate::protocol::{Protocol, Site, SiteId};
use crate::rng::{rng_from_seed, splitmix64};
use crate::snapshot::QueryHandle;
use crate::stats::{CommStats, SpaceStats};
use crate::step::CoordCore;

/// When does a message put on the wire reach its destination?
///
/// Delays are measured in the runtime's virtual ticks (one tick per
/// arrival under [`EventRuntime::feed`]). All policies are deterministic
/// given the master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryPolicy {
    /// Zero latency: messages are delivered (in FIFO order) before the
    /// next element is admitted — the paper's idealized model, and
    /// observationally identical to [`crate::Runner`].
    Instant,
    /// Every message takes exactly this many ticks. FIFO order is
    /// preserved; the system runs `latency` ticks behind the streams.
    FixedLatency(u64),
    /// Per-message delay drawn uniformly from `[min, max]` ticks by a
    /// seeded PRNG — delayed *and* reordered delivery, reproducibly.
    RandomDelay {
        /// Smallest possible delay in ticks.
        min: u64,
        /// Largest possible delay in ticks (inclusive).
        max: u64,
    },
    /// Adversarial reordering: the `i`-th message overall is delayed
    /// `window − (i mod window)` ticks, so each consecutive window of
    /// messages arrives roughly reversed. Deterministic, no randomness.
    AdversarialReorder {
        /// Reorder window size in messages (clamped to ≥ 1).
        window: u64,
    },
}

/// Payload of a scheduled event. Link messages carry their link-layer
/// sequence number (`0` and unused when no fault layer is active).
enum Ev<I, U, D> {
    /// A stream element arriving at a site.
    Arrive(SiteId, I),
    /// A site → coordinator message in flight (site id, link seq).
    Up(SiteId, u64, U),
    /// A coordinator → site message in flight (broadcasts are expanded
    /// into `k` of these when sent, per the model's cost accounting).
    Down(SiteId, u64, D),
    /// A duplicate copy of a link message arriving. It carries nothing,
    /// not even its link: the endpoint's sequence dedup necessarily
    /// discards it — the event exists to exercise and count that discard
    /// deterministically (and never touches any shared PRNG stream,
    /// which is what keeps dup-on and dup-off runs bit-identical).
    /// Duplicates are scheduled strictly after their primary, but churn
    /// can park a down-link primary past its duplicate's tick, so the
    /// primary is *not* guaranteed to have been seen yet; harmless, the
    /// primary itself is redelivered at rejoin (at-least-once).
    Dup,
}

/// Queue entry: ordered by `(at, seq)` so equal-time events pop FIFO.
struct Entry<E> {
    at: u64,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    /// Reversed so that `BinaryHeap` (a max-heap) pops the *earliest*
    /// `(at, seq)` first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

type EvOf<P> = Ev<
    <<P as Protocol>::Site as Site>::Item,
    <<P as Protocol>::Site as Site>::Up,
    <<P as Protocol>::Site as Site>::Down,
>;

type EntryOf<P> = Entry<EvOf<P>>;

/// One directed star link under fault injection: sender-side sequence
/// numbering and per-concern PRNG streams, receiver-side in-order
/// release with duplicate discard, plus observed-latency accounting
/// (consumed by `dtrack_workload`'s adaptive assignment policy).
pub struct LinkModel<M> {
    /// Next sequence number the sender will stamp.
    next_send: u64,
    /// Next sequence number the receiver will release to the protocol.
    next_deliver: u64,
    /// Out-of-order arrivals held back until the gap fills.
    pending: BTreeMap<u64, M>,
    /// Per-link loss stream (consumed only when `loss > 0`).
    loss_rng: SmallRng,
    /// Per-link duplication stream (consumed only when `dup > 0`).
    dup_rng: SmallRng,
    /// Deterministic extra latency per hop (straggler links).
    extra: u64,
    /// Messages scheduled on this link.
    sent: u64,
    /// Sum of scheduled delivery delays, for mean-latency queries.
    delay_sum: u64,
}

impl<M> LinkModel<M> {
    fn new(master_seed: u64, site: usize, up: bool, extra: u64) -> Self {
        Self {
            next_send: 0,
            next_deliver: 0,
            pending: BTreeMap::new(),
            loss_rng: rng_from_seed(fault_seed(master_seed, link_stream(site, up, 1))),
            dup_rng: rng_from_seed(fault_seed(master_seed, link_stream(site, up, 2))),
            extra,
            sent: 0,
            delay_sum: 0,
        }
    }

    /// Stamp the next message and compute its delivery schedule:
    /// `(link seq, delivery tick, duplicate's delivery tick if any)`.
    /// `base` is the delivery policy's delay for this message; loss
    /// turns into retransmission delay, never into absence.
    fn schedule(
        &mut self,
        plan: &FaultPlan,
        now: u64,
        base: u64,
        stats: &mut FaultStats,
    ) -> (u64, u64, Option<u64>) {
        let seq = self.next_send;
        self.next_send += 1;
        let mut delay = base + self.extra;
        if plan.loss > 0.0 {
            let failed = draw_failed_attempts(&mut self.loss_rng, plan.loss);
            stats.retransmissions += failed;
            delay += failed * (RETRY_TICKS + self.extra);
        }
        let at = now + delay;
        self.sent += 1;
        self.delay_sum += delay;
        let dup_at = if plan.dup > 0.0 && crate::rng::flip(&mut self.dup_rng, plan.dup) {
            stats.duplicates += 1;
            Some(at + 1 + self.dup_rng.gen_range(0..DUP_LAG))
        } else {
            None
        };
        (seq, at, dup_at)
    }

    /// A primary copy of `seq` arrived: buffer it for in-order release.
    /// Returns false (and counts a dedup drop) if `seq` was already
    /// delivered or buffered — can happen only via duplicate injection.
    fn accept(&mut self, seq: u64, msg: M, stats: &mut FaultStats) -> bool {
        if seq < self.next_deliver || self.pending.contains_key(&seq) {
            stats.dup_dropped += 1;
            return false;
        }
        self.pending.insert(seq, msg);
        true
    }

    /// Release the next in-sequence message, if it has arrived.
    fn pop_ready(&mut self) -> Option<M> {
        let msg = self.pending.remove(&self.next_deliver)?;
        self.next_deliver += 1;
        Some(msg)
    }

    /// Mean scheduled delivery delay of this link, in ticks.
    pub fn mean_latency(&self) -> Option<f64> {
        (self.sent > 0).then(|| self.delay_sum as f64 / self.sent as f64)
    }
}

/// The per-runtime fault state: one [`LinkModel`] per link direction per
/// site, the churn timeline, and link-layer accounting.
struct FaultLayer<U, D> {
    plan: FaultPlan,
    up: Vec<LinkModel<U>>,
    down: Vec<LinkModel<D>>,
    churn: Option<ChurnSchedule>,
    stats: FaultStats,
}

/// The fault layer instantiated at a protocol's up/down message types.
type FaultLayerOf<P> =
    FaultLayer<<<P as Protocol>::Site as Site>::Up, <<P as Protocol>::Site as Site>::Down>;

/// The wire between the state machines: the event queue, the virtual
/// clock, the delivery policy and the fault layer under it. Kept apart
/// from the sites and the coordinator core so that a step can borrow a
/// state machine and the wire at once.
struct Wire<P: Protocol> {
    policy: DeliveryPolicy,
    /// Seeded PRNG driving [`DeliveryPolicy::RandomDelay`] only —
    /// deliberately independent of the protocol's randomness and of
    /// every fault stream.
    delay_rng: SmallRng,
    queue: BinaryHeap<EntryOf<P>>,
    /// Virtual clock in ticks.
    now: u64,
    /// Monotone event counter: FIFO tie-break within a tick.
    seq: u64,
    /// Counts only *messages* put on the wire — the index the
    /// [`DeliveryPolicy::AdversarialReorder`] pattern is defined over.
    msg_seq: u64,
    /// Fault-injection layer; `None` keeps every hot path identical to
    /// the pre-fault runtime (no extra branches consume RNG state).
    faults: Option<Box<FaultLayerOf<P>>>,
}

impl<P: Protocol> Wire<P> {
    /// Delay in ticks for the next message put on the wire.
    fn delay(&mut self) -> u64 {
        let i = self.msg_seq;
        self.msg_seq += 1;
        match self.policy {
            DeliveryPolicy::Instant => 0,
            DeliveryPolicy::FixedLatency(d) => d,
            DeliveryPolicy::RandomDelay { min, max } => {
                // The vendored rand has no inclusive ranges; clamp so
                // `max + 1` cannot overflow (a delay of u64::MAX − 1
                // ticks is already "never" for any real schedule).
                let max = max.min(u64::MAX - 1);
                if max <= min {
                    min
                } else {
                    self.delay_rng.gen_range(min..max + 1)
                }
            }
            DeliveryPolicy::AdversarialReorder { window } => {
                let w = window.max(1);
                w - (i % w)
            }
        }
    }

    fn push(&mut self, at: u64, ev: EvOf<P>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Entry { at, seq, ev });
    }

    /// Put one message on `site`'s up- or down-link: draw its delay,
    /// stamp and fault-schedule it when a fault layer is active (link
    /// seq `0` otherwise), and queue `ev(link seq)` — plus the trailing
    /// duplicate, if the link injects one.
    fn send(&mut self, up: bool, site: SiteId, ev: impl FnOnce(u64) -> EvOf<P>) {
        let base = self.delay();
        let now = self.now;
        let (seq, at, dup_at) = match self.faults.as_deref_mut() {
            None => (0, now + base, None),
            Some(fl) if up => fl.up[site].schedule(&fl.plan, now, base, &mut fl.stats),
            Some(fl) => fl.down[site].schedule(&fl.plan, now, base, &mut fl.stats),
        };
        self.push(at, ev(seq));
        if let Some(dup_at) = dup_at {
            self.push(dup_at, Ev::Dup);
        }
    }

    /// Where an arrival lands under churn: the addressed site if online,
    /// else the next online site scanning upward among the `k` (the
    /// element multiset is preserved — churn moves load, it never drops
    /// data). Falls back to the addressed site if every site is offline.
    fn reroute_for_churn(&mut self, site: SiteId, k: usize) -> SiteId {
        let now = self.now;
        let Some(fl) = self.faults.as_deref_mut() else {
            return site;
        };
        let Some(ch) = fl.churn.as_mut() else {
            return site;
        };
        if ch.online_at(site, now) {
            return site;
        }
        for off in 1..k {
            let cand = (site + off) % k;
            if ch.online_at(cand, now) {
                fl.stats.rerouted += 1;
                return cand;
            }
        }
        site
    }
}

/// Single-threaded deterministic discrete-event executor.
///
/// See the [module docs](self) for the timing model and the fault-layer
/// delivery guarantees. Like [`crate::Runner`], all accounting is exact:
/// messages and words are charged when put on the wire, broadcasts are
/// charged `k` messages, and per-site space is sampled after every event
/// that touches a site.
pub struct EventRuntime<P: Protocol> {
    sites: Vec<P::Site>,
    core: CoordCore<P::Coord>,
    space: SpaceStats,
    wire: Wire<P>,
    /// Scratch buffer reused across events to avoid per-event allocation.
    outbox: Outbox<<P::Site as Site>::Up>,
}

impl<P: Protocol> EventRuntime<P> {
    /// Instant-delivery runtime (equivalent to [`crate::Runner`]).
    pub fn new(protocol: &P, master_seed: u64) -> Self {
        Self::with_policy(protocol, master_seed, DeliveryPolicy::Instant)
    }

    /// Build a protocol instance under an explicit delivery policy. All
    /// randomness — the protocol's and the delivery policy's — derives
    /// from `master_seed`, so runs replay exactly.
    pub fn with_policy(protocol: &P, master_seed: u64, policy: DeliveryPolicy) -> Self {
        let (sites, coord) = protocol.build(master_seed);
        let k = sites.len();
        assert_eq!(k, protocol.k(), "protocol built wrong number of sites");
        Self {
            sites,
            core: CoordCore::new(coord),
            space: SpaceStats::new(k),
            wire: Wire {
                policy,
                delay_rng: rng_from_seed(splitmix64(master_seed ^ 0x0DE1_1FE7_DE1A_7ED0)),
                queue: BinaryHeap::new(),
                now: 0,
                seq: 0,
                msg_seq: 0,
                faults: None,
            },
            outbox: Outbox::new(),
        }
    }

    /// Build a protocol instance under a delivery policy *and* a
    /// [`FaultPlan`] (see the module docs for the guarantees). A plan
    /// with every fault disabled is free: the runtime takes the exact
    /// pre-fault code paths and stays bit-identical to
    /// [`EventRuntime::with_policy`].
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn with_faults(
        protocol: &P,
        master_seed: u64,
        policy: DeliveryPolicy,
        plan: FaultPlan,
    ) -> Self {
        let mut rt = Self::with_policy(protocol, master_seed, policy);
        if plan.is_none() {
            return rt;
        }
        plan.validate()
            .unwrap_or_else(|e| panic!("invalid FaultPlan: {e}"));
        let k = rt.sites.len();
        let extra = |site: usize| {
            if site == STRAGGLER_SITE {
                plan.straggle
            } else {
                0
            }
        };
        rt.wire.faults = Some(Box::new(FaultLayer {
            plan,
            up: (0..k)
                .map(|s| LinkModel::new(master_seed, s, true, extra(s)))
                .collect(),
            down: (0..k)
                .map(|s| LinkModel::new(master_seed, s, false, extra(s)))
                .collect(),
            churn: (plan.churn > 0.0).then(|| ChurnSchedule::new(master_seed, k, plan.churn)),
            stats: FaultStats::default(),
        }));
        rt
    }

    /// Number of sites.
    pub fn k(&self) -> usize {
        self.sites.len()
    }

    /// Link-layer fault accounting, if a fault layer is active. These
    /// counters are disjoint from [`EventRuntime::stats`] by design —
    /// see the module docs.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.wire.faults.as_ref().map(|f| &f.stats)
    }

    /// Mean scheduled site→coordinator delivery latency of `site`'s
    /// up-link, in ticks — the feedback signal for latency-aware
    /// assignment policies. `None` without a fault layer or before the
    /// link has carried a message.
    pub fn mean_up_latency(&self, site: SiteId) -> Option<f64> {
        self.wire.faults.as_ref()?.up[site].mean_latency()
    }

    /// Current virtual time in ticks.
    pub fn now(&self) -> u64 {
        self.wire.now
    }

    /// Messages currently in flight (scheduled but not yet delivered).
    /// Messages held back by a fault-layer reassembly buffer are counted
    /// by their gap-filling in-flight message: the buffer can only be
    /// non-empty while at least one earlier link message is still
    /// scheduled, so `in_flight() == 0` still implies fully delivered.
    pub fn in_flight(&self) -> usize {
        self.wire.queue.len()
    }

    /// Communication statistics so far (messages charged when sent).
    pub fn stats(&self) -> &CommStats {
        self.core.stats()
    }

    /// Peak per-site space so far.
    pub fn space(&self) -> &SpaceStats {
        &self.space
    }

    /// The coordinator, for protocol-specific queries. Note that under a
    /// delayed policy the coordinator may not have seen in-flight
    /// messages yet; call [`EventRuntime::quiesce`] first for the state
    /// the idealized model would be in.
    pub fn coord(&self) -> &P::Coord {
        self.core.coord()
    }

    /// A site, for white-box tests.
    pub fn site(&self, id: SiteId) -> &P::Site {
        &self.sites[id]
    }

    /// Deliver one element at the current tick, process everything due,
    /// and advance the clock by one tick.
    pub fn feed(&mut self, site: SiteId, item: <P::Site as Site>::Item) {
        let at = self.wire.now;
        self.feed_at(at, site, item);
        self.wire.now += 1;
    }

    /// Deliver one element at schedule time `at` (ticks). Any in-flight
    /// messages due in `(now, at]` are delivered first, in timestamp
    /// order. Multiple arrivals may share a tick (bursts).
    ///
    /// A schedule time the clock has already passed — e.g. after a
    /// mid-schedule [`EventRuntime::quiesce`] (which advances `now` to
    /// the last in-flight delivery), or behind a delivery delay longer
    /// than the schedule's gaps — is delivered *late*, at the current
    /// tick: arrival order is always preserved and only the pacing is
    /// best-effort, mirroring `ChannelRuntime::feed_at`'s wall-clock
    /// semantics. Deterministic in either case.
    pub fn feed_at(&mut self, at: u64, site: SiteId, item: <P::Site as Site>::Item) {
        debug_assert!(site < self.sites.len());
        let at = at.max(self.wire.now);
        self.wire.push(at, Ev::Arrive(site, item));
        self.run_until(at);
        self.core.publish_stale();
    }

    /// Create (or clone) a live-query handle over the
    /// coordinator. Once a handle exists, every arrival boundary (end of
    /// `feed`/`feed_at`) at which the coordinator applied an update, and
    /// every [`EventRuntime::quiesce`], publishes a fresh snapshot epoch —
    /// the event-boundary analogue of the lock-step runner's per-element
    /// epochs; arrivals that induce no coordinator traffic republish
    /// nothing. Under a delayed policy the snapshot reflects exactly what
    /// the coordinator has applied so far, in-flight messages excluded —
    /// the same staleness [`EventRuntime::coord`] documents. Installing a
    /// handle never changes protocol behavior: messages, words, fault
    /// schedules and coordinator state stay bit-identical.
    pub fn query_handle(&mut self) -> QueryHandle<P::Coord> {
        self.core.query_handle()
    }

    /// Deliver every in-flight message, advancing the clock as needed —
    /// the event-queue analogue of a distributed flush. Afterwards the
    /// system is in the state the idealized model would reach (with a
    /// fault layer: every link message released in order, every
    /// duplicate discarded, every parked delivery replayed).
    pub fn quiesce(&mut self) {
        self.run_until(u64::MAX);
        if let Some(fl) = &self.wire.faults {
            debug_assert!(
                fl.up.iter().all(|l| l.pending.is_empty())
                    && fl.down.iter().all(|l| l.pending.is_empty()),
                "quiesce left link messages held back — a sequence number \
                 was never delivered"
            );
        }
        self.core.publish();
    }

    /// Process every queued event with timestamp ≤ `t` in `(at, seq)`
    /// order, advancing `now` to each event's time.
    fn run_until(&mut self, t: u64) {
        // Safety valve against protocols that ping-pong forever: a
        // pending event may legitimately cascade into at most ~64 rounds
        // of ≤ (k+2) messages each (same budget as Runner's
        // MAX_ROUNDS_PER_EVENT), so total pops are bounded by a multiple
        // of the initial backlog. Fault-layer re-parks are transport
        // deferrals, not protocol cascades, and are excluded from the
        // count.
        let k = self.sites.len();
        let per_event = 1 + 64 * (k as u64 + 2);
        let cap = (self.wire.queue.len() as u64 + 1).saturating_mul(per_event);
        let mut pops = 0u64;
        while let Some(head) = self.wire.queue.peek() {
            if head.at > t {
                break;
            }
            pops += 1;
            assert!(
                pops <= cap,
                "protocol failed to quiesce within {cap} events"
            );
            let Entry { at, ev, .. } = self.wire.queue.pop().expect("peeked");
            if at > self.wire.now {
                self.wire.now = at;
            }
            match ev {
                Ev::Arrive(site, item) => {
                    let site = self.wire.reroute_for_churn(site, k);
                    self.core.stats_mut().elements += 1;
                    self.sites[site].on_item(&item, &mut self.outbox);
                    self.flush_site(site);
                }
                Ev::Up(from, link_seq, up) => {
                    // Only an up that is actually applied marks the
                    // snapshot stale: ups the fault layer drops, dedups or
                    // defers must not burn a publish epoch on unchanged
                    // state.
                    if let Some(fl) = self.wire.faults.as_deref_mut() {
                        if !fl.up[from].accept(link_seq, up, &mut fl.stats) {
                            continue;
                        }
                        loop {
                            let fl = self.wire.faults.as_deref_mut().expect("fault layer");
                            let Some(msg) = fl.up[from].pop_ready() else {
                                break;
                            };
                            self.apply_up(from, &msg);
                        }
                    } else {
                        self.apply_up(from, &up);
                    }
                }
                Ev::Down(to, link_seq, down) => {
                    if let Some(fl) = self.wire.faults.as_deref_mut() {
                        // Park deliveries to an offline site until its
                        // rejoin tick (transport retry, not a cascade).
                        if let Some(ch) = fl.churn.as_mut() {
                            if !ch.online_at(to, at) {
                                fl.stats.parked += 1;
                                let rejoin = ch.rejoin_after(to, at);
                                self.wire.push(rejoin, Ev::Down(to, link_seq, down));
                                pops -= 1;
                                continue;
                            }
                        }
                        if !fl.down[to].accept(link_seq, down, &mut fl.stats) {
                            continue;
                        }
                        loop {
                            let fl = self.wire.faults.as_deref_mut().expect("fault layer");
                            let Some(msg) = fl.down[to].pop_ready() else {
                                break;
                            };
                            self.sites[to].on_message(&msg, &mut self.outbox);
                            self.flush_site(to);
                        }
                    } else {
                        self.sites[to].on_message(&down, &mut self.outbox);
                        self.flush_site(to);
                    }
                }
                Ev::Dup => {
                    let fl = self.wire.faults.as_deref_mut().expect("dup without faults");
                    fl.stats.dup_dropped += 1;
                }
            }
        }
    }

    /// After a step of site `from`: sample its space and put its pending
    /// upstream messages on the wire, charged as sent.
    fn flush_site(&mut self, from: SiteId) {
        self.space.observe(from, self.sites[from].space_words());
        for up in self.outbox.drain() {
            self.core.stats_mut().charge_up(&up);
            self.wire.send(true, from, |seq| Ev::Up(from, seq, up));
        }
    }

    /// Apply one up at the coordinator; its downs go on the wire, one
    /// delivery per receiving site.
    fn apply_up(&mut self, from: SiteId, up: &<P::Site as Site>::Up) {
        let wire = &mut self.wire;
        self.core.apply(self.sites.len(), from, up, |to, down| {
            wire.send(false, to, |seq| Ev::Down(to, seq, down.clone()));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Net;
    use crate::protocol::Coordinator;
    use crate::runner::Runner;

    /// Toy protocol mirroring the one in `runner::tests`: every 2nd
    /// element triggers an up; every 3rd up triggers a broadcast; sites
    /// ack the first broadcast they see.
    struct ToySite {
        count: u64,
        acked: bool,
    }
    impl Site for ToySite {
        type Item = u64;
        type Up = u64;
        type Down = u64;
        fn on_item(&mut self, _item: &u64, out: &mut Outbox<u64>) {
            self.count += 1;
            if self.count.is_multiple_of(2) {
                out.send(self.count);
            }
        }
        fn on_message(&mut self, _msg: &u64, out: &mut Outbox<u64>) {
            if !self.acked {
                self.acked = true;
                out.send(u64::MAX);
            }
        }
        fn space_words(&self) -> u64 {
            3
        }
    }
    #[derive(Clone)]
    struct ToyCoord {
        ups: u64,
    }
    impl Coordinator for ToyCoord {
        type Up = u64;
        type Down = u64;
        fn on_message(&mut self, _from: SiteId, msg: &u64, net: &mut Net<u64>) {
            if *msg == u64::MAX {
                return;
            }
            self.ups += 1;
            if self.ups.is_multiple_of(3) {
                net.broadcast(self.ups);
            }
        }
    }
    struct Toy {
        k: usize,
    }
    impl Protocol for Toy {
        type Site = ToySite;
        type Coord = ToyCoord;
        fn k(&self) -> usize {
            self.k
        }
        fn build(&self, _seed: u64) -> (Vec<ToySite>, ToyCoord) {
            (
                (0..self.k)
                    .map(|_| ToySite {
                        count: 0,
                        acked: false,
                    })
                    .collect(),
                ToyCoord { ups: 0 },
            )
        }
    }

    #[test]
    fn instant_policy_matches_runner_exactly() {
        let p = Toy { k: 4 };
        let mut r = Runner::new(&p, 0);
        let mut e = EventRuntime::new(&p, 0);
        for i in 0..12u64 {
            r.feed((i % 4) as usize, &i);
            e.feed((i % 4) as usize, i);
        }
        assert_eq!(r.stats(), e.stats());
        assert_eq!(r.space().max_peak(), e.space().max_peak());
        assert_eq!(e.in_flight(), 0, "instant policy leaves nothing in flight");
    }

    #[test]
    fn fixed_latency_defers_delivery_until_quiesce() {
        let p = Toy { k: 4 };
        let mut e = EventRuntime::with_policy(&p, 0, DeliveryPolicy::FixedLatency(1000));
        for i in 0..12u64 {
            e.feed((i % 4) as usize, i);
        }
        // Ups are charged at send time, but the coordinator has seen none
        // of them yet (latency exceeds the stream length)…
        assert_eq!(e.stats().up_msgs, 4);
        assert_eq!(e.coord().ups, 0);
        assert!(e.in_flight() > 0);
        // …until quiesce advances the clock past the in-flight horizon.
        e.quiesce();
        assert_eq!(e.coord().ups, 4);
        assert_eq!(e.in_flight(), 0);
        // Final totals equal the instant run: same messages, just later.
        let mut instant = EventRuntime::new(&p, 0);
        for i in 0..12u64 {
            instant.feed((i % 4) as usize, i);
        }
        assert_eq!(e.stats(), instant.stats());
    }

    #[test]
    fn random_delay_is_reproducible() {
        let p = Toy { k: 8 };
        let policy = DeliveryPolicy::RandomDelay { min: 1, max: 32 };
        let run = |seed: u64| {
            let mut e = EventRuntime::with_policy(&p, seed, policy);
            for i in 0..200u64 {
                e.feed((i % 8) as usize, i);
            }
            e.quiesce();
            (e.stats().clone(), e.coord().ups, e.now())
        };
        assert_eq!(run(7), run(7), "same seed must replay bit-for-bit");
        assert_ne!(run(7).2, run(8).2, "different seeds should differ");
    }

    #[test]
    fn adversarial_reorder_is_deterministic_and_quiesces() {
        let p = Toy { k: 4 };
        let policy = DeliveryPolicy::AdversarialReorder { window: 8 };
        let run = || {
            let mut e = EventRuntime::with_policy(&p, 3, policy);
            for i in 0..100u64 {
                e.feed((i % 4) as usize, i);
            }
            e.quiesce();
            (e.stats().clone(), e.coord().ups)
        };
        assert_eq!(run(), run());
        assert_eq!(run().0.elements, 100);
    }

    #[test]
    fn feed_at_orders_bursts_on_an_explicit_timeline() {
        let p = Toy { k: 2 };
        let mut e = EventRuntime::with_policy(&p, 0, DeliveryPolicy::FixedLatency(5));
        // Burst of four arrivals at t=10, then one at t=100.
        for i in 0..4u64 {
            e.feed_at(10, (i % 2) as usize, i);
        }
        assert_eq!(e.now(), 10);
        // The burst's ups (sent at t=10) deliver at t=15 ≤ 100.
        e.feed_at(100, 0, 99);
        assert_eq!(e.now(), 100);
        assert_eq!(e.coord().ups, 2); // sites 0 and 1 each hit count=2
    }

    #[test]
    fn feed_at_delivers_past_timestamps_late_in_order() {
        let p = Toy { k: 2 };
        let mut e = EventRuntime::new(&p, 0);
        e.feed_at(10, 0, 1);
        // A schedule time the clock already passed is delivered now —
        // the clock never goes backwards, the arrival is not dropped.
        e.feed_at(9, 0, 2);
        assert_eq!(e.now(), 10);
        assert_eq!(e.stats().elements, 2);
        // The same applies after a mid-schedule quiesce under latency:
        // quiesce advances the clock to the last in-flight delivery, and
        // the next (now-past) schedule tick still feeds fine.
        let mut d = EventRuntime::with_policy(&p, 0, DeliveryPolicy::FixedLatency(50));
        d.feed_at(0, 0, 1);
        d.feed_at(0, 0, 2); // count=2 → up sent, due at tick 50
        d.quiesce();
        assert_eq!(d.now(), 50);
        d.feed_at(1, 1, 3);
        assert_eq!(d.now(), 50);
        assert_eq!(d.stats().elements, 3);
    }

    #[test]
    #[should_panic(expected = "quiesce")]
    fn runaway_protocols_are_detected() {
        struct LoopSite;
        impl Site for LoopSite {
            type Item = u64;
            type Up = u64;
            type Down = u64;
            fn on_item(&mut self, _: &u64, out: &mut Outbox<u64>) {
                out.send(0);
            }
            fn on_message(&mut self, _: &u64, out: &mut Outbox<u64>) {
                out.send(0); // always replies → infinite ping-pong
            }
            fn space_words(&self) -> u64 {
                1
            }
        }
        #[derive(Clone)]
        struct LoopCoord;
        impl Coordinator for LoopCoord {
            type Up = u64;
            type Down = u64;
            fn on_message(&mut self, from: SiteId, _: &u64, net: &mut Net<u64>) {
                net.send(from, 0);
            }
        }
        struct Looping;
        impl Protocol for Looping {
            type Site = LoopSite;
            type Coord = LoopCoord;
            fn k(&self) -> usize {
                1
            }
            fn build(&self, _: u64) -> (Vec<LoopSite>, LoopCoord) {
                (vec![LoopSite], LoopCoord)
            }
        }
        let mut e = EventRuntime::new(&Looping, 0);
        e.feed(0, 1);
    }

    // --- fault layer ---

    fn toy_faulty(seed: u64, policy: DeliveryPolicy, plan: FaultPlan) -> (CommStats, u64, u64) {
        let p = Toy { k: 4 };
        let mut e = EventRuntime::with_faults(&p, seed, policy, plan);
        for i in 0..600u64 {
            e.feed((i % 4) as usize, i);
        }
        e.quiesce();
        assert_eq!(e.in_flight(), 0);
        (e.stats().clone(), e.coord().ups, e.now())
    }

    #[test]
    fn empty_plan_is_bit_identical_to_no_plan() {
        let policy = DeliveryPolicy::RandomDelay { min: 0, max: 16 };
        let a = toy_faulty(5, policy, FaultPlan::none());
        let p = Toy { k: 4 };
        let mut e = EventRuntime::with_policy(&p, 5, policy);
        for i in 0..600u64 {
            e.feed((i % 4) as usize, i);
        }
        e.quiesce();
        assert_eq!(a, (e.stats().clone(), e.coord().ups, e.now()));
        assert!(e.fault_stats().is_none());
    }

    #[test]
    fn loss_is_delay_not_silence() {
        let plan = FaultPlan::none().with_loss(0.3);
        let lossy = toy_faulty(5, DeliveryPolicy::Instant, plan);
        let clean = toy_faulty(5, DeliveryPolicy::Instant, FaultPlan::none());
        // Loss changes interleaving (head-of-line blocking) and therefore
        // the clock, but at-least-once delivery conserves elements, and
        // the run replays bit-for-bit from its seed.
        assert_eq!(lossy.0.elements, clean.0.elements);
        assert_eq!(lossy, toy_faulty(5, DeliveryPolicy::Instant, plan));
        let p = Toy { k: 4 };
        let mut e = EventRuntime::with_faults(&p, 5, DeliveryPolicy::Instant, plan);
        for i in 0..600u64 {
            e.feed((i % 4) as usize, i);
        }
        e.quiesce();
        let fs = e.fault_stats().unwrap();
        assert!(fs.retransmissions > 0, "{fs:?}");
        assert_eq!(fs.duplicates, 0);
    }

    #[test]
    fn duplicates_are_injected_and_all_dropped() {
        let p = Toy { k: 4 };
        let plan = FaultPlan::none().with_dup(0.5);
        let mut e = EventRuntime::with_faults(&p, 9, DeliveryPolicy::FixedLatency(3), plan);
        for i in 0..600u64 {
            e.feed((i % 4) as usize, i);
        }
        e.quiesce();
        let fs = e.fault_stats().unwrap();
        assert!(fs.duplicates > 50, "{fs:?}");
        assert_eq!(fs.duplicates, fs.dup_dropped, "every dup discarded");
    }

    #[test]
    fn duplication_leaves_the_run_bit_identical() {
        // Dup decisions come from their own per-link streams and the
        // discarded copies carry no payload, so turning duplication on
        // must not change stats, coordinator state, or message timing.
        let policy = DeliveryPolicy::RandomDelay { min: 0, max: 16 };
        let with_dup = toy_faulty(5, policy, FaultPlan::none().with_dup(0.4).with_loss(0.1));
        let without = toy_faulty(5, policy, FaultPlan::none().with_loss(0.1));
        assert_eq!(with_dup.0, without.0, "CommStats must not see duplicates");
        assert_eq!(with_dup.1, without.1, "coordinator state must match");
    }

    #[test]
    fn churn_parks_and_reroutes_but_conserves_elements() {
        let p = Toy { k: 4 };
        let plan = FaultPlan::none().with_churn(0.3);
        let mut e = EventRuntime::with_faults(&p, 2, DeliveryPolicy::Instant, plan);
        // Spread arrivals over a few churn cycles so outages are hit.
        for i in 0..500u64 {
            e.feed_at(i * 40, (i % 4) as usize, i);
        }
        e.quiesce();
        assert_eq!(e.stats().elements, 500, "rerouting never drops elements");
        let fs = e.fault_stats().unwrap();
        assert!(fs.rerouted > 0, "{fs:?}");
        assert!(fs.parked > 0, "{fs:?}");
    }

    #[test]
    fn straggler_link_shows_higher_observed_latency() {
        let p = Toy { k: 4 };
        let plan = FaultPlan::none().with_straggle(64);
        let mut e = EventRuntime::with_faults(&p, 3, DeliveryPolicy::FixedLatency(2), plan);
        for i in 0..400u64 {
            e.feed((i % 4) as usize, i);
        }
        e.quiesce();
        let straggler = e.mean_up_latency(STRAGGLER_SITE).unwrap();
        let normal = e.mean_up_latency(1).unwrap();
        assert_eq!(normal, 2.0);
        assert_eq!(straggler, 66.0);
    }

    #[test]
    fn faulty_links_deliver_in_sequence_order() {
        // Order-sensitive receiver: the coordinator records the payloads
        // it sees from site 0; under loss the raw wire reorders, but the
        // endpoint must release strictly in send order.
        struct SeqSite {
            n: u64,
        }
        impl Site for SeqSite {
            type Item = u64;
            type Up = u64;
            type Down = u64;
            fn on_item(&mut self, _: &u64, out: &mut Outbox<u64>) {
                out.send(self.n);
                self.n += 1;
            }
            fn on_message(&mut self, _: &u64, _: &mut Outbox<u64>) {}
            fn space_words(&self) -> u64 {
                1
            }
        }
        #[derive(Clone)]
        struct SeqCoord {
            seen: Vec<u64>,
        }
        impl Coordinator for SeqCoord {
            type Up = u64;
            type Down = u64;
            fn on_message(&mut self, _: SiteId, m: &u64, _: &mut Net<u64>) {
                self.seen.push(*m);
            }
        }
        struct Seq;
        impl Protocol for Seq {
            type Site = SeqSite;
            type Coord = SeqCoord;
            fn k(&self) -> usize {
                1
            }
            fn build(&self, _: u64) -> (Vec<SeqSite>, SeqCoord) {
                (vec![SeqSite { n: 0 }], SeqCoord { seen: Vec::new() })
            }
        }
        let plan = FaultPlan::none().with_loss(0.4).with_dup(0.4);
        let mut e = EventRuntime::with_faults(&Seq, 1, DeliveryPolicy::Instant, plan);
        for i in 0..300u64 {
            e.feed(0, i);
        }
        e.quiesce();
        let want: Vec<u64> = (0..300).collect();
        assert_eq!(e.coord().seen, want, "per-link FIFO exactly-once broken");
        assert!(e.fault_stats().unwrap().retransmissions > 0);
    }
}
