//! The unified execution layer: one [`Executor`] abstraction over all
//! three runtimes.
//!
//! Protocol code (sites + coordinator state machines) is pure *mechanism*
//! — it reacts to events and writes messages into sinks. *Policy* — when
//! those messages move — lives entirely in an executor:
//!
//! | executor | delivery | determinism | use for |
//! |---|---|---|---|
//! | [`Runner`] | instant, lock-step | bit-exact | paper-model measurement, exact accounting |
//! | [`EventRuntime`] | pluggable [`DeliveryPolicy`] | bit-exact | reproducible off-model stress (latency, reorder) |
//! | [`ChannelRuntime`] | OS threads + lock-free SPSC rings | nondeterministic | real-concurrency robustness + throughput |
//!
//! The [`Executor`] trait exposes the operations every measurement path
//! needs — `feed`, a batched `feed_batch` fast path, timed `feed_at`
//! ingest, `quiesce`, `stats`, `space`, and coordinator access — so
//! experiment harnesses and integration tests are written once and run
//! against any executor.
//!
//! ## Scenario selection
//!
//! [`ExecConfig`] is the serializable *scenario* selector used by the
//! bench CLI and the integration tests. It combines an [`ExecMode`]
//! (which executor + delivery policy) with an optional sliding-window
//! size and an optional [`FaultPlan`], and parses from compact specs
//! like `event:random:1:32`, `lockstep+window:100000`, or
//! `event+loss:0.05+dup:0.05+churn`. [`AnyExec`] is the enum-dispatched
//! executor [`ExecConfig::build`] produces.
//!
//! The window half of a scenario is *not* applied by [`ExecConfig::build`]
//! — a sliding window wraps the **protocol** (see `dtrack_core`'s
//! `window::Windowed` adapter), not the executor, so generic code cannot
//! apply it without changing the protocol type. Callers that support
//! windowed scenarios (`dtrack-bench`'s `measure::run`, the examples)
//! read [`ExecConfig::window`], wrap their protocol, and build via
//! [`ExecMode::build`]. [`ExecConfig::build`] panics on a windowed
//! scenario rather than silently measuring the wrong thing.
//!
//! ## Example
//!
//! ```
//! use dtrack_sim::exec::{DeliveryPolicy, EventRuntime, ExecConfig, Executor};
//! # use dtrack_sim::net::{Net, Outbox};
//! # use dtrack_sim::protocol::{Coordinator, Protocol, Site, SiteId};
//! # struct EchoSite;
//! # impl Site for EchoSite {
//! #     type Item = u64; type Up = u64; type Down = u64;
//! #     fn on_item(&mut self, item: &u64, out: &mut Outbox<u64>) { out.send(*item); }
//! #     fn on_message(&mut self, _: &u64, _: &mut Outbox<u64>) {}
//! #     fn space_words(&self) -> u64 { 1 }
//! # }
//! # #[derive(Clone)]
//! # struct SumCoord { sum: u64 }
//! # impl Coordinator for SumCoord {
//! #     type Up = u64; type Down = u64;
//! #     fn on_message(&mut self, _: SiteId, m: &u64, _: &mut Net<u64>) { self.sum += m; }
//! # }
//! # struct Echo;
//! # impl Protocol for Echo {
//! #     type Site = EchoSite; type Coord = SumCoord;
//! #     fn k(&self) -> usize { 4 }
//! #     fn build(&self, _: u64) -> (Vec<EchoSite>, SumCoord) {
//! #         ((0..4).map(|_| EchoSite).collect(), SumCoord { sum: 0 })
//! #     }
//! # }
//! // Same protocol, three execution policies, one driver:
//! let configs = [
//!     ExecConfig::lockstep(),
//!     ExecConfig::event(DeliveryPolicy::FixedLatency(8)),
//!     "event:reorder:16".parse().unwrap(),
//! ];
//! for config in configs {
//!     let mut ex = config.build(&Echo, 7);
//!     for t in 0..100u64 {
//!         ex.feed((t % 4) as usize, 1);
//!     }
//!     ex.quiesce();
//!     assert_eq!(ex.query(|c| c.sum), 100);
//!     assert_eq!(ex.stats().up_msgs, 100);
//! }
//! // A windowed scenario round-trips through the same parser:
//! let win: ExecConfig = "lockstep+window:4096".parse().unwrap();
//! assert_eq!(win.window, Some(4096));
//! assert_eq!(win.to_string(), "lockstep+window:4096");
//! ```

pub mod event;
pub mod faults;
pub mod topology;

pub use event::{DeliveryPolicy, EventRuntime, LinkModel};
pub use faults::{FaultPlan, FaultStats};
pub use topology::{LevelLoad, Tree, TreeCoord, TreeProtocol, TreeSpec};

use crate::protocol::{Protocol, Site, SiteId};
use crate::runner::Runner;
use crate::runtime::ChannelRuntime;
use crate::snapshot::QueryHandle;
use crate::stats::{CommStats, SpaceStats};

/// Uniform driving interface over the three executors.
///
/// The trait is deliberately *owning* on items (unlike `Runner`'s
/// borrowed `feed`) so that thread-backed executors can move elements
/// into site queues without cloning.
///
/// Contract: [`Executor::query`] (and coordinator reads via
/// [`Executor::coord`]) observe a consistent cut only after
/// [`Executor::quiesce`]; between quiesce calls, executors with delayed
/// delivery may answer from stale coordinator state — that staleness is
/// exactly what the off-model experiments measure.
pub trait Executor<P: Protocol> {
    /// Number of sites.
    fn k(&self) -> usize;

    /// Deliver one element to a site.
    fn feed(&mut self, site: SiteId, item: <P::Site as Site>::Item);

    /// Deliver one element at schedule time `at` (in workload ticks,
    /// non-decreasing). This is how `Workload::timed` schedules drive an
    /// executor; what a tick *means* is executor-specific:
    ///
    /// * [`EventRuntime`] advances its virtual clock to `at`, delivering
    ///   any in-flight messages due first — arrival gaps interact with
    ///   message latency exactly as the schedule says (schedule times
    ///   its clock already passed are delivered late, in order);
    /// * [`ChannelRuntime`] converts ticks to wall-clock time and sleeps
    ///   until the arrival is due (see [`ChannelRuntime::set_tick`]), so
    ///   the same schedule paces real threads;
    /// * the lock-step [`Runner`] has no clock at all — the default
    ///   implementation ignores `at` and just feeds (the paper's model,
    ///   where pacing cannot matter because delivery is instant).
    fn feed_at(&mut self, at: u64, site: SiteId, item: <P::Site as Site>::Item) {
        let _ = at;
        self.feed(site, item);
    }

    /// Deliver a batch of `(site, item)` pairs. Semantically identical
    /// to feeding them one by one in order; executors override this with
    /// genuine fast paths (site-run coalescing, chunked channel sends).
    fn feed_batch(&mut self, batch: Vec<(SiteId, <P::Site as Site>::Item)>) {
        for (site, item) in batch {
            self.feed(site, item);
        }
    }

    /// Drive the system to the state the idealized instant-delivery
    /// model would be in: all queued elements processed, no messages in
    /// flight. A no-op for executors that are always quiescent.
    fn quiesce(&mut self);

    /// Snapshot of communication statistics.
    fn stats(&self) -> CommStats;

    /// Snapshot of peak per-site space.
    fn space(&self) -> SpaceStats;

    /// Direct coordinator access, if the executor runs it in-process
    /// (`None` for thread-backed executors — use [`Executor::query`]).
    fn coord(&self) -> Option<&P::Coord>;

    /// Run a closure against the coordinator state and return its
    /// result. Call [`Executor::quiesce`] first for a consistent cut.
    fn query<R, F>(&mut self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&P::Coord) -> R + Send + 'static;

    /// Create a cloneable, sendable **live-query** handle: reader
    /// threads answer queries against epoch-stamped immutable snapshots
    /// of the coordinator (`crate::snapshot`) while ingest continues —
    /// no quiesce, no locks on either side.
    ///
    /// Contract, uniform across executors:
    ///
    /// * every answer reflects a **prefix of applied updates** (a whole
    ///   coordinator state as it existed at some publish boundary —
    ///   never a torn intermediate);
    /// * answers lag ingest by **at most one snapshot epoch**: the
    ///   lock-step and event executors publish at element/arrival
    ///   boundaries; the channel runtime — like any
    ///   [`CoordHalf`](crate::transport::CoordHalf), whose cadence it is —
    ///   publishes when the coordinator catches up with its lanes, at
    ///   least every [`PUBLISH_EVERY`](crate::transport::PUBLISH_EVERY)
    ///   applies under sustained load, and when a quiesce settles;
    /// * immediately after [`Executor::quiesce`], a handle read is
    ///   bit-identical to [`Executor::query`] on the same state;
    /// * installing a handle changes **no protocol behavior** — message
    ///   counts, words and coordinator state stay bit-identical (the
    ///   executor only clones coordinator state into the cell).
    ///
    /// One hook serves all three — the
    /// [`LiveQuery`](crate::snapshot::LiveQuery) in each executor's
    /// [`CoordCore`](crate::step::CoordCore); an executor owns only the
    /// cadence above. The first call creates the cell (nothing is cloned
    /// before it), repeated calls return handles of that one cell. Each
    /// handle keeps the snapshot it last read: clone per reader thread
    /// rather than sharing one handle.
    fn query_handle(&mut self) -> QueryHandle<P::Coord>;
}

impl<P: Protocol> Executor<P> for Runner<P> {
    fn k(&self) -> usize {
        Runner::k(self)
    }

    fn feed(&mut self, site: SiteId, item: <P::Site as Site>::Item) {
        Runner::feed(self, site, &item);
    }

    // feed_at: the default (ignore `at`) is exact for the lock-step
    // model — there is no clock against which pacing could be observed.

    fn feed_batch(&mut self, batch: Vec<(SiteId, <P::Site as Site>::Item)>) {
        Runner::feed_batch(self, &batch);
    }

    /// The lock-step runner drains every message before `feed` returns,
    /// so it is always quiescent; with a live-query handle installed it
    /// still republishes here, keeping snapshot epochs aligned with the
    /// event executor's quiesce boundary.
    fn quiesce(&mut self) {
        Runner::publish_now(self);
    }

    fn stats(&self) -> CommStats {
        Runner::stats(self).clone()
    }

    fn space(&self) -> SpaceStats {
        Runner::space(self).clone()
    }

    fn coord(&self) -> Option<&P::Coord> {
        Some(Runner::coord(self))
    }

    fn query<R, F>(&mut self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&P::Coord) -> R + Send + 'static,
    {
        f(Runner::coord(self))
    }

    fn query_handle(&mut self) -> QueryHandle<P::Coord> {
        Runner::query_handle(self)
    }
}

impl<P: Protocol> Executor<P> for EventRuntime<P> {
    fn k(&self) -> usize {
        EventRuntime::k(self)
    }

    fn feed(&mut self, site: SiteId, item: <P::Site as Site>::Item) {
        EventRuntime::feed(self, site, item);
    }

    fn feed_at(&mut self, at: u64, site: SiteId, item: <P::Site as Site>::Item) {
        EventRuntime::feed_at(self, at, site, item);
    }

    // feed_batch: the trait's default per-element loop is already right
    // for the event queue — occupancy is bounded by the in-flight
    // delivery window, so there is nothing to amortize.

    fn quiesce(&mut self) {
        EventRuntime::quiesce(self);
    }

    fn stats(&self) -> CommStats {
        EventRuntime::stats(self).clone()
    }

    fn space(&self) -> SpaceStats {
        EventRuntime::space(self).clone()
    }

    fn coord(&self) -> Option<&P::Coord> {
        Some(EventRuntime::coord(self))
    }

    fn query<R, F>(&mut self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&P::Coord) -> R + Send + 'static,
    {
        f(EventRuntime::coord(self))
    }

    fn query_handle(&mut self) -> QueryHandle<P::Coord> {
        EventRuntime::query_handle(self)
    }
}

impl<P: Protocol> Executor<P> for ChannelRuntime<P> {
    fn k(&self) -> usize {
        ChannelRuntime::k(self)
    }

    fn feed(&mut self, site: SiteId, item: <P::Site as Site>::Item) {
        ChannelRuntime::feed(self, site, item);
    }

    fn feed_at(&mut self, at: u64, site: SiteId, item: <P::Site as Site>::Item) {
        ChannelRuntime::feed_at(self, at, site, item);
    }

    fn feed_batch(&mut self, batch: Vec<(SiteId, <P::Site as Site>::Item)>) {
        ChannelRuntime::feed_batch(self, batch);
    }

    fn quiesce(&mut self) {
        ChannelRuntime::quiesce(self);
    }

    fn stats(&self) -> CommStats {
        ChannelRuntime::stats(self)
    }

    fn space(&self) -> SpaceStats {
        ChannelRuntime::space(self)
    }

    /// The coordinator lives on its own thread — use [`Executor::query`].
    fn coord(&self) -> Option<&P::Coord> {
        None
    }

    fn query<R, F>(&mut self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&P::Coord) -> R + Send + 'static,
    {
        ChannelRuntime::with_coord(self, f)
    }

    fn query_handle(&mut self) -> QueryHandle<P::Coord> {
        ChannelRuntime::query_handle(self)
    }
}

/// Executor + delivery-policy selector: which runtime runs the protocol.
///
/// Parses from compact specs (case-sensitive, all integers base-10):
///
/// | spec | meaning |
/// |---|---|
/// | `lockstep` (or `runner`) | [`ExecMode::LockStep`] |
/// | `event` (or `event:instant`) | event-scheduled, instant delivery |
/// | `event:fixed:D` | fixed `D`-tick latency |
/// | `event:random:MIN:MAX` | seeded uniform delay in `[MIN, MAX]` |
/// | `event:reorder:W` | adversarial reorder, window `W` |
/// | `channel` | thread-per-site channel runtime |
///
/// An [`ExecConfig`] pairs a mode with the optional sliding-window half
/// of a scenario; code that never deals with windows can keep passing a
/// bare mode around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// The lock-step [`Runner`]: instant delivery, exact accounting.
    LockStep,
    /// The deterministic [`EventRuntime`] under a delivery policy.
    Event(DeliveryPolicy),
    /// The thread-per-site [`ChannelRuntime`].
    Channel,
}

impl ExecMode {
    /// Build the selected executor for a protocol instance.
    pub fn build<P: Protocol>(self, protocol: &P, master_seed: u64) -> AnyExec<P> {
        self.build_faulty(FaultPlan::none(), protocol, master_seed)
    }

    /// Build the selected executor under a [`FaultPlan`]. A plan with
    /// every fault disabled is accepted by every mode (and is free: the
    /// run is bit-identical to [`ExecMode::build`]); an active plan
    /// requires the event executor — the lock-step runner has no wire to
    /// inject faults into, and the channel runtime's real threads cannot
    /// replay a deterministic fault schedule.
    ///
    /// # Panics
    ///
    /// Panics on an active plan over a non-event mode, or on an invalid
    /// plan. The scenario parser rejects both earlier with a proper
    /// error; this backstop catches programmatic misuse.
    pub fn build_faulty<P: Protocol>(
        self,
        faults: FaultPlan,
        protocol: &P,
        master_seed: u64,
    ) -> AnyExec<P> {
        match self {
            ExecMode::Event(policy) => AnyExec::Event(EventRuntime::with_faults(
                protocol,
                master_seed,
                policy,
                faults,
            )),
            ExecMode::LockStep if faults.is_none() => {
                AnyExec::LockStep(Runner::new(protocol, master_seed))
            }
            ExecMode::Channel if faults.is_none() => {
                AnyExec::Channel(ChannelRuntime::new(protocol, master_seed))
            }
            mode => panic!("fault plan {faults} requires the event executor, not {mode}"),
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::LockStep => write!(f, "lockstep"),
            ExecMode::Event(DeliveryPolicy::Instant) => write!(f, "event:instant"),
            ExecMode::Event(DeliveryPolicy::FixedLatency(d)) => write!(f, "event:fixed:{d}"),
            ExecMode::Event(DeliveryPolicy::RandomDelay { min, max }) => {
                write!(f, "event:random:{min}:{max}")
            }
            ExecMode::Event(DeliveryPolicy::AdversarialReorder { window }) => {
                write!(f, "event:reorder:{window}")
            }
            ExecMode::Channel => write!(f, "channel"),
        }
    }
}

impl std::str::FromStr for ExecMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let num = |p: &str| -> Result<u64, String> {
            p.parse()
                .map_err(|_| format!("exec spec {s:?}: {p:?} is not an integer"))
        };
        match parts.as_slice() {
            ["lockstep"] | ["runner"] => Ok(ExecMode::LockStep),
            ["channel"] => Ok(ExecMode::Channel),
            ["event"] | ["event", "instant"] => Ok(ExecMode::Event(DeliveryPolicy::Instant)),
            ["event", "fixed", d] => Ok(ExecMode::Event(DeliveryPolicy::FixedLatency(num(d)?))),
            ["event", "random", min, max] => {
                let (min, max) = (num(min)?, num(max)?);
                if min > max {
                    return Err(format!("exec spec {s:?}: min {min} > max {max}"));
                }
                if max == u64::MAX {
                    return Err(format!("exec spec {s:?}: max delay too large"));
                }
                Ok(ExecMode::Event(DeliveryPolicy::RandomDelay { min, max }))
            }
            ["event", "reorder", w] => {
                let window = num(w)?;
                if window == 0 {
                    return Err(format!("exec spec {s:?}: window must be ≥ 1"));
                }
                Ok(ExecMode::Event(DeliveryPolicy::AdversarialReorder {
                    window,
                }))
            }
            _ => Err(format!(
                "unknown exec spec {s:?} (expected lockstep | channel | \
                 event[:instant] | event:fixed:D | event:random:MIN:MAX | \
                 event:reorder:W)"
            )),
        }
    }
}

/// One execution *scenario*: an [`ExecMode`] plus an optional sliding
/// window plus a [`FaultPlan`] — the one config value experiment
/// binaries and integration tests use to pick what to run.
///
/// Parses from `<mode>` followed by `+` suffixes in any order, at most
/// once each:
///
/// | suffix | meaning |
/// |---|---|
/// | `+tree:F` / `+tree:F:D` | aggregate through a fanout-`F` tree, `D` levels (see [`topology`]) |
/// | `+window:W` | track the last `W ≥ 2` elements (`Windowed<P>`) |
/// | `+loss:P` | each link transmission lost w.p. `P ∈ [0, 0.9]`, retransmitted |
/// | `+dup:P` | each link message duplicated w.p. `P ∈ [0, 1]` |
/// | `+churn:R` / `+churn` | sites offline fraction `R ∈ (0, 0.5]` of the time (default 0.1) |
/// | `+straggle:S` | site 0's links take `S` extra ticks per hop |
///
/// e.g. `lockstep`, `channel+window:65536`, `event:fixed:8+window:4096`,
/// `event+loss:0.05+dup:0.05+churn`, `lockstep+tree:16:2`. Fault
/// suffixes require an `event` mode (see [`ExecMode::build_faulty`]).
/// Like the window half, the tree half wraps the **protocol** (in
/// [`topology::Tree`]) rather than the executor: callers that support
/// tree scenarios read [`ExecConfig::tree`], wrap, and build via
/// [`ExecMode::build`] — `dtrack-bench`'s `measure::run` does this, in
/// one place for every problem and algorithm.
/// `+tree` does not (yet) combine with `+window`: the combination is
/// rejected at parse time rather than measuring an unsupported stack
/// (a windowed tree needs per-level epoch alignment, a documented
/// deferral), and `measure::run` refuses a config built in code with
/// both set. When `window` is set, `measure::run` wraps the protocol in
/// `dtrack_core::window::Windowed` and reports sliding-window answers;
/// when it is `None` it tracks the whole stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecConfig {
    /// Which executor (and delivery policy) runs the protocol.
    pub mode: ExecMode,
    /// Aggregation-tree shape; `None` = the paper's flat star.
    pub tree: Option<TreeSpec>,
    /// Sliding-window size `W` in elements; `None` = whole stream.
    pub window: Option<u64>,
    /// Link faults to inject ([`FaultPlan::none`] = reliable links).
    pub faults: FaultPlan,
}

impl ExecConfig {
    /// Whole-stream scenario on the lock-step [`Runner`].
    pub const fn lockstep() -> Self {
        Self {
            mode: ExecMode::LockStep,
            tree: None,
            window: None,
            faults: FaultPlan::none(),
        }
    }

    /// Whole-stream scenario on the [`EventRuntime`] under `policy`.
    pub const fn event(policy: DeliveryPolicy) -> Self {
        Self {
            mode: ExecMode::Event(policy),
            tree: None,
            window: None,
            faults: FaultPlan::none(),
        }
    }

    /// Whole-stream scenario on the thread-per-site [`ChannelRuntime`].
    pub const fn channel() -> Self {
        Self {
            mode: ExecMode::Channel,
            tree: None,
            window: None,
            faults: FaultPlan::none(),
        }
    }

    /// The same scenario restricted to the last `w` elements.
    pub const fn windowed(mut self, w: u64) -> Self {
        self.window = Some(w);
        self
    }

    /// The same scenario aggregated through a [`topology::Tree`].
    pub const fn with_tree(mut self, spec: TreeSpec) -> Self {
        self.tree = Some(spec);
        self
    }

    /// The same scenario with link faults injected (event modes only —
    /// see [`ExecMode::build_faulty`]).
    pub const fn faulty(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Build the selected executor for a **flat, whole-stream** protocol
    /// run.
    ///
    /// # Panics
    ///
    /// Panics if this is a windowed or tree scenario: both halves wrap
    /// the protocol (`dtrack_core::window::Windowed`,
    /// [`topology::Tree`]), not the executor, so generic code cannot
    /// apply them here without changing the protocol type. Wrap the
    /// protocol yourself and build via [`ExecMode::build`] (or use
    /// `dtrack-bench`'s `measure::run`, which does exactly that).
    pub fn build<P: Protocol>(self, protocol: &P, master_seed: u64) -> AnyExec<P> {
        assert!(
            self.window.is_none(),
            "ExecConfig::build cannot apply a window:W scenario — wrap the \
             protocol in dtrack_core::window::Windowed and build with \
             ExecMode::build_faulty (dtrack-bench's measure::run does this)"
        );
        assert!(
            self.tree.is_none(),
            "ExecConfig::build cannot apply a tree:F scenario — wrap the \
             protocol in dtrack_sim::exec::topology::Tree and build with \
             ExecMode::build_faulty (dtrack-bench's measure::run does this)"
        );
        self.mode.build_faulty(self.faults, protocol, master_seed)
    }
}

impl From<ExecMode> for ExecConfig {
    fn from(mode: ExecMode) -> Self {
        Self {
            mode,
            tree: None,
            window: None,
            faults: FaultPlan::none(),
        }
    }
}

impl std::fmt::Display for ExecConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Canonical suffix order: tree, window, then the plan's own
        // canonical loss/dup/churn/straggle order. Parsing accepts any
        // order but re-renders like this, so Display∘FromStr is a
        // fixpoint.
        write!(f, "{}", self.mode)?;
        if let Some(t) = self.tree {
            write!(f, "+tree:{t}")?;
        }
        if let Some(w) = self.window {
            write!(f, "+window:{w}")?;
        }
        write!(f, "{}", self.faults)
    }
}

impl std::str::FromStr for ExecConfig {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut parts = s.split('+');
        let mode: ExecMode = parts.next().unwrap_or("").parse()?;
        let mut tree = None;
        let mut window = None;
        let mut faults = FaultPlan::none();
        let mut seen: Vec<&str> = Vec::new();
        for suffix in parts {
            let (name, value) = match suffix.split_once(':') {
                Some((n, v)) => (n, Some(v)),
                None => (suffix, None),
            };
            if seen.contains(&name) {
                return Err(format!("scenario {s:?}: duplicate +{name} suffix"));
            }
            seen.push(name);
            // Every suffix except bare `+churn` requires a value.
            let need = |what: &str| -> Result<&str, String> {
                value
                    .filter(|v| !v.is_empty())
                    .ok_or_else(|| format!("scenario {s:?}: expected +{name}:{what}"))
            };
            let prob = |what: &str| -> Result<f64, String> {
                let v = need(what)?;
                v.parse::<f64>()
                    .map_err(|_| format!("scenario {s:?}: {v:?} is not a number in +{name}"))
            };
            match name {
                "tree" => {
                    // +tree:F or +tree:F:D (fanout, optional depth).
                    let v = need("F[:D]")?;
                    let (fan, depth) = match v.split_once(':') {
                        Some((fan, d)) => (fan, Some(d)),
                        None => (v, None),
                    };
                    let fanout = fan.parse::<usize>().map_err(|_| {
                        format!("scenario {s:?}: tree fanout {fan:?} is not an integer")
                    })?;
                    let mut spec = TreeSpec::new(fanout);
                    if let Some(d) = depth {
                        let d = d.parse::<usize>().map_err(|_| {
                            format!("scenario {s:?}: tree depth {d:?} is not an integer")
                        })?;
                        spec = spec.with_depth(d);
                    }
                    spec.validate()
                        .map_err(|e| format!("scenario {s:?}: {e}"))?;
                    tree = Some(spec);
                }
                "window" => {
                    let w = need("W")?
                        .parse::<u64>()
                        .map_err(|_| format!("scenario {s:?}: window size is not an integer"))?;
                    if w < 2 {
                        return Err(format!("scenario {s:?}: window must be ≥ 2"));
                    }
                    window = Some(w);
                }
                "loss" => faults.loss = prob("P")?,
                "dup" => faults.dup = prob("P")?,
                "churn" => {
                    faults.churn = match value {
                        None => faults::DEFAULT_CHURN, // bare +churn
                        Some(_) => prob("R")?,
                    }
                }
                "straggle" => {
                    faults.straggle = need("S")?
                        .parse::<u64>()
                        .map_err(|_| format!("scenario {s:?}: straggle is not an integer"))?;
                }
                _ => {
                    return Err(format!(
                        "scenario {s:?}: unknown suffix +{name} (expected tree:F[:D] | \
                         window:W | loss:P | dup:P | churn[:R] | straggle:S)"
                    ));
                }
            }
        }
        faults
            .validate()
            .map_err(|e| format!("scenario {s:?}: {e}"))?;
        if !faults.is_none() && !matches!(mode, ExecMode::Event(_)) {
            return Err(format!(
                "scenario {s:?}: fault suffixes (loss/dup/churn/straggle) require \
                 the event executor, e.g. event:fixed:8{faults}"
            ));
        }
        if tree.is_some() && window.is_some() {
            return Err(format!(
                "scenario {s:?}: +tree does not combine with +window yet — a \
                 windowed tree needs per-level epoch alignment (documented \
                 deferral; run the halves separately)"
            ));
        }
        Ok(Self {
            mode,
            tree,
            window,
            faults,
        })
    }
}

/// Enum dispatch over the three executors, built by [`ExecMode::build`].
///
/// Any protocol runs on any of them: what the [`ChannelRuntime`] variant
/// needs for its threads (`Send + 'static` sites, elements, messages and
/// coordinator) is part of the [`Site`], [`Coordinator`](crate::Coordinator)
/// and [`Words`](crate::Words) traits, so no bound is added here.
pub enum AnyExec<P: Protocol> {
    /// Lock-step runner.
    LockStep(Runner<P>),
    /// Deterministic event scheduler.
    Event(EventRuntime<P>),
    /// Thread-per-site channel runtime.
    Channel(ChannelRuntime<P>),
}

macro_rules! dispatch {
    ($self:expr, $ex:ident => $body:expr) => {
        match $self {
            AnyExec::LockStep($ex) => $body,
            AnyExec::Event($ex) => $body,
            AnyExec::Channel($ex) => $body,
        }
    };
}

impl<P: Protocol> Executor<P> for AnyExec<P> {
    fn k(&self) -> usize {
        dispatch!(self, ex => Executor::<P>::k(ex))
    }

    fn feed(&mut self, site: SiteId, item: <P::Site as Site>::Item) {
        dispatch!(self, ex => Executor::<P>::feed(ex, site, item))
    }

    fn feed_at(&mut self, at: u64, site: SiteId, item: <P::Site as Site>::Item) {
        dispatch!(self, ex => Executor::<P>::feed_at(ex, at, site, item))
    }

    fn feed_batch(&mut self, batch: Vec<(SiteId, <P::Site as Site>::Item)>) {
        dispatch!(self, ex => Executor::<P>::feed_batch(ex, batch))
    }

    fn quiesce(&mut self) {
        dispatch!(self, ex => Executor::<P>::quiesce(ex))
    }

    fn stats(&self) -> CommStats {
        dispatch!(self, ex => Executor::<P>::stats(ex))
    }

    fn space(&self) -> SpaceStats {
        dispatch!(self, ex => Executor::<P>::space(ex))
    }

    fn coord(&self) -> Option<&P::Coord> {
        dispatch!(self, ex => Executor::<P>::coord(ex))
    }

    fn query<R, F>(&mut self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&P::Coord) -> R + Send + 'static,
    {
        dispatch!(self, ex => Executor::<P>::query(ex, f))
    }

    fn query_handle(&mut self) -> QueryHandle<P::Coord> {
        dispatch!(self, ex => Executor::<P>::query_handle(ex))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_mode_parses_every_spec() {
        let cases: Vec<(&str, ExecMode)> = vec![
            ("lockstep", ExecMode::LockStep),
            ("runner", ExecMode::LockStep),
            ("channel", ExecMode::Channel),
            ("event", ExecMode::Event(DeliveryPolicy::Instant)),
            ("event:instant", ExecMode::Event(DeliveryPolicy::Instant)),
            (
                "event:fixed:12",
                ExecMode::Event(DeliveryPolicy::FixedLatency(12)),
            ),
            (
                "event:random:1:32",
                ExecMode::Event(DeliveryPolicy::RandomDelay { min: 1, max: 32 }),
            ),
            (
                "event:reorder:16",
                ExecMode::Event(DeliveryPolicy::AdversarialReorder { window: 16 }),
            ),
        ];
        for (spec, want) in cases {
            assert_eq!(spec.parse::<ExecMode>().unwrap(), want, "{spec}");
            // Mode specs are also whole-stream scenarios.
            let cfg: ExecConfig = spec.parse().unwrap();
            assert_eq!(cfg, ExecConfig::from(want), "{spec}");
        }
    }

    #[test]
    fn scenario_parses_window_suffix() {
        let cases: Vec<(&str, ExecConfig)> = vec![
            (
                "lockstep+window:4096",
                ExecConfig::lockstep().windowed(4096),
            ),
            (
                "channel+window:65536",
                ExecConfig::channel().windowed(65536),
            ),
            (
                "event:fixed:8+window:100",
                ExecConfig::event(DeliveryPolicy::FixedLatency(8)).windowed(100),
            ),
        ];
        for (spec, want) in cases {
            assert_eq!(spec.parse::<ExecConfig>().unwrap(), want, "{spec}");
        }
    }

    #[test]
    fn scenario_parses_fault_suffixes() {
        let ev = || ExecConfig::event(DeliveryPolicy::Instant);
        let cases: Vec<(&str, ExecConfig)> = vec![
            (
                "event+loss:0.05",
                ev().faulty(FaultPlan::none().with_loss(0.05)),
            ),
            (
                "event+dup:0.5",
                ev().faulty(FaultPlan::none().with_dup(0.5)),
            ),
            (
                "event+churn",
                ev().faulty(FaultPlan::none().with_churn(faults::DEFAULT_CHURN)),
            ),
            (
                "event+churn:0.25",
                ev().faulty(FaultPlan::none().with_churn(0.25)),
            ),
            (
                "event+straggle:64",
                ev().faulty(FaultPlan::none().with_straggle(64)),
            ),
            (
                "event:fixed:8+loss:0.1+dup:0.1+churn:0.2+straggle:16",
                ExecConfig::event(DeliveryPolicy::FixedLatency(8)).faulty(
                    FaultPlan::none()
                        .with_loss(0.1)
                        .with_dup(0.1)
                        .with_churn(0.2)
                        .with_straggle(16),
                ),
            ),
            // Suffixes compose with +window:W, in any order.
            (
                "event:random:1:32+window:4096+loss:0.05",
                ExecConfig::event(DeliveryPolicy::RandomDelay { min: 1, max: 32 })
                    .windowed(4096)
                    .faulty(FaultPlan::none().with_loss(0.05)),
            ),
            (
                "event+loss:0.05+window:4096",
                ev().windowed(4096)
                    .faulty(FaultPlan::none().with_loss(0.05)),
            ),
            // loss:0 etc. is an explicit no-op, accepted on any mode.
            ("lockstep+loss:0", ExecConfig::lockstep()),
        ];
        for (spec, want) in cases {
            assert_eq!(spec.parse::<ExecConfig>().unwrap(), want, "{spec}");
        }
    }

    #[test]
    fn scenario_parses_tree_suffix() {
        let cases: Vec<(&str, ExecConfig)> = vec![
            (
                "lockstep+tree:4",
                ExecConfig::lockstep().with_tree(TreeSpec::new(4)),
            ),
            (
                "lockstep+tree:16:2",
                ExecConfig::lockstep().with_tree(TreeSpec::new(16).with_depth(2)),
            ),
            (
                "channel+tree:8",
                ExecConfig::channel().with_tree(TreeSpec::new(8)),
            ),
            // Trees compose with event policies and faults (which act on
            // the leaf links).
            (
                "event:fixed:8+tree:4:3+loss:0.05",
                ExecConfig::event(DeliveryPolicy::FixedLatency(8))
                    .with_tree(TreeSpec::new(4).with_depth(3))
                    .faulty(FaultPlan::none().with_loss(0.05)),
            ),
        ];
        for (spec, want) in cases {
            assert_eq!(spec.parse::<ExecConfig>().unwrap(), want, "{spec}");
        }
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "",
            "evnt",
            "event:fixed",
            "event:fixed:x",
            "event:random:5:1",
            "event:random:0:18446744073709551615",
            "event:reorder:0",
            "lockstep:extra",
        ] {
            assert!(bad.parse::<ExecMode>().is_err(), "{bad:?} should fail");
            assert!(bad.parse::<ExecConfig>().is_err(), "{bad:?} should fail");
        }
        for bad in [
            "lockstep+window",
            "lockstep+window:",
            "lockstep+window:x",
            "lockstep+window:0",
            "lockstep+window:1",
            "lockstep+win:9",
            "+window:9",
            // fault suffixes: missing/garbage/out-of-range values
            "event+loss",
            "event+loss:",
            "event+loss:x",
            "event+loss:-0.1",
            "event+loss:0.95",
            "event+loss:NaN",
            "event+dup:1.5",
            "event+churn:",
            "event+churn:0.6",
            "event+straggle",
            "event+straggle:1.5",
            // tree suffixes: missing/garbage/out-of-range values
            "lockstep+tree",
            "lockstep+tree:",
            "lockstep+tree:x",
            "lockstep+tree:1",
            "lockstep+tree:0:2",
            "lockstep+tree:4:0",
            "lockstep+tree:4:2:9",
            // tree + window is a documented deferral, not a silent stack
            "lockstep+tree:4+window:4096",
            "event+window:4096+tree:4",
            // duplicate suffixes
            "event+loss:0.1+loss:0.2",
            "event+window:16+window:16",
            "event+churn+churn:0.2",
            "lockstep+tree:4+tree:8",
            // active faults require the event executor
            "lockstep+loss:0.1",
            "channel+dup:0.1",
            "runner+churn",
            "lockstep+window:4096+straggle:8",
        ] {
            assert!(bad.parse::<ExecConfig>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejection_errors_name_the_problem() {
        let err = |s: &str| s.parse::<ExecConfig>().unwrap_err();
        assert!(
            err("event+loss:0.95").contains("loss"),
            "{}",
            err("event+loss:0.95")
        );
        assert!(err("event+bogus:1").contains("unknown suffix +bogus"));
        assert!(err("event+loss:0.1+loss:0.2").contains("duplicate +loss"));
        assert!(err("lockstep+tree:1").contains("fanout"));
        assert!(
            err("lockstep+tree:4+window:4096").contains("does not combine"),
            "{}",
            err("lockstep+tree:4+window:4096")
        );
        assert!(
            err("lockstep+loss:0.1").contains("require"),
            "{}",
            err("lockstep+loss:0.1")
        );
        assert!(err("event+churn:").contains("churn"));
    }

    #[test]
    fn display_round_trips_through_parse() {
        for spec in [
            "lockstep",
            "channel",
            "event:instant",
            "event:fixed:7",
            "event:random:0:9",
            "event:reorder:4",
            "lockstep+window:4096",
            "event:random:1:32+window:1000",
            "channel+window:2",
            "event+loss:0.05",
            "event+dup:0.25",
            "event+churn:0.1",
            "event+straggle:64",
            "event:fixed:8+window:4096+loss:0.05+dup:0.05+churn:0.1+straggle:16",
            "event:reorder:8+loss:0.3",
            "lockstep+tree:4",
            "channel+tree:16:2",
            "event:fixed:8+tree:4:3+loss:0.05",
        ] {
            let cfg: ExecConfig = spec.parse().unwrap();
            assert_eq!(cfg.to_string().parse::<ExecConfig>().unwrap(), cfg);
        }
        // Canonical specs render back to themselves exactly…
        for canonical in [
            "event:instant+window:4096+loss:0.05+dup:0.05+churn:0.1+straggle:16",
            "event:fixed:8+loss:0.3",
            "lockstep+tree:16:2",
        ] {
            let cfg: ExecConfig = canonical.parse().unwrap();
            assert_eq!(cfg.to_string(), canonical);
        }
        // …and out-of-order suffixes re-render in canonical order.
        let cfg: ExecConfig = "event+straggle:16+loss:0.05+window:4096".parse().unwrap();
        assert_eq!(
            cfg.to_string(),
            "event:instant+window:4096+loss:0.05+straggle:16"
        );
        let cfg: ExecConfig = "event+loss:0.05+tree:4".parse().unwrap();
        assert_eq!(cfg.to_string(), "event:instant+tree:4+loss:0.05");
    }

    #[test]
    #[should_panic(expected = "window:W")]
    fn windowed_build_panics_instead_of_ignoring_the_window() {
        use crate::net::{Net, Outbox};
        use crate::protocol::Coordinator;
        struct NopSite;
        impl Site for NopSite {
            type Item = u64;
            type Up = u64;
            type Down = u64;
            fn on_item(&mut self, _: &u64, _: &mut Outbox<u64>) {}
            fn on_message(&mut self, _: &u64, _: &mut Outbox<u64>) {}
            fn space_words(&self) -> u64 {
                1
            }
        }
        #[derive(Clone)]
        struct NopCoord;
        impl Coordinator for NopCoord {
            type Up = u64;
            type Down = u64;
            fn on_message(&mut self, _: SiteId, _: &u64, _: &mut Net<u64>) {}
        }
        struct Nop;
        impl Protocol for Nop {
            type Site = NopSite;
            type Coord = NopCoord;
            fn k(&self) -> usize {
                1
            }
            fn build(&self, _: u64) -> (Vec<NopSite>, NopCoord) {
                (vec![NopSite], NopCoord)
            }
        }
        let _ = ExecConfig::lockstep().windowed(16).build(&Nop, 0);
    }

    #[test]
    #[should_panic(expected = "tree:F")]
    fn tree_build_panics_instead_of_ignoring_the_tree() {
        use crate::net::{Net, Outbox};
        use crate::protocol::Coordinator;
        struct NopSite;
        impl Site for NopSite {
            type Item = u64;
            type Up = u64;
            type Down = u64;
            fn on_item(&mut self, _: &u64, _: &mut Outbox<u64>) {}
            fn on_message(&mut self, _: &u64, _: &mut Outbox<u64>) {}
            fn space_words(&self) -> u64 {
                1
            }
        }
        #[derive(Clone)]
        struct NopCoord;
        impl Coordinator for NopCoord {
            type Up = u64;
            type Down = u64;
            fn on_message(&mut self, _: SiteId, _: &u64, _: &mut Net<u64>) {}
        }
        struct Nop;
        impl Protocol for Nop {
            type Site = NopSite;
            type Coord = NopCoord;
            fn k(&self) -> usize {
                1
            }
            fn build(&self, _: u64) -> (Vec<NopSite>, NopCoord) {
                (vec![NopSite], NopCoord)
            }
        }
        let _ = ExecConfig::lockstep()
            .with_tree(TreeSpec::new(4))
            .build(&Nop, 0);
    }
}
