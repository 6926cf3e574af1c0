//! # dtrack-sim — the continuous distributed tracking model
//!
//! This crate implements the model of computation from Huang, Yi, Zhang,
//! *Randomized Algorithms for Tracking Distributed Count, Frequencies, and
//! Ranks* (PODS 2012), §1.1:
//!
//! * `k` **sites** each receive a stream of elements over time, possibly at
//!   varying rates;
//! * a **coordinator** maintains an approximation of a function of the union
//!   of the streams *continuously at all times*;
//! * the coordinator has a direct two-way channel to each site; sites do not
//!   talk to each other; a **broadcast costs `k` messages**;
//! * communication is **instant**: no element arrives until all parties have
//!   decided not to send more messages;
//! * complexity is measured in **messages** and **words**, where a word holds
//!   any integer `< N` or one stream element.
//!
//! The crate provides:
//!
//! * [`Site`] / [`Coordinator`] / [`Protocol`] traits describing a tracking
//!   protocol,
//! * [`exec`], the unified execution layer: [`AnyExec`], one driving
//!   surface over the three executors below, and the [`ExecConfig`]
//!   scenario selector that builds it,
//! * [`Runner`], a deterministic lock-step executor that enforces the
//!   instant-communication semantics and does exact accounting
//!   ([`CommStats`]),
//! * [`exec::EventRuntime`], a deterministic discrete-event executor with
//!   pluggable [`DeliveryPolicy`]s (instant, fixed latency, seeded random
//!   delay, adversarial reorder) for reproducible off-model stress, plus a
//!   fault-injection layer ([`FaultPlan`], `exec::faults`): lossy links with
//!   at-least-once retransmission, duplicate delivery, site churn, and
//!   straggler links — every fault seeded and replayable,
//! * [`runtime::ChannelRuntime`], a genuinely concurrent executor (one OS
//!   thread per site): `k` [`SiteHalf`]s and one [`CoordHalf`] from
//!   [`transport`] — the same two pieces that deploy over TCP — on the
//!   lock-free rings and queues in [`ring`], used for robustness tests
//!   and throughput measurement,
//! * [`snapshot`], epoch-stamped snapshot cells: every executor exposes a
//!   [`QueryHandle`] ([`AnyExec::query_handle`]) so reader threads, one
//!   handle each, answer queries while ingest continues,
//! * seeded PRNG utilities ([`rng`]) including the geometric skip sampler
//!   used to make "report with probability `p`" protocols O(1) amortized.
//!
//! ## Example
//!
//! The geometric skip sampler reproduces Bernoulli(`p`) trials exactly,
//! in O(1) amortized time per trial:
//!
//! ```
//! use dtrack_sim::rng::{rng_from_seed, GeometricSkips};
//!
//! let mut rng = rng_from_seed(7);
//! let mut skips = GeometricSkips::new(0.01, &mut rng);
//! let hits = (0..10_000).filter(|_| skips.trial(&mut rng)).count();
//! assert!((20..400).contains(&hits)); // ≈ 100 expected successes
//! ```

// `unsafe_code` is denied here, allowed on `ring` alone, and forbidden in
// every other crate of the workspace.
#![deny(unsafe_code)]

pub mod exec;
pub mod message;
pub mod net;
pub mod protocol;
#[allow(unsafe_code)]
pub mod ring;
pub mod rng;
pub mod runner;
pub mod runtime;
pub mod snapshot;
pub mod stats;
pub mod step;
pub mod transport;
pub mod wire;

pub use exec::{
    AnyExec, DeliveryPolicy, EventRuntime, ExecConfig, ExecMode, FaultPlan, FaultStats, Tree,
    TreeCoord, TreeProtocol, TreeSpec,
};
pub use message::{Decode, Encode, Words};
pub use net::{Dest, Net, Outbox};
pub use protocol::{Coordinator, Protocol, Site, SiteId};
pub use runner::Runner;
pub use snapshot::{snapshot_cell, LiveQuery, QueryHandle, Snapshot, SnapshotPublisher};
pub use stats::{CommStats, SpaceStats};
pub use step::CoordCore;
pub use transport::{
    in_process_links, CoordHalf, CoordLink, SiteHalf, SiteLink, TcpCoordLink, TcpSiteLink,
};
