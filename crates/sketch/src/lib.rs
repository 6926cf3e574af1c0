//! # dtrack-sketch — space-bounded streaming summaries
//!
//! Per-site stream processing substrate for the distributed tracking
//! protocols of Huang, Yi, Zhang (PODS 2012):
//!
//! * [`sticky::StickyCounters`] — the Manku–Motwani sampled counter list
//!   (\[18\]) used verbatim inside the randomized frequency-tracking
//!   protocol (§3.1): a counter is *created* with probability `p` and
//!   exact afterwards.
//! * [`gk::GkSummary`] — Greenwald–Khanna deterministic quantile summary
//!   (\[12\]), used by the deterministic rank baseline.
//! * [`kll::KllSketch`] — randomized mergeable quantile sketch with
//!   **unbiased** rank estimates and variance `O((ε·m)²)`; our
//!   implementation of the paper's black-box "Algorithm A" (\[24\]/\[1\];
//!   the [`kll`] module docs give the substitution argument).
//! * [`sampling`] — the Bernoulli coin the sticky counters flip.
//! * [`exact`] — exact counters/ranks used as ground truth by tests and
//!   the experiment harness.
//!
//! ## Example
//!
//! ```
//! use dtrack_sketch::{GkSummary, KllSketch};
//!
//! let (mut gk, mut kll) = (GkSummary::new(0.05), KllSketch::with_error(0.05, /* seed */ 42));
//! for x in 0..10_000u64 {
//!     gk.insert(x);
//!     kll.insert(x);
//! }
//!
//! // GK certifies an interval that holds the true rank, at most 2εn wide.
//! let (lo, hi) = gk.rank_bounds(5_000);
//! assert!(lo <= 5_000 && 5_000 <= hi && hi - lo <= 1_000);
//!
//! // KLL gives unbiased rank estimates from bounded space.
//! let r = kll.estimate_rank(5_000);
//! assert!((r - 5_000.0).abs() <= 5.0 * 0.05 * 10_000.0);
//! assert!(kll.stored() < 1_000);
//! ```

#![forbid(unsafe_code)]

pub mod exact;
pub mod gk;
pub mod hash;
pub mod kll;
pub mod sampling;
pub mod sticky;

pub use gk::GkSummary;
pub use kll::{KllSketch, KllSummary};
pub use sticky::StickyCounters;
