//! # dtrack-sketch — space-bounded streaming summaries
//!
//! Per-site stream processing substrate for the distributed tracking
//! protocols of Huang, Yi, Zhang (PODS 2012):
//!
//! * [`misra_gries::MisraGries`] — deterministic heavy hitters, the
//!   `O(1/ε)`-space structure behind the deterministic frequency baseline
//!   (MG is reference \[20\] of the paper).
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
//! * [`sampling`] — Bernoulli and reservoir samplers.
//! * [`exact`] — exact counters/ranks used as ground truth by tests and
//!   the experiment harness.
//!
//! ## Example
//!
//! ```
//! use dtrack_sketch::{KllSketch, MisraGries};
//!
//! // Misra–Gries underestimates by at most n/(capacity+1).
//! let mut mg = MisraGries::new(9);
//! for x in 0..1_000u64 {
//!     mg.observe(x % 10);
//! }
//! let est = mg.estimate(3); // true frequency: 100
//! assert!(est <= 100 && 100 - est <= 1_000 / 10);
//!
//! // KLL gives unbiased rank estimates from bounded space.
//! let mut kll = KllSketch::with_error(0.05, /* seed */ 42);
//! for x in 0..10_000u64 {
//!     kll.insert(x);
//! }
//! let r = kll.estimate_rank(5_000);
//! assert!((r - 5_000.0).abs() <= 5.0 * 0.05 * 10_000.0);
//! ```

#![forbid(unsafe_code)]

pub mod exact;
pub mod gk;
pub mod hash;
pub mod kll;
pub mod misra_gries;
pub mod sampling;
pub mod sticky;

pub use gk::GkSummary;
pub use kll::{KllSketch, KllSummary};
pub use misra_gries::MisraGries;
pub use sticky::StickyCounters;
