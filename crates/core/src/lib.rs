//! # dtrack-core — randomized distributed tracking protocols
//!
//! Implementation of Huang, Yi, Zhang, *Randomized Algorithms for Tracking
//! Distributed Count, Frequencies, and Ranks* (PODS 2012), plus the
//! deterministic and sampling baselines the paper compares against
//! (its Table 1).
//!
//! | module | algorithm | communication | space / site |
//! |---|---|---|---|
//! | [`count::RandomizedCount`] | §2.1, Thm 2.1 | `O(√k/ε·logN)` | `O(1)` |
//! | [`count::DeterministicCount`] | trivial (1+ε) baseline | `Θ(k/ε·logN)` | `O(1)` |
//! | [`frequency::RandomizedFrequency`] | §3.1, Thm 3.1 | `O(√k/ε·logN)` | `O(1/(ε√k))` |
//! | [`frequency::DeterministicFrequency`] | \[29\]-style baseline | `Θ(k/ε·logN)` | `O(1/ε)` |
//! | [`rank::RandomizedRank`] | §4, Thm 4.1 | `O(√k/ε·logN·polylog)` | `O(1/(ε√k)·polylog)` |
//! | [`rank::DeterministicRank`] | delta-batch baseline | `O(min(n, k/ε²·logN))` | `O(εn/k)` |
//! | [`sampling::ContinuousSampling`] | \[9\] baseline | `O(1/ε²·logN)` | `O(1)` |
//!
//! All protocols implement the [`dtrack_sim::Protocol`] trait and run on
//! either the lock-step [`dtrack_sim::Runner`] (exact accounting) or the
//! concurrent [`dtrack_sim::runtime::ChannelRuntime`].
//!
//! The common machinery lives in [`coarse`] (the constant-factor tracker
//! of `n` that defines the round structure and the sampling probability
//! `p = Θ(√k/(εn))`) and [`config`]. [`boost`] turns the per-time-instant
//! 0.9 success probability into "correct at all times" via independent
//! copies and medians (§1.2), and [`reduction`] derives frequency answers
//! from a rank tracker (§1.2). [`query`] is the answer surface — one
//! trait per tracked function, implemented by every coordinator and by
//! the window / tree wrappers. [`window`] goes beyond the paper: it
//! restricts any protocol to the **last `W` elements** (sliding-window
//! tracking) by running epoch-restarted copies under an
//! exponential-histogram of digests.
//!
//! ## Example
//!
//! The deterministic count baseline, whose `(1+ε)` guarantee holds
//! unconditionally at every time instant:
//!
//! ```
//! use dtrack_core::count::DeterministicCount;
//! use dtrack_core::TrackingConfig;
//! use dtrack_sim::Runner;
//!
//! let proto = DeterministicCount::new(TrackingConfig::new(8, 0.1));
//! let mut r = Runner::new(&proto, /* seed */ 1);
//! for t in 0..10_000u64 {
//!     r.feed((t % 8) as usize, &t);
//! }
//! let est = r.coord().estimate();
//! assert!(est <= 10_000.0 && 10_000.0 <= est * 1.1 + 1e-9);
//! ```

#![forbid(unsafe_code)]

pub mod boost;
pub mod coarse;
pub mod config;
pub mod count;
pub mod frequency;
pub mod query;
pub mod rank;
pub mod reduction;
pub mod sampling;
pub mod topology;
pub mod window;

pub use config::TrackingConfig;
