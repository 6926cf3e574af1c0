//! # dtrack-workload — synthetic stream generators
//!
//! The paper evaluates adversarially (it is a theory paper), so all inputs
//! are synthetic. This crate generates every input regime the theorems
//! reference:
//!
//! * [`items`] — what the elements are: uniform or zipfian multisets for
//!   frequency tracking, duplicate-free pseudorandom sequences for rank
//!   tracking (§4 assumes "A(t) contains no duplicates").
//! * [`assign`] — which site receives each element: round-robin, uniform,
//!   single-site, zipf-skewed, and bursty policies.
//! * [`adversarial`] — the lower-bound constructions: the hard input
//!   distribution µ of Theorem 2.2 and the round/subround instance of
//!   Theorem 2.4.
//! * [`stream`] — glue: an [`stream::Arrival`] iterator combining an item
//!   generator with an assignment policy, plus timed schedules
//!   ([`stream::TimedArrival`], [`stream::Pacing`]) that place the same
//!   arrivals on an explicit timeline for the executors' `feed_at`.
//! * [`scenarios`] — named presets for the sliding-window experiments:
//!   drifting hot sets, their bursty timed variants, and climbing-value
//!   streams with a closed-form windowed rank truth.
//!
//! ## Example
//!
//! ```
//! use dtrack_workload::{UniformItems, UniformSites, Workload};
//!
//! let arrivals =
//!     Workload::new(UniformItems::new(100), UniformSites::new(8), 1_000, 3)
//!         .collect_vec();
//! assert_eq!(arrivals.len(), 1_000);
//! assert!(arrivals.iter().all(|a| a.site < 8 && a.item < 100));
//! ```

#![forbid(unsafe_code)]

pub mod adversarial;
pub mod assign;
pub mod items;
pub mod phased;
pub mod scenarios;
pub mod stream;

pub use adversarial::{MuCase, MuDistribution, SubroundInstance};
pub use assign::{
    AdaptiveSites, Bursty, RoundRobin, SingleSite, SiteAssign, UniformSites, ZipfSites,
};
pub use items::{DistinctSeq, ItemGen, UniformItems, ZipfItems};
pub use phased::{DriftingItems, Sequential};
pub use stream::{Arrival, Pacing, Schedule, TimedArrival, Workload};
