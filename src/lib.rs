//! # dtrack — randomized distributed tracking
//!
//! A complete implementation of Huang, Yi, Zhang, *Randomized Algorithms
//! for Tracking Distributed Count, Frequencies, and Ranks* (PODS 2012):
//! continuous tracking protocols in the k-sites-plus-coordinator model
//! that beat the deterministic communication optima by a `√k` factor
//! using unbiased per-site estimators.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`core`]: the protocols — randomized count / frequency / rank
//!   tracking, their deterministic baselines, the continuous-sampling
//!   baseline, median boosting, and the frequency-from-rank reduction.
//! * [`sim`]: the model substrate — sites, coordinator, exact message and
//!   word accounting, a deterministic lock-step runner and a concurrent
//!   channel runtime.
//! * [`sketch`]: per-site streaming summaries (sticky sampling,
//!   Greenwald–Khanna, KLL).
//! * [`workload`]: synthetic stream generators, including the paper's
//!   adversarial lower-bound inputs.
//! * [`bounds`]: empirical demonstrators for the lower bounds.
//!
//! ## Quickstart
//!
//! ```
//! use dtrack::core::count::RandomizedCount;
//! use dtrack::core::TrackingConfig;
//! use dtrack::sim::Runner;
//!
//! // 16 sites, 5% error target.
//! let protocol = RandomizedCount::new(TrackingConfig::new(16, 0.05));
//! let mut runner = Runner::new(&protocol, /* seed */ 7);
//!
//! // Elements arrive at arbitrary sites at arbitrary times…
//! for t in 0..100_000u64 {
//!     runner.feed((t % 16) as usize, &t);
//! }
//!
//! // …and the coordinator can answer at ANY time.
//! let estimate = runner.coord().estimate();
//! assert!((estimate - 100_000.0).abs() <= 0.05 * 100_000.0);
//!
//! // Communication is Θ(√k/ε·logN), far below the deterministic optimum.
//! println!("messages: {}", runner.stats().total_msgs());
//! ```

#![forbid(unsafe_code)]

pub use dtrack_bounds as bounds;
pub use dtrack_core as core;
pub use dtrack_sim as sim;
pub use dtrack_sketch as sketch;
pub use dtrack_workload as workload;
