//! # dtrack-bounds — empirical lower-bound demonstrators
//!
//! The paper's lower bounds (§2.2, Appendix A) are information-theoretic;
//! this crate makes them *measurable*:
//!
//! * [`hypergeometric`] — exact sampling from the hypergeometric
//!   distribution (the probe-count distribution in the sampling problem).
//! * [`sampling_problem`] — Claim A.1 / Figure 1: distinguishing
//!   `s = k/2 + √k` from `s = k/2 − √k` by probing `z` sites fails with
//!   probability ≈ 1/2 unless `z = Ω(k)`.
//! * [`one_bit`] — Definition 2.1: the primitive communication problem
//!   behind Theorem 2.4's `Ω(√k/ε·logN)` bound.
//! * [`one_way`] — Theorem 2.2: the threshold structure of one-way
//!   protocols and the accuracy/communication trade-off they are locked
//!   into under the hard distribution µ.
//!
//! ## Example
//!
//! Figure 1 in miniature — probing few sites barely beats guessing, and
//! more probes monotonically help:
//!
//! ```
//! use dtrack_bounds::SamplingProblem;
//!
//! let p = SamplingProblem::new(1_024);
//! let few = p.failure_rate(32, 200, 1);
//! let many = p.failure_rate(768, 200, 1);
//! assert!(few > 0.25);
//! assert!(many < few);
//! ```

#![forbid(unsafe_code)]

pub mod hypergeometric;
pub mod one_bit;
pub mod one_way;
pub mod sampling_problem;

pub use one_bit::OneBitInstance;
pub use one_way::OneWayThresholds;
pub use sampling_problem::SamplingProblem;
