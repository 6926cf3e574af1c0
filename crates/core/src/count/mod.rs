//! Count-tracking: maintain `n̂ ≈ Σᵢ nᵢ` at all times (§2).
//!
//! * [`RandomizedCount`] — the paper's contribution (Theorem 2.1):
//!   `O(√k/ε·logN)` communication, `O(1)` space per site, two-way.
//! * [`DeterministicCount`] — the trivial `(1+ε)`-threshold algorithm,
//!   `Θ(k/ε·logN)` communication, one-way; optimal among deterministic
//!   algorithms \[29\] and among all one-way algorithms (Theorem 2.2).

mod deterministic;
mod randomized;

pub use deterministic::{DetCountCoord, DetCountSite, DetCountUp, DeterministicCount};
pub use randomized::{CountUp, RandCountCoord, RandCountSite, RandomizedCount};
