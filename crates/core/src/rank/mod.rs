//! Rank-tracking (quantiles): estimate `rank(x) = |{e ∈ A(t) : e < x}|`
//! within `±εn` at all times (§4).
//!
//! * [`RandomizedRank`] — the paper's contribution (Theorem 4.1):
//!   `O(√k/ε·logN·log^1.5(1/(ε√k)))` communication,
//!   `O(1/(ε√k)·polylog)` space per site.
//! * [`DeterministicRank`] — the Cormode-et-al.-style deterministic
//!   baseline (\[6\]): each site pushes a Greenwald–Khanna summary on
//!   `(1+Θ(ε))` local growth, `O(k/ε²·logN)` communication. (The paper's
//!   own deterministic predecessor \[29\] achieves `O(k/ε·logN·log²(1/ε))`
//!   with a substantially more intricate protocol. Both are linear in
//!   `k`, so the k-vs-√k scaling comparison holds against either; this
//!   baseline's extra `1/ε` inflates the absolute gap — ROADMAP
//!   direction 4 plans the `k/ε` comparator.)

mod deterministic;
mod randomized;

pub use deterministic::{DetRankCoord, DetRankDown, DetRankSite, DetRankUp, DeterministicRank};
pub use randomized::{RandRankCoord, RandRankSite, RandomizedRank, RankUp};
