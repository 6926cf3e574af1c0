//! Rank-tracking (quantiles): estimate `rank(x) = |{e ∈ A(t) : e < x}|`
//! within `±εn` at all times (§4).
//!
//! * [`RandomizedRank`] — the paper's contribution (Theorem 4.1):
//!   `O(√k/ε·logN·log^1.5(1/(ε√k)))` communication,
//!   `O(1/(ε√k)·polylog)` space per site.
//! * [`DeterministicRank`] — the deterministic baseline: each site
//!   reports the elements it received since its last report, once, as an
//!   ε-quantised batch; `O(min(n, k/ε²·logN))` communication,
//!   `O(εn/k)` space per site. (Yi–Zhang's deterministic tracker \[29\]
//!   achieves `O(k/ε·logN·log²(1/ε))` with a splitter tree, which wins
//!   only when `1/ε` is well above `log²(1/ε)` times its constants; at
//!   the `ε ≥ 0.01` every experiment uses it does not. Both are linear
//!   in `k`, so the k-vs-√k scaling comparison holds against either.)

mod deterministic;
mod randomized;

pub use deterministic::{DetRankCoord, DetRankSite, DetRankUp, DeterministicRank};
pub use randomized::{RandRankCoord, RandRankSite, RandomizedRank, RankUp};
