//! Frequency-tracking (heavy hitters): estimate any `f_j` within `±εn`
//! at all times (§3).
//!
//! * [`RandomizedFrequency`] — the paper's contribution (Theorem 3.1):
//!   `O(√k/ε·logN)` communication and `O(1/(ε√k))` space per site — less
//!   than the `Ω(1/ε)` streaming lower bound, which is achievable only
//!   because sites may talk to the coordinator mid-stream.
//! * [`DeterministicFrequency`] — the \[29\]-style deterministic baseline:
//!   per-site Misra–Gries plus εn̄/(2k)-granularity counter refresh,
//!   `Θ(k/ε·logN)` communication, `O(1/ε)` space.
//!
//! [`topk::TopK`] layers Babcock–Olston-style continuous top-k
//! monitoring (\[3\]) on the frequency oracle.

mod deterministic;
mod randomized;
pub mod topk;

pub use deterministic::{DetFreqCoord, DetFreqSite, DetFreqUp, DeterministicFrequency};
pub use randomized::{
    FreqUp, RandFreqCoord, RandFreqSite, RandomizedFrequency, UncorrectedFrequency,
};
pub use topk::TopK;
