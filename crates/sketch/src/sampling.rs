//! Bernoulli sampling: the coin [`crate::sticky::StickyCounters`] flips
//! to create a counter with probability `p`.

use rand::Rng;

/// One Bernoulli(`p`) coin flip (clamped to \[0,1\]).
#[inline]
pub fn coin<R: Rng>(rng: &mut R, p: f64) -> bool {
    if p >= 1.0 {
        true
    } else if p <= 0.0 {
        false
    } else {
        rng.gen::<f64>() < p
    }
}
