//! Sticky sampling counter list (Manku–Motwani, paper reference \[18\]).
//!
//! The structure at the heart of the randomized frequency-tracking
//! protocol (§3.1 of the paper): when element `j` arrives,
//!
//! * if a counter `c_j` exists, it is incremented (exactly);
//! * otherwise a counter is *created with probability `p`*, initialized
//!   to 1.
//!
//! The expected number of counters is `O(p·n)`. Untracked arrivals use a
//! geometric skip sampler, so processing is O(1) amortized.

use rand::Rng;

use crate::hash::FastMap;

/// Outcome of observing one element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StickyEvent {
    /// A counter was created (value 1). The protocol reports this
    /// immediately (§3.1: "the site reports the counter … when it is first
    /// added … with an initial value of 1").
    Created,
    /// An existing counter was incremented to the contained value.
    Incremented(u64),
    /// The element is not tracked and the creation coin came up tails.
    Ignored,
}

/// Sampled counter list with creation probability `p`.
#[derive(Debug, Clone)]
pub struct StickyCounters {
    counters: FastMap<u64, u64>,
    p: f64,
    n: u64,
}

impl StickyCounters {
    /// Create an empty list with creation probability `p ∈ [0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        Self {
            counters: FastMap::default(),
            p,
            n: 0,
        }
    }

    /// Process one element.
    // `#[inline]`: this is the frequency sites' per-element step; without
    // the hint, whether it inlines into `RandFreqSite::on_item` depends on
    // how the calling crate's codegen units happen to be partitioned.
    #[inline]
    pub fn observe<R: Rng>(&mut self, item: u64, rng: &mut R) -> StickyEvent {
        self.n += 1;
        if let Some(c) = self.counters.get_mut(&item) {
            *c += 1;
            return StickyEvent::Incremented(*c);
        }
        if crate::sampling::coin(rng, self.p) {
            self.counters.insert(item, 1);
            StickyEvent::Created
        } else {
            StickyEvent::Ignored
        }
    }

    /// Current counter of `item`, if tracked.
    pub fn counter(&self, item: u64) -> Option<u64> {
        self.counters.get(&item).copied()
    }

    /// Creation probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Elements observed.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of live counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether no counters are live.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Drop all counters and reset the stream length (used when the
    /// protocol starts a new round from scratch, §3.1).
    pub fn clear(&mut self) {
        self.counters.clear();
        self.n = 0;
    }

    /// Resident size in words (two words per counter).
    pub fn space_words(&self) -> u64 {
        2 * self.counters.len() as u64 + 3
    }

    /// Iterate over `(item, counter)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counters.iter().map(|(&i, &c)| (i, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn p_one_tracks_everything_exactly() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut s = StickyCounters::new(1.0);
        for x in [1u64, 2, 1, 1, 3, 2] {
            s.observe(x, &mut rng);
        }
        assert_eq!(s.counter(1), Some(3));
        assert_eq!(s.counter(2), Some(2));
        assert_eq!(s.counter(3), Some(1));
        assert_eq!(s.n(), 6);
    }

    #[test]
    fn p_zero_tracks_nothing() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut s = StickyCounters::new(0.0);
        for x in 0..100u64 {
            assert_eq!(s.observe(x, &mut rng), StickyEvent::Ignored);
        }
        assert!(s.is_empty());
    }

    #[test]
    fn counter_is_exact_after_creation() {
        // Once created, a counter counts every subsequent occurrence.
        let mut rng = SmallRng::seed_from_u64(3);
        let mut s = StickyCounters::new(0.5);
        let mut seen_after_create = 0;
        let mut created = false;
        for _ in 0..1000 {
            match s.observe(7, &mut rng) {
                StickyEvent::Created => {
                    created = true;
                    seen_after_create = 1;
                }
                StickyEvent::Incremented(c) => {
                    assert!(created);
                    seen_after_create += 1;
                    assert_eq!(c, seen_after_create);
                }
                StickyEvent::Ignored => assert!(!created),
            }
        }
        assert!(created, "p=0.5 must create within 1000 trials");
    }

    #[test]
    fn expected_size_is_about_p_n_for_distinct_stream() {
        let mut rng = SmallRng::seed_from_u64(4);
        let p = 0.01;
        let mut s = StickyCounters::new(p);
        let n = 100_000u64;
        for x in 0..n {
            s.observe(x, &mut rng); // all distinct → size ~ Binomial(n, p)
        }
        let expect = p * n as f64;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        let len = s.len() as f64;
        assert!(
            (len - expect).abs() < 6.0 * sd,
            "len {len}, expect {expect}±{sd}"
        );
    }

    #[test]
    fn clear_resets() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut s = StickyCounters::new(1.0);
        s.observe(1, &mut rng);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.n(), 0);
    }
}
