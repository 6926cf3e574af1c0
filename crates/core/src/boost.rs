//! Median boosting: from "correct at any one time" to "correct at all
//! times" (§1.2).
//!
//! The randomized protocols guarantee error ≤ εn *at any one given time
//! instant* with probability ≥ 0.9. Since the answer may be reused until
//! `n` grows by a `(1+ε)` factor, correctness at all times reduces to
//! correctness at `O(1/ε·logN)` instants; running `m` independent copies
//! and answering with the median drives the failure probability down to
//! `exp(−Ω(m))` per instant, so `m = O(log(logN/(δε)))` copies suffice
//! for failure probability δ over the whole execution.
//!
//! [`Replicated`] wraps any [`Protocol`] to run `m` independent copies
//! over the same element stream, tagging every message with its copy
//! index (one extra word — accounted).

use dtrack_sim::rng::instance_seed;
use dtrack_sim::{Coordinator, Net, Outbox, Protocol, Site, SiteId};

/// Number of copies needed for failure probability `delta` over a whole
/// tracking period of final count `n_final` with parameter ε, assuming
/// each copy fails a given instant with probability ≤ 0.1 (median
/// Chernoff bound with margin 0.4).
pub fn copies_needed(delta: f64, epsilon: f64, n_final: u64) -> usize {
    assert!(delta > 0.0 && delta < 1.0);
    let instants = ((n_final.max(2) as f64).ln() / epsilon).max(1.0);
    let m = (instants / delta).ln() / 0.32;
    (m.ceil() as usize).max(1) | 1 // odd, ≥ 1
}

/// Median of a set of values (average of the middle two when even).
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty());
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `m` independent copies of a protocol, answering with medians.
#[derive(Debug, Clone)]
pub struct Replicated<P> {
    inner: P,
    copies: usize,
}

impl<P: Protocol> Replicated<P> {
    /// Run `copies` independent copies of `inner`.
    pub fn new(inner: P, copies: usize) -> Self {
        assert!(copies >= 1);
        Self { inner, copies }
    }
}

/// Site state: one sub-site per copy.
#[derive(Debug)]
pub struct ReplicatedSite<S: Site> {
    subs: Vec<S>,
    scratch: Outbox<S::Up>,
}

impl<S: Site> Site for ReplicatedSite<S> {
    type Item = S::Item;
    type Up = (u64, S::Up);
    type Down = (u64, S::Down);

    fn on_item(&mut self, item: &S::Item, out: &mut Outbox<(u64, S::Up)>) {
        for (c, sub) in self.subs.iter_mut().enumerate() {
            sub.on_item(item, &mut self.scratch);
            for up in self.scratch.drain() {
                out.send((c as u64, up));
            }
        }
    }

    fn on_message(&mut self, msg: &(u64, S::Down), out: &mut Outbox<(u64, S::Up)>) {
        let (c, down) = msg;
        let c = *c as usize;
        self.subs[c].on_message(down, &mut self.scratch);
        for up in self.scratch.drain() {
            out.send((c as u64, up));
        }
    }

    fn space_words(&self) -> u64 {
        self.subs.iter().map(S::space_words).sum()
    }
}

/// Coordinator state: one sub-coordinator per copy.
#[derive(Debug, Clone)]
pub struct ReplicatedCoord<C: Coordinator> {
    subs: Vec<C>,
    scratch: Net<C::Down>,
}

impl<C: Coordinator> ReplicatedCoord<C> {
    /// The sub-coordinators, for copy-level inspection.
    pub fn copies(&self) -> &[C] {
        &self.subs
    }

    /// Median of a per-copy estimate over all copies.
    pub fn median_by<F: Fn(&C) -> f64>(&self, f: F) -> f64 {
        median(self.subs.iter().map(f).collect())
    }
}

impl<C: Coordinator> Coordinator for ReplicatedCoord<C> {
    type Up = (u64, C::Up);
    type Down = (u64, C::Down);

    fn on_message(&mut self, from: SiteId, msg: &(u64, C::Up), net: &mut Net<(u64, C::Down)>) {
        let (c, up) = msg;
        let ci = *c as usize;
        self.subs[ci].on_message(from, up, &mut self.scratch);
        for (dest, down) in self.scratch.drain() {
            match dest {
                dtrack_sim::Dest::Site(to) => net.send(to, (*c, down)),
                dtrack_sim::Dest::Broadcast => net.broadcast((*c, down)),
            }
        }
    }
}

/// Copy `c`'s inner instance is seeded by [`instance_seed`], so the
/// copies' randomness streams are independent.
impl<P: Protocol> Protocol for Replicated<P> {
    type Site = ReplicatedSite<P::Site>;
    type Coord = ReplicatedCoord<P::Coord>;

    fn k(&self) -> usize {
        self.inner.k()
    }

    /// Site `me`'s sub-site of every copy.
    fn build_site(&self, master_seed: u64, me: SiteId) -> Self::Site {
        let subs = (0..self.copies as u64)
            .map(|c| self.inner.build_site(instance_seed(master_seed, c), me))
            .collect();
        ReplicatedSite {
            subs,
            scratch: Outbox::new(),
        }
    }

    fn build_coord(&self, master_seed: u64) -> Self::Coord {
        let subs = (0..self.copies as u64)
            .map(|c| self.inner.build_coord(instance_seed(master_seed, c)))
            .collect();
        ReplicatedCoord {
            subs,
            scratch: Net::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrackingConfig;
    use crate::count::RandomizedCount;
    use dtrack_sim::Runner;

    #[test]
    fn median_values() {
        assert_eq!(median(vec![3.0]), 3.0);
        assert_eq!(median(vec![5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn copies_needed_is_small_and_odd() {
        let m = copies_needed(0.01, 0.01, 1_000_000_000);
        assert!(m % 2 == 1);
        assert!((5..=60).contains(&m), "m = {m}");
        assert!(copies_needed(0.1, 0.1, 1000) >= 1);
    }

    #[test]
    fn replicated_count_is_correct_at_all_times() {
        // The headline claim: with the median of m copies, the estimate is
        // within εn at EVERY time instant of the run.
        let (k, eps, n, m) = (8, 0.15, 40_000u64, 9);
        let proto = Replicated::new(RandomizedCount::new(TrackingConfig::new(k, eps)), m);
        let mut r = Runner::new(&proto, 12345);
        let mut violations = 0u32;
        for t in 0..n {
            r.feed((t % k as u64) as usize, &t);
            if t % 101 == 0 {
                let est = r.coord().median_by(|c| c.estimate());
                if (est - (t + 1) as f64).abs() > eps * (t + 1) as f64 + 1e-9 {
                    violations += 1;
                }
            }
        }
        assert_eq!(violations, 0, "median estimate violated εn");
    }

    #[test]
    fn replication_multiplies_communication() {
        let (k, eps, n) = (8, 0.2, 20_000u64);
        let single = {
            let p = RandomizedCount::new(TrackingConfig::new(k, eps));
            let mut r = Runner::new(&p, 7);
            for t in 0..n {
                r.feed((t % k as u64) as usize, &t);
            }
            r.stats().total_msgs() as f64
        };
        let tripled = {
            let p = Replicated::new(RandomizedCount::new(TrackingConfig::new(k, eps)), 3);
            let mut r = Runner::new(&p, 7);
            for t in 0..n {
                r.feed((t % k as u64) as usize, &t);
            }
            r.stats().total_msgs() as f64
        };
        assert!(
            tripled > 2.0 * single && tripled < 4.5 * single,
            "single {single} tripled {tripled}"
        );
    }

    #[test]
    fn copy_estimates_are_independent() {
        let (k, eps, n) = (8, 0.1, 30_000u64);
        let proto = Replicated::new(RandomizedCount::new(TrackingConfig::new(k, eps)), 5);
        let mut r = Runner::new(&proto, 99);
        for t in 0..n {
            r.feed((t % k as u64) as usize, &t);
        }
        let ests: Vec<f64> = r.coord().copies().iter().map(|c| c.estimate()).collect();
        // With p < 1 the copies should not all coincide exactly.
        let distinct = ests.iter().filter(|&&e| (e - ests[0]).abs() > 1e-9).count();
        assert!(distinct >= 1, "copies look identical: {ests:?}");
    }
}
