//! The answer surface: what a coordinator can be asked, whichever
//! protocol — or protocol wrapper — produced it.
//!
//! One trait per tracked function of the paper (§2 count, §3
//! frequencies, §4 ranks). Each Table-1 coordinator implements the trait
//! of its problem and [`SamplingCoord`] all three; the wrappers forward
//! to the answer their scenario defines — [`WinCoord`] to the
//! sliding-window estimate, [`TreeCoord`] to its root. A driver that is
//! generic over the protocol (`dtrack-bench`'s `measure::run`,
//! `examples/quickstart`) therefore writes each query once.

use dtrack_sim::{TreeCoord, TreeProtocol};

use crate::count::{DetCountCoord, RandCountCoord};
use crate::frequency::{DetFreqCoord, RandFreqCoord};
use crate::rank::{DetRankCoord, RandRankCoord};
use crate::sampling::SamplingCoord;
use crate::window::{CountDigest, EpochProtocol, FrequencyDigest, RankDigest, WinCoord};

/// Anything that answers count queries.
pub trait CountQuery {
    /// Estimate of `n(t) = |A(t)|`.
    fn count(&self) -> f64;
}

/// Anything that answers per-item frequency queries.
pub trait FrequencyQuery {
    /// Estimate of the number of occurrences of `item` in `A(t)`.
    fn frequency(&self, item: u64) -> f64;
}

/// Anything that answers rank queries.
pub trait RankQuery {
    /// Estimate of `|{e ∈ A(t) : e < x}|`.
    fn rank(&self, x: u64) -> f64;
}

/// Forward each trait method to the coordinator's inherent estimator.
macro_rules! answers {
    ($($coord:ty: $tr:ident::$m:ident($($x:ident)?) = $inherent:ident;)+) => {$(
        impl $tr for $coord {
            fn $m(&self $(, $x: u64)?) -> f64 {
                self.$inherent($($x)?)
            }
        }
    )+};
}

answers! {
    RandCountCoord: CountQuery::count() = estimate;
    DetCountCoord: CountQuery::count() = estimate;
    SamplingCoord: CountQuery::count() = estimate_count;
    RandFreqCoord: FrequencyQuery::frequency(item) = estimate_frequency;
    DetFreqCoord: FrequencyQuery::frequency(item) = estimate_frequency;
    SamplingCoord: FrequencyQuery::frequency(item) = estimate_frequency;
    RandRankCoord: RankQuery::rank(x) = estimate_rank;
    DetRankCoord: RankQuery::rank(x) = estimate_rank;
    SamplingCoord: RankQuery::rank(x) = estimate_rank;
}

/// The same forwarding for the two wrappers: a windowed coordinator
/// answers over the last `W` elements when its digests can, a tree
/// answers at its root when the wrapped coordinator can.
macro_rules! wrapped_answers {
    ($($tr:ident::$m:ident($($x:ident)?): $digest:ident => $windowed:ident;)+) => {$(
        impl<P: EpochProtocol> $tr for WinCoord<P>
        where
            P::Digest: $digest,
        {
            fn $m(&self $(, $x: u64)?) -> f64 {
                self.$windowed($($x)?)
            }
        }

        impl<P: TreeProtocol> $tr for TreeCoord<P>
        where
            P::Coord: $tr,
        {
            fn $m(&self $(, $x: u64)?) -> f64 {
                self.root().$m($($x)?)
            }
        }
    )+};
}

wrapped_answers! {
    CountQuery::count(): CountDigest => windowed_count;
    FrequencyQuery::frequency(item): FrequencyDigest => windowed_frequency;
    RankQuery::rank(x): RankDigest => windowed_rank;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::RandomizedCount;
    use crate::frequency::DeterministicFrequency;
    use crate::rank::RandomizedRank;
    use crate::sampling::ContinuousSampling;
    use crate::window::Windowed;
    use crate::TrackingConfig;
    use dtrack_sim::{Protocol, Runner, Tree, TreeSpec};

    const K: usize = 4;

    /// Feed 5000 skewed items round-robin and hand back the coordinator.
    fn coord_of<P: Protocol>(proto: &P) -> P::Coord
    where
        P::Site: dtrack_sim::Site<Item = u64>,
    {
        let mut r = Runner::new(proto, 9);
        for t in 0..5_000u64 {
            r.feed((t % K as u64) as usize, &(t * t % 257));
        }
        r.coord().clone()
    }

    #[test]
    fn coordinators_answer_with_their_inherent_estimators() {
        let cfg = TrackingConfig::new(K, 0.1);
        let c = coord_of(&RandomizedCount::new(cfg));
        assert_eq!(c.count().to_bits(), c.estimate().to_bits());
        let f = coord_of(&DeterministicFrequency::new(cfg));
        assert_eq!(f.frequency(4).to_bits(), f.estimate_frequency(4).to_bits());
        let r = coord_of(&RandomizedRank::new(cfg));
        assert_eq!(r.rank(100).to_bits(), r.estimate_rank(100).to_bits());
        let s = coord_of(&ContinuousSampling::new(cfg));
        assert_eq!(s.count().to_bits(), s.estimate_count().to_bits());
        assert_eq!(s.frequency(4).to_bits(), s.estimate_frequency(4).to_bits());
        assert_eq!(s.rank(100).to_bits(), s.estimate_rank(100).to_bits());
    }

    #[test]
    fn a_windowed_coordinator_answers_over_the_window() {
        let cfg = TrackingConfig::new(K, 0.1);
        let c = coord_of(&Windowed::new(RandomizedCount::new(cfg), 1_024));
        assert_eq!(c.count().to_bits(), c.windowed_count().to_bits());
        assert!(c.count() < 2_048.0, "not the whole-stream count");
        let f = coord_of(&Windowed::new(DeterministicFrequency::new(cfg), 1_024));
        assert_eq!(f.frequency(4).to_bits(), f.windowed_frequency(4).to_bits());
        let r = coord_of(&Windowed::new(RandomizedRank::new(cfg), 1_024));
        assert_eq!(r.rank(100).to_bits(), r.windowed_rank(100).to_bits());
    }

    #[test]
    fn a_tree_coordinator_answers_at_its_root() {
        let cfg = TrackingConfig::new(K, 0.1);
        let spec = TreeSpec::new(2).with_depth(2);
        let c = coord_of(&Tree::new(RandomizedCount::new(cfg), spec));
        assert_eq!(c.count().to_bits(), c.root().estimate().to_bits());
        let f = coord_of(&Tree::new(DeterministicFrequency::new(cfg), spec));
        let at_root = f.root().estimate_frequency(4);
        assert_eq!(f.frequency(4).to_bits(), at_root.to_bits());
        let r = coord_of(&Tree::new(RandomizedRank::new(cfg), spec));
        assert_eq!(r.rank(100).to_bits(), r.root().estimate_rank(100).to_bits());
    }
}
