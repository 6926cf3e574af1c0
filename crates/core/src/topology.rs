//! Replay cursors for hierarchical (tree) aggregation.
//!
//! An aggregator node in a `dtrack_sim::exec::topology::Tree` runs a
//! coordinator over its children and must forward what that coordinator
//! has learned to its own parent — *as a stream*, because the parent
//! level runs the same site/coordinator protocol and its sites only
//! understand `on_item`. The cursors in this module turn a coordinator's
//! mergeable digest ([`crate::window`]: `ScalarCount` / `ItemCounts` /
//! `WeightedValues`) into that replay stream **incrementally**: each
//! call emits only what the digest has gained since the previous call.
//!
//! All three cursors share one invariant, which is what makes the
//! per-level error analysis go through (see the topology module docs in
//! `dtrack_sim`): they only ever emit — replay is a **running-max
//! floor** of the digest. Estimates may wiggle downward between calls;
//! the cursor simply emits nothing until the digest exceeds what was
//! already replayed. Since every tracked truth (total count, per-item
//! frequency, CDF prefix mass) is non-decreasing in the true stream, a
//! running max of an estimate within `±δ` of the truth stays within
//! `±(δ + 1)` of it, the `+1` from integer flooring.
//!
//! Cursor state is `O(digest)` and lives on the aggregator node, not in
//! the messages; nothing here allocates per emitted element.

use std::collections::BTreeMap;

use crate::window::{FrequencyDigest, WeightedValues};

/// Replay cursor over a scalar count estimate (count-tracking trees).
///
/// Each [`ScalarCursor::advance`] emits `max(0, ⌊estimate⌋ − replayed)`
/// elements; the emitted *value* is a meaningless running index (count
/// sites ignore item values).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarCursor {
    replayed: u64,
}

impl ScalarCursor {
    /// Elements replayed so far.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Bring the replayed stream up to `⌊estimate⌋` elements, emitting
    /// the deficit. A shrunken estimate emits nothing (running-max
    /// floor).
    pub fn advance(&mut self, estimate: f64, emit: &mut dyn FnMut(u64)) {
        let target = if estimate.is_finite() && estimate > 0.0 {
            estimate.floor() as u64
        } else {
            0
        };
        while self.replayed < target {
            emit(self.replayed);
            self.replayed += 1;
        }
    }
}

/// Replay cursor over a per-item frequency digest (frequency-tracking
/// trees).
///
/// Tracks, per item, how many copies have been replayed; each
/// [`ItemCursor::advance`] walks the digest's *tracked* items and emits
/// each item's estimate deficit. Items carrying only absent-branch
/// corrections estimate to ≤ 0 and are never emitted — the correction
/// mass is a sampling-bias repair, not observed elements, and replaying
/// "negative elements" is impossible; the per-level floor analysis
/// absorbs the ≤ 1-element gap per item like any other rounding.
#[derive(Debug, Clone, Default)]
pub struct ItemCursor {
    replayed: BTreeMap<u64, u64>,
}

impl ItemCursor {
    /// Total elements replayed so far, across all items.
    pub fn replayed(&self) -> u64 {
        self.replayed.values().sum()
    }

    /// Bring each tracked item's replayed count up to
    /// `⌊digest.frequency(item)⌋`, emitting the deficits (running-max
    /// floor per item).
    pub fn advance(&mut self, digest: &impl FrequencyDigest, emit: &mut dyn FnMut(u64)) {
        for item in digest.items() {
            let est = digest.frequency(item);
            let target = if est.is_finite() && est > 0.0 {
                est.floor() as u64
            } else {
                continue;
            };
            let sent = self.replayed.entry(item).or_insert(0);
            while *sent < target {
                emit(item);
                *sent += 1;
            }
        }
    }
}

/// Replay cursor over a weighted-value CDF digest (rank-tracking
/// trees).
///
/// CDF-matching greedy: walking the value domain in ascending order, it
/// emits copies of each value until the replayed stream's CDF matches
/// `⌊digest CDF⌋` at every digest support point. Matching *prefix
/// masses* rather than per-value masses is what a rank query needs —
/// `rank(x)` only ever reads the CDF — and it lets the replay place
/// mass at existing support values even when the digest's fractional
/// weights (summary points at weight `2^ℓ`, tail samples at `1/p`)
/// never individually round to integers. Duplicate emissions of one
/// value are fine: the receiving sites feed KLL summaries or sorted
/// batches, which handle repeated values by design.
///
/// Like the other cursors this floors monotonically: where the digest
/// CDF has wiggled below what was already replayed, nothing is emitted
/// and the surplus is carried forward (the CDF is matched from below at
/// later values).
#[derive(Debug, Clone, Default)]
pub struct CdfCursor {
    /// value → copies replayed at that value.
    replayed: BTreeMap<u64, u64>,
}

impl CdfCursor {
    /// Total elements replayed so far.
    pub fn replayed(&self) -> u64 {
        self.replayed.values().sum()
    }

    /// Bring the replayed CDF up to `⌊digest CDF⌋` at every support
    /// point, emitting the deficits in ascending value order.
    pub fn advance(&mut self, digest: &WeightedValues, emit: &mut dyn FnMut(u64)) {
        let mut cum_digest = 0.0f64;
        let mut cum_replayed: u64 = 0;
        // Replayed mass strictly below the current digest value must be
        // included in the replayed CDF; walk the two sorted supports in
        // merge order. `pending` iterates the replayed histogram lazily.
        let mut pending = self.replayed.range(..).map(|(&v, &c)| (v, c)).peekable();
        let mut emitted: Vec<(u64, u64)> = Vec::new();
        let mut points = digest.points().iter().peekable();
        while let Some(&&(value, _)) = points.peek() {
            // Fold in all digest mass at exactly this value (points are
            // value-sorted; equal values are adjacent).
            while let Some(&&(v, w)) = points.peek() {
                if v == value {
                    cum_digest += w;
                    points.next();
                } else {
                    break;
                }
            }
            // Fold in replayed mass at values ≤ this value.
            while let Some(&(v, c)) = pending.peek() {
                if v <= value {
                    cum_replayed += c;
                    pending.next();
                } else {
                    break;
                }
            }
            let target = if cum_digest.is_finite() && cum_digest > 0.0 {
                cum_digest.floor() as u64
            } else {
                0
            };
            if target > cum_replayed {
                let deficit = target - cum_replayed;
                for _ in 0..deficit {
                    emit(value);
                }
                emitted.push((value, deficit));
                cum_replayed = target;
            }
        }
        drop(pending);
        for (value, copies) in emitted {
            *self.replayed.entry(value).or_insert(0) += copies;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{ItemCounts, RankDigest};

    #[test]
    fn scalar_cursor_emits_deficits_and_floors_monotonically() {
        let mut c = ScalarCursor::default();
        let mut n = 0u64;
        c.advance(3.9, &mut |_| n += 1);
        assert_eq!(n, 3);
        // Estimate wiggles down: nothing is emitted, nothing unsent.
        c.advance(2.0, &mut |_| n += 1);
        assert_eq!(n, 3);
        c.advance(10.0, &mut |_| n += 1);
        assert_eq!(n, 10);
        assert_eq!(c.replayed(), 10);
        c.advance(f64::NAN, &mut |_| n += 1);
        assert_eq!(n, 10);
    }

    #[test]
    fn item_cursor_replays_per_item_and_skips_corrections() {
        let mut c = ItemCursor::default();
        let d = ItemCounts::with_corrections(
            vec![(7, 2.6), (9, 1.0)],
            vec![(11, -0.5)], // corrections-only item: never emitted
        );
        let mut got: Vec<u64> = Vec::new();
        c.advance(&d, &mut |i| got.push(i));
        got.sort_unstable();
        assert_eq!(got, vec![7, 7, 9]);
        // Growth only emits the per-item deficit.
        let d2 = ItemCounts::from_pairs(vec![(7, 4.2), (9, 0.5), (11, 1.0)]);
        let mut more: Vec<u64> = Vec::new();
        c.advance(&d2, &mut |i| more.push(i));
        more.sort_unstable();
        // 7: 4−2 new copies; 9: floor dropped below 1 → nothing unsent;
        // 11: now tracked with mass 1.
        assert_eq!(more, vec![7, 7, 11]);
        assert_eq!(c.replayed(), 6);
    }

    #[test]
    fn cdf_cursor_matches_prefix_masses_with_fractional_weights() {
        let mut c = CdfCursor::default();
        // Fractional weights that never individually round: CDF is
        // 1.5 / 3.0 / 4.5 at values 10 / 20 / 30.
        let d = WeightedValues::from_points(vec![(10, 1.5), (20, 1.5), (30, 1.5)]);
        let mut got: Vec<u64> = Vec::new();
        c.advance(&d, &mut |v| got.push(v));
        assert_eq!(got, vec![10, 20, 20, 30]); // CDF targets 1, 3, 4
                                               // The replayed stream's rank matches the digest rank within 1.
        let replay = WeightedValues::from_points(got.iter().map(|&v| (v, 1.0)).collect());
        for x in [5, 15, 25, 35] {
            assert!((replay.rank(x) - d.rank(x)).abs() < 1.0 + 1e-9, "x={x}");
        }
        // A second advance over the same digest emits nothing.
        let mut n = 0;
        c.advance(&d, &mut |_| n += 1);
        assert_eq!(n, 0);
        assert_eq!(c.replayed(), 4);
    }

    #[test]
    fn cdf_cursor_carries_surplus_forward_when_cdf_wiggles() {
        let mut c = CdfCursor::default();
        let d1 = WeightedValues::from_points(vec![(10, 3.0)]);
        let mut got: Vec<u64> = Vec::new();
        c.advance(&d1, &mut |v| got.push(v));
        assert_eq!(got, vec![10, 10, 10]);
        // Mass at 10 shrinks, mass appears above: the 3 already-replayed
        // copies at 10 cover the prefix, only the tail deficit is
        // emitted.
        let d2 = WeightedValues::from_points(vec![(10, 1.0), (20, 3.0)]);
        let mut more: Vec<u64> = Vec::new();
        c.advance(&d2, &mut |v| more.push(v));
        assert_eq!(more, vec![20]); // CDF target at 20 is 4, replayed 3
    }
}
