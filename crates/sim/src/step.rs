//! The coordinator step, once: [`CoordCore`].
//!
//! Applying an up is the same wherever a coordinator runs —
//! [`Coordinator::on_message`], each resulting down charged by the model's
//! two rules (a message costs its words, a broadcast `k ×`:
//! [`CommStats::charge_down`]) and expanded into one delivery per site, the
//! live-query snapshot marked stale. [`crate::Runner`],
//! [`crate::exec::EventRuntime`] and [`crate::transport::CoordHalf`] each
//! hold one core and supply only policy: where a down goes (`deliver`),
//! where an up is charged ([`CommStats::charge_up`], on send or on
//! receipt) and when the snapshot is published.

use crate::net::Net;
use crate::protocol::{Coordinator, SiteId};
use crate::snapshot::{LiveQuery, QueryHandle};
use crate::stats::CommStats;

/// A coordinator with what every driver keeps beside it: the scratch
/// [`Net`], the run's [`CommStats`] and the [`LiveQuery`] hook.
pub struct CoordCore<C: Coordinator> {
    coord: C,
    net: Net<C::Down>,
    stats: CommStats,
    live: LiveQuery<C>,
}

impl<C: Coordinator> CoordCore<C> {
    /// Wrap a built coordinator.
    pub fn new(coord: C) -> Self {
        Self {
            coord,
            net: Net::new(),
            stats: CommStats::default(),
            live: LiveQuery::default(),
        }
    }

    /// Apply one up from `from` among `k` sites: run the coordinator,
    /// charge each down as sent, hand `deliver` one `(site, down)` per
    /// receiving site in send order, mark the snapshot stale. The up
    /// itself is the caller's to charge.
    pub fn apply(
        &mut self,
        k: usize,
        from: SiteId,
        up: &C::Up,
        mut deliver: impl FnMut(SiteId, &C::Down),
    ) {
        self.coord.on_message(from, up, &mut self.net);
        for (dest, down) in self.net.drain() {
            self.stats.charge_down(&down, dest, k);
            for to in dest.targets(k) {
                deliver(to, &down);
            }
        }
        self.live.mark_stale();
    }

    /// The coordinator state.
    pub fn coord(&self) -> &C {
        &self.coord
    }

    /// The run's accounting.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// The accounting, for what a driver charges itself: elements, ups.
    pub fn stats_mut(&mut self) -> &mut CommStats {
        &mut self.stats
    }

    /// Consume the core, yielding the coordinator and its accounting.
    pub fn into_parts(self) -> (C, CommStats) {
        (self.coord, self.stats)
    }

    /// Create (or clone) the live-query handle ([`LiveQuery::handle`]).
    pub fn query_handle(&mut self) -> QueryHandle<C> {
        self.live.handle(&self.coord)
    }

    /// Applies since the last publish.
    pub fn stale(&self) -> u32 {
        self.live.stale()
    }

    /// Publish the coordinator as a fresh snapshot epoch.
    pub fn publish(&mut self) {
        self.live.publish(&self.coord);
    }

    /// Publish if an apply happened since the last publish.
    pub fn publish_stale(&mut self) {
        self.live.publish_stale(&self.coord);
    }
}
