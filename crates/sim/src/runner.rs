//! Deterministic lock-step executor with exact accounting.
//!
//! [`Runner`] enforces the paper's instant-communication semantics: after an
//! element arrives at a site, all induced messages — up to the coordinator,
//! down to sites, and any replies those trigger — are delivered to
//! quiescence before the next element is admitted.

use crate::net::Outbox;
use crate::protocol::{Protocol, Site, SiteId};
use crate::snapshot::QueryHandle;
use crate::stats::{CommStats, SpaceStats};
use crate::step::CoordCore;

/// Safety valve against protocols that ping-pong forever: up → down →
/// reply rounds one element may induce.
const MAX_ROUNDS_PER_EVENT: u32 = 64;

/// Lock-step executor for a tracking protocol.
pub struct Runner<P: Protocol> {
    sites: Vec<P::Site>,
    core: CoordCore<P::Coord>,
    space: SpaceStats,
    /// Scratch buffer reused across events to avoid per-element allocation.
    outbox: Outbox<<P::Site as Site>::Up>,
}

impl<P: Protocol> Runner<P> {
    /// Build a protocol instance and wrap it in a runner. All randomness
    /// derives from `master_seed`.
    pub fn new(protocol: &P, master_seed: u64) -> Self {
        let (sites, coord) = protocol.build(master_seed);
        let k = sites.len();
        assert_eq!(k, protocol.k(), "protocol built wrong number of sites");
        Self {
            sites,
            core: CoordCore::new(coord),
            space: SpaceStats::new(k),
            outbox: Outbox::new(),
        }
    }

    /// Number of sites.
    pub fn k(&self) -> usize {
        self.sites.len()
    }

    /// Communication statistics so far.
    pub fn stats(&self) -> &CommStats {
        self.core.stats()
    }

    /// Peak per-site space so far.
    pub fn space(&self) -> &SpaceStats {
        &self.space
    }

    /// The coordinator, for protocol-specific queries.
    pub fn coord(&self) -> &P::Coord {
        self.core.coord()
    }

    /// A site, for white-box tests.
    pub fn site(&self, id: SiteId) -> &P::Site {
        &self.sites[id]
    }

    /// Deliver one element to `site` and drain all induced communication.
    pub fn feed(&mut self, site: SiteId, item: &<P::Site as Site>::Item) {
        debug_assert!(site < self.sites.len());
        self.core.stats_mut().elements += 1;
        self.sites[site].on_item(item, &mut self.outbox);
        self.space.observe(site, self.sites[site].space_words());
        self.drain_from(site);
        self.core.publish_stale();
    }

    /// Create (or clone) a live-query handle over the
    /// coordinator. Once a handle exists, every element boundary at which
    /// the coordinator applied an update publishes a fresh snapshot epoch
    /// (elements that induce no communication republish nothing — the
    /// snapshot is already current), so readers on other threads lag
    /// ingest by at most one element; [`Runner::publish_now`] (called by
    /// [`crate::AnyExec::quiesce`]) republishes on demand.
    ///
    /// Installing a handle never changes protocol behavior — messages,
    /// words and coordinator state stay bit-identical; the runner merely
    /// clones the coordinator into the snapshot cell when it changed.
    pub fn query_handle(&mut self) -> QueryHandle<P::Coord> {
        self.core.query_handle()
    }

    /// Publish the current coordinator state as a fresh snapshot epoch, if
    /// a live-query handle is installed (no-op otherwise).
    pub fn publish_now(&mut self) {
        self.core.publish();
    }

    /// Batched fast path over [`Runner::feed`]: identical message-level
    /// behavior (each element still drains to quiescence before the next
    /// is admitted), but consecutive same-site elements are coalesced
    /// into one site-local run — the site reference, element counting and
    /// space sampling are amortized over the run instead of paid per
    /// element.
    ///
    /// The only observable difference is that [`Runner::space`] samples a
    /// quiet site at message boundaries and run boundaries rather than
    /// after every element; a transient peak between two quiet elements
    /// of one run is not recorded. Protocol state, messages and words are
    /// bit-identical to the per-element path.
    ///
    /// With a live-query handle installed ([`Runner::query_handle`]) the
    /// batch publishes **at most one** snapshot at its end, not one per
    /// element: the whole batch is a single ingest step, so the
    /// ≤-one-epoch staleness contract is kept without cloning the
    /// coordinator per element. Callers wanting finer live-read
    /// granularity feed in chunks (see `examples/network_monitor.rs`) or
    /// per element.
    pub fn feed_batch(&mut self, batch: &[(SiteId, <P::Site as Site>::Item)]) {
        let n = batch.len();
        let mut i = 0;
        while i < n {
            let site = batch[i].0;
            debug_assert!(site < self.sites.len());
            let run_start = i;
            {
                // Split borrow: the site runs against the shared outbox
                // without re-indexing `sites` per element.
                let site_state = &mut self.sites[site];
                while i < n && batch[i].0 == site {
                    site_state.on_item(&batch[i].1, &mut self.outbox);
                    i += 1;
                    if !self.outbox.is_empty() {
                        break; // this element communicates: drain now
                    }
                }
            }
            self.core.stats_mut().elements += (i - run_start) as u64;
            self.space.observe(site, self.sites[site].space_words());
            if !self.outbox.is_empty() {
                self.drain_from(site);
            }
        }
        self.core.publish_stale();
    }

    /// Drain messages starting from `origin`'s outbox until the system is
    /// quiescent. Rounds alternate: each up of a round is applied and its
    /// downs delivered into the sites; their replies are the next round.
    fn drain_from(&mut self, origin: SiteId) {
        let k = self.sites.len();
        let (sites, space, outbox) = (&mut self.sites, &mut self.space, &mut self.outbox);
        // (site, up-message) queues of the current and the next round.
        let mut ups: Vec<(SiteId, <P::Site as Site>::Up)> =
            outbox.drain().map(|m| (origin, m)).collect();
        let mut replies = Vec::new();
        let mut rounds = 0;
        while !ups.is_empty() {
            rounds += 1;
            assert!(
                rounds <= MAX_ROUNDS_PER_EVENT,
                "protocol failed to quiesce within {MAX_ROUNDS_PER_EVENT} rounds"
            );
            for (from, up) in ups.drain(..) {
                self.core.stats_mut().charge_up(&up);
                self.core.apply(k, from, &up, |to, down| {
                    sites[to].on_message(down, outbox);
                    space.observe(to, sites[to].space_words());
                    replies.extend(outbox.drain().map(|m| (to, m)));
                });
            }
            std::mem::swap(&mut ups, &mut replies);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Net;
    use crate::protocol::{Coordinator, Protocol, Site};

    /// Toy protocol: every c-th element triggers an up; every u-th up
    /// triggers a broadcast; sites ack the first broadcast they see.
    struct ToySite {
        count: u64,
        every: u64,
        acked: bool,
    }
    impl Site for ToySite {
        type Item = u64;
        type Up = u64;
        type Down = u64;
        fn on_item(&mut self, _item: &u64, out: &mut Outbox<u64>) {
            self.count += 1;
            if self.count.is_multiple_of(self.every) {
                out.send(self.count);
            }
        }
        fn on_message(&mut self, _msg: &u64, out: &mut Outbox<u64>) {
            if !self.acked {
                self.acked = true;
                out.send(u64::MAX);
            }
        }
        fn space_words(&self) -> u64 {
            3
        }
    }
    #[derive(Clone)]
    struct ToyCoord {
        ups: u64,
        per_broadcast: u64,
    }
    impl Coordinator for ToyCoord {
        type Up = u64;
        type Down = u64;
        fn on_message(&mut self, _from: SiteId, msg: &u64, net: &mut Net<u64>) {
            if *msg == u64::MAX {
                return; // ack; do not re-broadcast
            }
            self.ups += 1;
            if self.ups.is_multiple_of(self.per_broadcast) {
                net.broadcast(self.ups);
            }
        }
    }
    struct Toy {
        k: usize,
    }
    impl Protocol for Toy {
        type Site = ToySite;
        type Coord = ToyCoord;
        fn k(&self) -> usize {
            self.k
        }
        fn build_site(&self, _: u64, _: SiteId) -> ToySite {
            ToySite {
                count: 0,
                every: 2,
                acked: false,
            }
        }
        fn build_coord(&self, _: u64) -> ToyCoord {
            ToyCoord {
                ups: 0,
                per_broadcast: 3,
            }
        }
    }

    #[test]
    fn accounting_counts_ups_downs_and_broadcasts() {
        let p = Toy { k: 4 };
        let mut r = Runner::new(&p, 0);
        // 12 elements round-robin: each site gets 3, so sites 0..3 send at
        // their 2nd element → 4 ups total; the 3rd up triggers a broadcast.
        for i in 0..12u64 {
            r.feed((i % 4) as usize, &i);
        }
        assert_eq!(r.stats().elements, 12);
        // ups: 4 threshold ups + 4 acks from the broadcast round.
        assert_eq!(r.stats().up_msgs, 8);
        assert_eq!(r.stats().broadcast_events, 1);
        assert_eq!(r.stats().down_msgs, 4); // one broadcast × k
        assert_eq!(r.stats().down_words, 4);
        assert_eq!(r.space().max_peak(), 3);
    }

    #[test]
    fn feed_batch_matches_per_element_feed() {
        let p = Toy { k: 4 };
        let mut one = Runner::new(&p, 0);
        let mut batched = Runner::new(&p, 0);
        // Runs of 8 per site, wrapping over all 4 sites: exercises both
        // the same-site coalescing and the message-boundary drains.
        let batch: Vec<(usize, u64)> = (0..64u64).map(|i| (((i / 8) % 4) as usize, i)).collect();
        for (s, v) in &batch {
            one.feed(*s, v);
        }
        batched.feed_batch(&batch);
        assert_eq!(one.stats(), batched.stats());
        assert_eq!(one.space().max_peak(), batched.space().max_peak());
    }

    #[test]
    #[should_panic(expected = "quiesce")]
    fn runaway_protocols_are_detected() {
        struct LoopSite;
        impl Site for LoopSite {
            type Item = u64;
            type Up = u64;
            type Down = u64;
            fn on_item(&mut self, _: &u64, out: &mut Outbox<u64>) {
                out.send(0);
            }
            fn on_message(&mut self, _: &u64, out: &mut Outbox<u64>) {
                out.send(0); // always replies → infinite ping-pong
            }
            fn space_words(&self) -> u64 {
                1
            }
        }
        #[derive(Clone)]
        struct LoopCoord;
        impl Coordinator for LoopCoord {
            type Up = u64;
            type Down = u64;
            fn on_message(&mut self, from: SiteId, _: &u64, net: &mut Net<u64>) {
                net.send(from, 0);
            }
        }
        struct Looping;
        impl Protocol for Looping {
            type Site = LoopSite;
            type Coord = LoopCoord;
            fn k(&self) -> usize {
                1
            }
            fn build_site(&self, _: u64, _: SiteId) -> LoopSite {
                LoopSite
            }
            fn build_coord(&self, _: u64) -> LoopCoord {
                LoopCoord
            }
        }
        let mut r = Runner::new(&Looping, 0);
        r.feed(0, &1);
    }
}
