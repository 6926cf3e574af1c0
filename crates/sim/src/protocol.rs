//! Traits describing a continuous distributed tracking protocol.

use crate::message::Words;
use crate::net::{Net, Outbox};

/// Identifier of a site, `0..k`.
pub type SiteId = usize;

/// Site-side state machine of a tracking protocol.
///
/// A site reacts to two kinds of events: a stream element arriving
/// ([`Site::on_item`]) and a message from the coordinator
/// ([`Site::on_message`]). Per the model, a site may only send messages in
/// direct reaction to one of these events — there is no spontaneous
/// communication and no clock (paper §2.2).
///
/// A site and its elements are `Send + 'static` because the channel
/// runtime runs every site on a thread of its own and hands it elements
/// through a ring. Messages' bounds are stated on [`Words`]. A tree
/// keeps its aggregators' sites inside the coordinator, so
/// [`TreeProtocol`](crate::exec::topology::TreeProtocol) asks its sites
/// for `Clone + Sync` as well.
pub trait Site: Send + 'static {
    /// Stream element type.
    type Item: Send + 'static;
    /// Site → coordinator message type.
    type Up: Words;
    /// Coordinator → site message type.
    type Down: Words;

    /// Process one arriving stream element, possibly emitting messages.
    fn on_item(&mut self, item: &Self::Item, out: &mut Outbox<Self::Up>);

    /// Process one message from the coordinator, possibly replying.
    fn on_message(&mut self, msg: &Self::Down, out: &mut Outbox<Self::Up>);

    /// Current resident state in words — the quantity the paper's space
    /// bounds refer to. Implementations report the dominant data structure
    /// sizes; O(1) bookkeeping fields may be summarized as a small constant.
    fn space_words(&self) -> u64;
}

/// Coordinator-side state machine of a tracking protocol.
///
/// The coordinator reacts to upstream messages and may unicast or broadcast
/// replies. Queries against the tracked function are protocol-specific
/// methods on the concrete coordinator type (e.g. `estimate()`), not part
/// of this trait, since answering a query is local and free in the model.
///
/// `Send + 'static` because the channel runtime runs the coordinator on
/// a thread of its own; `Clone + Sync` because snapshot readers
/// ([`crate::snapshot`]) answer live queries from clones of it, shared
/// across their threads. Every executor's `query_handle` relies on both.
pub trait Coordinator: Clone + Send + Sync + 'static {
    /// Site → coordinator message type.
    type Up: Words;
    /// Coordinator → site message type.
    type Down: Words;

    /// Process one upstream message, possibly sending replies.
    fn on_message(&mut self, from: SiteId, msg: &Self::Up, net: &mut Net<Self::Down>);
}

/// Factory describing a complete protocol instance over `k` sites.
///
/// Building is separated from running so that experiment harnesses can
/// construct many independent copies (for variance measurement and median
/// boosting) with controlled seeds.
///
/// A protocol states one constructor per node: site `me` is built from
/// `(master_seed, me)` alone (the model's `k` players are independent
/// parties; a randomized site draws from
/// [`site_seed`](crate::rng::site_seed)`(master_seed, me, …)`), the
/// coordinator from `master_seed` alone. [`Protocol::build`] is derived
/// from the two, so the simulators, epoch seals (which rebuild one site)
/// and site processes (which build their own) all see the same state.
pub trait Protocol {
    /// Site state machine type.
    type Site: Site;
    /// Coordinator state machine type, message-compatible with the sites.
    type Coord: Coordinator<Up = <Self::Site as Site>::Up, Down = <Self::Site as Site>::Down>;

    /// Number of sites `k`.
    fn k(&self) -> usize;

    /// Construct site `me < k()` from `master_seed` and `me` alone.
    fn build_site(&self, master_seed: u64, me: SiteId) -> Self::Site;

    /// Construct the coordinator from `master_seed` alone.
    fn build_coord(&self, master_seed: u64) -> Self::Coord;

    /// Construct sites `0..k()`, in order, then the coordinator.
    fn build(&self, master_seed: u64) -> (Vec<Self::Site>, Self::Coord) {
        let sites = (0..self.k())
            .map(|me| self.build_site(master_seed, me))
            .collect();
        (sites, self.build_coord(master_seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// Records every constructor call as `(master_seed, Some(me))` for a
    /// site and `(master_seed, None)` for the coordinator.
    struct Recorder {
        k: usize,
        calls: RefCell<Vec<(u64, Option<SiteId>)>>,
    }

    #[derive(Debug, PartialEq)]
    struct RecSite(SiteId);
    impl Site for RecSite {
        type Item = u64;
        type Up = u64;
        type Down = u64;
        fn on_item(&mut self, _: &u64, _: &mut Outbox<u64>) {}
        fn on_message(&mut self, _: &u64, _: &mut Outbox<u64>) {}
        fn space_words(&self) -> u64 {
            0
        }
    }

    #[derive(Clone)]
    struct RecCoord;
    impl Coordinator for RecCoord {
        type Up = u64;
        type Down = u64;
        fn on_message(&mut self, _: SiteId, _: &u64, _: &mut Net<u64>) {}
    }

    impl Protocol for Recorder {
        type Site = RecSite;
        type Coord = RecCoord;
        fn k(&self) -> usize {
            self.k
        }
        fn build_site(&self, master_seed: u64, me: SiteId) -> RecSite {
            self.calls.borrow_mut().push((master_seed, Some(me)));
            RecSite(me)
        }
        fn build_coord(&self, master_seed: u64) -> RecCoord {
            self.calls.borrow_mut().push((master_seed, None));
            RecCoord
        }
    }

    #[test]
    fn derived_build_calls_each_site_constructor_in_order_then_the_coordinator() {
        let p = Recorder {
            k: 5,
            calls: RefCell::new(Vec::new()),
        };
        let (sites, _) = p.build(7);
        assert_eq!(sites, (0..5).map(RecSite).collect::<Vec<_>>());
        let mut want: Vec<(u64, Option<SiteId>)> = (0..5).map(|me| (7, Some(me))).collect();
        want.push((7, None));
        assert_eq!(*p.calls.borrow(), want);
    }
}
