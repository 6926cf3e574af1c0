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
pub trait Protocol {
    /// Site state machine type.
    type Site: Site;
    /// Coordinator state machine type, message-compatible with the sites.
    type Coord: Coordinator<Up = <Self::Site as Site>::Up, Down = <Self::Site as Site>::Down>;

    /// Number of sites `k`.
    fn k(&self) -> usize;

    /// Construct the `k` sites and the coordinator. `master_seed` fully
    /// determines all protocol randomness (each site derives an
    /// independent stream from it — see [`crate::rng::site_seed`]).
    fn build(&self, master_seed: u64) -> (Vec<Self::Site>, Self::Coord);

    /// Construct site `me`'s state alone — **bit-identical** to the
    /// corresponding element of [`Protocol::build`]`(master_seed).0`.
    ///
    /// Epoch-restarting adapters (`dtrack_core::window::Windowed`) rebuild
    /// one site's inner instance at every epoch seal; going through
    /// `build` there costs `O(k)` constructions per site and `O(k²)`
    /// across the system per seal. Protocols whose sites are seeded
    /// independently (all seven Table-1 protocols are — each site draws
    /// from `site_seed(master_seed, i, …)`) override this with a direct
    /// `O(1)` constructor.
    ///
    /// The default falls back to a full `build` and extracts site `me`,
    /// which is always correct but keeps the quadratic cost.
    ///
    /// # Panics
    ///
    /// Panics if `me ≥ k()`.
    fn build_site(&self, master_seed: u64, me: SiteId) -> Self::Site {
        let (sites, _) = self.build(master_seed);
        let k = sites.len();
        sites
            .into_iter()
            .nth(me)
            .unwrap_or_else(|| panic!("site index {me} out of range for k = {k}"))
    }

    /// Construct the coordinator's state alone — **bit-identical** to
    /// [`Protocol::build`]`(master_seed).1`.
    ///
    /// The epoch-seal counterpart of [`Protocol::build_site`]: the
    /// windowed coordinator opens a fresh inner coordinator per epoch and
    /// must not pay for `k` discarded site constructions each time. The
    /// default falls back to a full `build`.
    fn build_coord(&self, master_seed: u64) -> Self::Coord {
        self.build(master_seed).1
    }
}
