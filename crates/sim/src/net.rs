//! Message sinks handed to protocol callbacks.
//!
//! Sites write upstream messages into an [`Outbox`]; the coordinator writes
//! downstream messages (unicast or broadcast) into a [`Net`]. The runtimes
//! own delivery and accounting, so protocol code never touches channels or
//! statistics directly.

use crate::protocol::SiteId;

/// Upstream sink: messages a site wants delivered to the coordinator.
#[derive(Debug)]
pub struct Outbox<U> {
    msgs: Vec<U>,
}

impl<U> Default for Outbox<U> {
    fn default() -> Self {
        Self { msgs: Vec::new() }
    }
}

impl<U> Outbox<U> {
    /// Create an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a message for the coordinator.
    pub fn send(&mut self, msg: U) {
        self.msgs.push(msg);
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Drain queued messages (used by runtimes).
    pub fn drain(&mut self) -> std::vec::Drain<'_, U> {
        self.msgs.drain(..)
    }
}

/// Destination of a downstream message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// A single site.
    Site(SiteId),
    /// All `k` sites; charged `k` messages per the model.
    Broadcast,
}

impl Dest {
    /// The sites a send to this destination reaches, among `k`.
    pub fn targets(self, k: usize) -> std::ops::Range<SiteId> {
        match self {
            Dest::Site(to) => to..to + 1,
            Dest::Broadcast => 0..k,
        }
    }
}

/// Downstream sink: messages the coordinator wants delivered to sites.
/// `Clone` lets coordinators that embed a scratch `Net` (and the windowed
/// adapter's `WinCoord`) be cloned into live-query snapshots.
#[derive(Debug, Clone)]
pub struct Net<D> {
    msgs: Vec<(Dest, D)>,
}

impl<D> Default for Net<D> {
    fn default() -> Self {
        Self { msgs: Vec::new() }
    }
}

impl<D> Net<D> {
    /// Create an empty downstream sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a unicast message to one site.
    pub fn send(&mut self, to: SiteId, msg: D) {
        self.msgs.push((Dest::Site(to), msg));
    }

    /// Queue a broadcast to all sites (costs `k` messages).
    pub fn broadcast(&mut self, msg: D) {
        self.msgs.push((Dest::Broadcast, msg));
    }

    /// Number of queued sends (a broadcast counts once here; runtimes
    /// expand it to `k` deliveries).
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Drain queued sends (used by runtimes).
    pub fn drain(&mut self) -> std::vec::Drain<'_, (Dest, D)> {
        self.msgs.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_queues_in_order() {
        let mut o = Outbox::new();
        assert!(o.is_empty());
        o.send(1u64);
        o.send(2u64);
        assert_eq!(o.len(), 2);
        let drained: Vec<u64> = o.drain().collect();
        assert_eq!(drained, vec![1, 2]);
        assert!(o.is_empty());
    }

    #[test]
    fn targets_are_one_site_or_all_k() {
        assert_eq!(Dest::Site(3).targets(5), 3..4);
        assert_eq!(Dest::Broadcast.targets(5), 0..5);
        assert!(Dest::Broadcast.targets(0).is_empty());
    }

    #[test]
    fn net_distinguishes_unicast_and_broadcast() {
        let mut n = Net::new();
        n.send(3, 10u64);
        n.broadcast(20u64);
        assert_eq!(n.len(), 2);
        let drained: Vec<(Dest, u64)> = n.drain().collect();
        assert_eq!(drained[0], (Dest::Site(3), 10));
        assert_eq!(drained[1], (Dest::Broadcast, 20));
    }
}
