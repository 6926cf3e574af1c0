//! Communication and space accounting.

use crate::message::Words;
use crate::net::Dest;

/// Exact communication statistics for one protocol execution.
///
/// Upper bounds in the paper are stated in words, the lower bounds in
/// messages; we track both, split by direction. A broadcast from the
/// coordinator to all `k` sites is charged as `k` downstream messages
/// (paper §1.1: "broadcasting a message costs k times the communication
/// for a single message"), and additionally counted once in
/// [`CommStats::broadcast_events`].
///
/// This is the only ledger of a run's traffic, charged only through
/// [`CommStats::charge_up`] and [`CommStats::charge_down`]. Charge points:
///
/// * [`Runner`](crate::Runner): ups as applied;
/// * [`EventRuntime`](crate::exec::EventRuntime): ups as sent;
/// * [`CoordHalf`](crate::transport::CoordHalf): ups as received;
/// * [`SiteHalf`](crate::transport::SiteHalf): ups as sent, downs as received;
/// * [`CoordCore`](crate::step::CoordCore): downs as sent;
/// * [`TreeCoord`](crate::TreeCoord): each internal tree link, one
///   `CommStats` per boundary, [merged](CommStats::merge) into a run's total.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CommStats {
    /// Site → coordinator messages.
    pub up_msgs: u64,
    /// Site → coordinator words.
    pub up_words: u64,
    /// Site → coordinator bytes under the wire codec
    /// ([`Words::wire_bytes`]), charged at the same points as words.
    ///
    /// [`Words::wire_bytes`]: crate::message::Words::wire_bytes
    pub up_bytes: u64,
    /// Coordinator → site messages (a broadcast counts `k`).
    pub down_msgs: u64,
    /// Coordinator → site words (a broadcast counts `k × words`).
    pub down_words: u64,
    /// Coordinator → site bytes (a broadcast counts `k × wire_bytes`).
    pub down_bytes: u64,
    /// Number of broadcast *events* (each already charged `k` messages).
    pub broadcast_events: u64,
    /// Total elements fed to the sites.
    pub elements: u64,
}

impl CommStats {
    /// Total messages in both directions.
    pub fn total_msgs(&self) -> u64 {
        self.up_msgs + self.down_msgs
    }

    /// Total words in both directions.
    pub fn total_words(&self) -> u64 {
        self.up_words + self.down_words
    }

    /// Total codec bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.up_bytes + self.down_bytes
    }

    /// Words per element processed — a useful normalized cost.
    pub fn words_per_element(&self) -> f64 {
        if self.elements == 0 {
            0.0
        } else {
            self.total_words() as f64 / self.elements as f64
        }
    }

    /// Charge one site → coordinator message.
    pub fn charge_up<M: Words>(&mut self, msg: &M) {
        self.up_msgs += 1;
        self.up_words += msg.words();
        self.up_bytes += msg.wire_bytes();
    }

    /// Charge one coordinator → site send among `k` sites: a unicast
    /// once, a broadcast `k ×` and as one [`CommStats::broadcast_events`].
    pub fn charge_down<M: Words>(&mut self, msg: &M, dest: Dest, k: usize) {
        if dest == Dest::Broadcast {
            self.broadcast_events += 1;
        }
        let copies = dest.targets(k).len() as u64;
        self.down_msgs += copies;
        self.down_words += copies * msg.words();
        self.down_bytes += copies * msg.wire_bytes();
    }

    /// Accumulate another run's statistics (e.g. independent copies used
    /// for median boosting).
    pub fn merge(&mut self, other: &CommStats) {
        self.up_msgs += other.up_msgs;
        self.up_words += other.up_words;
        self.up_bytes += other.up_bytes;
        self.down_msgs += other.down_msgs;
        self.down_words += other.down_words;
        self.down_bytes += other.down_bytes;
        self.broadcast_events += other.broadcast_events;
        self.elements += other.elements;
    }
}

/// Per-site peak space tracking, in words.
///
/// Space is self-reported by sites via [`crate::Site::space_words`]; the
/// runner samples it after every event that touches a site and keeps the
/// maximum, which is what the paper's space bounds refer to.
#[derive(Debug, Default, Clone)]
pub struct SpaceStats {
    peaks: Vec<u64>,
}

impl SpaceStats {
    /// Create tracking for `k` sites.
    pub fn new(k: usize) -> Self {
        Self { peaks: vec![0; k] }
    }

    /// Rebuild from externally tracked per-site peaks (used by executors
    /// that sample space outside this struct, e.g. the channel runtime's
    /// per-thread atomics).
    pub fn from_peaks(peaks: Vec<u64>) -> Self {
        Self { peaks }
    }

    /// Record an observation of site `i`'s current resident words.
    pub fn observe(&mut self, site: usize, words: u64) {
        if words > self.peaks[site] {
            self.peaks[site] = words;
        }
    }

    /// Peak words of a single site.
    pub fn peak(&self, site: usize) -> u64 {
        self.peaks[site]
    }

    /// Maximum peak over all sites — the "space per site" of the paper.
    pub fn max_peak(&self) -> u64 {
        self.peaks.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_both_directions() {
        let s = CommStats {
            up_msgs: 3,
            up_words: 7,
            up_bytes: 9,
            down_msgs: 2,
            down_words: 5,
            down_bytes: 6,
            broadcast_events: 1,
            elements: 10,
        };
        assert_eq!(s.total_msgs(), 5);
        assert_eq!(s.total_words(), 12);
        assert_eq!(s.total_bytes(), 15);
        assert!((s.words_per_element() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn words_per_element_zero_elements() {
        assert_eq!(CommStats::default().words_per_element(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CommStats {
            up_msgs: 1,
            up_words: 1,
            up_bytes: 2,
            down_msgs: 1,
            down_words: 1,
            down_bytes: 2,
            broadcast_events: 0,
            elements: 1,
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.total_msgs(), 4);
        assert_eq!(a.elements, 2);
    }

    #[test]
    fn charge_down_applies_the_k_times_rule() {
        // A 3-word message whose codec size (1 length byte + 2 + 1) is
        // not 8 × words, so words and bytes are checked separately.
        let msg = vec![300u64, 1];
        let (words, bytes) = (msg.words(), msg.wire_bytes());
        assert_eq!((words, bytes), (3, 4));

        let mut s = CommStats::default();
        s.charge_down(&msg, Dest::Broadcast, 5);
        let broadcast = CommStats {
            down_msgs: 5,
            down_words: 5 * words,
            down_bytes: 5 * bytes,
            broadcast_events: 1,
            ..CommStats::default()
        };
        assert_eq!(s, broadcast);

        s.charge_down(&msg, Dest::Site(3), 5);
        let both = CommStats {
            down_msgs: 6,
            down_words: 6 * words,
            down_bytes: 6 * bytes,
            ..broadcast
        };
        assert_eq!(s, both);

        s.charge_up(&msg);
        let with_up = CommStats {
            up_msgs: 1,
            up_words: words,
            up_bytes: bytes,
            ..both
        };
        assert_eq!(s, with_up);
    }

    #[test]
    fn space_tracks_peak_per_site() {
        let mut sp = SpaceStats::new(3);
        sp.observe(0, 4);
        sp.observe(0, 2);
        sp.observe(2, 9);
        assert_eq!(sp.peak(0), 4);
        assert_eq!(sp.peak(1), 0);
        assert_eq!(sp.max_peak(), 9);
    }
}
