//! What one protocol over one stream on one executor produced: the
//! timings the harness took around its own calls, the accounting the
//! executor reports, and the answers still to be scored.

use dtrack_sim::CommStats;

use crate::proto::Answer;

/// One pass. Fields an executor has no notion of stay at their default
/// (a lock-step pass has no drain, no reader, no shutdown).
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Arrivals fed inside the timed region.
    pub elements: u64,
    /// Timed region: first feed call to the last answer in hand.
    pub wall_ns: u64,
    /// Process CPU time (all threads) over the timed region.
    pub cpu_ns: u64,
    /// Building the executor (or connecting and accepting), before the
    /// timed region.
    pub build_ns: u64,
    /// Time inside the executor's feed calls (a subset of `wall_ns`).
    pub feed_ns: u64,
    /// The final quiesce of the pass.
    pub drain_ns: u64,
    /// Sweeps / ping rounds the quiesce calls reported, summed.
    pub quiesce_rounds: u64,
    /// Stopping and joining the executor's threads, after the timed
    /// region.
    pub shutdown_ns: u64,
    /// The executor's own accounting, as executed.
    pub stats: CommStats,
    /// Answers read at the probes / checkpoints, to be scored.
    pub answers: Vec<Answer>,
    /// Per probe: last feed call returning → answer in hand.
    pub flush_ns: Vec<u64>,
    /// Reads a concurrent reader thread completed inside `wall_ns`.
    pub reads: u64,
    /// Snapshot epochs the reader saw published.
    pub epochs: u64,
    /// Sampled latencies of the reader's reads (layer panel only).
    pub read_ns: Vec<u64>,
    /// Failed checks the executor itself surfaced: an `io::Error`, a
    /// reader seeing a non-finite answer or an epoch going backwards, a
    /// fed/processed element count mismatch.
    pub faults: Vec<String>,
}
