//! The equivalence matrix pinning the unified execution layer, over the
//! `(Problem, Algo)` rows of `dtrack_bench::measure::run` (each row's
//! standard workload, fed, quiesced and asked):
//!
//! 1. For every row, the lock-step `Runner` (batched ingest) and the
//!    `EventRuntime` under the instant `DeliveryPolicy` (per-element
//!    ingest) produce **identical** `CommStats`, per-site space peaks,
//!    and answers bit for bit at the same master seed — the event
//!    scheduler's FIFO tie-break reproduces the runner's round structure
//!    exactly, so the refactor is behavior-preserving by construction,
//!    not by accident.
//! 2. The `EventRuntime` under a *seeded random-delay* policy is
//!    bit-for-bit reproducible: two runs of the same seed agree on every
//!    statistic and answer; a different seed produces a different run.
//! 3. The cost model's `k ×` broadcast rule charges the same on every
//!    driver of the coordinator step — `Runner`, `EventRuntime`,
//!    `ChannelRuntime` and bare `SiteHalf`/`CoordHalf` over in-process
//!    links — for a toy protocol that mixes unicasts, broadcasts and
//!    replies to broadcasts.

use dtrack::core::count::RandomizedCount;
use dtrack::core::TrackingConfig;
use dtrack::sim::exec::{DeliveryPolicy, EventRuntime};
use dtrack::sim::runtime::ChannelRuntime;
use dtrack::sim::{
    in_process_links, CommStats, CoordHalf, Coordinator, Net, Outbox, Protocol, Runner, Site,
    SiteHalf, SiteId, Words,
};
use dtrack_bench::measure::{rows, run, Algo, Problem, Run};

const K: usize = 8;
const N: u64 = 6_000;
const SEED: u64 = 42;

/// `row` under the scenario `spec`, at the suite's k, ε = 0.1 and `n`.
fn at(spec: &str, (problem, algo): (Problem, Algo), n: u64, seed: u64) -> Run {
    run(spec.parse().unwrap(), problem, algo, K, 0.1, n, seed)
}

/// Guarantees 1 and 2 on each of `rows`.
fn assert_rows_agree(rows: impl IntoIterator<Item = (Problem, Algo)>) {
    for row in rows {
        let lockstep = at("lockstep", row, N, SEED);
        assert_eq!(lockstep, at("event", row, N, SEED), "{row:?}: runs differ");
        let finite = lockstep.answers.iter().all(|a| a.is_finite());
        assert!(finite, "{row:?}: answers not finite");
        let delayed = |seed| at("event:random:1:32", row, N, seed);
        assert_eq!(
            delayed(SEED),
            delayed(SEED),
            "{row:?}: same seed, different run"
        );
    }
}

/// Different master seeds produce visibly different randomized runs —
/// the reproducibility above is seed-derived, not accidental constancy.
/// (A *different* seed need not visibly differ for the deterministic
/// protocols — their message totals depend only on element counts — so
/// seed sensitivity is asserted on a randomized one.) A replay also ends
/// on the same event clock, which `Run` does not carry.
#[test]
fn different_seeds_differ_under_random_delay() {
    let row = (Problem::Count, Algo::Randomized);
    let delayed = |seed| at("event:random:1:32", row, N, seed);
    assert_ne!(delayed(SEED), delayed(SEED ^ 0xDEAD));
    let proto = RandomizedCount::new(TrackingConfig::new(K, 0.1));
    let clock = |seed| {
        let policy = DeliveryPolicy::RandomDelay { min: 1, max: 32 };
        let mut event = EventRuntime::with_policy(&proto, seed, policy);
        for t in 0..N {
            event.feed((t % K as u64) as usize, t);
        }
        event.quiesce();
        event.now()
    };
    assert_eq!(clock(SEED), clock(SEED));
}

#[test]
fn randomized_count_equivalence() {
    assert_rows_agree([(Problem::Count, Algo::Randomized)]);
}

#[test]
fn deterministic_count_equivalence() {
    assert_rows_agree([(Problem::Count, Algo::Deterministic)]);
}

#[test]
fn randomized_frequency_equivalence() {
    assert_rows_agree([(Problem::Frequency, Algo::Randomized)]);
}

#[test]
fn deterministic_frequency_equivalence() {
    assert_rows_agree([(Problem::Frequency, Algo::Deterministic)]);
}

#[test]
fn randomized_rank_equivalence() {
    assert_rows_agree([(Problem::Rank, Algo::Randomized)]);
}

#[test]
fn deterministic_rank_equivalence() {
    assert_rows_agree([(Problem::Rank, Algo::Deterministic)]);
}

/// One protocol, all three problems.
#[test]
fn continuous_sampling_equivalence() {
    assert_rows_agree(rows().filter(|&(_, algo)| algo == Algo::Sampling));
}

/// `run` feeds the `Runner` through its batched fast path and the
/// `EventRuntime` element by element, so guarantee 1 pins the batch
/// path; this adds one more input per row (another seed, and a length
/// that leaves a partial round-robin pass). `feed_batch` samples space
/// at message/run boundaries only, so the per-site peaks pin that the
/// documented weakening is invisible for the real protocols (site space
/// grows monotonically between sends).
#[test]
fn feed_batch_equals_event_runtime_per_element() {
    for row in rows() {
        let batched = at("lockstep", row, N + 3, 7);
        assert_eq!(batched, at("event", row, N + 3, 7), "{row:?}");
    }
}

/// Adversarial reorder is deterministic without a seed: two runs agree,
/// and the protocols survive (finite, sane estimates after quiesce).
#[test]
fn adversarial_reorder_is_deterministic_and_sane() {
    let row = (Problem::Count, Algo::Randomized);
    let reordered = at("event:reorder:16", row, N, SEED);
    assert_eq!(at("event:reorder:16", row, N, SEED), reordered);
    assert_eq!(reordered.stats.elements, N);
    // Reordering can cost accuracy, not sanity: the estimate is finite
    // and within half of the true count.
    let est = reordered.answers[0];
    assert!(est.is_finite());
    assert!((est - N as f64).abs() <= 0.5 * N as f64, "estimate {est}");
}

/// Toy protocol for the `k ×` rule. A site reports every element
/// (`[item]`, 2 words) and acks every broadcast it receives (`[]`,
/// 1 word); the coordinator answers a report with a unicast to its sender
/// (`[7]`, 2 words) *and* a broadcast (`[300, 1]`, 3 words, 4 bytes — not
/// 8 × words), and an ack with nothing. Message counts and sizes do not
/// depend on interleaving, so thread-backed drivers must match exactly.
struct Chatty;

struct ChattySite;

impl Site for ChattySite {
    type Item = u64;
    type Up = Vec<u64>;
    type Down = Vec<u64>;
    fn on_item(&mut self, item: &u64, out: &mut Outbox<Vec<u64>>) {
        out.send(vec![*item]);
    }
    fn on_message(&mut self, down: &Vec<u64>, out: &mut Outbox<Vec<u64>>) {
        if down.len() == 2 {
            out.send(Vec::new());
        }
    }
    fn space_words(&self) -> u64 {
        1
    }
}

#[derive(Clone)]
struct ChattyCoord;

impl Coordinator for ChattyCoord {
    type Up = Vec<u64>;
    type Down = Vec<u64>;
    fn on_message(&mut self, from: SiteId, up: &Vec<u64>, net: &mut Net<Vec<u64>>) {
        if !up.is_empty() {
            net.send(from, vec![7]);
            net.broadcast(vec![300, 1]);
        }
    }
}

impl Protocol for Chatty {
    type Site = ChattySite;
    type Coord = ChattyCoord;
    fn k(&self) -> usize {
        K
    }
    fn build(&self, _seed: u64) -> (Vec<ChattySite>, ChattyCoord) {
        ((0..K).map(|_| ChattySite).collect(), ChattyCoord)
    }
}

#[test]
fn k_times_rule_holds_on_every_driver() {
    let n = 40u64;
    let arrivals: Vec<(usize, u64)> = (0..n).map(|i| (i as usize % K, i)).collect();
    let k = K as u64;
    let (report, ack) = (vec![0u64], Vec::<u64>::new());
    let (unicast, broadcast) = (vec![7u64], vec![300u64, 1]);
    // Every report: one unicast, one broadcast charged k ×, k acks.
    let want = CommStats {
        up_msgs: n + n * k,
        up_words: n * report.words() + n * k * ack.words(),
        up_bytes: n * report.wire_bytes() + n * k * ack.wire_bytes(),
        down_msgs: n + n * k,
        down_words: n * unicast.words() + n * k * broadcast.words(),
        down_bytes: n * unicast.wire_bytes() + n * k * broadcast.wire_bytes(),
        broadcast_events: n,
        elements: n,
    };
    assert_ne!(want.down_bytes, 8 * want.down_words);

    let mut runner = Runner::new(&Chatty, SEED);
    let mut event = EventRuntime::new(&Chatty, SEED);
    let channel = ChannelRuntime::new(&Chatty, SEED);
    for &(site, item) in &arrivals {
        runner.feed(site, &item);
        event.feed(site, item);
        channel.feed(site, item);
    }
    event.quiesce();
    channel.quiesce();

    // Bare halves: each site half feeds its own share on its own thread.
    let (site_links, coord_link) = in_process_links::<Vec<u64>, Vec<u64>>(K);
    let site_threads: Vec<_> = site_links
        .into_iter()
        .enumerate()
        .map(|(id, link)| {
            let items: Vec<u64> = arrivals
                .iter()
                .filter(|&&(site, _)| site == id)
                .map(|&(_, item)| item)
                .collect();
            std::thread::spawn(move || {
                let mut half = SiteHalf::new(ChattySite, link);
                for item in &items {
                    half.feed(item).unwrap();
                }
                half.finish_stream().unwrap();
                half.run_until_stop().unwrap();
                half.stats().clone()
            })
        })
        .collect();
    let mut coord = CoordHalf::new(ChattyCoord, coord_link);
    coord.pump_until_eos().unwrap();
    coord.quiesce().unwrap();
    coord.stop().unwrap();
    let mut as_sites_saw_it = CommStats::default();
    for h in site_threads {
        as_sites_saw_it.merge(&h.join().unwrap());
    }
    let halves = CommStats {
        elements: as_sites_saw_it.elements,
        ..coord.stats().clone()
    };
    // Receivers count each copy of a broadcast once: summed over the
    // sites that is the k × the coordinator charged on send (only the
    // sender knows which copies were one broadcast event).
    let received = CommStats {
        broadcast_events: 0,
        ..want.clone()
    };
    assert_eq!(as_sites_saw_it, received, "summed SiteHalf views");

    let table = [
        ("Runner", runner.stats().clone()),
        ("EventRuntime(Instant)", event.stats().clone()),
        ("ChannelRuntime", channel.stats()),
        ("SiteHalf/CoordHalf", halves),
    ];
    for (driver, got) in table {
        assert_eq!(got, want, "{driver}: CommStats differ");
    }
}
