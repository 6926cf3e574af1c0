//! The equivalence matrix pinning the unified execution layer:
//!
//! 1. For all seven Table-1 protocols, the lock-step `Runner` and the
//!    `EventRuntime` under the instant `DeliveryPolicy` produce
//!    **identical** `CommStats`, per-site space peaks, and query answers
//!    at the same master seed — the event scheduler's FIFO tie-break
//!    reproduces the runner's round structure exactly, so the refactor
//!    is behavior-preserving by construction, not by accident.
//! 2. The `EventRuntime` under a *seeded random-delay* policy is
//!    bit-for-bit reproducible: two runs of the same seed agree on every
//!    statistic and query; a different seed produces a different run.
//! 3. The cost model's `k ×` broadcast rule charges the same on every
//!    driver of the coordinator step — `Runner`, `EventRuntime`,
//!    `ChannelRuntime` and bare `SiteHalf`/`CoordHalf` over in-process
//!    links — for a toy protocol that mixes unicasts, broadcasts and
//!    replies to broadcasts.

use dtrack::core::count::{DeterministicCount, RandomizedCount};
use dtrack::core::frequency::{DeterministicFrequency, RandomizedFrequency};
use dtrack::core::rank::{DeterministicRank, RandomizedRank};
use dtrack::core::sampling::ContinuousSampling;
use dtrack::core::TrackingConfig;
use dtrack::sim::exec::{DeliveryPolicy, EventRuntime};
use dtrack::sim::runtime::ChannelRuntime;
use dtrack::sim::{
    in_process_links, CommStats, CoordHalf, Coordinator, Net, Outbox, Protocol, Runner, Site,
    SiteHalf, SiteId, Words,
};
use dtrack::workload::items::DistinctSeq;
use dtrack::workload::{UniformSites, Workload, ZipfItems};

const K: usize = 8;
const N: u64 = 6_000;
const SEED: u64 = 42;

fn cfg() -> TrackingConfig {
    TrackingConfig::new(K, 0.1)
}

/// Zipf-items workload (count / frequency / sampling protocols).
fn zipf_arrivals() -> Vec<(usize, u64)> {
    Workload::new(ZipfItems::new(500, 1.2), UniformSites::new(K), N, 7)
        .map(|a| (a.site, a.item))
        .collect()
}

/// Duplicate-free workload (rank protocols assume distinct elements).
fn distinct_arrivals() -> Vec<(usize, u64)> {
    Workload::new(DistinctSeq::new(7), UniformSites::new(K), N, 7)
        .map(|a| (a.site, a.item))
        .collect()
}

/// Drive `Runner` and instant-`EventRuntime` side by side and require
/// identical accounting, space, and query answers (f64s compared
/// exactly: identical state must give identical bits).
fn assert_equivalent<P, Q>(name: &str, proto: &P, arrivals: &[(usize, u64)], queries: Q)
where
    P: Protocol,
    P::Site: Site<Item = u64>,
    Q: Fn(&P::Coord) -> Vec<f64>,
{
    let mut runner = Runner::new(proto, SEED);
    let mut event = EventRuntime::new(proto, SEED);
    for &(site, item) in arrivals {
        runner.feed(site, &item);
        event.feed(site, item);
        debug_assert_eq!(event.in_flight(), 0);
    }
    event.quiesce(); // no-op under instant delivery; keeps the contract
    assert_eq!(runner.stats(), event.stats(), "{name}: CommStats differ");
    for site in 0..K {
        assert_eq!(
            runner.space().peak(site),
            event.space().peak(site),
            "{name}: space peak differs at site {site}"
        );
    }
    let qr = queries(runner.coord());
    let qe = queries(event.coord());
    assert_eq!(qr, qe, "{name}: query answers differ");
    assert!(
        qr.iter().all(|v| v.is_finite()),
        "{name}: queries not finite"
    );
}

/// Two same-seed runs under `policy` must agree bit for bit. (Note a
/// *different* seed need not visibly differ for the deterministic
/// protocols — their message totals depend only on element counts — so
/// seed sensitivity is asserted separately, on a randomized protocol.)
fn assert_reproducible<P, Q>(
    name: &str,
    proto: &P,
    arrivals: &[(usize, u64)],
    policy: DeliveryPolicy,
    queries: Q,
) where
    P: Protocol,
    P::Site: Site<Item = u64>,
    Q: Fn(&P::Coord) -> Vec<f64>,
{
    let run = |seed: u64| {
        let mut event = EventRuntime::with_policy(proto, seed, policy);
        for &(site, item) in arrivals {
            event.feed(site, item);
        }
        event.quiesce();
        let answers = queries(event.coord());
        (event.stats().clone(), event.now(), answers)
    };
    let a = run(SEED);
    let b = run(SEED);
    assert_eq!(a, b, "{name}: same seed, different run under {policy:?}");
}

/// Different master seeds produce visibly different randomized runs —
/// the reproducibility above is seed-derived, not accidental constancy.
#[test]
fn different_seeds_differ_under_random_delay() {
    let proto = RandomizedCount::new(cfg());
    let arrivals = zipf_arrivals();
    let policy = DeliveryPolicy::RandomDelay { min: 1, max: 32 };
    let run = |seed: u64| {
        let mut event = EventRuntime::with_policy(&proto, seed, policy);
        for &(site, item) in &arrivals {
            event.feed(site, item);
        }
        event.quiesce();
        (event.stats().clone(), event.coord().estimate())
    };
    assert_ne!(run(SEED), run(SEED ^ 0xDEAD));
}

macro_rules! equivalence_case {
    ($test:ident, $name:literal, $proto:expr, $arrivals:expr, $queries:expr) => {
        #[test]
        fn $test() {
            let proto = $proto;
            let arrivals = $arrivals;
            let queries = $queries;
            assert_equivalent($name, &proto, &arrivals, &queries);
            assert_reproducible(
                $name,
                &proto,
                &arrivals,
                DeliveryPolicy::RandomDelay { min: 1, max: 32 },
                &queries,
            );
        }
    };
}

equivalence_case!(
    randomized_count_equivalence,
    "randomized count",
    RandomizedCount::new(cfg()),
    zipf_arrivals(),
    |c: &dtrack::core::count::RandCountCoord| vec![c.estimate()]
);

equivalence_case!(
    deterministic_count_equivalence,
    "deterministic count",
    DeterministicCount::new(cfg()),
    zipf_arrivals(),
    |c: &dtrack::core::count::DetCountCoord| vec![c.estimate()]
);

equivalence_case!(
    randomized_frequency_equivalence,
    "randomized frequency",
    RandomizedFrequency::new(cfg()),
    zipf_arrivals(),
    |c: &dtrack::core::frequency::RandFreqCoord| {
        (0..10).map(|j| c.estimate_frequency(j)).collect()
    }
);

equivalence_case!(
    deterministic_frequency_equivalence,
    "deterministic frequency",
    DeterministicFrequency::new(cfg()),
    zipf_arrivals(),
    |c: &dtrack::core::frequency::DetFreqCoord| {
        (0..10).map(|j| c.estimate_frequency(j)).collect()
    }
);

equivalence_case!(
    randomized_rank_equivalence,
    "randomized rank",
    RandomizedRank::new(cfg()),
    distinct_arrivals(),
    |c: &dtrack::core::rank::RandRankCoord| {
        [u64::MAX / 4, u64::MAX / 2, u64::MAX / 4 * 3]
            .iter()
            .map(|&x| c.estimate_rank(x))
            .collect()
    }
);

equivalence_case!(
    deterministic_rank_equivalence,
    "deterministic rank",
    DeterministicRank::new(cfg()),
    distinct_arrivals(),
    |c: &dtrack::core::rank::DetRankCoord| {
        [u64::MAX / 4, u64::MAX / 2, u64::MAX / 4 * 3]
            .iter()
            .map(|&x| c.estimate_rank(x))
            .collect()
    }
);

equivalence_case!(
    continuous_sampling_equivalence,
    "continuous sampling",
    ContinuousSampling::new(cfg()),
    distinct_arrivals(),
    |c: &dtrack::core::sampling::SamplingCoord| {
        vec![
            c.estimate_count(),
            c.estimate_frequency(3),
            c.estimate_rank(u64::MAX / 2),
        ]
    }
);

/// The batched ingest fast path feeds through the same equivalence: a
/// `feed_batch` run on the `Runner` equals the per-element run on the
/// `EventRuntime` (transitively pinning all three ingest paths).
#[test]
fn feed_batch_equals_event_runtime_per_element() {
    let proto = RandomizedFrequency::new(cfg());
    let arrivals = zipf_arrivals();
    let mut batched = Runner::new(&proto, SEED);
    batched.feed_batch(&arrivals);
    let mut event = EventRuntime::new(&proto, SEED);
    for &(site, item) in &arrivals {
        event.feed(site, item);
    }
    assert_eq!(batched.stats(), event.stats());
    // Space too: feed_batch samples space at message/run boundaries
    // only, so this pins that the documented weakening is invisible for
    // the real protocols (site space grows monotonically between sends).
    for site in 0..K {
        assert_eq!(
            batched.space().peak(site),
            event.space().peak(site),
            "space peak differs at site {site}"
        );
    }
    let qb: Vec<f64> = (0..10)
        .map(|j| batched.coord().estimate_frequency(j))
        .collect();
    let qe: Vec<f64> = (0..10)
        .map(|j| event.coord().estimate_frequency(j))
        .collect();
    assert_eq!(qb, qe);
}

/// Adversarial reorder is deterministic without a seed: two runs agree,
/// and the protocols survive (finite, sane estimates after quiesce).
#[test]
fn adversarial_reorder_is_deterministic_and_sane() {
    let proto = RandomizedCount::new(cfg());
    let arrivals = zipf_arrivals();
    let run = || {
        let mut event = EventRuntime::with_policy(
            &proto,
            SEED,
            DeliveryPolicy::AdversarialReorder { window: 16 },
        );
        for &(site, item) in &arrivals {
            event.feed(site, item);
        }
        event.quiesce();
        (event.stats().clone(), event.coord().estimate())
    };
    let (stats, est) = run();
    assert_eq!(run(), (stats.clone(), est));
    assert_eq!(stats.elements, N);
    // Reordering can cost accuracy, not sanity: the estimate is finite
    // and within half of the true count.
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
