//! The fault-injection property suite — the correctness story for
//! `dtrack_sim::exec::faults` (ISSUE 6 / ROADMAP item 4).
//!
//! Three layers of guarantees, cheapest first:
//!
//! 1. **Smoke** (`smoke_*`, debug-fast): every `+suffix` singly, parsed
//!    from its scenario string, runs to quiescence and keeps the
//!    deterministic count baseline's *unconditional* invariant
//!    `n̂ ≤ n ≤ (1+ε)n̂`. CI runs these before the release suite so a
//!    broken fault combination fails in seconds.
//! 2. **Bit-identity**: a fault-free plan is byte-for-byte the
//!    pre-fault runtime; `+dup` — whose duplicates every endpoint must
//!    discard — changes *nothing* observable (CommStats, space,
//!    coordinator answers compared via `f64::to_bits`) on any
//!    `(Problem, Algo)` row of `dtrack_bench::measure::run` — the seven
//!    Table-1 protocols, sampling on all three problems — or
//!    `Windowed<P>`; only `FaultStats` sees the duplicates. This is
//!    "idempotence is a tested property":
//!    idempotence lives in the transport dedup and the protocols need
//!    none of their own.
//! 3. **ε bounds** (release-gated, ≥ 20 seeds): all seven protocols
//!    plus `Windowed<P>` meet the mean-error-≤-ε acceptance bound under
//!    `+loss:0.05+dup:0.05+churn:0.1`, and under each fault alone.
//!
//! The seed loops of layers 2 and 3 are rows of the conformance
//! matrix's table (`tests/conformance.rs`); each test here keeps its
//! name as a filter over it.
//!
//! Plus the ingest-side loop: `AdaptiveSites` driven by the event
//! runtime's observed per-link latency routes away from a `+straggle`
//! link (the mpudp explore/exploit pattern, end to end).

mod matrix;

use dtrack::core::count::{DeterministicCount, RandomizedCount};
use dtrack::core::frequency::RandomizedFrequency;
use dtrack::core::window::{WinCoord, Windowed};
use dtrack::core::TrackingConfig;
use dtrack::sim::exec::{DeliveryPolicy, EventRuntime};
use dtrack::sim::{CommStats, ExecConfig, FaultPlan, FaultStats, Protocol, Site, Tree, TreeSpec};
use dtrack::workload::{AdaptiveSites, SiteAssign, UniformSites, Workload, ZipfItems};
use dtrack_bench::measure::Algo;
use matrix::{check, DC, DF, DR, RC, RF, RR};

const K: usize = 8;

/// Parse `spec`, run `DeterministicCount` under it, and require the
/// baseline's unconditional guarantee after quiesce — the sharpest
/// cheap check that a fault model loses or double-delivers nothing.
fn smoke_deterministic_count(spec: &str) {
    let exec: ExecConfig = spec.parse().unwrap_or_else(|e| panic!("{e}"));
    let eps = 0.1;
    let n = 4_000u64;
    let proto = DeterministicCount::new(TrackingConfig::new(K, eps));
    let mut ex = exec.build(&proto, 7);
    for t in 0..n {
        // feed_at spreads arrivals out so churn outages actually hit.
        ex.feed_at(t * 8, (t % K as u64) as usize, t);
    }
    ex.quiesce();
    let est = ex.query(|c: &dtrack::core::count::DetCountCoord| c.estimate());
    assert!(est <= n as f64 + 1e-9, "{spec}: n̂ {est} > n {n}");
    assert!(
        n as f64 <= est * (1.0 + eps) + 1e-9,
        "{spec}: n {n} > (1+ε)n̂ = {}",
        est * (1.0 + eps)
    );
    // And a randomized protocol survives the same scenario sanely.
    let proto = RandomizedCount::new(TrackingConfig::new(K, eps));
    let mut ex = exec.build(&proto, 7);
    for t in 0..n {
        ex.feed_at(t * 8, (t % K as u64) as usize, t);
    }
    ex.quiesce();
    let est = ex.query(|c: &dtrack::core::count::RandCountCoord| c.estimate());
    assert!(
        est.is_finite() && (est - n as f64).abs() <= 0.5 * n as f64,
        "{spec}: randomized estimate {est}"
    );
}

#[test]
fn smoke_loss() {
    smoke_deterministic_count("event+loss:0.2");
}

#[test]
fn smoke_dup() {
    smoke_deterministic_count("event+dup:0.5");
}

#[test]
fn smoke_churn() {
    smoke_deterministic_count("event+churn:0.2");
}

#[test]
fn smoke_straggle() {
    smoke_deterministic_count("event+straggle:32");
}

#[test]
fn smoke_combined() {
    smoke_deterministic_count("event:random:0:8+loss:0.05+dup:0.05+churn+straggle:8");
}

#[test]
fn smoke_windowed_faulty() {
    // The window adapter's seal/ack handshake rides the same faulty
    // links; smoke it with every fault on at once.
    let exec: ExecConfig = "event+loss:0.1+dup:0.2+churn:0.15+straggle:4"
        .parse()
        .unwrap();
    let (n, w) = (6_000u64, 2_048u64);
    let proto = Windowed::new(RandomizedCount::new(TrackingConfig::new(K, 0.1)), w);
    let mut ex = exec.mode.build(&proto, 3);
    for t in 0..n {
        ex.feed_at(t * 8, (t % K as u64) as usize, t);
    }
    ex.quiesce();
    let est = ex.query(|c: &WinCoord<RandomizedCount>| c.windowed_count());
    assert!(
        est.is_finite() && (est - w as f64).abs() <= 0.75 * w as f64,
        "windowed estimate {est} vs w {w}"
    );
}

/// A shaped scenario keeps its fault suffixes: `ExecMode::build` over a
/// `Windowed` or `Tree` protocol — the path every `+window` / `+tree`
/// driver takes — injects the parsed plan, so the faults show in the
/// fault record and move the run's accounting off the reliable run's.
#[test]
fn shaped_builds_inject_the_parsed_faults() {
    fn drive<P>(exec: ExecConfig, proto: &P) -> (CommStats, Option<FaultStats>)
    where
        P: Protocol,
        P::Site: Site<Item = u64>,
    {
        let mut ex = exec.mode.build(proto, 5);
        ex.feed_batch(
            (0..4_000u64)
                .map(|t| ((t % K as u64) as usize, t))
                .collect(),
        );
        ex.quiesce();
        (ex.stats(), ex.fault_stats().cloned())
    }
    let faulty: ExecConfig = "event+loss:0.2+dup:0.2".parse().unwrap();
    let reliable: ExecConfig = "event".parse().unwrap();
    let count = || RandomizedCount::new(TrackingConfig::new(K, 0.1));
    let windowed = Windowed::new(count(), 1_024);
    let tree = Tree::new(count(), TreeSpec::new(2));
    for (shape, (stats, faults), (clean, none)) in [
        (
            "window",
            drive(faulty, &windowed),
            drive(reliable, &windowed),
        ),
        ("tree", drive(faulty, &tree), drive(reliable, &tree)),
    ] {
        let fs = faults.unwrap_or_else(|| panic!("+{shape}: no fault layer was built"));
        assert!(fs.retransmissions > 0, "+{shape}: {fs:?}");
        assert!(fs.duplicates > 0, "+{shape}: {fs:?}");
        assert!(
            none.is_none(),
            "+{shape}: a reliable run built a fault layer"
        );
        assert_ne!(
            stats, clean,
            "+{shape}: faults left the accounting untouched"
        );
    }
}

/// `EventRuntime::with_faults` with an empty plan takes the exact
/// pre-fault code paths: bit-identical to `with_policy` on a real
/// protocol (the regression pin for the fault-RNG stream split — fault
/// streams must never touch the delivery-delay stream).
#[test]
fn empty_fault_plan_is_bit_identical_to_with_policy() {
    let proto = RandomizedFrequency::new(TrackingConfig::new(K, 0.1));
    let arrivals: Vec<(usize, u64)> =
        Workload::new(ZipfItems::new(500, 1.2), UniformSites::new(K), 6_000, 7)
            .map(|a| (a.site, a.item))
            .collect();
    let policy = DeliveryPolicy::RandomDelay { min: 1, max: 32 };
    let run_plain = {
        let mut ex = EventRuntime::with_policy(&proto, 42, policy);
        for &(s, i) in &arrivals {
            ex.feed(s, i);
        }
        ex.quiesce();
        let answers: Vec<u64> = (0..10)
            .map(|j| ex.coord().estimate_frequency(j).to_bits())
            .collect();
        (ex.stats().clone(), ex.space().max_peak(), answers)
    };
    let run_faulty = {
        let mut ex = EventRuntime::with_faults(&proto, 42, policy, FaultPlan::none());
        assert!(
            ex.fault_stats().is_none(),
            "empty plan must not build a layer"
        );
        for &(s, i) in &arrivals {
            ex.feed(s, i);
        }
        ex.quiesce();
        let answers: Vec<u64> = (0..10)
            .map(|j| ex.coord().estimate_frequency(j).to_bits())
            .collect();
        (ex.stats().clone(), ex.space().max_peak(), answers)
    };
    assert_eq!(run_plain, run_faulty);
}

/// The headline idempotence property: turning `+dup` on — alone or on
/// top of other faults — leaves every protocol observable
/// **bit-identical** (`Run` equality: CommStats, space peaks, answers
/// at every checkpoint), because the endpoint's sequence-number dedup
/// discards every duplicate before the protocol sees it. Checked for
/// every row `run` builds and `Windowed<P>`, against four bases.
///
/// Pairings are chosen so the only difference between the two runs is
/// `+dup` itself: under order-preserving policies (`Instant`,
/// `FixedLatency`) a dup-only layer is compared against no layer at
/// all; under the reordering `RandomDelay` policy the base plan is
/// already active (the fault layer's hold-back buffer upgrades links
/// to FIFO, so layer-vs-no-layer is not an apples-to-apples pair
/// there). Every `+dup` run must also have injected duplicates and
/// dropped them all.
#[test]
fn dup_bit_identical_randomized_count() {
    check(|c| c.test == "dup" && c.row == RC);
}

#[test]
fn dup_bit_identical_deterministic_count() {
    check(|c| c.test == "dup" && c.row == DC);
}

#[test]
fn dup_bit_identical_randomized_frequency() {
    check(|c| c.test == "dup" && c.row == RF);
}

#[test]
fn dup_bit_identical_deterministic_frequency() {
    check(|c| c.test == "dup" && c.row == DF);
}

#[test]
fn dup_bit_identical_randomized_rank() {
    check(|c| c.test == "dup" && c.row == RR);
}

#[test]
fn dup_bit_identical_deterministic_rank() {
    check(|c| c.test == "dup" && c.row == DR);
}

/// One protocol, all three problems.
#[test]
fn dup_bit_identical_continuous_sampling() {
    check(|c| c.test == "dup" && c.row.1 == Algo::Sampling);
}

#[test]
fn dup_bit_identical_windowed() {
    check(|c| c.test == "dup_windowed");
}

/// Every faulty run is bit-for-bit reproducible from its master seed,
/// and a different seed produces a genuinely different fault schedule.
#[test]
fn faulty_runs_replay_exactly_from_the_seed() {
    let proto = RandomizedCount::new(TrackingConfig::new(K, 0.1));
    let arrivals: Vec<(usize, u64)> =
        Workload::new(ZipfItems::new(500, 1.2), UniformSites::new(K), 4_000, 3)
            .map(|a| (a.site, a.item))
            .collect();
    let plan = FaultPlan::none()
        .with_loss(0.1)
        .with_dup(0.1)
        .with_churn(0.2)
        .with_straggle(8);
    let run = |seed: u64| {
        let mut ex = EventRuntime::with_faults(&proto, seed, DeliveryPolicy::Instant, plan);
        for (t, &(site, item)) in arrivals.iter().enumerate() {
            ex.feed_at(t as u64 * 8, site, item);
        }
        ex.quiesce();
        (
            ex.stats().clone(),
            ex.fault_stats().unwrap().clone(),
            ex.coord().estimate().to_bits(),
            ex.now(),
        )
    };
    assert_eq!(run(5), run(5), "same seed must replay bit-for-bit");
    assert_ne!(
        run(5).1,
        run(6).1,
        "different seeds must draw different fault schedules"
    );
}

/// The ingest loop closed end to end: `AdaptiveSites` fed by the event
/// runtime's observed up-link latencies routes away from the
/// `+straggle` site within a few hundred elements.
#[test]
fn adaptive_assignment_routes_around_a_straggler_link() {
    let proto = RandomizedCount::new(TrackingConfig::new(K, 0.1));
    let plan = FaultPlan::none().with_straggle(64);
    let mut ex = EventRuntime::with_faults(&proto, 11, DeliveryPolicy::FixedLatency(2), plan);
    let mut assign = AdaptiveSites::new(K);
    let mut rng = dtrack::sim::rng::rng_from_seed(11);
    let n = 12_000u64;
    let (warmup, mut straggler_hits, mut measured) = (2_000u64, 0u64, 0u64);
    for t in 0..n {
        let site = assign.next_site(&mut rng);
        if t >= warmup {
            measured += 1;
            if site == 0 {
                straggler_hits += 1;
            }
        }
        ex.feed(site, t);
        // Feedback: the policy sees each link's observed mean latency.
        for s in 0..K {
            if let Some(lat) = ex.mean_up_latency(s) {
                assign.observe(s, lat);
            }
        }
    }
    ex.quiesce();
    let frac = straggler_hits as f64 / measured as f64;
    // Uniform would give 1/k = 12.5%; exploit weight 1/(1+66) vs 1/(1+2)
    // puts ≈ 0.6% of exploit mass there, plus explore/k ≈ 1.25%.
    assert!(
        frac < 0.06,
        "straggler still receives {:.1}% of elements",
        frac * 100.0
    );
    assert!(straggler_hits > 0, "exploration must keep probing site 0");
    assert_eq!(ex.stats().elements, n);
}

// --- release-gated ε-bound suite (the acceptance criterion) ---

/// All seven Table-1 protocols meet the mean-error-≤-ε bound under the
/// acceptance scenario `+loss:0.05+dup:0.05+churn:0.1` (and the per-
/// protocol error metric `measure::run` scores — count relative
/// error, frequency per-query error on the hottest item per Theorem
/// 3.1, rank max-over-deciles error).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "20-seed release-gated acceptance suite; covered by release CI"
)]
fn all_protocols_meet_epsilon_under_the_acceptance_fault_mix() {
    check(|c| c.test == "all_protocols_meet_epsilon_under_the_acceptance_fault_mix");
}

/// `Windowed<P>` meets the same bound under the acceptance mix — the
/// epoch seal/ack machinery re-synchronizes churned sites.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "20-seed release-gated acceptance suite; covered by release CI"
)]
fn windowed_meets_epsilon_under_the_acceptance_fault_mix() {
    check(|c| c.test == "windowed_meets_epsilon_under_the_acceptance_fault_mix");
}

/// Each fault alone also stays within ε (a fault combination could mask
/// a single fault's bias by accident; singles rule that out).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "20-seed release-gated acceptance suite; covered by release CI"
)]
fn each_single_fault_meets_epsilon() {
    check(|c| c.test == "each_single_fault_meets_epsilon");
}
