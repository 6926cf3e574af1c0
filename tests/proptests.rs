//! Property-based integration tests: protocol invariants under arbitrary
//! arrival interleavings, item distributions, parameters — and, since
//! the fault-injection layer landed, arbitrary loss/duplication
//! schedules over randomly assembled scenario strings.

use dtrack::core::boost::{Replicated, ReplicatedCoord};
use dtrack::core::count::{DeterministicCount, RandCountCoord, RandomizedCount};
use dtrack::core::frequency::{DeterministicFrequency, RandomizedFrequency};
use dtrack::core::rank::{DeterministicRank, RandomizedRank};
use dtrack::core::sampling::ContinuousSampling;
use dtrack::core::window::{WinCoord, Windowed};
use dtrack::core::TrackingConfig;
use dtrack::sim::exec::EventRuntime;
use dtrack::sim::{
    DeliveryPolicy, ExecConfig, ExecMode, FaultPlan, Protocol, Runner, Site, Tree, TreeCoord,
    TreeSpec,
};
use proptest::prelude::*;

/// Snapshot-equivalence harness for the live-query layer (the staleness
/// battery lives in `tests/query_storm.rs`). With a [`QueryHandle`]
/// installed, the lock-step `Runner` and the instant `EventRuntime`
/// publish at identical boundaries — once per element fed, once per
/// quiesce — so their `(epoch, answers)` pairs must agree bit-for-bit
/// at **every** epoch, not merely at quiescence. The channel executor's
/// publish points are scheduling-dependent (one per coordinator apply),
/// so its property is necessarily weaker: epochs are monotone under
/// reads racing real threads, answers stay finite, and the post-quiesce
/// handle answer equals the stop-the-world query exactly.
///
/// [`QueryHandle`]: dtrack::sim::QueryHandle
fn assert_snapshot_equivalence<P, Q>(
    name: &str,
    proto: &P,
    seed: u64,
    arrivals: &[(usize, u64)],
    queries: Q,
) where
    P: Protocol,
    P::Site: Site<Item = u64>,
    Q: Fn(&P::Coord) -> Vec<f64> + Clone + Send + 'static,
{
    // Lock-step vs instant event executor: identical epochs, identical
    // answers, at every publish boundary.
    let mut runner = Runner::new(proto, seed);
    let mut event = EventRuntime::new(proto, seed);
    let hr = runner.query_handle();
    let he = event.query_handle();
    assert_eq!(hr.epoch(), 0, "{name}: runner handle not fresh at epoch 0");
    assert_eq!(he.epoch(), 0, "{name}: event handle not fresh at epoch 0");
    for &(site, item) in arrivals {
        runner.feed(site, &item);
        event.feed(site, item);
        let a = hr.read(|s| (s.epoch, queries(&s.state)));
        let b = he.read(|s| (s.epoch, queries(&s.state)));
        assert_eq!(a, b, "{name}: runner/event snapshots diverged mid-stream");
        assert!(
            a.1.iter().all(|v| v.is_finite()),
            "{name}: non-finite live answer {:?}",
            a.1
        );
    }
    runner.publish_now();
    event.quiesce();
    let a = hr.read(|s| (s.epoch, queries(&s.state)));
    let b = he.read(|s| (s.epoch, queries(&s.state)));
    assert_eq!(
        a, b,
        "{name}: runner/event snapshots diverged after quiesce"
    );
    assert_eq!(
        a.1,
        queries(runner.coord()),
        "{name}: post-quiesce handle answers differ from the coordinator"
    );

    // Channel executor: monotone epochs while real threads race, exact
    // agreement with the stop-the-world query once quiesced.
    let mut ch = ExecConfig::channel().build(proto, seed);
    let hc = ch.query_handle();
    let mut last_epoch = 0u64;
    for &(site, item) in arrivals {
        ch.feed(site, item);
        let (epoch, ans) = hc.read(|s| (s.epoch, queries(&s.state)));
        assert!(epoch >= last_epoch, "{name}: channel epoch went backwards");
        last_epoch = epoch;
        assert!(
            ans.iter().all(|v| v.is_finite()),
            "{name}: non-finite channel live answer {ans:?}"
        );
    }
    ch.quiesce();
    let truth = ch.query({
        let q = queries.clone();
        move |c: &P::Coord| q(c)
    });
    let (epoch, ans) = hc.read(|s| (s.epoch, queries(&s.state)));
    assert!(epoch >= last_epoch, "{name}: channel epoch went backwards");
    assert_eq!(
        ans, truth,
        "{name}: channel post-quiesce handle answers differ from query"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The deterministic count baseline's guarantee is unconditional:
    /// n̂ ≤ n ≤ (1+ε)n̂ at every instant for ANY interleaving.
    #[test]
    fn deterministic_count_invariant(
        sites in proptest::collection::vec(0usize..6, 1..2000),
        eps in 0.02f64..0.5,
    ) {
        let cfg = TrackingConfig::new(6, eps);
        let mut r = Runner::new(&DeterministicCount::new(cfg), 0);
        for (t, &s) in sites.iter().enumerate() {
            r.feed(s, &(t as u64));
            let n = (t + 1) as f64;
            let est = r.coord().estimate();
            prop_assert!(est <= n + 1e-9);
            prop_assert!(n <= est * (1.0 + eps) + 1e-9);
        }
    }

    /// Randomized count: the estimate is always non-negative, never more
    /// than a constant multiple of n, and exact while p = 1.
    #[test]
    fn randomized_count_sanity(
        sites in proptest::collection::vec(0usize..4, 1..1500),
        seed in 0u64..1000,
    ) {
        let cfg = TrackingConfig::new(4, 0.2);
        let mut r = Runner::new(&RandomizedCount::new(cfg), seed);
        for (t, &s) in sites.iter().enumerate() {
            r.feed(s, &(t as u64));
            let est = r.coord().estimate();
            prop_assert!(est >= 0.0);
            if r.coord().p() == 1.0 {
                prop_assert!((est - (t + 1) as f64).abs() < 1e-9,
                    "p=1 must be exact: est {est} at t {t}");
            }
        }
        // Message conservation: words ≥ messages ≥ broadcast charge.
        let st = r.stats();
        prop_assert!(st.total_words() >= st.total_msgs());
        prop_assert!(st.down_msgs >= st.broadcast_events * 4);
    }

    /// Frequency: Σ over the whole (small) domain of estimates is an
    /// unbiased estimate of n — check the average over seeds (a single
    /// run's sum has std Θ(εn·√domain), too noisy to pin down).
    #[test]
    fn frequency_mass_conservation(
        items in proptest::collection::vec(0u64..8, 200..800),
        seed0 in 0u64..500,
    ) {
        let k = 4;
        let cfg = TrackingConfig::new(k, 0.25);
        let n = items.len() as f64;
        let seeds = 16;
        let mut avg = 0.0;
        for s in 0..seeds {
            let mut r = Runner::new(&RandomizedFrequency::new(cfg), seed0 + s);
            for (t, &item) in items.iter().enumerate() {
                r.feed(t % k, &item);
            }
            avg += (0..8u64).map(|j| r.coord().estimate_frequency(j)).sum::<f64>();
        }
        avg /= seeds as f64;
        prop_assert!((avg - n).abs() <= 0.6 * n + 16.0, "avg {avg} vs n {n}");
    }

    /// Rank estimates are monotone in the query point and bounded by the
    /// unbiased total, for any distinct-item stream.
    #[test]
    fn rank_monotonicity(
        salt in 1u64..5000,
        seed in 0u64..500,
        n in 100u64..1500,
    ) {
        let cfg = TrackingConfig::new(4, 0.3);
        let mut r = Runner::new(&RandomizedRank::new(cfg), seed);
        let seq = dtrack::workload::items::DistinctSeq::new(salt);
        for t in 0..n {
            r.feed((t % 4) as usize, &seq.value_at(t));
        }
        let mut prev = 0.0f64;
        prop_assert!(r.coord().estimate_rank(0) >= 0.0);
        for x in (0..=u64::MAX - 1).step_by(usize::MAX / 16) {
            let est = r.coord().estimate_rank(x);
            prop_assert!(est + 1e-9 >= prev, "dip at {x}: {est} < {prev}");
            prev = est;
        }
        let total = r.coord().estimate_rank(u64::MAX);
        prop_assert!((total - n as f64).abs() <= 0.9 * n as f64 + 8.0);
    }

    /// Fault schedules are data: any `+loss`/`+dup` mix over any delay
    /// policy, assembled into a scenario string, parses, runs an
    /// arbitrary interleaving to quiescence without panicking, and keeps
    /// the deterministic count baseline's unconditional ε invariant —
    /// the transport may delay, retry, and duplicate, but the protocol
    /// must observe an exactly-once in-order stream. The proptest
    /// harness shrinks `sites`/`loss`/`dup` toward minimal failing
    /// schedules.
    #[test]
    fn lossy_duplicating_links_never_violate_deterministic_count(
        sites in proptest::collection::vec(0usize..6, 1..600),
        loss in 0.0f64..0.4,
        dup in 0.0f64..0.5,
        delay in 0u64..12,
        eps in 0.05f64..0.5,
        seed in 0u64..1000,
    ) {
        let spec = format!("event:random:0:{}+loss:{loss}+dup:{dup}", delay + 1);
        let exec: ExecConfig = spec.parse().expect("assembled spec must parse");
        let cfg = TrackingConfig::new(6, eps);
        let mut ex = exec.build(&DeterministicCount::new(cfg), seed);
        for (t, &s) in sites.iter().enumerate() {
            ex.feed(s, t as u64);
        }
        ex.quiesce();
        let n = sites.len() as f64;
        let est = ex.query(|c: &dtrack::core::count::DetCountCoord| c.estimate());
        prop_assert!(est <= n + 1e-9, "{spec}: n̂ {est} > n {n}");
        prop_assert!(n <= est * (1.0 + eps) + 1e-9, "{spec}: n {n} ≰ (1+ε)n̂");
    }

    /// The same fault mix over the randomized frequency protocol: never
    /// panics, answers stay finite and within a coarse multiple of n
    /// (the sharp ε statement is the release-gated suite's job; this one
    /// buys breadth — hundreds of random fault schedules per CI run).
    #[test]
    fn lossy_duplicating_links_keep_frequency_sane(
        items in proptest::collection::vec(0u64..8, 100..600),
        loss in 0.0f64..0.4,
        dup in 0.0f64..0.5,
        seed in 0u64..1000,
    ) {
        let spec = format!("event+loss:{loss}+dup:{dup}");
        let exec: ExecConfig = spec.parse().expect("assembled spec must parse");
        let k = 4;
        let cfg = TrackingConfig::new(k, 0.25);
        let mut ex = exec.build(&RandomizedFrequency::new(cfg), seed);
        for (t, &item) in items.iter().enumerate() {
            ex.feed(t % k, item);
        }
        ex.quiesce();
        let n = items.len() as f64;
        for j in 0..8u64 {
            let est = ex.query(
                move |c: &dtrack::core::frequency::RandFreqCoord| c.estimate_frequency(j),
            );
            prop_assert!(est.is_finite(), "{spec}: estimate_frequency({j}) = {est}");
            prop_assert!(est.abs() <= 3.0 * n + 8.0, "{spec}: |f̂({j})| = {est} vs n {n}");
        }
    }

    /// Scenario strings round-trip for ANY valid fault plan, not just
    /// the hand-picked table in `exec::tests`: Display∘parse is the
    /// identity on (mode, window, plan).
    #[test]
    fn any_valid_fault_plan_round_trips_through_the_scenario_string(
        loss in 0.0f64..0.9,
        dup in 0.0f64..1.0,
        churn in 0.0f64..0.5,
        straggle in 0u64..10_000,
        window in 0u64..1_000_000,
    ) {
        let plan = FaultPlan::none()
            .with_loss(loss)
            .with_dup(dup)
            .with_churn(churn)
            .with_straggle(straggle);
        prop_assert!(plan.validate().is_ok());
        let mut cfg = ExecConfig::from(ExecMode::Event(DeliveryPolicy::Instant, plan));
        if window >= 2 {
            cfg = cfg.windowed(window);
        }
        let rendered = cfg.to_string();
        let reparsed: ExecConfig = rendered.parse()
            .unwrap_or_else(|e| panic!("{rendered:?} failed to reparse: {e}"));
        prop_assert_eq!(reparsed, cfg, "{}", rendered);
    }

    /// Space accounting: the frequency site never exceeds its cap by more
    /// than a constant factor, on any workload shape.
    #[test]
    fn frequency_space_capped(
        hot_site in 0usize..4,
        n in 500u64..4000,
        seed in 0u64..200,
    ) {
        let k = 4;
        let eps = 0.1;
        let cfg = TrackingConfig::new(k, eps);
        let mut r = Runner::new(&RandomizedFrequency::new(cfg), seed);
        for t in 0..n {
            r.feed(hot_site, &t); // all-distinct, single-site: worst case
        }
        // Expected cap: 2 words per counter, ≤ p·(n̄/k) counters + consts;
        // generous multiple to absorb binomial tails.
        let bound = 40.0 / (eps * (k as f64).sqrt()) + 80.0;
        prop_assert!((r.space().max_peak() as f64) < bound,
            "peak {} ≥ {bound}", r.space().max_peak());
    }

    /// Live-query snapshots agree across all three executors for every
    /// Table-1 protocol, on arbitrary arrival interleavings: runner and
    /// instant event runtime are bit-identical at matching epochs
    /// (strong form), the channel runtime is monotone while racing and
    /// exact after quiesce (weak form — its epochs are real-scheduling
    /// artifacts). See `assert_snapshot_equivalence` for the contract.
    #[test]
    fn live_handles_agree_across_executors_for_all_protocols(
        sites in proptest::collection::vec(0usize..4, 20..80),
        seed in 0u64..500,
    ) {
        let cfg = TrackingConfig::new(4, 0.2);
        // Small-domain items exercise count/frequency merging; rank and
        // sampling assume duplicate-free streams, so they get distinct
        // items from the same interleaving.
        let zipfish: Vec<(usize, u64)> = sites.iter().enumerate()
            .map(|(t, &s)| (s, (t as u64 * 7) % 16)).collect();
        let distinct: Vec<(usize, u64)> = sites.iter().enumerate()
            .map(|(t, &s)| (s, t as u64)).collect();

        assert_snapshot_equivalence(
            "randomized count", &RandomizedCount::new(cfg), seed, &zipfish,
            |c: &dtrack::core::count::RandCountCoord| vec![c.estimate()],
        );
        assert_snapshot_equivalence(
            "deterministic count", &DeterministicCount::new(cfg), seed, &zipfish,
            |c: &dtrack::core::count::DetCountCoord| vec![c.estimate()],
        );
        assert_snapshot_equivalence(
            "randomized frequency", &RandomizedFrequency::new(cfg), seed, &zipfish,
            |c: &dtrack::core::frequency::RandFreqCoord| {
                (0..10).map(|j| c.estimate_frequency(j)).collect()
            },
        );
        assert_snapshot_equivalence(
            "deterministic frequency", &DeterministicFrequency::new(cfg), seed, &zipfish,
            |c: &dtrack::core::frequency::DetFreqCoord| {
                (0..10).map(|j| c.estimate_frequency(j)).collect()
            },
        );
        assert_snapshot_equivalence(
            "randomized rank", &RandomizedRank::new(cfg), seed, &distinct,
            |c: &dtrack::core::rank::RandRankCoord| {
                [u64::MAX / 4, u64::MAX / 2, u64::MAX / 4 * 3]
                    .iter().map(|&x| c.estimate_rank(x)).collect()
            },
        );
        assert_snapshot_equivalence(
            "deterministic rank", &DeterministicRank::new(cfg), seed, &distinct,
            |c: &dtrack::core::rank::DetRankCoord| {
                [u64::MAX / 4, u64::MAX / 2, u64::MAX / 4 * 3]
                    .iter().map(|&x| c.estimate_rank(x)).collect()
            },
        );
        assert_snapshot_equivalence(
            "continuous sampling", &ContinuousSampling::new(cfg), seed, &distinct,
            |c: &dtrack::core::sampling::SamplingCoord| {
                vec![
                    c.estimate_count(),
                    c.estimate_frequency(3),
                    c.estimate_rank(u64::MAX / 2),
                ]
            },
        );
        // The wrappers: a snapshot is a clone of the whole wrapper
        // coordinator (windowed buckets mid-seal, tree aggregators with
        // their sites and cursors, every boosted copy), so these pin the
        // derived `Clone`s.
        assert_snapshot_equivalence(
            "windowed randomized frequency",
            &Windowed::new(RandomizedFrequency::new(cfg), 32), seed, &zipfish,
            |c: &WinCoord<RandomizedFrequency>| {
                (0..10).map(|j| c.windowed_frequency(j)).collect()
            },
        );
        assert_snapshot_equivalence(
            "depth-2 tree randomized count",
            &Tree::new(RandomizedCount::new(cfg), TreeSpec::new(2).with_depth(2)), seed, &zipfish,
            |c: &TreeCoord<RandomizedCount>| vec![c.root().estimate()],
        );
        assert_snapshot_equivalence(
            "replicated randomized count",
            &Replicated::new(RandomizedCount::new(cfg), 3), seed, &zipfish,
            |c: &ReplicatedCoord<RandCountCoord>| {
                c.copies().iter().map(RandCountCoord::estimate).collect()
            },
        );
    }

    /// A depth-1 `+tree` is the flat star, bit for bit, on ANY
    /// interleaving and seed — same estimate bits, same message and
    /// word accounting (the `Tree` layer forwards verbatim until it has
    /// levels to add).
    #[test]
    fn depth1_tree_equals_flat_on_any_interleaving(
        sites in proptest::collection::vec(0usize..6, 1..400),
        seed in 0u64..1000,
        fanout in 2usize..9,
    ) {
        let cfg = TrackingConfig::new(6, 0.2);
        let proto = RandomizedCount::new(cfg);
        let tree = Tree::new(proto, TreeSpec::new(fanout).with_depth(1));
        let mut rf = Runner::new(&proto, seed);
        let mut rt = Runner::new(&tree, seed);
        for (t, &s) in sites.iter().enumerate() {
            rf.feed(s, &(t as u64));
            rt.feed(s, &(t as u64));
            prop_assert_eq!(
                rf.coord().estimate().to_bits(),
                rt.coord().root().estimate().to_bits(),
                "depth-1 root diverged from flat at t = {}", t
            );
        }
        prop_assert_eq!(rf.stats(), rt.stats());
    }

    /// The split-ε bound, as a property: a depth-2 deterministic-count
    /// tree over ANY interleaving keeps `n̂ ≤ n` (replay floors only
    /// under-replay) and `n ≤ (1+ε/2)²·n̂ + A·(1+ε/2)²` where `A` counts
    /// the aggregators — each level contributes its `(1+ε/2)` factor
    /// and each aggregator loses < 1 element to its replay floor. The
    /// tree answer therefore stays within the combined budget of the
    /// flat star's answer (both live in `[floor, n]`, so their gap is
    /// bounded by the larger deficit).
    #[test]
    fn depth2_tree_count_stays_within_the_split_eps_bound(
        sites in proptest::collection::vec(0usize..6, 1..800),
        eps in 0.05f64..0.5,
        seed in 0u64..500,
    ) {
        let cfg = TrackingConfig::new(6, eps);
        let proto = DeterministicCount::new(cfg);
        let tree = Tree::new(proto, TreeSpec::new(3).with_depth(2));
        let mut rf = Runner::new(&proto, seed);
        let mut rt = Runner::new(&tree, seed);
        for (t, &s) in sites.iter().enumerate() {
            rf.feed(s, &(t as u64));
            rt.feed(s, &(t as u64));
        }
        let n = sites.len() as f64;
        let aggs = rt.coord().aggregators() as f64;
        let per2 = (1.0 + eps / 2.0).powi(2);
        let est = rt.coord().root().estimate();
        prop_assert!(est <= n + 1e-9, "tree n̂ {} > n {}", est, n);
        prop_assert!(
            n <= est * per2 + aggs * per2 + 1e-9,
            "n {} > (1+ε/2)²·n̂ + A·(1+ε/2)²  (n̂ = {}, A = {})", n, est, aggs
        );
        // Tree-vs-flat gap: flat ≥ n/(1+ε), tree ≥ n/(1+ε/2)² − A, and
        // both ≤ n, so the gap is at most the larger deficit from n.
        let flat = rf.coord().estimate();
        let floor = (n / (1.0 + eps)).min(n / per2 - aggs);
        prop_assert!(
            (est - flat).abs() <= n - floor + 1e-9,
            "tree {} vs flat {} further apart than the split-ε budget {}",
            est, flat, n - floor
        );
    }
}
