//! The protocols on the paper's own lower-bound inputs, plus the
//! frequency-from-rank reduction and failure-injection-style stress.
//! Executors are selected through [`ExecConfig`] — the same config enum
//! the experiment binaries use — so these scenarios run against the
//! event-scheduled runtime (and its delivery policies) as well as the
//! lock-step runner.

use dtrack::core::boost::{copies_needed, Replicated};
use dtrack::core::count::RandomizedCount;
use dtrack::core::frequency::RandomizedFrequency;
use dtrack::core::rank::RandomizedRank;
use dtrack::core::reduction::{encode, frequency_from_ranks, TieBreaker};
use dtrack::core::TrackingConfig;
use dtrack::sim::{DeliveryPolicy, ExecConfig, Runner};
use dtrack::workload::{MuCase, MuDistribution, SubroundInstance};

#[test]
fn count_accurate_on_mu_both_cases() {
    let (k, eps, n) = (16, 0.1, 100_000u64);
    let cfg = TrackingConfig::new(k, eps);
    let mu = MuDistribution::new(k, n);
    // Instant event delivery ≡ lock-step (pinned by exec_equivalence),
    // so this also covers the Runner path at no extra cost.
    let exec = ExecConfig::event(DeliveryPolicy::Instant);
    for case in [MuCase::OneSite(5), MuCase::RoundRobinAll] {
        let arrivals = mu.arrivals(case);
        let mut ok = 0;
        let reps = 20;
        for seed in 0..reps {
            let mut ex = exec.build(&RandomizedCount::new(cfg), seed);
            ex.feed_batch(arrivals.iter().map(|a| (a.site, a.item)).collect());
            ex.quiesce();
            let est = ex.coord().expect("in-process").estimate();
            if (est - n as f64).abs() <= eps * n as f64 {
                ok += 1;
            }
        }
        assert!(ok >= 15, "{case:?}: only {ok}/{reps} within εn");
    }
}

#[test]
fn count_stays_sound_under_delayed_and_reordered_delivery() {
    // The off-model scenario matrix the event runtime exists for: the
    // protocol's control loop acts on stale feedback (messages delayed
    // by many arrivals or adversarially reordered), yet after quiesce
    // the estimate must stay within a relaxed 2εn — reproducibly, since
    // every one of these runs is deterministic given its seed.
    let (k, eps, n) = (16, 0.1, 60_000u64);
    let cfg = TrackingConfig::new(k, eps);
    let mu = MuDistribution::new(k, n);
    let arrivals = mu.arrivals(MuCase::RoundRobinAll);
    for exec in [
        ExecConfig::event(DeliveryPolicy::FixedLatency(16)),
        ExecConfig::event(DeliveryPolicy::RandomDelay { min: 1, max: 64 }),
        ExecConfig::event(DeliveryPolicy::AdversarialReorder { window: 32 }),
    ] {
        let mut ok = 0;
        let reps = 10;
        for seed in 0..reps {
            let mut ex = exec.build(&RandomizedCount::new(cfg), seed);
            ex.feed_batch(arrivals.iter().map(|a| (a.site, a.item)).collect());
            ex.quiesce();
            let est = ex.coord().expect("in-process").estimate();
            if (est - n as f64).abs() <= 2.0 * eps * n as f64 {
                ok += 1;
            }
        }
        assert!(ok >= 8, "{exec}: only {ok}/{reps} within 2εn");
    }
}

#[test]
fn count_cheap_and_accurate_on_subround_instance() {
    let (k, eps) = (64usize, 0.05);
    let inst = SubroundInstance::new(k, eps, 10);
    let sched = inst.generate(4);
    let arrivals = SubroundInstance::arrivals(&sched);
    let n = arrivals.len() as f64;
    let mut r = Runner::new(&RandomizedCount::new(TrackingConfig::new(k, eps)), 6);
    for a in &arrivals {
        r.feed(a.site, &a.item);
    }
    // Accuracy at the end.
    assert!(
        (r.coord().estimate() - n).abs() <= 2.0 * eps * n,
        "est {} vs {n}",
        r.coord().estimate()
    );
    // Cost per subround is O(k) — the lower bound charges Ω(k), so the
    // two should bracket a constant factor.
    let per_subround = r.stats().total_msgs() as f64 / sched.len() as f64;
    assert!(
        per_subround < 20.0 * k as f64,
        "per-subround msgs {per_subround}"
    );
}

#[test]
fn frequency_survives_single_hot_site_with_bounded_space() {
    // Failure-injection flavour: one site takes all traffic (hot-spot
    // failure of the load balancer); virtual splits must keep its memory
    // flat and the estimates sound.
    let (k, eps, n) = (16, 0.05, 120_000u64);
    let cfg = TrackingConfig::new(k, eps);
    let mut r = Runner::new(&RandomizedFrequency::new(cfg), 3);
    for t in 0..n {
        r.feed(7, &(t % 50));
    }
    let est = r.coord().estimate_frequency(0);
    let truth = (n / 50) as f64;
    assert!((est - truth).abs() <= 2.0 * eps * n as f64, "est {est}");
    let bound = 30.0 / (eps * (k as f64).sqrt()) + 100.0;
    assert!((r.space().max_peak() as f64) < bound);
}

#[test]
fn frequency_via_rank_reduction_end_to_end() {
    let (k, eps, n) = (9, 0.15, 60_000u64);
    let proto = RandomizedRank::new(TrackingConfig::new(k, eps));
    let mut r = Runner::new(&proto, 21);
    let mut tb: Vec<TieBreaker> = (0..k).map(|i| TieBreaker::new(i, k)).collect();
    let mut truth = [0f64; 4];
    for t in 0..n {
        let site = (t % k as u64) as usize;
        let item = (t % 4) as u32;
        truth[item as usize] += 1.0;
        r.feed(site, &encode(item, tb[site].next_tie()));
    }
    for item in 0..4u32 {
        let est = frequency_from_ranks(r.coord(), item);
        assert!(
            (est - truth[item as usize]).abs() <= 3.0 * eps * n as f64,
            "item {item}: est {est} vs {}",
            truth[item as usize]
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug (median boosting × mu); runs in release CI"
)]
fn boosted_tracker_correct_at_all_times_on_mu() {
    let (k, eps, n) = (8, 0.15, 60_000u64);
    let copies = copies_needed(0.05, eps, n).min(11);
    let proto = Replicated::new(RandomizedCount::new(TrackingConfig::new(k, eps)), copies);
    // Case (a) — the nastier case for count tracking.
    let mu = MuDistribution::new(k, n);
    let arrivals = mu.arrivals(MuCase::OneSite(2));
    let mut r = Runner::new(&proto, 31);
    let mut worst = 0.0f64;
    for (t, a) in arrivals.iter().enumerate() {
        r.feed(a.site, &a.item);
        if t % 37 == 0 {
            let est = r.coord().median_by(|c| c.estimate());
            worst = worst.max((est - (t + 1) as f64).abs() / (t + 1) as f64);
        }
    }
    assert!(worst <= eps, "worst error {worst} > eps {eps}");
}
