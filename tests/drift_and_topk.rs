//! Non-stationary workloads and the top-k layer: the per-round restart
//! logic must keep estimates correct when the hot set moves, and the
//! Theorem-3.2 sequential arrival order must not break anything. The
//! drifting-hot-set scenario runs over an [`ExecConfig`] matrix (the
//! same config enum the experiment binaries use), including a delayed
//! delivery policy — a moving hot set under stale feedback is exactly
//! the regime the per-round restart logic could get wrong.

use dtrack::core::frequency::{RandomizedFrequency, TopK};
use dtrack::core::rank::RandomizedRank;
use dtrack::core::TrackingConfig;
use dtrack::sim::exec::EventRuntime;
use dtrack::sim::{DeliveryPolicy, ExecConfig, Runner};
use dtrack::sketch::exact::ExactCounts;
use dtrack::workload::items::DistinctSeq;
use dtrack::workload::{DriftingItems, Pacing, RoundRobin, Sequential, Workload};

#[test]
fn frequency_tracks_a_drifting_hot_set() {
    let (k, eps, n) = (8, 0.02, 160_000u64);
    let cfg = TrackingConfig::new(k, eps);
    for (exec, slack) in [
        (ExecConfig::lockstep(), 2.0),
        // A drifting hot set with 8-tick-stale feedback: the restart
        // logic lags the drift, so allow an extra εn of error.
        (ExecConfig::event(DeliveryPolicy::FixedLatency(8)), 3.0),
    ] {
        // Hot set rotates 4 times during the run.
        let items = DriftingItems::new(1_000, 1.3, n / 4, 250);
        let arrivals = Workload::new(items, RoundRobin::new(k), n, 5).collect_vec();
        let mut exact = ExactCounts::new();
        let mut ex = exec.build(&RandomizedFrequency::new(cfg), 6);
        ex.feed_batch(
            arrivals
                .iter()
                .map(|a| {
                    exact.observe(a.item);
                    (a.site, a.item)
                })
                .collect(),
        );
        ex.quiesce();
        // Each phase's hottest item (0, 250, 500, 750) must be well estimated.
        for &hot in &[0u64, 250, 500, 750] {
            let est = ex.coord().expect("in-process").estimate_frequency(hot);
            let truth = exact.frequency(hot) as f64;
            assert!(
                (est - truth).abs() <= slack * eps * n as f64,
                "{exec} hot {hot}: est {est} truth {truth}"
            );
            assert!(truth > 0.05 * n as f64, "workload sanity: {truth}");
        }
    }
}

#[test]
fn bursty_timed_schedule_through_the_event_queue() {
    // A timed schedule (bursts of 64 arrivals, 100 idle ticks apart)
    // driven through `feed_at` under fixed-latency delivery: every
    // burst is fully in flight before any coordinator feedback lands —
    // the adversarial regime for the control loop — yet after quiesce
    // the frequency estimates must still meet a relaxed bound.
    let (k, eps, n) = (8, 0.05, 60_000u64);
    let cfg = TrackingConfig::new(k, eps);
    let schedule = Workload::new(
        DriftingItems::new(500, 1.3, n / 2, 100),
        RoundRobin::new(k),
        n,
        11,
    )
    .timed(Pacing::Bursty {
        burst: 64,
        idle: 100,
    });
    let mut exact = ExactCounts::new();
    let mut rt = EventRuntime::with_policy(
        &RandomizedFrequency::new(cfg),
        12,
        DeliveryPolicy::FixedLatency(50),
    );
    for ta in schedule {
        exact.observe(ta.item);
        rt.feed_at(ta.at, ta.site, ta.item);
    }
    rt.quiesce();
    for &hot in &[0u64, 100] {
        let est = rt.coord().estimate_frequency(hot);
        let truth = exact.frequency(hot) as f64;
        assert!(truth > 0.03 * n as f64, "workload sanity: {truth}");
        assert!(
            (est - truth).abs() <= 3.0 * eps * n as f64,
            "hot {hot}: est {est} truth {truth}"
        );
    }
}

#[test]
fn topk_follows_the_drift() {
    let (k, eps, n) = (8, 0.01, 120_000u64);
    let cfg = TrackingConfig::new(k, eps);
    // Single drift halfway: first half hot item 0, second half hot 500.
    let items = DriftingItems::new(1_000, 1.6, n / 2, 500);
    let arrivals = Workload::new(items, RoundRobin::new(k), n, 7).collect_vec();
    let mut r = Runner::new(&RandomizedFrequency::new(cfg), 8);
    for a in &arrivals {
        r.feed(a.site, &a.item);
    }
    let top = TopK::compute(r.coord(), 2, eps * n as f64);
    let ids = top.ids();
    assert!(ids.contains(&0), "missing phase-1 hot item: {ids:?}");
    assert!(ids.contains(&500), "missing phase-2 hot item: {ids:?}");
}

#[test]
fn sequential_arrivals_theorem_3_2_shape() {
    // Site 0 gets all its elements first, then site 1, … — the arrival
    // order from the Theorem 3.2 reduction. Frequency and rank must stay
    // within their guarantees (this is also the worst case for the
    // virtual-site splitting, since load is maximally bursty per site).
    let (k, eps, n) = (8, 0.05, 80_000u64);
    let cfg = TrackingConfig::new(k, eps);

    // Frequency over a small domain.
    let mut freq = Runner::new(&RandomizedFrequency::new(cfg), 9);
    let arrivals =
        Workload::new(DistinctSeq::new(3), Sequential::new(k, n / k as u64), n, 10).collect_vec();
    let mut exact = ExactCounts::new();
    for a in &arrivals {
        let item = a.item % 16; // fold distinct values onto 16 items
        freq.feed(a.site, &item);
        exact.observe(item);
    }
    let est = freq.coord().estimate_frequency(7);
    let truth = exact.frequency(7) as f64;
    assert!(
        (est - truth).abs() <= 2.0 * eps * n as f64,
        "freq est {est} truth {truth}"
    );

    // Rank over distinct values.
    let mut rank = Runner::new(&RandomizedRank::new(cfg), 11);
    let mut all = Vec::new();
    for a in &arrivals {
        rank.feed(a.site, &a.item);
        all.push(a.item);
    }
    all.sort_unstable();
    let x = all[all.len() / 2];
    let truth = all.partition_point(|&v| v < x) as f64;
    let est = rank.coord().estimate_rank(x);
    assert!(
        (est - truth).abs() <= 3.0 * eps * n as f64,
        "rank est {est} truth {truth}"
    );
}
