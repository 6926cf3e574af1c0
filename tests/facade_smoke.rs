//! Workspace-wiring smoke test: every Table-1 protocol must be reachable
//! and runnable through the `dtrack` umbrella re-exports alone. This pins
//! the facade (`dtrack::core`, `dtrack::sim`, ...) so a future refactor
//! cannot silently break downstream `use dtrack::...` paths.

use dtrack::core::count::{DeterministicCount, RandomizedCount};
use dtrack::core::frequency::{DeterministicFrequency, RandomizedFrequency};
use dtrack::core::rank::{DeterministicRank, RandomizedRank};
use dtrack::core::sampling::ContinuousSampling;
use dtrack::core::TrackingConfig;
use dtrack::sim::Runner;

const K: usize = 4;
const N: u64 = 2_000;
const SEED: u64 = 9;

fn cfg() -> TrackingConfig {
    TrackingConfig::new(K, 0.2)
}

/// Feed a short round-robin stream and return the runner for querying.
fn drive<P: dtrack::sim::Protocol>(proto: &P) -> Runner<P>
where
    P::Site: dtrack::sim::Site<Item = u64>,
{
    let mut r = Runner::new(proto, SEED);
    for t in 0..N {
        r.feed((t % K as u64) as usize, &(t % 50));
    }
    r
}

#[test]
fn randomized_count_via_facade() {
    let r = drive(&RandomizedCount::new(cfg()));
    let est = r.coord().estimate();
    assert!(est > 0.0, "estimate {est}");
    assert!(r.stats().total_msgs() > 0);
}

#[test]
fn deterministic_count_via_facade() {
    let r = drive(&DeterministicCount::new(cfg()));
    let est = r.coord().estimate();
    // The deterministic guarantee is unconditional.
    assert!(est <= N as f64 && N as f64 <= est * 1.2 + 1e-9, "est {est}");
}

#[test]
fn randomized_frequency_via_facade() {
    let r = drive(&RandomizedFrequency::new(cfg()));
    let est = r.coord().estimate_frequency(7);
    assert!(est.is_finite());
}

#[test]
fn deterministic_frequency_via_facade() {
    let r = drive(&DeterministicFrequency::new(cfg()));
    // Item 7 appears N/50 = 40 times; deterministic error ≤ εn.
    let est = r.coord().estimate_frequency(7);
    assert!((est - 40.0).abs() <= 0.2 * N as f64 + 1e-9, "est {est}");
}

#[test]
fn randomized_rank_via_facade() {
    let r = drive(&RandomizedRank::new(cfg()));
    let est = r.coord().estimate_rank(25);
    assert!(est.is_finite());
    // Monotone in the query point.
    assert!(r.coord().estimate_rank(50) + 1e-9 >= est);
}

#[test]
fn deterministic_rank_via_facade() {
    // Rank tracking assumes duplicate-free streams; use distinct items.
    let proto = DeterministicRank::new(cfg());
    let mut r = Runner::new(&proto, SEED);
    for t in 0..N {
        r.feed((t % K as u64) as usize, &t);
    }
    let est = r.coord().estimate_rank(N / 2);
    assert!(
        (est - (N / 2) as f64).abs() <= 0.2 * N as f64 + 1.0,
        "est {est}"
    );
}

#[test]
fn continuous_sampling_via_facade() {
    let proto = ContinuousSampling::new(cfg());
    let mut r = Runner::new(&proto, SEED);
    for t in 0..N {
        r.feed((t % K as u64) as usize, &t);
    }
    let c = r.coord();
    assert!(c.estimate_count().is_finite());
    assert!(c.estimate_frequency(1).is_finite());
    assert!(c.estimate_rank(N / 2).is_finite());
}

/// The other facade modules resolve and expose their headline types.
#[test]
fn sibling_facades_resolve() {
    use dtrack::bounds::SamplingProblem;
    use dtrack::sketch::GkSummary;
    use dtrack::workload::{UniformItems, UniformSites, Workload};

    let mut gk = GkSummary::new(0.25);
    gk.insert(1);
    assert_eq!(gk.n(), 1);

    let wl = Workload::new(UniformItems::new(10), UniformSites::new(3), 5, 1);
    assert_eq!(wl.collect_vec().len(), 5);

    let _ = SamplingProblem::new(64);
}
