//! Integration tests for the sliding-window subsystem
//! (`dtrack_core::window`): accuracy against the exact sliding-window
//! truth (seed-averaged, per the ROADMAP's seed-sensitivity guidance),
//! bit-exact equivalence across the deterministic executors, behavior on
//! drifting workloads, and an O(k) epoch-seal construction guard. The
//! mean-error bounds hold on lock-step, and on the channel runtime at
//! its row's setting; they are not a bias check. The conformance matrix
//! (`tests/conformance.rs`) is: it reads windowed randomized count
//! biased off lock-step, +1.3 ε on single-threaded fixed-latency event
//! executors and +0.3 ε on the channel runtime, an expected failure
//! naming ROADMAP direction 1(a). The seed loops are rows of that
//! matrix's table; each test here keeps its name as a filter over it.

mod matrix;

use dtrack::core::count::RandomizedCount;
use dtrack::core::frequency::RandomizedFrequency;
use dtrack::core::sampling::ContinuousSampling;
use dtrack::core::window::{EpochProtocol, WinCoord, Windowed};
use dtrack::core::TrackingConfig;
use dtrack::sim::exec::{DeliveryPolicy, EventRuntime};
use dtrack::sim::{ExecConfig, ExecMode, FaultPlan, Protocol, Runner};
use dtrack::workload::scenarios;
use dtrack_bench::measure::{run, windowed_frequency_bias, Algo, Problem, WINDOWED_BIAS_DOMAIN};
use matrix::{check, RC};

/// **Acceptance criterion**: `Windowed<RandomizedCount>` answers over
/// the last `W` items are within the configured ε of an exact sliding
/// counter, as a mean over ≥ 20 seeds.
#[test]
fn windowed_count_mean_error_within_epsilon_over_20_seeds() {
    check(|c| c.test == "windowed_count_mean_error_within_epsilon_over_20_seeds");
}

/// The adapter tracks mid-stream too, not just at the end: the mean
/// error at checkpoints with the window partially filled and fully
/// rolled over, each scored against `min(t, W)`.
#[test]
fn windowed_count_tracks_at_checkpoints() {
    check(|c| c.test == "windowed_count_tracks_at_checkpoints");
}

/// **Acceptance criterion**: bit-identical windowed answers across
/// `Runner` and `EventRuntime` under instant delivery — and the same
/// window state, which `Run` does not carry.
#[test]
fn windowed_count_equivalence_across_deterministic_executors() {
    check(|c| c.test == "windowed_equivalence" && c.row == RC);
    let proto = Windowed::new(RandomizedCount::new(TrackingConfig::new(8, 0.1)), 2_048);
    let state = |mode: ExecMode| {
        let mut ex = mode.build(&proto, 42);
        ex.feed_batch((0..12_000u64).map(|t| ((t % 8) as usize, t)).collect());
        ex.quiesce();
        ex.query(|c: &WinCoord<RandomizedCount>| (c.n_approx(), c.epoch(), c.bucket_count()))
    };
    let instant = ExecMode::Event(DeliveryPolicy::Instant, FaultPlan::none());
    assert_eq!(state(ExecMode::LockStep), state(instant));
}

#[test]
fn windowed_sampling_equivalence_across_deterministic_executors() {
    check(|c| c.test == "windowed_equivalence" && c.row.1 == Algo::Sampling);
}

/// A windowed answer does not depend on when the control plane
/// arrives: buckets close where the sites' seal acks say they switched,
/// not where the coordinator's heartbeat clock stood. Deterministic
/// count, whose estimate is a function of each site's element counts,
/// then answers under fixed-latency delivery exactly as under
/// lock-step — seals reach the sites eight ticks late, and every
/// answer still matches bit for bit. (Bytes do not: an ack's varint is
/// the position its site switched at.)
#[test]
fn windowed_answers_do_not_depend_on_control_plane_latency() {
    check(|c| c.test == "control_plane");
}

/// Same-seed replay under a seeded random-delay policy is bit-exact,
/// and the windowed protocol survives delayed delivery (finite, sane
/// answers after quiesce).
#[test]
fn windowed_random_delay_is_reproducible_and_sane() {
    let delayed = || {
        let exec = "event:random:1:32+window:2048".parse().unwrap();
        run(exec, Problem::Count, Algo::Randomized, 4, 0.1, 10_000, 7)
    };
    let r = delayed();
    assert_eq!(delayed(), r, "same seed must replay bit-for-bit");
    let est = r.answers[0];
    assert!(est.is_finite());
    assert!(
        (est - 2_048.0).abs() <= 1_536.0,
        "windowed estimate {est} far from 2048 under random delay"
    );
}

/// On a drifting workload, the windowed heavy hitter is the *current*
/// phase's hot item, and the previous phase's hot item has aged out —
/// the qualitative behavior that separates windowed from whole-stream
/// tracking.
#[test]
fn windowed_frequency_follows_drift() {
    let (k, n, phases, w) = (8, 40_000u64, 4u64, 8_192u64);
    let proto = Windowed::new(RandomizedFrequency::new(TrackingConfig::new(k, 0.05)), w);
    let mut r = Runner::new(&proto, 17);
    for a in scenarios::drifting(k, n, phases, 3) {
        r.feed(a.site, &a.item);
    }
    let current = scenarios::drifting_hot_item(phases - 1);
    let previous = scenarios::drifting_hot_item(phases - 2);
    let hh = r.coord().windowed_heavy_hitters(0.05 * w as f64);
    assert!(
        hh.first().map(|&(item, _)| item) == Some(current),
        "top windowed heavy hitter should be the current phase's hot item {current}, got {hh:?}"
    );
    let f_cur = r.coord().windowed_frequency(current);
    let f_prev = r.coord().windowed_frequency(previous);
    assert!(
        f_cur > 4.0 * f_prev.max(1.0),
        "current hot {f_cur} should dwarf previous hot {f_prev}"
    );
}

/// Resident state stays logarithmic in the stream length: epochs grow
/// unboundedly, buckets do not, and expired history is really gone.
#[test]
fn windowed_buckets_stay_bounded_over_long_streams() {
    let proto = Windowed::new(RandomizedCount::new(TrackingConfig::new(4, 0.2)), 1_024);
    let mut r = Runner::new(&proto, 3);
    let mut max_buckets = 0;
    for t in 0..100_000u64 {
        r.feed((t % 4) as usize, &t);
        if t % 5_000 == 0 {
            max_buckets = max_buckets.max(r.coord().bucket_count());
        }
    }
    assert!(r.coord().epoch() > 2_000, "epoch {}", r.coord().epoch());
    assert!(
        max_buckets <= 28,
        "bucket count {max_buckets} not logarithmic"
    );
    let est = r.coord().windowed_count();
    assert!(
        (est - 1_024.0).abs() < 512.0,
        "after 100k elements the window must still read ≈1024, got {est}"
    );
}

/// On the climbing-value workload the exact sliding-window rank is
/// known in closed form — after `n` arrivals the window holds values
/// `n−W … n−1`, so `rank_W(x) = clamp(x − (n − W), 0, W)` — giving an
/// analytic accuracy check for windowed rank queries (seed-averaged).
#[test]
fn windowed_rank_matches_closed_form_on_climbing_values() {
    let (k, eps, n, w) = (4, 0.1, 20_000u64, 4_096u64);
    let seeds = 20;
    let probes = [n - w + w / 4, n - w / 2, n - w / 10];
    let mut errs = [0.0f64; 3];
    for seed in 0..seeds {
        let proto = Windowed::new(ContinuousSampling::new(TrackingConfig::new(k, eps)), w);
        let mut r = Runner::new(&proto, 300 + seed);
        for a in scenarios::climbing(k, n, seed) {
            r.feed(a.site, &a.item);
        }
        for (e, &x) in errs.iter_mut().zip(&probes) {
            let truth = x.saturating_sub(n - w).min(w) as f64;
            *e += (r.coord().windowed_rank(x) - truth).abs() / w as f64;
        }
    }
    for (&x, e) in probes.iter().zip(errs) {
        let mean = e / seeds as f64;
        assert!(
            mean <= 1.5 * eps,
            "probe {x}: mean windowed rank error {mean:.4} vs eps {eps}"
        );
    }
}

/// **Acceptance criterion**: the *channel* runtime — real threads, real
/// in-flight messages — meets the same mean-error bound as lock-step,
/// over 20 seeds, for the randomized and the deterministic inner count.
/// Buckets close at the positions the sites stamp into their seal acks,
/// so their ranges hold exactly their content; the transport's
/// out-of-band seals and per-site credit cap (see
/// `dtrack_sim::transport`) bound how far the window cut lags.
///
/// Release-gated: 40 threaded runs are slow in debug; the release CI
/// step covers it. A single-seed smoke below keeps debug coverage.
#[test]
#[cfg_attr(debug_assertions, ignore = "40 threaded runs; covered by release CI")]
fn windowed_count_channel_mean_error_within_epsilon_over_20_seeds() {
    check(|c| c.test == "windowed_count_channel_mean_error_within_epsilon_over_20_seeds");
}

/// Single-seed debug smoke of the same scenario: runs in the fast suite
/// so a channel-runtime regression is caught before release CI.
#[test]
fn windowed_count_channel_single_seed_smoke() {
    let exec = ExecConfig::channel().windowed(4_096);
    let r = run(exec, Problem::Count, Algo::Randomized, 4, 0.1, 20_000, 1);
    // Generous single-seed tolerance (the 20-seed mean above is the real
    // bound); still far tighter than the pre-fairness behavior, where
    // pro-rated answers could be off by integer factors.
    assert!(r.err < 0.5, "single-seed channel windowed error {}", r.err);
    assert!(r.stats.total_msgs() > 0);
}

/// Regression guard for the O(k) epoch-seal path: every seal must build
/// exactly one inner site instance per site (k total) and one inner
/// coordinator — never a full `build` of all k sites per site. Counted
/// through a test-only wrapper protocol whose constructor hooks
/// increment atomic counters.
#[test]
fn epoch_seal_builds_exactly_one_site_instance_per_site() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static FULL_BUILDS: AtomicUsize = AtomicUsize::new(0);
    static SITE_BUILDS: AtomicUsize = AtomicUsize::new(0);
    static COORD_BUILDS: AtomicUsize = AtomicUsize::new(0);

    #[derive(Clone, Copy)]
    struct Counting {
        inner: RandomizedCount,
    }
    impl Protocol for Counting {
        type Site = <RandomizedCount as Protocol>::Site;
        type Coord = <RandomizedCount as Protocol>::Coord;
        fn k(&self) -> usize {
            self.inner.k()
        }
        fn build(&self, master_seed: u64) -> (Vec<Self::Site>, Self::Coord) {
            FULL_BUILDS.fetch_add(1, Ordering::SeqCst);
            self.inner.build(master_seed)
        }
        fn build_site(&self, master_seed: u64, me: usize) -> Self::Site {
            SITE_BUILDS.fetch_add(1, Ordering::SeqCst);
            self.inner.build_site(master_seed, me)
        }
        fn build_coord(&self, master_seed: u64) -> Self::Coord {
            COORD_BUILDS.fetch_add(1, Ordering::SeqCst);
            self.inner.build_coord(master_seed)
        }
    }
    impl EpochProtocol for Counting {
        type Digest = <RandomizedCount as EpochProtocol>::Digest;
        fn digest(coord: &Self::Coord) -> Self::Digest {
            <RandomizedCount as EpochProtocol>::digest(coord)
        }
    }

    let k = 4usize;
    let proto = Windowed::new(
        Counting {
            inner: RandomizedCount::new(TrackingConfig::new(k, 0.1)),
        },
        1_024,
    );
    let mut r = Runner::new(&proto, 5);
    for t in 0..20_000u64 {
        r.feed((t % k as u64) as usize, &t);
    }
    let seals = r.coord().epoch() as usize;
    assert!(seals > 100, "expected many seals, got {seals}");
    // The windowed adapter must never perform a full k-site build of the
    // inner protocol — not even for the initial epoch.
    assert_eq!(FULL_BUILDS.load(Ordering::SeqCst), 0, "full builds");
    // Initial epoch: one site instance per site, one coordinator. Every
    // seal: exactly one site instance per site (k total, O(k) — not the
    // old O(k²) discard pattern) and one fresh inner coordinator.
    assert_eq!(
        SITE_BUILDS.load(Ordering::SeqCst),
        k * (seals + 1),
        "site constructions across {seals} seals"
    );
    assert_eq!(
        COORD_BUILDS.load(Ordering::SeqCst),
        seals + 1,
        "coordinator constructions across {seals} seals"
    );
}

/// **Acceptance criterion**: with epoch digests carrying the per-item
/// `−d/p` correction terms, the mean *signed* rare-item
/// `windowed_frequency` error over 20 seeds is statistically
/// indistinguishable from 0 — within the window machinery's own
/// heartbeat slack (granularity/2 = 128 elements, pro-rated by the
/// item's rate 1/32 → ≤ 4 elements/item) plus ~3 standard errors
/// (empirical SE ≈ 2 over 20-seed sets). Signed errors cancel unbiased
/// noise, so only systematic digest bias could break this.
///
/// Release-gated: 20 windowed runs are slow in debug; release CI runs
/// it (the companion positive-bias test below shares the gate).
#[test]
#[cfg_attr(debug_assertions, ignore = "20 windowed runs; covered by release CI")]
fn windowed_frequency_mean_signed_rare_item_error_centers_at_zero() {
    let (k, eps, n, w) = (8, 0.1, 40_000, 8_192);
    let bias = windowed_frequency_bias(ExecConfig::lockstep().windowed(w), true, k, eps, n, 20);
    assert!(
        bias.abs() <= 12.0,
        "corrected digests: mean signed rare-item error {bias:+.2} not centered at 0 \
         (slack bound 4 + 3·SE ≈ 12; truth {} per item, eps·W = {})",
        w / (2 * WINDOWED_BIAS_DOMAIN),
        eps * w as f64
    );
}

/// Companion to the test above: the *uncorrected* ablation digests
/// (tracked table only, every correction term dropped) must show the positive
/// rare-item bias the correction removes, proving this harness can
/// detect the bug it guards against. Empirically the bias sits at
/// ≈ +56..+60 elements/item here (SE ≈ 1.5); asserting ≥ 30 leaves a
/// wide margin while staying 2.5× above the corrected arm's ceiling.
#[test]
#[cfg_attr(debug_assertions, ignore = "20 windowed runs; covered by release CI")]
fn uncorrected_digests_show_positive_rare_item_bias() {
    let exec = ExecConfig::lockstep().windowed(8_192);
    let bias = windowed_frequency_bias(exec, false, 8, 0.1, 40_000, 20);
    assert!(
        bias >= 30.0,
        "uncorrected digests: expected measurable positive rare-item bias, got {bias:+.2}"
    );
}

/// Timed schedules drive every executor through `feed_at`:
/// the event runtime interprets ticks virtually, and the windowed
/// answers still come out right on a bursty timeline.
#[test]
fn windowed_timed_schedule_drives_the_event_runtime() {
    let (k, n, w) = (4, 20_000u64, 4_096u64);
    let proto = Windowed::new(RandomizedCount::new(TrackingConfig::new(k, 0.1)), w);
    let mut ex = EventRuntime::with_policy(&proto, 9, DeliveryPolicy::FixedLatency(3));
    let schedule = scenarios::bursty_drifting(k, n, 2, 64, 16, 5);
    for a in schedule {
        ex.feed_at(a.at, a.site, a.item);
    }
    ex.quiesce();
    let est = ex.coord().windowed_count();
    assert!(
        (est - w as f64).abs() < 0.35 * w as f64,
        "bursty windowed estimate {est} vs window {w}"
    );
}
