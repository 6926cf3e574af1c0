//! Live-query battery for the snapshot read path.
//!
//! The `Executor::query_handle` contract under test (see
//! `dtrack::sim::snapshot`):
//!
//! * **Prefix consistency** — every answer comes from a whole coordinator
//!   state at a publish boundary, never a torn intermediate, so count
//!   snapshots are monotone non-decreasing for a monotone estimator
//!   (`DeterministicCount`: per-site last-reported counters only grow,
//!   and per-site FIFO delivery keeps each monotone at the coordinator).
//! * **Bounded staleness** — an answer lags ingest by at most one
//!   snapshot epoch; with ingest *paused* (after `quiesce`) a handle
//!   answer is bit-identical to the stop-the-world `query`, and with
//!   ingest *racing* every answer is bounded between the truths at the
//!   race's start and end.
//!
//! The seeded staleness tests and the 8-reader × 1M-query storm are
//! sized for `--release` and ignored in debug builds (CI runs them in
//! the release lane next to `ingest_stress`); the `smoke_` tests stay
//! fast enough for the debug fault-matrix smoke lane.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dtrack::core::count::{DetCountCoord, DeterministicCount, RandomizedCount};
use dtrack::core::TrackingConfig;
use dtrack::sim::runtime::ChannelRuntime;
use dtrack::sim::{ExecConfig, Executor, QueryHandle};

const K: usize = 8;
const EPS: f64 = 0.05;

fn det_count() -> DeterministicCount {
    DeterministicCount::new(TrackingConfig::new(K, EPS))
}

/// Feed `n` elements round-robin through the batched fast path.
fn feed_round_robin(ex: &mut impl Executor<DeterministicCount>, n: u64, offset: u64) {
    let batch: Vec<(usize, u64)> = (0..n)
        .map(|t| (((offset + t) % K as u64) as usize, offset + t))
        .collect();
    ex.feed_batch(batch);
}

/// Debug-friendly smoke: a handle created mid-stream is fresh at
/// creation, live reads are sane while ingest continues, and the
/// fresh-after-quiesce answer is bit-identical to the stop-the-world
/// query. Runs on every executor the fault-matrix smoke lane builds.
#[test]
fn smoke_handle_reads_match_quiesced_query() {
    for spec in ["lockstep", "event:instant", "event:fixed:4", "channel"] {
        let cfg: ExecConfig = spec.parse().unwrap();
        let mut ex = cfg.build(&det_count(), 11);
        feed_round_robin(&mut ex, 5_000, 0);
        let handle = ex.query_handle();
        ex.quiesce();
        let truth = ex.query(|c: &DetCountCoord| c.estimate());
        assert_eq!(
            handle.read(|s| s.state.estimate()),
            truth,
            "{spec}: post-quiesce handle read differs from query"
        );
        // A clone (a handle of its own on the cell) sees the same snapshot.
        assert_eq!(handle.clone().read(|s| s.state.estimate()), truth, "{spec}");
        // Feed more: the live read advances without any quiesce.
        let before = handle.read(|s| (s.epoch, s.state.estimate()));
        feed_round_robin(&mut ex, 5_000, 5_000);
        ex.quiesce();
        let after = handle.read(|s| (s.epoch, s.state.estimate()));
        assert!(after.0 > before.0, "{spec}: epoch did not advance");
        assert!(after.1 > before.1, "{spec}: estimate did not advance");
        assert_eq!(
            after.1,
            ex.query(|c: &DetCountCoord| c.estimate()),
            "{spec}"
        );
    }
}

/// Satellite: with ingest **paused at a known prefix**, every handle
/// answer equals the quiesced stop-the-world answer — bit-identical,
/// stable across repeated reads and across handle clones, at two
/// different prefixes, over 20 seeds.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "20-seed channel-runtime staleness sweep; covered by release CI"
)]
fn paused_ingest_answers_equal_quiesced_truth_over_seeds() {
    for seed in 0..20u64 {
        let mut ex = ExecConfig::channel().build(&det_count(), seed);
        let handle = ex.query_handle();
        for (phase, n) in [(0u64, 40_000u64), (1, 60_000)] {
            let offset = phase * 40_000;
            feed_round_robin(&mut ex, n, offset);
            ex.quiesce();
            let truth = ex.query(|c: &DetCountCoord| c.estimate());
            for _ in 0..100 {
                assert_eq!(
                    handle.read(|s| s.state.estimate()),
                    truth,
                    "seed {seed} phase {phase}: paused handle drifted from truth"
                );
            }
            let clone = handle.clone();
            assert_eq!(clone.read(|s| s.state.estimate()), truth, "seed {seed}");
            // Paused ingest ⇒ the epoch is stable too: two consecutive
            // reads observe the same snapshot.
            assert_eq!(handle.epoch(), handle.epoch(), "seed {seed}");
        }
    }
}

/// Satellite: with ingest **racing**, every answer is bounded between
/// the truth at the race's start (T0) and at its end (T1), and epochs
/// are monotone per reader — 20 seeds. `DeterministicCount`'s estimate
/// is monotone along the coordinator's apply order, so prefix
/// consistency makes [T0, T1] exact bounds; a torn or non-prefix
/// snapshot could land outside them.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "20-seed racing staleness sweep; covered by release CI"
)]
fn racing_answers_bounded_between_prefix_truths() {
    for seed in 0..20u64 {
        let mut ex = ExecConfig::channel().build(&det_count(), seed);
        let handle = ex.query_handle();
        feed_round_robin(&mut ex, 50_000, 0);
        ex.quiesce();
        let t0 = ex.query(|c: &DetCountCoord| c.estimate());

        let stop = Arc::new(AtomicBool::new(false));
        // The reader's sample count so far: the feed it races starts only
        // once it has taken one — a freshly spawned thread may get no CPU
        // before a 50 000-element feed + quiesce is over.
        let sampled = Arc::new(AtomicU64::new(0));
        let reader = {
            let h = handle.clone();
            let stop = Arc::clone(&stop);
            let sampled = Arc::clone(&sampled);
            thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut last_est = 0.0f64;
                let mut samples = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (epoch, est) = h.read(|s| (s.epoch, s.state.estimate()));
                    assert!(epoch >= last_epoch, "epoch went backwards");
                    assert!(est >= last_est, "count snapshot decreased");
                    (last_epoch, last_est) = (epoch, est);
                    samples += 1;
                    sampled.store(samples, Ordering::Relaxed);
                }
                (samples, last_est)
            })
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while sampled.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "seed {seed}: reader never ran");
            thread::yield_now();
        }

        feed_round_robin(&mut ex, 50_000, 50_000);
        ex.quiesce();
        let t1 = ex.query(|c: &DetCountCoord| c.estimate());
        stop.store(true, Ordering::Relaxed);
        let (samples, racing_max) = reader.join().unwrap();

        assert!(samples > 0, "seed {seed}: reader never sampled");
        // Monotonicity was asserted per sample; the largest racing answer
        // must also respect the end-of-race truth, and every answer ≥ the
        // reader's first-possible truth is implied by monotone ≥ 0. The
        // start truth bounds the *post-T0* samples: since the reader
        // started after quiesce at T0, its first sample already sees ≥ T0.
        assert!(
            racing_max <= t1,
            "seed {seed}: racing answer {racing_max} exceeds end truth {t1}"
        );
        assert!(
            racing_max >= t0,
            "seed {seed}: final racing answer {racing_max} below start truth {t0}"
        );
    }
}

/// Satellite: the storm — 8 reader threads × 1M queries each racing
/// `feed_batch` on the channel runtime. No panic, monotone
/// non-decreasing count snapshots per reader, and exact final answers
/// after quiesce.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "8-thread × 1M-query storm; covered by release CI"
)]
fn reader_storm_races_batched_ingest() {
    const READERS: usize = 8;
    const QUERIES_PER_READER: u64 = 1_000_000;
    const N: u64 = 1_000_000;

    let mut ex = ExecConfig::channel().build(&det_count(), 99);
    let handle = ex.query_handle();
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let h: QueryHandle<DetCountCoord> = handle.clone();
            thread::spawn(move || {
                let (mut last_epoch, mut last_est) = (0u64, 0.0f64);
                for _ in 0..QUERIES_PER_READER {
                    let (epoch, est) = h.read(|s| (s.epoch, s.state.estimate()));
                    assert!(epoch >= last_epoch, "epoch went backwards");
                    assert!(est >= last_est, "count snapshot decreased");
                    (last_epoch, last_est) = (epoch, est);
                }
            })
        })
        .collect();

    feed_round_robin(&mut ex, N, 0);
    ex.quiesce();
    for r in readers {
        r.join().expect("reader thread panicked");
    }
    let truth = ex.query(|c: &DetCountCoord| c.estimate());
    assert_eq!(
        handle.read(|s| s.state.estimate()),
        truth,
        "post-quiesce handle answer not exact"
    );
    assert!(
        (truth - N as f64).abs() <= EPS * N as f64 + 1.0,
        "estimate {truth} too far from {N}"
    );
    assert_eq!(ex.stats().elements, N, "storm lost or duplicated elements");
}

/// The randomized protocol under the same storm shape (readers can't
/// assert monotonicity — the estimator subtracts a correction — but
/// answers must stay finite and the post-quiesce answer exact).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "threaded storm over the randomized protocol; covered by release CI"
)]
fn randomized_count_storm_stays_consistent() {
    let proto = RandomizedCount::new(TrackingConfig::new(K, EPS));
    let n = 1_000_000u64;
    let mut rt: ChannelRuntime<RandomizedCount> = ChannelRuntime::new(&proto, 5);
    // `query_handle` needs exclusive access; take it before sharing.
    let handle = rt.query_handle();
    let rt = Arc::new(rt);

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let h = handle.clone();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut last_epoch = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (epoch, est) = h.read(|s| (s.epoch, s.state.estimate()));
                    assert!(epoch >= last_epoch, "epoch went backwards");
                    assert!(est.is_finite(), "estimate not finite");
                    last_epoch = epoch;
                }
            })
        })
        .collect();

    let producers: Vec<_> = (0..4u64)
        .map(|p| {
            let rt = Arc::clone(&rt);
            thread::spawn(move || {
                for t in 0..n / 4 {
                    let g = p * (n / 4) + t;
                    rt.feed((g % K as u64) as usize, g);
                }
            })
        })
        .collect();
    for p in producers {
        p.join().unwrap();
    }
    rt.quiesce();
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader thread panicked");
    }
    let truth = rt.with_coord(|c| c.estimate());
    assert_eq!(handle.read(|s| s.state.estimate()), truth);
    assert!((truth - n as f64).abs() <= 2.0 * EPS * n as f64);
    let rt = Arc::into_inner(rt).expect("all producers joined");
    assert_eq!(rt.shutdown().elements, n);
}
