//! Release-mode ingest stress for the lock-free channel runtime.
//!
//! The transport under test (`dtrack::sim::ring` + the thread-per-site
//! runtime built on it) replaces mutex-guarded queues with SPSC rings,
//! an atomic credit gate, and spin → nap → park idling with lazy data
//! wakes. These tests push element volumes large enough that every cold
//! path fires thousands of times — ring wraparound, full-ring producer
//! parking, credit exhaustion and release, consumer nap/park/unpark —
//! and then check the one invariant that catches every lost- or
//! duplicated-element bug:
//! **exact element accounting** (`stats.elements == n`, per-site sums
//! reaching the coordinator intact).
//!
//! Debug builds ignore these tests (they are sized for `--release`; CI
//! runs them there under a bounded timeout).

use std::sync::Arc;
use std::thread;

use dtrack::core::count::RandomizedCount;
use dtrack::core::TrackingConfig;
use dtrack::sim::runtime::ChannelRuntime;
use dtrack::sim::ExecConfig;

/// Batched fast path: millions of elements through `feed_batch` on the
/// channel executor. The batch is ~250× the per-site ring capacity, so
/// producers park on full rings and sites park on empty ones all the
/// way through; quiesce must still observe every element exactly once.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "multi-million element ingest; covered by release CI"
)]
fn batched_ingest_accounts_for_every_element() {
    let (k, eps, n) = (16usize, 0.05, 4_000_000u64);
    let proto = RandomizedCount::new(TrackingConfig::new(k, eps));
    let mut ex = ExecConfig::channel().build(&proto, 42);
    let batch: Vec<(usize, u64)> = (0..n).map(|t| ((t % k as u64) as usize, t)).collect();
    ex.feed_batch(batch);
    ex.quiesce();
    let est: f64 = ex.query(|c: &dtrack::core::count::RandCountCoord| c.estimate());
    assert!(
        (est - n as f64).abs() <= 2.0 * eps * n as f64,
        "estimate {est} too far from {n}"
    );
    let stats = ex.stats();
    assert_eq!(stats.elements, n, "ingest lost or duplicated elements");
    assert!(stats.total_msgs() > 0);
}

/// Per-element path, one producer: every `feed` is one ring push whose
/// wake is lazy while the site naps, so over a million elements the
/// spin → nap → park wait and the watermark wake are crossed thousands
/// of times, with probes (eager drain wake + barrier) in between. At
/// `k = 1` the lone site also lives at the credit cap; at `k = 16` each
/// site sees a sparse stream and naps between most arrivals. A lost
/// wakeup is a hang (CI bounds the lane), a lost element a wrong count.
fn per_element_feed_is_exact(k: usize) {
    // One up per element: `up_msgs` has a single right answer.
    let (eps, n) = (1e-9, 1_000_000u64);
    let proto = dtrack::core::count::DeterministicCount::new(TrackingConfig::new(k, eps));
    let rt = ChannelRuntime::new(&proto, 3);
    for t in 0..n {
        rt.feed((t % k as u64) as usize, t);
        if t % 100_000 == 99_999 {
            rt.quiesce();
            assert_eq!(rt.with_coord(|c| c.estimate()), (t + 1) as f64);
        }
    }
    rt.quiesce();
    let stats = rt.shutdown();
    assert_eq!(stats.elements, n, "per-element feed lost elements");
    assert_eq!(stats.up_msgs, n, "per-element feed lost or duplicated ups");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "million-element per-element ingest; covered by release CI"
)]
fn per_element_feed_is_exact_at_k1() {
    per_element_feed_is_exact(1);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "million-element per-element ingest; covered by release CI"
)]
fn per_element_feed_is_exact_at_k16() {
    per_element_feed_is_exact(16);
}

/// Concurrent producers: several OS threads feeding one runtime through
/// the `&self` per-element path, all racing the multi-producer ring
/// CAS. Accounting must stay exact — the coordinator's element count
/// and the sum each site forwards both have single known answers.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "threaded million-element ingest; covered by release CI"
)]
fn racing_producers_keep_exact_accounting() {
    let (k, eps) = (8usize, 0.1);
    let producers = 4u64;
    let per_producer = 250_000u64;
    let n = producers * per_producer;
    let proto = RandomizedCount::new(TrackingConfig::new(k, eps));
    let rt: Arc<ChannelRuntime<RandomizedCount>> = Arc::new(ChannelRuntime::new(&proto, 7));
    let handles: Vec<_> = (0..producers)
        .map(|p| {
            let rt = Arc::clone(&rt);
            thread::spawn(move || {
                for t in 0..per_producer {
                    let g = p * per_producer + t;
                    rt.feed((g % k as u64) as usize, g);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    rt.quiesce();
    let est = rt.with_coord(|c| c.estimate());
    assert!(
        (est - n as f64).abs() <= 2.0 * eps * n as f64,
        "estimate {est} too far from {n}"
    );
    let rt = Arc::into_inner(rt).expect("all producer clones joined");
    let stats = rt.shutdown();
    assert_eq!(stats.elements, n, "racing producers corrupted accounting");
}
