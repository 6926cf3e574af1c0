//! Sensor-network scenario: 25 sensors stream distinct measurement
//! records; the base station continuously tracks the median and the
//! 95th percentile — rank tracking (§4). By default this runs on the
//! *concurrent* channel runtime (one thread per sensor), driven by a
//! **timed bursty schedule** through `feed_at`: readings arrive in
//! bursts on a wall-clock timeline instead of as fast as the channels
//! allow (the ROADMAP's `Workload::timed` → real-threads pacing).
//!
//! Run: `cargo run --release --example sensor_quantiles [EXEC]`
//! e.g. `… -- lockstep`, `… -- event:fixed:8+loss:0.05`,
//!      `… -- channel+window:100000` (p50/p95 of the last 100k readings),
//!      `… -- channel+tree:5` (readings aggregated through regional
//!      collectors; the base station answers at the tree's root)
//!
//! Self-checking: exits 1 if the final, post-quiesce median or p95 is
//! more than ε (2 %) of the tracked readings away from its true rank.

use std::time::Duration;

use dtrack::core::rank::{RandRankCoord, RandomizedRank};
use dtrack::core::window::{WinCoord, Windowed};
use dtrack::core::TrackingConfig;
use dtrack::sim::{AnyExec, ExecConfig, Tree, TreeCoord};
use dtrack::workload::items::DistinctSeq;
use dtrack::workload::{Pacing, UniformSites, Workload};

fn main() {
    let exec: ExecConfig = std::env::args()
        .nth(1)
        .map(|s| s.parse().unwrap_or_else(|e| panic!("{e}")))
        .unwrap_or_else(ExecConfig::channel);
    let k = 25; // sensors
    let eps = 0.02;
    let n = 300_000u64; // readings

    // Distinct readings (timestamp ⊕ jitter makes real sensor records
    // unique; DistinctSeq models that as a 64-bit bijection), on a
    // bursty timeline: 50 simultaneous readings every 25 ticks.
    let schedule =
        Workload::new(DistinctSeq::new(5), UniformSites::new(k), n, 11).timed(Pacing::Bursty {
            burst: 50,
            idle: 25,
        });

    let proto = RandomizedRank::new(TrackingConfig::new(k, eps));
    let mut all: Vec<u64> = Vec::with_capacity(n as usize);

    // Quantile queries, whole-stream or windowed, through a
    // live-query handle: the base station reads the latest published
    // snapshot **without stopping ingest** — mid-run answers may lag
    // in-flight readings by at most one snapshot epoch, and the final
    // post-quiesce read is bit-identical to a stop-the-world query.
    macro_rules! drive {
        ($ex:expr, $query:expr) => {{
            let mut ex = $ex;
            // The channel runtime paces `feed_at` on the wall clock; keep
            // the demo snappy (the event runtime interprets the same
            // ticks virtually, the lock-step runner ignores them).
            if let AnyExec::Channel(rt) = &mut ex {
                rt.set_tick(Duration::from_nanos(500));
            }
            let handle = ex.query_handle();
            let query = $query;
            let mut t = 0u64;
            for a in schedule {
                ex.feed_at(a.at, a.site, a.item);
                all.push(a.item);
                t += 1;
                // Periodic live reads: no quiesce, readings keep flowing.
                if t % 100_000 == 0 && t < n {
                    let (p50, p95, total): (u64, u64, f64) = handle.read(|s| query(&s.state));
                    report(&all, exec.window, t, p50, p95, total);
                }
            }
            ex.quiesce();
            let (p50, p95, total): (u64, u64, f64) = handle.read(|s| query(&s.state));
            let worst = report(&all, exec.window, n, p50, p95, total);
            let stats = ex.stats();
            println!(
                "\nradio cost: {} messages, {} words total ({:.4} words/reading)",
                stats.total_msgs(),
                stats.total_words(),
                stats.total_words() as f64 / n as f64
            );
            worst
        }};
    }

    println!("scenario: {exec} — bursty schedule (50 readings / 25 ticks)");
    // The scenario's shape wraps the protocol (`+tree` and `+window` are
    // mutually exclusive — the parser rejects the combination).
    let worst = if let Some(spec) = exec.tree {
        drive!(
            exec.mode.build(&Tree::new(proto, spec), 11),
            |c: &TreeCoord<RandomizedRank>| {
                let root = c.root();
                (
                    root.quantile(0.50, 0, u64::MAX),
                    root.quantile(0.95, 0, u64::MAX),
                    root.estimate_total(),
                )
            }
        )
    } else if let Some(w) = exec.window {
        drive!(
            exec.mode.build(&Windowed::new(proto, w), 11),
            |c: &WinCoord<RandomizedRank>| {
                (
                    c.windowed_quantile(0.50, 0, u64::MAX),
                    c.windowed_quantile(0.95, 0, u64::MAX),
                    c.windowed_total(),
                )
            }
        )
    } else {
        drive!(exec.mode.build(&proto, 11), |c: &RandRankCoord| {
            (
                c.quantile(0.50, 0, u64::MAX),
                c.quantile(0.95, 0, u64::MAX),
                c.estimate_total(),
            )
        })
    };
    if worst > eps {
        eprintln!(
            "FAIL: final rank error {:.2}% exceeds ε = {:.2}%",
            worst * 100.0,
            eps * 100.0
        );
        std::process::exit(1);
    }
}

/// Compare estimates against the exact quantiles of the tracked scope
/// (whole stream, or its last `w` readings); returns the larger of the
/// two rank errors as a fraction of the scope.
fn report(all: &[u64], window: Option<u64>, t: u64, p50: u64, p95: u64, total: f64) -> f64 {
    let scope: &[u64] = match window {
        Some(w) => &all[all.len().saturating_sub(w as usize)..],
        None => all,
    };
    let mut sorted = scope.to_vec();
    sorted.sort_unstable();
    let true_p50 = sorted[sorted.len() / 2];
    let true_p95 = sorted[sorted.len() * 95 / 100];
    let rank_err = |est: u64, truth: u64| {
        let re = sorted.partition_point(|&v| v < est) as f64;
        let rt = sorted.partition_point(|&v| v < truth) as f64;
        (re - rt).abs() / sorted.len() as f64
    };
    let (err50, err95) = (rank_err(p50, true_p50), rank_err(p95, true_p95));
    match window {
        Some(w) => println!("after {t:>7} readings, last {w} (n̂_W = {total:.0}):",),
        None => println!("after {t:>7} readings (n̂ = {total:.0}):"),
    }
    println!(
        "  median ≈ {p50:>20}  (true {true_p50:>20}, rank error {:.2}%)",
        err50 * 100.0
    );
    println!(
        "  p95    ≈ {p95:>20}  (true {true_p95:>20}, rank error {:.2}%)",
        err95 * 100.0
    );
    err50.max(err95)
}
