//! Quickstart: track a distributed count with √k-factor less
//! communication than the deterministic optimum — on any executor in
//! the scenario matrix, whole-stream or sliding-window.
//!
//! Run: `cargo run --release --example quickstart [EXEC]`
//!
//! `EXEC` is an `ExecConfig` scenario spec (default `lockstep`):
//! `lockstep | channel | event[:instant] | event:fixed:D |
//! event:random:MIN:MAX | event:reorder:W`, optionally suffixed
//! `+window:W` to track only the last `W` elements, `+tree:F[:D]` to
//! aggregate through a fanout-`F` tree instead of the flat star, and —
//! on event modes — `+loss:P`, `+dup:P`, `+churn[:R]`, `+straggle:S`
//! to inject link faults, e.g.
//!
//! ```text
//! cargo run --release --example quickstart -- event:random:1:32
//! cargo run --release --example quickstart -- lockstep+window:100000
//! cargo run --release --example quickstart -- lockstep+tree:4
//! cargo run --release --example quickstart -- event+loss:0.05+dup:0.05+churn
//! ```

use dtrack::core::count::{DeterministicCount, RandomizedCount};
use dtrack::core::query::CountQuery;
use dtrack::core::window::Windowed;
use dtrack::core::TrackingConfig;
use dtrack::sim::{ExecConfig, Executor, Tree};

fn main() {
    let exec: ExecConfig = std::env::args()
        .nth(1)
        .map(|s| s.parse().unwrap_or_else(|e| panic!("{e}")))
        .unwrap_or_else(ExecConfig::lockstep);
    let k = 64; // sites
    let eps = 0.01; // 1% error target
    let n = 1_000_000u64;
    let cfg = TrackingConfig::new(k, eps);
    let batch: Vec<(usize, u64)> = (0..n).map(|t| ((t % k as u64) as usize, t)).collect();

    // (estimate, msgs, words, space) per protocol. Every coordinator —
    // flat, windowed, tree — answers through `CountQuery`: the sliding
    // estimate under `+window`, the root's under `+tree`.
    let run = |randomized: bool| -> (f64, u64, u64, u64) {
        macro_rules! drive {
            ($proto:expr) => {{
                let mut ex = exec.mode.build_faulty(exec.faults, &$proto, 42);
                ex.feed_batch(batch.clone());
                ex.quiesce();
                let est: f64 = ex.query(|c| c.count());
                let stats = ex.stats();
                (
                    est,
                    stats.total_msgs(),
                    stats.total_words(),
                    ex.space().max_peak(),
                )
            }};
        }
        // The scenario's shape wraps the protocol (`+tree` and `+window`
        // are mutually exclusive — the parser rejects the combination).
        macro_rules! shaped {
            ($proto:expr) => {
                match (exec.tree, exec.window) {
                    (Some(spec), _) => drive!(Tree::new($proto, spec)),
                    (None, Some(win)) => drive!(Windowed::new($proto, win)),
                    (None, None) => drive!($proto),
                }
            };
        }
        if randomized {
            shaped!(RandomizedCount::new(cfg))
        } else {
            shaped!(DeterministicCount::new(cfg))
        }
    };

    let truth = exec.window.map_or(n, |w| n.min(w)) as f64;
    let (rand_est, rand_msgs, rand_words, rand_space) = run(true);
    let (det_est, det_msgs, det_words, det_space) = run(false);

    println!("scenario              : {exec}");
    match exec.window {
        None => println!("true count            : {n}"),
        Some(w) => println!("true windowed count   : {truth:.0} (last {w} of {n})"),
    }
    println!(
        "randomized estimate   : {rand_est:.0}  (error {:.3}%)",
        (rand_est - truth).abs() / truth * 100.0
    );
    println!(
        "deterministic estimate: {det_est:.0}  (error {:.3}%)",
        (det_est - truth).abs() / truth * 100.0
    );
    println!();
    println!(
        "randomized    : {rand_msgs:>8} msgs, {rand_words:>8} words, {rand_space} words/site peak"
    );
    println!(
        "deterministic : {det_msgs:>8} msgs, {det_words:>8} words, {det_space} words/site peak"
    );
    println!(
        "\nsavings: {:.1}× fewer messages (paper predicts ≈ √k = {:.0}× asymptotically)",
        det_msgs as f64 / rand_msgs as f64,
        (k as f64).sqrt()
    );
    if exec.window.is_some() {
        println!(
            "(windowed runs pay epoch-restart overhead on top — see `exp_window` for the table)"
        );
    }
}
