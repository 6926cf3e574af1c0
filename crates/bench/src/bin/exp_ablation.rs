//! Experiment **ABL**: ablations of the design choices the paper argues
//! for. Each arm removes one ingredient and measures the damage the
//! paper predicts:
//!
//! 1. **Count eq. (1) two-case estimator** — "separating the two cases in
//!    (1) is actually important. Otherwise … a bias of Θ(1/p) … summing
//!    over all k sites, this would exceed our error requirement."
//! 2. **Frequency eq. (4) −d/p branch** — "this estimator [eq. (2)] is
//!    biased and its bias might be as large as Θ(εn/√k). Summing over k
//!    streams, this would exceed our error guarantee."
//! 3. **Count p-halving re-thinning** — without the adjustment the
//!    coordinator misreads stale n̄ᵢ under the new p, overestimating by
//!    ≈ k/p right after every round boundary.
//! 4. **Rank block tree** — plain Bernoulli sampling at the same word
//!    budget has strictly larger variance than the tree + tail-sample
//!    decomposition.
//! 5. **Windowed digest −d/p carry-through** — the sliding-window analogue
//!    of arm 2: epoch digests flattened to the tracked table (every
//!    correction term dropped) leave every rare-item windowed estimate
//!    with a positive bias; digests that carry the per-epoch correction
//!    terms center the mean signed error at 0.
//!
//! Usage: `exp_ablation [N] [SEEDS] [EXEC]`
//! (arm 3 probes coordinator state after every element, which requires
//! the in-process lock-step executor; the other arms honor `EXEC`)
//!
//! Each arm asserts its claim and the binary exits 1 naming every arm
//! whose claim failed. The margins sit at about half of the smallest
//! value measured over N ∈ {100k, 200k, 400k} × seeds ∈ {10, 20, 40} on
//! the lock-step executor and at the defaults on `event:fixed:8` and
//! `channel`; each claim's comment gives the measured range.

use dtrack_bench::cli::{arg, banner, claim, exec_arg};
use dtrack_bench::table::{fmt_num, Table};
use dtrack_core::count::{RandCountCoord, RandomizedCount};
use dtrack_core::frequency::{RandFreqCoord, RandomizedFrequency};
use dtrack_core::rank::{RandRankCoord, RandomizedRank};
use dtrack_core::TrackingConfig;
use dtrack_sim::{ExecConfig, Runner};
use dtrack_workload::items::DistinctSeq;
use rand::Rng;

fn main() {
    let n: u64 = arg(0, 200_000);
    let seeds: u64 = arg(1, 20);
    let exec = exec_arg(2);
    banner(
        "ABL — design ablations",
        &format!("N={n}, seeds={seeds}, exec={exec}"),
    );

    let arms = [
        ("1", ablate_count_estimator(exec, n, seeds)),
        ("2", ablate_frequency_estimator(exec, n, seeds)),
        ("3", ablate_rethinning(n, seeds)),
        ("4", ablate_rank_tree(exec, n.min(100_000), seeds.min(10))),
        (
            "5",
            ablate_windowed_digest(exec, n.min(40_000), seeds.max(20)),
        ),
    ];
    let failed: Vec<&str> = arms.iter().filter(|a| !a.1).map(|a| a.0).collect();
    if !failed.is_empty() {
        eprintln!("ablation claims FAILED: arm {}", failed.join(", arm "));
        std::process::exit(1);
    }
    println!("every arm shows the damage the paper predicts ✓");
}

/// Arm 1: the two-case estimator of eq. (1) vs the naive one-case form,
/// on a workload with many near-silent sites (99% of traffic at site 0).
fn ablate_count_estimator(exec: ExecConfig, n: u64, seeds: u64) -> bool {
    let (k, eps) = (64, 0.02);
    let cfg = TrackingConfig::new(k, eps);
    let mut two_case = 0.0;
    let mut naive = 0.0;
    for seed in 0..seeds {
        let mut ex = exec.build(&RandomizedCount::new(cfg), seed);
        let batch: Vec<(usize, u64)> = (0..n)
            .map(|t| {
                let site = if t % 100 == 0 {
                    1 + (t as usize / 100) % (k - 1)
                } else {
                    0
                };
                (site, t)
            })
            .collect();
        ex.feed_batch(batch);
        ex.quiesce();
        let (est, est_naive) = ex.query(|c: &RandCountCoord| (c.estimate(), c.estimate_naive()));
        two_case += est - n as f64;
        naive += est_naive - n as f64;
    }
    let mut t = Table::new(["count estimator", "mean signed error", "× (eps·n)"]);
    for (name, bias) in [("eq. (1) two-case", two_case), ("naive one-case", naive)] {
        let b = bias / seeds as f64;
        t.row([
            name.to_string(),
            fmt_num(b),
            format!("{:+.2}", b / (eps * n as f64)),
        ]);
    }
    println!("-- arm 1: count eq. (1) two-case estimator (k={k}, eps={eps}, 99% at one site) --");
    t.print();
    println!("(paper: naive form is biased by Θ(1/p) per silent site)");
    // Measured: +3.51 to +3.58 eps·n.
    claim(
        "the naive estimator's bias exceeds eps·n",
        naive / seeds as f64 > eps * n as f64,
    )
}

/// Arm 2: the unbiased eq. (4) estimator vs the biased eq. (2) form, on
/// a workload of many items each with frequency Θ(εn/√k).
fn ablate_frequency_estimator(exec: ExecConfig, n: u64, seeds: u64) -> bool {
    let (k, eps) = (16, 0.05);
    let cfg = TrackingConfig::new(k, eps);
    let domain = 24u64; // per-site item frequency ≈ 1/(2p): peak-bias regime
    let mut unbiased = 0.0;
    let mut naive = 0.0;
    let probes = 8u64;
    for seed in 0..seeds {
        let mut ex = exec.build(&RandomizedFrequency::new(cfg), seed);
        ex.feed_batch(
            (0..n)
                .map(|t| ((t % k as u64) as usize, t % domain))
                .collect(),
        );
        ex.quiesce();
        let truth = n as f64 / domain as f64;
        for j in 0..probes {
            let (est, est_naive) = ex.query(move |c: &RandFreqCoord| {
                (c.estimate_frequency(j), c.estimate_frequency_naive(j))
            });
            unbiased += est - truth;
            naive += est_naive - truth;
        }
    }
    let den = (seeds * probes) as f64;
    let mut t = Table::new(["frequency estimator", "mean signed error", "× (eps·n)"]);
    for (name, bias) in [("eq. (4) with −d/p", unbiased), ("eq. (2) biased", naive)] {
        let b = bias / den;
        t.row([
            name.to_string(),
            fmt_num(b),
            format!("{:+.2}", b / (eps * n as f64)),
        ]);
    }
    println!("-- arm 2: frequency -d/p correction (k={k}, eps={eps}, {domain} mid-items) --");
    t.print();
    println!("(paper: eq. (2) bias is Θ(εn/√k) per site when f = Θ(εn/√k))");
    // Measured: eq. (2) reads 0.09 to 0.11 eps·n above eq. (4), which
    // reads −0.02 to +0.05.
    claim(
        "eq. (2) is biased above eq. (4) by > 0.05 eps·n",
        (naive - unbiased) / den > 0.05 * eps * n as f64,
    )
}

/// Arm 5: carry the −d/p correction terms through the epoch-digest
/// layer vs flattening closed epochs to the tracked table with every
/// correction term dropped. Windowed counterpart of arm 2, at the same ablation
/// discipline: mean *signed* rare-item error over ≥ 20 seeds, so
/// unbiased noise cancels and only systematic bias survives. The
/// corrected arm's residual is bounded by the window machinery's
/// heartbeat slack (≈ granularity/2 elements, pro-rated by the item's
/// rate), not by the digests.
fn ablate_windowed_digest(exec: ExecConfig, n: u64, seeds: u64) -> bool {
    use dtrack_bench::measure::{windowed_frequency_bias, WINDOWED_BIAS_DOMAIN};
    let (k, eps) = (8, 0.1);
    let w = (n / 4).max(2);
    let truth = w as f64 / (2 * WINDOWED_BIAS_DOMAIN) as f64;
    let bias = |corrected| windowed_frequency_bias(exec.windowed(w), corrected, k, eps, n, seeds);
    let (corrected, uncorrected) = (bias(true), bias(false));
    let mut t = Table::new(["windowed digest", "mean signed rare-item err", "× (eps·W)"]);
    for (name, bias) in [
        ("with −d/p corrections", corrected),
        ("flattened (no −d/p)", uncorrected),
    ] {
        t.row([
            name.to_string(),
            fmt_num(bias),
            format!("{:+.3}", bias / (eps * w as f64)),
        ]);
    }
    println!(
        "-- arm 5: windowed −d/p digest carry-through (k={k}, eps={eps}, W={w}, \
         {WINDOWED_BIAS_DOMAIN} rare items × {truth:.0} occurrences/window, {seeds} seeds) --"
    );
    t.print();
    println!("(flattened digests drop the eq. (4) absent branch: every rare-item");
    println!("windowed estimate inherits a positive bias; carried corrections restore");
    println!("the live estimator's unbiasedness, bucket by bucket)");
    // Measured: flattened minus corrected is 0.070 (channel) to 0.099
    // eps·W.
    claim(
        "flattened digests are biased above corrected ones by > 0.05 eps·W",
        uncorrected - corrected > 0.05 * eps * w as f64,
    )
}

/// Arm 3: the p-halving re-thinning step vs keeping stale n̄ᵢ. Probes
/// coordinator state after every element, so it always runs on the
/// in-process lock-step executor.
fn ablate_rethinning(n: u64, seeds: u64) -> bool {
    let (k, eps) = (16, 0.05);
    let cfg = TrackingConfig::new(k, eps);
    // Mean |error| sampled 20 elements after each round boundary — the
    // instants where stale n̄ᵢ would be misread under the halved p.
    let boundary_err = |proto: &RandomizedCount, seed: u64| {
        let mut r = Runner::new(proto, seed);
        let mut last_round = 0;
        let mut probe_at = u64::MAX;
        let (mut total, mut count) = (0.0f64, 0u32);
        for t in 0..n {
            r.feed((t % k as u64) as usize, &t);
            if r.coord().round() != last_round {
                last_round = r.coord().round();
                probe_at = t + 20;
            }
            if t == probe_at {
                let e = (r.coord().estimate() - (t + 1) as f64).abs() / (t + 1) as f64;
                total += e;
                count += 1;
            }
        }
        total / count.max(1) as f64
    };
    let with: Vec<f64> = (0..seeds)
        .map(|s| boundary_err(&RandomizedCount::new(cfg), s))
        .collect();
    let without: Vec<f64> = (0..seeds)
        .map(|s| boundary_err(&RandomizedCount::ablation_no_rethinning(cfg), s))
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let mut t = Table::new(["variant", "mean |err| after boundaries", "× eps"]);
    t.row([
        "with re-thinning (§2.1)".to_string(),
        format!("{:.4}", mean(&with)),
        format!("{:.2}", mean(&with) / eps),
    ]);
    t.row([
        "ablated (stale n̄ᵢ)".to_string(),
        format!("{:.4}", mean(&without)),
        format!("{:.2}", mean(&without) / eps),
    ]);
    println!("-- arm 3: p-halving re-thinning (k={k}, eps={eps}) --");
    t.print();
    println!("(stale n̄ᵢ under a halved p is misread by the eq.-(1) estimator)");
    // Measured: 2.0× to 2.3× the re-thinned error.
    claim(
        "stale n̄ᵢ err more than 1.5× the re-thinned ones after boundaries",
        mean(&without) > 1.5 * mean(&with),
    )
}

/// Arm 4: remove the §4 block tree and keep only the sampling machinery
/// at the protocol's own rate `p = C·√k/(εn̄)`: the words drop (no
/// summaries) but the variance jumps from O((εn)²) to n/p = Θ(εn²/√k) —
/// the tree is what turns a sample into an ε-guarantee.
fn ablate_rank_tree(exec: ExecConfig, n: u64, seeds: u64) -> bool {
    let (k, eps) = (16, 0.01);
    let cfg = TrackingConfig::new(k, eps);
    let seq = DistinctSeq::new(33);
    let data: Vec<u64> = (0..n).map(|t| seq.value_at(t)).collect();
    let mut sorted = data.clone();
    sorted.sort_unstable();
    let x = sorted[(n / 2) as usize];
    let truth = (n / 2) as f64;

    let mut tree_se = 0.0;
    let mut words = 0u64;
    for seed in 0..seeds {
        let mut ex = exec.build(&RandomizedRank::new(cfg), seed);
        ex.feed_batch(data.iter().enumerate().map(|(t, v)| (t % k, *v)).collect());
        ex.quiesce();
        tree_se += (ex.query(move |c: &RandRankCoord| c.estimate_rank(x)) - truth).powi(2);
        words = ex.stats().total_words();
    }
    // Samples only, at the protocol's own final-round rate.
    let q = (8.0 * (k as f64).sqrt() / (eps * n as f64)).min(1.0);
    let mut samp_se = 0.0;
    for seed in 0..seeds {
        let mut rng = dtrack_sim::rng::rng_from_seed(777 + seed);
        let mut below = 0u64;
        for v in &data {
            if rng.gen::<f64>() < q && *v < x {
                below += 1;
            }
        }
        samp_se += (below as f64 / q - truth).powi(2);
    }
    let samp_words = (2.0 * q * n as f64) as u64;
    let (tree_rmse, samp_rmse) = (
        (tree_se / seeds as f64).sqrt(),
        (samp_se / seeds as f64).sqrt(),
    );
    let mut t = Table::new(["variant", "rank RMSE", "× (eps·n)", "words"]);
    t.row([
        "block tree + tail samples (§4)".to_string(),
        fmt_num(tree_rmse),
        format!("{:.2}", tree_rmse / (eps * n as f64)),
        fmt_num(words as f64),
    ]);
    t.row([
        "samples only (tree ablated)".to_string(),
        fmt_num(samp_rmse),
        format!("{:.2}", samp_rmse / (eps * n as f64)),
        fmt_num(samp_words as f64),
    ]);
    println!("-- arm 4: rank block tree vs samples-only (k={k}, eps={eps}, N={n}) --");
    t.print();
    println!("(the tree's summaries are what turn a Θ(√k/(εn)) sample into an εn guarantee)");
    // Measured: 5.4× (channel) to 9.8× the tree's RMSE.
    claim(
        "samples-only rank RMSE is above 3× the tree's",
        samp_rmse > 3.0 * tree_rmse,
    )
}
