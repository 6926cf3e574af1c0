//! Smoke test for the `table1` experiment harness: runs the binary's
//! core measurement path (`measure::run`, exactly what `table1` medians
//! over) at tiny N and asserts the
//! orderings Table 1 predicts — the randomized √k protocols beat the
//! deterministic k baselines on total words. Catches regressions in the
//! experiment harness itself, which previously had no golden outputs.

use dtrack_bench::measure::{median_run, run, Algo, Problem};
use dtrack_sim::ExecConfig;

const K: usize = 64;
const EPS: f64 = 0.05;
const N: u64 = 20_000;
const SEEDS: u64 = 3;

/// Median-by-words run over seeds, like the binary's: `(words, err)`
/// on the lock-step executor.
fn median_words(problem: Problem, algo: Algo, k: usize) -> (u64, f64) {
    let exec = ExecConfig::lockstep();
    let mid = median_run(SEEDS, |s| run(exec, problem, algo, k, EPS, N, s));
    (mid.cost().total_words(), mid.err)
}

#[test]
fn randomized_count_beats_deterministic_words() {
    let (rand, rand_err) = median_words(Problem::Count, Algo::Randomized, K);
    let (det, det_err) = median_words(Problem::Count, Algo::Deterministic, K);
    assert!(
        rand < det,
        "√k ordering violated: randomized {rand} ≥ deterministic {det}"
    );
    assert!(rand_err < 0.5 && det_err < 0.5);
}

#[test]
fn randomized_frequency_beats_deterministic_words() {
    let (rand, rand_err) = median_words(Problem::Frequency, Algo::Randomized, K);
    let (det, det_err) = median_words(Problem::Frequency, Algo::Deterministic, K);
    assert!(
        rand < det,
        "√k ordering violated: randomized {rand} ≥ deterministic {det}"
    );
    assert!(rand_err < 0.5 && det_err < 0.5);
}

#[test]
fn randomized_rank_beats_deterministic_words() {
    let (rand, rand_err) = median_words(Problem::Rank, Algo::Randomized, K);
    let (det, det_err) = median_words(Problem::Rank, Algo::Deterministic, K);
    assert!(
        rand < det,
        "√k ordering violated: randomized {rand} ≥ deterministic {det}"
    );
    assert!(rand_err < 0.5 && det_err < 0.5);
}

#[test]
fn sampling_words_are_roughly_k_independent() {
    // The [9] baseline costs O(1/ε²·logN) words regardless of k: growing
    // k by 16× must not grow its cost by more than a small factor.
    let (small_k, _) = median_words(Problem::Count, Algo::Sampling, 4);
    let (large_k, _) = median_words(Problem::Count, Algo::Sampling, K);
    let ratio = large_k as f64 / small_k.max(1) as f64;
    assert!(
        ratio < 3.0,
        "sampling cost grew {ratio:.2}x from k=4 to k={K} (should be ~flat)"
    );
}
