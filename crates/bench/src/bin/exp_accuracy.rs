//! Experiment **ACC**: the probabilistic guarantees of Theorems 2.1, 3.1,
//! 4.1 — error ≤ εn at any fixed time with probability ≥ 0.9 — plus the
//! §1.2 median-boosting claim (correct at *all* times).
//!
//! Usage: `exp_accuracy [N] [K] [EPS] [SEEDS] [EXEC]`
//! (defaults `400000 16 0.02 400 lockstep`, ≈ 15 s in release; `EXEC`
//! accepts fault suffixes on event modes, e.g.
//! `event+loss:0.05+dup:0.05+churn` — the accuracy table then measures
//! the guarantees over lossy, duplicating, churning links.)
//!
//! The per-instant guarantee is checked, and the binary exits 1 naming
//! every row that misses it. A row holds when its hits — the runs with
//! err ≤ εn among the `SEEDS` independent ones — clear a one-sided
//! binomial margin over `p₀ = 0.9`:
//!
//! `hits ≥ SEEDS·p₀ + z·√(SEEDS·p₀·(1 − p₀))`, `z = 1.645`,
//!
//! the normal-approximation test that rejects "P ≤ 0.9" at 5 %. At the
//! default 400 seeds that is 370 hits (0.925), at 200 seeds 187 (0.935),
//! and at 40 seeds all 40, so pass ≥ 200 seeds for a check that can
//! hold. The default leaves room: at 200 seeds count NEW reads 188, one
//! hit above its bar; at 400 it reads 379. The rows:
//!
//! * `count NEW`, `rank NEW` and `sampling [9]` are checked;
//! * `frequency NEW (1 probe)` is an *expected failure*: it reads
//!   0.87 at the defaults, under 0.9, until ROADMAP direction 15's
//!   frequency slice calibrates that protocol's constants; it prints,
//!   and exits 0 either way;
//! * `frequency NEW (max/25)` is informational: it is the maximum over
//!   25 probes, a union the per-query guarantee does not speak about;
//! * the boosting panel is informational.

use dtrack_bench::cli::{arg, banner, conclude, exec_arg, Check, Verdict};
use dtrack_bench::measure::{count_boosted_max_error, run, Algo, Problem, Run};
use dtrack_bench::table::Table;

/// The per-instant success probability Theorems 2.1, 3.1 and 4.1 claim.
const P0: f64 = 0.9;
/// One-sided 5 % standard-normal quantile.
const Z: f64 = 1.645;

/// Fewest hits out of `trials` runs that clear the binomial margin.
fn hits_needed(trials: usize) -> usize {
    let t = trials as f64;
    (t * P0 + Z * (t * P0 * (1.0 - P0)).sqrt()).ceil() as usize
}

fn quantiles(mut v: Vec<f64>) -> (f64, f64, f64) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |p: f64| v[((p * v.len() as f64) as usize).min(v.len() - 1)];
    (q(0.5), q(0.9), q(0.99))
}

fn main() {
    let n: u64 = arg(0, 400_000);
    let k: usize = arg(1, 16);
    let eps: f64 = arg(2, 0.02);
    let seeds: u64 = arg(3, 400);
    let exec = exec_arg(4);
    banner(
        "ACC — error distributions over independent runs",
        &format!("N={n}, k={k}, eps={eps}, seeds={seeds}, exec={exec}"),
    );

    let mut t = Table::new([
        "problem",
        "err/eps·n p50",
        "p90",
        "p99",
        "P[err<=eps·n]",
        "hits",
    ]);
    let needed = hits_needed(seeds as usize);
    let mut verdicts = Vec::new();
    // A row without a check is printed only.
    let mut push = |name: &'static str, errs: Vec<f64>, check: Option<Check>| {
        let hits = errs.iter().filter(|&&e| e <= eps).count();
        let (p50, p90, p99) = quantiles(errs);
        t.row([
            name.to_string(),
            format!("{:.2}", p50 / eps),
            format!("{:.2}", p90 / eps),
            format!("{:.2}", p99 / eps),
            format!("{:.2}", hits as f64 / seeds as f64),
            format!("{hits}/{seeds}"),
        ]);
        let held = hits >= needed;
        let cmp = if held { "≥" } else { "<" };
        let what = format!("{name}: {hits} {cmp} {needed} hits");
        verdicts.extend(check.map(|check| Verdict { what, held, check }));
    };

    let runs = |problem: Problem, algo: Algo, n: u64| -> Vec<Run> {
        (0..seeds)
            .map(|s| run(exec, problem, algo, k, eps, n, s))
            .collect()
    };
    let errs = |runs: &[Run]| runs.iter().map(|r| r.err).collect();
    push(
        "count NEW",
        errs(&runs(Problem::Count, Algo::Randomized, n)),
        Some(Check::Claim),
    );
    // One set of frequency runs, read two ways: the per-query error on
    // the hottest item (what Theorem 3.1's per-instant 0.9 speaks about)
    // and the maximum over all 25 probes (a union, necessarily worse).
    let freq = runs(Problem::Frequency, Algo::Randomized, n);
    push(
        "frequency NEW (1 probe)",
        freq.iter().map(|r| r.errs[0]).collect(),
        Some(Check::ExpectedFailure(
            "ROADMAP direction 15, frequency slice",
        )),
    );
    push("frequency NEW (max/25)", errs(&freq), None);
    // Rank's error is the maximum over the nine deciles.
    push(
        "rank NEW",
        errs(&runs(Problem::Rank, Algo::Randomized, n.min(200_000))),
        Some(Check::Claim),
    );
    // Neither the sampling baseline (raw samples, no mergeable digest)
    // nor the replicated boosting stack composes through a tree; under
    // +tree those panels are skipped with a note instead of aborting
    // the NEW rows above.
    if exec.tree.is_none() {
        push(
            "sampling [9]",
            errs(&runs(Problem::Count, Algo::Sampling, n)),
            Some(Check::Claim),
        );
    }
    t.print();
    if exec.tree.is_some() {
        println!();
        println!(
            "note: sampling [9] row and boosting panel skipped — neither \
             composes through +tree (drop the suffix to include them)."
        );
    } else {
        println!();
        println!("-- median boosting (§1.2): max error over the whole run --");
        let copies = 9;
        let checkpoints: Vec<u64> = (1..=100).map(|i| i * (n / 100)).collect();
        let mut t2 = Table::new(["copies", "seed", "max err/(eps·n) over run"]);
        for seed in 0..seeds.min(5) {
            let worst = count_boosted_max_error(exec, k, eps, copies, seed, &checkpoints);
            t2.row([
                copies.to_string(),
                seed.to_string(),
                format!("{:.2}", worst / eps),
            ]);
        }
        t2.print();
        println!();
        println!("paper predicts: boosted max ≤ 1 (informational).");
    }

    println!();
    println!(
        "paper predicts: P[err<=eps·n] ≥ {P0} per instant; a row holds at \
         hits ≥ {needed}/{seeds} (one-sided binomial margin, z = {Z})."
    );
    println!();
    conclude("accuracy", &verdicts);
}
