//! Reproduces **Table 1** of the paper: space and communication of every
//! algorithm, old and new, measured on the standard workloads.
//!
//! Paper's claims (upper bounds, in words; k ≤ 1/ε²):
//!
//! | problem | algorithm | space/site | communication |
//! |---|---|---|---|
//! | count | trivial | O(1) | Θ(k/ε·logN) |
//! | count | new | O(1) | O(√k/ε·logN) |
//! | frequency | \[29\] | O(1/ε) | Θ(k/ε·logN) |
//! | frequency | new | O(1/(ε√k)) | O(√k/ε·logN) |
//! | rank | \[29\]/\[6\] | O(1/ε·log n) | O(k/ε·logN·log²(1/ε)) |
//! | rank | new | O(1/(ε√k)·polylog) | O(√k/ε·logN·polylog) |
//! | all | sampling \[9\] | O(1) | O(1/ε²·logN) |
//!
//! Usage: `table1 [N] [K] [EPS] [SEEDS] [EXEC]`
//! (`EXEC` picks the executor + delivery policy, e.g. `event:random:1:32`)

use dtrack_bench::cli::{arg, banner, exec_arg};
use dtrack_bench::measure::{median_run, run, Algo, Problem, Run};
use dtrack_bench::table::{fmt_num, Table};

fn main() {
    let n: u64 = arg(0, 2_000_000);
    let k: usize = arg(1, 64);
    let eps: f64 = arg(2, 0.01);
    let seeds: u64 = arg(3, 3);
    let exec = exec_arg(4);
    let rank_n = n.min(500_000); // rank protocols are heavier per element
    banner(
        "Table 1 — space and communication of all algorithms",
        &format!("N={n} (rank: {rank_n}), k={k}, eps={eps}, seeds={seeds}, exec={exec}"),
    );

    let mut t = Table::new([
        "problem",
        "algorithm",
        "space(words)",
        "msgs",
        "words",
        "words/elem",
        "max err/n",
    ]);

    let rows = [
        (Problem::Count, Algo::Deterministic, "trivial (det)"),
        (Problem::Count, Algo::Randomized, "NEW randomized"),
        (Problem::Count, Algo::Sampling, "sampling [9]"),
        (Problem::Frequency, Algo::Deterministic, "[29]-style det"),
        (Problem::Frequency, Algo::Randomized, "NEW randomized"),
        (Problem::Frequency, Algo::Sampling, "sampling [9]"),
        (Problem::Rank, Algo::Deterministic, "[6]-style det"),
        (Problem::Rank, Algo::Randomized, "NEW randomized"),
        (Problem::Rank, Algo::Sampling, "sampling [9]"),
    ];

    // The sampling baseline keeps raw samples, not a mergeable digest,
    // so it has no tree composition — under a +tree scenario its rows
    // are skipped (with a note) rather than aborting the whole table.
    let mut skipped_sampling = false;
    for (problem, algo, label) in rows {
        if exec.tree.is_some() && algo == Algo::Sampling {
            skipped_sampling = true;
            continue;
        }
        let (eps, rows_n) = match problem {
            Problem::Rank => (eps.max(0.02), rank_n),
            _ => (eps, n),
        };
        let Run { cost: cs, err, .. } =
            median_run(seeds, |s| run(exec, problem, algo, k, eps, rows_n, s));
        t.row([
            problem.to_string(),
            label.to_string(),
            fmt_num(cs.max_space as f64),
            fmt_num(cs.msgs as f64),
            fmt_num(cs.words as f64),
            fmt_num(cs.words as f64 / rows_n as f64),
            fmt_num(err),
        ]);
    }
    t.print();

    println!();
    println!(
        "expected shapes: NEW count/frequency ≈ √k/k ≈ {:.2}× the deterministic words;",
        1.0 / (k as f64).sqrt()
    );
    println!("sampling [9] ≈ 1/ε² logN words regardless of k; NEW space ≈ 1/(ε√k) words.");
    if skipped_sampling {
        println!(
            "note: sampling [9] rows skipped — the continuous-sampling \
             baseline has no tree composition (drop +tree to include them)."
        );
    }
}
