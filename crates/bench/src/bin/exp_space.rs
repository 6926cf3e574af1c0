//! Experiment **T1-space**: peak per-site space.
//!
//! Table 1 claims: count O(1); frequency NEW `O(1/(ε√k))` — *below* the
//! streaming lower bound Ω(1/ε), and shrinking as k grows; frequency
//! deterministic `O(1/ε)`; rank NEW `O(1/(ε√k)·polylog)`; sampling O(1).
//! The deterministic rank column is this repository's delta-batch arm,
//! whose site holds an open batch of up to `εn/(2k)` values, `O(εn/k)`,
//! so it grows with `n` and with ε.
//!
//! Usage: `exp_space [N] [SEEDS] [EXEC]`

use dtrack_bench::cli::{arg, banner, exec_arg};
use dtrack_bench::measure::{median, run, Algo, Problem};
use dtrack_bench::table::{fmt_num, Table};

fn main() {
    let n: u64 = arg(0, 1_000_000);
    let seeds: u64 = arg(1, 3);
    let exec = exec_arg(2);
    let rank_n = n.min(400_000);
    banner(
        "T1-space — peak words per site",
        &format!("N={n} (rank {rank_n}), seeds={seeds}, exec={exec}"),
    );

    // Median peak words per site over the seed set, formatted.
    let space = |problem: Problem, algo: Algo, k: usize, eps: f64| -> String {
        let n = if problem == Problem::Rank { rank_n } else { n };
        let peak = |s| run(exec, problem, algo, k, eps, n, s).max_space();
        fmt_num(median((0..seeds).map(peak)) as f64)
    };

    println!("-- frequency space vs k (eps = 0.01): NEW should shrink ~1/√k --");
    let mut t = Table::new([
        "k",
        "freq-NEW",
        "1/(eps*sqrt(k))",
        "freq-det",
        "cnt-NEW",
        "sampling",
    ]);
    for &k in &[4usize, 16, 64, 256] {
        let eps = 0.01;
        t.row([
            k.to_string(),
            space(Problem::Frequency, Algo::Randomized, k, eps),
            fmt_num(1.0 / (eps * (k as f64).sqrt())),
            space(Problem::Frequency, Algo::Deterministic, k, eps),
            space(Problem::Count, Algo::Randomized, k, eps),
            space(Problem::Count, Algo::Sampling, k, eps),
        ]);
    }
    t.print();

    println!();
    println!("-- frequency/rank space vs eps (k = 16) --");
    let mut t2 = Table::new(["eps", "freq-NEW", "freq-det", "rank-NEW", "rank-det"]);
    for &eps in &[0.04f64, 0.02, 0.01, 0.005] {
        let k = 16;
        let reps = eps.max(0.02);
        t2.row([
            format!("{eps}"),
            space(Problem::Frequency, Algo::Randomized, k, eps),
            space(Problem::Frequency, Algo::Deterministic, k, eps),
            space(Problem::Rank, Algo::Randomized, k, reps),
            space(Problem::Rank, Algo::Deterministic, k, reps),
        ]);
    }
    t2.print();
}
