//! Experiment **T1-N**: communication as a function of the stream length
//! `N` — every Table-1 bound carries a `logN` factor coming from the
//! `O(logN)` round structure, so cost per *round* should be flat and
//! total cost logarithmic in N (slope ≈ 0 on words/log₂N).
//!
//! Usage: `exp_comm_vs_n [K] [EPS] [SEEDS] [EXEC]`

use dtrack_bench::cli::{arg, banner, exec_arg};
use dtrack_bench::measure::{median, run, Algo, Problem};
use dtrack_bench::table::{fmt_num, Table};

fn main() {
    let k: usize = arg(0, 16);
    let eps: f64 = arg(1, 0.01);
    let seeds: u64 = arg(2, 3);
    let exec = exec_arg(3);
    let ns = [62_500u64, 250_000, 1_000_000, 4_000_000];
    banner(
        "T1-N — communication vs stream length N",
        &format!("k={k}, eps={eps}, N in {ns:?}, seeds={seeds}, exec={exec}"),
    );

    let med = |problem: Problem, n: u64| -> f64 {
        let words = |s| {
            run(exec, problem, Algo::Randomized, k, eps, n, s)
                .cost()
                .total_words()
        };
        median((0..seeds).map(words)) as f64
    };

    let mut t = Table::new([
        "N",
        "cnt-NEW words",
        "per log2(N)",
        "freq-NEW words",
        "per log2(N)",
    ]);
    let mut ratios = Vec::new();
    for &n in &ns {
        let c = med(Problem::Count, n);
        let f = med(Problem::Frequency, n);
        let l = (n as f64).log2();
        ratios.push(c / l);
        t.row([
            n.to_string(),
            fmt_num(c),
            fmt_num(c / l),
            fmt_num(f),
            fmt_num(f / l),
        ]);
    }
    t.print();

    println!();
    println!(
        "words per log2(N) spread (max/min, count-NEW): {:.2} — ≈1 means cost ∝ logN",
        ratios.iter().cloned().fold(f64::MIN, f64::max)
            / ratios.iter().cloned().fold(f64::MAX, f64::min)
    );
}
