//! Experiment **T1-k**: communication as a function of the number of
//! sites `k` — the paper's headline `√k` vs `k` separation (Theorems 2.1,
//! 2.2, 3.1, 4.1 against the deterministic optima).
//!
//! For each problem we sweep `k`, print words transferred, and fit the
//! log-log slope: the randomized protocols should come out near 0.5 and
//! the deterministic baselines near 1.0 (each up to the additive
//! `O(k logN)` terms, which flatten the small-k end).
//!
//! Usage: `exp_comm_vs_k [N] [EPS] [SEEDS] [EXEC]`

use dtrack_bench::cli::{arg, banner, exec_arg};
use dtrack_bench::fit::loglog_slope;
use dtrack_bench::measure::{median, run, Algo, Problem};
use dtrack_bench::table::{fmt_num, Table};

fn main() {
    let n: u64 = arg(0, 1_000_000);
    let eps: f64 = arg(1, 0.01);
    let seeds: u64 = arg(2, 3);
    let exec = exec_arg(3);
    let rank_n = n.min(400_000);
    let rank_eps = eps.max(0.02);
    let ks = [4usize, 16, 64, 256];
    banner(
        "T1-k — communication vs number of sites k",
        &format!("N={n} (rank {rank_n}), eps={eps} (rank {rank_eps}), k in {ks:?}, seeds={seeds}, exec={exec}"),
    );

    let mut t = Table::new([
        "k", "cnt-det", "cnt-NEW", "freq-det", "freq-NEW", "rank-det", "rank-NEW",
    ]);
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); 6];
    // One column per (problem, algo), in header order.
    let columns = [
        (Problem::Count, Algo::Deterministic),
        (Problem::Count, Algo::Randomized),
        (Problem::Frequency, Algo::Deterministic),
        (Problem::Frequency, Algo::Randomized),
        (Problem::Rank, Algo::Deterministic),
        (Problem::Rank, Algo::Randomized),
    ];
    for &k in &ks {
        let vals = columns.map(|(problem, algo)| {
            let (eps, n) = match problem {
                Problem::Rank => (rank_eps, rank_n),
                _ => (eps, n),
            };
            median((0..seeds).map(|s| run(exec, problem, algo, k, eps, n, s).cost.words)) as f64
        });
        for (i, v) in vals.iter().enumerate() {
            series[i].push(*v);
        }
        let mut row = vec![k.to_string()];
        row.extend(vals.iter().map(|&v| fmt_num(v)));
        t.row(row);
    }
    t.print();

    println!();
    let xs: Vec<f64> = ks.iter().map(|&k| k as f64).collect();
    let names = [
        "cnt-det", "cnt-NEW", "freq-det", "freq-NEW", "rank-det", "rank-NEW",
    ];
    let mut st = Table::new(["series", "fitted k-exponent", "paper predicts"]);
    let preds = ["1.0", "0.5", "1.0", "0.5", "1.0", "0.5"];
    for (i, name) in names.iter().enumerate() {
        st.row([
            name.to_string(),
            format!("{:.2}", loglog_slope(&xs, &series[i])),
            preds[i].to_string(),
        ]);
    }
    st.print();
}
