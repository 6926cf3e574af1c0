//! Experiment **T1-eps**: communication as a function of `1/ε`.
//!
//! Every protocol in Table 1 scales linearly in `1/ε` except the sampling
//! baseline \[9\], which scales as `1/ε²` — so their log-log slopes against
//! `1/ε` should come out ≈ 1 and ≈ 2 respectively.
//!
//! Usage: `exp_comm_vs_eps [N] [K] [SEEDS] [EXEC]`

use dtrack_bench::cli::{arg, banner, exec_arg};
use dtrack_bench::fit::loglog_slope;
use dtrack_bench::measure::{median, run, Algo, Problem};
use dtrack_bench::table::{fmt_num, Table};

fn main() {
    let n: u64 = arg(0, 1_000_000);
    let k: usize = arg(1, 16);
    let seeds: u64 = arg(2, 3);
    let exec = exec_arg(3);
    let epss = [0.04, 0.02, 0.01, 0.005];
    banner(
        "T1-eps — communication vs 1/eps",
        &format!("N={n}, k={k}, eps in {epss:?}, seeds={seeds}, exec={exec}"),
    );

    let mut t = Table::new([
        "eps", "cnt-det", "cnt-NEW", "freq-det", "freq-NEW", "sampling",
    ]);
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); 5];
    // One column per (problem, algo), in header order.
    let columns = [
        (Problem::Count, Algo::Deterministic),
        (Problem::Count, Algo::Randomized),
        (Problem::Frequency, Algo::Deterministic),
        (Problem::Frequency, Algo::Randomized),
        (Problem::Count, Algo::Sampling),
    ];
    for &eps in &epss {
        let vals = columns.map(|(problem, algo)| {
            median((0..seeds).map(|s| run(exec, problem, algo, k, eps, n, s).cost().total_words()))
                as f64
        });
        for (i, v) in vals.iter().enumerate() {
            series[i].push(*v);
        }
        let mut row = vec![format!("{eps}")];
        row.extend(vals.iter().map(|&v| fmt_num(v)));
        t.row(row);
    }
    t.print();

    println!();
    let xs: Vec<f64> = epss.iter().map(|&e| 1.0 / e).collect();
    let names = ["cnt-det", "cnt-NEW", "freq-det", "freq-NEW", "sampling"];
    let preds = ["1.0", "1.0", "1.0", "1.0", "2.0"];
    let mut st = Table::new(["series", "fitted (1/eps)-exponent", "paper predicts"]);
    for (i, name) in names.iter().enumerate() {
        st.row([
            name.to_string(),
            format!("{:.2}", loglog_slope(&xs, &series[i])),
            preds[i].to_string(),
        ]);
    }
    st.print();
}
