//! Experiment **TRD**: Theorem 3.2's space–communication trade-off for
//! frequency tracking, `C·M = Ω(logN/ε²)` (C in bits of communication,
//! M in bits of space per site).
//!
//! The theorem pins a frontier with two known endpoints:
//! * the §3.1 randomized protocol: `C ≈ √k/ε·logN`, `M ≈ 1/(ε√k)`;
//! * the sampling baseline \[9\]: `C ≈ 1/ε²·logN`, `M = O(1)`.
//!
//! We measure both (in words; the word/bit gap is the lower-order
//! slack the paper acknowledges) and print the product against the bound.
//!
//! Usage: `exp_tradeoff [N] [K] [SEEDS] [EXEC]`

use dtrack_bench::cli::{arg, banner, exec_arg};
use dtrack_bench::measure::{median, run, Algo, Problem};
use dtrack_bench::table::{fmt_num, Table};

fn main() {
    let n: u64 = arg(0, 1_000_000);
    let k: usize = arg(1, 64);
    let seeds: u64 = arg(2, 3);
    let exec = exec_arg(3);
    banner(
        "TRD — Thm 3.2 space-communication trade-off (frequency)",
        &format!("N={n}, k={k}, seeds={seeds}, exec={exec}"),
    );

    // Median (words, peak words/site) pair over the seed set.
    let med = |algo: Algo, eps: f64| -> (f64, f64) {
        let (c, m) = median((0..seeds).map(|s| {
            let cs = run(exec, Problem::Frequency, algo, k, eps, n, s).cost;
            (cs.words, cs.max_space)
        }));
        (c as f64, m as f64)
    };

    let mut t = Table::new([
        "eps",
        "algorithm",
        "C (words)",
        "M (words/site)",
        "C·M",
        "logN/eps^2 bound",
    ]);
    for &eps in &[0.02, 0.01, 0.005] {
        let bound = (n as f64).log2() / (eps * eps);
        for (algo, label) in [
            (Algo::Randomized, "NEW randomized"),
            (Algo::Sampling, "sampling [9]"),
        ] {
            let (c, m) = med(algo, eps);
            t.row([
                format!("{eps}"),
                label.into(),
                fmt_num(c),
                fmt_num(m),
                fmt_num(c * m),
                fmt_num(bound),
            ]);
        }
    }
    t.print();
    println!();
    println!("both operating points satisfy C·M ≳ logN/eps² — the two ends of the frontier;");
    println!("the randomized protocol trades ~√k less communication for ~1/(ε√k) more space.");
}
