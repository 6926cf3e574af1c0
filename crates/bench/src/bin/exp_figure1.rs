//! Experiment **F1**: numeric reproduction of **Figure 1** / Claim A.1.
//!
//! Figure 1 depicts the two near-overlapping probe-outcome distributions
//! `N(z(p−α), σ²)` and `N(z(p+α), σ²)` behind the sampling-problem lower
//! bound: with `z = o(k)` probes the optimal rule fails with probability
//! ≈ 1/2 (the paper derives ≥ 0.49); only `z = Ω(k)` separates them.
//!
//! We print the optimal rule's empirical failure probability against
//! `z/k` beside the Gaussian prediction for `z` probes drawn without
//! replacement, `Φ(−2√(z/k)/√(1−z/k))` (the with-replacement `Φ(−2√(z/k))`
//! misses by up to 0.05), and the 0.3-failure knee beside `c²/(4+c²)·k`,
//! `c = Φ⁻¹(0.7)` (0.064·k). It exits 1 unless each row is within
//! `0.01 + 2/√TRIALS` of its prediction (0.024 at the defaults; rows read
//! within 0.012) and the knee within 0.006·k (it reads 0.063·k).
//!
//! Usage: `exp_figure1 [K] [TRIALS]`

use dtrack_bench::cli::{arg, banner, conclude, Verdict};
use dtrack_bench::table::Table;
use dtrack_bounds::SamplingProblem;

/// Standard normal CDF via the Abramowitz–Stegun erf approximation.
fn phi(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.2316419 * x.abs());
    let d = 0.3989423 * (-x * x / 2.0).exp();
    let p =
        d * t * (0.3193815 + t * (-0.3565638 + t * (1.781478 + t * (-1.821256 + t * 1.330274))));
    if x >= 0.0 {
        1.0 - p
    } else {
        p
    }
}

fn main() {
    let k: u64 = arg(0, 10_000);
    let trials: u32 = arg(1, 20_000);
    banner(
        "F1 — Figure 1 / Claim A.1: the sampling problem",
        &format!("k={k}, trials per point={trials}"),
    );

    let sp = SamplingProblem::new(k);
    let (lo, hi) = sp.s_values();
    println!("s ∈ {{{lo}, {hi}}} (k/2 ∓ √k); probe z sites, decide which.");
    println!();

    let mut t = Table::new(["z/k", "z", "measured failure", "gaussian (no replacement)"]);
    let band = 0.01 + 2.0 / (trials as f64).sqrt();
    let mut verdicts = Vec::new();
    for &frac in &[0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0] {
        let z = ((frac * k as f64) as u64).max(1);
        let f = sp.failure_rate(z, trials, 42 ^ z);
        let x = z as f64 / k as f64;
        let pred = phi(-2.0 * x.sqrt() / (1.0 - x).sqrt());
        t.row([
            format!("{frac}"),
            z.to_string(),
            format!("{:.3}", f),
            format!("{:.3}", pred),
        ]);
        let what = format!("z/k = {frac}: measured {f:.3} within {band:.3} of {pred:.3}");
        verdicts.push(Verdict::claim(what, (f - pred).abs() <= band));
    }
    t.print();

    println!();
    // Φ(−c) = 0.3, and 2√x/√(1−x) = c at x = c²/(4 + c²).
    let c: f64 = 0.5244;
    let predicted = c * c / (4.0 + c * c);
    let knee = sp.probes_needed(0.3, trials.min(5_000), 7) as f64 / k as f64;
    println!(
        "measured knee: failure ≤ 0.3 first reached at z ≈ {knee:.3}·k \
         (paper: z = Ω(k); gaussian predicts {predicted:.3}·k)"
    );
    println!();
    let what = format!("knee {knee:.3}·k within 0.006·k of {predicted:.3}·k");
    verdicts.push(Verdict::claim(what, (knee - predicted).abs() <= 0.006));
    conclude("figure1", &verdicts);
}
