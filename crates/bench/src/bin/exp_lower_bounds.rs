//! Experiment **LB**: the communication lower bounds of §2.2.
//!
//! 1. **Theorem 2.2 (one-way):** any one-way protocol is a per-site
//!    threshold schedule; we sweep the schedule density and print the
//!    frontier (case-(a) worst error vs case-(b) message count under the
//!    hard distribution µ). Accuracy ε forces `Ω(k/ε·logN)` messages —
//!    randomization doesn't help one-way protocols.
//! 2. **Lemma 2.2 / Theorem 2.3 (1-bit problem):** every normalized
//!    protocol configuration spending `o(k)` messages fails; ~k messages
//!    reach the 0.8 target.
//! 3. **Theorem 2.4 (two-way, √k/ε·logN):** running our randomized
//!    count-tracking protocol on the hard subround instance costs Θ(k)
//!    messages per subround — matching the lower bound's charge argument,
//!    so the upper bound is tight on its own hard input.
//!
//! Each part is checked (exit 1 naming a miss), with bands set from the
//! default readings in parentheses: Thm 2.2 at density 1 errs ≤ ε (0.050)
//! with messages within 2× of the `k/ε·ln(N/k)` reference (9 472 vs
//! 12 360); Thm 2.3's `o(k)` configurations fail w.p. ≥ 0.2 (0.359,
//! 0.409), its `Ω(k)` ones succeed w.p. ≥ 0.8; Thm 2.4's msgs/subround/k
//! stays within a factor 2 over k = 16, 64, 256 (5.69, 6.97, 5.25).
//!
//! Usage: `exp_lower_bounds [K] [N] [EXEC]`

use dtrack_bench::cli::{arg, banner, conclude, exec_arg, Verdict};
use dtrack_bench::table::{fmt_num, Table};
use dtrack_bounds::{OneBitInstance, OneWayThresholds};
use dtrack_core::count::RandomizedCount;
use dtrack_core::TrackingConfig;
use dtrack_workload::SubroundInstance;

fn main() {
    let k: usize = arg(0, 64);
    let n: u64 = arg(1, 1_000_000);
    let exec = exec_arg(2);
    banner(
        "LB — lower-bound demonstrators",
        &format!("k={k}, N={n}, exec={exec}"),
    );

    // -- Part 1: Theorem 2.2, one-way threshold frontier --
    println!("-- Thm 2.2: one-way protocols under µ (error vs messages) --");
    let mut t = Table::new([
        "density c (factor 1+c·eps)",
        "worst err case (a)",
        "msgs case (b)",
        "k/eps·ln(N/k) ref",
    ]);
    let eps = 0.05;
    let reference = k as f64 / eps * ((n / k as u64) as f64).ln();
    let frontier = [1.0, 2.0, 5.0, 10.0, 40.0].map(|c| {
        let sched = OneWayThresholds::new(k as u64, 1.0 / (1.0 - (c * eps).min(0.9)));
        (
            c,
            sched.worst_error_single_site(n),
            sched.messages_round_robin(n),
        )
    });
    for (c, err, msgs) in frontier {
        let (c, err, msgs) = (format!("{c}"), format!("{err:.3}"), fmt_num(msgs as f64));
        t.row([c, err, msgs, fmt_num(reference)]);
    }
    t.print();
    println!("(error ≤ eps = {eps} requires density c ≈ 1 → messages ≈ the k/ε·logN reference)");
    // Thm 2.2's verdict reads the density-1 row.
    let (_, err, msgs) = frontier[0];
    let what = format!("Thm 2.2: error {err:.4} ≤ ε, {msgs} msgs within 2× of {reference:.0}");
    let ratio = msgs as f64 / reference;
    let mut verdicts = vec![Verdict::claim(
        what,
        err <= eps + 1e-9 && (0.5..=2.0).contains(&ratio),
    )];
    println!();

    // -- Part 2: the 1-bit problem --
    println!(
        "-- Lemma 2.2 / Thm 2.3: the 1-bit problem over k = {k4} sites --",
        k4 = 4 * k
    );
    let inst = OneBitInstance::new(4 * k as u64);
    let mut t2 = Table::new(["protocol (q0, q1, z)", "avg msgs", "failure"]);
    // The last field: whether the configuration spends Ω(k) messages.
    let configs: [(f64, f64, u64, &str, bool); 5] = [
        (0.0, 0.0, (k / 8) as u64, "probe k/32", false),
        (0.0, 0.0, (k * 2) as u64, "probe k/2", true),
        (0.02, 0.02, 0, "2% volunteer", false),
        (0.0, 1.0, 0, "ones volunteer", true),
        (1.0, 1.0, 0, "all volunteer", true),
    ];
    for (q0, q1, z, name, linear) in configs {
        let (fail, msgs) = inst.evaluate(q0, q1, z, 4_000, 9);
        t2.row([
            format!("{name} ({q0},{q1},{z})"),
            fmt_num(msgs),
            format!("{:.3}", fail),
        ]);
        let claim = if linear {
            "succeeds w.p. ≥ 0.8"
        } else {
            "fails w.p. ≥ 0.2"
        };
        let what = format!("Thm 2.3: {name} {claim} (failure {fail:.3})");
        verdicts.push(Verdict::claim(what, (fail <= 0.2) == linear));
    }
    t2.print();
    println!("(success ≥ 0.8 is only reached by configurations spending Ω(k) messages)");
    println!();

    // -- Part 3: Theorem 2.4's hard instance vs our upper bound --
    println!("-- Thm 2.4: randomized count-tracking on the subround instance --");
    let mut t3 = Table::new([
        "k",
        "subrounds",
        "total msgs",
        "msgs/subround",
        "msgs/subround/k",
    ]);
    let mut per_k = Vec::new();
    for &kk in &[16usize, 64, 256] {
        let eps = 0.05;
        let inst = SubroundInstance::new(kk, eps, 12);
        let sched = inst.generate(3);
        let arrivals = SubroundInstance::arrivals(&sched);
        let proto = RandomizedCount::new(TrackingConfig::new(kk, eps));
        let mut ex = exec.build(&proto, 5);
        ex.feed_batch(arrivals.iter().map(|a| (a.site, a.item)).collect());
        ex.quiesce();
        let msgs = ex.stats().total_msgs() as f64;
        let subrounds = sched.len() as f64;
        per_k.push(msgs / subrounds / kk as f64);
        t3.row([
            kk.to_string(),
            fmt_num(subrounds),
            fmt_num(msgs),
            fmt_num(msgs / subrounds),
            format!("{:.2}", msgs / subrounds / kk as f64),
        ]);
    }
    t3.print();
    println!("(msgs/subround/k ≈ constant ⇒ the protocol meets the Ω(k)-per-subround charge,");
    println!(" i.e. the √k/ε·logN upper bound is tight on the lower bound's own input)");
    println!();
    let (lo, hi) = per_k
        .iter()
        .fold((f64::MAX, 0.0_f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let what = format!("Thm 2.4: msgs/subround/k in [{lo:.2}, {hi:.2}], within a factor 2");
    verdicts.push(Verdict::claim(what, hi <= 2.0 * lo));
    conclude("lower bounds", &verdicts);
}
