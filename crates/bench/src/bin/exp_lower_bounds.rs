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
//! Usage: `exp_lower_bounds [K] [N] [EXEC]`

use dtrack_bench::cli::{arg, banner, exec_arg};
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
    for &c in &[1.0, 2.0, 5.0, 10.0, 40.0] {
        let sched = OneWayThresholds::new(k as u64, 1.0 / (1.0 - (c * eps).min(0.9)));
        t.row([
            format!("{c}"),
            format!("{:.3}", sched.worst_error_single_site(n)),
            fmt_num(sched.messages_round_robin(n) as f64),
            fmt_num(reference),
        ]);
    }
    t.print();
    println!("(error ≤ eps = {eps} requires density c ≈ 1 → messages ≈ the k/ε·logN reference)");
    println!();

    // -- Part 2: the 1-bit problem --
    println!(
        "-- Lemma 2.2 / Thm 2.3: the 1-bit problem over k = {k4} sites --",
        k4 = 4 * k
    );
    let inst = OneBitInstance::new(4 * k as u64);
    let mut t2 = Table::new(["protocol (q0, q1, z)", "avg msgs", "failure"]);
    let configs: [(f64, f64, u64, &str); 5] = [
        (0.0, 0.0, (k / 8) as u64, "probe k/32"),
        (0.0, 0.0, (k * 2) as u64, "probe k/2"),
        (0.02, 0.02, 0, "2% volunteer"),
        (0.0, 1.0, 0, "ones volunteer"),
        (1.0, 1.0, 0, "all volunteer"),
    ];
    for (q0, q1, z, name) in configs {
        let (fail, msgs) = inst.evaluate(q0, q1, z, 4_000, 9);
        t2.row([
            format!("{name} ({q0},{q1},{z})"),
            fmt_num(msgs),
            format!("{:.3}", fail),
        ]);
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
}
