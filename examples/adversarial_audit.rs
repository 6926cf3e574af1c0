//! Adversarial audit: run the protocols on the paper's own lower-bound
//! inputs (§2.2) and verify they stay accurate and cheap —
//!
//! * the hard distribution µ (all-at-one-site vs round-robin),
//! * the Theorem-2.4 subround instance,
//! * plus a median-boosted tracker checked at *every* element arrival.
//!
//! Run: `cargo run --release --example adversarial_audit [EXEC]`
//! (`EXEC` is a whole-stream executor spec, e.g. `event:reorder:16` to
//! audit the same inputs under adversarially reordered delivery.)

use dtrack::core::boost::{Replicated, ReplicatedCoord};
use dtrack::core::count::{RandCountCoord, RandomizedCount};
use dtrack::core::TrackingConfig;
use dtrack::sim::{DeliveryPolicy, ExecConfig, ExecMode};
use dtrack::workload::{MuCase, MuDistribution, SubroundInstance};

fn main() {
    let exec: ExecConfig = std::env::args()
        .nth(1)
        .map(|s| s.parse().unwrap_or_else(|e| panic!("{e}")))
        .unwrap_or_else(ExecConfig::lockstep);
    if exec.window.is_some() {
        eprintln!("the lower-bound constructions are whole-stream; pass a bare exec spec");
        std::process::exit(2);
    }
    let k = 64;
    let eps = 0.05;
    let cfg = TrackingConfig::new(k, eps);
    println!("scenario: {exec}");

    println!("\n-- hard distribution µ (Theorem 2.2) --");
    let mu = MuDistribution::new(k, 500_000);
    for (name, case) in [
        ("case (a): one site  ", MuCase::OneSite(13)),
        ("case (b): round-robin", MuCase::RoundRobinAll),
    ] {
        let batch: Vec<(usize, u64)> = mu
            .arrivals(case)
            .into_iter()
            .map(|a| (a.site, a.item))
            .collect();
        let mut ex = exec.build(&RandomizedCount::new(cfg), 3);
        ex.feed_batch(batch);
        ex.quiesce();
        let est: f64 = ex.query(|c: &RandCountCoord| c.estimate());
        println!(
            "{name}: estimate {est:>9.0} vs {} (err {:.2}%), {} msgs",
            mu.n,
            (est - mu.n as f64).abs() / mu.n as f64 * 100.0,
            ex.stats().total_msgs()
        );
    }

    println!("\n-- Theorem 2.4 subround instance --");
    let inst = SubroundInstance::new(k, eps, 14);
    let sched = inst.generate(8);
    let arrivals = SubroundInstance::arrivals(&sched);
    let n = arrivals.len() as f64;
    let batch: Vec<(usize, u64)> = arrivals.into_iter().map(|a| (a.site, a.item)).collect();
    let mut ex = exec.build(&RandomizedCount::new(cfg), 5);
    ex.feed_batch(batch);
    ex.quiesce();
    let est: f64 = ex.query(|c: &RandCountCoord| c.estimate());
    println!(
        "{} elements over {} subrounds: estimate err {:.2}%, {:.0} msgs/subround (Ω(k)={k})",
        n,
        sched.len(),
        (est - n).abs() / n * 100.0,
        ex.stats().total_msgs() as f64 / sched.len() as f64
    );

    println!("\n-- median boost: correct at EVERY point of an adversarial stream --");
    let copies = 9;
    let proto = Replicated::new(RandomizedCount::new(cfg), copies);
    let mut ex = exec.build(&proto, 1);
    let mut worst: f64 = 0.0;
    let n = 200_000u64;
    // Under instant delivery the all-times check is per element (the
    // in-process coordinator is always consistent); under delayed or
    // thread-backed delivery a raw read would just measure staleness, so
    // those scenarios quiesce and check at checkpoints instead.
    let per_element = matches!(
        exec.mode,
        ExecMode::LockStep | ExecMode::Event(DeliveryPolicy::Instant, _)
    );
    for t in 0..n {
        // Adversarial: bursty skew toward site 0 with occasional spread.
        let site = if t % 7 == 0 {
            (t % k as u64) as usize
        } else {
            0
        };
        ex.feed(site, t);
        let est = if per_element {
            ex.coord()
                .map(|c| c.median_by(|i| i.estimate()))
                .unwrap_or_default()
        } else if (t + 1) % 10_000 == 0 {
            ex.quiesce();
            ex.query(|c: &ReplicatedCoord<RandCountCoord>| c.median_by(|i| i.estimate()))
        } else {
            continue;
        };
        worst = worst.max((est - (t + 1) as f64).abs() / (t + 1) as f64);
    }
    let checked = if per_element { "all" } else { "checkpointed" };
    println!(
        "worst error over {checked} instants of {n} with {copies} copies: {:.2}% (target ≤ {:.0}%)",
        worst * 100.0,
        eps * 100.0
    );
    println!(
        "cost: {} msgs ≈ {copies}× the single-copy protocol",
        ex.stats().total_msgs()
    );
}
