//! Experiment **WIRE**: byte-accurate wire-format accounting — total
//! codec bytes vs model words per protocol, swept over `k`.
//!
//! The paper costs communication in *words*; the `dtrack_sim::wire`
//! codec (LEB128 varints, delta-encoded sorted runs, one-byte tags)
//! measures what the same messages cost in *bytes* on a real link. Two
//! things are worth watching:
//!
//! * **bytes/word ratio** — how far below the flat 8 bytes/word the
//!   codec lands per protocol (small counters varint-pack well; rank
//!   batches and KLL summaries benefit from delta runs).
//! * **ordering preservation** — the paper's `√k` vs `k` separation is
//!   proved in words; the binary checks that the *byte* totals preserve
//!   the randomized-vs-deterministic ordering at the largest swept `k`
//!   (4096) and exits non-zero if they do not. Smaller `k` rows are
//!   printed, not checked: the separation grows as `√k`, and below 4096
//!   the count word gap is too thin to survive deterministic count's
//!   codec advantage (see `main`).
//!
//! Words and bytes both come from `Run::cost()`, so under `+tree` both
//! cover every link, internal aggregator links included.
//!
//! Usage: `exp_wire [N] [EPS] [SEEDS] [EXEC]`

use dtrack_bench::cli::{arg, banner, exec_arg};
use dtrack_bench::measure::{median, run, Algo, Problem};
use dtrack_bench::table::{fmt_num, Table};

fn main() {
    // The default N is deliberately large relative to the largest k:
    // the √k-vs-k word separation only opens up once n ≫ k, and the
    // byte check below additionally has to overcome deterministic
    // count's codec advantage (its up-message is a bare tag byte, an 8×
    // win over the flat word model, where randomized ups carry varint
    // counters at ~2 bytes/word). At N = 200k and k = 4096 the word gap
    // is real but too thin to survive that 8×; at N = 2M it is not.
    let n: u64 = arg(0, 2_000_000);
    let eps: f64 = arg(1, 0.05);
    let seeds: u64 = arg(2, 1);
    let exec = exec_arg(3);
    let rank_n = n.min(100_000);
    let ks = [16usize, 256, 4096];
    let kmax = *ks.last().unwrap();
    banner(
        "WIRE — codec bytes vs model words per protocol",
        &format!("N={n} (rank {rank_n}), eps={eps}, k in {ks:?}, seeds={seeds}, exec={exec}"),
    );

    // Median words and median bytes over the seed set, each read off
    // the same runs.
    let med = |problem: Problem, algo: Algo, k: usize| -> (f64, f64) {
        let n = if problem == Problem::Rank { rank_n } else { n };
        let (ws, bs): (Vec<u64>, Vec<u64>) = (0..seeds)
            .map(|s| run(exec, problem, algo, k, eps, n, s).cost())
            .map(|cs| (cs.total_words(), cs.total_bytes()))
            .unzip();
        (median(ws) as f64, median(bs) as f64)
    };

    // (problem, det bytes, rand bytes) at the largest k, for the
    // ordering check.
    let mut at_kmax: Vec<(Problem, f64, f64)> = Vec::new();

    for problem in [Problem::Count, Problem::Frequency, Problem::Rank] {
        let mut t = Table::new([
            "k",
            "det-words",
            "det-bytes",
            "det-B/W",
            "rand-words",
            "rand-bytes",
            "rand-B/W",
        ]);
        for &k in &ks {
            let (dw, db) = med(problem, Algo::Deterministic, k);
            let (rw, rb) = med(problem, Algo::Randomized, k);
            t.row(vec![
                k.to_string(),
                fmt_num(dw),
                fmt_num(db),
                format!("{:.2}", db / dw.max(1.0)),
                fmt_num(rw),
                fmt_num(rb),
                format!("{:.2}", rb / rw.max(1.0)),
            ]);
            if k == kmax {
                at_kmax.push((problem, db, rb));
            }
        }
        println!("{problem}:");
        t.print();
        println!();
    }

    let mut ok = true;
    for (problem, det_bytes, rand_bytes) in &at_kmax {
        let preserved = rand_bytes < det_bytes;
        ok &= preserved;
        println!(
            "{problem}: randomized {} deterministic in bytes at k={kmax} ({} vs {}) {}",
            if preserved { "<" } else { ">=" },
            fmt_num(*rand_bytes),
            fmt_num(*det_bytes),
            if preserved { "✓" } else { "✗" }
        );
    }
    if !ok {
        eprintln!("byte totals do NOT preserve the √k-vs-k ordering at k={kmax}");
        std::process::exit(1);
    }
    println!("\nbyte totals preserve the randomized-vs-deterministic ordering at k={kmax} ✓");
}
