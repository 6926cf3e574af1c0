//! Windowed vs whole-stream tracking: communication and accuracy of the
//! Table-1 protocols when restricted to the last `W` elements via the
//! `dtrack_core::window::Windowed` adapter (epoch-restarted instances
//! under an exponential histogram).
//!
//! For each protocol the table shows the whole-stream run and the
//! `+window:W` run side by side on the same workload: total words, the
//! words-overhead factor of windowing (epoch restarts re-pay each
//! protocol's warm-up, plus heartbeat/seal traffic), and the error —
//! each measured against its own truth (whole-stream error over `n`,
//! windowed error over the exact last-`W` answer, normalized by `W`).
//!
//! The windowed rare-item bias of the digest layer is `exp_ablation`'s
//! checked arm 5; windowed accuracy on every executor, bias included, is
//! the conformance matrix's (`tests/conformance.rs`).
//!
//! Usage: `exp_window [N] [K] [EPS] [W] [SEEDS] [EXEC]`
//! (`EXEC` picks the executor + delivery policy and optional link
//! faults, e.g. `channel`, `event:random:1:32`, or
//! `event+loss:0.05+dup:0.05+churn`; the window is added on top of it.)

use dtrack_bench::cli::{arg, banner, exec_arg};
use dtrack_bench::measure::{median_run, run, Algo, Problem};
use dtrack_bench::table::{fmt_num, Table};

fn main() {
    let n: u64 = arg(0, 200_000);
    let k: usize = arg(1, 16);
    let eps: f64 = arg(2, 0.05);
    let w: u64 = arg(3, (n / 8).max(2));
    let seeds: u64 = arg(4, 3);
    let exec = exec_arg(5);
    if exec.window.is_some() {
        eprintln!("error: exp_window adds the window itself; pass a bare exec spec");
        std::process::exit(2);
    }
    if exec.tree.is_some() {
        eprintln!("error: exp_window windows every row, and +tree does not combine with +window");
        std::process::exit(2);
    }
    let rank_n = n.min(200_000); // rank protocols are heavier per element
    let rank_w = w.min(rank_n / 2).max(2);
    banner(
        "Windowed vs whole-stream tracking (exponential histogram of epochs)",
        &format!(
            "N={n} (rank: {rank_n}), k={k}, eps={eps}, W={w} (rank: {rank_w}), \
             seeds={seeds}, exec={exec}"
        ),
    );

    let mut t = Table::new([
        "problem",
        "algorithm",
        "words(whole)",
        "words(window)",
        "overhead×",
        "err/n(whole)",
        "err/W(window)",
    ]);

    let rows = [
        (exec, Problem::Count, Algo::Deterministic, "trivial (det)"),
        (exec, Problem::Count, Algo::Randomized, "NEW randomized"),
        (exec, Problem::Count, Algo::Sampling, "sampling [9]"),
        (
            exec,
            Problem::Frequency,
            Algo::Deterministic,
            "[29]-style det",
        ),
        (exec, Problem::Frequency, Algo::Randomized, "NEW randomized"),
        (exec, Problem::Rank, Algo::Deterministic, "delta-batch det"),
        (exec, Problem::Rank, Algo::Randomized, "NEW randomized"),
        (exec, Problem::Rank, Algo::Sampling, "sampling [9]"),
    ];

    for (exec, problem, algo, label) in rows {
        let (eps, n, w) = match problem {
            Problem::Rank => (eps.max(0.02), rank_n, rank_w),
            _ => (eps, n, w),
        };
        let med = |exec| median_run(seeds, |s| run(exec, problem, algo, k, eps, n, s));
        let (whole, win) = (med(exec), med(exec.windowed(w)));
        let (whole_words, win_words) = (whole.cost().total_words(), win.cost().total_words());
        t.row([
            problem.to_string(),
            label.to_string(),
            fmt_num(whole_words as f64),
            fmt_num(win_words as f64),
            fmt_num(win_words as f64 / whole_words.max(1) as f64),
            fmt_num(whole.err),
            fmt_num(win.err),
        ]);
    }
    t.print();

    println!();
    println!("expected shapes: windowing pays an overhead factor (epoch restarts re-enter");
    println!("each protocol's warm-up rounds, plus heartbeat/seal/ack traffic), in exchange");
    println!("for answers that track the last W elements instead of the whole stream;");
    println!("windowed errors are measured against the exact sliding-window truth.");
}
