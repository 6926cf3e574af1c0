//! Smoke test for the `exp_window` experiment harness: runs its core
//! measurement path (`measure::run` under `+window:W`, exactly what the
//! binary medians over) at tiny N on **all three executors** and
//! asserts the invariants the windowed-vs-whole comparison relies on:
//! the table can be produced end-to-end everywhere, windowing costs
//! extra words (epoch restarts + heartbeats), and the windowed error is
//! measured against the sliding truth (finite, sane).

use dtrack_bench::measure::{run, Algo, Problem};
use dtrack_sim::{DeliveryPolicy, ExecConfig};

const K: usize = 8;
const EPS: f64 = 0.1;
const N: u64 = 12_000;
const W: u64 = 3_000;
const SEED: u64 = 2;

fn execs() -> [ExecConfig; 3] {
    [
        ExecConfig::lockstep(),
        ExecConfig::event(DeliveryPolicy::Instant),
        ExecConfig::channel(),
    ]
}

#[test]
fn windowed_count_emits_on_all_three_executors() {
    for exec in execs() {
        let count = |exec| run(exec, Problem::Count, Algo::Randomized, K, EPS, N, SEED);
        let (whole, win) = (count(exec), count(exec.windowed(W)));
        let (whole_err, win_err) = (whole.err, win.err);
        let (whole, win) = (whole.cost().total_words(), win.cost().total_words());
        assert!(whole > 0 && win > 0, "{exec}");
        assert!(
            win > whole,
            "{exec}: windowing should cost extra words ({win} ≤ {whole})"
        );
        assert!(whole_err.is_finite() && win_err.is_finite(), "{exec}");
        // One accuracy bar for all three executors: the channel
        // runtime's transport fairness (out-of-band seal delivery +
        // per-site credit cap) keeps its windowed answers as tight as
        // the deterministic paths' — see `dtrack_sim::runtime`.
        assert!(win_err < 0.5, "{exec} windowed err {win_err}");
    }
}

#[test]
fn windowed_frequency_and_rank_emit_on_the_deterministic_executors() {
    for exec in execs().into_iter().take(2) {
        let exec = exec.windowed(W);
        let f = run(
            exec,
            Problem::Frequency,
            Algo::Deterministic,
            K,
            EPS,
            N,
            SEED,
        );
        assert!(
            f.cost().total_words() > 0 && f.err < 0.25,
            "{exec} freq err {}",
            f.err
        );
        let r = run(exec, Problem::Rank, Algo::Sampling, K, EPS, N, SEED);
        assert!(
            r.cost().total_words() > 0 && r.err < 0.25,
            "{exec} rank err {}",
            r.err
        );
    }
}

#[test]
fn lockstep_and_event_windowed_runs_agree_bit_for_bit() {
    // The windowed adapter must preserve the exec layer's equivalence
    // guarantee: identical accounting and identical answers under
    // instant delivery.
    let count = |exec: ExecConfig| {
        run(
            exec.windowed(W),
            Problem::Count,
            Algo::Randomized,
            K,
            EPS,
            N,
            SEED,
        )
    };
    let a = count(ExecConfig::lockstep());
    let b = count(ExecConfig::event(DeliveryPolicy::Instant));
    assert_eq!(a.cost().total_words(), b.cost().total_words());
    assert_eq!(a.cost().total_msgs(), b.cost().total_msgs());
    assert_eq!(
        a.err.to_bits(),
        b.err.to_bits(),
        "windowed answers must be bit-identical"
    );
}
