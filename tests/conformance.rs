//! The conformance matrix (`tests/matrix/mod.rs`): every protocol ×
//! executor × shape, checked at every checkpoint against the exact
//! oracle, printed one line per cell. The full table is release-gated
//! (`cargo test --release --test conformance -- --nocapture` prints it);
//! a small debug smoke keeps the checker in the fast suite.

mod matrix;

use std::panic::{catch_unwind, AssertUnwindSafe};

use dtrack::sim::{ExecConfig, TreeSpec};
use dtrack_bench::measure::{rows, run, Algo};
use matrix::{check, check_cells, grid, hit_bar, table, unbiased, Check, Expect, M};

/// Every cell of the table: the 108 grid cells, then the replaced
/// tests' rows. Expected failures print their reading and pass.
#[test]
#[cfg_attr(debug_assertions, ignore = "the full matrix; covered by release CI")]
fn conformance_matrix() {
    assert_eq!(grid().len(), 108);
    let tests = check(|_| true);
    println!("{tests} statistical tests (family bound M = {M})");
    assert!(
        tests <= M,
        "{tests} tests exceed the Bonferroni family bound {M}"
    );
}

/// The debug smoke: the lock-step and instant-event grid cells at a
/// tenth of the length and 4 seeds.
#[test]
fn smoke_matrix_debug() {
    let small = grid()
        .into_iter()
        .filter(|c| c.spec == "lockstep" || c.spec == "event+dup:0.05");
    check_cells(small.map(|c| matrix::Cell {
        n: 2_000,
        seeds: 0..4,
        ..c
    }));
}

/// Combinations the code refuses are refused, not run as something
/// else: a fault suffix off the event executor, sampling in a tree, and
/// a tree with a window.
#[test]
fn refused_combinations_are_refused() {
    for exec in ["lockstep", "channel"] {
        for fault in ["+loss:0.05", "+dup:0.05", "+churn", "+straggle:32"] {
            let spec = format!("{exec}{fault}");
            assert!(spec.parse::<ExecConfig>().is_err(), "{spec} parsed");
        }
    }
    assert!("lockstep+tree:4:2+window:4096"
        .parse::<ExecConfig>()
        .is_err());
    let tree = ExecConfig::lockstep().with_tree(TreeSpec::new(4).with_depth(2));
    for (problem, algo) in rows() {
        let refused = |exec: ExecConfig| {
            catch_unwind(AssertUnwindSafe(|| {
                run(exec, problem, algo, 8, 0.1, 100, 1)
            }))
            .is_err()
        };
        assert!(
            refused(tree.windowed(4_096)),
            "{problem}/{algo:?}: tree × window ran"
        );
        assert_eq!(
            refused(tree),
            algo == Algo::Sampling,
            "{problem}/{algo:?} in a tree"
        );
    }
}

#[test]
fn every_expected_failure_names_its_direction() {
    for cell in table() {
        if let Expect::Fails(_, dir) = cell.expect {
            assert!(dir.starts_with("direction "), "{cell}: {dir}");
        }
    }
}

#[test]
fn the_hit_bar_at_20_runs_is_12() {
    assert_eq!(hit_bar(20), 12);
    assert_eq!(hit_bar(1), 0);
}

/// A +0.1 ε bias read at a standard error of 0.02 ε is 5 standard
/// errors out, past z = 4.71; the same spread around 0 passes.
#[test]
fn the_bias_verdict_separates_a_five_sigma_bias_from_none() {
    let eps = 0.1;
    // 20 samples at ±a: the sample SD is a·√(20/19), the SE that over √20.
    let a = 0.02 * eps * (19.0f64).sqrt();
    let spread = |mean: f64| -> Vec<f64> {
        (0..20)
            .map(|i| mean + if i % 2 == 0 { a } else { -a })
            .collect()
    };
    let (mean, se) = matrix::mean_se(&spread(0.1 * eps));
    assert!((se / eps - 0.02).abs() < 1e-9 && (mean / eps - 0.1).abs() < 1e-9);
    assert!(!unbiased(&spread(0.1 * eps), 0.0));
    assert!(unbiased(&spread(0.0), 0.0));
    // The window's cut-lag allowance is the only slack added.
    assert!(unbiased(&spread(0.1 * eps), 0.01 * eps));
}

/// A NaN or an infinity fails its cell whatever the cell expects: the
/// checker names the seed, and no expected failure excuses it.
#[test]
fn a_non_finite_answer_is_never_excused() {
    let errs: [(u64, &[f64]); 4] = [
        (0, &[0.1, 0.0]),
        (1, &[f64::NAN]),
        (2, &[0.0, f64::INFINITY]),
        (3, &[-f64::INFINITY]),
    ];
    assert_eq!(matrix::non_finite(&errs), [1, 2, 3]);
    let both = Expect::Fails(&[Check::Confidence, Check::Bias], "direction 1(a)");
    assert!(both.excuses(Some(Check::Bias)) && !both.excuses(None));
}

/// A failed ε bound names every seed's value, worst first, so the log
/// of a failing run says which seeds to replay.
#[test]
#[should_panic(expected = "worst first: seed 2 = 0.9000, seed 0 = 0.3000, seed 1 = 0.0000")]
fn a_failed_mean_bound_lists_the_seeds_worst_first() {
    matrix::assert_mean_error_le_eps("toy", 0.1, 3, |seed| [0.3, 0.0, 0.9][seed as usize]);
}
