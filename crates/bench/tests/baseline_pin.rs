//! Regression pin for the fault-RNG stream split: fault randomness
//! lives in its own PRNG streams (`fault_seed` / per-link concerns),
//! so growing the fault layer must leave every **fault-free** run
//! bit-identical — in particular the stored perf-baseline matrix.
//!
//! This test re-measures the baseline cells at the *stored* params and
//! asserts the exact cells' word counts match `BENCH_baseline.json`
//! word for word. If it fails, some change leaked into the fault-free
//! RNG or message schedule; re-baselining is the *last* resort, not
//! the fix.
//!
//! Release-gated: the measurement matrix is too slow for debug CI.

use dtrack_bench::baseline::{measure_cells, parse_json};

const STORED: &str = include_str!("../../../BENCH_baseline.json");

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "re-measures the perf baseline matrix; release CI only"
)]
fn exact_baseline_cells_stay_bit_identical_in_words() {
    let (params, stored) = parse_json(STORED).expect("BENCH_baseline.json must parse");
    let (measured, _bytes) = measure_cells(params);
    let mut checked = 0usize;
    for cell in stored.iter().filter(|c| c.exact) {
        let now = measured
            .iter()
            .find(|m| m.id == cell.id)
            .unwrap_or_else(|| panic!("cell {} vanished from the matrix", cell.id));
        assert_eq!(
            (now.words, now.exact),
            (cell.words, true),
            "exact cell {} drifted from the stored baseline",
            cell.id
        );
        checked += 1;
    }
    // The matrix currently pins 9 exact cells; never let the filter
    // silently degrade to checking nothing.
    assert!(checked >= 8, "only {checked} exact cells found");
}
