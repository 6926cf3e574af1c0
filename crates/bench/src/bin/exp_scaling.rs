//! Experiment **SCALE**: the shapes of Table 1, swept once and asserted —
//! how words and peak words per site grow with the number of sites `k`,
//! the precision `1/ε` and the stream length `N`.
//!
//! Three sweeps around the arguments' point — `k ∈ {K/4, K, 4K, 16K}`,
//! `ε ∈ {4, 2, 1, ½}·EPS`, `N ∈ {N/16, N/4, N, 4N}` — run each distinct
//! `(problem, algo, k, ε, N)` cell once per seed through `measure::run`;
//! a cell's median words and median peak site space come from those
//! runs. Rank runs at `N ≤ 400 000` and `ε ≥ 0.02`, and a cell the clamp
//! moved is starred.
//!
//! Each row of [`CLAIMS`] fits one series on one axis against Table 1
//! (`√k/ε·logN` words for NEW count and frequency, `k/ε·logN`
//! deterministic, `1/ε²·logN` sampling; `O(1/(ε√k))`, `O(1/ε)`, `O(1)`
//! space) or Theorem 3.2 (`C·M = Ω(logN/ε²)`); the binary exits 1
//! naming every claim whose fit leaves its band. The bands come from
//! readings at the defaults on `lockstep` (3 seeds; 1 and 10 seeds in
//! brackets), `event:fixed:8` (within ±0.01) and `channel` (7 runs):
//!
//! * k-exponent of words: count det 0.84, NEW 0.51 \[0.52, 0.51\];
//!   frequency det 1.00 \[0.90, 0.90\], NEW 0.54 \[0.42, 0.42\];
//!   `channel` NEW 0.64–0.68 / 0.57–0.59, det 0.84 / 0.82–0.96 — hence
//!   NEW ≤ 0.75 ≤ det. With `p ∝ k/(εn)` for `√k/(εn)` in
//!   `TrackingConfig::p_for`, NEW reads 0.83 / 0.92 and both claims
//!   fail. Rank NEW 0.27; rank det, the delta-batch tracker, is not
//!   `k/ε` and reads 0.32 (an expected failure, ROADMAP direction 12).
//! * 1/ε-exponent of words: count det 0.86, NEW 0.75; frequency det
//!   0.96, NEW 0.87 (`channel` NEW 0.71 / 0.76); sampling 1.53, which at
//!   ε 0.005 costs 1.14 words per element (the last words column).
//! * N-exponent of words: 0.13 (count NEW), 0.15 (frequency NEW); a cost
//!   linear in N reads 1.
//! * Space: frequency NEW 133 / 87 / 57 / 43 words at k 4–256, exponent
//!   −0.25 to −0.30 (the bound gives −0.5; an arm without virtual splits
//!   still reads −0.21, so the band does not catch that); count NEW,
//!   sampling and frequency det are flat in k; frequency det grows 306 →
//!   2 406 over the ε sweep (0.99). `C·M` clears `log₂N/ε²` by ≥ 7.7×.
//!
//! Usage: `exp_scaling [N] [K] [EPS] [SEEDS] [EXEC]`
//! (defaults `1000000 16 0.01 3 lockstep`). The claims are the flat
//! star's: under `+tree` the sampling series, which has no tree
//! composition, is left out, and a fixed fanout adds levels as k grows,
//! so the k claims fail (`50000 16 0.05 1 lockstep+tree:4` reads NEW
//! count 1.06 and exits 1).

use std::collections::HashMap;
use std::iter::once;

use dtrack_bench::cli::{arg, banner, conclude, exec_arg, Check, Verdict};
use dtrack_bench::fit::loglog_slope;
use dtrack_bench::measure::{median, run, Algo, Problem};
use dtrack_bench::table::{fmt_num, Table};

use Algo::{Deterministic as Det, Randomized as New, Sampling as Samp};
use Problem::{Count, Frequency as Freq, Rank};

/// Rank runs at `N ≤ RANK_N_MAX` and `ε ≥ RANK_EPS_MIN`.
const RANK_N_MAX: u64 = 400_000;
const RANK_EPS_MIN: f64 = 0.02;

/// A swept parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    K,
    InvEps,
    N,
}

/// What a claim fits on its axis: the log-log slope of the median words
/// or of the median peak words per site, or Theorem 3.2's least
/// `C·M / (log₂N/ε²)` over the sweep.
#[derive(Debug, Clone, Copy)]
enum Metric {
    Words,
    Space,
    CTimesM,
}

type Series = (Problem, Algo);

/// Inclusive band a fitted value must lie in.
type Band = (f64, f64);

/// A k-exponent of words for `√k`, not `k` …
const SQRT_K: Band = (f64::NEG_INFINITY, 0.75);
/// … and for `k`, up to its `O(k·logN)` floor.
const LINEAR_K: Band = (0.75, f64::INFINITY);
const FLAT: Band = (-0.10, 0.10);
const SHRINKS: Band = (f64::NEG_INFINITY, -0.10);

const DIRECTION_12: Check =
    Check::ExpectedFailure("ROADMAP direction 12: the deterministic rank arm is not k/ε");

/// Every checked shape: `(series, axis, metric, band, check)`.
#[rustfmt::skip]
const CLAIMS: &[(Series, Axis, Metric, Band, Check)] = &[
    // √k against k (Theorems 2.1, 3.1 and the deterministic optima).
    ((Count, Det), Axis::K,      Metric::Words,   LINEAR_K,             Check::Claim),
    ((Count, New), Axis::K,      Metric::Words,   SQRT_K,               Check::Claim),
    ((Freq, Det),  Axis::K,      Metric::Words,   LINEAR_K,             Check::Claim),
    ((Freq, New),  Axis::K,      Metric::Words,   SQRT_K,               Check::Claim),
    ((Freq, Samp), Axis::K,      Metric::Words,   FLAT,                 Check::Claim),
    ((Rank, Det),  Axis::K,      Metric::Words,   LINEAR_K,             DIRECTION_12),
    ((Rank, New),  Axis::K,      Metric::Words,   SQRT_K,               Check::Claim),
    // 1/ε, and 1/ε² for sampling.
    ((Count, Det), Axis::InvEps, Metric::Words,   (0.6, 1.2),           Check::Claim),
    ((Count, New), Axis::InvEps, Metric::Words,   (0.5, 1.2),           Check::Claim),
    ((Freq, Det),  Axis::InvEps, Metric::Words,   (0.6, 1.2),           Check::Claim),
    ((Freq, New),  Axis::InvEps, Metric::Words,   (0.5, 1.2),           Check::Claim),
    ((Freq, Samp), Axis::InvEps, Metric::Words,   (1.3, 2.2),           Check::Claim),
    // logN: far below any power of N.
    ((Count, New), Axis::N,      Metric::Words,   (0.0, 0.3),           Check::Claim),
    ((Freq, New),  Axis::N,      Metric::Words,   (0.0, 0.3),           Check::Claim),
    // Space per site.
    ((Freq, New),  Axis::K,      Metric::Space,   SHRINKS,              Check::Claim),
    ((Count, New), Axis::K,      Metric::Space,   FLAT,                 Check::Claim),
    ((Freq, Det),  Axis::K,      Metric::Space,   FLAT,                 Check::Claim),
    ((Freq, Samp), Axis::K,      Metric::Space,   FLAT,                 Check::Claim),
    ((Freq, Det),  Axis::InvEps, Metric::Space,   (0.9, 1.1),           Check::Claim),
    // Theorem 3.2 at both ends of its frontier.
    ((Freq, New),  Axis::InvEps, Metric::CTimesM, (1.0, f64::INFINITY), Check::Claim),
    ((Freq, Samp), Axis::InvEps, Metric::CTimesM, (1.0, f64::INFINITY), Check::Claim),
];

/// The series the k and ε sweeps run, in table-column order; the N
/// sweep runs the two NEW protocols it claims.
#[rustfmt::skip]
const SERIES: [Series; 7] =
    [(Count, Det), (Count, New), (Freq, Det), (Freq, New), (Freq, Samp), (Rank, Det), (Rank, New)];

fn label((problem, algo): Series) -> String {
    let algo = match algo {
        Det => "det",
        New => "NEW",
        Samp => "samp",
    };
    format!("{problem}-{algo}")
}

fn axis_name(axis: Axis) -> &'static str {
    match axis {
        Axis::K => "k",
        Axis::InvEps => "1/eps",
        Axis::N => "N",
    }
}

/// One cell's medians over the seed set, and the point it ran at.
#[derive(Debug, Clone, Copy)]
struct Cell {
    k: usize,
    eps: f64,
    n: u64,
    words: f64,
    space: f64,
    /// Whether the rank clamp moved the cell off its row's point.
    clamped: bool,
}

impl Cell {
    /// The cell's coordinate on `axis`.
    fn at(&self, axis: Axis) -> f64 {
        match axis {
            Axis::K => self.k as f64,
            Axis::InvEps => 1.0 / self.eps,
            Axis::N => self.n as f64,
        }
    }
}

fn main() {
    let n: u64 = arg(0, 1_000_000);
    let k: usize = arg(1, 16);
    let eps: f64 = arg(2, 0.01);
    let seeds: u64 = arg(3, 3);
    let exec = exec_arg(4);
    banner(
        "SCALE — words and peak site space vs k, 1/eps and N",
        &format!(
            "N={n}, k={k}, eps={eps}, seeds={seeds}, exec={exec}; \
             * = rank cell clamped to N ≤ {RANK_N_MAX}, eps ≥ {RANK_EPS_MIN}"
        ),
    );

    let mut memo = HashMap::new();
    let mut cell = |(problem, algo): Series, k: usize, eps: f64, n: u64| {
        let (run_eps, run_n) = match problem {
            Rank => (eps.max(RANK_EPS_MIN), n.min(RANK_N_MAX)),
            _ => (eps, n),
        };
        let key = (problem, algo, k, run_eps.to_bits(), run_n);
        let (words, space) = *memo.entry(key).or_insert_with(|| {
            let (words, space): (Vec<u64>, Vec<u64>) = (0..seeds)
                .map(|seed| {
                    let r = run(exec, problem, algo, k, run_eps, run_n, seed);
                    (r.cost().total_words(), r.max_space())
                })
                .unzip();
            (median(words) as f64, median(space) as f64)
        });
        Cell {
            k,
            eps: run_eps,
            n: run_n,
            words,
            space,
            clamped: (run_eps, run_n) != (eps, n),
        }
    };
    // Continuous sampling has no tree composition.
    let runnable = |s: &Series| exec.tree.is_none() || s.1 != Samp;
    let mut verdicts = Vec::new();
    for axis in [Axis::K, Axis::InvEps, Axis::N] {
        let (points, series): ([(usize, f64, u64); 4], &[Series]) = match axis {
            Axis::K => (
                [k / 4, k, 4 * k, 16 * k].map(|k| (k.max(1), eps, n)),
                &SERIES,
            ),
            Axis::InvEps => ([4.0, 2.0, 1.0, 0.5].map(|f| (k, f * eps, n)), &SERIES),
            Axis::N => (
                [n / 16, n / 4, n, 4 * n].map(|n| (k, eps, n.max(1))),
                &[(Count, New), (Freq, New)],
            ),
        };
        let series: Vec<Series> = series.iter().copied().filter(runnable).collect();
        let rows = points.map(|(k, eps, n)| series.iter().map(|&s| cell(s, k, eps, n)).collect());
        print(axis, &series, &rows);
        for &(s, _, metric, (lo, hi), check) in CLAIMS.iter().filter(|c| c.1 == axis) {
            let Some(i) = series.iter().position(|&t| t == s) else {
                continue;
            };
            let cells: Vec<Cell> = rows.iter().map(|r: &Vec<Cell>| r[i]).collect();
            let (value, what) = fit(&cells, axis, metric);
            verdicts.push(Verdict {
                what: format!("{} {what}: {value:.2}, band [{lo}, {hi}]", label(s)),
                held: (lo..=hi).contains(&value),
                check,
            });
        }
    }
    if exec.tree.is_some() {
        println!("note: sampling series and claims left out — no tree composition.\n");
    }
    conclude("scaling", &verdicts);
    println!("every claimed shape holds ✓");
}

/// Print a sweep's words and space tables, `rows[point][series]`. A
/// starred cell ran clamped; the last words column names each cell that
/// cost more words than its stream has elements, with its words per
/// element.
fn print(axis: Axis, series: &[Series], rows: &[Vec<Cell>]) {
    let point = axis_name(axis);
    println!("-- sweep over {point} --");
    let header = || once(point.to_string()).chain(series.iter().map(|&s| label(s)));
    let mut words = Table::new(header().chain(once("above the stream (words/elem)".into())));
    let mut space = Table::new(header());
    for row in rows {
        // The first series is never clamped, so it carries the row's point.
        let at = row[0].at(axis).to_string();
        let column = |value: fn(&Cell) -> f64| {
            row.iter()
                .map(move |c| format!("{}{}", fmt_num(value(c)), if c.clamped { "*" } else { "" }))
        };
        let above: Vec<String> = (series.iter().zip(row))
            .filter(|(_, c)| c.words > c.n as f64)
            .map(|(&s, c)| format!("{} {:.2}", label(s), c.words / c.n as f64))
            .collect();
        let above = if above.is_empty() {
            "-".into()
        } else {
            above.join(", ")
        };
        words.row(
            once(at.clone())
                .chain(column(|c| c.words))
                .chain(once(above)),
        );
        space.row(once(at).chain(column(|c| c.space)));
    }
    println!("words:");
    words.print();
    println!("peak words per site:");
    space.print();
    println!();
}

/// The fitted value of `metric` over one series' cells, and what it is.
fn fit(cells: &[Cell], axis: Axis, metric: Metric) -> (f64, String) {
    let exponent = |y: fn(&Cell) -> f64, what: &str| {
        let xs: Vec<f64> = cells.iter().map(|c| c.at(axis)).collect();
        let ys: Vec<f64> = cells.iter().map(y).collect();
        let along = axis_name(axis);
        (
            loglog_slope(&xs, &ys),
            format!("{what} exponent in {along}"),
        )
    };
    match metric {
        Metric::Words => exponent(|c| c.words, "words"),
        Metric::Space => exponent(|c| c.space, "space"),
        Metric::CTimesM => {
            let least = cells
                .iter()
                .map(|c| c.words * c.space / ((c.n as f64).log2() / (c.eps * c.eps)))
                .fold(f64::INFINITY, f64::min);
            (least, "least C·M / (log2 N/eps^2)".into())
        }
    }
}
