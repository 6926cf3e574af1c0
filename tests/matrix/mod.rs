//! The conformance matrix: one table of cells and one checker for the
//! paper's promise of an unbiased answer within `εn` at any time
//! (Theorems 2.1, 3.1 and 4.1). Every seed of a [`Cell`] runs through
//! `measure::run_checkpoints` and is scored against the exact oracle at
//! each checkpoint (its last `W` under `+window:W`). [`check_cell`]
//! asserts, at every checkpoint: (a) confidence — randomized and
//! sampling cells need [`hit_bar`] runs within ε on the count error, the
//! hottest item's error or the worst decile, deterministic cells every
//! answer within ε (the tree's `(1 + ε/d)^d − 1`); (b) no bias — the
//! headline probe's mean signed error within `z·SE` plus, under
//! `+window`, the cut lag of `granularity/2` elements ([`unbiased`]), and
//! no over-report from deterministic count; (c) a replaced test's old
//! mean-error bound ([`Metric`]). Every answer must be finite, a twin
//! must match bit for bit, and a `+dup` run must drop every duplicate.
//!
//! **The threshold.** Bonferroni over at most `M` = 4 096 tests (one
//! confidence and one bias test per checkpoint of each cell), for a
//! family-wise false-alarm rate ≤ 1 %: `z = Φ⁻¹(1 − 0.01/(2M)) = 4.71`.
//!
//! An [`Expect::Fails`] cell names the checks it excuses and the ROADMAP
//! direction that will mend them. It prints its reading and never fails;
//! one that starts holding prints a note. Nothing else is excused.

#![allow(dead_code)]

use std::ops::Range;

use dtrack::core::count::RandomizedCount;
use dtrack::core::window::Windowed;
use dtrack::core::TrackingConfig;
use dtrack::sim::ExecConfig;
use dtrack_bench::measure::{rows, run_checkpoints, Algo, Problem, Run};

/// Bound on the number of statistical tests in the family.
pub const M: usize = 4_096;
/// The family-wise threshold: `Φ⁻¹(1 − 0.01/(2M))`.
pub const Z: f64 = 4.71;
/// Checkpoints of a cell that lists none: `n/8, 2n/8, …, n`.
const CHECKPOINTS: u64 = 8;

/// Fewest runs out of `n` within the bound at one checkpoint: the
/// one-sided binomial test of `P[err ≤ ε] ≥ 0.9` at threshold [`Z`].
pub fn hit_bar(n: usize) -> usize {
    let n = n as f64;
    (0.9 * n - Z * (0.09 * n).sqrt()).ceil().max(0.0) as usize
}

/// Mean and standard error of `xs` (infinite for fewer than 2 samples).
pub fn mean_se(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, f64::INFINITY);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// Whether signed samples show no bias beyond `allowance`: the mean lies
/// within [`Z`] standard errors of 0, plus the allowance.
pub fn unbiased(xs: &[f64], allowance: f64) -> bool {
    let (mean, se) = mean_se(xs);
    mean.abs() <= Z * se + allowance
}

/// The mean-|err| form of an ε bound: `None` if the mean of the per-seed
/// errors is at most `eps`, else a message naming `name`, the mean, the
/// bound and every seed's value, worst first — the seeds to replay.
pub fn mean_error_le_eps(name: &str, eps: f64, errs: &[(u64, f64)]) -> Option<String> {
    let mean = errs.iter().map(|&(_, err)| err).sum::<f64>() / errs.len() as f64;
    if mean <= eps {
        return None;
    }
    let mut errs = errs.to_vec();
    errs.sort_by(|a, b| b.1.total_cmp(&a.1));
    let seeds: Vec<String> = errs
        .iter()
        .map(|(seed, err)| format!("seed {seed} = {err:.4}"))
        .collect();
    Some(format!(
        "{name}: mean error {mean:.4} over {} seeds exceeds eps {eps}; \
         per seed, worst first: {}",
        errs.len(),
        seeds.join(", ")
    ))
}

/// [`mean_error_le_eps`] over `metric(0..seeds)`, panicking on a miss.
pub fn assert_mean_error_le_eps(name: &str, eps: f64, seeds: u64, metric: impl Fn(u64) -> f64) {
    let errs: Vec<(u64, f64)> = (0..seeds).map(|seed| (seed, metric(seed))).collect();
    if let Some(failure) = mean_error_le_eps(name, eps, &errs) {
        panic!("{failure}");
    }
}

/// The seeds whose errors at one checkpoint include a NaN or an infinity.
pub fn non_finite(errs: &[(u64, &[f64])]) -> Vec<u64> {
    let bad = |e: &&(u64, &[f64])| e.1.iter().any(|x| !x.is_finite());
    errs.iter().filter(bad).map(|&(s, _)| s).collect()
}

/// The two statistical checks an expected failure can excuse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// (a): the 0.9 bar, or a deterministic answer's hard bound.
    Confidence,
    /// (b): the signed bias, or deterministic count's sign.
    Bias,
}

/// What a cell is held to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    Holds,
    /// The checks are known to miss until the named ROADMAP direction
    /// lands.
    Fails(&'static [Check], &'static str),
}

impl Expect {
    /// Whether a failure of `check` (`None`: not excusable) is expected.
    pub fn excuses(self, check: Option<Check>) -> bool {
        matches!((self, check), (Expect::Fails(excused, _), Some(c)) if excused.contains(&c))
    }
}

/// A replaced test's per-run statistic for its old bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    /// The maximum over the probes (`Run::err`).
    Err,
    /// The hottest item's error (`Run::errs[0]`).
    Hot,
}

/// What a twin scenario must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Same {
    /// The whole `Run`: accounting, peaks, answers at every checkpoint.
    Run,
    /// The answers at every checkpoint only.
    Answers,
}

pub const RC: (Problem, Algo) = (Problem::Count, Algo::Randomized);
pub const DC: (Problem, Algo) = (Problem::Count, Algo::Deterministic);
pub const SC: (Problem, Algo) = (Problem::Count, Algo::Sampling);
pub const RF: (Problem, Algo) = (Problem::Frequency, Algo::Randomized);
pub const DF: (Problem, Algo) = (Problem::Frequency, Algo::Deterministic);
pub const RR: (Problem, Algo) = (Problem::Rank, Algo::Randomized);
pub const DR: (Problem, Algo) = (Problem::Rank, Algo::Deterministic);
/// One cell of the matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The replaced test (or suite) a literal row keeps; `""` in the grid.
    pub test: &'static str,
    pub spec: String,
    pub row: (Problem, Algo),
    pub k: usize,
    pub eps: f64,
    pub n: u64,
    pub seeds: Range<u64>,
    /// The checkpoints; empty means [`CHECKPOINTS`] evenly spaced.
    pub at: &'static [u64],
    pub old: Option<(Metric, f64)>,
    pub twin: Option<(Same, String)>,
    pub expect: Expect,
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (p, a) = self.row;
        write!(
            f,
            "{} {p}/{a:?} (k {}, ε {}, n {}, seeds {:?})",
            self.spec, self.k, self.eps, self.n, self.seeds
        )
    }
}

impl Cell {
    /// count/Randomized of `spec` at `(k, ε, n, seeds)`, with no listed
    /// checkpoints, old bound, twin or expected failure.
    fn new(test: &'static str, spec: &str, k: usize, eps: f64, n: u64, seeds: Range<u64>) -> Cell {
        Cell {
            test,
            spec: spec.to_string(),
            row: RC,
            k,
            eps,
            n,
            seeds,
            at: &[],
            old: None,
            twin: None,
            expect: Expect::Holds,
        }
    }

    /// This cell, reproducing `spec` bit for bit.
    fn twin(self, spec: &str) -> Cell {
        Cell {
            twin: Some((Same::Run, spec.to_string())),
            ..self
        }
    }

    /// This cell, held to a replaced test's old bound.
    fn old(self, metric: Metric, eps: f64) -> Cell {
        Cell {
            old: Some((metric, eps)),
            ..self
        }
    }
}

/// The standard grid: every `measure::rows()` row on `lockstep`,
/// `event:fixed:8` and `channel`, each flat, `+window:4096` and
/// `+tree:4:2` (sampling has no tree), plus `event` under each fault
/// alone — 108 cells at k 8, ε 0.1, n 20 000, seeds 0..20. A lock-step
/// cell's twin is the instant event executor; `+dup`'s is its base.
pub fn grid() -> Vec<Cell> {
    let mut specs = Vec::new();
    for exec in ["lockstep", "event:fixed:8", "channel"] {
        for shape in ["", "+window:4096", "+tree:4:2"] {
            let twin = (exec == "lockstep").then(|| format!("event{shape}"));
            specs.push((format!("{exec}{shape}"), twin));
        }
    }
    for fault in ["+loss:0.05", "+dup:0.05", "+churn", "+straggle:32"] {
        let twin = (fault == "+dup:0.05").then(|| "event".to_string());
        specs.push((format!("event{fault}"), twin));
    }
    let mut cells = Vec::new();
    for (spec, twin) in &specs {
        for row in rows().filter(|r| !(spec.contains("+tree") && r.1 == Algo::Sampling)) {
            let (twin, expect) = (twin.clone().map(|t| (Same::Run, t)), grid_expect(spec, row));
            let base = Cell::new("", spec, 8, 0.1, 20_000, 0..20);
            cells.push(Cell {
                row,
                twin,
                expect,
                ..base
            });
        }
    }
    cells
}

/// The grid's known failures, each naming the direction that mends it:
/// randomized count under the 0.9 bar (15, whose count slice is open);
/// windowed randomized count biased off lock-step, and randomized count
/// biased in a threaded tree (both the threaded bias of 1(a)); and
/// randomized rank biased in a tree (1(c)).
fn grid_expect(spec: &str, row: (Problem, Algo)) -> Expect {
    let (window, tree) = (spec.contains("+window"), spec.contains("+tree"));
    match row {
        RC if !window && !tree => Expect::Fails(&[Check::Confidence], "direction 15"),
        RC if window && !spec.starts_with("lockstep") => {
            Expect::Fails(&[Check::Bias, Check::Confidence], "direction 1(a)")
        }
        RC if tree && spec.starts_with("channel") => {
            Expect::Fails(&[Check::Bias], "direction 1(a)")
        }
        RR if tree => Expect::Fails(&[Check::Bias], "direction 1(c)"),
        _ => Expect::Holds,
    }
}

/// The rows that replaced the hand-rolled seed loops of
/// `tests/{exec_equivalence,faults,topology,windowed}.rs`, each at the
/// loop's own (scenario, k, ε, n, seeds) and bound: one cell per row of
/// `measure::rows()` it lists.
#[rustfmt::skip]
pub fn literal() -> Vec<Cell> {
    use Metric::{Err, Hot};
    let e = 0.1;
    let deep = (1.0_f64 + e / 4.0).powi(4) - 1.0;
    let mix = "event+loss:0.05+dup:0.05+churn:0.1";
    let all: Vec<_> = rows().collect();
    let (sampling, in_tree): (Vec<_>, Vec<_>) = rows().partition(|r| r.1 == Algo::Sampling);
    let (all, in_tree, sampling) = (&all[..], &in_tree[..], &sampling[..]);
    let c = Cell::new;
    // The single-seed twin rows.
    let one = |test, spec: &str| c(test, spec, 8, e, 6_000, 42..43);
    let threaded = Expect::Fails(&[Check::Bias, Check::Confidence], "direction 1(a)");
    let lit: Vec<(&[(Problem, Algo)], Cell)> = vec![
        // exec_equivalence: lock-step ≡ instant event; a seeded delay replays.
        (all, one("equivalence", "lockstep").twin("event")),
        (all, one("equivalence", "event:random:1:32").twin("event:random:1:32")),
        (all, c("feed_batch", "lockstep", 8, e, 6_003, 7..8).twin("event")),
        // faults: +dup is invisible on every base.
        (all, one("dup", "event+dup:0.3").twin("event")),
        (all, one("dup", "event:fixed:3+dup:0.3").twin("event:fixed:3")),
        (all, one("dup", "event:random:0:8+straggle:2+dup:0.3").twin("event:random:0:8+straggle:2")),
        (all, one("dup", "event:random:0:8+straggle:2+loss:0.1+dup:0.3").twin("event:random:0:8+straggle:2+loss:0.1")),
        (all, one("dup", "event:random:0:8+dup:0.3")),
        (&[RC], one("dup_windowed", "event+window:2048+dup:0.3").twin("event+window:2048")),
        (&[RC], one("dup_windowed", "event:fixed:3+window:2048+dup:0.3").twin("event:fixed:3+window:2048")),
        (&[RC], one("dup_windowed", "event:random:0:8+straggle:2+window:2048+dup:0.3").twin("event:random:0:8+straggle:2+window:2048")),
        (&[RC], one("dup_windowed", "event:random:0:8+straggle:2+loss:0.1+window:2048+dup:0.3").twin("event:random:0:8+straggle:2+loss:0.1+window:2048")),
        (&[RC], one("dup_windowed", "event:random:0:8+window:2048+dup:0.3")),
        // topology: a depth-1 tree is the flat star.
        (in_tree, one("depth1", "lockstep+tree:4:1").twin("lockstep")),
        (in_tree, one("depth1", "event+tree:4:1").twin("event")),
        // windowed: equivalence across the deterministic executors, and
        // answers independent of control-plane latency.
        (&[RC], c("windowed_equivalence", "lockstep+window:2048", 8, e, 12_000, 42..43).twin("event+window:2048")),
        (sampling, c("windowed_equivalence", "lockstep+window:2048", 8, 0.15, 12_000, 42..43).twin("event+window:2048")),
        (&[DC], Cell { twin: Some((Same::Answers, "event:fixed:8+window:2048".into())), ..c("control_plane", "lockstep+window:2048", 8, e, 12_000, 0..20) }),
        // windowed: the ε bounds.
        (&[RC], c("windowed_count_mean_error_within_epsilon_over_20_seeds", "lockstep+window:6144", 8, e, 30_000, 0..20).old(Err, e)),
        (&[RC], Cell { at: &[2_048, 8_192, 20_000], ..c("windowed_count_tracks_at_checkpoints", "lockstep+window:4096", 4, 0.15, 20_000, 100..120).old(Err, 1.5 * 0.15) }),
        (&[RC], Cell { expect: threaded, ..c("windowed_count_channel_mean_error_within_epsilon_over_20_seeds", "channel+window:6144", 8, e, 30_000, 0..20).old(Err, e) }),
        (&[DC], c("windowed_count_channel_mean_error_within_epsilon_over_20_seeds", "channel+window:6144", 8, e, 30_000, 0..20).old(Err, e)),
        // topology: the ε bounds at depth 2 and 4, and under faults.
        (&[DC, DF, RC, RF], c("tree_protocols_meet_epsilon_at_depth_2", "lockstep+tree:4:2", 16, e, 30_000, 0..20).old(Err, e)),
        (&[DR, RR], c("tree_protocols_meet_epsilon_at_depth_2", "lockstep+tree:4:2", 16, e, 8_000, 0..20).old(Err, e)),
        (&[DC, RC, RF], c("tree_protocols_meet_epsilon_at_depth_4", "lockstep+tree:2:4", 16, e, 30_000, 0..20).old(Err, deep)),
        (&[DR], c("tree_protocols_meet_epsilon_at_depth_4", "lockstep+tree:2:4", 16, e, 8_000, 0..20).old(Err, deep)),
        (&[RC, RF], c("tree_meets_epsilon_under_the_acceptance_fault_mix", &format!("{mix}+tree:4:2"), 16, e, 30_000, 0..20).old(Err, e)),
        // faults: the ε bounds under the acceptance mix and each fault alone.
        (&[DC, RC, SC], c("all_protocols_meet_epsilon_under_the_acceptance_fault_mix", mix, 8, e, 30_000, 0..20).old(Err, e)),
        (&[DF, RF], c("all_protocols_meet_epsilon_under_the_acceptance_fault_mix", mix, 8, e, 30_000, 0..20).old(Hot, e)),
        (&[DR, RR], c("all_protocols_meet_epsilon_under_the_acceptance_fault_mix", mix, 8, e, 8_000, 0..20).old(Err, e)),
        (&[RC, RF], c("windowed_meets_epsilon_under_the_acceptance_fault_mix", &format!("{mix}+window:6144"), 8, e, 30_000, 0..20).old(Err, e)),
    ];
    let single = ["event+loss:0.05", "event+dup:0.05", "event+churn:0.1", "event+straggle:32"].map(|spec| {
        let base = c("each_single_fault_meets_epsilon", spec, 8, e, 30_000, 0..20);
        [(&[RC][..], base.clone().old(Err, e)), (&[RF][..], base.old(Hot, e))]
    });
    lit.into_iter()
        .chain(single.into_iter().flatten())
        .flat_map(|(rows, base)| rows.iter().map(move |&row| Cell { row, ..base.clone() }))
        .collect()
}

/// The whole table: the grid, then the literal rows.
pub fn table() -> Vec<Cell> {
    let mut cells = grid();
    cells.extend(literal());
    cells
}

/// One cell's readings, the line it prints, and what failed: each
/// failure with the check it belongs to, `None` for a non-finite answer,
/// the old bound, the twin and the `+dup` record, which no expectation
/// excuses.
pub struct Reading {
    pub line: String,
    pub tests: usize,
    pub failures: Vec<(Option<Check>, String)>,
}

/// Run `cell` at every seed and apply every check.
pub fn check_cell(cell: &Cell) -> Reading {
    let exec: ExecConfig = cell.spec.parse().unwrap_or_else(|e| panic!("{cell}: {e}"));
    let (problem, algo) = cell.row;
    let at: Vec<u64> = match cell.at {
        [] => (1..=CHECKPOINTS)
            .map(|i| cell.n * i / CHECKPOINTS)
            .collect(),
        at => at.to_vec(),
    };
    let go = |exec, seed| run_checkpoints(exec, problem, algo, cell.k, cell.eps, &at, seed);
    let runs: Vec<(u64, Run)> = cell.seeds.clone().map(|s| (s, go(exec, s))).collect();
    let mut failures: Vec<(Option<Check>, String)> = Vec::new();
    let det = algo == Algo::Deterministic;
    // The hard bound of a deterministic answer: ε, or the tree's budget.
    let depth = exec.tree.map_or(1, |t| t.depth_for_k(cell.k)) as i32;
    let limit = match det && depth > 1 {
        true => (1.0 + cell.eps / depth as f64).powi(depth) - 1.0,
        false => cell.eps,
    };
    let granularity = exec.window.map_or(0, |w| {
        let inner = RandomizedCount::new(TrackingConfig::new(cell.k, cell.eps));
        Windowed::new(inner, w).granularity()
    });
    let max_abs = |errs: &[f64]| errs.iter().fold(0.0, |m: f64, e| m.max(e.abs()));
    // The per-run statistic of (a), and the probe whose bias (b) checks.
    let stat = |errs: &[f64]| match problem == Problem::Rank || det {
        true => max_abs(errs),
        false => errs[0].abs(),
    };
    let headline = if problem == Problem::Rank { 4 } else { 0 };
    let (mut hits_min, mut max_err, mut bias, mut tests) = (usize::MAX, 0.0_f64, (0.0_f64, 0.0), 0);
    for (c, &t) in at.iter().enumerate() {
        let errs: Vec<(u64, &[f64])> = runs.iter().map(|(s, r)| (*s, &r.signed[c].1[..])).collect();
        let allowance = (granularity / 2) as f64 / exec.window.map_or(t, |w| w.min(t)) as f64;
        for s in non_finite(&errs) {
            failures.push((
                None,
                format!("seed {s}, checkpoint {t}: a non-finite answer"),
            ));
        }
        // (a) confidence, or every answer within the hard bound.
        let over: Vec<String> = errs
            .iter()
            .filter(|(_, e)| stat(e) > limit)
            .map(|(s, e)| format!("seed {s} = {:.2}ε", stat(e) / cell.eps))
            .collect();
        let hits = runs.len() - over.len();
        let needed = if det { runs.len() } else { hit_bar(runs.len()) };
        max_err = errs.iter().map(|(_, e)| stat(e)).fold(max_err, f64::max);
        hits_min = hits_min.min(hits);
        tests += 1;
        if hits < needed {
            let n = runs.len();
            let what = format!("checkpoint {t}: {hits}/{n} within {limit:.4} < {needed}");
            failures.push((
                Some(Check::Confidence),
                format!("{what}; {}", over.join(", ")),
            ));
        }
        // (b) no bias, or deterministic count's sign.
        let signed: Vec<f64> = errs.iter().map(|(_, e)| e[headline]).collect();
        let (mean, se) = mean_se(&signed);
        if mean.abs() >= bias.0.abs() {
            bias = (mean, se);
        }
        if !det {
            tests += 1;
            if !unbiased(&signed, allowance) {
                let [m, se, lag] = [mean, se, allowance].map(|x| x / cell.eps);
                let what =
                    format!("mean signed {m:+.3}ε ± {se:.3}ε, over z·SE + allowance {lag:.3}ε");
                failures.push((Some(Check::Bias), format!("checkpoint {t}: {what}")));
            }
        } else if problem == Problem::Count {
            for (s, e) in errs.iter().filter(|(_, e)| e[0] > allowance) {
                let what = format!(
                    "seed {s}, checkpoint {t}: over-reports by {:.4}ε",
                    e[0] / cell.eps
                );
                failures.push((Some(Check::Bias), what));
            }
        }
        // (c) the old bound: at the end of the stream, or at every
        // checkpoint of a row that lists its own.
        if let Some((metric, eps)) = cell
            .old
            .filter(|_| !cell.at.is_empty() || c + 1 == at.len())
        {
            let stat = |e: &[f64]| {
                if metric == Metric::Hot {
                    e[0].abs()
                } else {
                    max_abs(e)
                }
            };
            let per_seed: Vec<(u64, f64)> = errs.iter().map(|(s, e)| (*s, stat(e))).collect();
            let miss = mean_error_le_eps(&format!("checkpoint {t}"), eps, &per_seed);
            failures.extend(miss.map(|m| (None, m)));
        }
    }
    // Bit-identity with the twin, and the +dup record.
    for (s, r) in &runs {
        if let Some((same, spec)) = &cell.twin {
            let twin = go(spec.parse().expect("twin spec parses"), *s);
            let equal = match same {
                Same::Run => *r == twin,
                Same::Answers => r.answer_bits() == twin.answer_bits(),
            };
            if !equal {
                failures.push((None, format!("seed {s}: differs from {spec}")));
            }
        }
        if cell.spec.contains("+dup") {
            let fs = r.faults.as_ref().expect("a +dup run has a fault layer");
            if fs.duplicates == 0 || fs.duplicates != fs.dup_dropped {
                let (d, dropped) = (fs.duplicates, fs.dup_dropped);
                failures.push((
                    None,
                    format!("seed {s}: {d} duplicates injected, {dropped} dropped"),
                ));
            }
        }
    }
    let words = runs
        .iter()
        .map(|(_, r)| r.cost().total_words())
        .sum::<u64>() as f64
        / (runs.len() as u64 * cell.n) as f64;
    let verdict = match cell.expect {
        _ if !failures.iter().all(|(c, _)| cell.expect.excuses(*c)) => "FAILS".to_string(),
        Expect::Holds => "holds".to_string(),
        Expect::Fails(_, dir) if !failures.is_empty() => format!("expected failure ({dir})"),
        Expect::Fails(_, dir) => {
            format!("note: holds; its expected failure ({dir}) can become a claim")
        }
    };
    let name = format!("{} {problem}/{algo:?}", cell.spec);
    let hits = format!("{hits_min}/{}", runs.len());
    let [err, mean, se] = [max_err, bias.0, bias.1].map(|x| x / cell.eps);
    let line =
        format!("{name:<58} {hits:>5} {err:>7.2} {mean:>+8.3} ± {se:<6.3} {words:>7.3}  {verdict}");
    let failures = failures
        .into_iter()
        .map(|(c, f)| (c, format!("{cell}: {f}")))
        .collect();
    Reading {
        line,
        tests,
        failures,
    }
}

/// Check every cell of the table that `keep` selects: print one line per
/// cell, and panic listing every failure of a cell expected to hold and
/// every missed claim. Returns the number of statistical tests run.
pub fn check(keep: impl Fn(&Cell) -> bool) -> usize {
    check_cells(table().into_iter().filter(keep))
}

/// [`check`] over explicit cells.
pub fn check_cells(cells: impl IntoIterator<Item = Cell>) -> usize {
    println!(
        "{:<58} {:>5} {:>7} {:>17} {:>7}  verdict",
        "scenario problem/algo", "hits", "err/ε", "mean signed/ε", "w/elem"
    );
    let (mut unexpected, mut tests, mut cells_run) = (Vec::new(), 0, 0);
    for cell in cells {
        let reading = check_cell(&cell);
        println!("{}", reading.line);
        for (check, f) in reading.failures {
            println!("    {f}");
            if !cell.expect.excuses(check) {
                unexpected.push(f);
            }
        }
        tests += reading.tests;
        cells_run += 1;
    }
    assert!(cells_run > 0, "the filter selected no cell");
    let n = unexpected.len();
    assert!(n == 0, "{n} failure(s):\n{}", unexpected.join("\n"));
    tests
}
