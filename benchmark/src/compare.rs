//! `--compare A.json B.json`: apply each end-to-end metric's bound to two
//! result sets, one row per metric × workload.
//!
//! A row is a **regression** when B's median is worse than A's by more
//! than the bound. It is **unresolved** — not "unchanged" — when the
//! run-to-run spread (quartile distance over median, of either set) is
//! wider than the bound, unless every B value is better than every A
//! value. Spreads come from the sets' runs when a set has at least four
//! per workload, else from the repetitions inside its runs.

use crate::json::Value;
use crate::meter::{median, spread};
use crate::spec;
use crate::workloads::WORKLOADS;

/// Fewest runs per workload whose own quartiles are worth trusting.
const MIN_RUNS_FOR_SPREAD: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regression,
    Unresolved,
}

/// One metric × workload row.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// How much worse B is than A, as a share of A (negative = better).
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
    /// Both sets hold the same values bit for bit.
    pub identical: bool,
}

/// Values of `metric` over a workload's runs, and the pooled
/// repetitions behind them when the runs kept any.
fn values_of(set: &Value, workload: &str, metric: &str) -> (Vec<f64>, Vec<f64>) {
    let runs = set
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(Value::as_arr)
        .unwrap_or(&[]);
    let per_run = runs
        .iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.as_f64())
        .collect();
    let reps = runs
        .iter()
        .filter_map(|r| r.get("reps")?.get(metric)?.as_arr())
        .flatten()
        .filter_map(Value::as_f64)
        .collect();
    (per_run, reps)
}

fn spread_of(per_run: &[f64], reps: &[f64]) -> f64 {
    if per_run.len() >= MIN_RUNS_FOR_SPREAD {
        spread(per_run)
    } else {
        spread(reps)
    }
}

fn judge(metric: &spec::Metric, a: &[f64], b: &[f64], spread: f64) -> (f64, Verdict) {
    let bound = metric.bound.unwrap_or(0.0);
    let (ma, mb) = (median(a), median(b));
    let higher = metric.better == "higher";
    let worse_by = if higher { ma - mb } else { mb - ma } / ma.abs();
    let better = |x: f64, y: f64| if higher { x > y } else { x < y };
    let b_all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let verdict = if spread > bound && !b_all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Compare two result sets (parsed `set-*.json` files).
pub fn compare(a: &Value, b: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        for metric in spec::end_to_end() {
            let (va, ra) = values_of(a, workload, &metric.name);
            let (vb, rb) = values_of(b, workload, &metric.name);
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let spread = spread_of(&va, &ra).max(spread_of(&vb, &rb));
            let (worse_by, verdict) = judge(&metric, &va, &vb, spread);
            rows.push(Row {
                workload: workload.to_string(),
                metric: metric.name.clone(),
                a: median(&va),
                b: median(&vb),
                worse_by,
                spread,
                bound: metric.bound.unwrap_or(0.0),
                verdict,
                identical: va.len() == vb.len()
                    && va.iter().zip(&vb).all(|(x, y)| x.to_bits() == y.to_bits()),
            });
        }
    }
    rows
}

/// Print the rows; returns `(regressions, unresolved)`.
pub fn print(rows: &[Row]) -> (usize, usize) {
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A (median)", "B (median)", "worse by", "spread", "bound"
    );
    for r in rows {
        let verdict = match r.verdict {
            Verdict::Ok if r.identical => "ok (identical)",
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "UNRESOLVED",
        };
        println!(
            "{:<20} {:<16} {:>14.6e} {:>14.6e} {:>+8.2}% {:>7.2}% {:>5.0}%  {verdict}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let (regressions, unresolved) = (count(Verdict::Regression), count(Verdict::Unresolved));
    println!(
        "{} rows: {regressions} regression(s), {unresolved} unresolved, {} improved",
        rows.len(),
        count(Verdict::Improved)
    );
    (regressions, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(rate: &[f64]) -> Value {
        let runs = rate
            .iter()
            .map(|&v| Value::obj([("metrics", Value::obj([("elems_per_s", Value::Num(v))]))]))
            .collect();
        Value::obj([(
            "workloads",
            Value::obj([("channel_batch", Value::Arr(runs))]),
        )])
    }

    fn verdict(a: &[f64], b: &[f64]) -> Verdict {
        let rows = compare(&set(a), &set(b));
        assert_eq!(rows.len(), 1);
        rows[0].verdict
    }

    #[test]
    fn applies_the_bound_in_the_metrics_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // elems_per_s: higher is better, bound 25 %.
        assert_eq!(verdict(&a, &[85.0, 86.0, 84.0, 85.5, 84.5]), Verdict::Ok);
        assert_eq!(
            verdict(&a, &[70.0, 71.0, 69.0, 70.5, 69.5]),
            Verdict::Regression
        );
        assert_eq!(
            verdict(&a, &[130.0, 131.0, 129.0, 135.0, 132.0]),
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_wins_every_run() {
        let noisy = [100.0, 60.0, 140.0, 80.0, 120.0];
        assert_eq!(
            verdict(&noisy, &[100.0, 101.0, 99.0, 100.0, 100.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &[300.0, 310.0, 290.0, 305.0, 295.0]),
            Verdict::Improved
        );
    }
}
