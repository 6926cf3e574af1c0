//! One run of one workload: set up, measure for the requested seconds,
//! check the answers, and reduce the repetitions to the metrics of the
//! contract — end-to-end with the span recorder off, per-layer with it
//! on plus the layer panel.

use std::path::PathBuf;

use crate::json::Value;
use crate::layers;
use crate::meter::{
    high_percentile, median, now_ns, peak_rss_mib, percentile, quiet, sorted, Machine,
};
use crate::pass::Pass;
use crate::proto::Checks;
use crate::spec;
use crate::trace::{merged_totals, write_jsonl, Lane, Recorder};
use crate::workloads::{self, Rep, Workload};

/// Fewest timed repetitions of a run, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Share of `--seconds` a traced run spends on the workload's own
/// untraced/traced repetition pairs; the layer panel takes the rest.
const TRACED_SHARE: f64 = 0.4;

/// Arguments of one run (the driver's four plus the benchmark's own).
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Sizes are divided by `2^shift`; `--quick` sets 4.
    pub shift: u32,
    /// Where `trace-<workload>.jsonl` and run detail files go.
    pub out_dir: PathBuf,
}

/// What one run produced.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in contract order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// First few failed checks.
    pub notes: Vec<String>,
    /// Per-repetition values behind the medians, for the result files.
    pub reps: Vec<(String, Vec<f64>)>,
}

impl RunResult {
    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                name.clone(),
                                Value::obj([
                                    ("value", Value::Num(*value)),
                                    ("unit", Value::Str((*unit).into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .to_json()
    }

    /// The run as a result-file entry, with the raw repetitions and the
    /// machine it ran on.
    pub fn detail(&self, args: &RunArgs, machine: &Machine) -> Value {
        Value::obj([
            ("workload", Value::Str(args.workload.clone())),
            ("seed", Value::Num(args.seed as f64)),
            ("seconds", Value::Num(args.seconds)),
            ("trace", Value::Num(f64::from(u8::from(args.trace)))),
            ("quick", Value::Bool(args.shift > 0)),
            ("nproc", Value::Num(machine.nproc as f64)),
            ("loadavg", Value::Num(machine.loadavg)),
            ("rustc", Value::Str(machine.rustc.clone())),
            ("commit", Value::Str(machine.commit.clone())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "notes",
                Value::Arr(self.notes.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(n, v, _)| (n.clone(), Value::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "reps",
                Value::Obj(
                    self.reps
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::nums(v)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Attach units from the contract tables and insist the run produced
/// exactly the contract's metrics, in its order.
fn in_contract_order(
    table: &[spec::Metric],
    mut values: Vec<(String, f64)>,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let mut out = Vec::with_capacity(table.len());
    for m in table {
        let i = values
            .iter()
            .position(|(n, _)| *n == m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        let (name, value) = values.swap_remove(i);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        out.push((name, value, m.unit));
    }
    match values.first() {
        Some((extra, _)) => Err(format!("metric {extra} is not in the contract")),
        None => Ok(out),
    }
}

fn per_rep(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

fn build(args: &RunArgs) -> Result<Workload, String> {
    workloads::build(&args.workload, args.seed, args.shift).ok_or_else(|| {
        format!(
            "unknown workload {:?} (expected one of {})",
            args.workload,
            workloads::WORKLOADS.join(", ")
        )
    })
}

/// A timing of one repetition's legs, summed leg by leg over each leg's
/// quiet decile across the repetitions (see [`quiet`]). A leg is a
/// tenth of a second to a second long, so a burst from outside spoils
/// single legs, not whole repetitions.
fn quiet_sum(reps: &[Rep], f: impl Fn(&Pass) -> u64) -> f64 {
    (0..reps[0].passes.len())
        .map(|leg| quiet(&per_rep(reps, |r| f(&r.passes[leg]) as f64)))
        .sum()
}

/// Pooled flush samples of some repetitions, in µs, sorted.
fn flush_us<'a>(reps: impl IntoIterator<Item = &'a Rep>) -> Vec<f64> {
    sorted(
        &reps
            .into_iter()
            .flat_map(|r| &r.passes)
            .flat_map(|p| &p.flush_ns)
            .map(|&ns| ns as f64 / 1e3)
            .collect::<Vec<_>>(),
    )
}

/// An end-to-end run: recorder off, one warm-up, then repetitions until
/// `seconds` of measuring have passed. The inputs are generated again
/// after every repetition, so `setup_s` samples the whole run too.
fn end_to_end(args: &RunArgs) -> Result<RunResult, String> {
    let w = build(args)?;
    let mut gen_s = vec![w.gen_ns as f64 / 1e9];
    let off = &mut Recorder::off();
    drop(w.rep(off));
    let mut reps = Vec::new();
    let t0 = now_ns();
    while reps.len() < MIN_REPS || ((now_ns() - t0) as f64) < args.seconds * 1e9 {
        reps.push(w.rep(off));
        gen_s.push(build(args)?.gen_ns as f64 / 1e9);
    }
    let verdict = w.verify(&reps);

    let elements = reps[0].elements() as f64;
    let kelem = verdict.reference_elements as f64 / 1000.0;
    let values = vec![
        (
            "setup_s".to_string(),
            quiet(&gen_s) + quiet_sum(&reps, |p| p.build_ns) / 1e9,
        ),
        (
            "elems_per_s".to_string(),
            elements / (quiet_sum(&reps, |p| p.wall_ns) / 1e9),
        ),
        (
            "cpu_ns_per_elem".to_string(),
            quiet_sum(&reps, |p| p.cpu_ns) / elements,
        ),
        (
            "words_per_kelem".to_string(),
            verdict.reference_words as f64 / kelem,
        ),
        (
            "bytes_per_kelem".to_string(),
            verdict.reference_bytes as f64 / kelem,
        ),
    ];
    let rate = per_rep(&reps, |r| r.elements() as f64 / (r.wall_ns() as f64 / 1e9));
    let cpu = per_rep(&reps, |r| r.cpu_ns() as f64 / r.elements() as f64);
    let setup = gen_s
        .iter()
        .zip(&reps)
        .map(|(g, r)| g + r.build_ns() as f64 / 1e9)
        .collect();
    Ok(RunResult {
        attempted: verdict.checks.attempted,
        failed: verdict.checks.failed,
        metrics: in_contract_order(&spec::end_to_end(), values)?,
        notes: verdict.checks.notes,
        reps: vec![
            ("setup_s".into(), setup),
            ("elems_per_s".into(), rate),
            ("cpu_ns_per_elem".into(), cpu),
        ],
    })
}

/// A traced run: untraced/traced repetition pairs of the workload (their
/// difference is the tracing overhead), then the layer panel.
fn traced(args: &RunArgs) -> Result<RunResult, String> {
    let w = build(args)?;
    drop(w.rep(&mut Recorder::off()));
    let mut rec = Recorder::on(0);
    let (mut plain, mut with_spans) = (Vec::new(), Vec::new());
    let t0 = now_ns();
    while plain.is_empty() || ((now_ns() - t0) as f64) < args.seconds * TRACED_SHARE * 1e9 {
        plain.push(w.rep(&mut Recorder::off()));
        rec.set_run(with_spans.len() as u32);
        with_spans.push(w.rep(&mut rec));
    }
    let rss = peak_rss_mib();
    let mut lanes: Vec<Lane> = vec![rec.finish()];
    for rep in &mut with_spans {
        lanes.append(&mut rep.site_spans);
    }
    let totals = merged_totals(&lanes);
    let span_count: usize = lanes.iter().map(|(_, s)| s.len()).sum();
    let verdict = w.verify(&with_spans);
    let mut checks: Checks = verdict.checks;

    let wall = |reps: &[Rep]| median(&per_rep(reps, |r| r.wall_ns() as f64));
    let sum = |f: &dyn Fn(&Rep) -> u64| with_spans.iter().map(f).sum::<u64>() as f64;
    let elements = sum(&|r| r.elements());
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let overhead = wall(&with_spans) / wall(&plain) - 1.0;
    let flush = flush_us(plain.iter().chain(&with_spans));
    let (hi_pct, hi_us) = high_percentile(&flush, 0.90);
    let ratios = sorted(&checks.ratios_rand);
    let answer = of("exec.answer");

    let mut panel = layers::run(args.seed, args.shift);
    let mut values = std::mem::take(&mut panel.values);
    values.extend([
        (
            "exec.build_ms".to_string(),
            of("exec.build").total_ns as f64 / with_spans.len() as f64 / 1e6,
        ),
        (
            "exec.feed_ns_per_elem".to_string(),
            of("exec.feed").total_ns as f64 / elements,
        ),
        (
            "exec.answer_us".to_string(),
            answer.total_ns as f64 / answer.count.max(1) as f64 / 1e3,
        ),
        (
            "exec.cpu_over_wall".to_string(),
            sum(&|r| r.cpu_ns()) / sum(&|r| r.wall_ns()),
        ),
        ("exec.peak_rss_mb".to_string(), rss),
        (
            "exec.words_per_kelem".to_string(),
            sum(&|r| r.passes.iter().map(|p| p.stats.total_words()).sum()) / (elements / 1000.0),
        ),
        ("exec.flush_p50_us".to_string(), median(&flush)),
        ("exec.flush_hi_us".to_string(), hi_us),
        ("exec.flush_hi_pct".to_string(), hi_pct * 100.0),
        (
            "exec.err_p90_over_eps".to_string(),
            percentile(&ratios, 0.9),
        ),
        ("exec.err_max_over_eps".to_string(), checks.ratio_max),
        ("trace.overhead_share".to_string(), overhead),
        ("trace.spans".to_string(), span_count as f64),
    ]);
    checks.merge(std::mem::take(&mut panel.checks));

    lanes.append(&mut panel.spans);
    let path = args.out_dir.join(format!("trace-{}.jsonl", args.workload));
    write_jsonl(&path, &lanes).map_err(|e| format!("writing {}: {e}", path.display()))?;

    Ok(RunResult {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: in_contract_order(&spec::per_layer(), values)?,
        notes: checks.notes,
        reps: Vec::new(),
    })
}

/// Run once, as `--trace` says.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    if args.trace {
        traced(args)
    } else {
        end_to_end(args)
    }
}
