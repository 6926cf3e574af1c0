//! Command line of the `dtrack-benchmark` binary (`run.sh` is its front
//! door and documents the flags).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::json::{self, Value};
use crate::meter::{median, spread, Machine};
use crate::run::{run, RunArgs, RunResult};
use crate::workloads::WORKLOADS;
use crate::{compare, layers, spec};

const DEFAULT_SEED: u64 = 1;

/// Sizes ÷ 16 and this many seconds per run under `--quick`.
const QUICK_SHIFT: u32 = 4;
const QUICK_SECONDS: f64 = 1.0;

/// Flags shared by the subcommands. `--trace` carries a value (`0|1`)
/// for `run`, the driver's form, and none for `set`.
#[derive(Debug)]
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: u64,
    out: Option<PathBuf>,
    out_dir: PathBuf,
    files: Vec<String>,
}

fn parse_flags(args: &[String], trace_takes_value: bool) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        runs: 1,
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => f.workload = Some(value("a workload name")?),
            "--seed" => {
                f.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                f.seconds = Some(s);
            }
            "--trace" if trace_takes_value => {
                f.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, not {other:?}")),
                }
            }
            "--trace" => f.trace = true,
            "--quick" => f.quick = true,
            "--runs" => {
                f.runs = value("a count")?
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or_else(|| "--runs needs a count from 1 to 100".to_string())?
            }
            "--out" => f.out = Some(PathBuf::from(value("a file")?)),
            "--out-dir" => f.out_dir = PathBuf::from(value("a directory")?),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            file => f.files.push(file.to_string()),
        }
    }
    Ok(f)
}

impl Flags {
    fn run_args(&self, workload: &str, seed: u64) -> RunArgs {
        RunArgs {
            workload: workload.to_string(),
            seed,
            seconds: self.seconds.unwrap_or(if self.quick {
                QUICK_SECONDS
            } else {
                spec::RUN_SECONDS as f64
            }),
            trace: self.trace,
            shift: if self.quick { QUICK_SHIFT } else { 0 },
            out_dir: self.out_dir.clone(),
        }
    }
}

fn print_metrics(result: &RunResult) {
    for (name, value, unit) in &result.metrics {
        println!("{name:<48} {value:>18.6} {unit}");
    }
    for note in &result.notes {
        println!("FAILED CHECK: {note}");
    }
    println!(
        "checks: {} attempted, {} failed",
        result.attempted, result.failed
    );
}

/// `run`: one run in this process; the last stdout line is the result
/// (exactly `correct`, `attempted`, `failed`, `metrics`).
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, true)?;
    let workload = flags.workload.clone().ok_or("run needs --workload")?;
    let run_args = flags.run_args(&workload, flags.seed);
    let result = run(&run_args)?;
    if flags.quick {
        println!("quick mode: sizes / 16, timings are not comparable with full runs");
    }
    if workload == "socket_loopback" {
        println!("socket_loopback runs over 127.0.0.1: loopback, not a real link");
    }
    print_metrics(&result);
    if let Some(path) = &flags.out {
        write_file(path, &result.detail(&run_args, &Machine::read()).to_json())?;
    }
    // A run that measured and printed its result exits 0 even with
    // failed checks: they are in the result line (`correct`, `failed`),
    // and `set` — the entry point people and CI use — exits non-zero on
    // them.
    println!("{}", result.result_line());
    Ok(ExitCode::SUCCESS)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{text}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// `set`: every workload (or one), a fresh process per run, all results
/// in one file.
fn cmd_set(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, false)?;
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let names: Vec<&str> = match &flags.workload {
        Some(w) => vec![WORKLOADS
            .iter()
            .copied()
            .find(|n| n == w)
            .ok_or_else(|| format!("unknown workload {w:?}"))?],
        None => WORKLOADS.to_vec(),
    };
    std::fs::create_dir_all(&flags.out_dir)
        .map_err(|e| format!("creating {}: {e}", flags.out_dir.display()))?;
    let machine = Machine::read();
    let mut failed_checks = 0u64;
    let mut per_workload = Vec::new();
    for name in names {
        let mut runs = Vec::new();
        for seed in flags.seed..flags.seed + flags.runs {
            let a = flags.run_args(name, seed);
            let detail = flags.out_dir.join(format!(
                "run-{name}-seed{seed}-trace{}.json",
                u8::from(a.trace)
            ));
            // A stale file from an earlier set must not stand in for a
            // run that died.
            let _ = std::fs::remove_file(&detail);
            let mut cmd = Command::new(&exe);
            cmd.arg("run")
                .args(["--workload", name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if a.trace { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&flags.out_dir)
                .arg("--out")
                .arg(&detail);
            if flags.quick {
                cmd.arg("--quick");
            }
            eprintln!("running {name} (seed {seed}) …");
            let output = cmd
                .output()
                .map_err(|e| format!("starting a run of {name}: {e}"))?;
            if !detail.exists() {
                return Err(format!(
                    "run of {name} (seed {seed}) produced no result ({}):\n{}",
                    output.status,
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let text = std::fs::read_to_string(&detail)
                .map_err(|e| format!("reading {}: {e}", detail.display()))?;
            let run = json::parse(&text)?;
            failed_checks += run.get("failed").and_then(Value::as_f64).unwrap_or(1.0) as u64;
            for note in run.get("notes").and_then(Value::as_arr).unwrap_or(&[]) {
                println!(
                    "FAILED CHECK ({name}, seed {seed}): {}",
                    note.as_str().unwrap_or("?")
                );
            }
            runs.push(run);
        }
        print_workload(name, &runs, flags.trace);
        per_workload.push((name.to_string(), Value::Arr(runs)));
    }
    let set = Value::obj([
        ("schema", Value::Num(1.0)),
        ("quick", Value::Bool(flags.quick)),
        ("trace", Value::Bool(flags.trace)),
        ("nproc", Value::Num(machine.nproc as f64)),
        ("loadavg", Value::Num(machine.loadavg)),
        ("rustc", Value::Str(machine.rustc)),
        ("commit", Value::Str(machine.commit)),
        ("workloads", Value::Obj(per_workload)),
    ]);
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let out = flags
        .out
        .clone()
        .unwrap_or_else(|| flags.out_dir.join(format!("set-{stamp}.json")));
    write_file(&out, &set.to_json())?;
    println!("result set written to {}", out.display());
    if flags.quick {
        println!("quick mode: sizes / 16, timings are not comparable with full runs");
    }
    println!("failed checks: {failed_checks}");
    Ok(if failed_checks == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// One table per workload: every metric by name, its median over the
/// runs, its unit, and the runs' quartile spread when there are several.
fn print_workload(name: &str, runs: &[Value], trace: bool) {
    let table = if trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    println!("\n== {name} ({} run(s)) ==", runs.len());
    for m in table {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.get("metrics")?.get(&m.name)?.as_f64())
            .collect();
        if values.is_empty() {
            println!("{:<48} {:>18} {}", m.name, "missing", m.unit);
        } else if values.len() == 1 {
            println!("{:<48} {:>18.6} {}", m.name, values[0], m.unit);
        } else {
            println!(
                "{:<48} {:>18.6} {:<12} spread {:.2}%",
                m.name,
                median(&values),
                m.unit,
                spread(&values) * 100.0
            );
        }
    }
}

/// `layers`: the layer panel alone.
fn cmd_layers(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, false)?;
    let panel = layers::run(flags.seed, if flags.quick { QUICK_SHIFT } else { 0 });
    let units = spec::per_layer();
    for (name, value) in &panel.values {
        let unit = units
            .iter()
            .find(|m| m.name == *name)
            .map_or("?", |m| m.unit);
        println!("{name:<48} {value:>18.6} {unit}");
    }
    for note in &panel.notes {
        println!("{note}");
    }
    for note in &panel.checks.notes {
        println!("FAILED CHECK: {note}");
    }
    println!(
        "checks: {} attempted, {} failed",
        panel.checks.attempted, panel.checks.failed
    );
    Ok(if panel.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `compare A B`: exit 1 on a regression, 3 when only unresolved rows
/// remain.
fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, false)?;
    let [a, b] = flags.files.as_slice() else {
        return Err("compare needs two result-set files".into());
    };
    let load = |p: &String| -> Result<Value, String> {
        json::parse(&std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?);
    if rows.is_empty() {
        return Err("the two files share no workload × metric".into());
    }
    let (regressions, unresolved) = compare::print(&rows);
    Ok(match (regressions, unresolved) {
        (0, 0) => ExitCode::SUCCESS,
        (0, _) => ExitCode::from(3),
        _ => ExitCode::from(1),
    })
}

pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("set", &[][..]),
    };
    let outcome = match cmd {
        "run" => cmd_run(rest),
        "set" => cmd_set(rest),
        "layers" => cmd_layers(rest),
        "compare" => cmd_compare(rest),
        "spec" => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown command {other:?} (expected run, set, layers, compare or spec)"
        )),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("dtrack-benchmark: {e}");
        ExitCode::from(2)
    })
}
