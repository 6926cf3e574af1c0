//! Word regression gate: write or check `BENCH_baseline.json`.
//!
//! * `perf_baseline` — run the fixed protocol/workload matrix and
//!   (re)write the baseline file wholesale. Do this deliberately when a
//!   words change is intended.
//! * `perf_baseline --check` — re-run the matrix and compare: **word
//!   drift on an exact (lock-step) cell fails the build** (exit 1 — words
//!   there are deterministic given the seed set, so any drift is a real
//!   behavior change).
//!
//! Any other argument prints usage and exits 2 before anything is
//! measured or written — a typo must not overwrite the committed gate.
//!
//! The advisory hierarchical-topology panel rides along in both modes
//! (`topology/*` cells: flat-star vs binary-tree root-load words per
//! level). Each records a words *distribution* (min/median/max over
//! ≥ 5 seeds), and `--check` compares the current median against the
//! recorded range (advisory: printed, never failing). Codec bytes are
//! not cells here: `measure`'s tests pin them exactly per scenario, and
//! the benchmark gates `bytes_per_kelem`.
//!
//! Every number here is a count, identical on every machine and every
//! run; seconds, rates and latencies are measured by `bash
//! benchmark/run.sh`.
//!
//! The baseline path defaults to `BENCH_baseline.json` in the current
//! directory; override with the `BENCH_BASELINE` environment variable.
//! Run under `--release` — the matrix is slow in a debug build.

use dtrack_bench::baseline::{
    compare, measure_cells, measure_topology_cells, parse_json, to_json, Params,
};
use dtrack_bench::cli::banner;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = match args.as_slice() {
        [] => false,
        [flag] if flag == "--check" => true,
        _ => {
            eprintln!("usage: perf_baseline [--check]");
            std::process::exit(2);
        }
    };
    let path =
        std::env::var("BENCH_BASELINE").unwrap_or_else(|_| "BENCH_baseline.json".to_string());
    let params = Params::default_ci();
    banner(
        "PERF — protocol/workload word baseline",
        &format!(
            "mode={}, file={path}, N={}, k={}, eps={}, seeds={}",
            if check { "check" } else { "write" },
            params.n,
            params.k,
            params.eps,
            params.seeds
        ),
    );

    // Committed cell order: words, then topology.
    let mut cells = measure_cells(params);
    cells.extend(measure_topology_cells(params));
    for c in &cells {
        let range = if c.exact {
            String::new()
        } else {
            format!("~ in [{}, {}]", c.words_min, c.words_max)
        };
        println!("{:30} {:>10} words{range}", c.id, c.words);
    }
    println!();

    if !check {
        std::fs::write(&path, to_json(params, &cells))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("baseline written to {path}");
        return;
    }

    let stored = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (write a baseline first)"));
    let (stored_params, stored_cells) =
        parse_json(&stored).unwrap_or_else(|e| panic!("corrupt baseline {path}: {e}"));
    if stored_params != params {
        println!(
            "note: baseline params {stored_params:?} differ from current \
             {params:?}; comparing anyway"
        );
    }

    let cmp = compare(&stored_cells, &cells, 0.25);
    for f in &cmp.advisory {
        println!("  advisory: {f}");
    }
    if cmp.hard.is_empty() {
        println!(
            "OK: all {} cells within tolerance ({} advisory note{})",
            cells.len(),
            cmp.advisory.len(),
            if cmp.advisory.len() == 1 { "" } else { "s" }
        );
    } else {
        println!("REGRESSIONS ({}):", cmp.hard.len());
        for f in &cmp.hard {
            println!("  {f}");
        }
        std::process::exit(1);
    }
}
