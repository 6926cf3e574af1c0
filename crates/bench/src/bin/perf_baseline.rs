//! Perf-regression gate: write, bootstrap, or check `BENCH_baseline.json`.
//!
//! * `perf_baseline` — run the fixed protocol/workload matrix and
//!   (re)write the baseline file wholesale (words + wall-times). Do this
//!   deliberately when a words change is intended.
//! * `perf_baseline --bootstrap` — re-measure on *this* machine and
//!   rewrite only the wall-times in place, keeping the committed words
//!   (the cross-machine signal) untouched. CI runs this once per job so
//!   the subsequent check's timing comparisons are same-machine instead
//!   of against whichever machine wrote the baseline.
//! * `perf_baseline --check` — re-run the matrix and compare: **word
//!   drift on an exact (lock-step) cell fails the build** (exit 1 — words
//!   there are deterministic given the seed set, so any drift is a real
//!   behavior change); wall-time drift is printed advisorily and never
//!   fails. The thread-timed `window/channel` cell records a words
//!   *distribution* (min/median/max over ≥ 5 seeds) rather than
//!   pretending its median is exact; its current median is checked
//!   against the recorded range (advisory).
//!
//! The ingest-throughput panel (`throughput/*` cells, fed
//! `THROUGHPUT_ELEMS` elements through the channel runtime's batch and
//! per-element paths) rides along in every mode, as does the live-query
//! panel (`queries/*` cells: reader threads answering count queries
//! from lock-free snapshots while ingest runs) and the
//! hierarchical-topology panel (`topology/*` cells: flat-star vs
//! binary-tree root-load words per level, advisory) and the wire-format
//! panel (`bytes/*` cells: total codec bytes per protocol, read off the
//! same runs as the word cells, advisory —
//! byte totals are deterministic on lock-step but the codec is an
//! encoding choice, not protocol behavior, so tuning it must not trip
//! the hard word gate). Their rates
//! (elements/second resp. queries/second) are machine-dependent like
//! wall time, so `--bootstrap` refreshes them and `--check` compares
//! them advisorily — a rate collapse past the timing factor prints, but
//! never fails the build.
//!
//! The baseline path defaults to `BENCH_baseline.json` in the current
//! directory; override with the `BENCH_BASELINE` environment variable.
//! Run under `--release` — debug timings would be meaningless against a
//! release baseline (the check compares, it cannot tell why).

use dtrack_bench::baseline::{
    bootstrap, compare, measure_cells, measure_query_cells, measure_throughput_cells,
    measure_topology_cells, parse_json, to_json, Params, QUERY_STORM_ELEMS, THROUGHPUT_ELEMS,
};
use dtrack_bench::cli::banner;

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let boot = std::env::args().any(|a| a == "--bootstrap");
    if check && boot {
        eprintln!("error: --check and --bootstrap are mutually exclusive");
        std::process::exit(2);
    }
    let path =
        std::env::var("BENCH_BASELINE").unwrap_or_else(|_| "BENCH_baseline.json".to_string());
    let params = Params::default_ci();
    banner(
        "PERF — protocol/workload perf baseline",
        &format!(
            "mode={}, file={path}, N={}, k={}, eps={}, seeds={}",
            if check {
                "check"
            } else if boot {
                "bootstrap"
            } else {
                "write"
            },
            params.n,
            params.k,
            params.eps,
            params.seeds
        ),
    );

    // Committed cell order: words, throughput, queries, topology, bytes.
    let (mut cells, wire_cells) = measure_cells(params);
    cells.extend(measure_throughput_cells(params, THROUGHPUT_ELEMS));
    cells.extend(measure_query_cells(params, QUERY_STORM_ELEMS));
    cells.extend(measure_topology_cells(params));
    cells.extend(wire_cells);
    for c in &cells {
        let range = if c.exact {
            String::new()
        } else {
            format!(" in [{}, {}]", c.words_min, c.words_max)
        };
        let rate = match c.elems_per_sec {
            Some(r) => format!("  {:>7.2}M elem/s", r / 1e6),
            None => String::new(),
        };
        println!(
            "{:28} {:>10} words{}{} {:>9.2} ms{}",
            c.id,
            c.words,
            if c.exact { " " } else { "~" },
            range,
            c.millis,
            rate
        );
    }
    println!();

    if !check && !boot {
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

    if boot {
        let booted = bootstrap(&stored_cells, &cells);
        std::fs::write(&path, to_json(stored_params, &booted))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!(
            "bootstrapped {path}: kept committed words, refreshed wall-times \
             for this machine"
        );
        return;
    }

    let cmp = compare(&stored_cells, &cells, 0.25, 3.0);
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
