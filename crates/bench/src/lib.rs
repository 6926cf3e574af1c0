//! # dtrack-bench — the experiment harness
//!
//! Regenerates the paper's tables and figures, and checks what they
//! claim. The experiment index (README.md, "Experiments", has the
//! commands); a binary that asserts something exits 1 naming each claim
//! that failed:
//!
//! | binary | experiment | asserts |
//! |---|---|---|
//! | `table1` | Table 1: space & communication of all seven algorithms | NEW words < deterministic words, per problem |
//! | `exp_scaling` | words and peak site space vs k, 1/ε and N; Thm 3.2's C·M | a band on each fitted exponent (√k vs k, 1/ε vs 1/ε², logN, space) and C·M ≥ log₂N/ε² |
//! | `exp_accuracy` | error quantiles over independent runs; median boosting | P\[err ≤ εn\] ≥ 0.9 per row, with a one-sided binomial margin |
//! | `exp_ablation` | five design ablations (estimators, re-thinning, rank tree, windowed digest) | each ablated arm shows the damage the paper predicts |
//! | `exp_figure1` | Figure 1 / Claim A.1: sampling-problem failure curve | each row and the 0.3 knee within a band of the finite-population Gaussian |
//! | `exp_lower_bounds` | Thm 2.2 one-way frontier; Thm 2.3/2.4 hard instances | each theorem's demonstrator within a band of its default reading |
//! | `exp_window` | sliding-window vs whole-stream tracking (beyond the paper) | nothing |
//! | `exp_topology` | flat star vs aggregation tree (beyond the paper) | tree root load < flat root load at k = 4096, count; tree error < 1 |
//! | `exp_wire` | codec bytes vs model words per protocol (beyond the paper) | NEW bytes < deterministic bytes at the largest in-regime k and the largest k |
//! | `perf_baseline` | the committed word cells of `BENCH_baseline.json` | `--check`: the exact cells match word for word |
//!
//! Run with `cargo run -p dtrack-bench --release --bin <name>`. Every
//! binary but `exp_figure1` and `perf_baseline` takes a trailing `EXEC`
//! argument (executor + delivery policy, optionally `+window:W` — see
//! `dtrack_sim::ExecConfig`).

#![forbid(unsafe_code)]

pub mod baseline;
pub mod cli;
pub mod fit;
pub mod measure;
pub mod table;

pub use measure::{Algo, Problem, Run};
