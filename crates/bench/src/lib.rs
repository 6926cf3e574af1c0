//! # dtrack-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper. The experiment index
//! (README.md, "Experiments", has the commands):
//!
//! | binary | experiment |
//! |---|---|
//! | `table1` | Table 1: space & communication of all seven algorithms |
//! | `exp_comm_vs_k` | √k vs k communication scaling (log-log slopes) |
//! | `exp_comm_vs_eps` | 1/ε communication scaling |
//! | `exp_comm_vs_n` | logN communication scaling (round structure) |
//! | `exp_space` | per-site space vs k and ε |
//! | `exp_accuracy` | error CDFs + median-boosted all-times correctness |
//! | `exp_figure1` | Figure 1 / Claim A.1: sampling-problem failure curve |
//! | `exp_lower_bounds` | Thm 2.2 one-way frontier; Thm 2.3/2.4 hard instances |
//! | `exp_tradeoff` | Thm 3.2 space–communication trade-off |
//! | `exp_window` | sliding-window vs whole-stream tracking (beyond the paper) |
//!
//! Run with `cargo run -p dtrack-bench --release --bin <name>`. Every
//! binary takes a trailing `EXEC` scenario argument (executor + delivery
//! policy, optionally `+window:W` — see `dtrack_sim::ExecConfig`).

#![forbid(unsafe_code)]

pub mod baseline;
pub mod cli;
pub mod fit;
pub mod measure;
pub mod table;

pub use measure::{Algo, Problem, Run};
