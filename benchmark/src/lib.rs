//! # dtrack-benchmark
//!
//! The benchmark of the dtrack workspace: six named workloads, the
//! end-to-end metrics a user of the system would see, and a traced run
//! that decomposes them layer by layer. It measures every layer **from
//! outside**, by timing calls into the crates' public functions; nothing
//! inside `crates/` is instrumented. `README.md` in this directory is
//! the manual; `../BENCHMARK.json` is the contract.

pub mod channel;
pub mod cli;
pub mod compare;
pub mod json;
pub mod layers;
pub mod lockstep;
pub mod meter;
pub mod pass;
pub mod proto;
pub mod run;
pub mod socket;
pub mod spec;
pub mod trace;
pub mod workloads;
