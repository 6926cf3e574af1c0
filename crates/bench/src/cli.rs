//! Tiny positional-argument parsing for the experiment binaries.
//!
//! Every binary accepts optional positional overrides, e.g.
//! `table1 [N] [K] [EPS] [SEEDS] [EXEC]`; anything omitted — or anything
//! that fails to parse — falls back to the default. The trailing `EXEC`
//! argument selects the executor + delivery policy and, via `+` suffixes,
//! sliding-window tracking (`+window:W`) and link-fault injection
//! (`+loss:P`, `+dup:P`, `+churn[:R]`, `+straggle:S` — event modes only);
//! see [`exec_arg`].

use dtrack_sim::ExecConfig;

/// Parse positional argument `idx` (0-based, after the program name) as
/// `T`, falling back to `default`.
pub fn arg<T: std::str::FromStr>(idx: usize, default: T) -> T {
    std::env::args()
        .nth(idx + 1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Parse positional argument `idx` as an [`ExecConfig`] scenario spec
/// (`lockstep | channel | event[:instant] | event:fixed:D |
/// event:random:MIN:MAX | event:reorder:W`, each optionally suffixed
/// `+window:W` for sliding-window tracking and — on event modes —
/// `+loss:P+dup:P+churn[:R]+straggle:S` for link faults), defaulting to
/// [`ExecConfig::lockstep`] when absent.
///
/// Unlike [`arg`], a *malformed* spec aborts with a message instead of
/// silently falling back: an experiment silently run under the wrong
/// execution model would be far worse than a startup error.
pub fn exec_arg(idx: usize) -> ExecConfig {
    match std::env::args().nth(idx + 1) {
        None => ExecConfig::lockstep(),
        Some(s) => s.parse().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
    }
}

/// Standard experiment banner.
pub fn banner(name: &str, detail: &str) {
    println!("== {name} ==");
    println!("{detail}");
    println!();
}

/// Print a claim with its verdict and return the verdict, so a binary
/// can assert several claims and exit 1 naming the ones that failed.
pub fn claim(what: &str, held: bool) -> bool {
    println!("claim: {what} {}\n", if held { "✓" } else { "✗" });
    held
}
