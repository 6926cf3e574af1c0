//! Positional-argument parsing and claim verdicts for the experiment
//! binaries.
//!
//! Every binary accepts optional positional overrides, e.g.
//! `table1 [N] [K] [EPS] [SEEDS] [EXEC]`; anything omitted — or anything
//! that fails to parse — falls back to the default. The trailing `EXEC`
//! argument selects the executor + delivery policy and, via `+` suffixes,
//! sliding-window tracking (`+window:W`) and link-fault injection
//! (`+loss:P`, `+dup:P`, `+churn[:R]`, `+straggle:S` — event modes only);
//! see [`exec_arg`].
//!
//! A binary that checks what it prints hands one [`Verdict`] per row to
//! [`conclude`], which exits 1 naming every failed [`Check::Claim`].

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

/// What a checked row is held to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// A claim of the paper: the binary exits 1 if it does not hold.
    Claim,
    /// Known not to hold until the named work lands; never fails a run.
    ExpectedFailure(&'static str),
}

/// One checked row: the row with its reading, which also names it in a
/// failure report (e.g. `count NEW: 379 ≥ 370 hits`), whether it held,
/// and what a miss means.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub what: String,
    pub held: bool,
    pub check: Check,
}

impl Verdict {
    /// A [`Check::Claim`] row.
    pub fn claim(what: String, held: bool) -> Self {
        Self {
            what,
            held,
            check: Check::Claim,
        }
    }

    /// The line printed for this row: a claim with its verdict, or an
    /// expected failure with the work it waits for (once it holds, a note
    /// that it can become a claim).
    fn line(&self) -> String {
        let what = &self.what;
        match self.check {
            Check::Claim => format!("claim: {what} {}", if self.held { "✓" } else { "✗" }),
            Check::ExpectedFailure(until) if self.held => {
                format!("note: {what} now holds; its expected failure ({until}) can become a claim")
            }
            Check::ExpectedFailure(until) => format!("expected failure: {what}, until {until}"),
        }
    }
}

/// The claims that did not hold: what a binary exits 1 for.
fn failures(verdicts: &[Verdict]) -> Vec<&str> {
    verdicts
        .iter()
        .filter(|v| v.check == Check::Claim && !v.held)
        .map(|v| v.what.as_str())
        .collect()
}

/// Print every verdict's line, then exit 1 naming each failed claim
/// (`{experiment} claims FAILED: …` on stderr); return if none failed.
pub fn conclude(experiment: &str, verdicts: &[Verdict]) {
    for v in verdicts {
        println!("{}\n", v.line());
    }
    let failed = failures(verdicts);
    if !failed.is_empty() {
        eprintln!("{experiment} claims FAILED: {}", failed.join("; "));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(name: &str, held: bool, check: Check) -> Verdict {
        Verdict {
            what: format!("{name}: 0.51 ≤ 0.70"),
            held,
            check,
        }
    }

    #[test]
    fn a_failing_claim_is_reported() {
        let vs = [
            verdict("count NEW", true, Check::Claim),
            verdict("frequency NEW", false, Check::Claim),
        ];
        assert_eq!(failures(&vs), ["frequency NEW: 0.51 ≤ 0.70"]);
        assert_eq!(vs[1].line(), "claim: frequency NEW: 0.51 ≤ 0.70 ✗");
        assert_eq!(vs[0].line(), "claim: count NEW: 0.51 ≤ 0.70 ✓");
    }

    #[test]
    fn a_failing_expected_failure_is_not_reported() {
        let vs = [verdict(
            "rank det",
            false,
            Check::ExpectedFailure("direction 12"),
        )];
        assert!(failures(&vs).is_empty());
        assert_eq!(
            vs[0].line(),
            "expected failure: rank det: 0.51 ≤ 0.70, until direction 12"
        );
    }

    #[test]
    fn an_expected_failure_that_holds_prints_its_note() {
        let v = verdict("rank det", true, Check::ExpectedFailure("direction 12"));
        assert!(failures(std::slice::from_ref(&v)).is_empty());
        let line = v.line();
        assert!(line.starts_with("note: rank det"), "{line}");
        assert!(line.contains("(direction 12) can become a claim"), "{line}");
    }
}
