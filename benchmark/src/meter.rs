//! Clocks, process counters and the small statistics the benchmark
//! reports: wall time, process CPU time, peak resident set, medians and
//! quartiles.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// `struct timespec` of 64-bit Linux, for [`cpu_ns`].
#[repr(C)]
struct Timespec {
    sec: std::ffi::c_long,
    nsec: std::ffi::c_long,
}

extern "C" {
    /// From the C library `std` already links.
    fn clock_gettime(clock: std::ffi::c_int, ts: *mut Timespec) -> std::ffi::c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: std::ffi::c_int = 2;

/// User + system CPU time of the whole process (all threads, live and
/// joined), in nanoseconds. `/proc/self/stat` holds the same figure in
/// 10 ms ticks, too coarse for a 100 ms leg; this clock counts
/// nanoseconds.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    if unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) } != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Peak resident set (`VmHWM`) of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even, like Python's `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) so the
/// spreads printed here are the ones the acceptance rule is stated in.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| -> f64 {
        // Position i·(n+1)/4 (1-based), clamped to the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The first decile of a sample of times (the value at index `⌊n/10⌋`
/// of the sorted sample, so the least of fewer than ten): what the timed
/// metrics report of their repetitions. Whatever else runs on the host
/// only ever adds to a time, in bursts of a fraction of a second to a
/// few seconds on the boxes this runs on, so the quiet tenth of the
/// repetitions repeats from run to run where their median follows the
/// neighbours; the third-least of twenty is not the outlier the least is.
pub fn quiet(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.1)
}

/// Interquartile range as a share of the median (0 for a single value).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The `q`-quantile (0 ≤ q < 1) of an already sorted, non-empty sample:
/// the value at index `⌊q·n⌋`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[((sorted.len() as f64 * q) as usize).min(sorted.len() - 1)]
}

/// The highest percentile of `sorted` that still has at least ten
/// samples beyond it, capped at `cap` (e.g. 0.90). Returns the
/// percentile actually used and its value; the median when the sample
/// is too small for anything higher.
pub fn high_percentile(sorted: &[f64], cap: f64) -> (f64, f64) {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let idx = if n > 20 {
        (n - 11).min((cap * n as f64) as usize)
    } else {
        n / 2
    };
    (idx as f64 / n as f64, sorted[idx.min(n - 1)])
}

/// Sorted copy of a sample.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Where and on what the numbers were taken; written into every result
/// file so two files can be told apart.
#[derive(Debug, Clone)]
pub struct Machine {
    /// `std::thread::available_parallelism()`.
    pub nproc: usize,
    /// First field of `/proc/loadavg` when the process started.
    pub loadavg: f64,
    /// `rustc -V` of the toolchain that built the binary (from `run.sh`).
    pub rustc: String,
    /// Git commit of the checkout (from `run.sh`; `unknown` outside git).
    pub commit: String,
}

impl Machine {
    /// Read the machine facts; `run.sh` passes the toolchain and commit
    /// in the environment because the binary cannot see them.
    pub fn read() -> Self {
        let loadavg = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
            .unwrap_or(0.0);
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            loadavg,
            rustc: env("DTRACK_BENCH_RUSTC"),
            commit: env("DTRACK_BENCH_COMMIT"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        let (p, x) = high_percentile(&v, 0.90);
        assert_eq!((p, x), (0.90, 180.0));
        let v: Vec<f64> = (0..30).map(f64::from).collect();
        let (p, x) = high_percentile(&v, 0.90);
        assert_eq!(x, 19.0);
        assert!(p < 0.7);
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mib() > 0.0);
        let before = cpu_ns();
        let t0 = now_ns();
        while now_ns() - t0 < 20_000_000 {
            std::hint::spin_loop();
        }
        // Other tests' threads may add to it; none can take from it.
        let spent = cpu_ns() - before;
        assert!(spent > 1_000_000, "{spent} ns of CPU over a 20 ms spin");
    }

    #[test]
    fn quiet_is_the_first_decile() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quiet(&v), 3.0);
        assert_eq!(quiet(&[4.0, 2.0, 3.0]), 2.0);
    }
}
