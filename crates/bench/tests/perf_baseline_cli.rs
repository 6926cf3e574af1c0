//! `perf_baseline` takes no argument (write) or `--check`. Write is the
//! destructive mode, so it must never be the fall-through for a typo:
//! anything else exits 2 before measuring or touching the baseline file.

use std::process::Command;

#[test]
fn unknown_arguments_exit_2_without_writing_the_baseline() {
    let path = std::env::temp_dir().join(format!(
        "dtrack_perf_baseline_cli_{}.json",
        std::process::id()
    ));
    for bad in ["--chekc", "--bootstrap"] {
        let _ = std::fs::remove_file(&path);
        let out = Command::new(env!("CARGO_BIN_EXE_perf_baseline"))
            .arg(bad)
            .env("BENCH_BASELINE", &path)
            .output()
            .expect("perf_baseline must spawn");
        let written = path.exists();
        let _ = std::fs::remove_file(&path);
        assert_eq!(out.status.code(), Some(2), "{bad}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: perf_baseline [--check]"),
            "{bad}: {out:?}"
        );
        assert!(!written, "{bad}: the baseline path was written");
    }
}
