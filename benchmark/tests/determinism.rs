//! Determinism self-test: the exact metrics repeat bit for bit on the
//! same seed and move on another, the harness drives the protocols the
//! way the repository's hard gate (`perf_baseline`) does, and the
//! committed `BENCHMARK.json` is the table the code defines.

use dtrack_benchmark::lockstep::harness_pass;
use dtrack_benchmark::meter::median;
use dtrack_benchmark::proto::{Kind, Stream, Tracked};
use dtrack_benchmark::trace::Recorder;
use dtrack_benchmark::workloads::{build, Verdict};
use dtrack_benchmark::{json, spec};
use dtrack_core::count::{DeterministicCount, RandomizedCount};
use dtrack_core::TrackingConfig;

/// Sizes ÷ 64: the lock-step workloads in a few hundred milliseconds.
const SHIFT: u32 = 6;

fn exact_metrics(name: &str, seed: u64) -> (Verdict, Vec<u64>) {
    let w = build(name, seed, SHIFT).expect("a named workload");
    let reps = [w.rep(&mut Recorder::off()), w.rep(&mut Recorder::off())];
    let answers = reps[0]
        .passes
        .iter()
        .flat_map(|p| p.answers.iter().map(|a| a.est.to_bits()))
        .collect();
    (w.verify(&reps), answers)
}

#[test]
fn same_seed_gives_bit_identical_exact_metrics_and_another_seed_does_not() {
    for name in ["lockstep_count_freq", "lockstep_rank"] {
        let (a, answers_a) = exact_metrics(name, 7);
        let (b, answers_b) = exact_metrics(name, 7);
        assert_eq!(a.reference_words, b.reference_words, "{name}: words");
        assert_eq!(a.reference_bytes, b.reference_bytes, "{name}: bytes");
        assert_eq!(a.reference_elements, b.reference_elements, "{name}");
        assert_eq!(answers_a, answers_b, "{name}: answers");
        let bits = |v: &Verdict| -> Vec<u64> {
            v.checks.ratios_rand.iter().map(|r| r.to_bits()).collect()
        };
        assert_eq!(bits(&a), bits(&b), "{name}: |err|/(εn) ratios");
        assert_eq!(
            (a.checks.attempted, a.checks.failed),
            (b.checks.attempted, 0)
        );

        let (c, _) = exact_metrics(name, 8);
        assert_ne!(a.reference_words, c.reference_words, "{name}: seed 8 words");
        assert_eq!(c.checks.failed, 0, "{name}: {:?}", c.checks.notes);
    }
}

/// `perf_baseline`'s matrix: n = 60 000 round-robin over k = 16 sites,
/// ε = 0.05, median words over seeds 0–2.
fn baseline_words<P: Tracked>() -> u64 {
    let (n, k) = (60_000u64, 16usize);
    let stream = Stream {
        kind: Kind::Count,
        k,
        chunk: (0..n).map(|t| ((t % k as u64) as usize, t)).collect(),
        cycles: 1,
        probes: vec![0],
    };
    let cfg = TrackingConfig::new(k, 0.05);
    let words: Vec<f64> = (0..3)
        .map(|seed| {
            harness_pass::<P>(cfg, &stream, seed, &mut Recorder::on(0))
                .stats
                .total_words() as f64
        })
        .collect();
    median(&words) as u64
}

#[test]
fn harness_reproduces_the_hard_gates_exact_word_cells() {
    let det = baseline_words::<DeterministicCount>();
    let rand = baseline_words::<RandomizedCount>();
    assert_eq!((det, rand), (1904, 1783));
    // The committed baseline (read-only here) says the same.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_baseline.json");
    let baseline = json::parse(&std::fs::read_to_string(path).expect("BENCH_baseline.json"))
        .expect("BENCH_baseline.json parses");
    let cell = |id: &str| {
        baseline
            .get("cells")
            .and_then(json::Value::as_arr)
            .and_then(|cells| {
                cells
                    .iter()
                    .find(|c| c.get("id").and_then(json::Value::as_str) == Some(id))
            })
            .and_then(|c| c.get("words")?.as_f64())
            .unwrap_or_else(|| panic!("no exact cell {id}"))
    };
    assert_eq!(cell("count/deterministic"), det as f64);
    assert_eq!(cell("count/randomized"), rand as f64);
}

#[test]
fn committed_benchmark_json_is_the_table_the_code_defines() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        spec::benchmark_json(),
        "regenerate with `benchmark/run.sh --spec > BENCHMARK.json`"
    );
}
