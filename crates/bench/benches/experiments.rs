//! Smoke-scale versions of the paper experiments, wired into `cargo
//! bench` so the whole reproduction pipeline (workload → protocol →
//! accounting → error measurement) is exercised and timed on every bench
//! run. The full-scale tables come from the `dtrack-bench` binaries.

use criterion::{criterion_group, criterion_main, Criterion};
use dtrack_bench::measure::{run, Algo, Problem};
use dtrack_bounds::SamplingProblem;
use dtrack_sim::{DeliveryPolicy, ExecConfig};

fn bench_experiment_smoke(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiment_smoke");
    g.sample_size(10);

    let exec = ExecConfig::lockstep();
    g.bench_function("table1_count_row", |b| {
        b.iter(|| run(exec, Problem::Count, Algo::Randomized, 16, 0.05, 50_000, 1))
    });
    g.bench_function("table1_frequency_row", |b| {
        b.iter(|| {
            run(
                exec,
                Problem::Frequency,
                Algo::Randomized,
                16,
                0.05,
                50_000,
                1,
            )
        })
    });
    g.bench_function("table1_rank_row", |b| {
        b.iter(|| run(exec, Problem::Rank, Algo::Randomized, 16, 0.05, 50_000, 1))
    });
    g.bench_function("figure1_point", |b| {
        b.iter(|| SamplingProblem::new(1_000).failure_rate(100, 500, 1))
    });
    g.finish();
}

/// The same count row on every executor: quantifies what each layer of
/// execution realism costs (lock-step vs event queue vs OS threads).
fn bench_executor_matrix(c: &mut Criterion) {
    let mut g = c.benchmark_group("executor_matrix");
    g.sample_size(10);

    for (name, exec) in [
        ("lockstep", ExecConfig::lockstep()),
        ("event_instant", ExecConfig::event(DeliveryPolicy::Instant)),
        (
            "event_random_delay",
            ExecConfig::event(DeliveryPolicy::RandomDelay { min: 1, max: 32 }),
        ),
        ("channel", ExecConfig::channel()),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| run(exec, Problem::Count, Algo::Randomized, 16, 0.05, 50_000, 1))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_experiment_smoke, bench_executor_matrix);
criterion_main!(benches);
