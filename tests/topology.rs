//! The hierarchical-topology suite — the correctness story for
//! `dtrack_sim::exec::topology` (sites → aggregators → root).
//!
//! Three layers of guarantees, cheapest first:
//!
//! 1. **Depth-1 identity** (debug-fast): a `+tree` of depth 1 *is* the
//!    flat star — same seeds, same messages, same answers, bit for bit,
//!    on both the lock-step runner and the instant event runtime. The
//!    tree layer provably adds nothing until it adds levels.
//! 2. **Smoke** (debug-fast): depth ≥ 2 trees parsed from scenario
//!    strings run to quiescence on every executor — with faults on the
//!    leaf links, with live query handles at the root — and keep the
//!    deterministic count baseline's unconditional-style invariant
//!    (`n̂ ≤ n`, with the per-level `(1+ε/d)` factors and the O(nodes)
//!    replay-floor rounding made explicit in the lower bound).
//! 3. **ε bounds** (release-gated, ≥ 20 seeds): count, frequency, and
//!    rank meet the mean-error-≤-ε acceptance bound at depth 2 and at
//!    depth 4 (binary tree) — the per-level ε/d split composes to the
//!    whole-tree budget like the module docs claim.

use dtrack::core::count::{DeterministicCount, RandomizedCount};
use dtrack::core::frequency::RandomizedFrequency;
use dtrack::core::rank::DeterministicRank;
use dtrack::core::TrackingConfig;
use dtrack::sim::exec::{DeliveryPolicy, EventRuntime};
use dtrack::sim::{ExecConfig, Executor, Runner, Site, Tree, TreeCoord, TreeSpec};
use dtrack::workload::items::DistinctSeq;
use dtrack::workload::{UniformSites, Workload, ZipfItems};
use dtrack_bench::measure::{run, Algo, Problem, Run};

const K: usize = 8;
const N: u64 = 6_000;
const SEED: u64 = 42;

fn cfg() -> TrackingConfig {
    TrackingConfig::new(K, 0.1)
}

fn zipf_arrivals() -> Vec<(usize, u64)> {
    Workload::new(ZipfItems::new(500, 1.2), UniformSites::new(K), N, 7)
        .map(|a| (a.site, a.item))
        .collect()
}

fn distinct_arrivals() -> Vec<(usize, u64)> {
    Workload::new(DistinctSeq::new(7), UniformSites::new(K), N, 7)
        .map(|a| (a.site, a.item))
        .collect()
}

// --- layer 1: depth-1 identity ---

/// Drive the flat protocol and its depth-1 tree wrapping side by side
/// on one executor-pair and require identical accounting, space, and
/// (bit-exact) query answers. The tree coordinator must also report
/// itself as the degenerate shape: depth 1, no aggregators, no internal
/// boundaries.
fn assert_depth1_identity<P, Q>(name: &str, proto: &P, arrivals: &[(usize, u64)], queries: Q)
where
    P: dtrack::sim::TreeProtocol + Clone,
    P::Site: Site<Item = u64>,
    <P::Site as Site>::Up: Clone,
    Q: Fn(&P::Coord) -> Vec<f64>,
{
    let tree = Tree::new(proto.clone(), TreeSpec::new(4).with_depth(1));
    let mut flat = Runner::new(proto, SEED);
    let mut wrapped = Runner::new(&tree, SEED);
    for &(site, item) in arrivals {
        flat.feed(site, &item);
        wrapped.feed(site, &item);
    }
    assert_eq!(
        flat.stats(),
        wrapped.stats(),
        "{name}: depth-1 CommStats differ"
    );
    for site in 0..K {
        assert_eq!(
            flat.space().peak(site),
            wrapped.space().peak(site),
            "{name}: depth-1 space peak differs at site {site}"
        );
    }
    assert_eq!(
        queries(flat.coord()),
        queries(wrapped.coord().root()),
        "{name}: depth-1 root answers differ from flat"
    );
    assert_eq!(wrapped.coord().depth(), 1);
    assert_eq!(wrapped.coord().aggregators(), 0);
    assert!(wrapped.coord().internal_loads().is_empty());
    assert_eq!(wrapped.coord().root_load(), None);

    // Same identity on the instant event runtime (the two executors are
    // themselves equivalent — tests/exec_equivalence.rs — so this pins
    // that the tree layer keeps it that way).
    let mut ev_flat = EventRuntime::new(proto, SEED);
    let mut ev_wrapped = EventRuntime::new(&tree, SEED);
    for &(site, item) in arrivals {
        ev_flat.feed(site, item);
        ev_wrapped.feed(site, item);
    }
    ev_flat.quiesce();
    ev_wrapped.quiesce();
    assert_eq!(
        ev_flat.stats(),
        ev_wrapped.stats(),
        "{name}: depth-1 event CommStats differ"
    );
    assert_eq!(
        queries(ev_flat.coord()),
        queries(ev_wrapped.coord().root()),
        "{name}: depth-1 event root answers differ from flat"
    );
}

#[test]
fn depth1_tree_is_bit_identical_to_flat() {
    assert_depth1_identity(
        "randomized count",
        &RandomizedCount::new(cfg()),
        &zipf_arrivals(),
        |c| vec![c.estimate()],
    );
    assert_depth1_identity(
        "deterministic count",
        &DeterministicCount::new(cfg()),
        &zipf_arrivals(),
        |c| vec![c.estimate()],
    );
    assert_depth1_identity(
        "randomized frequency",
        &RandomizedFrequency::new(cfg()),
        &zipf_arrivals(),
        |c| (0..10).map(|j| c.estimate_frequency(j)).collect(),
    );
    assert_depth1_identity(
        "deterministic rank",
        &DeterministicRank::new(cfg()),
        &distinct_arrivals(),
        |c| {
            [u64::MAX / 4, u64::MAX / 2, u64::MAX / 4 * 3]
                .iter()
                .map(|&x| c.estimate_rank(x))
                .collect()
        },
    );
}

// --- layer 2: depth ≥ 2 smoke ---

/// The deterministic count tree at depth `d` keeps an explicit
/// two-sided bound: replay floors only ever under-replay, so `n̂ ≤ n`
/// stays unconditional; downward, each level costs its `(1+ε/d)` factor
/// plus < 1 element of floor rounding per aggregator.
fn assert_det_count_tree_bound(est: f64, n: u64, eps: f64, depth: usize, aggregators: usize) {
    let n = n as f64;
    assert!(est <= n + 1e-9, "tree n̂ {est} > n {n}");
    let per_level = 1.0 + eps / depth as f64;
    let factor = per_level.powi(depth as i32);
    assert!(
        n <= est * factor + (aggregators + 1) as f64 * factor + 1e-9,
        "n {n} > (1+ε/{depth})^{depth}·n̂ + rounding  (n̂ = {est}, {aggregators} aggregators)"
    );
}

#[test]
fn deterministic_count_tree_meets_its_bound_at_depth_2() {
    let eps = 0.1;
    let proto = Tree::new(
        DeterministicCount::new(TrackingConfig::new(K, eps)),
        TreeSpec::new(4).with_depth(2),
    );
    let mut r = Runner::new(&proto, SEED);
    for t in 0..N {
        r.feed((t % K as u64) as usize, &t);
        // The bound holds at every instant, not just at the end.
        if t % 997 == 0 {
            let c = r.coord();
            assert_det_count_tree_bound(c.root().estimate(), t + 1, eps, 2, c.aggregators());
        }
    }
    let c = r.coord();
    assert_eq!(c.depth(), 2);
    assert_eq!(c.aggregators(), 2, "8 leaves under fanout 4");
    assert_det_count_tree_bound(c.root().estimate(), N, eps, 2, c.aggregators());

    // Load accounting sanity: one internal boundary, carrying words,
    // and the root sees strictly less than the leaf boundary (which the
    // executor accounts).
    let loads = c.internal_loads();
    assert_eq!(loads.len(), 1);
    assert!(loads[0].up_words > 0, "no words ever reached the root");
    let root_words = c
        .root_load()
        .expect("depth 2 has a root load")
        .total_words();
    assert!(
        root_words < r.stats().total_words(),
        "root load {root_words} not below leaf-boundary words {}",
        r.stats().total_words()
    );
}

/// Scenario-string smoke: `+tree:F:D` parses, runs on each executor,
/// and the deterministic count error stays within the depth-adjusted
/// band (coarse here; the sharp mean-ε statement is release-gated
/// below).
#[test]
fn smoke_tree_scenarios_run_on_every_executor() {
    for spec in [
        "lockstep+tree:4:2",
        "lockstep+tree:2:3",
        "event+tree:4:2",
        "event:fixed:8+tree:4:2",
        "channel+tree:4:2",
    ] {
        let exec: ExecConfig = spec.parse().expect("scenario must parse");
        let Run { cost: cs, err, .. } =
            run(exec, Problem::Count, Algo::Deterministic, K, 0.1, N, SEED);
        assert!(cs.msgs > 0, "{spec}: no messages");
        assert!(cs.words >= cs.msgs, "{spec}: words < msgs");
        assert!(err < 0.2, "{spec}: err {err}");
    }
}

/// Faults act on the leaf links of a tree exactly as on a flat star:
/// loss is retransmitted, duplicates are discarded, and the run still
/// lands in the depth-adjusted band.
#[test]
fn smoke_tree_composes_with_faults() {
    let exec: ExecConfig = "event+tree:4:2+loss:0.2+dup:0.2".parse().unwrap();
    assert_eq!(exec.tree, Some(TreeSpec::new(4).with_depth(2)));
    let Run { cost: cs, err, .. } = run(exec, Problem::Count, Algo::Deterministic, K, 0.1, N, SEED);
    assert!(cs.msgs > 0);
    assert!(err < 0.2, "err {err}");
}

/// The sampling baseline has no tree composition; asking for one dies
/// loudly instead of silently answering from a flat run.
#[test]
#[should_panic(expected = "no TreeProtocol impl")]
fn sampling_under_tree_panics_with_a_pointer() {
    let exec: ExecConfig = "lockstep+tree:4:2".parse().unwrap();
    let _ = run(exec, Problem::Count, Algo::Sampling, K, 0.1, 100, SEED);
}

/// Live queries work at the tree root: a [`QueryHandle`] installed on an
/// executor running a depth-2 tree serves finite root answers with
/// monotone epochs while ingest continues, and agrees exactly with the
/// stop-the-world query after quiesce.
///
/// [`QueryHandle`]: dtrack::sim::QueryHandle
#[test]
fn query_handle_serves_live_answers_at_the_tree_root() {
    let proto = Tree::new(RandomizedCount::new(cfg()), TreeSpec::new(4).with_depth(2));
    let mut ex = ExecConfig::event(DeliveryPolicy::Instant).build(&proto, SEED);
    let handle = ex.query_handle();
    let mut last_epoch = 0;
    for t in 0..N {
        ex.feed((t % K as u64) as usize, t);
        let (epoch, est) = handle.read(|s| (s.epoch, s.state.root().estimate()));
        assert!(epoch >= last_epoch, "epoch went backwards");
        last_epoch = epoch;
        assert!(est.is_finite(), "live root estimate not finite");
    }
    ex.quiesce();
    let live = handle.read(|s| s.state.root().estimate());
    let truth = ex.query(|c: &TreeCoord<RandomizedCount>| c.root().estimate());
    assert_eq!(
        live.to_bits(),
        truth.to_bits(),
        "post-quiesce live answer differs from the stop-the-world query"
    );
}

/// Depth ≥ 2 runs draw node seeds from a stream disjoint from the flat
/// `site_seed` stream, so tree and flat runs of the same master seed
/// are *independent* samples — same answers would mean shared
/// randomness (the depth-1 case, where sharing is the contract, is
/// pinned above).
#[test]
fn depth2_randomness_is_independent_of_flat() {
    let flat = RandomizedCount::new(cfg());
    let tree = Tree::new(flat, TreeSpec::new(4).with_depth(2));
    let mut rf = Runner::new(&flat, SEED);
    let mut rt = Runner::new(&tree, SEED);
    for t in 0..N {
        rf.feed((t % K as u64) as usize, &t);
        rt.feed((t % K as u64) as usize, &t);
    }
    // Leaf-boundary traffic differing is the cheap, deterministic
    // witness: depth 2 runs ε/2 leaf instances on their own seed
    // stream, so reproducing the flat run's exact word count would mean
    // shared randomness (answers alone could coincide by luck).
    assert_ne!(
        rf.stats().total_words(),
        rt.stats().total_words(),
        "depth-2 tree reproduced the flat run's exact leaf traffic — \
         node seeds are not independent of site seeds"
    );
}

// --- layer 3: release-gated ε bounds (the acceptance criterion) ---

/// Mean error over ≥ 20 seeds of `metric` must be ≤ `eps`.
fn assert_mean_error_le_eps<F: Fn(u64) -> f64>(name: &str, eps: f64, seeds: u64, metric: F) {
    let mean = (0..seeds).map(&metric).sum::<f64>() / seeds as f64;
    assert!(
        mean <= eps,
        "{name}: mean error {mean:.4} over {seeds} seeds exceeds eps {eps}"
    );
}

/// Count, frequency, and rank meet the mean-error-≤-ε bound through a
/// depth-2 tree (fanout 4 over k = 16: every node has real merging to
/// do) — the ε/2-per-level split composes to the whole-ε budget.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "20-seed release-gated acceptance suite; covered by release CI"
)]
fn tree_protocols_meet_epsilon_at_depth_2() {
    let exec = ExecConfig::lockstep().with_tree(TreeSpec::new(4).with_depth(2));
    let (k, eps, seeds, n, rank_n) = (16, 0.1, 20, 30_000u64, 8_000u64);
    for algo in [Algo::Deterministic, Algo::Randomized] {
        assert_mean_error_le_eps(&format!("tree count/{algo:?}"), eps, seeds, |seed| {
            run(exec, Problem::Count, algo, k, eps, n, seed).err
        });
        assert_mean_error_le_eps(&format!("tree frequency/{algo:?}"), eps, seeds, |seed| {
            run(exec, Problem::Frequency, algo, k, eps, n, seed).err
        });
        assert_mean_error_le_eps(&format!("tree rank/{algo:?}"), eps, seeds, |seed| {
            run(exec, Problem::Rank, algo, k, eps, rank_n, seed).err
        });
    }
}

/// The same statement at depth 4 (binary tree over k = 16): four
/// levels of ε/4 instances and three aggregator tiers of replay
/// compose to the documented budget `(1+ε/4)⁴ − 1` (≈ 1.038·ε at
/// ε = 0.1 — the multiplicative per-level factors, see the module docs
/// in `dtrack_sim::exec::topology`; it converges to `eᵋ − 1` as depth
/// grows, never to less than ε).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "20-seed release-gated acceptance suite; covered by release CI"
)]
fn tree_protocols_meet_epsilon_at_depth_4() {
    let exec = ExecConfig::lockstep().with_tree(TreeSpec::new(2).with_depth(4));
    let (k, eps, seeds, n) = (16, 0.1, 20, 30_000u64);
    let budget = (1.0_f64 + eps / 4.0).powi(4) - 1.0;
    for algo in [Algo::Deterministic, Algo::Randomized] {
        assert_mean_error_le_eps(
            &format!("deep tree count/{algo:?}"),
            budget,
            seeds,
            |seed| run(exec, Problem::Count, algo, k, eps, n, seed).err,
        );
    }
    assert_mean_error_le_eps("deep tree frequency/Randomized", budget, seeds, |seed| {
        run(exec, Problem::Frequency, Algo::Randomized, k, eps, n, seed).err
    });
    assert_mean_error_le_eps("deep tree rank/Deterministic", budget, seeds, |seed| {
        run(
            exec,
            Problem::Rank,
            Algo::Deterministic,
            k,
            eps,
            8_000,
            seed,
        )
        .err
    });
}

/// Tree runs under the acceptance fault mix (`+loss+dup+churn` on the
/// leaf links) still meet the ε bound — fault recovery and the
/// aggregation hierarchy compose.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "20-seed release-gated acceptance suite; covered by release CI"
)]
fn tree_meets_epsilon_under_the_acceptance_fault_mix() {
    let exec: ExecConfig = "event+loss:0.05+dup:0.05+churn:0.1".parse().unwrap();
    let exec = exec.with_tree(TreeSpec::new(4).with_depth(2));
    let (k, eps, seeds, n) = (16, 0.1, 20, 30_000u64);
    assert_mean_error_le_eps("faulty tree count", eps, seeds, |seed| {
        run(exec, Problem::Count, Algo::Randomized, k, eps, n, seed).err
    });
    assert_mean_error_le_eps("faulty tree frequency", eps, seeds, |seed| {
        run(exec, Problem::Frequency, Algo::Randomized, k, eps, n, seed).err
    });
}

/// What the topology is *for*, asserted as a test and not only in
/// `exp_topology`: at k = 64 the depth-2 root boundary carries strictly
/// fewer words than the flat star's root (which sees every word of the
/// run), for both count protocols.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "multi-run root-load comparison; release CI covers it"
)]
fn depth2_root_load_undercuts_the_flat_star() {
    let exec = ExecConfig::lockstep();
    let (k, eps, n) = (64, 0.05, 100_000u64);
    let in_tree = exec.with_tree(TreeSpec::new(8).with_depth(2));
    for algo in [Algo::Deterministic, Algo::Randomized] {
        let flat_root = run(exec, Problem::Count, algo, k, eps, n, SEED).root_words();
        let tree = run(in_tree, Problem::Count, algo, k, eps, n, SEED);
        assert!(
            tree.root_words() < flat_root,
            "{algo:?}: tree root load {} ≥ flat root load {flat_root}",
            tree.root_words()
        );
    }
}
