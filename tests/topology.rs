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
use dtrack::core::TrackingConfig;
use dtrack::sim::exec::DeliveryPolicy;
use dtrack::sim::{ExecConfig, Executor, Protocol, Runner, Tree, TreeCoord, TreeSpec};
use dtrack_bench::measure::{assert_mean_error_le_eps, rows, run, Algo, Problem, Run};

const K: usize = 8;
const N: u64 = 6_000;
const SEED: u64 = 42;

// --- layer 1: depth-1 identity ---

/// Every tree-composable row wrapped in a depth-1 tree runs exactly as
/// flat, on the lock-step runner and on the instant event runtime:
/// identical accounting, space peaks and (bit-exact) root answers, and
/// no internal boundary. The tree coordinator also reports itself as the
/// degenerate shape: depth 1, no aggregators, no root load.
#[test]
fn depth1_tree_is_bit_identical_to_flat() {
    for (problem, algo) in rows().filter(|&(_, algo)| algo != Algo::Sampling) {
        for exec in ["lockstep", "event"] {
            let at = |spec: &str| run(spec.parse().unwrap(), problem, algo, K, 0.1, N, SEED);
            assert_eq!(
                at(&format!("{exec}+tree:4:1")),
                at(exec),
                "{exec}: depth-1 {problem}/{algo:?} differs from flat"
            );
        }
    }
    let depth1 = Tree::new(
        RandomizedCount::new(TrackingConfig::new(K, 0.1)),
        TreeSpec::new(4).with_depth(1),
    );
    let (_, c) = depth1.build(SEED);
    assert_eq!((c.depth(), c.aggregators(), c.root_load()), (1, 0, None));
    assert!(c.internal_loads().is_empty());
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
    let proto = Tree::new(
        RandomizedCount::new(TrackingConfig::new(K, 0.1)),
        TreeSpec::new(4).with_depth(2),
    );
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
    let leaf_words = |spec: &str| {
        let r = run(
            spec.parse().unwrap(),
            Problem::Count,
            Algo::Randomized,
            K,
            0.1,
            N,
            SEED,
        );
        r.stats.total_words()
    };
    // Leaf-boundary traffic differing is the cheap, deterministic
    // witness: depth 2 runs ε/2 leaf instances on their own seed
    // stream, so reproducing the flat run's exact word count would mean
    // shared randomness (answers alone could coincide by luck).
    assert_ne!(
        leaf_words("lockstep"),
        leaf_words("lockstep+tree:4:2"),
        "depth-2 tree reproduced the flat run's exact leaf traffic — \
         node seeds are not independent of site seeds"
    );
}

// --- layer 3: release-gated ε bounds (the acceptance criterion) ---

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
