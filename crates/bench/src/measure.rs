//! Instrumented end-to-end protocol runs over standard workloads.
//!
//! The paper's evidence is one experiment repeated over a grid — count /
//! frequency / rank × {randomized, deterministic baseline, continuous
//! sampling} — and [`run`] is that experiment: it takes the grid cell as
//! data ([`Problem`], [`Algo`]) and an [`ExecConfig`] scenario selecting
//! the executor and delivery policy (lock-step runner, deterministic
//! event scheduler, concurrent channel runtime), link faults, and a
//! shape — the paper's flat star, `+window:W`, or `+tree:F[:D]`. Three
//! steps, each written once:
//!
//! 1. the problem's standard workload and its exact answers — over the
//!    whole stream, or over the last `w` arrivals under `+window:w`
//!    (errors then normalize by `w`, the windowed analogue of `n`);
//! 2. the shape: the protocol bare, wrapped in
//!    [`dtrack_core::window::Windowed`], or wrapped in
//!    [`dtrack_sim::Tree`] — a shape the run cannot honour is refused;
//! 3. feed → quiesce → ask. Elements go through the executors' batched
//!    fast path; answers are read through the `dtrack_core::query`
//!    traits after an [`AnyExec::quiesce`](dtrack_sim::AnyExec::quiesce)
//!    (a consistent cut — under delayed delivery this is the state the
//!    idealized model would have reached), so the same query text serves
//!    every protocol and shape.
//!
//! A [`Run`] keeps traffic in [`CommStats`], the one ledger (its docs
//! list every charge point): the executor's ([`Run::stats`]) and one
//! per tree boundary ([`Run::internal`]), merged by [`Run::cost`].

use dtrack_core::boost::Replicated;
use dtrack_core::count::{DeterministicCount, RandomizedCount};
use dtrack_core::frequency::{DeterministicFrequency, RandomizedFrequency};
use dtrack_core::query::{CountQuery, FrequencyQuery, RankQuery};
use dtrack_core::rank::{DeterministicRank, RandomizedRank};
use dtrack_core::sampling::ContinuousSampling;
use dtrack_core::window::Windowed;
use dtrack_core::TrackingConfig;
use dtrack_sim::{CommStats, ExecConfig, FaultStats, Protocol, Site, Tree};
use dtrack_sketch::exact::{ExactCounts, ExactRanks};
use dtrack_workload::items::{DistinctSeq, ItemGen, ZipfItems};
use dtrack_workload::{RoundRobin, SiteAssign, UniformSites, Workload};

/// Which function of the stream is tracked (the paper's §2–§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Problem {
    /// §2: the number of elements, over a round-robin stream; error
    /// `|n̂ − n|/n`.
    Count,
    /// §3: per-item frequencies, over zipf(1.1) items on a 10⁴ domain
    /// with a uniformly random site per element; error `|f̂ − f|/n` at
    /// the 20 hottest items plus 5 absent ones.
    Frequency,
    /// §4: ranks, over a duplicate-free round-robin stream; error
    /// `|rank̂ − rank|/n` at the nine deciles.
    Rank,
}

/// Which algorithm tracks it (the paper's Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// The paper's randomized protocol (Theorems 2.1 / 3.1 / 4.1).
    Randomized,
    /// The deterministic baseline: the trivial (1+ε)-threshold counter,
    /// the \[29\]-style frequency tracker, the delta-batch rank tracker.
    Deterministic,
    /// Continuous sampling \[9\] — one protocol, all three problems.
    Sampling,
}

impl std::fmt::Display for Problem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Problem::Count => "count",
            Problem::Frequency => "frequency",
            Problem::Rank => "rank",
        })
    }
}

/// Every `(Problem, Algo)` row [`run`] builds: the paper's Table 1,
/// with continuous sampling answering all three problems. The
/// equivalence suites loop over these.
pub fn rows() -> impl Iterator<Item = (Problem, Algo)> {
    [Problem::Count, Problem::Frequency, Problem::Rank]
        .into_iter()
        .flat_map(|p| [Algo::Randomized, Algo::Deterministic, Algo::Sampling].map(|a| (p, a)))
}

/// Outcome of one [`run`]: what the executor observed after the final
/// quiesce ([`Run::stats`], [`Run::internal`], [`Run::peaks`],
/// [`Run::faults`], [`Run::answers`]) and the scores derived from it.
#[derive(Debug, Clone)]
pub struct Run {
    /// The problem's error metric: the maximum of `errs`.
    pub err: f64,
    /// Error per probe, in probe order — one entry for count, the 25
    /// frequency probes hottest first (so `errs[0]` is the per-query
    /// error on the hottest item, the quantity the paper's per-instant
    /// 0.9 guarantee of Theorem 3.1 speaks about; `err`, a maximum over
    /// a union of probes, is necessarily worse), the deciles for rank.
    pub errs: Vec<f64>,
    /// Internal boundaries, one per aggregator level (empty without
    /// `+tree`, and at depth 1): [`dtrack_sim::TreeCoord::internal_loads`].
    pub internal: Vec<CommStats>,
    /// The executor's own accounting: the site ↔ coordinator boundary
    /// alone (under `+tree`, the leaf boundary).
    pub stats: CommStats,
    /// Peak resident words per site, from the executor's `SpaceStats`.
    pub peaks: Vec<u64>,
    /// What the fault layer injected and absorbed; `None` when the
    /// scenario has no fault suffix.
    pub faults: Option<FaultStats>,
    /// The estimate at each probe at the end of the stream, before
    /// normalising (`errs` are `|answer − truth|` over `n`, or over
    /// `min(n, W)` under `+window:W`).
    pub answers: Vec<f64>,
    /// Per checkpoint, in order: the elements fed before it, and per
    /// probe the **signed** error `(answer − truth)/norm` against the
    /// exact answer at that cut. The last checkpoint is the end of the
    /// stream, so `errs` are its absolute values.
    pub signed: Vec<(u64, Vec<f64>)>,
}

impl Run {
    /// The whole run's traffic: the executor's [`Run::stats`] merged
    /// with every internal boundary — under `+tree`, every link of the
    /// tree, in words and bytes alike.
    pub fn cost(&self) -> CommStats {
        let mut cost = self.stats.clone();
        self.internal.iter().for_each(|l| cost.merge(l));
        cost
    }

    /// The final answers and every checkpoint's errors, bit for bit.
    pub fn answer_bits(&self) -> Vec<u64> {
        let cuts = self.signed.iter().flat_map(|(_, errs)| errs);
        Vec::from_iter(self.answers.iter().chain(cuts).map(|a| a.to_bits()))
    }

    /// Peak resident words over all sites — the paper's space per site.
    pub fn max_space(&self) -> u64 {
        self.peaks.iter().copied().max().unwrap_or(0)
    }

    /// Words crossing the root's own links — the bottleneck metric the
    /// topology exists to shrink. On a flat star (and at depth 1) the
    /// root *is* the coordinator, so the leaf boundary is the root
    /// boundary.
    pub fn root_words(&self) -> u64 {
        self.internal
            .last()
            .map_or(self.stats.total_words(), CommStats::total_words)
    }
}

/// Two runs are equal when the protocol observed the same run: the same
/// accounting, per-site space peaks and internal boundaries, and the
/// same answers and checkpoint errors bit for bit (the cost and the
/// errors derive from these).
/// `faults` is the fault layer's own record and is left out, so a
/// `+dup` run equals its base exactly when every duplicate was dropped
/// before a protocol saw it.
impl PartialEq for Run {
    fn eq(&self, other: &Self) -> bool {
        (&self.stats, &self.peaks, &self.internal) == (&other.stats, &other.peaks, &other.internal)
            && self.answer_bits() == other.answer_bits()
    }
}

/// What one checkpoint asks: the number of elements fed before it, and
/// per probe the query point with its exact answer.
type Cut = (u64, Vec<(u64, f64)>);

/// The standard workload of `problem` up to the last checkpoint of `at`,
/// and per checkpoint `t` its probes' exact answers over the first `t`
/// arrivals — or, under `window: Some(w)`, over their last `w`, which is
/// all `+window` changes on the scoring side (the stream itself is the
/// same, so whole-stream and windowed rows of one table measure the
/// same arrivals).
fn workload(
    problem: Problem,
    k: usize,
    seed: u64,
    window: Option<u64>,
    at: &[u64],
) -> (Vec<(usize, u64)>, Vec<Cut>) {
    let n = *at.last().expect("≥ 1 checkpoint");
    let batch: Vec<(usize, u64)> = match problem {
        Problem::Count => (0..n).map(|t| ((t % k as u64) as usize, t)).collect(),
        Problem::Frequency => Workload::new(
            ZipfItems::new(10_000, 1.1),
            UniformSites::new(k),
            n,
            seed ^ 0xF00D,
        )
        .map(|a| (a.site, a.item))
        .collect(),
        Problem::Rank => {
            let mut items = DistinctSeq::new(seed ^ 0xBEEF);
            let mut assign = RoundRobin::new(k);
            let mut rng = dtrack_sim::rng::rng_from_seed(seed);
            (0..n)
                .map(|_| {
                    let site = assign.next_site(&mut rng);
                    (site, items.next_item(&mut rng))
                })
                .collect()
        }
    };
    let probes = |t: u64| {
        let scored = &batch[window.map_or(0, |w| t.saturating_sub(w)) as usize..t as usize];
        match problem {
            Problem::Count => vec![(0, scored.len() as f64)],
            Problem::Frequency => {
                let mut exact = ExactCounts::new();
                scored.iter().for_each(|&(_, item)| exact.observe(item));
                // The 20 globally hottest zipf items plus 5 absent ones.
                (0..20u64)
                    .chain(2_000_000..2_000_005)
                    .map(|j| (j, exact.frequency(j) as f64))
                    .collect()
            }
            Problem::Rank => {
                let mut exact = ExactRanks::new();
                scored.iter().for_each(|&(_, item)| exact.insert(item));
                (1..10)
                    .map(|d| {
                        let x = exact.quantile(d as f64 / 10.0).expect("non-empty prefix");
                        (x, exact.rank(x) as f64)
                    })
                    .collect()
            }
        }
    };
    let cuts = at.iter().map(|&t| (t, probes(t))).collect();
    (batch, cuts)
}

/// The measured body, generic over the (already shaped) protocol: build
/// the scenario's executor, then per checkpoint feed the batch up to it,
/// quiesce, ask `est` at every probe and score the answers against the
/// exact ones, normalised by the elements scored (`t`, or `min(t, W)`
/// under `+window:W`). The last checkpoint is the end of the stream.
fn drive<P>(
    exec: ExecConfig,
    proto: &P,
    seed: u64,
    mut batch: Vec<(usize, u64)>,
    cuts: Vec<Cut>,
    est: fn(&P::Coord, u64) -> f64,
    loads: fn(&P::Coord) -> Vec<CommStats>,
) -> Run
where
    P: Protocol,
    P::Site: Site<Item = u64>,
{
    let mut ex = exec.mode.build(proto, seed);
    let (mut fed, mut answers, mut internal) = (0, Vec::new(), Vec::new());
    let mut signed: Vec<(u64, Vec<f64>)> = Vec::with_capacity(cuts.len());
    for (t, probes) in cuts {
        let rest = batch.split_off((t - fed) as usize);
        ex.feed_batch(std::mem::replace(&mut batch, rest));
        fed = t;
        ex.quiesce();
        let points: Vec<u64> = probes.iter().map(|&(x, _)| x).collect();
        (answers, internal) =
            ex.query(move |c| (points.iter().map(|&x| est(c, x)).collect(), loads(c)));
        let norm = exec.window.map_or(t, |w| w.min(t)) as f64;
        let errs = answers
            .iter()
            .zip(&probes)
            .map(|(a, (_, truth))| (a - truth) / norm);
        signed.push((t, errs.collect()));
    }
    let space = ex.space();
    let errs: Vec<f64> = signed[signed.len() - 1].1.iter().map(|e| e.abs()).collect();
    Run {
        err: errs.iter().copied().reduce(f64::max).expect("≥ 1 probe"),
        errs,
        internal,
        stats: ex.stats(),
        peaks: (0..ex.k()).map(|site| space.peak(site)).collect(),
        faults: ex.fault_stats().cloned(),
        answers,
        signed,
    }
}

/// Panic message for `+tree` over the one baseline with no
/// [`dtrack_sim::TreeProtocol`] impl (continuous sampling keeps raw
/// samples, not a mergeable digest, so there is nothing to re-stream
/// level over level).
const NO_TREE_SUPPORT: &str = "+tree is not supported for the continuous-sampling baseline: \
     ContinuousSampling has no TreeProtocol impl (its coordinator keeps \
     raw samples, not a mergeable digest) — use the randomized or \
     deterministic protocols, or drop the +tree suffix";

/// The one place a scenario's shape is applied: [`drive`] `$proto` bare,
/// under `+window:W` wrapped in [`Windowed`], under `+tree:F[:D]`
/// wrapped in [`Tree`] (`tree:` marks the protocols that have a
/// `TreeProtocol` impl). Both halves wrap the *protocol*, so they change
/// its type and the dispatch has to be a macro; a shape it cannot honour
/// panics instead of measuring something else — the scenario parser
/// rejects the same shapes, this catches the programmatic route.
macro_rules! drive_shaped {
    (tree: $exec:expr, $proto:expr, $($arg:expr),+) => {
        match $exec.tree {
            Some(spec) if $exec.window.is_none() => drive(
                $exec,
                &Tree::new($proto, spec),
                $($arg),+,
                |c| c.internal_loads().to_vec(),
            ),
            _ => drive_shaped!($exec, $proto, $($arg),+),
        }
    };
    ($exec:expr, $proto:expr, $($arg:expr),+) => {
        match ($exec.tree, $exec.window) {
            (Some(_), Some(_)) => panic!(
                "+tree does not combine with +window yet (a windowed tree \
                 needs per-level epoch alignment): {}",
                $exec
            ),
            (Some(_), None) => panic!("{NO_TREE_SUPPORT}"),
            (None, Some(w)) => drive($exec, &Windowed::new($proto, w), $($arg),+, |_| Vec::new()),
            (None, None) => drive($exec, &$proto, $($arg),+, |_| Vec::new()),
        }
    };
}

/// Run `algo` on `problem`'s standard workload (see [`Problem`]) of `n`
/// elements over `k` sites under the scenario `exec`, and score it: the
/// special case of [`run_checkpoints`] with one checkpoint, at `n`.
pub fn run(
    exec: ExecConfig,
    problem: Problem,
    algo: Algo,
    k: usize,
    eps: f64,
    n: u64,
    seed: u64,
) -> Run {
    run_checkpoints(exec, problem, algo, k, eps, &[n], seed)
}

/// Run `algo` on the first `n` elements of `problem`'s standard workload,
/// `n` the last of `at` (increasing element counts), and score it at
/// every checkpoint in `at`: feed up to it, quiesce, ask, and compare
/// with the exact answers over that prefix ([`Run::signed`]).
///
/// Under `+window:W` the protocol tracks, and is scored on, the last
/// `W` arrivals of each prefix (errors normalized by `min(t, W)`); under
/// `+tree:F[:D]` it is answered at the tree root and [`Run::cost`]
/// includes every internal boundary.
///
/// # Panics
///
/// Panics on `+tree` combined with `+window`, and on `+tree` with
/// [`Algo::Sampling`] (no `TreeProtocol` impl) — shapes the run cannot
/// honour are refused, not silently dropped.
pub fn run_checkpoints(
    exec: ExecConfig,
    problem: Problem,
    algo: Algo,
    k: usize,
    eps: f64,
    at: &[u64],
    seed: u64,
) -> Run {
    let cfg = TrackingConfig::new(k, eps);
    let (batch, cuts) = workload(problem, k, seed, exec.window, at);
    macro_rules! per_algo {
        ($rand:ident, $det:ident, $est:expr) => {
            match algo {
                Algo::Randomized => {
                    drive_shaped!(tree: exec, $rand::new(cfg), seed, batch, cuts, $est)
                }
                Algo::Deterministic => {
                    drive_shaped!(tree: exec, $det::new(cfg), seed, batch, cuts, $est)
                }
                Algo::Sampling => {
                    drive_shaped!(exec, ContinuousSampling::new(cfg), seed, batch, cuts, $est)
                }
            }
        };
    }
    match problem {
        Problem::Count => per_algo!(RandomizedCount, DeterministicCount, |c, _| c.count()),
        Problem::Frequency => {
            per_algo!(RandomizedFrequency, DeterministicFrequency, |c, j| c
                .frequency(j))
        }
        Problem::Rank => per_algo!(RandomizedRank, DeterministicRank, |c, x| c.rank(x)),
    }
}

/// Upper median (`sorted[len / 2]`) of a seed set's samples — the
/// statistic every table cell and baseline cell reports.
pub fn median<T: Ord + Copy>(samples: impl IntoIterator<Item = T>) -> T {
    let mut v: Vec<T> = samples.into_iter().collect();
    v.sort_unstable();
    v[v.len() / 2]
}

/// The median-words run among `run_seed(0..seeds)` — the run a table
/// row prints, so its cost and its error come from one execution.
pub fn median_run(seeds: u64, run_seed: impl Fn(u64) -> Run) -> Run {
    let mut runs: Vec<Run> = (0..seeds).map(run_seed).collect();
    runs.sort_by_key(|r| r.cost().total_words());
    runs.swap_remove(runs.len() / 2)
}

/// Median-boosted randomized count tracking: returns the *maximum*
/// relative error over all `checkpoints` (the all-times guarantee) of a
/// round-robin stream that ends at the last of them.
///
/// # Panics
///
/// Panics on a `+window` or `+tree` scenario: the boosted stack runs flat.
pub fn count_boosted_max_error(
    exec: ExecConfig,
    k: usize,
    eps: f64,
    copies: usize,
    seed: u64,
    checkpoints: &[u64],
) -> f64 {
    assert!(exec.window.is_none() && exec.tree.is_none(), "{exec}");
    let proto = Replicated::new(RandomizedCount::new(TrackingConfig::new(k, eps)), copies);
    let (batch, cuts) = workload(Problem::Count, k, seed, None, checkpoints);
    let r = drive(
        exec,
        &proto,
        seed,
        batch,
        cuts,
        |c, _| c.median_by(CountQuery::count),
        |_| Vec::new(),
    );
    r.signed.iter().map(|(_, e)| e[0].abs()).fold(0.0, f64::max)
}

/// Number of rare probe items in the [`windowed_frequency_bias`]
/// workload (items `1..=WINDOWED_BIAS_DOMAIN`, each `w / (2 · domain)`
/// times in any window of `w` arrivals).
pub const WINDOWED_BIAS_DOMAIN: u64 = 16;

/// The windowed-bias workload: element `t` is the hot item 0 on even
/// positions (keeps the coarse count growing so `p` falls into the
/// sampling regime within each epoch) and cycles the rare items
/// `1..=WINDOWED_BIAS_DOMAIN` on odd positions — so every rare item
/// occurs exactly `w / (2 · domain)` times in any aligned window of `w`
/// arrivals, putting its per-site per-epoch count in the counter-miss
/// regime where the eq. (2)/eq. (4) difference is largest.
pub fn windowed_bias_item(t: u64) -> u64 {
    if t.is_multiple_of(2) {
        0
    } else {
        1 + (t / 2) % WINDOWED_BIAS_DOMAIN
    }
}

/// Mean **signed** rare-item windowed frequency error, in elements per
/// item — the windowed bias harness. Runs `Windowed<RandomizedFrequency>`
/// over the [`windowed_bias_item`] workload under the `+window:W`
/// scenario `exec` and averages `f̂_W(j) − f_W(j)` over all rare probes
/// and `seeds` seeds (signed, so unbiased noise cancels and only
/// systematic bias survives — the same ablation discipline as
/// `exp_ablation`'s whole-stream arm 2).
///
/// `corrected` selects the real protocol (epoch digests carry the
/// per-item `−d/p` correction terms) or the
/// [`dtrack_core::frequency::UncorrectedFrequency`] ablation arm (digests
/// flattened to the tracked table — no correction terms at all).
/// Corrected digests center the mean at 0 within the window machinery's
/// heartbeat slack (`granularity/2` elements, pro-rated by the item's
/// rate); uncorrected digests sit measurably above it.
///
/// # Panics
///
/// Panics unless `exec` carries a window, and — like [`run`] — on a
/// `+tree` scenario.
pub fn windowed_frequency_bias(
    exec: ExecConfig,
    corrected: bool,
    k: usize,
    eps: f64,
    n: u64,
    seeds: u64,
) -> f64 {
    let w = exec.window.expect("the windowed bias needs +window:W");
    let proto = RandomizedFrequency::new(TrackingConfig::new(k, eps));
    let domain = WINDOWED_BIAS_DOMAIN;
    let truth = w as f64 / (2 * domain) as f64;
    let batch: Vec<(usize, u64)> = (0..n)
        .map(|t| ((t % k as u64) as usize, windowed_bias_item(t)))
        .collect();
    let rare: Vec<Cut> = vec![(n, (1..=domain).map(|j| (j, truth)).collect())];
    let mut signed = 0.0;
    for seed in 0..seeds {
        let (batch, rare) = (batch.clone(), rare.clone());
        let driven = if corrected {
            drive_shaped!(exec, proto, seed, batch, rare, |c, j| c.frequency(j))
        } else {
            let proto = proto.ablation_uncorrected_digests();
            drive_shaped!(exec, proto, seed, batch, rare, |c, j| c.frequency(j))
        };
        for est in driven.answers {
            signed += est - truth;
        }
    }
    signed / (seeds * domain) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrack_sim::{DeliveryPolicy, TreeSpec};

    const EXECS: [ExecConfig; 3] = [
        ExecConfig::lockstep(),
        ExecConfig::event(DeliveryPolicy::Instant),
        ExecConfig::channel(),
    ];

    const ALGOS: [Algo; 3] = [Algo::Randomized, Algo::Deterministic, Algo::Sampling];

    #[test]
    fn count_runs_all_algos_on_all_executors() {
        for exec in EXECS {
            for algo in ALGOS {
                let r = run(exec, Problem::Count, algo, 4, 0.2, 20_000, 1);
                let cs = r.cost();
                assert!(cs.total_msgs() > 0);
                assert!(cs.total_words() >= cs.total_msgs());
                // The wire codec never does worse than a tag byte plus a
                // maximal 10-byte varint per word.
                assert!(
                    cs.total_bytes() > 0 && cs.total_bytes() <= 11 * cs.total_words(),
                    "{exec:?} {algo:?}"
                );
                assert!(r.err < 0.5, "{exec:?} {algo:?} err {}", r.err);
            }
        }
    }

    #[test]
    fn frequency_runs_all_algos() {
        for algo in ALGOS {
            let r = run(
                ExecConfig::lockstep(),
                Problem::Frequency,
                algo,
                4,
                0.2,
                20_000,
                2,
            );
            assert!(r.cost().total_msgs() > 0);
            assert!(r.err < 0.5, "{algo:?} err {}", r.err);
        }
    }

    #[test]
    fn rank_runs_all_algos() {
        for algo in ALGOS {
            let r = run(
                ExecConfig::lockstep(),
                Problem::Rank,
                algo,
                4,
                0.2,
                20_000,
                3,
            );
            assert!(r.cost().total_msgs() > 0);
            assert!(r.err < 0.5, "{algo:?} err {}", r.err);
        }
    }

    #[test]
    fn windowed_count_runs_on_all_executors() {
        for exec in EXECS {
            let exec = exec.windowed(4_096);
            // The channel leg is thread-timed (which heartbeat range a
            // bucket's contents land in depends on the interleaving), so
            // a single seed under CPU contention is a coin with a thin
            // bad edge: judge it on the median of 5 seeds. The lock-step
            // and event legs are deterministic — one seed is the test.
            let seeds = if exec.mode == dtrack_sim::ExecMode::Channel {
                1..6
            } else {
                1..2
            };
            let mut errs: Vec<f64> = seeds
                .map(|seed| {
                    let r = run(exec, Problem::Count, Algo::Randomized, 4, 0.1, 20_000, seed);
                    assert!(r.cost().total_msgs() > 0);
                    r.err
                })
                .collect();
            errs.sort_by(f64::total_cmp);
            let err = errs[errs.len() / 2];
            // All three executors meet the same target now: the channel
            // runtime's fairness mechanisms (out-of-band seal delivery +
            // per-site credit cap) keep bucket contents aligned with
            // their heartbeat ranges — see `dtrack_sim::runtime`.
            assert!(err.is_finite() && err < 0.5, "{exec} err {err}");
        }
    }

    #[test]
    fn windowed_frequency_and_rank_score_against_window_truth() {
        let exec = ExecConfig::lockstep().windowed(8_192);
        let f = run(
            exec,
            Problem::Frequency,
            Algo::Randomized,
            4,
            0.1,
            30_000,
            2,
        );
        assert!(f.cost().total_msgs() > 0);
        assert!(f.err < 0.25, "freq err {}", f.err);
        let r = run(exec, Problem::Rank, Algo::Deterministic, 4, 0.1, 30_000, 3);
        assert!(r.cost().total_msgs() > 0);
        assert!(r.err < 0.25, "rank err {}", r.err);
    }

    #[test]
    fn delayed_event_executor_still_tracks_after_quiesce() {
        // A fixed 64-tick latency delays every message by 64 elements —
        // the protocol's view lags, but after quiesce the estimate must
        // still be in the right ballpark (count conservation of ups).
        let exec = ExecConfig::event(DeliveryPolicy::FixedLatency(64));
        let r = run(exec, Problem::Count, Algo::Randomized, 8, 0.1, 40_000, 5);
        assert!(r.cost().total_msgs() > 0);
        assert!(r.err < 0.5, "err {}", r.err);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow in debug; runs in release CI")]
    fn boosted_error_is_small_at_all_checkpoints() {
        let checkpoints: Vec<u64> = (1..20).map(|i| i * 1000).collect();
        let worst = count_boosted_max_error(ExecConfig::lockstep(), 8, 0.15, 7, 11, &checkpoints);
        assert!(worst <= 0.15, "worst {worst}");
    }

    #[test]
    fn trace_has_checkpoint_arity() {
        let cps = [100, 1000, 5000];
        let (flat, count) = (ExecConfig::lockstep(), Problem::Count);
        let r = run_checkpoints(flat, count, Algo::Randomized, 4, 0.2, &cps, 5);
        let at: Vec<u64> = r.signed.iter().map(|&(t, _)| t).collect();
        assert_eq!(at, cps);
        assert_eq!(
            r.errs,
            [r.signed[2].1[0].abs()],
            "the last cut is the end of the stream"
        );
    }

    // The fold's own proof. `run` replaced nine per-cell functions
    // (`count_run` / `frequency_run` / `rank_run`, their `windowed_*`
    // and `tree_*` twins) and `frequency_single_probe_error`; the values
    // below were recorded from those functions at the parent commit, on
    // the lock-step executor at (k, ε, n, seed) = PIN_AT, window
    // PIN_WINDOW, tree `+tree:2:2`. The six tree rows' bytes were
    // re-recorded when internal tree links started to be charged in
    // bytes: each is the old leaf-link value plus the internal links'.
    // The nine window rows' bytes, and the three frequency window rows'
    // err, were re-recorded when a seal ack started to carry its site's
    // consumed count (a varint position, not an epoch index) and buckets
    // started to close at the summed counts; msgs and words are the
    // parent's. The three rank/Deterministic rows were re-recorded when
    // that protocol stopped re-shipping each site's whole GK summary and
    // started shipping each element once, in ε-quantised delta batches
    // (words 185 077 → 11 712 flat, 109 296 → 46 500 windowed,
    // 819 276 → 36 553 in the tree; the flat and tree errors are new
    // values inside ε). The rank/Randomized flat and tree rows were
    // re-recorded when that protocol's constants were calibrated to
    // Theorem 4.1's 0.9 (words 7 470 → 5 646 flat, 30 206 → 20 325 in
    // the tree; errors 0.0227 → 0.0343 and 0.0121 → 0.0253, inside ε);
    // its windowed row did not move: each epoch instance tracks
    // W/32 = 64 elements, where the sampling rate is 1 and every node
    // summary is exact at either pair of constants. When words came to
    // be counted by the codec, the six rank rows' bytes fell (a batch
    // stopped sending its count, which the tuple weights sum to, and a
    // KLL summary its element count, which nothing read) and the
    // frequency/Randomized window row's words fell 38 760 → 37 905 (a
    // wrapped `VirtualSplit` costs its epoch tag alone); msgs, err and
    // every other cell are the parent's.
    const PIN_AT: (usize, f64, u64, u64) = (4, 0.1, 6_000, 7);
    const PIN_WINDOW: u64 = 2_048;

    #[derive(Debug, Clone, Copy)]
    enum Shape {
        Flat,
        Window,
        Tree,
    }
    use Shape::{Flat, Tree as InTree, Window};

    fn pinned(shape: Shape) -> ExecConfig {
        let flat = ExecConfig::lockstep();
        match shape {
            Flat => flat,
            Window => flat.windowed(PIN_WINDOW),
            InTree => flat.with_tree(TreeSpec::new(2).with_depth(2)),
        }
    }

    /// `(problem, algo, shape, msgs, words, bytes, err.to_bits())`.
    #[rustfmt::skip]
    const PINS: [(Problem, Algo, Shape, u64, u64, u64, u64); 24] = [
        (Problem::Count, Algo::Randomized, Flat, 395, 395, 901, 0x3fa72015d867c3ed),
        (Problem::Frequency, Algo::Randomized, Flat, 639, 658, 1416, 0x3fb70a3d70a3d70a),
        (Problem::Rank, Algo::Randomized, Flat, 1027, 5646, 32628, 0x3fa194237fa89e56),
        (Problem::Count, Algo::Deterministic, Flat, 232, 232, 332, 0x3facac083126e979),
        (Problem::Frequency, Algo::Deterministic, Flat, 1132, 2172, 3616, 0x3f996de8ca11bfd4),
        (Problem::Rank, Algo::Deterministic, Flat, 720, 11712, 40232, 0x3fa078263ab596df),
        (Problem::Count, Algo::Sampling, Flat, 2003, 3994, 5857, 0x3f9f671529a485cd),
        (Problem::Frequency, Algo::Sampling, Flat, 2004, 3996, 4683, 0x3f826e978d4fdf3b),
        (Problem::Rank, Algo::Sampling, Flat, 2003, 3994, 20879, 0x3facac083126e979),
        (Problem::Count, Algo::Randomized, Window, 12189, 22886, 42740, 0x3f8ff00000000000),
        (Problem::Frequency, Algo::Randomized, Window, 20018, 37905, 77649, 0x3f72187a63f3c2d0),
        (Problem::Rank, Algo::Randomized, Window, 23996, 103460, 351904, 0x3f79800000000000),
        (Problem::Count, Algo::Deterministic, Window, 6372, 11252, 17220, 0x3fac800000000000),
        (Problem::Frequency, Algo::Deterministic, Window, 11451, 27410, 48176, 0x3f6521a8496f2be0),
        (Problem::Rank, Algo::Deterministic, Window, 11996, 46500, 116945, 0x3f79800000000000),
        (Problem::Count, Algo::Sampling, Window, 7492, 19492, 32452, 0x3f80000000000000),
        (Problem::Frequency, Algo::Sampling, Window, 7492, 19492, 28592, 0x3f6521a8496f2be0),
        (Problem::Rank, Algo::Sampling, Window, 7492, 19492, 77557, 0x3f79800000000000),
        (Problem::Count, Algo::Randomized, InTree, 877, 877, 2094, 0x3f90624dd2f1a9fc),
        (Problem::Frequency, Algo::Randomized, InTree, 2213, 2488, 5357, 0x3fbf0fb38a94d243),
        (Problem::Rank, Algo::Randomized, InTree, 3526, 20325, 114975, 0x3f99e3c646397acb),
        (Problem::Count, Algo::Deterministic, InTree, 628, 628, 950, 0x3f9999999999999a),
        (Problem::Frequency, Algo::Deterministic, InTree, 3283, 6430, 10881, 0x3f8e098ead65b7a3),
        (Problem::Rank, Algo::Deterministic, InTree, 1867, 36553, 126779, 0x3f9194237fa89e61),
    ];

    #[test]
    fn run_is_bit_identical_to_the_per_cell_functions_it_replaced() {
        let (k, eps, n, seed) = PIN_AT;
        for (problem, algo, shape, msgs, words, bytes, err_bits) in PINS {
            let r = run(pinned(shape), problem, algo, k, eps, n, seed);
            let cs = r.cost();
            assert_eq!(
                (
                    cs.total_msgs(),
                    cs.total_words(),
                    cs.total_bytes(),
                    r.err.to_bits()
                ),
                (msgs, words, bytes, err_bits),
                "{problem}/{algo:?} {shape:?}: err {}",
                r.err
            );
        }
        // Every (problem, algo, shape) the run can honour is pinned: the
        // full 3 × 3 × 3 grid minus sampling under +tree.
        assert_eq!(PINS.len(), 3 * 3 * 3 - 3);
    }

    #[test]
    fn first_probe_error_is_the_single_probe_error_it_replaced() {
        // `frequency_single_probe_error` at the parent, same parameters.
        let (k, eps, n, seed) = PIN_AT;
        let pins = [
            (Algo::Randomized, Flat, 0x3fb70a3d70a3d70a_u64),
            (Algo::Deterministic, Flat, 0x3f996de8ca11bfd4),
            (Algo::Sampling, Flat, 0x3f60624dd2f1a9fc),
            (Algo::Randomized, InTree, 0x3fb5e353f7ced917),
            (Algo::Deterministic, InTree, 0x3f84d242e6bdc805),
        ];
        for (algo, shape, bits) in pins {
            let r = run(pinned(shape), Problem::Frequency, algo, k, eps, n, seed);
            assert_eq!(r.errs.len(), 25, "20 hot + 5 absent probes");
            assert_eq!(r.errs[0].to_bits(), bits, "{algo:?} {shape:?}");
            assert!(r.errs.iter().all(|&e| e <= r.err), "err is the max probe");
        }
    }

    #[test]
    fn tree_runs_break_cost_down_by_boundary() {
        // `tree_count_run`'s breakdown at the parent, same parameters.
        let (k, eps, n, seed) = PIN_AT;
        let r = run(
            pinned(InTree),
            Problem::Count,
            Algo::Randomized,
            k,
            eps,
            n,
            seed,
        );
        assert_eq!(
            (r.stats.total_words(), r.root_words(), r.internal.len()),
            (553, 324, 1)
        );
        let (cost, root) = (r.cost(), &r.internal[0]);
        assert_eq!(
            cost.total_words(),
            r.stats.total_words() + root.total_words()
        );
        // Internal links are charged like leaf links: in bytes too, and
        // the root's broadcast to its 2 aggregators `2 ×`.
        assert_eq!(
            cost.total_bytes(),
            r.stats.total_bytes() + root.total_bytes()
        );
        assert!(root.total_bytes() > 0);
        assert!(root.broadcast_events > 0);
        assert_eq!(root.down_msgs, 2 * root.broadcast_events);
        let flat = run(
            pinned(Flat),
            Problem::Count,
            Algo::Randomized,
            k,
            eps,
            n,
            seed,
        );
        assert!(flat.internal.is_empty());
        assert_eq!(
            flat.root_words(),
            flat.cost().total_words(),
            "a flat root sees every word"
        );
    }

    #[test]
    #[should_panic(expected = "+tree does not combine with +window")]
    fn tree_with_window_is_refused_not_run_flat() {
        // Constructible programmatically (only the string parser rejects
        // it); the parent ran a *flat* windowed protocol here.
        let exec = pinned(InTree).windowed(PIN_WINDOW);
        let _ = run(exec, Problem::Count, Algo::Randomized, 4, 0.1, 1_000, 1);
    }

    #[test]
    #[should_panic(expected = "+tree does not combine with +window")]
    fn windowed_bias_refuses_a_tree_scenario() {
        let exec = pinned(InTree).windowed(512);
        let _ = windowed_frequency_bias(exec, true, 4, 0.1, 1_000, 1);
    }

    #[test]
    fn checkpoint_and_bias_harnesses_match_the_parent_bit_for_bit() {
        // Recorded from the parent's `windowed_frequency_bias`,
        // `count_error_trace` (the checkpoint loop over each count
        // protocol, per-element feeds; now the checkpointed driver's
        // absolute errors) and `count_boosted_max_error`.
        let flat = ExecConfig::lockstep();
        let bias =
            |corrected| windowed_frequency_bias(flat.windowed(2_000), corrected, 8, 0.1, 8_000, 3);
        assert_eq!(bias(true).to_bits(), 0xbfcd097b425ed0ab);
        assert_eq!(bias(false).to_bits(), 0x3ff7555555555550);
        let cps = [100, 1000, 5000];
        let trace = |algo| {
            let r = run_checkpoints(flat, Problem::Count, algo, 4, 0.2, &cps, 5);
            r.signed
                .iter()
                .map(|(_, e)| e[0].abs().to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            trace(Algo::Randomized),
            [
                4589708452245819884,
                4597634787589991956,
                4590212855404085379
            ]
        );
        assert_eq!(
            trace(Algo::Deterministic),
            [
                4593311331947716280,
                4594500282249342091,
                4592907809421103884
            ]
        );
        assert_eq!(
            trace(Algo::Sampling),
            [0, 4582574750436065018, 4583497087639750495]
        );
        let boosted = count_boosted_max_error(flat, 8, 0.15, 5, 11, &cps);
        assert_eq!(boosted.to_bits(), 0x3fa26e978d4fdf3b);
    }
}
