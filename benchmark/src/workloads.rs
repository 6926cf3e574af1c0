//! The six named workloads: what each one runs, at what size, and how
//! its answers are checked. `BENCHMARK.json` and `README.md` carry the
//! one-line reasons; [`WORKLOADS`] is the list the tests hold them to.

use std::sync::Arc;

use dtrack_core::count::{DeterministicCount, RandomizedCount};
use dtrack_core::frequency::{DeterministicFrequency, RandomizedFrequency};
use dtrack_core::rank::{DeterministicRank, RandomizedRank};
use dtrack_core::sampling::ContinuousSampling;
use dtrack_core::TrackingConfig;

use crate::channel::{channel_pass, Feed, Job};
use crate::lockstep::runner_pass;
use crate::meter::now_ns;
use crate::pass::Pass;
use crate::proto::{Answer, Checks, Oracle, Stream, Tracked};
use crate::socket::tcp_pass;
use crate::trace::{Lane, Recorder};

/// Workload names, in the order every table prints them.
pub const WORKLOADS: [&str; 6] = [
    "lockstep_count_freq",
    "lockstep_rank",
    "channel_batch",
    "channel_feed",
    "channel_query",
    "socket_loopback",
];

/// Error target of every workload.
pub const EPS: f64 = 0.01;

/// Checkpoints per protocol on the lock-step workloads.
const CHECKPOINTS: u64 = 256;

type RunFn = Box<dyn Fn(&mut Recorder) -> (Pass, Vec<Lane>)>;

/// One protocol × stream × executor inside a workload.
pub struct Leg {
    /// Protocol name (`count_rand`, …).
    pub name: &'static str,
    pub stream: Arc<Stream>,
    /// Run the leg once; site-thread span lanes come back beside the pass.
    run: RunFn,
    /// The same protocol and stream on the lock-step `Runner` with one
    /// checkpoint: the exact-words reference of a thread-timed leg.
    reference: Box<dyn Fn() -> Pass>,
    score: fn(&mut Checks, f64, &Oracle, &[Answer], bool),
    /// A lock-step leg's own pass is exact: its accounting is the
    /// reference and its answers must repeat bit for bit.
    pub exact: bool,
    /// The final answer must equal the reference's bit for bit (one-way
    /// deterministic count is insensitive to cross-site interleaving).
    bit_identical: bool,
}

impl Leg {
    /// A leg of protocol `P` over `stream`; `run` is the executor.
    fn new<P: Tracked>(k: usize, stream: &Arc<Stream>, seed: u64, run: RunFn) -> Self {
        let cfg = TrackingConfig::new(k, EPS);
        let s = Arc::clone(stream);
        Self {
            name: P::NAME,
            stream: Arc::clone(stream),
            run,
            reference: Box::new(move || runner_pass::<P>(cfg, &s, 1, seed, &mut Recorder::off())),
            score: Checks::score::<P>,
            exact: false,
            bit_identical: false,
        }
    }

    fn lockstep<P: Tracked>(k: usize, stream: &Arc<Stream>, seed: u64) -> Self {
        let cfg = TrackingConfig::new(k, EPS);
        let s = Arc::clone(stream);
        let run: RunFn = Box::new(move |rec| {
            (
                runner_pass::<P>(cfg, &s, CHECKPOINTS, seed, rec),
                Vec::new(),
            )
        });
        Self {
            exact: true,
            ..Self::new::<P>(k, stream, seed, run)
        }
    }

    fn channel<P: Tracked>(k: usize, stream: &Arc<Stream>, job: Job, seed: u64) -> Self {
        let cfg = TrackingConfig::new(k, EPS);
        let s = Arc::clone(stream);
        let run: RunFn =
            Box::new(move |rec| (channel_pass::<P>(cfg, &s, job, seed, rec), Vec::new()));
        Self::new::<P>(k, stream, seed, run)
    }

    fn socket<P: Tracked>(k: usize, stream: &Arc<Stream>, seed: u64, bit_identical: bool) -> Self {
        let cfg = TrackingConfig::new(k, EPS);
        let s = Arc::clone(stream);
        let run: RunFn = Box::new(move |rec| match tcp_pass::<P>(cfg, &s, seed, rec) {
            Ok((pass, times)) => (pass, times.site_spans),
            Err(e) => (
                Pass {
                    faults: vec![format!("loopback links: {e}")],
                    ..Pass::default()
                },
                Vec::new(),
            ),
        });
        Self {
            bit_identical,
            ..Self::new::<P>(k, stream, seed, run)
        }
    }

    pub fn run(&self, rec: &mut Recorder) -> (Pass, Vec<Lane>) {
        (self.run)(rec)
    }
}

/// A built workload: generated inputs plus the legs that consume them.
pub struct Workload {
    pub legs: Vec<Leg>,
    /// Time spent generating the input streams.
    pub gen_ns: u64,
}

/// Generate workload `name`'s inputs from `seed` and line up its legs.
/// `shift` divides every size by `2^shift` (`--quick` uses 4).
pub fn build(name: &str, seed: u64, shift: u32) -> Option<Workload> {
    let t0 = now_ns();
    let n = |log2: u32| 1u64 << (log2 - shift);
    let chunk = 1usize << 20;
    let legs = match name {
        // Cheap-per-element protocols, no transport: 2^24 arrivals per
        // count protocol (one 2^20-arrival uniform-site chunk cycled),
        // 2^23 Zipf arrivals per frequency protocol.
        "lockstep_count_freq" => {
            let counts = Arc::new(Stream::count(64, chunk, n(24), seed));
            let zipf = Arc::new(Stream::zipf(64, chunk, n(23), seed));
            vec![
                Leg::lockstep::<RandomizedCount>(64, &counts, seed),
                Leg::lockstep::<DeterministicCount>(64, &counts, seed),
                Leg::lockstep::<ContinuousSampling>(64, &counts, seed),
                Leg::lockstep::<RandomizedFrequency>(64, &zipf, seed),
                Leg::lockstep::<DeterministicFrequency>(64, &zipf, seed),
            ]
        }
        // Summary-heavy protocols on distinct items.
        "lockstep_rank" => {
            let big = Arc::new(Stream::distinct(64, n(20), seed));
            let small = Arc::new(Stream::distinct(64, n(16), seed));
            vec![
                Leg::lockstep::<RandomizedRank>(64, &big, seed),
                Leg::lockstep::<DeterministicRank>(64, &small, seed),
            ]
        }
        // Bulk ingest: `feed_batch` in 2^16-arrival slices, no query
        // handle (so no snapshot is ever published), a quiesced probe
        // every 2^20 arrivals.
        "channel_batch" => {
            let s = Arc::new(Stream::count(8, chunk, n(24), seed));
            let job = Job {
                feed: Feed::Batch(1 << 16),
                probe_every: n(20).max(1 << 16),
                reader: false,
                sample_reads: false,
            };
            vec![Leg::channel::<RandomizedCount>(8, &s, job, seed)]
        }
        // The same layers one push and one wake per element, probed
        // every 2^16 arrivals.
        "channel_feed" => {
            let s = Arc::new(Stream::count(8, chunk, n(22), seed));
            let job = Job {
                feed: Feed::PerElement,
                probe_every: n(16).max(1 << 12),
                reader: false,
                sample_reads: false,
            };
            vec![Leg::channel::<RandomizedCount>(8, &s, job, seed)]
        }
        // Reads beside writes: a non-trivial coordinator is cloned into
        // the snapshot cell while one reader hammers its handle.
        "channel_query" => {
            let s = Arc::new(Stream::zipf(8, chunk, 3 * n(22), seed));
            let job = Job {
                feed: Feed::Batch(1 << 16),
                probe_every: n(20).max(1 << 16),
                reader: true,
                sample_reads: false,
            };
            vec![Leg::channel::<RandomizedFrequency>(8, &s, job, seed)]
        }
        // Two sites over 127.0.0.1: phase A the smallest messages
        // (3·2^21 arrivals per site and protocol), phase B the largest
        // frames (2^20 distinct items per site).
        "socket_loopback" => {
            let counts = Arc::new(Stream::count(2, chunk, n(24), seed));
            let ranks = Arc::new(Stream::distinct(2, n(20), seed));
            vec![
                Leg::socket::<RandomizedCount>(2, &counts, seed, false),
                Leg::socket::<DeterministicCount>(2, &counts, seed, true),
                Leg::socket::<DeterministicRank>(2, &ranks, seed, false),
            ]
        }
        _ => return None,
    };
    Some(Workload {
        legs,
        gen_ns: now_ns() - t0,
    })
}

/// One repetition: every leg once, in order.
pub struct Rep {
    pub passes: Vec<Pass>,
    /// Site-thread span lanes of the socket legs.
    pub site_spans: Vec<Lane>,
}

impl Rep {
    pub fn elements(&self) -> u64 {
        self.passes.iter().map(|p| p.elements).sum()
    }
    pub fn wall_ns(&self) -> u64 {
        self.passes.iter().map(|p| p.wall_ns).sum()
    }
    pub fn cpu_ns(&self) -> u64 {
        self.passes.iter().map(|p| p.cpu_ns).sum()
    }
    pub fn build_ns(&self) -> u64 {
        self.passes.iter().map(|p| p.build_ns).sum()
    }
}

impl Workload {
    pub fn rep(&self, rec: &mut Recorder) -> Rep {
        let mut rep = Rep {
            passes: Vec::with_capacity(self.legs.len()),
            site_spans: Vec::new(),
        };
        for leg in &self.legs {
            let (pass, spans) = leg.run(rec);
            rep.passes.push(pass);
            rep.site_spans.extend(spans);
        }
        rep
    }

    /// Score every repetition and take the exact-words reference.
    /// Lock-step legs are exact: their answers are scored once and must
    /// repeat bit for bit; their own accounting is the reference.
    /// Thread-timed legs are scored on every repetition, and their
    /// reference is one extra lock-step pass over the same stream.
    pub fn verify(&self, reps: &[Rep]) -> Verdict {
        let mut v = Verdict::default();
        for (i, leg) in self.legs.iter().enumerate() {
            let oracle = Oracle::build(&leg.stream);
            let first = &reps[0].passes[i];
            let reference = if leg.exact {
                first.clone()
            } else {
                (leg.reference)()
            };
            v.reference_words += reference.stats.total_words();
            v.reference_bytes += reference.stats.total_bytes();
            v.reference_elements += reference.stats.elements;
            for (r, rep) in reps.iter().enumerate() {
                let pass = &rep.passes[i];
                for fault in &pass.faults {
                    v.checks.check(false, || format!("{}: {fault}", leg.name));
                }
                v.checks.check(pass.elements == leg.stream.n(), || {
                    format!(
                        "{}: {} of {} elements",
                        leg.name,
                        pass.elements,
                        leg.stream.n()
                    )
                });
                if leg.exact && r > 0 {
                    v.checks.check(
                        pass.answers == first.answers && pass.stats == first.stats,
                        || {
                            format!(
                                "{}: repetition {r} differs from repetition 0 on the same seed",
                                leg.name
                            )
                        },
                    );
                    continue;
                }
                (leg.score)(&mut v.checks, EPS, &oracle, &pass.answers, !leg.exact);
                if leg.bit_identical {
                    let want = reference.answers.last().map(|a| a.est.to_bits());
                    let got = pass.answers.first().map(|a| a.est.to_bits());
                    v.checks.check(want == got && want.is_some(), || {
                        format!("{}: answer is not bit-identical to the Runner's", leg.name)
                    });
                }
            }
        }
        v
    }
}

/// Outcome of [`Workload::verify`].
#[derive(Debug, Default)]
pub struct Verdict {
    pub checks: Checks,
    /// Words / bytes / elements of the workload's job under the
    /// lock-step schedule, summed over legs — exact given the seed.
    pub reference_words: u64,
    pub reference_bytes: u64,
    pub reference_elements: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_builds_runs_and_verifies_at_small_scale() {
        for name in WORKLOADS {
            let w = build(name, 1, 7).unwrap_or_else(|| panic!("{name} does not build"));
            let reps = [w.rep(&mut Recorder::off()), w.rep(&mut Recorder::on(0))];
            let v = w.verify(&reps);
            assert!(v.checks.attempted > 0, "{name}");
            assert_eq!(v.checks.failed, 0, "{name}: {:?}", v.checks.notes);
            assert!(v.reference_words > 0 && v.reference_bytes > 0, "{name}");
            assert!(
                reps[0].passes.iter().all(|p| !p.answers.is_empty()),
                "{name}"
            );
            assert!(reps[0].elements() > 0, "{name}");
        }
        assert!(build("nope", 1, 0).is_none());
    }
}
