//! One protocol over one stream on the thread-per-site `ChannelRuntime`:
//! the pass behind the three `channel_*` workloads and the `runtime.*`
//! / `snapshot.*` in-flight layer cells.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dtrack_core::TrackingConfig;
use dtrack_sim::runtime::ChannelRuntime;

use crate::meter::{cpu_ns, now_ns};
use crate::pass::Pass;
use crate::proto::{Answer, Stream, Tracked};
use crate::trace::Recorder;

/// How the feeder thread hands arrivals to the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// `feed_batch` in slices of this many arrivals.
    Batch(usize),
    /// One `feed` call per arrival.
    PerElement,
}

/// Shape of a channel pass.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub feed: Feed,
    /// Stop feeding, `quiesce()`, `query` and score every this many
    /// arrivals (and at the end of the stream).
    pub probe_every: u64,
    /// Run one reader thread on a `QueryHandle` in a closed loop beside
    /// the feeder. Without it no handle is installed, so the runtime
    /// publishes no snapshots.
    pub reader: bool,
    /// Time one in 64 of the reader's reads (layer panel only).
    pub sample_reads: bool,
}

/// What the reader thread hands back.
struct ReaderOut {
    reads: u64,
    epochs: u64,
    read_ns: Vec<u64>,
    faults: Vec<String>,
}

fn spawn_reader<P: Tracked>(
    handle: dtrack_sim::QueryHandle<P::Coord>,
    probe: u64,
    sample: bool,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<ReaderOut> {
    std::thread::spawn(move || {
        let mut out = ReaderOut {
            reads: 0,
            epochs: 0,
            read_ns: Vec::new(),
            faults: Vec::new(),
        };
        let mut bad = 0u64;
        while !stop.load(Ordering::Relaxed) {
            let timed = sample && out.reads.is_multiple_of(64);
            let t = if timed { now_ns() } else { 0 };
            let (epoch, est) = handle.read(|s| (s.epoch, P::answer(&s.state, probe)));
            if timed {
                out.read_ns.push(now_ns() - t);
            }
            if !est.is_finite() || epoch < out.epochs {
                bad += 1;
            }
            out.epochs = epoch;
            out.reads += 1;
        }
        if bad > 0 {
            out.faults.push(format!(
                "reader saw {bad} non-finite answers or backward epochs"
            ));
        }
        out
    })
}

/// Feed `stream` through a fresh `ChannelRuntime` from one feeder thread
/// (this one). The timed region runs from the first feed call to the
/// final probe's answer; building and shutting down are timed apart.
pub fn channel_pass<P: Tracked>(
    cfg: TrackingConfig,
    stream: &Stream,
    job: Job,
    seed: u64,
    rec: &mut Recorder,
) -> Pass {
    let proto = P::make(cfg);
    let slice = match job.feed {
        Feed::Batch(s) => s.min(stream.chunk.len()),
        Feed::PerElement => (job.probe_every as usize).min(stream.chunk.len()),
    };
    assert!(
        stream.chunk.len().is_multiple_of(slice) && job.probe_every.is_multiple_of(slice as u64),
        "probe spacing {} does not tile {slice}-arrival slices",
        job.probe_every
    );
    let mut pass = Pass::default();

    let open = rec.enter("exec.build");
    let t_build = now_ns();
    let mut ex = ChannelRuntime::new(&proto, seed);
    let stop = Arc::new(AtomicBool::new(false));
    let reader = job.reader.then(|| {
        spawn_reader::<P>(
            ex.query_handle(),
            stream.probes[0],
            job.sample_reads,
            Arc::clone(&stop),
        )
    });
    pass.build_ns = now_ns() - t_build;
    rec.exit(open);

    let (t0, cpu0) = (now_ns(), cpu_ns());
    let mut fed = 0u64;
    for _ in 0..stream.cycles {
        for part in stream.chunk.chunks(slice) {
            match job.feed {
                Feed::Batch(_) => {
                    // `feed_batch` takes its batch by value; the copy is
                    // the feeder's cost, outside the feed-call time.
                    let owned = part.to_vec();
                    let open = rec.enter("exec.feed");
                    let t = now_ns();
                    ex.feed_batch(owned);
                    pass.feed_ns += now_ns() - t;
                    rec.exit(open);
                }
                Feed::PerElement => {
                    let open = rec.enter("exec.feed");
                    let t = now_ns();
                    for &(site, item) in part {
                        ex.feed(site, item);
                    }
                    pass.feed_ns += now_ns() - t;
                    rec.exit(open);
                }
            }
            fed += part.len() as u64;
            if fed.is_multiple_of(job.probe_every) || fed == stream.n() {
                let t = now_ns();
                let open = rec.enter("exec.drain");
                pass.quiesce_rounds += u64::from(ex.quiesce());
                rec.exit(open);
                pass.drain_ns = now_ns() - t;
                let open = rec.enter("exec.answer");
                let probes = stream.probes.clone();
                let ests = ex.with_coord(move |c| {
                    probes.iter().map(|&p| P::answer(c, p)).collect::<Vec<_>>()
                });
                rec.exit(open);
                pass.flush_ns.push(now_ns() - t);
                pass.answers
                    .extend(ests.into_iter().enumerate().map(|(i, est)| Answer {
                        probe: i as u8,
                        m: fed,
                        est,
                    }));
            }
        }
    }
    pass.wall_ns = now_ns() - t0;
    pass.cpu_ns = cpu_ns() - cpu0;
    pass.elements = fed;

    stop.store(true, Ordering::Relaxed);
    if let Some(reader) = reader {
        match reader.join() {
            Ok(out) => {
                pass.reads = out.reads;
                pass.epochs = out.epochs;
                pass.read_ns = out.read_ns;
                pass.faults.extend(out.faults);
            }
            Err(_) => pass.faults.push("reader thread panicked".into()),
        }
    }
    let open = rec.enter("exec.shutdown");
    let t = now_ns();
    pass.stats = ex.shutdown();
    pass.shutdown_ns = now_ns() - t;
    rec.exit(open);
    if pass.stats.elements != fed {
        pass.faults.push(format!(
            "runtime counted {} elements, {fed} were fed",
            pass.stats.elements
        ));
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Checks, Oracle};
    use dtrack_core::count::RandomizedCount;
    use dtrack_core::frequency::RandomizedFrequency;

    #[test]
    fn probed_answers_score_clean_on_both_feed_paths() {
        let cfg = TrackingConfig::new(4, 0.05);
        let stream = Stream::count(4, 4096, 1 << 15, 2);
        let oracle = Oracle::build(&stream);
        for feed in [Feed::Batch(1024), Feed::PerElement] {
            let job = Job {
                feed,
                probe_every: 4096,
                reader: false,
                sample_reads: false,
            };
            let pass = channel_pass::<RandomizedCount>(cfg, &stream, job, 7, &mut Recorder::off());
            assert_eq!(pass.elements, 1 << 15);
            assert_eq!(pass.flush_ns.len(), 8);
            assert!(pass.faults.is_empty(), "{:?}", pass.faults);
            let mut checks = Checks::default();
            checks.score::<RandomizedCount>(cfg.epsilon, &oracle, &pass.answers, true);
            assert_eq!(
                (checks.attempted, checks.failed),
                (8, 0),
                "{:?}",
                checks.notes
            );
        }
    }

    #[test]
    fn reader_runs_beside_ingest() {
        let cfg = TrackingConfig::new(4, 0.05);
        let stream = Stream::zipf(4, 4096, 1 << 16, 2);
        let job = Job {
            feed: Feed::Batch(4096),
            probe_every: 1 << 15,
            reader: true,
            sample_reads: true,
        };
        let pass = channel_pass::<RandomizedFrequency>(cfg, &stream, job, 7, &mut Recorder::on(0));
        assert!(pass.reads > 0 && !pass.read_ns.is_empty());
        assert!(pass.faults.is_empty(), "{:?}", pass.faults);
        assert_eq!(pass.answers.len(), 2 * stream.probes.len());
    }
}
