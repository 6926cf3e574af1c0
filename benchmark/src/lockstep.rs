//! Single-threaded passes over a stream: the `Runner` pass the
//! `lockstep_*` workloads time, the benchmark's own lock-step loop with
//! spans around each protocol call (the `core.*` layer cells), and the
//! same stream on `EventRuntime(Instant)`.

use dtrack_core::TrackingConfig;
use dtrack_sim::{CommStats, Coordinator, Dest, EventRuntime, Net, Outbox, Runner, Site, Words};

use crate::meter::{cpu_ns, now_ns};
use crate::pass::Pass;
use crate::proto::{Answer, Stream, Tracked};
use crate::trace::Recorder;

/// Where along a stream the checkpoints fall: every `n / checkpoints`
/// arrivals, fed in slices that never straddle a chunk boundary.
fn slices(stream: &Stream, checkpoints: u64) -> (usize, u64) {
    let step = (stream.n() / checkpoints).max(crate::proto::GRAIN as u64);
    let slice = step.min(stream.chunk.len() as u64) as usize;
    assert!(
        stream.chunk.len().is_multiple_of(slice) && step.is_multiple_of(slice as u64),
        "checkpoint spacing {step} does not tile the {}-arrival chunk",
        stream.chunk.len()
    );
    (slice, step)
}

/// Ask every probe; the first answer's time is the flush sample.
fn read_answers<P: Tracked>(
    coord: &P::Coord,
    stream: &Stream,
    m: u64,
    answers: &mut Vec<Answer>,
    flush_ns: &mut Vec<u64>,
    rec: &mut Recorder,
) {
    let open = rec.enter("exec.answer");
    let t = now_ns();
    for (i, &probe) in stream.probes.iter().enumerate() {
        let est = P::answer(coord, probe);
        if i == 0 {
            flush_ns.push(now_ns() - t);
        }
        answers.push(Answer {
            probe: i as u8,
            m,
            est,
        });
    }
    rec.exit(open);
}

/// Feed `stream` through a `Runner`, reading the estimate from
/// `Runner::coord()` at `checkpoints` evenly spaced points. The wall
/// time covers feeding and reading; scoring happens later.
pub fn runner_pass<P: Tracked>(
    cfg: TrackingConfig,
    stream: &Stream,
    checkpoints: u64,
    seed: u64,
    rec: &mut Recorder,
) -> Pass {
    let proto = P::make(cfg);
    let (slice, step) = slices(stream, checkpoints);
    let mut answers = Vec::with_capacity((checkpoints as usize + 1) * stream.probes.len());
    let mut flush_ns = Vec::with_capacity(checkpoints as usize + 1);

    let open = rec.enter("exec.build");
    let t_build = now_ns();
    let mut runner = Runner::new(&proto, seed);
    let build_ns = now_ns() - t_build;
    rec.exit(open);

    let (t0, cpu0) = (now_ns(), cpu_ns());
    let mut fed = 0u64;
    let mut feed_ns = 0u64;
    for _ in 0..stream.cycles {
        for part in stream.chunk.chunks(slice) {
            let open = rec.enter("exec.feed");
            let t = now_ns();
            runner.feed_batch(part);
            feed_ns += now_ns() - t;
            rec.exit(open);
            fed += part.len() as u64;
            if fed.is_multiple_of(step) {
                read_answers::<P>(
                    runner.coord(),
                    stream,
                    fed,
                    &mut answers,
                    &mut flush_ns,
                    rec,
                );
            }
        }
    }
    Pass {
        elements: fed,
        wall_ns: now_ns() - t0,
        cpu_ns: cpu_ns() - cpu0,
        build_ns,
        feed_ns,
        stats: runner.stats().clone(),
        answers,
        flush_ns,
        ..Pass::default()
    }
}

/// Feed `stream` through `EventRuntime` under instant delivery (pinned
/// bit-identical to `Runner` by the repository's tests). The wall time
/// covers feeding and the final quiesce; one answer is read after it.
pub fn event_pass<P: Tracked>(cfg: TrackingConfig, stream: &Stream, seed: u64) -> Pass {
    let proto = P::make(cfg);
    let t_build = now_ns();
    let mut ex = EventRuntime::new(&proto, seed);
    let build_ns = now_ns() - t_build;
    let t0 = now_ns();
    for _ in 0..stream.cycles {
        for &(site, item) in &stream.chunk {
            ex.feed(site, item);
        }
    }
    ex.quiesce();
    let wall_ns = now_ns() - t0;
    let est = P::answer(ex.coord(), stream.probes[0]);
    Pass {
        elements: stream.n(),
        wall_ns,
        build_ns,
        stats: ex.stats().clone(),
        answers: vec![Answer {
            probe: 0,
            m: stream.n(),
            est,
        }],
        ..Pass::default()
    }
}

/// Span names of the traced lock-step loop. The site step has no span
/// of its own — a clock read per element would cost more than `on_item`
/// — so it is the `RUN` span's self time.
pub mod span {
    pub const RUN: &str = "core.run";
    pub const COORD_STEP: &str = "core.coord_step";
    pub const SITE_DOWN: &str = "core.site_down";
    pub const WIRE_MEASURE: &str = "wire.measure";
}

/// The benchmark's own lock-step loop over `Protocol::build`'s sites and
/// coordinator: the same delivery order and the same accounting as
/// `Runner` (its `CommStats` must come out bit-identical), with a span
/// around every `Coordinator::on_message`, `Words::wire_bytes` and
/// `Site::on_message`.
pub fn harness_pass<P: Tracked>(
    cfg: TrackingConfig,
    stream: &Stream,
    seed: u64,
    rec: &mut Recorder,
) -> Pass {
    let proto = P::make(cfg);
    let t_build = now_ns();
    let (mut sites, mut coord) = proto.build(seed);
    let build_ns = now_ns() - t_build;
    let k = sites.len();
    let mut stats = CommStats::default();
    let mut outbox = Outbox::new();
    let mut net = Net::new();
    let mut ups: Vec<(usize, <P::Site as Site>::Up)> = Vec::new();

    let t0 = now_ns();
    let run = rec.enter(span::RUN);
    for _ in 0..stream.cycles {
        for &(site, ref item) in &stream.chunk {
            stats.elements += 1;
            sites[site].on_item(item, &mut outbox);
            if outbox.is_empty() {
                continue;
            }
            ups.extend(outbox.drain().map(|m| (site, m)));
            while !ups.is_empty() {
                for (from, up) in ups.drain(..) {
                    stats.up_msgs += 1;
                    stats.up_words += up.words();
                    stats.up_bytes += rec.leaf(span::WIRE_MEASURE, || up.wire_bytes());
                    rec.leaf(span::COORD_STEP, || coord.on_message(from, &up, &mut net));
                }
                let downs: Vec<_> = net.drain().collect();
                for (dest, down) in downs {
                    let words = down.words();
                    let bytes = rec.leaf(span::WIRE_MEASURE, || down.wire_bytes());
                    let targets = match dest {
                        Dest::Site(to) => to..to + 1,
                        Dest::Broadcast => {
                            stats.broadcast_events += 1;
                            0..k
                        }
                    };
                    let fanout = targets.len() as u64;
                    stats.down_msgs += fanout;
                    stats.down_words += fanout * words;
                    stats.down_bytes += fanout * bytes;
                    for to in targets {
                        rec.leaf(span::SITE_DOWN, || sites[to].on_message(&down, &mut outbox));
                        ups.extend(outbox.drain().map(|m| (to, m)));
                    }
                }
            }
        }
    }
    rec.exit(run);
    let wall_ns = now_ns() - t0;
    let est = P::answer(&coord, stream.probes[0]);
    Pass {
        elements: stream.n(),
        wall_ns,
        build_ns,
        stats,
        answers: vec![Answer {
            probe: 0,
            m: stream.n(),
            est,
        }],
        ..Pass::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::for_each_protocol;
    use crate::proto::Kind;

    fn stream_for(kind: Kind, seed: u64) -> Stream {
        match kind {
            Kind::Count => Stream::count(8, 4096, 1 << 15, seed),
            Kind::Freq => Stream::zipf(8, 4096, 1 << 15, seed),
            Kind::Rank => Stream::distinct(8, 1 << 13, seed),
        }
    }

    #[test]
    fn harness_loop_matches_runner_for_all_seven_protocols() {
        let cfg = TrackingConfig::new(8, 0.05);
        for_each_protocol!(P => {
            let stream = stream_for(P::KIND, 11);
            let runner = runner_pass::<P>(cfg, &stream, 16, 5, &mut Recorder::off());
            let mut rec = Recorder::on(0);
            let traced = harness_pass::<P>(cfg, &stream, 5, &mut rec);
            assert_eq!(runner.stats, traced.stats, "{}", P::NAME);
            assert_eq!(runner.answers.last().unwrap().m, stream.n());
            let untraced = harness_pass::<P>(cfg, &stream, 5, &mut Recorder::off());
            assert_eq!(untraced.stats, traced.stats, "{}", P::NAME);
            let event = event_pass::<P>(cfg, &stream, 5);
            assert_eq!(event.stats, runner.stats, "{}", P::NAME);
        });
    }
}
