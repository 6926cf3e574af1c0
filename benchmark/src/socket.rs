//! One protocol as `k` `SiteHalf`s and a `CoordHalf` over a pair of link
//! implementations: loopback TCP for the `socket_loopback` workload, the
//! in-process links for the `transport.inproc.*` comparison cell.
//!
//! Each site runs on its own thread and feeds its own sub-stream — the
//! site threads are the load generators — while this thread pumps the
//! coordinator. Loopback, not a real link: no propagation delay, no
//! loss, kernel-copy bandwidth.

use std::io;
use std::net::TcpListener;
use std::sync::{Arc, Barrier};

use dtrack_core::TrackingConfig;
use dtrack_sim::transport::{CoordLink, SiteLink};
use dtrack_sim::{
    in_process_links, CommStats, CoordHalf, Protocol, Site, SiteHalf, TcpCoordLink, TcpSiteLink,
};

use crate::meter::{cpu_ns, now_ns};
use crate::pass::Pass;
use crate::proto::{Answer, Stream, Tracked};
use crate::trace::{Lane, Recorder};

type Up<P> = <<P as Protocol>::Site as Site>::Up;
type Down<P> = <<P as Protocol>::Site as Site>::Down;

/// The TCP link pair of protocol `P`: one link per site, one coordinator link.
type TcpLinks<P> = (
    Vec<TcpSiteLink<Up<P>, Down<P>>>,
    TcpCoordLink<Up<P>, Down<P>>,
);

/// Connect `k` sites to a fresh loopback listener and accept them.
pub fn tcp_links<P: Tracked>(k: usize) -> io::Result<TcpLinks<P>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    // The connects complete against the listen backlog; `accept` then
    // reads each stream's HELLO.
    let sites = (0..k)
        .map(|id| TcpSiteLink::connect(addr, id))
        .collect::<io::Result<Vec<_>>>()?;
    let coord = TcpCoordLink::accept(&listener, k)?;
    Ok((sites, coord))
}

/// What a site thread hands back.
struct SiteOut {
    stats: CommStats,
    feed_ns: u64,
    fed_at_ns: u64,
    spans: Lane,
}

/// Extra timings of a halves pass the generic [`Pass`] has no field for.
#[derive(Debug, Clone, Default)]
pub struct HalvesTimes {
    /// `CoordHalf::pump_until_eos`.
    pub pump_ns: u64,
    /// `CoordHalf::stop` plus joining the site threads.
    pub stop_join_ns: u64,
    /// Span lanes recorded by the site threads.
    pub site_spans: Vec<Lane>,
}

/// Run protocol `P` over `stream` as `SiteHalf`s + a `CoordHalf` on the
/// links `make_links` builds. Timed region: the start barrier to the
/// quiesced answer. One flush sample: the last site's final `feed`
/// returning → the answer in hand.
pub fn halves_pass<P, SL, CL>(
    cfg: TrackingConfig,
    stream: &Stream,
    seed: u64,
    make_links: impl FnOnce(usize) -> io::Result<(Vec<SL>, CL)>,
    rec: &mut Recorder,
) -> io::Result<(Pass, HalvesTimes)>
where
    P: Tracked,
    SL: SiteLink<Up<P>, Down<P>> + Send + 'static,
    CL: CoordLink<Up<P>, Down<P>>,
{
    let proto = P::make(cfg);
    let k = stream.k;
    let mut pass = Pass::default();
    let mut times = HalvesTimes::default();

    let open = rec.enter("exec.build");
    let t_build = now_ns();
    let (site_links, coord_link) = make_links(k)?;
    let mut coord = CoordHalf::new(proto.build_coord(seed), coord_link);
    let start = Arc::new(Barrier::new(k + 1));
    let cycles = stream.cycles;
    let joins: Vec<_> = site_links
        .into_iter()
        .enumerate()
        .map(|(id, link)| {
            let mut half = SiteHalf::new(proto.build_site(seed, id), link);
            let items = stream.site_chunk(id);
            let start = Arc::clone(&start);
            let mut rec = rec.fork(id as u32 + 1);
            std::thread::spawn(move || -> io::Result<SiteOut> {
                start.wait();
                let open = rec.enter("exec.feed");
                let t = now_ns();
                for _ in 0..cycles {
                    for item in &items {
                        half.feed(item)?;
                    }
                }
                half.finish_stream()?;
                let fed_at_ns = now_ns();
                rec.exit(open);
                rec.leaf("exec.serve", || half.run_until_stop())?;
                Ok(SiteOut {
                    stats: half.stats().clone(),
                    feed_ns: fed_at_ns - t,
                    fed_at_ns,
                    spans: rec.finish(),
                })
            })
        })
        .collect();
    pass.build_ns = now_ns() - t_build;
    rec.exit(open);

    start.wait();
    let (t0, cpu0) = (now_ns(), cpu_ns());
    let open = rec.enter("exec.pump");
    let pumped = coord.pump_until_eos();
    times.pump_ns = now_ns() - t0;
    rec.exit(open);
    let settled = pumped.and_then(|()| {
        let t = now_ns();
        let open = rec.enter("exec.drain");
        let rounds = coord.quiesce();
        rec.exit(open);
        pass.drain_ns = now_ns() - t;
        rounds
    });
    let open = rec.enter("exec.answer");
    let ests: Vec<f64> = stream
        .probes
        .iter()
        .map(|&p| P::answer(coord.coord(), p))
        .collect();
    rec.exit(open);
    let t1 = now_ns();
    pass.wall_ns = t1 - t0;
    pass.cpu_ns = cpu_ns() - cpu0;

    // Always stop and join, so a failed pump cannot leave threads behind.
    let open = rec.enter("exec.shutdown");
    let stopped = coord.stop();
    let mut last_fed_at = t0;
    for join in joins {
        match join.join() {
            Ok(Ok(out)) => {
                pass.stats.merge(&out.stats);
                pass.feed_ns += out.feed_ns;
                last_fed_at = last_fed_at.max(out.fed_at_ns);
                times.site_spans.push(out.spans);
            }
            Ok(Err(e)) => pass.faults.push(format!("site link: {e}")),
            Err(_) => pass.faults.push("site thread panicked".into()),
        }
    }
    times.stop_join_ns = now_ns() - t1;
    pass.shutdown_ns = times.stop_join_ns;
    rec.exit(open);

    match settled {
        Ok(rounds) => pass.quiesce_rounds = u64::from(rounds),
        Err(e) => pass.faults.push(format!("coordinator link: {e}")),
    }
    if let Err(e) = stopped {
        pass.faults.push(format!("stop: {e}"));
    }
    pass.elements = pass.stats.elements;
    if pass.elements != stream.n() {
        pass.faults.push(format!(
            "sites processed {} elements, {} were fed",
            pass.elements,
            stream.n()
        ));
    }
    // Sites count ups as sent and downs as received; the coordinator's
    // view (ups applied, downs sent with broadcasts charged k×) is the
    // one comparable with the other executors.
    let coord_stats = coord.stats().clone();
    pass.stats = CommStats {
        elements: pass.elements,
        ..coord_stats
    };
    pass.flush_ns.push(t1.saturating_sub(last_fed_at));
    pass.answers = ests
        .into_iter()
        .enumerate()
        .map(|(i, est)| Answer {
            probe: i as u8,
            m: stream.n(),
            est,
        })
        .collect();
    Ok((pass, times))
}

/// [`halves_pass`] over loopback TCP.
pub fn tcp_pass<P: Tracked>(
    cfg: TrackingConfig,
    stream: &Stream,
    seed: u64,
    rec: &mut Recorder,
) -> io::Result<(Pass, HalvesTimes)> {
    halves_pass::<P, _, _>(cfg, stream, seed, tcp_links::<P>, rec)
}

/// [`halves_pass`] over the in-process links.
pub fn inproc_pass<P: Tracked>(
    cfg: TrackingConfig,
    stream: &Stream,
    seed: u64,
    rec: &mut Recorder,
) -> io::Result<(Pass, HalvesTimes)> {
    halves_pass::<P, _, _>(
        cfg,
        stream,
        seed,
        |k| Ok(in_process_links::<Up<P>, Down<P>>(k)),
        rec,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::runner_pass;
    use dtrack_core::count::DeterministicCount;
    use dtrack_core::rank::DeterministicRank;

    #[test]
    fn count_det_over_tcp_is_bit_identical_to_the_runner() {
        let cfg = TrackingConfig::new(2, 0.05);
        let stream = Stream::count(2, 4096, 1 << 14, 3);
        let (tcp, _) =
            tcp_pass::<DeterministicCount>(cfg, &stream, 9, &mut Recorder::off()).unwrap();
        assert!(tcp.faults.is_empty(), "{:?}", tcp.faults);
        let reference = runner_pass::<DeterministicCount>(cfg, &stream, 1, 9, &mut Recorder::off());
        assert_eq!(
            tcp.answers[0].est.to_bits(),
            reference.answers.last().unwrap().est.to_bits()
        );
        assert_eq!(tcp.stats, reference.stats);
    }

    #[test]
    fn rank_det_runs_over_both_links() {
        let cfg = TrackingConfig::new(2, 0.05);
        let stream = Stream::distinct(2, 1 << 12, 3);
        let (tcp, _) =
            tcp_pass::<DeterministicRank>(cfg, &stream, 9, &mut Recorder::on(0)).unwrap();
        let (inproc, _) =
            inproc_pass::<DeterministicRank>(cfg, &stream, 9, &mut Recorder::off()).unwrap();
        assert!(tcp.faults.is_empty() && inproc.faults.is_empty());
        assert_eq!(tcp.elements, 1 << 12);
        assert_eq!(inproc.elements, 1 << 12);
        assert!(tcp.stats.up_bytes > 0);
    }
}
