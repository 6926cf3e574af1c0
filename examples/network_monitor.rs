//! Network monitoring scenario: edge routers each see a stream of
//! flow identifiers; the NOC wants the heavy-hitter flows (frequency
//! ≥ 1% of traffic) continuously, with minimal control-plane traffic —
//! the motivating application of frequency tracking (§1, §3).
//!
//! The flow popularity *drifts*: the hot flows of the first half of the
//! trace die off and new ones take over. A whole-stream tracker keeps
//! reporting yesterday's elephants; a `+window:W` scenario reports only
//! the flows that are heavy in the last `W` packets. A `+tree:F[:D]`
//! scenario routes reports through a hierarchy of aggregators
//! (regional collectors) instead of one flat coordinator.
//!
//! # Single process (simulated deployment)
//!
//! Run: `cargo run --release --example network_monitor [EXEC]`
//! e.g. `… -- channel`, `… -- lockstep+window:250000`,
//! `… -- lockstep+tree:4`
//!
//! # Multi-process (real deployment over TCP)
//!
//! The same protocol state machines deploy as separate OS processes —
//! the coordinator serving live root queries, each router feeding its
//! own share of the trace over loopback (or a real network):
//!
//! ```text
//! terminal 0:  … --example network_monitor -- --serve 127.0.0.1:7400 --k 4
//! terminal 1:  … --example network_monitor -- --site 0 --connect 127.0.0.1:7400 --k 4
//! terminal 2:  … --example network_monitor -- --site 1 --connect 127.0.0.1:7400 --k 4
//! terminal 3:  … --example network_monitor -- --site 2 --connect 127.0.0.1:7400 --k 4
//! terminal 4:  … --example network_monitor -- --site 3 --connect 127.0.0.1:7400 --k 4
//! ```
//!
//! Every process regenerates the same seeded trace and takes its own
//! rows, so the deployment tracks the identical global stream. Flags:
//! `--k K --n N --eps E --phases P --seed S` (same defaults on every
//! process), `--proto rand-freq|det-count` selects the protocol, and
//! `--selfcheck` makes the server re-run the whole workload through the
//! in-process channel executor after the distributed run and compare
//! answers — for the one-way deterministic count protocol the two are
//! bit-identical (its coordinator state depends only on each site's
//! last report, not on cross-site interleaving), which is what the CI
//! multi-process smoke lane asserts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dtrack::core::count::{DetCountCoord, DeterministicCount};
use dtrack::core::frequency::{RandFreqCoord, RandomizedFrequency};
use dtrack::core::window::{WinCoord, Windowed};
use dtrack::core::TrackingConfig;
use dtrack::sim::{
    CoordHalf, Decode, ExecConfig, Executor, Protocol, Site, SiteHalf, TcpCoordLink, TcpSiteLink,
    Tree, TreeCoord,
};
use dtrack::sketch::exact::ExactCounts;
use dtrack::workload::scenarios;

/// Workload + protocol parameters shared by every process of a
/// multi-process deployment (all processes must agree).
#[derive(Clone)]
struct NetArgs {
    k: usize,
    n: u64,
    eps: f64,
    phases: u64,
    seed: u64,
    proto: ProtoChoice,
    selfcheck: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ProtoChoice {
    /// §3.1 randomized frequency (the heavy-hitter tracker).
    RandFreq,
    /// One-way deterministic count — interleaving-insensitive, used by
    /// the CI equality smoke.
    DetCount,
}

fn flag_val(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--serve" || a == "--site") {
        multi_process(&args);
    } else {
        single_process(&args);
    }
}

// ---------------------------------------------------------------------
// Multi-process deployment over TCP.
// ---------------------------------------------------------------------

fn multi_process(args: &[String]) {
    let net = NetArgs {
        k: flag_val(args, "--k").map_or(4, |v| v.parse().expect("--k")),
        n: flag_val(args, "--n").map_or(200_000, |v| v.parse().expect("--n")),
        eps: flag_val(args, "--eps").map_or(0.01, |v| v.parse().expect("--eps")),
        phases: flag_val(args, "--phases").map_or(4, |v| v.parse().expect("--phases")),
        seed: flag_val(args, "--seed").map_or(99, |v| v.parse().expect("--seed")),
        proto: match flag_val(args, "--proto").as_deref() {
            None | Some("rand-freq") => ProtoChoice::RandFreq,
            Some("det-count") => ProtoChoice::DetCount,
            Some(other) => panic!("unknown --proto {other} (rand-freq | det-count)"),
        },
        selfcheck: args.iter().any(|a| a == "--selfcheck"),
    };
    let cfg = TrackingConfig::new(net.k, net.eps);

    if let Some(addr) = flag_val(args, "--serve") {
        let ok = match net.proto {
            ProtoChoice::RandFreq => {
                let report_at = (0.01 - net.eps) * net.n as f64;
                serve(
                    RandomizedFrequency::new(cfg),
                    &net,
                    &addr,
                    move |c: &RandFreqCoord| {
                        format!("{} candidate heavy flows", c.heavy_hitters(report_at).len())
                    },
                    move |c: &RandFreqCoord| {
                        let hh = c.heavy_hitters(report_at);
                        let top: Vec<(u64, f64)> = hh.iter().take(10).copied().collect();
                        format!("{} candidates; top 10: {top:?}", hh.len())
                    },
                )
            }
            ProtoChoice::DetCount => serve(
                DeterministicCount::new(cfg),
                &net,
                &addr,
                |c: &DetCountCoord| format!("n̂ = {:.0}", c.estimate()),
                // Full bit pattern so the selfcheck comparison is exact.
                |c: &DetCountCoord| {
                    format!(
                        "n̂ = {} (bits {:016x})",
                        c.estimate(),
                        c.estimate().to_bits()
                    )
                },
            ),
        };
        if !ok {
            std::process::exit(1);
        }
    } else {
        let id: usize = flag_val(args, "--site")
            .expect("--site ID")
            .parse()
            .expect("--site takes a site index");
        let addr = flag_val(args, "--connect").expect("--site needs --connect ADDR");
        match net.proto {
            ProtoChoice::RandFreq => run_site(RandomizedFrequency::new(cfg), &net, id, &addr),
            ProtoChoice::DetCount => run_site(DeterministicCount::new(cfg), &net, id, &addr),
        }
    }
}

/// The globally agreed trace; every process derives its view from it.
fn trace(net: &NetArgs) -> impl Iterator<Item = dtrack::workload::Arrival> {
    scenarios::drifting(net.k, net.n, net.phases, net.seed)
}

/// Coordinator process: accept `k` routers, serve live queries while
/// pumping, quiesce, report, optionally re-run in-process and compare.
/// Returns false if `--selfcheck` found a mismatch.
fn serve<P>(
    proto: P,
    net: &NetArgs,
    addr: &str,
    live: impl Fn(&P::Coord) -> String + Send + 'static,
    answer: impl Fn(&P::Coord) -> String + Clone + Send + Sync + 'static,
) -> bool
where
    P: Protocol,
    P::Site: Site<Item = u64>,
    <P::Site as Site>::Up: Decode,
{
    let listener = std::net::TcpListener::bind(addr).expect("bind");
    println!(
        "coordinator listening on {} — waiting for {} routers ({} streams)…",
        listener.local_addr().unwrap(),
        net.k,
        2 * net.k
    );
    let link = TcpCoordLink::accept(&listener, net.k).expect("accept sites");
    println!("all routers connected; tracking…");

    let mut half = CoordHalf::new(proto.build_coord(net.seed), link);
    let handle = half.query_handle();
    let done = Arc::new(AtomicBool::new(false));
    let watcher = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                let (epoch, line) = handle.read(|s| (s.epoch, live(&s.state)));
                println!("  live (snapshot epoch {epoch:>6}): {line}");
                std::thread::sleep(std::time::Duration::from_millis(250));
            }
        })
    };

    half.pump_until_eos().expect("site link failed");
    let rounds = half.quiesce().expect("quiesce failed");
    done.store(true, Ordering::Relaxed);
    watcher.join().unwrap();

    let distributed = answer(half.coord());
    let stats = half.stats().clone();
    println!("\ndistributed answer (after {rounds} quiesce rounds): {distributed}");
    println!(
        "control-plane cost: {} msgs, {} words, {} wire bytes ({:.2} bytes/word)",
        stats.total_msgs(),
        stats.total_words(),
        stats.total_bytes(),
        stats.total_bytes() as f64 / stats.total_words().max(1) as f64
    );
    half.stop().expect("stop");

    if !net.selfcheck {
        return true;
    }
    // Re-run the identical workload through the in-process channel
    // executor and compare post-quiesce answers.
    let batch: Vec<(usize, u64)> = trace(net).map(|a| (a.site, a.item)).collect();
    let mut ex = ExecConfig::channel().build(&proto, net.seed);
    ex.feed_batch(batch);
    ex.quiesce();
    let reference = ex.query(move |c: &P::Coord| answer(c));
    println!("in-process channel answer: {reference}");
    if reference == distributed {
        println!("selfcheck OK: socket and in-process answers are identical");
        true
    } else {
        eprintln!("selfcheck FAILED: socket answer differs from in-process run");
        false
    }
}

/// Router process: feed this site's share of the trace, then serve
/// coordinator control until told to stop.
fn run_site<P>(proto: P, net: &NetArgs, id: usize, addr: &str)
where
    P: Protocol,
    P::Site: Site<Item = u64>,
    <P::Site as Site>::Down: Decode,
{
    assert!(id < net.k, "--site {id} out of range for --k {}", net.k);
    let link = TcpSiteLink::connect(addr, id).expect("connect");
    let mut half = SiteHalf::new(proto.build_site(net.seed, id), link);
    let mut fed = 0u64;
    for pkt in trace(net).filter(|a| a.site == id) {
        half.feed(&pkt.item).expect("feed");
        fed += 1;
    }
    half.finish_stream().expect("eos");
    half.run_until_stop().expect("serve control");
    let stats = half.stats();
    println!(
        "router {id}: {fed} packets fed, {} msgs up ({} words, {} wire bytes), {} msgs down",
        stats.up_msgs, stats.up_words, stats.up_bytes, stats.down_msgs
    );
}

// ---------------------------------------------------------------------
// Single-process scenario-matrix run (the original simulation).
// ---------------------------------------------------------------------

fn single_process(args: &[String]) {
    let exec: ExecConfig = args
        .first()
        .map(|s| s.parse().unwrap_or_else(|e| panic!("{e}")))
        .unwrap_or_else(ExecConfig::lockstep);
    let k = 32; // routers
    let eps = 0.005; // 0.5% of total traffic
    let n = 2_000_000u64; // packets
    let phases = 4; // the hot set rotates 4× over the trace

    let proto = RandomizedFrequency::new(TrackingConfig::new(k, eps));
    let traffic = scenarios::drifting(k, n, phases, 99);

    // Exact per-flow counts: whole stream and (if windowed) the tail.
    let w = exec.window.unwrap_or(n);
    let mut exact_whole = ExactCounts::new();
    let mut exact_window = ExactCounts::new();
    let batch: Vec<(usize, u64)> = traffic
        .enumerate()
        .map(|(i, pkt)| {
            exact_whole.observe(pkt.item);
            if i as u64 >= n.saturating_sub(w) {
                exact_window.observe(pkt.item);
            }
            (pkt.site, pkt.item)
        })
        .collect();

    let threshold = 0.01 * w as f64;
    let report_at = threshold - eps * w as f64;
    let exact = if exec.window.is_some() {
        &exact_window
    } else {
        &exact_whole
    };
    let truth = exact.heavy_hitters(threshold as u64);
    let truth_flows: Vec<u64> = truth.iter().map(|&(f, _)| f).collect();

    // The NOC watches the tracker *live*: ingest proceeds in chunks and
    // a `QueryHandle` reads the latest published snapshot
    // between chunks, without ever stopping the packet stream. The final
    // report reads the same handle after quiesce — bit-identical to a
    // stop-the-world query.
    const CHUNKS: usize = 8;
    let chunk_len = batch.len().div_ceil(CHUNKS);
    println!("scenario: {exec} — hot flows rotate {phases}× over {n} packets");

    // (reported heavy hitters, per-true-flow direct estimates, stats, space).
    let (reported, estimates, stats, peak) = if let Some(spec) = exec.tree {
        let mut ex = exec.mode.build(&Tree::new(proto, spec), 7);
        let handle = ex.query_handle();
        let mut fed = 0u64;
        for chunk in batch.chunks(chunk_len) {
            ex.feed_batch(chunk.to_vec());
            fed += chunk.len() as u64;
            let (epoch, live) =
                handle.read(|s| (s.epoch, s.state.root().heavy_hitters(report_at).len()));
            println!(
                "  live @ {fed:>7} pkts: {live:>3} candidate heavy flows (snapshot epoch {epoch})"
            );
        }
        ex.quiesce();
        let (hh, ests) = handle.read(|s| {
            let c: &TreeCoord<RandomizedFrequency> = &s.state;
            let ests: Vec<f64> = truth_flows
                .iter()
                .map(|&f| c.root().estimate_frequency(f))
                .collect();
            (c.root().heavy_hitters(report_at), ests)
        });
        (hh, ests, ex.stats(), ex.space().max_peak())
    } else if let Some(win) = exec.window {
        let mut ex = exec.mode.build(&Windowed::new(proto, win), 7);
        let handle = ex.query_handle();
        let mut fed = 0u64;
        for chunk in batch.chunks(chunk_len) {
            ex.feed_batch(chunk.to_vec());
            fed += chunk.len() as u64;
            let (epoch, live) =
                handle.read(|s| (s.epoch, s.state.windowed_heavy_hitters(report_at).len()));
            println!(
                "  live @ {fed:>7} pkts: {live:>3} candidate heavy flows (snapshot epoch {epoch})"
            );
        }
        ex.quiesce();
        let (hh, ests) = handle.read(|s| {
            let c: &WinCoord<RandomizedFrequency> = &s.state;
            let ests: Vec<f64> = truth_flows
                .iter()
                .map(|&f| c.windowed_frequency(f))
                .collect();
            (c.windowed_heavy_hitters(report_at), ests)
        });
        (hh, ests, ex.stats(), ex.space().max_peak())
    } else {
        let mut ex = exec.mode.build(&proto, 7);
        let handle = ex.query_handle();
        let mut fed = 0u64;
        for chunk in batch.chunks(chunk_len) {
            ex.feed_batch(chunk.to_vec());
            fed += chunk.len() as u64;
            let (epoch, live) = handle.read(|s| (s.epoch, s.state.heavy_hitters(report_at).len()));
            println!(
                "  live @ {fed:>7} pkts: {live:>3} candidate heavy flows (snapshot epoch {epoch})"
            );
        }
        ex.quiesce();
        let (hh, ests) = handle.read(|s| {
            let c: &RandFreqCoord = &s.state;
            let ests: Vec<f64> = truth_flows
                .iter()
                .map(|&f| c.estimate_frequency(f))
                .collect();
            (c.heavy_hitters(report_at), ests)
        });
        (hh, ests, ex.stats(), ex.space().max_peak())
    };

    println!(
        "\nflows with ≥1% of the last {w} packets (true heavy hitters): {}",
        truth.len()
    );
    println!(
        "{:<10} {:>12} {:>12} {:>9}",
        "flow", "true pkts", "estimate", "err/W(%)"
    );
    for (&(flow, f), &est) in truth.iter().zip(&estimates) {
        println!(
            "{:<10} {:>12} {:>12.0} {:>8.3}%",
            flow,
            f,
            est,
            (est - f as f64).abs() / w as f64 * 100.0
        );
    }
    let missed = truth
        .iter()
        .filter(|(f, _)| !reported.iter().any(|(r, _)| r == f))
        .count();
    println!(
        "\nreported candidates ≥ (1% − ε): {} (missed true: {missed})",
        reported.len()
    );
    if exec.window.is_some() {
        let stale: Vec<u64> = exact_whole
            .heavy_hitters((0.01 * n as f64) as u64)
            .iter()
            .map(|&(f, _)| f)
            .filter(|f| !truth.iter().any(|(t, _)| t == f))
            .collect();
        println!(
            "all-time heavy flows no longer heavy in the window (correctly aged out): {stale:?}"
        );
    }

    println!(
        "\ncontrol-plane cost: {} messages, {} words, {} wire bytes ({:.4} words/packet)",
        stats.total_msgs(),
        stats.total_words(),
        stats.total_bytes(),
        stats.total_words() as f64 / n as f64
    );
    println!(
        "router memory     : {} words peak (1/(ε√k) = {:.0})",
        peak,
        1.0 / (eps * (k as f64).sqrt())
    );
}
