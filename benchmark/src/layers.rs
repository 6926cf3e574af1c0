//! The layer panel: one small cell per layer, timed from outside through
//! the layer's public functions. Cell sizes are fixed (÷16 under
//! `--quick`), so a layer metric means the same thing whichever
//! workload's traced run it is printed in.

use std::hint::black_box;
use std::io::Cursor;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dtrack_core::count::{CountUp, RandomizedCount};
use dtrack_core::frequency::RandomizedFrequency;
use dtrack_core::rank::{DetRankUp, DeterministicRank};
use dtrack_core::TrackingConfig;
use dtrack_sim::ring::{mpsc, ring, WakeCell};
use dtrack_sim::rng::{rng_from_seed, GeometricSkips};
use dtrack_sim::wire::{decode_exact, encode_to_vec, measured, read_frame, write_frame};
use dtrack_sim::{snapshot_cell, Decode, Encode, Runner, Words};
use dtrack_sketch::hash::FastMap;
use dtrack_sketch::{GkSummary, KllSketch, StickyCounters};

use crate::channel::{channel_pass, Feed, Job};
use crate::for_each_protocol;
use crate::lockstep::{event_pass, harness_pass, runner_pass, span};
use crate::meter::{high_percentile, median, now_ns, percentile, sorted};
use crate::proto::{Checks, Kind, Oracle, Stream, Tracked};
use crate::socket::{inproc_pass, tcp_pass};
use crate::trace::{totals, Lane, Recorder};
use crate::workloads::EPS;

/// Named values, in the order the cells ran.
pub type Values = Vec<(String, f64)>;

/// Everything the panel produced.
pub struct Panel {
    pub values: Values,
    /// Spans of the traced lock-step loop, one lane per protocol cell.
    pub spans: Vec<Lane>,
    /// Failed self-checks (the traced loop's accounting must equal the
    /// `Runner`'s; links must not error).
    pub checks: Checks,
    /// Lines for the human reader of `--layers` that are not metrics.
    pub notes: Vec<String>,
}

/// Lanes of the panel's traced loops start here (workload lanes are the
/// main thread, 0, and the site threads, 1..=k).
const PANEL_LANE: u32 = 100;

/// Time `body` over `iters` iterations and return ns per iteration.
fn per_iter(iters: u64, mut body: impl FnMut(u64)) -> f64 {
    let t0 = now_ns();
    for i in 0..iters {
        body(i);
    }
    (now_ns() - t0) as f64 / iters as f64
}

fn sketch_cells(seed: u64, shift: u32, out: &mut Values) {
    let n = 1u64 << (18 - shift.min(4));
    let items: Vec<u64> = Stream::distinct(1, n, seed)
        .chunk
        .iter()
        .map(|a| a.1)
        .collect();
    let zipf: Vec<u64> = Stream::zipf(1, n as usize, n, seed)
        .chunk
        .iter()
        .map(|a| a.1)
        .collect();

    let mut gk = GkSummary::new(EPS / 4.0);
    out.push((
        "sketch.gk.insert_ns".into(),
        per_iter(n, |i| gk.insert(items[i as usize])),
    ));
    gk.compress();
    out.push(("sketch.gk.tuples".into(), gk.tuples().len() as f64));

    let mut kll = KllSketch::with_error(EPS, seed);
    out.push((
        "sketch.kll.insert_ns".into(),
        per_iter(n, |i| kll.insert(items[i as usize])),
    ));
    out.push((
        "sketch.kll.summary_ns".into(),
        per_iter(256, |_| {
            black_box(kll.summary());
        }),
    ));

    let mut rng = rng_from_seed(seed);
    let mut sticky = StickyCounters::new(0.01);
    out.push((
        "sketch.sticky.observe_ns".into(),
        per_iter(n, |i| {
            black_box(sticky.observe(zipf[i as usize], &mut rng));
        }),
    ));
    let mut map: FastMap<u64, u64> = FastMap::default();
    out.push((
        "sketch.fastmap.upsert_ns".into(),
        per_iter(n, |i| *map.entry(zipf[i as usize]).or_insert(0) += 1),
    ));
    black_box(map.len());

    let mut skips = GeometricSkips::new(0.01, &mut rng);
    let mut hits = 0u64;
    out.push((
        "rng.geometric_trial_ns".into(),
        per_iter(16 * n, |_| hits += u64::from(skips.trial(&mut rng))),
    ));
    black_box(hits);
}

/// Cell size of a protocol's traced lock-step loop: enough arrivals for
/// the protocol to leave its warm-up rounds, small enough that all seven
/// fit in about two seconds.
fn core_stream(kind: Kind, name: &str, seed: u64, shift: u32) -> Stream {
    match (kind, name) {
        (Kind::Count, _) => Stream::count(64, 1 << 20, 1 << (22 - shift), seed),
        (Kind::Freq, _) => Stream::zipf(64, 1 << 20, 1 << (21 - shift), seed),
        (Kind::Rank, "rank_det") => Stream::distinct(64, 1 << (16 - shift), seed),
        (Kind::Rank, _) => Stream::distinct(64, 1 << (19 - shift), seed),
    }
}

/// The `core.*`, `runner.*`, `event.*` cells and `wire.measure_share`:
/// each protocol once on `Runner` (untraced, 64 checkpoints scored
/// against the oracle) and once on the benchmark's own traced loop.
/// `Runner` times are its feed calls only, so reading the checkpoints
/// does not count against it.
fn core_cells(seed: u64, shift: u32, panel: &mut Panel) {
    let cfg = TrackingConfig::new(64, EPS);
    let (mut runner_ns, mut traced_ns) = (0u64, 0u64);
    let mut words = std::collections::BTreeMap::new();
    let mut accuracy = Checks::default();
    for_each_protocol!(P => {
        let name = P::NAME;
        let stream = core_stream(P::KIND, name, seed, shift);
        let runner = runner_pass::<P>(cfg, &stream, 64, seed, &mut Recorder::off());
        accuracy.score::<P>(EPS, &Oracle::build(&stream), &runner.answers, false);
        let mut rec = Recorder::on(PANEL_LANE + panel.spans.len() as u32);
        let traced = harness_pass::<P>(cfg, &stream, seed, &mut rec);
        let (lane_id, spans) = rec.finish();
        panel.checks.check(traced.stats == runner.stats, || {
            format!("{name}: traced lock-step loop's CommStats differ from Runner's")
        });
        let t = totals(&spans);
        let get = |n: &str| t.get(n).copied().unwrap_or_default();
        let per = |total: u64, count: u64| total as f64 / count.max(1) as f64;
        let kelem = stream.n() as f64 / 1000.0;
        let v = &mut panel.values;
        v.push((format!("core.{name}.site_step_ns"), per(get(span::RUN).self_ns, stream.n())));
        let coord = get(span::COORD_STEP);
        v.push((format!("core.{name}.coord_step_ns"), per(coord.total_ns, coord.count)));
        if name != "count_det" {
            let down = get(span::SITE_DOWN);
            v.push((format!("core.{name}.site_down_ns"), per(down.total_ns, down.count)));
            v.push((format!("core.{name}.downs_per_kelem"), runner.stats.down_msgs as f64 / kelem));
        }
        v.push((format!("core.{name}.ups_per_kelem"), runner.stats.up_msgs as f64 / kelem));
        v.push((format!("core.{name}.words_per_kelem"), runner.stats.total_words() as f64 / kelem));
        v.push((
            format!("core.{name}.lockstep_elems_per_s"),
            stream.n() as f64 / (runner.feed_ns as f64 / 1e9),
        ));
        words.insert(name, runner.stats.total_words() as f64 / kelem);
        runner_ns += runner.feed_ns;
        traced_ns += traced.wall_ns;
        panel.notes.push(format!(
            "{name}: traced loop {:.1} ms = {:.2} x Runner feed time {:.1} ms \
             (site steps {:.1}, coordinator {:.1}, wire_bytes {:.1}, downs {:.1} ms)",
            traced.wall_ns as f64 / 1e6,
            traced.wall_ns as f64 / runner.feed_ns as f64,
            runner.feed_ns as f64 / 1e6,
            get(span::RUN).self_ns as f64 / 1e6,
            get(span::COORD_STEP).total_ns as f64 / 1e6,
            get(span::WIRE_MEASURE).total_ns as f64 / 1e6,
            get(span::SITE_DOWN).total_ns as f64 / 1e6,
        ));
        if name == "rank_det" {
            v.push((
                "wire.measure_share".into(),
                get(span::WIRE_MEASURE).total_ns as f64 / get(span::RUN).total_ns.max(1) as f64,
            ));
        }
        if name == "count_rand" || name == "rank_rand" {
            let event = event_pass::<P>(cfg, &stream, seed);
            panel.checks.check(event.stats == runner.stats, || {
                format!("{name}: EventRuntime(Instant) CommStats differ from Runner's")
            });
            v.push((
                format!("event.instant_over_runner_time.{name}"),
                event.wall_ns as f64 / runner.feed_ns as f64,
            ));
        }
        panel.spans.push((lane_id, spans));
    });
    let v = &mut panel.values;
    for kind in ["count", "freq", "rank"] {
        v.push((
            format!("core.{kind}.rand_over_det_words"),
            words[format!("{kind}_rand").as_str()] / words[format!("{kind}_det").as_str()],
        ));
    }
    let ratios = sorted(&accuracy.ratios_rand);
    v.push(("core.err_p90_over_eps".into(), percentile(&ratios, 0.9)));
    v.push((
        "runner.overhead_share".into(),
        (runner_ns as f64 - traced_ns as f64) / runner_ns as f64,
    ));
    panel.checks.merge(accuracy);
}

/// Encode / decode / measure one message class for ~`budget_ns`.
fn codec_cell<T: Encode + Decode + Words>(class: &str, msg: &T, rounds: u64, out: &mut Values) {
    let bytes = encode_to_vec(msg);
    let mb = bytes.len() as f64 / 1e6;
    let enc = per_iter(rounds, |_| {
        black_box(encode_to_vec(black_box(msg)));
    });
    let dec = per_iter(rounds, |_| {
        black_box(decode_exact::<T>(black_box(&bytes)).is_ok());
    });
    let meas = per_iter(rounds, |_| {
        black_box(measured(black_box(msg)));
    });
    out.push((format!("wire.encode_mb_per_s.{class}"), mb / (enc / 1e9)));
    out.push((format!("wire.decode_mb_per_s.{class}"), mb / (dec / 1e9)));
    out.push((format!("wire.measured_ns_per_msg.{class}"), meas));
}

fn wire_cells(seed: u64, shift: u32, out: &mut Values) {
    // small: a count_rand up; large: a rank_det GK summary refresh of a
    // site holding 2^16 local items.
    let small = CountUp::Report(0x1234_5678);
    let mut gk = GkSummary::new(EPS / 4.0);
    let n_local = 1u64 << (16 - shift.min(4));
    for a in &Stream::distinct(1, n_local, seed).chunk {
        gk.insert(a.1);
    }
    gk.compress();
    let large = DetRankUp::Summary {
        round: 3,
        n_local,
        tuples: gk.tuples().to_vec(),
    };
    codec_cell("small", &small, 1 << 18, out);
    codec_cell("large", &large, 256, out);
    out.push((
        "wire.bytes_over_8words.large".into(),
        large.wire_bytes() as f64 / (8 * large.words()) as f64,
    ));
    let payload = encode_to_vec(&large);
    let mut framed = Vec::with_capacity(payload.len() + 8);
    let ns = per_iter(1024, |_| {
        framed.clear();
        write_frame(&mut framed, 1, &payload).expect("write to a Vec");
        black_box(read_frame(&mut Cursor::new(&framed)).expect("read back"));
    });
    out.push((
        "wire.frame_write_read_mb_per_s".into(),
        payload.len() as f64 / 1e6 / (ns / 1e9),
    ));
}

fn ring_cells(shift: u32, out: &mut Values) {
    let n = 1u64 << (20 - shift.min(4));
    let (tx, mut rx) = ring::<u64>(1024, Arc::new(WakeCell::new()));
    out.push((
        "ring.spsc.push_pop_ns".into(),
        per_iter(n, |i| {
            let _ = tx.push(i);
            black_box(rx.try_pop());
        }),
    ));
    // push_many alone: each call is timed, the drain between calls is not.
    let mut staged: Vec<u64> = Vec::with_capacity(512);
    let mut push_ns = 0u64;
    for round in 0..n / 512 {
        staged.extend(round * 512..(round + 1) * 512);
        let t = now_ns();
        let _ = tx.push_many(&mut staged);
        push_ns += now_ns() - t;
        while rx.try_pop().is_some() {}
    }
    out.push((
        "ring.spsc.push_many_ns_per_elem".into(),
        push_ns as f64 / n as f64,
    ));
    drop((tx, rx));

    // Across two threads: the consumer parks on its wake cell when the
    // ring runs dry, the producer blocks when it is full.
    let wake = Arc::new(WakeCell::new());
    let (tx, mut rx) = ring::<u64>(1 << 12, Arc::clone(&wake));
    let total = 4 * n;
    let t0 = now_ns();
    let consumer = std::thread::spawn(move || {
        wake.register();
        let mut got = 0u64;
        while got < total {
            match rx.try_pop() {
                Some(v) => got += u64::from(black_box(v) < u64::MAX),
                None => wake.park_while(|| rx.is_empty()),
            }
        }
    });
    for i in 0..total {
        let _ = tx.push(i);
    }
    consumer.join().expect("ring consumer");
    out.push((
        "ring.spsc.xthread_elems_per_s".into(),
        total as f64 / ((now_ns() - t0) as f64 / 1e9),
    ));

    let (mtx, mut mrx) = mpsc::<u64>(Arc::new(WakeCell::new()));
    out.push((
        "ring.mpsc.send_recv_ns".into(),
        per_iter(n, |i| {
            mtx.send(i);
            black_box(mrx.try_recv());
        }),
    ));

    // Park/wake hand-off: two threads pass a turn counter back and
    // forth, each parking on its own cell until the turn is its own.
    let rounds = 4096u64 >> shift.min(4);
    let cells = [Arc::new(WakeCell::new()), Arc::new(WakeCell::new())];
    let turn = Arc::new(AtomicU64::new(0));
    let player = |me: u64, cells: [Arc<WakeCell>; 2], turn: Arc<AtomicU64>| {
        move || {
            cells[me as usize].register();
            for _ in 0..rounds {
                cells[me as usize].park_while(|| turn.load(Ordering::SeqCst) % 2 != me);
                turn.fetch_add(1, Ordering::SeqCst);
                cells[1 - me as usize].wake();
            }
        }
    };
    let t0 = now_ns();
    let other = std::thread::spawn(player(1, cells.clone(), Arc::clone(&turn)));
    player(0, cells, turn)();
    other.join().expect("wake partner");
    out.push((
        "ring.wake.park_wake_us".into(),
        (now_ns() - t0) as f64 / (2 * rounds) as f64 / 1e3,
    ));
}

/// A coordinator of protocol `P` after `stream`, for the publish cells.
fn coordinator_after<P: Tracked>(k: usize, stream: &Stream, seed: u64) -> P::Coord {
    let proto = P::make(TrackingConfig::new(k, EPS));
    let mut runner = Runner::new(&proto, seed);
    for _ in 0..stream.cycles {
        runner.feed_batch(&stream.chunk);
    }
    runner.coord().clone()
}

fn snapshot_cells(seed: u64, shift: u32, panel: &mut Panel) {
    let small =
        coordinator_after::<RandomizedCount>(8, &Stream::count(8, 1 << 16, 1 << 16, seed), seed);
    let large = coordinator_after::<RandomizedFrequency>(
        8,
        &Stream::zipf(8, 1 << (20 - shift), 1 << (20 - shift), seed),
        seed,
    );
    let v = &mut panel.values;
    let (mut publisher, handle) = snapshot_cell(small.clone());
    v.push((
        "snapshot.publish_ns.small".into(),
        per_iter(1 << 14, |_| publisher.publish(small.clone())),
    ));
    v.push((
        "snapshot.read_ns.idle".into(),
        per_iter(1 << 20, |_| {
            black_box(handle.read(|s| s.epoch));
        }),
    ));
    let (mut publisher, _handle) = snapshot_cell(large.clone());
    v.push((
        "snapshot.publish_ns.large".into(),
        per_iter(256, |_| publisher.publish(large.clone())),
    ));

    // Reads beside writes: a small channel_query with one reader whose
    // reads are timed one in 64.
    let stream = Stream::zipf(8, 1 << 20, 1 << (22 - shift), seed);
    let job = Job {
        feed: Feed::Batch(1 << 16),
        probe_every: stream.n(),
        reader: true,
        sample_reads: true,
    };
    let pass = channel_pass::<RandomizedFrequency>(
        TrackingConfig::new(8, EPS),
        &stream,
        job,
        seed,
        &mut Recorder::off(),
    );
    for fault in &pass.faults {
        panel
            .checks
            .check(false, || format!("snapshot cell: {fault}"));
    }
    let lat = sorted(&pass.read_ns.iter().map(|&n| n as f64).collect::<Vec<_>>());
    let secs = pass.wall_ns as f64 / 1e9;
    let v = &mut panel.values;
    v.push(("snapshot.read_p50_ns".into(), percentile(&lat, 0.5)));
    v.push(("snapshot.read_p99_ns".into(), percentile(&lat, 0.99)));
    v.push(("snapshot.epochs_per_s".into(), pass.epochs as f64 / secs));
    v.push(("snapshot.queries_per_s".into(), pass.reads as f64 / secs));
}

fn runtime_cells(seed: u64, shift: u32, panel: &mut Panel) {
    let cfg = TrackingConfig::new(8, EPS);
    let batch_stream = Stream::count(8, 1 << 20, 1 << (22 - shift), seed);
    let batch = channel_pass::<RandomizedCount>(
        cfg,
        &batch_stream,
        Job {
            feed: Feed::Batch(1 << 16),
            probe_every: batch_stream.n(),
            reader: false,
            sample_reads: false,
        },
        seed,
        &mut Recorder::off(),
    );
    let feed_stream = Stream::count(8, 1 << 20, 1 << (20 - shift), seed);
    let feed = channel_pass::<RandomizedCount>(
        cfg,
        &feed_stream,
        Job {
            feed: Feed::PerElement,
            probe_every: 1 << (14 - shift),
            reader: false,
            sample_reads: false,
        },
        seed,
        &mut Recorder::off(),
    );
    for fault in batch.faults.iter().chain(&feed.faults) {
        panel
            .checks
            .check(false, || format!("runtime cell: {fault}"));
    }
    let flush = sorted(
        &feed
            .flush_ns
            .iter()
            .map(|&n| n as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let v = &mut panel.values;
    v.push(("runtime.build_ms".into(), batch.build_ns as f64 / 1e6));
    v.push((
        "runtime.feed_batch_ns_per_elem".into(),
        batch.feed_ns as f64 / batch.elements as f64,
    ));
    v.push((
        "runtime.feed_ns_per_elem".into(),
        feed.feed_ns as f64 / feed.elements as f64,
    ));
    v.push((
        "runtime.final_quiesce_ms".into(),
        batch.drain_ns as f64 / 1e6,
    ));
    v.push(("runtime.quiesce_rounds".into(), batch.quiesce_rounds as f64));
    v.push((
        "runtime.cpu_over_wall".into(),
        batch.cpu_ns as f64 / batch.wall_ns as f64,
    ));
    v.push((
        "runtime.words_per_kelem".into(),
        batch.stats.total_words() as f64 / (batch.elements as f64 / 1000.0),
    ));
    v.push(("runtime.shutdown_ms".into(), batch.shutdown_ns as f64 / 1e6));
    v.push(("runtime.flush_p50_us".into(), median(&flush)));
    v.push((
        "runtime.flush_p90_us".into(),
        high_percentile(&flush, 0.90).1,
    ));
}

/// Raw `write_frame` / `read_frame` ping over a loopback pair.
fn frame_rtt_us(rounds: u64) -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut client = TcpStream::connect(listener.local_addr()?)?;
    client.set_nodelay(true)?;
    let (mut server, _) = listener.accept()?;
    server.set_nodelay(true)?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        while let Some((kind, payload)) = read_frame(&mut server)? {
            write_frame(&mut server, kind, &payload)?;
        }
        Ok(())
    });
    let t0 = now_ns();
    for i in 0..rounds {
        write_frame(&mut client, 3, &i.to_le_bytes())?;
        read_frame(&mut client)?;
    }
    let rtt = (now_ns() - t0) as f64 / rounds as f64 / 1e3;
    drop(client);
    echo.join().expect("echo thread")?;
    Ok(rtt)
}

fn transport_cells(seed: u64, shift: u32, panel: &mut Panel) -> std::io::Result<()> {
    let cfg = TrackingConfig::new(2, EPS);
    let counts = Stream::count(2, 1 << 20, 1 << (21 - shift), seed);
    let ranks = Stream::distinct(2, 1 << (18 - shift), seed);
    let off = &mut Recorder::off();
    let (tcp_c, tcp_ct) = tcp_pass::<RandomizedCount>(cfg, &counts, seed, off)?;
    let (tcp_r, tcp_rt) = tcp_pass::<DeterministicRank>(cfg, &ranks, seed, off)?;
    let (in_c, _) = inproc_pass::<RandomizedCount>(cfg, &counts, seed, off)?;
    let (in_r, _) = inproc_pass::<DeterministicRank>(cfg, &ranks, seed, off)?;
    for fault in [&tcp_c, &tcp_r, &in_c, &in_r]
        .iter()
        .flat_map(|p| &p.faults)
    {
        panel
            .checks
            .check(false, || format!("transport cell: {fault}"));
    }
    let elements = (counts.n() + ranks.n()) as f64;
    let v = &mut panel.values;
    v.push((
        "transport.inproc.elems_per_s".into(),
        elements / ((in_c.wall_ns + in_r.wall_ns) as f64 / 1e9),
    ));
    v.push((
        "transport.tcp_over_inproc_time".into(),
        (tcp_c.wall_ns + tcp_r.wall_ns) as f64 / (in_c.wall_ns + in_r.wall_ns) as f64,
    ));
    v.push((
        "transport.tcp.connect_accept_ms".into(),
        (tcp_c.build_ns + tcp_r.build_ns) as f64 / 2e6,
    ));
    v.push((
        "transport.tcp.site_feed_ns_per_elem.count".into(),
        tcp_c.feed_ns as f64 / counts.n() as f64,
    ));
    v.push((
        "transport.tcp.site_feed_ns_per_elem.rank".into(),
        tcp_r.feed_ns as f64 / ranks.n() as f64,
    ));
    v.push((
        "transport.tcp.pump_until_eos_s".into(),
        (tcp_ct.pump_ns + tcp_rt.pump_ns) as f64 / 1e9,
    ));
    v.push((
        "transport.tcp.quiesce_ms".into(),
        (tcp_c.drain_ns + tcp_r.drain_ns) as f64 / 2e6,
    ));
    v.push((
        "transport.tcp.quiesce_rounds".into(),
        (tcp_c.quiesce_rounds + tcp_r.quiesce_rounds) as f64,
    ));
    v.push((
        "transport.tcp.stop_join_ms".into(),
        (tcp_ct.stop_join_ns + tcp_rt.stop_join_ns) as f64 / 2e6,
    ));
    v.push((
        "transport.tcp.frame_rtt_us".into(),
        frame_rtt_us(4096 >> shift.min(4))?,
    ));
    v.push((
        "transport.tcp.wire_mb_per_s".into(),
        tcp_r.stats.total_bytes() as f64 / 1e6 / (tcp_r.wall_ns as f64 / 1e9),
    ));
    Ok(())
}

/// What one span costs the code around it: two clock reads and a `Vec`
/// push. Cheap calls (a count coordinator step is ~30 ns) are timed
/// mostly as this overhead; subtract it when reading their `*_ns`.
fn span_cost_cell(out: &mut Values) {
    let rounds = 1u64 << 16;
    let mut rec = Recorder::on(0);
    let ns = per_iter(rounds, |i| {
        rec.leaf("calibrate", || black_box(i));
    });
    black_box(rec.finish());
    out.push(("trace.span_cost_ns".into(), ns));
}

fn workload_cells(seed: u64, shift: u32, out: &mut Values) {
    let n = 1u64 << (18 - shift.min(4));
    let t = now_ns();
    black_box(Stream::zipf(8, n as usize, n, seed));
    out.push((
        "workload.gen_ns_per_arrival.zipf".into(),
        (now_ns() - t) as f64 / n as f64,
    ));
    let t = now_ns();
    black_box(Stream::distinct(8, n, seed));
    out.push((
        "workload.gen_ns_per_arrival.distinct".into(),
        (now_ns() - t) as f64 / n as f64,
    ));
}

/// Run every layer cell once.
pub fn run(seed: u64, shift: u32) -> Panel {
    let mut panel = Panel {
        values: Vec::new(),
        spans: Vec::new(),
        checks: Checks::default(),
        notes: Vec::new(),
    };
    sketch_cells(seed, shift, &mut panel.values);
    core_cells(seed, shift, &mut panel);
    wire_cells(seed, shift, &mut panel.values);
    ring_cells(shift, &mut panel.values);
    snapshot_cells(seed, shift, &mut panel);
    runtime_cells(seed, shift, &mut panel);
    if let Err(e) = transport_cells(seed, shift, &mut panel) {
        panel.checks.check(false, || format!("transport cell: {e}"));
    }
    workload_cells(seed, shift, &mut panel.values);
    span_cost_cell(&mut panel.values);
    panel
}
