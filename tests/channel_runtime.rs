//! The protocols on the *concurrent* channel runtime: one OS thread per
//! site, real message passing, quiesce-then-query. Verifies the protocols
//! don't secretly depend on the lock-step scheduler.

use dtrack::core::count::RandomizedCount;
use dtrack::core::frequency::RandomizedFrequency;
use dtrack::core::rank::RandomizedRank;
use dtrack::core::TrackingConfig;
use dtrack::sim::runtime::ChannelRuntime;
use dtrack::workload::items::DistinctSeq;

#[test]
fn count_tracking_concurrent() {
    let (k, eps, n) = (8, 0.1, 20_000u64);
    let proto = RandomizedCount::new(TrackingConfig::new(k, eps));
    let mut ok = 0;
    let reps = 10;
    for seed in 0..reps {
        let rt: ChannelRuntime<RandomizedCount> = ChannelRuntime::new(&proto, seed);
        for t in 0..n {
            rt.feed((t % k as u64) as usize, t);
        }
        rt.quiesce();
        let est = rt.with_coord(|c| c.estimate());
        // Concurrency weakens the instant-communication assumption the
        // analysis uses; allow 2εn.
        if (est - n as f64).abs() <= 2.0 * eps * n as f64 {
            ok += 1;
        }
        let stats = rt.shutdown();
        assert_eq!(stats.elements, n);
        assert!(stats.total_msgs() > 0);
    }
    assert!(ok >= 8, "only {ok}/{reps} accurate under concurrency");
}

#[test]
fn frequency_tracking_concurrent() {
    let (k, eps, n) = (8, 0.1, 16_000u64);
    let proto = RandomizedFrequency::new(TrackingConfig::new(k, eps));
    let mut ok = 0;
    let reps = 10;
    for seed in 0..reps {
        let rt: ChannelRuntime<RandomizedFrequency> = ChannelRuntime::new(&proto, seed);
        for t in 0..n {
            let item = if t % 5 == 0 { 7 } else { 1000 + t };
            rt.feed((t % k as u64) as usize, item);
        }
        rt.quiesce();
        let est = rt.with_coord(|c| c.estimate_frequency(7));
        let truth = (n / 5) as f64;
        if (est - truth).abs() <= 2.0 * eps * n as f64 {
            ok += 1;
        }
        rt.shutdown();
    }
    assert!(ok >= 8, "only {ok}/{reps} accurate under concurrency");
}

#[test]
fn rank_tracking_concurrent() {
    let (k, eps, n) = (8, 0.2, 12_000u64);
    let proto = RandomizedRank::new(TrackingConfig::new(k, eps));
    let mut ok = 0;
    let reps = 8;
    for seed in 0..reps {
        let rt: ChannelRuntime<RandomizedRank> = ChannelRuntime::new(&proto, seed);
        let seq = DistinctSeq::new(3);
        let mut all: Vec<u64> = Vec::with_capacity(n as usize);
        for t in 0..n {
            let v = seq.value_at(t);
            rt.feed((t % k as u64) as usize, v);
            all.push(v);
        }
        rt.quiesce();
        all.sort_unstable();
        let x = all[all.len() / 2];
        let truth = all.partition_point(|&v| v < x) as f64;
        let est = rt.with_coord(move |c| c.estimate_rank(x));
        if (est - truth).abs() <= 3.0 * eps * n as f64 {
            ok += 1;
        }
        rt.shutdown();
    }
    assert!(ok >= 6, "only {ok}/{reps} accurate under concurrency");
}

#[test]
fn concurrent_feeding_from_multiple_producers() {
    // Feed from 4 producer threads concurrently — the runtime must
    // remain consistent (count conservation after quiesce).
    use std::sync::Arc;
    let (k, n_per) = (8usize, 5_000u64);
    let proto = RandomizedCount::new(TrackingConfig::new(k, 0.1));
    let rt: Arc<ChannelRuntime<RandomizedCount>> = Arc::new(ChannelRuntime::new(&proto, 77));
    let mut handles = Vec::new();
    for p in 0..4u64 {
        let rt = Arc::clone(&rt);
        handles.push(std::thread::spawn(move || {
            for t in 0..n_per {
                rt.feed(((p * n_per + t) % k as u64) as usize, t);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    rt.quiesce();
    let total = 4 * n_per;
    let est = rt.with_coord(|c| c.estimate());
    assert!(
        (est - total as f64).abs() <= 0.3 * total as f64,
        "estimate {est} vs {total}"
    );
    assert_eq!(rt.stats().elements, total);
}

#[test]
fn runtime_and_bare_halves_agree_bit_for_bit() {
    // `ChannelRuntime` is k `SiteHalf`s and a `CoordHalf` over
    // `in_process_links()`; driving those pieces by hand on the same
    // per-site streams must give the same answer and the same
    // accounting. Deterministic count is one-way and its coordinator
    // sums last-per-site reports, so the comparison is exact whatever
    // the cross-site interleaving.
    use dtrack::core::count::DeterministicCount;
    use dtrack::sim::{in_process_links, CoordHalf, Protocol, SiteHalf};

    let (k, eps, seed) = (4usize, 0.05, 11u64);
    let proto = DeterministicCount::new(TrackingConfig::new(k, eps));
    // Uneven streams: site i sees 3000·(i+1) elements.
    let per_site = |site: usize| 3_000 * (site as u64 + 1);

    let mut rt: ChannelRuntime<DeterministicCount> = ChannelRuntime::new(&proto, seed);
    let batch: Vec<(usize, u64)> = (0..k)
        .flat_map(|site| (0..per_site(site)).map(move |t| (site, t)))
        .collect();
    rt.feed_batch(batch);
    rt.quiesce();
    let runtime_est = rt.with_coord(|c| c.estimate());
    let runtime_stats = rt.shutdown();

    let (site_links, coord_link) = in_process_links(k);
    let mut coord = CoordHalf::new(proto.build_coord(seed), coord_link);
    let sites: Vec<_> = site_links
        .into_iter()
        .enumerate()
        .map(|(site, link)| {
            let mut half = SiteHalf::new(proto.build_site(seed, site), link);
            std::thread::spawn(move || {
                for t in 0..per_site(site) {
                    half.feed(&t).unwrap();
                }
                half.finish_stream().unwrap();
                half.run_until_stop().unwrap();
            })
        })
        .collect();
    coord.pump_until_eos().unwrap();
    coord.quiesce().unwrap();
    let halves_est = coord.coord().estimate();
    coord.stop().unwrap();
    for h in sites {
        h.join().unwrap();
    }
    let (_, halves_stats) = coord.into_parts();

    assert_eq!(runtime_est.to_bits(), halves_est.to_bits());
    let cost = |s: &dtrack::sim::CommStats| {
        (
            [s.up_msgs, s.up_words, s.up_bytes],
            [s.down_msgs, s.down_words, s.down_bytes],
        )
    };
    assert_eq!(cost(&runtime_stats), cost(&halves_stats));
    assert!(runtime_stats.up_msgs > 0);
    assert_eq!(runtime_stats.elements, (0..k).map(per_site).sum::<u64>());
}

/// Windows over sockets: `Windowed<RandomizedCount>` as `SiteHalf`s and
/// a `CoordHalf` over loopback TCP (k = 4, W = 4 096, 10 000 elements per
/// site), quiesced, answers the last `W` within ε as a mean over 20
/// seeds. Each site stamps its seal acks with the elements it consumed,
/// so a bucket closes where its sites switched however the socket
/// streams interleave.
///
/// Release-gated like the channel runtime's 20-seed window test.
#[test]
#[cfg_attr(debug_assertions, ignore = "20 socket runs; covered by release CI")]
fn windowed_count_over_sockets_mean_error_within_epsilon_over_20_seeds() {
    use dtrack::core::window::Windowed;
    use dtrack::sim::{CoordHalf, Protocol, SiteHalf, TcpCoordLink, TcpSiteLink};
    use dtrack_bench::measure::assert_mean_error_le_eps;
    use std::net::TcpListener;

    let (k, eps, w, per_site) = (4usize, 0.1, 4_096u64, 10_000u64);
    let proto = Windowed::new(RandomizedCount::new(TrackingConfig::new(k, eps)), w);
    assert_mean_error_le_eps("windowed count over sockets", eps, 20, |seed| {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sites: Vec<_> = (0..k)
            .map(|id| {
                let site = proto.build_site(seed, id);
                std::thread::spawn(move || {
                    let mut half = SiteHalf::new(site, TcpSiteLink::connect(addr, id).unwrap());
                    for t in 0..per_site {
                        half.feed(&t).unwrap();
                    }
                    half.finish_stream().unwrap();
                    half.run_until_stop().unwrap();
                })
            })
            .collect();
        let link = TcpCoordLink::accept(&listener, k).unwrap();
        let mut coord = CoordHalf::new(proto.build_coord(seed), link);
        coord.pump_until_eos().unwrap();
        coord.quiesce().unwrap();
        let est = coord.coord().windowed_count();
        coord.stop().unwrap();
        for h in sites {
            h.join().unwrap();
        }
        (est - w as f64).abs() / w as f64
    });
}
