//! The benchmark's contract in code: metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repository root is
//! this table serialized (`dtrack-benchmark spec` prints it; a test
//! holds the committed file to it).

use crate::for_each_protocol;
use crate::json::Value;
use crate::proto::Tracked;
use crate::workloads::WORKLOADS;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 18;

/// One metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
}

fn e2e(name: &str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound: Some(bound),
    }
}

fn layer(name: impl Into<String>, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics: every workload reports every one, measured
/// with the span recorder off. `README.md` says what each means on each
/// workload. The timed metrics carry the widest bound the contract
/// allows because the shared host this runs on has slow phases of
/// minutes in which everything reads 20–30 % slow (`README.md`,
/// "Steadiness"); the exact ones vary only with the seed, by 5 % at
/// most.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        e2e("setup_s", "s", "lower", 0.25),
        e2e("elems_per_s", "elem/s", "higher", 0.25),
        e2e("cpu_ns_per_elem", "ns", "lower", 0.25),
        e2e("words_per_kelem", "words/kelem", "lower", 0.10),
        e2e("bytes_per_kelem", "bytes/kelem", "lower", 0.10),
    ]
}

/// Protocol names in metric names, in table order.
pub fn protocols() -> Vec<&'static str> {
    let mut names = Vec::with_capacity(7);
    for_each_protocol!(P => names.push(<P as Tracked>::NAME));
    names
}

/// The per-layer metrics: every traced run reports every one. The
/// `exec.*` and `trace.*` groups come from the traced pass of the
/// workload itself; every other group is a layer cell of fixed size,
/// the same whichever workload the run is for.
pub fn per_layer() -> Vec<Metric> {
    let mut m = vec![
        // sketch — isolated insert / update loops.
        layer("sketch.gk.insert_ns", "ns", "lower"),
        layer("sketch.gk.tuples", "count", "lower"),
        layer("sketch.kll.insert_ns", "ns", "lower"),
        layer("sketch.kll.summary_ns", "ns", "lower"),
        layer("sketch.sticky.observe_ns", "ns", "lower"),
        layer("sketch.fastmap.upsert_ns", "ns", "lower"),
        layer("rng.geometric_trial_ns", "ns", "lower"),
    ];
    // core — the traced lock-step loop, one cell per protocol.
    for p in protocols() {
        m.push(layer(format!("core.{p}.site_step_ns"), "ns", "lower"));
        m.push(layer(format!("core.{p}.coord_step_ns"), "ns", "lower"));
        // One-way deterministic count has no downs at all.
        if p != "count_det" {
            m.push(layer(format!("core.{p}.site_down_ns"), "ns", "lower"));
            m.push(layer(
                format!("core.{p}.downs_per_kelem"),
                "msgs/kelem",
                "lower",
            ));
        }
        m.push(layer(
            format!("core.{p}.ups_per_kelem"),
            "msgs/kelem",
            "lower",
        ));
        m.push(layer(
            format!("core.{p}.words_per_kelem"),
            "words/kelem",
            "lower",
        ));
        m.push(layer(
            format!("core.{p}.lockstep_elems_per_s"),
            "elem/s",
            "higher",
        ));
    }
    m.extend([
        layer("core.count.rand_over_det_words", "ratio", "lower"),
        layer("core.freq.rand_over_det_words", "ratio", "lower"),
        layer("core.rank.rand_over_det_words", "ratio", "lower"),
        layer("core.err_p90_over_eps", "ratio", "lower"),
        // runner / exec::event
        layer("runner.overhead_share", "share", "lower"),
        layer(
            "event.instant_over_runner_time.count_rand",
            "ratio",
            "lower",
        ),
        layer("event.instant_over_runner_time.rank_rand", "ratio", "lower"),
        // wire — isolated codec cells and the measure share of the
        // traced rank_det cell.
        layer("wire.encode_mb_per_s.small", "MB/s", "higher"),
        layer("wire.encode_mb_per_s.large", "MB/s", "higher"),
        layer("wire.decode_mb_per_s.small", "MB/s", "higher"),
        layer("wire.decode_mb_per_s.large", "MB/s", "higher"),
        layer("wire.measured_ns_per_msg.small", "ns", "lower"),
        layer("wire.measured_ns_per_msg.large", "ns", "lower"),
        layer("wire.bytes_over_8words.large", "ratio", "lower"),
        layer("wire.frame_write_read_mb_per_s", "MB/s", "higher"),
        layer("wire.measure_share", "share", "lower"),
        // ring
        layer("ring.spsc.push_pop_ns", "ns", "lower"),
        layer("ring.spsc.push_many_ns_per_elem", "ns", "lower"),
        layer("ring.spsc.xthread_elems_per_s", "elem/s", "higher"),
        layer("ring.mpsc.send_recv_ns", "ns", "lower"),
        layer("ring.wake.park_wake_us", "us", "lower"),
        // snapshot — isolated, then beside a small channel ingest.
        layer("snapshot.publish_ns.small", "ns", "lower"),
        layer("snapshot.publish_ns.large", "ns", "lower"),
        layer("snapshot.read_ns.idle", "ns", "lower"),
        layer("snapshot.read_p50_ns", "ns", "lower"),
        layer("snapshot.read_p99_ns", "ns", "lower"),
        layer("snapshot.epochs_per_s", "1/s", "higher"),
        layer("snapshot.queries_per_s", "reads/s", "higher"),
        // runtime — spans around ChannelRuntime's public calls on two
        // small jobs (batch and per-element).
        layer("runtime.build_ms", "ms", "lower"),
        layer("runtime.feed_batch_ns_per_elem", "ns", "lower"),
        layer("runtime.feed_ns_per_elem", "ns", "lower"),
        layer("runtime.final_quiesce_ms", "ms", "lower"),
        layer("runtime.quiesce_rounds", "count", "lower"),
        layer("runtime.cpu_over_wall", "ratio", "lower"),
        layer("runtime.words_per_kelem", "words/kelem", "lower"),
        layer("runtime.shutdown_ms", "ms", "lower"),
        layer("runtime.flush_p50_us", "us", "lower"),
        layer("runtime.flush_p90_us", "us", "lower"),
        // transport — the socket job at small size over TCP and over
        // the in-process links.
        layer("transport.inproc.elems_per_s", "elem/s", "higher"),
        layer("transport.tcp_over_inproc_time", "ratio", "lower"),
        layer("transport.tcp.connect_accept_ms", "ms", "lower"),
        layer("transport.tcp.site_feed_ns_per_elem.count", "ns", "lower"),
        layer("transport.tcp.site_feed_ns_per_elem.rank", "ns", "lower"),
        layer("transport.tcp.pump_until_eos_s", "s", "lower"),
        layer("transport.tcp.quiesce_ms", "ms", "lower"),
        layer("transport.tcp.quiesce_rounds", "count", "lower"),
        layer("transport.tcp.stop_join_ms", "ms", "lower"),
        layer("transport.tcp.frame_rtt_us", "us", "lower"),
        layer("transport.tcp.wire_mb_per_s", "MB/s", "higher"),
        // workload generators
        layer("workload.gen_ns_per_arrival.zipf", "ns", "lower"),
        layer("workload.gen_ns_per_arrival.distinct", "ns", "lower"),
        layer("trace.span_cost_ns", "ns", "lower"),
        // exec — the workload's own traced pass, at the executor
        // boundary the harness calls across.
        layer("exec.build_ms", "ms", "lower"),
        layer("exec.feed_ns_per_elem", "ns", "lower"),
        layer("exec.answer_us", "us", "lower"),
        layer("exec.cpu_over_wall", "ratio", "lower"),
        layer("exec.peak_rss_mb", "MiB", "lower"),
        layer("exec.words_per_kelem", "words/kelem", "lower"),
        layer("exec.flush_p50_us", "us", "lower"),
        layer("exec.flush_hi_us", "us", "lower"),
        layer("exec.flush_hi_pct", "%", "higher"),
        layer("exec.err_p90_over_eps", "ratio", "lower"),
        layer("exec.err_max_over_eps", "ratio", "lower"),
        layer("trace.overhead_share", "share", "lower"),
        layer("trace.spans", "count", "lower"),
    ]);
    m
}

/// One line per workload on why it is in the benchmark.
pub fn workload_why(name: &str) -> &'static str {
    match name {
        "lockstep_count_freq" => {
            "count and frequency protocols on the single-threaded Runner: core site step, rng and \
             sticky/hash sketches do all the work; ring, snapshot, framing and sockets do none"
        }
        "lockstep_rank" => {
            "rank protocols on the Runner: GK/KLL summaries, the coordinator merge and \
             wire_bytes() re-encoding dominate; rank_det ships hundreds of words per element"
        }
        "channel_batch" => {
            "ChannelRuntime bulk ingest via feed_batch with no query handle: ring push_many, \
             credit gate and apply loop; bypasses snapshot publishing and the wire codec"
        }
        "channel_feed" => {
            "the same rings one push and one wake per element, probed every 2^16 arrivals: a \
             batch-path win that costs the per-element path, and fed-to-answerable latency, show here"
        }
        "channel_query" => {
            "freq_rand ingest beside one closed-loop QueryHandle reader: snapshot publish (cloning \
             a large coordinator) and hazard-pointer reads work here and nowhere else"
        }
        "socket_loopback" => {
            "two SiteHalf threads and a CoordHalf over 127.0.0.1 TCP, smallest and largest \
             messages: the only workload where framing, TCP links and the ping/pong barrier run"
        }
        _ => "",
    }
}

/// `BENCHMARK.json`, exactly as committed at the repository root.
pub fn benchmark_json() -> String {
    let metric = |m: &Metric| {
        let mut pairs = vec![
            ("name", Value::Str(m.name.clone())),
            ("unit", Value::Str(m.unit.into())),
            ("better", Value::Str(m.better.into())),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Value::Num(b)));
        }
        Value::obj(pairs)
    };
    let rows = |items: Vec<Value>| {
        let body: Vec<String> = items
            .iter()
            .map(|v| format!("    {}", v.to_json()))
            .collect();
        format!("[\n{}\n  ]", body.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            Value::obj([
                ("name", Value::Str((*w).into())),
                ("why", Value::Str(workload_why(w).into())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        rows(workloads),
        rows(end_to_end().iter().map(metric).collect()),
        rows(per_layer().iter().map(metric).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        let (e, l) = (end_to_end(), per_layer());
        assert!((1..=16).contains(&e.len()) && (1..=128).contains(&l.len()));
        let mut names: Vec<&str> = e.iter().chain(&l).map(|m| m.name.as_str()).collect();
        names.extend(WORKLOADS);
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in e.iter().chain(&l) {
            assert!(m.unit.len() <= 16 && matches!(m.better, "lower" | "higher"));
            assert!(m.unit.bytes().all(
                |b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')
            ));
        }
        assert!(e.iter().all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        let setup = e.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(WORKLOADS.iter().all(|w| {
            let why = workload_why(w);
            !why.is_empty() && why.len() <= 200 && !why.contains('\n')
        }));
    }

    #[test]
    fn benchmark_json_parses_and_has_exactly_the_contract_keys() {
        let text = benchmark_json();
        assert!(text.len() < 64 * 1024);
        let v = parse(&text).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(v.get("workloads").unwrap().as_arr().unwrap().len(), 6);
    }
}
