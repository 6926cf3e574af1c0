//! Property tests of the wire codec over every protocol message type:
//! `decode ∘ encode = id` on arbitrary (invariant-respecting) values,
//! and the measured byte accounting ([`Words::wire_bytes`]) equals the
//! actual encoded length — the executors charge exactly what a socket
//! would carry. `wire_bytes` is a counting pass over the same `Encode`
//! impl that `encode_to_vec` stores (`dtrack_sim::wire::measured`, the
//! trait's default, which no message overrides), so the equality is
//! checked for all 12 codecs: the 11 protocol message types below plus
//! the scalar / tuple / `Vec` / `Option` building blocks ad-hoc messages
//! are made of.
//!
//! The generators respect the codecs' structural invariants — GK
//! tuple values and KLL level items are sorted (both codecs
//! delta-compress sorted runs), and a rank batch's tuple weights sum to
//! its count (its decoder checks that) — because the protocols only ever
//! ship such values; arbitrary *bytes* are exercised separately by the
//! corruption suites in `dtrack_sim::wire` and the transport framing
//! tests.
//!
//! The tree layer (`dtrack_sim::exec::topology`) re-speaks the inner
//! protocol's `Up`/`Down` types verbatim at every level, so these
//! round-trips cover it with no extra cases; the windowed adapter wraps
//! inner messages and is exercised here over a non-trivial inner codec.

use dtrack_core::coarse::NewRound;
use dtrack_core::count::{CountUp, DetCountUp};
use dtrack_core::frequency::{DetFreqUp, FreqUp};
use dtrack_core::rank::{DetRankUp, RankUp};
use dtrack_core::sampling::{LevelDown, SampleUp};
use dtrack_core::window::{WinDown, WinUp};
use dtrack_sim::wire::{decode_exact, encode_to_vec, WireError};
use dtrack_sim::{Decode, Encode, Words};
use dtrack_sketch::gk::GkTuple;
use dtrack_sketch::KllSummary;
use proptest::prelude::*;

/// The two properties every message type must satisfy.
fn roundtrip<T>(v: &T)
where
    T: Encode + Decode + Words + PartialEq + std::fmt::Debug,
{
    let bytes = encode_to_vec(v);
    assert_eq!(
        v.wire_bytes(),
        bytes.len() as u64,
        "wire_bytes must equal the real encoded length of {v:?}"
    );
    let back: T = decode_exact(&bytes).expect("decode of a fresh encoding");
    assert_eq!(&back, v, "decode ∘ encode != id");
}

/// Sorted values for delta runs (GK tuple values, KLL level items).
fn sorted_run(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 0..max_len).prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

fn count_up() -> impl Strategy<Value = CountUp> {
    prop_oneof![
        any::<u64>().prop_map(CountUp::Coarse),
        any::<u64>().prop_map(CountUp::Report),
        any::<u64>().prop_map(CountUp::Adjusted),
    ]
}

fn freq_up() -> impl Strategy<Value = FreqUp> {
    prop_oneof![
        any::<u64>().prop_map(FreqUp::Coarse),
        any::<u64>().prop_map(FreqUp::CounterNew),
        (any::<u64>(), any::<u64>()).prop_map(|(i, v)| FreqUp::CounterUpdate(i, v)),
        any::<u64>().prop_map(FreqUp::Sample),
        Just(FreqUp::VirtualSplit),
        any::<u64>().prop_map(FreqUp::RoundAck),
    ]
}

fn det_rank_up() -> impl Strategy<Value = DetRankUp> {
    let tuples = (
        sorted_run(40),
        proptest::collection::vec((0u64..1 << 40, 0u64..1 << 40), 0..40),
    )
        .prop_map(|(vs, gds)| {
            vs.into_iter()
                .zip(gds)
                .map(|(v, (g, delta))| GkTuple { v, g, delta })
                .collect::<Vec<_>>()
        });
    // The decoder rejects a summary whose weights do not sum to
    // `n_local`, so the generator keeps `Σg = n_local`.
    prop_oneof![
        any::<u64>().prop_map(DetRankUp::Coarse),
        (any::<u32>(), tuples).prop_map(|(round, tuples)| DetRankUp::Summary {
            round,
            n_local: tuples.iter().map(|t| t.g).sum(),
            tuples,
        }),
    ]
}

fn rank_up() -> impl Strategy<Value = RankUp> {
    let summary = (
        proptest::collection::vec(sorted_run(16), 0..6),
        any::<u64>(),
    )
        .prop_map(|(levels, n)| KllSummary { levels, n });
    prop_oneof![
        any::<u64>().prop_map(RankUp::Coarse),
        (any::<u32>(), any::<u64>()).prop_map(|(chunk, n_bar)| RankUp::ChunkStart { chunk, n_bar }),
        (any::<u32>(), any::<u64>()).prop_map(|(chunk, value)| RankUp::Sample { chunk, value }),
        (any::<u32>(), any::<u32>(), summary).prop_map(|(chunk, level, summary)| {
            RankUp::Summary {
                chunk,
                level,
                summary,
            }
        }),
    ]
}

/// The summaries the generators reach only by luck: no tuples / no
/// levels, a single tuple / item, empty levels between full ones, and
/// values at both ends of the varint range.
#[test]
fn empty_and_single_entry_summaries_measure_exactly() {
    let tuple = |v| GkTuple { v, g: 1, delta: 0 };
    for tuples in [
        vec![],
        vec![tuple(0)],
        vec![tuple(u64::MAX)],
        vec![tuple(7), tuple(7)],
    ] {
        let m = DetRankUp::Summary {
            round: 0,
            n_local: tuples.len() as u64,
            tuples,
        };
        roundtrip(&m);
        roundtrip(&WinUp::Inner { epoch: 1, msg: m });
    }
    for levels in [
        vec![],
        vec![vec![]],
        vec![vec![0]],
        vec![vec![u64::MAX]],
        vec![vec![], vec![], vec![3]],
        vec![vec![1, 2], vec![], vec![u64::MAX - 1, u64::MAX]],
    ] {
        let m = RankUp::Summary {
            chunk: 0,
            level: 0,
            summary: KllSummary { levels, n: 0 },
        };
        roundtrip(&m);
        roundtrip(&WinUp::Inner { epoch: 1, msg: m });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The generic building blocks (scalars, pairs, vectors, options).
    #[test]
    fn building_blocks(
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u32>(),
        pairs in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..20),
    ) {
        let signed = (a as i64, (b as i64).wrapping_neg());
        roundtrip(&signed);
        roundtrip(&(a, c));
        roundtrip(&(c as usize, a as f64));
        roundtrip(&pairs);
        roundtrip(&Some(pairs.clone()));
        roundtrip(&None::<u64>);
        roundtrip(&vec![(); pairs.len()]);
    }

    #[test]
    fn det_count_up(n in any::<u64>()) {
        roundtrip(&DetCountUp(n));
    }

    #[test]
    fn rand_count_up(m in count_up()) {
        roundtrip(&m);
    }

    /// The coarse tracker's round broadcast: the one down message of
    /// randomized count, frequency and rank and of deterministic
    /// frequency and rank.
    #[test]
    fn rand_count_down(n_bar in any::<u64>()) {
        roundtrip(&NewRound { n_bar });
    }

    #[test]
    fn det_freq_up(m in prop_oneof![
        any::<u64>().prop_map(DetFreqUp::Coarse),
        (any::<u64>(), any::<u64>()).prop_map(|(i, v)| DetFreqUp::Counter(i, v)),
    ]) {
        roundtrip(&m);
    }

    #[test]
    fn rand_freq_up(m in freq_up()) {
        roundtrip(&m);
    }

    #[test]
    fn det_rank_up_msgs(m in det_rank_up()) {
        roundtrip(&m);
    }

    /// A summary whose `n_local` no longer matches its tuple weights is
    /// rejected as inconsistent, not handed to a coordinator.
    #[test]
    fn det_rank_up_rejects_a_changed_count(m in det_rank_up(), shift in 1u64..1 << 20) {
        if let DetRankUp::Summary { round, n_local, tuples } = m {
            let changed = DetRankUp::Summary {
                round,
                n_local: n_local.wrapping_add(shift),
                tuples,
            };
            let bytes = encode_to_vec(&changed);
            prop_assert_eq!(
                decode_exact::<DetRankUp>(&bytes),
                Err(WireError::Inconsistent)
            );
        }
    }

    #[test]
    fn rand_rank_up(m in rank_up()) {
        roundtrip(&m);
    }

    #[test]
    fn sampling_up(item in any::<u64>(), level in any::<u32>()) {
        roundtrip(&SampleUp { item, level });
    }

    #[test]
    fn sampling_down(level in any::<u32>()) {
        roundtrip(&LevelDown(level));
    }

    /// The windowed adapter's codec composes over a non-trivial inner
    /// codec (randomized frequency, the protocol `network_monitor`
    /// deploys windowed).
    #[test]
    fn windowed_up(m in prop_oneof![
        Just(WinUp::Tick),
        any::<u64>().prop_map(|at| WinUp::SealAck { at }),
        (any::<u64>(), freq_up()).prop_map(|(epoch, msg)| WinUp::Inner { epoch, msg }),
    ]) {
        roundtrip(&m);
    }

    /// …and over the two summary-carrying rank messages.
    #[test]
    fn windowed_rank_up(epoch in any::<u64>(), det in det_rank_up(), rand in rank_up()) {
        roundtrip(&WinUp::Inner { epoch, msg: det });
        roundtrip(&WinUp::Inner { epoch, msg: rand });
    }

    #[test]
    fn windowed_down(m in prop_oneof![
        any::<u64>().prop_map(|next| WinDown::Seal { next }),
        (any::<u64>(), any::<u64>()).prop_map(|(epoch, n_bar)| WinDown::Inner {
            epoch,
            msg: NewRound { n_bar },
        }),
    ]) {
        roundtrip(&m);
    }

    /// Decoding must also reject every strict prefix of a valid
    /// encoding (truncation never yields a different valid message
    /// *plus* clean termination, thanks to `WireReader::finish`).
    #[test]
    fn truncated_prefixes_never_decode(m in det_rank_up()) {
        let bytes = encode_to_vec(&m);
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_exact::<DetRankUp>(&bytes[..cut]).is_err(),
                "prefix of length {cut} of {m:?} decoded"
            );
        }
    }
}
