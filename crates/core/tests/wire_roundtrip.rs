//! Property tests of the wire codec over every protocol message type:
//! `decode ∘ encode = id` on arbitrary (invariant-respecting) values,
//! and the measured byte accounting ([`Words::wire_bytes`]) equals the
//! actual encoded length — the executors charge exactly what a socket
//! would carry. `wire_bytes` is a counting pass over the same `Encode`
//! impl that `encode_to_vec` stores (`dtrack_sim::wire::measured`), so
//! the equality is checked for all 12 codecs: the 11 protocol message
//! types below plus the scalar / tuple / `Vec` / `Option` building
//! blocks ad-hoc messages are made of. The same pass counts the words,
//! and `every_message_variant_costs_its_fields` states what each
//! variant costs.
//!
//! The generators respect the codecs' structural invariants — GK
//! tuple values and KLL level items are sorted (both codecs
//! delta-compress sorted runs), and a rank batch's count is its tuple
//! weights' sum (the decoder derives it) — because the protocols only
//! ever ship such values; arbitrary *bytes* are exercised separately by
//! the corruption suites in `dtrack_sim::wire` and the transport framing
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
    // The decoder derives `n_local` as `Σg`, so the generator keeps
    // `Σg = n_local`.
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
    let summary =
        proptest::collection::vec(sorted_run(16), 0..6).prop_map(|levels| KllSummary { levels });
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
            summary: KllSummary { levels },
        };
        roundtrip(&m);
        roundtrip(&WinUp::Inner { epoch: 1, msg: m });
    }
}

/// A batch's count is its tuple weights' sum, so weights that overflow
/// `u64` are rejected, not wrapped into a small count.
#[test]
fn det_rank_up_rejects_overflowing_weights() {
    let tuple = |v, g| GkTuple { v, g, delta: 0 };
    let m = DetRankUp::Summary {
        round: 0,
        n_local: 0,
        tuples: vec![tuple(1, u64::MAX), tuple(2, 1)],
    };
    let bytes = encode_to_vec(&m);
    assert_eq!(decode_exact::<DetRankUp>(&bytes), Err(WireError::Overflow));
}

/// What each variant of every protocol message costs in the paper's
/// words: one per integer or element it carries, none for a tag, and at
/// least one. `t` is a rank batch's tuples; a KLL summary costs its
/// level count, then one length per level and one word per stored item.
#[test]
fn every_message_variant_costs_its_fields() {
    let tuples = |t: u64| {
        (0..t)
            .map(|v| GkTuple { v, g: 1, delta: 0 })
            .collect::<Vec<_>>()
    };
    let batch = |t: u64| DetRankUp::Summary {
        round: 3,
        n_local: t,
        tuples: tuples(t),
    };
    let node = |levels: Vec<Vec<u64>>| RankUp::Summary {
        chunk: 1,
        level: 2,
        summary: KllSummary { levels },
    };
    #[rustfmt::skip]
    let rows = [
        ("()", ().words(), 1),
        ("DetCountUp", DetCountUp(7).words(), 1),
        ("CountUp::Coarse", CountUp::Coarse(7).words(), 1),
        ("CountUp::Report", CountUp::Report(7).words(), 1),
        ("CountUp::Adjusted", CountUp::Adjusted(7).words(), 1),
        ("NewRound", NewRound { n_bar: 7 }.words(), 1),
        ("SampleUp", SampleUp { item: 7, level: 2 }.words(), 2),
        ("LevelDown", LevelDown(2).words(), 1),
        ("DetFreqUp::Coarse", DetFreqUp::Coarse(7).words(), 1),
        ("DetFreqUp::Counter", DetFreqUp::Counter(7, 9).words(), 2),
        ("FreqUp::Coarse", FreqUp::Coarse(7).words(), 1),
        ("FreqUp::CounterNew", FreqUp::CounterNew(7).words(), 1),
        ("FreqUp::CounterUpdate", FreqUp::CounterUpdate(7, 9).words(), 2),
        ("FreqUp::Sample", FreqUp::Sample(7).words(), 1),
        ("FreqUp::VirtualSplit", FreqUp::VirtualSplit.words(), 1),
        ("FreqUp::RoundAck", FreqUp::RoundAck(7).words(), 1),
        ("DetRankUp::Coarse", DetRankUp::Coarse(7).words(), 1),
        ("DetRankUp::Summary, t 0", batch(0).words(), 2),
        ("DetRankUp::Summary, t 1", batch(1).words(), 2 + 3),
        ("DetRankUp::Summary, t 5", batch(5).words(), 2 + 3 * 5),
        ("RankUp::Coarse", RankUp::Coarse(7).words(), 1),
        ("RankUp::ChunkStart", RankUp::ChunkStart { chunk: 1, n_bar: 7 }.words(), 2),
        ("RankUp::Sample", RankUp::Sample { chunk: 1, value: 7 }.words(), 2),
        ("RankUp::Summary, no levels", node(vec![]).words(), 3),
        ("RankUp::Summary, 3 levels, 3 stored", node(vec![vec![1, 2], vec![], vec![5]]).words(), 3 + 3 + 3),
        ("WinDown::Seal", WinDown::<NewRound>::Seal { next: 4 }.words(), 1),
        ("WinDown::Inner", WinDown::Inner { epoch: 4, msg: NewRound { n_bar: 7 } }.words(), 1 + 1),
        ("WinUp::Tick", WinUp::<FreqUp>::Tick.words(), 1),
        ("WinUp::SealAck", WinUp::<FreqUp>::SealAck { at: 9 }.words(), 1),
        ("WinUp::Inner, CounterUpdate", WinUp::Inner { epoch: 4, msg: FreqUp::CounterUpdate(7, 9) }.words(), 1 + 2),
        ("WinUp::Inner, t 2", WinUp::Inner { epoch: 4, msg: batch(2) }.words(), 1 + 2 + 3 * 2),
        ("WinUp::Inner, VirtualSplit", WinUp::Inner { epoch: 4, msg: FreqUp::VirtualSplit }.words(), 1),
    ];
    for (variant, got, want) in rows {
        assert_eq!(got, want, "{variant}");
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
