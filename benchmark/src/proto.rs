//! The seven Table-1 protocols behind one driving interface, the input
//! streams the workloads feed them, and the exact oracle their answers
//! are scored against.

use dtrack_core::count::{DeterministicCount, RandomizedCount};
use dtrack_core::frequency::{DeterministicFrequency, RandomizedFrequency};
use dtrack_core::rank::{DeterministicRank, RandomizedRank};
use dtrack_core::sampling::ContinuousSampling;
use dtrack_core::TrackingConfig;
use dtrack_sim::rng::rng_from_seed;
use dtrack_sim::{Decode, Encode, Protocol, Site};
use dtrack_workload::{DistinctSeq, SiteAssign, UniformSites, Workload, ZipfItems};

/// What a protocol tracks, which decides the oracle and the probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Count,
    Freq,
    Rank,
}

/// A Table-1 protocol as the benchmark drives it: build from `(k, ε)`,
/// ask the coordinator one question. The supertrait bounds are what the
/// threaded and socket executors need, stated once.
pub trait Tracked:
    Protocol<
        Site: Site<
            Item = u64,
            Up: Encode + Decode + Send + 'static,
            Down: Encode + Decode + Send + 'static,
        > + Send
                  + 'static,
        Coord: Clone + Send + Sync + 'static,
    > + Copy
    + Send
    + Sync
    + 'static
{
    /// Name used in metric names (`core.<NAME>.…`).
    const NAME: &'static str;
    const KIND: Kind;
    /// Randomized protocols promise `εn` with probability 0.9, the
    /// deterministic baselines always.
    const RANDOMIZED: bool;

    fn make(cfg: TrackingConfig) -> Self;

    /// The tracked estimate: of `n` (count; `probe` ignored), of the
    /// frequency of item `probe`, or of the rank of value `probe`.
    fn answer(coord: &Self::Coord, probe: u64) -> f64;
}

macro_rules! tracked {
    ($ty:ty, $name:literal, $kind:ident, $rand:literal, |$c:ident, $p:ident| $answer:expr) => {
        impl Tracked for $ty {
            const NAME: &'static str = $name;
            const KIND: Kind = Kind::$kind;
            const RANDOMIZED: bool = $rand;
            fn make(cfg: TrackingConfig) -> Self {
                <$ty>::new(cfg)
            }
            fn answer($c: &Self::Coord, $p: u64) -> f64 {
                $answer
            }
        }
    };
}

tracked!(RandomizedCount, "count_rand", Count, true, |c, _p| c
    .estimate());
tracked!(DeterministicCount, "count_det", Count, false, |c, _p| c
    .estimate());
tracked!(ContinuousSampling, "count_samp", Count, true, |c, _p| c
    .estimate_count());
tracked!(RandomizedFrequency, "freq_rand", Freq, true, |c, p| c
    .estimate_frequency(p));
tracked!(DeterministicFrequency, "freq_det", Freq, false, |c, p| c
    .estimate_frequency(p));
tracked!(RandomizedRank, "rank_rand", Rank, true, |c, p| c
    .estimate_rank(p));
tracked!(DeterministicRank, "rank_det", Rank, false, |c, p| c
    .estimate_rank(p));

/// Run `$body` once per protocol with `$P` bound to its type, in the
/// fixed order the metric tables use.
#[macro_export]
macro_rules! for_each_protocol {
    ($P:ident => $body:expr) => {{
        {
            type $P = dtrack_core::count::RandomizedCount;
            $body;
        }
        {
            type $P = dtrack_core::count::DeterministicCount;
            $body;
        }
        {
            type $P = dtrack_core::sampling::ContinuousSampling;
            $body;
        }
        {
            type $P = dtrack_core::frequency::RandomizedFrequency;
            $body;
        }
        {
            type $P = dtrack_core::frequency::DeterministicFrequency;
            $body;
        }
        {
            type $P = dtrack_core::rank::RandomizedRank;
            $body;
        }
        {
            type $P = dtrack_core::rank::DeterministicRank;
            $body;
        }
    }};
}

/// Zipf skew and domain of every frequency stream (the repository's
/// standard frequency workload).
pub const ZIPF_S: f64 = 1.1;
pub const ZIPF_DOMAIN: u64 = 10_000;

/// Truth tables are kept at multiples of this many arrivals; every
/// checkpoint position is a multiple of it.
pub const GRAIN: usize = 512;

/// An input stream: one pre-generated chunk of `(site, item)` arrivals,
/// fed `cycles` times. Everything derives from the seed.
#[derive(Debug, Clone)]
pub struct Stream {
    pub kind: Kind,
    pub k: usize,
    pub chunk: Vec<(usize, u64)>,
    pub cycles: u64,
    /// What is asked at every checkpoint; the first probe is also the
    /// one whose answer time is the flush sample.
    pub probes: Vec<u64>,
}

impl Stream {
    /// Total arrivals.
    pub fn n(&self) -> u64 {
        self.chunk.len() as u64 * self.cycles
    }

    /// The largest chunk of at most `chunk_len` arrivals (a power of
    /// two) that tiles `n`.
    fn shape(chunk_len: usize, n: u64) -> (usize, u64) {
        assert!(chunk_len.is_power_of_two(), "chunk length must be 2^j");
        let mut chunk_len = chunk_len;
        while chunk_len as u64 > n || !n.is_multiple_of(chunk_len as u64) {
            chunk_len /= 2;
        }
        assert!(
            chunk_len >= GRAIN,
            "stream of {n} arrivals does not tile into chunks of at least {GRAIN}"
        );
        (chunk_len, n / chunk_len as u64)
    }

    /// Count stream: uniform sites, the item is the position (count
    /// sites ignore it).
    pub fn count(k: usize, chunk_len: usize, n: u64, seed: u64) -> Self {
        let (chunk_len, cycles) = Self::shape(chunk_len, n);
        let mut rng = rng_from_seed(seed);
        let mut sites = UniformSites::new(k);
        let chunk = (1..=chunk_len as u64)
            .map(|t| (sites.next_site(&mut rng), t))
            .collect();
        Self {
            kind: Kind::Count,
            k,
            chunk,
            cycles,
            probes: vec![0],
        }
    }

    /// Frequency stream: Zipf(1.1) items over a 10⁴ domain, uniform
    /// sites. Probes: the two hottest items, a mid-rank one and an
    /// absent one.
    pub fn zipf(k: usize, chunk_len: usize, n: u64, seed: u64) -> Self {
        let (chunk_len, cycles) = Self::shape(chunk_len, n);
        let chunk = Workload::new(
            ZipfItems::new(ZIPF_DOMAIN, ZIPF_S),
            UniformSites::new(k),
            chunk_len as u64,
            seed,
        )
        .map(|a| (a.site, a.item))
        .collect();
        Self {
            kind: Kind::Freq,
            k,
            chunk,
            cycles,
            probes: vec![0, 1, 40, ZIPF_DOMAIN + 7],
        }
    }

    /// Rank stream: `n` distinct items in scrambled order (no cycling —
    /// rank tracking assumes no duplicates), uniform sites. The items
    /// are a bijection of the 64-bit integers, so the probes are three
    /// evenly spaced values of that range (≈ the quartiles; a rank
    /// query costs tens of microseconds, so more would turn the
    /// workload into a query benchmark).
    pub fn distinct(k: usize, n: u64, seed: u64) -> Self {
        let (chunk_len, cycles) = Self::shape((n as usize).next_power_of_two(), n);
        let chunk = Workload::new(
            DistinctSeq::new(seed ^ 0xBEEF),
            UniformSites::new(k),
            chunk_len as u64,
            seed,
        )
        .map(|a| (a.site, a.item))
        .collect();
        Self {
            kind: Kind::Rank,
            k,
            chunk,
            cycles,
            probes: (1..4u64).map(|q| q * (u64::MAX / 4)).collect(),
        }
    }

    /// Site `site`'s own sub-stream of one chunk, in arrival order (the
    /// socket workload's sites each feed theirs).
    pub fn site_chunk(&self, site: usize) -> Vec<u64> {
        self.chunk
            .iter()
            .filter(|(s, _)| *s == site)
            .map(|&(_, item)| item)
            .collect()
    }
}

/// Exact answers at every multiple of [`GRAIN`] arrivals, built from the
/// stream alone, outside every timed region.
#[derive(Debug)]
pub struct Oracle {
    kind: Kind,
    chunk_len: usize,
    /// `prefix[p][i]` = exact answer for probe `p` after `i·GRAIN`
    /// arrivals of one chunk.
    prefix: Vec<Vec<u64>>,
}

impl Oracle {
    pub fn build(stream: &Stream) -> Self {
        let matches = |item: u64, probe: u64| match stream.kind {
            Kind::Count => true,
            Kind::Freq => item == probe,
            Kind::Rank => item < probe,
        };
        let prefix = stream
            .probes
            .iter()
            .map(|&probe| {
                let mut acc = 0u64;
                let mut col = Vec::with_capacity(stream.chunk.len() / GRAIN + 1);
                col.push(0);
                for block in stream.chunk.chunks(GRAIN) {
                    acc += block.iter().filter(|&&(_, it)| matches(it, probe)).count() as u64;
                    col.push(acc);
                }
                col
            })
            .collect();
        Self {
            kind: stream.kind,
            chunk_len: stream.chunk.len(),
            prefix,
        }
    }

    /// The exact answer to probe number `probe` after `m` arrivals.
    pub fn truth(&self, probe: usize, m: u64) -> u64 {
        assert!(
            m.is_multiple_of(GRAIN as u64),
            "checkpoint {m} is not a multiple of {GRAIN}"
        );
        if self.kind == Kind::Count {
            return m;
        }
        let col = &self.prefix[probe];
        let (full, rest) = (m / self.chunk_len as u64, m % self.chunk_len as u64);
        full * col[col.len() - 1] + col[rest as usize / GRAIN]
    }
}

/// One answer read from a coordinator: probe number `probe` asked after
/// `m` arrivals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    pub probe: u8,
    pub m: u64,
    pub est: f64,
}

/// A randomized protocol's lock-step answer counts as failed beyond this
/// many `εn` (the guarantee is `εn` with probability 0.9 per instant; at
/// 4× a correct protocol essentially never lands).
pub const RANDOMIZED_FAIL_AT: f64 = 4.0;

/// The same limit for a thread-timed run. Off the paper's
/// instant-delivery model there is no theorem: three ten-run sets saw
/// one quiesced `freq_rand` answer at 4.3 `εn` among ~13 000. The limit
/// is a backstop against a broken estimator, not a guarantee; the
/// ratios themselves are reported (`exec.err_*`).
pub const RANDOMIZED_FAIL_AT_THREADED: f64 = 16.0;

/// Checks attempted and failed, and the `|err|/(εn)` ratios behind them.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the human reader.
    pub notes: Vec<String>,
    /// `|err|/(εn)` of every scored answer of a randomized protocol.
    pub ratios_rand: Vec<f64>,
    /// Largest `|err|/(εn)` over all scored answers.
    pub ratio_max: f64,
}

impl Checks {
    /// Record one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Score answers of protocol `P` against the oracle: deterministic
    /// answers must be within `εm`, randomized ones within `4εm`
    /// (`16εm` when `threaded`), and every answer finite.
    pub fn score<P: Tracked>(
        &mut self,
        eps: f64,
        oracle: &Oracle,
        answers: &[Answer],
        threaded: bool,
    ) {
        let limit = match (P::RANDOMIZED, threaded) {
            (false, _) => 1.0 + 1e-9,
            (true, false) => RANDOMIZED_FAIL_AT,
            (true, true) => RANDOMIZED_FAIL_AT_THREADED,
        };
        for a in answers {
            let truth = oracle.truth(a.probe as usize, a.m) as f64;
            let ratio = (a.est - truth).abs() / (eps * a.m as f64);
            if P::RANDOMIZED {
                self.ratios_rand.push(ratio);
            }
            if ratio.is_finite() {
                self.ratio_max = self.ratio_max.max(ratio);
            }
            self.check(ratio <= limit, || {
                format!(
                    "{}: probe {} after {} arrivals answered {} (truth {truth}, {ratio:.3} εn)",
                    P::NAME,
                    a.probe,
                    a.m,
                    a.est
                )
            });
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
        self.ratios_rand.extend(other.ratios_rand);
        self.ratio_max = self.ratio_max.max(other.ratio_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_counts_prefixes_across_cycles() {
        let s = Stream::zipf(4, 2048, 8192, 3);
        assert_eq!((s.chunk.len(), s.cycles, s.n()), (2048, 4, 8192));
        let o = Oracle::build(&s);
        let in_chunk = s.chunk.iter().filter(|&&(_, it)| it == 0).count() as u64;
        assert!(in_chunk > 0);
        assert_eq!(o.truth(0, 2048), in_chunk);
        assert_eq!(o.truth(0, 8192), 4 * in_chunk);
        let first_block = s.chunk[..512].iter().filter(|&&(_, it)| it == 0).count() as u64;
        assert_eq!(o.truth(0, 2048 + 512), in_chunk + first_block);
        // The absent probe is never seen.
        assert_eq!(o.truth(3, 8192), 0);
    }

    #[test]
    fn rank_truth_counts_smaller_items() {
        let s = Stream::distinct(2, 4096, 9);
        let o = Oracle::build(&s);
        let below = s.chunk.iter().filter(|&&(_, it)| it < s.probes[1]).count() as u64;
        assert_eq!(o.truth(1, 4096), below);
        // ≈ the median of a scrambled bijection.
        assert!((1600..2500).contains(&below));
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(
            Stream::zipf(8, 1024, 1024, 5).chunk,
            Stream::zipf(8, 1024, 1024, 5).chunk
        );
        assert_ne!(
            Stream::zipf(8, 1024, 1024, 5).chunk,
            Stream::zipf(8, 1024, 1024, 6).chunk
        );
    }
}
