//! Word/byte regression gate: a committed JSON baseline of words (and
//! codec bytes) per protocol/workload cell, and a `--check` comparator.
//!
//! The paper's cost model is communication, and on the lock-step executor
//! that count is deterministic — so the gate is machine-independent:
//! `perf_baseline` writes or checks words and bytes, identically on every
//! machine; `bash benchmark/run.sh` measures time. Nothing in this module
//! reads a clock.
//!
//! * [`measure_cells`] runs the protocol matrix through
//!   [`measure::run`](crate::measure::run), each scenario once per seed
//!   — the seven Table-1 protocol cells on their standard workloads, two
//!   sliding-window cells (count and frequency, lock-step executor) and
//!   one windowed cell on the *channel* runtime — and carves two panels
//!   out of those runs: **median words** per scenario, and the
//!   wire-format panel (`bytes/*`: total codec bytes of each lock-step
//!   scenario, advisory).
//! * [`measure_topology_cells`] runs the hierarchical-topology panel:
//!   the randomized count protocol on the flat star vs a binary
//!   depth-4 aggregation tree, recording root-load words **per level**
//!   (`topology/*` cells). Advisory by design — the panel watches the
//!   per-level load profile, not single words.
//! * Each [`Cell`] is `exact` or not. Lock-step words are deterministic
//!   given the seed set, so the comparator treats any drift as a **hard**
//!   regression. The channel cell's words depend on thread interleaving,
//!   so a single median would be a pretense of precision: the cell
//!   records a words **distribution** (min/median/max over
//!   [`INEXACT_SEEDS`] seeds) and the comparator checks the current
//!   median against that recorded range. Its drift is **advisory** —
//!   printed, but never failing the build.
//! * [`to_json`] / [`parse_json`] serialize the baseline without any
//!   external dependency: the format is a flat, versioned JSON document
//!   written and read only by this module.
//! * [`compare`] diffs a current run against the stored baseline into
//!   hard and advisory findings.
//!
//! Workflow: `cargo run --release -p dtrack-bench --bin perf_baseline`
//! rewrites `BENCH_baseline.json`; `… -- --check` exits non-zero on hard
//! findings only.

use dtrack_sim::{ExecConfig, ExecMode, TreeSpec};

use crate::measure::{median, run, Algo, Problem};

/// Baseline parameters of one measurement matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Stream length per cell.
    pub n: u64,
    /// Number of sites.
    pub k: usize,
    /// Error target.
    pub eps: f64,
    /// Seeds 0..seeds are run; medians are stored.
    pub seeds: u64,
}

impl Params {
    /// The default matrix: small enough for CI, large enough that the
    /// protocols leave their warm-up rounds.
    pub fn default_ci() -> Self {
        Self {
            n: 60_000,
            k: 16,
            eps: 0.05,
            seeds: 3,
        }
    }
}

/// Seeds measured for inexact (thread-timed) cells: enough to record a
/// meaningful min/median/max words distribution, independent of the
/// (smaller) exact-cell seed count.
pub const INEXACT_SEEDS: u64 = 5;

/// One measured cell: a protocol on its standard workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Stable identifier, e.g. `count/randomized`.
    pub id: String,
    /// Median total words over the seed set.
    pub words: u64,
    /// Whether `words` is deterministic given the seed set (true for
    /// every lock-step cell). Exact cells fail the check on any word
    /// drift; inexact cells (the channel-runtime cell) record a words
    /// distribution and are compared against it advisorily.
    pub exact: bool,
    /// Minimum words over the seed set. Only meaningful (persisted,
    /// compared) for inexact cells, where it is the low edge of the
    /// recorded distribution over [`INEXACT_SEEDS`] seeds. Exact cells
    /// also measure a per-seed spread here in memory, but their gate is
    /// the median alone: [`to_json`] omits their range and
    /// [`parse_json`] restores it degenerately at the median.
    pub words_min: u64,
    /// Maximum words over the seed set (see `words_min`).
    pub words_max: u64,
}

/// One cell from its per-seed `words` samples: median, min and max.
fn cell(id: String, exact: bool, words: Vec<u64>) -> Cell {
    Cell {
        id,
        exact,
        words_min: *words.iter().min().expect("≥1 seed"),
        words_max: *words.iter().max().expect("≥1 seed"),
        words: median(words),
    }
}

/// Run the protocol matrix — each scenario **once per seed** — and
/// return `(word cells, byte cells)`, both carved out of the same runs.
///
/// * **Word cells**, one per scenario: the seven Table-1 protocol cells,
///   two sliding-window cells on the lock-step executor, and the same
///   windowed count on the channel runtime. Lock-step cells are `exact`:
///   they run `p.seeds` seeds and gate on the median words. The channel
///   cell is not: it runs `max(p.seeds, INEXACT_SEEDS)` seeds and records
///   the min/max of its words distribution.
/// * **Byte cells** (`bytes/<id>`), one per lock-step scenario: total
///   **codec bytes** (`CommSpace::bytes` — every message's measured size
///   under `dtrack_sim::wire`) of the very same runs, in the cell's
///   `words` slot. They are **advisory** (`exact: false`) by design: the
///   byte totals are deterministic on the lock-step executor, but the
///   codec is an encoding choice, not protocol behavior — varint width
///   tuning or a tag reshuffle must not demand the hard-gate ritual
///   reserved for word (≡ algorithm) changes. The word cells stay the
///   proof obligation; these watch the bytes-per-word ratio against the
///   recorded range.
pub fn measure_cells(p: Params) -> (Vec<Cell>, Vec<Cell>) {
    use Algo::{Deterministic, Randomized, Sampling};
    use Problem::{Count, Frequency, Rank};
    let lockstep = ExecConfig::lockstep();
    // Sliding-window scenarios (window = n/4): words include the epoch
    // restarts and heartbeat/seal traffic, so these cells guard the
    // window subsystem's communication behavior. The frequency one pins
    // the corrected digest path: the −d/p corrections are
    // coordinator-local, so its words are exactly the pre-correction
    // words.
    let windowed = lockstep.windowed(p.n / 4);
    // The same windowed count on the thread-per-site channel runtime —
    // the measurement-grade concurrent path. Thread interleaving makes
    // its word count non-deterministic, so the cell is advisory: it
    // guards against order-of-magnitude communication blowups (e.g. a
    // seal storm), not single words.
    let channel = ExecConfig::channel().windowed(p.n / 4);
    let scenarios = [
        ("count/deterministic", lockstep, Count, Deterministic),
        ("count/randomized", lockstep, Count, Randomized),
        ("count/sampling", lockstep, Count, Sampling),
        (
            "frequency/deterministic",
            lockstep,
            Frequency,
            Deterministic,
        ),
        ("frequency/randomized", lockstep, Frequency, Randomized),
        ("rank/deterministic", lockstep, Rank, Deterministic),
        ("rank/randomized", lockstep, Rank, Randomized),
        ("count/windowed", windowed, Count, Randomized),
        ("frequency/windowed", windowed, Frequency, Randomized),
        ("window/channel", channel, Count, Randomized),
    ];
    let (mut word_cells, mut byte_cells) = (Vec::new(), Vec::new());
    for (id, exec, problem, algo) in scenarios {
        let exact = exec.mode == ExecMode::LockStep;
        let seeds = if exact {
            p.seeds
        } else {
            p.seeds.max(INEXACT_SEEDS)
        };
        let (mut words, mut bytes) = (Vec::new(), Vec::new());
        for seed in 0..seeds {
            let cost = run(exec, problem, algo, p.k, p.eps, p.n, seed).cost;
            words.push(cost.words);
            bytes.push(cost.bytes);
        }
        word_cells.push(cell(id.to_string(), exact, words));
        if exact {
            byte_cells.push(cell(format!("bytes/{id}"), false, bytes));
        }
    }
    (word_cells, byte_cells)
}

/// Fanout of the topology panel's tree: binary, so the default CI
/// `k = 16` yields a depth-4 tree (8/4/2 aggregators) with **three**
/// internal boundaries — enough levels that the per-level load profile
/// is a real curve, not a single point.
pub const TOPOLOGY_FANOUT: usize = 2;

/// Depth of the topology panel's tree (see [`TOPOLOGY_FANOUT`]).
pub const TOPOLOGY_DEPTH: usize = 4;

/// Measure the hierarchical-topology panel: the randomized count
/// protocol on the flat star vs a binary depth-[`TOPOLOGY_DEPTH`] tree,
/// recording the **root-load words per level** — `topology/flat_root`
/// (the flat star's root sees every word), `topology/leaf` (the tree's
/// leaf ↔ level-1 boundary, accounted by the executor), and
/// `topology/levelL` for each internal boundary (the highest level is
/// the tree's root load).
///
/// All cells are **advisory** (`exact: false`): the panel exists to
/// watch the load *profile* — a restream blow-up at some level — not to
/// hard-pin single words, and keeping it advisory means tuning the
/// ε-split or the replay cursors doesn't demand a lockstep
/// re-baseline. Like every advisory cell, `--check` compares words
/// against the recorded range.
pub fn measure_topology_cells(p: Params) -> Vec<Cell> {
    let flat = ExecConfig::lockstep();
    let tree = flat.with_tree(TreeSpec::new(TOPOLOGY_FANOUT).with_depth(TOPOLOGY_DEPTH));
    let count = |exec, seed| {
        run(
            exec,
            Problem::Count,
            Algo::Randomized,
            p.k,
            p.eps,
            p.n,
            seed,
        )
    };
    let seeds = p.seeds.max(INEXACT_SEEDS);
    // One flat run + one tree run per seed; every cell of the panel is
    // carved out of the same runs.
    let mut flat_words = Vec::new();
    let mut leaf_words = Vec::new();
    let mut level_words: Vec<Vec<u64>> = vec![Vec::new(); TOPOLOGY_DEPTH - 1];
    for seed in 0..seeds {
        flat_words.push(count(flat, seed).cost.words);
        let run = count(tree, seed);
        leaf_words.push(run.stats.total_words());
        assert_eq!(
            run.internal.len(),
            TOPOLOGY_DEPTH - 1,
            "topology panel expects a depth-{TOPOLOGY_DEPTH} tree"
        );
        for (l, load) in run.internal.iter().enumerate() {
            level_words[l].push(load.total_words());
        }
    }
    let mut cells = vec![
        cell("topology/flat_root".into(), false, flat_words),
        cell("topology/leaf".into(), false, leaf_words),
    ];
    for (l, words) in level_words.into_iter().enumerate() {
        cells.push(cell(format!("topology/level{}", l + 1), false, words));
    }
    cells
}

/// Schema version [`to_json`] writes and [`parse_json`] accepts. Version
/// 1 also carried wall-times and rates; those live in `benchmark/` now.
const VERSION: u32 = 2;

/// Serialize a baseline document.
pub fn to_json(p: Params, cells: &[Cell]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"version\": {VERSION},\n"));
    s.push_str(&format!(
        "  \"params\": {{\"n\": {}, \"k\": {}, \"eps\": {}, \"seeds\": {}}},\n",
        p.n, p.k, p.eps, p.seeds
    ));
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        // Exact cells are gated on their median alone (any drift there
        // is hard), so their per-seed spread is not persisted; inexact
        // cells persist their recorded words distribution.
        let range = if c.exact {
            String::new()
        } else {
            format!(
                ", \"words_min\": {}, \"words_max\": {}",
                c.words_min, c.words_max
            )
        };
        s.push_str(&format!(
            "    {{\"id\": \"{}\", \"words\": {}, \"exact\": {}{}}}{}\n",
            c.id,
            c.words,
            c.exact,
            range,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Extract the JSON value following `"key":` in `obj` (a flat object
/// slice produced by [`to_json`]). Returns the raw token up to the next
/// `,`, `}` or `]`.
fn field<'a>(obj: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\":");
    let start = obj
        .find(&pat)
        .ok_or_else(|| format!("missing field {key:?} in {obj:?}"))?
        + pat.len();
    let rest = obj[start..].trim_start();
    let end = rest
        .find([',', '}', ']'])
        .ok_or_else(|| format!("unterminated field {key:?}"))?;
    Ok(rest[..end].trim())
}

fn unquote(s: &str) -> Result<&str, String> {
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("expected string, got {s:?}"))
}

/// Parse a document produced by [`to_json`]. This is deliberately *not*
/// a general JSON parser — it accepts exactly the flat schema this
/// module writes, at its current version (and errors loudly on anything
/// else). A cell without an `exact` field is a lock-step word cell:
/// `exact` defaults to `true` and the range to the median.
pub fn parse_json(s: &str) -> Result<(Params, Vec<Cell>), String> {
    let version: u32 = field(s, "version")?
        .parse()
        .map_err(|e| format!("bad version: {e}"))?;
    if version != VERSION {
        return Err(format!(
            "unsupported baseline version {version} (this build reads version {VERSION})"
        ));
    }
    let pstart = s
        .find("\"params\"")
        .ok_or_else(|| "missing params".to_string())?;
    let pobj = &s[pstart
        ..s[pstart..]
            .find('}')
            .map(|i| pstart + i + 1)
            .unwrap_or(s.len())];
    let params = Params {
        n: field(pobj, "n")?
            .parse()
            .map_err(|e| format!("bad n: {e}"))?,
        k: field(pobj, "k")?
            .parse()
            .map_err(|e| format!("bad k: {e}"))?,
        eps: field(pobj, "eps")?
            .parse()
            .map_err(|e| format!("bad eps: {e}"))?,
        seeds: field(pobj, "seeds")?
            .parse()
            .map_err(|e| format!("bad seeds: {e}"))?,
    };
    let cstart = s
        .find("\"cells\"")
        .ok_or_else(|| "missing cells".to_string())?;
    let carr = &s[cstart..];
    let mut cells = Vec::new();
    let mut rest = carr;
    while let Some(open) = rest.find('{') {
        let close = rest[open..]
            .find('}')
            .ok_or_else(|| "unterminated cell object".to_string())?
            + open;
        let obj = &rest[open..=close];
        let words: u64 = field(obj, "words")?
            .parse()
            .map_err(|e| format!("bad words: {e}"))?;
        // Optional range fields (written for inexact cells only; absent
        // in pre-distribution baselines): default to the median, i.e. a
        // degenerate range.
        let opt = |key: &str| -> Result<u64, String> {
            match field(obj, key) {
                Ok(v) => v.parse().map_err(|e| format!("bad {key}: {e}")),
                Err(_) => Ok(words),
            }
        };
        cells.push(Cell {
            id: unquote(field(obj, "id")?)?.to_string(),
            words,
            exact: match field(obj, "exact") {
                Ok(v) => v.parse().map_err(|e| format!("bad exact: {e}"))?,
                Err(_) => true,
            },
            words_min: opt("words_min")?,
            words_max: opt("words_max")?,
        });
        rest = &rest[close + 1..];
    }
    if cells.is_empty() {
        return Err("baseline contains no cells".to_string());
    }
    Ok((params, cells))
}

/// Outcome of [`compare`]: findings that must fail the build vs.
/// findings that are informational.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Comparison {
    /// Deterministic signals — word drift on an exact cell, a missing or
    /// unknown cell. CI fails on any of these.
    pub hard: Vec<String>,
    /// Advisory signals — a median outside the recorded range on an
    /// inexact cell (thread-timed words, `topology/*`, `bytes/*`).
    /// Printed, never failing.
    pub advisory: Vec<String>,
}

impl Comparison {
    /// Whether the comparison found nothing at all.
    pub fn is_empty(&self) -> bool {
        self.hard.is_empty() && self.advisory.is_empty()
    }
}

/// Compare a current run against the baseline.
///
/// * **Exact cells** (lock-step): `words` are deterministic given the
///   seed set, so *any* drift is a hard finding — more communication is
///   a regression, less is an improvement worth re-baselining; either
///   way the baseline must be regenerated deliberately.
/// * **Inexact cells** (channel runtime): words drift with thread
///   timing, so the baseline records a distribution, not a point. The
///   current median is compared against the recorded `[min, max]` range
///   widened by ±`loose_word_tol` (relative) on each edge; outside that
///   it is reported advisorily. (A median pretending to be exact was
///   the old behavior — a thread-timed cell never deserves a hard gate.)
pub fn compare(baseline: &[Cell], current: &[Cell], loose_word_tol: f64) -> Comparison {
    let mut out = Comparison::default();
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.id == b.id) else {
            out.hard
                .push(format!("{}: cell missing from current run", b.id));
            continue;
        };
        let drift = (c.words as f64 - b.words as f64) / (b.words as f64).max(1.0);
        let lo = b.words_min as f64 * (1.0 - loose_word_tol);
        let hi = b.words_max as f64 * (1.0 + loose_word_tol);
        if b.exact && c.words != b.words {
            out.hard.push(format!(
                "{}: words {} -> {} ({:+.2}%, exact cell — any drift is a \
                 behavior change)",
                b.id,
                b.words,
                c.words,
                drift * 1e2
            ));
        } else if !b.exact && ((c.words as f64) < lo || (c.words as f64) > hi) {
            out.advisory.push(format!(
                "{}: words {} outside recorded range [{}, {}] ±{:.0}% \
                 (median was {}, {:+.1}%)",
                b.id,
                c.words,
                b.words_min,
                b.words_max,
                loose_word_tol * 1e2,
                b.words,
                drift * 1e2
            ));
        }
    }
    for c in current {
        if !baseline.iter().any(|b| b.id == c.id) {
            out.hard.push(format!(
                "{}: new cell not in baseline (re-run without --check)",
                c.id
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cells() -> Vec<Cell> {
        vec![
            Cell {
                id: "count/randomized".into(),
                words: 1234,
                exact: true,
                words_min: 1234,
                words_max: 1234,
            },
            Cell {
                id: "rank/deterministic".into(),
                words: 99,
                exact: true,
                words_min: 99,
                words_max: 99,
            },
            Cell {
                id: "window/channel".into(),
                words: 5000,
                exact: false,
                words_min: 4600,
                words_max: 5400,
            },
        ]
    }

    /// The committed file is exactly what [`to_json`] writes: no field
    /// this module does not know, no hand edit.
    #[test]
    fn committed_baseline_is_canonical() {
        const STORED: &str = include_str!("../../../BENCH_baseline.json");
        let (params, cells) = parse_json(STORED).unwrap();
        assert_eq!(to_json(params, &cells), STORED);
    }

    #[test]
    fn json_round_trips() {
        let p = Params::default_ci();
        let cells = sample_cells();
        let (p2, cells2) = parse_json(&to_json(p, &cells)).unwrap();
        assert_eq!(p, p2);
        assert_eq!(cells, cells2);
    }

    #[test]
    fn parse_defaults_exact_for_legacy_cells() {
        let legacy = "{\n  \"version\": 2,\n  \"params\": {\"n\": 10, \"k\": 2, \
                      \"eps\": 0.1, \"seeds\": 1},\n  \"cells\": [\n    \
                      {\"id\": \"count/randomized\", \"words\": 7}\n  ]\n}\n";
        let (_, cells) = parse_json(legacy).unwrap();
        assert!(cells[0].exact, "legacy cells are all lock-step → exact");
        assert_eq!(cells[0].words_min, 7, "absent range defaults to median");
        assert_eq!(cells[0].words_max, 7, "absent range defaults to median");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{\"version\": 2}").is_err());
        let no_cells = to_json(Params::default_ci(), &[]);
        assert!(parse_json(&no_cells).unwrap_err().contains("no cells"));
        // A version-1 document (the schema that also carried wall-times)
        // is refused by name, not half-read.
        let v1 = to_json(Params::default_ci(), &sample_cells())
            .replace(&format!("\"version\": {VERSION}"), "\"version\": 1");
        assert!(parse_json(&v1).unwrap_err().contains("version 1"));
    }

    #[test]
    fn compare_splits_hard_and_advisory_findings() {
        let base = sample_cells();
        let mut cur = sample_cells();
        assert!(compare(&base, &cur, 0.25).is_empty());
        cur[0].words = 1235; // exact cell: off by one word → hard
        cur[2].words = 7000; // inexact: above max·1.25 = 6750 → advisory
        let c = compare(&base, &cur, 0.25);
        assert_eq!(c.hard.len(), 1, "{c:?}");
        assert!(c.hard[0].contains("count/randomized"));
        assert_eq!(c.advisory.len(), 1, "{c:?}");
        assert!(
            c.advisory[0].contains("window/channel") && c.advisory[0].contains("recorded range")
        );
    }

    #[test]
    fn compare_tolerates_words_inside_the_recorded_range() {
        let base = sample_cells();
        let mut cur = sample_cells();
        cur[2].words = 4600; // at the range's low edge: fine
        assert!(compare(&base, &cur, 0.25).is_empty());
        cur[2].words = 6700; // above max but within max·1.25: fine
        assert!(compare(&base, &cur, 0.25).is_empty());
        cur[2].words = 3400; // below min·0.75 = 3450 → advisory
        let c = compare(&base, &cur, 0.25);
        assert_eq!(c.hard.len(), 0, "{c:?}");
        assert_eq!(c.advisory.len(), 1, "{c:?}");
    }

    #[test]
    fn compare_flags_missing_and_new_cells_as_hard() {
        let base = sample_cells();
        let cur = vec![
            base[0].clone(),
            Cell {
                id: "novel/cell".into(),
                words: 1,
                exact: true,
                words_min: 1,
                words_max: 1,
            },
        ];
        let c = compare(&base, &cur, 0.25);
        assert!(c.hard.iter().any(|f| f.contains("missing")));
        assert!(c.hard.iter().any(|f| f.contains("not in baseline")));
    }

    #[test]
    fn topology_cells_record_per_level_loads_advisorily() {
        let p = Params {
            n: 4_000,
            k: 16, // must fit the binary depth-4 shape (2^4 = 16)
            eps: 0.2,
            seeds: 1,
        };
        let cells = measure_topology_cells(p);
        let ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "topology/flat_root",
                "topology/leaf",
                "topology/level1",
                "topology/level2",
                "topology/level3",
            ]
        );
        for c in &cells {
            assert!(!c.exact, "{}: topology cells are advisory", c.id);
            assert!(c.words > 0, "{}: no words measured", c.id);
            assert!(
                c.words_min <= c.words && c.words <= c.words_max,
                "{}: median {} outside own range [{}, {}]",
                c.id,
                c.words,
                c.words_min,
                c.words_max
            );
        }
        // The per-level profile must shrink toward the root: each level
        // aggregates more of the stream behind fewer, coarser replays.
        let level = |id: &str| cells.iter().find(|c| c.id == id).unwrap().words;
        assert!(
            level("topology/level3") < level("topology/flat_root"),
            "tree root load must undercut the flat star even at CI scale"
        );
    }

    #[test]
    fn measured_words_are_deterministic_for_exact_cells() {
        let p = Params {
            n: 4_000,
            k: 4,
            eps: 0.2,
            seeds: 1,
        };
        let (a, a_bytes) = measure_cells(p);
        let (b, b_bytes) = measure_cells(p);
        assert_eq!(a.len(), 10);
        assert_eq!(a.iter().filter(|c| !c.exact).count(), 1);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            if x.exact {
                assert_eq!(x.words, y.words, "{}", x.id);
                // Degenerate only because this test runs seeds = 1; with
                // more seeds exact cells still measure a per-seed spread
                // (unpersisted — their gate is the median alone).
                assert_eq!((x.words_min, x.words_max), (x.words, x.words), "{}", x.id);
            } else {
                // Thread-timed cell: same order of magnitude, not equal.
                let ratio = x.words as f64 / y.words.max(1) as f64;
                assert!((0.2..5.0).contains(&ratio), "{}: {ratio}", x.id);
                assert!(
                    x.words_min <= x.words && x.words <= x.words_max,
                    "{}: median {} outside own range [{}, {}]",
                    x.id,
                    x.words,
                    x.words_min,
                    x.words_max
                );
            }
        }
        // The byte panel is carved out of the same runs: one advisory
        // `bytes/<id>` cell per exact cell, in matrix order, and just as
        // deterministic.
        let want: Vec<String> = a
            .iter()
            .filter(|c| c.exact)
            .map(|c| format!("bytes/{}", c.id))
            .collect();
        let got: Vec<&str> = a_bytes.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(got, want);
        for (x, y) in a_bytes.iter().zip(&b_bytes) {
            assert!(!x.exact && x.words > 0, "{}", x.id);
            assert_eq!(x.words, y.words, "{}", x.id);
        }
    }
}
