//! Experiment **TOPO**: flat star vs hierarchical aggregation tree —
//! what the `sites → aggregators → root` topology buys and what it
//! costs.
//!
//! In the flat star every message in the system lands on the one
//! coordinator, so the *root load* equals the total word count. A
//! depth-2 tree re-pays the protocol once per level (total words rise)
//! but the root only talks to its own `≈ √k` children, so the words
//! crossing the root's links collapse. This binary tables both numbers
//! side by side — count at k ∈ {16, 256, 4096} (simulated sites),
//! frequency and rank at smaller k — and **asserts** the headline
//! claim: at the largest k, the depth-2 tree's root load is strictly
//! below the flat star's, or it exits 1 naming each count protocol
//! where it is not. Each row's median tree error is printed and held
//! below 1 (a sanity bound; `tests/conformance.rs` checks accuracy).
//!
//! Per-tree shape: fanout = ⌈√k⌉, depth = 2 (balanced two-level tree);
//! per-level protocols run at ε/2 (see `dtrack_sim::exec::topology` for
//! the error model).
//!
//! Usage: `exp_topology [N] [EPS] [SEEDS] [EXEC]`

use dtrack_bench::cli::{arg, banner, conclude, exec_arg, Verdict};
use dtrack_bench::measure::{median, run, Algo, Problem, Run};
use dtrack_bench::table::{fmt_num, Table};
use dtrack_sim::TreeSpec;

/// Balanced two-level shape for `k` leaves: fanout ⌈√k⌉, depth 2.
fn depth2(k: usize) -> TreeSpec {
    TreeSpec::new((k as f64).sqrt().ceil() as usize).with_depth(2)
}

struct Row {
    k: usize,
    algo: String,
    flat_words: f64,
    tree_words: f64,
    tree_root: f64,
    err: f64,
}

impl Row {
    fn print_into(&self, t: &mut Table) {
        t.row([
            self.k.to_string(),
            self.algo.clone(),
            fmt_num(self.flat_words),
            fmt_num(self.tree_words),
            fmt_num(self.flat_words),
            fmt_num(self.tree_root),
            format!("{:.2}x", self.flat_words / self.tree_root.max(1.0)),
            format!("{:.4}", self.err),
        ]);
    }
}

fn section(title: &str, rows: &[Row]) {
    println!("-- {title} --");
    let mut t = Table::new([
        "k",
        "algo",
        "flat-words",
        "tree-words",
        "flat-root",
        "tree-root",
        "root-gain",
        "tree-err",
    ]);
    for r in rows {
        r.print_into(&mut t);
    }
    t.print();
    println!();
}

fn main() {
    let n: u64 = arg(0, 200_000);
    let eps: f64 = arg(1, 0.05);
    let seeds: u64 = arg(2, 3);
    let exec = exec_arg(3);
    let rank_n = n.min(20_000);
    let rank_eps = eps.max(0.05);
    banner(
        "TOPO — flat star vs depth-2 aggregation tree",
        &format!(
            "N={n} (rank {rank_n}), eps={eps} (rank {rank_eps}), seeds={seeds}, \
             exec={exec}, tree: fanout=ceil(sqrt(k)), depth=2, eps/2 per level"
        ),
    );
    assert!(
        exec.tree.is_none(),
        "exp_topology applies its own tree shapes; pass a plain executor spec"
    );

    // One section per problem: (problem, title, short name, ks, ε, n).
    let sections = [
        (
            Problem::Count,
            "count (round-robin stream)",
            "cnt",
            &[16usize, 256, 4096][..],
            eps,
            n,
        ),
        (
            Problem::Frequency,
            "frequency (zipf stream, hottest + absent probes)",
            "freq",
            &[16, 64][..],
            eps,
            n,
        ),
        (
            Problem::Rank,
            "rank (duplicate-free stream, decile probes)",
            "rank",
            &[16, 64][..],
            rank_eps,
            rank_n,
        ),
    ];
    let (mut count_rows, mut verdicts) = (Vec::new(), Vec::new());
    for (problem, title, short, ks, eps, n) in sections {
        let mut rows = Vec::new();
        for &k in ks {
            for (algo, suffix) in [(Algo::Deterministic, "det"), (Algo::Randomized, "NEW")] {
                // The flat star's root sees every word in the system:
                // its root load IS the run's total. The tree's root load
                // is the top boundary.
                let flat = |s| run(exec, problem, algo, k, eps, n, s).cost().total_words();
                let flat_words = median((0..seeds).map(flat)) as f64;
                let tree: Vec<_> = (0..seeds)
                    .map(|s| run(exec.with_tree(depth2(k)), problem, algo, k, eps, n, s))
                    .collect();
                let mut errs: Vec<f64> = tree.iter().map(|r| r.err).collect();
                errs.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
                rows.push(Row {
                    k,
                    algo: format!("{short}-{suffix}"),
                    flat_words,
                    tree_words: median(tree.iter().map(|r| r.cost().total_words())) as f64,
                    tree_root: median(tree.iter().map(Run::root_words)) as f64,
                    err: errs[errs.len() / 2],
                });
            }
        }
        section(title, &rows);
        // A sanity bound: the table is about load, not accuracy.
        verdicts.extend(rows.iter().map(|r| {
            let what = format!(
                "{} at k={}: median tree error {:.4} < 1",
                r.algo, r.k, r.err
            );
            Verdict::claim(what, r.err.is_finite() && r.err < 1.0)
        }));
        if problem == Problem::Count {
            count_rows = rows;
        }
    }

    // The headline claim, asserted: at the largest k the depth-2 root
    // load is strictly below the flat star's, for both count protocols.
    let k_max = 4096;
    verdicts.extend(count_rows.iter().filter(|r| r.k == k_max).map(|r| {
        let (tree, flat) = (fmt_num(r.tree_root), fmt_num(r.flat_words));
        let what = format!(
            "{} at k={k_max}: depth-2 root load {tree} < flat star's {flat}",
            r.algo
        );
        Verdict::claim(what, r.tree_root < r.flat_words)
    }));
    conclude("topology", &verdicts);
}
