//! Hierarchical topology: sites → aggregators → root.
//!
//! The paper's model is a flat star — `k` sites, one coordinator — and
//! its `O(√k/ε)` bounds are stated for that shape. At the scale the
//! ROADMAP aims for (millions of sites) the flat star's *root* is the
//! bottleneck: every message in the system lands on one node. This
//! module composes the Table-1 protocols **recursively**: intermediate
//! *aggregator* nodes each run the coordinator half of a protocol over
//! their children and the site half toward their parent, so the root
//! only ever talks to its own `≤ fanout` children. The whole-tree word
//! count rises (every level re-pays its own protocol), but no single
//! node sees more than its own level's traffic — which is what lets the
//! shape scale out.
//!
//! ## The recursion, concretely
//!
//! A [`Tree`] of depth `d` over `k` leaves places the leaf sites in
//! groups of `fanout` under level-1 aggregators, groups those under
//! level-2 aggregators, and so on, with a single root instance at level
//! `d` (depth 1 **is** the flat star, bit for bit). Every level runs
//! the *same* protocol `P`, instantiated per node via
//! [`TreeProtocol::level_instance`] with that node's child count and the
//! per-level error budget (below). An aggregator's coordinator half
//! tracks its children exactly as a flat coordinator would; whenever its
//! local estimate advances, the node *re-streams* the increment into its
//! own site half ([`TreeProtocol::restream`]) — replaying its
//! coordinator's view of the substream as ordinary `on_item` arrivals —
//! and that site half compresses the replay toward the parent exactly as
//! a leaf site compresses a real stream. Restreaming reuses the
//! mergeable-digest machinery the sliding-window subsystem built
//! (`ScalarCount` / `ItemCounts` / `WeightedValues` in
//! `dtrack_core::window`): a node's increment is the difference between
//! its current digest and the prefix it has already replayed.
//!
//! ## Per-level ε splitting
//!
//! Each level's protocol instance runs with `ε_level = ε / d`. The
//! error model composes **additively**:
//!
//! * Level ℓ's coordinator tracks its input stream within
//!   `±ε_level · n` of that input (the flat per-instance guarantee).
//! * The re-streamed replay is a *monotone floor* of the node's
//!   estimate: total counts, per-item frequencies, and rank prefix
//!   masses are all non-decreasing in time, so replaying the running
//!   maximum of an estimate that stays within `±ε_level·n` of a
//!   monotone truth yields a stream that is itself within
//!   `±(ε_level·n + 1)` of that truth — estimator wiggle never has to
//!   be "unsent", and integer rounding loses strictly less than one
//!   element per tracked quantity per level.
//! * Summing over the `d` levels, the root's answer is within
//!   `Σ_ℓ ε_level · n + O(d)` = `ε·n + O(d)` of the truth — the same
//!   `ε` bound as the flat run, plus an additive `O(d)` rounding term
//!   that vanishes against `εn` for any real stream.
//!
//! The even `ε/d` split is deliberately the simple, fully-documented
//! choice; an uneven split (more budget to lower levels, which see
//! smaller streams) is a measurable future refinement, not a
//! correctness issue.
//!
//! ## What runs where
//!
//! The entire hierarchy above the leaves lives inside [`TreeCoord`] —
//! the coordinator type of the [`Tree`] protocol adapter. To every
//! [`Executor`](super::Executor) the tree is therefore just another
//! protocol: the lock-step runner, the event runtime (all delivery
//! policies and fault plans apply to the leaf↔aggregator links), and
//! the channel runtime run it unmodified, and
//! [`query_handle`](super::Executor::query_handle) live queries work at
//! the root because [`TreeCoord`] is `Clone` like any coordinator.
//! Internal (aggregator↔aggregator and aggregator↔root) traffic is
//! accounted per level boundary in [`LevelLoad`]s — the executor's own
//! [`CommStats`](crate::stats::CommStats) covers the leaf boundary, so
//! nothing is double-counted.
//!
//! ## Example
//!
//! The scenario-string surface (`+tree:FANOUT[:DEPTH]`):
//!
//! ```
//! use dtrack_sim::exec::topology::TreeSpec;
//! use dtrack_sim::ExecConfig;
//!
//! let cfg: ExecConfig = "lockstep+tree:4:2".parse().unwrap();
//! assert_eq!(cfg.tree, Some(TreeSpec::new(4).with_depth(2)));
//! assert_eq!(cfg.to_string(), "lockstep+tree:4:2");
//! // Depth defaults to the smallest d with fanout^d ≥ k:
//! let auto: ExecConfig = "event:fixed:8+tree:16".parse().unwrap();
//! assert_eq!(auto.tree.unwrap().depth_for_k(4096), 3);
//! ```

use std::collections::VecDeque;

use crate::message::Words;
use crate::net::{Net, Outbox};
use crate::protocol::{Coordinator, Protocol, Site, SiteId};
use crate::rng::splitmix64;

/// Shape of an aggregation tree: fanout plus an optional explicit depth.
///
/// Parsed from the `+tree:FANOUT[:DEPTH]` scenario suffix. When `depth`
/// is omitted it defaults, once `k` is known, to the smallest `d` with
/// `fanout^d ≥ k` — the shallowest tree in which every node (root
/// included) has at most `fanout` children.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreeSpec {
    /// Maximum children per aggregator node (≥ 2).
    pub fanout: usize,
    /// Number of protocol levels (1 = the flat star); `None` = derive
    /// from `k` via [`TreeSpec::depth_for_k`].
    pub depth: Option<usize>,
}

impl TreeSpec {
    /// A tree of the given fanout with automatic depth.
    pub const fn new(fanout: usize) -> Self {
        Self {
            fanout,
            depth: None,
        }
    }

    /// The same spec with an explicit depth (1 = flat).
    pub const fn with_depth(mut self, depth: usize) -> Self {
        self.depth = Some(depth);
        self
    }

    /// Validate fanout ≥ 2 and depth ≥ 1 (when given).
    pub fn validate(&self) -> Result<(), String> {
        if self.fanout < 2 {
            return Err(format!("tree fanout must be >= 2, got {}", self.fanout));
        }
        if self.depth == Some(0) {
            return Err("tree depth must be >= 1 (1 = flat)".into());
        }
        Ok(())
    }

    /// The depth this spec resolves to for `k` leaf sites: the explicit
    /// depth if set, else the smallest `d ≥ 1` with `fanout^d ≥ k`.
    pub fn depth_for_k(&self, k: usize) -> usize {
        if let Some(d) = self.depth {
            return d;
        }
        let mut d = 1;
        let mut reach = self.fanout;
        while reach < k {
            d += 1;
            reach = reach.saturating_mul(self.fanout);
        }
        d
    }
}

impl std::fmt::Display for TreeSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.depth {
            Some(d) => write!(f, "{}:{}", self.fanout, d),
            None => write!(f, "{}", self.fanout),
        }
    }
}

/// A protocol that composes recursively along an aggregation tree.
///
/// Implementations provide the two level-local operations [`Tree`]
/// needs; everything else (routing, accounting, the flat fallback at
/// depth 1) is generic. Both operations are *mechanism-only*, like the
/// rest of the protocol surface: no clocks, no channels.
///
/// The bounds beyond [`Protocol`]'s are those of a [`TreeCoord`], which
/// is a coordinator (`Clone + Sync + 'static`, see [`Coordinator`])
/// holding every
/// aggregator's site and cursor: so sites and cursors are `Clone + Sync`
/// too, and the derived `Clone` asks `Self: Clone`.
pub trait TreeProtocol: Protocol<Site: Clone + Sync> + Clone + 'static {
    /// Per-aggregator replay cursor: remembers how much of the node's
    /// coordinator state has already been re-streamed toward its
    /// parent. `Default` is the "nothing replayed yet" state.
    type Cursor: Default + Clone + Send + Sync + 'static;

    /// The protocol instance one tree node runs: `children` sites below
    /// it, error budget scaled by `eps_factor` (the tree passes
    /// `eps_factor = 1/depth` — see the [module docs](self) for the
    /// error model). Instances at different nodes are independent.
    fn level_instance(&self, children: usize, eps_factor: f64) -> Self;

    /// Replay the *increment* of `coord`'s tracked state since the last
    /// call into `emit`, advancing `cursor`. Implementations derive the
    /// increment from the coordinator's mergeable digest
    /// (`dtrack_core::window::EpochProtocol`) and must only ever emit —
    /// an element replayed to the parent cannot be unsent, so cursors
    /// floor monotonically (the [module docs](self) show why that stays
    /// within the per-level ε band).
    fn restream(
        coord: &Self::Coord,
        cursor: &mut Self::Cursor,
        emit: &mut dyn FnMut(&<Self::Site as Site>::Item),
    );
}

/// Word/message accounting for one internal tree boundary (the links
/// between one level's nodes and their parents). The leaf boundary is
/// accounted by the executor's own `CommStats`; these cover the
/// aggregator↔aggregator and aggregator↔root links that exist only
/// inside [`TreeCoord`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelLoad {
    /// Child → parent messages.
    pub up_msgs: u64,
    /// Child → parent words.
    pub up_words: u64,
    /// Parent → child messages.
    pub down_msgs: u64,
    /// Parent → child words.
    pub down_words: u64,
}

impl LevelLoad {
    /// Total messages crossing this boundary.
    pub fn total_msgs(&self) -> u64 {
        self.up_msgs + self.down_msgs
    }

    /// Total words crossing this boundary.
    pub fn total_words(&self) -> u64 {
        self.up_words + self.down_words
    }
}

/// The tree adapter: wraps a [`TreeProtocol`] into a [`Protocol`] whose
/// coordinator simulates every aggregator level plus the root.
///
/// Leaf sites are real sites of the level-1 instances (at depth 1: of
/// the wrapped protocol itself, bit-identically), so executors drive a
/// `Tree` exactly like a flat protocol. See the [module docs](self) for
/// the error model and accounting.
#[derive(Debug, Clone, Copy)]
pub struct Tree<P> {
    inner: P,
    spec: TreeSpec,
}

impl<P: TreeProtocol> Tree<P> {
    /// Wrap `inner` in an aggregation tree of the given shape.
    ///
    /// # Panics
    ///
    /// Panics on an invalid spec (fanout < 2 or depth 0).
    pub fn new(inner: P, spec: TreeSpec) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid tree spec: {e}");
        }
        Self { inner, spec }
    }

    /// The resolved depth for this protocol's `k`.
    pub fn depth(&self) -> usize {
        self.spec.depth_for_k(self.inner.k())
    }

    /// Node counts per level: `widths[0] = k` (leaves), `widths[ℓ]` =
    /// aggregators at level ℓ for `ℓ in 1..depth`; the root (level
    /// `depth`) is always a single node and is not listed.
    fn widths(&self) -> Vec<usize> {
        let depth = self.depth();
        let mut widths = vec![self.inner.k()];
        for l in 1..depth {
            widths.push(widths[l - 1].div_ceil(self.spec.fanout));
        }
        widths
    }

    /// Children of node `j` in the level above a layer of `lower_width`
    /// nodes: `fanout`, except for a possibly-short last group.
    fn group_size(&self, lower_width: usize, j: usize) -> usize {
        (lower_width - j * self.spec.fanout).min(self.spec.fanout)
    }

    /// The level-`level` instance for node `j` (root: `level == depth`).
    fn instance(&self, widths: &[usize], level: usize, j: usize) -> P {
        let depth = widths.len(); // == resolved depth
        let eps_factor = 1.0 / depth as f64;
        let children = if level == depth {
            widths[depth - 1] // the root aggregates the whole top layer
        } else {
            self.group_size(widths[level - 1], j)
        };
        self.inner.level_instance(children, eps_factor)
    }
}

/// Independent seed stream for tree node `j` at `level` — disjoint from
/// the `site_seed` streams flat runs draw on (the mixing constant
/// differs), so depth ≥ 2 runs share no protocol randomness with a
/// flat run of the same master seed.
fn node_seed(master_seed: u64, level: usize, node: usize) -> u64 {
    splitmix64(
        master_seed ^ splitmix64(0x7464_7261_636b_5f74 ^ ((level as u64) << 40) ^ node as u64),
    )
}

impl<P: TreeProtocol> Protocol for Tree<P> {
    type Site = P::Site;
    type Coord = TreeCoord<P>;

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn build(&self, master_seed: u64) -> (Vec<P::Site>, TreeCoord<P>) {
        let sites = (0..self.k())
            .map(|i| self.build_site(master_seed, i))
            .collect();
        (sites, self.build_coord(master_seed))
    }

    /// O(1), like the wrapped protocol's: a leaf is a site of its
    /// level-1 group's instance. At depth 1 it is a site of the wrapped
    /// protocol itself, with the *same* seed stream — the depth-1 tree
    /// is bit-identical to the flat run.
    fn build_site(&self, master_seed: u64, me: SiteId) -> P::Site {
        let widths = self.widths();
        if widths.len() == 1 {
            return self.inner.build_site(master_seed, me);
        }
        let group = me / self.spec.fanout;
        self.instance(&widths, 1, group)
            .build_site(node_seed(master_seed, 1, group), me % self.spec.fanout)
    }

    fn build_coord(&self, master_seed: u64) -> TreeCoord<P> {
        let widths = self.widths();
        let depth = widths.len();
        if depth == 1 {
            return TreeCoord {
                fanout: self.spec.fanout,
                leaves: self.inner.k(),
                inner: TreeInner::Flat(self.inner.build_coord(master_seed)),
            };
        }
        // Aggregator levels 1..depth: each node runs the coordinator of
        // its own instance plus the site half of its parent's instance.
        let mut layers: Vec<Vec<AggNode<P>>> = Vec::with_capacity(depth - 1);
        for level in 1..depth {
            let parent_level = level + 1;
            let nodes = (0..widths[level])
                .map(|j| {
                    let (parent, child_idx) = if parent_level == depth {
                        (0, j) // the root's children are the whole layer
                    } else {
                        (j / self.spec.fanout, j % self.spec.fanout)
                    };
                    AggNode {
                        coord: self.instance(&widths, level, j).build_coord(node_seed(
                            master_seed,
                            level,
                            j,
                        )),
                        site: self
                            .instance(&widths, parent_level, parent)
                            .build_site(node_seed(master_seed, parent_level, parent), child_idx),
                        cursor: P::Cursor::default(),
                    }
                })
                .collect();
            layers.push(nodes);
        }
        let root = self
            .instance(&widths, depth, 0)
            .build_coord(node_seed(master_seed, depth, 0));
        TreeCoord {
            fanout: self.spec.fanout,
            leaves: self.inner.k(),
            inner: TreeInner::Layers {
                layers,
                root,
                loads: vec![LevelLoad::default(); depth - 1],
            },
        }
    }
}

/// One aggregator: coordinator over its children, site half toward its
/// parent, and the replay cursor between the two.
#[derive(Clone)]
struct AggNode<P: TreeProtocol> {
    coord: P::Coord,
    site: P::Site,
    cursor: P::Cursor,
}

#[derive(Clone)]
enum TreeInner<P: TreeProtocol> {
    /// Depth 1: the flat star, forwarded verbatim (bit-identical to an
    /// unwrapped run, broadcasts included).
    Flat(P::Coord),
    /// Depth ≥ 2: `layers[ℓ-1]` holds the level-ℓ aggregators; `root`
    /// is the level-`depth` coordinator; `loads[ℓ-1]` accounts the
    /// boundary between level ℓ and its parent (so `loads.last()` is
    /// the root boundary).
    Layers {
        layers: Vec<Vec<AggNode<P>>>,
        root: P::Coord,
        loads: Vec<LevelLoad>,
    },
}

/// Internal message awaiting synchronous delivery inside the tree.
enum Pending<U, D> {
    /// Deliver `msg` from child slot `child` to the coordinator of
    /// `node` at `level` (`level == depth` addresses the root).
    Up {
        level: usize,
        node: usize,
        child: usize,
        msg: U,
    },
    /// Deliver `msg` to the site half of aggregator `node` at `level`.
    Down { level: usize, node: usize, msg: D },
}

/// The synchronous internal delivery queue of a [`TreeCoord`], in its
/// protocol's message types.
type PendingQueue<P> =
    VecDeque<Pending<<<P as Protocol>::Site as Site>::Up, <<P as Protocol>::Site as Site>::Down>>;

/// Safety valve against protocol-bug message storms, mirroring the
/// runner's `MAX_ROUNDS_PER_EVENT`: one external apply should settle in
/// a handful of internal rounds.
const MAX_INTERNAL_EVENTS: usize = 1 << 20;

/// Coordinator of a [`Tree`]: the entire aggregation hierarchy above
/// the leaf sites, run synchronously (the instant-communication model
/// applies *within* the tree exactly as it does on a flat star under
/// the lock-step runner; executor delivery policies and faults act on
/// the leaf links).
#[derive(Clone)]
pub struct TreeCoord<P: TreeProtocol> {
    fanout: usize,
    leaves: usize,
    inner: TreeInner<P>,
}

impl<P: TreeProtocol> TreeCoord<P> {
    /// The root coordinator — the node that answers queries. At depth 1
    /// this is the flat coordinator itself.
    pub fn root(&self) -> &P::Coord {
        match &self.inner {
            TreeInner::Flat(c) => c,
            TreeInner::Layers { root, .. } => root,
        }
    }

    /// Number of protocol levels (1 = flat).
    pub fn depth(&self) -> usize {
        match &self.inner {
            TreeInner::Flat(_) => 1,
            TreeInner::Layers { loads, .. } => loads.len() + 1,
        }
    }

    /// Number of aggregator nodes (0 at depth 1; the root and the leaf
    /// sites are not aggregators).
    pub fn aggregators(&self) -> usize {
        match &self.inner {
            TreeInner::Flat(_) => 0,
            TreeInner::Layers { layers, .. } => layers.iter().map(Vec::len).sum(),
        }
    }

    /// Traffic on the internal boundaries, one [`LevelLoad`] per
    /// aggregator level: entry `ℓ-1` is the boundary between level ℓ
    /// and its parent. Empty at depth 1 — there, the executor's
    /// `CommStats` *is* the root load. The leaf boundary (level 0 ↔
    /// level 1) is always the executor's `CommStats`.
    pub fn internal_loads(&self) -> &[LevelLoad] {
        match &self.inner {
            TreeInner::Flat(_) => &[],
            TreeInner::Layers { loads, .. } => loads,
        }
    }

    /// Traffic crossing the root's own links — the tree's bottleneck
    /// metric. `None` at depth 1, where the executor's `CommStats`
    /// already measures the (flat) root.
    pub fn root_load(&self) -> Option<LevelLoad> {
        self.internal_loads().last().copied()
    }

    /// Number of children of node `node` at `level` (for broadcast
    /// expansion).
    fn child_count(&self, level: usize, node: usize) -> usize {
        let TreeInner::Layers { layers, loads, .. } = &self.inner else {
            unreachable!("child_count is only called on layered trees");
        };
        let depth = loads.len() + 1;
        if level == depth {
            layers[depth - 2].len()
        } else {
            let lower_width = if level == 1 {
                self.leaves
            } else {
                layers[level - 2].len()
            };
            (lower_width - node * self.fanout).min(self.fanout)
        }
    }

    /// Coordinator apply for aggregator/root `node` at `level`, from
    /// its child slot `child`. Queues resulting internal messages on
    /// `pending`, hands leaf-bound downs to the executor's `net`, and
    /// re-streams the node's advance toward its parent.
    fn apply_up(
        &mut self,
        level: usize,
        node: usize,
        child: usize,
        msg: &<P::Site as Site>::Up,
        net: &mut Net<<P::Site as Site>::Down>,
        pending: &mut PendingQueue<P>,
    ) {
        let fanout = self.fanout;
        let child_count = self.child_count(level, node);
        let depth = self.depth();
        let mut lnet: Net<<P::Site as Site>::Down> = Net::new();
        {
            let TreeInner::Layers { layers, root, .. } = &mut self.inner else {
                unreachable!("apply_up is only called on layered trees");
            };
            let coord = if level == depth {
                &mut *root
            } else {
                &mut layers[level - 1][node].coord
            };
            coord.on_message(child, msg, &mut lnet);
        }
        for (dest, down) in lnet.drain() {
            for c in dest.targets(child_count) {
                if level == 1 {
                    // Children are the real leaf sites: hand the
                    // message to the executor (which accounts the
                    // words on the leaf boundary).
                    net.send(node * fanout + c, down.clone());
                } else {
                    // Internal boundary between this level's children
                    // and this level: account and queue for
                    // synchronous delivery.
                    let TreeInner::Layers { loads, .. } = &mut self.inner else {
                        unreachable!();
                    };
                    let load = &mut loads[level - 2];
                    load.down_msgs += 1;
                    load.down_words += down.words();
                    let child_node = if level == depth { c } else { node * fanout + c };
                    pending.push_back(Pending::Down {
                        level: level - 1,
                        node: child_node,
                        msg: down.clone(),
                    });
                }
            }
        }
        // The node's tracked state may have advanced: replay the
        // increment into its site half, toward its parent.
        if level < depth {
            self.restream_node(level, node, pending);
        }
    }

    /// Re-stream node (`level`, `node`)'s coordinator advance into its
    /// site half; queue the produced up messages toward the parent.
    fn restream_node(&mut self, level: usize, node: usize, pending: &mut PendingQueue<P>) {
        let fanout = self.fanout;
        let TreeInner::Layers { layers, loads, .. } = &mut self.inner else {
            unreachable!("restream_node is only called on layered trees");
        };
        let depth = loads.len() + 1;
        let AggNode {
            coord,
            site,
            cursor,
        } = &mut layers[level - 1][node];
        let mut out: Outbox<<P::Site as Site>::Up> = Outbox::new();
        {
            // Split borrows: the cursor walk reads `coord`, the replay
            // mutates `site` through the emit closure.
            let out = &mut out;
            P::restream(coord, cursor, &mut |item| site.on_item(item, out));
        }
        let (parent_level, parent, child_idx) = if level + 1 == depth {
            (depth, 0, node)
        } else {
            (level + 1, node / fanout, node % fanout)
        };
        for up in out.drain() {
            let load = &mut loads[level - 1];
            load.up_msgs += 1;
            load.up_words += up.words();
            pending.push_back(Pending::Up {
                level: parent_level,
                node: parent,
                child: child_idx,
                msg: up,
            });
        }
    }

    /// Deliver a parent → child message to an aggregator's site half;
    /// queue any replies (acks, adjusted reports) toward the parent.
    fn deliver_down(
        &mut self,
        level: usize,
        node: usize,
        msg: &<P::Site as Site>::Down,
        pending: &mut PendingQueue<P>,
    ) {
        let fanout = self.fanout;
        let TreeInner::Layers { layers, loads, .. } = &mut self.inner else {
            unreachable!("deliver_down is only called on layered trees");
        };
        let depth = loads.len() + 1;
        let mut out: Outbox<<P::Site as Site>::Up> = Outbox::new();
        layers[level - 1][node].site.on_message(msg, &mut out);
        let (parent_level, parent, child_idx) = if level + 1 == depth {
            (depth, 0, node)
        } else {
            (level + 1, node / fanout, node % fanout)
        };
        for up in out.drain() {
            let load = &mut loads[level - 1];
            load.up_msgs += 1;
            load.up_words += up.words();
            pending.push_back(Pending::Up {
                level: parent_level,
                node: parent,
                child: child_idx,
                msg: up,
            });
        }
    }
}

impl<P: TreeProtocol> Coordinator for TreeCoord<P> {
    type Up = <P::Site as Site>::Up;
    type Down = <P::Site as Site>::Down;

    fn on_message(&mut self, from: SiteId, msg: &Self::Up, net: &mut Net<Self::Down>) {
        match &mut self.inner {
            TreeInner::Flat(c) => c.on_message(from, msg, net),
            TreeInner::Layers { .. } => {
                let fanout = self.fanout;
                let mut pending = VecDeque::new();
                self.apply_up(1, from / fanout, from % fanout, msg, net, &mut pending);
                let mut processed = 0usize;
                while let Some(ev) = pending.pop_front() {
                    processed += 1;
                    assert!(
                        processed <= MAX_INTERNAL_EVENTS,
                        "tree round storm: an external apply did not settle \
                         within {MAX_INTERNAL_EVENTS} internal deliveries"
                    );
                    match ev {
                        Pending::Up {
                            level,
                            node,
                            child,
                            msg,
                        } => self.apply_up(level, node, child, &msg, net, &mut pending),
                        Pending::Down { level, node, msg } => {
                            self.deliver_down(level, node, &msg, &mut pending)
                        }
                    }
                }
            }
        }
    }
}
