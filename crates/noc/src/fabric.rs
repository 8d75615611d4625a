//! Pluggable interconnect fabrics behind a generic routing/multicast layer.
//!
//! The paper evaluates PATCH on a single fixed interconnect (a 2D torus
//! with dimension-order routing). This module generalizes that choice: a
//! fabric is *described* by its adjacency (an ordered out-link list per
//! node, each link tagged with a [`LinkClass`]), and a generic
//! deterministic routing-table builder derives everything the simulator
//! needs — BFS shortest-path next-hop tables with a fixed tie-break
//! (first out-link in per-node declaration order whose far end is
//! strictly closer to the destination), hop-distance matrices, and
//! fan-out multicast trees. New topologies only describe adjacency; they
//! inherit routing, multicast, per-link serialization, priority
//! queueing, and traffic accounting.
//!
//! Five fabrics ship ([`FabricKind`]): the paper's **torus** (the BFS
//! tie-break provably reproduces the legacy dimension-order table entry
//! for entry), **mesh** (torus without wraparound — asymmetric hop counts
//! stress inexact multicast), **ring**, **xbar** (fully connected — one
//! hop between any pair, isolating protocol cost from network cost), and
//! **hier** (clusters of crossbars joined by a global ring, with distinct
//! intra- vs. inter-cluster [`LinkParams`]).
//!
//! The hot path stays exactly as monomorphic as the old torus-only
//! engine: one generic [`Fabric`] engine drives every topology through
//! precomputed tables — a next-hop lookup is a single `u16` load
//! regardless of topology, and a multicast fans out with one word-AND per
//! out-link and mask word, so there is no per-event dispatch on the
//! fabric kind at all.
//!
//! # Determinism contract
//!
//! Fabric construction and routing are pure functions of
//! ([`FabricKind`], node count, link parameters). BFS visits nodes in
//! ascending id order from each destination, and ties between equal-cost
//! out-links break toward the lowest per-node link slot, so the same
//! configuration always yields bit-identical routing tables — and
//! therefore bit-identical simulations — on every platform and thread
//! count.
//!
//! # Link scheduling: one event per hop
//!
//! Each link keeps a *busy-until* timestamp (`free_at`), not a busy flag.
//! A packet that reaches a free link with nobody waiting starts
//! serializing at once and the engine schedules a single event, the
//! `Arrive` at the far router; nothing wakes an idle link. Only a packet
//! that finds the link busy (or earlier arrivals still waiting) is
//! queued, and the first such packet schedules the link's one pending
//! `LinkFree` wake-up for the cycle it frees. The wake-up serves the
//! waiters by the link rules — normal priority before best-effort, FIFO
//! within a level, best-effort packets that waited past the staleness
//! bound dropped at service time — and re-arms itself while packets
//! remain. The model is work-conserving and never overlaps two packets
//! on a link. Same-cycle tie rule: a packet arriving in the very cycle
//! the link frees starts in that cycle if no packet is waiting;
//! otherwise it joins the waiters and is served by priority at a
//! wake-up.

use std::collections::VecDeque;
use std::fmt;

use patchsim_kernel::Cycle;

use crate::faults::{FaultSpec, FaultState};
use crate::link::PriorityQueue;
use crate::topology::Topology;
use crate::{DestSet, LinkBandwidth, NocPayload, NodeId, Priority, TrafficClass, TrafficStats};

/// Which interconnect topology to build.
///
/// Parse labels (accepted by `--fabric` and [`FabricKind::parse`]):
/// `torus`, `mesh`, `ring`, `xbar`, `hier` (auto cluster size) or
/// `hier:C` (clusters of `C` nodes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FabricKind {
    /// The paper's 2D torus with wraparound links and dimension-order
    /// routing (X then Y, shortest way, ties toward the positive
    /// direction).
    Torus,
    /// The same most-nearly-square grid without wraparound. Edge and
    /// corner nodes have degree 2–3, so hop counts are asymmetric.
    Mesh2D,
    /// A bidirectional ring; diameter `n/2`.
    Ring,
    /// A full crossbar: every pair of nodes shares a dedicated link, so
    /// every remote message takes exactly one hop.
    FullyConnected,
    /// A two-level hierarchy: crossbar clusters joined by a global ring
    /// of gateway nodes, with distinct intra- vs. inter-cluster link
    /// latency and bandwidth.
    Hierarchical {
        /// Nodes per cluster. `None` picks the most nearly square
        /// factorization (the larger factor); an explicit size applies
        /// wherever it divides the node count and falls back to the
        /// automatic factorization on systems it does not (so one
        /// `hier:C` choice stays valid across a core-count sweep).
        cluster: Option<u16>,
    },
}

impl FabricKind {
    /// The five shipped fabrics, in display order, with hierarchical
    /// cluster sizing left automatic.
    pub const ALL: [FabricKind; 5] = [
        FabricKind::Torus,
        FabricKind::Mesh2D,
        FabricKind::Ring,
        FabricKind::FullyConnected,
        FabricKind::Hierarchical { cluster: None },
    ];

    /// The short label used by `--fabric`, plan axes, and JSON output.
    pub fn label(self) -> String {
        match self {
            FabricKind::Torus => "torus".into(),
            FabricKind::Mesh2D => "mesh".into(),
            FabricKind::Ring => "ring".into(),
            FabricKind::FullyConnected => "xbar".into(),
            FabricKind::Hierarchical { cluster: None } => "hier".into(),
            FabricKind::Hierarchical { cluster: Some(c) } => format!("hier:{c}"),
        }
    }

    /// Parses a `--fabric` value (a zero cluster size is rejected).
    /// Inverse of [`FabricKind::label`].
    pub fn parse(s: &str) -> Option<FabricKind> {
        match s {
            "torus" => Some(FabricKind::Torus),
            "mesh" => Some(FabricKind::Mesh2D),
            "ring" => Some(FabricKind::Ring),
            "xbar" | "crossbar" => Some(FabricKind::FullyConnected),
            "hier" => Some(FabricKind::Hierarchical { cluster: None }),
            _ => {
                let c: u16 = s.strip_prefix("hier:")?.parse().ok()?;
                (c > 0).then_some(FabricKind::Hierarchical { cluster: Some(c) })
            }
        }
    }

    /// The cluster size this kind uses on an `num_nodes`-node system:
    /// an explicit `Hierarchical` size wherever it divides the node
    /// count (falling back to the automatic factorization where it does
    /// not, so one explicit choice stays valid across a core-count
    /// sweep), the larger factor of the most nearly square
    /// factorization when automatic, and `num_nodes` (one flat cluster)
    /// for every non-hierarchical kind.
    pub fn cluster_size(self, num_nodes: u16) -> u16 {
        match self {
            FabricKind::Hierarchical { cluster: Some(c) }
                if c > 0 && num_nodes.is_multiple_of(c) =>
            {
                c
            }
            FabricKind::Hierarchical { .. } => Topology::new(num_nodes).width(),
            _ => num_nodes,
        }
    }
}

impl fmt::Display for FabricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// The two per-link parameter classes of a fabric.
///
/// Flat fabrics use only `Local`; the hierarchical fabric tags its
/// inter-cluster ring links `Global` so they can carry distinct
/// [`LinkParams`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Intra-cluster / default links.
    Local,
    /// Inter-cluster links (hierarchical fabrics only).
    Global,
}

impl LinkClass {
    #[inline]
    fn index(self) -> usize {
        match self {
            LinkClass::Local => 0,
            LinkClass::Global => 1,
        }
    }
}

/// Timing and capacity of one link class: propagation latency plus
/// serialization bandwidth. Replaces the old torus-wide uniform
/// constants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkParams {
    /// Propagation latency in cycles, charged once per traversal.
    pub latency: u64,
    /// Serialization bandwidth; contending packets queue.
    pub bandwidth: LinkBandwidth,
}

/// Latency in cycles of a node sending a message to itself (e.g. to its
/// own home-directory slice).
const SELF_SEND_LATENCY: u64 = 1;

/// Configuration of an interconnect fabric: topology, link parameters,
/// and the best-effort staleness bound.
///
/// # Examples
///
/// ```
/// use patchsim_noc::{FabricConfig, FabricKind, LinkBandwidth};
///
/// let cfg = FabricConfig::new(FabricKind::Ring, 16)
///     .with_bandwidth(LinkBandwidth::BytesPerCycle(2.0))
///     .with_stale_drop_cycles(100);
/// assert_eq!(cfg.num_nodes(), 16);
/// assert_eq!(cfg.kind(), FabricKind::Ring);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FabricConfig {
    kind: FabricKind,
    num_nodes: u16,
    /// Per-hop latency of `Local` links; `None` calibrates at build time
    /// so the fabric-wide average traversal costs about 15 cycles of
    /// link latency, matching the paper's torus.
    hop_latency: Option<u64>,
    bandwidth: LinkBandwidth,
    stale_drop_cycles: u64,
    faults: FaultSpec,
    fault_seed: u64,
}

impl FabricConfig {
    /// Default link bandwidth: the paper's bandwidth-rich 16 bytes/cycle.
    pub const DEFAULT_BANDWIDTH: LinkBandwidth = LinkBandwidth::BytesPerCycle(16.0);
    /// Default best-effort staleness bound (paper: 100 cycles).
    pub const DEFAULT_STALE_DROP: u64 = 100;

    /// Creates a configuration for `kind` on `num_nodes` nodes with
    /// paper-default timing (hop latency auto-calibrated to a ~15-cycle
    /// average traversal).
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero, or if an explicit hierarchical
    /// cluster size is zero or does not divide `num_nodes`.
    pub fn new(kind: FabricKind, num_nodes: u16) -> Self {
        assert!(num_nodes > 0, "a fabric needs at least one node");
        let cluster = kind.cluster_size(num_nodes);
        assert!(
            cluster > 0 && num_nodes.is_multiple_of(cluster),
            "cluster size {cluster} must divide the node count {num_nodes}"
        );
        FabricConfig {
            kind,
            num_nodes,
            hop_latency: None,
            bandwidth: Self::DEFAULT_BANDWIDTH,
            stale_drop_cycles: Self::DEFAULT_STALE_DROP,
            faults: FaultSpec::none(),
            fault_seed: 0,
        }
    }

    /// Sets the link bandwidth (of `Local` links; the derived `Global`
    /// class scales from it).
    pub fn with_bandwidth(mut self, bandwidth: LinkBandwidth) -> Self {
        self.bandwidth = bandwidth;
        self
    }

    /// Pins the per-hop propagation latency instead of auto-calibrating.
    pub fn with_hop_latency(mut self, cycles: u64) -> Self {
        self.hop_latency = Some(cycles);
        self
    }

    /// Sets how long a best-effort message may wait at one link before
    /// being dropped.
    pub fn with_stale_drop_cycles(mut self, cycles: u64) -> Self {
        self.stale_drop_cycles = cycles;
        self
    }

    /// Sets the fault mix injected while transmitting (see
    /// [`crate::faults`]). The default, [`FaultSpec::none`], installs no
    /// fault machinery at all.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Seeds the fault schedule. Derive this from the run seed (e.g. via
    /// [`patchsim_kernel::stream_seed`]) so every fault schedule is
    /// replayable from `(spec, seed)`. Ignored when no faults are
    /// configured.
    pub fn with_fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = seed;
        self
    }

    /// The topology this configuration builds.
    pub fn kind(&self) -> FabricKind {
        self.kind
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> u16 {
        self.num_nodes
    }

    /// Link bandwidth of `Local` links.
    pub fn bandwidth(&self) -> LinkBandwidth {
        self.bandwidth
    }

    /// Explicit per-hop latency, or `None` when auto-calibrated.
    pub fn hop_latency(&self) -> Option<u64> {
        self.hop_latency
    }

    /// Best-effort staleness bound in cycles.
    pub fn stale_drop_cycles(&self) -> u64 {
        self.stale_drop_cycles
    }

    /// The configured fault mix.
    pub fn faults(&self) -> FaultSpec {
        self.faults
    }

    /// The fault-schedule seed.
    pub fn fault_seed(&self) -> u64 {
        self.fault_seed
    }
}

// ---------------------------------------------------------------------------
// Adjacency descriptions.
// ---------------------------------------------------------------------------

/// A fabric's raw shape: an *ordered* out-link list per node, each link
/// tagged with its [`LinkClass`].
///
/// This is all a new topology has to provide — [`FabricSpec::from_adjacency`]
/// derives routing tables, hop distances, and multicast trees from it.
/// The link order per node is significant: it is the routing tie-break
/// (lowest slot wins among equal-cost shortest-path links) and the
/// global link numbering (`node`'s slot `s` is link `base(node) + s`).
///
/// Adjacency must be symmetric as a multiset — every `a → b` link is
/// paired with a `b → a` link — and connected.
#[derive(Clone, Debug)]
pub struct Adjacency {
    num_nodes: u16,
    out: Vec<Vec<(NodeId, LinkClass)>>,
}

impl Adjacency {
    /// Creates an adjacency with `num_nodes` nodes and no links.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero.
    pub fn new(num_nodes: u16) -> Self {
        assert!(num_nodes > 0, "a fabric needs at least one node");
        Adjacency {
            num_nodes,
            out: vec![Vec::new(); num_nodes as usize],
        }
    }

    /// Appends a directed link from `from` to `to` (the next slot of
    /// `from`). Call symmetrically, or use [`Adjacency::add_duplex`].
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, class: LinkClass) {
        assert!(from.raw() < self.num_nodes, "{from} out of range");
        assert!(to.raw() < self.num_nodes, "{to} out of range");
        self.out[from.index()].push((to, class));
    }

    /// Appends the link pair `a → b` and `b → a`.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, class: LinkClass) {
        self.add_link(a, b, class);
        self.add_link(b, a, class);
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> u16 {
        self.num_nodes
    }

    /// Total directed links.
    pub fn num_links(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// The adjacency of `kind` on `num_nodes` nodes — the shapes behind
    /// [`FabricSpec::build`], exposed for tests and analysis.
    pub fn of_kind(kind: FabricKind, num_nodes: u16) -> Adjacency {
        match kind {
            FabricKind::Torus => Self::torus(num_nodes),
            FabricKind::Mesh2D => Self::mesh(num_nodes),
            FabricKind::Ring => Self::ring(num_nodes),
            FabricKind::FullyConnected => Self::fully_connected(num_nodes),
            FabricKind::Hierarchical { .. } => {
                Self::hierarchical(num_nodes, kind.cluster_size(num_nodes))
            }
        }
    }

    /// The paper's torus: per node, links in [`crate::topology::Direction::ALL`]
    /// order (XPlus, XMinus, YPlus, YMinus), so the BFS tie-break
    /// reproduces dimension-order routing exactly.
    fn torus(num_nodes: u16) -> Adjacency {
        use crate::topology::Direction;
        let topo = Topology::new(num_nodes);
        let mut adj = Adjacency::new(num_nodes);
        for n in 0..num_nodes {
            let node = NodeId::new(n);
            for dir in Direction::ALL {
                adj.add_link(node, topo.neighbor(node, dir), LinkClass::Local);
            }
        }
        adj
    }

    /// The torus grid without wraparound; boundary nodes simply omit the
    /// missing direction from their slot order.
    fn mesh(num_nodes: u16) -> Adjacency {
        let topo = Topology::new(num_nodes);
        let (w, h) = (topo.width(), topo.height());
        let mut adj = Adjacency::new(num_nodes);
        for n in 0..num_nodes {
            let node = NodeId::new(n);
            let (x, y) = topo.coords(node);
            // Same direction order as the torus (XPlus, XMinus, YPlus,
            // YMinus), minus the links that would wrap.
            if x + 1 < w {
                adj.add_link(node, topo.node_at(x + 1, y), LinkClass::Local);
            }
            if x > 0 {
                adj.add_link(node, topo.node_at(x - 1, y), LinkClass::Local);
            }
            if y + 1 < h {
                adj.add_link(node, topo.node_at(x, y + 1), LinkClass::Local);
            }
            if y > 0 {
                adj.add_link(node, topo.node_at(x, y - 1), LinkClass::Local);
            }
        }
        adj
    }

    /// A bidirectional ring: each node links forward then backward.
    fn ring(num_nodes: u16) -> Adjacency {
        let mut adj = Adjacency::new(num_nodes);
        if num_nodes < 2 {
            return adj;
        }
        for n in 0..num_nodes {
            let node = NodeId::new(n);
            adj.add_link(node, NodeId::new((n + 1) % num_nodes), LinkClass::Local);
            adj.add_link(
                node,
                NodeId::new((n + num_nodes - 1) % num_nodes),
                LinkClass::Local,
            );
        }
        adj
    }

    /// A full crossbar: each node links to every other in ascending id
    /// order.
    fn fully_connected(num_nodes: u16) -> Adjacency {
        let mut adj = Adjacency::new(num_nodes);
        for a in 0..num_nodes {
            for b in 0..num_nodes {
                if a != b {
                    adj.add_link(NodeId::new(a), NodeId::new(b), LinkClass::Local);
                }
            }
        }
        adj
    }

    /// Crossbar clusters of `cluster` nodes (node `i` belongs to cluster
    /// `i / cluster`), joined by a global ring over each cluster's
    /// gateway (its lowest-id node). Intra-cluster links come first in
    /// each node's slot order, tagged `Local`; the gateway's ring links
    /// follow, tagged `Global`.
    fn hierarchical(num_nodes: u16, cluster: u16) -> Adjacency {
        assert!(
            cluster > 0 && num_nodes.is_multiple_of(cluster),
            "cluster size {cluster} must divide the node count {num_nodes}"
        );
        let clusters = num_nodes / cluster;
        let mut adj = Adjacency::new(num_nodes);
        for n in 0..num_nodes {
            let node = NodeId::new(n);
            let base = n - n % cluster;
            for peer in base..base + cluster {
                if peer != n {
                    adj.add_link(node, NodeId::new(peer), LinkClass::Local);
                }
            }
            if clusters > 1 && n == base {
                let cl = n / cluster;
                let fwd = (cl + 1) % clusters;
                let back = (cl + clusters - 1) % clusters;
                adj.add_link(node, NodeId::new(fwd * cluster), LinkClass::Global);
                adj.add_link(node, NodeId::new(back * cluster), LinkClass::Global);
            }
        }
        adj
    }
}

// ---------------------------------------------------------------------------
// The built fabric: routing tables, link tables, multicast trees.
// ---------------------------------------------------------------------------

/// Table marker for `from == to` (no hop to take).
const SELF_SLOT: u16 = u16::MAX;

/// A fully built fabric: BFS shortest-path next-hop tables, per-link
/// route masks, hop distances, and flattened per-link parameter tables,
/// derived from an [`Adjacency`] by the generic deterministic routing
/// builder.
///
/// # Examples
///
/// ```
/// use patchsim_noc::{FabricConfig, FabricKind, FabricSpec, NodeId};
///
/// let spec = FabricSpec::build(&FabricConfig::new(FabricKind::Ring, 8));
/// assert_eq!(spec.hop_distance(NodeId::new(0), NodeId::new(3)), 3);
/// // The shortest way from 0 to 6 goes backward around the ring.
/// assert_eq!(spec.next_hop(NodeId::new(0), NodeId::new(6)), Some(NodeId::new(7)));
/// ```
#[derive(Clone, Debug)]
pub struct FabricSpec {
    num_nodes: u16,
    /// Entry `from * n + to`: the out-link slot of `from` toward `to`,
    /// or [`SELF_SLOT`] when `from == to`.
    next: Vec<u16>,
    /// Each link's route mask, `⌈n/64⌉` words from `link * ⌈n/64⌉`: bit
    /// `to` is set when `next` sends traffic for `to` from the link's
    /// source over this link. A node's masks are disjoint and cover every
    /// other node. Links × `⌈n/64⌉` × 8 B: 7 KiB on the 128-node mesh,
    /// 16 MiB on a 512-node crossbar.
    route_masks: Vec<u64>,
    /// Entry `dst * n + v`: hop distance from `v` to `dst`.
    dist: Vec<u16>,
    /// `link_base[node] .. link_base[node + 1]` are `node`'s out-links.
    link_base: Vec<u32>,
    /// The router at the far end of each link.
    link_dest: Vec<NodeId>,
    /// Per-link propagation latency in cycles.
    link_latency: Vec<u64>,
    /// Per-link parameter-class index into `class_params`.
    link_class: Vec<u8>,
    /// Resolved parameters per [`LinkClass`].
    class_params: [LinkParams; 2],
}

impl FabricSpec {
    /// Builds the spec for `config`: topology adjacency, auto-calibrated
    /// hop latency (unless pinned), and derived global-link parameters.
    ///
    /// # Panics
    ///
    /// Panics if the configured topology is disconnected.
    pub fn build(config: &FabricConfig) -> FabricSpec {
        let adj = Adjacency::of_kind(config.kind, config.num_nodes);
        // Calibrate the per-hop latency so the average traversal costs
        // about 15 cycles of link latency, exactly as the torus always
        // did — the generic average over all ordered pairs equals the
        // torus's from-node-0 average by vertex transitivity.
        let provisional = LinkParams {
            latency: 1,
            bandwidth: config.bandwidth,
        };
        let mut spec = Self::from_adjacency(&adj, [provisional; 2]);
        let hop_latency = config.hop_latency.unwrap_or_else(|| {
            let avg = spec.average_hop_distance().max(1.0);
            ((15.0 / avg).round() as u64).max(1)
        });
        let local = LinkParams {
            latency: hop_latency,
            bandwidth: config.bandwidth,
        };
        let global = LinkParams {
            latency: hop_latency * 4,
            bandwidth: match config.bandwidth {
                LinkBandwidth::BytesPerCycle(b) => LinkBandwidth::BytesPerCycle(b / 2.0),
                LinkBandwidth::Unbounded => LinkBandwidth::Unbounded,
            },
        };
        spec.set_class_params([local, global]);
        spec
    }

    /// The generic deterministic routing-table builder: derives next-hop
    /// and distance tables for any symmetric connected adjacency.
    ///
    /// For every destination a BFS (visiting nodes in ascending-id
    /// order) computes hop distances; the next hop from `from` toward
    /// `to` is then `from`'s first out-link slot whose far end is
    /// strictly closer to `to`. The tie-break is total and deterministic,
    /// and on the torus adjacency it reproduces dimension-order routing
    /// exactly (X before Y, wrap ties toward the positive direction). The
    /// same pass sets `to`'s bit in the route mask of the chosen link,
    /// which is what a multicast fans out by.
    ///
    /// # Panics
    ///
    /// Panics if the adjacency is disconnected.
    pub fn from_adjacency(adj: &Adjacency, class_params: [LinkParams; 2]) -> FabricSpec {
        let n = adj.num_nodes as usize;
        #[cfg(debug_assertions)]
        for (v, out) in adj.out.iter().enumerate() {
            for &(u, _) in out {
                let fwd = out.iter().filter(|&&(t, _)| t == u).count();
                let back = adj.out[u.index()]
                    .iter()
                    .filter(|&&(t, _)| t.index() == v)
                    .count();
                debug_assert_eq!(fwd, back, "asymmetric adjacency between P{v} and {u}");
            }
        }

        let mut dist = vec![u16::MAX; n * n];
        let mut frontier = VecDeque::new();
        for dst in 0..n {
            let row = &mut dist[dst * n..(dst + 1) * n];
            row[dst] = 0;
            frontier.push_back(dst);
            while let Some(v) = frontier.pop_front() {
                let dv = row[v];
                for &(nbr, _) in &adj.out[v] {
                    if row[nbr.index()] == u16::MAX {
                        row[nbr.index()] = dv + 1;
                        frontier.push_back(nbr.index());
                    }
                }
            }
            assert!(
                row.iter().all(|&d| d != u16::MAX),
                "fabric is disconnected: some node cannot reach P{dst}"
            );
        }

        let mut link_base = Vec::with_capacity(n + 1);
        let mut link_dest = Vec::with_capacity(adj.num_links());
        let mut link_class = Vec::with_capacity(adj.num_links());
        for out in &adj.out {
            link_base.push(link_dest.len() as u32);
            for &(nbr, class) in out {
                link_dest.push(nbr);
                link_class.push(class.index() as u8);
            }
        }
        link_base.push(link_dest.len() as u32);

        let words = n.div_ceil(64);
        let mut next = vec![SELF_SLOT; n * n];
        let mut route_masks = vec![0u64; link_dest.len() * words];
        for from in 0..n {
            for to in 0..n {
                if from == to {
                    continue;
                }
                let d = dist[to * n + from];
                let slot = adj.out[from]
                    .iter()
                    .position(|&(nbr, _)| dist[to * n + nbr.index()] + 1 == d)
                    .expect("a shortest path starts with some out-link");
                next[from * n + to] = slot as u16;
                let link = link_base[from] as usize + slot;
                route_masks[link * words + to / 64] |= 1 << (to % 64);
            }
        }

        let mut spec = FabricSpec {
            num_nodes: adj.num_nodes,
            next,
            route_masks,
            dist,
            link_base,
            link_dest,
            link_latency: Vec::new(),
            link_class,
            class_params,
        };
        spec.set_class_params(class_params);
        spec
    }

    /// (Re)applies per-class link parameters, refreshing the flattened
    /// per-link latency table.
    fn set_class_params(&mut self, class_params: [LinkParams; 2]) {
        self.class_params = class_params;
        self.link_latency = self
            .link_class
            .iter()
            .map(|&c| class_params[c as usize].latency)
            .collect();
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> u16 {
        self.num_nodes
    }

    /// Total directed links.
    pub fn num_links(&self) -> usize {
        self.link_dest.len()
    }

    /// Out-degree of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        (self.link_base[node.index() + 1] - self.link_base[node.index()]) as usize
    }

    /// The resolved parameters of each [`LinkClass`]
    /// (`[Local, Global]`).
    pub fn class_params(&self) -> [LinkParams; 2] {
        self.class_params
    }

    /// The global link id of `node`'s out-link slot `slot`.
    #[inline]
    pub fn link_id(&self, node: NodeId, slot: usize) -> usize {
        self.link_base[node.index()] as usize + slot
    }

    /// The router at the far end of `link`.
    #[inline]
    pub fn link_dest(&self, link: usize) -> NodeId {
        self.link_dest[link]
    }

    /// Propagation latency of `link` in cycles.
    #[inline]
    pub fn link_latency(&self, link: usize) -> u64 {
        self.link_latency[link]
    }

    /// Parameter-class index of `link` (into [`FabricSpec::class_params`]).
    #[inline]
    pub fn link_class(&self, link: usize) -> usize {
        self.link_class[link] as usize
    }

    /// The out-link slot a packet at `from` takes toward `to`, or `None`
    /// if `from == to`. One `u16` load — this is the routing hot path.
    #[inline]
    pub fn next_slot(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let s = self.next[from.index() * self.num_nodes as usize + to.index()];
        (s != SELF_SLOT).then_some(s as usize)
    }

    /// `link`'s route mask (see the `route_masks` field).
    #[inline]
    fn route_mask(&self, link: usize) -> &[u64] {
        let words = (self.num_nodes as usize).div_ceil(64);
        &self.route_masks[link * words..(link + 1) * words]
    }

    /// The fan-out rule, shared by the [`Fabric`] engine and
    /// [`FabricSpec::multicast_tree`]: a multicast at `node` sends the
    /// destinations in each out-link's route mask over that link, one
    /// branch per non-empty group, in ascending slot order.
    ///
    /// Returns the first slot at or after `first` whose group is not
    /// empty, and that group split off `dests` — or `None` in its place
    /// when the slot carries every destination left, so `dests` itself
    /// leaves over it and the fan-out is done. Otherwise call again from
    /// the returned slot plus one.
    ///
    /// # Panics
    ///
    /// Panics if `dests` is empty or holds `node`.
    #[inline]
    fn next_branch(
        &self,
        node: NodeId,
        first: usize,
        dests: &mut DestSet,
    ) -> (usize, Option<DestSet>) {
        let base = self.link_base[node.index()] as usize;
        (first..self.degree(node))
            .find_map(|slot| {
                let mask = self.route_mask(base + slot);
                dests.meets(mask).then(|| (slot, dests.split_off(mask)))
            })
            .expect("fan-out destinations are neither empty nor the current node")
    }

    /// The neighbor a packet at `from` is forwarded to toward `to`, or
    /// `None` if `from == to`.
    pub fn next_hop(&self, from: NodeId, to: NodeId) -> Option<NodeId> {
        self.next_slot(from, to)
            .map(|slot| self.link_dest[self.link_id(from, slot)])
    }

    /// `node`'s neighbors, in out-link slot order (duplicates preserved
    /// for parallel links).
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let base = self.link_base[node.index()] as usize;
        self.link_dest[base..base + self.degree(node)]
            .iter()
            .copied()
    }

    /// Whether the fabric has a direct `a → b` link.
    pub fn is_link(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).any(|n| n == b)
    }

    /// Minimal hop count from `a` to `b`.
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> u32 {
        self.dist[b.index() * self.num_nodes as usize + a.index()] as u32
    }

    /// Average hop distance over all ordered pairs of distinct nodes;
    /// the calibration input for the ~15-cycle average traversal.
    pub fn average_hop_distance(&self) -> f64 {
        let n = self.num_nodes as u64;
        if n < 2 {
            return 0.0;
        }
        let total: u64 = self.dist.iter().map(|&d| d as u64).sum();
        total as f64 / (n * (n - 1)) as f64
    }

    /// Expands the fan-out multicast tree a message from `src` to
    /// `dests` traverses: exactly the link-level branching the
    /// [`Fabric`] engine performs, without timing.
    ///
    /// Returns the tree's edges (in deterministic expansion order) and
    /// the delivery set. Every edge is a real fabric link; every
    /// destination appears in `deliveries` exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `dests` was sized for a different system.
    pub fn multicast_tree(&self, src: NodeId, dests: &DestSet) -> MulticastTree {
        assert_eq!(
            dests.num_nodes(),
            self.num_nodes,
            "destination set sized for a different system"
        );
        let mut tree = MulticastTree {
            edges: Vec::new(),
            deliveries: Vec::new(),
        };
        let mut work = VecDeque::from([(src, dests.clone())]);
        while let Some((node, mut set)) = work.pop_front() {
            if set.remove(node) {
                tree.deliveries.push(node);
            }
            if set.is_empty() {
                continue;
            }
            let mut first = 0;
            loop {
                let (slot, group) = self.next_branch(node, first, &mut set);
                let nbr = self.link_dest[self.link_id(node, slot)];
                tree.edges.push((node, nbr));
                let Some(group) = group else {
                    work.push_back((nbr, set));
                    break;
                };
                work.push_back((nbr, group));
                first = slot + 1;
            }
        }
        tree
    }
}

/// The result of [`FabricSpec::multicast_tree`]: the links a fan-out
/// multicast occupies and the nodes it delivers to.
#[derive(Clone, Debug)]
pub struct MulticastTree {
    /// `(from, to)` per traversed link, in expansion order.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Nodes the message is delivered at, in expansion order. Equals the
    /// destination set, each node exactly once.
    pub deliveries: Vec<NodeId>,
}

// ---------------------------------------------------------------------------
// The event-driven fabric engine.
// ---------------------------------------------------------------------------

/// A packet in flight: the payload plus routing and accounting state.
#[derive(Debug)]
struct Packet<M> {
    msg: M,
    dests: DestSet,
    priority: Priority,
    size: u64,
    class: TrafficClass,
    /// Cached `NocPayload::dup_safe` of the message: whether the fault
    /// layer may genuinely deliver this packet twice.
    dup_safe: bool,
}

impl<M: Clone> Packet<M> {
    /// Splits off a copy of this packet covering `dests`.
    fn branch(&self, dests: DestSet) -> Packet<M> {
        Packet {
            msg: self.msg.clone(),
            dests,
            priority: self.priority,
            size: self.size,
            class: self.class,
            dup_safe: self.dup_safe,
        }
    }
}

/// An internal interconnect event. Opaque to callers: obtain them from the
/// scheduling callback of [`Fabric::send`] / [`Fabric::handle`] and feed
/// them back to [`Fabric::handle`] at their scheduled time.
#[derive(Debug)]
pub struct NocEvent<M>(Event<M>);

#[derive(Debug)]
enum Event<M> {
    /// A packet arrives at `node`'s router (possibly its final stop).
    ///
    /// Boxed so a `NocEvent` is pointer-sized: events sit in the kernel
    /// queue's wheel buckets, and moving ~16 bytes per push/pop instead
    /// of a 100+-byte packet keeps the hot loop in cache. The boxes come
    /// from (and return to) the fabric's packet pool, so steady-state
    /// operation performs no allocation.
    Arrive {
        node: NodeId,
        packet: Box<Packet<M>>,
    },
    /// Wake-up of a contended link: it has finished serializing and
    /// packets are waiting. Never scheduled for a link nobody queued on.
    LinkFree { link: usize },
}

/// One directed link: a busy-until timestamp instead of a busy flag, so
/// an uncontended traversal costs exactly one kernel event (the `Arrive`
/// at the far router) and nothing has to "free" an idle link.
///
/// Invariant: exactly one `LinkFree` wake-up sits in the kernel queue
/// while `queue` is non-empty, and none otherwise — whoever queues first
/// behind a busy link schedules it, and the wake-up re-arms itself while
/// packets remain. It is stamped with the `free_at` current when it was
/// scheduled, which cannot move before it fires: only a transmission
/// advances `free_at`, and nothing transmits while packets wait.
#[derive(Debug)]
struct LinkState<M> {
    /// First cycle at which the link may start serializing another
    /// packet. Stays `Cycle::ZERO` forever on unbounded-bandwidth links.
    free_at: Cycle,
    /// Packets that reached the link while it was busy (or while earlier
    /// arrivals were still waiting for the pending wake-up).
    queue: PriorityQueue<Box<Packet<M>>>,
    busy_cycles: u64,
}

/// Upper bound on pooled packet boxes; beyond this, freed boxes simply
/// deallocate. Far above any sustained in-flight packet count.
const PACKET_POOL_CAP: usize = 4096;

/// The interconnect engine: one event-driven link/router model driving
/// every [`FabricKind`] through the precomputed tables of a
/// [`FabricSpec`].
///
/// See the [crate-level documentation](crate) for the modelling contract
/// and a usage example. `M` is the protocol message type; it must be
/// `Clone` because multicast fan-out duplicates packets at tree branches.
#[derive(Debug)]
pub struct Fabric<M> {
    spec: FabricSpec,
    /// Last computed serialization delay per link class per size class
    /// (control / data): `(size_bytes, cycles)`. Real traffic uses two
    /// wire sizes, so this caches the float division out of the
    /// per-traversal path while computing unknown sizes exactly as
    /// before.
    ser_memo: [[(u64, u64); 2]; 2],
    config: FabricConfig,
    links: Vec<LinkState<M>>,
    /// Free list of packet boxes: multicast branches and fresh sends
    /// reuse the allocations of delivered packets.
    pool: Vec<Box<Packet<M>>>,
    /// Fault-injection machinery; `None` (no faults configured) keeps the
    /// transmit path byte-identical to a fault-free build.
    faults: Option<FaultState>,
    stats: TrafficStats,
}

impl<M: Clone + NocPayload> Fabric<M> {
    /// Builds the interconnect for `config`.
    pub fn new(config: FabricConfig) -> Self {
        let spec = FabricSpec::build(&config);
        let links = (0..spec.num_links())
            .map(|_| LinkState {
                free_at: Cycle::ZERO,
                queue: PriorityQueue::new(),
                busy_cycles: 0,
            })
            .collect();
        let faults = (!config.faults.is_none()).then(|| {
            // Map each link id back to its source node for the per-node
            // degradation clause (link_base is monotone; the node owning
            // link i is the last base at or below i).
            let base = spec.link_base.clone();
            FaultState::new(
                config.faults,
                config.fault_seed,
                spec.num_nodes() as usize,
                spec.num_links(),
                move |link| base.partition_point(|&b| b as usize <= link) - 1,
            )
        });
        Fabric {
            spec,
            ser_memo: [[(u64::MAX, 0); 2]; 2],
            config,
            links,
            pool: Vec::with_capacity(64),
            faults,
            stats: TrafficStats::new(),
        }
    }

    /// Boxes `packet`, reusing a pooled allocation when one is free.
    #[inline]
    fn alloc_packet(&mut self, packet: Packet<M>) -> Box<Packet<M>> {
        match self.pool.pop() {
            Some(mut boxed) => {
                *boxed = packet;
                boxed
            }
            None => Box::new(packet),
        }
    }

    /// Returns a delivered packet's box to the pool.
    #[inline]
    fn free_packet(&mut self, boxed: Box<Packet<M>>) {
        if self.pool.len() < PACKET_POOL_CAP {
            self.pool.push(boxed);
        }
    }

    /// Serialization delay for a packet of `size` bytes on a link of
    /// class `class`, memoized per size class. Identical to
    /// [`LinkBandwidth::serialization_cycles`], minus the float division
    /// on repeat sizes.
    #[inline]
    fn serialization_cycles(&mut self, class: usize, size: u64) -> u64 {
        let slot = usize::from(size >= 64);
        let (cached_size, cached_cycles) = self.ser_memo[class][slot];
        if cached_size == size {
            return cached_cycles;
        }
        let cycles = self.spec.class_params[class]
            .bandwidth
            .serialization_cycles(size);
        self.ser_memo[class][slot] = (size, cycles);
        cycles
    }

    /// The built routing/link tables.
    pub fn spec(&self) -> &FabricSpec {
        &self.spec
    }

    /// The active configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Resets traffic statistics (e.g. after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = TrafficStats::new();
    }

    /// Injects a message from `src` toward every node in `dests`.
    ///
    /// Multi-destination messages are routed as a single fan-out multicast:
    /// each link of the routing tree carries the message once. Follow-up
    /// events are emitted through `sched`; feed them back via
    /// [`Fabric::handle`] at their timestamps. A destination equal to `src`
    /// is delivered locally after the one-cycle self-send latency without
    /// touching any link.
    ///
    /// # Panics
    ///
    /// Panics if `dests` is empty or sized for a different system.
    pub fn send(
        &mut self,
        now: Cycle,
        src: NodeId,
        dests: DestSet,
        priority: Priority,
        msg: M,
        sched: &mut impl FnMut(Cycle, NocEvent<M>),
    ) {
        assert!(!dests.is_empty(), "message from {src} with no destinations");
        assert_eq!(
            dests.num_nodes(),
            self.spec.num_nodes(),
            "destination set sized for a different system"
        );
        let packet = self.alloc_packet(Packet {
            size: msg.size_bytes(),
            class: msg.traffic_class(),
            dup_safe: msg.dup_safe(),
            msg,
            dests,
            priority,
        });
        // Local destinations never touch the network fabric; they arrive at
        // this node's own router after the self-send latency. Remote
        // destinations start routing immediately. We express both by
        // scheduling the arrival at the source router: `Arrive` handles
        // local delivery and forwards the rest.
        sched(
            now + SELF_SEND_LATENCY,
            NocEvent(Event::Arrive { node: src, packet }),
        );
    }

    /// Processes one previously scheduled interconnect event.
    ///
    /// `sched` receives follow-up events; `deliver` receives `(node,
    /// message)` pairs for every completed delivery.
    pub fn handle(
        &mut self,
        now: Cycle,
        event: NocEvent<M>,
        sched: &mut impl FnMut(Cycle, NocEvent<M>),
        deliver: &mut impl FnMut(NodeId, M),
    ) {
        match event.0 {
            Event::Arrive { node, mut packet } => {
                if packet.dests.remove(node) {
                    if packet.dests.is_empty() {
                        // Final stop: hand the message out (a flat copy —
                        // protocol messages own no heap data) and recycle
                        // the box.
                        deliver(node, packet.msg.clone());
                        self.free_packet(packet);
                        return;
                    }
                    deliver(node, packet.msg.clone());
                }
                self.route_onward(now, node, packet, sched);
            }
            Event::LinkFree { link } => {
                let stale = self.config.stale_drop_cycles;
                let stats = &mut self.stats;
                let state = &mut self.links[link];
                debug_assert!(now >= state.free_at && !state.queue.is_empty());
                // `None` when every waiter was a best-effort packet that
                // went stale: the queue is empty again and the link idle.
                let next = state.queue.pop(now, stale, |dropped: Box<Packet<M>>| {
                    stats.record_drop(dropped.size)
                });
                if let Some(packet) = next {
                    self.transmit(now, link, packet, sched);
                    let state = &self.links[link];
                    if !state.queue.is_empty() {
                        sched(state.free_at, NocEvent(Event::LinkFree { link }));
                    }
                }
            }
        }
    }

    /// Splits a packet's remaining destinations by out-link route mask
    /// ([`FabricSpec::next_branch`]) and enqueues one branch per
    /// non-empty group, in ascending slot order (fan-out multicast). The
    /// packet itself — message payload included — moves into the last
    /// branch, so the common unicast case clones nothing.
    fn route_onward(
        &mut self,
        now: Cycle,
        node: NodeId,
        mut packet: Box<Packet<M>>,
        sched: &mut impl FnMut(Cycle, NocEvent<M>),
    ) {
        debug_assert!(!packet.dests.contains(node));
        // Unicast fast path: one destination means one branch — a single
        // table lookup, no grouping pass.
        if let Some(dest) = packet.dests.as_single() {
            let slot = self
                .spec
                .next_slot(node, dest)
                .expect("dest equal to current node was already removed");
            self.enqueue(now, node, slot, packet, sched);
            return;
        }
        let mut first = 0;
        loop {
            let (slot, group) = self.spec.next_branch(node, first, &mut packet.dests);
            let Some(group) = group else {
                self.enqueue(now, node, slot, packet, sched);
                return;
            };
            let branch = self.alloc_packet(packet.branch(group));
            self.enqueue(now, node, slot, branch, sched);
            first = slot + 1;
        }
    }

    /// Puts `branch` on `node`'s out-link slot `slot`: transmits at once
    /// if the link is free and nobody is waiting (no queue traffic, no
    /// follow-up event), otherwise queues it and makes sure exactly one
    /// wake-up is scheduled for the cycle the link frees.
    fn enqueue(
        &mut self,
        now: Cycle,
        node: NodeId,
        slot: usize,
        branch: Box<Packet<M>>,
        sched: &mut impl FnMut(Cycle, NocEvent<M>),
    ) {
        let link = self.spec.link_id(node, slot);
        let state = &mut self.links[link];
        let first_in_line = state.queue.is_empty();
        if first_in_line && now >= state.free_at {
            self.transmit(now, link, branch, sched);
            return;
        }
        state.queue.push(now, branch.priority, branch);
        if first_in_line {
            // The first waiter arms the link's one wake-up; later ones
            // ride on it.
            sched(state.free_at, NocEvent(Event::LinkFree { link }));
        }
    }

    /// Begins transmitting `packet` on `link`, which must be free:
    /// charges traffic, occupies the link for the serialization delay,
    /// and schedules the arrival at the neighboring router — the only
    /// event a traversal costs.
    fn transmit(
        &mut self,
        now: Cycle,
        link: usize,
        packet: Box<Packet<M>>,
        sched: &mut impl FnMut(Cycle, NocEvent<M>),
    ) {
        debug_assert!(now >= self.links[link].free_at);
        self.stats.record(packet.class, packet.size);
        let class = self.spec.link_class(link);
        let mut serialize = self.serialization_cycles(class, packet.size);
        let mut latency = self.spec.link_latency(link);
        // Fault injection (None on the fault-free path: timing below is
        // then bit-identical to a build without the fault layer). Degraded
        // links stretch both latency and serialization; storms stretch
        // serialization fabric-wide; spikes and reordering jitter delay
        // the arrival without occupying the link.
        let mut extra_delay = 0;
        let mut duplicate = false;
        if let Some(faults) = self.faults.as_mut() {
            let factor = faults.link_factor(link);
            serialize *= factor * faults.storm_factor(now.as_u64());
            latency *= factor;
            let t = faults.draw();
            extra_delay = t.extra_delay;
            duplicate = t.duplicate;
        }
        let mut dup_packet = None;
        if duplicate {
            // The duplicated bytes cross the link a second time either way.
            self.stats.record(packet.class, packet.size);
            if packet.dup_safe {
                // Genuine double delivery, only for packets whose protocol
                // tolerates duplicates (NocPayload::dup_safe).
                dup_packet = Some(packet.branch(packet.dests.clone()));
            } else {
                // Link-level retransmission: the link is occupied for a
                // second serialization and the single copy arrives late —
                // at-most-once delivery of token carriers is preserved.
                serialize *= 2;
            }
        }
        let neighbor = self.spec.link_dest(link);
        let arrival = now + serialize + latency + extra_delay;
        if let Some(dup) = dup_packet {
            let dup = self.alloc_packet(dup);
            sched(
                arrival + 1,
                NocEvent(Event::Arrive {
                    node: neighbor,
                    packet: dup,
                }),
            );
        }
        sched(
            arrival,
            NocEvent(Event::Arrive {
                node: neighbor,
                packet,
            }),
        );
        // With unbounded bandwidth the link never saturates: `free_at`
        // never moves, so every packet transmits on arrival.
        if !self.spec.class_params[class].bandwidth.is_unbounded() {
            let state = &mut self.links[link];
            state.free_at = now + serialize.max(1);
            state.busy_cycles += serialize;
        }
    }

    /// Total cycles all links spent transmitting; a utilization diagnostic.
    pub fn total_busy_cycles(&self) -> u64 {
        self.links.iter().map(|l| l.busy_cycles).sum()
    }

    /// Number of packets currently queued across all links.
    pub fn queued_packets(&self) -> usize {
        self.links.iter().map(|l| l.queue.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_round_trip() {
        for kind in FabricKind::ALL {
            assert_eq!(FabricKind::parse(&kind.label()), Some(kind));
        }
        let explicit = FabricKind::Hierarchical { cluster: Some(4) };
        assert_eq!(explicit.label(), "hier:4");
        assert_eq!(FabricKind::parse("hier:4"), Some(explicit));
        assert_eq!(
            FabricKind::parse("crossbar"),
            Some(FabricKind::FullyConnected)
        );
        assert_eq!(FabricKind::parse("nope"), None);
        assert_eq!(FabricKind::parse("hier:x"), None);
        assert_eq!(FabricKind::parse("hier:0"), None, "zero clusters rejected");
    }

    #[test]
    fn cluster_size_resolution() {
        assert_eq!(
            FabricKind::Hierarchical { cluster: None }.cluster_size(16),
            4
        );
        assert_eq!(
            FabricKind::Hierarchical { cluster: None }.cluster_size(8),
            4
        );
        assert_eq!(
            FabricKind::Hierarchical { cluster: Some(2) }.cluster_size(8),
            2
        );
        assert_eq!(FabricKind::Ring.cluster_size(8), 8);
    }

    /// An explicit cluster size that does not divide the node count
    /// falls back to the automatic factorization instead of panicking,
    /// so one `hier:C` choice survives a core-count sweep.
    #[test]
    fn hierarchical_cluster_falls_back_when_it_does_not_divide() {
        let kind = FabricKind::Hierarchical { cluster: Some(8) };
        assert_eq!(kind.cluster_size(16), 8, "divisor applies as given");
        assert_eq!(kind.cluster_size(4), 2, "fallback to the squarest factor");
        let spec = FabricSpec::build(&FabricConfig::new(kind, 4));
        assert_eq!(spec.num_nodes(), 4);
        // 4 nodes in two 2-node clusters: cross-cluster gateway hop.
        assert_eq!(spec.hop_distance(NodeId::new(1), NodeId::new(3)), 3);
    }

    #[test]
    fn crossbar_is_single_hop() {
        let spec = FabricSpec::build(&FabricConfig::new(FabricKind::FullyConnected, 9));
        for a in 0..9 {
            for b in 0..9 {
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                assert_eq!(spec.hop_distance(a, b), u32::from(a != b));
                if a != b {
                    assert_eq!(spec.next_hop(a, b), Some(b));
                }
            }
        }
        // avg hops == 1 → calibrated to the full 15-cycle traversal.
        assert_eq!(spec.class_params()[0].latency, 15);
    }

    #[test]
    fn ring_routes_the_short_way() {
        let spec = FabricSpec::build(&FabricConfig::new(FabricKind::Ring, 8));
        assert_eq!(spec.hop_distance(NodeId::new(0), NodeId::new(4)), 4);
        // Ties (exactly half way) break toward the forward link (slot 0).
        assert_eq!(
            spec.next_hop(NodeId::new(0), NodeId::new(4)),
            Some(NodeId::new(1))
        );
        assert_eq!(
            spec.next_hop(NodeId::new(0), NodeId::new(6)),
            Some(NodeId::new(7))
        );
        assert_eq!(spec.degree(NodeId::new(3)), 2);
    }

    #[test]
    fn mesh_has_no_wraparound() {
        // 4x4 mesh: corner-to-corner is 6 hops (vs 2 on the torus).
        let spec = FabricSpec::build(&FabricConfig::new(FabricKind::Mesh2D, 16));
        assert_eq!(spec.hop_distance(NodeId::new(0), NodeId::new(15)), 6);
        assert_eq!(spec.degree(NodeId::new(0)), 2, "corner");
        assert_eq!(spec.degree(NodeId::new(1)), 3, "edge");
        assert_eq!(spec.degree(NodeId::new(5)), 4, "interior");
    }

    #[test]
    fn hierarchical_routes_through_gateways() {
        // 16 nodes, 4 clusters of 4; gateways are 0, 4, 8, 12.
        let spec = FabricSpec::build(&FabricConfig::new(
            FabricKind::Hierarchical { cluster: Some(4) },
            16,
        ));
        // Intra-cluster: one hop.
        assert_eq!(spec.hop_distance(NodeId::new(1), NodeId::new(3)), 1);
        // Cross-cluster from a non-gateway: to own gateway, across, then
        // into the target cluster: 1 + 1 + 1 = 3.
        assert_eq!(spec.hop_distance(NodeId::new(1), NodeId::new(5)), 3);
        assert_eq!(
            spec.next_hop(NodeId::new(1), NodeId::new(5)),
            Some(NodeId::new(0))
        );
        // Gateway ring links carry the Global class parameters.
        let g0 = NodeId::new(0);
        let slot = spec.next_slot(g0, NodeId::new(4)).unwrap();
        let link = spec.link_id(g0, slot);
        assert_eq!(spec.link_class(link), LinkClass::Global.index());
        let [local, global] = spec.class_params();
        assert_eq!(global.latency, 4 * local.latency);
        assert_eq!(
            global.bandwidth,
            LinkBandwidth::BytesPerCycle(8.0),
            "derived global bandwidth is half the 16 B/c default"
        );
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_adjacency_rejected() {
        let adj = Adjacency::new(2); // two nodes, no links
        let params = LinkParams {
            latency: 1,
            bandwidth: LinkBandwidth::Unbounded,
        };
        let _ = FabricSpec::from_adjacency(&adj, [params; 2]);
    }

    #[test]
    fn single_node_fabrics_build() {
        for kind in FabricKind::ALL {
            let spec = FabricSpec::build(&FabricConfig::new(kind, 1));
            assert_eq!(spec.num_nodes(), 1);
            assert_eq!(spec.next_slot(NodeId::new(0), NodeId::new(0)), None);
            assert_eq!(spec.average_hop_distance(), 0.0);
        }
    }

    /// Following next hops repeatedly reaches the destination in exactly
    /// `hop_distance` steps on every fabric (routing is minimal and
    /// loop-free).
    #[test]
    fn routing_is_minimal_on_every_fabric() {
        for kind in FabricKind::ALL {
            for n in [2u16, 6, 12, 16] {
                let spec = FabricSpec::build(&FabricConfig::new(kind, n));
                for from in 0..n {
                    for to in 0..n {
                        let (from, to) = (NodeId::new(from), NodeId::new(to));
                        let mut cur = from;
                        let mut steps = 0;
                        while let Some(next) = spec.next_hop(cur, to) {
                            cur = next;
                            steps += 1;
                            assert!(steps <= spec.hop_distance(from, to), "loop on {kind}");
                        }
                        assert_eq!(cur, to);
                        assert_eq!(steps, spec.hop_distance(from, to), "{kind} {from}->{to}");
                    }
                }
            }
        }
    }

    /// A node's route masks partition the other nodes: pairwise disjoint,
    /// together every node but the node itself, and each destination in
    /// the mask of the slot `next_slot` names — so grouping by mask is
    /// grouping by next hop.
    #[test]
    fn route_masks_partition_the_other_nodes_by_next_slot() {
        for kind in FabricKind::ALL {
            for n in [1u16, 16, 80, 144] {
                let spec = FabricSpec::build(&FabricConfig::new(kind, n));
                for node in (0..n).map(NodeId::new) {
                    let masks: Vec<&[u64]> = (0..spec.degree(node))
                        .map(|slot| spec.route_mask(spec.link_id(node, slot)))
                        .collect();
                    let mut union = DestSet::empty(n);
                    for (slot, mask) in masks.iter().enumerate() {
                        for other in &masks[slot + 1..] {
                            assert!(
                                mask.iter().zip(*other).all(|(a, b)| a & b == 0),
                                "{kind}/{n}: {node}'s masks overlap"
                            );
                        }
                        for to in (0..n).map(NodeId::new) {
                            let bit = mask[to.index() / 64] >> (to.index() % 64) & 1 == 1;
                            assert_eq!(
                                bit,
                                spec.next_slot(node, to) == Some(slot),
                                "{kind}/{n}: {node}->{to} in slot {slot}'s mask"
                            );
                            if bit {
                                union.insert(to);
                            }
                        }
                    }
                    assert_eq!(union, DestSet::all_except(n, node), "{kind}/{n} at {node}");
                }
            }
        }
    }

    /// A probe payload whose `dup_safe` flag is chosen per message.
    #[derive(Clone, Debug)]
    struct Probe {
        dup_safe: bool,
    }

    impl NocPayload for Probe {
        fn size_bytes(&self) -> u64 {
            8
        }
        fn traffic_class(&self) -> TrafficClass {
            TrafficClass::IndirectRequest
        }
        fn dup_safe(&self) -> bool {
            self.dup_safe
        }
    }

    /// Sends one probe from node 0 to each of `dests` and drains the
    /// event list in timestamp order, returning every delivery as
    /// `(cycle, node)`.
    fn deliveries_to(mut net: Fabric<Probe>, dup_safe: bool, dests: &[u16]) -> Vec<(u64, NodeId)> {
        let n = net.spec().num_nodes();
        let mut pending: Vec<(Cycle, NocEvent<Probe>)> = Vec::new();
        for &d in dests {
            net.send(
                Cycle::ZERO,
                NodeId::new(0),
                DestSet::single(n, NodeId::new(d)),
                Priority::Normal,
                Probe { dup_safe },
                &mut |at, ev| pending.push((at, ev)),
            );
        }
        let mut out = Vec::new();
        while !pending.is_empty() {
            let i = pending
                .iter()
                .enumerate()
                .min_by_key(|(i, (at, _))| (*at, *i))
                .map(|(i, _)| i)
                .unwrap();
            let (at, ev) = pending.remove(i);
            let mut delivered = Vec::new();
            net.handle(
                at,
                ev,
                &mut |t, e| pending.push((t, e)),
                &mut |node, _msg| delivered.push((at.as_u64(), node)),
            );
            out.extend(delivered);
        }
        out
    }

    /// One probe from node 0 to node 1.
    fn deliveries(net: Fabric<Probe>, dup_safe: bool) -> Vec<(u64, NodeId)> {
        deliveries_to(net, dup_safe, &[1])
    }

    #[test]
    fn fault_free_config_installs_no_fault_state() {
        let cfg = FabricConfig::new(FabricKind::FullyConnected, 2)
            .with_faults(FaultSpec::none())
            .with_fault_seed(123);
        let net: Fabric<Probe> = Fabric::new(cfg);
        assert!(net.faults.is_none());
        // Timing identical to a config that never mentioned faults.
        let base = deliveries(
            Fabric::new(FabricConfig::new(FabricKind::FullyConnected, 2)),
            false,
        );
        assert_eq!(deliveries(Fabric::new(cfg), false), base);
    }

    #[test]
    fn degraded_links_stretch_arrival() {
        let base = FabricConfig::new(FabricKind::FullyConnected, 2);
        let healthy = deliveries(Fabric::new(base), false);
        let degraded = deliveries(
            Fabric::new(base.with_faults(FaultSpec::parse("slowlinks:1.0:2").unwrap())),
            false,
        );
        assert_eq!(healthy.len(), 1);
        assert_eq!(degraded.len(), 1);
        assert!(
            degraded[0].0 > healthy[0].0,
            "2x-degraded link must deliver later ({} vs {})",
            degraded[0].0,
            healthy[0].0
        );
    }

    #[test]
    fn dup_safe_packets_deliver_twice_others_once_but_late() {
        let cfg = FabricConfig::new(FabricKind::FullyConnected, 2)
            .with_faults(FaultSpec::parse("dup:1.0").unwrap());
        let dup = deliveries(Fabric::new(cfg), true);
        assert_eq!(dup.len(), 2, "dup-safe probe must arrive twice");
        assert!(dup.iter().all(|&(_, n)| n == NodeId::new(1)));

        let retrans = deliveries(Fabric::new(cfg), false);
        assert_eq!(retrans.len(), 1, "token carriers stay at-most-once");
        let healthy = deliveries(
            Fabric::new(FabricConfig::new(FabricKind::FullyConnected, 2)),
            false,
        );
        assert!(
            retrans[0].0 > healthy[0].0,
            "retransmission must delay the single delivery"
        );
    }

    #[test]
    fn fault_schedules_replay_from_spec_and_seed() {
        // One probe to every other ring node: 120 traversals, so two
        // seeds agreeing on every jitter draw is astronomically unlikely.
        let dests: Vec<u16> = (1..16).collect();
        let cfg = FabricConfig::new(FabricKind::Ring, 16)
            .with_faults(FaultSpec::parse("chaos").unwrap())
            .with_fault_seed(42);
        assert_eq!(
            deliveries_to(Fabric::new(cfg), false, &dests),
            deliveries_to(Fabric::new(cfg), false, &dests)
        );
        let other = cfg.with_fault_seed(43);
        assert_ne!(
            deliveries_to(Fabric::new(cfg), false, &dests),
            deliveries_to(Fabric::new(other), false, &dests)
        );
    }

    #[test]
    fn multicast_tree_covers_exactly_the_destinations() {
        let spec = FabricSpec::build(&FabricConfig::new(FabricKind::Mesh2D, 16));
        let dests = DestSet::all_except(16, NodeId::new(5));
        let tree = spec.multicast_tree(NodeId::new(5), &dests);
        let mut delivered: Vec<u16> = tree.deliveries.iter().map(|n| n.raw()).collect();
        delivered.sort_unstable();
        let want: Vec<u16> = (0..16).filter(|&n| n != 5).collect();
        assert_eq!(delivered, want);
        for &(a, b) in &tree.edges {
            assert!(spec.is_link(a, b), "tree edge {a}->{b} is not a link");
        }
    }

    /// A fabric reserves no wait queue: a finite link's queue allocates
    /// when a packet first waits on it, not at construction.
    #[test]
    fn links_start_with_empty_queues() {
        let cfg = FabricConfig::new(FabricKind::Torus, 64)
            .with_bandwidth(LinkBandwidth::BytesPerCycle(2.0));
        let net: Fabric<Probe> = Fabric::new(cfg);
        assert_eq!(net.links.len(), 256);
        assert!(net.links.iter().all(|link| link.queue.capacity() == 0));
    }
}
