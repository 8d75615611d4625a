//! Fabric-subsystem contract tests.
//!
//! 1. **Golden equivalence**: the generic BFS routing-table builder,
//!    instantiated on the torus adjacency, must reproduce dimension-order
//!    routing *exactly* — every `(src, dst)` pair, several shapes (square,
//!    rectangular, odd widths with wrap ties, and the paper's 512-node
//!    sweep size); the reference router is defined, and itself tested,
//!    below. This pins the fabric against the perf-hash goldens:
//!    identical next hops mean identical event sequences.
//! 2. **Multicast-tree properties**: on every shipped fabric, the fan-out
//!    expansion of a random `DestSet` delivers to exactly the destination
//!    set (no duplicates, none missing) over edges that are real fabric
//!    links — for one-word and two-word inline (≤ 128 node) and spill
//!    (> 128 node) set representations, seeded with `SimRng` — and
//!    expands to exactly the tree an independent per-destination
//!    reference (below) builds, edge for edge and delivery for delivery.

use std::collections::VecDeque;

use patchsim_kernel::{Cycle, EventQueue, SimRng};
use patchsim_noc::{
    DestSet, Fabric, FabricConfig, FabricKind, FabricSpec, NocEvent, NocPayload, NodeId, Priority,
    Topology, TrafficClass,
};

// ---------------------------------------------------------------------------
// The reference dimension-order router.
// ---------------------------------------------------------------------------

/// Out-link slots of a torus node, in the order the torus adjacency lists
/// its links (`Direction::ALL`).
const X_PLUS: usize = 0;
const X_MINUS: usize = 1;
const Y_PLUS: usize = 2;
const Y_MINUS: usize = 3;

/// The out-link slot a packet at `from` takes toward `to` under
/// dimension-order (X then Y) routing with shortest-way wraparound, or
/// `None` if `from == to`.
fn next_hop(t: Topology, from: NodeId, to: NodeId) -> Option<usize> {
    if from == to {
        return None;
    }
    let (fx, fy) = t.coords(from);
    let (tx, ty) = t.coords(to);
    if fx != tx {
        let forward = (tx + t.width() - fx) % t.width();
        // Ties (exactly half way around) break toward XPlus.
        Some(if forward * 2 <= t.width() {
            X_PLUS
        } else {
            X_MINUS
        })
    } else {
        let forward = (ty + t.height() - fy) % t.height();
        Some(if forward * 2 <= t.height() {
            Y_PLUS
        } else {
            Y_MINUS
        })
    }
}

/// The node one hop from `node` through out-link `slot`.
fn step(t: Topology, node: NodeId, slot: usize) -> NodeId {
    let (x, y) = t.coords(node);
    let (w, h) = (t.width(), t.height());
    match slot {
        X_PLUS => t.node_at((x + 1) % w, y),
        X_MINUS => t.node_at((x + w - 1) % w, y),
        Y_PLUS => t.node_at(x, (y + 1) % h),
        Y_MINUS => t.node_at(x, (y + h - 1) % h),
        _ => panic!("a torus node has four out-links, not slot {slot}"),
    }
}

/// Minimal hop count between two nodes on the torus.
fn hop_distance(t: Topology, a: NodeId, b: NodeId) -> u32 {
    let (ax, ay) = t.coords(a);
    let (bx, by) = t.coords(b);
    let dx = {
        let fwd = (bx + t.width() - ax) % t.width();
        fwd.min(t.width() - fwd)
    };
    let dy = {
        let fwd = (by + t.height() - ay) % t.height();
        fwd.min(t.height() - fwd)
    };
    dx as u32 + dy as u32
}

/// Average hop distance between distinct node pairs.
fn average_hop_distance(t: Topology) -> f64 {
    let n = t.width() * t.height();
    if n < 2 {
        return 0.0;
    }
    // Distances from node 0 are representative: the torus is
    // vertex-transitive.
    let total: u64 = (0..n)
        .map(|i| hop_distance(t, NodeId::new(0), NodeId::new(i)) as u64)
        .sum();
    total as f64 / (n - 1) as f64
}

#[test]
fn next_hop_none_for_self() {
    let t = Topology::new(16);
    assert_eq!(next_hop(t, NodeId::new(5), NodeId::new(5)), None);
}

#[test]
fn wraparound_distance() {
    let t = Topology::new(64); // 8x8
                               // corner to corner: 1 hop x (wrap) + 1 hop y (wrap)
    assert_eq!(hop_distance(t, NodeId::new(0), NodeId::new(63)), 2);
    // max distance on 8x8 torus is 4+4
    let max = (0..64)
        .map(|i| hop_distance(t, NodeId::new(0), NodeId::new(i)))
        .max()
        .unwrap();
    assert_eq!(max, 8);
}

#[test]
fn average_hop_distance_known_value() {
    // 2x2 torus: distances from 0 are [0,1,1,2] -> avg over others = 4/3
    let t = Topology::new(4);
    assert!((average_hop_distance(t) - 4.0 / 3.0).abs() < 1e-12);
    assert_eq!(average_hop_distance(Topology::new(1)), 0.0);
}

/// Following next_hop repeatedly always reaches the destination in
/// exactly hop_distance steps (routing is minimal and loop-free).
/// Randomised over 512 seeded (size, from, to) draws.
#[test]
fn routing_is_minimal() {
    let mut rng = SimRng::from_seed(0x707);
    for _ in 0..512 {
        let n = 1 + rng.below(149) as u16;
        let t = Topology::new(n);
        let from = NodeId::new(rng.below(n as u64) as u16);
        let to = NodeId::new(rng.below(n as u64) as u16);
        let mut cur = from;
        let mut steps = 0;
        while let Some(slot) = next_hop(t, cur, to) {
            cur = step(t, cur, slot);
            steps += 1;
            assert!(
                steps <= hop_distance(t, from, to),
                "route exceeded minimal length"
            );
        }
        assert_eq!(cur, to);
        assert_eq!(steps, hop_distance(t, from, to));
    }
}

/// Torus shapes exercised by the golden test: tiny, square, rectangular,
/// odd sizes with exact half-way wrap ties, and the paper's largest
/// scalability point.
const GOLDEN_SHAPES: [u16; 8] = [1, 2, 4, 6, 15, 16, 64, 512];

#[test]
fn bfs_builder_reproduces_dimension_order_routing_on_the_torus() {
    for n in GOLDEN_SHAPES {
        let topo = Topology::new(n);
        let spec = FabricSpec::build(&FabricConfig::new(FabricKind::Torus, n));
        for from in 0..n {
            for to in 0..n {
                let (from, to) = (NodeId::new(from), NodeId::new(to));
                assert_eq!(
                    spec.next_slot(from, to),
                    next_hop(topo, from, to),
                    "{n}-node torus {from}->{to}: BFS builder diverged from dimension-order"
                );
            }
        }
    }
}

#[test]
fn fabric_hop_distances_match_torus_geometry() {
    for n in [4u16, 6, 16, 64] {
        let topo = Topology::new(n);
        let spec = FabricSpec::build(&FabricConfig::new(FabricKind::Torus, n));
        for a in 0..n {
            for b in 0..n {
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                assert_eq!(spec.hop_distance(a, b), hop_distance(topo, a, b));
            }
        }
        assert!((spec.average_hop_distance() - average_hop_distance(topo)).abs() < 1e-12);
    }
}

// ---------------------------------------------------------------------------
// Multicast-tree property tests.
// ---------------------------------------------------------------------------

/// Draws a non-empty destination set over `n` nodes: each node joins with
/// probability ~1/3, plus one guaranteed member.
fn random_dests(rng: &mut SimRng, n: u16) -> DestSet {
    let mut dests = DestSet::empty(n);
    for node in 0..n {
        if rng.below(3) == 0 {
            dests.insert(NodeId::new(node));
        }
    }
    dests.insert(NodeId::new(rng.below(n as u64) as u16));
    dests
}

/// System sizes covering every `DestSet` representation: 48 fills one
/// inline word, 80 two, and 144 spills to the heap word vector. All three
/// factor into grids and clusters, so every fabric kind builds.
const PROPERTY_SIZES: [u16; 3] = [48, 80, 144];

#[test]
fn multicast_tree_properties_hold_on_every_fabric() {
    let mut rng = SimRng::from_seed(0xFAB);
    for kind in FabricKind::ALL {
        for n in PROPERTY_SIZES {
            let spec = FabricSpec::build(&FabricConfig::new(kind, n));
            for _ in 0..24 {
                let src = NodeId::new(rng.below(n as u64) as u16);
                let dests = random_dests(&mut rng, n);
                let tree = spec.multicast_tree(src, &dests);

                // Union of deliveries equals the destination set, with no
                // duplicate deliveries.
                let mut delivered: Vec<u16> = tree.deliveries.iter().map(|d| d.raw()).collect();
                delivered.sort_unstable();
                let want: Vec<u16> = dests.iter().map(|d| d.raw()).collect();
                assert_eq!(
                    delivered, want,
                    "{kind}/{n}: deliveries diverge from the destination set"
                );

                // Every tree edge is a real fabric link.
                for &(a, b) in &tree.edges {
                    assert!(
                        spec.is_link(a, b),
                        "{kind}/{n}: tree edge {a}->{b} is not a fabric link"
                    );
                }

                // Fan-out efficiency sanity: the tree never uses more
                // traversals than per-destination unicasts would.
                let unicast_cost: u32 = dests.iter().map(|d| spec.hop_distance(src, d)).sum();
                assert!(
                    tree.edges.len() as u32 <= unicast_cost.max(1),
                    "{kind}/{n}: tree larger than unicast fan-out"
                );
            }
        }
    }
}

/// The fan-out expansion built one destination at a time, independently
/// of the fabric's route masks: at every router each remaining
/// destination joins the group of the out-link slot `next_slot` names,
/// and the non-empty groups leave in ascending slot order. Returns the
/// tree's edges and deliveries, in expansion order.
fn reference_tree(
    spec: &FabricSpec,
    src: NodeId,
    dests: &DestSet,
) -> (Vec<(NodeId, NodeId)>, Vec<NodeId>) {
    let (mut edges, mut deliveries) = (Vec::new(), Vec::new());
    let mut work = VecDeque::from([(src, dests.clone())]);
    while let Some((node, mut set)) = work.pop_front() {
        if set.remove(node) {
            deliveries.push(node);
        }
        let mut groups: Vec<Option<DestSet>> = vec![None; spec.degree(node)];
        for dest in set.iter() {
            let slot = spec.next_slot(node, dest).expect("node was removed");
            groups[slot]
                .get_or_insert_with(|| DestSet::empty(spec.num_nodes()))
                .insert(dest);
        }
        for (slot, group) in groups.into_iter().enumerate() {
            let Some(group) = group else { continue };
            let nbr = spec.link_dest(spec.link_id(node, slot));
            edges.push((node, nbr));
            work.push_back((nbr, group));
        }
    }
    (edges, deliveries)
}

#[test]
fn multicast_tree_matches_the_per_destination_reference() {
    let mut rng = SimRng::from_seed(0x7EE);
    for kind in FabricKind::ALL {
        for n in PROPERTY_SIZES {
            let spec = FabricSpec::build(&FabricConfig::new(kind, n));
            for round in 0..16 {
                let src = NodeId::new(rng.below(n as u64) as u16);
                // Every fourth round is a broadcast direct request's shape.
                let dests = if round % 4 == 0 {
                    DestSet::all_except(n, src)
                } else {
                    random_dests(&mut rng, n)
                };
                let tree = spec.multicast_tree(src, &dests);
                let (edges, deliveries) = reference_tree(&spec, src, &dests);
                assert_eq!(tree.edges, edges, "{kind}/{n} from {src}: edges diverge");
                assert_eq!(
                    tree.deliveries, deliveries,
                    "{kind}/{n} from {src}: deliveries diverge"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Engine-level delivery checks: the event-driven engine agrees with the
// static tree expansion on every fabric.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct Ping;

impl NocPayload for Ping {
    fn size_bytes(&self) -> u64 {
        8
    }
    fn traffic_class(&self) -> TrafficClass {
        TrafficClass::Forward
    }
}

/// Runs one multicast through the event-driven engine, returning
/// `(cycle, node)` deliveries in pop order.
fn drive(net: &mut Fabric<Ping>, src: NodeId, dests: DestSet) -> Vec<(u64, u16)> {
    let mut q: EventQueue<NocEvent<Ping>> = EventQueue::new();
    net.send(
        Cycle::ZERO,
        src,
        dests,
        Priority::Normal,
        Ping,
        &mut |c, e| q.push(c, e),
    );
    let mut deliveries = Vec::new();
    while let Some((now, ev)) = q.pop() {
        let mut buf = Vec::new();
        net.handle(now, ev, &mut |c, e| buf.push((c, e)), &mut |node, _| {
            deliveries.push((now.as_u64(), node.raw()))
        });
        for (c, e) in buf {
            q.push(c, e);
        }
    }
    deliveries
}

#[test]
fn engine_delivers_each_destination_exactly_once_on_every_fabric() {
    let mut rng = SimRng::from_seed(0x5EED);
    for kind in FabricKind::ALL {
        for n in PROPERTY_SIZES {
            let mut net: Fabric<Ping> = Fabric::new(FabricConfig::new(kind, n));
            for _ in 0..8 {
                let src = NodeId::new(rng.below(n as u64) as u16);
                let dests = random_dests(&mut rng, n);
                let out = drive(&mut net, src, dests.clone());
                let mut nodes: Vec<u16> = out.iter().map(|&(_, node)| node).collect();
                nodes.sort_unstable();
                let want: Vec<u16> = dests.iter().map(|d| d.raw()).collect();
                assert_eq!(nodes, want, "{kind}/{n}: engine deliveries diverge");
                // Traffic accounting matches the static tree expansion:
                // one traversal per tree edge.
                let tree = net.spec().multicast_tree(src, &dests);
                let traversals = net.stats().traversals(TrafficClass::Forward);
                net.reset_stats();
                assert_eq!(
                    traversals as usize,
                    tree.edges.len(),
                    "{kind}/{n}: engine traversals diverge from the multicast tree"
                );
            }
        }
    }
}

#[test]
fn engine_multicast_is_deterministic() {
    for kind in FabricKind::ALL {
        let n = 48;
        let dests = DestSet::all_except(n, NodeId::new(7));
        let mut a: Fabric<Ping> = Fabric::new(FabricConfig::new(kind, n));
        let mut b: Fabric<Ping> = Fabric::new(FabricConfig::new(kind, n));
        assert_eq!(
            drive(&mut a, NodeId::new(7), dests.clone()),
            drive(&mut b, NodeId::new(7), dests),
            "{kind}: identical multicasts must replay identically"
        );
    }
}
