//! Link-scheduling contract tests for the busy-until link model.
//!
//! 1. **Reference scheduler**: seeded random `(cycle, size, priority)`
//!    injections on a 2-node finite-bandwidth fabric, checked against a
//!    brute-force cycle-by-cycle model of one link written here — every
//!    delivery cycle, the best-effort drop count and the link's busy
//!    cycles must match, with and without a `slowlinks` fault clause.
//! 2. **The same-cycle tie**: a packet reaching a link in the very cycle
//!    it frees starts in that cycle.
//! 3. **Event-count pins**: an uncontended hop costs one kernel event,
//!    and wake-ups exist only under contention. Events are counted
//!    through the public scheduling callback: every scheduled event is a
//!    source arrival (one per `send`), a hop arrival (one per link
//!    traversal, which `TrafficStats` counts) or a link wake-up.
//! 4. **Drops on multi-hop fabrics**: best-effort multicasts dropped
//!    anywhere along their trees never cost a normal packet its delivery.

use patchsim_kernel::{Cycle, EventQueue, SimRng};
use patchsim_noc::{
    DestSet, Fabric, FabricConfig, FabricKind, FaultSpec, LinkBandwidth, NocEvent, NocPayload,
    NodeId, Priority, TrafficClass,
};

#[derive(Clone, Debug)]
struct Probe {
    id: usize,
    size: u64,
}

impl NocPayload for Probe {
    fn size_bytes(&self) -> u64 {
        self.size
    }
    fn traffic_class(&self) -> TrafficClass {
        TrafficClass::Forward
    }
}

/// One unicast handed to `Fabric::send` at cycle `at`.
#[derive(Clone, Copy, Debug)]
struct Injection {
    at: u64,
    src: u16,
    dst: u16,
    size: u64,
    priority: Priority,
}

/// What one drained run did.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `(injection index, delivery cycle)`, sorted by index.
    deliveries: Vec<(usize, u64)>,
    /// Events passed to the scheduling callback, `send`s included.
    scheduled: u64,
    /// Of those, link wake-ups: `scheduled − sends − link traversals`.
    wakeups: u64,
    dropped: u64,
    busy_cycles: u64,
}

/// Sends every injection up front (so same-cycle packets reach a link in
/// injection order, ahead of any wake-up scheduled during the run), then
/// drains the fabric through a kernel event queue.
fn drive(net: &mut Fabric<Probe>, injections: &[Injection]) -> Outcome {
    let n = net.spec().num_nodes();
    let mut queue: EventQueue<NocEvent<Probe>> = EventQueue::new();
    let mut scheduled = 0u64;
    for (id, inj) in injections.iter().enumerate() {
        net.send(
            Cycle::new(inj.at),
            NodeId::new(inj.src),
            DestSet::single(n, NodeId::new(inj.dst)),
            inj.priority,
            Probe { id, size: inj.size },
            &mut |at, ev| {
                scheduled += 1;
                queue.push(at, ev);
            },
        );
    }
    let mut deliveries = Vec::new();
    while let Some((now, ev)) = queue.pop() {
        net.handle(
            now,
            ev,
            &mut |at, ev| {
                scheduled += 1;
                queue.push(at, ev);
            },
            &mut |_node, probe: Probe| deliveries.push((probe.id, now.as_u64())),
        );
    }
    assert_eq!(net.queued_packets(), 0, "a drained fabric holds no packet");
    deliveries.sort_unstable();
    let traversals = net.stats().traversals(TrafficClass::Forward);
    Outcome {
        deliveries,
        scheduled,
        wakeups: scheduled - injections.len() as u64 - traversals,
        dropped: net.stats().dropped_packets(),
        busy_cycles: net.total_busy_cycles(),
    }
}

fn unicast(at: u64, src: u16, dst: u16, size: u64, priority: Priority) -> Injection {
    Injection {
        at,
        src,
        dst,
        size,
        priority,
    }
}

// ---------------------------------------------------------------------------
// The reference: one link, simulated cycle by cycle.
// ---------------------------------------------------------------------------

/// The fabric's fixed self-send latency: an injected packet reaches its
/// source router this many cycles later, and only then contends for a
/// link.
const SELF_SEND_LATENCY: u64 = 1;

/// The parameters of the 2-node test fabric, shared by the engine's
/// configuration and the reference model.
#[derive(Clone, Copy)]
struct LinkModel {
    bytes_per_cycle: u64,
    hop_latency: u64,
    stale_after: u64,
    /// `slowlinks` factor on every link (1 when healthy): stretches both
    /// serialization and latency.
    slowdown: u64,
}

impl LinkModel {
    fn config(self) -> FabricConfig {
        let config = FabricConfig::new(FabricKind::FullyConnected, 2)
            .with_bandwidth(LinkBandwidth::BytesPerCycle(self.bytes_per_cycle as f64))
            .with_hop_latency(self.hop_latency)
            .with_stale_drop_cycles(self.stale_after);
        if self.slowdown == 1 {
            return config;
        }
        let spec = format!("slowlinks:1.0:{}", self.slowdown);
        config.with_faults(FaultSpec::parse(&spec).expect("a valid slowlinks clause"))
    }
}

/// What the reference predicts for one link.
#[derive(Default)]
struct Predicted {
    deliveries: Vec<(usize, u64)>,
    dropped: u64,
    busy_cycles: u64,
    /// Packets that had to wait for the link.
    waited: u64,
    /// Packets that started in the very cycle the link freed.
    tie_starts: u64,
}

/// A packet waiting at the reference link.
struct Waiter {
    id: usize,
    size: u64,
    priority: Priority,
    since: u64,
}

/// Brute-force server for the link `src → dst`: walks every cycle, first
/// admitting that cycle's arrivals in injection order (a free link with
/// nobody waiting takes the first one at once), then — if packets wait
/// and the link is free — serving one: the oldest normal-priority
/// waiter, else the oldest best-effort waiter that has not waited past
/// the staleness bound, discarding the stale ones it passes over.
fn predict(model: LinkModel, injections: &[Injection], src: u16) -> Predicted {
    let mut out = Predicted::default();
    let mut arrivals: Vec<(u64, usize)> = injections
        .iter()
        .enumerate()
        .filter(|(_, inj)| inj.src == src)
        .map(|(id, inj)| (inj.at + SELF_SEND_LATENCY, id))
        .collect();
    arrivals.sort_unstable();
    let mut arrivals = arrivals.into_iter().peekable();
    let mut waiting: Vec<Waiter> = Vec::new();
    let mut free_at = 0u64;
    let start = |now: u64, id: usize, size: u64, free_at: &mut u64, out: &mut Predicted| {
        let serialize = size.div_ceil(model.bytes_per_cycle) * model.slowdown;
        out.deliveries
            .push((id, now + serialize + model.hop_latency * model.slowdown));
        out.busy_cycles += serialize;
        *free_at = now + serialize.max(1);
    };
    let mut now = 0u64;
    while arrivals.peek().is_some() || !waiting.is_empty() {
        while let Some((_, id)) = arrivals.next_if(|&(at, _)| at == now) {
            let inj = injections[id];
            if waiting.is_empty() && now >= free_at {
                out.tie_starts += u64::from(now == free_at && now > 0);
                start(now, id, inj.size, &mut free_at, &mut out);
            } else {
                out.waited += 1;
                waiting.push(Waiter {
                    id,
                    size: inj.size,
                    priority: inj.priority,
                    since: now,
                });
            }
        }
        if !waiting.is_empty() && now >= free_at {
            let next = match waiting.iter().position(|w| w.priority == Priority::Normal) {
                Some(i) => Some(waiting.remove(i)),
                None => {
                    // Only best-effort packets wait: the stale head of
                    // the line is discarded until a fresh one turns up.
                    let fresh = waiting
                        .iter()
                        .position(|w| now - w.since <= model.stale_after);
                    let stale = fresh.unwrap_or(waiting.len());
                    out.dropped += stale as u64;
                    waiting.drain(..stale);
                    fresh.map(|_| waiting.remove(0))
                }
            };
            if let Some(w) = next {
                start(now, w.id, w.size, &mut free_at, &mut out);
            }
        }
        now += 1;
    }
    out
}

/// Engine against reference over `episodes` seeded random episodes.
fn check_against_reference(model: LinkModel, episodes: u64) {
    const SIZES: [u64; 4] = [8, 24, 40, 72];
    let (mut dropped, mut waited, mut tie_starts) = (0, 0, 0);
    for episode in 0..episodes {
        let mut rng = SimRng::from_seed(0x11_4C ^ episode);
        let packets = 8 + rng.below(40);
        // From heavily oversubscribed to mostly idle.
        let window = packets * (1 + rng.below(12)) * model.slowdown;
        let injections: Vec<Injection> = (0..packets)
            .map(|_| {
                let src = rng.below(2) as u16;
                let priority = if rng.below(2) == 0 {
                    Priority::Normal
                } else {
                    Priority::BestEffort
                };
                let size = SIZES[rng.below(SIZES.len() as u64) as usize];
                unicast(rng.below(window), src, 1 - src, size, priority)
            })
            .collect();
        let mut net: Fabric<Probe> = Fabric::new(model.config().with_fault_seed(episode));
        let got = drive(&mut net, &injections);

        let mut want = Predicted::default();
        for src in 0..2 {
            let link = predict(model, &injections, src);
            want.deliveries.extend(link.deliveries);
            want.dropped += link.dropped;
            want.busy_cycles += link.busy_cycles;
            want.waited += link.waited;
            want.tie_starts += link.tie_starts;
        }
        want.deliveries.sort_unstable();
        assert_eq!(
            got.deliveries, want.deliveries,
            "episode {episode}: delivery cycles diverge from the reference link"
        );
        assert_eq!(got.dropped, want.dropped, "episode {episode}: drop count");
        assert_eq!(
            got.busy_cycles, want.busy_cycles,
            "episode {episode}: busy cycles"
        );
        assert_eq!(
            got.deliveries.len() as u64 + got.dropped,
            packets,
            "episode {episode}: every packet is delivered or dropped"
        );
        dropped += want.dropped;
        waited += want.waited;
        tie_starts += want.tie_starts;
    }
    // The episodes must actually exercise what the reference models.
    assert!(dropped > 0, "no episode dropped a stale packet");
    assert!(waited > 0, "no episode made a packet wait");
    assert!(tie_starts > 0, "no episode hit the same-cycle tie");
}

const HEALTHY: LinkModel = LinkModel {
    bytes_per_cycle: 4,
    hop_latency: 3,
    stale_after: 12,
    slowdown: 1,
};

#[test]
fn engine_matches_the_reference_link() {
    check_against_reference(HEALTHY, 96);
}

#[test]
fn engine_matches_the_reference_link_under_slowlinks() {
    check_against_reference(
        LinkModel {
            slowdown: 3,
            ..HEALTHY
        },
        96,
    );
}

// ---------------------------------------------------------------------------
// The same-cycle tie, explicitly.
// ---------------------------------------------------------------------------

#[test]
fn a_packet_arriving_exactly_when_the_link_frees_starts_that_cycle() {
    // 8 bytes at 4 B/cycle serialize for 2 cycles; with the 1-cycle local
    // latency the first packet holds the link over cycles [1, 3).
    let first = unicast(0, 0, 1, 8, Priority::Normal);
    let mut net: Fabric<Probe> = Fabric::new(HEALTHY.config());
    let tie = drive(
        &mut net,
        &[first, unicast(2, 0, 1, 8, Priority::BestEffort)],
    );
    // Reaches the link at cycle 3 == free_at and starts at once, even at
    // best-effort priority: delivered at 3 + 2 (serialize) + 3 (latency).
    assert_eq!(tie.deliveries, vec![(0, 6), (1, 8)]);
    assert_eq!(tie.wakeups, 0, "nobody waited, so nothing wakes the link");

    // One cycle earlier the link is still busy: the packet waits for a
    // wake-up at cycle 3 and is delivered at the very same cycle.
    let mut net: Fabric<Probe> = Fabric::new(HEALTHY.config());
    let early = drive(
        &mut net,
        &[first, unicast(1, 0, 1, 8, Priority::BestEffort)],
    );
    assert_eq!(early.deliveries, vec![(0, 6), (1, 8)]);
    assert_eq!(early.wakeups, 1);

    // Two packets tie with the freeing link and nobody waits: the first
    // to arrive takes the link whatever its priority, and the second is
    // the only waiter at the wake-up that follows.
    let mut net: Fabric<Probe> = Fabric::new(HEALTHY.config());
    let pair = [
        unicast(2, 0, 1, 8, Priority::BestEffort),
        unicast(2, 0, 1, 8, Priority::Normal),
    ];
    let both = drive(&mut net, &[first, pair[0], pair[1]]);
    assert_eq!(both.deliveries, vec![(0, 6), (1, 8), (2, 10)]);
    assert_eq!(both.wakeups, 1);
}

// ---------------------------------------------------------------------------
// Event-count pins.
// ---------------------------------------------------------------------------

#[test]
fn an_uncontended_unicast_costs_one_event_per_hop() {
    // Default (finite) bandwidth on every fabric.
    for kind in FabricKind::ALL {
        let mut net: Fabric<Probe> = Fabric::new(FabricConfig::new(kind, 16));
        let (src, dst) = (NodeId::new(1), NodeId::new(14));
        let hops = u64::from(net.spec().hop_distance(src, dst));
        let run = drive(
            &mut net,
            &[unicast(0, src.raw(), dst.raw(), 72, Priority::Normal)],
        );
        assert_eq!(run.deliveries.len(), 1);
        assert_eq!(
            run.scheduled,
            hops + 1,
            "{kind}: source arrival + one per hop"
        );
        assert_eq!(run.wakeups, 0, "{kind}: no wake-up on idle links");
    }
}

#[test]
fn back_to_back_packets_cost_one_wakeup_per_waiter() {
    for k in [1u64, 2, 5, 17] {
        let burst: Vec<Injection> = (0..k)
            .map(|_| unicast(0, 0, 1, 72, Priority::Normal))
            .collect();
        let mut net: Fabric<Probe> = Fabric::new(HEALTHY.config());
        let run = drive(&mut net, &burst);
        assert_eq!(run.deliveries.len() as u64, k);
        assert_eq!(run.wakeups, k - 1, "burst of {k}");
        assert_eq!(run.scheduled, 3 * k - 1, "burst of {k}");
        // Work-conserving and non-overlapping: packet i leaves when
        // packet i − 1 has serialized (72 B / 4 B per cycle = 18 cycles).
        let cycles: Vec<u64> = run.deliveries.iter().map(|&(_, at)| at).collect();
        let want: Vec<u64> = (0..k).map(|i| 1 + 18 * (i + 1) + 3).collect();
        assert_eq!(cycles, want, "burst of {k}");
    }
}

#[test]
fn unbounded_links_never_schedule_a_wakeup() {
    let burst: Vec<Injection> = (0..9)
        .map(|i| unicast(0, 0, 1, 72, [Priority::Normal, Priority::BestEffort][i % 2]))
        .collect();
    let mut net: Fabric<Probe> = Fabric::new(
        FabricConfig::new(FabricKind::FullyConnected, 2)
            .with_bandwidth(LinkBandwidth::Unbounded)
            .with_hop_latency(3),
    );
    let run = drive(&mut net, &burst);
    assert_eq!(run.wakeups, 0);
    assert_eq!(run.scheduled, 2 * 9);
    assert_eq!(run.busy_cycles, 0);
    // No serialization, no contention: all nine arrive together.
    assert!(run.deliveries.iter().all(|&(_, at)| at == 1 + 3));
}

// ---------------------------------------------------------------------------
// Drops on multi-hop fabrics.
// ---------------------------------------------------------------------------

/// Seeded best-effort multicasts (hints, some of them broadcasts) mixed
/// with normal unicasts on narrow links of an `n`-node `kind` fabric:
/// every normal packet reaches its destination exactly once, no
/// destination gets a best-effort packet twice or unasked, and the fabric
/// drains. Returns the number of dropped packets.
fn check_drops_strand_nothing(kind: FabricKind, n: u16, stale_after: u64) -> u64 {
    let config = FabricConfig::new(kind, n)
        .with_bandwidth(LinkBandwidth::BytesPerCycle(2.0))
        .with_stale_drop_cycles(stale_after);
    let mut net: Fabric<Probe> = Fabric::new(config);
    let mut queue: EventQueue<NocEvent<Probe>> = EventQueue::new();
    let mut rng = SimRng::from_seed(u64::from(n) ^ stale_after);
    let packets = 4 * usize::from(n);
    let mut sent = Vec::with_capacity(packets);
    for _ in 0..packets {
        let src = NodeId::new(rng.below(u64::from(n)) as u16);
        let (dests, priority) = if rng.below(3) == 0 {
            let dests = if rng.below(4) == 0 {
                DestSet::all_except(n, src)
            } else {
                let picks = (0..1 + rng.below(8)).map(|_| rng.below(u64::from(n)) as u16);
                DestSet::from_nodes(n, picks.map(NodeId::new).filter(|&d| d != src))
            };
            (dests, Priority::BestEffort)
        } else {
            let dst = (src.raw() + 1 + rng.below(u64::from(n) - 1) as u16) % n;
            (DestSet::single(n, NodeId::new(dst)), Priority::Normal)
        };
        if dests.is_empty() {
            continue;
        }
        let at = Cycle::new(rng.below(2 * u64::from(n)));
        let size = [8, 72][rng.below(2) as usize];
        let probe = Probe {
            id: sent.len(),
            size,
        };
        net.send(at, src, dests.clone(), priority, probe, &mut |at, ev| {
            queue.push(at, ev)
        });
        sent.push((dests, priority));
    }
    let mut got: Vec<Vec<NodeId>> = vec![Vec::new(); sent.len()];
    while let Some((now, ev)) = queue.pop() {
        net.handle(
            now,
            ev,
            &mut |at, ev| queue.push(at, ev),
            &mut |node, probe: Probe| got[probe.id].push(node),
        );
    }
    assert_eq!(net.queued_packets(), 0, "{kind}-{n}: the fabric drains");
    for (id, ((dests, priority), mut reached)) in sent.into_iter().zip(got).enumerate() {
        reached.sort_unstable();
        let unique = reached.windows(2).all(|w| w[0] != w[1]);
        assert!(
            unique,
            "{kind}-{n}: packet {id} delivered twice: {reached:?}"
        );
        assert!(
            reached.iter().all(|&d| dests.contains(d)),
            "{kind}-{n}: packet {id} reached a node it was not sent to"
        );
        if priority == Priority::Normal {
            assert_eq!(reached.len(), 1, "{kind}-{n}: normal packet {id} stranded");
        }
    }
    net.stats().dropped_packets()
}

/// Both multi-hop fabrics at `n` nodes, dropping every hint that waits
/// at all and at the default bound.
fn check_drops_on(n: u16) {
    for kind in [FabricKind::Torus, FabricKind::Mesh2D] {
        for stale_after in [0, FabricConfig::DEFAULT_STALE_DROP] {
            let dropped = check_drops_strand_nothing(kind, n, stale_after);
            assert!(dropped > 0, "{kind}-{n}/{stale_after}: no hint was dropped");
        }
    }
}

#[test]
fn dropped_hints_never_strand_normal_packets_at_64_nodes() {
    check_drops_on(64);
}

#[test]
fn dropped_hints_never_strand_normal_packets_at_256_nodes() {
    check_drops_on(256);
}
