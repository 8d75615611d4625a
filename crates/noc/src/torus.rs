//! The paper's 2D torus — [`FabricKind::Torus`](crate::FabricKind::Torus)
//! through the generic [`Fabric`](crate::Fabric) engine — pinned by
//! behaviour tests: latency, contention, fan-out multicast, best-effort
//! drop, traffic accounting. (`tests/fabric_routing.rs` pins its routes.)

#[cfg(test)]
mod tests {
    use crate::{
        DestSet, Fabric, FabricConfig, FabricKind, LinkBandwidth, NocEvent, NocPayload, NodeId,
        Priority, TrafficClass,
    };
    use patchsim_kernel::{Cycle, EventQueue};

    #[derive(Clone, Debug, PartialEq)]
    struct TestMsg {
        id: u32,
        size: u64,
        class: TrafficClass,
    }

    impl NocPayload for TestMsg {
        fn size_bytes(&self) -> u64 {
            self.size
        }
        fn traffic_class(&self) -> TrafficClass {
            self.class
        }
    }

    fn control(id: u32) -> TestMsg {
        TestMsg {
            id,
            size: 8,
            class: TrafficClass::IndirectRequest,
        }
    }

    fn data(id: u32) -> TestMsg {
        TestMsg {
            id,
            size: 72,
            class: TrafficClass::Data,
        }
    }

    fn torus(n: u16) -> FabricConfig {
        FabricConfig::new(FabricKind::Torus, n)
    }

    /// Drives a torus to completion through a kernel event queue, returning
    /// `(arrival_cycle, node, msg)` tuples in delivery order.
    fn run(
        net: &mut Fabric<TestMsg>,
        sends: Vec<(u64, NodeId, DestSet, Priority, TestMsg)>,
    ) -> Vec<(u64, NodeId, TestMsg)> {
        let mut q: EventQueue<NocEvent<TestMsg>> = EventQueue::new();
        let mut deliveries = Vec::new();
        for (at, src, dests, prio, msg) in sends {
            net.send(Cycle::new(at), src, dests, prio, msg, &mut |c, e| {
                q.push(c, e)
            });
        }
        while let Some((now, ev)) = q.pop() {
            let mut sched_buf = Vec::new();
            net.handle(now, ev, &mut |c, e| sched_buf.push((c, e)), &mut |n, m| {
                deliveries.push((now.as_u64(), n, m))
            });
            for (c, e) in sched_buf {
                q.push(c, e);
            }
        }
        deliveries
    }

    #[test]
    fn unicast_latency_is_hops_times_latency_plus_serialization() {
        let cfg = torus(16)
            .with_hop_latency(5)
            .with_bandwidth(LinkBandwidth::BytesPerCycle(8.0));
        let mut net = Fabric::new(cfg);
        // 4x4 torus: node 0 -> node 2 is 2 hops in x.
        let out = run(
            &mut net,
            vec![(
                0,
                NodeId::new(0),
                DestSet::single(16, NodeId::new(2)),
                Priority::Normal,
                control(1),
            )],
        );
        assert_eq!(out.len(), 1);
        // local injection (1) + 2 hops * (serialize 1 + latency 5) = 13
        assert_eq!(out[0].0, 13);
        assert_eq!(out[0].1, NodeId::new(2));
    }

    #[test]
    fn self_send_is_local() {
        let mut net = Fabric::new(torus(4));
        let out = run(
            &mut net,
            vec![(
                10,
                NodeId::new(1),
                DestSet::single(4, NodeId::new(1)),
                Priority::Normal,
                control(7),
            )],
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 11);
        assert_eq!(
            net.stats().total_bytes(),
            0,
            "no link traffic for self-send"
        );
    }

    #[test]
    fn multicast_reaches_every_destination_once() {
        let mut net = Fabric::new(torus(16));
        let dests = DestSet::all_except(16, NodeId::new(0));
        let out = run(
            &mut net,
            vec![(0, NodeId::new(0), dests, Priority::Normal, control(3))],
        );
        let mut nodes: Vec<u16> = out.iter().map(|(_, n, _)| n.raw()).collect();
        nodes.sort();
        assert_eq!(nodes, (1..16).collect::<Vec<u16>>());
    }

    #[test]
    fn multicast_fanout_charges_tree_links_not_destinations() {
        // On a 4x4 torus, a broadcast from node 0 reaches 15 nodes.
        // Fan-out multicast uses a spanning-tree-like set of links; the
        // traversal count must be well below a 15-unicast lower bound.
        let mut net = Fabric::new(torus(16));
        let dests = DestSet::all_except(16, NodeId::new(0));
        run(
            &mut net,
            vec![(0, NodeId::new(0), dests, Priority::Normal, control(3))],
        );
        let traversals = net.stats().traversals(TrafficClass::IndirectRequest);
        // Dimension-order tree on 4x4: every node is reached over exactly
        // one incoming link, so the tree has exactly 15 links... but
        // unicasts would cost sum of hop distances = 1+1+2+... > 15.
        let unicast_cost: u64 = (1..16)
            .map(|i| net.spec().hop_distance(NodeId::new(0), NodeId::new(i)) as u64)
            .sum();
        assert!(traversals < unicast_cost);
        assert_eq!(traversals, 15, "one incoming link per covered node");
    }

    #[test]
    fn contention_serializes_packets() {
        // Two large packets from node 0 to node 1 share the same link; with
        // 1 B/cycle links the second must wait out the first's 72-cycle
        // serialization.
        let cfg = torus(4)
            .with_hop_latency(5)
            .with_bandwidth(LinkBandwidth::BytesPerCycle(1.0));
        let mut net = Fabric::new(cfg);
        let out = run(
            &mut net,
            vec![
                (
                    0,
                    NodeId::new(0),
                    DestSet::single(4, NodeId::new(1)),
                    Priority::Normal,
                    data(1),
                ),
                (
                    0,
                    NodeId::new(0),
                    DestSet::single(4, NodeId::new(1)),
                    Priority::Normal,
                    data(2),
                ),
            ],
        );
        assert_eq!(out.len(), 2);
        // First: inject 1 + serialize 72 + hop 5 = 78.
        assert_eq!(out[0].0, 78);
        assert_eq!(out[0].2.id, 1);
        // Second starts when the link frees at 73: 73 + 72 + 5 = 150.
        assert_eq!(out[1].0, 150);
    }

    #[test]
    fn unbounded_bandwidth_never_queues() {
        let cfg = torus(4)
            .with_hop_latency(5)
            .with_bandwidth(LinkBandwidth::Unbounded);
        let mut net = Fabric::new(cfg);
        let sends = (0..10)
            .map(|i| {
                (
                    0u64,
                    NodeId::new(0),
                    DestSet::single(4, NodeId::new(1)),
                    Priority::Normal,
                    data(i),
                )
            })
            .collect();
        let out = run(&mut net, sends);
        assert_eq!(out.len(), 10);
        // All arrive at inject 1 + hop 5 = 6.
        assert!(out.iter().all(|(t, _, _)| *t == 6));
    }

    #[test]
    fn best_effort_yields_to_normal_and_gets_dropped_when_stale() {
        // Saturate the 0->1 link with normal data, then inject a
        // best-effort hint: it must be dropped once stale.
        let cfg = torus(4)
            .with_hop_latency(5)
            .with_bandwidth(LinkBandwidth::BytesPerCycle(1.0))
            .with_stale_drop_cycles(100);
        let mut net = Fabric::new(cfg);
        let mut sends = vec![];
        for i in 0..4 {
            sends.push((
                0u64,
                NodeId::new(0),
                DestSet::single(4, NodeId::new(1)),
                Priority::Normal,
                data(i),
            ));
        }
        sends.push((
            0,
            NodeId::new(0),
            DestSet::single(4, NodeId::new(1)),
            Priority::BestEffort,
            control(99),
        ));
        let out = run(&mut net, sends);
        // The best-effort hint never arrives: by the time the link frees
        // (4 * 72 = 288 cycles), it has been queued > 100 cycles.
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|(_, _, m)| m.id != 99));
        assert_eq!(net.stats().dropped_packets(), 1);
        assert_eq!(net.stats().dropped_bytes(), 8);
    }

    #[test]
    fn best_effort_delivered_when_bandwidth_is_plentiful() {
        let cfg = torus(4).with_bandwidth(LinkBandwidth::BytesPerCycle(16.0));
        let mut net = Fabric::new(cfg);
        let out = run(
            &mut net,
            vec![(
                0,
                NodeId::new(0),
                DestSet::single(4, NodeId::new(1)),
                Priority::BestEffort,
                control(1),
            )],
        );
        assert_eq!(out.len(), 1);
        assert_eq!(net.stats().dropped_packets(), 0);
    }

    #[test]
    fn traffic_charged_per_traversal() {
        let cfg = torus(16).with_bandwidth(LinkBandwidth::BytesPerCycle(16.0));
        let mut net = Fabric::new(cfg);
        // 0 -> 2 on 4x4 is two hops: 2 traversals * 72 bytes.
        run(
            &mut net,
            vec![(
                0,
                NodeId::new(0),
                DestSet::single(16, NodeId::new(2)),
                Priority::Normal,
                data(1),
            )],
        );
        assert_eq!(net.stats().bytes(TrafficClass::Data), 144);
        assert_eq!(net.stats().traversals(TrafficClass::Data), 2);
    }

    #[test]
    #[should_panic(expected = "no destinations")]
    fn empty_destination_set_panics() {
        let mut net = Fabric::new(torus(4));
        net.send(
            Cycle::ZERO,
            NodeId::new(0),
            DestSet::empty(4),
            Priority::Normal,
            control(0),
            &mut |_, _| {},
        );
    }

    #[test]
    fn default_hop_latency_calibrated_to_15_cycle_traversals() {
        let net = Fabric::<TestMsg>::new(torus(64));
        let avg = net.spec().average_hop_distance();
        let total = net.spec().class_params()[0].latency as f64 * avg;
        assert!(
            (total - 15.0).abs() <= 5.0,
            "average traversal {total:.1} should be near 15 cycles"
        );
    }
}
