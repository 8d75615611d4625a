//! Directed token-tenure scenarios: the paper's Figure 1/2 race and the
//! surrounding forward-progress machinery, driven at controller level
//! with adversarial message ordering.

use patchsim::{AccessKind, BlockAddr, Cluster, Cycle, NodeId, PredictorChoice, ProtocolKind};
use patchsim_protocol::{MemOp, MsgBody, ProtocolConfig, RequestStyle, TimerKind};

/// Four PATCH-All nodes; block 0 is homed at node 0.
fn cluster() -> Cluster {
    Cluster::new(&ProtocolConfig::new(ProtocolKind::Patch, 4).with_predictor(PredictorChoice::All))
}

fn request(c: &mut Cluster, node: u16, kind: AccessKind, at: u64) {
    let addr = BlockAddr::new(0);
    c.issue(NodeId::new(node), MemOp { addr, kind }, Cycle::new(at));
}

/// Fires `node`'s oldest tenure timer at its deadline.
fn fire_tenure(c: &mut Cluster, node: NodeId) -> bool {
    let armed = c
        .timers
        .iter()
        .position(|(n, _, k)| *n == node && k.kind == TimerKind::Tenure);
    armed.map(|idx| c.fire(idx, c.timers[idx].1)).is_some()
}

/// The full Figure 1 -> Figure 2 scenario (see also the
/// `token_tenure_race` example, which narrates the same schedule).
#[test]
fn figure2_race_resolves_via_tenure() {
    let mut c = cluster();
    let block = BlockAddr::new(0);
    let p = NodeId::new;

    // Setup: P1 writes, P2 reads (owner migrates to P2).
    request(&mut c, 1, AccessKind::Write, 0);
    c.drain(Cycle::new(10));
    request(&mut c, 2, AccessKind::Read, 20);
    c.drain(Cycle::new(30));
    c.completions.clear();

    // P3's write: direct requests delivered, indirect delayed.
    request(&mut c, 3, AccessKind::Write, 2000);
    for target in [1u16, 2] {
        assert!(c.deliver_first(Cycle::new(2005), |d, m| {
            d == p(target) && matches!(m.body, MsgBody::Request { .. })
        }));
    }
    // Token responses reach P3: it performs untenured.
    for _ in 0..2 {
        assert!(c.deliver_first(Cycle::new(2010), |d, m| {
            d == p(3) && matches!(m.body, MsgBody::Data { .. } | MsgBody::Ack { .. })
        }));
    }
    assert_eq!(c.completions, vec![p(3)], "P3 performed before activation");
    assert_eq!(c.node(p(3)).counters().satisfied_before_activation, 1);
    c.completions.clear();

    // P1's racing write wins at the home.
    request(&mut c, 1, AccessKind::Write, 2020);
    assert!(c.deliver_first(Cycle::new(2030), |d, m| {
        d == p(0)
            && matches!(m.body, MsgBody::Request { requester, style: RequestStyle::Indirect, .. }
                if requester == p(1))
    }));
    c.drain(Cycle::new(2040));
    assert!(c.completions.is_empty(), "P1 cannot complete yet");

    // Tenure: P3 discards; home redirects to P1; P1 completes.
    assert!(fire_tenure(&mut c, p(3)));
    assert_eq!(c.node(p(3)).counters().tenure_timeouts, 1);
    c.drain(Cycle::new(3000));
    assert!(c.completions.contains(&p(1)), "P1's write completed");

    // Everything quiesces; P3 ends with all tokens (it was activated last).
    c.assert_quiescent();
    let p3 = c.node(p(3)).held_tokens(block).unwrap();
    assert_eq!(p3.count(), 4);
    assert!(p3.requires_data(), "P3 holds a dirty-owner M copy");
}

/// Without the race, direct requests complete misses in two hops and the
/// activation is off the critical path.
#[test]
fn direct_request_fast_path_without_race() {
    let mut c = cluster();
    let p = NodeId::new;

    request(&mut c, 1, AccessKind::Write, 0);
    c.drain(Cycle::new(10));
    c.completions.clear();

    // P2 reads; deliver ONLY the direct request and its response.
    request(&mut c, 2, AccessKind::Read, 2000);
    assert!(c.deliver_first(Cycle::new(2005), |d, m| {
        d == p(1)
            && matches!(
                m.body,
                MsgBody::Request {
                    style: RequestStyle::Direct,
                    ..
                }
            )
    }));
    assert!(c.deliver_first(Cycle::new(2010), |d, m| {
        d == p(2) && matches!(m.body, MsgBody::Data { .. })
    }));
    assert_eq!(c.completions, vec![p(2)], "read done in 2 hops");
    // The indirect path then merely tidies up.
    c.drain(Cycle::new(2100));
    c.assert_quiescent();
}

/// Untenured tokens may satisfy misses (the tenure process is off the
/// critical path), but the transaction stays open until activation.
#[test]
fn untenured_tokens_satisfy_but_do_not_deactivate() {
    let mut c = cluster();
    let p = NodeId::new;

    request(&mut c, 1, AccessKind::Write, 0);
    c.drain(Cycle::new(10));
    c.completions.clear();

    request(&mut c, 2, AccessKind::Write, 2000);
    // Deliver only the direct request; P1 hands over all four tokens.
    assert!(c.deliver_first(Cycle::new(2005), |d, _| d == p(1)));
    assert!(c.deliver_first(Cycle::new(2010), |d, m| {
        d == p(2) && matches!(m.body, MsgBody::Data { .. })
    }));
    assert_eq!(c.completions, vec![p(2)]);
    assert!(!c.node(p(2)).is_quiescent(), "TBE open until activation");
    c.drain(Cycle::new(2100));
    c.assert_quiescent(); // the activation closed the transaction
}

/// A tenure timeout before activation does not lose written data: the
/// dirty owner token carries it home and back.
#[test]
fn tenure_timeout_preserves_dirty_data() {
    let mut c = cluster();
    let p = NodeId::new;

    request(&mut c, 1, AccessKind::Write, 0);
    c.drain(Cycle::new(10));
    c.completions.clear();

    // P2 writes via direct requests only (indirect delayed), performs,
    // then times out before its activation arrives.
    request(&mut c, 2, AccessKind::Write, 2000);
    assert!(c.deliver_first(Cycle::new(2005), |d, _| d == p(1)));
    assert!(c.deliver_first(Cycle::new(2010), |d, m| {
        d == p(2) && matches!(m.body, MsgBody::Data { .. })
    }));
    assert_eq!(c.completions, vec![p(2)], "write performed (version 2)");
    assert!(fire_tenure(&mut c, p(2)));
    assert_eq!(c.node(p(2)).counters().tenure_timeouts, 1);
    // The discarded tokens carry the dirty data home; when P2's indirect
    // request finally activates, everything flows back and quiesces.
    c.drain(Cycle::new(3000));
    c.assert_quiescent();

    // P3 now reads and must observe version 2 (P1's write was 1, P2's 2).
    request(&mut c, 3, AccessKind::Read, 4000);
    c.drain(Cycle::new(4100));
    assert_eq!(c.completions.last(), Some(&p(3)));
}

/// Multiple racing writers with fully adversarial direct-request
/// interleavings still all complete (the queue at the home serializes
/// activations).
#[test]
fn three_way_write_race_completes() {
    let mut c = cluster();

    request(&mut c, 1, AccessKind::Write, 0);
    c.drain(Cycle::new(10));
    c.completions.clear();

    // All three race.
    request(&mut c, 1, AccessKind::Write, 2000);
    request(&mut c, 2, AccessKind::Write, 2000);
    request(&mut c, 3, AccessKind::Write, 2000);
    // Deliver everything in whatever order the queue happens to hold,
    // repeatedly firing every pending tenure timer, until the whole
    // system quiesces.
    for round in 0..50 {
        let now = Cycle::new(2100 + round * 1000);
        c.drain(now);
        let mut fired = false;
        for n in [1u16, 2, 3] {
            while fire_tenure(&mut c, NodeId::new(n)) {
                fired = true;
            }
        }
        c.drain(now + 500);
        if !fired && (0..4).all(|n| c.node(NodeId::new(n)).is_quiescent()) {
            break;
        }
    }
    assert_eq!(c.completions.len(), 3, "all three writes completed");
    c.assert_quiescent();
}
