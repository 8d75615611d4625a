//! Regression tests for races found by the adversarial-delivery fuzzer
//! during development. Each test pins one concrete interleaving that
//! previously deadlocked or corrupted protocol state; the comment on each
//! test carries the analysis, and `docs/faults.md` ("Worked example")
//! re-creates bugs 3a/3b through the fault layer.

use patchsim::{
    run, AccessKind, BlockAddr, CacheGeometry, Cluster, Cycle, FabricKind, NodeId, PredictorChoice,
    ProtocolKind, SimConfig, WorkloadSpec,
};
use patchsim_mem::{OwnerStatus, TokenSet};
use patchsim_protocol::{
    Controller, MemOp, Msg, MsgBody, Outbox, PatchController, ProtocolConfig, RequestStyle,
    TokenBController,
};

fn patch(n: u16, node: u16) -> PatchController {
    PatchController::new(
        ProtocolConfig::new(ProtocolKind::Patch, n).with_predictor(PredictorChoice::All),
        NodeId::new(node),
    )
}

fn tokenb(n: u16, node: u16) -> TokenBController {
    TokenBController::new(
        ProtocolConfig::new(ProtocolKind::TokenB, n),
        NodeId::new(node),
    )
}

/// Bug 1: a standalone activation arriving after another activation
/// carrier already closed the transaction must be ignored, not crash.
#[test]
fn late_standalone_activation_is_stale() {
    let mut c = patch(4, 1);
    let addr = BlockAddr::new(2);
    let mut out = Outbox::new();
    c.core_request(
        MemOp {
            addr,
            kind: AccessKind::Write,
        },
        Cycle::ZERO,
        &mut out,
    );
    // A redirect carrying the activation flag satisfies and activates the
    // transaction; it deactivates and closes.
    let mut out = Outbox::new();
    c.handle_message(
        Msg::new(
            addr,
            MsgBody::Data {
                from: NodeId::new(2),
                serial: 0,
                tokens: TokenSet::full(4, OwnerStatus::Clean),
                version: 0,
                acks_expected: 0,
                exclusive: false,
                dirty: false,
                activation: true,
            },
        ),
        Cycle::new(50),
        &mut out,
    );
    assert!(c.is_quiescent());
    // The standalone activation the home sent earlier now arrives late:
    // previously this hit an `expect("activation without a miss")`.
    let mut out = Outbox::new();
    c.handle_message(
        Msg::new(
            addr,
            MsgBody::Activation {
                serial: 0,
                acks_expected: 0,
                exclusive: false,
            },
        ),
        Cycle::new(60),
        &mut out,
    );
    assert!(out.sends.is_empty());
    assert!(c.is_quiescent());
}

/// Bug 2: an activation-flagged response from a *previous* transaction on
/// the same block must not activate the current transaction (its tokens
/// are still merged).
#[test]
fn stale_activation_flag_does_not_activate_new_transaction() {
    let mut c = patch(4, 1);
    let addr = BlockAddr::new(2);
    // Transaction 0: write completes and deactivates normally.
    let mut out = Outbox::new();
    c.core_request(
        MemOp {
            addr,
            kind: AccessKind::Write,
        },
        Cycle::ZERO,
        &mut out,
    );
    let mut out = Outbox::new();
    c.handle_message(
        Msg::new(
            addr,
            MsgBody::Data {
                from: NodeId::new(2),
                serial: 0,
                tokens: TokenSet::full(4, OwnerStatus::Clean),
                version: 0,
                acks_expected: 0,
                exclusive: false,
                dirty: false,
                activation: true,
            },
        ),
        Cycle::new(50),
        &mut out,
    );
    assert!(c.is_quiescent());
    // Its tokens leave again (forwarded request from a racing writer).
    let mut out = Outbox::new();
    c.handle_message(
        Msg::new(
            addr,
            MsgBody::Fwd {
                kind: AccessKind::Write,
                requester: NodeId::new(3),
                serial: 7,
                acks_expected: 0,
                exclusive: false,
            },
        ),
        Cycle::new(60),
        &mut out,
    );
    // Transaction 1 (serial 1): a new write miss on the same block.
    let mut out = Outbox::new();
    c.core_request(
        MemOp {
            addr,
            kind: AccessKind::Write,
        },
        Cycle::new(2000),
        &mut out,
    );
    // A LATE ack from transaction 0's era arrives, activation flag set but
    // serial 0: the tokens must merge, the activation must NOT apply.
    let mut out = Outbox::new();
    c.handle_message(
        Msg::new(
            addr,
            MsgBody::Ack {
                from: NodeId::new(0),
                serial: 0, // stale serial
                tokens: TokenSet::plain(1),
                activation: true,
            },
        ),
        Cycle::new(2010),
        &mut out,
    );
    // Were the stale activation applied, the controller would deactivate
    // as soon as it became satisfied, producing a bogus Deactivate while
    // the home is busy with another requester. Verify it still considers
    // itself non-activated: satisfying the miss must NOT deactivate.
    let mut out = Outbox::new();
    c.handle_message(
        Msg::new(
            addr,
            MsgBody::Data {
                from: NodeId::new(3),
                serial: 1,
                tokens: TokenSet::full(3, OwnerStatus::Dirty),
                version: 2,
                acks_expected: 0,
                exclusive: false,
                dirty: true,
                activation: false,
            },
        ),
        Cycle::new(2020),
        &mut out,
    );
    assert_eq!(out.completions.len(), 1, "performed with untenured tokens");
    assert!(
        out.sends
            .iter()
            .all(|s| !matches!(s.msg.body, MsgBody::Deactivate { .. })),
        "must not deactivate before its own activation arrives"
    );
    assert!(!c.is_quiescent());
}

/// Bug 3a: a PersistentDeactivate for an old starver reordered after the
/// next starver's PersistentActivate must not clear the fresh entry.
#[test]
fn reordered_persistent_deactivate_does_not_clobber_next_starver() {
    let mut c = tokenb(4, 1);
    let addr = BlockAddr::new(2);
    c.handle_message(
        Msg::new(
            addr,
            MsgBody::PersistentActivate {
                starver: NodeId::new(3),
                serial: 0,
                epoch: 2,
            },
        ),
        Cycle::new(10),
        &mut Outbox::new(),
    );
    // The deactivation broadcast for the PREVIOUS starver (node 0)
    // arrives late.
    c.handle_message(
        Msg::new(
            addr,
            MsgBody::PersistentDeactivate {
                starver: NodeId::new(0),
                epoch: 1,
            },
        ),
        Cycle::new(20),
        &mut Outbox::new(),
    );
    // Node 3's entry must survive: tokens arriving now still forward.
    let mut out = Outbox::new();
    c.handle_message(
        Msg::new(
            addr,
            MsgBody::Ack {
                from: NodeId::new(2),
                serial: 0,
                tokens: TokenSet::plain(2),
                activation: false,
            },
        ),
        Cycle::new(30),
        &mut out,
    );
    assert_eq!(out.sends.len(), 1);
    assert_eq!(out.sends[0].dests.as_single(), Some(NodeId::new(3)));
}

/// Bug 3b: a requester that completed before its persistent request
/// reached the home must release the arbiter when the stale activation
/// finally arrives — otherwise the entry stays active forever and every
/// later starver queues behind it.
#[test]
fn stale_persistent_activation_is_released_by_starver() {
    let mut home = tokenb(4, 2); // home of block 2
    let addr = BlockAddr::new(2);
    // Node 1's persistent request arrives (its miss actually completed
    // already, but the home cannot know).
    let mut out = Outbox::new();
    home.handle_message(
        Msg::new(
            addr,
            MsgBody::Request {
                kind: AccessKind::Write,
                requester: NodeId::new(1),
                serial: 5,
                style: RequestStyle::Persistent,
            },
        ),
        Cycle::new(10),
        &mut out,
    );
    assert!(out.sends.iter().any(|s| matches!(
        s.msg.body,
        MsgBody::PersistentActivate { starver, .. } if starver == NodeId::new(1)
    )));

    // Node 1 receives its own activation with no transaction open: it
    // must answer with a deactivation to release the arbiter.
    let mut n1 = tokenb(4, 1);
    let mut out = Outbox::new();
    n1.handle_message(
        Msg::new(
            addr,
            MsgBody::PersistentActivate {
                starver: NodeId::new(1),
                serial: 5,
                epoch: 1,
            },
        ),
        Cycle::new(20),
        &mut out,
    );
    let deact = out
        .sends
        .iter()
        .find(|s| matches!(s.msg.body, MsgBody::Deactivate { .. }))
        .expect("stale activation must be released");
    assert_eq!(
        deact.dests.as_single(),
        Some(NodeId::new(2)),
        "to the arbiter"
    );

    // The home processes it: entry freed, next starver activates.
    let mut out = Outbox::new();
    home.handle_message(deact.msg.clone(), Cycle::new(30), &mut out);
    assert!(out.sends.iter().any(|s| matches!(
        s.msg.body,
        MsgBody::PersistentDeactivate { starver, .. } if starver == NodeId::new(1)
    )));
    assert!(home.is_quiescent());
}

/// A deactivation from a node that is not the active starver (early or
/// duplicated) must be ignored by the arbiter.
#[test]
fn arbiter_ignores_foreign_deactivations() {
    let mut home = tokenb(4, 2);
    let addr = BlockAddr::new(2);
    let mut out = Outbox::new();
    home.handle_message(
        Msg::new(
            addr,
            MsgBody::Request {
                kind: AccessKind::Write,
                requester: NodeId::new(1),
                serial: 0,
                style: RequestStyle::Persistent,
            },
        ),
        Cycle::new(10),
        &mut out,
    );
    // Node 3's early deactivation (for a request still in flight) arrives.
    let mut out = Outbox::new();
    home.handle_message(
        Msg::new(
            addr,
            MsgBody::Deactivate {
                requester: NodeId::new(3),
                serial: 0,
                new_owner: false,
            },
        ),
        Cycle::new(20),
        &mut out,
    );
    assert!(out.sends.is_empty(), "node 1's entry must stay active");
    assert!(!home.is_quiescent());
}

/// Delivers `body` for `addr` to `c` at cycle `at`; returns what it sent.
fn deliver(c: &mut impl Controller, addr: BlockAddr, body: MsgBody, at: u64) -> Outbox {
    let mut out = Outbox::new();
    c.handle_message(Msg::new(addr, body), Cycle::new(at), &mut out);
    out
}

/// Bug 4 (DIRECTORY): a writeback ghost takes the transition its line
/// would. P1 evicts its M copy of block 0 and the PUT is held back; P2's
/// read is forwarded to P1's ghost, which hands ownership over and stays a
/// sharer; P3's write then invalidates P1 with the owner. The ghost used
/// to answer that as owner still — `Data` instead of the `Ack` P3 was
/// promised — and P3 waited for its ack forever.
#[test]
fn writeback_ghost_acks_a_write_after_losing_ownership_to_a_read() {
    let config = ProtocolConfig::new(ProtocolKind::Directory, 4)
        .with_cache_geometry(CacheGeometry::new(1, 1));
    let mut c = Cluster::new(&config);
    let (p1, p2, p3) = (NodeId::new(1), NodeId::new(2), NodeId::new(3));
    let op = |addr, kind| MemOp {
        addr: BlockAddr::new(addr),
        kind,
    };
    let not_put = |_: NodeId, m: &Msg| !matches!(m.body, MsgBody::Put { .. });
    c.issue(p1, op(0, AccessKind::Write), Cycle::new(0));
    c.drain(Cycle::new(10));
    // Block 1's fill evicts block 0, whose PUT stays in flight throughout.
    c.issue(p1, op(1, AccessKind::Write), Cycle::new(20));
    while c.deliver_first(Cycle::new(30), not_put) {}
    c.issue(p2, op(0, AccessKind::Read), Cycle::new(40));
    while c.deliver_first(Cycle::new(50), not_put) {}
    c.issue(p3, op(0, AccessKind::Write), Cycle::new(60));
    while c.deliver_first(Cycle::new(70), not_put) {}
    assert_eq!(c.completions, [p1, p1, p2, p3], "P3 collected its ack");
    c.drain(Cycle::new(80));
    c.assert_quiescent();
}

/// Bug 5 (TokenB): a clean owner's `Put` carries no data, because
/// memory's copy is current (Table 1, Rule 5), so the home forwarding it
/// to a persistent starver must attach memory's version. It used to send
/// version 0, the block's initial contents, and the starver read or wrote
/// on top of `v0`.
#[test]
fn clean_owner_put_is_redirected_to_the_starver_with_memorys_version() {
    let mut home = tokenb(4, 2);
    let addr = BlockAddr::new(2);
    let request = |kind, requester: u16| MsgBody::Request {
        kind,
        requester: NodeId::new(requester),
        serial: 0,
        style: RequestStyle::Direct,
    };
    let put = |node: u16, tokens, version| MsgBody::Put {
        node: NodeId::new(node),
        tokens,
        version,
    };
    // P1 takes every token from memory and writes version 5 back.
    deliver(&mut home, addr, request(AccessKind::Write, 1), 0);
    let dirty = TokenSet::full(4, OwnerStatus::Dirty);
    deliver(&mut home, addr, put(1, dirty, Some(5)), 10);
    // P3's read takes every token again, owner clean; then P1 starves.
    deliver(&mut home, addr, request(AccessKind::Read, 3), 20);
    let activate = MsgBody::PersistentActivate {
        starver: NodeId::new(1),
        serial: 1,
        epoch: 1,
    };
    assert!(deliver(&mut home, addr, activate, 30).sends.is_empty());
    // P3 evicts: a clean owner's data-less return, funnelled to P1.
    let clean = TokenSet::full(4, OwnerStatus::Clean);
    let out = deliver(&mut home, addr, put(3, clean, None), 40);
    let [redirect] = &out.sends[..] else {
        panic!("one redirect expected: {:?}", out.sends)
    };
    assert_eq!(redirect.dests.as_single(), Some(NodeId::new(1)));
    match redirect.msg.body {
        MsgBody::Data { version, .. } => assert_eq!(version, 5, "memory's version"),
        ref other => panic!("a clean owner travels with data: {other:?}"),
    }
}

/// Bug 6 (TokenB): a `PersistentActivate` overtaken by its own
/// `PersistentDeactivate` used to enter a table entry that nothing would
/// ever clear, and every token of the block that reached the node was
/// funnelled to a starver long done — with an entry elsewhere naming this
/// node, the tokens bounced between the two forever. The activation's
/// epoch is no newer than the deactivation's, so it is dropped.
#[test]
fn persistent_activation_after_its_deactivation_leaves_no_entry() {
    let mut c = tokenb(4, 1);
    let addr = BlockAddr::new(2);
    let (starver, serial, epoch) = (NodeId::new(3), 19, 1);
    let deactivate = MsgBody::PersistentDeactivate { starver, epoch };
    deliver(&mut c, addr, deactivate, 10);
    let activate = MsgBody::PersistentActivate {
        starver,
        serial,
        epoch,
    };
    deliver(&mut c, addr, activate, 20);
    assert_eq!(c.gauges().persistent_entries, 0);
    // Stray tokens go home, not to the departed starver.
    let ack = MsgBody::Ack {
        from: NodeId::new(2),
        serial: 0,
        tokens: TokenSet::plain(2),
        activation: false,
    };
    let out = deliver(&mut c, addr, ack, 30);
    assert_eq!(out.sends.len(), 1);
    assert_eq!(out.sends[0].dests.as_single(), Some(addr.home(4)));
}

/// Bug 7 (PATCH): a `Put` bouncing stray tokens does not make the home
/// forget a tenured sharer. P2's read takes every token from memory, and
/// its direct request to P3 stays in flight; P3's read then takes the
/// owner token, so P2 is a sharer holding the three plain tokens. The
/// stale direct request reaches P3, which answers it: the owner token
/// lands at P2 with no transaction open, and P2 bounces that token, and
/// only that token, home. The home used to drop P2 from the sharers on
/// that `Put`, so P1's write was forwarded to P3 alone and waited for P2's
/// three tokens forever — unless a lucky direct request found them.
#[test]
fn a_stray_token_leaves_its_tenured_sharer_among_the_sharers() {
    let config = ProtocolConfig::new(ProtocolKind::Patch, 4).with_predictor(PredictorChoice::All);
    let mut c = Cluster::new(&config);
    let (p1, p2, p3) = (NodeId::new(1), NodeId::new(2), NodeId::new(3));
    let addr = BlockAddr::new(0);
    let op = |kind| MemOp { addr, kind };
    let direct = |m: &Msg| {
        matches!(
            m.body,
            MsgBody::Request {
                style: RequestStyle::Direct,
                ..
            }
        )
    };
    let held_back = |d: NodeId, m: &Msg| d == p3 && direct(m);
    c.issue(p2, op(AccessKind::Read), Cycle::new(0));
    while c.deliver_first(Cycle::new(10), |d, m| !held_back(d, m)) {}
    c.issue(p3, op(AccessKind::Read), Cycle::new(20));
    while c.deliver_first(Cycle::new(30), |d, m| !held_back(d, m)) {}
    assert_eq!(c.completions, [p2, p3]);
    // Close the deactivation windows, then let the stale request in.
    while !c.timers.is_empty() {
        c.fire(0, Cycle::new(100_000));
    }
    c.drain(Cycle::new(100_010));
    assert_eq!(c.holders(addr), "P0 t=1(+Oc) P2 t=3");
    // P1's write must collect P2's tokens through the home's forward.
    c.issue(p1, op(AccessKind::Write), Cycle::new(100_020));
    while c.deliver_first(Cycle::new(100_030), |_, m| !direct(m)) {}
    assert_eq!(c.completions, [p2, p3, p1], "P1 waits for P2's tokens");
    c.drain(Cycle::new(100_040));
    c.assert_quiescent();
}

/// Runs PATCH-All on the microbenchmark at Fig. 8's system sizes, with
/// `ops` measured ops per core after `warmup`, seed 7.
fn patch_all_at_scale(fabric: FabricKind, n: u16, table_blocks: u64, ops: u64, warmup: u64) {
    let config = SimConfig::new(ProtocolKind::Patch, n)
        .with_predictor(PredictorChoice::All)
        .with_fabric(fabric)
        .with_workload(WorkloadSpec::Microbenchmark {
            table_blocks,
            write_frac: 0.3,
            think_mean: 10,
        })
        .with_ops_per_core(ops)
        .with_warmup(warmup)
        .with_seed(7);
    let result = run(&config);
    assert_eq!(result.ops_completed, u64::from(n) * ops);
}

/// Bug 7 at 512 nodes: the same dropped sharer deadlocked core 37
/// ("completed 17 of 37 ops"; P301 held 511 tokens the home had
/// forgotten).
#[test]
#[ignore = "about 10 s in release: run with --release -- --ignored"]
fn patch_all_completes_on_the_512_node_torus() {
    patch_all_at_scale(FabricKind::Torus, 512, 4096, 30, 7);
}

/// Bug 7 at 256 nodes: core 204 deadlocked ("completed 160 of 187 ops";
/// P46 held 255 tokens the home had forgotten).
#[test]
#[ignore = "about 7 s in release: run with --release -- --ignored"]
fn patch_all_completes_on_the_256_node_mesh() {
    patch_all_at_scale(FabricKind::Mesh2D, 256, 16 * 1024, 150, 37);
}
