//! An annotated replay of the paper's Figures 1 and 2: racing requests
//! resolved by token tenure.
//!
//! Three processors and a home contend for one block. P3's direct
//! requests strip every token from the system before its indirect request
//! even reaches the home, while P1 wins activation at the home. Without
//! token tenure both would wait forever (Figure 1). With it, P3's
//! *untenured* tokens time out, funnel through the home to the active
//! requester P1, and the home then activates P3, which completes too
//! (Figure 2).
//!
//! The example drives the PATCH controllers through `patchsim::Cluster`,
//! playing postman so the adversarial delivery order is explicit (the
//! cluster checks coherence and token conservation after every step).
//! Every step is narrated.
//!
//! Run with: `cargo run --example token_tenure_race`

use patchsim::{AccessKind, BlockAddr, Cluster, Cycle, NodeId, PredictorChoice, ProtocolKind};
use patchsim_protocol::{MemOp, Msg, MsgBody, ProtocolConfig, RequestStyle, TimerKind};

/// Delivers the oldest undelivered message matching `pred`, narrating it.
fn deliver(c: &mut Cluster, now: u64, pred: impl Fn(NodeId, &Msg) -> bool, note: &str) {
    let idx = c
        .in_flight
        .iter()
        .position(|(d, m)| pred(*d, m))
        .unwrap_or_else(|| panic!("no message matching: {note}"));
    let (dest, msg) = &c.in_flight[idx];
    println!("  -> deliver to {dest}: {} ({note})", describe(msg));
    c.deliver(idx, Cycle::new(now));
}

/// Delivers every undelivered message, oldest first, until none remain.
fn deliver_all(c: &mut Cluster, now: u64) {
    while !c.in_flight.is_empty() {
        deliver(c, now, |_, _| true, "drain");
    }
}

fn describe(msg: &Msg) -> String {
    match &msg.body {
        MsgBody::Request {
            kind,
            requester,
            style,
            ..
        } => format!("{style:?} {kind} request from {requester}"),
        MsgBody::Fwd {
            kind, requester, ..
        } => format!("forwarded {kind} for {requester}"),
        MsgBody::Data {
            tokens, activation, ..
        } => format!(
            "data + {tokens}{}",
            if *activation { " [activation]" } else { "" }
        ),
        MsgBody::Ack {
            tokens, activation, ..
        } => format!(
            "ack {tokens}{}",
            if *activation { " [activation]" } else { "" }
        ),
        MsgBody::Activation { .. } => "activation".to_string(),
        MsgBody::Deactivate { requester, .. } => format!("deactivation from {requester}"),
        MsgBody::Put { tokens, .. } => format!("token return {tokens}"),
        other => format!("{other:?}"),
    }
}

fn main() {
    let config = ProtocolConfig::new(ProtocolKind::Patch, 4).with_predictor(PredictorChoice::All);
    let mut c = Cluster::new(&config);
    let block = BlockAddr::new(0); // homed at node 0
    let p = NodeId::new;
    let held = |c: &Cluster, i: u16| c.node(p(i)).held_tokens(block).unwrap();
    let op = |kind| MemOp { addr: block, kind };

    println!("== setup: P1 writes the block, then P2 reads it ==");
    c.issue(p(1), op(AccessKind::Write), Cycle::new(0));
    deliver_all(&mut c, 10);
    c.issue(p(2), op(AccessKind::Read), Cycle::new(20));
    deliver_all(&mut c, 30);
    c.completions.clear();
    println!(
        "  state: P1 holds {} | P2 holds {} (owner) | home holds {}\n",
        held(&c, 1),
        held(&c, 2),
        held(&c, 0),
    );

    println!("== the race of Figure 1 ==");
    println!("time 1: P3 issues a write; its direct requests race ahead of its");
    println!("        indirect request, which we delay adversarially.");
    c.issue(p(3), op(AccessKind::Write), Cycle::new(2000));

    println!("time 2: the direct requests strip P1's and P2's tokens:");
    deliver(
        &mut c,
        2005,
        |d, m| d == p(1) && matches!(m.body, MsgBody::Request { .. }),
        "direct request to P1",
    );
    deliver(
        &mut c,
        2005,
        |d, m| d == p(2) && matches!(m.body, MsgBody::Request { .. }),
        "direct request to P2",
    );
    deliver(
        &mut c,
        2010,
        |d, m| d == p(3) && matches!(m.body, MsgBody::Ack { .. } | MsgBody::Data { .. }),
        "P1's tokens reach P3",
    );
    deliver(
        &mut c,
        2015,
        |d, m| d == p(3) && matches!(m.body, MsgBody::Data { .. } | MsgBody::Ack { .. }),
        "P2's owner token + data reach P3",
    );
    println!(
        "        P3 now holds {} — all of them, UNTENURED; its write performs",
        held(&c, 3)
    );
    assert!(c.completions.contains(&p(3)), "P3's write performed early");
    c.completions.clear();

    println!("time 3: P1 also issues a write; ITS indirect request reaches the");
    println!("        home first, so the home activates P1 (not P3):");
    c.issue(p(1), op(AccessKind::Write), Cycle::new(2020));
    deliver(
        &mut c,
        2030,
        |d, m| {
            d == p(0)
                && matches!(m.body, MsgBody::Request { requester, style: RequestStyle::Indirect, .. } if requester == p(1))
        },
        "P1's indirect request wins at the home",
    );
    // The home's forwards/activation go out; P2 has no tokens left and
    // stays silent (no unnecessary acks). P1 is active but token-less.
    deliver_all(&mut c, 2040);
    println!("        P1 is active but the tokens sit untenured at P3: Figure 1's deadlock...");

    println!("\n== token tenure resolves it (Figure 2) ==");
    println!("time 4: P3's tenure timer expires (it was never activated);");
    println!("        it discards every token to the home:");
    let idx = c
        .timers
        .iter()
        .position(|(n, _, k)| *n == p(3) && k.kind == TimerKind::Tenure)
        .expect("P3 armed a tenure timer");
    c.fire(idx, c.timers[idx].1);
    let timeouts = c.node(p(3)).counters().tenure_timeouts;
    println!("        P3 tenure timeouts: {timeouts}");
    assert_eq!(timeouts, 1);

    println!("time 5: the home redirects the returned tokens to active P1:");
    deliver(
        &mut c,
        3000,
        |d, m| d == p(0) && matches!(m.body, MsgBody::Put { .. }),
        "P3's token return reaches the home",
    );
    deliver(
        &mut c,
        3010,
        |d, m| d == p(1) && matches!(m.body, MsgBody::Data { .. }),
        "redirected tokens reach P1",
    );
    assert!(c.completions.contains(&p(1)), "P1's write completed");
    println!("        P1 completes its write and deactivates.");

    println!("time 6: the home activates the queued P3 and the tokens flow on:");
    deliver_all(&mut c, 3100);
    c.assert_quiescent();
    println!(
        "        final: P3 holds {} — both racing writes completed.\n",
        held(&c, 3)
    );
    println!("Both P1 and P3 completed without any broadcast: token tenure needed");
    println!("only local timeouts and the home's per-block point of ordering.");
}
