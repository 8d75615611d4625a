//! An untimed cluster of controllers for hand-driven protocol tests.

use patchsim_kernel::Cycle;
use patchsim_mem::BlockAddr;
use patchsim_noc::NodeId;
use patchsim_protocol::{
    build_controller, Controller, CoreResponse, MemOp, Msg, Outbox, ProtocolConfig, TimerKey,
};

use crate::checker::{CoherenceChecker, TokenAuditor};

/// `n` controllers with no fabric, event queue or clock between them:
/// sent messages and armed timers pile up in [`Cluster::in_flight`] and
/// [`Cluster::timers`] until the caller picks one to run, at a time the
/// caller names. Token coherence claims safety under *any* delivery
/// order (Table 1; Martin et al., ISCA 2003), so "what runs next" is
/// the caller's whole job — a seeded draw, a script, an enumeration —
/// and everything else is here, under the production oracles: every
/// action checks its completions with [`CoherenceChecker`] against the
/// node's outstanding op and then audits the block it concerned with
/// [`TokenAuditor`].
///
/// # Examples
///
/// ```
/// use patchsim::{AccessKind, BlockAddr, Cluster, Cycle, NodeId, ProtocolKind};
/// use patchsim_protocol::{MemOp, ProtocolConfig};
///
/// let mut c = Cluster::new(&ProtocolConfig::new(ProtocolKind::Patch, 4));
/// let op = MemOp { addr: BlockAddr::new(0), kind: AccessKind::Write };
/// c.issue(NodeId::new(1), op, Cycle::new(0));
/// c.drain(Cycle::new(10));
/// assert_eq!(c.completions, [NodeId::new(1)]);
/// c.assert_quiescent();
/// ```
pub struct Cluster {
    nodes: Vec<Box<dyn Controller + Send>>,
    /// Undelivered messages, one entry per destination (multicasts are
    /// unrolled), in the order they were sent.
    pub in_flight: Vec<(NodeId, Msg)>,
    /// Unfired timers as `(node, deadline, key)`, in the order they were
    /// armed. Timers are never cancelled; controllers disregard stale ones.
    pub timers: Vec<(NodeId, Cycle, TimerKey)>,
    /// Each node's outstanding operation (cores are blocking).
    pub outstanding: Vec<Option<MemOp>>,
    /// The node of every completed operation, hits included, oldest first.
    pub completions: Vec<NodeId>,
    checker: CoherenceChecker,
    auditor: TokenAuditor,
}

impl Cluster {
    /// Builds `config.num_nodes` idle controllers.
    pub fn new(config: &ProtocolConfig) -> Self {
        let n = config.num_nodes;
        Cluster {
            nodes: (0..n)
                .map(|i| build_controller(config, NodeId::new(i)))
                .collect(),
            in_flight: Vec::new(),
            timers: Vec::new(),
            outstanding: vec![None; n as usize],
            completions: Vec::new(),
            checker: CoherenceChecker::new(),
            auditor: TokenAuditor::new(config.total_tokens),
        }
    }

    /// Issues `op` from `node`'s core at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `node` already has an operation outstanding.
    pub fn issue(&mut self, node: NodeId, op: MemOp, now: Cycle) -> CoreResponse {
        let slot = &mut self.outstanding[node.index()];
        assert!(slot.is_none(), "{node} issued {op:?} over {slot:?}");
        *slot = Some(op);
        let mut out = Outbox::new();
        let response = self.nodes[node.index()].core_request(op, now, &mut out);
        if let CoreResponse::Hit { version } = response {
            self.complete(node, op.addr, version, now);
        }
        self.settle(node, out, op.addr, now);
        response
    }

    /// Delivers `in_flight[idx]` at `now`; later entries keep their order.
    pub fn deliver(&mut self, idx: usize, now: Cycle) {
        let (dest, msg) = self.in_flight.remove(idx);
        self.auditor.on_deliver(&msg);
        let addr = msg.addr;
        let mut out = Outbox::new();
        self.nodes[dest.index()].handle_message(msg, now, &mut out);
        self.settle(dest, out, addr, now);
    }

    /// Fires `timers[idx]` at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` is before the timer's deadline.
    pub fn fire(&mut self, idx: usize, now: Cycle) {
        let (node, deadline, key) = self.timers.remove(idx);
        assert!(
            now >= deadline,
            "{key:?} at {node} fired at {now}, before its deadline {deadline}"
        );
        let mut out = Outbox::new();
        self.nodes[node.index()].timer_fired(key, now, &mut out);
        self.settle(node, out, key.addr, now);
    }

    /// Delivers the oldest in-flight message `pred(dest, msg)` accepts;
    /// `false` if there is none.
    pub fn deliver_first(&mut self, now: Cycle, pred: impl Fn(NodeId, &Msg) -> bool) -> bool {
        let idx = self.in_flight.iter().position(|(d, m)| pred(*d, m));
        idx.map(|idx| self.deliver(idx, now)).is_some()
    }

    /// Delivers oldest-first, follow-ups included, until nothing is in
    /// flight. Fires no timers.
    pub fn drain(&mut self, now: Cycle) {
        while self.deliver_first(now, |_, _| true) {}
    }

    /// The controller at `node`.
    pub fn node(&self, node: NodeId) -> &dyn Controller {
        &*self.nodes[node.index()]
    }

    /// Asserts that no message is in flight, no token is unaccounted for,
    /// and every controller is quiescent.
    pub fn assert_quiescent(&self) {
        assert!(
            self.in_flight.is_empty(),
            "{} messages still in flight",
            self.in_flight.len()
        );
        assert_eq!(
            self.auditor.tokens_in_flight(),
            0,
            "token conservation violated: tokens were sent that no in-flight message carries"
        );
        for (i, node) in self.nodes.iter().enumerate() {
            assert!(node.is_quiescent(), "controller {i} is not quiescent");
        }
    }

    /// Fans one controller call's outputs out, checks its completions,
    /// then audits the block the call concerned.
    fn settle(&mut self, from: NodeId, out: Outbox, addr: BlockAddr, now: Cycle) {
        for send in out.sends {
            for dest in send.dests.iter() {
                self.auditor.on_send(&send.msg);
                self.in_flight.push((dest, send.msg.clone()));
            }
        }
        for (deadline, key) in out.timers {
            self.timers.push((from, deadline, key));
        }
        for c in out.completions {
            self.complete(from, c.addr, c.version, now);
        }
        self.auditor.audit(addr, &self.nodes);
    }

    fn complete(&mut self, node: NodeId, addr: BlockAddr, version: u64, now: Cycle) {
        let op = self.outstanding[node.index()]
            .take()
            .unwrap_or_else(|| panic!("completion at {node} without an outstanding op"));
        assert_eq!(op.addr, addr, "{node} completed a block it did not ask for");
        self.checker.check(addr, op.kind, version, now);
        self.completions.push(node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patchsim_mem::AccessKind;
    use patchsim_predictor::PredictorChoice;
    use patchsim_protocol::{MsgBody, ProtocolKind};

    const P1: NodeId = NodeId::new(1);
    const WRITE: MemOp = MemOp {
        addr: BlockAddr::new(0),
        kind: AccessKind::Write,
    };

    /// PATCH-All on four nodes with P1's write issued and every request
    /// delivered, so the home's token-carrying `Data` is the one message
    /// in flight.
    fn data_in_flight() -> Cluster {
        let config =
            ProtocolConfig::new(ProtocolKind::Patch, 4).with_predictor(PredictorChoice::All);
        let mut c = Cluster::new(&config);
        c.issue(P1, WRITE, Cycle::new(0));
        while c.deliver_first(Cycle::new(5), |_, m| {
            matches!(m.body, MsgBody::Request { .. })
        }) {}
        assert!(matches!(c.in_flight[..], [(P1, ref m)] if !m.tokens().is_empty()));
        c
    }

    #[test]
    fn a_miss_completes_and_quiesces() {
        let mut c = data_in_flight();
        c.drain(Cycle::new(10));
        assert_eq!(c.completions, [P1]);
        assert_eq!(
            c.issue(P1, WRITE, Cycle::new(20)),
            CoreResponse::Hit { version: 2 }
        );
        assert_eq!(c.completions, [P1, P1]);
        c.assert_quiescent();
    }

    #[test]
    #[should_panic(expected = "token forgery")]
    fn redelivered_tokens_are_forgery() {
        let mut c = data_in_flight();
        let copy = c.in_flight[0].clone();
        c.deliver(0, Cycle::new(10));
        c.in_flight.push(copy);
        c.deliver(c.in_flight.len() - 1, Cycle::new(11));
    }

    #[test]
    #[should_panic(expected = "token conservation violated")]
    fn discarded_tokens_break_conservation() {
        let mut c = data_in_flight();
        c.in_flight.clear();
        c.assert_quiescent();
    }

    #[test]
    #[should_panic(expected = "before its deadline")]
    fn a_timer_cannot_fire_early() {
        let mut c = data_in_flight();
        c.drain(Cycle::new(10));
        let deadline = c.timers[0].1;
        assert!(deadline > Cycle::new(10));
        c.fire(0, Cycle::new(10));
    }

    #[test]
    #[should_panic(expected = "without an outstanding op")]
    fn a_completion_needs_an_outstanding_op() {
        let mut c = data_in_flight();
        c.outstanding[P1.index()] = None;
        c.drain(Cycle::new(10));
    }
}
