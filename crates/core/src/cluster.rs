//! An untimed cluster of controllers for hand-driven protocol tests.

use patchsim_kernel::Cycle;
use patchsim_mem::BlockAddr;
use patchsim_noc::NodeId;
use patchsim_protocol::{
    build_controllers, Controller, CoreResponse, MemOp, Msg, Outbox, ProtocolConfig, TimerKey,
};

use crate::checker::{holders, CoherenceChecker, TokenAuditor};

/// `n` controllers with no fabric, event queue or clock between them:
/// sent messages and armed timers pile up in [`Cluster::in_flight`] and
/// [`Cluster::timers`] until the caller picks one to run, at a time the
/// caller names. Token coherence claims safety under *any* delivery
/// order (Table 1; Martin et al., ISCA 2003), so "what runs next" is
/// the caller's whole job — a seeded draw, a script, an enumeration —
/// and everything else is here, under the production oracles: every
/// action checks its completions with [`CoherenceChecker`] against the
/// node's outstanding op, and [`TokenAuditor`] checks that the acting
/// node's holdings of the block it concerned moved by exactly the tokens
/// it received minus those it sent (fully auditing any other block it
/// sent tokens for); [`Cluster::assert_quiescent`] audits every block.
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
            nodes: build_controllers(config),
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
        self.auditor.begin_action(&self.nodes, node, op.addr);
        let mut out = Outbox::new();
        let response = self.nodes[node.index()].core_request(op, now, &mut out);
        if let CoreResponse::Hit { version } = response {
            self.complete(node, op.addr, version, now);
        }
        self.settle(node, out, now);
        response
    }

    /// Delivers `in_flight[idx]` at `now`; later entries keep their order.
    pub fn deliver(&mut self, idx: usize, now: Cycle) {
        let (dest, msg) = self.in_flight.remove(idx);
        self.auditor.begin_delivery(&self.nodes, dest, &msg);
        let mut out = Outbox::new();
        self.nodes[dest.index()].handle_message(msg, now, &mut out);
        self.settle(dest, out, now);
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
        self.auditor.begin_action(&self.nodes, node, key.addr);
        let mut out = Outbox::new();
        self.nodes[node.index()].timer_fired(key, now, &mut out);
        self.settle(node, out, now);
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

    /// Who holds `addr`'s tokens, in the format every failure line uses:
    /// each node's non-empty holding (`P3 t=2(+Oc)`), `none` when all of
    /// it is in flight, `untracked` under DIRECTORY.
    pub fn holders(&self, addr: BlockAddr) -> String {
        holders(&self.nodes, addr)
    }

    /// Asserts that no message is in flight, no token is unaccounted for
    /// (a full audit of every block that was ever in flight), and every
    /// controller is quiescent.
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
        self.auditor.sweep(&self.nodes);
        for (i, node) in self.nodes.iter().enumerate() {
            assert!(node.is_quiescent(), "controller {i} is not quiescent");
        }
    }

    /// Fans one controller call's outputs out, checks its completions,
    /// then closes the call's audit scope.
    fn settle(&mut self, from: NodeId, out: Outbox, now: Cycle) {
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
        self.auditor.end_action(&self.nodes);
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
    use patchsim_mem::{AccessKind, CacheGeometry, TokenSet};
    use patchsim_predictor::PredictorChoice;
    use patchsim_protocol::{MsgBody, ProtocolCounters, ProtocolKind};

    const N: u16 = 4;
    const P1: NodeId = NodeId::new(1);
    const WRITE: MemOp = MemOp {
        addr: BlockAddr::new(0),
        kind: AccessKind::Write,
    };

    /// One deliberate conservation bug in an otherwise real controller:
    /// the negative controls that show the auditor notices.
    #[derive(Clone, Copy)]
    enum Bug {
        /// Every token-carrying delivery arrives with one plain token more
        /// than was sent.
        ForgesOnDelivery,
        /// Every owner-carrying delivery is also sent back to its block's
        /// home, owner token and all.
        DuplicatesOwner,
        /// Every timer also returns a plain token of its block to the
        /// home, without giving one up.
        TimerForgesPut,
        /// Evictions discard the victim's tokens instead of `Put`ting them
        /// home.
        DropsVictims,
    }

    struct Mutant {
        inner: Box<dyn Controller + Send>,
        at: NodeId,
        bug: Bug,
    }

    impl Controller for Mutant {
        fn core_request(&mut self, op: MemOp, now: Cycle, out: &mut Outbox) -> CoreResponse {
            self.inner.core_request(op, now, out)
        }

        fn handle_message(&mut self, mut msg: Msg, now: Cycle, out: &mut Outbox) {
            let addr = msg.addr;
            match self.bug {
                Bug::ForgesOnDelivery => {
                    if let MsgBody::Data { tokens, .. } | MsgBody::Ack { tokens, .. } =
                        &mut msg.body
                    {
                        tokens.merge(TokenSet::plain(1));
                    }
                }
                Bug::DuplicatesOwner if msg.tokens().has_owner() => {
                    out.send_one(N, addr.home(N), msg.clone());
                }
                _ => {}
            }
            self.inner.handle_message(msg, now, out);
            if let Bug::DropsVictims = self.bug {
                out.sends
                    .retain(|s| s.msg.addr == addr || !matches!(s.msg.body, MsgBody::Put { .. }));
            }
        }

        fn timer_fired(&mut self, key: TimerKey, now: Cycle, out: &mut Outbox) {
            self.inner.timer_fired(key, now, out);
            if let Bug::TimerForgesPut = self.bug {
                let body = MsgBody::Put {
                    node: self.at,
                    tokens: TokenSet::plain(1),
                    version: None,
                };
                out.send_one(N, key.addr.home(N), Msg::new(key.addr, body));
            }
        }

        fn is_quiescent(&self) -> bool {
            self.inner.is_quiescent()
        }

        fn held_tokens(&self, addr: BlockAddr) -> Option<TokenSet> {
            self.inner.held_tokens(addr)
        }

        fn counters(&self) -> ProtocolCounters {
            self.inner.counters()
        }

        fn protocol_name(&self) -> &'static str {
            self.inner.protocol_name()
        }
    }

    impl Cluster {
        /// [`Cluster::new`] with node `at`'s controller carrying `bug`.
        fn with_mutant(config: &ProtocolConfig, at: NodeId, bug: Bug) -> Self {
            let mut c = Cluster::new(config);
            let inner = c.nodes.remove(at.index());
            c.nodes
                .insert(at.index(), Box::new(Mutant { inner, at, bug }));
            c
        }
    }

    fn patch_all() -> ProtocolConfig {
        ProtocolConfig::new(ProtocolKind::Patch, N).with_predictor(PredictorChoice::All)
    }

    /// PATCH-All on four nodes with P1's write issued and every request
    /// delivered, so the home's token-carrying `Data` is the one message
    /// in flight.
    fn data_in_flight() -> Cluster {
        requests_delivered(Cluster::new(&patch_all()))
    }

    /// `data_in_flight` on a given cluster.
    fn requests_delivered(mut c: Cluster) -> Cluster {
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

    #[test]
    #[should_panic(expected = "token conservation violated for 0x0 at P1: held 0, received 4")]
    fn forged_tokens_trip_at_the_delivery() {
        let mut c = requests_delivered(Cluster::with_mutant(
            &patch_all(),
            P1,
            Bug::ForgesOnDelivery,
        ));
        c.deliver(0, Cycle::new(10));
    }

    #[test]
    #[should_panic(expected = "owner token for 0x0 at P1 duplicated or lost")]
    fn a_duplicated_owner_trips_at_the_delivery() {
        let mut c =
            requests_delivered(Cluster::with_mutant(&patch_all(), P1, Bug::DuplicatesOwner));
        c.deliver(0, Cycle::new(10));
    }

    #[test]
    #[should_panic(
        expected = "token conservation violated for 0x0 at P1: held 4, received 0, sent 1"
    )]
    fn a_timer_sending_unheld_tokens_trips_at_the_timer() {
        let mut c = requests_delivered(Cluster::with_mutant(&patch_all(), P1, Bug::TimerForgesPut));
        c.drain(Cycle::new(10));
        let (node, deadline, _) = c.timers[0];
        assert_eq!(node, P1);
        c.fire(0, deadline);
    }

    /// P1 writes block 0, then block 2, in a one-line cache: block 2's
    /// fill evicts block 0, whose tokens should go home in a `Put`.
    fn write_two_blocks(mut c: Cluster) -> Cluster {
        for addr in [0, 2] {
            let op = MemOp {
                addr: BlockAddr::new(addr),
                kind: AccessKind::Write,
            };
            c.issue(P1, op, Cycle::new(20 * addr));
            c.drain(Cycle::new(20 * addr + 10));
        }
        assert_eq!(c.completions, [P1, P1]);
        c
    }

    fn one_line_patch() -> ProtocolConfig {
        ProtocolConfig::new(ProtocolKind::Patch, N).with_cache_geometry(CacheGeometry::new(1, 1))
    }

    #[test]
    fn an_eviction_puts_its_victim_home() {
        write_two_blocks(Cluster::new(&one_line_patch())).assert_quiescent();
    }

    /// No action looks at block 0 after the eviction, so the loss is
    /// found by the final sweep, not where it happened.
    #[test]
    #[should_panic(expected = "token conservation violated for 0x0: 0 held + 0 in flight != 4")]
    fn a_silently_dropped_victim_trips_at_the_sweep() {
        let c = Cluster::with_mutant(&one_line_patch(), P1, Bug::DropsVictims);
        write_two_blocks(c).assert_quiescent();
    }

    #[test]
    fn holders_lists_every_node_holding_the_block() {
        let mut c = Cluster::new(&ProtocolConfig::new(ProtocolKind::Patch, N));
        let addr = WRITE.addr;
        assert_eq!(c.holders(addr), "P0 t=4(+Oc)", "untouched: all at home");
        c.issue(P1, WRITE, Cycle::new(0));
        c.drain(Cycle::new(10));
        assert_eq!(c.holders(addr), "P1 t=4(+Od)");
        let directory = Cluster::new(&ProtocolConfig::new(ProtocolKind::Directory, N));
        assert_eq!(directory.holders(addr), "untracked");
    }

    /// A sweep failure names who still holds the block: here P2, whose
    /// read copy is all that is left of block 0 once P1's eviction drops
    /// the rest.
    #[test]
    fn a_sweep_failure_names_the_remaining_holders() {
        let mut c = Cluster::with_mutant(&one_line_patch(), P1, Bug::DropsVictims);
        let read = MemOp {
            addr: BlockAddr::new(0),
            kind: AccessKind::Read,
        };
        c.issue(P1, read, Cycle::new(0));
        c.drain(Cycle::new(10));
        c.issue(NodeId::new(2), read, Cycle::new(20));
        c.drain(Cycle::new(30));
        let evict = MemOp {
            addr: BlockAddr::new(2),
            ..WRITE
        };
        c.issue(P1, evict, Cycle::new(40));
        c.drain(Cycle::new(50));
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.assert_quiescent()))
            .expect_err("the dropped victim trips the sweep");
        let line = panic.downcast_ref::<String>().expect("a formatted panic");
        let expected = "violated for 0x0: 1 held + 0 in flight != 4; holders: P2 t=1(+Oc)";
        assert!(line.contains(expected), "{line}");
    }
}
