//! TokenB: broadcast token coherence with persistent requests.
//!
//! The comparator protocol of the paper's §8.2 (Figure 4's rightmost
//! bars), following Martin et al., *"Token Coherence: Decoupling
//! Performance and Correctness"* (ISCA 2003):
//!
//! * Misses **broadcast** a transient request to every node (including
//!   the block's home memory controller) on the unordered torus; there is
//!   no directory and no indirection. The owner answers reads with the
//!   owner token and data; writes collect every token.
//! * Transient requests may fail under races, so unsatisfied misses
//!   **reissue** after an adaptively estimated timeout (with exponential
//!   backoff).
//! * After a bounded number of reissues the requester invokes a
//!   **persistent request**: the block's home arbitrates (centralized
//!   arbitration, one starver at a time), broadcasting an activation that
//!   every node records in a persistent-request table. While the entry is
//!   active, every node forwards all tokens it holds — or later receives —
//!   for that block to the starver, guaranteeing eventual completion.
//!
//! Safety is the token-counting substrate in `tokens.rs` (Table 1), the
//! same code PATCH runs on; everything in this file — broadcast, reissue,
//! the persistent table and its arbiter — is performance and
//! forward-progress *policy*.
//!
//! The contrast with PATCH's token tenure is the point of the comparison:
//! TokenB needs broadcast and per-node tables for forward progress, where
//! token tenure needs only the directory's per-block point of ordering
//! and local timeouts (paper Table 4).

use std::collections::VecDeque;

use patchsim_kernel::collections::FxHashMap;

use patchsim_kernel::Cycle;
use patchsim_mem::{AccessKind, BlockAddr, TokenSet};
use patchsim_noc::{DestSet, NodeId};

use crate::common::LatencyEstimator;
use crate::config::{DIR_LATENCY, DRAM_LATENCY, REISSUES_BEFORE_PERSISTENT};
use crate::controller::{
    Completion, Controller, CoreResponse, MemOp, Outbox, ProtocolCounters, ProtocolGauges,
    SpanMarks, TimerKey, TimerKind,
};
use crate::tokens::{put_home, token_reply, Memory, TokenCache};
use crate::{Msg, MsgBody, ProtocolConfig, RequestStyle};

#[derive(Debug)]
struct TbTbe {
    addr: BlockAddr,
    kind: AccessKind,
    serial: u64,
    issued_at: Cycle,
    reissues: u32,
    timer_generation: u64,
    /// A persistent request has been invoked for this miss.
    persistent: bool,
    /// Span telemetry phase timestamps (pure observation).
    marks: SpanMarks,
}

/// A persistent request: the starver and the serial of the miss that
/// invoked it.
type Persistent = (NodeId, u64);

/// Home-side persistent-request arbitration (centralized, per block).
///
/// Entries carry the starver's transaction serial so that, on an unordered
/// network, a stale deactivation (from an earlier miss of the same node)
/// can never tear down a newer activation.
#[derive(Debug, Default)]
struct ArbEntry {
    /// Persistent requests in arrival order; the head is the active one.
    queue: VecDeque<Persistent>,
    /// Activations broadcast for this block so far; the active one's is
    /// the latest.
    epoch: u64,
}

/// The TokenB controller for one node: private cache, the node's slice of
/// memory, its persistent-request table, and (for blocks homed here) the
/// persistent-request arbiter.
///
/// See the module-level documentation for the protocol description.
#[derive(Debug)]
pub struct TokenBController {
    config: ProtocolConfig,
    id: NodeId,
    cache: TokenCache,
    demand: Option<TbTbe>,
    home: FxHashMap<BlockAddr, Memory>,
    arb: FxHashMap<BlockAddr, ArbEntry>,
    /// This node's persistent-request table: blocks whose tokens must be
    /// forwarded to a starver, with the epoch of the activation that
    /// entered it.
    table: FxHashMap<BlockAddr, (NodeId, u64)>,
    /// The newest arbiter epoch seen per block, from either an activation
    /// or a deactivation.
    epochs: FxHashMap<BlockAddr, u64>,
    latency: LatencyEstimator,
    counters: ProtocolCounters,
    next_serial: u64,
}

impl TokenBController {
    /// Creates the controller for `node`.
    pub fn new(config: ProtocolConfig, node: NodeId) -> Self {
        let cache = TokenCache::new(config.cache_geometry, config.total_tokens);
        TokenBController {
            config,
            id: node,
            cache,
            demand: None,
            home: FxHashMap::default(),
            arb: FxHashMap::default(),
            table: FxHashMap::default(),
            epochs: FxHashMap::default(),
            latency: LatencyEstimator::default(),
            counters: ProtocolCounters::default(),
            next_serial: 0,
        }
    }

    fn n(&self) -> u16 {
        self.config.num_nodes
    }

    fn home_slice(&mut self, addr: BlockAddr) -> &mut Memory {
        debug_assert_eq!(addr.home(self.config.num_nodes), self.id);
        let total = self.config.total_tokens;
        self.home.entry(addr).or_insert_with(|| Memory::full(total))
    }

    // ------------------------------------------------------------------
    // Issue / reissue
    // ------------------------------------------------------------------

    fn broadcast_request(&mut self, style: RequestStyle, now: Cycle, out: &mut Outbox) {
        let n = self.n();
        let num_nodes = self.config.num_nodes;
        let id = self.id;
        let timeout_base = self.latency.average();
        let tbe = self.demand.as_mut().expect("broadcast without a TBE");
        let mut dests = DestSet::all_except(n, id);
        if tbe.addr.home(num_nodes) == id {
            // Our own memory slice must also see the request; the
            // interconnect delivers to self after the self-send latency.
            dests.insert(id);
        }
        let msg = Msg::request(tbe.addr, tbe.kind, id, tbe.serial, style);
        tbe.timer_generation += 1;
        let generation = tbe.timer_generation;
        let timeout = ((timeout_base * 2.0) as u64).max(100) << tbe.reissues.min(8);
        let deadline = now + timeout;
        let addr = tbe.addr;
        out.send(dests, msg);
        out.arm_timer(
            deadline,
            TimerKey {
                addr,
                kind: TimerKind::Reissue,
                generation,
            },
        );
    }

    fn issue_miss(&mut self, op: MemOp, now: Cycle, out: &mut Outbox) {
        debug_assert!(self.demand.is_none());
        let serial = self.next_serial;
        self.next_serial += 1;
        self.counters.misses += 1;
        self.demand = Some(TbTbe {
            addr: op.addr,
            kind: op.kind,
            serial,
            issued_at: now,
            reissues: 0,
            timer_generation: 0,
            persistent: false,
            marks: SpanMarks::default(),
        });
        self.broadcast_request(RequestStyle::Direct, now, out);
        self.try_progress(now, out);
    }

    // ------------------------------------------------------------------
    // Responding to transient requests
    // ------------------------------------------------------------------

    /// Memory-side response from this node's home slice.
    ///
    /// The memory controller must consult its per-block token state before
    /// responding — the same kind of lookup a directory performs — so
    /// responses are charged the directory lookup latency, plus DRAM when
    /// data is supplied.
    fn home_respond(
        &mut self,
        addr: BlockAddr,
        kind: AccessKind,
        requester: NodeId,
        serial: u64,
        out: &mut Outbox,
    ) {
        let (n, id) = (self.n(), self.id);
        let slice = self.home_slice(addr);
        // Writes take whatever memory holds; reads only an owner's data
        // (and then every token with it).
        if !kind.is_write() && !slice.tokens.has_owner() {
            return;
        }
        if let Some(reply) = slice.reply(addr, id, serial, false) {
            let delay = if reply.carries_data() {
                DRAM_LATENCY + DIR_LATENCY
            } else {
                DIR_LATENCY
            };
            out.send_one_after(n, requester, delay, reply);
        }
    }

    fn send_tokens(
        &mut self,
        addr: BlockAddr,
        to: NodeId,
        serial: u64,
        tokens: TokenSet,
        version: u64,
        out: &mut Outbox,
    ) {
        debug_assert!(!tokens.is_empty());
        let reply = token_reply(addr, self.id, serial, tokens, version, false);
        out.send_one(self.n(), to, reply);
    }

    // ------------------------------------------------------------------
    // Token arrival / completion
    // ------------------------------------------------------------------

    fn handle_token_arrival(
        &mut self,
        addr: BlockAddr,
        tokens: TokenSet,
        data_version: Option<u64>,
        now: Cycle,
        out: &mut Outbox,
    ) {
        // Persistent-request table takes precedence: tokens for a starving
        // block are forwarded, not kept.
        if let Some(&(starver, _)) = self.table.get(&addr) {
            if starver != self.id {
                if !tokens.is_empty() {
                    self.send_tokens(addr, starver, 0, tokens, data_version.unwrap_or(0), out);
                }
                return;
            }
        }
        // Span telemetry: the first token arrival for the outstanding miss
        // ends the network phase.
        let has_tbe = match self.demand.as_mut() {
            Some(tbe) if tbe.addr == addr => {
                tbe.marks.note_progress(now);
                true
            }
            _ => false,
        };
        // Stray tokens with nowhere to live (no line, no miss) go back to
        // memory, as does whatever an allocation evicts.
        if let Some((addr, tokens, version)) =
            self.cache.absorb(addr, tokens, data_version, has_tbe)
        {
            let (id, n) = (self.id, self.n());
            put_home(addr, id, n, tokens, version, &mut self.counters, out);
            if !has_tbe {
                return;
            }
        }
        self.try_progress(now, out);
    }

    fn try_progress(&mut self, now: Cycle, out: &mut Outbox) {
        let Some(tbe) = self.demand.as_ref() else {
            return;
        };
        let addr = tbe.addr;
        let line = self.cache.status(addr, tbe.kind);
        if !line.satisfied {
            return;
        }
        let tbe = self.demand.take().expect("present");
        let version = self.cache.perform(addr, tbe.kind);
        self.latency.record(now - tbe.issued_at);
        out.complete(Completion {
            addr,
            kind: tbe.kind,
            version,
            issued_at: tbe.issued_at,
            marks: tbe.marks,
        });
        if tbe.persistent {
            // Tell the home arbiter the starvation is over.
            let home = addr.home(self.n());
            let done = Msg::deactivate(addr, self.id, tbe.serial, line.has_owner);
            out.send_one(self.n(), home, done);
        }
    }

    // ------------------------------------------------------------------
    // Persistent requests
    // ------------------------------------------------------------------

    /// Broadcasts the activation of the block's queue head, its active
    /// persistent request, under the block's next epoch.
    fn arb_activate(&mut self, addr: BlockAddr, out: &mut Outbox) {
        let n = self.n();
        let entry = self.arb.entry(addr).or_default();
        entry.epoch += 1;
        let (starver, serial) = *entry.queue.front().expect("a request to activate");
        let activate = MsgBody::PersistentActivate {
            starver,
            serial,
            epoch: entry.epoch,
        };
        out.send(DestSet::all(n), Msg::new(addr, activate));
    }

    /// Records `epoch` as seen for `addr`; whether it is newer than every
    /// epoch seen for the block before.
    fn note_epoch(&mut self, addr: BlockAddr, epoch: u64) -> bool {
        let newest = self.epochs.entry(addr).or_default();
        let fresh = epoch > *newest;
        *newest = epoch.max(*newest);
        fresh
    }

    fn handle_persistent_activate(
        &mut self,
        addr: BlockAddr,
        (starver, serial): Persistent,
        epoch: u64,
        now: Cycle,
        out: &mut Outbox,
    ) {
        let fresh = self.note_epoch(addr, epoch);
        if starver == self.id {
            // Only the transaction that invoked this persistent request may
            // consume the activation — matched by serial. Anything else
            // (the miss completed already, or this is a *different* miss on
            // the same block) must release the arbiter instead: marking an
            // unrelated TBE `persistent` would silence its reissue timer
            // while no live arbiter entry funnels tokens to it, which
            // deadlocks if the activation is stale.
            let ours = self
                .demand
                .as_ref()
                .is_some_and(|t| t.addr == addr && t.persistent && t.serial == serial);
            if !ours {
                let home = addr.home(self.config.num_nodes);
                let release = Msg::deactivate(addr, self.id, serial, false);
                out.send_one(self.n(), home, release);
                return;
            }
            // Span telemetry: our own persistent activation is the point
            // where the system serializes this starving miss.
            if let Some(tbe) = self.demand.as_mut() {
                tbe.marks.note_ordered(now);
            }
        }
        // Epoch guard: an activation no newer than the newest epoch seen
        // for the block is dead — its own deactivation overtook it, or a
        // later activation did. Entering it would funnel the block's
        // tokens to a starver no deactivation will ever clear. (The
        // starver's own live activation is always fresh: neither can be
        // sent before it deactivates.)
        if !fresh {
            return;
        }
        self.table.insert(addr, (starver, epoch));
        if starver != self.id {
            // Surrender current cache holdings.
            if let Some((tokens, version)) = self.cache.take_all(addr) {
                self.send_tokens(addr, starver, 0, tokens, version, out);
            }
        }
        // Surrender the memory slice's holdings too.
        if addr.home(self.config.num_nodes) == self.id {
            let (n, id) = (self.n(), self.id);
            if let Some(reply) = self.home_slice(addr).reply(addr, id, 0, false) {
                let delay = if reply.carries_data() {
                    DRAM_LATENCY
                } else {
                    0
                };
                out.send_one_after(n, starver, delay, reply);
            }
        }
    }
}

impl Controller for TokenBController {
    fn core_request(&mut self, op: MemOp, now: Cycle, out: &mut Outbox) -> CoreResponse {
        if let Some(version) = self.cache.hit(op.addr, op.kind) {
            self.counters.hits += 1;
            return CoreResponse::Hit { version };
        }
        self.issue_miss(op, now, out);
        CoreResponse::MissPending
    }

    fn handle_message(&mut self, msg: Msg, now: Cycle, out: &mut Outbox) {
        let addr = msg.addr;
        match msg.body {
            MsgBody::Request {
                kind,
                requester,
                serial,
                style,
            } => {
                debug_assert!(
                    matches!(
                        style,
                        RequestStyle::Direct | RequestStyle::Reissue | RequestStyle::Persistent
                    ),
                    "TokenB has no indirect requests"
                );
                if style == RequestStyle::Persistent {
                    // Home-side arbitration.
                    let entry = self.arb.entry(addr).or_default();
                    entry.queue.push_back((requester, serial));
                    if entry.queue.len() == 1 {
                        self.arb_activate(addr, out);
                    }
                    return;
                }
                // Transient request: suppressed while a persistent request
                // is active for the block.
                if self.table.contains_key(&addr) {
                    return;
                }
                // Memory slice responds if this node is the home.
                if addr.home(self.config.num_nodes) == self.id {
                    self.home_respond(addr, kind, requester, serial, out);
                }
                // Cache side responds unless it has its own miss
                // outstanding for the block (races resolve by reissue).
                if requester != self.id && self.demand.as_ref().is_none_or(|t| t.addr != addr) {
                    if let Some((tokens, version)) = self.cache.surrender(addr, kind, false) {
                        self.send_tokens(addr, requester, serial, tokens, version, out);
                    }
                }
            }
            MsgBody::Data {
                tokens, version, ..
            } => {
                self.handle_token_arrival(addr, tokens, Some(version), now, out);
            }
            MsgBody::Ack { tokens, .. } => {
                self.handle_token_arrival(addr, tokens, None, now, out);
            }
            MsgBody::Put {
                tokens, version, ..
            } => {
                // Tokens returned to memory. If a persistent request is
                // active, funnel them onward to the starver.
                let (n, id) = (self.n(), self.id);
                let starver = self.table.get(&addr).map(|&(starver, _)| starver);
                let slice = self.home_slice(addr);
                match starver {
                    Some(starver) => {
                        let redirect = slice.redirect(addr, id, 0, tokens, version, false);
                        out.send_one(n, starver, redirect);
                    }
                    None => slice.absorb(tokens, version),
                }
            }
            MsgBody::Deactivate {
                requester, serial, ..
            } => {
                // Persistent-request completion at the home arbiter. A
                // requester can complete while its persistent request is
                // still in flight, so its deactivation may arrive early
                // (before the request) or while another starver is active;
                // only the *active* starver's deactivation — matched by
                // requester AND serial, so a stale release from an earlier
                // miss of the same node cannot tear down a fresh entry —
                // closes it. A stray activation is cancelled by the starver
                // itself when it arrives (see PersistentActivate below).
                let n = self.n();
                let entry = self.arb.entry(addr).or_default();
                if entry.queue.front() != Some(&(requester, serial)) {
                    return;
                }
                entry.queue.pop_front();
                let deactivate = MsgBody::PersistentDeactivate {
                    starver: requester,
                    epoch: entry.epoch,
                };
                out.send(DestSet::all(n), Msg::new(addr, deactivate));
                if !entry.queue.is_empty() {
                    self.arb_activate(addr, out);
                }
            }
            MsgBody::PersistentActivate {
                starver,
                serial,
                epoch,
            } => {
                self.handle_persistent_activate(addr, (starver, serial), epoch, now, out);
            }
            MsgBody::PersistentDeactivate { starver, epoch } => {
                // Guarded removal: on an unordered network this broadcast
                // can arrive after the *next* starver's activation; a late
                // deactivation must not clobber the fresh entry. Each epoch
                // names one activation, so only the entry's own epoch
                // clears it. Its epoch still counts as seen, so the
                // activation it ends is dropped should it arrive later still.
                self.note_epoch(addr, epoch);
                if let Some(&(active, entered)) = self.table.get(&addr) {
                    if entered == epoch {
                        debug_assert_eq!(active, starver, "one epoch, two starvers");
                        self.table.remove(&addr);
                    }
                }
            }
            MsgBody::Fwd { .. } | MsgBody::Activation { .. } | MsgBody::WbAck => {
                unreachable!("TokenB does not use {:?}", msg.body)
            }
        }
    }

    fn timer_fired(&mut self, key: TimerKey, now: Cycle, out: &mut Outbox) {
        debug_assert_eq!(key.kind, TimerKind::Reissue);
        let Some(tbe) = self.demand.as_mut() else {
            return;
        };
        if tbe.addr != key.addr || tbe.timer_generation != key.generation || tbe.persistent {
            return;
        }
        if tbe.reissues < REISSUES_BEFORE_PERSISTENT {
            tbe.reissues += 1;
            self.counters.reissues += 1;
            self.broadcast_request(RequestStyle::Reissue, now, out);
        } else {
            tbe.persistent = true;
            self.counters.persistent_requests += 1;
            let home = tbe.addr.home(self.config.num_nodes);
            let (kind, serial) = (tbe.kind, tbe.serial);
            let escalate = Msg::request(key.addr, kind, self.id, serial, RequestStyle::Persistent);
            out.send_one(self.n(), home, escalate);
        }
    }

    fn is_quiescent(&self) -> bool {
        self.demand.is_none() && self.arb.values().all(|e| e.queue.is_empty())
    }

    fn held_tokens(&self, addr: BlockAddr) -> Option<TokenSet> {
        let mut held = self.cache.held(addr);
        if addr.home(self.config.num_nodes) == self.id {
            let untouched = Memory::full(self.config.total_tokens);
            held.merge(self.home.get(&addr).copied().unwrap_or(untouched).tokens);
        }
        Some(held)
    }

    fn counters(&self) -> ProtocolCounters {
        self.counters
    }

    fn gauges(&self) -> ProtocolGauges {
        ProtocolGauges {
            tbes: u64::from(self.demand.is_some()),
            home_entries: (self.home.len() + self.arb.len()) as u64,
            persistent_entries: self.table.len() as u64,
        }
    }

    fn protocol_name(&self) -> &'static str {
        "TokenB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtocolKind;
    use patchsim_mem::OwnerStatus;

    fn config(n: u16) -> ProtocolConfig {
        ProtocolConfig::new(ProtocolKind::TokenB, n)
    }

    fn ctrl(n: u16, node: u16) -> TokenBController {
        TokenBController::new(config(n), NodeId::new(node))
    }

    fn a(x: u64) -> BlockAddr {
        BlockAddr::new(x)
    }

    /// Memory's slice of the home starts empty whatever the working-set
    /// hint says, and grows with the blocks a run touches.
    #[test]
    fn a_new_home_reserves_no_entries() {
        let mut config = config(16);
        config.working_set_hint = Some(1 << 20);
        let c = TokenBController::new(config, NodeId::new(0));
        assert_eq!(c.home.capacity(), 0);
    }

    #[test]
    fn miss_broadcasts_to_everyone() {
        let mut c = ctrl(4, 1);
        let mut out = Outbox::new();
        c.core_request(
            MemOp {
                addr: a(2),
                kind: AccessKind::Write,
            },
            Cycle::ZERO,
            &mut out,
        );
        assert_eq!(out.sends.len(), 1);
        let bcast = &out.sends[0];
        // Everyone except self (block 2's home is node 2, not us).
        assert_eq!(bcast.dests.len(), 3);
        assert!(!bcast.dests.contains(NodeId::new(1)));
        assert!(matches!(
            bcast.msg.body,
            MsgBody::Request {
                style: RequestStyle::Direct,
                ..
            }
        ));
        // And a reissue timer is armed.
        assert_eq!(out.timers.len(), 1);
        assert_eq!(out.timers[0].1.kind, TimerKind::Reissue);
    }

    #[test]
    fn broadcast_includes_self_when_home_is_local() {
        let mut c = ctrl(4, 1);
        let mut out = Outbox::new();
        c.core_request(
            MemOp {
                addr: a(1), // homed at node 1 = self
                kind: AccessKind::Read,
            },
            Cycle::ZERO,
            &mut out,
        );
        assert!(out.sends[0].dests.contains(NodeId::new(1)));
    }

    #[test]
    fn memory_answers_write_broadcast_with_all_tokens() {
        let mut c = ctrl(4, 2); // home of block 2
        let mut out = Outbox::new();
        c.handle_message(
            Msg::new(
                a(2),
                MsgBody::Request {
                    kind: AccessKind::Write,
                    requester: NodeId::new(0),
                    serial: 0,
                    style: RequestStyle::Direct,
                },
            ),
            Cycle::ZERO,
            &mut out,
        );
        assert_eq!(out.sends.len(), 1);
        match &out.sends[0].msg.body {
            MsgBody::Data { tokens, .. } => {
                assert_eq!(tokens.count(), 4);
                assert!(tokens.has_owner());
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(out.sends[0].delay, 96, "token-state lookup + DRAM");
    }

    #[test]
    fn requester_completes_and_closes_tbe() {
        let mut c = ctrl(4, 1);
        let mut out = Outbox::new();
        c.core_request(
            MemOp {
                addr: a(2),
                kind: AccessKind::Write,
            },
            Cycle::ZERO,
            &mut out,
        );
        let mut out = Outbox::new();
        c.handle_message(
            Msg::new(
                a(2),
                MsgBody::Data {
                    from: NodeId::new(2),
                    serial: 0,
                    tokens: TokenSet::full(4, OwnerStatus::Clean),
                    version: 0,
                    acks_expected: 0,
                    exclusive: false,
                    dirty: false,
                    activation: false,
                },
            ),
            Cycle::new(100),
            &mut out,
        );
        assert_eq!(out.completions.len(), 1);
        assert!(c.is_quiescent());
        // No deactivation: the miss never went persistent.
        assert!(out
            .sends
            .iter()
            .all(|s| !matches!(s.msg.body, MsgBody::Deactivate { .. })));
    }

    #[test]
    fn reissue_then_persistent() {
        let mut c = ctrl(4, 1);
        let mut out = Outbox::new();
        c.core_request(
            MemOp {
                addr: a(2),
                kind: AccessKind::Write,
            },
            Cycle::ZERO,
            &mut out,
        );
        let (mut at, mut key) = out.timers[0];
        // Fire the timer REISSUES_BEFORE_PERSISTENT times: each
        // rebroadcasts.
        for i in 0..2 {
            let mut out = Outbox::new();
            c.timer_fired(key, at, &mut out);
            assert!(
                out.sends.iter().any(|s| matches!(
                    s.msg.body,
                    MsgBody::Request {
                        style: RequestStyle::Reissue,
                        ..
                    }
                )),
                "reissue {i}"
            );
            (at, key) = out.timers[0];
        }
        assert_eq!(c.counters().reissues, 2);
        // The next timeout escalates to a persistent request.
        let mut out = Outbox::new();
        c.timer_fired(key, at, &mut out);
        assert_eq!(c.counters().persistent_requests, 1);
        let persistent = &out.sends[0];
        assert_eq!(persistent.dests.as_single(), Some(NodeId::new(2)));
        assert!(matches!(
            persistent.msg.body,
            MsgBody::Request {
                style: RequestStyle::Persistent,
                ..
            }
        ));
    }

    #[test]
    fn home_arbitrates_persistent_requests_one_at_a_time() {
        let mut home = ctrl(4, 2);
        let persistent = |r: u16| {
            Msg::new(
                a(2),
                MsgBody::Request {
                    kind: AccessKind::Write,
                    requester: NodeId::new(r),
                    serial: 0,
                    style: RequestStyle::Persistent,
                },
            )
        };
        let mut out = Outbox::new();
        home.handle_message(persistent(0), Cycle::ZERO, &mut out);
        // Broadcast activation for P0.
        assert!(out.sends.iter().any(|s| matches!(
            s.msg.body,
            MsgBody::PersistentActivate { starver, epoch: 1, .. } if starver == NodeId::new(0)
        )));
        // P3's persistent request queues.
        let mut out = Outbox::new();
        home.handle_message(persistent(3), Cycle::ZERO, &mut out);
        assert!(out.sends.is_empty());
        // P0 completes: deactivation broadcast + P3 activated.
        let mut out = Outbox::new();
        home.handle_message(
            Msg::new(
                a(2),
                MsgBody::Deactivate {
                    requester: NodeId::new(0),
                    serial: 0,
                    new_owner: true,
                },
            ),
            Cycle::new(10),
            &mut out,
        );
        assert!(out
            .sends
            .iter()
            .any(|s| matches!(s.msg.body, MsgBody::PersistentDeactivate { epoch: 1, .. })));
        assert!(out.sends.iter().any(|s| matches!(
            s.msg.body,
            MsgBody::PersistentActivate { starver, epoch: 2, .. } if starver == NodeId::new(3)
        )));
    }

    #[test]
    fn persistent_activation_surrenders_tokens() {
        let mut c = ctrl(4, 1);
        c.cache.absorb(a(2), TokenSet::plain(2), Some(0), true);
        let mut out = Outbox::new();
        c.handle_message(
            Msg::new(
                a(2),
                MsgBody::PersistentActivate {
                    starver: NodeId::new(3),
                    serial: 0,
                    epoch: 1,
                },
            ),
            Cycle::ZERO,
            &mut out,
        );
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].dests.as_single(), Some(NodeId::new(3)));
        assert_eq!(out.sends[0].msg.tokens().count(), 2);
        // Tokens that arrive later are forwarded too.
        let mut out = Outbox::new();
        c.handle_message(
            Msg::new(
                a(2),
                MsgBody::Ack {
                    from: NodeId::new(0),
                    serial: 0,
                    tokens: TokenSet::plain(1),
                    activation: false,
                },
            ),
            Cycle::new(5),
            &mut out,
        );
        assert_eq!(out.sends[0].dests.as_single(), Some(NodeId::new(3)));
        // Until the deactivation broadcast clears the table.
        let mut out = Outbox::new();
        c.handle_message(
            Msg::new(
                a(2),
                MsgBody::PersistentDeactivate {
                    starver: NodeId::new(3),
                    epoch: 1,
                },
            ),
            Cycle::new(10),
            &mut out,
        );
        assert!(c.table.is_empty());
    }

    #[test]
    fn transient_requests_suppressed_during_persistent() {
        let mut c = ctrl(4, 1);
        c.cache
            .absorb(a(2), TokenSet::full(4, OwnerStatus::Dirty), Some(1), true);
        let mut out = Outbox::new();
        c.handle_message(
            Msg::new(
                a(2),
                MsgBody::PersistentActivate {
                    starver: NodeId::new(3),
                    serial: 0,
                    epoch: 1,
                },
            ),
            Cycle::ZERO,
            &mut out,
        );
        // Now a transient request from P0 arrives: ignored.
        let mut out = Outbox::new();
        c.handle_message(
            Msg::new(
                a(2),
                MsgBody::Request {
                    kind: AccessKind::Write,
                    requester: NodeId::new(0),
                    serial: 1,
                    style: RequestStyle::Direct,
                },
            ),
            Cycle::new(5),
            &mut out,
        );
        assert!(out.sends.is_empty());
    }

    #[test]
    fn owner_answers_read_broadcast_with_owner_token() {
        let mut c = ctrl(4, 1);
        c.cache
            .absorb(a(2), TokenSet::full(3, OwnerStatus::Dirty), Some(6), true);
        let mut out = Outbox::new();
        c.handle_message(
            Msg::new(
                a(2),
                MsgBody::Request {
                    kind: AccessKind::Read,
                    requester: NodeId::new(0),
                    serial: 0,
                    style: RequestStyle::Direct,
                },
            ),
            Cycle::ZERO,
            &mut out,
        );
        match &out.sends[0].msg.body {
            MsgBody::Data {
                tokens,
                version,
                dirty,
                ..
            } => {
                assert_eq!(tokens.count(), 1);
                assert!(tokens.has_owner());
                assert_eq!(*version, 6);
                assert!(*dirty);
            }
            other => panic!("{other:?}"),
        }
        // Keeps its plain tokens as a sharer.
        assert_eq!(c.cache.held(a(2)).count(), 2);
    }

    #[test]
    fn sharer_ignores_read_broadcast() {
        let mut c = ctrl(4, 1);
        c.cache.absorb(a(2), TokenSet::plain(1), Some(0), true);
        let mut out = Outbox::new();
        c.handle_message(
            Msg::new(
                a(2),
                MsgBody::Request {
                    kind: AccessKind::Read,
                    requester: NodeId::new(0),
                    serial: 0,
                    style: RequestStyle::Direct,
                },
            ),
            Cycle::ZERO,
            &mut out,
        );
        assert!(out.sends.is_empty(), "zero-token acks are elided");
    }
}
