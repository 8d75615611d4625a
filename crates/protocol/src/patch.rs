//! PATCH: Predictive/Adaptive Token Counting Hybrid (paper §5.2).
//!
//! PATCH is DIRECTORY plus four changes:
//!
//! 1. **Token state** in cache lines, directory entries, and data/ack
//!    messages; clean blocks are never silently evicted (a data-less token
//!    writeback goes to the home instead).
//! 2. **Token counting completion**: misses complete when enough tokens
//!    have arrived — writers need all `T`, readers one plus valid data.
//!    Zero-token acknowledgements are simply never sent, which is what
//!    lets PATCH out-scale DIRECTORY under inexact sharer encodings.
//! 3. **Direct requests**: each miss may also be multicast directly to a
//!    predicted destination set, on a best-effort lowest-priority virtual
//!    network. Token holders answer them exactly like forwarded requests;
//!    everyone else ignores them. Losing one is harmless.
//! 4. **Token tenure** (§4) for broadcast-free forward progress: tokens
//!    arriving at a processor are *untenured* until the home's activation
//!    names that processor the block's active requester. Untenured tokens
//!    time out (after twice the dynamic average round-trip) and are
//!    written back to the home, which redirects them to the active
//!    requester. The directory's sharer set is maintained as a superset of
//!    the caches holding tenured tokens, so activation forwards always
//!    reach every tenured holder.
//!
//! The token-counting rules themselves (Table 1: how a holder answers,
//! absorbs, performs on and returns tokens, and the messages they travel
//! in) live in `tokens.rs`, shared with TokenB, and the blocking home
//! (how a request is ordered, forwarded and retired) in `home.rs`, shared
//! with DIRECTORY; this file is PATCH's *policy* on top of the two — what
//! the home sends on activation, direct requests, tenure timers, token
//! redirection and the deactivation window.
//!
//! Two implementation rules keep the directory's owner pointer
//! authoritative (and are asserted in the module tests):
//!
//! * The home *always* delivers an activation to the requester it
//!   activates — merged into its token/data response when it sends one,
//!   or as a standalone 8-byte activation message otherwise (this is the
//!   paper's "home-to-requester message for activation on owner upgrade
//!   misses", applied uniformly).
//! * A cache that receives tokens while it has no transaction outstanding
//!   for the block immediately bounces them to the home. Tenured owner
//!   tokens therefore only rest at caches the directory knows about.

use patchsim_kernel::collections::{fx_map_with_capacity, FxHashMap};

use patchsim_kernel::Cycle;
use patchsim_mem::{AccessKind, BlockAddr, TokenSet};
use patchsim_noc::{NodeId, Priority};
use patchsim_predictor::Predictor;

use crate::common::{LatencyEstimator, MigratoryDetector};
use crate::controller::{
    Completion, Controller, CoreResponse, MemOp, Outbox, ProtocolCounters, ProtocolGauges,
    SpanMarks, TimerKey, TimerKind,
};
use crate::home::HomeEntry;
use crate::tokens::{token_put, token_reply, Memory, TokenCache};
use crate::{Msg, MsgBody, ProtocolConfig, RequestStyle};

#[derive(Debug)]
struct PatchTbe {
    kind: AccessKind,
    serial: u64,
    issued_at: Cycle,
    /// The access has been performed (tokens sufficed at some point).
    performed: bool,
    /// The home has named this node the block's active requester.
    activated: bool,
    /// Guards against stale tenure timers.
    timer_generation: u64,
    /// Whether a tenure timer is currently armed.
    timer_armed: bool,
    /// Span telemetry phase timestamps (pure observation).
    marks: SpanMarks,
}

/// A block's home entry: memory holds tokens, and only requests — as
/// `(kind, requester, serial)` — queue behind a busy block (returned tokens
/// are redirected at once).
type PatchHomeEntry = HomeEntry<Memory, (AccessKind, NodeId, u64)>;

/// The PATCH controller for one node: private cache side plus the node's
/// slice of the distributed home.
///
/// See the module-level documentation for the protocol description.
pub struct PatchController {
    config: ProtocolConfig,
    id: NodeId,
    cache: TokenCache,
    /// Open transactions, one per block. A transaction can outlive its
    /// access: a miss satisfied early by direct requests stays open until
    /// the home's activation lets it deactivate, while the core moves on.
    tbes: FxHashMap<BlockAddr, PatchTbe>,
    /// A core op waiting for this block's open transaction to close.
    deferred: Option<MemOp>,
    home: FxHashMap<BlockAddr, PatchHomeEntry>,
    /// Blocks whose post-deactivation direct-request ignore window is
    /// still open (maps to the window's end).
    deact_windows: FxHashMap<BlockAddr, Cycle>,
    predictor: Box<dyn Predictor + Send>,
    migratory: MigratoryDetector,
    latency: LatencyEstimator,
    counters: ProtocolCounters,
    next_serial: u64,
}

impl std::fmt::Debug for PatchController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatchController")
            .field("id", &self.id)
            .field("open_tbes", &self.tbes.len())
            .finish()
    }
}

impl PatchController {
    /// Creates the controller for `node`, instantiating the configured
    /// destination-set predictor.
    pub fn new(config: ProtocolConfig, node: NodeId) -> Self {
        let cache = TokenCache::new(config.cache_geometry, config.total_tokens);
        let home_cap = config.home_table_capacity();
        let predictor = config.predictor.build(config.num_nodes);
        PatchController {
            config,
            id: node,
            cache,
            tbes: FxHashMap::default(),
            deferred: None,
            home: fx_map_with_capacity(home_cap),
            deact_windows: FxHashMap::default(),
            predictor,
            migratory: MigratoryDetector::with_capacity(home_cap),
            latency: LatencyEstimator::default(),
            counters: ProtocolCounters::default(),
            next_serial: 0,
        }
    }

    fn n(&self) -> u16 {
        self.config.num_nodes
    }

    fn home_entry(&mut self, addr: BlockAddr) -> &mut PatchHomeEntry {
        debug_assert_eq!(addr.home(self.config.num_nodes), self.id);
        let encoding = self.config.sharer_encoding;
        let n = self.config.num_nodes;
        let total = self.config.total_tokens;
        self.home
            .entry(addr)
            .or_insert_with(|| HomeEntry::new(n, encoding, Memory::full(total)))
    }

    fn tenure_timeout(&self) -> u64 {
        self.config.tenure.timeout(self.latency.average())
    }

    // ------------------------------------------------------------------
    // Cache side
    // ------------------------------------------------------------------

    fn issue_miss(&mut self, op: MemOp, now: Cycle, out: &mut Outbox) {
        debug_assert!(!self.tbes.contains_key(&op.addr));
        let serial = self.next_serial;
        self.next_serial += 1;
        self.counters.misses += 1;
        self.tbes.insert(
            op.addr,
            PatchTbe {
                kind: op.kind,
                serial,
                issued_at: now,
                performed: false,
                activated: false,
                timer_generation: 0,
                timer_armed: false,
                marks: SpanMarks::default(),
            },
        );
        let home = op.addr.home(self.n());
        out.send_one(
            self.n(),
            home,
            Msg::request(op.addr, op.kind, self.id, serial, RequestStyle::Indirect),
        );
        let predicted = self.predictor.predict(op.addr, op.kind, self.id);
        if !predicted.is_empty() {
            out.send_with(
                predicted,
                self.config.direct_priority,
                0,
                Msg::request(op.addr, op.kind, self.id, serial, RequestStyle::Direct),
            );
        }
        // The transaction may already be satisfiable from tokens the line
        // retained (e.g. a write upgrade that raced); check immediately.
        // If it is not, an untenured line (upgrade with tokens, not yet
        // activated) gets its probation clock running from the start.
        self.try_progress(op.addr, now, out);
    }

    /// Answers a request (direct or forwarded) from this cache's current
    /// holdings. Returns `true` if a response was sent.
    fn respond_with_tokens(
        &mut self,
        addr: BlockAddr,
        kind: AccessKind,
        requester: NodeId,
        serial: u64,
        invalidating: bool,
        out: &mut Outbox,
    ) -> bool {
        let Some((tokens, version)) = self.cache.surrender(addr, kind, invalidating) else {
            return false;
        };
        let reply = token_reply(addr, self.id, serial, tokens, version, false);
        out.send_one(self.n(), requester, reply);
        true
    }

    /// Returns tokens to the home (tenure timeout, eviction, or bounced
    /// stray arrivals).
    fn put_tokens(&mut self, addr: BlockAddr, tokens: TokenSet, version: u64, out: &mut Outbox) {
        if tokens.is_empty() {
            return;
        }
        self.counters.writebacks += 1;
        let home = addr.home(self.n());
        out.send_one(self.n(), home, token_put(addr, self.id, tokens, version));
    }

    /// Advances the outstanding miss: performs the access once tokens
    /// suffice, deactivates once both performed and activated, and until
    /// then keeps the probation clock of untenured tokens running.
    fn try_progress(&mut self, addr: BlockAddr, now: Cycle, out: &mut Outbox) {
        let Some(tbe) = self.tbes.get_mut(&addr) else {
            return;
        };
        // One look at the line answers every question below; performing
        // the access changes none of the answers. The line is probed again
        // only to perform, which also marks it recently used.
        let line = self.cache.status(addr, tbe.kind);
        if line.satisfied && !tbe.performed {
            tbe.performed = true;
            if !tbe.activated {
                self.counters.satisfied_before_activation += 1;
            }
            let version = self.cache.perform(addr, tbe.kind);
            self.latency.record(now - tbe.issued_at);
            out.complete(Completion {
                addr,
                kind: tbe.kind,
                version,
                issued_at: tbe.issued_at,
                marks: tbe.marks,
            });
        }
        if !(tbe.activated && line.satisfied) {
            // Untenured tokens (held, not yet activated) are on probation.
            if line.has_tokens && !tbe.activated && !tbe.timer_armed {
                tbe.timer_generation += 1;
                tbe.timer_armed = true;
                out.arm_timer(
                    now + self.config.tenure.timeout(self.latency.average()),
                    TimerKey {
                        addr,
                        kind: TimerKind::Tenure,
                        generation: tbe.timer_generation,
                    },
                );
            }
            return;
        }
        // Deactivate: report the resulting state to the home.
        let serial = tbe.serial;
        self.tbes.remove(&addr);
        let home = addr.home(self.n());
        out.send_one(
            self.n(),
            home,
            Msg::deactivate(addr, self.id, serial, line.has_owner, true),
        );
        if self.config.deact_window {
            let until = now + self.tenure_timeout();
            self.deact_windows.insert(addr, until);
            out.arm_timer(
                until,
                TimerKey {
                    addr,
                    kind: TimerKind::DeactWindow,
                    generation: 0,
                },
            );
        }
        // A deferred core op for this block can now proceed (it may
        // even hit on the tokens the transaction just collected).
        if self.deferred.is_some_and(|op| op.addr == addr) {
            let op = self.deferred.take().expect("checked");
            if let CoreResponse::Hit { version } = self.core_request(op, now, out) {
                out.complete(Completion {
                    addr: op.addr,
                    kind: op.kind,
                    version,
                    issued_at: now,
                    marks: SpanMarks::default(),
                });
            }
        }
    }

    fn handle_direct_request(
        &mut self,
        addr: BlockAddr,
        kind: AccessKind,
        requester: NodeId,
        serial: u64,
        now: Cycle,
        out: &mut Outbox,
    ) {
        self.predictor.observe_request(addr, requester);
        // Rule 6c + §5.2: ignore when a miss is outstanding for the block
        // (which is also where untenured tokens live), or within the
        // post-deactivation window.
        if self.tbes.contains_key(&addr) {
            self.counters.direct_ignored += 1;
            return;
        }
        if let Some(&until) = self.deact_windows.get(&addr) {
            if now < until {
                self.counters.direct_ignored += 1;
                return;
            }
        }
        if self.respond_with_tokens(addr, kind, requester, serial, false, out) {
            self.counters.direct_responses += 1;
        } else {
            self.counters.direct_ignored += 1;
        }
    }

    fn handle_fwd(
        &mut self,
        addr: BlockAddr,
        kind: AccessKind,
        requester: NodeId,
        serial: u64,
        exclusive: bool,
        out: &mut Outbox,
    ) {
        self.predictor.observe_request(addr, requester);
        // Rule 6a: the *active* requester hoards; everyone else (including
        // non-active requesters with untenured tokens, Rule 6b) responds
        // to forwards.
        if self.tbes.get(&addr).is_some_and(|t| t.activated) {
            return;
        }
        let responded = self.respond_with_tokens(addr, kind, requester, serial, exclusive, out);
        if !responded && !self.config.ack_elision && (kind.is_write() || exclusive) {
            // Ablation: mimic DIRECTORY's unconditional invalidation acks.
            out.send_one(
                self.n(),
                requester,
                Msg::new(
                    addr,
                    MsgBody::Ack {
                        from: self.id,
                        serial,
                        tokens: TokenSet::empty(),
                        activation: false,
                    },
                ),
            );
        }
    }

    /// Tokens arrived addressed to this cache.
    #[allow(clippy::too_many_arguments)] // mirrors the Data/Ack message fields
    fn handle_token_arrival(
        &mut self,
        addr: BlockAddr,
        tokens: TokenSet,
        data_version: Option<u64>,
        activation: bool,
        serial: u64,
        from: Option<NodeId>,
        now: Cycle,
        out: &mut Outbox,
    ) {
        if let Some(from) = from {
            self.predictor.observe_response(addr, from);
        }
        let Some(tbe) = self.tbes.get_mut(&addr) else {
            // No transaction outstanding: bounce stray tokens to the home
            // immediately (an instant probation expiry). This keeps
            // tenured owner tokens only where the directory can find
            // them.
            self.put_tokens(addr, tokens, data_version.unwrap_or(0), out);
            return;
        };
        // Span telemetry: the first response of any kind ends the
        // network phase. Pure data write — no protocol effect.
        tbe.marks.note_progress(now);
        // The activation bit is transaction-specific: a late response
        // from a *previous* transaction on this block must not
        // activate the current one (its tokens are still welcome).
        if activation && tbe.serial == serial {
            tbe.activated = true;
            tbe.timer_armed = false; // pending timers are now stale
            tbe.marks.note_ordered(now);
        }
        if !tokens.is_empty() || data_version.is_some() {
            if let Some((victim, tokens, version)) =
                self.cache.absorb(addr, tokens, data_version, true)
            {
                self.put_tokens(victim, tokens, version, out);
            }
        }
        self.try_progress(addr, now, out);
    }

    // ------------------------------------------------------------------
    // Home side
    // ------------------------------------------------------------------

    fn activate_request(
        &mut self,
        addr: BlockAddr,
        kind: AccessKind,
        requester: NodeId,
        serial: u64,
        out: &mut Outbox,
    ) {
        let n = self.n();
        let dir_latency = self.config.dir_latency;
        let dram_latency = self.config.dram_latency;
        let exclusive = if self.config.migratory_opt {
            self.migratory.observe(addr, requester, kind)
        } else {
            false
        };
        let invalidating = kind.is_write() || exclusive;
        let entry = self.home_entry(addr);
        let fwd_targets = entry.forward_targets(n, requester, invalidating);
        entry.activate(requester, serial, invalidating);

        // The home contributes everything it holds, with the activation
        // bit riding along; if it holds nothing, a standalone activation
        // is sent.
        let home_tokens = entry.memory.tokens.take_all();
        let version = entry.memory.version;

        if home_tokens.is_empty() {
            out.send_one_after(
                n,
                requester,
                dir_latency,
                Msg::new(
                    addr,
                    MsgBody::Activation {
                        serial,
                        acks_expected: 0,
                        exclusive,
                    },
                ),
            );
        } else if home_tokens.has_owner() {
            out.send_one_after(
                n,
                requester,
                dir_latency + dram_latency,
                Msg::new(
                    addr,
                    MsgBody::Data {
                        from: self.id,
                        serial,
                        tokens: home_tokens,
                        version,
                        acks_expected: 0,
                        exclusive,
                        dirty: false,
                        activation: true,
                    },
                ),
            );
        } else {
            out.send_one_after(
                n,
                requester,
                dir_latency,
                token_reply(addr, self.id, serial, home_tokens, version, true),
            );
        }

        if !fwd_targets.is_empty() {
            out.send_with(
                fwd_targets,
                Priority::Normal,
                dir_latency,
                Msg::new(
                    addr,
                    MsgBody::Fwd {
                        kind,
                        requester,
                        serial,
                        acks_expected: 0,
                        exclusive,
                    },
                ),
            );
        }
    }

    /// Tokens returned to the home: redirect to the active requester if
    /// the block is busy (Rule 5 of token tenure), absorb into memory
    /// otherwise.
    fn home_receive_put(
        &mut self,
        addr: BlockAddr,
        node: NodeId,
        tokens: TokenSet,
        version: Option<u64>,
        out: &mut Outbox,
    ) {
        let n = self.n();
        let id = self.id;
        let dir_latency = self.config.dir_latency;
        let entry = self.home_entry(addr);
        entry.sharers.remove_if_exact(node);
        if let Some(busy) = &entry.busy {
            // Redirect everything to the active requester — including a
            // requester's own discarded tokens coming back after a tenure
            // timeout that raced its activation. A put carries a version
            // only with a dirty owner; a clean owner (a data-less return)
            // means memory's copy is valid (Rule 5), so data is attached
            // from memory.
            let version = version.unwrap_or(entry.memory.version);
            let redirect = token_reply(addr, id, busy.serial, tokens, version, true);
            out.send_one_after(n, busy.requester, dir_latency, redirect);
        } else {
            // Absorb into memory. If the returning node was the
            // directory's owner pointer, ownership reverts to memory.
            if tokens.has_owner() && entry.owner == Some(node) {
                entry.owner = None;
            }
            entry.memory.absorb(tokens, version);
        }
    }

    fn process_deactivate(
        &mut self,
        addr: BlockAddr,
        requester: NodeId,
        serial: u64,
        new_owner: bool,
        out: &mut Outbox,
    ) {
        // Requesters always keep at least one token on completion, so one
        // that did not become the owner is tracked as a sharer.
        self.home_entry(addr)
            .deactivate(requester, serial, new_owner);
        self.drain_queue(addr, out);
    }

    fn drain_queue(&mut self, addr: BlockAddr, out: &mut Outbox) {
        let entry = self.home_entry(addr);
        if entry.busy.is_some() {
            return;
        }
        if let Some((kind, requester, serial)) = entry.queue.pop_front() {
            self.activate_request(addr, kind, requester, serial, out);
        }
    }
}

impl Controller for PatchController {
    fn core_request(&mut self, op: MemOp, now: Cycle, out: &mut Outbox) -> CoreResponse {
        if let Some(version) = self.cache.hit(op.addr, op.kind) {
            self.counters.hits += 1;
            return CoreResponse::Hit { version };
        }
        if self.tbes.contains_key(&op.addr) {
            // An earlier transaction for this block is still open (e.g.
            // its tokens were discarded by a tenure timeout while it
            // awaited activation): wait for it to close.
            debug_assert!(self.deferred.is_none());
            self.deferred = Some(op);
            return CoreResponse::MissPending;
        }
        self.issue_miss(op, now, out);
        CoreResponse::MissPending
    }

    fn handle_message(&mut self, msg: Msg, now: Cycle, out: &mut Outbox) {
        let addr = msg.addr;
        match msg.body {
            // ------------- home side -------------
            MsgBody::Request {
                kind,
                requester,
                serial,
                style: RequestStyle::Indirect,
            } => {
                let entry = self.home_entry(addr);
                if entry.busy.is_some() {
                    entry.queue.push_back((kind, requester, serial));
                } else {
                    self.activate_request(addr, kind, requester, serial, out);
                }
            }
            MsgBody::Put {
                node,
                tokens,
                version,
                ..
            } => {
                self.home_receive_put(addr, node, tokens, version, out);
            }
            MsgBody::Deactivate {
                requester,
                serial,
                new_owner,
                ..
            } => {
                self.process_deactivate(addr, requester, serial, new_owner, out);
            }

            // ------------- cache side -------------
            MsgBody::Request {
                kind,
                requester,
                serial,
                style: RequestStyle::Direct,
            } => {
                self.handle_direct_request(addr, kind, requester, serial, now, out);
            }
            MsgBody::Request { style, .. } => {
                unreachable!("PATCH does not use {style:?} requests")
            }
            MsgBody::Fwd {
                kind,
                requester,
                serial,
                exclusive,
                ..
            } => {
                self.handle_fwd(addr, kind, requester, serial, exclusive, out);
            }
            MsgBody::Data {
                from,
                tokens,
                version,
                activation,
                serial,
                ..
            } => {
                self.handle_token_arrival(
                    addr,
                    tokens,
                    Some(version),
                    activation,
                    serial,
                    Some(from),
                    now,
                    out,
                );
            }
            MsgBody::Ack {
                from,
                tokens,
                activation,
                serial,
            } => {
                self.handle_token_arrival(
                    addr,
                    tokens,
                    None,
                    activation,
                    serial,
                    Some(from),
                    now,
                    out,
                );
            }
            MsgBody::Activation { serial, .. } => {
                // The activation may also have ridden a token response or
                // redirect that arrived first and already closed the
                // transaction; a late standalone activation (or one for a
                // previous transaction on this block) is simply stale.
                if let Some(tbe) = self.tbes.get_mut(&addr) {
                    if tbe.serial == serial {
                        tbe.activated = true;
                        tbe.timer_armed = false;
                        tbe.marks.note_ordered(now);
                        self.try_progress(addr, now, out);
                    }
                }
            }
            MsgBody::WbAck { .. } => unreachable!("PATCH writebacks are unacknowledged"),
            MsgBody::PersistentActivate { .. } | MsgBody::PersistentDeactivate { .. } => {
                unreachable!("persistent requests are TokenB-only")
            }
        }
    }

    fn timer_fired(&mut self, key: TimerKey, now: Cycle, out: &mut Outbox) {
        match key.kind {
            TimerKind::Tenure => {
                let Some(tbe) = self.tbes.get_mut(&key.addr) else {
                    return;
                };
                if tbe.timer_generation != key.generation || !tbe.timer_armed || tbe.activated {
                    return;
                }
                tbe.timer_armed = false;
                // Probation expired: discard all untenured tokens to the
                // home (Rule 4 of token tenure).
                if let Some((tokens, version)) = self.cache.take_all(key.addr) {
                    self.counters.tenure_timeouts += 1;
                    self.put_tokens(key.addr, tokens, version, out);
                }
            }
            TimerKind::DeactWindow => {
                if self
                    .deact_windows
                    .get(&key.addr)
                    .is_some_and(|&until| now >= until)
                {
                    self.deact_windows.remove(&key.addr);
                }
            }
            TimerKind::Reissue => unreachable!("reissue timers are TokenB-only"),
        }
    }

    fn is_quiescent(&self) -> bool {
        self.tbes.is_empty()
            && self.deferred.is_none()
            && self.home.values().all(HomeEntry::is_idle)
    }

    fn held_tokens(&self, addr: BlockAddr) -> Option<TokenSet> {
        let mut held = self.cache.held(addr);
        if addr.home(self.config.num_nodes) == self.id {
            let untouched = Memory::full(self.config.total_tokens);
            held.merge(self.home.get(&addr).map_or(untouched, |e| e.memory).tokens);
        }
        Some(held)
    }

    fn counters(&self) -> ProtocolCounters {
        self.counters
    }

    fn gauges(&self) -> ProtocolGauges {
        ProtocolGauges {
            tbes: self.tbes.len() as u64,
            home_entries: self.home.len() as u64,
            persistent_entries: 0,
        }
    }

    fn protocol_name(&self) -> &'static str {
        "PATCH"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtocolKind;
    use patchsim_mem::OwnerStatus;
    use patchsim_predictor::PredictorChoice;

    fn config(n: u16) -> ProtocolConfig {
        ProtocolConfig::new(ProtocolKind::Patch, n)
    }

    fn ctrl(n: u16, node: u16) -> PatchController {
        PatchController::new(config(n), NodeId::new(node))
    }

    fn a(x: u64) -> BlockAddr {
        BlockAddr::new(x)
    }

    fn stable_line(c: &mut PatchController, addr: BlockAddr, tokens: TokenSet, version: u64) {
        c.cache.absorb(addr, tokens, Some(version), true);
    }

    /// The home table holds one entry per touched block.
    #[test]
    fn home_entry_layout_is_pinned() {
        assert_eq!(std::mem::size_of::<Memory>(), 16);
        assert!(std::mem::size_of::<PatchHomeEntry>() <= 112);
    }

    #[test]
    fn miss_sends_indirect_plus_predicted_direct_requests() {
        let mut c = PatchController::new(
            config(4).with_predictor(PredictorChoice::All),
            NodeId::new(1),
        );
        let mut out = Outbox::new();
        c.core_request(
            MemOp {
                addr: a(2),
                kind: AccessKind::Write,
            },
            Cycle::ZERO,
            &mut out,
        );
        // One indirect to home, one best-effort multicast to the other 3.
        assert_eq!(out.sends.len(), 2);
        let indirect = &out.sends[0];
        assert!(matches!(
            indirect.msg.body,
            MsgBody::Request {
                style: RequestStyle::Indirect,
                ..
            }
        ));
        let direct = &out.sends[1];
        assert_eq!(direct.priority, Priority::BestEffort);
        assert_eq!(direct.dests.len(), 3);
        assert!(!direct.dests.contains(NodeId::new(1)));
    }

    #[test]
    fn home_cold_block_sends_all_tokens_with_activation() {
        let mut home = ctrl(4, 0);
        let mut out = Outbox::new();
        home.handle_message(
            Msg::new(
                a(0),
                MsgBody::Request {
                    kind: AccessKind::Read,
                    requester: NodeId::new(2),
                    serial: 0,
                    style: RequestStyle::Indirect,
                },
            ),
            Cycle::ZERO,
            &mut out,
        );
        assert_eq!(out.sends.len(), 1);
        match &out.sends[0].msg.body {
            MsgBody::Data {
                tokens, activation, ..
            } => {
                assert_eq!(tokens.count(), 4, "home sends all tokens");
                assert!(tokens.has_owner());
                assert!(*activation);
            }
            other => panic!("expected Data, got {other:?}"),
        }
        assert_eq!(out.sends[0].delay, 16 + 80, "directory + DRAM");
    }

    #[test]
    fn requester_completes_by_token_count_and_deactivates() {
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
                    activation: true,
                },
            ),
            Cycle::new(100),
            &mut out,
        );
        assert_eq!(out.completions.len(), 1);
        assert_eq!(out.completions[0].version, 1, "write bumps the version");
        assert!(
            out.sends.iter().any(|s| matches!(
                s.msg.body,
                MsgBody::Deactivate {
                    new_owner: true,
                    ..
                }
            )),
            "deactivates once active and satisfied"
        );
        assert!(c.is_quiescent());
        // The line is M: all tokens, dirty owner.
        let held = c.held_tokens(a(2)).unwrap();
        assert_eq!(held.count(), 4);
        assert!(held.requires_data());
    }

    #[test]
    fn partial_tokens_do_not_complete_a_write() {
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
                    tokens: TokenSet::full(3, OwnerStatus::Clean), // 3 of 4
                    version: 0,
                    acks_expected: 0,
                    exclusive: false,
                    dirty: false,
                    activation: true,
                },
            ),
            Cycle::new(100),
            &mut out,
        );
        assert!(out.completions.is_empty());
        // The final token arrives in a zero-data ack.
        let mut out = Outbox::new();
        c.handle_message(
            Msg::new(
                a(2),
                MsgBody::Ack {
                    from: NodeId::new(3),
                    serial: 0,
                    tokens: TokenSet::plain(1),
                    activation: false,
                },
            ),
            Cycle::new(150),
            &mut out,
        );
        assert_eq!(out.completions.len(), 1);
    }

    #[test]
    fn reader_can_use_untenured_tokens_before_activation() {
        // Satisfying a miss off the critical path of activation is the
        // whole point of direct requests.
        let mut c = ctrl(4, 1);
        let mut out = Outbox::new();
        c.core_request(
            MemOp {
                addr: a(2),
                kind: AccessKind::Read,
            },
            Cycle::ZERO,
            &mut out,
        );
        let mut out = Outbox::new();
        c.handle_message(
            Msg::new(
                a(2),
                MsgBody::Data {
                    from: NodeId::new(3),
                    serial: 0,
                    tokens: TokenSet::full(1, OwnerStatus::Dirty),
                    version: 9,
                    acks_expected: 0,
                    exclusive: false,
                    dirty: true,
                    activation: false, // direct response: no activation
                },
            ),
            Cycle::new(40),
            &mut out,
        );
        // Performed (completion reported) but not deactivated.
        assert_eq!(out.completions.len(), 1);
        assert_eq!(out.completions[0].version, 9);
        assert!(!c.is_quiescent(), "TBE stays open until activation");
        assert_eq!(c.counters().satisfied_before_activation, 1);
        // A tenure timer was armed.
        assert!(out.timers.iter().any(|(_, k)| k.kind == TimerKind::Tenure));
        // Activation arrives later: deactivate.
        let mut out = Outbox::new();
        c.handle_message(
            Msg::new(
                a(2),
                MsgBody::Activation {
                    serial: 0,
                    acks_expected: 0,
                    exclusive: false,
                },
            ),
            Cycle::new(80),
            &mut out,
        );
        assert!(out
            .sends
            .iter()
            .any(|s| matches!(s.msg.body, MsgBody::Deactivate { .. })));
        assert!(c.is_quiescent());
    }

    #[test]
    fn tenure_timeout_discards_untenured_tokens_to_home() {
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
                MsgBody::Ack {
                    from: NodeId::new(3),
                    serial: 0,
                    tokens: TokenSet::plain(2),
                    activation: false,
                },
            ),
            Cycle::new(10),
            &mut out,
        );
        let (at, key) = out.timers[0];
        assert_eq!(key.kind, TimerKind::Tenure);
        // Fire the timer without an activation: tokens go home.
        let mut out = Outbox::new();
        c.timer_fired(key, at, &mut out);
        assert_eq!(c.counters().tenure_timeouts, 1);
        let put = out
            .sends
            .iter()
            .find(|s| matches!(s.msg.body, MsgBody::Put { .. }))
            .expect("token return");
        assert_eq!(put.msg.tokens().count(), 2);
        assert_eq!(put.dests.as_single(), Some(NodeId::new(2)), "to the home");
        // The TBE is still open, waiting for redirected tokens.
        assert!(!c.is_quiescent());
    }

    #[test]
    fn stale_tenure_timer_is_ignored_after_activation() {
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
                MsgBody::Ack {
                    from: NodeId::new(3),
                    serial: 0,
                    tokens: TokenSet::plain(2),
                    activation: true, // home ack: activation rides along
                },
            ),
            Cycle::new(10),
            &mut out,
        );
        let timer = out.timers.first().copied();
        // Any timer armed before activation must now be disregarded.
        if let Some((at, key)) = timer {
            let mut out = Outbox::new();
            c.timer_fired(key, at, &mut out);
            assert!(out.sends.is_empty(), "activated: no discard");
            assert_eq!(c.counters().tenure_timeouts, 0);
        }
    }

    #[test]
    fn home_redirects_returned_tokens_to_active_requester() {
        let mut home = ctrl(4, 0);
        let mut out = Outbox::new();
        // Drain home tokens to P1 via a write.
        home.handle_message(
            Msg::new(
                a(0),
                MsgBody::Request {
                    kind: AccessKind::Write,
                    requester: NodeId::new(1),
                    serial: 0,
                    style: RequestStyle::Indirect,
                },
            ),
            Cycle::ZERO,
            &mut out,
        );
        // While busy, P3 returns 2 stray tokens.
        let mut out = Outbox::new();
        home.handle_message(
            Msg::new(
                a(0),
                MsgBody::Put {
                    node: NodeId::new(3),
                    tokens: TokenSet::plain(2),
                    version: None,
                    dirty: false,
                },
            ),
            Cycle::new(50),
            &mut out,
        );
        assert_eq!(out.sends.len(), 1);
        let redirect = &out.sends[0];
        assert_eq!(redirect.dests.as_single(), Some(NodeId::new(1)));
        assert_eq!(redirect.msg.tokens().count(), 2);
    }

    #[test]
    fn home_absorbs_returns_when_idle_and_cleans_owner() {
        let mut home = ctrl(4, 0);
        // Prime: drain tokens via a write transaction, complete it.
        let mut out = Outbox::new();
        home.handle_message(
            Msg::new(
                a(0),
                MsgBody::Request {
                    kind: AccessKind::Write,
                    requester: NodeId::new(1),
                    serial: 0,
                    style: RequestStyle::Indirect,
                },
            ),
            Cycle::ZERO,
            &mut out,
        );
        home.handle_message(
            Msg::new(
                a(0),
                MsgBody::Deactivate {
                    requester: NodeId::new(1),
                    serial: 0,
                    new_owner: true,
                    keeps_copy: true,
                },
            ),
            Cycle::new(10),
            &mut out,
        );
        // P1 evicts: all 4 tokens with dirty owner and data come home.
        let mut out = Outbox::new();
        home.handle_message(
            Msg::new(
                a(0),
                MsgBody::Put {
                    node: NodeId::new(1),
                    tokens: TokenSet::full(4, OwnerStatus::Dirty),
                    version: Some(5),
                    dirty: true,
                },
            ),
            Cycle::new(20),
            &mut out,
        );
        assert!(out.sends.is_empty(), "absorbed, not redirected");
        let held = home.held_tokens(a(0)).unwrap();
        assert_eq!(held.count(), 4);
        assert_eq!(
            held.owner_status(),
            Some(OwnerStatus::Clean),
            "memory cleans the owner token (Rule 1)"
        );
    }

    #[test]
    fn direct_request_ignored_with_outstanding_miss() {
        let mut c = ctrl(4, 1);
        let mut out = Outbox::new();
        c.core_request(
            MemOp {
                addr: a(2),
                kind: AccessKind::Read,
            },
            Cycle::ZERO,
            &mut out,
        );
        let mut out = Outbox::new();
        c.handle_message(
            Msg::new(
                a(2),
                MsgBody::Request {
                    kind: AccessKind::Write,
                    requester: NodeId::new(3),
                    serial: 7,
                    style: RequestStyle::Direct,
                },
            ),
            Cycle::new(5),
            &mut out,
        );
        assert!(out.sends.is_empty());
        assert_eq!(c.counters().direct_ignored, 1);
    }

    #[test]
    fn direct_request_served_from_tenured_line() {
        let mut c = ctrl(4, 1);
        stable_line(&mut c, a(0), TokenSet::full(4, OwnerStatus::Dirty), 3);
        let mut out = Outbox::new();
        c.handle_message(
            Msg::new(
                a(0),
                MsgBody::Request {
                    kind: AccessKind::Write,
                    requester: NodeId::new(3),
                    serial: 7,
                    style: RequestStyle::Direct,
                },
            ),
            Cycle::new(5),
            &mut out,
        );
        assert_eq!(c.counters().direct_responses, 1);
        match &out.sends[0].msg.body {
            MsgBody::Data {
                tokens,
                version,
                dirty,
                ..
            } => {
                assert_eq!(tokens.count(), 4);
                assert_eq!(*version, 3);
                assert!(*dirty);
            }
            other => panic!("{other:?}"),
        }
        assert!(c.cache.held(a(0)).is_empty());
    }

    #[test]
    fn direct_read_to_non_owner_is_ignored() {
        let mut c = ctrl(4, 1);
        stable_line(&mut c, a(0), TokenSet::plain(2), 3);
        let mut out = Outbox::new();
        c.handle_message(
            Msg::new(
                a(0),
                MsgBody::Request {
                    kind: AccessKind::Read,
                    requester: NodeId::new(3),
                    serial: 7,
                    style: RequestStyle::Direct,
                },
            ),
            Cycle::new(5),
            &mut out,
        );
        assert!(out.sends.is_empty(), "only the owner answers reads");
        assert_eq!(c.counters().direct_ignored, 1);
    }

    #[test]
    fn owner_answers_read_and_keeps_plain_tokens() {
        let mut c = ctrl(4, 1);
        stable_line(&mut c, a(0), TokenSet::full(3, OwnerStatus::Clean), 8);
        let mut out = Outbox::new();
        c.handle_fwd(a(0), AccessKind::Read, NodeId::new(2), 1, false, &mut out);
        match &out.sends[0].msg.body {
            MsgBody::Data { tokens, .. } => {
                assert_eq!(tokens.count(), 1);
                assert!(tokens.has_owner());
            }
            other => panic!("{other:?}"),
        }
        // Keeps two plain tokens: still a sharer.
        assert_eq!(c.cache.held(a(0)).count(), 2);
    }

    #[test]
    fn deact_window_blocks_direct_requests_but_not_forwards() {
        let mut c = ctrl(4, 1);
        // Open a window by completing a transaction.
        c.deact_windows.insert(a(0), Cycle::new(1000));
        stable_line(&mut c, a(0), TokenSet::plain(2), 0);
        let mut out = Outbox::new();
        c.handle_message(
            Msg::new(
                a(0),
                MsgBody::Request {
                    kind: AccessKind::Write,
                    requester: NodeId::new(3),
                    serial: 1,
                    style: RequestStyle::Direct,
                },
            ),
            Cycle::new(100),
            &mut out,
        );
        assert!(out.sends.is_empty(), "window blocks direct requests");
        // But a forwarded request is always served.
        let mut out = Outbox::new();
        c.handle_fwd(a(0), AccessKind::Write, NodeId::new(3), 1, false, &mut out);
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].msg.tokens().count(), 2);
    }

    #[test]
    fn stray_tokens_bounce_to_home() {
        let mut c = ctrl(4, 1);
        let mut out = Outbox::new();
        // Tokens arrive with no outstanding miss and no line.
        c.handle_message(
            Msg::new(
                a(2),
                MsgBody::Ack {
                    from: NodeId::new(3),
                    serial: 99,
                    tokens: TokenSet::plain(2),
                    activation: false,
                },
            ),
            Cycle::new(5),
            &mut out,
        );
        let put = &out.sends[0];
        assert!(matches!(put.msg.body, MsgBody::Put { .. }));
        assert_eq!(put.dests.as_single(), Some(NodeId::new(2)));
        assert_eq!(put.msg.tokens().count(), 2);
    }

    #[test]
    fn active_requester_hoards_through_forwards() {
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
        // Receive partial tokens with activation.
        let mut out = Outbox::new();
        c.handle_message(
            Msg::new(
                a(2),
                MsgBody::Ack {
                    from: NodeId::new(2),
                    serial: 0,
                    tokens: TokenSet::plain(2),
                    activation: true,
                },
            ),
            Cycle::new(10),
            &mut out,
        );
        // A lingering forward arrives: the active requester ignores it.
        let mut out = Outbox::new();
        c.handle_fwd(a(2), AccessKind::Write, NodeId::new(3), 4, false, &mut out);
        assert!(out.sends.is_empty(), "rule 6a: hoard while active");
        // A *non-active* requester would have responded (rule 6b): check
        // via a second controller.
        let mut c2 = ctrl(4, 3);
        let mut out = Outbox::new();
        c2.core_request(
            MemOp {
                addr: a(2),
                kind: AccessKind::Write,
            },
            Cycle::ZERO,
            &mut out,
        );
        let mut out = Outbox::new();
        c2.handle_message(
            Msg::new(
                a(2),
                MsgBody::Ack {
                    from: NodeId::new(2),
                    serial: 0,
                    tokens: TokenSet::plain(2),
                    activation: false,
                },
            ),
            Cycle::new(10),
            &mut out,
        );
        let mut out = Outbox::new();
        c2.handle_fwd(a(2), AccessKind::Write, NodeId::new(1), 4, false, &mut out);
        assert_eq!(out.sends.len(), 1, "rule 6b: non-active responds");
        assert_eq!(out.sends[0].msg.tokens().count(), 2);
    }

    #[test]
    fn upgrade_activation_is_standalone_when_home_has_nothing() {
        let mut home = ctrl(4, 0);
        let mut out = Outbox::new();
        // First: P1 takes everything via a write.
        home.handle_message(
            Msg::new(
                a(0),
                MsgBody::Request {
                    kind: AccessKind::Write,
                    requester: NodeId::new(1),
                    serial: 0,
                    style: RequestStyle::Indirect,
                },
            ),
            Cycle::ZERO,
            &mut out,
        );
        home.handle_message(
            Msg::new(
                a(0),
                MsgBody::Deactivate {
                    requester: NodeId::new(1),
                    serial: 0,
                    new_owner: true,
                    keeps_copy: true,
                },
            ),
            Cycle::new(10),
            &mut out,
        );
        // P2 reads: tokens flow P1 -> P2 (suppose P2 ends up a sharer).
        let mut out = Outbox::new();
        home.handle_message(
            Msg::new(
                a(0),
                MsgBody::Request {
                    kind: AccessKind::Read,
                    requester: NodeId::new(2),
                    serial: 0,
                    style: RequestStyle::Indirect,
                },
            ),
            Cycle::new(20),
            &mut out,
        );
        // Home has no tokens: standalone activation + forward to owner.
        assert!(out
            .sends
            .iter()
            .any(|s| matches!(s.msg.body, MsgBody::Activation { .. })
                && s.dests.as_single() == Some(NodeId::new(2))));
        assert!(out
            .sends
            .iter()
            .any(|s| matches!(s.msg.body, MsgBody::Fwd { .. })
                && s.dests.as_single() == Some(NodeId::new(1))));
    }

    #[test]
    fn held_tokens_reports_implicit_home_holdings() {
        let c = ctrl(4, 0);
        // Block 0 homed at P0, untouched: full holdings.
        assert_eq!(c.held_tokens(a(0)).unwrap().count(), 4);
        // Block 1 homed elsewhere: nothing held here.
        assert_eq!(c.held_tokens(a(1)).unwrap().count(), 0);
    }

    #[test]
    fn non_adaptive_direct_requests_use_normal_priority() {
        let cfg = config(4)
            .with_predictor(PredictorChoice::All)
            .non_adaptive();
        let mut c = PatchController::new(cfg, NodeId::new(1));
        let mut out = Outbox::new();
        c.core_request(
            MemOp {
                addr: a(2),
                kind: AccessKind::Read,
            },
            Cycle::ZERO,
            &mut out,
        );
        let direct = out
            .sends
            .iter()
            .find(|s| {
                matches!(
                    s.msg.body,
                    MsgBody::Request {
                        style: RequestStyle::Direct,
                        ..
                    }
                )
            })
            .expect("direct request");
        assert_eq!(direct.priority, Priority::Normal);
    }
}
