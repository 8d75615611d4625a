//! DIRECTORY: the blocking MOESI+F directory baseline (paper §5.1).
//!
//! Modelled on the blocking directory protocol distributed with GEMS:
//!
//! * Races are resolved without nacks by a **busy state** per block at the
//!   home; requests that arrive while a block is busy queue until the
//!   active request's deactivation ("unblock") message arrives. Arrival
//!   order at the home unambiguously orders racing requests; nothing
//!   depends on interconnect ordering.
//! * MOESI plus the F (clean-owner) state; ownership migrates to the most
//!   recent requester on both read and write misses; the home applies a
//!   migratory-sharing optimization; E blocks are not silently evicted
//!   (every eviction sends an explicit PUT and waits for an ack).
//! * Write misses complete by **counting invalidation acknowledgements**:
//!   the home multicasts the forwarded request to the owner and sharers,
//!   sharers ack directly to the requester, and the data response carries
//!   the number of acks to expect.
//!
//! How the blocking home orders, forwards and retires a request is shared
//! with PATCH and lives in `home.rs`; this file keeps DIRECTORY's *policy*
//! on top of it — the messages an activation sends, ack counting, the
//! cold-read `E` grant and queued writebacks.
//!
//! ## Writeback races
//!
//! PUTs that arrive while the home is busy are queued like requests. This
//! is deadlock-free and race-free because of a key property of the
//! blocking home: every forwarded request generated by a transaction is
//! *delivered* before that transaction's deactivation reaches the home
//! (the requester cannot deactivate without the forward's response).
//! Hence, when a queued PUT is finally processed at an idle home, no
//! forward can still be in flight toward the evicting cache — the cache
//! may safely discard its writeback state upon the ack, having answered
//! any forwards from its ghost state in the meantime.

use patchsim_kernel::collections::{fx_map_with_capacity, FxHashMap};

use patchsim_kernel::Cycle;
use patchsim_mem::{AccessKind, BlockAddr, CacheArray, TokenSet};
use patchsim_noc::NodeId;

use crate::common::{LatencyEstimator, MigratoryDetector};
use crate::controller::{
    Completion, Controller, CoreResponse, MemOp, Outbox, ProtocolCounters, ProtocolGauges,
    SpanMarks, TimerKey,
};
use crate::home::HomeEntry;
use crate::{Msg, MsgBody, ProtocolConfig, RequestStyle};

/// Stable cache states (I is represented by absence from the array).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CacheState {
    /// Modified: sole copy, dirty.
    M,
    /// Owned: dirty, other sharers may exist.
    O,
    /// Exclusive: sole copy, clean.
    E,
    /// Forward: clean owner, other sharers may exist.
    F,
    /// Shared.
    S,
}

impl CacheState {
    fn owns(self) -> bool {
        matches!(
            self,
            CacheState::M | CacheState::O | CacheState::E | CacheState::F
        )
    }
    fn dirty(self) -> bool {
        matches!(self, CacheState::M | CacheState::O)
    }
}

#[derive(Clone, Copy, Debug)]
struct DirLine {
    state: CacheState,
    version: u64,
}

/// A data grant received by an outstanding miss.
#[derive(Clone, Copy, Debug)]
struct Grant {
    version: u64,
    dirty: bool,
}

/// Transaction buffer entry for this node's (single) outstanding demand
/// miss.
#[derive(Debug)]
struct DemandTbe {
    addr: BlockAddr,
    kind: AccessKind,
    serial: u64,
    issued_at: Cycle,
    /// Set once the data response or activation tells us how many
    /// invalidation acks to expect.
    acks_expected: Option<u32>,
    acks_got: u32,
    /// Data received over the network (upgrades may instead rely on the
    /// still-resident line).
    grant: Option<Grant>,
    /// The home upgraded this read to an exclusive grant.
    exclusive: bool,
    /// Span telemetry phase timestamps (pure observation).
    marks: SpanMarks,
}

/// Ghost state held between sending a PUT and receiving its ack, so that
/// forwarded requests arriving in the window can still be answered.
#[derive(Debug)]
struct WbTbe {
    version: u64,
    state: CacheState,
}

/// A queued arrival at a busy home: either a request or a writeback.
#[derive(Debug)]
enum QueuedArrival {
    Request {
        kind: AccessKind,
        requester: NodeId,
        serial: u64,
    },
    Put {
        node: NodeId,
        version: Option<u64>,
        dirty: bool,
    },
}

/// A block's home entry; its memory is the last written-back version.
type DirHomeEntry = HomeEntry<u64, QueuedArrival>;

/// The DIRECTORY controller for one node: private cache side plus the
/// node's slice of the distributed directory/memory.
///
/// See the module-level documentation for the protocol description.
pub struct DirectoryController {
    config: ProtocolConfig,
    id: NodeId,
    cache: CacheArray<DirLine>,
    demand: Option<DemandTbe>,
    wb: FxHashMap<BlockAddr, WbTbe>,
    /// A core op waiting for a writeback of the same block to finish.
    deferred: Option<MemOp>,
    home: FxHashMap<BlockAddr, DirHomeEntry>,
    migratory: MigratoryDetector,
    latency: LatencyEstimator,
    counters: ProtocolCounters,
    next_serial: u64,
}

impl std::fmt::Debug for DirectoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirectoryController")
            .field("id", &self.id)
            .field("demand", &self.demand)
            .field("wb_pending", &self.wb.len())
            .finish()
    }
}

impl DirectoryController {
    /// Creates the controller for `node`.
    pub fn new(config: ProtocolConfig, node: NodeId) -> Self {
        let cache = CacheArray::new(config.cache_geometry);
        let home_cap = config.home_table_capacity();
        DirectoryController {
            config,
            id: node,
            cache,
            demand: None,
            wb: FxHashMap::default(),
            deferred: None,
            home: fx_map_with_capacity(home_cap),
            migratory: MigratoryDetector::with_capacity(home_cap),
            latency: LatencyEstimator::default(),
            counters: ProtocolCounters::default(),
            next_serial: 0,
        }
    }

    fn n(&self) -> u16 {
        self.config.num_nodes
    }

    fn home_entry(&mut self, addr: BlockAddr) -> &mut DirHomeEntry {
        debug_assert_eq!(addr.home(self.config.num_nodes), self.id);
        let encoding = self.config.sharer_encoding;
        let n = self.config.num_nodes;
        self.home
            .entry(addr)
            .or_insert_with(|| HomeEntry::new(n, encoding, 0))
    }

    // ------------------------------------------------------------------
    // Cache side: core requests
    // ------------------------------------------------------------------

    fn issue_miss(&mut self, op: MemOp, now: Cycle, out: &mut Outbox) {
        debug_assert!(self.demand.is_none(), "blocking core: one demand miss");
        let serial = self.next_serial;
        self.next_serial += 1;
        self.counters.misses += 1;
        self.demand = Some(DemandTbe {
            addr: op.addr,
            kind: op.kind,
            serial,
            issued_at: now,
            acks_expected: None,
            acks_got: 0,
            grant: None,
            exclusive: false,
            marks: SpanMarks::default(),
        });
        let home = op.addr.home(self.n());
        out.send_one(
            self.n(),
            home,
            Msg::request(op.addr, op.kind, self.id, serial, RequestStyle::Indirect),
        );
    }

    /// Inserts freshly granted data, evicting a victim (and starting its
    /// writeback) if needed.
    fn fill_line(&mut self, addr: BlockAddr, line: DirLine, out: &mut Outbox) {
        if let Some(existing) = self.cache.get_mut(addr) {
            *existing = line;
            return;
        }
        if let Some(victim) = self.cache.insert(addr, line) {
            self.start_writeback(victim.addr, victim.payload, out);
        }
    }

    fn start_writeback(&mut self, addr: BlockAddr, line: DirLine, out: &mut Outbox) {
        self.counters.writebacks += 1;
        let dirty = line.state.dirty();
        let home = addr.home(self.n());
        out.send_one(
            self.n(),
            home,
            Msg::new(
                addr,
                MsgBody::Put {
                    node: self.id,
                    tokens: TokenSet::empty(),
                    version: dirty.then_some(line.version),
                    dirty,
                },
            ),
        );
        let prev = self.wb.insert(
            addr,
            WbTbe {
                version: line.version,
                state: line.state,
            },
        );
        debug_assert!(prev.is_none(), "double writeback for {addr}");
    }

    /// Checks whether the outstanding demand miss can complete, and if so
    /// performs it: fills the line, reports the completion, and unblocks
    /// the home.
    fn try_complete(&mut self, now: Cycle, out: &mut Outbox) {
        let Some(tbe) = &self.demand else { return };
        let have_line = self.cache.contains(tbe.addr);
        let have_data = tbe.grant.is_some() || have_line;
        let acks_done = tbe.acks_expected == Some(tbe.acks_got);
        if !(have_data && acks_done) {
            return;
        }
        let tbe = self.demand.take().expect("checked above");
        let base = match tbe.grant {
            Some(g) => g,
            None => {
                let line = self.cache.peek(tbe.addr).expect("upgrade keeps line");
                Grant {
                    version: line.version,
                    dirty: line.state.dirty(),
                }
            }
        };
        let (state, version) = match tbe.kind {
            AccessKind::Write => (CacheState::M, base.version + 1),
            AccessKind::Read if tbe.exclusive => (
                if base.dirty {
                    CacheState::M
                } else {
                    CacheState::E
                },
                base.version,
            ),
            AccessKind::Read => (
                if base.dirty {
                    CacheState::O
                } else {
                    CacheState::F
                },
                base.version,
            ),
        };
        self.fill_line(tbe.addr, DirLine { state, version }, out);
        self.latency.record(now - tbe.issued_at);
        out.complete(Completion {
            addr: tbe.addr,
            kind: tbe.kind,
            version,
            issued_at: tbe.issued_at,
            marks: tbe.marks,
        });
        let home = tbe.addr.home(self.n());
        out.send_one(
            self.n(),
            home,
            Msg::deactivate(tbe.addr, self.id, tbe.serial, true, true),
        );
    }

    // ------------------------------------------------------------------
    // Cache side: forwarded requests
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)] // mirrors the Fwd message fields
    fn handle_fwd(
        &mut self,
        addr: BlockAddr,
        kind: AccessKind,
        requester: NodeId,
        serial: u64,
        acks_expected: u32,
        exclusive: bool,
        out: &mut Outbox,
    ) {
        let invalidating = kind.is_write() || exclusive;
        // Resolve the responding state: live line, or writeback ghost.
        let (state, version, from_ghost) = if let Some(line) = self.cache.peek(addr) {
            (Some(line.state), line.version, false)
        } else if let Some(ghost) = self.wb.get(&addr) {
            (Some(ghost.state), ghost.version, true)
        } else {
            (None, 0, false)
        };
        match state {
            Some(s) if s.owns() => {
                out.send_one(
                    self.n(),
                    requester,
                    Msg::new(
                        addr,
                        MsgBody::Data {
                            from: self.id,
                            serial,
                            tokens: TokenSet::empty(),
                            version,
                            acks_expected,
                            exclusive,
                            dirty: s.dirty(),
                            activation: false,
                        },
                    ),
                );
                if invalidating {
                    if !from_ghost {
                        self.cache.remove(addr);
                    }
                } else if !from_ghost {
                    // Read: ownership migrates to the requester; we keep a
                    // shared copy.
                    if let Some(line) = self.cache.get_mut(addr) {
                        line.state = CacheState::S;
                    }
                }
            }
            held => {
                // A plain sharer, or a departed one (a stale invalidation,
                // possible under coarse encodings — the ack still counts):
                // only invalidations are ever forwarded to non-owners.
                assert!(invalidating, "{}: read forwarded to a non-owner", self.id);
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
                if held.is_some() && !from_ghost {
                    self.cache.remove(addr);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Home side
    // ------------------------------------------------------------------

    /// Starts processing a request at an idle home: sets the busy state
    /// and emits the forward/data/activation messages.
    fn activate_request(
        &mut self,
        addr: BlockAddr,
        kind: AccessKind,
        requester: NodeId,
        serial: u64,
        out: &mut Outbox,
    ) {
        let dir_latency = self.config.dir_latency;
        let dram_latency = self.config.dram_latency;
        let migratory_opt = self.config.migratory_opt;
        let n = self.n();
        let exclusive_grant = if migratory_opt {
            self.migratory.observe(addr, requester, kind)
        } else {
            false
        };
        let entry = self.home_entry(addr);
        let invalidating = kind.is_write() || exclusive_grant;
        let owner = entry.owner;
        let targets = entry.forward_targets(n, requester, invalidating);
        let owner_responds = owner.is_some() && owner != Some(requester);
        let acks_expected = (targets.len() as u32).saturating_sub(u32::from(owner_responds));

        let exclusive = exclusive_grant
            || (kind == AccessKind::Read
                && owner.is_none()
                && targets.is_empty()
                && entry.sharers.is_empty());

        entry.activate(requester, serial, invalidating || exclusive);
        let mem_version = entry.memory;

        if !targets.is_empty() {
            let fwd_kind = kind;
            out.send_with(
                targets,
                patchsim_noc::Priority::Normal,
                dir_latency,
                Msg::new(
                    addr,
                    MsgBody::Fwd {
                        kind: fwd_kind,
                        requester,
                        serial,
                        acks_expected,
                        exclusive: exclusive_grant,
                    },
                ),
            );
        }

        if owner.is_none() {
            // Memory is the owner: supply data from DRAM.
            out.send_one_after(
                n,
                requester,
                dir_latency + dram_latency,
                Msg::new(
                    addr,
                    MsgBody::Data {
                        from: self.id,
                        serial,
                        tokens: TokenSet::empty(),
                        version: mem_version,
                        acks_expected,
                        exclusive,
                        dirty: false,
                        activation: true,
                    },
                ),
            );
        } else if owner == Some(requester) {
            // Upgrade miss: the requester already has the data; tell it
            // how many acks to expect.
            out.send_one_after(
                n,
                requester,
                dir_latency,
                Msg::new(
                    addr,
                    MsgBody::Activation {
                        serial,
                        acks_expected,
                        exclusive: exclusive_grant || kind.is_write(),
                    },
                ),
            );
        }
        // Otherwise the owner's data response (carrying acks_expected)
        // reaches the requester directly.
    }

    /// Applies a writeback at an idle home.
    fn process_put(
        &mut self,
        addr: BlockAddr,
        node: NodeId,
        version: Option<u64>,
        _dirty: bool,
        out: &mut Outbox,
    ) {
        let n = self.n();
        let dir_latency = self.config.dir_latency;
        let entry = self.home_entry(addr);
        debug_assert!(entry.busy.is_none());
        let stale = if entry.owner == Some(node) {
            // Owner writeback: absorb the data.
            if let Some(v) = version {
                entry.memory = v;
            }
            entry.owner = None;
            entry.sharers.remove_if_exact(node);
            false
        } else {
            let removed = entry.sharers.remove_if_exact(node);
            // A clean sharer PUT is fresh; a PUT from an ex-owner whose
            // block moved on is stale (its data was superseded).
            version.is_some() || !removed
        };
        out.send_one_after(
            n,
            node,
            dir_latency,
            Msg::new(addr, MsgBody::WbAck { stale }),
        );
    }

    /// Completes the busy transaction and drains the queue until it
    /// blocks on the next request.
    fn process_deactivate(
        &mut self,
        addr: BlockAddr,
        requester: NodeId,
        serial: u64,
        out: &mut Outbox,
    ) {
        // DIRECTORY's requesters always take ownership.
        self.home_entry(addr).deactivate(requester, serial, true);
        self.drain_queue(addr, out);
    }

    fn drain_queue(&mut self, addr: BlockAddr, out: &mut Outbox) {
        loop {
            let entry = self.home_entry(addr);
            if entry.busy.is_some() {
                return;
            }
            let Some(next) = entry.queue.pop_front() else {
                return;
            };
            match next {
                QueuedArrival::Put {
                    node,
                    version,
                    dirty,
                } => self.process_put(addr, node, version, dirty, out),
                QueuedArrival::Request {
                    kind,
                    requester,
                    serial,
                } => {
                    self.activate_request(addr, kind, requester, serial, out);
                    return;
                }
            }
        }
    }
}

impl Controller for DirectoryController {
    fn core_request(&mut self, op: MemOp, now: Cycle, out: &mut Outbox) -> CoreResponse {
        let _ = now;
        // A pending writeback of the same block defers the access until
        // the WbAck arrives.
        if self.wb.contains_key(&op.addr) {
            debug_assert!(self.deferred.is_none());
            self.deferred = Some(op);
            return CoreResponse::MissPending;
        }
        if let Some(line) = self.cache.get_mut(op.addr) {
            match op.kind {
                AccessKind::Read => {
                    self.counters.hits += 1;
                    return CoreResponse::Hit {
                        version: line.version,
                    };
                }
                AccessKind::Write if matches!(line.state, CacheState::M | CacheState::E) => {
                    line.state = CacheState::M;
                    line.version += 1;
                    self.counters.hits += 1;
                    return CoreResponse::Hit {
                        version: line.version,
                    };
                }
                AccessKind::Write => {} // upgrade miss
            }
        }
        self.issue_miss(op, now, out);
        CoreResponse::MissPending
    }

    fn handle_message(&mut self, msg: Msg, now: Cycle, out: &mut Outbox) {
        let addr = msg.addr;
        match msg.body {
            // ---------------- home side ----------------
            MsgBody::Request {
                kind,
                requester,
                serial,
                style,
            } => {
                debug_assert_eq!(
                    style,
                    RequestStyle::Indirect,
                    "DIRECTORY has no direct requests"
                );
                let entry = self.home_entry(addr);
                if entry.busy.is_some() {
                    entry.queue.push_back(QueuedArrival::Request {
                        kind,
                        requester,
                        serial,
                    });
                } else {
                    self.activate_request(addr, kind, requester, serial, out);
                }
            }
            MsgBody::Put {
                node,
                version,
                dirty,
                ..
            } => {
                let entry = self.home_entry(addr);
                if entry.busy.is_some() {
                    entry.queue.push_back(QueuedArrival::Put {
                        node,
                        version,
                        dirty,
                    });
                } else {
                    self.process_put(addr, node, version, dirty, out);
                }
            }
            MsgBody::Deactivate {
                requester, serial, ..
            } => {
                self.process_deactivate(addr, requester, serial, out);
            }

            // ---------------- cache side ----------------
            MsgBody::Fwd {
                kind,
                requester,
                serial,
                acks_expected,
                exclusive,
            } => {
                self.handle_fwd(addr, kind, requester, serial, acks_expected, exclusive, out);
            }
            MsgBody::Data {
                serial,
                version,
                acks_expected,
                exclusive,
                dirty,
                ..
            } => {
                let tbe = self
                    .demand
                    .as_mut()
                    .expect("data response without an outstanding miss");
                assert_eq!(tbe.addr, addr, "data for the wrong block");
                assert_eq!(tbe.serial, serial, "stale data response");
                // Span telemetry: data carries the home's ordering decision,
                // so it ends both the network and home phases. Pure data
                // writes — no protocol effect.
                tbe.marks.note_progress(now);
                tbe.marks.note_ordered(now);
                tbe.grant = Some(Grant { version, dirty });
                tbe.acks_expected = Some(acks_expected);
                tbe.exclusive |= exclusive;
                self.try_complete(now, out);
            }
            MsgBody::Ack { serial, .. } => {
                let tbe = self
                    .demand
                    .as_mut()
                    .expect("inv ack without an outstanding miss");
                assert_eq!(tbe.addr, addr);
                assert_eq!(tbe.serial, serial, "stale ack");
                // Span telemetry: the first response of any kind ends the
                // network phase.
                tbe.marks.note_progress(now);
                tbe.acks_got += 1;
                self.try_complete(now, out);
            }
            MsgBody::Activation {
                serial,
                acks_expected,
                exclusive,
            } => {
                let tbe = self
                    .demand
                    .as_mut()
                    .expect("activation without an outstanding miss");
                assert_eq!(tbe.addr, addr);
                assert_eq!(tbe.serial, serial);
                // Span telemetry: activation is the home's ordering decision
                // for this miss.
                tbe.marks.note_progress(now);
                tbe.marks.note_ordered(now);
                tbe.acks_expected = Some(acks_expected);
                tbe.exclusive |= exclusive;
                self.try_complete(now, out);
            }
            MsgBody::WbAck { .. } => {
                let removed = self.wb.remove(&addr);
                debug_assert!(removed.is_some(), "WbAck without a pending writeback");
                if let Some(op) = self.deferred.take() {
                    if op.addr == addr {
                        match self.core_request(op, now, out) {
                            CoreResponse::Hit { version } => {
                                // The block came back before the writeback
                                // ack (impossible in DIRECTORY — the line
                                // was evicted — but harmless to handle).
                                out.complete(Completion {
                                    addr: op.addr,
                                    kind: op.kind,
                                    version,
                                    issued_at: now,
                                    marks: SpanMarks::default(),
                                });
                            }
                            CoreResponse::MissPending => {}
                        }
                    } else {
                        self.deferred = Some(op);
                    }
                }
            }
            MsgBody::PersistentActivate { .. } | MsgBody::PersistentDeactivate { .. } => {
                unreachable!("persistent requests are TokenB-only")
            }
        }
    }

    fn timer_fired(&mut self, _key: TimerKey, _now: Cycle, _out: &mut Outbox) {
        unreachable!("DIRECTORY arms no timers")
    }

    fn is_quiescent(&self) -> bool {
        self.demand.is_none()
            && self.wb.is_empty()
            && self.deferred.is_none()
            && self.home.values().all(HomeEntry::is_idle)
    }

    fn held_tokens(&self, _addr: BlockAddr) -> Option<TokenSet> {
        None
    }

    fn counters(&self) -> ProtocolCounters {
        self.counters
    }

    fn gauges(&self) -> ProtocolGauges {
        ProtocolGauges {
            tbes: u64::from(self.demand.is_some()) + self.wb.len() as u64,
            home_entries: self.home.len() as u64,
            persistent_entries: 0,
        }
    }

    fn protocol_name(&self) -> &'static str {
        "Directory"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtocolKind;

    fn config(n: u16) -> ProtocolConfig {
        ProtocolConfig::new(ProtocolKind::Directory, n)
    }

    fn ctrl(n: u16, node: u16) -> DirectoryController {
        DirectoryController::new(config(n), NodeId::new(node))
    }

    fn a(n: u64) -> BlockAddr {
        BlockAddr::new(n)
    }

    /// The home table holds one entry per touched block.
    #[test]
    fn home_entry_layout_is_pinned() {
        assert!(std::mem::size_of::<DirHomeEntry>() <= 104);
    }

    #[test]
    fn read_miss_sends_indirect_request_to_home() {
        let mut c = ctrl(4, 1);
        let mut out = Outbox::new();
        let resp = c.core_request(
            MemOp {
                addr: a(2),
                kind: AccessKind::Read,
            },
            Cycle::ZERO,
            &mut out,
        );
        assert_eq!(resp, CoreResponse::MissPending);
        assert_eq!(out.sends.len(), 1);
        let send = &out.sends[0];
        assert_eq!(send.dests.as_single(), Some(NodeId::new(2))); // home of block 2 in 4 nodes
        assert!(matches!(
            send.msg.body,
            MsgBody::Request {
                kind: AccessKind::Read,
                style: RequestStyle::Indirect,
                ..
            }
        ));
        assert!(!c.is_quiescent());
    }

    #[test]
    fn home_serves_cold_read_from_memory_as_exclusive() {
        let mut home = ctrl(4, 0);
        let mut out = Outbox::new();
        home.handle_message(
            Msg::new(
                a(0),
                MsgBody::Request {
                    kind: AccessKind::Read,
                    requester: NodeId::new(3),
                    serial: 0,
                    style: RequestStyle::Indirect,
                },
            ),
            Cycle::ZERO,
            &mut out,
        );
        assert_eq!(out.sends.len(), 1);
        let send = &out.sends[0];
        // Data from memory pays directory + DRAM latency.
        assert_eq!(send.delay, 16 + 80);
        match &send.msg.body {
            MsgBody::Data {
                exclusive,
                acks_expected,
                dirty,
                ..
            } => {
                assert!(*exclusive, "no sharers: E grant");
                assert_eq!(*acks_expected, 0);
                assert!(!*dirty);
            }
            other => panic!("expected Data, got {other:?}"),
        }
    }

    #[test]
    fn requester_completes_exclusive_read_and_unblocks_home() {
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
                    from: NodeId::new(2),
                    serial: 0,
                    tokens: TokenSet::empty(),
                    version: 0,
                    acks_expected: 0,
                    exclusive: true,
                    dirty: false,
                    activation: true,
                },
            ),
            Cycle::new(100),
            &mut out,
        );
        assert_eq!(out.completions.len(), 1);
        assert_eq!(out.completions[0].version, 0);
        // Deactivate goes back to the home.
        assert!(out
            .sends
            .iter()
            .any(|s| matches!(s.msg.body, MsgBody::Deactivate { .. })));
        // Subsequent write hits silently (E -> M).
        let mut out = Outbox::new();
        let resp = c.core_request(
            MemOp {
                addr: a(2),
                kind: AccessKind::Write,
            },
            Cycle::new(200),
            &mut out,
        );
        assert_eq!(resp, CoreResponse::Hit { version: 1 });
        assert!(out.sends.is_empty(), "E->M upgrade is silent");
    }

    #[test]
    fn write_with_sharers_counts_acks() {
        let mut home = ctrl(4, 0);
        // Prime the directory: owner P1, sharers {P2, P3}.
        {
            let entry = home.home_entry(a(0));
            entry.owner = Some(NodeId::new(1));
            entry.sharers.insert(NodeId::new(2));
            entry.sharers.insert(NodeId::new(3));
        }
        let mut out = Outbox::new();
        home.handle_message(
            Msg::new(
                a(0),
                MsgBody::Request {
                    kind: AccessKind::Write,
                    requester: NodeId::new(2),
                    serial: 5,
                    style: RequestStyle::Indirect,
                },
            ),
            Cycle::ZERO,
            &mut out,
        );
        // One multicast forward to {P1 (owner), P3}; P2 is the requester.
        assert_eq!(out.sends.len(), 1);
        let send = &out.sends[0];
        assert_eq!(send.dests.len(), 2);
        assert!(send.dests.contains(NodeId::new(1)));
        assert!(send.dests.contains(NodeId::new(3)));
        match send.msg.body {
            MsgBody::Fwd { acks_expected, .. } => assert_eq!(acks_expected, 1),
            ref other => panic!("expected Fwd, got {other:?}"),
        }
    }

    #[test]
    fn owner_forward_migrates_ownership_on_read() {
        let mut c = ctrl(4, 1);
        // Give P1 a dirty block.
        c.cache.insert(
            a(0),
            DirLine {
                state: CacheState::M,
                version: 7,
            },
        );
        let mut out = Outbox::new();
        c.handle_fwd(
            a(0),
            AccessKind::Read,
            NodeId::new(3),
            9,
            0,
            false,
            &mut out,
        );
        // Responds with dirty data, becomes S.
        match &out.sends[0].msg.body {
            MsgBody::Data { dirty, version, .. } => {
                assert!(*dirty);
                assert_eq!(*version, 7);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(c.cache.peek(a(0)).unwrap().state, CacheState::S);
    }

    #[test]
    fn sharer_acks_invalidation_and_drops_line() {
        let mut c = ctrl(4, 1);
        c.cache.insert(
            a(0),
            DirLine {
                state: CacheState::S,
                version: 3,
            },
        );
        let mut out = Outbox::new();
        c.handle_fwd(
            a(0),
            AccessKind::Write,
            NodeId::new(3),
            9,
            2,
            false,
            &mut out,
        );
        assert!(matches!(out.sends[0].msg.body, MsgBody::Ack { .. }));
        assert!(!c.cache.contains(a(0)));
    }

    #[test]
    fn stale_invalidation_still_acks() {
        let mut c = ctrl(4, 1);
        let mut out = Outbox::new();
        c.handle_fwd(
            a(0),
            AccessKind::Write,
            NodeId::new(3),
            9,
            1,
            false,
            &mut out,
        );
        assert!(matches!(out.sends[0].msg.body, MsgBody::Ack { .. }));
    }

    #[test]
    fn writeback_ghost_serves_forward() {
        let mut c = ctrl(4, 1);
        c.cache.insert(
            a(0),
            DirLine {
                state: CacheState::M,
                version: 5,
            },
        );
        // Evict by inserting a conflicting block (1 set x ... use remove+start)
        let line = c.cache.remove(a(0)).unwrap();
        let mut out = Outbox::new();
        c.start_writeback(a(0), line, &mut out);
        assert!(matches!(
            out.sends[0].msg.body,
            MsgBody::Put {
                version: Some(5),
                dirty: true,
                ..
            }
        ));
        // A forward arriving during the writeback window is served from
        // the ghost.
        let mut out = Outbox::new();
        c.handle_fwd(
            a(0),
            AccessKind::Read,
            NodeId::new(2),
            1,
            0,
            false,
            &mut out,
        );
        match &out.sends[0].msg.body {
            MsgBody::Data { version, dirty, .. } => {
                assert_eq!(*version, 5);
                assert!(*dirty);
            }
            other => panic!("{other:?}"),
        }
        // WbAck clears the ghost.
        let mut out = Outbox::new();
        c.handle_message(
            Msg::new(a(0), MsgBody::WbAck { stale: true }),
            Cycle::new(10),
            &mut out,
        );
        assert!(c.is_quiescent());
    }

    #[test]
    fn home_queues_requests_while_busy() {
        let mut home = ctrl(4, 0);
        let mut out = Outbox::new();
        let req = |r: u16, serial| {
            Msg::new(
                a(0),
                MsgBody::Request {
                    kind: AccessKind::Read,
                    requester: NodeId::new(r),
                    serial,
                    style: RequestStyle::Indirect,
                },
            )
        };
        home.handle_message(req(1, 0), Cycle::ZERO, &mut out);
        let first_sends = out.sends.len();
        let mut out = Outbox::new();
        home.handle_message(req(2, 0), Cycle::ZERO, &mut out);
        assert!(out.sends.is_empty(), "second request queued");
        assert!(first_sends > 0);
        // Deactivate from P1 releases P2's request.
        let mut out = Outbox::new();
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
            Cycle::new(50),
            &mut out,
        );
        // P2's read is now active: forwarded to the new owner P1.
        assert!(
            out.sends
                .iter()
                .any(|s| matches!(s.msg.body, MsgBody::Fwd { .. })
                    && s.dests.contains(NodeId::new(1)))
        );
    }

    #[test]
    fn migratory_pattern_upgrades_reads() {
        let mut home = ctrl(4, 0);
        let mut out = Outbox::new();
        let send_req = |home: &mut DirectoryController, kind, r: u16, serial, out: &mut Outbox| {
            home.handle_message(
                Msg::new(
                    a(0),
                    MsgBody::Request {
                        kind,
                        requester: NodeId::new(r),
                        serial,
                        style: RequestStyle::Indirect,
                    },
                ),
                Cycle::ZERO,
                out,
            );
        };
        let deact = |home: &mut DirectoryController, r: u16, serial, out: &mut Outbox| {
            home.handle_message(
                Msg::new(
                    a(0),
                    MsgBody::Deactivate {
                        requester: NodeId::new(r),
                        serial,
                        new_owner: true,
                        keeps_copy: true,
                    },
                ),
                Cycle::ZERO,
                out,
            );
        };
        // P1: read then write (trains the detector).
        send_req(&mut home, AccessKind::Read, 1, 0, &mut out);
        deact(&mut home, 1, 0, &mut out);
        send_req(&mut home, AccessKind::Write, 1, 1, &mut out);
        deact(&mut home, 1, 1, &mut out);
        // P2's read should now be an exclusive grant: the forward to P1
        // carries the exclusive bit.
        let mut out = Outbox::new();
        send_req(&mut home, AccessKind::Read, 2, 0, &mut out);
        let fwd = out
            .sends
            .iter()
            .find(|s| matches!(s.msg.body, MsgBody::Fwd { .. }))
            .expect("forward to owner");
        assert!(matches!(
            fwd.msg.body,
            MsgBody::Fwd {
                exclusive: true,
                ..
            }
        ));
    }

    #[test]
    fn deferred_op_reissues_after_wbck() {
        let mut c = ctrl(4, 1);
        c.cache.insert(
            a(0),
            DirLine {
                state: CacheState::S,
                version: 0,
            },
        );
        let line = c.cache.remove(a(0)).unwrap();
        let mut out = Outbox::new();
        c.start_writeback(a(0), line, &mut out);
        // Core re-touches the block mid-writeback: deferred.
        let mut out = Outbox::new();
        let resp = c.core_request(
            MemOp {
                addr: a(0),
                kind: AccessKind::Read,
            },
            Cycle::ZERO,
            &mut out,
        );
        assert_eq!(resp, CoreResponse::MissPending);
        assert!(out.sends.is_empty(), "no request until WbAck");
        // WbAck releases the deferred miss.
        let mut out = Outbox::new();
        c.handle_message(
            Msg::new(a(0), MsgBody::WbAck { stale: false }),
            Cycle::new(10),
            &mut out,
        );
        assert!(out
            .sends
            .iter()
            .any(|s| matches!(s.msg.body, MsgBody::Request { .. })));
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let mut c = ctrl(4, 1);
        c.cache.insert(
            a(0),
            DirLine {
                state: CacheState::E,
                version: 0,
            },
        );
        let mut out = Outbox::new();
        c.core_request(
            MemOp {
                addr: a(0),
                kind: AccessKind::Read,
            },
            Cycle::ZERO,
            &mut out,
        );
        c.core_request(
            MemOp {
                addr: a(1),
                kind: AccessKind::Read,
            },
            Cycle::ZERO,
            &mut out,
        );
        assert_eq!(c.counters().hits, 1);
        assert_eq!(c.counters().misses, 1);
    }
}
