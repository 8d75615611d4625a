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
//! An evicting cache sends a PUT and keeps the evicted line as a *ghost*
//! until the home's WbAck; a core op on the block waits for the ack. PUTs
//! that arrive while the home is busy are queued like requests, so the
//! home may still forward requests to the evicting cache, and the ghost
//! answers them. **The ghost is the evicted line**: a forward takes one
//! transition whether it finds the line or its ghost — an owner answers
//! with data and becomes a sharer, anyone else acks, and an invalidation
//! removes the line (a no-op for a ghost, which is never resident). So a
//! ghost that handed ownership to a forwarded read acks the next
//! forwarded write like any sharer, and that writer collects every ack it
//! was promised. A queued PUT is applied against the home's record when
//! it reaches the head of the queue: an owner's writes memory back,
//! anyone else's only leaves the sharer set.

use patchsim_kernel::collections::FxHashMap;

use patchsim_kernel::Cycle;
use patchsim_mem::{AccessKind, BlockAddr, CacheArray, TokenSet};
use patchsim_noc::{NodeId, Priority};

use crate::common::LatencyEstimator;
use crate::config::{DIR_LATENCY, DRAM_LATENCY};
use crate::controller::{
    resume, Completion, Controller, CoreResponse, MemOp, Outbox, ProtocolCounters, ProtocolGauges,
    SpanMarks, TimerKey,
};
use crate::home::{BlockingHome, Home, Opening};
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

/// An arrival at the home that waits behind a busy block: either a request
/// or a writeback.
#[derive(Debug)]
pub(crate) enum Arrival {
    Request {
        kind: AccessKind,
        requester: NodeId,
        serial: u64,
    },
    Put {
        node: NodeId,
        version: Option<u64>,
    },
}

/// The DIRECTORY controller for one node: private cache side plus the
/// node's slice of the distributed directory/memory.
///
/// See the module-level documentation for the protocol description.
#[derive(Debug)]
pub struct DirectoryController {
    config: ProtocolConfig,
    id: NodeId,
    cache: CacheArray<DirLine>,
    demand: Option<DemandTbe>,
    /// Writeback ghosts: evicted lines whose PUT awaits its WbAck.
    wb: FxHashMap<BlockAddr, DirLine>,
    /// A core op waiting for a writeback of the same block to finish.
    deferred: Option<MemOp>,
    home: Home<u64, Arrival>,
    latency: LatencyEstimator,
    counters: ProtocolCounters,
    next_serial: u64,
}

impl DirectoryController {
    /// Creates the controller for `node`.
    pub fn new(config: ProtocolConfig, node: NodeId) -> Self {
        DirectoryController {
            cache: CacheArray::new(config.cache_geometry),
            id: node,
            demand: None,
            wb: FxHashMap::default(),
            deferred: None,
            home: Home::new(&config, node, 0),
            config,
            latency: LatencyEstimator::default(),
            counters: ProtocolCounters::default(),
            next_serial: 0,
        }
    }

    fn n(&self) -> u16 {
        self.config.num_nodes
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
        let put = MsgBody::Put {
            node: self.id,
            tokens: TokenSet::empty(),
            version: line.state.dirty().then_some(line.version),
        };
        out.send_one(self.n(), addr.home(self.n()), Msg::new(addr, put));
        let prev = self.wb.insert(addr, line);
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
            Msg::deactivate(tbe.addr, self.id, tbe.serial, true),
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
        // The live line, or else its writeback ghost: one transition for
        // both (see "Writeback races" above).
        let line = match self.cache.get_mut(addr) {
            Some(line) => Some(line),
            None => self.wb.get_mut(&addr),
        };
        let body = match line {
            Some(line) if line.state.owns() => {
                let data = MsgBody::Data {
                    from: self.id,
                    serial,
                    tokens: TokenSet::empty(),
                    version: line.version,
                    acks_expected,
                    exclusive,
                    dirty: line.state.dirty(),
                    activation: false,
                };
                // Ownership migrates to the requester; a read leaves us a
                // shared copy.
                line.state = CacheState::S;
                data
            }
            _ => {
                // A plain sharer, or a departed one (a stale invalidation,
                // possible under coarse encodings — the ack still counts):
                // only invalidations are ever forwarded to non-owners.
                assert!(invalidating, "{}: read forwarded to a non-owner", self.id);
                MsgBody::Ack {
                    from: self.id,
                    serial,
                    tokens: TokenSet::empty(),
                    activation: false,
                }
            }
        };
        out.send_one(self.n(), requester, Msg::new(addr, body));
        if invalidating {
            self.cache.remove(addr);
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
        let n = self.n();
        let Opening {
            entry,
            exclusive: upgraded,
            invalidating,
            targets,
        } = self.home.open(addr, requester, kind);
        let (owner, mem_version) = (*entry.owner, *entry.memory);
        let owner_responds = owner.is_some_and(|o| o != requester);
        let acks_expected = (targets.len() as u32).saturating_sub(u32::from(owner_responds));
        // A read of a block nobody holds is granted exclusively (E).
        let exclusive =
            upgraded || (kind == AccessKind::Read && owner.is_none() && entry.sharers.is_empty());
        self.home
            .activate(addr, requester, serial, invalidating || exclusive);

        if !targets.is_empty() {
            let fwd = MsgBody::Fwd {
                kind,
                requester,
                serial,
                acks_expected,
                exclusive: upgraded,
            };
            out.send_with(targets, Priority::Normal, DIR_LATENCY, Msg::new(addr, fwd));
        }
        if owner.is_none() {
            // Memory is the owner: supply data from DRAM.
            let data = MsgBody::Data {
                from: self.id,
                serial,
                tokens: TokenSet::empty(),
                version: mem_version,
                acks_expected,
                exclusive,
                dirty: false,
                activation: true,
            };
            let delay = DIR_LATENCY + DRAM_LATENCY;
            out.send_one_after(n, requester, delay, Msg::new(addr, data));
        } else if owner == Some(requester) {
            // Upgrade miss: the requester already has the data; tell it
            // how many acks to expect.
            let activation = MsgBody::Activation {
                serial,
                acks_expected,
                exclusive: invalidating,
            };
            out.send_one_after(n, requester, DIR_LATENCY, Msg::new(addr, activation));
        }
        // Otherwise the owner's data response (carrying acks_expected)
        // reaches the requester directly.
    }

    /// Applies a writeback at an idle home. Only the owner's PUT writes
    /// memory back; an ex-owner's data was superseded when the block
    /// moved on.
    fn process_put(
        &mut self,
        addr: BlockAddr,
        node: NodeId,
        version: Option<u64>,
        out: &mut Outbox,
    ) {
        let n = self.n();
        debug_assert_eq!(self.home.active(addr), None);
        let mut entry = self.home.entry(addr);
        if *entry.owner == Some(node) {
            if let Some(v) = version {
                *entry.memory = v;
            }
            *entry.owner = None;
        }
        entry.sharers.remove_if_exact(node);
        out.send_one_after(n, node, DIR_LATENCY, Msg::new(addr, MsgBody::WbAck));
    }
}

impl BlockingHome for DirectoryController {
    type Memory = u64;
    type Arrival = Arrival;

    fn home_mut(&mut self) -> &mut Home<u64, Arrival> {
        &mut self.home
    }

    fn serve(&mut self, addr: BlockAddr, arrival: Arrival, out: &mut Outbox) {
        match arrival {
            Arrival::Request {
                kind,
                requester,
                serial,
            } => self.activate_request(addr, kind, requester, serial, out),
            Arrival::Put { node, version } => self.process_put(addr, node, version, out),
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
                let request = Arrival::Request {
                    kind,
                    requester,
                    serial,
                };
                self.arrive(addr, request, out);
            }
            MsgBody::Put { node, version, .. } => {
                self.arrive(addr, Arrival::Put { node, version }, out);
            }
            MsgBody::Deactivate {
                requester, serial, ..
            } => {
                // DIRECTORY's requesters always take ownership.
                self.retire(addr, requester, serial, true, out);
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
            MsgBody::WbAck => {
                let removed = self.wb.remove(&addr);
                debug_assert!(removed.is_some(), "WbAck without a pending writeback");
                if let Some(op) = self.deferred.take_if(|op| op.addr == addr) {
                    resume(self, op, now, out);
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
            && self.home.is_idle()
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

    /// The home holds one record per touched block beside its sharer
    /// words: owner, migratory state, and memory's last written-back
    /// version.
    #[test]
    fn a_home_record_is_at_most_16_bytes() {
        assert!(std::mem::size_of::<crate::home::Record<u64>>() <= 16);
    }

    /// A node's cache holds one of these per resident way.
    #[test]
    fn a_dir_line_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Option<DirLine>>(), 16);
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
            let mut entry = home.home.entry(a(0));
            *entry.owner = Some(NodeId::new(1));
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
        // The ghost took the read's transition: no longer the owner, it
        // acks the next forwarded write like any sharer.
        let mut out = Outbox::new();
        c.handle_fwd(
            a(0),
            AccessKind::Write,
            NodeId::new(3),
            2,
            1,
            false,
            &mut out,
        );
        assert!(matches!(
            out.sends[0].msg.body,
            MsgBody::Ack { serial: 2, .. }
        ));
        // WbAck clears the ghost.
        let mut out = Outbox::new();
        c.handle_message(Msg::new(a(0), MsgBody::WbAck), Cycle::new(10), &mut out);
        assert!(c.is_quiescent());
    }

    #[test]
    fn a_blocked_home_is_not_quiescent_until_its_queued_put_is_served() {
        let mut home = ctrl(4, 0);
        let mut out = Outbox::new();
        let request = MsgBody::Request {
            kind: AccessKind::Write,
            requester: NodeId::new(1),
            serial: 0,
            style: RequestStyle::Indirect,
        };
        home.handle_message(Msg::new(a(0), request), Cycle::ZERO, &mut out);
        assert!(!home.is_quiescent(), "a request is active");
        // P2's writeback arrives while P1's write is active: it waits.
        let mut out = Outbox::new();
        let put = MsgBody::Put {
            node: NodeId::new(2),
            tokens: TokenSet::empty(),
            version: None,
        };
        home.handle_message(Msg::new(a(0), put), Cycle::new(5), &mut out);
        assert!(out.sends.is_empty(), "the writeback is queued, not acked");
        assert!(!home.is_quiescent());
        // Retiring P1 serves the writeback and leaves the home idle.
        let mut out = Outbox::new();
        let deactivate = MsgBody::Deactivate {
            requester: NodeId::new(1),
            serial: 0,
            new_owner: true,
        };
        home.handle_message(Msg::new(a(0), deactivate), Cycle::new(50), &mut out);
        assert_eq!(out.sends.len(), 1);
        assert!(matches!(out.sends[0].msg.body, MsgBody::WbAck));
        assert_eq!(out.sends[0].dests.as_single(), Some(NodeId::new(2)));
        assert!(home.is_quiescent());
        assert_eq!(home.gauges().home_entries, 1, "the durable entry stays");
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
        c.handle_message(Msg::new(a(0), MsgBody::WbAck), Cycle::new(10), &mut out);
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
