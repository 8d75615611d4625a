//! The blocking home (paper §5.1) under DIRECTORY and PATCH.
//!
//! Ordering in both protocols rests on one state machine per block at its
//! home: an idle home *activates* the first request to arrive, forwards it
//! to the caches the directory implicates, queues whatever arrives
//! meanwhile, and retires the request when the requester's *deactivation*
//! reports back. PATCH is this directory with token counting patched on
//! (§5.2), so the rules live here once. Which messages an activation sends,
//! their delays, ack counts, grants and what may queue are *policy* and
//! stay in `directory.rs` and `patch.rs`.
//!
//! A block's state is split by lifetime. Its [`HomeEntry`] — owner,
//! sharers, memory and migratory-sharing state — outlives every request
//! and stays for the run. The active request and the arrivals waiting
//! behind it exist only while the block is blocked, so they live in a
//! second table that holds a record per blocked block and is empty
//! whenever the home is idle.

use std::collections::VecDeque;

use patchsim_kernel::collections::FxHashMap;
use patchsim_mem::{AccessKind, BlockAddr, SharerEncoding, SharerSet};
use patchsim_noc::{DestSet, NodeId};

use crate::common::Sharing;
use crate::{Outbox, ProtocolConfig};

/// One block's durable directory state at its home. `M` is what the
/// protocol keeps for memory's copy.
#[derive(Debug)]
pub(crate) struct HomeEntry<M> {
    /// The cache responsible for supplying data; `None` means memory.
    /// Always exact, whatever the sharer encoding.
    pub owner: Option<NodeId>,
    /// A superset of the other caches that may hold a copy.
    pub sharers: SharerSet,
    pub memory: M,
    /// Migratory-sharing state, kept by [`Home::open`].
    sharing: Sharing,
}

/// A request the home is activating: its block's entry and what the
/// prologue every policy shares decided (see [`Home::open`]).
pub(crate) struct Opening<'a, M> {
    pub entry: &'a mut HomeEntry<M>,
    /// A read upgraded to an exclusive grant by the migratory optimisation.
    pub exclusive: bool,
    /// A write or an upgraded read: every other copy goes.
    pub invalidating: bool,
    /// Whom the request is forwarded to: the owner (for data) plus, when
    /// `invalidating`, every — possibly stale — sharer. The requester never
    /// receives its own forward.
    pub targets: DestSet,
}

/// The request a busy home is serving.
#[derive(Debug)]
struct Busy {
    requester: NodeId,
    serial: u64,
    /// The requester ends up the block's only holder (a write, or a read
    /// granted exclusively), which resets the sharer set on deactivation.
    sole_holder: bool,
}

/// A blocked block's transient state. `Q` is what the protocol queues.
#[derive(Debug)]
struct Blocked<Q> {
    /// `None` only while [`BlockingHome::retire`] serves the waiters.
    active: Option<Busy>,
    waiting: VecDeque<Q>,
}

/// One node's slice of the blocking home: a durable entry per touched
/// block, and a transient record per blocked one.
#[derive(Debug)]
pub(crate) struct Home<M, Q> {
    /// Starts empty and gains an entry the first time a request reaches
    /// its block, so a home costs what a run touches of its slice.
    entries: FxHashMap<BlockAddr, HomeEntry<M>>,
    /// Starts empty and holds a record only while a request is active on
    /// its block or arrivals wait behind one; its capacity, once grown,
    /// is reused, so an uncontended request allocates nothing.
    blocked: FxHashMap<BlockAddr, Blocked<Q>>,
    node: NodeId,
    num_nodes: u16,
    encoding: SharerEncoding,
    /// Memory's state for a block nobody has touched.
    untouched: M,
}

impl<M: Copy, Q> Home<M, Q> {
    /// `node`'s home, every block of it untouched: owned by memory, whose
    /// state is `untouched`, with no sharers, and idle.
    pub fn new(config: &ProtocolConfig, node: NodeId, untouched: M) -> Self {
        Home {
            entries: FxHashMap::default(),
            blocked: FxHashMap::default(),
            node,
            num_nodes: config.num_nodes,
            encoding: config.sharer_encoding,
            untouched,
        }
    }

    /// `addr`'s entry, created untouched on first use.
    pub fn entry(&mut self, addr: BlockAddr) -> &mut HomeEntry<M> {
        debug_assert_eq!(addr.home(self.num_nodes), self.node);
        let (n, encoding, memory) = (self.num_nodes, self.encoding, self.untouched);
        self.entries.entry(addr).or_insert_with(|| HomeEntry {
            owner: None,
            sharers: SharerSet::new(n, encoding),
            memory,
            sharing: Sharing::Untouched,
        })
    }

    /// Opens `requester`'s `kind` request on the idle block `addr`: records
    /// it in the block's migratory state and says whom to forward to. The
    /// policy then sends its messages and calls
    /// [`activate`](Self::activate).
    pub fn open(&mut self, addr: BlockAddr, requester: NodeId, kind: AccessKind) -> Opening<'_, M> {
        let n = self.num_nodes;
        let entry = self.entry(addr);
        let exclusive = entry.sharing.observe(requester, kind);
        let invalidating = kind.is_write() || exclusive;
        let mut targets = if invalidating {
            entry.sharers.members()
        } else {
            DestSet::empty(n)
        };
        if let Some(owner) = entry.owner {
            targets.insert(owner);
        }
        targets.remove(requester);
        Opening {
            entry,
            exclusive,
            invalidating,
            targets,
        }
    }

    /// Memory's state for `addr`, touched or not.
    pub fn memory(&self, addr: BlockAddr) -> M {
        self.entries.get(&addr).map_or(self.untouched, |e| e.memory)
    }

    /// Blocks with a durable entry.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// No request is active on any block and none is waiting.
    pub fn is_idle(&self) -> bool {
        self.blocked.is_empty()
    }

    /// The requester and serial of the request active on `addr`, if any.
    pub fn active(&self, addr: BlockAddr) -> Option<(NodeId, u64)> {
        let busy = self.blocked.get(&addr)?.active.as_ref()?;
        Some((busy.requester, busy.serial))
    }

    /// Makes `requester` the active request on the idle block `addr`;
    /// everything else now waits for its deactivation. `sole_holder`: the
    /// requester ends up the block's only holder.
    pub fn activate(&mut self, addr: BlockAddr, requester: NodeId, serial: u64, sole_holder: bool) {
        let record = self.blocked.entry(addr).or_insert_with(|| Blocked {
            active: None,
            waiting: VecDeque::new(),
        });
        debug_assert!(record.active.is_none(), "activate at busy home");
        record.active = Some(Busy {
            requester,
            serial,
            sole_holder,
        });
    }

    /// Hands `arrival` back when `addr` is idle, or queues it behind the
    /// active request.
    fn admit(&mut self, addr: BlockAddr, arrival: Q) -> Option<Q> {
        match self.blocked.get_mut(&addr) {
            Some(record) => {
                record.waiting.push_back(arrival);
                None
            }
            None => Some(arrival),
        }
    }

    /// Retires the active request and records where the block now lives.
    /// `new_owner` is whether the requester took ownership; when it did not,
    /// it still holds a copy and is tracked as a sharer.
    ///
    /// # Panics
    ///
    /// Panics unless `(requester, serial)` is the active request.
    fn deactivate(&mut self, addr: BlockAddr, requester: NodeId, serial: u64, new_owner: bool) {
        let busy = self.blocked.get_mut(&addr).and_then(|r| r.active.take());
        let busy = busy.expect("deactivate at idle home");
        assert_eq!(busy.requester, requester, "deactivate from wrong node");
        assert_eq!(busy.serial, serial, "deactivate serial mismatch");
        let entry = self.entry(addr);
        if busy.sole_holder {
            entry.sharers.clear();
            entry.owner = Some(requester);
            return;
        }
        // The owner cannot change while a request is active (writebacks
        // queue or are redirected), so this is the owner at activation.
        let old_owner = entry.owner;
        if new_owner {
            entry.owner = Some(requester);
        } else {
            entry.sharers.insert(requester);
        }
        // A previous owner that lost ownership keeps a shared copy.
        if let Some(old) = old_owner {
            if old != requester && entry.owner != Some(old) {
                entry.sharers.insert(old);
            }
        }
    }

    /// The oldest arrival waiting on `addr` once no request is active on
    /// it; the record goes when none is left.
    fn next_waiter(&mut self, addr: BlockAddr) -> Option<Q> {
        let record = self.blocked.get_mut(&addr)?;
        if record.active.is_some() {
            return None;
        }
        let next = record.waiting.pop_front();
        if record.waiting.is_empty() {
            self.blocked.remove(&addr);
        }
        next
    }
}

/// A protocol whose home blocks: a controller that keeps a [`Home`] and
/// says how an arrival is served at an idle block gets the rest — queueing
/// behind a busy block, retirement and the replay of the queue.
pub(crate) trait BlockingHome {
    /// Memory's state per block.
    type Memory: Copy;
    /// What may wait behind a busy block.
    type Arrival;

    /// The controller's home.
    fn home_mut(&mut self) -> &mut Home<Self::Memory, Self::Arrival>;

    /// Serves `arrival` at the idle block `addr`: a request activates
    /// (through [`Home::activate`]); anything else applies at once.
    fn serve(&mut self, addr: BlockAddr, arrival: Self::Arrival, out: &mut Outbox);

    /// Serves `arrival` if `addr` is idle, else queues it behind the
    /// active request.
    fn arrive(&mut self, addr: BlockAddr, arrival: Self::Arrival, out: &mut Outbox) {
        if let Some(arrival) = self.home_mut().admit(addr, arrival) {
            self.serve(addr, arrival, out);
        }
    }

    /// Retires the active request on `addr` (see [`Home::deactivate`]),
    /// then serves the waiting arrivals in order until one activates or
    /// none is left, when the block's record goes.
    fn retire(
        &mut self,
        addr: BlockAddr,
        requester: NodeId,
        serial: u64,
        new_owner: bool,
        out: &mut Outbox,
    ) {
        self.home_mut()
            .deactivate(addr, requester, serial, new_owner);
        while let Some(arrival) = self.home_mut().next_waiter(addr) {
            self.serve(addr, arrival, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtocolKind;

    const N: u16 = 16;
    /// Block 0, homed at P0.
    const A: BlockAddr = BlockAddr::new(0);

    fn node(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Arrival {
        /// `(requester, serial, sole_holder)`.
        Request(u16, u64, bool),
        Put(u16),
    }

    /// The thinnest policy over the home: requests activate, writebacks
    /// apply at once, and every served arrival is logged.
    struct Policy {
        home: Home<(), Arrival>,
        served: Vec<Arrival>,
    }

    impl BlockingHome for Policy {
        type Memory = ();
        type Arrival = Arrival;

        fn home_mut(&mut self) -> &mut Home<(), Arrival> {
            &mut self.home
        }

        fn serve(&mut self, addr: BlockAddr, arrival: Arrival, _out: &mut Outbox) {
            self.served.push(arrival);
            if let Arrival::Request(r, serial, sole) = arrival {
                self.home.activate(addr, node(r), serial, sole);
            }
        }
    }

    impl Policy {
        fn request(&mut self, r: u16, serial: u64, sole_holder: bool) {
            let request = Arrival::Request(r, serial, sole_holder);
            self.arrive(A, request, &mut Outbox::new());
        }

        fn put(&mut self, r: u16) {
            self.arrive(A, Arrival::Put(r), &mut Outbox::new());
        }

        fn deactivate(&mut self, r: u16, serial: u64, new_owner: bool) {
            self.retire(A, node(r), serial, new_owner, &mut Outbox::new());
        }

        fn entry(&mut self) -> &mut HomeEntry<()> {
            self.home.entry(A)
        }

        fn records(&self) -> usize {
            self.home.blocked.len()
        }
    }

    /// A home whose block `A` is owned by P1 with sharers P2 and P3.
    fn shared(encoding: SharerEncoding) -> Policy {
        let config = ProtocolConfig::new(ProtocolKind::Directory, N).with_sharer_encoding(encoding);
        let mut p = Policy {
            home: Home::new(&config, A.home(N), ()),
            served: Vec::new(),
        };
        let e = p.entry();
        e.owner = Some(node(1));
        e.sharers.insert(node(2));
        e.sharers.insert(node(3));
        p
    }

    fn targets(p: &mut Policy, requester: u16, invalidating: bool) -> Vec<u16> {
        let kind = if invalidating {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let set = p.home.open(A, node(requester), kind).targets;
        set.iter().map(|n| n.raw()).collect()
    }

    /// A home costs what a run touches of it: no working-set hint, however
    /// large, reserves entries up front.
    #[test]
    fn a_new_home_reserves_no_entries() {
        let mut config = ProtocolConfig::new(ProtocolKind::Patch, N);
        config.working_set_hint = Some(1 << 20);
        let home: Home<(), Arrival> = Home::new(&config, A.home(N), ());
        assert_eq!(home.entries.capacity(), 0);
    }

    #[test]
    fn a_read_is_forwarded_to_the_owner_only() {
        let mut p = shared(SharerEncoding::FullMap);
        assert_eq!(targets(&mut p, 5, false), [1]);
    }

    #[test]
    fn an_invalidating_request_is_forwarded_to_owner_and_sharers() {
        let mut p = shared(SharerEncoding::FullMap);
        assert_eq!(targets(&mut p, 5, true), [1, 2, 3]);
    }

    #[test]
    fn the_requester_never_receives_its_own_forward() {
        let mut p = shared(SharerEncoding::FullMap);
        assert_eq!(targets(&mut p, 2, true), [1, 3]);
        assert_eq!(targets(&mut p, 1, false), [0u16; 0]);
    }

    #[test]
    fn an_owner_upgrade_is_forwarded_to_the_sharers_alone() {
        let mut p = shared(SharerEncoding::FullMap);
        assert_eq!(targets(&mut p, 1, true), [2, 3]);
    }

    #[test]
    fn inexact_encodings_forward_to_the_whole_implicated_superset() {
        let mut coarse = shared(SharerEncoding::Coarse { cores_per_bit: 4 });
        assert_eq!(targets(&mut coarse, 5, true), [0, 1, 2, 3]);
        assert_eq!(targets(&mut coarse, 5, false), [1], "the owner stays exact");
        let mut overflowed = shared(SharerEncoding::LimitedPointer { pointers: 1 });
        let everyone_else: Vec<u16> = (0..N).filter(|&n| n != 5).collect();
        assert_eq!(targets(&mut overflowed, 5, true), everyone_else);
    }

    #[test]
    fn a_migratory_read_opens_exclusive_and_invalidating() {
        let mut p = shared(SharerEncoding::FullMap);
        assert!(!p.home.open(A, node(5), AccessKind::Read).exclusive);
        assert!(!p.home.open(A, node(5), AccessKind::Write).exclusive);
        let read = p.home.open(A, node(6), AccessKind::Read);
        assert!(read.exclusive);
        assert!(read.invalidating);
        let targets: Vec<u16> = read.targets.iter().map(|n| n.raw()).collect();
        assert_eq!(targets, [1, 2, 3]);
    }

    #[test]
    fn a_sole_holder_clears_the_sharers_and_owns() {
        let mut p = shared(SharerEncoding::FullMap);
        p.request(5, 7, true);
        assert!(!p.home.is_idle());
        // Even a requester that reports no owner token is the only holder.
        p.deactivate(5, 7, false);
        assert!(p.home.is_idle());
        assert_eq!(p.entry().owner, Some(node(5)));
        assert!(p.entry().sharers.is_empty());
    }

    #[test]
    fn a_read_that_takes_ownership_keeps_the_old_owner_as_a_sharer() {
        let mut p = shared(SharerEncoding::FullMap);
        p.request(5, 7, false);
        p.deactivate(5, 7, true);
        assert_eq!(p.entry().owner, Some(node(5)));
        assert_eq!(targets(&mut p, 9, true), [1, 2, 3, 5]);
        let sharers = &p.entry().sharers;
        assert!(!sharers.may_contain(node(5)), "the owner is not a sharer");
    }

    #[test]
    fn a_read_that_leaves_ownership_alone_adds_the_requester_as_a_sharer() {
        let mut p = shared(SharerEncoding::FullMap);
        p.request(5, 7, false);
        p.deactivate(5, 7, false);
        assert_eq!(p.entry().owner, Some(node(1)));
        assert!(p.entry().sharers.may_contain(node(5)));
        assert!(
            !p.entry().sharers.may_contain(node(1)),
            "the owner that kept ownership is not listed as a sharer too"
        );
    }

    #[test]
    #[should_panic(expected = "deactivate from wrong node")]
    fn deactivation_from_the_wrong_requester_panics() {
        let mut p = shared(SharerEncoding::FullMap);
        p.request(5, 7, false);
        p.deactivate(6, 7, true);
    }

    #[test]
    #[should_panic(expected = "deactivate serial mismatch")]
    fn deactivation_with_the_wrong_serial_panics() {
        let mut p = shared(SharerEncoding::FullMap);
        p.request(5, 7, false);
        p.deactivate(5, 8, true);
    }

    #[test]
    #[should_panic(expected = "deactivate at idle home")]
    fn deactivation_at_an_idle_home_panics() {
        shared(SharerEncoding::FullMap).deactivate(5, 7, true);
    }

    #[test]
    fn the_record_appears_at_activation() {
        let mut p = shared(SharerEncoding::FullMap);
        assert_eq!(p.records(), 0, "the blocked table starts empty");
        assert_eq!(p.home.active(A), None);
        p.request(5, 7, false);
        assert_eq!(p.records(), 1);
        assert_eq!(p.home.active(A), Some((node(5), 7)));
        assert_eq!(p.served, [Arrival::Request(5, 7, false)]);
    }

    #[test]
    fn the_record_survives_while_arrivals_wait() {
        let mut p = shared(SharerEncoding::FullMap);
        p.request(5, 7, false);
        // A writeback behind the busy block waits, as does a request.
        p.put(1);
        p.request(6, 3, false);
        assert_eq!(p.served.len(), 1, "both arrivals queued");
        assert_eq!(p.records(), 1);
        assert!(!p.home.is_idle());
        // Retiring P5 applies the writeback at once, then activates P6.
        p.deactivate(5, 7, true);
        assert_eq!(
            p.served[1..],
            [Arrival::Put(1), Arrival::Request(6, 3, false)]
        );
        assert_eq!(p.home.active(A), Some((node(6), 3)));
        assert_eq!(p.records(), 1);
    }

    #[test]
    fn a_writeback_queued_last_leaves_the_home_idle() {
        let mut p = shared(SharerEncoding::FullMap);
        p.request(5, 7, false);
        p.put(1);
        assert!(!p.home.is_idle(), "a waiting writeback blocks the home");
        p.deactivate(5, 7, true);
        assert_eq!(p.served[1..], [Arrival::Put(1)]);
        assert_eq!(p.home.active(A), None);
        assert!(p.home.is_idle());
    }

    #[test]
    fn retirement_hands_the_block_to_the_next_queued_request() {
        let mut p = shared(SharerEncoding::FullMap);
        p.request(5, 7, true);
        p.request(6, 0, false);
        p.request(8, 2, true);
        p.deactivate(5, 7, false);
        assert_eq!(
            p.home.active(A),
            Some((node(6), 0)),
            "served in arrival order"
        );
        assert_eq!(p.served.len(), 2, "P8 still waits");
        p.deactivate(6, 0, true);
        assert_eq!(p.home.active(A), Some((node(8), 2)));
        // Each retirement recorded where the block went.
        assert_eq!(p.entry().owner, Some(node(6)));
        assert!(p.entry().sharers.may_contain(node(5)));
    }

    #[test]
    fn the_record_is_gone_after_the_last_retirement() {
        let mut p = shared(SharerEncoding::FullMap);
        p.request(5, 7, false);
        p.request(6, 0, false);
        p.deactivate(5, 7, true);
        assert_eq!(p.records(), 1);
        p.deactivate(6, 0, true);
        assert_eq!(p.records(), 0);
        assert!(p.home.is_idle());
        // The durable entry stays for the run.
        assert_eq!(p.home.len(), 1);
        assert_eq!(p.entry().owner, Some(node(6)));
    }
}
