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
//! A block's state is split by lifetime. Its durable entry — owner,
//! sharers, memory and migratory-sharing state — outlives every request
//! and stays for the run. The active request and the arrivals waiting
//! behind it exist only while the block is blocked, so they live in a
//! second table that holds a record per blocked block and is empty
//! whenever the home is idle.
//!
//! The durable entries are laid out like a cache's lines: an index maps
//! each touched block to a dense slot, handed out in first-touch order,
//! and two [`Chunked`] arrays hold per slot a [`Record`] (owner, migratory
//! state, memory) and the sharer set's bit words, as many per block as the
//! system's encoding needs. A [`HomeEntry`] borrows one slot of each.

use std::collections::VecDeque;

use patchsim_kernel::collections::FxHashMap;
use patchsim_mem::{AccessKind, BlockAddr, Chunked, SharerEncoding, SharerSet};
use patchsim_noc::{DestSet, NodeId};

use crate::common::Sharing;
use crate::{Outbox, ProtocolConfig};

/// What a home stores per touched block besides its sharers. `M` is what
/// the protocol keeps for memory's copy.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Record<M> {
    owner: Option<NodeId>,
    sharing: Sharing,
    memory: M,
}

/// One block's durable directory state at its home, borrowed from the
/// home's tables.
#[derive(Debug)]
pub(crate) struct HomeEntry<'a, M> {
    /// The cache responsible for supplying data; `None` means memory.
    /// Always exact, whatever the sharer encoding.
    pub owner: &'a mut Option<NodeId>,
    /// A superset of the other caches that may hold a copy.
    pub sharers: SharerSet<&'a mut [u64]>,
    pub memory: &'a mut M,
}

/// A request the home is activating: its block's entry and what the
/// prologue every policy shares decided (see [`Home::open`]).
pub(crate) struct Opening<'a, M> {
    pub entry: HomeEntry<'a, M>,
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
    /// Each touched block's slot in `records` and `sharers`. Starts empty
    /// and gains a block the first time a request reaches it, so a home
    /// costs what a run touches of its slice. Blocks never leave, so slot
    /// `i` is the `i`-th block touched and no slot is ever free.
    slots: FxHashMap<BlockAddr, u32>,
    /// Per slot, one record.
    records: Chunked<Record<M>>,
    /// Per slot, the block's sharer set: `encoding.words(num_nodes)` words.
    sharers: Chunked<u64>,
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

impl<M: Copy + Default, Q> Home<M, Q> {
    /// `node`'s home, every block of it untouched: owned by memory, whose
    /// state is `untouched`, with no sharers, and idle.
    pub fn new(config: &ProtocolConfig, node: NodeId, untouched: M) -> Self {
        let (num_nodes, encoding) = (config.num_nodes, config.sharer_encoding);
        Home {
            slots: FxHashMap::default(),
            records: Chunked::new(1),
            sharers: Chunked::new(encoding.words(num_nodes)),
            blocked: FxHashMap::default(),
            node,
            num_nodes,
            encoding,
            untouched,
        }
    }

    /// `addr`'s slot, handed out untouched on first use.
    fn slot(&mut self, addr: BlockAddr) -> usize {
        debug_assert_eq!(addr.home(self.num_nodes), self.node);
        let next = self.slots.len();
        let slot = *self
            .slots
            .entry(addr)
            .or_insert_with(|| u32::try_from(next).expect("a home holds at most 2^32 blocks"))
            as usize;
        if slot == next {
            self.records.touch(slot)[0] = Record {
                owner: None,
                sharing: Sharing::Untouched,
                memory: self.untouched,
            };
            self.sharers.touch(slot);
        }
        slot
    }

    /// The entry in `slot`.
    fn entry_at(&mut self, slot: usize) -> HomeEntry<'_, M> {
        let record = &mut self.records[slot][0];
        HomeEntry {
            owner: &mut record.owner,
            sharers: SharerSet::new(self.num_nodes, self.encoding, &mut self.sharers[slot]),
            memory: &mut record.memory,
        }
    }

    /// `addr`'s entry, created untouched on first use.
    pub fn entry(&mut self, addr: BlockAddr) -> HomeEntry<'_, M> {
        let slot = self.slot(addr);
        self.entry_at(slot)
    }

    /// Opens `requester`'s `kind` request on the idle block `addr`: records
    /// it in the block's migratory state and says whom to forward to. The
    /// policy then sends its messages and calls
    /// [`activate`](Self::activate).
    pub fn open(&mut self, addr: BlockAddr, requester: NodeId, kind: AccessKind) -> Opening<'_, M> {
        let n = self.num_nodes;
        let slot = self.slot(addr);
        let exclusive = self.records[slot][0].sharing.observe(requester, kind);
        let invalidating = kind.is_write() || exclusive;
        let entry = self.entry_at(slot);
        let mut targets = if invalidating {
            entry.sharers.members()
        } else {
            DestSet::empty(n)
        };
        if let Some(owner) = *entry.owner {
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
        let slot = self.slots.get(&addr);
        slot.map_or(self.untouched, |&slot| {
            self.records[slot as usize][0].memory
        })
    }

    /// Blocks with a durable entry.
    pub fn len(&self) -> usize {
        self.slots.len()
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
        let mut entry = self.entry(addr);
        if busy.sole_holder {
            entry.sharers.clear();
            *entry.owner = Some(requester);
            return;
        }
        // The owner cannot change while a request is active (writebacks
        // queue or are redirected), so this is the owner at activation.
        let old_owner = *entry.owner;
        if new_owner {
            *entry.owner = Some(requester);
        } else {
            entry.sharers.insert(requester);
        }
        // A previous owner that lost ownership keeps a shared copy.
        if let Some(old) = old_owner {
            if old != requester && *entry.owner != Some(old) {
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
    type Memory: Copy + Default;
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
    use std::collections::{BTreeMap, BTreeSet};

    use patchsim_kernel::SimRng;
    use patchsim_mem::TokenSet;

    use super::*;
    use crate::tokens::Memory;
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

        fn entry(&mut self) -> HomeEntry<'_, ()> {
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
        let mut e = p.entry();
        *e.owner = Some(node(1));
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
    /// large, reserves entries up front; `k` touched blocks hold records
    /// for `k` rounded up to a whole chunk of 64; and a block's sharer
    /// words sit in its chunk beside its neighbours', 8 of them per block
    /// for a 512-node full map, with nothing allocated per block.
    #[test]
    fn a_home_costs_what_it_holds() {
        let mut config = ProtocolConfig::new(ProtocolKind::Patch, N);
        config.working_set_hint = Some(1 << 20);
        let mut home: Home<(), Arrival> = Home::new(&config, A.home(N), ());
        let allocated = |h: &Home<(), Arrival>| {
            let records = h.records.allocated();
            assert_eq!(
                h.sharers.allocated(),
                records,
                "one sharer record per record"
            );
            records
        };
        assert_eq!((home.slots.capacity(), allocated(&home)), (0, 0));
        for k in 1..=130 {
            home.entry(BlockAddr::new(k * u64::from(N)));
            assert_eq!(home.len(), k as usize);
            assert_eq!(allocated(&home), (k as usize).div_ceil(64) * 64);
        }
        // Touching a block again, or reading an untouched block's memory,
        // adds nothing.
        home.entry(BlockAddr::new(u64::from(N)));
        home.memory(BlockAddr::new(1000 * u64::from(N)));
        assert_eq!((home.len(), allocated(&home)), (130, 192));

        let config = ProtocolConfig::new(ProtocolKind::Directory, 512);
        let mut home: Home<u64, Arrival> = Home::new(&config, node(0), 0);
        for k in 0..3 {
            home.entry(BlockAddr::new(k * 512))
                .sharers
                .insert(node(511));
        }
        let first = home.sharers[0].as_ptr();
        for slot in 0..3 {
            let words = &home.sharers[slot];
            assert_eq!(words.len(), 8);
            assert_eq!(words[7], 1 << 63, "P511's bit");
            assert_eq!(words.as_ptr(), first.wrapping_add(8 * slot), "contiguous");
        }
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
        assert_eq!(*p.entry().owner, Some(node(5)));
        assert!(p.entry().sharers.is_empty());
    }

    #[test]
    fn a_read_that_takes_ownership_keeps_the_old_owner_as_a_sharer() {
        let mut p = shared(SharerEncoding::FullMap);
        p.request(5, 7, false);
        p.deactivate(5, 7, true);
        assert_eq!(*p.entry().owner, Some(node(5)));
        assert_eq!(targets(&mut p, 9, true), [1, 2, 3, 5]);
        let sharers = p.entry().sharers;
        assert!(!sharers.may_contain(node(5)), "the owner is not a sharer");
    }

    #[test]
    fn a_read_that_leaves_ownership_alone_adds_the_requester_as_a_sharer() {
        let mut p = shared(SharerEncoding::FullMap);
        p.request(5, 7, false);
        p.deactivate(5, 7, false);
        assert_eq!(*p.entry().owner, Some(node(1)));
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
        assert_eq!(*p.entry().owner, Some(node(6)));
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
        assert_eq!(*p.entry().owner, Some(node(6)));
    }

    /// What the home's storage must agree with: a block's durable state
    /// kept whole per block, its sharers as the nodes recorded since the
    /// last reset and an overflow flag.
    #[derive(Clone, Debug)]
    struct Reference<M> {
        owner: Option<NodeId>,
        sharing: Sharing,
        memory: M,
        nodes: BTreeSet<u16>,
        overflowed: bool,
    }

    impl<M> Reference<M> {
        fn insert(&mut self, node: NodeId, encoding: SharerEncoding) -> bool {
            if self.overflowed || self.nodes.contains(&node.raw()) {
                return false;
            }
            if let SharerEncoding::LimitedPointer { pointers } = encoding {
                if self.nodes.len() == pointers as usize {
                    self.nodes.clear();
                    self.overflowed = true;
                    return true;
                }
            }
            self.nodes.insert(node.raw());
            false
        }

        fn remove_if_exact(&mut self, node: NodeId, encoding: SharerEncoding) -> bool {
            encoding.cores_per_bit() == 1 && !self.overflowed && self.nodes.remove(&node.raw())
        }

        /// The nodes a forward must reach: everyone after an overflow,
        /// each recorded node's whole group otherwise.
        fn members(&self, n: u16, encoding: SharerEncoding) -> BTreeSet<u16> {
            if self.overflowed {
                return (0..n).collect();
            }
            let k = encoding.cores_per_bit();
            let group = |&node: &u16| node / k * k..(node / k * k + k).min(n);
            self.nodes.iter().flat_map(group).collect()
        }
    }

    /// Vacuity counts for [`drive_against_reference`].
    #[derive(Default)]
    struct Tally {
        overflows: u32,
        exact_removals: u32,
        upgrades: u32,
        chunks: usize,
    }

    /// Drives a `Home` through a seeded mix of opens, activations,
    /// retirements and `Put`-style writebacks at 16, 128 and 512 nodes
    /// under a full map, `Coarse{4}` and `LimitedPointer{2}`, and after
    /// every step compares each touched block with the reference: owner,
    /// sharers (decoded and probed), memory and migratory state, and the
    /// number of blocks held. `write_back` is what a `Put` with data does
    /// to memory.
    fn drive_against_reference<M: Copy + Default + PartialEq + std::fmt::Debug>(
        untouched: M,
        write_back: fn(&mut M, u64),
    ) -> Tally {
        let mut tally = Tally::default();
        let mut rng = SimRng::from_seed(0x4033);
        for n in [16u16, 128, 512] {
            for encoding in [
                SharerEncoding::FullMap,
                SharerEncoding::Coarse { cores_per_bit: 4 },
                SharerEncoding::LimitedPointer { pointers: 2 },
            ] {
                let config =
                    ProtocolConfig::new(ProtocolKind::Directory, n).with_sharer_encoding(encoding);
                let mut home: Home<M, ()> = Home::new(&config, node(0), untouched);
                let mut reference: BTreeMap<BlockAddr, Reference<M>> = BTreeMap::new();
                let mut active: BTreeMap<BlockAddr, (NodeId, u64, bool)> = BTreeMap::new();
                // More blocks than one chunk holds, all homed at P0.
                let blocks: Vec<BlockAddr> =
                    (0..70).map(|i| BlockAddr::new(i * u64::from(n))).collect();
                for step in 0..1000u64 {
                    let addr = blocks[rng.below(blocks.len() as u64) as usize];
                    // Half the time one of a few nodes spread over every
                    // sharer word, so blocks see the same nodes again.
                    let r = match rng.below(12) {
                        hot @ 0..=5 => [0, 1, n / 2, n / 2 + 1, n - 2, n - 1][hot as usize],
                        _ => rng.below(u64::from(n)) as u16,
                    };
                    let r = node(r);
                    let want = reference.entry(addr).or_insert(Reference {
                        owner: None,
                        sharing: Sharing::Untouched,
                        memory: untouched,
                        nodes: BTreeSet::new(),
                        overflowed: false,
                    });
                    if let Some((requester, serial, sole)) = active.remove(&addr) {
                        let new_owner = rng.below(2) == 0;
                        home.deactivate(addr, requester, serial, new_owner);
                        assert!(home.next_waiter(addr).is_none());
                        let old = want.owner;
                        if sole {
                            want.nodes.clear();
                            want.overflowed = false;
                            want.owner = Some(requester);
                        } else {
                            if new_owner {
                                want.owner = Some(requester);
                            } else {
                                tally.overflows += u32::from(want.insert(requester, encoding));
                            }
                            if let Some(old) =
                                old.filter(|&o| o != requester && want.owner != Some(o))
                            {
                                tally.overflows += u32::from(want.insert(old, encoding));
                            }
                        }
                    } else if rng.below(3) == 0 {
                        // A writeback at an idle block.
                        let mut entry = home.entry(addr);
                        if *entry.owner == Some(r) {
                            *entry.owner = None;
                            write_back(entry.memory, step);
                            want.owner = None;
                            write_back(&mut want.memory, step);
                        }
                        let removed = entry.sharers.remove_if_exact(r);
                        assert_eq!(removed, want.remove_if_exact(r, encoding));
                        tally.exact_removals += u32::from(removed);
                    } else {
                        let kind = [AccessKind::Read, AccessKind::Write][rng.below(2) as usize];
                        let opening = home.open(addr, r, kind);
                        let exclusive = want.sharing.observe(r, kind);
                        let invalidating = kind.is_write() || exclusive;
                        assert_eq!(
                            (opening.exclusive, opening.invalidating),
                            (exclusive, invalidating)
                        );
                        let mut targets = if invalidating {
                            want.members(n, encoding)
                        } else {
                            BTreeSet::new()
                        };
                        targets.extend(want.owner.map(|o| o.raw()));
                        targets.remove(&r.raw());
                        let got: BTreeSet<u16> = opening.targets.iter().map(|t| t.raw()).collect();
                        assert_eq!(got, targets, "{n} nodes, {encoding}, step {step}");
                        tally.upgrades += u32::from(exclusive);
                        let sole = invalidating || rng.below(4) == 0;
                        home.activate(addr, r, step, sole);
                        active.insert(addr, (r, step, sole));
                    }
                    assert_eq!(home.len(), reference.len());
                    for (&addr, want) in &reference {
                        let at = format!("{n} nodes, {encoding}, step {step}, {addr:?}");
                        assert_eq!(home.memory(addr), want.memory, "{at}");
                        let slot = home.slots[&addr] as usize;
                        let record = home.records[slot][0];
                        assert_eq!(
                            (record.owner, record.sharing),
                            (want.owner, want.sharing),
                            "{at}"
                        );
                        assert_eq!(record.memory, want.memory, "{at}");
                        let sharers = SharerSet::new(n, encoding, &home.sharers[slot]);
                        let members: BTreeSet<u16> =
                            sharers.members().iter().map(|m| m.raw()).collect();
                        let expected = want.members(n, encoding);
                        assert_eq!(members, expected, "{at}");
                        for probe in [r.raw(), rng.below(u64::from(n)) as u16] {
                            let probe = node(probe);
                            assert_eq!(
                                sharers.may_contain(probe),
                                expected.contains(&probe.raw()),
                                "{at}"
                            );
                        }
                        assert_eq!(sharers.is_empty(), expected.is_empty(), "{at}");
                    }
                }
                tally.chunks = tally.chunks.max(home.records.allocated() / 64);
            }
        }
        tally
    }

    fn assert_not_vacuous(tally: &Tally) {
        assert!(tally.overflows > 0, "no limited-pointer entry overflowed");
        assert!(tally.exact_removals > 0, "no writeback removed a sharer");
        assert!(tally.upgrades > 0, "no read was upgraded as migratory");
        assert!(tally.chunks > 1, "every home fit one chunk");
    }

    /// DIRECTORY's memory: the last written-back version.
    #[test]
    fn directory_storage_matches_the_reference() {
        let tally = drive_against_reference(0u64, |memory, version| *memory = version);
        assert_not_vacuous(&tally);
    }

    /// PATCH's memory: tokens and a version.
    #[test]
    fn patch_storage_matches_the_reference() {
        let tally = drive_against_reference(Memory::full(512), |memory, version| {
            memory.absorb(TokenSet::plain(1), Some(version))
        });
        assert_not_vacuous(&tally);
    }
}
