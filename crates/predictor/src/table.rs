//! The macroblock-indexed prediction table shared by the trained policies.

use patchsim_mem::{BlockAddr, Chunked};
use patchsim_noc::{DestSet, NodeId};

/// A direct-mapped prediction table indexed by macroblock.
///
/// Each entry remembers the set of processors recently involved with a
/// macroblock (requesters and responders) and the last seen "owner"
/// candidate. The paper's predictors use 8192 entries with 1024-byte
/// macroblock indexing; with 64-byte blocks that is 16 blocks per
/// macroblock.
///
/// # Examples
///
/// ```
/// use patchsim_mem::BlockAddr;
/// use patchsim_noc::NodeId;
/// use patchsim_predictor::PredictorTable;
///
/// let mut t = PredictorTable::new(64);
/// t.record_responder(BlockAddr::new(0), NodeId::new(3));
/// assert_eq!(t.last_owner(BlockAddr::new(5)), Some(NodeId::new(3))); // same macroblock
/// assert_eq!(t.last_owner(BlockAddr::new(16)), None);                // different macroblock
/// ```
///
/// # Host layout
///
/// One [`Chunked`] array of entries indexed by table slot — macroblock tag,
/// owner candidate, then the sharing group's bit words (`ceil(num_nodes /
/// 64)` of them, bit `n % 64` of word `n / 64` for node `n`) — whose storage
/// is allocated 64 slots at a time, the first time a macroblock is recorded
/// in one of them. Consecutive macroblocks map to consecutive slots, so the
/// few hundred macroblocks a node of a large system sees in a run land in a
/// handful of chunks out of 128, and construction allocates nothing. A
/// lookup or an update reads one entry, its words adjacent in memory; no
/// slot owns a heap allocation at any node count.
///
/// Invariant: an entry never written holds tag 0, no owner and an empty
/// group — exactly the state of an entry just recycled — so occupancy needs
/// no flag and every macroblock number is a legal tag: an untouched entry
/// that happens to match answers like a miss, as a slot without storage
/// does.
#[derive(Debug)]
pub struct PredictorTable {
    num_nodes: u16,
    blocks_per_macroblock: u64,
    slots: usize,
    entries: Chunked<u64>,
}

/// Where an entry keeps its macroblock number.
const TAG: usize = 0;
/// Where an entry keeps its owner candidate: 1 + the node id, 0 for none.
const OWNER: usize = 1;
/// Where an entry's sharing-group words start.
const GROUP: usize = 2;

impl PredictorTable {
    /// The paper's table size.
    pub const DEFAULT_ENTRIES: usize = 8192;
    /// The paper's macroblock size with 64-byte blocks (1024 bytes).
    pub const DEFAULT_BLOCKS_PER_MACROBLOCK: u64 = 16;

    /// Creates a table with the paper's default geometry for an
    /// `num_nodes`-node system.
    pub fn new(num_nodes: u16) -> Self {
        Self::with_geometry(
            num_nodes,
            Self::DEFAULT_ENTRIES,
            Self::DEFAULT_BLOCKS_PER_MACROBLOCK,
        )
    }

    /// Creates a table with `entries` direct-mapped entries and
    /// `blocks_per_macroblock` blocks per macroblock.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `blocks_per_macroblock` is zero.
    pub fn with_geometry(num_nodes: u16, entries: usize, blocks_per_macroblock: u64) -> Self {
        assert!(entries > 0, "table needs at least one entry");
        assert!(blocks_per_macroblock > 0);
        PredictorTable {
            num_nodes,
            blocks_per_macroblock,
            slots: entries,
            entries: Chunked::new(GROUP + (num_nodes as usize).div_ceil(64)),
        }
    }

    /// `addr`'s macroblock and the slot it maps to.
    fn locate(&self, addr: BlockAddr) -> (u64, usize) {
        let mb = addr.macroblock(self.blocks_per_macroblock);
        (mb, (mb % self.slots as u64) as usize)
    }

    /// The entry holding `addr`'s macroblock, if the table has it.
    fn peek(&self, addr: BlockAddr) -> Option<&[u64]> {
        let (mb, slot) = self.locate(addr);
        self.entries.get(slot).filter(|entry| entry[TAG] == mb)
    }

    /// Adds `from` to the sharing group of `addr`'s macroblock, first
    /// recycling the slot's entry on a conflict (or cold) miss. Returns the
    /// entry.
    fn record(&mut self, addr: BlockAddr, from: NodeId) -> &mut [u64] {
        assert!(
            from.raw() < self.num_nodes,
            "{from} out of range for {}-node system",
            self.num_nodes
        );
        let (mb, slot) = self.locate(addr);
        let entry = self.entries.touch(slot);
        if entry[TAG] != mb {
            entry[TAG] = mb;
            entry[OWNER] = 0;
            entry[GROUP..].fill(0);
        }
        entry[GROUP + from.index() / 64] |= 1 << (from.index() % 64);
        entry
    }

    /// Records an incoming request from `from` for `addr`'s macroblock.
    pub fn record_requester(&mut self, addr: BlockAddr, from: NodeId) {
        self.record(addr, from);
    }

    /// Records a data/ack response from `from` for `addr`'s macroblock;
    /// `from` becomes the owner candidate.
    pub fn record_responder(&mut self, addr: BlockAddr, from: NodeId) {
        self.record(addr, from)[OWNER] = u64::from(from.raw()) + 1;
    }

    /// The owner candidate for `addr`'s macroblock, if the table has one.
    pub fn last_owner(&self, addr: BlockAddr) -> Option<NodeId> {
        let owner = self.peek(addr)?[OWNER].checked_sub(1)?;
        Some(NodeId::new(owner as u16))
    }

    /// Whether `addr`'s macroblock has recently involved any processor
    /// other than `me` — the "recently shared" test of the
    /// broadcast-if-shared policy.
    pub fn recently_shared(&self, addr: BlockAddr, me: NodeId) -> bool {
        let Some(entry) = self.peek(addr) else {
            return false;
        };
        let (my_word, my_bit) = (me.index() / 64, 1u64 << (me.index() % 64));
        entry[GROUP..]
            .iter()
            .enumerate()
            .any(|(w, &bits)| bits & !(if w == my_word { my_bit } else { 0 }) != 0)
    }

    /// The recent sharing group for `addr`'s macroblock.
    pub fn group(&self, addr: BlockAddr) -> DestSet {
        let words = self.peek(addr).map_or(&[][..], |entry| &entry[GROUP..]);
        let members = words.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |bit| word >> bit & 1 != 0)
                .map(move |bit| NodeId::new((w * 64 + bit) as u16))
        });
        DestSet::from_nodes(self.num_nodes, members)
    }

    /// System size this table was built for.
    pub fn num_nodes(&self) -> u16 {
        self.num_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u64) -> BlockAddr {
        BlockAddr::new(n)
    }

    #[test]
    fn macroblock_aliasing_within_table() {
        let mut t = PredictorTable::new(8);
        t.record_responder(a(0), NodeId::new(1));
        // Blocks 0..16 share a macroblock.
        assert_eq!(t.last_owner(a(15)), Some(NodeId::new(1)));
        assert_eq!(t.last_owner(a(16)), None);
    }

    #[test]
    fn conflict_eviction_resets_entry() {
        // Two entries: macroblocks 0 and 2 collide.
        let mut t = PredictorTable::with_geometry(8, 2, 16);
        t.record_responder(a(0), NodeId::new(1));
        assert_eq!(t.last_owner(a(0)), Some(NodeId::new(1)));
        t.record_requester(a(32), NodeId::new(2)); // macroblock 2, same slot
        assert_eq!(
            t.last_owner(a(0)),
            None,
            "evicted by conflicting macroblock"
        );
        assert!(t.recently_shared(a(32), NodeId::new(0)));
    }

    #[test]
    fn recently_shared_ignores_self() {
        let mut t = PredictorTable::new(8);
        let me = NodeId::new(4);
        t.record_requester(a(0), me);
        assert!(!t.recently_shared(a(0), me), "only self in group");
        t.record_requester(a(0), NodeId::new(5));
        assert!(t.recently_shared(a(0), me));
    }

    #[test]
    fn group_accumulates() {
        let mut t = PredictorTable::new(8);
        t.record_requester(a(0), NodeId::new(1));
        t.record_responder(a(3), NodeId::new(2));
        let g = t.group(a(0));
        assert!(g.contains(NodeId::new(1)) && g.contains(NodeId::new(2)));
        assert_eq!(t.group(a(100)).len(), 0, "untouched macroblock is empty");
    }

    /// The one-`Entry`-per-slot implementation this module had before the
    /// tag/owner/group-word split, kept as the behavioural reference.
    mod oracle {
        use patchsim_mem::BlockAddr;
        use patchsim_noc::{DestSet, NodeId};

        #[derive(Clone)]
        struct Entry {
            tag: Option<u64>,
            last_owner: Option<NodeId>,
            group: DestSet,
        }

        pub struct EntryTable {
            num_nodes: u16,
            entries: Vec<Entry>,
            blocks_per_macroblock: u64,
        }

        impl EntryTable {
            pub fn with_geometry(
                num_nodes: u16,
                entries: usize,
                blocks_per_macroblock: u64,
            ) -> Self {
                let vacant = Entry {
                    tag: None,
                    last_owner: None,
                    group: DestSet::empty(num_nodes),
                };
                EntryTable {
                    num_nodes,
                    entries: vec![vacant; entries],
                    blocks_per_macroblock,
                }
            }

            fn slot(&mut self, addr: BlockAddr) -> &mut Entry {
                let mb = addr.macroblock(self.blocks_per_macroblock);
                let idx = (mb % self.entries.len() as u64) as usize;
                let num_nodes = self.num_nodes;
                let entry = &mut self.entries[idx];
                if entry.tag != Some(mb) {
                    entry.tag = Some(mb);
                    entry.last_owner = None;
                    entry.group = DestSet::empty(num_nodes);
                }
                entry
            }

            fn peek(&self, addr: BlockAddr) -> Option<&Entry> {
                let mb = addr.macroblock(self.blocks_per_macroblock);
                let idx = (mb % self.entries.len() as u64) as usize;
                let entry = &self.entries[idx];
                (entry.tag == Some(mb)).then_some(entry)
            }

            pub fn record_requester(&mut self, addr: BlockAddr, from: NodeId) {
                self.slot(addr).group.insert(from);
            }

            pub fn record_responder(&mut self, addr: BlockAddr, from: NodeId) {
                let entry = self.slot(addr);
                entry.group.insert(from);
                entry.last_owner = Some(from);
            }

            pub fn last_owner(&self, addr: BlockAddr) -> Option<NodeId> {
                self.peek(addr).and_then(|e| e.last_owner)
            }

            pub fn recently_shared(&self, addr: BlockAddr, me: NodeId) -> bool {
                self.peek(addr)
                    .is_some_and(|e| e.group.iter().any(|n| n != me))
            }

            pub fn group(&self, addr: BlockAddr) -> DestSet {
                self.peek(addr)
                    .map(|e| e.group.clone())
                    .unwrap_or_else(|| DestSet::empty(self.num_nodes))
            }
        }
    }

    /// The tag in the slot `addr` maps to, if the slot has storage.
    fn slot_tag(t: &PredictorTable, addr: BlockAddr) -> Option<u64> {
        Some(t.entries.get(t.locate(addr).1)?[TAG])
    }

    /// Node counts on both sides of every group-word boundary.
    const SIZES: [u16; 5] = [8, 64, 65, 128, 1024];

    /// Node ids at the edges of the group words that exist for `n` nodes,
    /// ascending.
    fn edge_nodes(n: u16) -> Vec<NodeId> {
        let ids = [0, 1, 62, 63, 64, 65, 126, 127, 128, n - 2, n - 1];
        let ids: std::collections::BTreeSet<u16> = ids.into_iter().filter(|&id| id < n).collect();
        ids.into_iter().map(NodeId::new).collect()
    }

    /// Every query answers as the reference does, after every update, over
    /// seeded sequences at each size: aliasing blocks, macroblocks that
    /// conflict in a slot, macroblock numbers 0 and `u64::MAX`, and
    /// requesters and responders on word boundaries.
    #[test]
    fn matches_entry_table_oracle() {
        // Knuth's MMIX LCG, high bits: the crate has no RNG dependency.
        let mut state = 0x7AB1E_u64;
        let mut below = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        let (mut conflicts, mut owners) = (0, 0);
        for (case, &n) in SIZES.iter().cycle().take(60).enumerate() {
            let (entries, bpm) = [(1, 1), (4, 16), (8192, 16), (3, 5)][case % 4];
            let mut new = PredictorTable::with_geometry(n, entries, bpm);
            let mut old = oracle::EntryTable::with_geometry(n, entries, bpm);
            // Blocks 0..2 alias; block `k * entries * bpm` conflicts with 0.
            let span = entries as u64 * bpm;
            let pool = [
                0,
                1,
                bpm,
                span,
                2 * span + 1,
                7 * span,
                u64::MAX,
                u64::MAX - span,
            ];
            let nodes = edge_nodes(n);
            for _ in 0..400 {
                let addr = a(pool[below(pool.len())]);
                let node = nodes[below(nodes.len())];
                if new.peek(addr).is_none() && slot_tag(&new, addr).is_some_and(|tag| tag != 0) {
                    conflicts += 1;
                }
                if below(10) < 3 {
                    new.record_responder(addr, node);
                    old.record_responder(addr, node);
                } else {
                    new.record_requester(addr, node);
                    old.record_requester(addr, node);
                }
                for &probe in &pool {
                    let probe = a(probe);
                    assert_eq!(new.last_owner(probe), old.last_owner(probe));
                    owners += new.last_owner(probe).is_some() as u32;
                    assert_eq!(new.group(probe), old.group(probe));
                    for &me in &nodes {
                        assert_eq!(
                            new.recently_shared(probe, me),
                            old.recently_shared(probe, me),
                            "{n} nodes, block {probe}, me {me}"
                        );
                    }
                }
            }
        }
        assert!(
            conflicts > 1000 && owners > 1000,
            "vacuous: {conflicts} {owners}"
        );
    }

    /// A table every slot of which is in use — each with its own macroblock,
    /// owner and group — answers as the reference does, before and after a
    /// second lap of conflicting macroblocks evicts them all.
    #[test]
    fn full_table_matches_entry_table_oracle() {
        const SLOTS: u64 = PredictorTable::DEFAULT_ENTRIES as u64;
        const BPM: u64 = PredictorTable::DEFAULT_BLOCKS_PER_MACROBLOCK;
        for n in [8, 128] {
            let mut new = PredictorTable::new(n);
            let mut old = oracle::EntryTable::with_geometry(n, SLOTS as usize, BPM);
            for lap in 0..2 {
                // Descending on the first lap: slots fill from the last chunk.
                for i in 0..SLOTS {
                    let mb = lap * SLOTS + if lap == 0 { SLOTS - 1 - i } else { i };
                    let (addr, node) = (
                        a(mb * BPM + mb % BPM),
                        NodeId::new((mb * 7 % u64::from(n)) as u16),
                    );
                    if mb.is_multiple_of(3) {
                        new.record_responder(addr, node);
                        old.record_responder(addr, node);
                    } else {
                        new.record_requester(addr, node);
                        old.record_requester(addr, node);
                    }
                }
                assert_eq!(new.entries.allocated(), SLOTS as usize);
                for mb in 0..2 * SLOTS {
                    let addr = a(mb * BPM);
                    assert_eq!(new.last_owner(addr), old.last_owner(addr));
                    assert_eq!(new.group(addr), old.group(addr));
                    let me = NodeId::new((mb * 7 % u64::from(n)) as u16);
                    assert_eq!(new.recently_shared(addr, me), old.recently_shared(addr, me));
                    assert_eq!(new.group(addr).len(), (mb / SLOTS == lap) as usize);
                }
            }
        }
    }

    /// Memory follows first touch: construction allocates no entry, lookups
    /// never do, and recording allocates the 64 slots around the macroblock's.
    #[test]
    fn storage_follows_first_touch() {
        let mut t = PredictorTable::new(128);
        assert_eq!(t.entries.allocated(), 0);
        for mb in [0, 63, 64, 8191, u64::MAX / 16] {
            let addr = a(mb * 16);
            assert_eq!(t.last_owner(addr), None);
            assert!(!t.recently_shared(addr, NodeId::new(0)));
            assert_eq!(t.group(addr), DestSet::empty(128));
        }
        assert_eq!(t.entries.allocated(), 0);
        // The 256 macroblocks of a 4096-block table: four chunks of 128.
        for block in (0..4096).rev() {
            t.record_requester(a(block), NodeId::new((block % 128) as u16));
        }
        assert_eq!(t.entries.allocated(), 256);
        t.record_responder(a(8191 * 16), NodeId::new(0));
        assert_eq!(t.entries.allocated(), 256 + 64);
        assert_eq!(
            t.last_owner(a(8190 * 16)),
            None,
            "same chunk, never recorded"
        );
    }

    /// An untouched table answers like the reference's vacant entries, for
    /// the macroblocks whose number equals the initial tag included.
    #[test]
    fn untouched_slots_answer_as_misses() {
        for n in SIZES {
            let t = PredictorTable::with_geometry(n, 4, 1);
            for addr in [a(0), a(4), a(u64::MAX)] {
                assert_eq!(t.last_owner(addr), None);
                assert!(!t.recently_shared(addr, NodeId::new(0)));
                assert_eq!(t.group(addr), DestSet::empty(n));
            }
        }
    }

    #[test]
    fn recently_shared_when_self_is_alone_in_a_later_word() {
        for n in [65, 128, 1024] {
            let mut t = PredictorTable::new(n);
            let me = NodeId::new(n - 1);
            t.record_requester(a(0), me);
            assert!(
                !t.recently_shared(a(0), me),
                "{n}: only self, in the last word"
            );
            assert!(t.recently_shared(a(0), NodeId::new(0)));
            // A peer in another word, then in the same word and bit lane.
            t.record_requester(a(0), NodeId::new(0));
            assert!(t.recently_shared(a(0), me));
            let mut t = PredictorTable::new(n);
            t.record_requester(a(0), me);
            t.record_requester(a(0), NodeId::new(n - 2));
            assert!(t.recently_shared(a(0), me));
        }
    }

    #[test]
    fn conflict_eviction_clears_every_group_word() {
        for n in SIZES {
            let mut t = PredictorTable::with_geometry(n, 2, 16);
            for node in edge_nodes(n) {
                t.record_responder(a(0), node);
            }
            assert_eq!(t.group(a(0)).len(), edge_nodes(n).len());
            t.record_requester(a(32), NodeId::new(1)); // macroblock 2, same slot
            assert_eq!(t.group(a(32)), DestSet::single(n, NodeId::new(1)));
            assert_eq!(t.last_owner(a(32)), None, "owner candidate evicted too");
            assert_eq!(t.group(a(0)), DestSet::empty(n));
            let entries = (0..2).map(|slot| t.entries.get(slot).unwrap());
            let members = entries
                .flat_map(|entry| &entry[GROUP..])
                .map(|w| w.count_ones());
            assert_eq!(members.sum::<u32>(), 1);
        }
    }

    #[test]
    fn group_round_trips_through_dest_set() {
        for n in SIZES {
            let mut t = PredictorTable::new(n);
            let members = edge_nodes(n);
            for &node in &members {
                t.record_requester(a(3), node);
            }
            let group = t.group(a(0));
            assert_eq!(group, DestSet::from_nodes(n, members.iter().copied()));
            assert_eq!(group.iter().collect::<Vec<_>>(), members);
            assert_eq!(group.num_nodes(), n);
        }
    }

    #[test]
    #[should_panic(expected = "out of range for 8-node system")]
    fn recording_a_node_outside_the_system_panics() {
        PredictorTable::new(8).record_requester(a(0), NodeId::new(8));
    }
}
