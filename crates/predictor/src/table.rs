//! The macroblock-indexed prediction table shared by the trained policies.

use patchsim_mem::BlockAddr;
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
/// Three parallel per-slot arrays: macroblock tags, owner candidates
/// (`u16`), and one flat vector of sharing-group bit words
/// (`ceil(num_nodes / 64)` per slot, bit `n % 64` of word `n / 64` for node
/// `n`). A lookup whose tag does not match reads one tag and nothing else,
/// and no slot owns a heap allocation at any node count.
///
/// Invariant: a slot never written holds tag 0, no owner and an empty
/// group — exactly the state of a slot just recycled — so slot occupancy
/// needs no flag and every macroblock number is a legal tag: an untouched
/// slot that happens to match answers like a miss.
#[derive(Debug)]
pub struct PredictorTable {
    num_nodes: u16,
    blocks_per_macroblock: u64,
    words_per_slot: usize,
    tags: Vec<u64>,
    owners: Vec<u16>,
    groups: Vec<u64>,
}

/// The `owners` value for "no owner candidate". Never a node id: ids are
/// below `num_nodes`, itself a `u16`.
const NO_OWNER: u16 = u16::MAX;

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
        let words_per_slot = (num_nodes as usize).div_ceil(64);
        PredictorTable {
            num_nodes,
            blocks_per_macroblock,
            words_per_slot,
            tags: vec![0; entries],
            owners: vec![NO_OWNER; entries],
            groups: vec![0; entries * words_per_slot],
        }
    }

    /// `addr`'s macroblock and the slot it maps to.
    fn locate(&self, addr: BlockAddr) -> (u64, usize) {
        let mb = addr.macroblock(self.blocks_per_macroblock);
        (mb, (mb % self.tags.len() as u64) as usize)
    }

    fn group_words(&self, idx: usize) -> &[u64] {
        &self.groups[idx * self.words_per_slot..(idx + 1) * self.words_per_slot]
    }

    /// The slot holding `addr`'s macroblock, if the table has it.
    fn peek(&self, addr: BlockAddr) -> Option<usize> {
        let (mb, idx) = self.locate(addr);
        (self.tags[idx] == mb).then_some(idx)
    }

    /// Adds `from` to the sharing group of `addr`'s macroblock, first
    /// recycling the slot on a conflict (or cold) miss. Returns the slot.
    fn record(&mut self, addr: BlockAddr, from: NodeId) -> usize {
        assert!(
            from.raw() < self.num_nodes,
            "{from} out of range for {}-node system",
            self.num_nodes
        );
        let (mb, idx) = self.locate(addr);
        let base = idx * self.words_per_slot;
        if self.tags[idx] != mb {
            self.tags[idx] = mb;
            self.owners[idx] = NO_OWNER;
            self.groups[base..base + self.words_per_slot].fill(0);
        }
        self.groups[base + from.index() / 64] |= 1 << (from.index() % 64);
        idx
    }

    /// Records an incoming request from `from` for `addr`'s macroblock.
    pub fn record_requester(&mut self, addr: BlockAddr, from: NodeId) {
        self.record(addr, from);
    }

    /// Records a data/ack response from `from` for `addr`'s macroblock;
    /// `from` becomes the owner candidate.
    pub fn record_responder(&mut self, addr: BlockAddr, from: NodeId) {
        let idx = self.record(addr, from);
        self.owners[idx] = from.raw();
    }

    /// The owner candidate for `addr`'s macroblock, if the table has one.
    pub fn last_owner(&self, addr: BlockAddr) -> Option<NodeId> {
        let owner = self.owners[self.peek(addr)?];
        (owner != NO_OWNER).then(|| NodeId::new(owner))
    }

    /// Whether `addr`'s macroblock has recently involved any processor
    /// other than `me` — the "recently shared" test of the
    /// broadcast-if-shared policy.
    pub fn recently_shared(&self, addr: BlockAddr, me: NodeId) -> bool {
        let Some(idx) = self.peek(addr) else {
            return false;
        };
        let (my_word, my_bit) = (me.index() / 64, 1u64 << (me.index() % 64));
        self.group_words(idx)
            .iter()
            .enumerate()
            .any(|(w, &bits)| bits & !(if w == my_word { my_bit } else { 0 }) != 0)
    }

    /// The recent sharing group for `addr`'s macroblock.
    pub fn group(&self, addr: BlockAddr) -> DestSet {
        let words = self.peek(addr).map_or(&[][..], |idx| self.group_words(idx));
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
                if new.peek(addr).is_none() && new.tags[new.locate(addr).1] != 0 {
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
            assert!(t.groups.iter().map(|w| w.count_ones()).sum::<u32>() == 1);
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
