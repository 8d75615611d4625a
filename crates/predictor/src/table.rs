//! The macroblock-indexed prediction table shared by the trained policies.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

use patchsim_mem::BlockAddr;
use patchsim_noc::NodeId;

/// One node's direct-mapped prediction table, indexed by macroblock: that
/// node's column of a store that may hold the tables of every node of a
/// system.
///
/// Each entry summarises the set of processors recently involved with a
/// macroblock (requesters and responders) and remembers the last seen
/// "owner" candidate. The paper's predictors use 8192 entries with
/// 1024-byte macroblock indexing; with 64-byte blocks that is 16 blocks per
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
///
/// // One table per node of a 4-node system, over one store.
/// let mut tables = PredictorTable::columns(4);
/// tables[1].record_requester(BlockAddr::new(0), NodeId::new(2));
/// assert!(tables[1].recently_shared(BlockAddr::new(0), NodeId::new(1)));
/// assert!(!tables[0].recently_shared(BlockAddr::new(0), NodeId::new(1)));
/// ```
///
/// # Host layout
///
/// A table is an index into its store: a store is `width` tables laid out
/// slot-major, entry (slot, column) at position `slot * width +
/// column`, so the tables of all the nodes that receive one broadcast
/// request train one contiguous row. [`PredictorTable::new`] builds a
/// store one column wide; [`PredictorTable::columns`] hands out the `n`
/// columns of one store `n` wide.
///
/// An entry is 16 bytes at any node count: the macroblock tag, and one
/// meta word packing 1 + the owner candidate's id (0 for none), 1 + the
/// first member of the sharing group since the entry was last reset (0
/// for none), and a "two or more members" bit. That is everything
/// [`recently_shared`](PredictorTable::recently_shared) needs, and for any
/// `me`, not only the table's own node: the group holds a node other than
/// `me` exactly when it has two or more members, or its first member is
/// not `me`.
///
/// Invariant: an entry never written holds tag 0 and meta 0 — no owner, an
/// empty group — exactly the state of an entry just recycled, so occupancy
/// needs no flag and every macroblock number is a legal tag: an untouched
/// entry that happens to match answers like a miss, as a slot without
/// storage does.
pub struct PredictorTable {
    store: Arc<Store>,
    column: usize,
}

/// Where the meta word keeps 1 + the owner candidate's id.
const OWNER: u32 = 0;
/// Where the meta word keeps 1 + the group's first member's id.
const FIRST: u32 = 32;
/// The width of an id field: any `u16` id plus one fits.
const FIELD: u64 = (1 << 31) - 1;
/// Set once the group holds a member other than its first.
const MULTI: u64 = 1 << 63;

impl PredictorTable {
    /// The paper's table size.
    pub const DEFAULT_ENTRIES: usize = 8192;
    /// The paper's macroblock size with 64-byte blocks (1024 bytes).
    pub const DEFAULT_BLOCKS_PER_MACROBLOCK: u64 = 16;

    /// Creates a table with the paper's default geometry for an
    /// `num_nodes`-node system, over a store of its own.
    pub fn new(num_nodes: u16) -> Self {
        Self::with_geometry(
            num_nodes,
            Self::DEFAULT_ENTRIES,
            Self::DEFAULT_BLOCKS_PER_MACROBLOCK,
        )
    }

    /// Creates a table with `entries` direct-mapped entries and
    /// `blocks_per_macroblock` blocks per macroblock, over a store of its
    /// own.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `blocks_per_macroblock` is zero.
    pub fn with_geometry(num_nodes: u16, entries: usize, blocks_per_macroblock: u64) -> Self {
        let store = Store::new(num_nodes, 1, entries, blocks_per_macroblock);
        PredictorTable { store, column: 0 }
    }

    /// One table with the paper's default geometry for each node of an
    /// `num_nodes`-node system, node `v`'s at index `v`, all over one store.
    pub fn columns(num_nodes: u16) -> Vec<Self> {
        Self::columns_with_geometry(
            num_nodes,
            Self::DEFAULT_ENTRIES,
            Self::DEFAULT_BLOCKS_PER_MACROBLOCK,
        )
    }

    /// [`PredictorTable::columns`] with the geometry of
    /// [`PredictorTable::with_geometry`].
    fn columns_with_geometry(
        num_nodes: u16,
        entries: usize,
        blocks_per_macroblock: u64,
    ) -> Vec<Self> {
        let width = usize::from(num_nodes);
        let store = Store::new(num_nodes, width, entries, blocks_per_macroblock);
        (0..width)
            .map(|column| PredictorTable {
                store: Arc::clone(&store),
                column,
            })
            .collect()
    }

    /// The meta word of the entry holding `addr`'s macroblock, if the table
    /// has it.
    fn peek(&self, addr: BlockAddr) -> Option<u64> {
        let (mb, slot) = self.store.locate(addr);
        let entry = self.store.entry(slot, self.column)?;
        (entry.tag.load(Relaxed) == mb).then(|| entry.meta.load(Relaxed))
    }

    /// Adds `from` to the sharing group of `addr`'s macroblock, first
    /// recycling the slot's entry on a conflict (or cold) miss, and makes it
    /// the owner candidate if `owner`.
    fn record(&mut self, addr: BlockAddr, from: NodeId, owner: bool) {
        let store = &*self.store;
        assert!(
            from.raw() < store.num_nodes,
            "{from} out of range for {}-node system",
            store.num_nodes
        );
        let (mb, slot) = store.locate(addr);
        let entry = store.touch(slot, self.column);
        let old = if entry.tag.load(Relaxed) == mb {
            entry.meta.load(Relaxed)
        } else {
            entry.tag.store(mb, Relaxed);
            0
        };
        let id = u64::from(from.raw()) + 1;
        let mut meta = match old >> FIRST & FIELD {
            0 => old | id << FIRST,
            first if first == id => old,
            _ => old | MULTI,
        };
        if owner {
            meta = meta & !(FIELD << OWNER) | id << OWNER;
        }
        if meta != old {
            entry.meta.store(meta, Relaxed);
        }
    }

    /// Records an incoming request from `from` for `addr`'s macroblock.
    pub fn record_requester(&mut self, addr: BlockAddr, from: NodeId) {
        self.record(addr, from, false);
    }

    /// Records a data/ack response from `from` for `addr`'s macroblock;
    /// `from` becomes the owner candidate.
    pub fn record_responder(&mut self, addr: BlockAddr, from: NodeId) {
        self.record(addr, from, true);
    }

    /// The owner candidate for `addr`'s macroblock, if the table has one.
    pub fn last_owner(&self, addr: BlockAddr) -> Option<NodeId> {
        let owner = (self.peek(addr)? >> OWNER & FIELD).checked_sub(1)?;
        Some(NodeId::new(owner as u16))
    }

    /// Whether `addr`'s macroblock has recently involved any processor
    /// other than `me` — the "recently shared" test of the
    /// broadcast-if-shared policy.
    pub fn recently_shared(&self, addr: BlockAddr, me: NodeId) -> bool {
        let Some(meta) = self.peek(addr) else {
            return false;
        };
        let first = meta >> FIRST & FIELD;
        meta & MULTI != 0 || (first != 0 && first != u64::from(me.raw()) + 1)
    }

    /// System size this table was built for.
    pub fn num_nodes(&self) -> u16 {
        self.store.num_nodes
    }
}

impl std::fmt::Debug for PredictorTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictorTable")
            .field("column", &self.column)
            .field("store", &self.store)
            .finish()
    }
}

/// Slots per chunk of a store's storage: 64, as in
/// [`Chunked`](patchsim_mem::Chunked).
const CHUNK_SLOTS: usize = 64;

/// One entry of a [`Store`]: the macroblock tag and the meta word.
#[derive(Default)]
struct Entry {
    tag: AtomicU64,
    meta: AtomicU64,
}

/// The storage behind `width` [`PredictorTable`]s of one geometry.
///
/// # Host layout
///
/// Entry (slot, column) sits at `slot * width + column`, and storage is
/// allocated 64 slots × `width` entries at a time, the first time a
/// macroblock is recorded in one of those slots by any column. Construction
/// allocates only the chunk directory, and a lookup never allocates.
/// Consecutive macroblocks map to consecutive slots, so the few hundred
/// macroblocks a large system touches in a run land in a handful of chunks.
/// The cost is (slots touched by any column) × `width` × 16 bytes; a
/// macroblock that only one node ever touches costs a whole row.
///
/// The `n` controllers of a system each own one column, so the store is
/// shared through an [`Arc`] and written through atomics, which is what
/// safe Rust requires of shared mutable state. Every entry access is
/// `Relaxed` — a plain load or store on x86, no lock and no fence — and
/// that is enough: no entry publishes other data (a chunk is published by
/// its `OnceLock`), and the controllers of one system are driven by one
/// thread at a time, from construction to drop, with any hand-over to
/// another thread synchronising on its own, so no two accesses race. A
/// column is written only through its table's `&mut self` methods.
struct Store {
    num_nodes: u16,
    width: usize,
    blocks_per_macroblock: u64,
    slots: usize,
    chunks: Box<[OnceLock<Box<[Entry]>>]>,
}

impl Store {
    /// A store of `width` columns of `entries` slots each, none of them
    /// allocated.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `blocks_per_macroblock` is zero.
    fn new(num_nodes: u16, width: usize, entries: usize, blocks_per_macroblock: u64) -> Arc<Self> {
        assert!(entries > 0, "table needs at least one entry");
        assert!(blocks_per_macroblock > 0);
        Arc::new(Store {
            num_nodes,
            width,
            blocks_per_macroblock,
            slots: entries,
            chunks: (0..entries.div_ceil(CHUNK_SLOTS))
                .map(|_| OnceLock::new())
                .collect(),
        })
    }

    /// `addr`'s macroblock and the slot it maps to.
    fn locate(&self, addr: BlockAddr) -> (u64, usize) {
        let mb = addr.macroblock(self.blocks_per_macroblock);
        (mb, (mb % self.slots as u64) as usize)
    }

    /// Where entry (`slot`, `column`) sits in its chunk.
    fn offset(&self, slot: usize, column: usize) -> usize {
        slot % CHUNK_SLOTS * self.width + column
    }

    /// Entry (`slot`, `column`), if its chunk was ever touched.
    fn entry(&self, slot: usize, column: usize) -> Option<&Entry> {
        let chunk = self.chunks[slot / CHUNK_SLOTS].get()?;
        Some(&chunk[self.offset(slot, column)])
    }

    /// Entry (`slot`, `column`), first allocating its chunk if nothing
    /// touched it before.
    fn touch(&self, slot: usize, column: usize) -> &Entry {
        let chunk = self.chunks[slot / CHUNK_SLOTS].get_or_init(|| self.allocate());
        &chunk[self.offset(slot, column)]
    }

    /// Out of line: a store touches a new chunk a few dozen times in a run
    /// and an old one millions of times.
    #[cold]
    fn allocate(&self) -> Box<[Entry]> {
        (0..CHUNK_SLOTS * self.width)
            .map(|_| Entry::default())
            .collect()
    }

    /// Number of slots per column the chunks allocated so far hold.
    fn allocated(&self) -> usize {
        let chunks = self.chunks.iter().filter(|chunk| chunk.get().is_some());
        chunks.count() * CHUNK_SLOTS
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("num_nodes", &self.num_nodes)
            .field("width", &self.width)
            .field("slots", &self.slots)
            .field("allocated", &self.allocated())
            .finish()
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
        assert!(!t.recently_shared(a(32), NodeId::new(2)), "node 1 evicted");
    }

    #[test]
    fn recently_shared_ignores_self() {
        let mut t = PredictorTable::new(8);
        let me = NodeId::new(4);
        t.record_requester(a(0), me);
        assert!(!t.recently_shared(a(0), me), "only self in group");
        t.record_requester(a(0), me);
        assert!(!t.recently_shared(a(0), me), "self twice is still alone");
        t.record_requester(a(0), NodeId::new(5));
        assert!(t.recently_shared(a(0), me));
    }

    /// The sharing group accumulates requesters and responders, as seen
    /// from every node.
    #[test]
    fn group_accumulates() {
        let mut t = PredictorTable::new(8);
        t.record_requester(a(0), NodeId::new(1));
        for me in 0..8 {
            assert_eq!(t.recently_shared(a(0), NodeId::new(me)), me != 1);
        }
        t.record_responder(a(3), NodeId::new(2));
        for me in 0..8 {
            assert!(t.recently_shared(a(0), NodeId::new(me)), "two members");
        }
        assert!(!t.recently_shared(a(100), NodeId::new(0)), "untouched");
    }

    /// The one-`Entry`-per-slot implementation this module had before the
    /// tables moved into a shared store, kept as the behavioural reference:
    /// it keeps each macroblock's whole sharing group.
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

            pub fn group(&self, addr: BlockAddr) -> DestSet {
                self.peek(addr)
                    .map(|e| e.group.clone())
                    .unwrap_or_else(|| DestSet::empty(self.num_nodes))
            }
        }
    }

    /// The tag in the slot `addr` maps to, if the slot has storage.
    fn slot_tag(t: &PredictorTable, addr: BlockAddr) -> Option<u64> {
        let entry = t.store.entry(t.store.locate(addr).1, t.column)?;
        Some(entry.tag.load(Relaxed))
    }

    /// Node counts on both sides of every 64-node word boundary.
    const SIZES: [u16; 5] = [8, 64, 65, 128, 1024];

    /// Node ids at the 64-node word edges that exist for `n` nodes,
    /// ascending.
    fn edge_nodes(n: u16) -> Vec<NodeId> {
        let ids = [0, 1, 62, 63, 64, 65, 126, 127, 128, n - 2, n - 1];
        let ids: std::collections::BTreeSet<u16> = ids.into_iter().filter(|&id| id < n).collect();
        ids.into_iter().map(NodeId::new).collect()
    }

    /// Knuth's MMIX LCG, high bits: the crate has no RNG dependency.
    fn lcg(seed: u64) -> impl FnMut(usize) -> usize {
        let mut state = seed;
        move |bound| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        }
    }

    /// Every query `table` answers at `addr` — the owner candidate, and
    /// whether the macroblock is shared from the view of each of `mes` —
    /// matches `oracle`'s.
    fn assert_matches(
        table: &PredictorTable,
        oracle: &oracle::EntryTable,
        addr: BlockAddr,
        mes: &[NodeId],
    ) {
        let n = table.num_nodes();
        assert_eq!(table.last_owner(addr), oracle.last_owner(addr));
        let group = oracle.group(addr);
        let (multi, first) = (group.len() > 1, group.iter().next());
        for &me in mes {
            // Whether the group holds a node other than `me`.
            let shared = multi || first.is_some_and(|member| member != me);
            assert_eq!(
                table.recently_shared(addr, me),
                shared,
                "{n} nodes, block {addr}, me {me}, group {group:?}"
            );
        }
    }

    /// Every query answers as the reference does, after every update, over
    /// seeded sequences at each size: aliasing blocks, macroblocks that
    /// conflict in a slot, macroblock numbers 0 and `u64::MAX`, and
    /// requesters and responders on word boundaries.
    #[test]
    fn matches_entry_table_oracle() {
        let mut below = lcg(0x7AB1E);
        let (mut conflicts, mut owners, mut shared) = (0, 0, 0);
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
            let every: Vec<_> = (0..n).map(NodeId::new).collect();
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
                    assert_matches(&new, &old, probe, &every);
                    owners += new.last_owner(probe).is_some() as u32;
                    shared += (old.group(probe).len() == 1) as u32;
                }
            }
        }
        assert!(
            conflicts > 1000 && owners > 1000 && shared > 1000,
            "vacuous: {conflicts} {owners} {shared}"
        );
    }

    /// `n` tables over one store, trained with interleaved seeded updates
    /// — each on its own macroblocks and members, and on macroblocks they
    /// all train — answer each as its own reference does: no column reads
    /// or writes another's entry.
    #[test]
    fn columns_of_one_store_are_independent() {
        let mut below = lcg(0xC0_1D);
        for (n, entries) in [(3, 200), (64, 4), (65, 130), (128, 8192)] {
            let bpm = 4;
            let mut tables = PredictorTable::columns_with_geometry(n, entries, bpm);
            let mut oracles: Vec<_> = (0..n)
                .map(|_| oracle::EntryTable::with_geometry(n, entries, bpm))
                .collect();
            let nodes = edge_nodes(n);
            // Slots 0, 63, 64 and the last one, plus a conflict with slot 0.
            let span = entries as u64 * bpm;
            let pool = [0, 63 * bpm, 64 * bpm + 1, span - 1, span, 5 * bpm];
            for _ in 0..2000 {
                let column = below(n as usize);
                let addr = a(pool[below(pool.len())]);
                let node = nodes[below(nodes.len())];
                if below(4) == 0 {
                    tables[column].record_responder(addr, node);
                    oracles[column].record_responder(addr, node);
                } else {
                    tables[column].record_requester(addr, node);
                    oracles[column].record_requester(addr, node);
                }
                for (table, oracle) in tables.iter().zip(&oracles) {
                    assert_matches(table, oracle, addr, &nodes);
                }
            }
            let every: Vec<_> = (0..n).map(NodeId::new).collect();
            for (table, oracle) in tables.iter().zip(&oracles) {
                for &probe in &pool {
                    assert_matches(table, oracle, a(probe), &every);
                }
            }
        }
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
                assert_eq!(new.store.allocated(), SLOTS as usize);
                for mb in 0..2 * SLOTS {
                    let addr = a(mb * BPM);
                    assert_eq!(new.last_owner(addr), old.last_owner(addr));
                    let member = NodeId::new((mb * 7 % u64::from(n)) as u16);
                    let other = NodeId::new((member.raw() + 1) % n);
                    assert!(!new.recently_shared(addr, member));
                    assert_eq!(new.recently_shared(addr, other), mb / SLOTS == lap);
                    assert_eq!(old.group(addr).len(), (mb / SLOTS == lap) as usize);
                }
            }
        }
    }

    /// Memory follows first touch: construction allocates no entry, lookups
    /// never do, and the first record in a slot allocates the 64 slots
    /// around it for every column of the store.
    #[test]
    fn storage_follows_first_touch() {
        let mut tables = PredictorTable::columns(128);
        let store = Arc::clone(&tables[0].store);
        assert_eq!(store.allocated(), 0);
        for mb in [0, 63, 64, 8191, u64::MAX / 16] {
            let addr = a(mb * 16);
            for t in &tables {
                assert_eq!(t.last_owner(addr), None);
                assert!(!t.recently_shared(addr, NodeId::new(0)));
            }
        }
        assert_eq!(store.allocated(), 0);
        tables[5].record_requester(a(70 * 16), NodeId::new(9));
        assert_eq!(store.allocated(), 64, "one chunk, every column");
        assert_eq!(
            store.chunks[1].get().map(|chunk| chunk.len()),
            Some(64 * 128)
        );
        // The 256 macroblocks of a 4096-block table: four chunks of 64.
        for block in (0..4096).rev() {
            let table = &mut tables[(block * 3 % 128) as usize];
            table.record_requester(a(block), NodeId::new((block % 128) as u16));
        }
        assert_eq!(store.allocated(), 256);
        tables[127].record_responder(a(8191 * 16), NodeId::new(0));
        assert_eq!(store.allocated(), 256 + 64);
        assert_eq!(
            tables[127].last_owner(a(8190 * 16)),
            None,
            "same chunk, never recorded"
        );
        assert_eq!(tables[126].last_owner(a(8191 * 16)), None, "other column");
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

    /// A conflict resets the whole entry: owner candidate, first member and
    /// the "two or more" bit.
    #[test]
    fn conflict_eviction_clears_the_summary() {
        for n in SIZES {
            let mut t = PredictorTable::with_geometry(n, 2, 16);
            for node in edge_nodes(n) {
                t.record_responder(a(0), node);
            }
            t.record_requester(a(32), NodeId::new(1)); // macroblock 2, same slot
            assert_eq!(t.last_owner(a(32)), None, "owner candidate evicted too");
            assert!(!t.recently_shared(a(32), NodeId::new(1)), "only node 1");
            assert!(t.recently_shared(a(32), NodeId::new(0)));
            assert!(!t.recently_shared(a(0), NodeId::new(1)), "evicted");
            let meta = t.peek(a(32)).unwrap();
            assert_eq!(meta, 2 << FIRST, "node 1 first, alone, no owner");
        }
    }

    /// The meta word itself: the first member stays first whoever follows,
    /// a repeat sets no "two or more" bit, and an owner update keeps both.
    #[test]
    fn meta_word_keeps_the_first_member() {
        let mut t = PredictorTable::new(128);
        t.record_requester(a(0), NodeId::new(100));
        t.record_requester(a(0), NodeId::new(100));
        assert_eq!(t.peek(a(0)), Some(101 << FIRST), "alone, no owner");
        t.record_responder(a(0), NodeId::new(100));
        assert_eq!(t.peek(a(0)), Some(101 << FIRST | 101 << OWNER));
        t.record_requester(a(0), NodeId::new(7));
        t.record_responder(a(0), NodeId::new(127));
        assert_eq!(t.peek(a(0)), Some(MULTI | 101 << FIRST | 128 << OWNER));
    }

    #[test]
    #[should_panic(expected = "out of range for 8-node system")]
    fn recording_a_node_outside_the_system_panics() {
        PredictorTable::new(8).record_requester(a(0), NodeId::new(8));
    }
}
