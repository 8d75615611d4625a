//! Set-associative cache arrays with LRU replacement.

use crate::{BlockAddr, Chunked};

/// The shape of a cache: number of sets × associativity.
///
/// # Examples
///
/// ```
/// use patchsim_mem::CacheGeometry;
///
/// // The paper's 1MB 4-way private cache with 64-byte blocks:
/// let g = CacheGeometry::from_capacity(1 << 20, 64, 4);
/// assert_eq!(g.sets(), 4096);
/// assert_eq!(g.ways(), 4);
/// assert_eq!(g.blocks(), 16384);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    sets: u32,
    ways: u32,
}

impl CacheGeometry {
    /// Creates a geometry with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(sets > 0 && ways > 0, "cache dimensions must be positive");
        CacheGeometry { sets, ways }
    }

    /// Derives the geometry from a capacity in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not an exact multiple of
    /// `block_bytes × ways`.
    pub fn from_capacity(capacity_bytes: u64, block_bytes: u64, ways: u32) -> Self {
        assert!(block_bytes > 0 && ways > 0);
        let blocks = capacity_bytes / block_bytes;
        assert_eq!(
            blocks * block_bytes,
            capacity_bytes,
            "capacity must be a whole number of blocks"
        );
        let sets = blocks / ways as u64;
        assert_eq!(
            sets * ways as u64,
            blocks,
            "capacity must be a whole number of sets"
        );
        CacheGeometry::new(sets as u32, ways)
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Total block capacity.
    pub fn blocks(&self) -> u32 {
        self.sets * self.ways
    }

    fn set_of(&self, addr: BlockAddr) -> usize {
        (addr.raw() % self.sets as u64) as usize
    }
}

/// A victim displaced by [`CacheArray::insert`].
#[derive(Debug, PartialEq, Eq)]
pub struct Evicted<L> {
    /// The displaced block's address.
    pub addr: BlockAddr,
    /// The displaced block's coherence payload (tokens, dirty state, ...).
    pub payload: L,
}

/// A set-associative cache array with true-LRU replacement, generic over
/// the per-line coherence payload `L`.
///
/// The array tracks *which* blocks are resident and their payloads; it
/// stores no data bytes (patchsim is a timing simulator — block contents
/// are modelled as version numbers at the protocol layer).
///
/// # Host layout
///
/// Memory follows residency, not geometry and not history. Construction
/// allocates two per-set tables and nothing per way: one occupancy bit per
/// set, and `slot_of_set`, a `u32` per set that is 0 while the set holds
/// nothing. An [`insert`](CacheArray::insert) into an empty set gives it a
/// *slot* in two [`Chunked`] arrays — one holds a set's tags followed by
/// its LRU stamps, the other its payloads. A [`remove`](CacheArray::remove)
/// that empties a set takes the slot back: the set's entry returns to 0 and
/// the slot goes onto a free list. An insert into an empty set pops that
/// list first, last freed first — the slot likeliest to still be in the
/// host's caches — and only when it is empty hands out a new slot,
/// `materialised`, the high-water mark. Storage therefore holds as many
/// slots as sets were ever non-empty *at once*, not every set a run ever
/// filled. That matters under token coherence: a write collects every
/// token, which empties the block's set at every other node, so at any
/// moment most sets a node has filled are empty again. Storage comes in
/// chunks of 64 slots, allocated when their first slot is handed out and
/// never moved or freed, so growth copies no line. A simulated system keeps
/// one array per node and a run fills a sliver of each (150 of 4096 sets
/// per node on a 128-node mesh), so storage sized by geometry was most of
/// the simulator's resident set and nearly all of its construction time.
///
/// A freed slot keeps the tags `remove` parked in it, and nothing else: its
/// stamps are 0 and its payloads `None`, as in a slot never handed out, and
/// an empty way's tag is never trusted. So a recycled slot behaves exactly
/// like a fresh one — placement, LRU victims, `victim_for`, `iter` and
/// `len` cannot tell them apart.
///
/// A probe reads the set's occupancy bit and stops there if the set is
/// empty. Otherwise it reads the set's slot, then its tags — 32 contiguous
/// bytes at the paper's 4 ways, with the stamps in the 32 after them —
/// and touches the payloads only on a tag match. Most deliveries a
/// coherence controller sees are requests for blocks it does not hold, and
/// the arrays together are far larger than the host's caches, so every line
/// a miss does not touch is a host cache miss saved. The bits (512 B at the
/// paper's 4096 sets) stay host-cache resident at any node count.
///
/// Invariants: the non-zero values of `slot_of_set` are distinct, and
/// they (less one) and the entries of `free` together are exactly the
/// slots `0..materialised`, each once; both arrays have storage for those
/// slots. Way `w` of a slot is resident ⇔ its stamp is non-zero ⇔ its
/// payload is `Some`. A set has a slot ⇔ it has a resident way ⇔ bit `s`
/// of `occupied` is set, so the bit equals `slot_of_set[s] != 0`; a slot on
/// the free list has no resident way.
/// `lru_clock` is bumped before every stamp, so resident stamps are ≥ 1 and
/// distinct, and 0 marks an empty way. The tag of an empty way is never
/// trusted, which leaves every [`BlockAddr`] a legal key; `remove` only
/// makes it differ from the block that left.
///
/// # Examples
///
/// ```
/// use patchsim_mem::{BlockAddr, CacheArray, CacheGeometry};
///
/// let mut cache: CacheArray<u32> = CacheArray::new(CacheGeometry::new(2, 1));
/// assert!(cache.insert(BlockAddr::new(0), 10).is_none());
/// // Same set (addresses 0 and 2 both map to set 0 of 2): LRU evicts.
/// let victim = cache.insert(BlockAddr::new(2), 30).unwrap();
/// assert_eq!(victim.addr, BlockAddr::new(0));
/// assert_eq!(victim.payload, 10);
/// ```
#[derive(Debug)]
pub struct CacheArray<L> {
    geometry: CacheGeometry,
    occupied: Vec<u64>,
    slot_of_set: Vec<u32>,
    /// Slots taken back from emptied sets, the last freed on top.
    free: Vec<u32>,
    /// How many slots were ever handed out: the most sets that held
    /// something at once. Slots `0..materialised` have storage.
    materialised: u32,
    /// Per slot, the set's tags then its stamps.
    meta: Chunked<u64>,
    /// Per slot, the set's payloads.
    payloads: Chunked<Option<L>>,
    lru_clock: u64,
}

/// The way holding `addr` in a set with these tags and stamps.
fn way_of(tags: &[u64], stamps: &[u64], addr: BlockAddr) -> Option<usize> {
    let holds = |(&tag, &stamp): (&u64, &u64)| tag == addr.raw() && stamp != 0;
    tags.iter().zip(stamps).position(holds)
}

/// Where [`CacheArray::insert`] would put `addr` in a set: the way with the
/// smallest stamp, first on ties — the lowest-index empty way (stamp 0)
/// while the set has one, its LRU line otherwise — or `None` if `addr` is
/// resident. One pass over the set's tags and stamps.
fn placement(tags: &[u64], stamps: &[u64], addr: BlockAddr) -> Option<usize> {
    let mut target = 0;
    for (way, (&tag, &stamp)) in tags.iter().zip(stamps).enumerate() {
        if stamp != 0 && tag == addr.raw() {
            return None;
        }
        if stamp < stamps[target] {
            target = way;
        }
    }
    Some(target)
}

impl<L> CacheArray<L> {
    /// Creates an empty array with the given geometry. Allocates per set
    /// (an occupancy bit and a slot index), never per way.
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets() as usize;
        let ways = geometry.ways() as usize;
        CacheArray {
            geometry,
            occupied: vec![0; sets.div_ceil(64)],
            slot_of_set: vec![0; sets],
            free: Vec::new(),
            materialised: 0,
            meta: Chunked::new(2 * ways),
            payloads: Chunked::new(ways),
            lru_clock: 0,
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// `set`'s slot, if the set holds a line.
    fn slot_of(&self, set: usize) -> Option<usize> {
        Some(self.slot_of_set[set].checked_sub(1)? as usize)
    }

    /// The tags and the stamps of the set in `slot`.
    fn tags_and_stamps(&self, slot: usize) -> (&[u64], &[u64]) {
        self.meta[slot].split_at(self.geometry.ways as usize)
    }

    fn tags_and_stamps_mut(&mut self, slot: usize) -> (&mut [u64], &mut [u64]) {
        let ways = self.geometry.ways as usize;
        self.meta[slot].split_at_mut(ways)
    }

    /// The set `addr` maps to, if it holds anything: the occupancy test
    /// every probe starts with, and where most of them end.
    fn occupied_set(&self, addr: BlockAddr) -> Option<usize> {
        let set = self.geometry.set_of(addr);
        let occupied = self.occupied[set / 64] >> (set % 64) & 1 != 0;
        debug_assert_eq!(occupied, self.slot_of_set[set] != 0);
        occupied.then_some(set)
    }

    /// Looks up `addr` without updating recency.
    #[inline]
    pub fn peek(&self, addr: BlockAddr) -> Option<&L> {
        self.peek_in(self.occupied_set(addr)?, addr)
    }

    // What `peek` and `get_mut` do past the occupancy test — read the set's
    // slot, then its tags, then a stamp and the payload where a tag matches
    // — is kept out of line so that the test itself inlines into the
    // controllers: a probe that ends there should not pay for a call frame.
    #[inline(never)]
    fn peek_in(&self, set: usize, addr: BlockAddr) -> Option<&L> {
        let slot = self.slot_of(set).expect("an occupied set has a slot");
        let (tags, stamps) = self.tags_and_stamps(slot);
        let way = way_of(tags, stamps, addr)?;
        self.payloads[slot][way].as_ref()
    }

    /// Looks up `addr`, marking the line most-recently-used.
    #[inline]
    pub fn get_mut(&mut self, addr: BlockAddr) -> Option<&mut L> {
        self.lru_clock += 1;
        self.get_mut_in(self.occupied_set(addr)?, addr)
    }

    #[inline(never)]
    fn get_mut_in(&mut self, set: usize, addr: BlockAddr) -> Option<&mut L> {
        let slot = self.slot_of(set).expect("an occupied set has a slot");
        let now = self.lru_clock;
        let (tags, stamps) = self.tags_and_stamps_mut(slot);
        let way = way_of(tags, stamps, addr)?;
        stamps[way] = now;
        self.payloads[slot][way].as_mut()
    }

    /// Whether `addr` is resident.
    #[inline]
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.peek(addr).is_some()
    }

    /// Inserts `addr`, evicting the set's LRU line if the set is full.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is already resident — coherence controllers must
    /// update lines in place, never double-allocate.
    pub fn insert(&mut self, addr: BlockAddr, payload: L) -> Option<Evicted<L>> {
        let set = self.geometry.set_of(addr);
        let slot = self.slot_of(set).unwrap_or_else(|| self.open_slot(set));
        self.lru_clock += 1;
        let now = self.lru_clock;
        let (tags, stamps) = self.tags_and_stamps_mut(slot);
        let Some(way) = placement(tags, stamps, addr) else {
            panic!("block {addr} inserted while already resident");
        };
        stamps[way] = now;
        let old_addr = BlockAddr::new(std::mem::replace(&mut tags[way], addr.raw()));
        self.occupied[set / 64] |= 1 << (set % 64);
        let evicted = self.payloads[slot][way].replace(payload);
        evicted.map(|payload| Evicted {
            addr: old_addr,
            payload,
        })
    }

    /// Gives the empty `set` a slot: the last one freed, or else a new one.
    fn open_slot(&mut self, set: usize) -> usize {
        let slot = match self.free.pop() {
            Some(slot) => slot as usize,
            None => {
                let slot = self.materialised as usize;
                self.meta.touch(slot);
                self.payloads.touch(slot);
                self.materialised += 1;
                slot
            }
        };
        self.slot_of_set[set] = slot as u32 + 1;
        slot
    }

    /// The address that [`CacheArray::insert`] would evict to make room
    /// for `addr`, if the set is full.
    pub fn victim_for(&self, addr: BlockAddr) -> Option<BlockAddr> {
        let slot = self.slot_of(self.geometry.set_of(addr))?;
        let (tags, stamps) = self.tags_and_stamps(slot);
        let way = placement(tags, stamps, addr)?;
        (stamps[way] != 0).then(|| BlockAddr::new(tags[way]))
    }

    /// Removes `addr`, returning its payload.
    pub fn remove(&mut self, addr: BlockAddr) -> Option<L> {
        let set = self.occupied_set(addr)?;
        let slot = self.slot_of(set).expect("an occupied set has a slot");
        let (tags, stamps) = self.tags_and_stamps_mut(slot);
        let way = way_of(tags, stamps, addr)?;
        stamps[way] = 0;
        // A block just given away is the likeliest to be probed again (its
        // old holders keep seeing requests for it): make that probe fail on
        // the tag alone.
        tags[way] = !addr.raw();
        if stamps.iter().all(|&stamp| stamp == 0) {
            self.occupied[set / 64] &= !(1 << (set % 64));
            self.slot_of_set[set] = 0;
            self.free.push(slot as u32);
        }
        self.payloads[slot][way].take()
    }

    /// How many ways have storage: what the chunks allocated so far hold.
    #[cfg(test)]
    fn allocated_ways(&self) -> usize {
        assert_eq!(
            self.meta.allocated(),
            self.payloads.allocated(),
            "tags, stamps and payloads are allocated together"
        );
        self.payloads.allocated() * self.geometry.ways as usize
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        let slots = 0..self.materialised as usize;
        slots
            .flat_map(|slot| &self.payloads[slot])
            .flatten()
            .count()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.occupied.iter().all(|&sets| sets == 0)
    }

    /// Iterates over `(address, payload)` pairs in ascending line order
    /// (set-major, then way), whatever order the sets were first filled in.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &L)> {
        (0..self.slot_of_set.len())
            .filter_map(|set| self.slot_of(set))
            .flat_map(|slot| self.meta[slot].iter().zip(&self.payloads[slot]))
            .filter_map(|(&tag, payload)| Some((BlockAddr::new(tag), payload.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patchsim_kernel::SimRng;

    fn a(n: u64) -> BlockAddr {
        BlockAddr::new(n)
    }

    #[test]
    fn from_capacity_computes_paper_geometries() {
        // 64KB L1, 64B blocks, 4-way -> 256 sets.
        let l1 = CacheGeometry::from_capacity(64 << 10, 64, 4);
        assert_eq!((l1.sets(), l1.ways()), (256, 4));
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn from_capacity_rejects_ragged_sizes() {
        CacheGeometry::from_capacity(100, 64, 4);
    }

    #[test]
    fn hit_and_miss() {
        let mut c = CacheArray::new(CacheGeometry::new(4, 2));
        assert!(c.insert(a(1), "one").is_none());
        assert_eq!(c.peek(a(1)), Some(&"one"));
        assert_eq!(c.peek(a(2)), None);
        assert!(c.contains(a(1)));
        *c.get_mut(a(1)).unwrap() = "uno";
        assert_eq!(c.peek(a(1)), Some(&"uno"));
    }

    #[test]
    fn lru_eviction_order() {
        // One set, two ways; addresses 0, 4, 8 all map to set 0 of 4.
        let mut c = CacheArray::new(CacheGeometry::new(4, 2));
        c.insert(a(0), 0);
        c.insert(a(4), 4);
        // Touch 0 so 4 becomes LRU.
        c.get_mut(a(0));
        let v = c.insert(a(8), 8).unwrap();
        assert_eq!(v.addr, a(4));
        assert!(c.contains(a(0)) && c.contains(a(8)));
    }

    #[test]
    fn victim_for_predicts_eviction() {
        let mut c = CacheArray::new(CacheGeometry::new(1, 2));
        assert_eq!(c.victim_for(a(0)), None, "empty set needs no victim");
        c.insert(a(0), ());
        c.insert(a(1), ());
        assert_eq!(c.victim_for(a(0)), None, "resident block needs no victim");
        let predicted = c.victim_for(a(2)).unwrap();
        let actual = c.insert(a(2), ()).unwrap().addr;
        assert_eq!(predicted, actual);
    }

    #[test]
    fn remove_frees_the_way() {
        let mut c = CacheArray::new(CacheGeometry::new(1, 1));
        c.insert(a(3), ());
        assert_eq!(c.remove(a(3)), Some(()));
        assert_eq!(c.remove(a(3)), None);
        assert!(
            c.insert(a(5), ()).is_none(),
            "freed way accepts a new block"
        );
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_insert_panics() {
        let mut c = CacheArray::new(CacheGeometry::new(1, 2));
        c.insert(a(3), ());
        c.insert(a(3), ());
    }

    #[test]
    fn len_and_iter() {
        let mut c = CacheArray::new(CacheGeometry::new(4, 2));
        assert!(c.is_empty());
        c.insert(a(0), 0);
        c.insert(a(1), 1);
        c.insert(a(2), 2);
        assert_eq!(c.len(), 3);
        let mut got: Vec<u64> = c.iter().map(|(addr, _)| addr.raw()).collect();
        got.sort();
        assert_eq!(got, vec![0, 1, 2]);
    }

    /// The cache never holds more blocks than its capacity, never holds
    /// duplicates, and every resident block was inserted and not yet
    /// evicted/removed. Randomised over 256 seeded op sequences.
    #[test]
    fn capacity_and_uniqueness() {
        let mut rng = SimRng::from_seed(0xCACE);
        for _ in 0..256 {
            let len = 1 + rng.below(199) as usize;
            let mut c = CacheArray::new(CacheGeometry::new(4, 2));
            let mut resident = std::collections::BTreeSet::new();
            for _ in 0..len {
                let addr = a(rng.below(64));
                let is_insert = rng.chance(0.5);
                if is_insert && !c.contains(addr) {
                    if let Some(ev) = c.insert(addr, ()) {
                        assert!(resident.remove(&ev.addr.raw()));
                    }
                    resident.insert(addr.raw());
                } else if !is_insert {
                    let was = c.remove(addr).is_some();
                    assert_eq!(was, resident.remove(&addr.raw()));
                }
                assert!(c.len() <= 8);
                assert_eq!(c.len(), resident.len());
                for r in &resident {
                    assert!(c.contains(a(*r)));
                }
            }
        }
    }

    /// The one-array-of-lines implementation this module had before the
    /// tag/stamp/payload split, kept as the behavioural reference.
    mod oracle {
        use super::super::{CacheGeometry, Evicted};
        use crate::BlockAddr;

        struct Line<L> {
            addr: BlockAddr,
            last_use: u64,
            payload: L,
        }

        pub struct LineArray<L> {
            geometry: CacheGeometry,
            lines: Vec<Option<Line<L>>>,
            lru_clock: u64,
        }

        impl<L> LineArray<L> {
            pub fn new(geometry: CacheGeometry) -> Self {
                let mut lines = Vec::new();
                lines.resize_with(geometry.blocks() as usize, || None);
                LineArray {
                    geometry,
                    lines,
                    lru_clock: 0,
                }
            }

            fn set_range(&self, addr: BlockAddr) -> std::ops::Range<usize> {
                let set = self.geometry.set_of(addr);
                let ways = self.geometry.ways as usize;
                set * ways..(set + 1) * ways
            }

            #[inline]
            pub fn peek(&self, addr: BlockAddr) -> Option<&L> {
                self.lines[self.set_range(addr)]
                    .iter()
                    .flatten()
                    .find(|l| l.addr == addr)
                    .map(|l| &l.payload)
            }

            #[inline]
            pub fn get_mut(&mut self, addr: BlockAddr) -> Option<&mut L> {
                self.lru_clock += 1;
                let clock = self.lru_clock;
                let range = self.set_range(addr);
                self.lines[range]
                    .iter_mut()
                    .flatten()
                    .find(|l| l.addr == addr)
                    .map(|l| {
                        l.last_use = clock;
                        &mut l.payload
                    })
            }

            #[inline]
            pub fn contains(&self, addr: BlockAddr) -> bool {
                self.peek(addr).is_some()
            }

            pub fn insert(&mut self, addr: BlockAddr, payload: L) -> Option<Evicted<L>> {
                assert!(
                    !self.contains(addr),
                    "block {addr} inserted while already resident"
                );
                self.lru_clock += 1;
                let clock = self.lru_clock;
                let range = self.set_range(addr);
                let set = &mut self.lines[range];
                let new_line = Line {
                    addr,
                    last_use: clock,
                    payload,
                };
                if let Some(slot) = set.iter_mut().find(|s| s.is_none()) {
                    *slot = Some(new_line);
                    return None;
                }
                let victim_idx = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.as_ref().map(|l| l.last_use))
                    .map(|(i, _)| i)
                    .expect("ways > 0");
                let old = set[victim_idx].replace(new_line).expect("set was full");
                Some(Evicted {
                    addr: old.addr,
                    payload: old.payload,
                })
            }

            pub fn victim_for(&self, addr: BlockAddr) -> Option<BlockAddr> {
                if self.contains(addr) {
                    return None;
                }
                let set = &self.lines[self.set_range(addr)];
                if set.iter().any(|s| s.is_none()) {
                    return None;
                }
                set.iter()
                    .flatten()
                    .min_by_key(|l| l.last_use)
                    .map(|l| l.addr)
            }

            pub fn remove(&mut self, addr: BlockAddr) -> Option<L> {
                let range = self.set_range(addr);
                for slot in self.lines[range].iter_mut() {
                    if slot.as_ref().is_some_and(|l| l.addr == addr) {
                        return slot.take().map(|l| l.payload);
                    }
                }
                None
            }

            pub fn len(&self) -> usize {
                self.lines.iter().flatten().count()
            }

            pub fn is_empty(&self) -> bool {
                self.lines.iter().all(|l| l.is_none())
            }

            pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &L)> {
                self.lines.iter().flatten().map(|l| (l.addr, &l.payload))
            }
        }
    }

    /// Every operation returns what the reference returns — payloads,
    /// eviction victims in order, `victim_for` predictions, `len`, and the
    /// `iter` sequence — over 256 seeded op sequences on six geometries (two
    /// with a non-power-of-two associativity) and an address pool that
    /// collides in a few sets and includes 0, `u64::MAX` and a complement
    /// pair per set. Every case starts by probing sets nothing touched yet;
    /// the larger geometries then fill 140 sets in a scrambled order, so the
    /// 65th and the 129th set to be touched open a chunk of their own, empty
    /// all 140 and refill them with other blocks in the same order — each
    /// set on a slot another set gave back — and keep operating on all of
    /// them.
    #[test]
    fn matches_line_array_oracle() {
        const GEOMETRIES: [(u32, u32); 6] = [(1, 1), (1, 4), (4, 2), (3, 5), (4096, 4), (200, 3)];
        let mut rng = SimRng::from_seed(0xD1FF);
        let (mut evictions, mut hits, mut extremes, mut refills) = (0, 0, 0, 0);
        let mut recycled = 0;
        for case in 0..256 {
            let (sets, ways) = GEOMETRIES[case % GEOMETRIES.len()];
            let geometry = CacheGeometry::new(sets, ways);
            let mut pool = vec![0, 1, u64::MAX - 1, u64::MAX];
            for set in [0, 1 % sets, sets - 1] {
                for k in 0..ways + 3 {
                    let raw = (set + k * sets) as u64;
                    pool.extend([raw, !raw]);
                }
            }
            // 37 is coprime to both set counts: 140 distinct sets, neither
            // ascending nor descending.
            let scrambled: Vec<u64> = (0..140)
                .filter(|_| sets >= 200)
                .map(|k| u64::from((k * 37 + 11) % sets))
                .collect();
            for &set in &scrambled {
                pool.extend([set, set + u64::from(sets)]);
            }
            let mut new = CacheArray::new(geometry);
            let mut old = oracle::LineArray::new(geometry);
            // Resident blocks per set that was ever filled.
            let mut filled = std::collections::BTreeMap::new();
            let probed: Vec<u64> = pool.iter().copied().step_by(7).collect();
            let never_touched = probed
                .iter()
                .flat_map(|&raw| (1..6).map(move |kind| (raw, kind)));
            let fill = scrambled.iter().map(|&raw| (raw, 0));
            let empty = scrambled.iter().map(|&raw| (raw, 3));
            let refill = scrambled.iter().map(|&raw| (raw + u64::from(sets), 0));
            let churned = 5 * probed.len() + 3 * scrambled.len();
            // The most sets non-empty at once so far.
            let mut peak = 0;
            let ops = 1 + rng.below(299);
            let random: Vec<_> = (0..ops)
                .map(|_| (pool[rng.below(pool.len() as u64) as usize], rng.below(6)))
                .collect();
            let script = never_touched.chain(fill).chain(empty).chain(refill);
            for (op, (raw, kind)) in script.chain(random).enumerate() {
                let addr = a(raw);
                match kind {
                    0 if !old.contains(addr) => {
                        let payload = ((case as u64) << 32) | op as u64;
                        let free = new.free.len();
                        let victim = new.insert(addr, payload);
                        assert_eq!(victim, old.insert(addr, payload));
                        recycled += (new.free.len() < free) as u32;
                        evictions += victim.is_some() as u32;
                        extremes += (raw == 0 || raw == u64::MAX) as u32;
                        let set = geometry.set_of(addr);
                        refills += (filled.get(&set) == Some(&0)) as u32;
                        *filled.entry(set).or_insert(0) += victim.is_none() as usize;
                        peak = peak.max(filled.values().filter(|&&n| n > 0).count());
                    }
                    1 => {
                        let (n, o) = (new.get_mut(addr), old.get_mut(addr));
                        assert_eq!(n, o);
                        if let (Some(n), Some(o)) = (n, o) {
                            *n ^= 1;
                            *o ^= 1;
                            hits += 1;
                        }
                    }
                    2 => assert_eq!(new.peek(addr), old.peek(addr)),
                    3 => {
                        let removed = new.remove(addr);
                        assert_eq!(removed, old.remove(addr));
                        if removed.is_some() {
                            *filled.get_mut(&geometry.set_of(addr)).unwrap() -= 1;
                        }
                    }
                    4 => assert_eq!(new.victim_for(addr), old.victim_for(addr)),
                    _ => assert_eq!(new.contains(addr), old.contains(addr)),
                }
                assert_eq!(new.is_empty(), old.is_empty());
                // The full scans are too slow to repeat per op on 16k lines.
                if sets < 4096 {
                    assert_eq!(new.len(), old.len());
                    assert!(new.iter().eq(old.iter()));
                }
                if op + 1 == 5 * probed.len() + scrambled.len() && !scrambled.is_empty() {
                    assert_eq!(new.allocated_ways(), 3 * 64 * ways as usize);
                }
                if op + 1 == churned && !scrambled.is_empty() {
                    assert_eq!(new.allocated_ways(), 3 * 64 * ways as usize);
                    assert_eq!((new.len(), new.free.len()), (140, 0));
                }
            }
            assert_eq!(new.len(), old.len());
            assert!(new.iter().eq(old.iter()));
            assert_eq!(new.allocated_ways(), peak.div_ceil(64) * 64 * ways as usize);
        }
        // Vacuity guards: the sequences did reach the interesting paths.
        assert!(evictions > 500 && hits > 500 && extremes > 50 && refills > 50);
        assert!(recycled > 10_000, "{recycled} slots recycled");
    }

    /// Memory follows residency: construction allocates no per-way storage
    /// whatever the geometry, lookups never allocate, and under inserts,
    /// removals, re-inserts and evictions in any order exactly
    /// `ceil(peak / 64)` chunks of 64 sets' ways exist, where `peak` is the
    /// most sets that held a block at once so far.
    #[test]
    fn storage_follows_first_touch() {
        let paper = CacheGeometry::from_capacity(1 << 20, 64, 4);
        assert_eq!(CacheArray::<u64>::new(paper).allocated_ways(), 0);
        let mut rng = SimRng::from_seed(0xF1257);
        for (sets, ways) in [(4096, 4), (200, 3), (64, 1), (1, 2)] {
            let mut c = CacheArray::new(CacheGeometry::new(sets, ways));
            let set_of = |addr: BlockAddr| addr.raw() % u64::from(sets);
            // Resident blocks per non-empty set.
            let mut resident = std::collections::BTreeMap::new();
            let leave = |resident: &mut std::collections::BTreeMap<u64, u32>, set| {
                let left = resident.get_mut(&set).expect("a resident block's set");
                *left -= 1;
                if *left == 0 {
                    resident.remove(&set);
                }
            };
            let (mut peak, mut emptied) = (0, 0);
            for op in 0..2000 {
                let addr = a(rng.below(8 * u64::from(sets)));
                match rng.below(4) {
                    0 if !c.contains(addr) => {
                        if let Some(victim) = c.insert(addr, op) {
                            leave(&mut resident, set_of(victim.addr));
                        }
                        *resident.entry(set_of(addr)).or_insert(0) += 1;
                    }
                    1 => {
                        if c.remove(addr).is_some() {
                            leave(&mut resident, set_of(addr));
                            emptied += !resident.contains_key(&set_of(addr)) as u32;
                        }
                    }
                    2 => drop(c.get_mut(addr)),
                    _ => drop((c.peek(addr), c.victim_for(addr))),
                }
                peak = peak.max(resident.len());
                assert_eq!(c.allocated_ways(), peak.div_ceil(64) * 64 * ways as usize);
            }
            let vacuous = peak <= 128 && peak * 2 <= sets as usize;
            assert!(!vacuous, "too few sets at once: {sets}");
            assert!(emptied > 0, "no set emptied: {sets}");
        }
    }

    /// Sets that empty hand their slots to sets that fill later, and the
    /// new owner sees nothing of the old: after sets A are filled and
    /// emptied, filling as many other sets B opens no chunk, and no probe
    /// of B finds A's blocks or the complements `remove` parked in the
    /// recycled tags. With 128 sets the complement of a block in set `s`
    /// maps to set `127 - s`, and the free list is LIFO, so each B set
    /// receives exactly the slot whose parked tags name its own blocks.
    #[test]
    fn emptied_slot_is_recycled_without_leaking() {
        let mut c = CacheArray::new(CacheGeometry::new(128, 2));
        let old: Vec<u64> = (0..64).flat_map(|set| [set, set + 128]).collect();
        for &raw in &old {
            assert!(c.insert(a(raw), raw).is_none());
        }
        let slots: Vec<_> = (0..64).map(|set| c.slot_of(set)).collect();
        for &raw in &old {
            assert_eq!(c.remove(a(raw)), Some(raw));
        }
        assert!(c.is_empty() && c.iter().next().is_none());
        assert_eq!(c.len(), 0);
        for set in 64..128 {
            assert!(c.insert(a(set), 1000 + set).is_none());
        }
        assert_eq!(c.allocated_ways(), 64 * 2, "B reused A's slots");
        for (set, &slot) in slots.iter().enumerate() {
            assert_eq!(c.slot_of(127 - set), slot, "last freed, first reused");
        }
        for raw in old.iter().flat_map(|&raw| [raw, !raw]) {
            assert!(!c.contains(a(raw)) && c.peek(a(raw)).is_none());
            assert!(c.get_mut(a(raw)).is_none());
            assert_eq!(c.victim_for(a(raw)), None, "B's sets have a free way");
        }
        assert_eq!(c.len(), 64);
        let b = (64..128).map(|set| (a(set), 1000 + set));
        assert!(c.iter().map(|(addr, &payload)| (addr, payload)).eq(b));
        for set in 0..64 {
            // Set `127 - set` still has the complement of block `set + 128`
            // parked in its free way; it goes in as an ordinary block.
            let parked = !(set + 128);
            assert!(c.insert(a(parked), parked).is_none());
        }
        assert_eq!(c.len(), 128);
        assert_eq!(c.allocated_ways(), 64 * 2);
        let victim = c.insert(a(127 + 128 * 2), 0).map(|v| (v.addr, v.payload));
        assert_eq!(victim, Some((a(127), 1127)), "LRU is B's own block");
    }

    /// A set emptied by `remove` gets its slot back from the free list,
    /// last freed first: refilling it allocates nothing, and what `remove`
    /// parked in its tags is never trusted.
    #[test]
    fn emptied_set_is_refilled_in_place() {
        let mut c = CacheArray::new(CacheGeometry::new(128, 2));
        for set in 0..64 {
            c.insert(a(set), set);
        }
        assert_eq!(c.allocated_ways(), 64 * 2);
        let slot = c.slot_of(5);
        assert_eq!(c.remove(a(5)), Some(5));
        assert_eq!((c.slot_of(5), c.free.as_slice()), (None, &[5][..]));
        assert_eq!(c.victim_for(a(5)), None);
        assert!(!c.contains(a(5)) && !c.contains(a(!5)) && c.peek(a(133)).is_none());
        assert!(
            c.insert(a(133), 133).is_none(),
            "set 5 again, another block"
        );
        assert!(c.insert(a(5), 5).is_none());
        assert_eq!(c.slot_of(5), slot, "set 5 got its slot back");
        assert_eq!(c.allocated_ways(), 64 * 2);
        assert_eq!(c.insert(a(261), 261).map(|v| v.addr), Some(a(133)));
        c.insert(a(64), 64);
        assert_eq!(c.allocated_ways(), 2 * 64 * 2, "the 65th set opens a chunk");
        assert_eq!(c.len(), 66);
    }

    /// A removed block's way is reusable by any address, including the one
    /// `remove` parks in its tag, while a neighbour keeps the set occupied.
    #[test]
    fn removed_tag_is_never_trusted() {
        let mut c = CacheArray::new(CacheGeometry::new(1, 2));
        c.insert(a(7), "seven");
        c.insert(a(8), "eight");
        assert_eq!(c.remove(a(7)), Some("seven"));
        for addr in [a(7), a(!7), a(0), a(u64::MAX)] {
            assert!(!c.contains(addr) && c.peek(addr).is_none() && c.get_mut(addr).is_none());
            assert_eq!(c.victim_for(addr), None, "way 0 is free");
        }
        assert_eq!(c.len(), 1);
        assert!(c.insert(a(!7), "complement").is_none());
        assert_eq!(c.peek(a(!7)), Some(&"complement"));
        assert!(!c.contains(a(7)));
        assert_eq!(c.remove(a(8)), Some("eight"));
        assert_eq!(c.remove(a(!7)), Some("complement"));
        assert!(c.is_empty() && !c.contains(a(8)));
    }
}
