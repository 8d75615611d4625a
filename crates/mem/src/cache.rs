//! Set-associative cache arrays with LRU replacement.

use std::fmt;

use crate::BlockAddr;

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
/// Three parallel per-way arrays, the ways of one set adjacent in each
/// (`set * ways .. (set + 1) * ways`) — block tags, LRU stamps, payloads —
/// and one occupancy bit per set. A probe that misses reads the set's bit
/// and, if the set holds anything, its tags — 32 contiguous bytes at the
/// paper's 4 ways — and nothing else; stamps and payloads are touched
/// only on a tag match. Most deliveries a coherence controller sees are
/// requests for blocks it does not hold, and a simulated system keeps one
/// array per node, together far larger than the host's caches, so every
/// line a miss does not touch is a host cache miss saved. The bits (512 B
/// at the paper's 4096 sets) stay host-cache resident at any node count.
///
/// Invariants: way `i` is resident ⇔ `last_use[i] != 0` ⇔
/// `payloads[i].is_some()`; bit `s` of `occupied` is set ⇔ set `s` has a
/// resident way. `lru_clock` is bumped before every stamp, so resident
/// stamps are ≥ 1 and distinct, and 0 marks an empty way. The tag of an
/// empty way is never trusted, which leaves every [`BlockAddr`] a legal
/// key; `remove` only makes it differ from the block that left.
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
    tags: Vec<u64>,
    last_use: Vec<u64>,
    payloads: Vec<Option<L>>,
    occupied: Vec<u64>,
    lru_clock: u64,
}

impl<L> CacheArray<L> {
    /// Creates an empty array with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        let blocks = geometry.blocks() as usize;
        let mut payloads = Vec::new();
        payloads.resize_with(blocks, || None);
        CacheArray {
            geometry,
            tags: vec![0; blocks],
            last_use: vec![0; blocks],
            payloads,
            occupied: vec![0; (geometry.sets() as usize).div_ceil(64)],
            lru_clock: 0,
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    fn ways_of(&self, set: usize) -> std::ops::Range<usize> {
        let ways = self.geometry.ways as usize;
        set * ways..(set + 1) * ways
    }

    /// The way holding `addr`. Reads the set's occupancy bit, its tags if
    /// it holds anything, and a stamp only where a tag matches.
    fn way_of(&self, addr: BlockAddr) -> Option<usize> {
        let set = self.geometry.set_of(addr);
        if self.occupied[set / 64] >> (set % 64) & 1 == 0 {
            return None;
        }
        let range = self.ways_of(set);
        let base = range.start;
        self.tags[range]
            .iter()
            .enumerate()
            .find(|&(w, &tag)| tag == addr.raw() && self.last_use[base + w] != 0)
            .map(|(w, _)| base + w)
    }

    /// Where [`CacheArray::insert`] would put `addr` in its set: the way with
    /// the smallest stamp, first on ties — the lowest-index empty way (stamp
    /// 0) while the set has one, its LRU line otherwise — or `None` if
    /// `addr` is resident. One pass over the set's tags and stamps.
    fn placement(&self, set: usize, addr: BlockAddr) -> Option<usize> {
        let range = self.ways_of(set);
        let mut target = range.start;
        for i in range {
            let stamp = self.last_use[i];
            if stamp != 0 && self.tags[i] == addr.raw() {
                return None;
            }
            if stamp < self.last_use[target] {
                target = i;
            }
        }
        Some(target)
    }

    /// Looks up `addr` without updating recency.
    pub fn peek(&self, addr: BlockAddr) -> Option<&L> {
        self.payloads[self.way_of(addr)?].as_ref()
    }

    /// Looks up `addr`, marking the line most-recently-used.
    pub fn get_mut(&mut self, addr: BlockAddr) -> Option<&mut L> {
        self.lru_clock += 1;
        let way = self.way_of(addr)?;
        self.last_use[way] = self.lru_clock;
        self.payloads[way].as_mut()
    }

    /// Whether `addr` is resident.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.way_of(addr).is_some()
    }

    /// Inserts `addr`, evicting the set's LRU line if the set is full.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is already resident — coherence controllers must
    /// update lines in place, never double-allocate.
    pub fn insert(&mut self, addr: BlockAddr, payload: L) -> Option<Evicted<L>> {
        let set = self.geometry.set_of(addr);
        let Some(way) = self.placement(set, addr) else {
            panic!("block {addr} inserted while already resident");
        };
        self.lru_clock += 1;
        self.last_use[way] = self.lru_clock;
        self.occupied[set / 64] |= 1 << (set % 64);
        let old_addr = BlockAddr::new(std::mem::replace(&mut self.tags[way], addr.raw()));
        self.payloads[way].replace(payload).map(|payload| Evicted {
            addr: old_addr,
            payload,
        })
    }

    /// The address that [`CacheArray::insert`] would evict to make room
    /// for `addr`, if the set is full.
    pub fn victim_for(&self, addr: BlockAddr) -> Option<BlockAddr> {
        let way = self.placement(self.geometry.set_of(addr), addr)?;
        (self.last_use[way] != 0).then(|| BlockAddr::new(self.tags[way]))
    }

    /// Removes `addr`, returning its payload.
    pub fn remove(&mut self, addr: BlockAddr) -> Option<L> {
        let way = self.way_of(addr)?;
        self.last_use[way] = 0;
        // A block just given away is the likeliest to be probed again (its
        // old holders keep seeing requests for it): make that probe fail on
        // the tag alone.
        self.tags[way] = !addr.raw();
        let set = self.geometry.set_of(addr);
        if self.last_use[self.ways_of(set)]
            .iter()
            .all(|&stamp| stamp == 0)
        {
            self.occupied[set / 64] &= !(1 << (set % 64));
        }
        self.payloads[way].take()
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.last_use.iter().filter(|&&stamp| stamp != 0).count()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.occupied.iter().all(|&sets| sets == 0)
    }

    /// Iterates over `(address, payload)` pairs in ascending line order
    /// (set-major, then way).
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &L)> {
        self.tags
            .iter()
            .zip(&self.payloads)
            .filter_map(|(&tag, payload)| Some((BlockAddr::new(tag), payload.as_ref()?)))
    }

    /// Iterates mutably over `(address, payload)` pairs.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (BlockAddr, &mut L)> {
        self.tags
            .iter()
            .zip(&mut self.payloads)
            .filter_map(|(&tag, payload)| Some((BlockAddr::new(tag), payload.as_mut()?)))
    }
}

impl<L> fmt::Display for CacheArray<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache {}x{} ({} resident)",
            self.geometry.sets,
            self.geometry.ways,
            self.len()
        )
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

    #[test]
    fn iter_mut_updates_payloads() {
        let mut c = CacheArray::new(CacheGeometry::new(2, 1));
        c.insert(a(0), 1);
        c.insert(a(1), 2);
        for (_, p) in c.iter_mut() {
            *p *= 10;
        }
        assert_eq!(c.peek(a(0)), Some(&10));
        assert_eq!(c.peek(a(1)), Some(&20));
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

            pub fn peek(&self, addr: BlockAddr) -> Option<&L> {
                self.lines[self.set_range(addr)]
                    .iter()
                    .flatten()
                    .find(|l| l.addr == addr)
                    .map(|l| &l.payload)
            }

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
    /// `iter` sequence — over 256 seeded op sequences on five geometries
    /// (one non-power-of-two) and an address pool that collides in a few
    /// sets and includes 0, `u64::MAX` and a complement pair per set.
    #[test]
    fn matches_line_array_oracle() {
        const GEOMETRIES: [(u32, u32); 5] = [(1, 1), (1, 4), (4, 2), (3, 5), (4096, 4)];
        let mut rng = SimRng::from_seed(0xD1FF);
        let (mut evictions, mut hits, mut extremes) = (0, 0, 0);
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
            let mut new = CacheArray::new(geometry);
            let mut old = oracle::LineArray::new(geometry);
            for op in 0..(1 + rng.below(299)) {
                let addr = a(pool[rng.below(pool.len() as u64) as usize]);
                match rng.below(6) {
                    0 if !old.contains(addr) => {
                        let payload = ((case as u64) << 32) | op;
                        let victim = new.insert(addr, payload);
                        assert_eq!(victim, old.insert(addr, payload));
                        evictions += victim.is_some() as u32;
                        extremes += (addr.raw() == 0 || addr.raw() == u64::MAX) as u32;
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
                    3 => assert_eq!(new.remove(addr), old.remove(addr)),
                    4 => assert_eq!(new.victim_for(addr), old.victim_for(addr)),
                    _ => assert_eq!(new.contains(addr), old.contains(addr)),
                }
                assert_eq!(new.len(), old.len());
                assert_eq!(new.is_empty(), old.is_empty());
                // The full scan is too slow to repeat per op on 16k lines.
                if sets < 4096 {
                    assert!(new.iter().eq(old.iter()));
                }
            }
            assert!(new.iter().eq(old.iter()));
            assert!(new.iter_mut().map(|(addr, p)| (addr, &*p)).eq(old.iter()));
        }
        // Vacuity guards: the sequences did reach the interesting paths.
        assert!(evictions > 500 && hits > 500 && extremes > 50);
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
