//! Directory sharer encodings: exact full-map and inexact alternatives.
//!
//! A full-map bit vector (one bit per core) becomes too much directory
//! state as core counts grow, so large systems use *inexact* encodings —
//! conservative over-approximations of the sharer set. The paper's
//! Figures 9 and 10 sweep a coarse bit vector that maps one bit to `K`
//! cores (`K = 1` is a full map; `K = N` is a single bit meaning
//! "somebody may share this"). The owner is always recorded precisely,
//! which keeps read requests exact. As an extension, the classic
//! limited-pointer scheme (Dir<sub>i</sub>B) is also provided: `i` exact
//! pointers that degrade to broadcast on overflow.
//!
//! Inexactness has two sources, both modelled here:
//!
//! 1. **Rounding/overflow**: a coarse bit implicates its whole `K`-core
//!    group; an overflowed pointer set implicates everyone.
//! 2. **Staleness**: individual departures (evictions) cannot always be
//!    removed, so stale sharers accumulate until a write resets the set.
//!
//! On the host every encoding is the same thing: one bit per `K`-core
//! group, packed into [`SharerEncoding::words`] `u64` words that the caller
//! owns — a directory keeps one such record per block, all of one length —
//! and a [`SharerSet`] is a view of one record under the system's node
//! count and encoding. What an entry would cost in directory bits is
//! [`SharerEncoding::bits_per_entry`].

use std::fmt;

use patchsim_noc::{DestSet, NodeId};

/// Which sharer-set representation the directory uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SharerEncoding {
    /// One bit per core: exact.
    FullMap,
    /// One bit per `cores_per_bit` consecutive cores: a conservative
    /// over-approximation for `cores_per_bit > 1`.
    Coarse {
        /// Number of cores each bit stands for (`K` in the paper's
        /// Figure 9; must be ≥ 1).
        cores_per_bit: u16,
    },
    /// Up to `pointers` exact sharer pointers; inserting more overflows
    /// the entry to "everyone may share" (Dir<sub>i</sub>B). An extension
    /// beyond the paper's sweep.
    LimitedPointer {
        /// Number of exact pointers per entry (must be ≥ 1).
        pointers: u16,
    },
}

impl SharerEncoding {
    /// The coarse group size `K` (1 for exact encodings).
    pub fn cores_per_bit(self) -> u16 {
        match self {
            SharerEncoding::FullMap => 1,
            SharerEncoding::Coarse { cores_per_bit } => cores_per_bit,
            SharerEncoding::LimitedPointer { .. } => 1,
        }
    }

    /// The host words one sharer set of `num_nodes` nodes takes under this
    /// encoding: one bit per group of [`cores_per_bit`](Self::cores_per_bit)
    /// nodes, 64 to a word.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero or the encoding's parameter is zero.
    pub fn words(self, num_nodes: u16) -> usize {
        assert!(num_nodes > 0, "a system needs at least one node");
        assert!(
            !matches!(self, SharerEncoding::LimitedPointer { pointers: 0 }),
            "at least one pointer required"
        );
        let k = self.cores_per_bit();
        assert!(k > 0, "group size must be at least 1");
        num_nodes.div_ceil(k).div_ceil(64) as usize
    }

    /// Directory state cost of this encoding in bits per entry of a
    /// `num_nodes`-node system (excluding the exact owner pointer).
    pub fn bits_per_entry(self, num_nodes: u16) -> u32 {
        match self {
            SharerEncoding::LimitedPointer { pointers } => {
                let ptr_bits = (num_nodes as u32).next_power_of_two().trailing_zeros();
                pointers as u32 * ptr_bits.max(1) + 1 // +1 overflow bit
            }
            _ => (num_nodes as u32).div_ceil(self.cores_per_bit() as u32),
        }
    }
}

impl fmt::Display for SharerEncoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SharerEncoding::LimitedPointer { pointers } => write!(f, "ptr({pointers})"),
            _ => match self.cores_per_bit() {
                1 => f.write_str("full-map"),
                k => write!(f, "coarse(K={k})"),
            },
        }
    }
}

/// A directory entry's sharer set: a view of its bit words under the
/// system's node count and encoding.
///
/// Bit `g` of the words stands for group `g`, nodes `g·K .. (g+1)·K`: the
/// nodes themselves under a full map and under limited pointers (where the
/// set bits are the pointed-to nodes), `K`-node groups under a coarse
/// vector. An overflowed limited-pointer entry sets every node's bit. No
/// entry within its limit can look like that — it has at most `pointers`
/// bits set, and overflow needs more nodes than pointers — so "more bits
/// than pointers" *is* the overflow flag, and the words need no spare bit.
///
/// `W` is the storage viewed: `&[u64]` to read, `&mut [u64]` (or an owned
/// array) to update as well. All-zero words are the empty set.
///
/// # Examples
///
/// ```
/// use patchsim_mem::{SharerEncoding, SharerSet};
/// use patchsim_noc::NodeId;
///
/// let coarse = SharerEncoding::Coarse { cores_per_bit: 4 };
/// let mut words = vec![0; coarse.words(64)];
/// let mut s = SharerSet::new(64, coarse, &mut words[..]);
/// s.insert(NodeId::new(5));
/// // Node 5's whole group {4,5,6,7} is implicated:
/// assert_eq!(s.members().len(), 4);
/// assert!(s.may_contain(NodeId::new(6)));
/// assert_eq!(words, [0b10], "one bit, for group 1");
///
/// let mut p = SharerSet::new(64, SharerEncoding::LimitedPointer { pointers: 2 }, [0]);
/// p.insert(NodeId::new(1));
/// p.insert(NodeId::new(2));
/// assert_eq!(p.members().len(), 2);      // exact while within the limit
/// p.insert(NodeId::new(3));
/// assert_eq!(p.members().len(), 64);     // overflow: broadcast
/// ```
pub struct SharerSet<W> {
    num_nodes: u16,
    /// Never `Coarse { cores_per_bit: 1 }`: that is viewed as `FullMap`.
    encoding: SharerEncoding,
    words: W,
}

impl<W: AsRef<[u64]>> SharerSet<W> {
    /// Views `words` as the sharer set of a `num_nodes`-node system under
    /// `encoding`. The words must be zero or written through a view of the
    /// same shape.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero, the encoding's parameter is zero, or
    /// `words` is not [`SharerEncoding::words`] long.
    pub fn new(num_nodes: u16, encoding: SharerEncoding, words: W) -> Self {
        let len = encoding.words(num_nodes);
        assert_eq!(
            words.as_ref().len(),
            len,
            "a {encoding} set of {num_nodes} nodes takes {len} words"
        );
        let encoding = match encoding {
            SharerEncoding::Coarse { cores_per_bit: 1 } => SharerEncoding::FullMap,
            _ => encoding,
        };
        SharerSet {
            num_nodes,
            encoding,
            words,
        }
    }

    /// Nodes per bit.
    fn k(&self) -> usize {
        self.encoding.cores_per_bit() as usize
    }

    /// Whether bit `g` is set.
    fn bit(&self, g: usize) -> bool {
        self.words.as_ref()[g / 64] & 1 << (g % 64) != 0
    }

    /// Set bits: the pointers in use, for a limited-pointer entry.
    fn count(&self) -> u32 {
        self.words.as_ref().iter().map(|w| w.count_ones()).sum()
    }

    /// A limited-pointer entry ran out of pointers: everyone may share.
    fn overflowed(&self) -> bool {
        match self.encoding {
            SharerEncoding::LimitedPointer { pointers } => self.count() > u32::from(pointers),
            _ => false,
        }
    }

    /// Whether `node` *may* be a sharer. `false` is definitive; `true` may
    /// be an over-approximation.
    pub fn may_contain(&self, node: NodeId) -> bool {
        node.raw() < self.num_nodes && self.bit(node.index() / self.k())
    }

    /// Whether no sharer is recorded.
    pub fn is_empty(&self) -> bool {
        self.words.as_ref().iter().all(|&w| w == 0)
    }

    /// Decodes the (super)set of sharers as concrete nodes — the set a
    /// directory would forward invalidations to.
    pub fn members(&self) -> DestSet {
        let k = self.k();
        if k == 1 {
            return DestSet::from_words(self.num_nodes, self.words.as_ref());
        }
        let mut out = DestSet::empty(self.num_nodes);
        let groups = (self.num_nodes as usize).div_ceil(k);
        for g in (0..groups).filter(|&g| self.bit(g)) {
            // The last group may be ragged.
            let end = (g * k + k).min(self.num_nodes as usize);
            for n in g * k..end {
                out.insert(NodeId::new(n as u16));
            }
        }
        out
    }

    /// The encoding in use.
    pub fn encoding(&self) -> SharerEncoding {
        self.encoding
    }
}

impl<W: AsRef<[u64]> + AsMut<[u64]>> SharerSet<W> {
    /// Records `node` as a sharer (implicating its whole group under a
    /// coarse encoding, or overflowing to broadcast under a full
    /// limited-pointer entry).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn insert(&mut self, node: NodeId) {
        assert!(node.raw() < self.num_nodes, "{node} out of range");
        let g = node.index() / self.k();
        // Also true of every node once an entry has overflowed.
        if self.bit(g) {
            return;
        }
        if let SharerEncoding::LimitedPointer { pointers } = self.encoding {
            // A new node arriving at a full entry overflows it.
            if self.count() == u32::from(pointers) {
                let n = self.num_nodes as usize;
                for (i, w) in self.words.as_mut().iter_mut().enumerate() {
                    *w = match n - i * 64 {
                        bits @ 0..=63 => (1 << bits) - 1,
                        _ => !0,
                    };
                }
                return;
            }
        }
        self.words.as_mut()[g / 64] |= 1 << (g % 64);
    }

    /// Attempts to remove `node`. Exact representations (full map, or a
    /// non-overflowed pointer list) can remove individuals; coarse groups
    /// and overflowed entries cannot. Returns `true` if the set changed.
    pub fn remove_if_exact(&mut self, node: NodeId) -> bool {
        if self.k() != 1 || node.raw() >= self.num_nodes || self.overflowed() {
            return false;
        }
        let (w, mask) = (node.index() / 64, 1 << (node.index() % 64));
        let word = &mut self.words.as_mut()[w];
        let was = *word & mask != 0;
        *word &= !mask;
        was
    }

    /// Empties the set (a write miss resets sharers exactly).
    pub fn clear(&mut self) {
        self.words.as_mut().fill(0);
    }
}

impl<W: AsRef<[u64]>> fmt::Debug for SharerSet<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharerSet[{}]{:?}", self.encoding(), self.members())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patchsim_kernel::SimRng;

    /// An owned set for the tests: a view of its own words.
    fn set(num_nodes: u16, encoding: SharerEncoding) -> SharerSet<Vec<u64>> {
        SharerSet::new(num_nodes, encoding, vec![0; encoding.words(num_nodes)])
    }

    /// The representation this file had before it sat on bit words — a bit
    /// vector of `k`-core groups for full-map/coarse, a pointer list with
    /// a separate overflow flag for limited pointers — kept as the
    /// reference the property test compares against.
    enum Oracle {
        Bits {
            k: usize,
            bits: Vec<u64>,
        },
        Ptrs {
            max: usize,
            list: Vec<NodeId>,
            full: bool,
        },
    }

    fn bit(bits: &[u64], g: usize) -> bool {
        bits[g / 64] & (1 << (g % 64)) != 0
    }

    impl Oracle {
        fn new(num_nodes: u16, encoding: SharerEncoding) -> Self {
            match encoding {
                SharerEncoding::LimitedPointer { pointers } => Oracle::Ptrs {
                    max: pointers as usize,
                    list: Vec::new(),
                    full: false,
                },
                _ => {
                    let k = encoding.cores_per_bit() as usize;
                    let groups = (num_nodes as usize).div_ceil(k);
                    let bits = vec![0; groups.div_ceil(64)];
                    Oracle::Bits { k, bits }
                }
            }
        }

        fn insert(&mut self, node: NodeId) {
            match self {
                Oracle::Bits { k, bits } => {
                    let g = node.index() / *k;
                    bits[g / 64] |= 1 << (g % 64);
                }
                Oracle::Ptrs { max, list, full } => {
                    if *full || list.contains(&node) {
                        return;
                    }
                    if list.len() < *max {
                        list.push(node);
                    } else {
                        *full = true;
                        list.clear();
                    }
                }
            }
        }

        fn remove_if_exact(&mut self, node: NodeId) -> bool {
            match self {
                Oracle::Bits { k, bits } => {
                    let g = node.index();
                    let was = *k == 1 && bit(bits, g);
                    if was {
                        bits[g / 64] &= !(1 << (g % 64));
                    }
                    was
                }
                Oracle::Ptrs { list, full, .. } => {
                    let pos = list.iter().position(|&n| n == node);
                    !*full && pos.map(|p| list.swap_remove(p)).is_some()
                }
            }
        }

        fn clear(&mut self) {
            match self {
                Oracle::Bits { bits, .. } => bits.iter_mut().for_each(|w| *w = 0),
                Oracle::Ptrs { list, full, .. } => {
                    list.clear();
                    *full = false;
                }
            }
        }

        fn may_contain(&self, node: NodeId) -> bool {
            match self {
                Oracle::Bits { k, bits } => bit(bits, node.index() / k),
                Oracle::Ptrs { list, full, .. } => *full || list.contains(&node),
            }
        }

        fn is_empty(&self) -> bool {
            match self {
                Oracle::Bits { bits, .. } => bits.iter().all(|&w| w == 0),
                Oracle::Ptrs { list, full, .. } => !*full && list.is_empty(),
            }
        }

        fn bits_per_entry(&self, num_nodes: u32) -> u32 {
            match self {
                Oracle::Bits { k, .. } => num_nodes.div_ceil(*k as u32),
                Oracle::Ptrs { max, .. } => {
                    let ptr_bits = num_nodes.next_power_of_two().trailing_zeros();
                    *max as u32 * ptr_bits.max(1) + 1
                }
            }
        }
    }

    /// Seeded random `insert`/`remove_if_exact`/`clear` sequences leave the
    /// word-backed view and the oracle indistinguishable, over all three
    /// encodings and sizes on both sides of each word boundary (with
    /// ragged last groups). The view writes through to words stored
    /// back to back, as a home's are, and never touches its neighbours'.
    #[test]
    fn matches_repr_oracle() {
        let mut rng = SimRng::from_seed(0x5E75);
        let (mut overflows, mut exact_removals, mut ragged) = (0, 0, 0);
        for n in [1u16, 16, 64, 65, 128, 129, 300, 512] {
            for _ in 0..24 {
                let encoding = match rng.below(3) {
                    0 => SharerEncoding::FullMap,
                    1 => SharerEncoding::Coarse {
                        cores_per_bit: 1 + rng.below(n as u64 + 2) as u16,
                    },
                    _ => SharerEncoding::LimitedPointer {
                        pointers: 1 + rng.below(5) as u16,
                    },
                };
                ragged += u32::from(n % encoding.cores_per_bit() != 0);
                let len = encoding.words(n);
                assert_eq!(
                    len,
                    (n as usize)
                        .div_ceil(encoding.cores_per_bit() as usize)
                        .div_ceil(64)
                );
                // This entry's words sit between two neighbours' in one
                // buffer, as a home keeps them.
                let mut buffer = vec![!0; 3 * len];
                buffer[len..2 * len].fill(0);
                let mut oracle = Oracle::new(n, encoding);
                assert_eq!(encoding.bits_per_entry(n), oracle.bits_per_entry(n as u32));
                for _ in 0..64 {
                    let mut set = SharerSet::new(n, encoding, &mut buffer[len..2 * len]);
                    let outside = NodeId::new(n);
                    assert!(!set.may_contain(outside) && !set.remove_if_exact(outside));
                    let node = NodeId::new(rng.below(n as u64) as u16);
                    match rng.below(8) {
                        0 => {
                            set.clear();
                            oracle.clear();
                        }
                        1 | 2 => {
                            let removed = set.remove_if_exact(node);
                            assert_eq!(removed, oracle.remove_if_exact(node));
                            exact_removals += u32::from(removed);
                        }
                        _ => {
                            set.insert(node);
                            oracle.insert(node);
                        }
                    }
                    // A read-only view of the same words agrees, and the
                    // oracle's answer per node is also what `members`
                    // must decode to.
                    let set = SharerSet::new(n, encoding, &buffer[len..2 * len]);
                    let members = set.members();
                    for probe in (0..n).map(NodeId::new) {
                        let expected = oracle.may_contain(probe);
                        assert_eq!(set.may_contain(probe), expected, "{n} nodes, {encoding}");
                        assert_eq!(members.contains(probe), expected, "{n} nodes, {encoding}");
                    }
                    assert_eq!(set.is_empty(), oracle.is_empty());
                    assert!(buffer[..len]
                        .iter()
                        .chain(&buffer[2 * len..])
                        .all(|&w| w == !0));
                    overflows += u32::from(matches!(oracle, Oracle::Ptrs { full: true, .. }));
                }
            }
        }
        // Vacuity guards: the interesting paths were all taken.
        assert!(overflows > 0 && exact_removals > 0 && ragged > 0);
    }

    /// A sharer set is its words and nothing per block beside them: one
    /// word up to 64 groups, two at 128 and eight for a 512-node full map.
    #[test]
    fn a_set_takes_one_bit_per_group() {
        let full = SharerEncoding::FullMap;
        let words = |n, encoding: SharerEncoding| encoding.words(n);
        assert_eq!(words(16, full), 1);
        assert_eq!(words(64, full), 1);
        assert_eq!(words(65, full), 2);
        assert_eq!(words(128, full), 2);
        assert_eq!(words(512, full), 8);
        assert_eq!(words(512, SharerEncoding::Coarse { cores_per_bit: 4 }), 2);
        assert_eq!(words(512, SharerEncoding::Coarse { cores_per_bit: 512 }), 1);
        assert_eq!(
            words(128, SharerEncoding::LimitedPointer { pointers: 2 }),
            2
        );
    }

    #[test]
    #[should_panic(expected = "takes 2 words")]
    fn a_view_of_the_wrong_length_panics() {
        SharerSet::new(128, SharerEncoding::FullMap, [0u64; 1]);
    }

    /// Draws a random sharer set of up to 19 distinct nodes in `0..100`.
    fn random_nodes(rng: &mut SimRng) -> std::collections::BTreeSet<u16> {
        let count = rng.below(20);
        let mut nodes = std::collections::BTreeSet::new();
        for _ in 0..count {
            nodes.insert(rng.below(100) as u16);
        }
        nodes
    }

    #[test]
    fn full_map_is_exact() {
        let mut s = set(64, SharerEncoding::FullMap);
        s.insert(NodeId::new(3));
        s.insert(NodeId::new(60));
        assert_eq!(s.members().len(), 2);
        assert!(s.remove_if_exact(NodeId::new(3)));
        assert_eq!(s.members().len(), 1);
        assert!(!s.may_contain(NodeId::new(3)));
    }

    #[test]
    fn coarse_implicates_whole_group() {
        let mut s = set(64, SharerEncoding::Coarse { cores_per_bit: 16 });
        s.insert(NodeId::new(17));
        let members = s.members();
        assert_eq!(members.len(), 16);
        for n in 16..32 {
            assert!(members.contains(NodeId::new(n)));
        }
        assert!(!members.contains(NodeId::new(15)));
    }

    #[test]
    fn coarse_cannot_remove_individuals() {
        let mut s = set(64, SharerEncoding::Coarse { cores_per_bit: 4 });
        s.insert(NodeId::new(5));
        assert!(!s.remove_if_exact(NodeId::new(5)));
        assert!(s.may_contain(NodeId::new(5)), "stale sharer persists");
    }

    #[test]
    fn clear_resets() {
        let mut s = set(64, SharerEncoding::Coarse { cores_per_bit: 64 });
        s.insert(NodeId::new(0));
        assert_eq!(s.members().len(), 64, "single bit implicates everyone");
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.members().len(), 0);
    }

    #[test]
    fn ragged_last_group_is_clamped() {
        // 10 nodes, K=4: groups {0-3},{4-7},{8-9}.
        let mut s = set(10, SharerEncoding::Coarse { cores_per_bit: 4 });
        s.insert(NodeId::new(9));
        assert_eq!(s.members().len(), 2);
        assert!(s.may_contain(NodeId::new(8)));
        assert!(!s.may_contain(NodeId::new(7)));
    }

    #[test]
    fn limited_pointer_exact_until_overflow() {
        let mut s = set(64, SharerEncoding::LimitedPointer { pointers: 2 });
        s.insert(NodeId::new(7));
        s.insert(NodeId::new(7)); // duplicate is free
        s.insert(NodeId::new(9));
        assert_eq!(s.members().len(), 2);
        assert!(s.remove_if_exact(NodeId::new(7)), "exact removal works");
        s.insert(NodeId::new(11));
        assert_eq!(s.members().len(), 2);
        // Third distinct sharer overflows to broadcast.
        s.insert(NodeId::new(13));
        assert_eq!(s.members().len(), 64);
        assert!(s.may_contain(NodeId::new(0)));
        assert!(!s.remove_if_exact(NodeId::new(9)), "overflowed: no removal");
        assert!(!s.is_empty());
        // A write reset restores exactness.
        s.clear();
        assert!(s.is_empty());
        s.insert(NodeId::new(1));
        assert_eq!(s.members().len(), 1);
    }

    /// Overflow sets exactly the system's bits, also in a ragged last
    /// word, and an entry with as many pointers as nodes never overflows.
    #[test]
    fn limited_pointer_overflow_fills_only_the_systems_bits() {
        let mut s = set(65, SharerEncoding::LimitedPointer { pointers: 1 });
        s.insert(NodeId::new(64));
        s.insert(NodeId::new(0));
        assert_eq!(s.words, [!0, 1]);
        assert_eq!(s.members().len(), 65);
        let mut s = set(3, SharerEncoding::LimitedPointer { pointers: 3 });
        for n in 0..3 {
            s.insert(NodeId::new(n));
        }
        assert!(s.remove_if_exact(NodeId::new(1)), "all three held exactly");
        assert_eq!(s.members().len(), 2);
    }

    #[test]
    fn bits_per_entry_scales() {
        assert_eq!(SharerEncoding::FullMap.bits_per_entry(256), 256);
        assert_eq!(
            SharerEncoding::Coarse { cores_per_bit: 64 }.bits_per_entry(256),
            4
        );
        assert_eq!(
            SharerEncoding::Coarse { cores_per_bit: 256 }.bits_per_entry(256),
            1
        );
        // 4 pointers x 8 bits + overflow bit.
        assert_eq!(
            SharerEncoding::LimitedPointer { pointers: 4 }.bits_per_entry(256),
            33
        );
    }

    #[test]
    fn encoding_round_trips() {
        let s = set(8, SharerEncoding::Coarse { cores_per_bit: 2 });
        assert_eq!(s.encoding(), SharerEncoding::Coarse { cores_per_bit: 2 });
        let s = set(8, SharerEncoding::Coarse { cores_per_bit: 1 });
        assert_eq!(s.encoding(), SharerEncoding::FullMap);
        let s = set(8, SharerEncoding::LimitedPointer { pointers: 3 });
        assert_eq!(s.encoding(), SharerEncoding::LimitedPointer { pointers: 3 });
        assert_eq!(SharerEncoding::FullMap.to_string(), "full-map");
        assert_eq!(
            SharerEncoding::Coarse { cores_per_bit: 4 }.to_string(),
            "coarse(K=4)"
        );
        assert_eq!(
            SharerEncoding::LimitedPointer { pointers: 4 }.to_string(),
            "ptr(4)"
        );
    }

    /// Every encoding yields a superset of the true sharer set.
    /// Randomised over 256 seeded (sharer-set, K) draws.
    #[test]
    fn members_is_superset() {
        let mut rng = SimRng::from_seed(0x5A4E);
        for _ in 0..256 {
            let nodes = random_nodes(&mut rng);
            let k = 1 + rng.below(99) as u16;
            let mut s = set(100, SharerEncoding::Coarse { cores_per_bit: k });
            for &n in &nodes {
                s.insert(NodeId::new(n));
            }
            let members = s.members();
            for &n in &nodes {
                assert!(members.contains(NodeId::new(n)));
            }
            // And the overapproximation is bounded by rounding: at most
            // one extra group per true sharer.
            assert!(members.len() <= nodes.len() * k as usize);
        }
    }

    /// A full map is always exact. Randomised over 256 seeded draws.
    #[test]
    fn full_map_members_exact() {
        let mut rng = SimRng::from_seed(0xF011);
        for _ in 0..256 {
            let nodes = random_nodes(&mut rng);
            let mut s = set(100, SharerEncoding::FullMap);
            for &n in &nodes {
                s.insert(NodeId::new(n));
            }
            let got: Vec<u16> = s.members().iter().map(|n| n.raw()).collect();
            let want: Vec<u16> = nodes.into_iter().collect();
            assert_eq!(got, want);
        }
    }

    /// Limited pointers are a superset too, and exact within the limit.
    /// Randomised over 256 seeded (sharer-set, pointer-limit) draws.
    #[test]
    fn limited_pointer_superset() {
        let mut rng = SimRng::from_seed(0x11D0);
        for _ in 0..256 {
            let nodes = random_nodes(&mut rng);
            let max = 1 + rng.below(7) as u16;
            let mut s = set(100, SharerEncoding::LimitedPointer { pointers: max });
            for &n in &nodes {
                s.insert(NodeId::new(n));
            }
            let members = s.members();
            for &n in &nodes {
                assert!(members.contains(NodeId::new(n)));
            }
            if nodes.len() <= max as usize {
                assert_eq!(members.len(), nodes.len(), "exact within the limit");
            } else {
                assert_eq!(members.len(), 100, "overflow broadcasts");
            }
        }
    }
}
