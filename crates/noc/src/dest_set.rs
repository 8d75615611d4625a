//! Compact destination sets for multicast messages.

use std::fmt;

use crate::NodeId;

/// A set of destination nodes, stored as a bit vector.
///
/// Destination sets appear on every multicast message (invalidation
/// forwards, direct requests, persistent-request broadcasts) and are what
/// a directory's sharer set decodes to. The representation supports systems up
/// to any size; all sets in one system must be created with the same
/// `num_nodes`.
///
/// Systems of up to 128 nodes keep their bits in two inline `u64` words,
/// so creating, cloning, and branching a set in the interconnect hot path
/// allocates nothing. That covers the paper's 16-core base system and
/// Fig. 8 up to 128 cores, but not Fig. 8's 256 and 512 or Figs. 9–10's
/// 256: larger systems spill to a heap-allocated word vector with
/// identical semantics, and every multicast branch there allocates one.
/// The set stays 32 bytes either way (`Vec`'s capacity niche holds the
/// variant tag).
///
/// # Examples
///
/// ```
/// use patchsim_noc::{DestSet, NodeId};
///
/// let mut s = DestSet::empty(64);
/// s.insert(NodeId::new(3));
/// s.insert(NodeId::new(60));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(NodeId::new(3)));
/// let members: Vec<_> = s.iter().collect();
/// assert_eq!(members, vec![NodeId::new(3), NodeId::new(60)]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DestSet {
    repr: Repr,
    num_nodes: u16,
}

/// The bit-vector storage: two inline words for ≤ 128 nodes (the second
/// stays zero up to 64), a spill vector above. The variant is a pure
/// function of `num_nodes`, so derived equality/hashing never compares
/// across representations.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Inline([u64; 2]),
    Spill(Vec<u64>),
}

/// The largest system whose sets stay inline.
const INLINE_NODES: u16 = 128;

impl DestSet {
    /// Creates an empty set for a system of `num_nodes` nodes.
    pub fn empty(num_nodes: u16) -> Self {
        let repr = if num_nodes <= INLINE_NODES {
            Repr::Inline([0; 2])
        } else {
            Repr::Spill(vec![0; (num_nodes as usize).div_ceil(64)])
        };
        DestSet { repr, num_nodes }
    }

    /// Creates a set containing only `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn single(num_nodes: u16, node: NodeId) -> Self {
        let mut s = Self::empty(num_nodes);
        s.insert(node);
        s
    }

    /// Creates a set containing every node.
    pub fn all(num_nodes: u16) -> Self {
        let mut s = Self::empty(num_nodes);
        for w in 0..(num_nodes as usize).div_ceil(64) {
            let bits_here = (num_nodes as usize - w * 64).min(64);
            let word = if bits_here == 64 {
                !0u64
            } else {
                (1u64 << bits_here) - 1
            };
            s.words_mut()[w] = word;
        }
        s
    }

    /// Creates a set containing every node except `excluded` — the shape of
    /// a broadcast direct request.
    pub fn all_except(num_nodes: u16, excluded: NodeId) -> Self {
        let mut s = Self::all(num_nodes);
        s.remove(excluded);
        s
    }

    /// Builds a set from an iterator of nodes.
    pub fn from_nodes(num_nodes: u16, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut s = Self::empty(num_nodes);
        for n in nodes {
            s.insert(n);
        }
        s
    }

    /// Creates the set whose bits are `words`: bit `i % 64` of word
    /// `i / 64` stands for node `i`.
    ///
    /// # Panics
    ///
    /// Panics unless `words` holds exactly the `num_nodes.div_ceil(64)`
    /// words a `num_nodes`-node set has, with no bit at or above
    /// `num_nodes` set.
    pub fn from_words(num_nodes: u16, words: &[u64]) -> Self {
        let mut s = Self::empty(num_nodes);
        let len = (num_nodes as usize).div_ceil(64);
        assert_eq!(words.len(), len, "{num_nodes} nodes take {len} words");
        if let Some(&last) = words.last() {
            let spare = len * 64 - num_nodes as usize;
            assert!(
                last.leading_zeros() as usize >= spare,
                "a bit at or above node {num_nodes} is set"
            );
        }
        s.words_mut()[..len].copy_from_slice(words);
        s
    }

    /// The system size this set was created for.
    pub fn num_nodes(&self) -> u16 {
        self.num_nodes
    }

    #[inline]
    fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(w) => w,
            Repr::Spill(v) => v,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Inline(w) => w,
            Repr::Spill(v) => v,
        }
    }

    /// Adds `node` to the set. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for this set's system size.
    pub fn insert(&mut self, node: NodeId) -> bool {
        assert!(
            node.raw() < self.num_nodes,
            "{node} out of range for {}-node system",
            self.num_nodes
        );
        let (w, b) = (node.index() / 64, node.index() % 64);
        let word = &mut self.words_mut()[w];
        let was = *word & (1 << b) != 0;
        *word |= 1 << b;
        !was
    }

    /// Removes `node` from the set. Returns `true` if it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        if node.raw() >= self.num_nodes {
            return false;
        }
        let (w, b) = (node.index() / 64, node.index() % 64);
        let word = &mut self.words_mut()[w];
        let was = *word & (1 << b) != 0;
        *word &= !(1 << b);
        was
    }

    /// Returns `true` if `node` is in the set.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        if node.raw() >= self.num_nodes {
            return false;
        }
        let (w, b) = (node.index() / 64, node.index() % 64);
        self.words()[w] & (1 << b) != 0
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Inline([lo, hi]) => lo | hi == 0,
            Repr::Spill(v) => v.iter().all(|&w| w == 0),
        }
    }

    /// Removes all nodes.
    pub fn clear(&mut self) {
        self.words_mut().iter_mut().for_each(|w| *w = 0);
    }

    /// Whether any member's bit is set in `mask`: bit words over this
    /// set's node numbering, as many as the system needs.
    #[inline]
    pub(crate) fn meets(&self, mask: &[u64]) -> bool {
        self.words().iter().zip(mask).any(|(w, m)| w & m != 0)
    }

    /// Moves the members whose bits are set in `mask` (as for
    /// [`DestSet::meets`]) into a set of their own and returns it — or
    /// returns `None` and moves nothing when every member is in `mask`,
    /// so the caller can use `self` as that set.
    #[inline]
    pub(crate) fn split_off(&mut self, mask: &[u64]) -> Option<DestSet> {
        if self.words().iter().zip(mask).all(|(w, m)| w & !m == 0) {
            return None;
        }
        let mut taken = DestSet::empty(self.num_nodes);
        for ((w, t), m) in self.words_mut().iter_mut().zip(taken.words_mut()).zip(mask) {
            *t = *w & m;
            *w &= !m;
        }
        Some(taken)
    }

    /// Iterates over members in increasing index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { set: self, next: 0 }
    }

    /// Returns the sole member if the set has exactly one.
    #[inline]
    pub fn as_single(&self) -> Option<NodeId> {
        if let Repr::Inline([lo, hi]) = self.repr {
            let bit = match (lo.count_ones(), hi.count_ones()) {
                (1, 0) => lo.trailing_zeros(),
                (0, 1) => 64 + hi.trailing_zeros(),
                _ => return None,
            };
            return Some(NodeId::new(bit as u16));
        }
        let mut it = self.iter();
        let first = it.next()?;
        if it.next().is_none() {
            Some(first)
        } else {
            None
        }
    }
}

impl fmt::Debug for DestSet {
    /// Prints the set as a list of node ids, e.g. `{P1, P2}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the members of a [`DestSet`].
pub struct Iter<'a> {
    set: &'a DestSet,
    next: u32,
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let words = self.set.words();
        while (self.next as usize) < self.set.num_nodes as usize {
            let idx = self.next as usize;
            let (w, b) = (idx / 64, idx % 64);
            // Skip whole empty words.
            let word = words[w] >> b;
            if word == 0 {
                self.next = ((w as u32) + 1) * 64;
                continue;
            }
            let offset = word.trailing_zeros();
            let found = idx as u32 + offset;
            if found as usize >= self.set.num_nodes as usize {
                return None;
            }
            self.next = found + 1;
            return Some(NodeId::new(found as u16));
        }
        None
    }
}

impl<'a> IntoIterator for &'a DestSet {
    type Item = NodeId;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patchsim_kernel::SimRng;

    /// Draws a random set of up to 39 distinct nodes in `0..300`.
    fn random_nodes(rng: &mut SimRng) -> std::collections::BTreeSet<u16> {
        let count = rng.below(40);
        let mut nodes = std::collections::BTreeSet::new();
        for _ in 0..count {
            nodes.insert(rng.below(300) as u16);
        }
        nodes
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = DestSet::empty(130);
        assert!(s.insert(NodeId::new(0)));
        assert!(s.insert(NodeId::new(129)));
        assert!(!s.insert(NodeId::new(129)), "double insert reports false");
        assert!(s.contains(NodeId::new(0)));
        assert!(s.contains(NodeId::new(129)));
        assert!(!s.contains(NodeId::new(64)));
        assert!(s.remove(NodeId::new(0)));
        assert!(!s.remove(NodeId::new(0)));
        assert_eq!(s.len(), 1);
    }

    /// Packets and sharer sets carry a `DestSet`: two inline words fit in
    /// the bytes the spill `Vec` takes, with the variant tag in its niche.
    #[test]
    fn layout_is_pinned() {
        assert_eq!(std::mem::size_of::<DestSet>(), 32);
    }

    #[test]
    fn inline_and_spill_agree() {
        // The same operations on an inline-sized and a spill-sized set
        // must observe identical membership.
        for num_nodes in [64u16, 128, 129] {
            let mut s = DestSet::empty(num_nodes);
            match (&s.repr, num_nodes) {
                (Repr::Inline(_), 64 | 128) | (Repr::Spill(_), 129) => {}
                _ => panic!("unexpected representation for {num_nodes} nodes"),
            }
            for i in (0..num_nodes).step_by(3) {
                s.insert(NodeId::new(i));
            }
            let members: Vec<u16> = s.iter().map(|n| n.raw()).collect();
            let want: Vec<u16> = (0..num_nodes).step_by(3).collect();
            assert_eq!(members, want);
            assert_eq!(s.len(), want.len());
        }
    }

    #[test]
    fn all_and_all_except() {
        let s = DestSet::all(65);
        assert_eq!(s.len(), 65);
        let s = DestSet::all_except(65, NodeId::new(64));
        assert_eq!(s.len(), 64);
        assert!(!s.contains(NodeId::new(64)));
        // Inline boundary: all(64) fills the whole word.
        let s = DestSet::all(64);
        assert_eq!(s.len(), 64);
        assert!(s.contains(NodeId::new(63)));
        let s = DestSet::all(5);
        assert_eq!(s.len(), 5);
        assert!(!s.contains(NodeId::new(5)));
    }

    /// `from_words` reads the bits `iter` yields, on both sides of the
    /// inline/spill boundary.
    #[test]
    fn from_words_round_trips() {
        let mut rng = SimRng::from_seed(0xF0DE);
        for n in [1u16, 64, 65, 128, 129, 300, 512] {
            let nodes: Vec<u16> = random_nodes(&mut rng)
                .into_iter()
                .filter(|&i| i < n)
                .collect();
            let set = DestSet::from_nodes(n, nodes.iter().map(|&i| NodeId::new(i)));
            let copy = DestSet::from_words(n, &set.words()[..(n as usize).div_ceil(64)]);
            assert_eq!(copy, set, "{n} nodes");
        }
    }

    #[test]
    #[should_panic(expected = "at or above node 65")]
    fn from_words_refuses_a_bit_past_the_last_node() {
        DestSet::from_words(65, &[0, 2]);
    }

    /// `all`/`all_except` fill the second inline word exactly up to the
    /// system size, and the excluded node may sit in either word.
    #[test]
    fn all_and_all_except_fill_the_second_inline_word() {
        for n in [65u16, 100, 128] {
            let s = DestSet::all(n);
            assert_eq!(s.len(), n as usize);
            assert!(s.contains(NodeId::new(n - 1)));
            assert_eq!(s.iter().last(), Some(NodeId::new(n - 1)));
            for excluded in [0, 63, 64, n - 1] {
                let s = DestSet::all_except(n, NodeId::new(excluded));
                assert_eq!(s.len(), n as usize - 1, "{n} nodes without {excluded}");
                assert!(!s.contains(NodeId::new(excluded)));
                assert_eq!(s.iter().count(), n as usize - 1);
            }
        }
    }

    /// Members 64–127 live in the second inline word; every query sees
    /// them there.
    #[test]
    fn second_inline_word_members() {
        let mut s = DestSet::empty(128);
        assert!(s.is_empty());
        assert_eq!(s.as_single(), None);
        s.insert(NodeId::new(64));
        assert!(!s.is_empty());
        assert_eq!(s.len(), 1);
        assert_eq!(s.as_single(), Some(NodeId::new(64)));
        s.insert(NodeId::new(127));
        assert_eq!(s.as_single(), None, "two members in the second word");
        assert_eq!(s.len(), 2);
        let members: Vec<u16> = s.iter().map(|n| n.raw()).collect();
        assert_eq!(members, vec![64, 127]);
        s.remove(NodeId::new(64));
        assert_eq!(s.as_single(), Some(NodeId::new(127)));
        s.insert(NodeId::new(3));
        assert_eq!(s.as_single(), None, "one member in each word");
        let members: Vec<u16> = s.iter().map(|n| n.raw()).collect();
        assert_eq!(members, vec![3, 127]);
        s.remove(NodeId::new(3));
        s.remove(NodeId::new(127));
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().next(), None);
    }

    /// `meets` and `split_off` against a two-word mask: a split moves
    /// exactly the masked members, and a mask that holds every member
    /// moves nothing.
    #[test]
    fn meets_and_split_off() {
        let members = [1u16, 63, 64, 100, 127];
        let mask = [1u64 << 63, (1 << 36) | (1 << 63)]; // nodes 63, 100, 127
        let mut s = DestSet::from_nodes(128, members.map(NodeId::new));
        assert!(s.meets(&mask));
        assert!(!s.meets(&[0, 0]));
        let taken = s.split_off(&mask).expect("a strict subset is split off");
        let raw = |s: &DestSet| s.iter().map(|n| n.raw()).collect::<Vec<_>>();
        assert_eq!(raw(&taken), vec![63, 100, 127]);
        assert_eq!(raw(&s), vec![1, 64]);
        assert!(s.split_off(&[!0, !0]).is_none(), "nothing moves");
        assert_eq!(raw(&s), vec![1, 64]);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let nodes = [5u16, 0, 63, 64, 65, 127];
        let s = DestSet::from_nodes(128, nodes.iter().map(|&n| NodeId::new(n)));
        let got: Vec<u16> = s.iter().map(|n| n.raw()).collect();
        assert_eq!(got, vec![0, 5, 63, 64, 65, 127]);
    }

    #[test]
    fn as_single() {
        assert_eq!(DestSet::empty(8).as_single(), None);
        assert_eq!(
            DestSet::single(8, NodeId::new(3)).as_single(),
            Some(NodeId::new(3))
        );
        assert_eq!(DestSet::all(8).as_single(), None);
        // A spilled set answers through the iterator.
        assert_eq!(
            DestSet::single(200, NodeId::new(199)).as_single(),
            Some(NodeId::new(199))
        );
        assert_eq!(DestSet::all(200).as_single(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        DestSet::empty(8).insert(NodeId::new(8));
    }

    #[test]
    fn contains_out_of_range_is_false() {
        assert!(!DestSet::all(8).contains(NodeId::new(200)));
    }

    #[test]
    fn debug_lists_members() {
        let s = DestSet::from_nodes(8, [NodeId::new(1), NodeId::new(2)]);
        assert_eq!(format!("{s:?}"), "{NodeId(1), NodeId(2)}");
    }

    /// Iteration yields exactly the inserted nodes in sorted order.
    /// Randomised over 256 seeded draws.
    #[test]
    fn iter_matches_inserted() {
        let mut rng = SimRng::from_seed(0xDE57);
        for _ in 0..256 {
            let nodes = random_nodes(&mut rng);
            let s = DestSet::from_nodes(300, nodes.iter().map(|&n| NodeId::new(n)));
            let got: Vec<u16> = s.iter().map(|n| n.raw()).collect();
            let want: Vec<u16> = nodes.into_iter().collect();
            assert_eq!(got, want);
        }
    }

    /// `len`/`is_empty` agree with the true member count.
    /// Randomised over 256 seeded draws.
    #[test]
    fn len_matches_count() {
        let mut rng = SimRng::from_seed(0x1E4);
        for _ in 0..256 {
            let nodes = random_nodes(&mut rng);
            let s = DestSet::from_nodes(300, nodes.iter().map(|&n| NodeId::new(n)));
            assert_eq!(s.len(), nodes.len());
            assert_eq!(s.is_empty(), nodes.is_empty());
        }
    }
}
