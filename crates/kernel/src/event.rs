//! Deterministic time-ordered event queue backed by a timer wheel.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Cycle;

/// Number of wheel slots. Power of two so the slot of a timestamp is a
/// mask. Sized to cover the overwhelming majority of schedule distances in
/// a NoC simulation — hop latencies, serialization delays, think times,
/// DRAM accesses, and most protocol timeouts are all well under 1024
/// cycles — so the overflow heap sees only rare far timers.
const WHEEL_SLOTS: usize = 1024;
const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;
/// Occupancy-bitmap words (64 slots per word).
const BITMAP_WORDS: usize = WHEEL_SLOTS / 64;
/// "No node": ends a slot's list and the free list.
const NIL: u32 = u32::MAX;

/// An entry in the overflow heap: ordered by time, then by insertion
/// sequence so that same-cycle events pop in FIFO order. `BinaryHeap` is a
/// max-heap, so the comparison is reversed.
struct Entry<E> {
    at: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: the smallest (time, seq) is the "greatest" heap element.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// One slab cell: a pending event linked into its slot's list, or a free
/// cell (`event` is `None`) linked into the free list.
struct Node<E> {
    next: u32,
    event: Option<E>,
}

/// A deterministic discrete-event queue.
///
/// Events are delivered in non-decreasing timestamp order; events scheduled
/// for the *same* cycle are delivered in the order they were pushed. This
/// FIFO tie-break is what makes whole-simulation runs reproducible: the
/// simulator never depends on an unspecified heap ordering.
///
/// # Implementation
///
/// The queue is a hierarchical timer wheel: a ring of 1024 FIFO buckets
/// covers the near future (`now .. now + 1024` cycles), with
/// an occupancy bitmap for constant-ish-time scans, backed by a spill
/// [`BinaryHeap`] for the rare timer scheduled further out. Since almost
/// every NoC event lands within a few dozen cycles of `now`, pushes and
/// pops are O(1) on the hot path instead of the heap's O(log n).
///
/// Every wheel-resident event lives in **one slab** (`nodes`), whose
/// length is the largest number of events the wheel ever held at once. A
/// bucket is an intrusive singly linked FIFO through that slab: append at
/// `tails[slot]`, pop at `heads[slot]`, so bucket order is exactly push
/// order. Every node is on exactly one slot's list or on the free list,
/// which is LIFO — the node a pop frees is the one the next push reuses,
/// while it is still in cache. A slot never mixes cycles (every resident
/// event is within `now .. now + 1024`, and `push` refuses anything
/// earlier than `now`), so no timestamp is stored: an event popped from
/// `slot` is due at `now + ((slot − now's slot) mod 1024)`.
///
/// Overflow entries migrate into the wheel as simulated time advances
/// (at the end of each pop that moved `now`). An overflow entry for
/// cycle `t` always migrates before any *later-pushed* event for `t` can
/// enter the wheel — a direct push for `t` requires `t - now <
/// WHEEL_SLOTS`, and the pop that first advanced `now` past `t -
/// WHEEL_SLOTS` migrated the overflow entry on its way out — so bucket
/// order remains exactly (time, push-sequence) order.
///
/// # Examples
///
/// ```
/// use patchsim_kernel::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle::new(5), "a");
/// q.push(Cycle::new(5), "b");
/// q.push(Cycle::new(1), "c");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["c", "a", "b"]);
/// ```
pub struct EventQueue<E> {
    /// Storage for every wheel-resident event, and the free cells left by
    /// popped ones. Never shrinks; grows only when the free list is empty.
    nodes: Vec<Node<E>>,
    /// Most recently freed node, or `NIL`.
    free: u32,
    /// First and last node of each slot's list; slot `t & SLOT_MASK` holds
    /// the events for cycle `t` while `t - now < WHEEL_SLOTS`. Meaningful
    /// only while the slot's `occupied` bit is set.
    heads: Box<[u32]>,
    tails: Box<[u32]>,
    /// One bit per wheel slot: set iff the bucket is non-empty.
    occupied: [u64; BITMAP_WORDS],
    /// Events scheduled at or beyond `now + WHEEL_SLOTS`.
    overflow: BinaryHeap<Entry<E>>,
    /// Number of events currently resident in the wheel.
    wheel_len: usize,
    next_seq: u64,
    /// Timestamp of the most recently popped event, used to reject
    /// scheduling into the past.
    now: Cycle,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`Cycle::ZERO`].
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue whose slab starts with room for `events`
    /// concurrently pending events: until more than that are pending at
    /// once, a push allocates nothing.
    pub fn with_capacity(events: usize) -> Self {
        EventQueue {
            nodes: Vec::with_capacity(events),
            free: NIL,
            heads: vec![NIL; WHEEL_SLOTS].into(),
            tails: vec![NIL; WHEEL_SLOTS].into(),
            occupied: [0; BITMAP_WORDS],
            overflow: BinaryHeap::with_capacity(events.min(1024)),
            wheel_len: 0,
            next_seq: 0,
            now: Cycle::ZERO,
        }
    }

    /// Schedules `event` to be delivered at cycle `at`.
    ///
    /// # Panics
    ///
    /// Scheduling earlier than the most recently popped timestamp is
    /// always a simulator bug, and the wheel derives an event's time from
    /// its slot, so such an event would be delivered at the wrong cycle.
    pub fn push(&mut self, at: Cycle, event: E) {
        assert!(
            at >= self.now,
            "scheduled event at {at} but simulation time has reached {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        if at.as_u64() - self.now.as_u64() < WHEEL_SLOTS as u64 {
            self.wheel_insert(at, event);
        } else {
            self.overflow.push(Entry { at, seq, event });
        }
    }

    /// Appends `event` to the list of `at`'s slot, in a recycled node if
    /// there is one.
    #[inline]
    fn wheel_insert(&mut self, at: Cycle, event: E) {
        let slot = (at.as_u64() & SLOT_MASK) as usize;
        let node = Node {
            next: NIL,
            event: Some(event),
        };
        let mut idx = self.free;
        if idx != NIL {
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
        } else {
            assert!(
                self.nodes.len() < NIL as usize,
                "slab index would reach NIL"
            );
            idx = self.nodes.len() as u32;
            self.nodes.push(node);
        }
        let bit = 1 << (slot % 64);
        if self.occupied[slot / 64] & bit == 0 {
            self.occupied[slot / 64] |= bit;
            self.heads[slot] = idx;
        } else {
            self.nodes[self.tails[slot] as usize].next = idx;
        }
        self.tails[slot] = idx;
        self.wheel_len += 1;
    }

    /// Moves every overflow entry that now falls inside the wheel horizon
    /// into its bucket. Entries leave the heap in (time, seq) order, and
    /// any future direct push to the same cycle necessarily happens after
    /// this migration, so bucket FIFO order equals global (time, seq)
    /// order.
    fn migrate_overflow(&mut self) {
        while let Some(head) = self.overflow.peek() {
            if head.at.as_u64() - self.now.as_u64() >= WHEEL_SLOTS as u64 {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry exists");
            self.wheel_insert(entry.at, entry.event);
        }
    }

    /// Index of the first occupied wheel slot at or cyclically after
    /// `start`, or `None` if the wheel is empty.
    fn next_occupied_slot(&self, start: usize) -> Option<usize> {
        let first_word = start / 64;
        // Mask off bits below `start` in its word.
        let masked = self.occupied[first_word] & (!0u64 << (start % 64));
        if masked != 0 {
            return Some(first_word * 64 + masked.trailing_zeros() as usize);
        }
        // Remaining words, wrapping; the starting word is revisited last
        // with its full contents (covering bits below `start`).
        for i in 1..=BITMAP_WORDS {
            let w = (first_word + i) % BITMAP_WORDS;
            if self.occupied[w] != 0 {
                return Some(w * 64 + self.occupied[w].trailing_zeros() as usize);
            }
        }
        None
    }

    /// The first occupied slot at or cyclically after `now`'s, and the
    /// cycle its events are due: every resident event is less than one
    /// turn ahead of `now`, so the distance between the slots is the
    /// distance in time. Call only while the wheel holds something.
    #[inline]
    fn earliest_wheel_slot(&self) -> (usize, Cycle) {
        let cursor = (self.now.as_u64() & SLOT_MASK) as usize;
        let slot = self
            .next_occupied_slot(cursor)
            .expect("wheel_len > 0 implies an occupied slot");
        let ahead = (slot.wrapping_sub(cursor) as u64) & SLOT_MASK;
        (slot, self.now + ahead)
    }

    /// Removes and returns the earliest event together with its timestamp,
    /// advancing the queue's notion of "now" to that timestamp.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let (at, event) = if self.wheel_len > 0 {
            // Every wheel event is earlier than every overflow event
            // (wheel < now + WHEEL_SLOTS <= overflow), and the first
            // occupied slot scanning from now's slot is the earliest
            // cycle in the wheel.
            let (slot, at) = self.earliest_wheel_slot();
            let idx = self.heads[slot];
            let node = &mut self.nodes[idx as usize];
            let event = node.event.take().expect("listed node holds an event");
            if node.next == NIL {
                self.occupied[slot / 64] &= !(1 << (slot % 64));
            } else {
                self.heads[slot] = node.next;
            }
            node.next = self.free;
            self.free = idx;
            self.wheel_len -= 1;
            (at, event)
        } else {
            let entry = self.overflow.pop()?;
            (entry.at, entry.event)
        };
        if at > self.now {
            self.now = at;
            // `now` advanced: pull newly in-horizon overflow entries into
            // the wheel *before* returning, so they precede any later push
            // for the same cycle.
            self.migrate_overflow();
        }
        Some((at, event))
    }

    /// Returns the timestamp of the earliest pending event without removing
    /// it.
    pub fn peek_time(&self) -> Option<Cycle> {
        if self.wheel_len > 0 {
            return Some(self.earliest_wheel_slot().1);
        }
        self.overflow.peek().map(|e| e.at)
    }

    /// Returns the timestamp of the most recently popped event.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the total number of events ever pushed; a cheap progress
    /// metric for long runs.
    pub fn total_pushed(&self) -> u64 {
        self.next_seq
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("wheel_len", &self.wheel_len)
            .field("overflow_len", &self.overflow.len())
            .field("slab", &self.nodes.len())
            .field("now", &self.now)
            .field("total_pushed", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(30), 3);
        q.push(Cycle::new(10), 1);
        q.push(Cycle::new(20), 2);
        assert_eq!(q.pop(), Some((Cycle::new(10), 1)));
        assert_eq!(q.pop(), Some((Cycle::new(20), 2)));
        assert_eq!(q.pop(), Some((Cycle::new(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle::new(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle::new(7), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(5), "a");
        q.push(Cycle::new(6), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(Cycle::new(5), "c"); // same cycle as "now" is allowed
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    #[should_panic(expected = "scheduled event at cycle 1")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(10), ());
        q.pop();
        q.push(Cycle::new(1), ());
    }

    #[test]
    fn peek_and_len_reflect_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Cycle::new(9), ());
        q.push(Cycle::new(4), ());
        assert_eq!(q.peek_time(), Some(Cycle::new(4)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_pushed(), 2);
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Cycle::ZERO);
        q.push(Cycle::new(42), ());
        q.pop();
        assert_eq!(q.now(), Cycle::new(42));
    }

    #[test]
    fn far_events_spill_to_overflow_and_return() {
        let mut q = EventQueue::new();
        // Far beyond the wheel horizon, interleaved with near events.
        q.push(Cycle::new(1_000_000), "far");
        q.push(Cycle::new(5), "near");
        q.push(Cycle::new(2_000_000), "farther");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop(), Some((Cycle::new(1_000_000), "far")));
        assert_eq!(q.pop(), Some((Cycle::new(2_000_000), "farther")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_migration_preserves_fifo_with_later_direct_pushes() {
        let mut q = EventQueue::new();
        // "early" is pushed while cycle 2000 is beyond the horizon, so it
        // spills; after popping the cycle-1500 event the horizon covers
        // 2000 and "late" goes into the wheel directly. FIFO demands
        // "early" still pops first.
        q.push(Cycle::new(2_000), "early");
        q.push(Cycle::new(1_500), "advance");
        assert_eq!(q.pop().unwrap().1, "advance");
        q.push(Cycle::new(2_000), "late");
        assert_eq!(q.pop(), Some((Cycle::new(2_000), "early")));
        assert_eq!(q.pop(), Some((Cycle::new(2_000), "late")));
    }

    #[test]
    fn wheel_wraparound_cycles_map_to_distinct_slots() {
        let mut q = EventQueue::new();
        // Advance now to a non-zero wheel position, then schedule across
        // the wrap boundary.
        q.push(Cycle::new(1_000), 0);
        q.pop();
        q.push(Cycle::new(1_030), 30); // slot 6 after wrap
        q.push(Cycle::new(1_001), 1);
        q.push(Cycle::new(1_023), 23); // last slot before wrap
        q.push(Cycle::new(1_024), 24); // slot 0
        assert_eq!(q.pop(), Some((Cycle::new(1_001), 1)));
        assert_eq!(q.pop(), Some((Cycle::new(1_023), 23)));
        assert_eq!(q.pop(), Some((Cycle::new(1_024), 24)));
        assert_eq!(q.pop(), Some((Cycle::new(1_030), 30)));
    }

    #[test]
    fn with_capacity_behaves_identically() {
        let mut q = EventQueue::with_capacity(10_000);
        for i in 0..2_048u64 {
            q.push(Cycle::new(i / 3), i);
        }
        let mut last = (Cycle::ZERO, 0);
        for _ in 0..2_048 {
            let got = q.pop().unwrap();
            assert!(got.0 > last.0 || (got.0 == last.0 && got.1 >= last.1));
            last = got;
        }
        assert!(q.is_empty());
    }

    /// A straightforward (time, seq) reference implementation: the wheel
    /// must reproduce its pop sequence exactly.
    struct ReferenceHeap<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
    }

    impl<E> ReferenceHeap<E> {
        fn new() -> Self {
            ReferenceHeap {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }
        fn push(&mut self, at: Cycle, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { at, seq, event });
        }
        fn pop(&mut self) -> Option<(Cycle, E)> {
            self.heap.pop().map(|e| (e.at, e.event))
        }
        fn peek_time(&self) -> Option<Cycle> {
            self.heap.peek().map(|e| e.at)
        }
    }

    /// Property test: random (time, payload) mixes with interleaved pops
    /// produce exactly the reference heap's (time, seq) order, and
    /// `peek_time` names the next pop's time after every step. Schedule
    /// distances mix the wheel hot path, the wrap boundary, and the
    /// overflow heap; same-cycle bursts of 300+ events make one slot's
    /// list long while other slots' nodes interleave with it in the slab;
    /// and each episode sweeps the wheel at least three times round, so
    /// every slot is reused at a later cycle. Randomised over 64 seeded
    /// episodes.
    #[test]
    fn wheel_matches_reference_heap_order() {
        let mut rng = SimRng::from_seed(0x37EE1);
        for _ in 0..64 {
            let mut wheel = EventQueue::new();
            let mut reference = ReferenceHeap::new();
            let mut now = 0u64;
            let mut next_id = 0u64;
            let mut bursts = 0;
            for step in 0..4_000u64 {
                // Push less often the longer the backlog, so a burst drains
                // and simulated time keeps moving.
                if rng.below(wheel.len() as u64 + 64) < 64 {
                    // Push at a distance that exercises all three regimes.
                    let dist = match rng.below(10) {
                        0..=5 => rng.below(16),                  // hot bucket
                        6 | 7 => rng.below(WHEEL_SLOTS as u64),  // whole wheel
                        8 => WHEEL_SLOTS as u64 + rng.below(64), // horizon edge
                        _ => rng.below(100_000),                 // deep overflow
                    };
                    // One burst per episode for certain, more by chance.
                    let count = if step == 1_000 || rng.below(500) == 0 {
                        bursts += 1;
                        300 + rng.below(100)
                    } else {
                        1
                    };
                    for _ in 0..count {
                        wheel.push(Cycle::new(now + dist), next_id);
                        reference.push(Cycle::new(now + dist), next_id);
                        next_id += 1;
                    }
                } else {
                    let got = wheel.pop();
                    assert_eq!(got, reference.pop(), "pop sequences diverged");
                    if let Some((at, _)) = got {
                        now = at.as_u64();
                    }
                }
                assert_eq!(wheel.peek_time(), reference.peek_time(), "peek diverged");
                assert_eq!(wheel.len(), reference.heap.len());
            }
            assert!(bursts >= 1);
            assert!(
                now >= 3 * WHEEL_SLOTS as u64,
                "episode ended at cycle {now}: the wheel did not wrap three times"
            );
            loop {
                let got = wheel.pop();
                assert_eq!(got, reference.pop(), "drain sequences diverged");
                assert_eq!(wheel.peek_time(), reference.peek_time(), "peek diverged");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    /// The free list is really reused: a million pushes with never more
    /// than `K` events pending leave a slab of at most `K` nodes.
    #[test]
    fn slab_is_bounded_by_high_water_mark() {
        const K: usize = 48;
        let mut rng = SimRng::from_seed(0x51AB);
        let mut q = EventQueue::with_capacity(K);
        let mut now = 0u64;
        for i in 0..1_000_000u64 {
            if q.len() == K || (!q.is_empty() && rng.below(2) == 0) {
                now = q.pop().expect("non-empty").0.as_u64();
            }
            q.push(Cycle::new(now + rng.below(WHEEL_SLOTS as u64)), i);
        }
        assert_eq!(q.total_pushed(), 1_000_000);
        assert!(q.nodes.len() <= K, "slab grew to {} nodes", q.nodes.len());
        assert_eq!(q.nodes.capacity(), K, "slab reallocated");
        assert!(format!("{q:?}").contains(&format!("slab: {}", q.nodes.len())));
    }

    /// Wheel edge (`now + 1023`) and overflow edge (exactly `now + 1024`)
    /// both pop at the cycle they were pushed for — the wheel stores no
    /// timestamp — after `now` has crossed several multiples of 1024, and
    /// a migrated event still precedes a later direct push to its cycle.
    #[test]
    fn derived_timestamps_survive_the_wrap() {
        let mut q = EventQueue::new();
        let mut now = 0u64;
        for lap in 0..5u64 {
            // An off-grid start so slot and cursor differ in every lap.
            let edge = now + WHEEL_SLOTS as u64 - 1;
            let over = now + WHEEL_SLOTS as u64;
            q.push(Cycle::new(over), "over"); // overflow heap
            q.push(Cycle::new(edge), "edge"); // last wheel slot ahead of now
            q.push(Cycle::new(now + 700), "mid");
            assert_eq!(q.overflow.len(), 1);
            assert_eq!(q.pop(), Some((Cycle::new(now + 700), "mid")));
            // 700 cycles on, `over` is inside the horizon and has migrated.
            assert_eq!(q.overflow.len(), 0);
            q.push(Cycle::new(over), "direct");
            assert_eq!(q.peek_time(), Some(Cycle::new(edge)));
            assert_eq!(q.pop(), Some((Cycle::new(edge), "edge")));
            assert_eq!(q.pop(), Some((Cycle::new(over), "over")));
            assert_eq!(q.pop(), Some((Cycle::new(over), "direct")));
            assert!(q.is_empty());
            now = over + 37 * lap;
            q.push(Cycle::new(now), "advance");
            assert_eq!(q.pop(), Some((Cycle::new(now), "advance")));
        }
        assert!(now > 5 * WHEEL_SLOTS as u64);
    }

    /// The free list is LIFO: the node a pop just released is the one the
    /// next push takes.
    #[test]
    fn freed_node_is_reused_first() {
        let mut q = EventQueue::new();
        for (at, e) in [(1, 'a'), (2, 'b'), (3, 'c')] {
            q.push(Cycle::new(at), e); // nodes 0, 1, 2
        }
        assert_eq!(q.pop(), Some((Cycle::new(1), 'a'))); // frees 0
        assert_eq!(q.pop(), Some((Cycle::new(2), 'b'))); // frees 1
        q.push(Cycle::new(9), 'd');
        assert_eq!(q.tails[9], 1, "the last node freed is reused first");
        q.push(Cycle::new(9), 'e');
        assert_eq!(q.tails[9], 0);
        q.push(Cycle::new(9), 'f');
        assert_eq!(q.tails[9], 3, "free list empty: the slab grows");
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, ['c', 'd', 'e', 'f']);
        assert_eq!(q.nodes.len(), 4);
    }

    /// Two cycles whose nodes alternate in the slab each pop in their own
    /// push order.
    #[test]
    fn interleaved_slots_keep_per_slot_fifo() {
        let mut q = EventQueue::new();
        for i in 0..50u32 {
            q.push(Cycle::new(9), 2 * i + 1);
            q.push(Cycle::new(5), 2 * i);
        }
        for i in 0..50u32 {
            assert_eq!(q.pop(), Some((Cycle::new(5), 2 * i)));
        }
        // Refill cycle 9 through recycled nodes, in reverse slab order.
        for i in 50..100u32 {
            q.push(Cycle::new(9), 2 * i + 1);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((Cycle::new(9), 2 * i + 1)));
        }
        assert!(q.is_empty());
    }
}
