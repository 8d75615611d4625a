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

use std::collections::VecDeque;

use patchsim_mem::{SharerEncoding, SharerSet};
use patchsim_noc::{DestSet, NodeId};

/// The request a busy home is serving.
#[derive(Debug)]
pub(crate) struct Busy {
    pub requester: NodeId,
    pub serial: u64,
    /// The requester ends up the block's only holder (a write, or a read
    /// granted exclusively), which resets the sharer set on deactivation.
    sole_holder: bool,
    old_owner: Option<NodeId>,
}

/// One block's directory state at its home. `M` is what the protocol keeps
/// for memory's copy, `Q` what it queues behind a busy block.
#[derive(Debug)]
pub(crate) struct HomeEntry<M, Q> {
    /// The cache responsible for supplying data; `None` means memory.
    /// Always exact, whatever the sharer encoding.
    pub owner: Option<NodeId>,
    /// A superset of the other caches that may hold a copy.
    pub sharers: SharerSet,
    pub busy: Option<Busy>,
    pub queue: VecDeque<Q>,
    pub memory: M,
}

impl<M, Q> HomeEntry<M, Q> {
    /// An untouched block: owned by memory, no sharers, idle.
    pub fn new(num_nodes: u16, encoding: SharerEncoding, memory: M) -> Self {
        HomeEntry {
            owner: None,
            sharers: SharerSet::new(num_nodes, encoding),
            busy: None,
            queue: VecDeque::new(),
            memory,
        }
    }

    /// Whom a request is forwarded to: the owner (for data) plus, when
    /// `invalidating`, every — possibly stale — sharer. The requester never
    /// receives its own forward.
    pub fn forward_targets(&self, n: u16, requester: NodeId, invalidating: bool) -> DestSet {
        let mut targets = if invalidating {
            self.sharers.members()
        } else {
            DestSet::empty(n)
        };
        if let Some(owner) = self.owner {
            targets.insert(owner);
        }
        targets.remove(requester);
        targets
    }

    /// Makes `requester` the block's active request; everything else now
    /// waits for its deactivation.
    pub fn activate(&mut self, requester: NodeId, serial: u64, sole_holder: bool) {
        debug_assert!(self.busy.is_none());
        self.busy = Some(Busy {
            requester,
            serial,
            sole_holder,
            old_owner: self.owner,
        });
    }

    /// Retires the active request and records where the block now lives.
    /// `new_owner` is whether the requester took ownership; when it did not,
    /// it still holds a copy and is tracked as a sharer.
    ///
    /// # Panics
    ///
    /// Panics unless `(requester, serial)` is the active request.
    pub fn deactivate(&mut self, requester: NodeId, serial: u64, new_owner: bool) {
        let busy = self.busy.take().expect("deactivate at idle home");
        assert_eq!(busy.requester, requester, "deactivate from wrong node");
        assert_eq!(busy.serial, serial, "deactivate serial mismatch");
        if busy.sole_holder {
            self.sharers.clear();
            self.owner = Some(requester);
        } else {
            if new_owner {
                self.owner = Some(requester);
            } else {
                self.sharers.insert(requester);
            }
            // A previous owner that lost ownership keeps a shared copy.
            if let Some(old) = busy.old_owner {
                if old != requester && self.owner != Some(old) {
                    self.sharers.insert(old);
                }
            }
        }
    }

    /// No request is active and none is waiting.
    pub fn is_idle(&self) -> bool {
        self.busy.is_none() && self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u16 = 16;

    fn node(i: u16) -> NodeId {
        NodeId::new(i)
    }

    /// An entry owned by P1 with sharers P2 and P3.
    fn shared_entry(encoding: SharerEncoding) -> HomeEntry<(), ()> {
        let mut e = HomeEntry::new(N, encoding, ());
        e.owner = Some(node(1));
        e.sharers.insert(node(2));
        e.sharers.insert(node(3));
        e
    }

    fn targets(e: &HomeEntry<(), ()>, requester: u16, invalidating: bool) -> Vec<u16> {
        let set = e.forward_targets(N, node(requester), invalidating);
        set.iter().map(|n| n.raw()).collect()
    }

    #[test]
    fn a_read_is_forwarded_to_the_owner_only() {
        let e = shared_entry(SharerEncoding::FullMap);
        assert_eq!(targets(&e, 5, false), [1]);
    }

    #[test]
    fn an_invalidating_request_is_forwarded_to_owner_and_sharers() {
        let e = shared_entry(SharerEncoding::FullMap);
        assert_eq!(targets(&e, 5, true), [1, 2, 3]);
    }

    #[test]
    fn the_requester_never_receives_its_own_forward() {
        let e = shared_entry(SharerEncoding::FullMap);
        assert_eq!(targets(&e, 2, true), [1, 3]);
        assert_eq!(targets(&e, 1, false), [0u16; 0]);
    }

    #[test]
    fn an_owner_upgrade_is_forwarded_to_the_sharers_alone() {
        let e = shared_entry(SharerEncoding::FullMap);
        assert_eq!(targets(&e, 1, true), [2, 3]);
    }

    #[test]
    fn inexact_encodings_forward_to_the_whole_implicated_superset() {
        let coarse = shared_entry(SharerEncoding::Coarse { cores_per_bit: 4 });
        assert_eq!(targets(&coarse, 5, true), [0, 1, 2, 3]);
        assert_eq!(targets(&coarse, 5, false), [1], "the owner stays exact");
        let overflowed = shared_entry(SharerEncoding::LimitedPointer { pointers: 1 });
        let everyone_else: Vec<u16> = (0..N).filter(|&n| n != 5).collect();
        assert_eq!(targets(&overflowed, 5, true), everyone_else);
    }

    #[test]
    fn a_sole_holder_clears_the_sharers_and_owns() {
        let mut e = shared_entry(SharerEncoding::FullMap);
        e.activate(node(5), 7, true);
        assert!(!e.is_idle());
        // Even a requester that reports no owner token is the only holder.
        e.deactivate(node(5), 7, false);
        assert!(e.is_idle());
        assert_eq!(e.owner, Some(node(5)));
        assert!(e.sharers.is_empty());
    }

    #[test]
    fn a_read_that_takes_ownership_keeps_the_old_owner_as_a_sharer() {
        let mut e = shared_entry(SharerEncoding::FullMap);
        e.activate(node(5), 7, false);
        e.deactivate(node(5), 7, true);
        assert_eq!(e.owner, Some(node(5)));
        assert_eq!(targets(&e, 9, true), [1, 2, 3, 5]);
        assert!(!e.sharers.may_contain(node(5)), "the owner is not a sharer");
    }

    #[test]
    fn a_read_that_leaves_ownership_alone_adds_the_requester_as_a_sharer() {
        let mut e = shared_entry(SharerEncoding::FullMap);
        e.activate(node(5), 7, false);
        e.deactivate(node(5), 7, false);
        assert_eq!(e.owner, Some(node(1)));
        assert!(e.sharers.may_contain(node(5)));
        assert!(
            !e.sharers.may_contain(node(1)),
            "the owner that kept ownership is not listed as a sharer too"
        );
    }

    #[test]
    #[should_panic(expected = "deactivate from wrong node")]
    fn deactivation_from_the_wrong_requester_panics() {
        let mut e = shared_entry(SharerEncoding::FullMap);
        e.activate(node(5), 7, false);
        e.deactivate(node(6), 7, true);
    }

    #[test]
    #[should_panic(expected = "deactivate serial mismatch")]
    fn deactivation_with_the_wrong_serial_panics() {
        let mut e = shared_entry(SharerEncoding::FullMap);
        e.activate(node(5), 7, false);
        e.deactivate(node(5), 8, true);
    }

    #[test]
    #[should_panic(expected = "deactivate at idle home")]
    fn deactivation_at_an_idle_home_panics() {
        shared_entry(SharerEncoding::FullMap).deactivate(node(5), 7, true);
    }
}
