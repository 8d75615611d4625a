//! Per-link priority queueing with best-effort staleness drop.

use std::collections::VecDeque;

use patchsim_kernel::Cycle;

/// Delivery priority of a message.
///
/// PATCH's bandwidth adaptivity rests on a two-level priority scheme: all
/// correctness-relevant traffic (indirect requests, forwards, data, acks)
/// travels at [`Priority::Normal`] and is never dropped, while predictive
/// direct requests travel at [`Priority::BestEffort`] — they transmit only
/// when no normal-priority packet wants the link, and are discarded once
/// they have been queued longer than the configured staleness bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Guaranteed delivery; never dropped, always preferred.
    Normal,
    /// Performance-hint traffic: strictly lower priority, dropped when
    /// stale. Losing such a message must be harmless to correctness.
    BestEffort,
}

/// A queued packet with its enqueue timestamp (for staleness checks).
#[derive(Debug)]
struct Queued<P> {
    enqueued_at: Cycle,
    packet: P,
}

/// The waiting room of one link: a strict-priority pair of FIFO queues.
#[derive(Debug)]
pub(crate) struct PriorityQueue<P> {
    normal: VecDeque<Queued<P>>,
    best_effort: VecDeque<Queued<P>>,
}

impl<P> PriorityQueue<P> {
    /// Creates an empty queue. It allocates nothing until a packet waits.
    pub(crate) fn new() -> Self {
        PriorityQueue {
            normal: VecDeque::new(),
            best_effort: VecDeque::new(),
        }
    }

    pub(crate) fn push(&mut self, now: Cycle, priority: Priority, packet: P) {
        let q = Queued {
            enqueued_at: now,
            packet,
        };
        match priority {
            Priority::Normal => self.normal.push_back(q),
            Priority::BestEffort => self.best_effort.push_back(q),
        }
    }

    /// Pops the next packet to serve: normal priority first, FIFO within a
    /// level. Best-effort packets that have been queued for more than
    /// `stale_after` cycles are dropped (reported through `on_drop`) rather
    /// than served.
    pub(crate) fn pop(
        &mut self,
        now: Cycle,
        stale_after: u64,
        mut on_drop: impl FnMut(P),
    ) -> Option<P> {
        if let Some(q) = self.normal.pop_front() {
            return Some(q.packet);
        }
        while let Some(q) = self.best_effort.pop_front() {
            if now.saturating_since(q.enqueued_at) > stale_after {
                on_drop(q.packet);
            } else {
                return Some(q.packet);
            }
        }
        None
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.normal.is_empty() && self.best_effort.is_empty()
    }

    pub(crate) fn len(&self) -> usize {
        self.normal.len() + self.best_effort.len()
    }

    /// Packets the queue has room for without reallocating, both levels.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.normal.capacity() + self.best_effort.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: u64) -> Cycle {
        Cycle::new(n)
    }

    #[test]
    fn normal_precedes_best_effort() {
        let mut q = PriorityQueue::new();
        q.push(c(0), Priority::BestEffort, "hint");
        q.push(c(1), Priority::Normal, "real");
        assert_eq!(q.pop(c(2), 100, |_| panic!("no drops")), Some("real"));
        assert_eq!(q.pop(c(2), 100, |_| panic!("no drops")), Some("hint"));
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_within_level() {
        let mut q = PriorityQueue::new();
        q.push(c(0), Priority::Normal, 1);
        q.push(c(0), Priority::Normal, 2);
        q.push(c(0), Priority::Normal, 3);
        assert_eq!(q.pop(c(0), 0, |_| ()), Some(1));
        assert_eq!(q.pop(c(0), 0, |_| ()), Some(2));
        assert_eq!(q.pop(c(0), 0, |_| ()), Some(3));
    }

    #[test]
    fn stale_best_effort_is_dropped() {
        let mut q = PriorityQueue::new();
        q.push(c(0), Priority::BestEffort, "old");
        q.push(c(90), Priority::BestEffort, "fresh");
        let mut dropped = Vec::new();
        // At cycle 150, "old" has waited 150 > 100 and is dropped; "fresh"
        // has waited 60 and is served.
        assert_eq!(q.pop(c(150), 100, |p| dropped.push(p)), Some("fresh"));
        assert_eq!(dropped, vec!["old"]);
    }

    #[test]
    fn exactly_at_bound_is_not_stale() {
        let mut q = PriorityQueue::new();
        q.push(c(0), Priority::BestEffort, "edge");
        assert_eq!(q.pop(c(100), 100, |_| panic!("no drops")), Some("edge"));
    }

    #[test]
    fn normal_is_never_dropped() {
        let mut q = PriorityQueue::new();
        q.push(c(0), Priority::Normal, "slow but sure");
        assert_eq!(
            q.pop(c(1_000_000), 100, |_| panic!("no drops")),
            Some("slow but sure")
        );
    }

    #[test]
    fn len_counts_both_levels() {
        let mut q = PriorityQueue::new();
        q.push(c(0), Priority::Normal, 1);
        q.push(c(0), Priority::BestEffort, 2);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn pop_empty_returns_none() {
        let mut q: PriorityQueue<u8> = PriorityQueue::new();
        assert_eq!(q.pop(c(0), 0, |_| ()), None);
    }
}
