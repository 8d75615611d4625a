//! Helpers shared by the protocol implementations.

use patchsim_kernel::stats::Ewma;
use patchsim_mem::AccessKind;
use patchsim_noc::NodeId;

/// A running estimate of miss round-trip latency, used for PATCH's
/// adaptive tenure timeout and TokenB's reissue timeout.
///
/// Starts from a conservative prior so that cold-start timeouts are sane,
/// then tracks the observed average with an exponentially weighted moving
/// average.
#[derive(Debug, Clone)]
pub struct LatencyEstimator {
    ewma: Ewma,
}

impl LatencyEstimator {
    /// Creates an estimator with the given prior mean (cycles).
    pub fn new(prior: f64) -> Self {
        LatencyEstimator {
            ewma: Ewma::new(0.1, prior),
        }
    }

    /// Records one observed miss round-trip.
    pub fn record(&mut self, cycles: u64) {
        self.ewma.record(cycles as f64);
    }

    /// The current average estimate.
    pub fn average(&self) -> f64 {
        self.ewma.value()
    }
}

impl Default for LatencyEstimator {
    fn default() -> Self {
        // A generous prior: a few traversals plus a DRAM access.
        LatencyEstimator::new(200.0)
    }
}

/// A block's migratory-sharing state at its home (§5.1: DIRECTORY
/// "supports ... a migratory sharing optimization", which PATCH inherits);
/// one field of the block's home entry.
///
/// The classic pattern is a chain of read-modify-write pairs by different
/// processors. A write by the processor that issued the immediately
/// preceding request, a read, marks the block migratory; from then on
/// every read is upgraded to an exclusive grant, so each processor's pair
/// costs one miss instead of two. `Migratory` is terminal: no later read
/// or write, by any node, makes the block shared again.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum Sharing {
    /// No request observed yet.
    #[default]
    Untouched,
    /// The last request observed, by whom.
    Last(NodeId, AccessKind),
    /// Reads are upgraded, for good.
    Migratory,
}

impl Sharing {
    /// Records a request the home is about to activate and returns whether
    /// it is a read to upgrade to an exclusive grant.
    pub fn observe(&mut self, requester: NodeId, kind: AccessKind) -> bool {
        if *self == Sharing::Migratory {
            return kind == AccessKind::Read;
        }
        *self = if kind.is_write() && *self == Sharing::Last(requester, AccessKind::Read) {
            Sharing::Migratory
        } else {
            Sharing::Last(requester, kind)
        };
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u16) -> NodeId {
        NodeId::new(n)
    }

    #[test]
    fn latency_estimator_tracks() {
        let mut e = LatencyEstimator::new(100.0);
        for _ in 0..100 {
            e.record(300);
        }
        assert!((e.average() - 300.0).abs() < 5.0);
    }

    #[test]
    fn detects_read_write_pair() {
        let mut s = Sharing::Untouched;
        assert!(!s.observe(p(0), AccessKind::Read));
        assert!(!s.observe(p(0), AccessKind::Write));
        assert_eq!(s, Sharing::Migratory);
        // Next processor's read is upgraded.
        assert!(s.observe(p(1), AccessKind::Read));
        // And the chain continues to a third processor.
        assert!(s.observe(p(2), AccessKind::Read));
    }

    #[test]
    fn different_processors_do_not_trigger() {
        let mut s = Sharing::Untouched;
        s.observe(p(0), AccessKind::Read);
        s.observe(p(1), AccessKind::Write);
        assert_ne!(s, Sharing::Migratory, "read and write by different nodes");
    }

    #[test]
    fn migratory_is_terminal() {
        let mut s = Sharing::Untouched;
        s.observe(p(0), AccessKind::Read);
        s.observe(p(0), AccessKind::Write);
        // Reads and writes by any node, the first migrant included, keep
        // the block migratory: every read is upgraded, no write is.
        for (node, kind) in [
            (0, AccessKind::Read),
            (1, AccessKind::Read),
            (1, AccessKind::Read),
            (2, AccessKind::Write),
            (3, AccessKind::Write),
            (3, AccessKind::Read),
            (0, AccessKind::Write),
        ] {
            assert_eq!(s.observe(p(node), kind), kind == AccessKind::Read);
            assert_eq!(s, Sharing::Migratory);
        }
    }

    #[test]
    fn blocks_are_independent() {
        let (mut s1, mut s2) = (Sharing::Untouched, Sharing::Untouched);
        s1.observe(p(0), AccessKind::Read);
        s1.observe(p(0), AccessKind::Write);
        assert_eq!(s1, Sharing::Migratory);
        assert_eq!(s2, Sharing::Untouched);
        assert!(!s2.observe(p(1), AccessKind::Read));
    }
}
