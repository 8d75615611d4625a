//! Runtime invariant checkers: token conservation and coherence.

use patchsim_kernel::collections::FxHashMap;

use patchsim_kernel::Cycle;
use patchsim_mem::{AccessKind, BlockAddr};
use patchsim_protocol::{Controller, Msg};

/// Verifies the single-writer/read-latest property using logical block
/// versions.
///
/// Every write produces version `v+1` from the version it observed; the
/// checker asserts the per-block write sequence is strictly `1, 2, 3, …`
/// (a writer whose copy another write had already superseded — a race,
/// or data lost on the way — repeats a version or goes backwards: a lost
/// update; one that skips a version held permission while the write
/// before it was still in progress) and that every read returns the
/// latest written version. A read completing in the very cycle of the
/// latest write may legally observe the version just overwritten — the
/// sub-cycle event order is a simulator artifact — so that single case is
/// tolerated.
///
/// # Examples
///
/// ```
/// use patchsim::{AccessKind, BlockAddr, CoherenceChecker, Cycle};
///
/// let mut c = CoherenceChecker::new();
/// let a = BlockAddr::new(7);
/// c.check(a, AccessKind::Write, 1, Cycle::new(10));
/// c.check(a, AccessKind::Read, 1, Cycle::new(20));
/// ```
#[derive(Debug, Default)]
pub struct CoherenceChecker {
    state: FxHashMap<BlockAddr, BlockVersion>,
    checks: u64,
}

#[derive(Debug, Clone, Copy)]
struct BlockVersion {
    latest: u64,
    written_at: Cycle,
}

impl CoherenceChecker {
    /// Creates a checker with every block at version 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Verifies one completed access.
    ///
    /// # Panics
    ///
    /// Panics if the access violates coherence: a write out of sequence,
    /// or a read observing a stale version.
    pub fn check(&mut self, addr: BlockAddr, kind: AccessKind, version: u64, now: Cycle) {
        self.checks += 1;
        let entry = self.state.entry(addr).or_insert(BlockVersion {
            latest: 0,
            written_at: Cycle::ZERO,
        });
        match kind {
            AccessKind::Write => {
                assert!(
                    version == entry.latest + 1,
                    "coherence violation at {addr}: write produced v{version} but the \
                     last committed write was v{} — {}",
                    entry.latest,
                    if version <= entry.latest {
                        "lost update: the writer started from a stale copy"
                    } else {
                        "two writers held permission concurrently"
                    }
                );
                entry.latest = version;
                entry.written_at = now;
            }
            AccessKind::Read => {
                let ok = version == entry.latest
                    || (now == entry.written_at && version + 1 == entry.latest);
                assert!(
                    ok,
                    "coherence violation at {addr}: read observed v{version} at {now} \
                     but the latest write was v{} (at {})",
                    entry.latest, entry.written_at
                );
            }
        }
    }

    /// Number of accesses checked.
    pub fn checks_performed(&self) -> u64 {
        self.checks
    }
}

/// Audits token conservation (Table 1, Rule 1): for every block, the
/// tokens held across all nodes plus the tokens in flight must total
/// exactly `T`, with exactly one owner token.
#[derive(Debug)]
pub struct TokenAuditor {
    total: u32,
    /// Whether per-block in-flight state is maintained (required by
    /// [`TokenAuditor::audit`]). Coarse auditors track only the global
    /// net in-flight count — two integer ops per message instead of a
    /// hash-map update — for runs with per-event checking off.
    track_blocks: bool,
    /// Tokens currently in flight across all blocks.
    net_tokens: u64,
    in_flight: FxHashMap<BlockAddr, InFlight>,
    audits: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct InFlight {
    tokens: u64,
    owners: u32,
}

impl TokenAuditor {
    /// Creates an auditor for blocks with `total` tokens each.
    pub fn new(total: u32) -> Self {
        TokenAuditor {
            total,
            track_blocks: true,
            net_tokens: 0,
            in_flight: FxHashMap::default(),
            audits: 0,
        }
    }

    /// Creates a coarse auditor: no per-block state, only the global
    /// in-flight count needed by the end-of-run drain check. Used when
    /// per-event checking is off; [`TokenAuditor::audit`] must not be
    /// called on it.
    pub fn coarse(total: u32) -> Self {
        TokenAuditor {
            track_blocks: false,
            ..Self::new(total)
        }
    }

    /// Records a message entering the interconnect.
    #[inline]
    pub fn on_send(&mut self, msg: &Msg) {
        let tokens = msg.tokens();
        if tokens.is_empty() {
            return;
        }
        self.net_tokens += tokens.count() as u64;
        if self.track_blocks {
            let entry = self.in_flight.entry(msg.addr).or_default();
            entry.tokens += tokens.count() as u64;
            entry.owners += u32::from(tokens.has_owner());
        }
    }

    /// Records a message leaving the interconnect.
    ///
    /// # Panics
    ///
    /// Panics if more tokens arrive than were sent — a token was forged.
    /// (Coarse auditors detect only global forgery, not per-block.)
    #[inline]
    pub fn on_deliver(&mut self, msg: &Msg) {
        let tokens = msg.tokens();
        if tokens.is_empty() {
            return;
        }
        assert!(
            self.net_tokens >= tokens.count() as u64,
            "token forgery: more tokens delivered than sent for {}",
            msg.addr
        );
        self.net_tokens -= tokens.count() as u64;
        if self.track_blocks {
            let entry = self.in_flight.entry(msg.addr).or_default();
            assert!(
                entry.tokens >= tokens.count() as u64,
                "token forgery: more tokens delivered than sent for {}",
                msg.addr
            );
            entry.tokens -= tokens.count() as u64;
            entry.owners -= u32::from(tokens.has_owner());
        }
    }

    /// Verifies conservation for `addr` across `nodes`.
    ///
    /// # Panics
    ///
    /// Panics if tokens were created or destroyed, or the owner token
    /// duplicated or lost — or if this auditor was built with
    /// [`TokenAuditor::coarse`], which does not keep the per-block state
    /// an audit needs.
    pub fn audit(&mut self, addr: BlockAddr, nodes: &[Box<dyn Controller + Send>]) {
        assert!(
            self.track_blocks,
            "audit called on a coarse (checks-off) token auditor"
        );
        self.audits += 1;
        let mut held = 0u64;
        let mut owners = 0u32;
        for node in nodes {
            let Some(tokens) = node.held_tokens(addr) else {
                // Tokenless protocol: nothing to audit.
                return;
            };
            held += tokens.count() as u64;
            owners += u32::from(tokens.has_owner());
        }
        let flight = self.in_flight.get(&addr).copied().unwrap_or_default();
        assert_eq!(
            held + flight.tokens,
            self.total as u64,
            "token conservation violated for {addr}: {held} held + {} in flight != {}",
            flight.tokens,
            self.total
        );
        assert_eq!(
            owners + flight.owners,
            1,
            "owner token count for {addr} is {} (must be exactly 1)",
            owners + flight.owners
        );
    }

    /// Number of audits performed.
    pub fn audits_performed(&self) -> u64 {
        self.audits
    }

    /// Tokens currently in flight across all blocks, for end-of-run
    /// drain checks.
    pub fn tokens_in_flight(&self) -> u64 {
        debug_assert!(
            !self.track_blocks
                || self.net_tokens == self.in_flight.values().map(|f| f.tokens).sum::<u64>()
        );
        self.net_tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u64) -> BlockAddr {
        BlockAddr::new(n)
    }

    #[test]
    fn write_sequence_must_increment() {
        let mut c = CoherenceChecker::new();
        c.check(a(1), AccessKind::Write, 1, Cycle::new(5));
        c.check(a(1), AccessKind::Write, 2, Cycle::new(9));
        assert_eq!(c.checks_performed(), 2);
    }

    #[test]
    #[should_panic(expected = "was v1 — lost update")]
    fn duplicate_write_version_panics() {
        let mut c = CoherenceChecker::new();
        c.check(a(1), AccessKind::Write, 1, Cycle::new(5));
        c.check(a(1), AccessKind::Write, 1, Cycle::new(9));
    }

    #[test]
    #[should_panic(expected = "was v1 — two writers held permission")]
    fn skipped_write_version_panics() {
        let mut c = CoherenceChecker::new();
        c.check(a(1), AccessKind::Write, 1, Cycle::new(5));
        c.check(a(1), AccessKind::Write, 3, Cycle::new(9));
    }

    #[test]
    fn read_sees_latest() {
        let mut c = CoherenceChecker::new();
        c.check(a(1), AccessKind::Write, 1, Cycle::new(5));
        c.check(a(1), AccessKind::Read, 1, Cycle::new(9));
    }

    #[test]
    #[should_panic(expected = "coherence violation")]
    fn stale_read_panics() {
        let mut c = CoherenceChecker::new();
        c.check(a(1), AccessKind::Write, 1, Cycle::new(5));
        c.check(a(1), AccessKind::Write, 2, Cycle::new(7));
        c.check(a(1), AccessKind::Read, 1, Cycle::new(9));
    }

    #[test]
    fn same_cycle_read_of_previous_version_tolerated() {
        let mut c = CoherenceChecker::new();
        c.check(a(1), AccessKind::Write, 1, Cycle::new(5));
        c.check(a(1), AccessKind::Write, 2, Cycle::new(7));
        // Read completing in the same cycle as the v2 write may see v1.
        c.check(a(1), AccessKind::Read, 1, Cycle::new(7));
    }

    #[test]
    fn reads_of_never_written_blocks_see_zero() {
        let mut c = CoherenceChecker::new();
        c.check(a(9), AccessKind::Read, 0, Cycle::new(1));
    }

    #[test]
    fn in_flight_accounting_balances() {
        use patchsim_mem::{OwnerStatus, TokenSet};
        use patchsim_noc::NodeId;
        use patchsim_protocol::MsgBody;

        let mut auditor = TokenAuditor::new(4);
        let msg = Msg::new(
            a(3),
            MsgBody::Ack {
                from: NodeId::new(0),
                serial: 0,
                tokens: TokenSet::full(2, OwnerStatus::Clean),
                activation: false,
            },
        );
        auditor.on_send(&msg);
        assert_eq!(auditor.tokens_in_flight(), 2);
        auditor.on_deliver(&msg);
        assert_eq!(auditor.tokens_in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "token forgery")]
    fn delivering_unsent_tokens_panics() {
        use patchsim_mem::TokenSet;
        use patchsim_noc::NodeId;
        use patchsim_protocol::MsgBody;

        let mut auditor = TokenAuditor::new(4);
        let msg = Msg::new(
            a(3),
            MsgBody::Ack {
                from: NodeId::new(0),
                serial: 0,
                tokens: TokenSet::plain(2),
                activation: false,
            },
        );
        auditor.on_deliver(&msg);
    }
}
