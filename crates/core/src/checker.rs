//! Runtime invariant checkers: token conservation and coherence.

use patchsim_kernel::collections::FxHashMap;

use patchsim_kernel::Cycle;
use patchsim_mem::{AccessKind, BlockAddr, TokenSet};
use patchsim_noc::NodeId;
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
///
/// # What is checked, and when
///
/// - **Every message**, at [`on_send`](TokenAuditor::on_send) and
///   [`on_deliver`](TokenAuditor::on_deliver): a block's in-flight tokens
///   and owner tokens never go negative. Delivering what was never sent is
///   a forgery.
/// - **Every action** (`System` and `Cluster` scope each delivery, core
///   request and timer): the acting node's
///   holdings of the block the action concerns must move by exactly the
///   net flow, tokens delivered minus tokens sent for that block, in count
///   and in owner. Only the acting node is asked, before and after, so the
///   check costs two `held_tokens` calls rather than one per node.
///   Controllers change only their own holdings and only while they act,
///   so conservation that held before the action still holds after it.
///   Any *other* block the action sent tokens for (an eviction victim)
///   gets a full [`audit`](TokenAuditor::audit) across every node.
/// - **At the end** (`System::try_run`'s postconditions,
///   `Cluster::assert_quiescent`): a full audit of every block that has
///   ever been in flight.
///
/// **Detection delay.** An action's holdings of a block it neither
/// concerns nor sends tokens for are not looked at. A node that silently
/// drops or mints such tokens — an eviction that discards its victim's
/// tokens instead of `Put`ting them home — is caught at the final sweep,
/// not at the action that did it; a block that was never in flight is
/// not swept at all.
///
/// [`audit`](TokenAuditor::audit) itself stays a full per-block audit for
/// callers that run it directly after each delivery;
/// [`audits_performed`](TokenAuditor::audits_performed) counts those calls
/// and scoped deliveries alike, one per delivered message.
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
    in_flight: FxHashMap<BlockAddr, Tally>,
    /// The open action, if any (never on a coarse auditor or a tokenless
    /// protocol).
    scope: Option<Scope>,
    /// Blocks other than the scope's that the open action sent tokens
    /// for; audited in full when it closes. Reused scratch.
    victims: Vec<BlockAddr>,
    audits: u64,
}

/// A token count with its owner tokens.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    tokens: u64,
    owners: u32,
}

impl Tally {
    fn of(tokens: TokenSet) -> Self {
        Tally {
            tokens: u64::from(tokens.count()),
            owners: u32::from(tokens.has_owner()),
        }
    }

    fn add(&mut self, tokens: TokenSet) {
        let more = Tally::of(tokens);
        self.tokens += more.tokens;
        self.owners += more.owners;
    }
}

/// One node's action on one block: its holdings before the controller
/// call and the tokens that flowed in and out of it since.
#[derive(Debug, Clone, Copy)]
struct Scope {
    node: NodeId,
    addr: BlockAddr,
    before: Tally,
    received: Tally,
    sent: Tally,
}

impl Scope {
    /// Asserts `after = before + received − sent`, owner first.
    fn check(&self, after: Tally) {
        let Scope {
            node,
            addr,
            before,
            received,
            sent,
        } = *self;
        assert!(
            before.owners + received.owners == after.owners + sent.owners,
            "owner token for {addr} at {node} duplicated or lost: held {}, received {}, \
             sent {}, now holds {}",
            before.owners,
            received.owners,
            sent.owners,
            after.owners,
        );
        assert!(
            before.tokens + received.tokens == after.tokens + sent.tokens,
            "token conservation violated for {addr} at {node}: held {}, received {}, \
             sent {}, now holds {}",
            before.tokens,
            received.tokens,
            sent.tokens,
            after.tokens,
        );
    }
}

impl TokenAuditor {
    /// Creates an auditor for blocks with `total` tokens each.
    pub fn new(total: u32) -> Self {
        TokenAuditor {
            total,
            track_blocks: true,
            net_tokens: 0,
            in_flight: FxHashMap::default(),
            scope: None,
            victims: Vec::new(),
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
            self.in_flight.entry(msg.addr).or_default().add(tokens);
            if let Some(scope) = &mut self.scope {
                if scope.addr == msg.addr {
                    scope.sent.add(tokens);
                } else {
                    self.victims.push(msg.addr);
                }
            }
        }
    }

    /// Records a message leaving the interconnect.
    ///
    /// # Panics
    ///
    /// Panics if more tokens, or an owner token, arrive than were sent — a
    /// token was forged. (Coarse auditors detect only global forgery, not
    /// per-block.)
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
            assert!(
                entry.owners >= u32::from(tokens.has_owner()),
                "token forgery: an owner token delivered for {} that no message in flight carries",
                msg.addr
            );
            entry.tokens -= tokens.count() as u64;
            entry.owners -= u32::from(tokens.has_owner());
        }
    }

    /// Opens the scope of `node`'s core request or timer on `addr`:
    /// snapshots the node's holdings of the block. The caller fans the
    /// call's sends out through [`TokenAuditor::on_send`] and then closes
    /// the scope with `end_action`. A no-op on a coarse auditor.
    #[inline]
    pub(crate) fn begin_action(
        &mut self,
        nodes: &[Box<dyn Controller + Send>],
        node: NodeId,
        addr: BlockAddr,
    ) {
        if self.track_blocks {
            self.open(nodes, node, addr, TokenSet::empty());
        }
    }

    /// Records `msg` leaving the interconnect for `node`, as
    /// [`TokenAuditor::on_deliver`] does, and opens the delivery's scope
    /// (`begin_action` for the message's block, with its tokens received).
    /// A delivery is the one action [`TokenAuditor::audits_performed`]
    /// counts.
    #[inline]
    pub(crate) fn begin_delivery(
        &mut self,
        nodes: &[Box<dyn Controller + Send>],
        node: NodeId,
        msg: &Msg,
    ) {
        self.on_deliver(msg);
        if self.track_blocks {
            self.audits += 1;
            self.open(nodes, node, msg.addr, msg.tokens());
        }
    }

    fn open(
        &mut self,
        nodes: &[Box<dyn Controller + Send>],
        node: NodeId,
        addr: BlockAddr,
        received: TokenSet,
    ) {
        debug_assert!(self.scope.is_none(), "action scopes do not nest");
        // A tokenless protocol opens no scope: nothing to audit.
        self.scope = nodes[node.index()].held_tokens(addr).map(|before| Scope {
            node,
            addr,
            before: Tally::of(before),
            received: Tally::of(received),
            sent: Tally::default(),
        });
    }

    /// Closes the open action: the acting node's holdings of its block
    /// must have moved by exactly the net flow, and every other block it
    /// sent tokens for gets a full audit (uncounted). A no-op when no
    /// scope is open.
    ///
    /// # Panics
    ///
    /// Panics if the node duplicated, lost or forged tokens of the block,
    /// in count or owner, or if a victim block fails its audit.
    #[inline]
    pub(crate) fn end_action(&mut self, nodes: &[Box<dyn Controller + Send>]) {
        let Some(scope) = self.scope.take() else {
            return;
        };
        let after = nodes[scope.node.index()]
            .held_tokens(scope.addr)
            .expect("the protocol reported holdings when the scope opened");
        scope.check(Tally::of(after));
        for &victim in &self.victims {
            self.check_block(victim, nodes);
        }
        self.victims.clear();
    }

    /// Audits, uncounted, every block that has ever been in flight: the
    /// end-of-run check that finds what per-action scopes do not look at.
    /// A no-op on a coarse auditor, which keeps no per-block state.
    ///
    /// # Panics
    ///
    /// As [`TokenAuditor::audit`], for the first block that fails.
    pub(crate) fn sweep(&self, nodes: &[Box<dyn Controller + Send>]) {
        for &addr in self.in_flight.keys() {
            self.check_block(addr, nodes);
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
        self.check_block(addr, nodes);
    }

    /// [`TokenAuditor::audit`] without the count.
    fn check_block(&self, addr: BlockAddr, nodes: &[Box<dyn Controller + Send>]) {
        let mut held = Tally::default();
        for node in nodes {
            let Some(tokens) = node.held_tokens(addr) else {
                // Tokenless protocol: nothing to audit.
                return;
            };
            held.add(tokens);
        }
        let flight = self.in_flight.get(&addr).copied().unwrap_or_default();
        assert_eq!(
            held.tokens + flight.tokens,
            self.total as u64,
            "token conservation violated for {addr}: {} held + {} in flight != {}; holders: {}",
            held.tokens,
            flight.tokens,
            self.total,
            holders(nodes, addr),
        );
        // Widened: a u32 sum could wrap back to exactly 1.
        let owners = u64::from(held.owners) + u64::from(flight.owners);
        assert_eq!(
            owners,
            1,
            "owner token count for {addr} is {owners} (must be exactly 1); holders: {}",
            holders(nodes, addr),
        );
    }

    /// Blocks with tokens still in flight, and how many. Empty on a
    /// coarse auditor, which keeps no per-block state.
    pub(crate) fn blocks_in_flight(&self) -> impl Iterator<Item = (BlockAddr, u64)> + '_ {
        let blocks = self.in_flight.iter();
        blocks.filter_map(|(&addr, flight)| (flight.tokens > 0).then_some((addr, flight.tokens)))
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

/// Who holds `addr`'s tokens, as `P3 t=2 P5 t=2(+Oc)`: every node with a
/// non-empty holding, `none` if no node holds any, `untracked` for a
/// tokenless protocol. For failure messages.
pub(crate) fn holders(nodes: &[Box<dyn Controller + Send>], addr: BlockAddr) -> String {
    let mut listed = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        let Some(tokens) = node.held_tokens(addr) else {
            return "untracked".into();
        };
        if !tokens.is_empty() {
            listed.push(format!("P{i} {tokens}"));
        }
    }
    if listed.is_empty() {
        "none".into()
    } else {
        listed.join(" ")
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

    /// While plain tokens are in flight, the per-block token count alone
    /// cannot tell that an owner token arrives twice; without its own
    /// check the owner count wraps in release builds.
    #[test]
    #[should_panic(expected = "token forgery: an owner token")]
    fn redelivering_an_owner_token_is_forgery() {
        use patchsim_mem::OwnerStatus;
        use patchsim_protocol::MsgBody;

        let ack = |tokens| {
            Msg::new(
                a(3),
                MsgBody::Ack {
                    from: NodeId::new(0),
                    serial: 0,
                    tokens,
                    activation: false,
                },
            )
        };
        let owner = ack(TokenSet::full(2, OwnerStatus::Clean));
        let mut auditor = TokenAuditor::new(8);
        auditor.on_send(&owner);
        auditor.on_send(&ack(TokenSet::plain(3)));
        auditor.on_deliver(&owner);
        auditor.on_deliver(&owner);
    }
}
