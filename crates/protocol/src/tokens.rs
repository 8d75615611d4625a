//! The token-counting substrate (paper Table 1) under PATCH and TokenB.
//!
//! Safety in both protocols rests on these rules alone: how a token
//! holder answers a request, absorbs arriving tokens, performs an access
//! and returns tokens to memory, how memory hands its tokens and data back
//! out, and the two messages tokens travel in. Whom to ask, when to give
//! up and who wins a race are *policy* and live in `patch.rs` (directory +
//! token tenure) and `tokenb.rs` (broadcast + persistent requests); so do
//! send delays, the DRAM access included: a caller adds it exactly when
//! the message it sends [carries data](Msg::carries_data).
//!
//! [`CacheArray::get_mut`] stamps the LRU clock and [`CacheArray::peek`]
//! does not, so which of the two a method uses is behaviour: only
//! [`TokenCache::status`] and [`TokenCache::held`] peek.

use patchsim_mem::{AccessKind, BlockAddr, CacheArray, CacheGeometry, OwnerStatus, TokenSet};
use patchsim_noc::NodeId;

use crate::controller::{Outbox, ProtocolCounters};
use crate::{Msg, MsgBody};

/// One cache line's token state, its [`TokenSet`] stored flat: nested, the
/// set's padding would make the line 24 bytes, not 16.
#[derive(Clone, Copy, Debug)]
struct TokenLine {
    version: u64,
    count: u32,
    owner: Option<OwnerStatus>,
    /// The valid-data bit (Rule 5).
    valid: bool,
}

impl TokenLine {
    fn tokens(&self) -> TokenSet {
        match self.owner {
            Some(status) => TokenSet::full(self.count, status),
            None => TokenSet::plain(self.count),
        }
    }

    fn set_tokens(&mut self, tokens: TokenSet) {
        (self.count, self.owner) = (tokens.count(), tokens.owner_status());
    }

    fn permits(&self, kind: AccessKind, total: u32) -> bool {
        self.valid
            && match kind {
                AccessKind::Read => self.tokens().can_read(),
                AccessKind::Write => self.tokens().can_write(total),
            }
    }

    /// Performs the access; a write bumps the version and dirties the
    /// owner token (Rule 2). Returns the version read or written.
    fn perform(&mut self, kind: AccessKind) -> u64 {
        if kind.is_write() {
            self.version += 1;
            let mut tokens = self.tokens();
            tokens.set_owner_dirty();
            self.set_tokens(tokens);
        }
        self.version
    }
}

/// What one look at a line says about an outstanding miss.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct LineStatus {
    /// Valid data and enough tokens for the access.
    pub satisfied: bool,
    /// At least one token is held.
    pub has_tokens: bool,
    /// The owner token is held.
    pub has_owner: bool,
}

/// A node's private cache of token-counted lines.
#[derive(Debug)]
pub(crate) struct TokenCache {
    lines: CacheArray<TokenLine>,
    /// Tokens per block (`T`).
    total: u32,
}

impl TokenCache {
    pub fn new(geometry: CacheGeometry, total: u32) -> Self {
        TokenCache {
            lines: CacheArray::new(geometry),
            total,
        }
    }

    /// The core's hit path: performs the access if the line permits it
    /// and returns the version.
    #[inline]
    pub fn hit(&mut self, addr: BlockAddr, kind: AccessKind) -> Option<u64> {
        let total = self.total;
        let line = self.lines.get_mut(addr)?;
        line.permits(kind, total).then(|| line.perform(kind))
    }

    /// Whether a miss of `kind` could perform now, and what the line holds.
    #[inline]
    pub fn status(&self, addr: BlockAddr, kind: AccessKind) -> LineStatus {
        self.lines
            .peek(addr)
            .map_or_else(LineStatus::default, |line| LineStatus {
                satisfied: line.permits(kind, self.total),
                has_tokens: line.count > 0,
                has_owner: line.owner.is_some(),
            })
    }

    /// Performs a miss that [`TokenCache::status`] reported satisfied.
    #[inline]
    pub fn perform(&mut self, addr: BlockAddr, kind: AccessKind) -> u64 {
        let line = self.lines.get_mut(addr).expect("satisfied implies line");
        debug_assert!(line.permits(kind, self.total));
        line.perform(kind)
    }

    /// Answers a request from this cache's holdings: a write (or an
    /// `invalidating` read) takes everything and drops the line; a plain
    /// read takes only the owner token — ownership migrates, plain tokens
    /// stay and the holder remains a sharer — and nothing from a
    /// non-owner. Returns the tokens with the line's version.
    #[inline]
    pub fn surrender(
        &mut self,
        addr: BlockAddr,
        kind: AccessKind,
        invalidating: bool,
    ) -> Option<(TokenSet, u64)> {
        let line = self.lines.get_mut(addr)?;
        let mut held = line.tokens();
        if held.is_empty() {
            self.lines.remove(addr);
            return None;
        }
        let tokens = if invalidating || kind.is_write() {
            held.take_all()
        } else if held.has_owner() {
            held.split_owner(0)
        } else {
            return None;
        };
        debug_assert!(
            !tokens.has_owner() || line.valid,
            "owner token implies valid data"
        );
        line.set_tokens(held);
        let version = line.version;
        if held.is_empty() {
            self.lines.remove(addr);
        }
        Some((tokens, version))
    }

    /// Gives up everything held for `addr` (tenure timeout, persistent
    /// request).
    pub fn take_all(&mut self, addr: BlockAddr) -> Option<(TokenSet, u64)> {
        self.surrender(addr, AccessKind::Write, true)
    }

    /// Folds arriving tokens (and data, when `data_version` is given) into
    /// the line. Without a line, `allocate` makes one. Returns what must go
    /// back to the home as `(addr, tokens, version)`: the victim the
    /// allocation evicted, or the arrival itself when not allocating.
    #[inline]
    pub fn absorb(
        &mut self,
        addr: BlockAddr,
        tokens: TokenSet,
        data_version: Option<u64>,
        allocate: bool,
    ) -> Option<(BlockAddr, TokenSet, u64)> {
        if let Some(line) = self.lines.get_mut(addr) {
            let mut held = line.tokens();
            held.merge(tokens);
            line.set_tokens(held);
            if let Some(v) = data_version {
                line.valid = true;
                line.version = v;
            }
            return None;
        }
        let version = data_version.unwrap_or(0);
        if !allocate {
            return Some((addr, tokens, version));
        }
        let line = TokenLine {
            version,
            count: tokens.count(),
            owner: tokens.owner_status(),
            valid: data_version.is_some(),
        };
        let victim = self.lines.insert(addr, line)?;
        Some((victim.addr, victim.payload.tokens(), victim.payload.version))
    }

    /// The tokens held for `addr` (for the conservation auditor).
    pub fn held(&self, addr: BlockAddr) -> TokenSet {
        self.lines
            .peek(addr)
            .map_or_else(TokenSet::empty, TokenLine::tokens)
    }
}

/// The home memory's token holdings for one block. It keeps no valid-data
/// bit: memory's copy is read only while it holds the owner token, and the
/// owner token never returns without current data (Rules 4 and 5).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Memory {
    pub tokens: TokenSet,
    pub version: u64,
}

impl Memory {
    /// A block nobody has touched: memory holds every token and valid data.
    pub fn full(total: u32) -> Self {
        Memory {
            tokens: TokenSet::full(total, OwnerStatus::Clean),
            version: 0,
        }
    }

    /// Takes returned tokens; Rule 1 cleans the owner token. `version` is
    /// the written-back data, if any.
    pub fn absorb(&mut self, mut tokens: TokenSet, version: Option<u64>) {
        if let Some(v) = version {
            self.version = v;
        }
        if tokens.has_owner() {
            tokens.set_owner_clean();
        }
        self.tokens.merge(tokens);
    }

    /// Hands everything memory holds to `serial`'s requester in one
    /// [`token_reply`]; `None` when it holds nothing.
    pub fn reply(
        &mut self,
        addr: BlockAddr,
        from: NodeId,
        serial: u64,
        activation: bool,
    ) -> Option<Msg> {
        if self.tokens.is_empty() {
            return None;
        }
        let (tokens, version) = (self.tokens.take_all(), self.version);
        Some(token_reply(addr, from, serial, tokens, version, activation))
    }

    /// Sends tokens a `Put` returned on to `serial`'s requester instead
    /// of absorbing them. A `Put` carries data only with a dirty owner; a
    /// clean owner comes back data-less because memory's copy is current
    /// (Rule 5), so memory's version goes with it.
    pub fn redirect(
        &self,
        addr: BlockAddr,
        from: NodeId,
        serial: u64,
        tokens: TokenSet,
        put_version: Option<u64>,
        activation: bool,
    ) -> Msg {
        let version = put_version.unwrap_or(self.version);
        token_reply(addr, from, serial, tokens, version, activation)
    }
}

/// A response carrying `tokens` to a requester: `Data` iff the owner token
/// is aboard (the owner always sends data, Rule 4 demands it when dirty),
/// a data-less `Ack` otherwise.
#[inline]
pub(crate) fn token_reply(
    addr: BlockAddr,
    from: NodeId,
    serial: u64,
    tokens: TokenSet,
    version: u64,
    activation: bool,
) -> Msg {
    let body = if tokens.has_owner() {
        MsgBody::Data {
            from,
            serial,
            tokens,
            version,
            acks_expected: 0,
            exclusive: false,
            dirty: tokens.requires_data(),
            activation,
        }
    } else {
        MsgBody::Ack {
            from,
            serial,
            tokens,
            activation,
        }
    };
    Msg::new(addr, body)
}

/// Returns `node`'s `tokens` to the home memory of `addr` (eviction,
/// tenure timeout, stray arrival) and counts the writeback; an empty set
/// sends nothing. The `Put` carries data iff the owner token is dirty (a
/// clean owner's data is already valid in memory).
pub(crate) fn put_home(
    addr: BlockAddr,
    node: NodeId,
    num_nodes: u16,
    tokens: TokenSet,
    version: u64,
    counters: &mut ProtocolCounters,
    out: &mut Outbox,
) {
    if tokens.is_empty() {
        return;
    }
    counters.writebacks += 1;
    let version = tokens.requires_data().then_some(version);
    let put = MsgBody::Put {
        node,
        tokens,
        version,
    };
    out.send_one(num_nodes, addr.home(num_nodes), Msg::new(addr, put));
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: u32 = 4;

    fn a(x: u64) -> BlockAddr {
        BlockAddr::new(x)
    }

    /// A one-set cache of `ways` lines, so every block competes for LRU.
    fn one_set(ways: u32) -> TokenCache {
        TokenCache::new(CacheGeometry::new(1, ways), T)
    }

    fn install(c: &mut TokenCache, addr: BlockAddr, tokens: TokenSet, version: u64) {
        assert_eq!(c.absorb(addr, tokens, Some(version), true), None);
    }

    #[test]
    fn read_surrender_moves_the_owner_token_and_keeps_plain_tokens() {
        let mut c = one_set(2);
        install(&mut c, a(0), TokenSet::full(3, OwnerStatus::Dirty), 7);
        let (tokens, version) = c.surrender(a(0), AccessKind::Read, false).unwrap();
        assert_eq!(
            (tokens.count(), tokens.owner_status()),
            (1, Some(OwnerStatus::Dirty))
        );
        assert_eq!(version, 7);
        assert_eq!(c.held(a(0)), TokenSet::plain(2), "still a sharer");
    }

    #[test]
    fn read_surrender_without_the_owner_token_gives_nothing() {
        let mut c = one_set(2);
        install(&mut c, a(0), TokenSet::plain(2), 7);
        assert_eq!(c.surrender(a(0), AccessKind::Read, false), None);
        assert_eq!(c.held(a(0)), TokenSet::plain(2));
    }

    #[test]
    fn write_or_invalidating_surrender_empties_and_drops_the_line() {
        for (kind, invalidating) in [(AccessKind::Write, false), (AccessKind::Read, true)] {
            let mut c = one_set(2);
            install(&mut c, a(0), TokenSet::plain(2), 7);
            assert_eq!(
                c.surrender(a(0), kind, invalidating),
                Some((TokenSet::plain(2), 7))
            );
            assert!(!c.lines.contains(a(0)));
        }
    }

    #[test]
    fn probing_an_empty_line_removes_it() {
        let mut c = one_set(2);
        assert_eq!(c.absorb(a(0), TokenSet::empty(), None, true), None);
        assert!(c.lines.contains(a(0)));
        assert_eq!(c.take_all(a(0)), None);
        assert!(!c.lines.contains(a(0)));
    }

    #[test]
    fn absorb_without_allocate_bounces_the_arrival() {
        let mut c = one_set(2);
        let bounced = c.absorb(a(0), TokenSet::plain(1), Some(9), false);
        assert_eq!(bounced, Some((a(0), TokenSet::plain(1), 9)));
        assert!(!c.lines.contains(a(0)));
    }

    #[test]
    fn absorb_with_allocate_returns_the_evicted_victim() {
        let mut c = one_set(1);
        install(&mut c, a(0), TokenSet::full(T, OwnerStatus::Dirty), 5);
        let victim = c.absorb(a(1), TokenSet::plain(1), None, true);
        assert_eq!(
            victim,
            Some((a(0), TokenSet::full(T, OwnerStatus::Dirty), 5))
        );
        assert_eq!(c.held(a(1)), TokenSet::plain(1));
        assert!(
            !c.status(a(1), AccessKind::Read).satisfied,
            "tokens without data"
        );
    }

    #[test]
    fn memory_absorb_cleans_the_owner_sets_valid_and_takes_a_given_version() {
        let mut m = Memory {
            tokens: TokenSet::plain(1),
            version: 3,
        };
        m.absorb(TokenSet::plain(1), None);
        assert_eq!((m.tokens, m.version), (TokenSet::plain(2), 3));
        m.absorb(TokenSet::full(2, OwnerStatus::Dirty), Some(8));
        assert_eq!(m.tokens, TokenSet::full(T, OwnerStatus::Clean));
        assert_eq!(m.version, 8);
        let mut clean_return = Memory {
            tokens: TokenSet::empty(),
            ..m
        };
        clean_return.absorb(TokenSet::full(1, OwnerStatus::Clean), None);
        assert_eq!(
            clean_return.version, 8,
            "a data-less return keeps memory's copy"
        );
    }

    #[test]
    fn token_reply_is_data_iff_the_owner_token_is_aboard() {
        let from = NodeId::new(1);
        for (tokens, dirty) in [
            (TokenSet::full(2, OwnerStatus::Dirty), true),
            (TokenSet::full(2, OwnerStatus::Clean), false),
        ] {
            match token_reply(a(0), from, 5, tokens, 9, true).body {
                MsgBody::Data {
                    tokens: t,
                    version: 9,
                    dirty: d,
                    activation: true,
                    serial: 5,
                    acks_expected: 0,
                    exclusive: false,
                    ..
                } => assert_eq!((t, d), (tokens, dirty)),
                other => panic!("{other:?}"),
            }
        }
        let ack = token_reply(a(0), from, 5, TokenSet::plain(2), 9, false);
        assert!(!ack.carries_data());
        assert_eq!(ack.tokens(), TokenSet::plain(2));
    }

    #[test]
    fn put_home_carries_the_version_iff_the_owner_token_is_dirty() {
        let node = NodeId::new(1);
        for (tokens, carried) in [
            (TokenSet::full(2, OwnerStatus::Dirty), Some(9)),
            (TokenSet::full(2, OwnerStatus::Clean), None),
            (TokenSet::plain(2), None),
        ] {
            let (mut counters, mut out) = (ProtocolCounters::default(), Outbox::new());
            put_home(a(1), node, 4, tokens, 9, &mut counters, &mut out);
            assert_eq!(counters.writebacks, 1);
            let [send] = &out.sends[..] else {
                panic!("{:?}", out.sends)
            };
            assert_eq!(send.dests.as_single(), Some(a(1).home(4)));
            assert_eq!(
                send.msg.body,
                MsgBody::Put {
                    node,
                    tokens,
                    version: carried
                }
            );
        }
        let (mut counters, mut out) = (ProtocolCounters::default(), Outbox::new());
        put_home(a(1), node, 4, TokenSet::empty(), 9, &mut counters, &mut out);
        assert!(out.is_empty() && counters.writebacks == 0, "nothing to put");
    }

    #[test]
    fn memory_reply_hands_out_everything_with_memorys_version() {
        let from = NodeId::new(2);
        let mut m = Memory {
            tokens: TokenSet::full(T, OwnerStatus::Clean),
            version: 6,
        };
        let reply = m.reply(a(0), from, 3, true).expect("memory holds tokens");
        assert_eq!(
            reply,
            token_reply(
                a(0),
                from,
                3,
                TokenSet::full(T, OwnerStatus::Clean),
                6,
                true
            )
        );
        assert!(reply.carries_data() && m.tokens.is_empty());
        assert_eq!(m.reply(a(0), from, 3, true), None, "nothing left");
        m.tokens = TokenSet::plain(2);
        let plain = m.reply(a(0), from, 3, false).expect("plain tokens");
        assert!(!plain.carries_data(), "no owner, no data: {plain:?}");
    }

    #[test]
    fn memory_redirect_attaches_memorys_version_for_a_clean_owner() {
        let m = Memory {
            tokens: TokenSet::empty(),
            version: 6,
        };
        let from = NodeId::new(2);
        let clean = TokenSet::full(2, OwnerStatus::Clean);
        let dirty = TokenSet::full(2, OwnerStatus::Dirty);
        for (tokens, put_version, version) in [(clean, None, 6), (dirty, Some(8), 8)] {
            match m.redirect(a(0), from, 3, tokens, put_version, true).body {
                MsgBody::Data { version: v, .. } => assert_eq!(v, version),
                other => panic!("{other:?}"),
            }
        }
    }

    /// A node's cache holds one of these per resident way.
    #[test]
    fn a_token_line_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Option<TokenLine>>(), 16);
    }

    /// Every holding a line can have, with and without data, goes in
    /// through `absorb` (the owner token arriving second, so `merge` runs)
    /// and reads back unchanged through `held` and `status`; a read and a
    /// write `surrender` hand out and leave behind what the rules say.
    #[test]
    fn every_holding_round_trips_through_the_line() {
        use OwnerStatus::{Clean, Dirty};
        let (empty, plain, full) = (TokenSet::empty(), TokenSet::plain, TokenSet::full);
        // Held; read and write permitted given data; what a read
        // surrender takes and what it leaves.
        #[rustfmt::skip]
        let rows = [
            (empty,          false, false, None,                 empty),
            (plain(1),       true,  false, None,                 plain(1)),
            (plain(2),       true,  false, None,                 plain(2)),
            (plain(3),       true,  false, None,                 plain(3)),
            (plain(4),       true,  true,  None,                 plain(4)),
            (full(1, Clean), true,  false, Some(full(1, Clean)), empty),
            (full(2, Clean), true,  false, Some(full(1, Clean)), plain(1)),
            (full(3, Clean), true,  false, Some(full(1, Clean)), plain(2)),
            (full(4, Clean), true,  true,  Some(full(1, Clean)), plain(3)),
            (full(1, Dirty), true,  false, Some(full(1, Dirty)), empty),
            (full(2, Dirty), true,  false, Some(full(1, Dirty)), plain(1)),
            (full(3, Dirty), true,  false, Some(full(1, Dirty)), plain(2)),
            (full(4, Dirty), true,  true,  Some(full(1, Dirty)), plain(3)),
        ];
        for (held, read, write, taken, left) in rows {
            for valid in [false, true] {
                let version = if valid { 7 } else { 0 };
                let data = valid.then_some(7);
                let owner = held.owner_status();
                let fill = || {
                    let mut c = one_set(2);
                    let (first, second) = match owner {
                        Some(status) => (plain(held.count() - 1), full(1, status)),
                        None => (held, empty),
                    };
                    assert_eq!(c.absorb(a(0), first, None, true), None);
                    assert_eq!(c.absorb(a(0), second, data, true), None);
                    c
                };
                let mut c = fill();
                assert_eq!(c.held(a(0)), held);
                for (kind, permitted) in [(AccessKind::Read, read), (AccessKind::Write, write)] {
                    let status = LineStatus {
                        satisfied: valid && permitted,
                        has_tokens: !held.is_empty(),
                        has_owner: owner.is_some(),
                    };
                    assert_eq!(c.status(a(0), kind), status, "{held} valid={valid}");
                }
                // All `T` tokens without the owner token is no holding a
                // run can reach.
                if valid && write && owner.is_some() {
                    assert_eq!(c.hit(a(0), AccessKind::Write), Some(8));
                    assert_eq!(c.held(a(0)), full(4, Dirty));
                }
                // An owner token without data is a protocol bug that
                // `surrender`'s debug assertion reports.
                if owner.is_some() && !valid {
                    continue;
                }
                let mut c = fill();
                let surrendered = c.surrender(a(0), AccessKind::Read, false);
                assert_eq!(surrendered, taken.map(|t| (t, version)), "{held}");
                assert_eq!(c.held(a(0)), left);
                assert_eq!(c.lines.contains(a(0)), !left.is_empty());
                let mut c = fill();
                let surrendered = c.surrender(a(0), AccessKind::Write, false);
                let all = (!held.is_empty()).then_some((held, version));
                assert_eq!(surrendered, all, "{held}");
                assert!(!c.lines.contains(a(0)));
            }
        }
    }

    /// `status` must never touch recency; every other probe must. Fill a
    /// two-way set with blocks 0 then 1, touch block 0, and see whom block
    /// 2 evicts.
    #[test]
    fn only_status_leaves_lru_order_alone() {
        type Touch = fn(&mut TokenCache);
        let touches: [(&str, Touch, u64); 5] = [
            ("status", |c| _ = c.status(a(0), AccessKind::Read), 0),
            ("hit", |c| _ = c.hit(a(0), AccessKind::Read), 1),
            ("perform", |c| _ = c.perform(a(0), AccessKind::Read), 1),
            (
                "surrender",
                |c| _ = c.surrender(a(0), AccessKind::Read, false),
                1,
            ),
            (
                "absorb",
                |c| _ = c.absorb(a(0), TokenSet::plain(1), None, false),
                1,
            ),
        ];
        for (name, touch, expected_victim) in touches {
            let mut c = one_set(2);
            install(&mut c, a(0), TokenSet::full(2, OwnerStatus::Clean), 1);
            install(&mut c, a(1), TokenSet::plain(1), 1);
            touch(&mut c);
            let victim = c.absorb(a(2), TokenSet::plain(1), None, true);
            assert_eq!(
                victim.map(|v| v.0),
                Some(a(expected_victim)),
                "after {name}"
            );
        }
    }
}
