//! The coherence message vocabulary shared by all three protocols.

use patchsim_mem::{AccessKind, BlockAddr, TokenSet};
use patchsim_noc::{NocPayload, NodeId, TrafficClass};

/// Wire size of a control (data-less) message: command + address + token
/// count + misc. 8 bytes, as in GEMS-style traffic accounting.
pub const CONTROL_MSG_BYTES: u64 = 8;
/// Wire size of a message carrying a 64-byte cache block plus header.
pub const DATA_MSG_BYTES: u64 = 72;

/// How a request message was issued; determines both its routing and its
/// traffic-accounting class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestStyle {
    /// Requester → home: the ordering-establishing request of DIRECTORY
    /// and PATCH.
    Indirect,
    /// Requester → predicted peers (PATCH's best-effort hints) or the
    /// initial broadcast transient request (TokenB).
    Direct,
    /// A reissued transient request (TokenB).
    Reissue,
    /// A persistent-request invocation sent to the home arbiter (TokenB).
    Persistent,
}

/// A coherence message: an address plus a protocol-specific body.
#[derive(Clone, Debug, PartialEq)]
pub struct Msg {
    /// The cache block this message concerns.
    pub addr: BlockAddr,
    /// The message body.
    pub body: MsgBody,
}

/// Message bodies. One shared enum keeps the interconnect and system
/// plumbing monomorphic; each protocol uses the subset it needs.
#[derive(Clone, Debug, PartialEq)]
pub enum MsgBody {
    /// A coherence request.
    Request {
        /// Read (GetS) or write (GetM).
        kind: AccessKind,
        /// The requesting node.
        requester: NodeId,
        /// The requester's transaction serial number (unique per node).
        serial: u64,
        /// How the request was issued.
        style: RequestStyle,
    },
    /// Home → owner/sharers: a forwarded request (serves as the
    /// invalidation message for write requests).
    Fwd {
        /// The forwarded request's kind.
        kind: AccessKind,
        /// Who the response should go to.
        requester: NodeId,
        /// The requester's transaction serial.
        serial: u64,
        /// DIRECTORY: how many invalidation acks the requester should
        /// expect. Unused (0) in the token-counting protocols.
        acks_expected: u32,
        /// Whether the home upgraded a read to an exclusive grant
        /// (migratory-sharing optimization).
        exclusive: bool,
    },
    /// A response carrying the cache block.
    Data {
        /// Responding node (trains destination-set predictors).
        from: NodeId,
        /// The requester's transaction serial this responds to.
        serial: u64,
        /// Tokens transferred (empty for DIRECTORY).
        tokens: TokenSet,
        /// Logical block contents (version stamp) for coherence checking.
        version: u64,
        /// DIRECTORY: invalidation acks the requester must collect.
        acks_expected: u32,
        /// Whether this grants exclusive permission to a read request.
        exclusive: bool,
        /// DIRECTORY: whether the data is dirty with respect to memory.
        dirty: bool,
        /// PATCH: whether the home has activated this request.
        activation: bool,
    },
    /// A data-less acknowledgement: DIRECTORY invalidation acks and
    /// PATCH/TokenB token transfers.
    Ack {
        /// Responding node.
        from: NodeId,
        /// The requester's transaction serial this responds to.
        serial: u64,
        /// Tokens transferred (empty for DIRECTORY; never a dirty owner —
        /// Rule 4 forces those onto [`MsgBody::Data`]).
        tokens: TokenSet,
        /// PATCH: whether the home has activated this request.
        activation: bool,
    },
    /// Home → requester: standalone activation notice. PATCH sends this
    /// when activating a request whose response carries no payload from
    /// the home (e.g. owner-upgrade misses); DIRECTORY reuses it to carry
    /// the ack count on upgrade misses.
    Activation {
        /// The requester's transaction serial being activated.
        serial: u64,
        /// DIRECTORY: invalidation acks the requester must collect.
        acks_expected: u32,
        /// Whether the home upgraded a read to an exclusive grant.
        exclusive: bool,
    },
    /// Requester → home: transaction complete; unblock the block and
    /// update the directory (DIRECTORY's "unblock", PATCH's deactivation,
    /// TokenB's persistent-request completion).
    Deactivate {
        /// The completing requester.
        requester: NodeId,
        /// Its transaction serial.
        serial: u64,
        /// Whether the requester now holds ownership (owner token or
        /// directory ownership).
        new_owner: bool,
    },
    /// Cache → home: writeback / token return. An eviction or a tenure
    /// timeout returns all of the sender's tokens for the block; a PATCH
    /// cache with no transaction open on the block returns only the tokens
    /// that just arrived, and keeps its tenured line. `version` is `Some`
    /// when the message carries data, which is exactly when that data is
    /// dirty.
    Put {
        /// The evicting/discarding node.
        node: NodeId,
        /// Tokens returned (empty for DIRECTORY writebacks).
        tokens: TokenSet,
        /// Block contents if the writeback is dirty; a clean writeback
        /// leaves memory's copy current.
        version: Option<u64>,
    },
    /// Home → cache: DIRECTORY writeback acknowledgement. The cache drops
    /// its writeback ghost, whether or not the block had moved on.
    WbAck,
    /// TokenB: home arbiter → everyone; activate a persistent request.
    PersistentActivate {
        /// The starving node all tokens must flow to.
        starver: NodeId,
        /// The starver's transaction serial, as carried by its persistent
        /// request. On an unordered network this is what lets the starver
        /// tell a live activation from a stale one left over from an
        /// earlier miss on the same block.
        serial: u64,
        /// The arbiter's count of activations for this block, this one
        /// included: a node drops an activation no newer than the newest
        /// epoch it has seen, so one overtaken by its own deactivation
        /// leaves no table entry behind.
        epoch: u64,
    },
    /// TokenB: home arbiter → everyone; the persistent request completed.
    PersistentDeactivate {
        /// The node whose persistent request is done.
        starver: NodeId,
        /// The epoch of the activation this ends: a node clears its table
        /// entry only if that entry came from this epoch, so a late
        /// deactivation never clears a fresh one.
        epoch: u64,
    },
}

impl Msg {
    /// Convenience constructor.
    pub fn new(addr: BlockAddr, body: MsgBody) -> Self {
        Msg { addr, body }
    }

    /// A coherence request issued in the given `style`.
    pub fn request(
        addr: BlockAddr,
        kind: AccessKind,
        requester: NodeId,
        serial: u64,
        style: RequestStyle,
    ) -> Self {
        let body = MsgBody::Request {
            kind,
            requester,
            serial,
            style,
        };
        Msg { addr, body }
    }

    /// The requester's transaction-complete notice to the home.
    pub fn deactivate(addr: BlockAddr, requester: NodeId, serial: u64, new_owner: bool) -> Self {
        let body = MsgBody::Deactivate {
            requester,
            serial,
            new_owner,
        };
        Msg { addr, body }
    }

    /// The tokens this message carries (for conservation auditing).
    pub fn tokens(&self) -> TokenSet {
        match &self.body {
            MsgBody::Data { tokens, .. }
            | MsgBody::Ack { tokens, .. }
            | MsgBody::Put { tokens, .. } => *tokens,
            _ => TokenSet::empty(),
        }
    }

    /// Whether this message carries the cache block.
    pub fn carries_data(&self) -> bool {
        matches!(
            self.body,
            MsgBody::Data { .. }
                | MsgBody::Put {
                    version: Some(_),
                    ..
                }
        )
    }
}

impl NocPayload for Msg {
    fn size_bytes(&self) -> u64 {
        if self.carries_data() {
            DATA_MSG_BYTES
        } else {
            CONTROL_MSG_BYTES
        }
    }

    fn traffic_class(&self) -> TrafficClass {
        match &self.body {
            MsgBody::Request { style, .. } => match style {
                RequestStyle::Indirect => TrafficClass::IndirectRequest,
                RequestStyle::Direct => TrafficClass::DirectRequest,
                RequestStyle::Reissue | RequestStyle::Persistent => TrafficClass::Reissue,
            },
            MsgBody::Fwd { .. } => TrafficClass::Forward,
            MsgBody::Data { .. } => TrafficClass::Data,
            MsgBody::Ack { .. } => TrafficClass::Ack,
            MsgBody::Activation { .. } | MsgBody::Deactivate { .. } => TrafficClass::Activation,
            MsgBody::Put { .. } | MsgBody::WbAck => TrafficClass::Writeback,
            MsgBody::PersistentActivate { .. } | MsgBody::PersistentDeactivate { .. } => {
                TrafficClass::Reissue
            }
        }
    }

    /// Direct requests are pure hints: token-free, best-effort, and
    /// already tolerated in duplicate (a second copy at a node that
    /// cannot help is simply ignored). Everything else — token carriers,
    /// activations, persistent-request arbitration — assumes at-most-once
    /// delivery, so the fault layer models retransmission instead of
    /// duplicating them.
    fn dup_safe(&self) -> bool {
        matches!(
            self.body,
            MsgBody::Request {
                style: RequestStyle::Direct,
                ..
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patchsim_mem::OwnerStatus;

    fn addr() -> BlockAddr {
        BlockAddr::new(42)
    }

    #[test]
    fn sizes_follow_data_rule() {
        let data = Msg::new(
            addr(),
            MsgBody::Data {
                from: NodeId::new(0),
                serial: 1,
                tokens: TokenSet::empty(),
                version: 0,
                acks_expected: 0,
                exclusive: false,
                dirty: false,
                activation: false,
            },
        );
        assert_eq!(data.size_bytes(), DATA_MSG_BYTES);
        let ack = Msg::new(
            addr(),
            MsgBody::Ack {
                from: NodeId::new(0),
                serial: 1,
                tokens: TokenSet::plain(3),
                activation: false,
            },
        );
        assert_eq!(ack.size_bytes(), CONTROL_MSG_BYTES);
        // A writeback with data is data-sized; a token return without data
        // is control-sized.
        let put_data = Msg::new(
            addr(),
            MsgBody::Put {
                node: NodeId::new(1),
                tokens: TokenSet::full(4, OwnerStatus::Dirty),
                version: Some(7),
            },
        );
        assert_eq!(put_data.size_bytes(), DATA_MSG_BYTES);
        let put_clean = Msg::new(
            addr(),
            MsgBody::Put {
                node: NodeId::new(1),
                tokens: TokenSet::plain(1),
                version: None,
            },
        );
        assert_eq!(put_clean.size_bytes(), CONTROL_MSG_BYTES);
    }

    #[test]
    fn traffic_classes_match_figure_categories() {
        let req = |style| {
            Msg::new(
                addr(),
                MsgBody::Request {
                    kind: AccessKind::Read,
                    requester: NodeId::new(0),
                    serial: 0,
                    style,
                },
            )
            .traffic_class()
        };
        assert_eq!(req(RequestStyle::Indirect), TrafficClass::IndirectRequest);
        assert_eq!(req(RequestStyle::Direct), TrafficClass::DirectRequest);
        assert_eq!(req(RequestStyle::Reissue), TrafficClass::Reissue);
        assert_eq!(req(RequestStyle::Persistent), TrafficClass::Reissue);

        let deact = Msg::new(
            addr(),
            MsgBody::Deactivate {
                requester: NodeId::new(0),
                serial: 0,
                new_owner: true,
            },
        );
        assert_eq!(deact.traffic_class(), TrafficClass::Activation);
    }

    #[test]
    fn tokens_extracted_for_auditing() {
        let msg = Msg::new(
            addr(),
            MsgBody::Ack {
                from: NodeId::new(2),
                serial: 9,
                tokens: TokenSet::plain(5),
                activation: false,
            },
        );
        assert_eq!(msg.tokens().count(), 5);
        let fwd = Msg::new(
            addr(),
            MsgBody::Fwd {
                kind: AccessKind::Write,
                requester: NodeId::new(0),
                serial: 0,
                acks_expected: 0,
                exclusive: false,
            },
        );
        assert!(fwd.tokens().is_empty());
    }
}
