//! The controller interface between protocols and the simulation core.

use patchsim_kernel::Cycle;
use patchsim_mem::{AccessKind, BlockAddr, TokenSet};
use patchsim_noc::{DestSet, NodeId, Priority};

use crate::{Msg, ProtocolConfig, ProtocolKind};

/// A memory operation issued by a core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemOp {
    /// The block to access.
    pub addr: BlockAddr,
    /// Load or store.
    pub kind: AccessKind,
}

/// The controller's immediate answer to a core request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreResponse {
    /// The access hit; it completes after the cache hit latency. The
    /// returned version is the value read (or written).
    Hit {
        /// The block version observed (reads) or produced (writes).
        version: u64,
    },
    /// The access missed (or is deferred behind a pending writeback); a
    /// [`Completion`] will be emitted later.
    MissPending,
}

/// A completed miss, reported through the [`Outbox`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The completed access's block.
    pub addr: BlockAddr,
    /// The completed access's kind.
    pub kind: AccessKind,
    /// The block version observed (reads) or produced (writes) — consumed
    /// by the single-writer/valid-data checker.
    pub version: u64,
    /// When the miss was issued (for latency accounting).
    pub issued_at: Cycle,
    /// Intermediate phase timestamps for the miss (span telemetry).
    pub marks: SpanMarks,
}

/// Phase timestamps a controller stamps onto an in-flight miss, carried
/// through the TBE and reported with its [`Completion`].
///
/// Recording a mark is a pure data write — it never alters protocol
/// decisions, message contents, or RNG state — so spans are observation
/// only and results are bit-identical whether or not anyone reads them.
///
/// The core derives a three-phase breakdown from these two marks:
/// *network* (issue → `first_progress`), *home/ordering*
/// (`first_progress` → `ordered`), and *token wait* (`ordered` →
/// completion). Missing marks collapse their phase to zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanMarks {
    /// First cycle any response for this miss arrived (first token,
    /// data, or ack) — the end of the pure network/request phase.
    pub first_progress: Option<Cycle>,
    /// Cycle the miss was ordered by its point of ordering: the
    /// directory's grant/activation (DIRECTORY, PATCH) or the persistent
    /// arbiter's activation (TokenB). Unset for misses satisfied
    /// entirely by direct responses.
    pub ordered: Option<Cycle>,
}

impl SpanMarks {
    /// Stamps the first response of any kind; later ones keep the first.
    pub fn note_progress(&mut self, now: Cycle) {
        self.first_progress.get_or_insert(now);
    }

    /// Stamps the ordering point; later calls keep the first.
    pub fn note_ordered(&mut self, now: Cycle) {
        self.ordered.get_or_insert(now);
    }
}

/// Instantaneous controller-occupancy gauges, sampled by the epoch
/// metrics layer. Reading them has no side effects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolGauges {
    /// Outstanding demand-miss TBEs at this node.
    pub tbes: u64,
    /// Home-side table entries materialized at this node.
    pub home_entries: u64,
    /// Persistent-request table entries (TokenB) at this node.
    pub persistent_entries: u64,
}

impl ProtocolGauges {
    /// Accumulates another node's gauges into a system-wide total.
    pub fn add(&mut self, other: ProtocolGauges) {
        self.tbes += other.tbes;
        self.home_entries += other.home_entries;
        self.persistent_entries += other.persistent_entries;
    }
}

/// What a pending timer means to its controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// PATCH: the token-tenure probationary period expired.
    Tenure,
    /// PATCH: the post-deactivation direct-request ignore window closed.
    DeactWindow,
    /// TokenB: a transient request timed out (reissue or go persistent).
    Reissue,
}

/// Identifies a timer registration. Controllers use the `generation`
/// field to ignore stale timers (timers cannot be cancelled; they are
/// simply disregarded when they no longer match current state).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerKey {
    /// The block the timer concerns.
    pub addr: BlockAddr,
    /// What the timer means.
    pub kind: TimerKind,
    /// Registration generation, compared against the controller's current
    /// generation for the block.
    pub generation: u64,
}

/// An outbound message: destinations, delivery class, and an optional
/// send delay modelling controller occupancy (directory lookup, DRAM).
#[derive(Clone, Debug)]
pub struct OutMsg {
    /// Destination set (multicasts are fanned out by the interconnect).
    pub dests: DestSet,
    /// Delivery priority: `BestEffort` only for PATCH's direct requests.
    pub priority: Priority,
    /// Cycles the sender spends before injecting the message.
    pub delay: u64,
    /// The message.
    pub msg: Msg,
}

/// Collects a controller's outputs during one event: messages to send,
/// timers to arm, and completed misses to report.
#[derive(Debug, Default)]
pub struct Outbox {
    /// Messages to inject into the interconnect.
    pub sends: Vec<OutMsg>,
    /// Timers to arm: `(fire_at, key)`.
    pub timers: Vec<(Cycle, TimerKey)>,
    /// Misses that completed during this event.
    pub completions: Vec<Completion>,
}

impl Outbox {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues `msg` to `dests` at normal priority with no send delay.
    pub fn send(&mut self, dests: DestSet, msg: Msg) {
        self.send_with(dests, Priority::Normal, 0, msg);
    }

    /// Queues `msg` to a single destination at normal priority after
    /// `delay` cycles of sender occupancy.
    pub fn send_one_after(&mut self, num_nodes: u16, to: NodeId, delay: u64, msg: Msg) {
        self.send_with(DestSet::single(num_nodes, to), Priority::Normal, delay, msg);
    }

    /// Queues `msg` to a single destination at normal priority.
    pub fn send_one(&mut self, num_nodes: u16, to: NodeId, msg: Msg) {
        self.send_one_after(num_nodes, to, 0, msg);
    }

    /// Queues `msg` with full control over priority and delay.
    pub fn send_with(&mut self, dests: DestSet, priority: Priority, delay: u64, msg: Msg) {
        self.sends.push(OutMsg {
            dests,
            priority,
            delay,
            msg,
        });
    }

    /// Arms a timer.
    pub fn arm_timer(&mut self, at: Cycle, key: TimerKey) {
        self.timers.push((at, key));
    }

    /// Reports a completed miss.
    pub fn complete(&mut self, completion: Completion) {
        self.completions.push(completion);
    }

    /// Empties the outbox, keeping its allocations, for drivers that
    /// reuse one outbox across events. (The `patchsim` core's event loop
    /// drains its reusable outbox field-by-field instead, which empties
    /// it equally; `clear` is the one-call equivalent for tests and
    /// external harnesses.)
    pub fn clear(&mut self) {
        self.sends.clear();
        self.timers.clear();
        self.completions.clear();
    }

    /// Whether nothing was produced.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.timers.is_empty() && self.completions.is_empty()
    }
}

/// Per-controller event counters, exposed for tests and experiment
/// reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolCounters {
    /// Cache hits served locally.
    pub hits: u64,
    /// Demand misses issued.
    pub misses: u64,
    /// Misses satisfied before the home's activation arrived (i.e. by
    /// direct requests) — PATCH only.
    pub satisfied_before_activation: u64,
    /// Token-tenure timeouts that discarded untenured tokens — PATCH only.
    pub tenure_timeouts: u64,
    /// Responses sent to direct requests — PATCH only.
    pub direct_responses: u64,
    /// Direct requests ignored (miss outstanding, untenured tokens, or
    /// deactivation window) — PATCH only.
    pub direct_ignored: u64,
    /// Transient-request reissues — TokenB only.
    pub reissues: u64,
    /// Persistent-request invocations — TokenB only.
    pub persistent_requests: u64,
    /// Writebacks (evictions and token returns) sent to the home.
    pub writebacks: u64,
}

impl ProtocolCounters {
    /// Accumulates another node's counters into a system-wide total.
    pub fn add(&mut self, other: ProtocolCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.satisfied_before_activation += other.satisfied_before_activation;
        self.tenure_timeouts += other.tenure_timeouts;
        self.direct_responses += other.direct_responses;
        self.direct_ignored += other.direct_ignored;
        self.reissues += other.reissues;
        self.persistent_requests += other.persistent_requests;
        self.writebacks += other.writebacks;
    }
}

/// A per-node coherence controller hosting the node's private cache side
/// and its slice of the distributed home.
///
/// Controllers are purely reactive: every entry point takes the current
/// cycle and an [`Outbox`]; all effects (messages, timers, completions)
/// flow out through it. The `patchsim` core crate owns the event loop.
pub trait Controller {
    /// Handles a memory operation from this node's core.
    ///
    /// The core is blocking: it will not issue another operation until a
    /// `Hit` response or the miss's [`Completion`] arrives.
    fn core_request(&mut self, op: MemOp, now: Cycle, out: &mut Outbox) -> CoreResponse;

    /// Handles a message delivered by the interconnect.
    fn handle_message(&mut self, msg: Msg, now: Cycle, out: &mut Outbox);

    /// Handles a previously armed timer.
    fn timer_fired(&mut self, key: TimerKey, now: Cycle, out: &mut Outbox);

    /// Whether the controller has no in-flight transactions (used by the
    /// end-of-run drain check).
    fn is_quiescent(&self) -> bool;

    /// All tokens this node currently holds for `addr` (cache side plus
    /// home side), or `None` if the protocol does not use tokens
    /// (DIRECTORY). Homes report their implicit full holdings for blocks
    /// they have never seen. Used by the conservation auditor.
    fn held_tokens(&self, addr: BlockAddr) -> Option<TokenSet>;

    /// Event counters.
    fn counters(&self) -> ProtocolCounters;

    /// Instantaneous occupancy gauges for the epoch metrics sampler.
    /// The default reports empty tables, for harness stubs.
    fn gauges(&self) -> ProtocolGauges {
        ProtocolGauges::default()
    }

    /// The protocol's display name.
    fn protocol_name(&self) -> &'static str;
}

/// Re-issues `op`, a core op a controller deferred until an earlier
/// transaction on its block closed, at `now`; a hit completes at once.
pub(crate) fn resume(ctrl: &mut impl Controller, op: MemOp, now: Cycle, out: &mut Outbox) {
    if let CoreResponse::Hit { version } = ctrl.core_request(op, now, out) {
        out.complete(Completion {
            addr: op.addr,
            kind: op.kind,
            version,
            issued_at: now,
            marks: SpanMarks::default(),
        });
    }
}

/// Builds the controller for `node` according to `config`.
///
/// # Examples
///
/// ```
/// use patchsim_protocol::{build_controller, ProtocolConfig, ProtocolKind};
/// use patchsim_noc::NodeId;
///
/// let cfg = ProtocolConfig::new(ProtocolKind::Patch, 4);
/// let ctrl = build_controller(&cfg, NodeId::new(0));
/// assert_eq!(ctrl.protocol_name(), "PATCH");
/// ```
pub fn build_controller(config: &ProtocolConfig, node: NodeId) -> Box<dyn Controller + Send> {
    match config.kind {
        ProtocolKind::Directory => Box::new(crate::DirectoryController::new(config.clone(), node)),
        ProtocolKind::Patch => Box::new(crate::PatchController::new(config.clone(), node)),
        ProtocolKind::TokenB => Box::new(crate::TokenBController::new(config.clone(), node)),
    }
}

/// Builds the controllers of every node of a system according to `config`,
/// node `v`'s at index `v`: [`build_controller`] for each node, except that
/// the PATCH nodes' trained predictors share one table store, each over its
/// own column (see
/// [`PredictorChoice::build_nodes`](patchsim_predictor::PredictorChoice::build_nodes)).
///
/// # Examples
///
/// ```
/// use patchsim_predictor::PredictorChoice;
/// use patchsim_protocol::{build_controllers, ProtocolConfig, ProtocolKind};
///
/// let cfg = ProtocolConfig::new(ProtocolKind::Patch, 4)
///     .with_predictor(PredictorChoice::BroadcastIfShared);
/// let nodes = build_controllers(&cfg);
/// assert_eq!(nodes.len(), 4);
/// assert!(nodes.iter().all(|node| node.is_quiescent()));
/// ```
pub fn build_controllers(config: &ProtocolConfig) -> Vec<Box<dyn Controller + Send>> {
    match config.kind {
        ProtocolKind::Patch => config
            .predictor
            .build_nodes(config.num_nodes)
            .into_iter()
            .zip((0..config.num_nodes).map(NodeId::new))
            .map(|(predictor, node)| {
                Box::new(crate::PatchController::with_predictor(
                    config.clone(),
                    node,
                    predictor,
                )) as Box<dyn Controller + Send>
            })
            .collect(),
        ProtocolKind::Directory | ProtocolKind::TokenB => (0..config.num_nodes)
            .map(|node| build_controller(config, NodeId::new(node)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_helpers_accumulate() {
        let mut out = Outbox::new();
        assert!(out.is_empty());
        out.send_one(
            4,
            NodeId::new(1),
            Msg::new(BlockAddr::new(0), crate::MsgBody::WbAck),
        );
        out.arm_timer(
            Cycle::new(10),
            TimerKey {
                addr: BlockAddr::new(0),
                kind: TimerKind::Tenure,
                generation: 1,
            },
        );
        out.complete(Completion {
            addr: BlockAddr::new(0),
            kind: AccessKind::Read,
            version: 0,
            issued_at: Cycle::ZERO,
            marks: SpanMarks::default(),
        });
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.timers.len(), 1);
        assert_eq!(out.completions.len(), 1);
        assert!(!out.is_empty());
        let capacity = out.sends.capacity();
        out.clear();
        assert!(out.is_empty());
        assert_eq!(out.sends.capacity(), capacity, "clear keeps allocations");
    }

    #[test]
    fn build_controller_dispatches() {
        for (kind, name) in [
            (ProtocolKind::Directory, "Directory"),
            (ProtocolKind::Patch, "PATCH"),
            (ProtocolKind::TokenB, "TokenB"),
        ] {
            let cfg = ProtocolConfig::new(kind, 4);
            let c = build_controller(&cfg, NodeId::new(0));
            assert_eq!(c.protocol_name(), name);
            assert!(c.is_quiescent());
        }
    }
}
