//! Pluggable interconnect fabrics for the `patchsim` cache-coherence
//! simulator.
//!
//! The paper evaluates PATCH on "a 2D-torus with adaptive routing, efficient
//! multicast routing, and a total link latency of 15 cycles", where the
//! interconnect "deprioritizes direct requests and drops them if they have
//! been queued for more than 100 cycles". This crate models exactly the
//! properties those claims rest on — and generalizes the topology: one
//! generic [`Fabric`] engine drives any [`FabricKind`] (torus, mesh, ring,
//! crossbar, hierarchical clusters) through routing tables derived from
//! the topology's adjacency by the deterministic BFS builder in
//! [`fabric`]. The modelled properties:
//!
//! * **Shortest-path table routing** with a fixed deterministic tie-break
//!   (on the torus this reproduces dimension-order routing exactly; it
//!   stands in for GEMS' adaptive routing).
//! * **Fan-out multicast**: a multi-destination message occupies each link
//!   on its routing tree once, no matter how many destinations lie beyond
//!   it. This is what makes invalidation *forwards* cheap while
//!   acknowledgement *implosion* stays expensive — the asymmetry behind the
//!   paper's Figures 9 and 10.
//! * **Per-link serialization**: finite links transmit
//!   `ceil(bytes / bandwidth)` cycles per packet; contending packets
//!   queue. Link latency and bandwidth are per-link [`LinkParams`] (the
//!   hierarchical fabric gives inter-cluster links distinct parameters).
//! * **Strict priorities with best-effort drop**: [`Priority::BestEffort`]
//!   packets only transmit when no higher-priority packet is waiting, and
//!   are silently discarded once they have waited longer than the
//!   configured staleness bound. This is PATCH's bandwidth-adaptivity
//!   mechanism.
//! * **Per-class traffic accounting** ([`TrafficStats`]) measured in
//!   link-traversal bytes, the unit of every traffic figure in the paper.
//! * **Deterministic fault injection** ([`faults`]): seeded delay spikes,
//!   bounded reordering, duplication, degraded links/nodes, and congestion
//!   storms, replayable from `(FaultSpec, seed)` and disabled by default.
//!
//! The interconnect is driven by the simulation's central event queue: calls
//! to [`Fabric::send`] and [`Fabric::handle`] emit follow-up [`NocEvent`]s
//! via a scheduling callback, and completed deliveries via a delivery
//! callback.
//!
//! # Examples
//!
//! ```
//! use patchsim_kernel::Cycle;
//! use patchsim_noc::{
//!     DestSet, Fabric, FabricConfig, FabricKind, NocEvent, NocPayload, NodeId, Priority,
//!     TrafficClass,
//! };
//!
//! #[derive(Clone, Debug)]
//! struct Ping;
//! impl NocPayload for Ping {
//!     fn size_bytes(&self) -> u64 { 8 }
//!     fn traffic_class(&self) -> TrafficClass { TrafficClass::IndirectRequest }
//! }
//!
//! let mut net: Fabric<Ping> = Fabric::new(FabricConfig::new(FabricKind::Torus, 16));
//! let mut pending: Vec<(Cycle, NocEvent<Ping>)> = Vec::new();
//! net.send(
//!     Cycle::ZERO,
//!     NodeId::new(0),
//!     DestSet::single(16, NodeId::new(5)),
//!     Priority::Normal,
//!     Ping,
//!     &mut |at, ev| pending.push((at, ev)),
//! );
//! // Drain the event list (a real simulator uses its EventQueue).
//! let mut delivered = Vec::new();
//! while let Some((at, ev)) = pending.pop() {
//!     net.handle(at, ev, &mut |at, ev| pending.push((at, ev)), &mut |node, _msg| {
//!         delivered.push(node);
//!     });
//! }
//! assert_eq!(delivered, vec![NodeId::new(5)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dest_set;
pub mod fabric;
pub mod faults;
mod link;
mod node_id;
mod topology;
mod torus;
mod traffic;

pub use dest_set::DestSet;
pub use fabric::{
    Adjacency, Fabric, FabricConfig, FabricKind, FabricSpec, LinkClass, LinkParams, MulticastTree,
    NocEvent,
};
pub use faults::{DegradeFault, DelayFault, DuplicateFault, FaultSpec, ReorderFault, StormFault};
pub use link::Priority;
pub use node_id::NodeId;
pub use topology::Topology;
pub use traffic::{LinkBandwidth, TrafficClass, TrafficStats};

/// Payload carried by the interconnect.
///
/// The interconnect is agnostic to coherence-protocol contents; it only
/// needs each message's wire size (for serialization and traffic
/// accounting) and its traffic class (for the per-class breakdowns of the
/// paper's Figures 5 and 10).
pub trait NocPayload {
    /// Size of the message on the wire, in bytes (header included).
    fn size_bytes(&self) -> u64;
    /// Accounting category for traffic figures.
    fn traffic_class(&self) -> TrafficClass;
    /// Whether the receiving protocol tolerates duplicate deliveries of
    /// this message. The fault layer ([`faults`]) only double-delivers
    /// packets that opt in (e.g. PATCH's token-free direct-request
    /// hints); everything else models a link-level retransmission
    /// instead, preserving at-most-once delivery of token carriers.
    fn dup_safe(&self) -> bool {
        false
    }
}
