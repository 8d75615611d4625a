//! Destination-set predictors for PATCH's direct requests.
//!
//! PATCH sends each miss's request to the home (the *indirect* request)
//! and, optionally, directly to a predicted set of other processors (the
//! *direct* requests, delivered best-effort). The paper takes its
//! predictors directly from Martin et al., *"Using Destination-Set
//! Prediction to Improve the Latency/Bandwidth Tradeoff in Shared Memory
//! Multiprocessors"* (ISCA 2003), and evaluates four policies:
//!
//! * [`NonePredictor`] — no direct requests (PATCH-None: pure directory
//!   behaviour plus token counting).
//! * [`OwnerPredictor`] — predict the single node believed to own the block
//!   (PATCH-Owner): low traffic, roughly half the latency benefit.
//! * [`BroadcastIfSharedPredictor`] — broadcast to all for blocks observed
//!   to be shared recently, none otherwise (PATCH-BcastIfShared).
//! * [`AllPredictor`] — broadcast to everyone on every miss (PATCH-All):
//!   the full latency benefit of snooping, the full traffic cost.
//!
//! Table-based predictors use 8192-entry tables indexed by 1024-byte
//! macroblock (16 64-byte blocks), as in the paper. The tables of all the
//! nodes of one system are the columns of one store
//! ([`PredictorChoice::build_nodes`], [`PredictorTable::columns`]), laid
//! out so that the receivers of one broadcast train adjacent entries.
//!
//! # Examples
//!
//! ```
//! use patchsim_mem::{AccessKind, BlockAddr};
//! use patchsim_noc::NodeId;
//! use patchsim_predictor::{OwnerPredictor, Predictor};
//!
//! let mut p = OwnerPredictor::new(64);
//! let me = NodeId::new(0);
//! // Before any training the predictor has no owner candidate:
//! assert!(p.predict(BlockAddr::new(100), AccessKind::Read, me).is_empty());
//! // After observing a response from P7 for the same macroblock:
//! p.observe_response(BlockAddr::new(100), NodeId::new(7));
//! let set = p.predict(BlockAddr::new(101), AccessKind::Read, me);
//! assert!(set.contains(NodeId::new(7)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod policies;
mod table;

pub use policies::{
    AllPredictor, BroadcastIfSharedPredictor, NonePredictor, OwnerPredictor, PredictorChoice,
};
pub use table::PredictorTable;

use patchsim_mem::{AccessKind, BlockAddr};
use patchsim_noc::{DestSet, NodeId};

/// A destination-set predictor.
///
/// The coherence controller consults [`Predictor::predict`] on every miss
/// and trains the predictor with the coherence traffic it observes:
/// requests from other processors ([`Predictor::observe_request`]) and
/// data/ack responses ([`Predictor::observe_response`]).
pub trait Predictor: std::fmt::Debug {
    /// The set of processors to send direct requests to for a miss on
    /// `addr` of kind `kind` issued by `requester`. Never includes
    /// `requester` itself. An empty set means "send no direct requests".
    fn predict(&mut self, addr: BlockAddr, kind: AccessKind, requester: NodeId) -> DestSet;

    /// Trains on an incoming request (forwarded or direct) from `from`.
    fn observe_request(&mut self, addr: BlockAddr, from: NodeId);

    /// Trains on an incoming response (data or token ack) from `from`.
    fn observe_response(&mut self, addr: BlockAddr, from: NodeId);
}
