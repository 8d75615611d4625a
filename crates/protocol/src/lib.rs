//! Coherence protocols for the `patchsim` simulator.
//!
//! Three protocols, sharing one message vocabulary and one controller
//! interface:
//!
//! * [`DirectoryController`] — **DIRECTORY**, the baseline: a blocking
//!   GEMS-style MOESI+F directory protocol (§5.1 of the paper). Races are
//!   resolved without nacks by a busy state per block at the home; write
//!   misses complete by counting invalidation acknowledgements.
//! * [`PatchController`] — **PATCH**, the paper's contribution (§5.2): the
//!   same blocking home (`home.rs`, shared with DIRECTORY) with token
//!   state added everywhere (`tokens.rs`, shared with TokenB), completion
//!   by token counting, predictive best-effort direct requests, and
//!   forward progress by **token tenure** (§4).
//! * [`TokenBController`] — **TokenB**, the broadcast token-coherence
//!   comparator: transient broadcast requests, reissue on timeout, and
//!   persistent requests with per-node tables as the forward-progress
//!   backstop.
//!
//! Controllers are *node* objects: each hosts the node's private cache
//! side and its slice of the distributed home (directory/memory). They
//! communicate only through [`Msg`] values exchanged via an [`Outbox`] —
//! the `patchsim` core crate wires outboxes to the interconnect fabric and
//! the event queue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
mod config;
mod controller;
mod directory;
mod home;
mod msg;
mod patch;
mod tokenb;
mod tokens;

pub use common::LatencyEstimator;
pub use config::{ProtocolConfig, ProtocolKind, TenureConfig};
pub use controller::{
    build_controller, build_controllers, Completion, Controller, CoreResponse, MemOp, OutMsg,
    Outbox, ProtocolCounters, ProtocolGauges, SpanMarks, TimerKey, TimerKind,
};
pub use directory::DirectoryController;
pub use msg::{Msg, MsgBody, RequestStyle, CONTROL_MSG_BYTES, DATA_MSG_BYTES};
pub use patch::PatchController;
pub use tokenb::TokenBController;
