//! Memory-system substrate for the `patchsim` cache-coherence simulator.
//!
//! The paper's protocols sit on a conventional CMP memory system: private
//! set-associative caches, a distributed directory at per-node home memory
//! controllers, and (for PATCH and TokenB) per-block token state. This
//! crate provides those structures, protocol-agnostically:
//!
//! * [`BlockAddr`] — cache-block addresses and their home-node mapping.
//! * [`TokenSet`] — per-block token state implementing the token counting
//!   rules of Token Coherence (the paper's Table 1) and the MOESI+F mapping
//!   of Table 2.
//! * [`CacheArray`] — a set-associative array with LRU replacement, generic
//!   over the per-line coherence payload.
//! * [`Chunked`] — the append-only record storage under `CacheArray` and the
//!   predictors' table, which lets a per-node table cost what a run touches
//!   of it rather than what the paper's geometry could hold.
//! * [`SharerSet`] / [`SharerEncoding`] — exact (full-map) and inexact
//!   (coarse-vector) directory sharer encodings. The coarse encodings drive
//!   the paper's scalability results (Figures 9–10): with `K` cores per
//!   bit the directory over-approximates the sharer set, and DIRECTORY pays
//!   for the over-approximation in acknowledgement traffic while PATCH does
//!   not.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod addr;
mod cache;
mod chunked;
mod sharers;
mod token;

pub use access::AccessKind;
pub use addr::BlockAddr;
pub use cache::{CacheArray, CacheGeometry, Evicted};
pub use chunked::Chunked;
pub use sharers::{SharerEncoding, SharerSet};
pub use token::{MoesiState, OwnerStatus, TokenSet};
