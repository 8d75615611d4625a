//! Discrete-event simulation kernel for the `patchsim` workspace.
//!
//! This crate provides the substrate every other `patchsim` crate builds on:
//!
//! * [`Cycle`] — a strongly-typed simulation timestamp.
//! * [`EventQueue`] — a deterministic time-ordered event queue. Events that
//!   are scheduled for the same cycle are delivered in FIFO insertion order,
//!   which makes whole-system runs bit-reproducible for a given seed.
//! * [`SimRng`] — a small, fast, seedable random-number generator with
//!   support for deriving independent per-component streams.
//! * [`stats`] — running means, histograms, and confidence-interval helpers
//!   used by the experiment harness.
//!
//! # Examples
//!
//! ```
//! use patchsim_kernel::{Cycle, EventQueue};
//!
//! let mut q = EventQueue::new();
//! q.push(Cycle::new(10), "late");
//! q.push(Cycle::new(5), "early");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (Cycle::new(5), "early"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collections;
mod cycle;
pub mod digest;
mod event;
mod rng;
pub mod stats;
pub mod streams;

pub use cycle::Cycle;
pub use event::EventQueue;
pub use rng::{replicate_seed, stream_seed, SimRng};
