//! Synthetic workload generators for `patchsim`.
//!
//! The paper evaluates on two SPLASH2 applications (barnes, ocean) and
//! three Wisconsin Commercial Workload Suite applications (oltp, apache,
//! jbb), simulated with Simics full-system simulation, plus a scalability
//! microbenchmark. Full-system binary traces are not reproducible here, so
//! this crate substitutes **sharing-pattern-parameterized synthetic
//! generators** (see `docs/workloads.md`): what the coherence protocol actually
//! sees is a per-core stream of reads and writes with particular
//! private/shared/migratory/producer–consumer statistics, and those
//! statistics — not instruction semantics — drive every effect the paper
//! measures.
//!
//! Each named preset ([`presets`]) fixes a [`SharingProfile`] chosen to
//! qualitatively match the published behaviour of its namesake (commercial
//! workloads sharing-miss-dominated, scientific workloads more
//! private/capacity-driven). The [`WorkloadSpec::Microbenchmark`] variant
//! is the paper's own synthetic benchmark, reproduced exactly: "each core
//! writes a random entry in a fixed-size table (16k locations) 30% of the
//! time and reads a random entry 70% of the time".
//!
//! Three further workload families round out the catalog (see
//! `docs/workloads.md`): [`WorkloadSpec::Service`] generates
//! service-shaped traffic — Zipfian key skew with rotating hot sets,
//! phase-changing tenant mixes, bursty arrivals — from a dedicated RNG
//! stream, [`WorkloadSpec::OpenLoop`] decouples arrivals from
//! completions behind a bounded per-core backlog (the only family that
//! can overload a protocol), and [`WorkloadSpec::Trace`] replays a
//! [`TraceData`] recorded by the `patchsim-trace` crate bit-identically.
//!
//! # Examples
//!
//! ```
//! use patchsim_kernel::SimRng;
//! use patchsim_noc::NodeId;
//! use patchsim_workload::{presets, WorkloadSpec};
//!
//! let spec = presets::oltp();
//! let mut g = spec.generator(NodeId::new(0), 64, SimRng::from_seed(1));
//! let item = g.next_item();
//! assert!(item.think_cycles < 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrivals;
mod generator;
mod profile;
mod replay;
mod service;

pub use arrivals::{ArrivalProcess, ArrivalProfile, OverloadPolicy};
pub use generator::{Generator, WorkItem};
pub use profile::{presets, SharingProfile, WorkloadSpec};
pub use replay::TraceData;
pub use service::{service_presets, ServiceProfile, ZipfSampler};
