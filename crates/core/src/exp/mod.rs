//! Declarative experiment plans, a parallel deterministic runner, and
//! machine-readable result tables.
//!
//! The paper's evaluation (§8) is a grid of experiments — protocol
//! configurations × workloads × bandwidth/core-count/coarseness sweeps ×
//! perturbed seeds. This module expresses that grid declaratively:
//!
//! 1. [`Sweep`] declares labeled axes over a base [`SimConfig`] and
//!    builds an [`ExperimentPlan`] — the cross product of the axes, each
//!    cell a named, fully assembled configuration.
//! 2. [`Runner`] executes every `(cell, replication)` pair on a
//!    `std::thread` worker pool. Per-replication seeds are derived with
//!    [`replicate_seed`](patchsim_kernel::replicate_seed) from the cell's
//!    base seed, never from execution order, so parallel and serial runs
//!    produce identical results.
//! 3. [`Table`] holds one summarized row per cell and renders it in a
//!    [`Format`] — aligned text, CSV, or JSON — with baseline-normalized
//!    and confidence-interval columns declared by the caller.
//!
//! Two robustness layers make long sweeps practical:
//!
//! * **Fault isolation** — each `(cell, replication)` run executes inside
//!   a panic boundary with an optional wall-clock timeout and bounded
//!   retries; cells that still fail surface as [`CellFailure`]s on the
//!   table (rendered explicitly by every emitter) instead of killing the
//!   sweep.
//! * **Resumability** — [`store`] persists each run's result under a
//!   content-addressed key ([`cell_key`]); a [`Runner`] with an attached
//!   [`ResultStore`] loads hits and recomputes only misses, so a killed
//!   sweep resumes to a byte-identical table. Corrupt entries are
//!   quarantined and recomputed, never trusted.
//!
//! # Examples
//!
//! ```
//! use patchsim::exp::{AxisValue, Format, Runner, Sweep};
//! use patchsim::{ProtocolKind, SimConfig, WorkloadSpec};
//!
//! let base = SimConfig::new(ProtocolKind::Directory, 4)
//!     .with_workload(WorkloadSpec::Microbenchmark {
//!         table_blocks: 64,
//!         write_frac: 0.3,
//!         think_mean: 5,
//!     })
//!     .with_ops_per_core(50);
//! let plan = Sweep::new("demo", base)
//!     .axis(
//!         "config",
//!         vec![
//!             AxisValue::new("Directory", |c| c),
//!             AxisValue::new("PATCH", |c| c.with_kind(ProtocolKind::Patch)),
//!         ],
//!     )
//!     .seeds(2)
//!     .build();
//! let table = Runner::new()
//!     .run(&plan)
//!     .with_ci_column("runtime", 0, |cell| cell.summary.runtime)
//!     .with_normalized_column("norm", 3, "config", "Directory", |cell| {
//!         cell.summary.runtime.mean
//!     });
//! let mut csv = Vec::new();
//! table.emit(Format::Csv, &mut csv).unwrap();
//! assert!(String::from_utf8(csv).unwrap().starts_with("config,runtime"));
//! ```
//!
//! [`SimConfig`]: crate::SimConfig

mod emit;
mod plan;
mod runner;
pub mod store;
mod table;

pub use emit::Format;
pub use plan::{AxisValue, Cell, ConfigTransform, ExperimentPlan, Sweep};
pub use runner::Runner;
pub use store::{
    cell_key, LoadOutcome, MergeReport, ResultStore, StoreError, StoreStatsReport, CODE_VERSION,
};
pub use table::{CellFailure, CellResult, CiMetric, Column, FailureKind, Metric, Table, Value};
