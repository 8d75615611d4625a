//! # patchsim
//!
//! A full-system reproduction of **PATCH** — the Predictive/Adaptive Token
//! Counting Hybrid cache-coherence protocol — and of **token tenure**, its
//! broadcast-free forward-progress mechanism, from:
//!
//! > A. Raghavan, C. Blundell, and M. M. K. Martin. *Token Tenure:
//! > PATCHing Token Counting Using Directory-Based Cache Coherence.*
//! > MICRO-41, 2008, pp. 47–58.
//!
//! This crate is the public API: it assembles the substrates built in the
//! sibling crates (DES kernel, interconnect fabrics, cache/directory
//! structures, the three coherence protocols, destination-set predictors,
//! and synthetic workloads) into a runnable simulated multicore, and
//! provides the declarative experiment-plan API ([`exp`]) used to
//! regenerate every figure of the paper's evaluation.
//!
//! ## Quickstart: a single run
//!
//! ```
//! use patchsim::{SimConfig, ProtocolKind, PredictorChoice};
//!
//! // A 16-core PATCH-All system running the paper's microbenchmark.
//! let config = SimConfig::new(ProtocolKind::Patch, 16)
//!     .with_predictor(PredictorChoice::All)
//!     .with_ops_per_core(200)
//!     .with_seed(42);
//! let result = patchsim::run(&config);
//! assert_eq!(result.ops_completed, 16 * 200);
//! assert!(result.runtime_cycles > 0);
//! ```
//!
//! ## Quickstart: a declarative experiment sweep
//!
//! Every paper figure is a [`Sweep`](exp::Sweep): labeled axes crossed
//! into a grid of configurations, executed by the parallel deterministic
//! [`Runner`](exp::Runner), rendered as text, CSV, or JSON. A 2-axis
//! sweep — two protocols × two write ratios, two perturbed seeds per
//! cell:
//!
//! ```
//! use patchsim::exp::{AxisValue, Format, Runner, Sweep};
//! use patchsim::{PredictorChoice, ProtocolKind, SimConfig, WorkloadSpec};
//!
//! fn microbench(write_frac: f64) -> WorkloadSpec {
//!     WorkloadSpec::Microbenchmark { table_blocks: 64, write_frac, think_mean: 5 }
//! }
//!
//! let base = SimConfig::new(ProtocolKind::Directory, 4)
//!     .with_workload(microbench(0.3))
//!     .with_ops_per_core(60);
//! let plan = Sweep::new("demo sweep", base)
//!     .axis(
//!         "config",
//!         vec![
//!             AxisValue::new("Directory", |c| c),
//!             AxisValue::new("PATCH-All", |c| {
//!                 c.with_kind(ProtocolKind::Patch)
//!                     .with_predictor(PredictorChoice::All)
//!             }),
//!         ],
//!     )
//!     .axis(
//!         "writes",
//!         vec![
//!             AxisValue::new("30%", |c| c.with_workload(microbench(0.3))),
//!             AxisValue::new("60%", |c| c.with_workload(microbench(0.6))),
//!         ],
//!     )
//!     .seeds(2)
//!     .build();
//! let table = Runner::new() // worker pool; identical output at any thread count
//!     .run(&plan)
//!     .with_ci_column("runtime", 0, |cell| cell.summary.runtime)
//!     .with_normalized_column("norm_runtime", 3, "config", "Directory", |cell| {
//!         cell.summary.runtime.mean
//!     });
//! assert_eq!(table.cells().len(), 4);
//! let mut out = Vec::new();
//! table.emit(Format::Csv, &mut out).unwrap();
//! let csv = String::from_utf8(out).unwrap();
//! assert!(csv.starts_with("config,writes,runtime,runtime_ci95,norm_runtime"));
//! assert_eq!(csv.lines().count(), 5); // header + one record per cell
//! ```
//!
//! ## What the simulator checks while it runs
//!
//! With [`CheckLevel::Assert`] (the default for tests), every run
//! continuously verifies:
//!
//! * **Token conservation** (Table 1, Rule 1) — per-block token counts
//!   across all caches, homes, and in-flight messages always sum to `T`,
//!   with exactly one owner token.
//! * **Coherence** — writes to a block produce strictly serialized
//!   versions; reads observe the latest written version.
//! * **Forward progress** — every issued operation completes and the
//!   system fully quiesces at the end of a run.
//!
//! [`Cluster`] puts the same two checkers under hand-driven controllers
//! with no fabric or event queue, for tests that pick every delivery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod cluster;
mod config;
pub mod exp;
mod open_loop;
mod report;
mod result;
mod system;
pub mod telemetry;

pub use checker::{CoherenceChecker, TokenAuditor};
pub use cluster::Cluster;
pub use config::{CheckLevel, SimConfig, TelemetryConfig};
pub use report::{
    summarize, ClassBytes, LatencyPercentiles, OpenLoopSummary, RunSummary, SpanSummary,
};
pub use result::{OpenLoopStats, RunError, RunResult};
pub use system::{run, run_many, try_run, System};
pub use telemetry::{EventClass, FlightRecorder, ProfileStats, SpanStats};

// Re-export the vocabulary types users need to configure and interpret
// experiments, so downstream code can depend on `patchsim` alone.
pub use patchsim_kernel::stats::ConfidenceInterval;
pub use patchsim_kernel::{replicate_seed, stream_seed, Cycle, SimRng};
pub use patchsim_mem::{AccessKind, BlockAddr, CacheGeometry, SharerEncoding};
pub use patchsim_noc::{
    DegradeFault, DelayFault, DuplicateFault, FabricConfig, FabricKind, FaultSpec, LinkBandwidth,
    LinkParams, NodeId, Priority, ReorderFault, StormFault, TrafficClass, TrafficStats,
};
pub use patchsim_predictor::PredictorChoice;
pub use patchsim_protocol::{ProtocolConfig, ProtocolCounters, ProtocolKind, TenureConfig};
pub use patchsim_trace::{TraceError, TraceReader, TraceWriter};
pub use patchsim_workload::{
    presets, service_presets, ArrivalProcess, ArrivalProfile, OverloadPolicy, ServiceProfile,
    SharingProfile, TraceData, WorkloadSpec, ZipfSampler,
};
