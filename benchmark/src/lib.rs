//! The repository benchmark. See `benchmark/README.md` for the metric and
//! workload definitions; `BENCHMARK.json` at the repository root is
//! rendered from [`metrics`] and [`workloads`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bracket;
pub mod farm;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod shadow;
pub mod workloads;
