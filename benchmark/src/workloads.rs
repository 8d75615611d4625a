//! The five benchmark workloads.
//!
//! Each in-process workload is a list of configurations run one after the
//! other on one simulation thread (a *pass*); the farm workload is a
//! `runplan` command line. Sizes are chosen so that a pass takes about a
//! second on the 2-core sandbox: a run of `--seconds` then holds enough
//! passes for a steady median.

use patchsim::{
    presets, FabricKind, FaultSpec, PredictorChoice, ProtocolKind, SimConfig, WorkloadSpec,
};

/// The liveness horizon of the `faults` plan, which the checked workload
/// borrows.
const LIVENESS_HORIZON: u64 = 200_000;

/// One benchmark workload.
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Why the workload is in the benchmark, in one line.
    pub why: &'static str,
    /// The configurations of one pass, for `seed`; sizes are divided by
    /// ten when `quick`. Empty for the farm workload.
    pub configs: fn(seed: u64, quick: bool) -> Vec<SimConfig>,
}

/// The name of the subprocess workload.
pub const FARM: &str = "farm_fig4_quick";

/// The `runplan` arguments of the farm workload, less `--store DIR`.
pub const FARM_ARGS: [&str; 8] = [
    "fig4",
    "--quick",
    "--seeds",
    "1",
    "--threads",
    "2",
    "--format",
    "csv",
];

/// Simulated memory operations one cold farm pass retires: 5 workloads x 6
/// configurations x 1 seed x 16 cores x 300 measured ops (`Scale::quick`).
pub const FARM_OPS: u64 = 5 * 6 * 16 * 300;

/// Every workload, in reporting order.
pub const ALL: [Workload; 5] = [
    Workload {
        name: "torus16_patch",
        why: "16-node PATCH+BroadcastIfShared on the torus: most fabric events per message \
              (multi-hop plus multicast), so kernel and noc changes show here first",
        configs: torus16_patch,
    },
    Workload {
        name: "xbar16_protocols",
        why: "Directory, TokenB and PATCH-All on a one-hop crossbar: fewest fabric events per \
              message, so the three controllers dominate and a noc-only gain moves least",
        configs: xbar16_protocols,
    },
    Workload {
        name: "mesh128_scale",
        why: "128-node PATCH on the mesh: the >64-node spill DestSet, tables larger than host \
              caches, and real set-up and memory cost",
        configs: mesh128_scale,
    },
    Workload {
        name: "hier16_checked_chaos",
        why: "three protocols on the hierarchical fabric with checks on and chaos faults: the \
              faulted try_start branch, TokenAuditor and CoherenceChecker are live only here",
        configs: hier16_checked_chaos,
    },
    Workload {
        name: FARM,
        why: "runplan fig4 --quick as a subprocess, cold then warm store: what a user types; \
              construction, runner, store, table and emit carry weight only here",
        configs: |_, _| Vec::new(),
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

fn microbench() -> WorkloadSpec {
    WorkloadSpec::Microbenchmark {
        table_blocks: 4_096,
        write_frac: 0.3,
        think_mean: 10,
    }
}

fn sized(config: SimConfig, ops: u64, warmup: u64, seed: u64, quick: bool) -> SimConfig {
    let div = if quick { 10 } else { 1 };
    config
        .with_ops_per_core(ops / div)
        .with_warmup(warmup / div)
        .with_seed(seed)
}

/// The three protocols in the order every multi-protocol workload runs
/// them.
fn three_protocols(nodes: u16) -> [SimConfig; 3] {
    [
        SimConfig::new(ProtocolKind::Directory, nodes),
        SimConfig::new(ProtocolKind::TokenB, nodes),
        SimConfig::new(ProtocolKind::Patch, nodes).with_predictor(PredictorChoice::All),
    ]
}

fn torus16_patch(seed: u64, quick: bool) -> Vec<SimConfig> {
    let config = SimConfig::new(ProtocolKind::Patch, 16)
        .with_predictor(PredictorChoice::BroadcastIfShared)
        .with_workload(microbench());
    vec![sized(config, 6_000, 1_000, seed, quick)]
}

fn xbar16_protocols(seed: u64, quick: bool) -> Vec<SimConfig> {
    three_protocols(16)
        .into_iter()
        .map(|c| {
            let c = c
                .with_fabric(FabricKind::FullyConnected)
                .with_workload(presets::oltp());
            sized(c, 6_000, 1_000, seed, quick)
        })
        .collect()
}

fn mesh128_scale(seed: u64, quick: bool) -> Vec<SimConfig> {
    let config = SimConfig::new(ProtocolKind::Patch, 128)
        .with_predictor(PredictorChoice::BroadcastIfShared)
        .with_fabric(FabricKind::Mesh2D)
        .with_workload(microbench());
    vec![sized(config, 120, 30, seed, quick)]
}

fn hier16_checked_chaos(seed: u64, quick: bool) -> Vec<SimConfig> {
    let chaos = FaultSpec::parse("chaos").expect("chaos is a fault preset");
    three_protocols(16)
        .into_iter()
        .map(|c| {
            let c = c
                .with_fabric(FabricKind::Hierarchical { cluster: None })
                .with_workload(presets::oltp())
                .with_checks()
                .with_faults(chaos)
                .with_liveness_horizon(LIVENESS_HORIZON);
            sized(c, 4_000, 500, seed, quick)
        })
        .collect()
}
