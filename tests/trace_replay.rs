//! Record/replay bit-identity: a run recorded to a `.ptrc` trace and
//! replayed via `WorkloadSpec::Trace` must reproduce the original
//! `RunResult` exactly — same runtime, traffic, counters, and latency
//! histogram — including when the interconnect injects faults, and the
//! trace must survive a disk round-trip unchanged.

use std::hash::Hasher;
use std::path::PathBuf;

use patchsim::{
    presets, run, service_presets, FabricKind, FaultSpec, PredictorChoice, ProtocolKind, SimConfig,
    TraceReader, WorkloadSpec,
};
use patchsim_kernel::collections::FxHasher;

/// A unique scratch path for one test's trace file.
fn scratch(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("patchsim_{}_{}.ptrc", name, std::process::id()));
    path
}

/// Records `config` to a trace file, replays the trace through a config
/// that is identical except for the workload, and asserts the full
/// result digests match. Returns that digest and an Fx hash of the
/// `.ptrc` bytes, for tests that pin them.
fn assert_replay_identity(config: SimConfig, name: &str) -> (u64, u64) {
    let path = scratch(name);
    let recorded = run(&config.clone().with_record_trace(&path));
    let mut trace_hash = FxHasher::default();
    trace_hash.write(&std::fs::read(&path).expect("trace file written"));

    let trace = TraceReader::read_path(&path).expect("recorded trace decodes");
    assert_eq!(trace.seed, config.seed, "trace stores the recording seed");
    assert_eq!(
        trace.num_nodes, config.protocol.num_nodes,
        "trace stores the recording system size"
    );
    assert_eq!(
        trace.total_items(),
        (config.ops_per_core + config.warmup_ops_per_core) * u64::from(config.protocol.num_nodes),
        "one recorded item per generated operation"
    );

    let mut replay_config = config;
    replay_config.record_trace = None;
    replay_config.workload = WorkloadSpec::trace(trace);
    let replayed = run(&replay_config);

    assert_eq!(
        recorded.digest(),
        replayed.digest(),
        "replayed run diverged from the recorded run for {name}"
    );
    assert_eq!(recorded.runtime_cycles, replayed.runtime_cycles);
    assert_eq!(recorded.traffic, replayed.traffic);
    assert_eq!(recorded.miss_latency_mean, replayed.miss_latency_mean);
    std::fs::remove_file(&path).ok();
    (recorded.digest(), trace_hash.finish())
}

/// The headline acceptance gate: OLTP on the paper's torus records and
/// replays bit-identically under the directory protocol.
#[test]
fn oltp_on_torus_replays_bit_identically() {
    let config = SimConfig::new(ProtocolKind::Directory, 16)
        .with_workload(presets::oltp())
        .with_ops_per_core(120)
        .with_warmup(30)
        .with_seed(0xA11CE)
        .with_checks();
    assert_replay_identity(config, "oltp_torus");
}

/// Replay identity holds under chaos fault injection on the hierarchical
/// fabric with PATCH: the fault schedule is seeded from a dedicated
/// stream of the run seed (stored in the trace), so faults replay too.
#[test]
fn chaos_faulted_patch_on_hier_replays_bit_identically() {
    let config = SimConfig::new(ProtocolKind::Patch, 16)
        .with_predictor(PredictorChoice::All)
        .with_fabric(FabricKind::Hierarchical { cluster: None })
        .with_faults(FaultSpec::parse("chaos").expect("shipped preset"))
        .with_workload(presets::oltp())
        .with_ops_per_core(80)
        .with_warmup(20)
        .with_seed(0xFA57)
        .with_checks()
        .with_liveness_horizon(300_000);
    assert_replay_identity(config, "chaos_hier");
}

/// Service-shaped traffic records and replays like any other workload:
/// the Zipfian generator's draws are captured as concrete accesses. The
/// pair is pinned by value (no golden covers record→replay): the draw
/// order at the generator seam, and so the trace bytes and the digest,
/// must survive any refactor of the event loop or the generator unedited.
#[test]
fn zipfian_service_workload_replays_bit_identically() {
    let config = SimConfig::new(ProtocolKind::TokenB, 8)
        .with_workload(service_presets::zipf_hot())
        .with_ops_per_core(100)
        .with_warmup(25)
        .with_seed(7)
        .with_checks();
    let (digest, trace_hash) = assert_replay_identity(config, "svc_hot");
    assert_eq!(
        digest, 0xfff4_8705_dc17_4d43,
        "svc-zipf record/replay digest moved"
    );
    assert_eq!(
        trace_hash, 0xb336_cdb7_8186_8053,
        "svc-zipf recorded trace bytes moved"
    );
}

/// Replaying on the wrong system size is a configuration error, caught
/// before any simulation runs.
#[test]
#[should_panic(expected = "recorded on 8 cores")]
fn replaying_on_the_wrong_node_count_panics() {
    let path = scratch("wrong_nodes");
    let config = SimConfig::new(ProtocolKind::Directory, 8)
        .with_ops_per_core(10)
        .with_record_trace(&path);
    run(&config);
    let trace = TraceReader::read_path(&path).expect("trace decodes");
    std::fs::remove_file(&path).ok();
    let bad = SimConfig::new(ProtocolKind::Directory, 16)
        .with_workload(WorkloadSpec::trace(trace))
        .with_ops_per_core(10);
    run(&bad);
}

/// Recording must not disturb the run it observes: the recorded run's
/// results equal a plain run of the same configuration.
#[test]
fn recording_is_invisible_to_the_recorded_run() {
    let path = scratch("invisible");
    let config = SimConfig::new(ProtocolKind::Patch, 8)
        .with_predictor(PredictorChoice::BroadcastIfShared)
        .with_workload(presets::apache())
        .with_ops_per_core(60)
        .with_warmup(10)
        .with_seed(42);
    let plain = run(&config);
    let recorded = run(&config.clone().with_record_trace(&path));
    std::fs::remove_file(&path).ok();
    assert_eq!(plain.digest(), recorded.digest());
}

/// A trace header states the recording run's working set: the explicit
/// hint when one is set, else the workload's footprint. The hint is
/// metadata only, so a replay without it reproduces the recording.
#[test]
fn the_trace_header_states_the_working_set() {
    let config = SimConfig::new(ProtocolKind::Patch, 8)
        .with_predictor(PredictorChoice::BroadcastIfShared)
        .with_workload(presets::barnes())
        .with_ops_per_core(40)
        .with_warmup(10)
        .with_seed(11);
    let record = |config: &SimConfig, name: &str| {
        let path = scratch(name);
        let result = run(&config.clone().with_record_trace(&path));
        let trace = TraceReader::read_path(&path).expect("recorded trace decodes");
        std::fs::remove_file(&path).ok();
        (result, trace)
    };

    let footprint = config.workload.working_set_blocks(8);
    let (_, trace) = record(&config, "ws_derived");
    assert_eq!(trace.working_set_blocks, footprint);

    let mut hinted = config.clone();
    hinted.protocol.working_set_hint = Some(12_345);
    assert_ne!(footprint, 12_345);
    let (recorded, trace) = record(&hinted, "ws_hinted");
    assert_eq!(trace.working_set_blocks, 12_345);

    let replay = config.with_workload(WorkloadSpec::trace(trace));
    assert_eq!(run(&replay).digest(), recorded.digest());
}
