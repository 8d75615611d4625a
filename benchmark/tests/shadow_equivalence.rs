//! The shadow loop, untraced and traced, must be the same simulation as
//! `patchsim::run`: every per-layer number rests on that.

use patchsim::{
    presets, FabricKind, FaultSpec, PredictorChoice, ProtocolKind, RunResult, SimConfig,
    TrafficClass,
};
use patchsim_benchmark::bracket::{calibrate, Call, Off, Tracer};
use patchsim_benchmark::shadow;

fn protocols(nodes: u16) -> [SimConfig; 3] {
    [
        SimConfig::new(ProtocolKind::Directory, nodes),
        SimConfig::new(ProtocolKind::TokenB, nodes),
        SimConfig::new(ProtocolKind::Patch, nodes)
            .with_predictor(PredictorChoice::BroadcastIfShared),
    ]
}

/// Protocols x {torus, xbar, hier with checks and chaos, mesh at 128
/// nodes}, at reduced size.
fn grid(seed: u64) -> Vec<SimConfig> {
    let chaos = FaultSpec::parse("chaos").expect("chaos is a fault preset");
    let mut configs = Vec::new();
    for base in protocols(16) {
        let base = base
            .with_workload(presets::oltp())
            .with_ops_per_core(150)
            .with_warmup(30)
            .with_seed(seed);
        configs.push(base.clone().with_fabric(FabricKind::Torus));
        configs.push(base.clone().with_fabric(FabricKind::FullyConnected));
        configs.push(
            base.with_fabric(FabricKind::Hierarchical { cluster: None })
                .with_checks()
                .with_faults(chaos)
                .with_liveness_horizon(200_000),
        );
    }
    for base in protocols(128) {
        configs.push(
            base.with_fabric(FabricKind::Mesh2D)
                .with_ops_per_core(12)
                .with_warmup(4)
                .with_seed(seed),
        );
    }
    configs
}

fn assert_same(what: &str, config: &SimConfig, want: &RunResult, got: &RunResult) {
    let ctx = format!(
        "{what}: {} on {} x{}, seed {}",
        want.protocol,
        config.protocol.fabric.label(),
        config.protocol.num_nodes,
        config.seed
    );
    assert_eq!(want.runtime_cycles, got.runtime_cycles, "{ctx}");
    assert_eq!(want.ops_completed, got.ops_completed, "{ctx}");
    assert_eq!(want.measured_misses, got.measured_misses, "{ctx}");
    assert_eq!(want.events_processed, got.events_processed, "{ctx}");
    for class in TrafficClass::ALL {
        assert_eq!(
            want.traffic.bytes(class),
            got.traffic.bytes(class),
            "{ctx}: {class:?} bytes"
        );
    }
    assert_eq!(want.counters, got.counters, "{ctx}");
    assert_eq!(want.coherence_checks, got.coherence_checks, "{ctx}");
    assert_eq!(want.token_audits, got.token_audits, "{ctx}");
    assert_eq!(want.digest(), got.digest(), "{ctx}");
}

#[test]
fn shadow_equals_system_traced_and_untraced() {
    let cal = calibrate();
    for seed in [45223, 7] {
        for config in grid(seed) {
            let want = patchsim::run(&config);
            assert_eq!(
                want.ops_completed,
                u64::from(config.protocol.num_nodes) * config.ops_per_core
            );
            let untraced = shadow::run(&config, &mut Off);
            assert_same("untraced", &config, &want, &untraced.result);
            let mut tracer = Tracer::new(cal);
            let traced = shadow::run(&config, &mut tracer);
            assert_same("traced", &config, &want, &traced.result);
            assert_eq!(untraced.noc_busy_cycles, traced.noc_busy_cycles);
            // Counts are taken at the same boundaries as the brackets.
            assert_eq!(
                tracer.totals().calls(Call::KernelPush),
                want.events_processed
            );
            assert_eq!(
                tracer.totals().calls(Call::KernelPop),
                want.events_processed + 1
            );
            assert!(
                tracer.totals().agg(Call::KernelPop).timed > 0,
                "some events were timed"
            );
            assert!(!tracer.spans().is_empty());
        }
    }
}
