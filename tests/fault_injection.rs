//! Integration tests for the deterministic fault-injection layer: every
//! shipped fault mix must preserve the safety oracles (token conservation
//! and coherence checking stay on and clean), satisfy the liveness
//! oracles (no miss outlives the starvation horizon; every run
//! completes), replay exactly from `(spec, seed)`, and leave fault-free
//! runs untouched.

use patchsim::{
    run, CacheGeometry, FaultSpec, PredictorChoice, ProtocolKind, RunResult, SimConfig,
    WorkloadSpec,
};

/// A contended small-system configuration that exercises every protocol
/// path (forwards, invalidations, token returns) in a debug-build-friendly
/// number of cycles.
fn base(kind: ProtocolKind) -> SimConfig {
    let config = SimConfig::new(kind, 8)
        .with_workload(WorkloadSpec::Microbenchmark {
            table_blocks: 32,
            write_frac: 0.4,
            think_mean: 3,
        })
        .with_ops_per_core(50)
        .with_warmup(20)
        .with_checks()
        .with_liveness_horizon(300_000);
    if kind == ProtocolKind::Patch {
        config.with_predictor(PredictorChoice::All)
    } else {
        config
    }
}

/// The protocol families the `faults` experiment plan sweeps.
const KINDS: [ProtocolKind; 3] = [
    ProtocolKind::Directory,
    ProtocolKind::Patch,
    ProtocolKind::TokenB,
];

/// The observable fingerprint of a run, for replay comparisons.
fn fingerprint(result: &RunResult) -> (u64, u64, u64, u64) {
    (
        result.runtime_cycles,
        result.events_processed,
        result.traffic.total_bytes(),
        result.measured_misses,
    )
}

/// Safety + liveness oracles hold for every shipped fault preset on every
/// protocol family: the run completes (liveness — the armed watchdog
/// panics on starvation, `max_cycles` on livelock), every core retires
/// its quota, and the token-conservation and coherence checkers both ran
/// (safety — they panic on any violation).
#[test]
fn every_fault_preset_passes_safety_and_liveness_oracles() {
    for kind in KINDS {
        for preset in FaultSpec::PRESETS {
            let spec = FaultSpec::parse(preset).expect("shipped preset parses");
            let config = base(kind).with_faults(spec).with_seed(7);
            let result = run(&config);
            assert_eq!(
                result.ops_completed,
                8 * 50,
                "{kind:?} under '{preset}' lost operations"
            );
            assert!(
                result.token_audits > 0,
                "{kind:?} under '{preset}': token auditor never ran"
            );
            assert!(
                result.coherence_checks > 0,
                "{kind:?} under '{preset}': coherence checker never ran"
            );
        }
    }
}

/// The timed counterpart of the adversarial eviction sweeps: a two-line
/// cache under six blocks evicts on most fills, so every protocol's
/// writeback and token-return paths race each fault preset, with both
/// safety oracles and the liveness horizon armed. TokenB under `reorder`
/// and `chaos` at 16 nodes is left out: most of its seeds there outlive
/// this horizon on persistent-request latency alone (open in ROADMAP.md).
#[test]
fn evicting_caches_pass_the_oracles_under_every_preset() {
    let rows = [
        (ProtocolKind::Directory, PredictorChoice::None),
        (ProtocolKind::TokenB, PredictorChoice::None),
        (ProtocolKind::Patch, PredictorChoice::None),
        (ProtocolKind::Patch, PredictorChoice::All),
    ];
    // One seed per cell, a different one for each, to fit a debug build.
    let mut seed = 0;
    for (kind, predictor) in rows {
        for preset in FaultSpec::PRESETS {
            for n in [4u16, 16] {
                if kind == ProtocolKind::TokenB && n == 16 && matches!(preset, "reorder" | "chaos")
                {
                    continue;
                }
                seed += 1;
                // Captured unless the cell fails: the last line names it.
                eprintln!(
                    "cell: {kind}/{} '{preset}' n={n} seed={seed}",
                    predictor.label()
                );
                let mut config = SimConfig::new(kind, n)
                    .with_predictor(predictor)
                    .with_workload(WorkloadSpec::Microbenchmark {
                        table_blocks: 6,
                        write_frac: 0.5,
                        think_mean: 10,
                    })
                    .with_ops_per_core(300)
                    .with_checks()
                    .with_liveness_horizon(200_000)
                    .with_faults(FaultSpec::parse(preset).expect("shipped preset parses"))
                    .with_seed(seed);
                config.protocol = config
                    .protocol
                    .with_cache_geometry(CacheGeometry::new(2, 1));
                let result = run(&config);
                assert_eq!(result.ops_completed, u64::from(n) * 300);
                assert!(result.counters.writebacks > 0, "nothing was evicted");
            }
        }
    }
}

/// The same `(spec, seed)` pair replays the exact same execution, and a
/// different seed draws a different fault schedule.
#[test]
fn fault_schedules_replay_from_spec_and_seed() {
    let config = base(ProtocolKind::Patch)
        .with_faults(FaultSpec::parse("chaos").unwrap())
        .with_seed(11);
    let first = fingerprint(&run(&config));
    let again = fingerprint(&run(&config));
    assert_eq!(first, again, "identical (spec, seed) must replay exactly");

    let other = fingerprint(&run(&config.with_seed(12)));
    assert_ne!(
        first, other,
        "a different seed must draw a different fault schedule"
    );
}

/// An explicit `--faults none` is indistinguishable from never mentioning
/// faults: same timing, same traffic, same event count — the golden
/// figures and the pinned perf hash cannot move.
#[test]
fn explicit_none_is_identical_to_the_default() {
    for kind in KINDS {
        let plain = base(kind).with_seed(3);
        let mut labeled = plain.clone().with_faults(FaultSpec::none());
        labeled.liveness_horizon = None; // watchdog events off, like the default
        let mut plain = plain;
        plain.liveness_horizon = None;
        assert_eq!(
            fingerprint(&run(&plain)),
            fingerprint(&run(&labeled)),
            "{kind:?}: '--faults none' must not perturb the run"
        );
    }
}

/// The armed liveness horizon actually fires: with an impossible
/// 1-cycle bound, the first completed miss trips the oracle.
#[test]
#[should_panic(expected = "liveness violation")]
fn watchdog_flags_horizon_violations() {
    let config = base(ProtocolKind::Directory).with_liveness_horizon(1);
    run(&config);
}

/// Regression guard for the PR 1 TokenB deadlock class (stale
/// `PersistentActivate`/`PersistentDeactivate` arbitration), re-triggered
/// through the fault layer instead of a hand-built delivery schedule: a
/// heavily reordered, spiky interconnect on a write-contended table
/// drives TokenB through reissue and persistent-request arbitration while
/// activations and deactivations arrive out of order. Before the
/// serial-number fix this shape deadlocked (two nodes each waiting on the
/// other's stale activation); with it, every run completes under the
/// starvation watchdog.
#[test]
fn tokenb_persistent_arbitration_survives_heavy_reordering() {
    let mut persistent_requests = 0;
    for seed in [1, 2, 3] {
        let config = SimConfig::new(ProtocolKind::TokenB, 8)
            .with_workload(WorkloadSpec::Microbenchmark {
                table_blocks: 16,
                write_frac: 0.6,
                think_mean: 2,
            })
            .with_ops_per_core(80)
            .with_warmup(20)
            .with_checks()
            .with_liveness_horizon(300_000)
            .with_faults(FaultSpec::parse("reorder:256+delay:0.05:400").unwrap())
            .with_seed(seed);
        let result = run(&config);
        assert_eq!(result.ops_completed, 8 * 80, "seed {seed} lost operations");
        persistent_requests += result.counters.persistent_requests;
    }
    assert!(
        persistent_requests > 0,
        "the adversarial schedule never reached persistent arbitration, \
         so it no longer covers the PR 1 deadlock class"
    );
}
