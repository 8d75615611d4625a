//! Workspace smoke test: run the `quickstart` doc-example configuration
//! end-to-end through the full stack (kernel → noc/mem/predictor →
//! protocol → workload → core) with invariant checking enabled, so CI
//! exercises every crate in one deterministic run.

use patchsim::{run, PredictorChoice, ProtocolKind, SimConfig};

#[test]
fn quickstart_config_runs_end_to_end() {
    // The exact configuration from the `patchsim` crate-level docs.
    let config = SimConfig::new(ProtocolKind::Patch, 16)
        .with_predictor(PredictorChoice::All)
        .with_ops_per_core(200)
        .with_seed(42)
        .with_checks();
    let result = run(&config);

    // Every core retires its full measured-operation quota.
    assert_eq!(result.ops_completed, 16 * 200);
    assert!(result.runtime_cycles > 0);

    // `with_checks` turns on the token-conservation auditor (which panics
    // on any violation); a completed run with a nonzero audit count is a
    // machine-checked witness that conservation held throughout.
    assert!(
        result.token_audits > 0,
        "token-conservation auditor never ran"
    );
    assert!(result.coherence_checks > 0, "coherence checker never ran");
}

#[test]
fn quickstart_config_is_deterministic() {
    let config = || {
        SimConfig::new(ProtocolKind::Patch, 16)
            .with_predictor(PredictorChoice::All)
            .with_ops_per_core(200)
            .with_seed(42)
    };
    let a = run(&config());
    let b = run(&config());
    assert_eq!(a.runtime_cycles, b.runtime_cycles);
    assert_eq!(a.traffic.total_bytes(), b.traffic.total_bytes());
}

/// Root `tests/*.rs` and `examples/*.rs` are explicit `[[test]]` /
/// `[[example]]` targets of some crate; a file no manifest names compiles
/// nowhere and silently never runs.
#[test]
fn every_root_test_and_example_is_a_registered_target() {
    use std::fs;
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let manifests: String = fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|krate| fs::read_to_string(krate.unwrap().path().join("Cargo.toml")).unwrap())
        .collect();
    for dir in ["tests", "examples"] {
        for file in fs::read_dir(root.join(dir)).unwrap() {
            let name = file.unwrap().file_name().into_string().unwrap();
            assert!(
                !name.ends_with(".rs") || manifests.contains(&format!("\"../../{dir}/{name}\"")),
                "{dir}/{name} is not a [[test]]/[[example]] of any crates/*/Cargo.toml"
            );
        }
    }
}
