//! Integration tests of the telemetry layer's core contract: observation
//! is strictly read-only (no digest drift, no thread-count sensitivity),
//! span phases partition the measured miss latency exactly, and the
//! flight recorder actually produces a parseable dump when a liveness
//! oracle trips.

use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use patchsim::exp::{AxisValue, Runner, Sweep};
use patchsim::{ProtocolKind, SimConfig, WorkloadSpec};
use patchsim_kernel::collections::FxHasher;

/// Self-cleaning scratch directory (no tempfile dependency).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("patchsim-telemetry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Fx hash of an artefact's bytes, for pinning output no golden covers.
fn fx(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

fn base_config(kind: ProtocolKind) -> SimConfig {
    SimConfig::new(kind, 8)
        .with_workload(WorkloadSpec::Microbenchmark {
            table_blocks: 128,
            write_frac: 0.4,
            think_mean: 3,
        })
        .with_ops_per_core(120)
        .with_warmup(30)
}

/// The zero-interference contract: a run with every telemetry feature on
/// must produce a `RunResult` that digests identically to the same run
/// with telemetry off — sampling, spans, the flight recorder, and
/// profiling observe the simulation without perturbing it.
#[test]
fn telemetry_never_changes_the_result_digest() {
    let tmp = TempDir::new("digest");
    for kind in [
        ProtocolKind::Directory,
        ProtocolKind::Patch,
        ProtocolKind::TokenB,
    ] {
        let off = patchsim::run(&base_config(kind));
        let on_config = base_config(kind)
            .with_metrics(tmp.path().join("metrics.jsonl"), 200)
            .with_spans()
            .with_flight_recorder(tmp.path())
            .with_profile();
        let on = patchsim::run(&on_config);
        assert_eq!(off.digest(), on.digest(), "digest drift under {kind:?}");
        assert_eq!(off.events_processed, on.events_processed);
        assert!(on.spans.is_some(), "spans requested but not recorded");
        assert!(on.profile.is_some(), "profile requested but not recorded");
        assert!(off.spans.is_none() && off.profile.is_none());
    }
    // The metrics series was actually written: a versioned header line
    // plus at least one sample row.
    let series = std::fs::read_to_string(tmp.path().join("metrics.jsonl")).expect("metrics file");
    let mut lines = series.lines();
    let header = lines.next().expect("header line");
    assert!(
        header.contains("\"format\":\"patchsim-metrics\""),
        "{header}"
    );
    assert!(header.contains("\"protocol\":"), "{header}");
    assert!(lines.next().is_some(), "no sample rows in {series}");
}

/// A two-cell plan whose first cell samples metrics to `path`.
fn metrics_plan(path: &Path) -> patchsim::exp::ExperimentPlan {
    let mut plan = Sweep::new("metrics determinism", base_config(ProtocolKind::Patch))
        .axis(
            "config",
            vec![
                AxisValue::new("PATCH", |c| c),
                AxisValue::new("Directory", |c| c.with_kind(ProtocolKind::Directory)),
                AxisValue::new("TokenB", |c| c.with_kind(ProtocolKind::TokenB)),
            ],
        )
        .build();
    plan.cells_mut()
        .first_mut()
        .unwrap()
        .config
        .telemetry
        .metrics = Some(path.to_path_buf());
    plan.cells_mut()
        .first_mut()
        .unwrap()
        .config
        .telemetry
        .metrics_every = 250;
    plan
}

/// Parallelism is across cells, never within a run, so the sampled time
/// series must be byte-identical no matter how many workers execute the
/// sweep.
#[test]
fn metrics_series_is_byte_identical_across_thread_counts() {
    let tmp = TempDir::new("threads");
    let serial_path = tmp.path().join("t1.jsonl");
    let pooled_path = tmp.path().join("t4.jsonl");
    Runner::serial().run(&metrics_plan(&serial_path));
    Runner::new()
        .with_threads(4)
        .run(&metrics_plan(&pooled_path));
    let serial = std::fs::read(&serial_path).expect("serial metrics");
    let pooled = std::fs::read(&pooled_path).expect("pooled metrics");
    assert!(!serial.is_empty());
    assert_eq!(serial, pooled, "metrics series depends on thread count");
    // Pinned by value: every row is deltas of cumulative gauges across
    // the warm-up reset, so a sampler refactor must reproduce these bytes.
    assert_eq!(fx(&serial), 0xeafe_2f18_9cc3_7034, "metrics bytes moved");
}

/// Tripping the starvation watchdog must (a) enrich the panic with run
/// context and (b) dump the flight recorder to a parseable `.fdr` file
/// whose path the panic message names.
#[test]
fn watchdog_trip_dumps_a_parseable_flight_recording() {
    let tmp = TempDir::new("fdr");
    let config = base_config(ProtocolKind::Patch)
        .with_flight_recorder(tmp.path())
        // Far below any real miss latency: the first watchdog check
        // finds a starved core and trips.
        .with_liveness_horizon(10);
    let panic = catch_unwind(AssertUnwindSafe(|| patchsim::run(&config)))
        .expect_err("watchdog should have tripped");
    let message = panic
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| panic.downcast_ref::<&str>().unwrap_or(&"").to_string());
    assert!(message.contains("liveness violation"), "{message}");
    for context in ["protocol=", "workload=", "seed="] {
        assert!(message.contains(context), "missing {context} in {message}");
    }
    let dump_path = message
        .split("flight recorder: ")
        .nth(1)
        .unwrap_or_else(|| panic!("no dump path in {message}"))
        .trim();
    assert!(dump_path.ends_with(".fdr"), "{dump_path}");
    let dump = std::fs::read_to_string(dump_path).expect("read .fdr dump");
    let mut lines = dump.lines();
    let header = lines.next().expect("dump header");
    assert!(header.contains("\"format\":\"patchsim-fdr\""), "{header}");
    assert!(
        header.contains("\"reason\":\"starvation watchdog\""),
        "{header}"
    );
    let records: Vec<&str> = lines.collect();
    assert!(!records.is_empty(), "dump has no event records");
    assert!(records.iter().all(|r| r.contains("\"cycle\":")), "{dump}");
    // Pinned by value: header, ring order and per-class node field.
    assert_eq!(
        fx(dump.as_bytes()),
        0x3795_3974_4c70_3d2a,
        "flight-recorder bytes moved"
    );
}

/// The span phases are a partition of the measured miss latency: for
/// every protocol, network + home + token-wait cycles sum to exactly the
/// end-to-end measured miss cycles, one span per measured miss.
#[test]
fn span_phases_reconcile_with_measured_miss_latency() {
    for kind in [
        ProtocolKind::Directory,
        ProtocolKind::Patch,
        ProtocolKind::TokenB,
    ] {
        let result = patchsim::run(&base_config(kind).with_spans());
        let spans = result.spans.as_ref().expect("spans recorded");
        assert_eq!(
            spans.network.count(),
            result.miss_latency.count(),
            "one span per measured miss under {kind:?}"
        );
        assert_eq!(
            spans.network.sum() + spans.home.sum() + spans.token_wait.sum(),
            result.miss_latency.sum(),
            "span phases do not partition miss latency under {kind:?}"
        );
        // Closed-loop workloads have no arrival queue to wait in.
        assert_eq!(spans.queue_wait.count(), 0);
    }
}
