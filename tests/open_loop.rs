//! Integration tests for the open-loop arrival subsystem and the
//! `saturation` plan: sweep-level byte-identity across worker-thread
//! counts, the arrivals = completions + drops + in-flight conservation
//! identity, the closed-vs-open divergence under overload that
//! motivates the subsystem, deterministic composition with `--faults`,
//! the `block` overload policy, and the `--shard` / `store-stats`
//! command-line surface with the exits the figure binaries share.

use std::hash::Hasher;
use std::process::Command;

use patchsim::exp::{Format, Runner};
use patchsim::{run, ArrivalProfile, FaultSpec, ProtocolKind, SimConfig, WorkloadSpec};
use patchsim_bench::{saturation_plan, with_saturation_columns, Scale};
use patchsim_kernel::collections::FxHasher;

/// A debug-build-friendly scale for plan-level tests.
fn tiny() -> Scale {
    let mut scale = Scale::quick();
    scale.cores = 8;
    scale.ops = 40;
    scale.warmup = 20;
    scale
}

fn csv(table: &patchsim::exp::Table) -> String {
    let mut out = Vec::new();
    table.emit(Format::Csv, &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

fn open_config(spec: &str) -> SimConfig {
    SimConfig::new(ProtocolKind::Patch, 8)
        .with_workload(WorkloadSpec::OpenLoop(
            ArrivalProfile::parse(spec).expect("valid arrival spec"),
        ))
        .with_ops_per_core(60)
        .with_seed(7)
}

/// The determinism contract extends to open-loop arrivals: a serial run
/// and a 4-worker run of the whole saturation plan emit byte-identical
/// tables. Arrival gaps come from a dedicated per-core RNG stream and
/// all arrival events flow through the one event queue, so results are
/// a pure function of the cell, not of scheduling.
#[test]
fn saturation_plan_is_bit_identical_across_thread_counts() {
    let plan = saturation_plan(tiny());
    let serial = with_saturation_columns(Runner::serial().run(&plan));
    let parallel = with_saturation_columns(Runner::new().with_threads(4).run(&plan));
    assert_eq!(
        csv(&serial),
        csv(&parallel),
        "open-loop arrivals must be a pure function of the cell, not of scheduling"
    );
}

/// No arrival is lost or double-counted: every drawn arrival either
/// completes, is dropped, or (never, for a finished run) remains in
/// flight. With zero warmup every arrival and completion is measured,
/// so the identity is exact against the run's own counters.
#[test]
fn drop_accounting_conserves_arrivals() {
    // A hopelessly overloaded core (arrivals every cycle, tiny backlog)
    // and a comfortable one both conserve.
    for spec in ["fixed:1,cap=2", "poisson:100"] {
        let result = run(&open_config(spec).with_warmup(0));
        let ol = result.open_loop.as_ref().expect("open-loop stats");
        assert_eq!(
            ol.arrivals,
            result.ops_completed + ol.drops + ol.in_flight_at_horizon,
            "conservation violated for '{spec}'"
        );
        assert_eq!(
            ol.in_flight_at_horizon, 0,
            "a finished run has drained everything"
        );
        assert_eq!(ol.arrivals, 8 * 60, "every core draws its full quota");
    }
}

/// The divergence the subsystem exists to expose: past the knee, the
/// open-loop arrival→completion sojourn keeps growing while the
/// closed-loop issue→completion miss latency stays flat — a closed loop
/// self-throttles and cannot show saturation.
#[test]
fn open_loop_sojourn_diverges_from_closed_loop_latency_under_overload() {
    let light = run(&open_config("poisson:400"));
    // The cap must sit below the per-core arrival quota (60) or a
    // bounded test run can absorb its whole arrival stream without
    // overflowing — but deep enough that queueing delay, not the cap,
    // dominates the sojourn.
    let heavy = run(&open_config("poisson:4,cap=32"));
    let soj_p95 = |r: &patchsim::RunResult| {
        r.open_loop
            .as_ref()
            .expect("open-loop run")
            .sojourn
            .percentile(0.95)
    };
    // Sojourn explodes under overload...
    assert!(
        soj_p95(&heavy) >= 5 * soj_p95(&light).max(1),
        "overloaded sojourn p95 {} not >= 5x light {}",
        soj_p95(&heavy),
        soj_p95(&light)
    );
    assert!(
        heavy.open_loop.as_ref().unwrap().drops > 0,
        "overload must shed load"
    );
    // ...while the per-operation service latency stays the same order:
    // the backlog delays service *start*, not the coherence protocol.
    let lat_heavy = heavy.miss_latency.percentile(0.95);
    let lat_light = light.miss_latency.percentile(0.95).max(1);
    assert!(
        lat_heavy <= 4 * lat_light,
        "closed-loop-style miss latency should stay flat: {lat_heavy} vs {lat_light}"
    );
}

/// Open-loop workloads compose with the deterministic fault layer: a
/// storm preset degrades service, which (at a load near the knee) shows
/// up as strictly more drops — and identically so on every run.
#[test]
fn faults_compose_deterministically_with_open_arrivals() {
    let base = open_config("poisson:28,cap=16");
    let stormy = base
        .clone()
        .with_faults(FaultSpec::parse("storm").expect("shipped preset"));
    let clean = run(&base);
    let storm_a = run(&stormy);
    let storm_b = run(&stormy);
    assert_eq!(
        storm_a.digest(),
        storm_b.digest(),
        "faulted open-loop runs are deterministic"
    );
    let drops = |r: &patchsim::RunResult| r.open_loop.as_ref().unwrap().drops;
    assert!(
        drops(&storm_a) > drops(&clean),
        "storm faults slow service, so a near-knee load must drop more \
         (storm {} vs clean {})",
        drops(&storm_a),
        drops(&clean)
    );
}

/// The `block` overload policy never drops: a full backlog stalls the
/// arrival process instead, and the stall shows up as blocked cycles.
#[test]
fn block_policy_stalls_instead_of_dropping() {
    let result = run(&open_config("fixed:1,cap=2,policy=block").with_warmup(0));
    let ol = result.open_loop.as_ref().expect("open-loop stats");
    assert_eq!(ol.drops, 0, "block policy must not drop");
    assert!(
        ol.blocked_cycles > 0,
        "overload must register as stall time"
    );
    assert_eq!(ol.arrivals, result.ops_completed, "everything completes");
    // The backlog never exceeds its cap.
    assert!(ol.backlog_hwm <= 2, "hwm {} breaks cap=2", ol.backlog_hwm);
}

/// Pins one overloaded run per overload policy — warm-up on, a backlog
/// that fills — by result digest, with the epoch sampler and spans armed
/// so the per-core `backlog` column and the arrival→issue `queue_wait`
/// phase are pinned too. No golden CSV reaches these paths with warm-up;
/// a refactor of the arrival process must leave every value unedited.
#[test]
fn overload_policies_pin_their_digests() {
    let dir = std::env::temp_dir();
    for (spec, digest, metrics_hash, queue_wait) in [
        (
            "poisson:4,cap=8",
            0x95a3_a5e9_189d_8b64_u64,
            0x5e1f_c1da_4e28_0fc0_u64,
            55_471_u64,
        ),
        (
            "poisson:4,cap=8,policy=block",
            0x8715_970e_15c5_3f11,
            0x49c2_37e3_deb0_b2b2,
            534_682,
        ),
    ] {
        let metrics = dir.join(format!("patchsim_open_pin_{}.jsonl", std::process::id()));
        let config = open_config(spec).with_warmup(20);
        let plain = run(&config);
        let observed = run(&config.clone().with_metrics(&metrics, 100).with_spans());
        let bytes = std::fs::read(&metrics).expect("metrics written");
        std::fs::remove_file(&metrics).ok();
        let ol = plain.open_loop.as_ref().expect("open-loop stats");
        assert_eq!(ol.backlog_hwm, 8, "'{spec}' must fill its backlog");
        assert!(
            ol.drops + ol.blocked_cycles > 0,
            "'{spec}' must shed or stall"
        );
        let mut h = FxHasher::default();
        h.write(&bytes);
        let spans = observed.spans.as_ref().expect("spans recorded");
        assert_eq!(
            observed.digest(),
            plain.digest(),
            "telemetry moved '{spec}'"
        );
        assert_eq!(plain.digest(), digest, "digest moved for '{spec}'");
        assert_eq!(h.finish(), metrics_hash, "metrics bytes moved for '{spec}'");
        assert_eq!(spans.queue_wait.sum(), queue_wait, "queue_wait moved");
    }
}

/// `--shard K/N` with a malformed spec is a usage error: exit status 2
/// with the usage text, before anything runs.
#[test]
fn runplan_rejects_malformed_shards() {
    for bad in ["0/4", "5/4", "1/0", "2"] {
        let output = Command::new(env!("CARGO_BIN_EXE_runplan"))
            .args(["fig4", "--quick", "--shard", bad])
            .output()
            .expect("runplan executes");
        assert_eq!(output.status.code(), Some(2), "--shard {bad} must exit 2");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("--shard"),
            "stderr names the flag: {stderr}"
        );
    }
}

/// `fig4_runtime` and `perf_baseline` share `runplan`'s exits: `--help`
/// prints usage to stdout and exits 0; an unknown flag, or an `--out` in
/// a directory that does not exist, exits 2 before anything runs.
#[test]
fn figure_binaries_exit_on_help_and_bad_flags() {
    let missing = std::env::temp_dir()
        .join(format!("patchsim_missing_{}", std::process::id()))
        .join("out");
    let missing = missing.to_str().unwrap();
    for bin in [
        env!("CARGO_BIN_EXE_fig4_runtime"),
        env!("CARGO_BIN_EXE_perf_baseline"),
    ] {
        let run = |args: &[&str]| Command::new(bin).args(args).output().expect("binary runs");
        let help = run(&["--help"]);
        assert_eq!(help.status.code(), Some(0), "{bin} --help");
        assert!(String::from_utf8_lossy(&help.stdout).contains("Usage: "));
        for (args, named) in [
            (&["--frobnicate"][..], "--frobnicate"),
            (&["--quick", "--out", missing], missing),
        ] {
            let output = run(args);
            assert_eq!(output.status.code(), Some(2), "{bin} {args:?}");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(stderr.contains(named), "{bin} {args:?}: {stderr}");
        }
    }
}

/// `runplan store-stats` inventories a store written by a sharded run
/// and exits 0; a missing directory is a usage error.
#[test]
fn runplan_store_stats_reads_a_sharded_store() {
    let dir = std::env::temp_dir().join(format!("patchsim_shard_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Run one shard of the faults plan into a store. At 2 shards, the
    // key partition leaves a non-empty shard 1 (checked below via the
    // store's own entry count).
    let run_out = Command::new(env!("CARGO_BIN_EXE_runplan"))
        .args([
            "faults",
            "--quick",
            "--shard",
            "1/2",
            "--store",
            dir.to_str().unwrap(),
            "--format",
            "csv",
        ])
        .output()
        .expect("runplan executes");
    assert!(
        run_out.status.success(),
        "sharded run failed: {}",
        String::from_utf8_lossy(&run_out.stderr)
    );

    let stats = Command::new(env!("CARGO_BIN_EXE_runplan"))
        .args(["store-stats", dir.to_str().unwrap()])
        .output()
        .expect("runplan executes");
    assert_eq!(stats.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&stats.stdout);
    assert!(
        stdout.contains("code v") && stdout.contains("entries"),
        "stats output: {stdout}"
    );
    assert!(stdout.contains("quarantined: 0"), "stats output: {stdout}");

    // Pruning a store with no stale entries removes nothing.
    let prune = Command::new(env!("CARGO_BIN_EXE_runplan"))
        .args(["store-stats", dir.to_str().unwrap(), "--prune-stale"])
        .output()
        .expect("runplan executes");
    assert_eq!(prune.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&prune.stdout).contains("pruned: 0 stale entries"));
    let _ = std::fs::remove_dir_all(&dir);

    let missing = Command::new(env!("CARGO_BIN_EXE_runplan"))
        .args(["store-stats", "/definitely/not/a/store"])
        .output()
        .expect("runplan executes");
    assert_eq!(missing.status.code(), Some(2));
}
