//! Benchmark and figure-regeneration harness for `patchsim`.
//!
//! Every table and figure of the paper's evaluation (§8) is a declarative
//! [`ExperimentPlan`](patchsim::exp::ExperimentPlan) built by a
//! constructor in this crate and executed by the parallel deterministic
//! [`Runner`](patchsim::exp::Runner). Each plan is one row of the
//! registry [`PLANS`]: its name, its constructor ([`plan_by_name`]), and
//! the title, result columns, and notes [`decorate`] declares on its
//! table. `runplan <plan>` runs any of them:
//!
//! | Paper result | Target | Plan |
//! |---|---|---|
//! | Figure 4 (runtime, 5 workloads × 6 configs) | `fig4_runtime` | [`figure4_plan`] |
//! | Figure 5 (traffic breakdown) | `runplan fig5` | [`figure4_plan`] |
//! | Figure 6 (bandwidth sweep, ocean) | `runplan fig6` | [`PLANS`] row `fig6` |
//! | Figure 7 (bandwidth sweep, jbb) | `runplan fig7` | [`PLANS`] row `fig7` |
//! | Figure 8 (4–512 core scalability) | `runplan fig8` | [`PLANS`] row `fig8` |
//! | Figure 9 (inexact-encoding runtime) | `runplan fig9` | [`PLANS`] row `fig9` |
//! | Figure 10 (inexact-encoding traffic) | `runplan fig10` | [`PLANS`] row `fig10` |
//! | Cross-fabric scalability (extension) | `runplan fabric` | [`PLANS`] row `fabric` |
//! | Fault-injection robustness (extension) | `runplan faults` | [`faults_plan`] |
//! | Service-shaped traffic (extension) | `runplan service` | [`service_plan`] |
//! | Open-loop saturation (extension) | `runplan saturation` | [`saturation_plan`] |
//! | Design-choice ablations | `runplan tenure_timeout`, `deact_window`, `stale_drop`, `ack_elision`, `limited_pointer` | [`PLANS`] |
//!
//! `runplan fig4` prints Figure 4's grid with [`with_standard_columns`];
//! the `fig4_runtime` binary prints it with the normalized runtime column.
//! Both share one strict command line, [`BenchArgs`]; `runplan --help`
//! lists its flags. `perf_baseline` ([`PerfArgs`]) and the store
//! subcommands `runplan merge-store` and `runplan store-stats`
//! ([`StoreCommand`]) read theirs with the same flag reader.
//!
//! `cargo bench` additionally runs microbenchmarks of the simulator's core
//! data structures.
//!
//! The crate is split by job: `cli` parses command lines, `plans` holds
//! [`Scale`], the constructors and the registry, and `columns` the
//! column sets a registered plan declares.

pub mod harness;

mod cli;
mod columns;
mod plans;

pub use cli::{BenchArgs, PerfArgs, StoreCommand};
pub use columns::{with_runtime_columns, with_saturation_columns, with_standard_columns};
pub use plans::{
    decorate, faults_plan, figure4_plan, plan_by_name, saturation_plan, service_plan,
    RegisteredPlan, Scale, PLANS, SERVICE_BURST,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plans::*;
    use patchsim::exp::{cell_key, ExperimentPlan, Format, Runner, Table, Value};
    use patchsim::{presets, FabricKind, FaultSpec, LinkBandwidth, SharerEncoding, WorkloadSpec};

    #[test]
    fn figure4_grid_is_five_by_six() {
        let plan = figure4_plan(Scale::quick());
        assert_eq!(plan.axis_names(), &["workload", "config"]);
        assert_eq!(plan.len(), 30);
        assert_eq!(plan.cells()[0].labels[1], "Directory");
        assert_eq!(plan.cells()[5].labels[1], "TokenB");
    }

    #[test]
    fn bandwidth_plan_matches_paper_points() {
        let plan = bandwidth_plan(Scale::quick(), presets::ocean());
        assert_eq!(plan.len(), BANDWIDTH_SWEEP.len() * 3);
        // 300 bytes/kcycle = 0.3 bytes/cycle.
        assert_eq!(
            plan.cells()[0].config.bandwidth,
            LinkBandwidth::BytesPerCycle(0.3)
        );
        assert_eq!(plan.cells()[0].labels, vec!["300", "Directory"]);
    }

    #[test]
    fn scalability_plan_resizes_tokens_with_cores() {
        let plan = scalability_plan(Scale::quick());
        for cell in plan.cells() {
            let cores: u16 = cell.labels[0].parse().unwrap();
            assert_eq!(cell.config.protocol.num_nodes, cores);
            assert_eq!(cell.config.protocol.total_tokens, cores as u32);
            let (warmup, ops) = microbench_schedule(cores);
            assert_eq!(cell.config.warmup_ops_per_core, warmup);
            assert_eq!(cell.config.ops_per_core, ops);
        }
    }

    #[test]
    fn coarseness_is_clamped_to_the_core_count() {
        let plan = inexact_traffic_plan(Scale::quick()); // 16- and 32-core systems
        assert!(plan
            .cells()
            .iter()
            .all(|cell| match cell.config.protocol.sharer_encoding {
                SharerEncoding::Coarse { cores_per_bit } =>
                    cores_per_bit <= cell.config.protocol.num_nodes,
                _ => true,
            }));
        // 16 cores keep K ∈ {1, 4, 16}; 32 cores keep {1, 4, 16}.
        let per_16: Vec<_> = plan
            .cells()
            .iter()
            .filter(|c| c.labels[0] == "16" && c.labels[1] == "PATCH")
            .map(|c| c.labels[2].clone())
            .collect();
        assert_eq!(per_16, vec!["1", "4", "16"]);
    }

    #[test]
    fn inexact_runtime_plan_sweeps_both_bandwidths() {
        let plan = inexact_runtime_plan(Scale::quick());
        assert_eq!(plan.axis_names(), &["cores", "config", "links", "K"]);
        assert!(plan.cells().iter().any(|c| c.labels[2] == "inf"));
        assert!(plan.cells().iter().any(|c| c.labels[2] == "2B/c"));
    }

    #[test]
    fn cross_fabric_plan_sweeps_every_fabric() {
        let plan = cross_fabric_plan(Scale::quick());
        assert_eq!(plan.axis_names(), &["cores", "fabric", "config"]);
        assert_eq!(plan.len(), 2 * FabricKind::ALL.len() * 3);
        for kind in FabricKind::ALL {
            let label = kind.label();
            let cell = plan
                .cells()
                .iter()
                .find(|c| c.labels[1] == label)
                .unwrap_or_else(|| panic!("no cell for fabric {label}"));
            assert_eq!(cell.config.protocol.fabric, kind);
        }
    }

    #[test]
    fn fabric_flag_threads_into_plan_bases() {
        let args = |list: &[&str]| {
            BenchArgs::try_parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        let (parsed, _) = args(&["--quick", "--fabric", "mesh"]).unwrap();
        assert_eq!(parsed.scale.fabric, FabricKind::Mesh2D);
        let plan = figure4_plan(parsed.scale.clone());
        assert!(plan
            .cells()
            .iter()
            .all(|c| c.config.protocol.fabric == FabricKind::Mesh2D));
        // Core-resizing axes preserve the fabric choice.
        let plan = scalability_plan(parsed.scale);
        assert!(plan
            .cells()
            .iter()
            .all(|c| c.config.protocol.fabric == FabricKind::Mesh2D));
        assert!(args(&["--fabric", "warp"]).is_err());
        assert!(args(&["--fabric"]).is_err());
        let (hier, _) = args(&["--fabric", "hier:4"]).unwrap();
        assert_eq!(
            hier.scale.fabric,
            FabricKind::Hierarchical { cluster: Some(4) }
        );
    }

    /// Every registered plan's result columns, in registry order.
    const PINNED_COLUMNS: [(&str, &[&str]); 16] = {
        const STANDARD: &[&str] = &[
            "runtime",
            "bytes_per_miss",
            "lat_p50",
            "lat_p95",
            "lat_p99",
            "drops",
        ];
        const TRAFFIC: &[&str] = &[
            "Data",
            "Ack",
            "Dir.Req",
            "Ind.Req",
            "Forward",
            "Reissue",
            "Activation",
            "Writeback",
            "bytes_per_miss",
            "norm_traffic",
        ];
        [
            ("fig4", STANDARD),
            ("fig5", TRAFFIC),
            ("fig6", &["runtime", "norm_runtime", "drops"]),
            ("fig7", &["runtime", "norm_runtime", "drops"]),
            ("fig8", &["runtime", "norm_runtime"]),
            ("fig9", &["runtime", "norm_runtime"]),
            ("fig10", TRAFFIC),
            ("fabric", STANDARD),
            ("faults", STANDARD),
            ("service", STANDARD),
            (
                "saturation",
                &[
                    "offered_per_kc",
                    "goodput_per_kc",
                    "drop_pct",
                    "soj_p50",
                    "soj_p95",
                    "soj_p99",
                    "lat_p95",
                    "backlog_hwm",
                ],
            ),
            (
                "tenure_timeout",
                &["runtime", "tenure_timeouts", "writebacks"],
            ),
            (
                "deact_window",
                &[
                    "runtime",
                    "tenure_timeouts",
                    "direct_ignored",
                    "bytes_per_miss",
                ],
            ),
            ("stale_drop", &["runtime", "drops", "bytes_per_miss"]),
            (
                "ack_elision",
                &["runtime", "ack_bytes_per_miss", "bytes_per_miss"],
            ),
            (
                "limited_pointer",
                &["norm_runtime", "ack_bytes_per_miss", "dir_bits_per_entry"],
            ),
        ]
    };

    /// A tiny real run of `plan`: only its smallest systems, a few
    /// operations per core, so every baseline row of a kept cell is kept.
    fn tiny_run(mut plan: ExperimentPlan) -> Table {
        let smallest = plan
            .cells()
            .iter()
            .map(|c| c.config.protocol.num_nodes)
            .min()
            .unwrap();
        plan.retain(|c| c.config.protocol.num_nodes == smallest);
        for cell in plan.cells_mut() {
            cell.config.ops_per_core = 30;
            cell.config.warmup_ops_per_core = 0;
        }
        Runner::serial().run(&plan)
    }

    #[test]
    fn every_registered_plan_builds() {
        let scale = Scale {
            cores: 4,
            ..Scale::quick()
        };
        assert_eq!(PLANS.len(), PINNED_COLUMNS.len());
        for (plan, (name, columns)) in PLANS.iter().zip(PINNED_COLUMNS) {
            assert_eq!(plan.name, name);
            assert!(!plan.about.is_empty(), "{name} has no description");
            let built = plan_by_name(name, scale.clone()).expect(name);
            assert!(!built.is_empty(), "{name} built an empty plan");
            let table = decorate(name, tiny_run(built));
            let headers: Vec<&str> = table.columns().iter().map(|c| c.name()).collect();
            assert_eq!(headers, columns, "{name}'s columns");
            for row in 0..table.cells().len() {
                for (col, column) in table.columns().iter().enumerate() {
                    let value = table.value(row, col);
                    if column.name().starts_with("norm_") {
                        assert!(
                            matches!(value, Value::Num(v) if v.is_finite()),
                            "{name} row {row} {}: {value:?}",
                            column.name()
                        );
                    }
                }
            }
            assert!(table.value(0, 0).primary() > 0.0, "{name}'s first column");
        }
        assert!(plan_by_name("nope", scale).is_none());
    }

    #[test]
    fn standard_columns_attach_to_a_real_table() {
        let mut scale = Scale::quick();
        scale.cores = 4;
        scale.ops = 40;
        scale.warmup = 0;
        let plan = ablation_deact_window_plan(scale);
        let table = with_standard_columns(Runner::serial().run(&plan));
        assert_eq!(table.columns().len(), 6);
        assert!(table.value(0, 0).primary() > 0.0);
    }

    #[test]
    fn faults_plan_arms_oracles_on_every_cell() {
        let plan = faults_plan(Scale::quick());
        assert_eq!(plan.axis_names(), &["config", "faults", "fabric"]);
        assert_eq!(plan.len(), 3 * FaultSpec::PRESETS.len() * 2);
        for cell in plan.cells() {
            assert_eq!(cell.config.check, patchsim::CheckLevel::Assert);
            assert_eq!(cell.config.liveness_horizon, Some(FAULT_LIVENESS_HORIZON));
            // The faults axis label round-trips through the parser.
            assert_eq!(
                cell.config.faults,
                FaultSpec::parse(&cell.labels[1]).unwrap()
            );
        }
        assert!(plan.cells().iter().any(|c| c.config.faults.is_none()));
        assert!(plan.cells().iter().any(|c| !c.config.faults.is_none()));
    }

    #[test]
    fn faults_flag_threads_into_plan_bases() {
        let args = |list: &[&str]| {
            BenchArgs::try_parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        let (parsed, _) = args(&["--quick", "--faults", "delay:0.02:200+dup:0.01"]).unwrap();
        assert_eq!(parsed.scale.faults.label(), "delay:0.02:200+dup:0.01");
        let plan = figure4_plan(parsed.scale.clone());
        assert!(plan
            .cells()
            .iter()
            .all(|c| c.config.faults == parsed.scale.faults));
        // Defaults stay fault-free; malformed specs are rejected.
        let (default, _) = args(&["--quick"]).unwrap();
        assert!(default.scale.faults.is_none());
        assert!(args(&["--faults"]).is_err());
        assert!(args(&["--faults", "lava"]).is_err());
        assert!(args(&["--faults", "delay:2.0:10"]).is_err());
    }

    #[test]
    fn workload_flag_threads_into_plan_bases() {
        let args = |list: &[&str]| {
            BenchArgs::try_parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        let (parsed, _) = args(&["--quick", "--workload", "svc-zipf"]).unwrap();
        assert_eq!(parsed.scale.workload.as_ref().unwrap().name(), "svc-zipf");
        // Plans without a workload axis inherit the override...
        let plan = faults_plan(parsed.scale.clone());
        assert!(plan
            .cells()
            .iter()
            .all(|c| c.config.workload.name() == "svc-zipf"));
        // ...and plans with one override it per cell.
        let plan = figure4_plan(parsed.scale);
        assert!(plan
            .cells()
            .iter()
            .all(|c| c.config.workload.name() != "svc-zipf"));
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--workload", "nonsense"]).is_err());
        assert!(args(&["--workload", "trace:/definitely/missing.ptrc"]).is_err());
        let (rec, _) = args(&["--record-trace", "t.ptrc"]).unwrap();
        assert_eq!(rec.record.as_deref(), Some(std::path::Path::new("t.ptrc")));
        assert!(args(&["--record-trace"]).is_err());
    }

    #[test]
    fn open_workload_flag_parses_and_rejects() {
        let args = |list: &[&str]| {
            BenchArgs::try_parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        let (parsed, _) = args(&["--quick", "--workload", "open:poisson:80,cap=32"]).unwrap();
        let workload = parsed.scale.workload.as_ref().unwrap();
        assert_eq!(workload.name(), "open:poisson:80,cap=32");
        assert!(matches!(workload, WorkloadSpec::OpenLoop(_)));
        assert!(args(&["--workload", "open:poisson:0"]).is_err());
        assert!(args(&["--workload", "open:warp:5"]).is_err());
        assert!(args(&["--workload", "open:poisson:80,cap=0"]).is_err());
    }

    #[test]
    fn saturation_plan_sweeps_load_and_fabric() {
        let plan = saturation_plan(Scale::quick());
        assert_eq!(plan.axis_names(), &["load", "config", "fabric"]);
        assert_eq!(plan.len(), SATURATION_PERIODS.len() * 3 * 2);
        for cell in plan.cells() {
            let WorkloadSpec::OpenLoop(profile) = &cell.config.workload else {
                panic!("saturation cell {:?} is not open-loop", cell.labels);
            };
            let period: u64 = cell.labels[0].parse().unwrap();
            assert_eq!(profile.process.period(), period);
        }
    }

    #[test]
    fn shards_partition_a_plan_exactly() {
        let args = |list: &[&str]| {
            BenchArgs::try_parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        // Malformed shard specs are rejected outright.
        assert!(args(&["--shard"]).is_err());
        assert!(args(&["--shard", "3"]).is_err());
        assert!(args(&["--shard", "0/4"]).is_err());
        assert!(args(&["--shard", "5/4"]).is_err());
        assert!(args(&["--shard", "1/0"]).is_err());
        assert!(args(&["--shard", "a/b"]).is_err());

        // Every cell of the full plan lands in exactly one of N shards.
        let scale = Scale::quick();
        let full: Vec<u64> = figure4_plan(scale.clone())
            .cells()
            .iter()
            .map(|c| cell_key(&c.config))
            .collect();
        let n = 3;
        let mut sharded = Vec::new();
        for k in 1..=n {
            let (parsed, _) = args(&["--quick", "--shard", &format!("{k}/{n}")]).unwrap();
            assert_eq!(parsed.shard, Some((k, n)));
            let mut plan = figure4_plan(scale.clone());
            plan.retain(|cell| cell_key(&cell.config) % n == k - 1);
            sharded.extend(plan.cells().iter().map(|c| cell_key(&c.config)));
        }
        let mut full_sorted = full.clone();
        full_sorted.sort_unstable();
        sharded.sort_unstable();
        assert_eq!(sharded, full_sorted);
    }

    #[test]
    fn strict_parser_rejects_malformed_input() {
        let args = |list: &[&str]| {
            BenchArgs::try_parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        assert!(args(&["--seeds"]).is_err());
        assert!(args(&["--seeds", "zero"]).is_err());
        assert!(args(&["--seeds", "0"]).is_err());
        assert!(args(&["--threads", "-3"]).is_err());
        assert!(args(&["--format", "yaml"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        assert!(args(&["a", "b"]).is_err());

        let (ok, positional) = args(&[
            "--quick",
            "--seeds",
            "3",
            "--threads",
            "2",
            "--format",
            "csv",
            "--out",
            "x.csv",
            "fig4",
        ])
        .unwrap();
        assert_eq!(ok.scale.cores, Scale::quick().cores);
        assert_eq!(ok.scale.seeds, 3);
        assert_eq!(ok.threads, Some(2));
        assert_eq!(ok.format, Format::Csv);
        assert_eq!(ok.out.as_deref(), Some(std::path::Path::new("x.csv")));
        assert_eq!(positional.as_deref(), Some("fig4"));
    }

    #[test]
    fn telemetry_flags_parse_and_arm_the_plan() {
        let args = |list: &[&str]| {
            BenchArgs::try_parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        let (parsed, _) = args(&[
            "--quick",
            "--metrics",
            "m.jsonl",
            "--metrics-every",
            "500",
            "--spans",
            "--flight-recorder",
            "fdr",
            "--progress",
        ])
        .unwrap();
        assert_eq!(
            parsed.metrics.as_deref(),
            Some(std::path::Path::new("m.jsonl"))
        );
        assert_eq!(parsed.metrics_every, Some(500));
        assert!(parsed.spans && parsed.progress);
        let plan = parsed.run_plan_armed(figure4_plan(parsed.scale.clone()));
        // Metrics arm only the first cell; spans and the recorder arm all.
        let first = &plan.cells()[0].config.telemetry;
        assert_eq!(
            first.metrics.as_deref(),
            Some(std::path::Path::new("m.jsonl"))
        );
        assert_eq!(first.metrics_every, 500);
        assert!(plan.cells().iter().all(|c| c.config.telemetry.spans));
        assert!(plan
            .cells()
            .iter()
            .all(|c| c.config.telemetry.flight_recorder.is_some()));
        assert!(plan
            .cells()
            .iter()
            .skip(1)
            .all(|c| c.config.telemetry.metrics.is_none()));
        // Malformed telemetry flags are rejected.
        assert!(args(&["--metrics"]).is_err());
        assert!(args(&["--metrics-every", "100"]).is_err()); // needs --metrics
        assert!(args(&["--metrics", "m", "--metrics-every", "0"]).is_err());
        assert!(args(&["--flight-recorder"]).is_err());
        // Defaults leave telemetry off entirely.
        let (off, _) = args(&["--quick"]).unwrap();
        assert!(off.metrics.is_none() && !off.spans && !off.progress);
        let plan = off.run_plan_armed(figure4_plan(off.scale.clone()));
        assert!(plan.cells().iter().all(|c| !c.config.telemetry.any()));
    }

    #[test]
    fn spans_columns_follow_the_plan_columns() {
        let run = |flags: &[&str]| {
            let raw: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
            let (mut args, _) = BenchArgs::try_parse(&raw).unwrap();
            args.scale.cores = 4;
            args.scale.ops = 40;
            args.scale.warmup = 0;
            let plan = plan_by_name("deact_window", args.scale.clone()).unwrap();
            args.run_plan(plan, |table| decorate("deact_window", table))
        };
        let headers = |table: &Table| -> Vec<String> {
            table
                .columns()
                .iter()
                .map(|c| c.name().to_string())
                .collect()
        };
        let plain = run(&["--threads", "1"]);
        let spans = run(&["--threads", "1", "--spans"]);
        let mut expected = headers(&plain);
        expected.extend(["span_queue", "span_net", "span_home", "span_token"].map(String::from));
        assert_eq!(headers(&spans), expected);
        let net = expected.iter().position(|c| c == "span_net").unwrap();
        assert!(spans.value(0, net).primary() > 0.0);
    }

    #[test]
    fn only_a_sharded_run_emits_a_cell_free_table() {
        let path = std::env::temp_dir().join(format!("patchsim_empty_{}.csv", std::process::id()));
        let out = path.to_str().unwrap();
        let args = |flags: &[&str]| {
            let raw: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
            BenchArgs::try_parse(&raw).unwrap().0
        };
        let empty = with_standard_columns(Table::new("t", vec!["config".into()], Vec::new()));
        assert!(args(&["--format", "csv", "--out", out])
            .emit(&empty)
            .is_err());
        args(&["--format", "csv", "--out", out, "--shard", "3/4"])
            .emit(&empty)
            .unwrap();
        let csv = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            csv,
            "config,runtime,runtime_ci95,bytes_per_miss,bytes_per_miss_ci95,lat_p50,lat_p95,\
             lat_p99,drops\n"
        );
    }

    #[test]
    fn count_flags_share_one_check_and_its_messages() {
        let err = |list: &[&str]| {
            BenchArgs::try_parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
                .unwrap_err()
        };
        assert_eq!(err(&["--seeds"]), "--seeds requires a value");
        assert_eq!(err(&["--threads", "-3"]), "invalid --threads value '-3'");
        assert_eq!(err(&["--seeds", "0"]), "--seeds must be at least 1");
        assert_eq!(err(&["--threads", "0"]), "--threads must be at least 1");
        assert_eq!(
            err(&["--metrics", "m", "--metrics-every", "0"]),
            "--metrics-every must be at least 1 cycle"
        );
        assert_eq!(
            err(&["--cell-timeout", "0"]),
            "--cell-timeout must be at least 1 second"
        );
        assert_eq!(
            err(&["--fabric", "warp"]),
            "invalid --fabric 'warp' (expected torus, mesh, ring, xbar, or hier[:C])"
        );
    }
}
