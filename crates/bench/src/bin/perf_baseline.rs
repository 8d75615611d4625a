//! Simulator-throughput benchmark: a pinned mid-size configuration timed
//! end to end, reported as simulated operations (and kernel events) per
//! second.
//!
//! Every figure in the paper is an average over many full-system runs, so
//! ops/sec directly bounds how many seeds, node counts, and sweep cells
//! the experiment harness can afford. This binary runs a fixed 16-node
//! PATCH configuration over a fixed seed set and writes the measured
//! throughput (plus a determinism hash of every run's results) to a JSON
//! file, giving CI and the perf trajectory a stable number to track.
//! `ops_per_sec` is the number to compare across commits: how many kernel
//! events one operation costs is an implementation detail that engine
//! changes move on purpose, so `events_per_sec` only compares runs of one
//! engine. Compare on one machine (`scripts/ab.sh`), never against a
//! number recorded elsewhere.
//!
//! Usage: `perf_baseline [--threads N] [--seeds N] [--quick]
//! [--fabric F] [--record-trace PATH] [--replay-trace PATH] [--profile]
//! [--out PATH]`
//!
//! `--profile` turns on the simulator's per-event-class self-profiling
//! (wall time and event count per class, summed over all replications)
//! and writes the breakdown into the output JSON as a `"profile"`
//! array. Profiling never touches simulation state, so the result hash
//! is identical with or without it — which CI's perf-smoke job checks.
//!
//! `--fabric` swaps the interconnect topology (default `torus`); CI's
//! perf-smoke job runs a crossbar row alongside the torus row and checks
//! both for thread-count determinism.
//! `--record-trace` writes the first replication's access stream to a
//! `.ptrc` trace; `--replay-trace` replays one (replay skips workload
//! generation; CI's perf-smoke job asserts the two result hashes are
//! equal).
//!
//! The result hash folds each run's `RunResult` (runtime, traffic,
//! counters, miss histogram) with the deterministic Fx hasher; it must be
//! identical for any `--threads` value, which CI checks by diffing the
//! hash between `--threads 1` and `--threads 4` — and identical between
//! a recorded run and its replay, which CI also checks.

use std::hash::Hasher;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

use patchsim::exp::{AxisValue, Runner, Sweep};
use patchsim::{FabricKind, PredictorChoice, ProtocolKind, SimConfig, TraceReader, WorkloadSpec};
use patchsim_bench::{parse_fabric, parse_positive};
use patchsim_kernel::collections::FxHasher;

/// The pinned base seed; replications derive from it with `replicate_seed`.
const BASE_SEED: u64 = 0xB_0A7;

/// Default output path (git-ignored; the committed `BENCH_<pr>.json`
/// ledger is written by `scripts/ab.sh`, not by this binary).
const DEFAULT_OUT: &str = "perf_baseline.json";

/// Measured operations per core for the pinned configuration.
const fn pinned_ops(quick: bool) -> u64 {
    if quick {
        500
    } else {
        4_000
    }
}

/// The pinned benchmark configuration: 16 nodes, PATCH with the
/// broadcast-if-shared predictor (exercises multicast fan-out, the
/// predictor, and best-effort traffic), on the selected fabric
/// (paper-default torus unless `--fabric` says otherwise).
fn pinned_config(quick: bool, fabric: FabricKind) -> SimConfig {
    let ops = pinned_ops(quick);
    SimConfig::new(ProtocolKind::Patch, 16)
        .with_fabric(fabric)
        .with_predictor(PredictorChoice::BroadcastIfShared)
        .with_workload(WorkloadSpec::Microbenchmark {
            table_blocks: 4_096,
            write_frac: 0.3,
            think_mean: 10,
        })
        .with_ops_per_core(ops)
        .with_warmup(ops / 4)
        .with_seed(BASE_SEED)
}

/// Parsed flags. Not `BenchArgs`: this binary's contract differs from
/// the figure binaries' on purpose — the pinned defaults (`--seeds 3`,
/// `--threads 1`, a fixed `--out` path) define the recorded baseline,
/// and output is raw JSON rather than an emitted `Table`, so the shared
/// parser's defaults and `--format` flag do not apply. The help/exit
/// conventions (help → stdout, exit 0; malformed → message + usage,
/// exit 2) match `BenchArgs` exactly.
struct Args {
    threads: usize,
    seeds: u64,
    quick: bool,
    fabric: FabricKind,
    record: Option<PathBuf>,
    replay: Option<PathBuf>,
    profile: bool,
    out: PathBuf,
}

fn usage_text() -> String {
    format!(
        "Simulator-throughput benchmark on a pinned 16-node configuration.\n\n\
         Usage: perf_baseline [OPTIONS]\n\n\
         Options:\n  \
         --threads N    worker threads (default 1)\n  \
         --seeds N      replications of the pinned seed (default 3)\n  \
         --quick        shrink ops for a fast smoke run\n  \
         --fabric F     interconnect fabric: torus, mesh, ring, xbar, hier[:C]\n                 \
         (default torus; the recorded baseline is torus-only)\n  \
         --record-trace PATH\n                 \
         record the first replication's accesses to a .ptrc trace\n  \
         --replay-trace PATH\n                 \
         replay a recorded .ptrc trace instead of generating the\n                 \
         workload (requires --seeds 1; trace must be 16-node)\n  \
         --profile      record per-event-class wall time and event counts\n                 \
         into the output JSON (the result hash is unaffected)\n  \
         --out PATH     output JSON path (default {DEFAULT_OUT})\n  \
         -h, --help     print this help"
    )
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", usage_text());
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        threads: 1,
        seeds: 3,
        quick: false,
        fabric: FabricKind::Torus,
        record: None,
        replay: None,
        profile: false,
        out: PathBuf::from(DEFAULT_OUT),
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "-h" || a == "--help") {
        println!("{}", usage_text());
        std::process::exit(0);
    }
    let positive = |flag: &str, v: Option<&String>| {
        parse_positive(flag, v, "").unwrap_or_else(|e| usage_error(&e))
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => args.threads = positive("--threads", it.next()) as usize,
            "--seeds" => args.seeds = positive("--seeds", it.next()),
            "--quick" => args.quick = true,
            "--fabric" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--fabric requires a value"));
                args.fabric = parse_fabric(v).unwrap_or_else(|e| usage_error(&e));
            }
            "--record-trace" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--record-trace requires a value"));
                args.record = Some(PathBuf::from(v));
            }
            "--replay-trace" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--replay-trace requires a value"));
                args.replay = Some(PathBuf::from(v));
            }
            "--profile" => args.profile = true,
            "--out" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--out requires a value"));
                args.out = PathBuf::from(v);
            }
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let mut base = pinned_config(args.quick, args.fabric);
    let mode = match &args.replay {
        Some(path) => {
            if args.seeds != 1 {
                usage_error("--replay-trace requires --seeds 1 (a trace replays one recorded run)");
            }
            let trace = TraceReader::read_path(path).unwrap_or_else(|e| {
                usage_error(&format!("cannot replay trace '{}': {e}", path.display()))
            });
            if trace.num_nodes != 16 {
                usage_error(&format!(
                    "trace '{}' was recorded on {} cores but perf_baseline is pinned to 16",
                    trace.label, trace.num_nodes
                ));
            }
            // Replay under the recording seed so every derived stream
            // matches the recorded run.
            base = base
                .with_seed(trace.seed)
                .with_workload(WorkloadSpec::trace(trace));
            "replay"
        }
        None => "generate",
    };
    // One untimed warmup run so first-touch page faults and lazy
    // allocations don't pollute the measurement — before recording and
    // profiling are armed, so it neither clobbers the measured run's
    // trace nor pollutes the breakdown.
    let _ = patchsim::run(&base);

    // The pinned cell as a one-cell plan: the runner derives replication
    // `i`'s seed with `replicate_seed`, records only replication 0's
    // trace, and hands the raw runs back in replication order, identical
    // at any thread count.
    let mut cell = base.clone();
    cell.record_trace = args.record.clone();
    cell.telemetry.profile = args.profile;
    let plan = Sweep::new("perf_baseline", cell)
        .axis("config", vec![AxisValue::new("pinned", |c| c)])
        .seeds(args.seeds)
        .build();
    let wall = Instant::now();
    let table = Runner::new()
        .with_threads(args.threads)
        .with_retries(0)
        .run(&plan);
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    if let Some(failure) = table.failures().first() {
        eprintln!("error: the pinned cell failed: {}", failure.error);
        std::process::exit(1);
    }
    let results = &table.cells()[0].summary.runs;

    let total_events: u64 = results.iter().map(|r| r.events_processed).sum();
    let mut hasher = FxHasher::default();
    for r in results {
        r.fold_into(&mut hasher);
    }
    let result_hash = hasher.finish();
    let wall_s = wall_ms / 1e3;
    let events_per_sec = total_events as f64 / wall_s;
    // Simulated memory operations retired per wall second: unlike
    // events/s it stays comparable across changes to how many kernel
    // events one operation costs.
    let total_ops: u64 = results.iter().map(|r| r.ops_completed).sum();
    let ops_per_sec = total_ops as f64 / wall_s;

    // Per-event-class self-profiling breakdown, summed over all
    // replications. Profiling is observation-only, so this block's
    // presence never changes result_hash.
    let profile_fields = if args.profile {
        let mut total = patchsim::ProfileStats::default();
        for r in results {
            if let Some(p) = &r.profile {
                total.merge(p);
            }
        }
        let rows: Vec<String> = patchsim::EventClass::ALL
            .into_iter()
            .map(|class| {
                let p = total.class(class);
                format!(
                    "    {{\"class\": \"{}\", \"events\": {}, \"wall_ms\": {:.3}}}",
                    class.label(),
                    p.events,
                    p.nanos as f64 / 1e6,
                )
            })
            .collect();
        format!(",\n  \"profile\": [\n{}\n  ]", rows.join(",\n"))
    } else {
        String::new()
    };
    let json = format!(
        "{{\n  \"bench\": \"perf_baseline\",\n  \"mode\": \"{mode}\",\n  \
         \"config\": {{\n    \"nodes\": 16,\n    \
         \"protocol\": \"PATCH-BcastIfShared\",\n    \"fabric\": \"{}\",\n    \
         \"ops_per_core\": {},\n    \
         \"base_seed\": {},\n    \"seeds\": {},\n    \"quick\": {}\n  }},\n  \
         \"threads\": {},\n  \"total_events\": {},\n  \"wall_ms\": {:.3},\n  \
         \"events_per_sec\": {:.1},\n  \"total_ops\": {},\n  \"ops_per_sec\": {:.1},\n  \
         \"result_hash\": \"{:#018x}\"{}\n}}\n",
        args.fabric.label(),
        pinned_ops(args.quick),
        base.seed,
        args.seeds,
        args.quick,
        args.threads,
        total_events,
        wall_ms,
        events_per_sec,
        total_ops,
        ops_per_sec,
        result_hash,
        profile_fields,
    );

    match std::fs::File::create(&args.out).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => eprintln!("wrote {}", args.out.display()),
        Err(e) => {
            eprintln!("error writing {}: {e}", args.out.display());
            std::process::exit(1);
        }
    }
    println!(
        "perf_baseline: {total_ops} ops, {total_events} events in {wall_ms:.1} ms = \
         {ops_per_sec:.0} ops/s, {events_per_sec:.0} events/s (threads={}, hash={result_hash:#018x})",
        args.threads
    );
    if total_events == 0 {
        eprintln!("error: benchmark produced zero events");
        std::process::exit(1);
    }
}
