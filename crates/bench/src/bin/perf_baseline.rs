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
//! Usage: `perf_baseline [OPTIONS]`; `perf_baseline --help` lists them
//! (`patchsim_bench::PerfArgs`).
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
use std::time::Instant;

use patchsim::exp::{AxisValue, Runner, Sweep};
use patchsim::{FabricKind, PredictorChoice, ProtocolKind, SimConfig, WorkloadSpec};
use patchsim_bench::PerfArgs;
use patchsim_kernel::collections::FxHasher;

/// The pinned base seed; replications derive from it with `replicate_seed`.
const BASE_SEED: u64 = 0xB_0A7;

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

fn main() {
    let args = PerfArgs::parse();
    let mut base = pinned_config(args.quick, args.fabric);
    let mode = match args.replay {
        Some(trace) => {
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
    // allocations don't pollute the measurement — before recording is
    // armed, so it does not clobber the measured run's trace.
    let _ = patchsim::run(&base);

    // The pinned cell as a one-cell plan: the runner derives replication
    // `i`'s seed with `replicate_seed`, records only replication 0's
    // trace, and hands the raw runs back in replication order, identical
    // at any thread count.
    let mut cell = base.clone();
    cell.record_trace = args.record.clone();
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

    let json = format!(
        "{{\n  \"bench\": \"perf_baseline\",\n  \"mode\": \"{mode}\",\n  \
         \"config\": {{\n    \"nodes\": 16,\n    \
         \"protocol\": \"PATCH-BcastIfShared\",\n    \"fabric\": \"{}\",\n    \
         \"ops_per_core\": {},\n    \
         \"base_seed\": {},\n    \"seeds\": {},\n    \"quick\": {}\n  }},\n  \
         \"threads\": {},\n  \"total_events\": {},\n  \"wall_ms\": {:.3},\n  \
         \"events_per_sec\": {:.1},\n  \"total_ops\": {},\n  \"ops_per_sec\": {:.1},\n  \
         \"result_hash\": \"{:#018x}\"\n}}\n",
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
