//! Benchmark and figure-regeneration harness for `patchsim`.
//!
//! Every table and figure of the paper's evaluation (§8) is a declarative
//! [`ExperimentPlan`] built by a constructor in this crate and executed by
//! the parallel deterministic [`Runner`] — the
//! binaries under `src/bin/` only pick a plan, declare result columns,
//! and emit:
//!
//! | Paper result | Target | Plan |
//! |---|---|---|
//! | Figure 4 (runtime, 5 workloads × 6 configs) | `fig4_runtime` | [`figure4_plan`] |
//! | Figure 5 (traffic breakdown) | `fig5_traffic` | [`figure4_plan`] |
//! | Figure 6 (bandwidth sweep, ocean) | `fig6_bandwidth_ocean` | [`bandwidth_plan`] |
//! | Figure 7 (bandwidth sweep, jbb) | `fig7_bandwidth_jbb` | [`bandwidth_plan`] |
//! | Figure 8 (4–512 core scalability) | `fig8_scalability` | [`scalability_plan`] |
//! | Figure 9 (inexact-encoding runtime) | `fig9_inexact_runtime` | [`inexact_runtime_plan`] |
//! | Figure 10 (inexact-encoding traffic) | `fig10_inexact_traffic` | [`inexact_traffic_plan`] |
//! | Cross-fabric scalability (extension) | `runplan fabric` | [`cross_fabric_plan`] |
//! | Fault-injection robustness (extension) | `runplan faults` | [`faults_plan`] |
//! | Service-shaped traffic (extension) | `runplan service` | [`service_plan`] |
//! | Open-loop saturation (extension) | `runplan saturation` | [`saturation_plan`] |
//! | Design-choice ablations | `ablation_*` | [`ablation_tenure_timeout_plan`], ... |
//! | Any of the above by name | `runplan <plan>` | [`plan_by_name`] |
//!
//! All binaries share one hardened command line ([`BenchArgs`]):
//! `--quick` (shrink cores/ops for a fast smoke run), `--seeds N`
//! (perturbed replications for confidence intervals), `--threads N`
//! (worker pool size; results are bit-identical at any thread count),
//! `--fabric {torus,mesh,ring,xbar,hier[:C]}` (interconnect topology for
//! any plan; plans with their own fabric axis override it),
//! `--faults SPEC` (deterministic interconnect fault mix — a preset like
//! `chaos` or `+`-joined clauses like `delay:0.02:200+dup:0.01`; the
//! `faults` plan's own axis overrides it),
//! `--workload {preset,trace:PATH}` (base-workload override: a preset
//! name like `oltp` or `svc-zipf`, or a recorded `.ptrc` trace to
//! replay; plans with a workload axis override it),
//! `--record-trace PATH` (record the plan's first cell to a `.ptrc`
//! trace), `--metrics PATH` and `--metrics-every CYCLES` (sample the
//! plan's first cell into an epoch-metrics JSONL time series),
//! `--spans` (record per-phase miss-lifecycle spans and append span
//! columns), `--flight-recorder DIR` (arm a bounded event ring on every
//! run, dumped to a `.fdr` file on safety/liveness failures),
//! `--progress` (a throttled stderr heartbeat while the sweep runs),
//! `--store DIR` (persist/resume results through a
//! content-addressed store — a killed sweep rerun with the same store
//! recomputes only what is missing and produces a byte-identical table),
//! `--cell-timeout SECS` and `--retries N` (cell-level fault isolation:
//! panicking or overrunning cells are retried, then reported failed
//! without aborting the sweep), `--format {text,csv,json}`, and
//! `--out PATH`. Unknown flags and malformed values print usage and exit
//! non-zero; completed-but-incomplete sweeps (failed cells) exit 3
//! (2 when a trace write failed). `--shard K/N` deterministically
//! partitions any plan's cells across N machines; `runplan merge-store
//! A B -o C` merges two stores with conflict detection, and `runplan
//! store-stats DIR [--prune-stale]` inventories (and garbage-collects)
//! a store.
//!
//! `cargo bench` additionally runs scaled-down versions of every figure
//! plus microbenchmarks of the simulator's core data structures.

pub mod harness;

use std::io::{self, Write};
use std::path::PathBuf;
use std::time::Duration;

use patchsim::exp::{
    cell_key, AxisValue, Cell, ExperimentPlan, FailureKind, Format, ResultStore, Runner, Sweep,
    Table,
};
use patchsim::{
    presets, service_presets, ArrivalProfile, FabricKind, FaultSpec, LinkBandwidth,
    PredictorChoice, ProtocolKind, SharerEncoding, SimConfig, TenureConfig, TraceReader,
    TrafficClass, WorkloadSpec,
};

/// Experiment scale knobs shared by all figure targets.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Cores for the workload figures (the paper uses 64).
    pub cores: u16,
    /// Measured operations per core.
    pub ops: u64,
    /// Warmup operations per core.
    pub warmup: u64,
    /// Perturbed replications per data point.
    pub seeds: u64,
    /// Interconnect fabric every plan's base configuration uses
    /// (`--fabric`; plans with their own fabric axis override it).
    pub fabric: FabricKind,
    /// Interconnect fault mix every plan's base configuration uses
    /// (`--faults`; the `faults` plan's own axis overrides it).
    pub faults: FaultSpec,
    /// Workload override every plan's base configuration uses
    /// (`--workload`; plans with their own workload axis override it).
    /// A replayed trace additionally pins the base seed to the trace's
    /// recording seed, so the fault schedule replays too.
    pub workload: Option<WorkloadSpec>,
}

impl Scale {
    /// Paper-comparable scale (64 cores).
    pub fn full() -> Self {
        Scale {
            cores: 64,
            ops: 800,
            warmup: 1500,
            seeds: 1,
            fabric: FabricKind::Torus,
            faults: FaultSpec::none(),
            workload: None,
        }
    }

    /// A fast smoke-run scale.
    pub fn quick() -> Self {
        Scale {
            cores: 16,
            ops: 300,
            warmup: 1200,
            seeds: 1,
            fabric: FabricKind::Torus,
            faults: FaultSpec::none(),
            workload: None,
        }
    }

    /// The base configuration every plan starts from: `kind` at this
    /// scale's core count on this scale's fabric, fault mix, and
    /// workload override (when set).
    fn base(&self, kind: ProtocolKind, cores: u16) -> SimConfig {
        let mut config = SimConfig::new(kind, cores)
            .with_fabric(self.fabric)
            .with_faults(self.faults);
        if let Some(workload) = &self.workload {
            if let WorkloadSpec::Trace(trace) = workload {
                // Replay under the recording run's seed so every derived
                // stream (fault schedule included) replays bit-for-bit.
                config = config.with_seed(trace.seed);
            }
            config = config.with_workload(workload.clone());
        }
        config
    }
}

/// The shared figure-binary command line.
///
/// Parsing is strict: unknown flags, missing values, zero counts, and
/// unparseable numbers all print usage and exit with status 2 instead of
/// silently falling back to defaults.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Experiment scale (`--quick`, `--seeds N`).
    pub scale: Scale,
    /// Worker-thread override (`--threads N`); `None` uses all hardware
    /// threads.
    pub threads: Option<usize>,
    /// Output format (`--format {text,csv,json}`).
    pub format: Format,
    /// Output path (`--out PATH`); `None` writes to stdout.
    pub out: Option<PathBuf>,
    /// Trace-recording path (`--record-trace PATH`); when set,
    /// [`BenchArgs::run_plan`] records the plan's first cell (replication
    /// 0) to a `.ptrc` trace at this path.
    pub record: Option<PathBuf>,
    /// Epoch-metrics path (`--metrics PATH`); when set,
    /// [`BenchArgs::run_plan`] samples the plan's first cell
    /// (replication 0) into a JSONL time series at this path.
    pub metrics: Option<PathBuf>,
    /// Epoch length in cycles for `--metrics` sampling
    /// (`--metrics-every CYCLES`); `None` uses the default epoch.
    pub metrics_every: Option<u64>,
    /// Span recording (`--spans`): every run records per-phase
    /// miss-lifecycle spans and the emitted table gains span columns
    /// (see [`with_span_columns`]).
    pub spans: bool,
    /// Flight-recorder directory (`--flight-recorder DIR`): every run
    /// keeps a bounded ring of recent events and dumps it to a `.fdr`
    /// file under DIR when a safety or liveness oracle trips.
    pub flight_recorder: Option<PathBuf>,
    /// Progress heartbeat (`--progress`): print a throttled
    /// `patchsim: progress ...` line to stderr as cells finish.
    pub progress: bool,
    /// Result-store directory (`--store DIR`); when set, completed runs
    /// persist there and prior runs are loaded instead of recomputed, so
    /// an interrupted sweep resumes where it died (see `docs/resume.md`).
    pub store: Option<PathBuf>,
    /// Per-run wall-clock budget (`--cell-timeout SECS`); runs exceeding
    /// it fail their cell without aborting the sweep.
    pub cell_timeout: Option<Duration>,
    /// Retry budget for failed runs (`--retries N`); `None` uses the
    /// runner default (one retry).
    pub retries: Option<u32>,
    /// Sweep shard (`--shard K/N`, 1-based): run only the cells whose
    /// store key hashes to shard `K` of `N`. Shards partition any plan
    /// deterministically, so N machines can each run one shard into its
    /// own `--store` and `runplan merge-store` reassembles the sweep.
    pub shard: Option<(u64, u64)>,
}

/// The option block shared by every binary's usage text.
const OPTIONS_HELP: &str = "Options:
  --quick        shrink cores/ops for a fast smoke run
  --seeds N      perturbed replications per cell (default 1)
  --threads N    worker threads (default: all hardware threads)
  --fabric F     interconnect fabric: torus, mesh, ring, xbar, hier[:C]
                 (default torus; plans with a fabric axis override it)
  --faults SPEC  interconnect fault mix: none, a preset (jitter, reorder,
                 dup, slowlinks, slownodes, storm, chaos), or '+'-joined
                 clauses like delay:0.02:200+dup:0.01 (default none;
                 the faults plan's own axis overrides it)
  --workload W   workload override: a preset name (microbench, oltp,
                 apache, jbb, barnes, ocean, svc-uniform, svc-zipf,
                 svc-hot), trace:PATH to replay a recorded .ptrc trace,
                 or an open-loop arrival spec open:PROCESS[,OPT=V...] —
                 PROCESS is fixed:P, poisson:P, or burst:P:BP:BL:BD and
                 options are cap=N, policy={drop,block}, keys=N,
                 write=F, theta=F (see docs/workloads.md; plans with a
                 workload axis override it; a trace must match the
                 scale's core count and pins the base seed)
  --record-trace PATH
                 record the plan's first cell (replication 0) to a .ptrc
                 trace at PATH as it finishes
  --metrics PATH sample the plan's first cell (replication 0) into an
                 epoch-metrics JSONL time series at PATH (link
                 utilization, queue depths, table occupancy, protocol
                 activity; see docs/observability.md)
  --metrics-every CYCLES
                 epoch length for --metrics sampling (default 10000)
  --spans        record per-phase miss-lifecycle spans (issue, network,
                 home/ordering, token wait) on every run and append
                 span-mean columns to the table
  --flight-recorder DIR
                 keep a bounded ring of recent events on every run and
                 dump it to a .fdr file under DIR when a safety or
                 liveness oracle trips
  --progress     print a throttled progress heartbeat to stderr as the
                 sweep's cells finish
  --store DIR    persist each run's result in a content-addressed store
                 at DIR and resume from it: prior results load instead
                 of recomputing, so a killed sweep picks up where it
                 died (corrupt entries are quarantined and recomputed)
  --cell-timeout SECS
                 wall-clock budget per simulation run; runs exceeding it
                 fail their cell without aborting the sweep
  --retries N    retry failed runs N times before reporting the cell
                 failed (default 1; 0 disables retries)
  --shard K/N    run only shard K of N (1-based): cells are partitioned
                 deterministically by store key, so N machines each
                 running one shard into its own --store cover the whole
                 sweep, reassembled with 'runplan merge-store'
  --format FMT   output format: text, csv, json (default text)
  --out PATH     write the table to PATH instead of stdout
  -h, --help     print this help";

impl BenchArgs {
    /// Parses the process arguments, or prints usage and exits — with
    /// status 0 for `--help`, status 2 for anything malformed.
    pub fn parse(bin: &str, about: &str) -> Self {
        let (args, positional) = Self::parse_or_exit(bin, about, None);
        if let Some(p) = positional {
            usage_error(bin, about, None, &format!("unexpected argument '{p}'"));
        }
        args
    }

    /// Like [`BenchArgs::parse`] but accepts one positional argument
    /// (used by `runplan` for the plan name), described as `<positional>`
    /// in the usage text.
    pub fn parse_with_positional(
        bin: &str,
        about: &str,
        positional: &str,
    ) -> (Self, Option<String>) {
        Self::parse_or_exit(bin, about, Some(positional))
    }

    fn parse_or_exit(bin: &str, about: &str, positional: Option<&str>) -> (Self, Option<String>) {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        if raw.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", usage(bin, about, positional));
            std::process::exit(0);
        }
        match Self::try_parse(&raw) {
            Ok(parsed) => parsed,
            Err(msg) => usage_error(bin, about, positional, &msg),
        }
    }

    /// Parses an argument list. Returns the parsed flags plus at most one
    /// positional argument.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first unknown flag, missing or
    /// malformed value, or surplus positional argument.
    pub fn try_parse(raw: &[String]) -> Result<(Self, Option<String>), String> {
        let mut quick = false;
        let mut seeds: Option<u64> = None;
        let mut threads: Option<usize> = None;
        let mut fabric: Option<FabricKind> = None;
        let mut faults: Option<FaultSpec> = None;
        let mut workload: Option<WorkloadSpec> = None;
        let mut format = Format::Text;
        let mut out: Option<PathBuf> = None;
        let mut record: Option<PathBuf> = None;
        let mut metrics: Option<PathBuf> = None;
        let mut metrics_every: Option<u64> = None;
        let mut spans = false;
        let mut flight_recorder: Option<PathBuf> = None;
        let mut progress = false;
        let mut store: Option<PathBuf> = None;
        let mut cell_timeout: Option<Duration> = None;
        let mut retries: Option<u32> = None;
        let mut shard: Option<(u64, u64)> = None;
        let mut positional: Option<String> = None;
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => quick = true,
                "--fabric" => {
                    let v = it.next().ok_or("--fabric requires a value")?;
                    fabric = Some(FabricKind::parse(v).ok_or_else(|| {
                        format!("invalid --fabric '{v}' (expected torus, mesh, ring, xbar, or hier[:C])")
                    })?);
                }
                "--faults" => {
                    let v = it.next().ok_or("--faults requires a value")?;
                    faults = Some(FaultSpec::parse(v).ok_or_else(|| {
                        format!("invalid --faults '{v}' (expected none, a preset like chaos, or '+'-joined clauses like delay:0.02:200+dup:0.01)")
                    })?);
                }
                "--seeds" => {
                    let v = it.next().ok_or("--seeds requires a value")?;
                    let n: u64 = v
                        .parse()
                        .map_err(|_| format!("invalid --seeds value '{v}'"))?;
                    if n == 0 {
                        return Err("--seeds must be at least 1".into());
                    }
                    seeds = Some(n);
                }
                "--threads" => {
                    let v = it.next().ok_or("--threads requires a value")?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("invalid --threads value '{v}'"))?;
                    if n == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    threads = Some(n);
                }
                "--format" => {
                    let v = it.next().ok_or("--format requires a value")?;
                    format = Format::parse(v).ok_or_else(|| {
                        format!("invalid --format '{v}' (expected text, csv, or json)")
                    })?;
                }
                "--workload" => {
                    let v = it.next().ok_or("--workload requires a value")?;
                    workload = Some(parse_workload(v)?);
                }
                "--record-trace" => {
                    let v = it.next().ok_or("--record-trace requires a value")?;
                    record = Some(PathBuf::from(v));
                }
                "--metrics" => {
                    let v = it.next().ok_or("--metrics requires a value")?;
                    metrics = Some(PathBuf::from(v));
                }
                "--metrics-every" => {
                    let v = it.next().ok_or("--metrics-every requires a value")?;
                    let n: u64 = v
                        .parse()
                        .map_err(|_| format!("invalid --metrics-every value '{v}'"))?;
                    if n == 0 {
                        return Err("--metrics-every must be at least 1 cycle".into());
                    }
                    metrics_every = Some(n);
                }
                "--spans" => spans = true,
                "--flight-recorder" => {
                    let v = it.next().ok_or("--flight-recorder requires a value")?;
                    flight_recorder = Some(PathBuf::from(v));
                }
                "--progress" => progress = true,
                "--out" => {
                    let v = it.next().ok_or("--out requires a value")?;
                    out = Some(PathBuf::from(v));
                }
                "--store" => {
                    let v = it.next().ok_or("--store requires a value")?;
                    store = Some(PathBuf::from(v));
                }
                "--cell-timeout" => {
                    let v = it.next().ok_or("--cell-timeout requires a value")?;
                    let secs: u64 = v
                        .parse()
                        .map_err(|_| format!("invalid --cell-timeout value '{v}'"))?;
                    if secs == 0 {
                        return Err("--cell-timeout must be at least 1 second".into());
                    }
                    cell_timeout = Some(Duration::from_secs(secs));
                }
                "--retries" => {
                    let v = it.next().ok_or("--retries requires a value")?;
                    let n: u32 = v
                        .parse()
                        .map_err(|_| format!("invalid --retries value '{v}'"))?;
                    retries = Some(n);
                }
                "--shard" => {
                    let v = it.next().ok_or("--shard requires a value")?;
                    let (k, n) = v
                        .split_once('/')
                        .ok_or_else(|| format!("invalid --shard '{v}' (expected K/N, e.g. 2/4)"))?;
                    let k: u64 = k
                        .parse()
                        .map_err(|_| format!("invalid --shard index '{v}'"))?;
                    let n: u64 = n
                        .parse()
                        .map_err(|_| format!("invalid --shard count '{v}'"))?;
                    if n == 0 {
                        return Err("--shard count N must be at least 1".into());
                    }
                    if k == 0 || k > n {
                        return Err(format!("--shard index K must be in 1..=N (got {k}/{n})"));
                    }
                    shard = Some((k, n));
                }
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown flag '{flag}'"));
                }
                value => {
                    if positional.is_some() {
                        return Err(format!("unexpected argument '{value}'"));
                    }
                    positional = Some(value.to_string());
                }
            }
        }
        let mut scale = if quick { Scale::quick() } else { Scale::full() };
        if let Some(n) = seeds {
            scale.seeds = n;
        }
        if let Some(f) = fabric {
            scale.fabric = f;
        }
        if let Some(f) = faults {
            scale.faults = f;
        }
        if let Some(WorkloadSpec::Trace(trace)) = &workload {
            if trace.num_nodes != scale.cores {
                return Err(format!(
                    "trace '{}' was recorded on {} cores but this scale runs {} \
                     (re-record at this scale or adjust --quick)",
                    trace.label, trace.num_nodes, scale.cores
                ));
            }
        }
        scale.workload = workload;
        if metrics_every.is_some() && metrics.is_none() {
            return Err("--metrics-every requires --metrics".into());
        }
        Ok((
            BenchArgs {
                scale,
                threads,
                format,
                out,
                record,
                metrics,
                metrics_every,
                spans,
                flight_recorder,
                progress,
                store,
                cell_timeout,
                retries,
                shard,
            },
            positional,
        ))
    }

    /// Runs `plan` on this invocation's runner, first arming trace
    /// recording and telemetry via [`BenchArgs::run_plan_armed`].
    pub fn run_plan(&self, plan: ExperimentPlan) -> Table {
        let plan = self.run_plan_armed(plan);
        self.runner().run(&plan)
    }

    /// Applies this invocation's sharding, trace recording, and
    /// telemetry flags to `plan` and returns it ready to run. Trace
    /// recording and metrics sampling arm only the plan's first cell
    /// (and within it only replication 0 — see `Runner`): one path, one
    /// output file, no last-writer-wins races across the pool. Spans
    /// and the flight recorder arm every cell.
    pub fn run_plan_armed(&self, mut plan: ExperimentPlan) -> ExperimentPlan {
        if let Some((k, n)) = self.shard {
            // Partition by store key: deterministic for a given plan and
            // CODE_VERSION, independent of axis order, and exactly the
            // key each retained cell writes under `--store` — so shard
            // outputs compose with `merge-store` by construction.
            plan.retain(|cell| cell_key(&cell.config) % n == k - 1);
        }
        if let Some(path) = &self.record {
            if let Some(cell) = plan.cells_mut().first_mut() {
                cell.config.record_trace = Some(path.clone());
            }
        }
        // Spans and the flight recorder arm every cell (they observe
        // each run from the inside); metrics, like trace recording,
        // arm only the first cell — one path, one time series.
        if self.spans || self.flight_recorder.is_some() {
            for cell in plan.cells_mut() {
                cell.config.telemetry.spans = self.spans;
                cell.config.telemetry.flight_recorder = self.flight_recorder.clone();
            }
        }
        if let Some(path) = &self.metrics {
            if let Some(cell) = plan.cells_mut().first_mut() {
                cell.config.telemetry.metrics = Some(path.clone());
                if let Some(every) = self.metrics_every {
                    cell.config.telemetry.metrics_every = every;
                }
            }
        }
        plan
    }

    /// The runner this invocation asked for: thread count, result store,
    /// cell timeout, and retry budget all applied. Exits with status 2
    /// when `--store` names a directory that cannot be created or opened.
    pub fn runner(&self) -> Runner {
        let mut runner = Runner::new().with_progress(self.progress);
        if let Some(n) = self.threads {
            runner = runner.with_threads(n);
        }
        if let Some(dir) = &self.store {
            match ResultStore::open(dir) {
                Ok(store) => runner = runner.with_store(store),
                Err(e) => {
                    eprintln!("patchsim: error: cannot open result store: {e}");
                    std::process::exit(2);
                }
            }
        }
        if let Some(timeout) = self.cell_timeout {
            runner = runner.with_cell_timeout(timeout);
        }
        if let Some(retries) = self.retries {
            runner = runner.with_retries(retries);
        }
        runner
    }

    /// Writes `table` in the selected format to stdout or `--out`.
    ///
    /// # Errors
    ///
    /// Fails on an empty table (no cells or no columns — nothing a
    /// downstream consumer could use) and on I/O errors.
    pub fn emit(&self, table: &Table) -> io::Result<()> {
        if table.cells().is_empty() || table.columns().is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "refusing to emit an empty table",
            ));
        }
        match &self.out {
            Some(path) => {
                let mut file = std::fs::File::create(path)?;
                table.emit(self.format, &mut file)?;
                file.flush()?;
                eprintln!(
                    "patchsim: wrote {} rows to {}",
                    table.cells().len(),
                    path.display()
                );
                Ok(())
            }
            None => {
                let stdout = io::stdout();
                let mut lock = stdout.lock();
                table.emit(self.format, &mut lock)?;
                lock.flush()
            }
        }
    }

    /// Emits the table and exits non-zero when anything went wrong — the
    /// tail call of every figure binary.
    ///
    /// Exit statuses: 0 on success, 1 on emit failure, 2 when a cell's
    /// trace recording or metrics write failed (environment error: bad
    /// path, full disk), and 3 when cells failed (panic/timeout) after
    /// retries — the table still emits so surviving cells are not lost,
    /// but the sweep is incomplete and scripts must not treat it as
    /// green.
    pub fn finish(&self, table: &Table) {
        for failure in table.failures() {
            eprintln!(
                "patchsim: error: cell {} failed ({} after {} attempt{}): {}",
                failure.labels.join("/"),
                failure.kind,
                failure.attempts,
                if failure.attempts == 1 { "" } else { "s" },
                failure.error.replace(['\n', '\r'], " "),
            );
        }
        // A sweep whose every cell failed has nothing to emit; skip the
        // empty-table error so the failure summary is the last word.
        if !table.cells().is_empty() || table.failures().is_empty() {
            if let Err(e) = self.emit(table) {
                eprintln!("patchsim: error: {e}");
                std::process::exit(1);
            }
        }
        if !table.failures().is_empty() {
            let summary = format!("{} of the plan's cells failed", table.failures().len());
            if table
                .failures()
                .iter()
                .any(|f| matches!(f.kind, FailureKind::TraceWrite | FailureKind::MetricsWrite))
            {
                eprintln!("patchsim: error: {summary} (trace or metrics write failed)");
                std::process::exit(2);
            }
            eprintln!("patchsim: error: {summary}");
            std::process::exit(3);
        }
    }
}

fn usage(bin: &str, about: &str, positional: Option<&str>) -> String {
    let operands = match positional {
        Some(p) => format!(" <{p}>"),
        None => String::new(),
    };
    format!("{about}\n\nUsage: {bin} [OPTIONS]{operands}\n\n{OPTIONS_HELP}")
}

fn usage_error(bin: &str, about: &str, positional: Option<&str>, msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", usage(bin, about, positional));
    std::process::exit(2);
}

/// Parses a `--workload` value: a preset name, `trace:PATH`, or an
/// open-loop arrival spec `open:PROCESS[,OPT=V...]`.
fn parse_workload(value: &str) -> Result<WorkloadSpec, String> {
    if let Some(path) = value.strip_prefix("trace:") {
        let trace = TraceReader::read_path(std::path::Path::new(path))
            .map_err(|e| format!("cannot replay trace '{path}': {e}"))?;
        return Ok(WorkloadSpec::trace(trace));
    }
    if let Some(spec) = value.strip_prefix("open:") {
        let profile = ArrivalProfile::parse(spec)
            .map_err(|e| format!("invalid --workload '{value}': {e}"))?;
        return Ok(WorkloadSpec::OpenLoop(profile));
    }
    presets::by_name(value).ok_or_else(|| {
        format!(
            "invalid --workload '{value}' (expected a preset like oltp or \
             svc-zipf, trace:PATH, or open:SPEC)"
        )
    })
}

// ---------------------------------------------------------------------------
// Shared axes.
// ---------------------------------------------------------------------------

/// An axis over workloads, labeled by workload name.
pub fn workload_axis(workloads: Vec<WorkloadSpec>) -> Vec<AxisValue> {
    workloads
        .into_iter()
        .map(|w| {
            let label = w.name().to_string();
            AxisValue::new(label, move |c: SimConfig| c.with_workload(w.clone()))
        })
        .collect()
}

/// The six protocol configurations of Figures 4 and 5, in the paper's bar
/// order, as a plan axis.
pub fn figure4_protocol_axis() -> Vec<AxisValue> {
    let patch = |predictor: PredictorChoice| {
        move |c: SimConfig| c.with_kind(ProtocolKind::Patch).with_predictor(predictor)
    };
    vec![
        AxisValue::new("Directory", |c| c.with_kind(ProtocolKind::Directory)),
        AxisValue::new("PATCH-None", patch(PredictorChoice::None)),
        AxisValue::new("PATCH-Owner", patch(PredictorChoice::Owner)),
        AxisValue::new(
            "PATCH-BcastIfShared",
            patch(PredictorChoice::BroadcastIfShared),
        ),
        AxisValue::new("PATCH-All", patch(PredictorChoice::All)),
        AxisValue::new("TokenB", |c| c.with_kind(ProtocolKind::TokenB)),
    ]
}

/// The three competing configurations of Figures 6–8: DIRECTORY,
/// non-adaptive PATCH-All, and adaptive PATCH-All.
pub fn adaptivity_protocol_axis() -> Vec<AxisValue> {
    vec![
        AxisValue::new("Directory", |c| c.with_kind(ProtocolKind::Directory)),
        AxisValue::new("PATCH-All-NA", |c| {
            let c = c
                .with_kind(ProtocolKind::Patch)
                .with_predictor(PredictorChoice::All);
            let protocol = c.protocol.clone().non_adaptive();
            c.with_protocol(protocol)
        }),
        AxisValue::new("PATCH-All", |c| {
            c.with_kind(ProtocolKind::Patch)
                .with_predictor(PredictorChoice::All)
        }),
    ]
}

/// An axis value resizing the system to `cores` on the steady-state
/// microbenchmark schedule, preserving every other protocol setting.
pub fn cores_value(cores: u16) -> AxisValue {
    AxisValue::new(cores.to_string(), move |c: SimConfig| {
        let (warmup, ops) = microbench_schedule(cores);
        let mut protocol = c.protocol.clone();
        protocol.num_nodes = cores;
        protocol.total_tokens = cores as u32;
        c.with_protocol(protocol)
            .with_ops_per_core(ops)
            .with_warmup(warmup)
    })
}

/// An axis over interconnect fabrics (all five shipped topologies),
/// labeled by fabric name. The fabric transform overrides whatever the
/// base configuration (and `--fabric`) selected.
pub fn fabric_axis() -> Vec<AxisValue> {
    FabricKind::ALL
        .into_iter()
        .map(|kind| AxisValue::new(kind.label(), move |c: SimConfig| c.with_fabric(kind)))
        .collect()
}

/// An axis over the shipped fault-mix presets (including `none`), labeled
/// by preset name. The fault transform overrides whatever the base
/// configuration (and `--faults`) selected.
pub fn faults_axis() -> Vec<AxisValue> {
    FaultSpec::PRESETS
        .into_iter()
        .map(|name| {
            let spec = FaultSpec::parse(name).expect("shipped preset parses");
            AxisValue::new(name, move |c: SimConfig| c.with_faults(spec))
        })
        .collect()
}

/// The protocol axis of the fault-injection plan: one representative per
/// protocol family (directory, PATCH, broadcast token counting), so the
/// sweep shows which families a fault mix degrades.
pub fn fault_protocol_axis() -> Vec<AxisValue> {
    vec![
        AxisValue::new("Directory", |c| c.with_kind(ProtocolKind::Directory)),
        AxisValue::new("PATCH-All", |c| {
            c.with_kind(ProtocolKind::Patch)
                .with_predictor(PredictorChoice::All)
        }),
        AxisValue::new("TokenB", |c| c.with_kind(ProtocolKind::TokenB)),
    ]
}

/// An axis value selecting a sharer-encoding coarseness of `k` cores per
/// bit (`k == 1` is the full map), labeled by `k`.
pub fn coarseness_value(k: u16) -> AxisValue {
    AxisValue::new(k.to_string(), move |c: SimConfig| {
        let encoding = if k <= 1 {
            SharerEncoding::FullMap
        } else {
            SharerEncoding::Coarse { cores_per_bit: k }
        };
        let protocol = c.protocol.clone().with_sharer_encoding(encoding);
        c.with_protocol(protocol)
    })
}

// ---------------------------------------------------------------------------
// Figure plans.
// ---------------------------------------------------------------------------

/// The Figure 4/5 grid: the five paper workloads × the six protocol
/// configurations at the scale's core count.
pub fn figure4_plan(scale: Scale) -> ExperimentPlan {
    let base = scale
        .base(ProtocolKind::Directory, scale.cores)
        .with_ops_per_core(scale.ops)
        .with_warmup(scale.warmup);
    Sweep::new(format!("Figure 4/5 grid ({} cores)", scale.cores), base)
        .axis("workload", workload_axis(presets::all()))
        .axis("config", figure4_protocol_axis())
        .seeds(scale.seeds)
        .build()
}

/// The paper's bandwidth sweep points (bytes per 1000 cycles, Figures 6–7).
pub const BANDWIDTH_SWEEP: [f64; 6] = [300.0, 600.0, 900.0, 2000.0, 4000.0, 8000.0];

/// The Figure 6/7 grid for one workload: the paper's six link bandwidths ×
/// {DIRECTORY, PATCH-All-NA, PATCH-All}.
pub fn bandwidth_plan(scale: Scale, workload: WorkloadSpec) -> ExperimentPlan {
    let name = format!(
        "Bandwidth adaptivity on {} ({} cores)",
        workload.name(),
        scale.cores
    );
    let base = scale
        .base(ProtocolKind::Directory, scale.cores)
        .with_workload(workload)
        .with_ops_per_core(scale.ops)
        .with_warmup(scale.warmup);
    Sweep::new(name, base)
        .axis(
            "bytes_per_kcycle",
            BANDWIDTH_SWEEP
                .iter()
                .map(|&bw| {
                    AxisValue::new(format!("{bw:.0}"), move |c: SimConfig| {
                        c.with_bandwidth(LinkBandwidth::BytesPerCycle(bw / 1000.0))
                    })
                })
                .collect(),
        )
        .axis("config", adaptivity_protocol_axis())
        .seeds(scale.seeds)
        .build()
}

/// The Figure 8 core counts (`--quick` stops at 64).
pub fn scalability_core_counts(scale: &Scale) -> &'static [u16] {
    if scale.cores <= 16 {
        &[4, 8, 16, 32, 64]
    } else {
        &[4, 8, 16, 32, 64, 128, 256, 512]
    }
}

/// The Figure 8 grid: core counts × {DIRECTORY, PATCH-All-NA, PATCH-All}
/// on the microbenchmark with 2-byte/cycle links.
pub fn scalability_plan(scale: Scale) -> ExperimentPlan {
    let base = scale
        .base(ProtocolKind::Directory, 4)
        .with_workload(WorkloadSpec::microbenchmark())
        .with_bandwidth(LinkBandwidth::BytesPerCycle(2.0));
    Sweep::new("Microbenchmark scalability (2 B/cycle links)", base)
        .axis(
            "cores",
            scalability_core_counts(&scale)
                .iter()
                .map(|&n| cores_value(n))
                .collect(),
        )
        .axis("config", adaptivity_protocol_axis())
        .seeds(scale.seeds)
        .build()
}

/// The Figure 9/10 core counts (`--quick` uses small systems).
pub fn inexact_core_counts(scale: &Scale) -> &'static [u16] {
    if scale.cores <= 16 {
        &[16, 32]
    } else {
        &[64, 128, 256]
    }
}

/// The coarseness sweep (`K` cores per sharer bit) of Figures 9–10.
pub const COARSENESS_SWEEP: [u16; 5] = [1, 4, 16, 64, 256];

/// The protocol axis of Figures 9–10: DIRECTORY vs (predictorless) PATCH.
pub fn inexact_protocol_axis() -> Vec<AxisValue> {
    vec![
        AxisValue::new("Directory", |c| c.with_kind(ProtocolKind::Directory)),
        AxisValue::new("PATCH", |c| c.with_kind(ProtocolKind::Patch)),
    ]
}

/// Keeps coarseness cells whose `K` does not exceed the cell's core count
/// (a 256-cores-per-bit encoding is meaningless on a 64-core system).
fn coarseness_fits(cell: &Cell) -> bool {
    match cell.config.protocol.sharer_encoding {
        SharerEncoding::Coarse { cores_per_bit } => cores_per_bit <= cell.config.protocol.num_nodes,
        _ => true,
    }
}

/// The Figure 9 grid: core counts × protocol × {unbounded, 2 B/cycle}
/// links × sharer-encoding coarseness (clamped to the core count).
pub fn inexact_runtime_plan(scale: Scale) -> ExperimentPlan {
    let base = scale
        .base(ProtocolKind::Directory, 4)
        .with_workload(WorkloadSpec::microbenchmark());
    Sweep::new("Runtime vs sharer-encoding coarseness", base)
        .axis(
            "cores",
            inexact_core_counts(&scale)
                .iter()
                .map(|&n| cores_value(n))
                .collect(),
        )
        .axis("config", inexact_protocol_axis())
        .axis(
            "links",
            vec![
                AxisValue::new("inf", |c| c.with_bandwidth(LinkBandwidth::Unbounded)),
                AxisValue::new("2B/c", |c| {
                    c.with_bandwidth(LinkBandwidth::BytesPerCycle(2.0))
                }),
            ],
        )
        .axis(
            "K",
            COARSENESS_SWEEP
                .iter()
                .map(|&k| coarseness_value(k))
                .collect(),
        )
        .filter(coarseness_fits)
        .seeds(scale.seeds)
        .build()
}

/// The Figure 10 grid: like [`inexact_runtime_plan`] but at the paper's
/// constrained 2-byte/cycle links only (the traffic figure).
pub fn inexact_traffic_plan(scale: Scale) -> ExperimentPlan {
    let base = scale
        .base(ProtocolKind::Directory, 4)
        .with_workload(WorkloadSpec::microbenchmark())
        .with_bandwidth(LinkBandwidth::BytesPerCycle(2.0));
    Sweep::new(
        "Traffic vs sharer-encoding coarseness (2 B/cycle links)",
        base,
    )
    .axis(
        "cores",
        inexact_core_counts(&scale)
            .iter()
            .map(|&n| cores_value(n))
            .collect(),
    )
    .axis("config", inexact_protocol_axis())
    .axis(
        "K",
        COARSENESS_SWEEP
            .iter()
            .map(|&k| coarseness_value(k))
            .collect(),
    )
    .filter(coarseness_fits)
    .seeds(scale.seeds)
    .build()
}

/// The cross-fabric scalability core counts. Full scale stops at 128 —
/// it multiplies Figure 8's grid by five fabrics — and `--quick` keeps
/// two small systems.
pub fn cross_fabric_core_counts(scale: &Scale) -> &'static [u16] {
    if scale.cores <= 16 {
        &[4, 16]
    } else {
        &[4, 8, 16, 32, 64, 128]
    }
}

/// The cross-fabric scalability grid (Figure 8 style): core counts ×
/// all five fabrics × {DIRECTORY, PATCH-All-NA, PATCH-All} on the
/// microbenchmark with 2-byte/cycle links. This is the fabric
/// sensitivity study the paper could not run: how hop count (ring vs.
/// torus vs. mesh), bisection bandwidth (hierarchical gateways), and
/// multicast cost (crossbar's single-hop fan-out) shift the
/// directory/PATCH/token trade-off.
pub fn cross_fabric_plan(scale: Scale) -> ExperimentPlan {
    let base = scale
        .base(ProtocolKind::Directory, 4)
        .with_workload(WorkloadSpec::microbenchmark())
        .with_bandwidth(LinkBandwidth::BytesPerCycle(2.0));
    Sweep::new("Cross-fabric scalability (2 B/cycle links)", base)
        .axis(
            "cores",
            cross_fabric_core_counts(&scale)
                .iter()
                .map(|&n| cores_value(n))
                .collect(),
        )
        .axis("fabric", fabric_axis())
        .axis("config", adaptivity_protocol_axis())
        .seeds(scale.seeds)
        .build()
}

/// The liveness horizon armed on every fault-injection cell: any single
/// miss outstanding longer than this fails the run (see
/// `SimConfig::liveness_horizon`). Generous against the worst shipped
/// fault mix (`chaos` storms multiply serialization 8× for stretches),
/// yet far below `max_cycles`, so starvation surfaces as a watchdog
/// panic naming the starved core instead of a silent timeout.
pub const FAULT_LIVENESS_HORIZON: u64 = 200_000;

/// The fault-injection robustness grid: every shipped fault preset ×
/// one protocol per family × {torus, hier} fabrics, with invariant
/// checking on and the starvation watchdog armed. This is the paper's
/// unasked question: token counting's safety argument (Table 1) is
/// delivery-order independent, but its *performance* under an unreliable
/// interconnect — duplicated token-free requests, reordered persistent
/// ops, degraded links — is not, and this sweep measures the gap.
pub fn faults_plan(scale: Scale) -> ExperimentPlan {
    let base = scale
        .base(ProtocolKind::Directory, scale.cores)
        .with_ops_per_core(scale.ops)
        .with_warmup(scale.warmup)
        .with_checks()
        .with_liveness_horizon(FAULT_LIVENESS_HORIZON);
    Sweep::new(
        format!("Fault-injection robustness ({} cores)", scale.cores),
        base,
    )
    .axis("config", fault_protocol_axis())
    .axis("faults", faults_axis())
    .axis(
        "fabric",
        vec![
            AxisValue::new("torus", |c| c.with_fabric(FabricKind::Torus)),
            AxisValue::new("hier", |c| {
                c.with_fabric(FabricKind::Hierarchical { cluster: None })
            }),
        ],
    )
    .seeds(scale.seeds)
    .build()
}

/// The burst shape of the `service` plan's bursty-arrival cells: every
/// 256 generator steps, 64 operations arrive with think times divided
/// by 8 — a closed-loop approximation of an open-loop arrival burst.
pub const SERVICE_BURST: (u64, u64, u64) = (256, 64, 8);

/// The service-traffic grid: key-skew shape (uniform, Zipfian, Zipfian
/// with rotating hot set and tenant phases) × arrival shape (steady vs
/// bursty) × one protocol per family. Datacenter services hit coherence
/// protocols with skewed, phase-changing, bursty sharing that the
/// paper's SPLASH/commercial workloads do not model; this sweep asks
/// which protocol family degrades first as skew and burstiness rise.
pub fn service_plan(scale: Scale) -> ExperimentPlan {
    let base = scale
        .base(ProtocolKind::Directory, scale.cores)
        .with_ops_per_core(scale.ops)
        .with_warmup(scale.warmup);
    Sweep::new(
        format!("Service-shaped traffic ({} cores)", scale.cores),
        base,
    )
    .axis(
        "skew",
        workload_axis(vec![
            service_presets::uniform(),
            service_presets::zipf(),
            service_presets::zipf_hot(),
        ]),
    )
    .axis(
        "arrivals",
        vec![
            AxisValue::new("steady", |c| c),
            AxisValue::new("burst", |mut c: SimConfig| {
                let (period, len, div) = SERVICE_BURST;
                if let WorkloadSpec::Service(p) = &mut c.workload {
                    *p = p.clone().with_burst(period, len, div);
                }
                c
            }),
        ],
    )
    .axis("config", fault_protocol_axis())
    .seeds(scale.seeds)
    .build()
}

/// The Poisson interarrival periods (cycles between arrivals, per core)
/// the `saturation` plan sweeps, slowest first. The early points sit
/// well under every protocol's service rate (goodput tracks offered
/// load, empty backlogs); the late points drive each configuration past
/// its knee, where drops appear and sojourn time grows without bound.
pub const SATURATION_PERIODS: [u64; 6] = [400, 200, 100, 50, 25, 12];

/// The open-loop saturation grid: offered load (Poisson interarrival
/// period) × one protocol per family × {torus, hier} fabrics. Every
/// other plan is closed-loop — each core issues, waits, thinks — so a
/// slow protocol quietly sheds load and "runtime" absorbs the damage.
/// This sweep decouples arrivals from completions behind a bounded
/// per-core backlog (drop policy), exposing the saturation behaviour a
/// closed loop cannot show: offered vs achieved rate, drop rate, and
/// arrival→completion sojourn time exploding past the knee while the
/// issue→completion miss latency stays flat.
pub fn saturation_plan(scale: Scale) -> ExperimentPlan {
    let base = scale
        .base(ProtocolKind::Directory, scale.cores)
        .with_ops_per_core(scale.ops)
        .with_warmup(scale.warmup);
    Sweep::new(
        format!("Open-loop saturation ({} cores)", scale.cores),
        base,
    )
    .axis(
        "load",
        SATURATION_PERIODS
            .into_iter()
            .map(|period| {
                let profile = ArrivalProfile::parse(&format!("poisson:{period}"))
                    .expect("shipped arrival spec parses");
                AxisValue::new(period.to_string(), move |c: SimConfig| {
                    c.with_workload(WorkloadSpec::OpenLoop(profile.clone()))
                })
            })
            .collect(),
    )
    .axis("config", fault_protocol_axis())
    .axis(
        "fabric",
        vec![
            AxisValue::new("torus", |c| c.with_fabric(FabricKind::Torus)),
            AxisValue::new("hier", |c| {
                c.with_fabric(FabricKind::Hierarchical { cluster: None })
            }),
        ],
    )
    .seeds(scale.seeds)
    .build()
}

/// Warmup/measurement schedule for the microbenchmark experiments
/// (Figures 8–10): the paper measures warmed, steady-state caches, so
/// the per-core operation budget is derived from the table size — the
/// *total* access count stays at several multiples of the 16k-block
/// table no matter how many cores split the work.
pub fn microbench_schedule(cores: u16) -> (u64, u64) {
    let table: u64 = 16 * 1024;
    let warmup = (2 * table / cores as u64).max(32);
    let ops = (3 * table / cores as u64).max(64);
    (warmup, ops)
}

// ---------------------------------------------------------------------------
// Ablation plans.
// ---------------------------------------------------------------------------

/// Ablation: tenure-timeout policy (fixed sweeps vs the paper's adaptive
/// 2× round-trip) on a contended microbenchmark.
pub fn ablation_tenure_timeout_plan(scale: Scale) -> ExperimentPlan {
    // A contended workload where tenure actually fires: many writers on a
    // small hot table.
    let workload = WorkloadSpec::Microbenchmark {
        table_blocks: 256,
        write_frac: 0.5,
        think_mean: 5,
    };
    let base = scale
        .base(ProtocolKind::Patch, scale.cores)
        .with_predictor(PredictorChoice::All)
        .with_workload(workload)
        .with_ops_per_core(scale.ops)
        .with_warmup(scale.warmup);
    let policies: Vec<(&str, TenureConfig)> = vec![
        ("fixed-50", TenureConfig::Fixed(50)),
        ("fixed-200", TenureConfig::Fixed(200)),
        ("fixed-800", TenureConfig::Fixed(800)),
        ("fixed-3200", TenureConfig::Fixed(3200)),
        ("adaptive-2x", TenureConfig::paper_default()),
    ];
    Sweep::new(
        "Ablation: tenure timeout policy (PATCH-All, contended)",
        base,
    )
    .axis(
        "policy",
        policies
            .into_iter()
            .map(|(label, tenure)| {
                AxisValue::new(label, move |c: SimConfig| {
                    let protocol = c.protocol.clone().with_tenure(tenure);
                    c.with_protocol(protocol)
                })
            })
            .collect(),
    )
    .seeds(scale.seeds)
    .build()
}

/// Ablation: the post-deactivation direct-request ignore window.
pub fn ablation_deact_window_plan(scale: Scale) -> ExperimentPlan {
    let workload = WorkloadSpec::Microbenchmark {
        table_blocks: 128,
        write_frac: 0.5,
        think_mean: 3,
    };
    let base = scale
        .base(ProtocolKind::Patch, scale.cores)
        .with_predictor(PredictorChoice::All)
        .with_workload(workload)
        .with_ops_per_core(scale.ops)
        .with_warmup(scale.warmup);
    Sweep::new(
        "Ablation: post-deactivation ignore window (PATCH-All)",
        base,
    )
    .axis(
        "window",
        vec![
            AxisValue::new("enabled", |c| c),
            AxisValue::new("disabled", |c| {
                let protocol = c.protocol.clone().without_deact_window();
                c.with_protocol(protocol)
            }),
        ],
    )
    .seeds(scale.seeds)
    .build()
}

/// Ablation: the best-effort staleness bound under constrained bandwidth.
pub fn ablation_stale_drop_plan(scale: Scale) -> ExperimentPlan {
    let base = scale
        .base(ProtocolKind::Patch, scale.cores)
        .with_predictor(PredictorChoice::All)
        .with_bandwidth(LinkBandwidth::BytesPerCycle(1.0))
        .with_ops_per_core(scale.ops)
        .with_warmup(scale.warmup);
    Sweep::new(
        "Ablation: stale-drop threshold (PATCH-All, 1 B/cycle links)",
        base,
    )
    .axis(
        "stale_cycles",
        [25u64, 50, 100, 200, 400, 1600]
            .into_iter()
            .map(|stale| {
                AxisValue::new(stale.to_string(), move |mut c: SimConfig| {
                    c.stale_drop_cycles = stale;
                    c
                })
            })
            .collect(),
    )
    .seeds(scale.seeds)
    .build()
}

/// Ablation: zero-token acknowledgement elision under a coarse sharer
/// encoding and 2-byte/cycle links.
pub fn ablation_ack_elision_plan(scale: Scale) -> ExperimentPlan {
    let coarse = SharerEncoding::Coarse {
        cores_per_bit: (scale.cores / 4).max(2),
    };
    let base = scale.base(ProtocolKind::Patch, scale.cores);
    let protocol = base.protocol.clone().with_sharer_encoding(coarse);
    let base = base
        .with_protocol(protocol)
        .with_bandwidth(LinkBandwidth::BytesPerCycle(2.0))
        .with_ops_per_core(scale.ops)
        .with_warmup(scale.warmup);
    Sweep::new(
        format!("Ablation: zero-token ack elision (PATCH, {coarse}, 2 B/cycle links)"),
        base,
    )
    .axis(
        "acks",
        vec![
            AxisValue::new("elided (PATCH)", |c| c),
            AxisValue::new("always (Dir-like)", |c| {
                let protocol = c.protocol.clone().without_ack_elision();
                c.with_protocol(protocol)
            }),
        ],
    )
    .seeds(scale.seeds)
    .build()
}

/// Extension study: limited-pointer directories (Dir-i-B) alongside the
/// paper's coarse-vector sweep.
pub fn ablation_limited_pointer_plan(scale: Scale) -> ExperimentPlan {
    let cores = scale.cores;
    let (warmup, ops) = microbench_schedule(cores);
    let base = scale
        .base(ProtocolKind::Directory, cores)
        .with_bandwidth(LinkBandwidth::BytesPerCycle(2.0))
        .with_workload(WorkloadSpec::microbenchmark())
        .with_ops_per_core(ops)
        .with_warmup(warmup);
    let encodings = [
        SharerEncoding::FullMap,
        SharerEncoding::LimitedPointer { pointers: 4 },
        SharerEncoding::LimitedPointer { pointers: 1 },
        SharerEncoding::Coarse {
            cores_per_bit: (cores / 4).max(2),
        },
    ];
    Sweep::new(
        format!("Extension: limited-pointer directories ({cores} cores, 2 B/cycle links)"),
        base,
    )
    .axis("config", inexact_protocol_axis())
    .axis(
        "encoding",
        encodings
            .into_iter()
            .map(|encoding| {
                AxisValue::new(encoding.to_string(), move |c: SimConfig| {
                    let protocol = c.protocol.clone().with_sharer_encoding(encoding);
                    c.with_protocol(protocol)
                })
            })
            .collect(),
    )
    .seeds(scale.seeds)
    .build()
}

// ---------------------------------------------------------------------------
// Plan registry and shared column sets.
// ---------------------------------------------------------------------------

/// Every named plan `runplan` can execute, with a one-line description
/// (shown by `runplan --help` and the bare `runplan` plan listing).
pub const PLAN_INFO: [(&str, &str); 16] = [
    (
        "fig4",
        "Figure 4 runtime grid: 5 workloads x 6 protocol configs",
    ),
    (
        "fig5",
        "Figure 5's grid: same table as fig4 (class columns: fig5_traffic)",
    ),
    ("fig6", "Figure 6 bandwidth-adaptivity sweep on ocean"),
    ("fig7", "Figure 7 bandwidth-adaptivity sweep on jbb"),
    (
        "fig8",
        "Figure 8 scalability: 4-512 cores on 2 B/cycle links",
    ),
    ("fig9", "Figure 9 runtime vs sharer-encoding coarseness"),
    ("fig10", "Figure 10 traffic vs sharer-encoding coarseness"),
    (
        "fabric",
        "Cross-fabric scalability: cores x 5 topologies x 3 configs",
    ),
    (
        "faults",
        "Fault-injection robustness: fault mix x protocol x fabric, oracles armed",
    ),
    (
        "service",
        "Service-shaped traffic: key skew x arrival burstiness x protocol",
    ),
    (
        "saturation",
        "Open-loop saturation: offered load x protocol x fabric, drops + sojourn",
    ),
    (
        "tenure_timeout",
        "Ablation: fixed vs adaptive tenure timeouts",
    ),
    (
        "deact_window",
        "Ablation: post-deactivation ignore window on/off",
    ),
    ("stale_drop", "Ablation: best-effort staleness bound sweep"),
    ("ack_elision", "Ablation: zero-token ack elision on/off"),
    (
        "limited_pointer",
        "Extension: limited-pointer directories (Dir-i-B)",
    ),
];

/// Every named plan `runplan` can execute.
pub const PLAN_NAMES: [&str; PLAN_INFO.len()] = {
    let mut names = [""; PLAN_INFO.len()];
    let mut i = 0;
    while i < PLAN_INFO.len() {
        names[i] = PLAN_INFO[i].0;
        i += 1;
    }
    names
};

/// Builds a registered plan by name (see [`PLAN_NAMES`]).
pub fn plan_by_name(name: &str, scale: Scale) -> Option<ExperimentPlan> {
    match name {
        "fig4" | "fig5" => Some(figure4_plan(scale)),
        "fig6" => Some(bandwidth_plan(scale, presets::ocean())),
        "fig7" => Some(bandwidth_plan(scale, presets::jbb())),
        "fig8" => Some(scalability_plan(scale)),
        "fig9" => Some(inexact_runtime_plan(scale)),
        "fig10" => Some(inexact_traffic_plan(scale)),
        "fabric" => Some(cross_fabric_plan(scale)),
        "faults" => Some(faults_plan(scale)),
        "service" => Some(service_plan(scale)),
        "saturation" => Some(saturation_plan(scale)),
        "tenure_timeout" => Some(ablation_tenure_timeout_plan(scale)),
        "deact_window" => Some(ablation_deact_window_plan(scale)),
        "stale_drop" => Some(ablation_stale_drop_plan(scale)),
        "ack_elision" => Some(ablation_ack_elision_plan(scale)),
        "limited_pointer" => Some(ablation_limited_pointer_plan(scale)),
        _ => None,
    }
}

/// The default measurement columns: runtime and bytes/miss with 95% CIs,
/// pooled miss-latency percentiles, and best-effort drops.
pub fn with_standard_columns(table: Table) -> Table {
    table
        .with_ci_column("runtime", 0, |cell| cell.summary.runtime)
        .with_ci_column("bytes_per_miss", 1, |cell| cell.summary.bytes_per_miss)
        .with_column("lat_p50", 0, |cell| {
            cell.summary.miss_latency_percentiles.p50 as f64
        })
        .with_column("lat_p95", 0, |cell| {
            cell.summary.miss_latency_percentiles.p95 as f64
        })
        .with_column("lat_p99", 0, |cell| {
            cell.summary.miss_latency_percentiles.p99 as f64
        })
        .with_column("drops", 0, |cell| cell.summary.dropped_packets)
}

/// The `saturation` plan's column set: offered vs achieved rate (both
/// per kilocycle), drop percentage, and pooled arrival→completion
/// sojourn percentiles, plus the closed-loop miss-latency p95 for the
/// flat-vs-exploding contrast and the backlog high-water mark.
pub fn with_saturation_columns(table: Table) -> Table {
    table
        .with_column("offered_per_kc", 3, |cell| {
            cell.summary
                .open_loop
                .unwrap_or_default()
                .offered_per_kcycle
        })
        .with_column("goodput_per_kc", 3, |cell| {
            cell.summary
                .open_loop
                .unwrap_or_default()
                .goodput_per_kcycle
        })
        .with_column("drop_pct", 2, |cell| {
            cell.summary.open_loop.unwrap_or_default().drop_pct
        })
        .with_column("soj_p50", 0, |cell| {
            cell.summary.open_loop.unwrap_or_default().sojourn.p50 as f64
        })
        .with_column("soj_p95", 0, |cell| {
            cell.summary.open_loop.unwrap_or_default().sojourn.p95 as f64
        })
        .with_column("soj_p99", 0, |cell| {
            cell.summary.open_loop.unwrap_or_default().sojourn.p99 as f64
        })
        .with_column("lat_p95", 0, |cell| {
            cell.summary.miss_latency_percentiles.p95 as f64
        })
        .with_column("backlog_hwm", 0, |cell| {
            cell.summary.open_loop.unwrap_or_default().backlog_hwm as f64
        })
}

/// The miss-lifecycle span columns (`--spans`): mean cycles a miss
/// spends in each phase — open-loop queue wait, network (issue to first
/// response), home/ordering (first response to the ordering decision),
/// and token wait (ordering to completion). The three on-miss phases
/// partition the mean miss latency exactly; cells without span data
/// report zeros.
pub fn with_span_columns(table: Table) -> Table {
    let spans = |cell: &patchsim::exp::CellResult| cell.summary.spans.unwrap_or_default();
    table
        .with_column("span_queue", 1, move |cell| spans(cell).queue_wait_mean)
        .with_column("span_net", 1, move |cell| spans(cell).network_mean)
        .with_column("span_home", 1, move |cell| spans(cell).home_mean)
        .with_column("span_token", 1, move |cell| spans(cell).token_wait_mean)
}

/// One bytes-per-miss column per traffic class, in [`TrafficClass::ALL`]
/// order (the paper's Figure 5/10 breakdowns).
pub fn with_traffic_class_columns(mut table: Table) -> Table {
    for class in TrafficClass::ALL {
        table = table.with_column(class.label(), 1, move |cell| cell.summary.class_mean(class));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn every_registered_plan_builds() {
        let scale = Scale::quick();
        for name in PLAN_NAMES {
            let plan = plan_by_name(name, scale.clone()).expect(name);
            assert!(!plan.is_empty(), "{name} built an empty plan");
        }
        assert!(plan_by_name("nope", scale).is_none());
        // The description table and the name registry stay in sync.
        assert_eq!(PLAN_INFO.map(|(name, _)| name), PLAN_NAMES);
        assert!(PLAN_INFO.iter().all(|(_, desc)| !desc.is_empty()));
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
}
