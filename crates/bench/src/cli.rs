//! The crate's command lines: [`BenchArgs`] for `runplan` and
//! `fig4_runtime`, [`PerfArgs`] for `perf_baseline`, and [`StoreCommand`]
//! for `runplan merge-store` and `runplan store-stats`.
//!
//! All four read their arguments with one flag reader ([`read`]) over a
//! table of the flags each accepts, and share its conventions: `-h` or
//! `--help` anywhere prints usage to stdout and exits 0; an unknown flag,
//! a flag without its value, a malformed value or a surplus operand
//! prints `error: MESSAGE`, a blank line and usage to stderr and exits 2.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use patchsim::exp::{cell_key, ExperimentPlan, FailureKind, Format, ResultStore, Runner, Table};
use patchsim::{
    presets, ArrivalProfile, FabricKind, FaultSpec, TraceData, TraceReader, WorkloadSpec,
};

use crate::columns::with_span_columns;
use crate::plans::Scale;

/// A flag a command line accepts, and whether it takes a value.
type Flag = (&'static str, bool);

/// One argument of a command line, as [`read`] hands it on.
enum Arg<'a> {
    /// An accepted flag that takes no value.
    Switch(&'static str),
    /// An accepted flag and its value: the next argument, whatever it is.
    Value(&'static str, &'a str),
    /// An argument that does not start with `-`.
    Operand(&'a str),
}

/// Walks `raw` in order and hands each argument to `visit`, stopping at
/// the first error. A `-`-prefixed argument outside `flags` is an
/// "unknown `noun`".
fn read<'a>(
    raw: &'a [String],
    flags: &[Flag],
    noun: &str,
    mut visit: impl FnMut(Arg<'a>) -> Result<(), String>,
) -> Result<(), String> {
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let arg = match flags.iter().find(|(name, _)| name == arg) {
            Some(&(name, false)) => Arg::Switch(name),
            Some(&(name, true)) => {
                let value = it
                    .next()
                    .ok_or_else(|| format!("{name} requires a value"))?;
                Arg::Value(name, value)
            }
            None if arg.starts_with('-') => return Err(format!("unknown {noun} '{arg}'")),
            None => Arg::Operand(arg),
        };
        visit(arg)?;
    }
    Ok(())
}

/// Parses `raw` with `try_parse`, or prints `usage` and exits: with
/// status 0 when `-h` or `--help` appears anywhere, with status 2 and
/// the error message when parsing fails.
fn parse_or_exit<T>(
    raw: &[String],
    usage: &str,
    try_parse: impl FnOnce(&[String]) -> Result<T, String>,
) -> T {
    if raw.iter().any(|a| a == "-h" || a == "--help") {
        println!("{usage}");
        std::process::exit(0);
    }
    try_parse(raw).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n\n{usage}");
        std::process::exit(2)
    })
}

fn process_args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// Parses the value of `flag` as a count of at least 1. `unit` (`" cycle"`,
/// `" second"`, or empty) finishes the zero-value message.
fn parse_positive(flag: &str, value: &str, unit: &str) -> Result<u64, String> {
    match value.parse() {
        Ok(0) => Err(format!("{flag} must be at least 1{unit}")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("invalid {flag} value '{value}'")),
    }
}

fn parse_fabric(value: &str) -> Result<FabricKind, String> {
    FabricKind::parse(value).ok_or_else(|| {
        format!("invalid --fabric '{value}' (expected torus, mesh, ring, xbar, or hier[:C])")
    })
}

/// Parses an `--out` path, refusing one whose directory does not exist:
/// a sweep would otherwise run to the end before failing to write it.
fn parse_out(value: &str) -> Result<PathBuf, String> {
    let path = PathBuf::from(value);
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() && !dir.is_dir() => Err(format!(
            "--out '{value}': directory '{}' does not exist",
            dir.display()
        )),
        _ => Ok(path),
    }
}

/// Parses a `--workload` value: a preset name, `trace:PATH`, or an
/// open-loop arrival spec `open:PROCESS[,OPT=V...]`.
fn parse_workload(value: &str) -> Result<WorkloadSpec, String> {
    if let Some(path) = value.strip_prefix("trace:") {
        let trace = TraceReader::read_path(Path::new(path))
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

/// Parses a `--shard K/N` value (1-based).
fn parse_shard(value: &str) -> Result<(u64, u64), String> {
    let (k, n) = value
        .split_once('/')
        .ok_or_else(|| format!("invalid --shard '{value}' (expected K/N, e.g. 2/4)"))?;
    let k: u64 = k
        .parse()
        .map_err(|_| format!("invalid --shard index '{value}'"))?;
    let n: u64 = n
        .parse()
        .map_err(|_| format!("invalid --shard count '{value}'"))?;
    if n == 0 {
        return Err("--shard count N must be at least 1".into());
    }
    if k == 0 || k > n {
        return Err(format!("--shard index K must be in 1..=N (got {k}/{n})"));
    }
    Ok((k, n))
}

/// The shared figure-binary command line.
///
/// Parsing is strict: unknown flags, missing values, zero counts, and
/// unparseable numbers all print usage and exit with status 2 instead of
/// silently falling back to defaults. `runplan --help` lists every flag.
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
    /// miss-lifecycle spans and [`BenchArgs::run_plan`] appends the span
    /// columns (`span_queue`, `span_net`, `span_home`, `span_token`).
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

/// The flags [`BenchArgs`] accepts; [`OPTIONS_HELP`] documents each.
const BENCH_FLAGS: &[Flag] = &[
    ("--quick", false),
    ("--seeds", true),
    ("--threads", true),
    ("--fabric", true),
    ("--faults", true),
    ("--workload", true),
    ("--record-trace", true),
    ("--metrics", true),
    ("--metrics-every", true),
    ("--spans", false),
    ("--flight-recorder", true),
    ("--progress", false),
    ("--store", true),
    ("--cell-timeout", true),
    ("--retries", true),
    ("--shard", true),
    ("--format", true),
    ("--out", true),
];

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

fn usage(bin: &str, about: &str, positional: Option<&str>) -> String {
    let operands = match positional {
        Some(p) => format!(" <{p}>"),
        None => String::new(),
    };
    format!("{about}\n\nUsage: {bin} [OPTIONS]{operands}\n\n{OPTIONS_HELP}")
}

impl BenchArgs {
    /// Parses the process arguments, or prints usage and exits — with
    /// status 0 for `--help`, status 2 for anything malformed.
    pub fn parse(bin: &str, about: &str) -> Self {
        let usage = usage(bin, about, None);
        parse_or_exit(&process_args(), &usage, |raw| match Self::try_parse(raw)? {
            (args, None) => Ok(args),
            (_, Some(p)) => Err(format!("unexpected argument '{p}'")),
        })
    }

    /// Like [`BenchArgs::parse`] but accepts one positional argument
    /// (used by `runplan` for the plan name), described as `<positional>`
    /// in the usage text.
    pub fn parse_with_positional(
        bin: &str,
        about: &str,
        positional: &str,
    ) -> (Self, Option<String>) {
        let usage = usage(bin, about, Some(positional));
        parse_or_exit(&process_args(), &usage, Self::try_parse)
    }

    /// Parses an argument list. Returns the parsed flags plus at most one
    /// positional argument.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first unknown flag, missing or
    /// malformed value, or surplus positional argument.
    pub fn try_parse(raw: &[String]) -> Result<(Self, Option<String>), String> {
        let mut args = BenchArgs {
            scale: Scale::full(),
            threads: None,
            format: Format::Text,
            out: None,
            record: None,
            metrics: None,
            metrics_every: None,
            spans: false,
            flight_recorder: None,
            progress: false,
            store: None,
            cell_timeout: None,
            retries: None,
            shard: None,
        };
        let mut quick = false;
        let mut seeds = None;
        let mut fabric = None;
        let mut faults = None;
        let mut workload = None;
        let mut positional: Option<String> = None;
        read(raw, BENCH_FLAGS, "flag", |arg| {
            match arg {
                Arg::Switch("--quick") => quick = true,
                Arg::Switch("--spans") => args.spans = true,
                Arg::Switch("--progress") => args.progress = true,
                Arg::Value("--seeds", v) => seeds = Some(parse_positive("--seeds", v, "")?),
                Arg::Value("--threads", v) => {
                    args.threads = Some(parse_positive("--threads", v, "")? as usize);
                }
                Arg::Value("--fabric", v) => fabric = Some(parse_fabric(v)?),
                Arg::Value("--faults", v) => {
                    faults = Some(FaultSpec::parse(v).ok_or_else(|| {
                        format!("invalid --faults '{v}' (expected none, a preset like chaos, or '+'-joined clauses like delay:0.02:200+dup:0.01)")
                    })?);
                }
                Arg::Value("--workload", v) => workload = Some(parse_workload(v)?),
                Arg::Value("--record-trace", v) => args.record = Some(v.into()),
                Arg::Value("--metrics", v) => args.metrics = Some(v.into()),
                Arg::Value("--metrics-every", v) => {
                    args.metrics_every = Some(parse_positive("--metrics-every", v, " cycle")?);
                }
                Arg::Value("--flight-recorder", v) => args.flight_recorder = Some(v.into()),
                Arg::Value("--store", v) => args.store = Some(v.into()),
                Arg::Value("--cell-timeout", v) => {
                    let secs = parse_positive("--cell-timeout", v, " second")?;
                    args.cell_timeout = Some(Duration::from_secs(secs));
                }
                Arg::Value("--retries", v) => {
                    let n = v
                        .parse()
                        .map_err(|_| format!("invalid --retries value '{v}'"))?;
                    args.retries = Some(n);
                }
                Arg::Value("--shard", v) => args.shard = Some(parse_shard(v)?),
                Arg::Value("--format", v) => {
                    args.format = Format::parse(v).ok_or_else(|| {
                        format!("invalid --format '{v}' (expected text, csv, or json)")
                    })?;
                }
                Arg::Value("--out", v) => args.out = Some(parse_out(v)?),
                Arg::Operand(v) if positional.is_some() => {
                    return Err(format!("unexpected argument '{v}'"));
                }
                Arg::Operand(v) => positional = Some(v.to_string()),
                Arg::Switch(flag) | Arg::Value(flag, _) => unreachable!("{flag} has no handler"),
            }
            Ok(())
        })?;
        if quick {
            args.scale = Scale::quick();
        }
        if let Some(n) = seeds {
            args.scale.seeds = n;
        }
        if let Some(f) = fabric {
            args.scale.fabric = f;
        }
        if let Some(f) = faults {
            args.scale.faults = f;
        }
        if let Some(WorkloadSpec::Trace(trace)) = &workload {
            if trace.num_nodes != args.scale.cores {
                return Err(format!(
                    "trace '{}' was recorded on {} cores but this scale runs {} \
                     (re-record at this scale or adjust --quick)",
                    trace.label, trace.num_nodes, args.scale.cores
                ));
            }
        }
        args.scale.workload = workload;
        if args.metrics_every.is_some() && args.metrics.is_none() {
            return Err("--metrics-every requires --metrics".into());
        }
        Ok((args, positional))
    }

    /// Runs `plan` on this invocation's runner, first arming trace
    /// recording and telemetry via [`BenchArgs::run_plan_armed`], then
    /// declares the finished table's `columns` — followed by the
    /// miss-lifecycle span columns under `--spans`, so every driver
    /// honours the flag.
    pub fn run_plan(&self, plan: ExperimentPlan, columns: impl FnOnce(Table) -> Table) -> Table {
        let plan = self.run_plan_armed(plan);
        let table = columns(self.runner().run(&plan));
        if self.spans {
            with_span_columns(table)
        } else {
            table
        }
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
    /// downstream consumer could use) and on I/O errors, naming the
    /// `--out` path when writing it fails. Under `--shard` a table
    /// without cells still emits: a plan with fewer cells than shards
    /// leaves some shards empty by design.
    pub fn emit(&self, table: &Table) -> io::Result<()> {
        if table.columns().is_empty() || (table.cells().is_empty() && self.shard.is_none()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "refusing to emit an empty table",
            ));
        }
        match &self.out {
            Some(path) => {
                let write = || {
                    let mut file = std::fs::File::create(path)?;
                    table.emit(self.format, &mut file)?;
                    file.flush()
                };
                write().map_err(|e| {
                    io::Error::new(e.kind(), format!("cannot write '{}': {e}", path.display()))
                })?;
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

/// `perf_baseline`'s default output path (git-ignored; the committed
/// `BENCH_<pr>.json` ledger is written by `scripts/ab.sh`).
const DEFAULT_OUT: &str = "perf_baseline.json";

/// The flags [`PerfArgs`] accepts; [`perf_usage`] documents each.
const PERF_FLAGS: &[Flag] = &[
    ("--threads", true),
    ("--seeds", true),
    ("--quick", false),
    ("--fabric", true),
    ("--record-trace", true),
    ("--replay-trace", true),
    ("--out", true),
];

fn perf_usage() -> String {
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
         --out PATH     output JSON path (default {DEFAULT_OUT})\n  \
         -h, --help     print this help"
    )
}

/// `perf_baseline`'s command line. Not [`BenchArgs`]: its pinned
/// defaults (`--seeds 3`, `--threads 1`, a fixed `--out` path) define the
/// recorded baseline, and it writes raw JSON rather than a `Table`, so
/// the plan flags and `--format` do not apply.
pub struct PerfArgs {
    /// Worker threads (`--threads N`, default 1).
    pub threads: usize,
    /// Replications of the pinned seed (`--seeds N`, default 3).
    pub seeds: u64,
    /// Shrunk operation count (`--quick`).
    pub quick: bool,
    /// Interconnect fabric (`--fabric F`, default torus).
    pub fabric: FabricKind,
    /// Where to record the first replication's trace (`--record-trace`).
    pub record: Option<PathBuf>,
    /// The trace to replay (`--replay-trace PATH`), read and checked
    /// against the pinned 16 nodes and `--seeds 1` while parsing.
    pub replay: Option<TraceData>,
    /// Output JSON path (`--out PATH`).
    pub out: PathBuf,
}

impl PerfArgs {
    /// Parses the process arguments, or prints usage and exits — with
    /// status 0 for `--help`, status 2 for anything malformed.
    pub fn parse() -> Self {
        parse_or_exit(&process_args(), &perf_usage(), Self::try_parse)
    }

    fn try_parse(raw: &[String]) -> Result<Self, String> {
        let mut args = PerfArgs {
            threads: 1,
            seeds: 3,
            quick: false,
            fabric: FabricKind::Torus,
            record: None,
            replay: None,
            out: PathBuf::from(DEFAULT_OUT),
        };
        let mut replay: Option<PathBuf> = None;
        read(raw, PERF_FLAGS, "argument", |arg| {
            match arg {
                Arg::Switch("--quick") => args.quick = true,
                Arg::Value("--threads", v) => {
                    args.threads = parse_positive("--threads", v, "")? as usize;
                }
                Arg::Value("--seeds", v) => args.seeds = parse_positive("--seeds", v, "")?,
                Arg::Value("--fabric", v) => args.fabric = parse_fabric(v)?,
                Arg::Value("--record-trace", v) => args.record = Some(v.into()),
                Arg::Value("--replay-trace", v) => replay = Some(v.into()),
                Arg::Value("--out", v) => args.out = parse_out(v)?,
                Arg::Operand(v) => return Err(format!("unknown argument '{v}'")),
                Arg::Switch(flag) | Arg::Value(flag, _) => unreachable!("{flag} has no handler"),
            }
            Ok(())
        })?;
        if let Some(path) = replay {
            if args.seeds != 1 {
                return Err(
                    "--replay-trace requires --seeds 1 (a trace replays one recorded run)".into(),
                );
            }
            let trace = TraceReader::read_path(&path)
                .map_err(|e| format!("cannot replay trace '{}': {e}", path.display()))?;
            if trace.num_nodes != 16 {
                return Err(format!(
                    "trace '{}' was recorded on {} cores but perf_baseline is pinned to 16",
                    trace.label, trace.num_nodes
                ));
            }
            args.replay = Some(trace);
        }
        Ok(args)
    }
}

const MERGE_FLAGS: &[Flag] = &[("-o", true)];

const MERGE_USAGE: &str = "Usage: runplan merge-store <STORE_A> <STORE_B> -o <OUT>

Merges the entries of two result stores into a third (created if
absent). Identical duplicate entries are skipped; the same key holding
two different results is a hard error naming both entry files.";

const STATS_FLAGS: &[Flag] = &[("--prune-stale", false)];

const STATS_USAGE: &str = "Usage: runplan store-stats <DIR> [--prune-stale]

Inventories a result store: entry counts bucketed by code version,
total bytes, quarantined files, and unreadable (corrupt-in-place)
entries. Entries from older code or format versions are counted, not
rejected — no lookup can ever hit them again, and --prune-stale
deletes them to reclaim the space.";

/// A `runplan` result-store subcommand.
pub enum StoreCommand {
    /// `merge-store A B -o OUT`: merge two stores into a third.
    Merge {
        /// The first input store.
        a: PathBuf,
        /// The second input store.
        b: PathBuf,
        /// The output store (created if absent).
        out: PathBuf,
    },
    /// `store-stats DIR [--prune-stale]`: inventory a store.
    Stats {
        /// The store directory.
        dir: PathBuf,
        /// Delete entries stranded by older code or format versions.
        prune_stale: bool,
    },
}

impl StoreCommand {
    /// Parses `runplan`'s arguments as a store subcommand. Returns `None`
    /// when the first argument names none; otherwise the parsed command,
    /// or prints the subcommand's usage and exits like every command line.
    pub fn parse(raw: &[String]) -> Option<Self> {
        let (first, rest) = raw.split_first()?;
        match first.as_str() {
            "merge-store" => Some(parse_or_exit(rest, MERGE_USAGE, Self::try_merge)),
            "store-stats" => Some(parse_or_exit(rest, STATS_USAGE, Self::try_stats)),
            _ => None,
        }
    }

    fn try_merge(raw: &[String]) -> Result<Self, String> {
        let mut inputs = Vec::new();
        let mut out = None;
        read(raw, MERGE_FLAGS, "flag", |arg| {
            match arg {
                Arg::Value(_, v) => out = Some(PathBuf::from(v)),
                Arg::Operand(v) => inputs.push(PathBuf::from(v)),
                Arg::Switch(flag) => unreachable!("{flag} has no handler"),
            }
            Ok(())
        })?;
        match (out, <[PathBuf; 2]>::try_from(inputs)) {
            (Some(out), Ok([a, b])) => Ok(StoreCommand::Merge { a, b, out }),
            _ => Err("merge-store needs two input stores and -o OUT".into()),
        }
    }

    fn try_stats(raw: &[String]) -> Result<Self, String> {
        let mut dir = None;
        let mut prune_stale = false;
        read(raw, STATS_FLAGS, "flag", |arg| {
            match arg {
                Arg::Switch(_) => prune_stale = true,
                Arg::Operand(v) if dir.is_some() => {
                    return Err(format!("unexpected argument '{v}'"));
                }
                Arg::Operand(v) => dir = Some(PathBuf::from(v)),
                Arg::Value(flag, _) => unreachable!("{flag} has no handler"),
            }
            Ok(())
        })?;
        let dir = dir.ok_or("store-stats needs a store directory")?;
        Ok(StoreCommand::Stats { dir, prune_stale })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use patchsim::TraceWriter;

    use super::*;
    use crate::columns::with_standard_columns;

    fn strings(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// The flags a usage text names: every `-x` or `--xyz` word in it,
    /// except `-h`/`--help`, which every command line answers before
    /// its flags are read.
    fn documented(usage: &str) -> BTreeSet<&str> {
        usage
            .split_whitespace()
            .map(|word| word.trim_matches(|c: char| "[](),;'".contains(c)))
            .filter(|word| {
                word.trim_start_matches('-')
                    .starts_with(|c: char| c.is_ascii_alphabetic())
                    && word.starts_with('-')
                    && !matches!(*word, "-h" | "--help")
            })
            .collect()
    }

    /// A 16-node trace on disk, as `--replay-trace` and `--workload
    /// trace:PATH` expect (`nodes` other than 16 make a mismatched one).
    fn trace_file(nodes: u16) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("patchsim_cli_{nodes}_{}.ptrc", std::process::id()));
        TraceWriter::new("cli", 1, nodes, 32)
            .write_path(&path)
            .expect("trace writes");
        path
    }

    /// Each command line: its usage text, its reader's flag table, the
    /// operands and flags that make the rest valid, and its parser with
    /// the parsed value dropped.
    type Parser = fn(&[String]) -> Result<(), String>;

    fn command_lines() -> [(String, &'static [Flag], &'static [&'static str], Parser); 4] {
        [
            (
                OPTIONS_HELP.to_string(),
                BENCH_FLAGS,
                &["--metrics", "m"],
                |raw| BenchArgs::try_parse(raw).map(drop),
            ),
            (perf_usage(), PERF_FLAGS, &["--seeds", "1"], |raw| {
                PerfArgs::try_parse(raw).map(drop)
            }),
            (MERGE_USAGE.to_string(), MERGE_FLAGS, &["a", "b"], |raw| {
                StoreCommand::try_merge(raw).map(drop)
            }),
            (STATS_USAGE.to_string(), STATS_FLAGS, &["dir"], |raw| {
                StoreCommand::try_stats(raw).map(drop)
            }),
        ]
    }

    /// The reader rejects every `-`-word outside its table, so a table
    /// equal to the usage text's flags means no command line accepts a
    /// flag its help does not list, and lists none it rejects.
    #[test]
    fn each_usage_text_lists_exactly_its_readers_flags() {
        for (usage, flags, _, _) in command_lines() {
            let table: BTreeSet<&str> = flags.iter().map(|(name, _)| *name).collect();
            assert_eq!(documented(&usage), table, "{usage}");
        }
    }

    #[test]
    fn every_documented_flag_parses_with_a_valid_value() {
        let trace = trace_file(16);
        let trace = trace.to_str().unwrap();
        for (usage, flags, base, parse) in command_lines() {
            for flag in documented(&usage) {
                let mut raw = strings(base);
                raw.push(flag.to_string());
                let takes_value = flags.iter().any(|&(name, value)| name == flag && value);
                if takes_value {
                    raw.push(
                        match flag {
                            "--fabric" => "mesh",
                            "--faults" => "chaos",
                            "--workload" => "oltp",
                            "--shard" => "1/2",
                            "--format" => "csv",
                            "--replay-trace" => trace,
                            "--seeds" | "--threads" | "--metrics-every" | "--cell-timeout"
                            | "--retries" => "2",
                            _ => "out.path",
                        }
                        .to_string(),
                    );
                }
                assert_eq!(parse(&raw), Ok(()), "{raw:?}");
            }
        }
        std::fs::remove_file(trace).unwrap();
    }

    /// Checks each `(arguments, message)` row against `parse`.
    fn rejects(parse: Parser, cases: &[(&[&str], &str)]) {
        for (raw, message) in cases {
            assert_eq!(parse(&strings(raw)).unwrap_err(), *message, "{raw:?}");
        }
    }

    /// The messages are the ones the binaries printed before the four
    /// parsers shared a reader, except the `--out` rows: a missing
    /// directory used to fail only when the finished table was written.
    #[test]
    fn bench_args_rejections_are_pinned() {
        rejects(
            |raw| BenchArgs::try_parse(raw).map(drop),
            &[
                (&["--seeds"], "--seeds requires a value"),
                (&["--seeds", "0"], "--seeds must be at least 1"),
                (&["--seeds", "zero"], "invalid --seeds value 'zero'"),
                (&["--threads", "0"], "--threads must be at least 1"),
                (&["--threads", "-3"], "invalid --threads value '-3'"),
                (
                    &["--metrics", "m", "--metrics-every", "0"],
                    "--metrics-every must be at least 1 cycle",
                ),
                (
                    &["--metrics-every", "5"],
                    "--metrics-every requires --metrics",
                ),
                (
                    &["--cell-timeout", "0"],
                    "--cell-timeout must be at least 1 second",
                ),
                (
                    &["--fabric", "warp"],
                    "invalid --fabric 'warp' (expected torus, mesh, ring, xbar, or hier[:C])",
                ),
                (
                    &["--format", "yaml"],
                    "invalid --format 'yaml' (expected text, csv, or json)",
                ),
                (&["--format"], "--format requires a value"),
                (
                    &["--faults", "lava"],
                    "invalid --faults 'lava' (expected none, a preset like chaos, or \
                     '+'-joined clauses like delay:0.02:200+dup:0.01)",
                ),
                (
                    &["--workload", "nonsense"],
                    "invalid --workload 'nonsense' (expected a preset like oltp or \
                     svc-zipf, trace:PATH, or open:SPEC)",
                ),
                (
                    &["--workload", "open:warp:5"],
                    "invalid --workload 'open:warp:5': unknown arrival process 'warp' \
                     (fixed, poisson, or burst)",
                ),
                (
                    &["--shard", "3"],
                    "invalid --shard '3' (expected K/N, e.g. 2/4)",
                ),
                (
                    &["--shard", "0/4"],
                    "--shard index K must be in 1..=N (got 0/4)",
                ),
                (
                    &["--shard", "5/4"],
                    "--shard index K must be in 1..=N (got 5/4)",
                ),
                (&["--shard", "1/0"], "--shard count N must be at least 1"),
                (&["--shard", "a/4"], "invalid --shard index 'a/4'"),
                (&["--shard", "1/b"], "invalid --shard count '1/b'"),
                (&["--retries"], "--retries requires a value"),
                (&["--retries", "-1"], "invalid --retries value '-1'"),
                (&["--frobnicate"], "unknown flag '--frobnicate'"),
                (&["fig4", "extra"], "unexpected argument 'extra'"),
                (
                    &["--out", "/nonexistent/dir/x.csv"],
                    "--out '/nonexistent/dir/x.csv': directory '/nonexistent/dir' does not exist",
                ),
            ],
        );
    }

    #[test]
    fn perf_args_rejections_are_pinned() {
        let wrong_size = trace_file(8);
        let wrong_size_arg = wrong_size.to_str().unwrap();
        rejects(
            |raw| PerfArgs::try_parse(raw).map(drop),
            &[
                (&["--threads"], "--threads requires a value"),
                (&["--threads", "0"], "--threads must be at least 1"),
                (&["--seeds", "0"], "--seeds must be at least 1"),
                (&["--seeds", "x"], "invalid --seeds value 'x'"),
                (
                    &["--fabric", "warp"],
                    "invalid --fabric 'warp' (expected torus, mesh, ring, xbar, or hier[:C])",
                ),
                (&["--bogus"], "unknown argument '--bogus'"),
                (&["--format", "csv"], "unknown argument '--format'"),
                (&["extra"], "unknown argument 'extra'"),
                (
                    &["--replay-trace", "x.ptrc"],
                    "--replay-trace requires --seeds 1 (a trace replays one recorded run)",
                ),
                (
                    &["--seeds", "1", "--replay-trace", "/nonexistent/x.ptrc"],
                    "cannot replay trace '/nonexistent/x.ptrc': trace i/o error: \
                     No such file or directory (os error 2)",
                ),
                (
                    &["--seeds", "1", "--replay-trace", wrong_size_arg],
                    "trace 'cli' was recorded on 8 cores but perf_baseline is pinned to 16",
                ),
                (
                    &["--out", "/nonexistent/x.json"],
                    "--out '/nonexistent/x.json': directory '/nonexistent' does not exist",
                ),
            ],
        );
        std::fs::remove_file(wrong_size).unwrap();
    }

    #[test]
    fn store_command_rejections_are_pinned() {
        let needs = "merge-store needs two input stores and -o OUT";
        rejects(
            |raw| StoreCommand::try_merge(raw).map(drop),
            &[
                (&[], needs),
                (&["a", "b"], needs),
                (&["a", "-o", "c"], needs),
                (&["a", "b", "c", "-o", "d"], needs),
                (&["a", "b", "-o"], "-o requires a value"),
                (&["a", "b", "--bogus"], "unknown flag '--bogus'"),
            ],
        );
        rejects(
            |raw| StoreCommand::try_stats(raw).map(drop),
            &[
                (&[], "store-stats needs a store directory"),
                (&["a", "b"], "unexpected argument 'b'"),
                (&["--bogus"], "unknown flag '--bogus'"),
            ],
        );
    }

    #[test]
    fn a_failed_write_names_the_out_path() {
        // A directory that exists, so parsing accepts it, but is no file.
        let dir = std::env::temp_dir();
        let dir = dir.to_str().unwrap();
        // `--shard` lets a cell-free table through to the write.
        let (args, _) = BenchArgs::try_parse(&strings(&["--out", dir, "--shard", "1/1"])).unwrap();
        let table = with_standard_columns(Table::new("t", vec!["config".into()], Vec::new()));
        let err = args.emit(&table).unwrap_err().to_string();
        assert!(err.starts_with(&format!("cannot write '{dir}': ")), "{err}");
    }
}
