//! The experiment runner: executes a plan's cells on a worker pool with
//! deterministic per-cell seed derivation, cell-level fault isolation,
//! and optional result-store caching.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use patchsim_kernel::replicate_seed;

use crate::exp::plan::ExperimentPlan;
use crate::exp::store::{LoadOutcome, ResultStore};
use crate::exp::table::{CellFailure, CellResult, FailureKind, Table};
use crate::report::summarize;
use crate::result::{RunError, RunResult};
use crate::system::try_run;
use crate::SimConfig;

/// Executes every cell of an [`ExperimentPlan`] and aggregates the
/// results into a [`Table`].
///
/// Runs execute on a self-contained `std::thread` worker pool. Each
/// simulation is a pure function of its configuration, and every
/// replication's seed is derived with [`replicate_seed`] from the cell's
/// base seed — never from execution order — so the table is bit-identical
/// whatever the thread count. Grid cells are embarrassingly parallel
/// (Figure 4 alone is 30 independent cells), which makes the pool a
/// wall-clock win on every figure.
///
/// # Fault isolation
///
/// Each `(cell, replication)` run is isolated: a panic inside the
/// simulator (a protocol-invariant check, a livelock watchdog) or a
/// wall-clock timeout ([`with_cell_timeout`](Runner::with_cell_timeout))
/// fails only that cell. Failed runs are retried up to the configured
/// retry budget; cells that still fail are reported as
/// [`CellFailure`]s on the resulting table while every other cell's
/// results stand.
///
/// # Resumability
///
/// With a [`ResultStore`] attached ([`with_store`](Runner::with_store)),
/// every completed run is persisted under its content-addressed key and
/// loaded back on the next invocation, so an interrupted sweep resumes
/// from where it died — recomputing only missing or corrupt entries —
/// and, by determinism, produces a byte-identical table.
#[derive(Debug, Clone)]
pub struct Runner {
    threads: usize,
    store: Option<ResultStore>,
    cell_timeout: Option<Duration>,
    retries: u32,
    progress: bool,
}

/// Shared progress counters for the `--progress` stderr heartbeat.
struct Progress {
    done: AtomicUsize,
    failed: AtomicUsize,
    total: usize,
    start: Instant,
    /// Last heartbeat instant, mutexed so only one worker prints at a
    /// time and lines never interleave.
    last: Mutex<Instant>,
}

impl Progress {
    fn new(total: usize) -> Self {
        let now = Instant::now();
        Progress {
            done: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            total,
            start: now,
            last: Mutex::new(now),
        }
    }

    /// Notes one finished run and emits a throttled (~1/s) heartbeat.
    fn tick(&self, failed: bool) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if failed {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        let mut last = self.last.lock().expect("progress clock poisoned");
        let finished = done == self.total;
        if !finished && last.elapsed() < Duration::from_secs(1) {
            return;
        }
        *last = Instant::now();
        eprintln!(
            "patchsim: progress {done}/{} runs ({} failed), {}s elapsed",
            self.total,
            self.failed.load(Ordering::Relaxed),
            self.start.elapsed().as_secs(),
        );
    }
}

/// How one `(cell, replication)` run failed, after retries.
#[derive(Debug)]
struct ItemFailure {
    kind: FailureKind,
    attempts: u32,
    error: String,
}

/// Store-activity counters, aggregated across workers for the end-of-run
/// summary line.
#[derive(Debug, Default)]
struct StoreStats {
    hits: AtomicU64,
    computed: AtomicU64,
    quarantined: AtomicU64,
}

impl Runner {
    /// A runner using all available hardware parallelism.
    pub fn new() -> Self {
        Runner {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            store: None,
            cell_timeout: None,
            retries: 1,
            progress: false,
        }
    }

    /// A single-threaded runner (runs cells inline, in grid order).
    pub fn serial() -> Self {
        Runner::new().with_threads(1)
    }

    /// Sets the worker count (clamped to at least one).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a result store: completed runs are persisted and prior
    /// runs are loaded instead of recomputed.
    pub fn with_store(mut self, store: ResultStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Sets a wall-clock budget per `(cell, replication)` run. Runs that
    /// exceed it fail with [`FailureKind::Timeout`] (checked
    /// cooperatively inside the event loop, so the worker thread is
    /// reclaimed, not abandoned).
    pub fn with_cell_timeout(mut self, timeout: Duration) -> Self {
        self.cell_timeout = Some(timeout);
        self
    }

    /// Sets how many times a failed run is retried before its cell is
    /// reported failed (default 1; 0 disables retries). Retries mainly
    /// help timeout flakes on loaded machines — a deterministic panic
    /// will simply repeat.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Enables a throttled stderr heartbeat (`patchsim: progress ...`)
    /// reporting runs done/total, failures, and elapsed time — for
    /// watching 10^4-cell sharded sweeps without polluting stdout.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every `(cell, replication)` pair of `plan` and returns one
    /// summarized [`Table`] row per cell, in grid order. Cells whose runs
    /// panic, time out, or cannot write their trace are excluded from the
    /// grid and reported via [`Table::failures`] instead of aborting the
    /// sweep.
    pub fn run(&self, plan: &ExperimentPlan) -> Table {
        let seeds = plan.seeds();
        // One work item per (cell, replication), flattened in grid order.
        let configs: Vec<SimConfig> = plan
            .cells()
            .iter()
            .flat_map(|cell| {
                (0..seeds).map(|rep| {
                    let base = cell.config.seed;
                    let mut cfg = cell.config.clone().with_seed(replicate_seed(base, rep));
                    // Only replication 0 records traces and metrics:
                    // later replications run perturbed seeds, and a
                    // shared output path would be a last-writer-wins
                    // race across the worker pool.
                    if rep > 0 {
                        cfg.record_trace = None;
                        cfg.telemetry.metrics = None;
                    }
                    cfg
                })
            })
            .collect();
        let stats = StoreStats::default();
        let results = self.execute(&configs, &stats);
        if self.store.is_some() {
            eprintln!(
                "patchsim: store: {} loaded, {} computed, {} quarantined",
                stats.hits.load(Ordering::Relaxed),
                stats.computed.load(Ordering::Relaxed),
                stats.quarantined.load(Ordering::Relaxed),
            );
        }
        let mut cells = Vec::new();
        let mut failures = Vec::new();
        for (cell, outcomes) in plan.cells().iter().zip(results.chunks(seeds as usize)) {
            let failed = outcomes.iter().find_map(|o| o.as_ref().err());
            match failed {
                None => {
                    let runs: Vec<RunResult> = outcomes
                        .iter()
                        .map(|o| o.as_ref().expect("checked above").clone())
                        .collect();
                    cells.push(CellResult {
                        labels: cell.labels.clone(),
                        config: cell.config.clone(),
                        summary: summarize(&runs),
                    });
                }
                Some(failure) => failures.push(CellFailure {
                    labels: cell.labels.clone(),
                    config: cell.config.clone(),
                    kind: failure.kind,
                    attempts: failure.attempts,
                    error: failure.error.clone(),
                }),
            }
        }
        Table::new(plan.name(), plan.axis_names().to_vec(), cells).with_cell_failures(failures)
    }

    /// Runs every configuration and returns per-item outcomes in input
    /// order, regardless of which worker executed which run.
    fn execute(
        &self,
        configs: &[SimConfig],
        stats: &StoreStats,
    ) -> Vec<Result<RunResult, ItemFailure>> {
        let threads = self.threads.min(configs.len()).max(1);
        let progress = self.progress.then(|| Progress::new(configs.len()));
        if threads == 1 {
            return configs
                .iter()
                .map(|c| {
                    let outcome = self.run_item(c, stats);
                    if let Some(p) = &progress {
                        p.tick(outcome.is_err());
                    }
                    outcome
                })
                .collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<RunResult, ItemFailure>>>> =
            configs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= configs.len() {
                        break;
                    }
                    let outcome = self.run_item(&configs[i], stats);
                    if let Some(p) = &progress {
                        p.tick(outcome.is_err());
                    }
                    *slots[i].lock().expect("result slot poisoned") = Some(outcome);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker filled every claimed slot")
            })
            .collect()
    }

    /// Executes one `(cell, replication)` run: store lookup, isolated
    /// execution with retries, store write-back.
    fn run_item(&self, config: &SimConfig, stats: &StoreStats) -> Result<RunResult, ItemFailure> {
        // Runs with a side output — a recorded trace or a metrics time
        // series — always execute (a cache hit would skip the run that
        // writes the file); their result is still saved for future
        // plain invocations.
        if config.record_trace.is_none() && config.telemetry.metrics.is_none() {
            if let Some(store) = &self.store {
                let key = crate::exp::store::cell_key(config);
                match store.load(key) {
                    Ok(LoadOutcome::Hit(result)) => {
                        stats.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(*result);
                    }
                    Ok(LoadOutcome::Miss) => {}
                    Ok(LoadOutcome::Quarantined { path, reason }) => {
                        stats.quarantined.fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "patchsim: quarantined corrupt store entry {} ({reason}); recomputing",
                            path.display()
                        );
                    }
                    Err(e) => {
                        eprintln!("patchsim: result store read failed ({e}); recomputing");
                    }
                }
            }
        }
        let attempts = self.retries + 1;
        let mut last = None;
        for attempt in 1..=attempts {
            match run_isolated(config, self.cell_timeout) {
                Ok(result) => {
                    stats.computed.fetch_add(1, Ordering::Relaxed);
                    if let Some(store) = &self.store {
                        let key = crate::exp::store::cell_key(config);
                        if let Err(e) = store.save(key, &result) {
                            eprintln!("patchsim: result store write failed ({e})");
                        }
                    }
                    return Ok(result);
                }
                Err(failure) => {
                    let fatal = matches!(
                        failure.kind,
                        FailureKind::TraceWrite | FailureKind::MetricsWrite
                    );
                    last = Some(ItemFailure {
                        attempts: attempt,
                        ..failure
                    });
                    // A failed trace or metrics write is an environment
                    // problem (bad path, full disk): retrying the
                    // simulation cannot fix it.
                    if fatal {
                        break;
                    }
                }
            }
        }
        Err(last.expect("at least one attempt ran"))
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new()
    }
}

/// Runs one simulation inside a panic boundary, classifying the outcome.
fn run_isolated(config: &SimConfig, timeout: Option<Duration>) -> Result<RunResult, ItemFailure> {
    // AssertUnwindSafe: the closure owns a fresh clone of the config and
    // the System it builds; nothing outside the boundary can observe a
    // broken invariant after an unwind.
    match catch_unwind(AssertUnwindSafe(|| try_run(config, timeout))) {
        Ok(Ok(result)) => Ok(result),
        Ok(Err(e @ RunError::Timeout { .. })) => Err(ItemFailure {
            kind: FailureKind::Timeout,
            attempts: 0,
            error: e.to_string(),
        }),
        Ok(Err(e @ RunError::TraceWrite { .. })) => Err(ItemFailure {
            kind: FailureKind::TraceWrite,
            attempts: 0,
            error: e.to_string(),
        }),
        Ok(Err(e @ RunError::MetricsWrite { .. })) => Err(ItemFailure {
            kind: FailureKind::MetricsWrite,
            attempts: 0,
            error: e.to_string(),
        }),
        Err(payload) => Err(ItemFailure {
            kind: FailureKind::Panic,
            attempts: 0,
            error: panic_message(&payload),
        }),
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::{AxisValue, Sweep};
    use crate::{ProtocolKind, WorkloadSpec};

    fn tiny_plan(seeds: u64) -> ExperimentPlan {
        let base = SimConfig::new(ProtocolKind::Directory, 4)
            .with_workload(WorkloadSpec::Microbenchmark {
                table_blocks: 32,
                write_frac: 0.3,
                think_mean: 2,
            })
            .with_ops_per_core(40);
        Sweep::new("tiny", base)
            .axis(
                "config",
                vec![
                    AxisValue::new("Directory", |c| c),
                    AxisValue::new("PATCH", |c| c.with_kind(ProtocolKind::Patch)),
                    AxisValue::new("TokenB", |c| c.with_kind(ProtocolKind::TokenB)),
                ],
            )
            .axis(
                "seed",
                vec![
                    AxisValue::new("s1", |c| c.with_seed(1)),
                    AxisValue::new("s2", |c| c.with_seed(2)),
                ],
            )
            .seeds(seeds)
            .build()
    }

    #[test]
    fn parallel_matches_serial_cell_for_cell() {
        let plan = tiny_plan(2);
        let serial = Runner::serial().run(&plan);
        let parallel = Runner::new().with_threads(4).run(&plan);
        assert_eq!(serial.cells().len(), parallel.cells().len());
        for (a, b) in serial.cells().iter().zip(parallel.cells().iter()) {
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.summary.runtime, b.summary.runtime);
            assert_eq!(a.summary.bytes_per_miss, b.summary.bytes_per_miss);
            for (ra, rb) in a.summary.runs.iter().zip(b.summary.runs.iter()) {
                assert_eq!(ra.runtime_cycles, rb.runtime_cycles);
                assert_eq!(ra.traffic, rb.traffic);
                assert_eq!(ra.measured_misses, rb.measured_misses);
            }
        }
    }

    #[test]
    fn replications_use_derived_seeds() {
        let plan = tiny_plan(3);
        let table = Runner::serial().run(&plan);
        let runs = &table.cells()[0].summary.runs;
        assert_eq!(runs.len(), 3);
        // Replications differ from each other (the seeds really changed).
        assert!(
            runs[0].runtime_cycles != runs[1].runtime_cycles
                || runs[1].runtime_cycles != runs[2].runtime_cycles
        );
    }

    #[test]
    fn oversized_thread_count_is_clamped() {
        let plan = tiny_plan(1);
        let table = Runner::new().with_threads(64).run(&plan);
        assert_eq!(table.cells().len(), 6);
    }

    /// A plan whose "tiny budget" axis value livelocks the cycle cap,
    /// making that one cell panic deterministically.
    fn plan_with_poison_cell() -> ExperimentPlan {
        let base = SimConfig::new(ProtocolKind::Directory, 4)
            .with_workload(WorkloadSpec::Microbenchmark {
                table_blocks: 32,
                write_frac: 0.3,
                think_mean: 2,
            })
            .with_ops_per_core(40);
        Sweep::new("poison", base)
            .axis(
                "budget",
                vec![
                    AxisValue::new("normal", |c| c),
                    AxisValue::new("tiny", |mut c| {
                        c.max_cycles = 10;
                        c
                    }),
                ],
            )
            .build()
    }

    #[test]
    fn panicking_cell_is_isolated_and_reported() {
        let table = Runner::serial().run(&plan_with_poison_cell());
        assert_eq!(table.cells().len(), 1);
        assert_eq!(table.cells()[0].labels, vec!["normal".to_string()]);
        assert_eq!(table.failures().len(), 1);
        let failure = &table.failures()[0];
        assert_eq!(failure.labels, vec!["tiny".to_string()]);
        assert_eq!(failure.kind, FailureKind::Panic);
        // Default policy: one retry, so two attempts.
        assert_eq!(failure.attempts, 2);
        assert!(!failure.error.is_empty());
    }

    #[test]
    fn panicking_cell_is_isolated_across_the_pool() {
        let table = Runner::new()
            .with_threads(4)
            .with_retries(0)
            .run(&plan_with_poison_cell());
        assert_eq!(table.cells().len(), 1);
        assert_eq!(table.failures().len(), 1);
        assert_eq!(table.failures()[0].attempts, 1);
    }

    #[test]
    fn timed_out_cell_is_reported_not_fatal() {
        let base = SimConfig::new(ProtocolKind::Directory, 4)
            .with_workload(WorkloadSpec::Microbenchmark {
                table_blocks: 32,
                write_frac: 0.3,
                think_mean: 2,
            })
            .with_ops_per_core(200_000);
        let plan = Sweep::new("slow", base)
            .axis("only", vec![AxisValue::new("cell", |c| c)])
            .build();
        let table = Runner::serial()
            .with_cell_timeout(Duration::from_nanos(1))
            .with_retries(0)
            .run(&plan);
        assert_eq!(table.cells().len(), 0);
        assert_eq!(table.failures().len(), 1);
        assert_eq!(table.failures()[0].kind, FailureKind::Timeout);
        assert_eq!(table.failures()[0].attempts, 1);
    }
}
