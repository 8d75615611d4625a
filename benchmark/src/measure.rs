//! Untraced end-to-end measurement of the in-process workloads: what a
//! caller of `patchsim::run` sees.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::time::Instant;

use patchsim::{RunResult, SimConfig, System};
use patchsim_kernel::digest::Digest;

use crate::metrics::{median, ratio, Outcome, Values};

/// Fresh processes whose median construction time is `setup_s`.
const SETUP_PROBES: usize = 15;

/// How long and how much to measure.
#[derive(Clone, Copy)]
pub struct Budget {
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Sizes are divided by ten and set-up probes cut to three.
    pub quick: bool,
}

/// The simulated statistics of one pass that must repeat exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct SimStats {
    /// Fold of every run's `RunResult::digest()`.
    pub digest: u64,
    /// Sum of `runtime_cycles`.
    pub runtime_cycles: u64,
    /// Pooled mean miss latency, in cycles.
    pub miss_latency_mean: f64,
    /// Link-traversal bytes per measured miss.
    pub link_bytes_per_miss: f64,
    /// Kernel events per measured operation.
    pub events_per_op: f64,
    /// Measured operations completed.
    pub ops_completed: u64,
}

impl SimStats {
    /// The statistics of one pass over a workload's configurations.
    pub fn of<'a>(results: impl IntoIterator<Item = &'a RunResult>) -> Self {
        let mut digest = Digest::new();
        let (mut cycles, mut ops, mut events, mut bytes, mut misses) = (0, 0, 0, 0, 0);
        let (mut latency_sum, mut latency_count) = (0, 0);
        for r in results {
            digest.u64(r.digest());
            cycles += r.runtime_cycles;
            ops += r.ops_completed;
            events += r.events_processed;
            bytes += r.traffic.total_bytes();
            misses += r.measured_misses;
            latency_sum += r.miss_latency.sum();
            latency_count += r.miss_latency.count();
        }
        SimStats {
            digest: digest.finish(),
            runtime_cycles: cycles,
            miss_latency_mean: ratio(latency_sum as f64, latency_count as f64),
            link_bytes_per_miss: ratio(bytes as f64, misses as f64),
            events_per_op: ratio(events as f64, ops as f64),
            ops_completed: ops,
        }
    }

    /// The digest folded to 52 bits, which a JSON number holds exactly.
    fn digest52(&self) -> f64 {
        ((self.digest ^ (self.digest >> 52)) & ((1 << 52) - 1)) as f64
    }

    /// Records these statistics as the per-layer metrics of
    /// [`EXACT`](crate::metrics::EXACT).
    pub fn insert_into(&self, values: &mut Values) {
        values.insert("core.sim.digest", self.digest52());
        values.insert("core.sim.runtime_cycles", self.runtime_cycles as f64);
        values.insert("core.sim.miss_latency_mean", self.miss_latency_mean);
        values.insert("noc.link_bytes_per_miss", self.link_bytes_per_miss);
        values.insert("kernel.events_per_op", self.events_per_op);
    }

    /// The text lines that print these statistics.
    pub fn lines(&self) -> Vec<String> {
        vec![
            format!("core.sim.digest = {:#018x}", self.digest),
            format!("core.sim.runtime_cycles = {} cycles", self.runtime_cycles),
            format!(
                "core.sim.miss_latency_mean = {} cycles",
                self.miss_latency_mean
            ),
            format!(
                "noc.link_bytes_per_miss = {} B/miss",
                self.link_bytes_per_miss
            ),
            format!("kernel.events_per_op = {} events/op", self.events_per_op),
        ]
    }
}

/// Measured operations `config` must complete: nodes x ops per core.
fn quota(config: &SimConfig) -> u64 {
    u64::from(config.protocol.num_nodes) * config.ops_per_core
}

/// Operations one pass attempts, over the configs.
pub fn ops_attempted(configs: &[SimConfig]) -> u64 {
    configs.iter().map(quota).sum()
}

/// Wall seconds and result of `f`, or `None` when it panicked (a panic is
/// a failed pass, never an abort).
pub fn timed<R>(f: impl FnOnce() -> R) -> Option<(f64, R)> {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(f)).ok()?;
    Some((start.elapsed().as_secs_f64(), result))
}

/// One untraced pass: every configuration run once by `patchsim::run`.
pub fn system_pass(configs: &[SimConfig]) -> Option<(f64, Vec<RunResult>)> {
    timed(|| configs.iter().map(patchsim::run).collect())
}

/// Seconds to construct every `System` of the workload once, in this
/// process: what a `setup-probe` child measures and prints.
pub fn construct_seconds(configs: &[SimConfig]) -> f64 {
    let start = Instant::now();
    let systems: Vec<System> = configs.iter().map(|c| System::new(c.clone())).collect();
    let seconds = start.elapsed().as_secs_f64();
    drop(std::hint::black_box(systems));
    seconds
}

/// `setup_s` of an in-process workload: the median over fresh child
/// processes of [`construct_seconds`].
///
/// Constructing and dropping in a loop in one process does not repeat:
/// whether glibc hands the freed cache arrays back to the kernel between
/// constructions depends on what else sits on the heap, and the same
/// construction then costs 2 ms or 10 ms from one seed to the next. A
/// fresh process always pays for fresh pages, as a user's run does.
///
/// # Panics
///
/// Panics when a probe cannot be started or prints no number.
pub fn setup_seconds(workload: &str, seed: u64, quick: bool) -> f64 {
    let exe = std::env::current_exe().expect("the benchmark's own path");
    let samples: Vec<f64> = (0..if quick { 3 } else { SETUP_PROBES })
        .map(|_| {
            let mut probe = Command::new(&exe);
            probe.args(["setup-probe", "--workload", workload]);
            probe.args(["--seed", &seed.to_string()]);
            if quick {
                probe.arg("--quick");
            }
            let output = probe.output().expect("the set-up probe starts");
            String::from_utf8_lossy(&output.stdout)
                .trim()
                .parse()
                .expect("the set-up probe prints seconds")
        })
        .collect();
    median(&samples)
}

/// `VmHWM` of process `pid` in MiB, or `None` once it is gone.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Timed passes accumulated into the end-to-end outcome.
#[derive(Default)]
pub struct Passes {
    walls: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Passes {
    /// Records one timed pass of `ops` operations, of which `failed` did
    /// not produce the expected output.
    pub fn record(&mut self, wall: Option<f64>, ops: u64, failed: u64) {
        self.attempted += ops;
        self.failed += failed;
        if let Some(wall) = wall {
            self.walls.push(wall);
        }
    }

    /// The end-to-end outcome: `ops` operations per pass.
    pub fn finish(
        self,
        ops: u64,
        setup_s: f64,
        peak_rss_mb: f64,
        notes: &mut Vec<String>,
    ) -> Outcome {
        // A workload whose every pass failed still reports numbers (the
        // result line needs them); `correct` is false and says why.
        let wall_s = if self.walls.is_empty() {
            f64::MAX
        } else {
            median(&self.walls)
        };
        let (min, max) = self
            .walls
            .iter()
            .fold((f64::MAX, 0.0_f64), |(lo, hi), &w| (lo.min(w), hi.max(w)));
        notes.push(format!(
            "wall_s: n = {} timed passes, min = {min} s, max = {max} s, in order {:?}",
            self.walls.len(),
            self.walls
        ));
        notes.push(format!(
            "failed_share = {} ({} of {} ops)",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        ));
        let values = Values::from([
            ("wall_s", wall_s),
            ("sim_ops_per_s", ops as f64 / wall_s),
            ("peak_rss_mb", peak_rss_mb),
            ("setup_s", setup_s),
        ]);
        Outcome {
            correct: self.failed == 0 && self.attempted > 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            values,
        }
    }
}

/// Operations of one in-process pass that failed: all of them when the
/// pass panicked or its statistics differ from `expected`, otherwise
/// those of each configuration that fell short of its quota.
pub fn failed_ops(
    configs: &[SimConfig],
    results: Option<&[RunResult]>,
    expected: Option<&SimStats>,
) -> u64 {
    let Some(results) = results else {
        return ops_attempted(configs);
    };
    if expected.is_some_and(|e| *e != SimStats::of(results)) {
        return ops_attempted(configs);
    }
    configs
        .iter()
        .zip(results)
        .filter(|(c, r)| r.ops_completed != quota(c))
        .map(|(c, _)| quota(c))
        .sum()
}

/// The untraced run of the in-process workload `workload`, whose
/// configurations at `seed` are `configs`.
pub fn end_to_end(
    workload: &str,
    seed: u64,
    configs: &[SimConfig],
    budget: Budget,
    notes: &mut Vec<String>,
) -> Outcome {
    let setup_s = setup_seconds(workload, seed, budget.quick);
    let ops = ops_attempted(configs);
    // One untimed pass fills the allocator and the host caches, and fixes
    // the statistics every timed pass must reproduce.
    let first = system_pass(configs).map(|(_, r)| SimStats::of(&r));
    let mut passes = Passes::default();
    let start = Instant::now();
    loop {
        let timed = system_pass(configs);
        let results = timed.as_ref().map(|(_, r)| r.as_slice());
        let failed = failed_ops(configs, results, first.as_ref());
        passes.record(timed.as_ref().map(|(w, _)| *w), ops, failed);
        if start.elapsed().as_secs_f64() >= budget.seconds {
            break;
        }
    }
    match &first {
        Some(stats) => notes.extend(stats.lines()),
        None => notes.push("the untimed pass panicked".into()),
    }
    let rss = peak_rss_mib(std::process::id()).unwrap_or(0.0);
    let mut outcome = passes.finish(ops, setup_s, rss, notes);
    outcome.correct &= first.is_some();
    outcome
}
