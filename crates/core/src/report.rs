//! Summaries of repeated runs: means, confidence intervals, percentiles,
//! and figure-style formatting helpers.

use std::ops::Index;

use patchsim_kernel::stats::{ConfidenceInterval, Histogram};

use crate::telemetry::SpanStats;
use crate::{RunResult, TrafficClass};

/// Per-class mean bytes per miss, with one slot per [`TrafficClass::ALL`]
/// entry — the representation is tied to the class list, so adding a
/// traffic class cannot silently truncate the breakdown.
///
/// # Examples
///
/// ```
/// use patchsim::{ClassBytes, TrafficClass};
///
/// let cb = ClassBytes::from_fn(|class| {
///     if class == TrafficClass::Data { 72.0 } else { 0.0 }
/// });
/// assert_eq!(cb[TrafficClass::Data], 72.0);
/// assert_eq!(cb.iter().filter(|(_, v)| *v > 0.0).count(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassBytes([f64; TrafficClass::ALL.len()]);

impl ClassBytes {
    /// Builds a breakdown by evaluating `f` for every traffic class.
    pub fn from_fn(mut f: impl FnMut(TrafficClass) -> f64) -> Self {
        let mut values = [0.0; TrafficClass::ALL.len()];
        for (slot, class) in values.iter_mut().zip(TrafficClass::ALL) {
            *slot = f(class);
        }
        ClassBytes(values)
    }

    /// The value for one traffic class.
    pub fn get(&self, class: TrafficClass) -> f64 {
        self[class]
    }

    /// Iterates `(class, value)` pairs in [`TrafficClass::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (TrafficClass, f64)> + '_ {
        TrafficClass::ALL.into_iter().zip(self.0)
    }

    /// Sum across all classes.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

impl Index<TrafficClass> for ClassBytes {
    type Output = f64;

    fn index(&self, class: TrafficClass) -> &f64 {
        let idx = TrafficClass::ALL
            .iter()
            .position(|c| *c == class)
            .expect("every class is in ALL");
        &self.0[idx]
    }
}

/// Miss-latency percentiles pooled over every run of a configuration, in
/// cycles. Derived from the power-of-two bucketed [`Histogram`] each run
/// already collects, so values are exact to within one octave (p-th
/// sample's bucket lower bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyPercentiles {
    /// Median miss latency.
    pub p50: u64,
    /// 95th-percentile miss latency.
    pub p95: u64,
    /// 99th-percentile miss latency.
    pub p99: u64,
}

impl LatencyPercentiles {
    /// Extracts the percentiles from a latency histogram.
    pub fn from_histogram(h: &Histogram) -> Self {
        LatencyPercentiles {
            p50: h.percentile(0.50),
            p95: h.percentile(0.95),
            p99: h.percentile(0.99),
        }
    }
}

/// Saturation metrics pooled over every run of an open-loop
/// configuration. Present on a [`RunSummary`] only when **all** of its
/// runs carried [`crate::OpenLoopStats`] — closed-loop sweeps are
/// unaffected.
///
/// Rates are per kilocycle of measured runtime so the offered/achieved
/// comparison reads directly: an unsaturated cell has
/// `goodput_per_kcycle` tracking `offered_per_kcycle`; past the knee
/// goodput flattens, `drop_pct` rises, and `sojourn` grows without
/// bound while the issue→completion miss latency stays flat.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpenLoopSummary {
    /// Arrival→completion sojourn percentiles pooled over all runs.
    pub sojourn: LatencyPercentiles,
    /// Measured arrivals per 1000 cycles of measured runtime (the
    /// offered load actually presented, mean across runs).
    pub offered_per_kcycle: f64,
    /// Measured completions per 1000 cycles of measured runtime (the
    /// achieved goodput, mean across runs).
    pub goodput_per_kcycle: f64,
    /// Percentage of measured arrivals dropped by full backlogs.
    pub drop_pct: f64,
    /// Highest backlog depth any core reached in any run.
    pub backlog_hwm: u64,
    /// Mean cycles per run that arrival processes spent stalled under
    /// the `block` overload policy.
    pub blocked_cycles: f64,
}

/// Miss-lifecycle phase means pooled over every run of a configuration,
/// in cycles. Present on a [`RunSummary`] only when **all** of its runs
/// collected spans (`telemetry.spans`); the three protocol phases sum to
/// the end-to-end mean miss latency by construction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanSummary {
    /// Mean open-loop arrival→issue wait (0 for closed-loop runs).
    pub queue_wait_mean: f64,
    /// Mean issue→first-response time.
    pub network_mean: f64,
    /// Mean first-response→ordering-point time.
    pub home_mean: f64,
    /// Mean ordering-point→completion time.
    pub token_wait_mean: f64,
}

impl SpanSummary {
    /// Extracts phase means from pooled span histograms.
    pub fn from_spans(spans: &SpanStats) -> Self {
        SpanSummary {
            queue_wait_mean: spans.queue_wait.mean(),
            network_mean: spans.network.mean(),
            home_mean: spans.home.mean(),
            token_wait_mean: spans.token_wait.mean(),
        }
    }
}

/// Statistics over a set of perturbed runs of one configuration.
///
/// # Examples
///
/// ```
/// use patchsim::{run_many, summarize, ProtocolKind, SimConfig, WorkloadSpec};
///
/// let cfg = SimConfig::new(ProtocolKind::Directory, 4)
///     .with_workload(WorkloadSpec::Microbenchmark {
///         table_blocks: 64,
///         write_frac: 0.3,
///         think_mean: 5,
///     })
///     .with_ops_per_core(50);
/// let summary = summarize(&run_many(&cfg, 3));
/// assert!(summary.runtime.mean > 0.0);
/// assert!(summary.miss_latency_percentiles.p99 >= summary.miss_latency_percentiles.p50);
/// ```
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Protocol display name.
    pub protocol: &'static str,
    /// Runtime in cycles, with 95% CI over the runs.
    pub runtime: ConfidenceInterval,
    /// Interconnect bytes per demand miss, with 95% CI.
    pub bytes_per_miss: ConfidenceInterval,
    /// Mean measured miss latency across runs.
    pub miss_latency: ConfidenceInterval,
    /// Miss-latency percentiles pooled over all runs.
    pub miss_latency_percentiles: LatencyPercentiles,
    /// Per-class mean bytes per miss.
    pub class_bytes_per_miss: ClassBytes,
    /// Mean number of best-effort packets dropped per run.
    pub dropped_packets: f64,
    /// Open-loop saturation metrics — `Some` iff every run was
    /// open-loop.
    pub open_loop: Option<OpenLoopSummary>,
    /// Miss-lifecycle phase means — `Some` iff every run collected
    /// spans.
    pub spans: Option<SpanSummary>,
    /// The individual runs.
    pub runs: Vec<RunResult>,
}

impl RunSummary {
    /// Mean bytes per miss for one traffic class.
    pub fn class_mean(&self, class: TrafficClass) -> f64 {
        self.class_bytes_per_miss[class]
    }
}

/// Aggregates a set of runs (typically from [`crate::run_many`]) into a
/// [`RunSummary`].
///
/// # Panics
///
/// Panics if `runs` is empty.
pub fn summarize(runs: &[RunResult]) -> RunSummary {
    assert!(!runs.is_empty(), "cannot summarize zero runs");
    let runtime = ConfidenceInterval::from_samples(
        &runs
            .iter()
            .map(|r| r.runtime_cycles as f64)
            .collect::<Vec<_>>(),
    );
    let bytes_per_miss = ConfidenceInterval::from_samples(
        &runs.iter().map(|r| r.bytes_per_miss()).collect::<Vec<_>>(),
    );
    let miss_latency = ConfidenceInterval::from_samples(
        &runs.iter().map(|r| r.miss_latency_mean).collect::<Vec<_>>(),
    );
    let mut pooled_latency = Histogram::new();
    for r in runs {
        pooled_latency.merge(&r.miss_latency);
    }
    let class_bytes_per_miss = ClassBytes::from_fn(|class| {
        runs.iter()
            .map(|r| r.class_bytes_per_miss(class))
            .sum::<f64>()
            / runs.len() as f64
    });
    let dropped_packets = runs
        .iter()
        .map(|r| r.traffic.dropped_packets() as f64)
        .sum::<f64>()
        / runs.len() as f64;
    let open_loop = if runs.iter().all(|r| r.open_loop.is_some()) {
        let n = runs.len() as f64;
        let mut sojourn = Histogram::new();
        let mut backlog_hwm = 0;
        let (mut arrivals, mut drops, mut blocked) = (0u64, 0u64, 0u64);
        let (mut offered, mut goodput) = (0.0, 0.0);
        for r in runs {
            let ol = r.open_loop.as_ref().expect("checked above");
            sojourn.merge(&ol.sojourn);
            backlog_hwm = backlog_hwm.max(ol.backlog_hwm);
            arrivals += ol.measured_arrivals;
            drops += ol.measured_drops;
            blocked += ol.blocked_cycles;
            let kcycles = r.runtime_cycles.max(1) as f64 / 1000.0;
            offered += ol.measured_arrivals as f64 / kcycles;
            goodput += r.ops_completed as f64 / kcycles;
        }
        Some(OpenLoopSummary {
            sojourn: LatencyPercentiles::from_histogram(&sojourn),
            offered_per_kcycle: offered / n,
            goodput_per_kcycle: goodput / n,
            drop_pct: if arrivals > 0 {
                100.0 * drops as f64 / arrivals as f64
            } else {
                0.0
            },
            backlog_hwm,
            blocked_cycles: blocked as f64 / n,
        })
    } else {
        None
    };
    let spans = if runs.iter().all(|r| r.spans.is_some()) {
        let mut pooled = SpanStats::default();
        for r in runs {
            pooled.merge(r.spans.as_ref().expect("checked above"));
        }
        Some(SpanSummary::from_spans(&pooled))
    } else {
        None
    };
    RunSummary {
        protocol: runs[0].protocol,
        runtime,
        bytes_per_miss,
        miss_latency,
        miss_latency_percentiles: LatencyPercentiles::from_histogram(&pooled_latency),
        class_bytes_per_miss,
        dropped_packets,
        open_loop,
        spans,
        runs: runs.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_many, ProtocolKind, SimConfig, WorkloadSpec};

    fn runs() -> Vec<RunResult> {
        let cfg = SimConfig::new(ProtocolKind::Directory, 4)
            .with_workload(WorkloadSpec::Microbenchmark {
                table_blocks: 32,
                write_frac: 0.3,
                think_mean: 2,
            })
            .with_ops_per_core(50);
        run_many(&cfg, 3)
    }

    #[test]
    fn summary_aggregates() {
        let summary = summarize(&runs());
        assert_eq!(summary.protocol, "Directory");
        assert!(summary.runtime.mean > 0.0);
        assert!(summary.bytes_per_miss.mean > 0.0);
        assert_eq!(summary.runs.len(), 3);
        // Data traffic dominates a miss-heavy microbenchmark.
        assert!(summary.class_mean(TrafficClass::Data) > 0.0);
        // The per-class breakdown sums to the total.
        let total: f64 = summary.class_bytes_per_miss.total();
        assert!((total - summary.bytes_per_miss.mean).abs() / total < 1e-9);
    }

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let summary = summarize(&runs());
        let p = summary.miss_latency_percentiles;
        assert!(p.p50 > 0);
        assert!(p.p50 <= p.p95);
        assert!(p.p95 <= p.p99);
        let max = summary.runs.iter().map(|r| r.miss_latency.max()).max();
        assert!(p.p99 <= max.unwrap());
    }

    #[test]
    #[should_panic(expected = "zero runs")]
    fn empty_summary_panics() {
        summarize(&[]);
    }
}
