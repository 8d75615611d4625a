//! What a run returns: the measured [`RunResult`], the open-loop
//! saturation accounting folded into it, and the typed infrastructure
//! failures of [`System::try_run`](crate::System::try_run).

use std::fmt;
use std::hash::Hasher;
use std::path::PathBuf;
use std::time::Duration;

use patchsim_kernel::collections::FxHasher;
use patchsim_kernel::stats::Histogram;
use patchsim_protocol::ProtocolCounters;
use patchsim_trace::TraceError;

use crate::telemetry::{ProfileStats, SpanStats};
use crate::{TrafficClass, TrafficStats};

/// An infrastructure failure from
/// [`System::try_run`](crate::System::try_run): the simulation could not
/// produce (or finish publishing) a result for a reason that is *not* a
/// protocol bug. Protocol bugs — invariant violations, deadlock,
/// livelock — still panic, because they invalidate the simulation itself;
/// the experiment runner isolates those panics per cell instead.
#[derive(Debug)]
pub enum RunError {
    /// The run completed but its recorded trace (`record_trace`) could
    /// not be written.
    TraceWrite {
        /// The trace output path.
        path: PathBuf,
        /// The underlying encoder or filesystem error.
        source: TraceError,
    },
    /// The run exceeded its wall-clock budget before finishing.
    Timeout {
        /// The configured per-run wall-clock limit.
        limit: Duration,
    },
    /// The run completed but its epoch-metrics JSONL (`telemetry.metrics`)
    /// could not be written.
    MetricsWrite {
        /// The metrics output path.
        path: PathBuf,
        /// The underlying filesystem error.
        source: std::io::Error,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::TraceWrite { path, source } => {
                write!(f, "failed to write trace {}: {source}", path.display())
            }
            RunError::Timeout { limit } => {
                write!(f, "simulation exceeded its {limit:?} wall-clock budget")
            }
            RunError::MetricsWrite { path, source } => {
                write!(f, "failed to write metrics {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::TraceWrite { source, .. } => Some(source),
            RunError::Timeout { .. } => None,
            RunError::MetricsWrite { source, .. } => Some(source),
        }
    }
}

/// Saturation accounting of an open-loop run
/// ([`WorkloadSpec::OpenLoop`](crate::WorkloadSpec::OpenLoop)): what
/// happened between arrival and completion, summed over cores.
///
/// `measured_*` counters follow the same convention as
/// [`RunResult::measured_misses`]: counted once the core is past its own
/// warmup quota and reset when the *last* core crosses (so early
/// finishers' samples are discarded with the rest of the warmup state).
/// The remaining counters cover the whole run including warmup.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopStats {
    /// Operations that arrived (entered a backlog, went straight into
    /// service, were dropped, or stalled the arrival process).
    pub arrivals: u64,
    /// Arrivals discarded by a full backlog under
    /// [`OverloadPolicy::Drop`](crate::OverloadPolicy::Drop).
    pub drops: u64,
    /// Arrivals after this core's warmup (reset at the global warmup
    /// boundary).
    pub measured_arrivals: u64,
    /// Drops after this core's warmup (reset at the global warmup
    /// boundary).
    pub measured_drops: u64,
    /// Total cycles arrival processes spent stalled by a full backlog
    /// under [`OverloadPolicy::Block`](crate::OverloadPolicy::Block).
    pub blocked_cycles: u64,
    /// Highest queued (not yet in service) backlog depth any core
    /// reached.
    pub backlog_hwm: u64,
    /// Operations still queued or in service when the event loop
    /// drained. The arrival budget is bounded (quota per core) and every
    /// drawn arrival resolves, so this is 0 for a completed run; it
    /// exists to make the conservation identity `arrivals == completions
    /// + drops + in_flight_at_horizon` checkable rather than assumed.
    pub in_flight_at_horizon: u64,
    /// Measured arrival→completion sojourn times — the open-loop latency
    /// that keeps growing past the knee while the issue→completion
    /// [`RunResult::miss_latency`] flattens.
    pub sojourn: Histogram,
}

impl OpenLoopStats {
    /// Merges another run's stats into this one (histograms pooled) —
    /// the open-loop analogue of summing counters across replications.
    pub fn merge(&mut self, other: &OpenLoopStats) {
        self.arrivals += other.arrivals;
        self.drops += other.drops;
        self.measured_arrivals += other.measured_arrivals;
        self.measured_drops += other.measured_drops;
        self.blocked_cycles += other.blocked_cycles;
        self.backlog_hwm = self.backlog_hwm.max(other.backlog_hwm);
        self.in_flight_at_horizon += other.in_flight_at_horizon;
        self.sojourn.merge(&other.sojourn);
    }
}

/// The measured outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Protocol display name.
    pub protocol: &'static str,
    /// Cycles from the end of warmup until the last measured operation
    /// completed.
    pub runtime_cycles: u64,
    /// Measured operations completed (should equal `cores × ops_per_core`).
    pub ops_completed: u64,
    /// Interconnect traffic during the measured phase.
    pub traffic: TrafficStats,
    /// Aggregated controller counters (all nodes, whole run including
    /// warmup).
    pub counters: ProtocolCounters,
    /// Measured demand misses (from completions, excluding warmup).
    pub measured_misses: u64,
    /// Mean measured miss latency in cycles.
    pub miss_latency_mean: f64,
    /// Full measured miss-latency distribution.
    pub miss_latency: Histogram,
    /// Coherence checks performed (0 when checking is off).
    pub coherence_checks: u64,
    /// Token audits performed (0 when checking is off).
    pub token_audits: u64,
    /// Total kernel events processed over the whole run (including
    /// warmup) — the denominator of simulator-throughput benchmarks.
    pub events_processed: u64,
    /// Open-loop saturation accounting; `None` for every closed-loop
    /// workload (so closed-loop digests and stored results are
    /// untouched by the subsystem's existence).
    pub open_loop: Option<OpenLoopStats>,
    /// Per-miss phase-span histograms; `Some` only when
    /// `telemetry.spans` was enabled. Deliberately **never** folded into
    /// [`RunResult::digest`], so a spans-on run digests identically to
    /// the same run with telemetry off.
    pub spans: Option<SpanStats>,
    /// Host-side per-event-class profile; `Some` only when
    /// `telemetry.profile` was enabled. Wall-clock observations — never
    /// folded into the digest, never persisted to the result store.
    pub profile: Option<ProfileStats>,
}

impl RunResult {
    /// Interconnect bytes per measured demand miss — the unit of the
    /// paper's traffic figures.
    pub fn bytes_per_miss(&self) -> f64 {
        if self.measured_misses == 0 {
            0.0
        } else {
            self.traffic.total_bytes() as f64 / self.measured_misses as f64
        }
    }

    /// Bytes per miss for a single traffic class.
    pub fn class_bytes_per_miss(&self, class: crate::TrafficClass) -> f64 {
        if self.measured_misses == 0 {
            0.0
        } else {
            self.traffic.bytes(class) as f64 / self.measured_misses as f64
        }
    }

    /// Folds the deterministic fields of this result into `h`. Floats
    /// are excluded: everything folded is an exact integer product of
    /// the simulation, so the digest is bit-stable across platforms.
    ///
    /// The field order is pinned — `perf_baseline`'s recorded result
    /// hash (and CI's thread-determinism diff) depend on it, so only
    /// ever append.
    pub fn fold_into(&self, h: &mut FxHasher) {
        h.write_u64(self.runtime_cycles);
        h.write_u64(self.ops_completed);
        h.write_u64(self.measured_misses);
        h.write_u64(self.events_processed);
        for class in TrafficClass::ALL {
            h.write_u64(self.traffic.bytes(class));
            h.write_u64(self.traffic.traversals(class));
        }
        h.write_u64(self.traffic.dropped_packets());
        h.write_u64(self.traffic.dropped_bytes());
        let c = &self.counters;
        for v in [
            c.hits,
            c.misses,
            c.satisfied_before_activation,
            c.tenure_timeouts,
            c.direct_responses,
            c.direct_ignored,
            c.reissues,
            c.persistent_requests,
            c.writebacks,
        ] {
            h.write_u64(v);
        }
        for (lower, count) in self.miss_latency.buckets() {
            h.write_u64(lower);
            h.write_u64(count);
        }
        // Open-loop fields fold only when present, so every pre-existing
        // (closed-loop) digest — including the perf-smoke golden — is
        // unchanged by the subsystem's existence.
        if let Some(open) = &self.open_loop {
            h.write_u64(open.arrivals);
            h.write_u64(open.drops);
            h.write_u64(open.measured_arrivals);
            h.write_u64(open.measured_drops);
            h.write_u64(open.blocked_cycles);
            h.write_u64(open.backlog_hwm);
            h.write_u64(open.in_flight_at_horizon);
            for (lower, count) in open.sojourn.buckets() {
                h.write_u64(lower);
                h.write_u64(count);
            }
        }
    }

    /// The deterministic digest of this result (a fresh
    /// [`fold_into`](RunResult::fold_into)) — the unit of record→replay
    /// bit-identity checks.
    pub fn digest(&self) -> u64 {
        let mut h = FxHasher::default();
        self.fold_into(&mut h);
        h.finish()
    }
}
