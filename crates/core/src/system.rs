//! System assembly and the simulation event loop.

use std::collections::VecDeque;
use std::fmt;
use std::hash::Hasher;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use patchsim_kernel::collections::FxHasher;
use patchsim_kernel::stats::Histogram;
use patchsim_kernel::{streams, Cycle, EventQueue, SimRng};
use patchsim_noc::{Fabric, NocEvent, NodeId};
use patchsim_protocol::{
    build_controller, Completion, Controller, CoreResponse, MemOp, Msg, Outbox, ProtocolCounters,
    ProtocolGauges, TimerKey,
};
use patchsim_trace::{TraceError, TraceWriter};
use patchsim_workload::{Generator, OverloadPolicy, WorkloadSpec};

use crate::checker::{CoherenceChecker, TokenAuditor};
use crate::config::{CheckLevel, SimConfig};
use crate::telemetry::{
    run_header_fields, EventClass, FdrGuard, FlightRecorder, MetricsBuf, MetricsSample,
    ProfileStats, SpanStats,
};
use crate::{TrafficClass, TrafficStats};

#[derive(Debug)]
enum Event {
    Noc(NocEvent<Msg>),
    Timer {
        node: NodeId,
        key: TimerKey,
    },
    CoreIssue {
        node: NodeId,
    },
    /// An open-loop operation arrives at its core (decoupled from
    /// completions); only ever scheduled for
    /// [`WorkloadSpec::OpenLoop`] workloads.
    Arrival {
        node: NodeId,
    },
    /// Periodic starvation scan; only ever scheduled when
    /// `SimConfig::liveness_horizon` is set.
    Watchdog,
}

#[derive(Debug)]
struct CoreState {
    generator: Generator,
    /// The op picked by the generator, waiting out its think time.
    pending: Option<MemOp>,
    /// The op currently outstanding as a miss.
    outstanding: Option<MemOp>,
    /// When the outstanding miss was issued (watchdog bookkeeping).
    outstanding_since: Cycle,
    ops_done: u64,
    finished: bool,
    /// Open-loop only: queued arrivals awaiting service, each with its
    /// arrival cycle (the sojourn clock's start).
    backlog: VecDeque<(MemOp, Cycle)>,
    /// Open-loop only: the op drawn for the next scheduled
    /// [`Event::Arrival`].
    next_arrival: Option<MemOp>,
    /// Open-loop only: an arrival stalled by a full backlog under
    /// [`OverloadPolicy::Block`], with its original arrival cycle.
    blocked: Option<(MemOp, Cycle)>,
    /// Open-loop only: arrivals drawn from the generator so far (the
    /// per-core arrival budget is the warmup + measured quota).
    arrivals_drawn: u64,
    /// Open-loop only: arrival cycle of the op currently in service
    /// (`pending` or `outstanding`).
    in_service_since: Cycle,
}

/// An infrastructure failure from [`System::try_run`]: the simulation
/// could not produce (or finish publishing) a result for a reason that is
/// *not* a protocol bug. Protocol bugs — invariant violations, deadlock,
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

/// Saturation accounting of an open-loop run ([`WorkloadSpec::OpenLoop`]):
/// what happened between arrival and completion, summed over cores.
///
/// `measured_*` counters follow the same convention as
/// [`RunResult::measured_misses`]: counted once the core is past its own
/// warmup quota and reset when the *last* core crosses (so early
/// finishers' samples are discarded with the rest of the warmup state).
/// The remaining counters cover the whole run including warmup.
#[derive(Debug, Clone)]
pub struct OpenLoopStats {
    /// Operations that arrived (entered a backlog, went straight into
    /// service, were dropped, or stalled the arrival process).
    pub arrivals: u64,
    /// Arrivals discarded by a full backlog under
    /// [`OverloadPolicy::Drop`].
    pub drops: u64,
    /// Arrivals after this core's warmup (reset at the global warmup
    /// boundary).
    pub measured_arrivals: u64,
    /// Drops after this core's warmup (reset at the global warmup
    /// boundary).
    pub measured_drops: u64,
    /// Total cycles arrival processes spent stalled by a full backlog
    /// under [`OverloadPolicy::Block`].
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
    fn new() -> Self {
        OpenLoopStats {
            arrivals: 0,
            drops: 0,
            measured_arrivals: 0,
            measured_drops: 0,
            blocked_cycles: 0,
            backlog_hwm: 0,
            in_flight_at_horizon: 0,
            sojourn: Histogram::new(),
        }
    }

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

/// The per-run open-loop state: the profile's backlog policy plus the
/// accumulating [`OpenLoopStats`].
struct OpenLoop {
    cap: usize,
    block: bool,
    stats: OpenLoopStats,
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

/// A fully assembled simulated multicore: cores, workload generators,
/// coherence controllers, interconnect, and checkers.
///
/// Most callers use [`run`] or [`run_many`]; `System` is public for tests
/// and examples that need to drive or inspect a simulation directly.
pub struct System {
    config: SimConfig,
    queue: EventQueue<Event>,
    noc: Fabric<Msg>,
    nodes: Vec<Box<dyn Controller + Send>>,
    cores: Vec<CoreState>,
    checker: CoherenceChecker,
    auditor: TokenAuditor,
    /// Reusable controller-output scratch: taken at the start of each
    /// event, drained by `process_outbox`, and put back — the event loop
    /// allocates no fresh `Outbox` per event.
    outbox: Outbox,
    /// Reusable delivery scratch for NoC events, same discipline.
    delivered: Vec<(NodeId, Msg)>,
    miss_latency: Histogram,
    measured_misses: u64,
    ops_completed_measured: u64,
    /// `Some` iff the workload is [`WorkloadSpec::OpenLoop`]; closed-loop
    /// runs carry no open-loop state and schedule no arrival events.
    open: Option<OpenLoop>,
    last_completion: Cycle,
    cores_past_warmup: usize,
    warmup_end: Option<Cycle>,
    /// Captures every generated work item when
    /// `SimConfig::record_trace` is set; written out at the end of
    /// [`System::run`].
    recorder: Option<TraceWriter>,
    /// Epoch-metrics sampler state; `Some` iff `telemetry.metrics` is
    /// set. Sampling happens inline when a popped event crosses an epoch
    /// boundary — it never pushes events, so `events_processed` (and the
    /// result digest) is unchanged by its existence.
    metrics: Option<MetricsState>,
    /// Span histograms under construction; `Some` iff `telemetry.spans`.
    spans: Option<SpanStats>,
    /// Flight recorder; `Some` iff `telemetry.flight_recorder`. Wrapped
    /// in a guard whose `Drop` dumps the ring when a panic unwinds
    /// through the event loop.
    fdr: Option<FdrGuard>,
    /// Per-event-class self-profile; `Some` iff `telemetry.profile`.
    profile: Option<ProfileStats>,
}

/// The sampler's delta baseline: cumulative gauge values at the previous
/// epoch boundary, so each row reports per-epoch deltas.
struct MetricsState {
    buf: MetricsBuf,
    prev_cycle: u64,
    prev_events: u64,
    prev_busy: u64,
    prev_misses: u64,
    prev_persistent: u64,
    prev_reissues: u64,
    prev_tenure: u64,
}

impl System {
    /// Builds the system described by `config`.
    pub fn new(mut config: SimConfig) -> Self {
        let n = config.protocol.num_nodes;
        // Pre-size the controllers' block-keyed tables from the workload's
        // actual footprint (a hint only — results are unaffected). An
        // explicit user-supplied hint wins over the derived estimate.
        if config.protocol.working_set_hint.is_none() {
            config.protocol.working_set_hint = Some(config.workload.working_set_blocks(n));
        }
        let noc = Fabric::new(config.fabric_config());
        // Recording sits at the generator seam: the trace captures the
        // items generators hand the cores, so replaying it reproduces
        // the identical event sequence. The stored working-set hint is
        // the one this run sizes its tables with (derived or explicit),
        // so replays pre-size identically too.
        let recorder = config.record_trace.as_ref().map(|_| {
            TraceWriter::new(
                config.workload.name(),
                config.seed,
                n,
                config
                    .protocol
                    .working_set_hint
                    .expect("working-set hint derived above"),
            )
        });
        let root_rng = SimRng::from_seed(config.seed).fork(streams::WORKLOAD);
        let nodes = (0..n)
            .map(|i| build_controller(&config.protocol, NodeId::new(i)))
            .collect();
        let cores = (0..n)
            .map(|i| CoreState {
                generator: config
                    .workload
                    .generator(NodeId::new(i), n, root_rng.clone()),
                pending: None,
                outstanding: None,
                outstanding_since: Cycle::ZERO,
                ops_done: 0,
                finished: false,
                backlog: VecDeque::new(),
                next_arrival: None,
                blocked: None,
                arrivals_drawn: 0,
                in_service_since: Cycle::ZERO,
            })
            .collect();
        let open = match &config.workload {
            WorkloadSpec::OpenLoop(p) => Some(OpenLoop {
                cap: p.backlog_cap as usize,
                block: p.policy == OverloadPolicy::Block,
                stats: OpenLoopStats::new(),
            }),
            _ => None,
        };
        // With per-event checking off, the auditor only needs the global
        // in-flight count (end-of-run drain check), not per-block state.
        let auditor = if config.check == CheckLevel::Assert {
            TokenAuditor::new(config.protocol.total_tokens)
        } else {
            TokenAuditor::coarse(config.protocol.total_tokens)
        };
        let mut system = System {
            // Pending events scale with cores (one issue or miss chain
            // each) plus in-flight link events.
            queue: EventQueue::with_capacity(n as usize * 16),
            noc,
            nodes,
            cores,
            checker: CoherenceChecker::new(),
            auditor,
            outbox: Outbox::new(),
            delivered: Vec::with_capacity(n as usize),
            miss_latency: Histogram::new(),
            measured_misses: 0,
            ops_completed_measured: 0,
            open,
            last_completion: Cycle::ZERO,
            cores_past_warmup: if config.warmup_ops_per_core == 0 {
                n as usize
            } else {
                0
            },
            warmup_end: if config.warmup_ops_per_core == 0 {
                Some(Cycle::ZERO)
            } else {
                None
            },
            recorder,
            metrics: None,
            spans: None,
            fdr: None,
            profile: None,
            config,
        };
        if system.config.telemetry.any() {
            let header = run_header_fields(
                system.nodes.first().map_or("?", |c| c.protocol_name()),
                n,
                &system.config.protocol.fabric.label(),
                system.config.workload.name(),
                system.config.seed,
            );
            if let Some(path) = system.config.telemetry.metrics.clone() {
                system.metrics = Some(MetricsState {
                    buf: MetricsBuf::new(path, system.config.telemetry.epoch(), &header),
                    prev_cycle: 0,
                    prev_events: 0,
                    prev_busy: 0,
                    prev_misses: 0,
                    prev_persistent: 0,
                    prev_reissues: 0,
                    prev_tenure: 0,
                });
            }
            if system.config.telemetry.spans {
                system.spans = Some(SpanStats::default());
            }
            if let Some(dir) = system.config.telemetry.flight_recorder.clone() {
                let tag = system.config.stable_digest();
                system.fdr = Some(FdrGuard(FlightRecorder::new(dir, tag, header)));
            }
            if system.config.telemetry.profile {
                system.profile = Some(ProfileStats::default());
            }
        }
        if system.open.is_some() {
            // Open loop: no op is pending at time zero; each core's first
            // arrival lands after its first interarrival gap.
            for i in 0..n {
                system.schedule_arrival(NodeId::new(i), Cycle::ZERO);
            }
        } else {
            for i in 0..n {
                system.schedule_next(NodeId::new(i), Cycle::ZERO);
            }
        }
        // The starvation watchdog only exists when a horizon is armed, so
        // fault-free runs process exactly the same event sequence as
        // before the oracle existed.
        if let Some(horizon) = system.config.liveness_horizon {
            system.queue.push(Cycle::new(horizon), Event::Watchdog);
        }
        system
    }

    fn quota(&self) -> u64 {
        self.config.warmup_ops_per_core + self.config.ops_per_core
    }

    /// Picks the core's next operation and schedules its issue after the
    /// think time.
    fn schedule_next(&mut self, node: NodeId, now: Cycle) {
        let quota = self.quota();
        let core = &mut self.cores[node.index()];
        if core.ops_done >= quota {
            core.finished = true;
            return;
        }
        let item = core.generator.next_item();
        if let Some(recorder) = &mut self.recorder {
            recorder.record(node, item);
        }
        let core = &mut self.cores[node.index()];
        core.pending = Some(MemOp {
            addr: item.addr,
            kind: item.kind,
        });
        self.queue
            .push(now + item.think_cycles, Event::CoreIssue { node });
    }

    /// Open loop: draws the core's next arrival and schedules it after
    /// its interarrival gap (the generator's `think_cycles`). The arrival
    /// budget is the same warmup + measured quota as the closed loop's —
    /// once `quota` arrivals are drawn the process stops and the core
    /// finishes when the last one resolves.
    fn schedule_arrival(&mut self, node: NodeId, now: Cycle) {
        let quota = self.quota();
        let core = &mut self.cores[node.index()];
        if core.arrivals_drawn >= quota {
            if quota == 0 {
                core.finished = true;
            }
            return;
        }
        core.arrivals_drawn += 1;
        let item = core.generator.next_item();
        if let Some(recorder) = &mut self.recorder {
            recorder.record(node, item);
        }
        let core = &mut self.cores[node.index()];
        core.next_arrival = Some(MemOp {
            addr: item.addr,
            kind: item.kind,
        });
        self.queue
            .push(now + item.think_cycles, Event::Arrival { node });
    }

    /// Open loop: one operation arrives at `node` — into service if the
    /// core is idle, into the backlog if there is room, otherwise
    /// dropped or (block policy) stalling the arrival process.
    fn handle_arrival(&mut self, node: NodeId, now: Cycle) {
        let op = self.cores[node.index()]
            .next_arrival
            .take()
            .expect("arrival without a drawn op");
        let measured = self.in_measurement(node);
        let open = self.open.as_mut().expect("arrival in a closed-loop run");
        open.stats.arrivals += 1;
        if measured {
            open.stats.measured_arrivals += 1;
        }
        let (cap, block) = (open.cap, open.block);
        let core = &mut self.cores[node.index()];
        if core.pending.is_none() && core.outstanding.is_none() && core.backlog.is_empty() {
            // Idle server: straight into service.
            core.pending = Some(op);
            core.in_service_since = now;
            self.queue.push(now, Event::CoreIssue { node });
        } else if core.backlog.len() < cap {
            core.backlog.push_back((op, now));
            let depth = core.backlog.len() as u64;
            let open = self.open.as_mut().expect("open-loop state");
            open.stats.backlog_hwm = open.stats.backlog_hwm.max(depth);
        } else if block {
            // Full backlog, block policy: the arrival process stalls —
            // no further arrival is scheduled until a slot frees.
            core.blocked = Some((op, now));
            return;
        } else {
            // Full backlog, drop policy: the op leaves the system now.
            let open = self.open.as_mut().expect("open-loop state");
            open.stats.drops += 1;
            if measured {
                open.stats.measured_drops += 1;
            }
            self.note_op_resolved(node, now);
            self.open_maybe_finish(node);
        }
        self.schedule_arrival(node, now);
    }

    /// Open loop: after a completion, pull the next queued op into
    /// service (unstalling a blocked arrival into the freed slot), or
    /// finish the core once its whole arrival budget has resolved.
    fn open_continue(&mut self, node: NodeId, now: Cycle) {
        let core = &mut self.cores[node.index()];
        if let Some((op, arrived)) = core.backlog.pop_front() {
            core.pending = Some(op);
            core.in_service_since = arrived;
            self.queue.push(now, Event::CoreIssue { node });
            let core = &mut self.cores[node.index()];
            if let Some((op, arrived)) = core.blocked.take() {
                // The stalled arrival enters the freed backlog slot with
                // its *original* arrival time (its sojourn includes the
                // stall), and the arrival process resumes.
                core.backlog.push_back((op, arrived));
                let open = self.open.as_mut().expect("open-loop state");
                open.stats.blocked_cycles += now.saturating_since(arrived);
                self.schedule_arrival(node, now);
            }
        } else {
            debug_assert!(
                self.cores[node.index()].blocked.is_none(),
                "blocked arrival behind an empty backlog"
            );
            self.open_maybe_finish(node);
        }
    }

    /// Open loop: marks the core finished once every drawn arrival has
    /// resolved (completed or dropped) and nothing is left in flight.
    fn open_maybe_finish(&mut self, node: NodeId) {
        let quota = self.quota();
        let core = &mut self.cores[node.index()];
        if core.ops_done >= quota {
            debug_assert!(
                core.backlog.is_empty()
                    && core.pending.is_none()
                    && core.outstanding.is_none()
                    && core.blocked.is_none(),
                "core finished its quota with work still in flight"
            );
            core.finished = true;
        }
    }

    /// Completes `op` at `at`, then advances the core: the closed loop
    /// thinks and issues its next op, the open loop drains its backlog.
    /// Sojourn (arrival→completion) is recorded here, on the same
    /// in-measurement gate as miss latency.
    fn complete_and_advance(&mut self, node: NodeId, op: MemOp, version: u64, at: Cycle) {
        if self.open.is_some() {
            if self.in_measurement(node) {
                let arrived = self.cores[node.index()].in_service_since;
                let sojourn = at.saturating_since(arrived);
                self.open
                    .as_mut()
                    .expect("open-loop state")
                    .stats
                    .sojourn
                    .record(sojourn);
            }
            self.complete_op(node, op, version, at);
            self.open_continue(node, at);
        } else {
            self.complete_op(node, op, version, at);
            self.schedule_next(node, at);
        }
    }

    /// Records that one of `node`'s operations resolved — completed *or*
    /// (open loop) dropped — advancing the warmup bookkeeping either way,
    /// so a saturated core still crosses its warmup quota. Returns
    /// whether the resolved op landed in the measurement phase.
    fn note_op_resolved(&mut self, node: NodeId, at: Cycle) -> bool {
        let warmup = self.config.warmup_ops_per_core;
        let core = &mut self.cores[node.index()];
        core.ops_done += 1;
        let measured = core.ops_done > warmup;
        if warmup > 0 && core.ops_done == warmup {
            self.cores_past_warmup += 1;
            if self.cores_past_warmup == self.config.protocol.num_nodes as usize {
                // Measurement starts now: discard warmup traffic and
                // latency samples.
                self.noc.reset_stats();
                self.miss_latency = Histogram::new();
                self.measured_misses = 0;
                // Spans follow the latency histogram: drop the samples
                // from cores that outran the global warmup boundary so
                // the phase sums still partition `miss_latency` exactly.
                if let Some(spans) = &mut self.spans {
                    *spans = Default::default();
                }
                if let Some(open) = &mut self.open {
                    open.stats.sojourn = Histogram::new();
                    open.stats.measured_arrivals = 0;
                    open.stats.measured_drops = 0;
                }
                self.warmup_end = Some(at);
            }
        }
        measured
    }

    /// Records one completed operation (hit or miss) for `node`.
    fn complete_op(&mut self, node: NodeId, op: MemOp, version: u64, at: Cycle) {
        if self.config.check == CheckLevel::Assert {
            self.checker.check(op.addr, op.kind, version, at);
        }
        if self.note_op_resolved(node, at) {
            self.ops_completed_measured += 1;
            self.last_completion = self.last_completion.max(at);
        }
    }

    fn in_measurement(&self, node: NodeId) -> bool {
        self.cores[node.index()].ops_done >= self.config.warmup_ops_per_core
    }

    /// Routes a controller's outputs: messages into the interconnect,
    /// timers into the event queue, completions into the core model.
    /// Drains `out` (leaving its capacity for reuse) and schedules NoC
    /// follow-ups straight into the event queue — no per-event buffers.
    fn process_outbox(&mut self, node: NodeId, out: &mut Outbox, now: Cycle) {
        for send in out.sends.drain(..) {
            self.auditor.on_send(&send.msg);
            let Self { noc, queue, .. } = self;
            noc.send(
                now + send.delay,
                node,
                send.dests,
                send.priority,
                send.msg,
                &mut |at, ev| queue.push(at, Event::Noc(ev)),
            );
        }
        for (at, key) in out.timers.drain(..) {
            self.queue.push(at, Event::Timer { node, key });
        }
        for completion in out.completions.drain(..) {
            self.finish_miss(node, completion, now);
        }
    }

    fn finish_miss(&mut self, node: NodeId, completion: Completion, now: Cycle) {
        let op = self.cores[node.index()]
            .outstanding
            .take()
            .expect("completion without an outstanding miss");
        debug_assert_eq!(op.addr, completion.addr, "completion for the wrong block");
        debug_assert_eq!(op.kind, completion.kind);
        // Liveness oracle: every miss must resolve within the horizon.
        if let Some(horizon) = self.config.liveness_horizon {
            let waited = now.saturating_since(completion.issued_at);
            if waited > horizon {
                let dump = self.dump_fdr("liveness violation");
                panic!(
                    "liveness violation: {} miss on core {} took {waited} cycles \
                     (> horizon {horizon}){}{}",
                    self.nodes[node.index()].protocol_name(),
                    node.index(),
                    self.context_suffix(),
                    dump_suffix(&dump),
                );
            }
        }
        if self.in_measurement(node) {
            self.miss_latency.record(now - completion.issued_at);
            self.measured_misses += 1;
            let queue_wait = self.open.is_some().then(|| {
                completion
                    .issued_at
                    .saturating_since(self.cores[node.index()].in_service_since)
            });
            if let Some(spans) = self.spans.as_mut() {
                // Phase boundaries, clamped into [issued_at, now] so the
                // three phases always partition the miss exactly: a miss
                // with no explicit ordering message collapses its home
                // phase to zero rather than going negative.
                let issued = completion.issued_at;
                let t1 = completion
                    .marks
                    .first_progress
                    .unwrap_or(now)
                    .clamp(issued, now);
                let t2 = completion.marks.ordered.unwrap_or(t1).clamp(t1, now);
                spans.network.record(t1.saturating_since(issued));
                spans.home.record(t2.saturating_since(t1));
                spans.token_wait.record(now.saturating_since(t2));
                if let Some(q) = queue_wait {
                    spans.queue_wait.record(q);
                }
            }
        }
        self.complete_and_advance(node, op, completion.version, now);
    }

    /// Takes the reusable outbox scratch (callers must hand it back via
    /// [`System::restore_outbox`]). The take-and-restore discipline keeps
    /// the borrow checker happy while controller calls and
    /// `process_outbox` both need `&mut self`.
    fn take_outbox(&mut self) -> Outbox {
        debug_assert!(self.outbox.is_empty(), "outbox scratch taken re-entrantly");
        std::mem::take(&mut self.outbox)
    }

    fn restore_outbox(&mut self, out: Outbox) {
        debug_assert!(out.is_empty(), "restored outbox was not drained");
        self.outbox = out;
    }

    fn deliver(&mut self, node: NodeId, msg: Msg, now: Cycle) {
        self.auditor.on_deliver(&msg);
        let addr = msg.addr;
        let mut out = self.take_outbox();
        self.nodes[node.index()].handle_message(msg, now, &mut out);
        self.process_outbox(node, &mut out, now);
        self.restore_outbox(out);
        if self.config.check == CheckLevel::Assert {
            self.auditor.audit(addr, &self.nodes);
        }
    }

    /// Dumps the flight recorder (if armed and not yet dumped),
    /// returning the dump path.
    fn dump_fdr(&mut self, reason: &str) -> Option<std::path::PathBuf> {
        self.fdr.as_mut().and_then(|g| g.0.dump(reason))
    }

    /// Run context appended to oracle-failure messages: protocol,
    /// fabric, workload, and seed, so a failure line alone identifies
    /// the failing cell.
    fn context_suffix(&self) -> String {
        format!(
            " [protocol={}, fabric={}, workload={}, seed={}]",
            self.nodes.first().map_or("?", |c| c.protocol_name()),
            self.config.protocol.fabric.label(),
            self.config.workload.name(),
            self.config.seed,
        )
    }

    /// Emits an epoch-metrics row when `now` has crossed the next epoch
    /// boundary. Pure observation: reads gauges, pushes no events.
    fn metrics_tick(&mut self, now: Cycle) {
        let due = self
            .metrics
            .as_ref()
            .is_some_and(|m| now.as_u64() >= m.buf.next_sample);
        if !due {
            return;
        }
        let events = self.queue.total_pushed();
        let queue_len = self.queue.len() as u64;
        let busy = self.noc.total_busy_cycles();
        let queued_packets = self.noc.queued_packets() as u64;
        let num_links = self.noc.spec().num_links() as u64;
        let mut gauges = ProtocolGauges::default();
        let mut counters = ProtocolCounters::default();
        for node in &self.nodes {
            gauges.add(node.gauges());
            counters.add(node.counters());
        }
        let backlog = if self.open.is_some() {
            self.cores.iter().map(|c| c.backlog.len() as u64).collect()
        } else {
            Vec::new()
        };
        let m = self.metrics.as_mut().expect("checked above");
        let epoch = m.buf.epoch();
        let boundary = (now.as_u64() / epoch) * epoch;
        m.buf.record(&MetricsSample {
            cycle: boundary,
            window: boundary - m.prev_cycle,
            events_delta: events.saturating_sub(m.prev_events),
            queue_len,
            // The warmup boundary resets interconnect stats, so deltas
            // saturate instead of underflowing across that reset.
            link_busy_delta: busy.saturating_sub(m.prev_busy),
            num_links,
            queued_packets,
            tbes: gauges.tbes,
            home_entries: gauges.home_entries,
            persistent_entries: gauges.persistent_entries,
            misses_delta: counters.misses.saturating_sub(m.prev_misses),
            persistent_delta: counters
                .persistent_requests
                .saturating_sub(m.prev_persistent),
            reissues_delta: counters.reissues.saturating_sub(m.prev_reissues),
            tenure_timeouts_delta: counters.tenure_timeouts.saturating_sub(m.prev_tenure),
            backlog,
        });
        m.prev_cycle = boundary;
        m.prev_events = events;
        m.prev_busy = busy;
        m.prev_misses = counters.misses;
        m.prev_persistent = counters.persistent_requests;
        m.prev_reissues = counters.reissues;
        m.prev_tenure = counters.tenure_timeouts;
    }

    /// Processes one popped event: the livelock bound, then telemetry
    /// observation (sampler, flight recorder, profiler), then dispatch.
    /// With telemetry off this is three `Option` checks on top of the
    /// pre-telemetry loop body.
    #[inline]
    fn step(&mut self, now: Cycle, event: Event) {
        if now.as_u64() > self.config.max_cycles {
            let dump = self.dump_fdr("livelock");
            panic!(
                "simulation exceeded {} cycles: livelock or runaway protocol{}{}",
                self.config.max_cycles,
                self.context_suffix(),
                dump_suffix(&dump),
            );
        }
        if self.metrics.is_some() {
            self.metrics_tick(now);
        }
        let class = class_of(&event);
        if let Some(g) = self.fdr.as_mut() {
            g.0.record(now.as_u64(), class, node_of(&event));
        }
        if self.profile.is_some() {
            let t0 = Instant::now();
            self.dispatch(now, event);
            let elapsed = t0.elapsed();
            if let Some(p) = self.profile.as_mut() {
                p.add(class, elapsed);
            }
        } else {
            self.dispatch(now, event);
        }
    }

    fn dispatch(&mut self, now: Cycle, event: Event) {
        match event {
            Event::CoreIssue { node } => {
                let op = self.cores[node.index()]
                    .pending
                    .take()
                    .expect("issue without a pending op");
                let mut out = self.take_outbox();
                let resp = self.nodes[node.index()].core_request(op, now, &mut out);
                self.process_outbox(node, &mut out, now);
                self.restore_outbox(out);
                match resp {
                    CoreResponse::Hit { version } => {
                        let done_at = now + self.config.protocol.cache_hit_latency;
                        self.complete_and_advance(node, op, version, done_at);
                    }
                    CoreResponse::MissPending => {
                        let core = &mut self.cores[node.index()];
                        core.outstanding = Some(op);
                        core.outstanding_since = now;
                    }
                }
            }
            Event::Timer { node, key } => {
                let mut out = self.take_outbox();
                self.nodes[node.index()].timer_fired(key, now, &mut out);
                self.process_outbox(node, &mut out, now);
                self.restore_outbox(out);
            }
            Event::Arrival { node } => self.handle_arrival(node, now),
            Event::Noc(ev) => {
                // Follow-up NoC events go straight into the queue;
                // deliveries buffer in the persistent scratch because
                // handling them needs `&mut self` again.
                let mut delivered = std::mem::take(&mut self.delivered);
                debug_assert!(delivered.is_empty());
                let Self { noc, queue, .. } = self;
                noc.handle(
                    now,
                    ev,
                    &mut |at, e| queue.push(at, Event::Noc(e)),
                    &mut |n, m| delivered.push((n, m)),
                );
                for (n, m) in delivered.drain(..) {
                    self.deliver(n, m, now);
                }
                self.delivered = delivered;
            }
            Event::Watchdog => {
                // Starvation scan: a miss that has been outstanding for
                // more than the horizon when the scan fires is a liveness
                // failure — this catches deadlocked misses that would
                // otherwise only trip the (much larger) max_cycles bound.
                let horizon = self
                    .config
                    .liveness_horizon
                    .expect("watchdog event without an armed horizon");
                let starved = self.cores.iter().enumerate().find_map(|(i, core)| {
                    core.outstanding.and_then(|op| {
                        let waited = now.saturating_since(core.outstanding_since);
                        (waited > horizon).then_some((i, op, waited))
                    })
                });
                if let Some((i, op, waited)) = starved {
                    let dump = self.dump_fdr("starvation watchdog");
                    panic!(
                        "liveness violation: core {i} miss outstanding for \
                         {waited} cycles (> horizon {horizon}) on {:?} {:?}{}{}",
                        op.kind,
                        op.addr,
                        self.context_suffix(),
                        dump_suffix(&dump),
                    );
                }
                if self.cores.iter().any(|c| !c.finished) {
                    self.queue.push(now + horizon, Event::Watchdog);
                }
            }
        }
    }

    /// Runs the simulation to completion and returns the measurements.
    ///
    /// # Panics
    ///
    /// Panics on any detected protocol bug: an invariant violation (with
    /// checking enabled), a core that never finishes its quota (deadlock
    /// or starvation), a controller left non-quiescent, tokens left in
    /// flight, or simulated time exceeding `max_cycles` (livelock). Also
    /// panics if a recorded trace cannot be written — use
    /// [`System::try_run`] to handle that as a typed error instead.
    pub fn run(self) -> RunResult {
        match self.try_run(None) {
            Ok(result) => result,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the simulation to completion, optionally bounded by a
    /// wall-clock `timeout`, surfacing infrastructure failures as typed
    /// [`RunError`]s instead of panics.
    ///
    /// The timeout is cooperative: the event loop compares `Instant::now`
    /// against the deadline every `DEADLINE_CHECK_EVENTS` events (a few
    /// milliseconds of real time), so an expired run returns promptly
    /// without a watchdog thread left burning CPU behind an abandoned
    /// simulation. With `timeout == None` the hot loop contains no clock
    /// reads at all.
    ///
    /// # Errors
    ///
    /// [`RunError::Timeout`] if the wall-clock budget expires, and
    /// [`RunError::TraceWrite`] if the run finished but its recorded
    /// trace could not be written.
    ///
    /// # Panics
    ///
    /// Still panics on detected protocol bugs — see [`System::run`].
    pub fn try_run(mut self, timeout: Option<Duration>) -> Result<RunResult, RunError> {
        match timeout {
            None => {
                while let Some((now, event)) = self.queue.pop() {
                    self.step(now, event);
                }
            }
            Some(limit) => {
                let deadline = Instant::now() + limit;
                let mut countdown = DEADLINE_CHECK_EVENTS;
                while let Some((now, event)) = self.queue.pop() {
                    self.step(now, event);
                    countdown -= 1;
                    if countdown == 0 {
                        countdown = DEADLINE_CHECK_EVENTS;
                        if Instant::now() >= deadline {
                            self.dump_fdr("wall-clock timeout");
                            return Err(RunError::Timeout { limit });
                        }
                    }
                }
            }
        }
        // Forward-progress postconditions.
        for (i, core) in self.cores.iter().enumerate() {
            assert!(
                core.finished && core.outstanding.is_none(),
                "core {i} never finished: completed {} of {} ops (deadlock)",
                core.ops_done,
                self.quota()
            );
        }
        for (i, node) in self.nodes.iter().enumerate() {
            assert!(
                node.is_quiescent(),
                "controller {i} not quiescent at end of run"
            );
        }
        assert_eq!(
            self.auditor.tokens_in_flight(),
            0,
            "tokens still in flight after drain"
        );

        if let Some(recorder) = self.recorder.take() {
            let path = self
                .config
                .record_trace
                .as_ref()
                .expect("recorder implies a record path");
            recorder
                .write_path(path)
                .map_err(|source| RunError::TraceWrite {
                    path: path.clone(),
                    source,
                })?;
        }

        if let Some(m) = self.metrics.take() {
            m.buf
                .write()
                .map_err(|(path, source)| RunError::MetricsWrite { path, source })?;
        }

        let warmup_end = self.warmup_end.expect("all cores passed warmup");
        let open_loop = self.open.take().map(|o| {
            let mut stats = o.stats;
            stats.in_flight_at_horizon = self
                .cores
                .iter()
                .map(|c| {
                    c.backlog.len() as u64
                        + c.pending.is_some() as u64
                        + c.outstanding.is_some() as u64
                        + c.blocked.is_some() as u64
                })
                .sum();
            stats
        });
        let mut counters = ProtocolCounters::default();
        for node in &self.nodes {
            counters.add(node.counters());
        }
        Ok(RunResult {
            protocol: self.nodes[0].protocol_name(),
            runtime_cycles: self.last_completion.saturating_since(warmup_end),
            ops_completed: self.ops_completed_measured,
            traffic: self.noc.stats().clone(),
            counters,
            measured_misses: self.measured_misses,
            miss_latency_mean: self.miss_latency.mean(),
            miss_latency: self.miss_latency.clone(),
            coherence_checks: self.checker.checks_performed(),
            token_audits: self.auditor.audits_performed(),
            events_processed: self.queue.total_pushed(),
            open_loop,
            spans: self.spans.take(),
            profile: self.profile.take(),
        })
    }
}

/// Classifies a kernel event for the flight recorder and profiler.
fn class_of(event: &Event) -> EventClass {
    match event {
        Event::Noc(_) => EventClass::Noc,
        Event::Timer { .. } => EventClass::Timer,
        Event::CoreIssue { .. } => EventClass::CoreIssue,
        Event::Arrival { .. } => EventClass::Arrival,
        Event::Watchdog => EventClass::Watchdog,
    }
}

/// The node an event targets, for the flight recorder (`u32::MAX` when
/// the event is fabric-internal or global).
fn node_of(event: &Event) -> u32 {
    match event {
        Event::Timer { node, .. } | Event::CoreIssue { node } | Event::Arrival { node } => {
            node.index() as u32
        }
        Event::Noc(_) | Event::Watchdog => u32::MAX,
    }
}

/// Renders the flight-recorder pointer appended to oracle panics.
fn dump_suffix(path: &Option<std::path::PathBuf>) -> String {
    path.as_ref()
        .map(|p| format!("; flight recorder: {}", p.display()))
        .unwrap_or_default()
}

/// How many events [`System::try_run`] processes between wall-clock
/// deadline checks. Events take well under a microsecond each, so this
/// bounds timeout overshoot to a few milliseconds while keeping clock
/// reads out of the hot loop.
pub const DEADLINE_CHECK_EVENTS: u32 = 1 << 14;

/// Builds and runs one simulation.
///
/// See [`System::run`] for the panics that signal protocol bugs.
pub fn run(config: &SimConfig) -> RunResult {
    System::new(config.clone()).run()
}

/// Builds and runs one simulation with typed infrastructure errors and an
/// optional wall-clock budget — see [`System::try_run`].
///
/// # Errors
///
/// [`RunError::Timeout`] if `timeout` expires mid-run,
/// [`RunError::TraceWrite`] if the recorded trace cannot be written.
pub fn try_run(config: &SimConfig, timeout: Option<Duration>) -> Result<RunResult, RunError> {
    System::new(config.clone()).try_run(timeout)
}

/// Runs `seeds` perturbed copies of the simulation, the methodology
/// behind the paper's 95% confidence intervals.
///
/// Replication `i` runs with [`patchsim_kernel::replicate_seed`]`(config.seed, i)`
/// — replication 0 is the configured seed itself, and later replications
/// are SplitMix-derived so experiments with adjacent base seeds never
/// share replication streams (the naive `seed + i` derivation collides
/// `(seed, i)` with `(seed + 1, i - 1)`). The parallel
/// [`Runner`](crate::exp::Runner) uses the same derivation, so its
/// results are bit-identical to this serial loop.
pub fn run_many(config: &SimConfig, seeds: u64) -> Vec<RunResult> {
    assert!(seeds > 0, "at least one run required");
    (0..seeds)
        .map(|i| {
            run(&config
                .clone()
                .with_seed(patchsim_kernel::replicate_seed(config.seed, i)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PredictorChoice, ProtocolKind, WorkloadSpec};

    fn small(kind: ProtocolKind) -> SimConfig {
        SimConfig::new(kind, 4)
            .with_workload(WorkloadSpec::Microbenchmark {
                table_blocks: 64,
                write_frac: 0.3,
                think_mean: 5,
            })
            .with_ops_per_core(100)
            .with_checks()
    }

    #[test]
    fn directory_completes_and_checks() {
        let r = run(&small(ProtocolKind::Directory));
        assert_eq!(r.ops_completed, 400);
        assert_eq!(r.protocol, "Directory");
        assert!(r.runtime_cycles > 0);
        assert!(r.coherence_checks >= 400);
    }

    #[test]
    fn patch_none_completes_with_token_audits() {
        let r = run(&small(ProtocolKind::Patch));
        assert_eq!(r.ops_completed, 400);
        assert_eq!(r.protocol, "PATCH");
        assert!(r.token_audits > 0, "audits ran");
    }

    #[test]
    fn patch_all_completes() {
        let cfg = small(ProtocolKind::Patch).with_predictor(PredictorChoice::All);
        let r = run(&cfg);
        assert_eq!(r.ops_completed, 400);
        assert!(
            r.counters.direct_responses > 0,
            "direct requests did real work"
        );
    }

    #[test]
    fn tokenb_completes() {
        let r = run(&small(ProtocolKind::TokenB));
        assert_eq!(r.ops_completed, 400);
        assert_eq!(r.protocol, "TokenB");
    }

    #[test]
    fn identical_seeds_reproduce_exactly() {
        let cfg = small(ProtocolKind::Patch).with_predictor(PredictorChoice::All);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.runtime_cycles, b.runtime_cycles);
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = small(ProtocolKind::Directory);
        let a = run(&cfg);
        let b = run(&cfg.clone().with_seed(99));
        assert_ne!(
            (a.runtime_cycles, a.traffic.total_bytes()),
            (b.runtime_cycles, b.traffic.total_bytes())
        );
    }

    #[test]
    fn warmup_excludes_traffic() {
        let cfg = small(ProtocolKind::Directory).with_warmup(50);
        let with_warmup = run(&cfg);
        let without = run(&small(ProtocolKind::Directory).with_ops_per_core(150));
        assert_eq!(with_warmup.ops_completed, 400);
        assert!(
            with_warmup.traffic.total_bytes() < without.traffic.total_bytes(),
            "warmup traffic was discarded"
        );
    }

    /// The completion/outstanding consistency checks are debug-only
    /// (`debug_assert_eq!`); this pins the debug-build panic so the
    /// checks cannot silently rot.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "completion for the wrong block")]
    fn mismatched_completion_panics_in_debug() {
        use patchsim_mem::{AccessKind, BlockAddr};

        let mut sys = System::new(small(ProtocolKind::Directory));
        sys.cores[0].outstanding = Some(MemOp {
            addr: BlockAddr::new(1),
            kind: AccessKind::Read,
        });
        sys.finish_miss(
            NodeId::new(0),
            Completion {
                addr: BlockAddr::new(2),
                kind: AccessKind::Read,
                version: 0,
                issued_at: Cycle::ZERO,
                marks: patchsim_protocol::SpanMarks::default(),
            },
            Cycle::ZERO,
        );
    }

    #[test]
    fn faulty_runs_reproduce_and_pass_oracles() {
        use patchsim_noc::FaultSpec;
        let cfg = small(ProtocolKind::Patch)
            .with_predictor(PredictorChoice::All)
            .with_faults(FaultSpec::parse("chaos").unwrap())
            .with_liveness_horizon(500_000);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.ops_completed, 400);
        assert_eq!(a.runtime_cycles, b.runtime_cycles, "fault schedule replays");
        assert_eq!(a.traffic, b.traffic);
        // The same mix under a different seed yields a different schedule.
        let c = run(&cfg.clone().with_seed(77));
        assert_ne!(
            (a.runtime_cycles, a.traffic.total_bytes()),
            (c.runtime_cycles, c.traffic.total_bytes())
        );
    }

    #[test]
    fn explicit_faults_none_changes_nothing() {
        use patchsim_noc::FaultSpec;
        let base = run(&small(ProtocolKind::Directory));
        let spelled = run(&small(ProtocolKind::Directory).with_faults(FaultSpec::none()));
        assert_eq!(base.runtime_cycles, spelled.runtime_cycles);
        assert_eq!(base.traffic, spelled.traffic);
        assert_eq!(base.events_processed, spelled.events_processed);
    }

    #[test]
    fn try_run_times_out_on_a_tiny_budget() {
        let cfg = small(ProtocolKind::Directory).with_ops_per_core(50_000);
        match try_run(&cfg, Some(Duration::from_nanos(1))) {
            Err(RunError::Timeout { limit }) => assert_eq!(limit, Duration::from_nanos(1)),
            other => panic!("expected a timeout, got {other:?}"),
        }
    }

    #[test]
    fn try_run_without_timeout_matches_run() {
        let cfg = small(ProtocolKind::Directory);
        let a = run(&cfg);
        let b = try_run(&cfg, None).expect("no infrastructure failure");
        assert_eq!(a.digest(), b.digest());
        // A generous budget changes nothing either.
        let c = try_run(&cfg, Some(Duration::from_secs(3600))).unwrap();
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn try_run_surfaces_trace_write_failure() {
        let path = std::env::temp_dir()
            .join(format!("patchsim-no-such-dir-{}", std::process::id()))
            .join("missing")
            .join("t.ptrc");
        let cfg = small(ProtocolKind::Directory)
            .with_ops_per_core(20)
            .with_record_trace(path.clone());
        match try_run(&cfg, None) {
            Err(RunError::TraceWrite { path: p, .. }) => assert_eq!(p, path),
            other => panic!("expected a trace-write error, got {other:?}"),
        }
    }

    /// The panicking `run` entry point keeps its original trace-failure
    /// message (callers that want the typed error use `try_run`).
    #[test]
    #[should_panic(expected = "failed to write trace")]
    fn run_still_panics_on_trace_write_failure() {
        let path = std::env::temp_dir()
            .join(format!("patchsim-no-such-dir-{}", std::process::id()))
            .join("missing")
            .join("t.ptrc");
        let _ = run(&small(ProtocolKind::Directory)
            .with_ops_per_core(20)
            .with_record_trace(path));
    }

    #[test]
    fn run_many_perturbs_seeds() {
        let results = run_many(&small(ProtocolKind::Directory).with_ops_per_core(30), 3);
        assert_eq!(results.len(), 3);
        let runtimes: Vec<u64> = results.iter().map(|r| r.runtime_cycles).collect();
        assert!(runtimes.windows(2).any(|w| w[0] != w[1]));
    }
}
