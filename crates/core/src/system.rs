//! System assembly and the simulation event loop.
//!
//! This file is the loop and nothing else: the open-loop arrival process
//! is [`OpenLoop`]'s, telemetry sits behind one [`Observer`], and what a
//! run returns lives in `result.rs`. The closed-loop statements here are
//! mirrored one for one by `benchmark/src/shadow.rs`.

use std::fmt::Write;
use std::time::{Duration, Instant};

use patchsim_kernel::stats::Histogram;
use patchsim_kernel::{streams, Cycle, EventQueue, SimRng};
use patchsim_noc::{Fabric, NocEvent, NodeId};
use patchsim_protocol::{
    build_controllers, Completion, Controller, CoreResponse, MemOp, Msg, Outbox, ProtocolCounters,
    TimerKey,
};
use patchsim_trace::TraceWriter;
use patchsim_workload::{Generator, WorkItem, WorkloadSpec};

use crate::checker::{holders, CoherenceChecker, TokenAuditor};
use crate::config::{CheckLevel, SimConfig};
use crate::open_loop::{OpenLoop, Step};
use crate::result::{RunError, RunResult};
use crate::telemetry::{EventClass, MetricsSample, Observer};

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
    /// `Some` iff the workload is [`WorkloadSpec::OpenLoop`]: the arrival
    /// processes and backlogs a closed-loop run does not have.
    open: Option<OpenLoop>,
    last_completion: Cycle,
    cores_past_warmup: usize,
    warmup_end: Option<Cycle>,
    /// Captures every generated work item when
    /// `SimConfig::record_trace` is set; written out at the end of
    /// [`System::run`].
    recorder: Option<TraceWriter>,
    /// `Some` iff `telemetry.any()`: sampler, spans, flight recorder and
    /// profiler, all strictly observational.
    telemetry: Option<Box<Observer>>,
}

impl System {
    /// Builds the system described by `config`.
    pub fn new(config: SimConfig) -> Self {
        let n = config.protocol.num_nodes;
        // What a recorded trace's header states as the working set: the
        // explicit hint if one was set, else the workload's footprint.
        let working_set = config
            .protocol
            .working_set_hint
            .unwrap_or_else(|| config.workload.working_set_blocks(n));
        let noc = Fabric::new(config.fabric_config());
        // Recording sits at the generator seam: the trace captures the
        // items generators hand the cores, so replaying it reproduces
        // the identical event sequence.
        let recorder = config
            .record_trace
            .as_ref()
            .map(|_| TraceWriter::new(config.workload.name(), config.seed, n, working_set));
        let root_rng = SimRng::from_seed(config.seed).fork(streams::WORKLOAD);
        let nodes = build_controllers(&config.protocol);
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
            })
            .collect();
        // Closed or open is decided here, once, from the workload.
        let open = match &config.workload {
            WorkloadSpec::OpenLoop(p) => Some(OpenLoop::new(
                p,
                n,
                config.warmup_ops_per_core + config.ops_per_core,
            )),
            _ => None,
        };
        let telemetry = Observer::new(&config, nodes[0].protocol_name());
        // With per-event checking off, the auditor only needs the global
        // in-flight count (end-of-run drain check), not per-block state.
        let auditor = if config.check == CheckLevel::Assert {
            TokenAuditor::new(config.protocol.total_tokens)
        } else {
            TokenAuditor::coarse(config.protocol.total_tokens)
        };
        let no_warmup = config.warmup_ops_per_core == 0;
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
            cores_past_warmup: if no_warmup { n as usize } else { 0 },
            warmup_end: no_warmup.then_some(Cycle::ZERO),
            recorder,
            telemetry,
            config,
        };
        for i in 0..n {
            let node = NodeId::new(i);
            match system.open.as_mut().map(|open| open.start(node)) {
                Some(step) => system.open_step(node, Cycle::ZERO, step),
                None => system.schedule_next(node, Cycle::ZERO),
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

    /// Draws `node`'s next operation and the think time (open loop: the
    /// interarrival gap) ahead of it. Every workload driver pulls from
    /// this one seam — closed loop, open loop, and replay, which is a
    /// [`Generator`] variant — and trace recording taps it: the trace
    /// captures the items the cores are handed.
    fn draw(&mut self, node: NodeId) -> (MemOp, u64) {
        let item = self.cores[node.index()].generator.next_item();
        if let Some(recorder) = &mut self.recorder {
            recorder.record(node, item);
        }
        let WorkItem { addr, kind, .. } = item;
        (MemOp { addr, kind }, item.think_cycles)
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
        let (op, think) = self.draw(node);
        self.cores[node.index()].pending = Some(op);
        self.queue.push(now + think, Event::CoreIssue { node });
    }

    /// Open loop: carries out, in order, what the arrival process decided
    /// for `node` — resolve a shed arrival, start service (or finish the
    /// core once its whole arrival budget has resolved), and schedule the
    /// next arrival after its interarrival gap.
    fn open_step(&mut self, node: NodeId, now: Cycle, step: Step) {
        if step.dropped {
            self.note_op_resolved(node, now);
        }
        let quota = self.quota();
        let core = &mut self.cores[node.index()];
        match step.serve {
            Some(op) => {
                core.pending = Some(op);
                self.queue.push(now, Event::CoreIssue { node });
            }
            None => core.finished = core.ops_done >= quota,
        }
        if step.rearm {
            let (op, gap) = self.draw(node);
            if let Some(open) = &mut self.open {
                open.arm(node, op);
            }
            self.queue.push(now + gap, Event::Arrival { node });
        }
    }

    /// Completes `op` at `at`, then advances the core: the closed loop
    /// thinks and issues its next op, the open loop drains its backlog.
    fn complete_and_advance(&mut self, node: NodeId, op: MemOp, version: u64, at: Cycle) {
        let measured = self.complete_op(node, op, version, at);
        match self.open.as_mut().map(|o| o.complete(node, at, measured)) {
            Some(step) => self.open_step(node, at, step),
            None => self.schedule_next(node, at),
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
                if let Some(telemetry) = &mut self.telemetry {
                    telemetry.start_measurement();
                }
                if let Some(open) = &mut self.open {
                    open.start_measurement();
                }
                self.warmup_end = Some(at);
            }
        }
        measured
    }

    /// Records one completed operation (hit or miss) for `node`; returns
    /// whether it landed in the measurement phase.
    fn complete_op(&mut self, node: NodeId, op: MemOp, version: u64, at: Cycle) -> bool {
        if self.config.check == CheckLevel::Assert {
            self.checker.check(op.addr, op.kind, version, at);
        }
        let measured = self.note_op_resolved(node, at);
        if measured {
            self.ops_completed_measured += 1;
            self.last_completion = self.last_completion.max(at);
        }
        measured
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
                let why = format!(
                    "liveness violation: {} miss on core {} took {waited} cycles \
                     (> horizon {horizon})",
                    self.nodes[node.index()].protocol_name(),
                    node.index(),
                );
                self.fail("liveness violation", why);
            }
        }
        if self.in_measurement(node) {
            self.miss_latency.record(now - completion.issued_at);
            self.measured_misses += 1;
            if let Some(telemetry) = &mut self.telemetry {
                let open = self.open.as_ref();
                let queue_wait = open.map(|o| o.queue_wait(node, completion.issued_at));
                telemetry.miss(&completion, now, queue_wait);
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
        self.auditor.begin_delivery(&self.nodes, node, &msg);
        let mut out = self.take_outbox();
        self.nodes[node.index()].handle_message(msg, now, &mut out);
        self.process_outbox(node, &mut out, now);
        self.restore_outbox(out);
        self.auditor.end_action(&self.nodes);
    }

    /// The run's one failing exit: dumps the flight recorder under `reason`,
    /// then panics with `why`, the run context, each stuck block (a miss's,
    /// or one with tokens in flight; eight, then a count) with who holds
    /// its tokens, and the dump path last.
    #[cold]
    fn fail(&mut self, reason: &str, why: String) -> ! {
        const LISTED: usize = 8;
        let dump = self.telemetry.as_mut().and_then(|t| t.dump(reason));
        let (nodes, config) = (&self.nodes, &self.config);
        let mut msg = format!(
            "{why} [protocol={}, fabric={}, workload={}, seed={}]",
            nodes[0].protocol_name(),
            config.protocol.fabric.label(),
            config.workload.name(),
            config.seed,
        );
        let misses = self.cores.iter().enumerate().filter_map(|(i, core)| {
            let (op, since) = (core.outstanding?, core.outstanding_since);
            let what = format!("core {i} {:?} {} since {since}", op.kind, op.addr);
            Some((what, op.addr))
        });
        let flights = (self.auditor.blocks_in_flight())
            .map(|(addr, tokens)| (format!("{addr} t={tokens} in flight"), addr));
        let stuck: Vec<_> = misses.chain(flights).collect();
        for (what, addr) in stuck.iter().take(LISTED) {
            let _ = write!(msg, "; {what} holders: {}", holders(nodes, *addr));
        }
        if stuck.len() > LISTED {
            let _ = write!(msg, "; {} more stuck", stuck.len() - LISTED);
        }
        if let Some(path) = dump {
            let _ = write!(msg, "; flight recorder: {}", path.display());
        }
        panic!("{msg}")
    }

    /// The postconditions of a drained queue: every core done, every
    /// controller quiescent, no token in flight, every block conserved.
    fn check_drained(&mut self) {
        let unfinished = (self.cores.iter()).position(|c| !c.finished || c.outstanding.is_some());
        if let Some(i) = unfinished {
            let (done, of) = (self.cores[i].ops_done, self.quota());
            let why = format!("core {i} never finished: completed {done} of {of} ops (deadlock)");
            self.fail("deadlock", why);
        }
        if let Some(i) = self.nodes.iter().position(|node| !node.is_quiescent()) {
            let why = format!("controller {i} not quiescent at end of run");
            self.fail("deadlock", why);
        }
        let tokens = self.auditor.tokens_in_flight();
        if tokens != 0 {
            let why = format!("tokens still in flight after drain: {tokens}");
            self.fail("token drain", why);
        }
        self.auditor.sweep(&self.nodes);
    }

    /// Processes one popped event: the livelock bound, then dispatch —
    /// under observation when telemetry is armed, which with telemetry
    /// off costs this one check on top of the pre-telemetry loop body.
    #[inline]
    fn step(&mut self, now: Cycle, event: Event) {
        if now.as_u64() > self.config.max_cycles {
            let why = format!(
                "simulation exceeded {} cycles: livelock or runaway protocol",
                self.config.max_cycles
            );
            self.fail("livelock", why);
        }
        if self.telemetry.is_some() {
            self.observed_dispatch(now, event);
        } else {
            self.dispatch(now, event);
        }
    }

    /// [`System::dispatch`] with the observer told first: a snapshot of
    /// cumulative gauges when `now` has crossed an epoch boundary, the
    /// event itself, and the host time its dispatch took. Pure
    /// observation: reads gauges, pushes no events. Kept out of line so
    /// the telemetry-off loop body stays the check and the call.
    #[inline(never)]
    fn observed_dispatch(&mut self, now: Cycle, event: Event) {
        let Some(telemetry) = &mut self.telemetry else {
            return self.dispatch(now, event);
        };
        if telemetry.sample_due(now) {
            let mut snapshot = MetricsSample {
                cycle: now.as_u64(),
                events: self.queue.total_pushed(),
                queue_len: self.queue.len() as u64,
                link_busy: self.noc.total_busy_cycles(),
                num_links: self.noc.spec().num_links() as u64,
                queued_packets: self.noc.queued_packets() as u64,
                backlog: self
                    .open
                    .as_ref()
                    .map(OpenLoop::backlog_depths)
                    .unwrap_or_default(),
                ..MetricsSample::default()
            };
            for node in &self.nodes {
                snapshot.gauges.add(node.gauges());
                snapshot.counters.add(node.counters());
            }
            telemetry.sample(snapshot);
        }
        let (class, target) = class_of(&event);
        let started = telemetry.event(now, class, target);
        self.dispatch(now, event);
        if let Some(telemetry) = &mut self.telemetry {
            telemetry.dispatched(class, started);
        }
    }

    fn dispatch(&mut self, now: Cycle, event: Event) {
        match event {
            Event::CoreIssue { node } => {
                let op = self.cores[node.index()]
                    .pending
                    .take()
                    .expect("issue without a pending op");
                self.auditor.begin_action(&self.nodes, node, op.addr);
                let mut out = self.take_outbox();
                let resp = self.nodes[node.index()].core_request(op, now, &mut out);
                self.process_outbox(node, &mut out, now);
                self.restore_outbox(out);
                self.auditor.end_action(&self.nodes);
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
                self.auditor.begin_action(&self.nodes, node, key.addr);
                let mut out = self.take_outbox();
                self.nodes[node.index()].timer_fired(key, now, &mut out);
                self.process_outbox(node, &mut out, now);
                self.restore_outbox(out);
                self.auditor.end_action(&self.nodes);
            }
            Event::Arrival { node } => {
                let measured = self.in_measurement(node);
                let core = &self.cores[node.index()];
                let idle = core.pending.is_none() && core.outstanding.is_none();
                if let Some(open) = &mut self.open {
                    let step = open.arrive(node, now, idle, measured);
                    self.open_step(node, now, step);
                }
            }
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
                let Some(horizon) = self.config.liveness_horizon else {
                    unreachable!("watchdog event without an armed horizon");
                };
                let starved = self.cores.iter().enumerate().find_map(|(i, core)| {
                    let waited = now.saturating_since(core.outstanding_since);
                    Some((i, core.outstanding?, waited)).filter(|_| waited > horizon)
                });
                if let Some((i, op, waited)) = starved {
                    let why = format!(
                        "liveness violation: core {i} miss outstanding for \
                         {waited} cycles (> horizon {horizon}) on {:?} {:?}",
                        op.kind, op.addr,
                    );
                    self.fail("starvation watchdog", why);
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
        self.try_run(None).unwrap_or_else(|e| panic!("{e}"))
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
                            if let Some(telemetry) = &mut self.telemetry {
                                telemetry.dump("wall-clock timeout");
                            }
                            return Err(RunError::Timeout { limit });
                        }
                    }
                }
            }
        }
        self.check_drained();

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

        if let Some(telemetry) = &mut self.telemetry {
            telemetry
                .write_metrics()
                .map_err(|(path, source)| RunError::MetricsWrite { path, source })?;
        }

        let warmup_end = self.warmup_end.expect("all cores passed warmup");
        let held = |c: &CoreState| c.pending.is_some() as u64 + c.outstanding.is_some() as u64;
        let in_service = self.cores.iter().map(held).sum();
        let open_loop = self.open.take().map(|open| open.finish(in_service));
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
            spans: self.telemetry.as_mut().and_then(|t| t.spans.take()),
            profile: self.telemetry.as_mut().and_then(|t| t.profile.take()),
        })
    }
}

/// Classifies a kernel event for the flight recorder and profiler, with
/// the node it targets (`u32::MAX` when the event is fabric-internal or
/// global).
fn class_of(event: &Event) -> (EventClass, u32) {
    match event {
        Event::Noc(_) => (EventClass::Noc, u32::MAX),
        Event::Timer { node, .. } => (EventClass::Timer, node.index() as u32),
        Event::CoreIssue { node } => (EventClass::CoreIssue, node.index() as u32),
        Event::Arrival { node } => (EventClass::Arrival, node.index() as u32),
        Event::Watchdog => (EventClass::Watchdog, u32::MAX),
    }
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

    /// PATCH-All on four cores with a flight recorder in `dir`.
    fn recorded(dir: &std::path::Path) -> SimConfig {
        small(ProtocolKind::Patch)
            .with_predictor(PredictorChoice::All)
            .with_flight_recorder(dir)
    }

    /// `config`'s `System` stepped through its first `events` events.
    fn stepped(config: SimConfig, events: usize) -> System {
        let mut sys = System::new(config);
        for _ in 0..events {
            let (now, event) = sys.queue.pop().expect("the run is still going");
            sys.step(now, event);
        }
        sys
    }

    /// Runs `exit` against a fresh recorder directory and returns its
    /// failure line, having checked what every exit carries: the run
    /// context, a non-empty token holder, and, last, the path of a dump
    /// made under `reason`.
    fn failure(name: &str, reason: &str, exit: impl FnOnce(&std::path::Path)) -> String {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let dir = std::env::temp_dir().join(format!("patchsim-{name}-{}", std::process::id()));
        let panic = catch_unwind(AssertUnwindSafe(|| exit(&dir))).expect_err("the exit fires");
        let line = panic
            .downcast_ref::<String>()
            .expect("a formatted panic")
            .clone();
        assert!(
            line.contains(" [protocol=PATCH, fabric=torus, workload="),
            "{line}"
        );
        assert!(line.contains(", seed=1]"), "{line}");
        assert!(line.contains(" holders: P"), "{line}");
        let (_, path) = line
            .rsplit_once("; flight recorder: ")
            .expect("a dump path");
        assert!(path.ends_with(".fdr") && !path.contains("; "), "{line}");
        let dump = std::fs::read_to_string(path).expect("the dump");
        assert!(dump.contains(&format!("\"reason\":\"{reason}\"")), "{dump}");
        std::fs::remove_dir_all(&dir).expect("remove the recorder directory");
        line
    }

    #[test]
    fn livelock_exit_names_the_run_and_its_stuck_misses() {
        let line = failure("livelock", "livelock", |dir| {
            let mut cfg = recorded(dir);
            cfg.max_cycles = 10;
            run(&cfg);
        });
        assert!(line.starts_with("simulation exceeded 10 cycles: livelock"));
        assert!(line.contains("; core 0 "), "{line}");
    }

    #[test]
    fn watchdog_exit_names_the_run_and_its_stuck_misses() {
        let line = failure("watchdog", "starvation watchdog", |dir| {
            run(&recorded(dir).with_liveness_horizon(10));
        });
        assert!(line.starts_with("liveness violation: core "), "{line}");
    }

    #[test]
    fn late_completion_exit_names_the_run_and_its_stuck_misses() {
        let line = failure("late-completion", "liveness violation", |dir| {
            let mut sys = stepped(recorded(dir).with_liveness_horizon(1_000_000), 200);
            let node = (0..4)
                .map(NodeId::new)
                .find(|n| sys.cores[n.index()].outstanding.is_some());
            let node = node.expect("a miss is outstanding");
            let op = sys.cores[node.index()].outstanding.expect("checked");
            let completion = Completion {
                addr: op.addr,
                kind: op.kind,
                version: 0,
                issued_at: Cycle::ZERO,
                marks: patchsim_protocol::SpanMarks::default(),
            };
            sys.finish_miss(node, completion, Cycle::new(2_000_000));
        });
        assert!(
            line.starts_with("liveness violation: PATCH miss on core "),
            "{line}"
        );
    }

    #[test]
    fn unfinished_core_exit_dumps_as_a_deadlock() {
        let line = failure("unfinished", "deadlock", |dir| {
            stepped(recorded(dir), 200).check_drained();
        });
        assert!(
            line.starts_with("core 0 never finished: completed "),
            "{line}"
        );
    }

    #[test]
    fn busy_controller_exit_names_the_blocks_in_flight() {
        let line = failure("busy", "deadlock", |dir| {
            // Step on until a block is split between the network and a node.
            let mut sys = System::new(recorded(dir));
            let split = |sys: &System| {
                let mut blocks = sys.auditor.blocks_in_flight();
                blocks.any(|(addr, _)| holders(&sys.nodes, addr) != "none")
            };
            while !split(&sys) {
                let (now, event) = sys.queue.pop().expect("the run is still going");
                sys.step(now, event);
            }
            for core in &mut sys.cores {
                (core.finished, core.outstanding) = (true, None);
            }
            sys.check_drained();
        });
        assert!(line.contains(" not quiescent at end of run ["), "{line}");
        assert!(line.contains(" in flight holders: P"), "{line}");
    }

    #[test]
    fn stranded_tokens_exit_dumps_as_a_token_drain() {
        use patchsim_mem::{BlockAddr, TokenSet};
        use patchsim_protocol::MsgBody;

        let line = failure("stranded", "token drain", |dir| {
            // Tokens sent that nothing will deliver, with every controller
            // idle: the one state that passes the two checks before.
            let mut sys = System::new(recorded(dir));
            let ack = MsgBody::Ack {
                from: NodeId::new(1),
                serial: 0,
                tokens: TokenSet::plain(2),
                activation: false,
            };
            sys.auditor.on_send(&Msg::new(BlockAddr::new(3), ack));
            for core in &mut sys.cores {
                core.finished = true;
            }
            sys.check_drained();
        });
        assert!(
            line.starts_with("tokens still in flight after drain: 2 ["),
            "{line}"
        );
        assert!(
            line.contains("; 0x3 t=2 in flight holders: P3 t=4(+Oc)"),
            "{line}"
        );
    }
}
