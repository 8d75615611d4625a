//! The shadow loop: the closed-loop event loop of `patchsim::System`,
//! assembled again from the public APIs of the layer crates so that every
//! call into a layer can be bracketed from outside.
//!
//! It mirrors `System::new` and `System::try_run` statement for statement
//! for closed-loop workloads with telemetry and trace recording off, and
//! must produce the same `RunResult` as `patchsim::run` (the crate's
//! `shadow_equivalence` test and every traced benchmark pass check that).
//! With the [`Off`](crate::bracket::Off) probe it is the minimal loop that
//! `core.system_over_shadow_ratio` compares `System` against.

use patchsim::{CheckLevel, CoherenceChecker, RunResult, SimConfig, TokenAuditor, WorkloadSpec};
use patchsim_kernel::stats::Histogram;
use patchsim_kernel::{streams, Cycle, EventQueue, SimRng};
use patchsim_noc::{Fabric, NocEvent, NodeId};
use patchsim_protocol::{
    build_controller, Completion, Controller, CoreResponse, MemOp, Msg, MsgBody, Outbox,
    ProtocolCounters, TimerKey,
};
use patchsim_workload::Generator;

use crate::bracket::{Call, MissId, Probe};

enum Event {
    Noc(NocEvent<Msg>),
    Timer { node: NodeId, key: TimerKey },
    CoreIssue { node: NodeId },
    Watchdog,
}

struct Core {
    generator: Generator,
    pending: Option<MemOp>,
    outstanding: Option<MemOp>,
    outstanding_since: Cycle,
    ops_done: u64,
    finished: bool,
}

struct Shadow<'p, P: Probe> {
    config: SimConfig,
    queue: EventQueue<Event>,
    noc: Fabric<Msg>,
    nodes: Vec<Box<dyn Controller + Send>>,
    cores: Vec<Core>,
    checker: CoherenceChecker,
    auditor: TokenAuditor,
    outbox: Outbox,
    delivered: Vec<(NodeId, Msg)>,
    miss_latency: Histogram,
    measured_misses: u64,
    ops_completed_measured: u64,
    last_completion: Cycle,
    cores_past_warmup: usize,
    warmup_end: Option<Cycle>,
    probe: &'p mut P,
}

/// What the shadow loop measured beyond the `RunResult`.
pub struct ShadowRun {
    /// The same result `patchsim::run` returns for the configuration.
    pub result: RunResult,
    /// `Fabric::total_busy_cycles` when the queue drained.
    pub noc_busy_cycles: u64,
}

/// Builds and runs `config` on the shadow loop.
///
/// # Panics
///
/// Panics where `patchsim::run` does (protocol bugs, liveness
/// violations), and on a configuration the shadow loop does not mirror:
/// an open-loop workload, trace recording, or telemetry.
pub fn run<P: Probe>(config: &SimConfig, probe: &mut P) -> ShadowRun {
    assert!(
        !matches!(config.workload, WorkloadSpec::OpenLoop(_))
            && config.record_trace.is_none()
            && !config.telemetry.any(),
        "the shadow loop mirrors closed-loop runs without recording or telemetry"
    );
    Shadow::new(config.clone(), probe).run()
}

/// The requester and block a delivered message works for.
fn miss_of(msg: &Msg, dest: NodeId) -> (NodeId, u64) {
    let node = match &msg.body {
        MsgBody::Request { requester, .. }
        | MsgBody::Fwd { requester, .. }
        | MsgBody::Deactivate { requester, .. } => *requester,
        MsgBody::Put { node, .. } => *node,
        MsgBody::PersistentActivate { starver, .. }
        | MsgBody::PersistentDeactivate { starver, .. } => *starver,
        MsgBody::Data { .. }
        | MsgBody::Ack { .. }
        | MsgBody::Activation { .. }
        | MsgBody::WbAck { .. } => dest,
    };
    (node, msg.addr.raw())
}

impl<'p, P: Probe> Shadow<'p, P> {
    fn new(mut config: SimConfig, probe: &'p mut P) -> Self {
        let n = config.protocol.num_nodes;
        if config.protocol.working_set_hint.is_none() {
            config.protocol.working_set_hint = Some(config.workload.working_set_blocks(n));
        }
        let noc = Fabric::new(config.fabric_config());
        let root_rng = SimRng::from_seed(config.seed).fork(streams::WORKLOAD);
        let nodes = (0..n)
            .map(|i| build_controller(&config.protocol, NodeId::new(i)))
            .collect();
        let cores = (0..n)
            .map(|i| Core {
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
        let auditor = if config.check == CheckLevel::Assert {
            TokenAuditor::new(config.protocol.total_tokens)
        } else {
            TokenAuditor::coarse(config.protocol.total_tokens)
        };
        let no_warmup = config.warmup_ops_per_core == 0;
        let mut shadow = Shadow {
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
            last_completion: Cycle::ZERO,
            cores_past_warmup: if no_warmup { n as usize } else { 0 },
            warmup_end: no_warmup.then_some(Cycle::ZERO),
            probe,
            config,
        };
        for i in 0..n {
            shadow.schedule_next(NodeId::new(i), Cycle::ZERO);
        }
        if let Some(horizon) = shadow.config.liveness_horizon {
            shadow.push(Cycle::new(horizon), Event::Watchdog);
        }
        shadow
    }

    fn push(&mut self, at: Cycle, event: Event) {
        self.probe.enter(Call::KernelPush);
        self.queue.push(at, event);
        self.probe.exit(Call::KernelPush);
    }

    fn quota(&self) -> u64 {
        self.config.warmup_ops_per_core + self.config.ops_per_core
    }

    fn schedule_next(&mut self, node: NodeId, now: Cycle) {
        let quota = self.quota();
        let core = &mut self.cores[node.index()];
        if core.ops_done >= quota {
            core.finished = true;
            return;
        }
        self.probe.enter(Call::NextItem);
        let item = core.generator.next_item();
        self.probe.exit(Call::NextItem);
        core.pending = Some(MemOp {
            addr: item.addr,
            kind: item.kind,
        });
        self.push(now + item.think_cycles, Event::CoreIssue { node });
    }

    fn note_op_resolved(&mut self, node: NodeId, at: Cycle) -> bool {
        let warmup = self.config.warmup_ops_per_core;
        let core = &mut self.cores[node.index()];
        core.ops_done += 1;
        let measured = core.ops_done > warmup;
        if warmup > 0 && core.ops_done == warmup {
            self.cores_past_warmup += 1;
            if self.cores_past_warmup == self.config.protocol.num_nodes as usize {
                self.noc.reset_stats();
                self.miss_latency = Histogram::new();
                self.measured_misses = 0;
                self.warmup_end = Some(at);
            }
        }
        measured
    }

    fn complete_and_advance(&mut self, node: NodeId, op: MemOp, version: u64, at: Cycle) {
        if self.config.check == CheckLevel::Assert {
            self.probe.enter(Call::Checker);
            self.checker.check(op.addr, op.kind, version, at);
            self.probe.exit(Call::Checker);
        }
        if self.note_op_resolved(node, at) {
            self.ops_completed_measured += 1;
            self.last_completion = self.last_completion.max(at);
        }
        self.schedule_next(node, at);
    }

    fn in_measurement(&self, node: NodeId) -> bool {
        self.cores[node.index()].ops_done >= self.config.warmup_ops_per_core
    }

    fn process_outbox(&mut self, node: NodeId, out: &mut Outbox, now: Cycle) {
        for send in out.sends.drain(..) {
            self.probe.enter(Call::Auditor);
            self.auditor.on_send(&send.msg);
            self.probe.exit(Call::Auditor);
            let Self {
                noc, queue, probe, ..
            } = self;
            probe.enter(Call::NocSend);
            noc.send(
                now + send.delay,
                node,
                send.dests,
                send.priority,
                send.msg,
                &mut |at, ev| {
                    probe.enter(Call::KernelPush);
                    queue.push(at, Event::Noc(ev));
                    probe.exit(Call::KernelPush);
                },
            );
            probe.exit(Call::NocSend);
        }
        for (at, key) in out.timers.drain(..) {
            self.push(at, Event::Timer { node, key });
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
        if let Some(horizon) = self.config.liveness_horizon {
            let waited = now.saturating_since(completion.issued_at);
            assert!(
                waited <= horizon,
                "liveness violation: miss on core {} took {waited} cycles (> horizon {horizon})",
                node.index()
            );
        }
        if self.in_measurement(node) {
            self.miss_latency.record(now - completion.issued_at);
            self.measured_misses += 1;
        }
        self.complete_and_advance(node, op, completion.version, now);
    }

    fn deliver(&mut self, node: NodeId, msg: Msg, now: Cycle) {
        let cores = &self.cores;
        self.probe.set_miss(|| {
            let (requester, block) = miss_of(&msg, node);
            let core = &cores[requester.index()];
            let issued = core
                .outstanding
                .filter(|op| op.addr.raw() == block)
                .map_or(0, |_| core.outstanding_since.as_u64());
            MissId {
                node: requester.index() as u32,
                block,
                issue_cycle: issued,
            }
        });
        self.probe.enter(Call::Auditor);
        self.auditor.on_deliver(&msg);
        self.probe.exit(Call::Auditor);
        let addr = msg.addr;
        let mut out = std::mem::take(&mut self.outbox);
        self.probe.enter(Call::HandleMessage);
        self.nodes[node.index()].handle_message(msg, now, &mut out);
        self.probe.exit(Call::HandleMessage);
        self.process_outbox(node, &mut out, now);
        self.outbox = out;
        if self.config.check == CheckLevel::Assert {
            self.probe.enter(Call::Auditor);
            self.auditor.audit(addr, &self.nodes);
            self.probe.exit(Call::Auditor);
        }
    }

    fn dispatch(&mut self, now: Cycle, event: Event) {
        match event {
            Event::CoreIssue { node } => {
                let op = self.cores[node.index()]
                    .pending
                    .take()
                    .expect("issue without a pending op");
                self.probe.set_miss(|| MissId {
                    node: node.index() as u32,
                    block: op.addr.raw(),
                    issue_cycle: now.as_u64(),
                });
                let mut out = std::mem::take(&mut self.outbox);
                self.probe.enter(Call::CoreRequest);
                let resp = self.nodes[node.index()].core_request(op, now, &mut out);
                self.probe.exit(Call::CoreRequest);
                self.process_outbox(node, &mut out, now);
                self.outbox = out;
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
                let core = &self.cores[node.index()];
                self.probe.set_miss(|| MissId {
                    node: node.index() as u32,
                    block: key.addr.raw(),
                    issue_cycle: core
                        .outstanding
                        .filter(|op| op.addr == key.addr)
                        .map_or(0, |_| core.outstanding_since.as_u64()),
                });
                let mut out = std::mem::take(&mut self.outbox);
                self.probe.enter(Call::TimerFired);
                self.nodes[node.index()].timer_fired(key, now, &mut out);
                self.probe.exit(Call::TimerFired);
                self.process_outbox(node, &mut out, now);
                self.outbox = out;
            }
            Event::Noc(ev) => {
                let mut delivered = std::mem::take(&mut self.delivered);
                let Self {
                    noc, queue, probe, ..
                } = self;
                probe.enter(Call::NocHandle);
                noc.handle(
                    now,
                    ev,
                    &mut |at, e| {
                        probe.enter(Call::KernelPush);
                        queue.push(at, Event::Noc(e));
                        probe.exit(Call::KernelPush);
                    },
                    &mut |n, m| delivered.push((n, m)),
                );
                probe.exit(Call::NocHandle);
                for (n, m) in delivered.drain(..) {
                    self.deliver(n, m, now);
                }
                self.delivered = delivered;
            }
            Event::Watchdog => {
                let horizon = self
                    .config
                    .liveness_horizon
                    .expect("watchdog event without an armed horizon");
                for (i, core) in self.cores.iter().enumerate() {
                    let waited = now.saturating_since(core.outstanding_since);
                    assert!(
                        core.outstanding.is_none() || waited <= horizon,
                        "liveness violation: core {i} miss outstanding for {waited} cycles \
                         (> horizon {horizon})"
                    );
                }
                if self.cores.iter().any(|c| !c.finished) {
                    self.push(now + horizon, Event::Watchdog);
                }
            }
        }
    }

    fn run(mut self) -> ShadowRun {
        loop {
            self.probe.begin_event(self.queue.len());
            self.probe.enter(Call::KernelPop);
            let popped = self.queue.pop();
            self.probe.exit(Call::KernelPop);
            let Some((now, event)) = popped else {
                self.probe.end_event(0);
                break;
            };
            assert!(
                now.as_u64() <= self.config.max_cycles,
                "simulation exceeded {} cycles: livelock or runaway protocol",
                self.config.max_cycles
            );
            self.dispatch(now, event);
            self.probe.end_event(now.as_u64());
        }
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
        let warmup_end = self.warmup_end.expect("all cores passed warmup");
        let mut counters = ProtocolCounters::default();
        for node in &self.nodes {
            let c = node.counters();
            counters.hits += c.hits;
            counters.misses += c.misses;
            counters.satisfied_before_activation += c.satisfied_before_activation;
            counters.tenure_timeouts += c.tenure_timeouts;
            counters.direct_responses += c.direct_responses;
            counters.direct_ignored += c.direct_ignored;
            counters.reissues += c.reissues;
            counters.persistent_requests += c.persistent_requests;
            counters.writebacks += c.writebacks;
        }
        ShadowRun {
            noc_busy_cycles: self.noc.total_busy_cycles(),
            result: RunResult {
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
                open_loop: None,
                spans: None,
                profile: None,
            },
        }
    }
}
