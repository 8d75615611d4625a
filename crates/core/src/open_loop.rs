//! The open-loop workload driver: per-core arrival processes feeding
//! bounded backlogs, decoupled from completions.
//!
//! [`OpenLoop`] owns everything a
//! [`WorkloadSpec::OpenLoop`](crate::WorkloadSpec::OpenLoop) run carries
//! that a closed-loop run does not, and exists only in such a run. It
//! never touches the event queue, the cores or the generators: each
//! transition answers with a [`Step`] that the event loop carries out,
//! the way a controller answers through its outbox.

use std::collections::VecDeque;

use patchsim_kernel::stats::Histogram;
use patchsim_kernel::Cycle;
use patchsim_noc::NodeId;
use patchsim_protocol::MemOp;
use patchsim_workload::{ArrivalProfile, OverloadPolicy};

use crate::result::OpenLoopStats;

/// One core's arrival side.
#[derive(Debug, Default)]
struct Station {
    /// Queued arrivals awaiting service, each with its arrival cycle (the
    /// sojourn clock's start).
    backlog: VecDeque<(MemOp, Cycle)>,
    /// The op drawn for the next scheduled arrival event.
    next_arrival: Option<MemOp>,
    /// An arrival stalled by a full backlog under
    /// [`OverloadPolicy::Block`], with its original arrival cycle.
    blocked: Option<(MemOp, Cycle)>,
    /// Arrivals drawn from the generator so far.
    arrivals_drawn: u64,
    /// Arrival cycle of the op currently in service.
    in_service_since: Cycle,
}

/// What the event loop does for a core after its arrival process moved,
/// in field order.
#[derive(Debug, Default)]
pub(crate) struct Step {
    /// An arrival was shed: it resolves (warm-up, quota) without ever
    /// completing.
    pub dropped: bool,
    /// Put this op into service now; `None` leaves the core idle.
    pub serve: Option<MemOp>,
    /// Draw the core's next arrival, schedule it after its interarrival
    /// gap, and hand the op to [`OpenLoop::arm`].
    pub rearm: bool,
}

/// The arrival processes, backlogs and saturation accounting of one run.
#[derive(Debug)]
pub(crate) struct OpenLoop {
    cap: usize,
    block: bool,
    /// Arrivals each core draws: the same warm-up + measured quota a
    /// closed-loop core issues. Once drawn the process stops, and the
    /// core finishes when the last one resolves.
    quota: u64,
    stats: OpenLoopStats,
    cores: Vec<Station>,
}

impl OpenLoop {
    pub(crate) fn new(profile: &ArrivalProfile, num_nodes: u16, quota: u64) -> Self {
        OpenLoop {
            cap: profile.backlog_cap as usize,
            block: profile.policy == OverloadPolicy::Block,
            quota,
            stats: OpenLoopStats::default(),
            cores: (0..num_nodes).map(|_| Station::default()).collect(),
        }
    }

    /// Counts one more arrival against `node`'s budget, if any is left.
    fn rearm(&mut self, node: NodeId) -> bool {
        let core = &mut self.cores[node.index()];
        let left = core.arrivals_drawn < self.quota;
        core.arrivals_drawn += u64::from(left);
        left
    }

    /// Time zero: no op is pending; each core's first arrival lands
    /// after its first interarrival gap.
    pub(crate) fn start(&mut self, node: NodeId) -> Step {
        Step {
            rearm: self.rearm(node),
            ..Step::default()
        }
    }

    /// Stores the op drawn for `node`'s next arrival event.
    pub(crate) fn arm(&mut self, node: NodeId, op: MemOp) {
        self.cores[node.index()].next_arrival = Some(op);
    }

    /// One operation arrives at `node` — into service if the core is
    /// `idle`, into the backlog if there is room, otherwise dropped or
    /// (block policy) stalling the arrival process.
    pub(crate) fn arrive(&mut self, node: NodeId, now: Cycle, idle: bool, measured: bool) -> Step {
        let core = &mut self.cores[node.index()];
        let op = core
            .next_arrival
            .take()
            .expect("arrival without a drawn op");
        self.stats.arrivals += 1;
        self.stats.measured_arrivals += u64::from(measured);
        let mut step = Step::default();
        if idle && core.backlog.is_empty() {
            core.in_service_since = now;
            step.serve = Some(op);
        } else if core.backlog.len() < self.cap {
            core.backlog.push_back((op, now));
            self.stats.backlog_hwm = self.stats.backlog_hwm.max(core.backlog.len() as u64);
        } else if self.block {
            // The arrival process stalls: no further arrival is
            // scheduled until a slot frees.
            core.blocked = Some((op, now));
            return step;
        } else {
            // The op leaves the system now.
            self.stats.drops += 1;
            self.stats.measured_drops += u64::from(measured);
            step.dropped = true;
        }
        step.rearm = self.rearm(node);
        step
    }

    /// `node`'s op in service completed at `at`: records its sojourn (on
    /// the same in-measurement gate as miss latency) and pulls the next
    /// queued op into service, unstalling a blocked arrival into the
    /// freed slot.
    pub(crate) fn complete(&mut self, node: NodeId, at: Cycle, measured: bool) -> Step {
        let core = &mut self.cores[node.index()];
        if measured {
            let sojourn = at.saturating_since(core.in_service_since);
            self.stats.sojourn.record(sojourn);
        }
        let mut step = Step::default();
        if let Some((op, arrived)) = core.backlog.pop_front() {
            core.in_service_since = arrived;
            step.serve = Some(op);
            if let Some((op, arrived)) = core.blocked.take() {
                // The stalled arrival keeps its *original* arrival time
                // (its sojourn includes the stall), and the arrival
                // process resumes.
                core.backlog.push_back((op, arrived));
                self.stats.blocked_cycles += at.saturating_since(arrived);
                step.rearm = self.rearm(node);
            }
        } else {
            debug_assert!(
                core.blocked.is_none(),
                "blocked arrival behind an empty backlog"
            );
        }
        step
    }

    /// Cycles the op `node` has in service waited between arriving and
    /// being issued at `issued_at` (the `queue_wait` span).
    pub(crate) fn queue_wait(&self, node: NodeId, issued_at: Cycle) -> u64 {
        issued_at.saturating_since(self.cores[node.index()].in_service_since)
    }

    /// The global warm-up boundary: discards the measured samples of
    /// cores that outran it.
    pub(crate) fn start_measurement(&mut self) {
        self.stats.sojourn = Histogram::new();
        self.stats.measured_arrivals = 0;
        self.stats.measured_drops = 0;
    }

    /// Queued (not yet in service) ops per core, for the epoch sampler.
    pub(crate) fn backlog_depths(&self) -> Vec<u64> {
        self.cores.iter().map(|c| c.backlog.len() as u64).collect()
    }

    /// The run's accounting; `in_service` is the number of ops the cores
    /// still hold when the event loop drained.
    pub(crate) fn finish(self, in_service: u64) -> OpenLoopStats {
        let waiting = |c: &Station| c.backlog.len() as u64 + u64::from(c.blocked.is_some());
        OpenLoopStats {
            in_flight_at_horizon: in_service + self.cores.iter().map(waiting).sum::<u64>(),
            ..self.stats
        }
    }
}
