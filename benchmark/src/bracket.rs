//! The tracer: sampled brackets around the calls the shadow loop makes
//! into each layer.
//!
//! Reading the clock twice around every call costs 2.3-3.4x on these
//! workloads, which would measure the clock and not the simulator. The
//! tracer therefore counts every call but times only the calls made while
//! processing one popped event in [`SAMPLE_EVERY`]; the calibrated cost of
//! a bracket is subtracted from it and from the bracket around it. A
//! bracket's self time excludes the brackets opened inside it, so the
//! queue pushes the fabric makes through its scheduling callback are
//! charged to the kernel and not to the fabric.

use std::io::{self, Write};
use std::time::Instant;

/// One popped event in this many has its calls timed.
pub const SAMPLE_EVERY: u32 = 32;

/// Raw spans kept in memory; later ones are counted but not stored.
pub const SPAN_CAP: usize = 200_000;

/// A bracketed call: the unit of per-layer accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `EventQueue::pop`.
    KernelPop,
    /// `EventQueue::push`.
    KernelPush,
    /// `Fabric::send`.
    NocSend,
    /// `Fabric::handle`.
    NocHandle,
    /// `Controller::core_request`.
    CoreRequest,
    /// `Controller::handle_message`.
    HandleMessage,
    /// `Controller::timer_fired`.
    TimerFired,
    /// `Generator::next_item`.
    NextItem,
    /// `TokenAuditor::{on_send,on_deliver,audit}`.
    Auditor,
    /// `CoherenceChecker::check`.
    Checker,
}

impl Call {
    /// Every call, in reporting order.
    pub const ALL: [Call; 10] = [
        Call::KernelPop,
        Call::KernelPush,
        Call::NocSend,
        Call::NocHandle,
        Call::CoreRequest,
        Call::HandleMessage,
        Call::TimerFired,
        Call::NextItem,
        Call::Auditor,
        Call::Checker,
    ];

    /// The layer (crate) the call belongs to.
    pub fn layer(self) -> &'static str {
        match self {
            Call::KernelPop | Call::KernelPush => "kernel",
            Call::NocSend | Call::NocHandle => "noc",
            Call::CoreRequest | Call::HandleMessage | Call::TimerFired => "protocol",
            Call::NextItem => "workload",
            Call::Auditor | Call::Checker => "core",
        }
    }

    /// The call's name within its layer.
    pub fn name(self) -> &'static str {
        match self {
            Call::KernelPop => "pop",
            Call::KernelPush => "push",
            Call::NocSend => "send",
            Call::NocHandle => "handle",
            Call::CoreRequest => "core_request",
            Call::HandleMessage => "handle_message",
            Call::TimerFired => "timer_fired",
            Call::NextItem => "next_item",
            Call::Auditor => "auditor",
            Call::Checker => "checker",
        }
    }
}

/// The miss a span belongs to: requesting node, block, issue cycle. Spans
/// of one miss share it. `node == u32::MAX` means the event concerned no
/// identifiable miss (a fabric hop that delivered nothing, the watchdog).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MissId {
    /// The requesting node.
    pub node: u32,
    /// The block address.
    pub block: u64,
    /// The cycle the miss was issued, or 0 when it is no longer (or not
    /// yet) outstanding at the requester.
    pub issue_cycle: u64,
}

impl MissId {
    /// No identifiable miss.
    pub const NONE: MissId = MissId {
        node: u32::MAX,
        block: 0,
        issue_cycle: 0,
    };
}

/// One raw span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// 1-based span identifier.
    pub id: u32,
    /// The `kernel.pop` span of the event that caused this call; 0 for
    /// the pop span itself.
    pub parent: u32,
    /// The miss the event worked on.
    pub miss: MissId,
    /// The bracketed call.
    pub call: Call,
    /// Simulated time of the event.
    pub sim_cycle: u64,
    /// Host nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Per-call aggregate over the timed brackets.
#[derive(Clone, Debug)]
pub struct Agg {
    /// Calls timed.
    pub timed: u64,
    /// Self nanoseconds over the timed calls, clock cost subtracted.
    pub self_ns: f64,
    /// Timed calls by `floor(log2(raw duration in ns))`.
    pub log2_hist: [u64; 32],
}

impl Agg {
    fn new() -> Self {
        Agg {
            timed: 0,
            self_ns: 0.0,
            log2_hist: [0; 32],
        }
    }

    /// Mean self nanoseconds of one call, 0 when none was timed.
    pub fn ns_per_call(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.self_ns / self.timed as f64
        }
    }
}

/// What the shadow loop reports to; [`Off`] compiles to nothing.
pub trait Probe {
    /// Called before each pop.
    fn begin_event(&mut self, queue_len: usize);
    /// Called once the popped event is fully processed.
    fn end_event(&mut self, sim_cycle: u64);
    /// Names the miss the current event works on, once it is known.
    fn set_miss(&mut self, miss: impl FnOnce() -> MissId);
    /// Opens a bracket.
    fn enter(&mut self, call: Call);
    /// Closes the innermost bracket, which must be `call`.
    fn exit(&mut self, call: Call);
}

/// The untraced probe.
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn begin_event(&mut self, _queue_len: usize) {}
    #[inline(always)]
    fn end_event(&mut self, _sim_cycle: u64) {}
    #[inline(always)]
    fn set_miss(&mut self, _miss: impl FnOnce() -> MissId) {}
    #[inline(always)]
    fn enter(&mut self, _call: Call) {}
    #[inline(always)]
    fn exit(&mut self, _call: Call) {}
}

struct Frame {
    call: Call,
    start_ns: u64,
    /// What the brackets closed inside this one cost it.
    child_ns: f64,
}

/// What an empty bracket costs, measured by [`calibrate`].
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Nanoseconds an empty bracket reads: about one clock read.
    pub inner_ns: f64,
    /// Nanoseconds an empty bracket adds to whatever encloses it beyond
    /// what it reads: the other halves of its clock reads and the
    /// tracer's bookkeeping.
    pub outer_ns: f64,
}

/// What a tracer counted and timed, without its spans: the part that
/// adds up over rounds and configurations.
#[derive(Clone, Debug)]
pub struct Totals {
    /// Calls made, timed or not, by `Call as usize`.
    calls: [u64; Call::ALL.len()],
    aggs: [Agg; Call::ALL.len()],
    /// Timed events.
    pub events_timed: u64,
    /// Largest queue length seen at a pop.
    pub queue_len_max: usize,
}

impl Default for Totals {
    fn default() -> Self {
        Totals {
            calls: [0; Call::ALL.len()],
            aggs: std::array::from_fn(|_| Agg::new()),
            events_timed: 0,
            queue_len_max: 0,
        }
    }
}

impl Totals {
    /// The aggregate of `call` over its timed brackets.
    pub fn agg(&self, call: Call) -> &Agg {
        &self.aggs[call as usize]
    }

    /// How often `call` was made, timed or not.
    pub fn calls(&self, call: Call) -> u64 {
        self.calls[call as usize]
    }

    /// Self nanoseconds of every timed call of `layer`.
    pub fn layer_ns(&self, layer: &str) -> f64 {
        Call::ALL
            .iter()
            .filter(|c| c.layer() == layer)
            .map(|&c| self.agg(c).self_ns)
            .sum()
    }

    /// Adds `other` to these totals.
    pub fn merge(&mut self, other: &Totals) {
        for (a, b) in self.calls.iter_mut().zip(&other.calls) {
            *a += b;
        }
        for (a, b) in self.aggs.iter_mut().zip(&other.aggs) {
            a.timed += b.timed;
            a.self_ns += b.self_ns;
            for (x, y) in a.log2_hist.iter_mut().zip(&b.log2_hist) {
                *x += y;
            }
        }
        self.events_timed += other.events_timed;
        self.queue_len_max = self.queue_len_max.max(other.queue_len_max);
    }

    /// One text line per call that was timed: count, self time, and the
    /// log2 histogram of raw durations from its first to its last
    /// occupied bucket.
    pub fn lines(&self) -> Vec<String> {
        Call::ALL
            .iter()
            .filter(|&&c| self.agg(c).timed > 0)
            .map(|&c| {
                let agg = self.agg(c);
                let first = agg.log2_hist.iter().position(|&n| n > 0).unwrap_or(0);
                let last = agg.log2_hist.iter().rposition(|&n| n > 0).unwrap_or(0);
                format!(
                    "{}.{}: {} calls over all rounds, {} timed, {} ns self each, raw ns histogram from 2^{first}: {:?}",
                    c.layer(),
                    c.name(),
                    self.calls(c),
                    agg.timed,
                    agg.ns_per_call(),
                    &agg.log2_hist[first..=last]
                )
            })
            .collect()
    }
}

/// The tracing probe.
pub struct Tracer {
    epoch: Instant,
    cal: Calibration,
    countdown: u32,
    timing: bool,
    stack: Vec<Frame>,
    totals: Totals,
    event_start_ns: u64,
    event_first_span: usize,
    event_miss: MissId,
    /// Raw nanoseconds of the timed events, pop to end of dispatch; what
    /// [`calibrate`] reads the cost of a bracket pair from.
    event_ns: f64,
    spans: Vec<Span>,
    /// Spans dropped because [`SPAN_CAP`] was reached.
    pub spans_dropped: u64,
}

/// Measures what an empty bracket costs by running batches of them
/// through a tracer; the medians over the batches.
pub fn calibrate() -> Calibration {
    const BATCHES: usize = 21;
    const BRACKETS: u32 = 1_000;
    let mut tracer = Tracer::new(Calibration {
        inner_ns: 0.0,
        outer_ns: 0.0,
    });
    let (mut inner, mut pair) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let (event_before, self_before) =
            (tracer.event_ns, tracer.totals.agg(Call::Checker).self_ns);
        tracer.countdown = 1;
        tracer.begin_event(0);
        for _ in 0..BRACKETS {
            tracer.enter(Call::Checker);
            tracer.exit(Call::Checker);
        }
        tracer.end_event(0);
        inner.push((tracer.totals.agg(Call::Checker).self_ns - self_before) / f64::from(BRACKETS));
        pair.push((tracer.event_ns - event_before) / f64::from(BRACKETS));
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let inner_ns = median(&mut inner);
    Calibration {
        inner_ns,
        outer_ns: (median(&mut pair) - inner_ns).max(0.0),
    }
}

impl Tracer {
    /// A tracer that corrects its brackets by `cal`.
    pub fn new(cal: Calibration) -> Self {
        Tracer {
            epoch: Instant::now(),
            cal,
            countdown: SAMPLE_EVERY,
            timing: false,
            stack: Vec::with_capacity(8),
            totals: Totals::default(),
            event_start_ns: 0,
            event_first_span: 0,
            event_miss: MissId::NONE,
            event_ns: 0.0,
            // Reserved up front (and touched only as it fills) so that no
            // bracket pays for a reallocation.
            spans: Vec::with_capacity(SPAN_CAP),
            spans_dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// What this tracer counted and timed.
    pub fn totals(&self) -> &Totals {
        &self.totals
    }

    /// The stored spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the stored spans as JSON lines, tagged with the index and
    /// protocol of the run they came from.
    pub fn write_spans(&self, run: usize, protocol: &str, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            let miss = if s.miss == MissId::NONE {
                "null".to_string()
            } else {
                format!("[{},{},{}]", s.miss.node, s.miss.block, s.miss.issue_cycle)
            };
            writeln!(
                out,
                "{{\"run\":{run},\"protocol\":\"{protocol}\",\"id\":{},\"parent\":{},\
                 \"miss\":{},\"layer\":\"{}\",\"call\":\"{}\",\
                 \"sim_cycle\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                miss,
                s.call.layer(),
                s.call.name(),
                s.sim_cycle,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

// The timed paths, kept out of line so that the untimed 31 events in 32
// pay for a counter and a branch per bracket and nothing else.
impl Tracer {
    #[cold]
    #[inline(never)]
    fn start_event(&mut self) {
        self.countdown = SAMPLE_EVERY;
        self.timing = true;
        self.event_first_span = self.spans.len();
        self.event_miss = MissId::NONE;
        self.event_start_ns = self.now_ns();
    }

    #[cold]
    #[inline(never)]
    fn finish_event(&mut self, sim_cycle: u64) {
        let end = self.now_ns();
        self.timing = false;
        debug_assert!(self.stack.is_empty(), "bracket left open across events");
        let raw = (end - self.event_start_ns) as f64;
        self.totals.events_timed += 1;
        self.event_ns += raw;
        // The miss and the cycle are known only once the event has been
        // dispatched, after its first spans were recorded.
        let parent = self.spans.get(self.event_first_span).map_or(0, |s| s.id);
        for s in &mut self.spans[self.event_first_span..] {
            s.miss = self.event_miss;
            s.sim_cycle = sim_cycle;
            if s.id != parent {
                s.parent = parent;
            }
        }
    }

    #[cold]
    #[inline(never)]
    fn open(&mut self, call: Call) {
        self.stack.push(Frame {
            call,
            start_ns: 0,
            child_ns: 0.0,
        });
        // Read last, so that the push is outside the bracket.
        let start_ns = self.now_ns();
        self.stack.last_mut().expect("just pushed").start_ns = start_ns;
    }

    #[cold]
    #[inline(never)]
    fn close(&mut self, call: Call) {
        let end_ns = self.now_ns();
        let frame = self.stack.pop().expect("exit without enter");
        debug_assert_eq!(frame.call, call, "brackets closed out of order");
        let raw = (end_ns - frame.start_ns) as f64;
        let agg = &mut self.totals.aggs[call as usize];
        agg.timed += 1;
        agg.self_ns += raw - self.cal.inner_ns - frame.child_ns;
        let bucket = (end_ns - frame.start_ns).max(1).ilog2().min(31);
        agg.log2_hist[bucket as usize] += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += raw + self.cal.outer_ns;
        }
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                id: self.spans.len() as u32 + 1,
                parent: 0,
                miss: MissId::NONE,
                call,
                sim_cycle: 0,
                start_ns: frame.start_ns,
                end_ns,
            });
        } else {
            self.spans_dropped += 1;
        }
    }
}

impl Probe for Tracer {
    #[inline(always)]
    fn begin_event(&mut self, queue_len: usize) {
        self.totals.queue_len_max = self.totals.queue_len_max.max(queue_len);
        self.countdown -= 1;
        if self.countdown == 0 {
            self.start_event();
        }
    }

    #[inline(always)]
    fn end_event(&mut self, sim_cycle: u64) {
        if self.timing {
            self.finish_event(sim_cycle);
        }
    }

    #[inline(always)]
    fn set_miss(&mut self, miss: impl FnOnce() -> MissId) {
        if self.timing && self.event_miss == MissId::NONE {
            self.event_miss = miss();
        }
    }

    #[inline(always)]
    fn enter(&mut self, call: Call) {
        self.totals.calls[call as usize] += 1;
        if self.timing {
            self.open(call);
        }
    }

    #[inline(always)]
    fn exit(&mut self, call: Call) {
        if self.timing {
            self.close(call);
        }
    }
}
