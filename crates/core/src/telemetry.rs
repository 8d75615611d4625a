//! Deterministic, read-only run telemetry.
//!
//! Four features, all off by default (see
//! [`TelemetryConfig`](crate::TelemetryConfig)), all strictly
//! observational:
//!
//! * **Epoch metrics** — a cycle-driven sampler that emits a versioned
//!   JSONL time series of link utilization, queue depths, event-queue
//!   occupancy, protocol table occupancy, and per-core open-loop backlog.
//! * **Miss-lifecycle spans** — per-miss phase breakdowns
//!   (queue wait → network → home/ordering → token wait) aggregated into
//!   per-phase [`Histogram`]s.
//! * **Flight recorder** — a bounded ring of recent events dumped to a
//!   `.fdr` file when a safety or liveness oracle trips.
//! * **Self-profiling** — host wall-time and event counts per event
//!   class.
//!
//! The determinism contract: telemetry never draws from an RNG, never
//! schedules an event, and never changes event order. The sampler runs
//! inline when an already-popped event crosses an epoch boundary — it
//! pushes nothing into the event queue, so `RunResult::events_processed`
//! (and therefore the result digest) is identical with telemetry on or
//! off. Metrics rows are a pure function of simulation state at epoch
//! boundaries, so the JSONL output is byte-identical regardless of how
//! many runner threads execute sibling cells.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use patchsim_kernel::stats::Histogram;
use patchsim_kernel::Cycle;
use patchsim_protocol::{Completion, ProtocolCounters, ProtocolGauges};

use crate::SimConfig;

/// Format tag on the first line of every metrics JSONL file.
pub const METRICS_FORMAT: &str = "patchsim-metrics";
/// Schema version of the metrics JSONL format.
pub const METRICS_VERSION: u32 = 1;
/// Format tag on the first line of every flight-recorder dump.
pub const FDR_FORMAT: &str = "patchsim-fdr";
/// Schema version of the flight-recorder dump format.
pub const FDR_VERSION: u32 = 1;

/// Classification of kernel events for the flight recorder and the
/// self-profiler. Mirrors the core event loop's (private) event enum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventClass {
    /// An interconnect event (hop, delivery, drain).
    Noc,
    /// A protocol timer firing.
    Timer,
    /// A core issuing its next operation.
    CoreIssue,
    /// An open-loop operation arriving at its core.
    Arrival,
    /// A starvation-watchdog scan.
    Watchdog,
}

impl EventClass {
    /// Every class, in profile/dump order.
    pub const ALL: [EventClass; 5] = [
        EventClass::Noc,
        EventClass::Timer,
        EventClass::CoreIssue,
        EventClass::Arrival,
        EventClass::Watchdog,
    ];

    /// Stable lower-case label (used in JSON output).
    pub fn label(self) -> &'static str {
        match self {
            EventClass::Noc => "noc",
            EventClass::Timer => "timer",
            EventClass::CoreIssue => "core_issue",
            EventClass::Arrival => "arrival",
            EventClass::Watchdog => "watchdog",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

// ---------------------------------------------------------------------
// Epoch metrics
// ---------------------------------------------------------------------

/// One snapshot of the simulation's gauges, taken by the core event loop
/// when a popped event crosses an epoch boundary. Counts are cumulative
/// since time zero; [`MetricsBuf::record`] turns consecutive snapshots
/// into per-epoch deltas.
#[derive(Debug, Clone, Default)]
pub struct MetricsSample {
    /// Simulated cycle of the event that crossed the boundary.
    pub cycle: u64,
    /// Kernel events pushed so far.
    pub events: u64,
    /// Event-queue occupancy.
    pub queue_len: u64,
    /// Link busy-cycles accumulated so far.
    pub link_busy: u64,
    /// Number of interconnect links (the utilization denominator).
    pub num_links: u64,
    /// Packets sitting in link queues.
    pub queued_packets: u64,
    /// Controller table occupancy (TBEs, home and persistent-request
    /// entries), summed over nodes.
    pub gauges: ProtocolGauges,
    /// Controller counters so far, summed over nodes.
    pub counters: ProtocolCounters,
    /// Open-loop backlog depth per core; empty for closed-loop runs.
    pub backlog: Vec<u64>,
}

/// In-memory epoch-metrics sink: rows accumulate in a buffer and are
/// written to the configured path in one shot at the end of the run, so
/// no filesystem state can perturb (or be perturbed by) the hot loop.
#[derive(Debug)]
pub struct MetricsBuf {
    path: PathBuf,
    epoch: u64,
    /// The next epoch boundary to sample at.
    pub next_sample: u64,
    /// The previous row's snapshot (its `cycle` rounded down to the
    /// boundary): the baseline each row's deltas are taken against.
    prev: MetricsSample,
    rows: String,
}

impl MetricsBuf {
    /// Creates a sink writing to `path`, sampling every `epoch` cycles,
    /// with a self-describing header row. `header_fields` is a
    /// pre-rendered fragment of additional `"key":value` JSON pairs
    /// describing the run (protocol, nodes, seed, ...).
    pub fn new(path: PathBuf, epoch: u64, header_fields: &str) -> Self {
        let mut rows = String::with_capacity(4096);
        let _ = writeln!(
            rows,
            "{{\"format\":\"{METRICS_FORMAT}\",\"version\":{METRICS_VERSION},\
             \"epoch\":{epoch}{header_fields}}}"
        );
        MetricsBuf {
            path,
            epoch,
            next_sample: epoch,
            prev: MetricsSample::default(),
            rows,
        }
    }

    /// Appends the row for the epoch boundary `s` crossed — cycles,
    /// events, link busy-cycles and protocol counters as deltas against
    /// the previous row — and advances the sampling deadline. The window
    /// is ≥ one epoch, larger when the simulation crossed several
    /// boundaries between events.
    pub fn record(&mut self, mut s: MetricsSample) {
        s.cycle = (s.cycle / self.epoch) * self.epoch;
        let prev = &self.prev;
        let (c, pc) = (&s.counters, &prev.counters);
        let window = s.cycle - prev.cycle;
        // The warmup boundary resets interconnect stats, so deltas
        // saturate instead of underflowing across that reset.
        let link_busy = s.link_busy.saturating_sub(prev.link_busy);
        let util = link_busy as f64 / (s.num_links.max(1) * window.max(1)) as f64;
        let _ = write!(
            self.rows,
            "{{\"cycle\":{},\"window\":{window},\"events\":{},\"queue_len\":{},\
             \"link_busy\":{link_busy},\"link_util\":{util:.6},\"queued_packets\":{},\
             \"tbes\":{},\"home_entries\":{},\"persistent_entries\":{},\"misses\":{},\
             \"persistent_requests\":{},\"reissues\":{},\"tenure_timeouts\":{}",
            s.cycle,
            s.events.saturating_sub(prev.events),
            s.queue_len,
            s.queued_packets,
            s.gauges.tbes,
            s.gauges.home_entries,
            s.gauges.persistent_entries,
            c.misses.saturating_sub(pc.misses),
            c.persistent_requests.saturating_sub(pc.persistent_requests),
            c.reissues.saturating_sub(pc.reissues),
            c.tenure_timeouts.saturating_sub(pc.tenure_timeouts),
        );
        if !s.backlog.is_empty() {
            let depths: Vec<String> = s.backlog.iter().map(u64::to_string).collect();
            let _ = write!(self.rows, ",\"backlog\":[{}]", depths.join(","));
        }
        self.rows.push_str("}\n");
        self.next_sample = s.cycle + self.epoch;
        self.prev = s;
    }

    /// Writes the buffered rows to the configured path.
    ///
    /// # Errors
    ///
    /// Any filesystem error from creating or writing the file.
    pub fn write(self) -> Result<(), (PathBuf, io::Error)> {
        fs::write(&self.path, self.rows.as_bytes()).map_err(|e| (self.path, e))
    }
}

// ---------------------------------------------------------------------
// Miss-lifecycle spans
// ---------------------------------------------------------------------

/// Per-phase miss-lifecycle histograms, recorded on the same measurement
/// gate as [`RunResult::miss_latency`](crate::RunResult::miss_latency).
///
/// The three protocol phases partition each measured miss exactly:
/// `network + home + token_wait` equals the end-to-end miss latency for
/// every sample, so the phase sums reconcile with the latency histogram.
/// `queue_wait` (arrival → issue, open-loop only) sits *before* the miss
/// clock starts and is not part of that identity.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Open-loop arrival → issue wait; empty for closed-loop runs.
    pub queue_wait: Histogram,
    /// Issue → first response of any kind (request transit + first
    /// responder's turnaround).
    pub network: Histogram,
    /// First response → ordering point (directory grant / activation);
    /// zero for misses satisfied without an explicit ordering message.
    pub home: Histogram,
    /// Ordering point → completion (collecting remaining tokens or
    /// invalidation acks).
    pub token_wait: Histogram,
}

impl SpanStats {
    /// Records the phases of one measured miss completing at `now`;
    /// `queue_wait` is the open-loop arrival → issue wait, if any.
    fn record(&mut self, completion: &Completion, now: Cycle, queue_wait: Option<u64>) {
        // Phase boundaries, clamped into [issued_at, now] so the three
        // phases always partition the miss exactly: a miss with no
        // explicit ordering message collapses its home phase to zero
        // rather than going negative.
        let issued = completion.issued_at;
        let marks = &completion.marks;
        let t1 = marks.first_progress.unwrap_or(now).clamp(issued, now);
        let t2 = marks.ordered.unwrap_or(t1).clamp(t1, now);
        self.network.record(t1.saturating_since(issued));
        self.home.record(t2.saturating_since(t1));
        self.token_wait.record(now.saturating_since(t2));
        if let Some(q) = queue_wait {
            self.queue_wait.record(q);
        }
    }

    /// Pools another run's spans into this one (histograms merged).
    pub fn merge(&mut self, other: &SpanStats) {
        self.queue_wait.merge(&other.queue_wait);
        self.network.merge(&other.network);
        self.home.merge(&other.home);
        self.token_wait.merge(&other.token_wait);
    }
}

// ---------------------------------------------------------------------
// Self-profiling
// ---------------------------------------------------------------------

/// Host-side cost of one event class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassProfile {
    /// Events of this class dispatched.
    pub events: u64,
    /// Total host wall-time spent dispatching them, in nanoseconds.
    pub nanos: u64,
}

/// Wall-time and event-count per event class, measured around the
/// dispatch call. Host-time observations only — never folded into the
/// result digest and never persisted to the result store.
#[derive(Debug, Clone, Default)]
pub struct ProfileStats {
    classes: [ClassProfile; 5],
}

impl ProfileStats {
    /// Adds one dispatched event of `class` taking `elapsed` host time.
    pub fn add(&mut self, class: EventClass, elapsed: Duration) {
        let c = &mut self.classes[class.index()];
        c.events += 1;
        c.nanos += elapsed.as_nanos() as u64;
    }

    /// The profile for one event class.
    pub fn class(&self, class: EventClass) -> ClassProfile {
        self.classes[class.index()]
    }

    /// Sums another profile into this one (for multi-run aggregation).
    pub fn merge(&mut self, other: &ProfileStats) {
        for (a, b) in self.classes.iter_mut().zip(other.classes.iter()) {
            a.events += b.events;
            a.nanos += b.nanos;
        }
    }
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

/// One ring entry: an event the core loop dispatched.
#[derive(Debug, Clone, Copy)]
pub struct FdrRecord {
    /// Simulated cycle of the event.
    pub cycle: u64,
    /// Event classification.
    pub class: EventClass,
    /// The node the event targeted, when it has one (`u32::MAX` for
    /// fabric-internal and global events).
    pub node: u32,
}

/// Capacity of the flight-recorder ring (most recent events kept).
pub const FDR_CAPACITY: usize = 4096;

/// A bounded ring of the most recent dispatched events plus the run
/// context needed to make a dump self-describing.
///
/// The recorder dumps itself when the simulation trips a safety or
/// liveness oracle (the dump site passes the reason), and — via its
/// owner's `Drop` — when a panic unwinds through the event loop, so a
/// cell isolated by the experiment runner still leaves a dump behind.
#[derive(Debug)]
pub struct FlightRecorder {
    dir: PathBuf,
    /// Distinguishes concurrent cells' dumps (the config digest).
    tag: u64,
    /// Pre-rendered `"key":value` JSON pairs describing the run.
    header_fields: String,
    ring: Vec<FdrRecord>,
    /// Next write position (ring is full once `len == capacity`).
    head: usize,
    total: u64,
    dumped: bool,
}

impl FlightRecorder {
    /// Creates a recorder that dumps into `dir`, tagged with the run's
    /// config digest and described by `header_fields` (pre-rendered
    /// JSON pairs).
    pub fn new(dir: PathBuf, tag: u64, header_fields: String) -> Self {
        FlightRecorder {
            dir,
            tag,
            header_fields,
            ring: Vec::with_capacity(FDR_CAPACITY),
            head: 0,
            total: 0,
            dumped: false,
        }
    }

    /// Records one dispatched event (cheap: a bounded ring write).
    #[inline]
    pub fn record(&mut self, cycle: u64, class: EventClass, node: u32) {
        let rec = FdrRecord { cycle, class, node };
        if self.ring.len() < FDR_CAPACITY {
            self.ring.push(rec);
        } else {
            self.ring[self.head] = rec;
        }
        self.head = (self.head + 1) % FDR_CAPACITY;
        self.total += 1;
    }

    /// Dumps the ring to a `.fdr` JSONL file under the configured
    /// directory and reports it on stderr. Idempotent: only the first
    /// call (per recorder) writes; later calls — including the
    /// panic-unwind `Drop` after an explicit oracle dump — are no-ops.
    /// Returns the dump path when a dump was written.
    pub fn dump(&mut self, reason: &str) -> Option<PathBuf> {
        if self.dumped {
            return None;
        }
        self.dumped = true;
        let path = self.dir.join(format!("run-{:016x}.fdr", self.tag));
        let mut out = String::with_capacity(64 * (self.ring.len() + 1));
        let _ = writeln!(
            out,
            "{{\"format\":\"{FDR_FORMAT}\",\"version\":{FDR_VERSION},\
             \"reason\":{:?},\"events_total\":{}{}}}",
            reason, self.total, self.header_fields
        );
        // Oldest first: the ring starts at `head` once it has wrapped.
        let n = self.ring.len();
        let start = if n < FDR_CAPACITY { 0 } else { self.head };
        for i in 0..n {
            let rec = &self.ring[(start + i) % n.max(1)];
            let class = rec.class.label();
            let _ = write!(out, "{{\"cycle\":{},\"class\":\"{class}\"", rec.cycle);
            if rec.node != u32::MAX {
                let _ = write!(out, ",\"node\":{}", rec.node);
            }
            out.push_str("}\n");
        }
        if fs::create_dir_all(&self.dir).is_err() || fs::write(&path, out.as_bytes()).is_err() {
            eprintln!(
                "patchsim: flight recorder dump to {} failed ({reason})",
                path.display()
            );
            return None;
        }
        eprintln!(
            "patchsim: flight recorder dumped {} events to {} ({reason})",
            n,
            path.display()
        );
        Some(path)
    }
}

// ---------------------------------------------------------------------
// The observer
// ---------------------------------------------------------------------

/// Everything a run's telemetry is armed with, behind the event loop's
/// one telemetry field: the loop tells it what happened, and each hook
/// forwards to whichever of the four features listens.
#[derive(Debug)]
pub(crate) struct Observer {
    /// Epoch sampler. It runs inline when a popped event crosses an
    /// epoch boundary and never pushes events, so `events_processed`
    /// (and the result digest) is unchanged by its existence.
    metrics: Option<MetricsBuf>,
    /// Span histograms under construction.
    pub(crate) spans: Option<SpanStats>,
    fdr: Option<FlightRecorder>,
    pub(crate) profile: Option<ProfileStats>,
}

impl Observer {
    /// Arms what `config.telemetry` asks for; `None` when that is
    /// nothing, so a telemetry-off run carries one null pointer.
    pub(crate) fn new(config: &SimConfig, protocol: &str) -> Option<Box<Observer>> {
        let t = &config.telemetry;
        if !t.any() {
            return None;
        }
        // The run context both file headers carry, as `,"key":value`
        // pairs; strings are escaped via `Debug` formatting.
        let header = format!(
            ",\"protocol\":{protocol:?},\"nodes\":{},\"fabric\":{:?},\
             \"workload\":{:?},\"seed\":{}",
            config.protocol.num_nodes,
            config.protocol.fabric.label(),
            config.workload.name(),
            config.seed,
        );
        let metrics = t.metrics.clone();
        let fdr = t.flight_recorder.clone();
        Some(Box::new(Observer {
            metrics: metrics.map(|path| MetricsBuf::new(path, t.epoch(), &header)),
            spans: t.spans.then(SpanStats::default),
            profile: t.profile.then(ProfileStats::default),
            fdr: fdr.map(|dir| FlightRecorder::new(dir, config.stable_digest(), header)),
        }))
    }

    /// Whether an event at `now` crosses the sampler's next epoch
    /// boundary, i.e. the loop owes [`Observer::sample`] a snapshot.
    pub(crate) fn sample_due(&self, now: Cycle) -> bool {
        self.metrics
            .as_ref()
            .is_some_and(|m| now.as_u64() >= m.next_sample)
    }

    /// The snapshot [`Observer::sample_due`] asked for.
    pub(crate) fn sample(&mut self, snapshot: MetricsSample) {
        if let Some(m) = &mut self.metrics {
            m.record(snapshot);
        }
    }

    /// One event is about to be dispatched: logs it in the flight
    /// recorder and, when profiling, starts its host-time clock.
    pub(crate) fn event(&mut self, now: Cycle, class: EventClass, node: u32) -> Option<Instant> {
        if let Some(fdr) = &mut self.fdr {
            fdr.record(now.as_u64(), class, node);
        }
        self.profile.is_some().then(Instant::now)
    }

    /// The event [`Observer::event`] announced has been dispatched.
    pub(crate) fn dispatched(&mut self, class: EventClass, started: Option<Instant>) {
        if let (Some(p), Some(t0)) = (&mut self.profile, started) {
            p.add(class, t0.elapsed());
        }
    }

    /// One measured miss completed at `now`.
    pub(crate) fn miss(&mut self, completion: &Completion, now: Cycle, queue_wait: Option<u64>) {
        if let Some(spans) = &mut self.spans {
            spans.record(completion, now, queue_wait);
        }
    }

    /// The global warm-up boundary. Spans follow the latency histogram:
    /// the samples from cores that outran the boundary are dropped, so
    /// the phase sums still partition `miss_latency` exactly.
    pub(crate) fn start_measurement(&mut self) {
        if let Some(spans) = &mut self.spans {
            *spans = SpanStats::default();
        }
    }

    /// Dumps the flight recorder (if armed and not yet dumped),
    /// returning the dump path.
    pub(crate) fn dump(&mut self, reason: &str) -> Option<PathBuf> {
        self.fdr.as_mut().and_then(|fdr| fdr.dump(reason))
    }

    /// Writes the metrics series out at the end of a run.
    pub(crate) fn write_metrics(&mut self) -> Result<(), (PathBuf, io::Error)> {
        self.metrics.take().map_or(Ok(()), MetricsBuf::write)
    }
}

/// The backstop for protocol-bug panics that do not pass through
/// `System::fail` (coherence and token-audit violations): the flight
/// recorder is dumped when a panic unwinds past the observer.
impl Drop for Observer {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.dump("panic unwind");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_rows_are_deterministic_json() {
        let mut buf = MetricsBuf::new(PathBuf::from("/dev/null"), 100, "");
        buf.record(MetricsSample {
            cycle: 100,
            events: 42,
            num_links: 4,
            link_busy: 100,
            backlog: vec![1, 2],
            ..MetricsSample::default()
        });
        assert_eq!(buf.next_sample, 200);
        assert!(buf.rows.contains("\"format\":\"patchsim-metrics\""));
        assert!(buf.rows.contains("\"link_util\":0.250000"));
        assert!(buf.rows.contains("\"backlog\":[1,2]"));
    }

    #[test]
    fn recorder_ring_wraps_and_dumps_once() {
        let dir = std::env::temp_dir().join(format!("patchsim-fdr-test-{}", std::process::id()));
        let mut fdr = FlightRecorder::new(dir.clone(), 7, String::new());
        for i in 0..(FDR_CAPACITY as u64 + 10) {
            fdr.record(i, EventClass::Noc, 0);
        }
        let path = fdr.dump("test").expect("first dump writes");
        assert!(path.ends_with("run-0000000000000007.fdr"));
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), FDR_CAPACITY + 1);
        assert!(lines[0].contains("\"reason\":\"test\""));
        // Oldest surviving record first.
        assert!(lines[1].contains("\"cycle\":10"));
        assert!(fdr.dump("again").is_none(), "second dump is a no-op");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_accumulates_per_class() {
        let mut p = ProfileStats::default();
        p.add(EventClass::Noc, Duration::from_nanos(50));
        p.add(EventClass::Noc, Duration::from_nanos(25));
        p.add(EventClass::Timer, Duration::from_nanos(10));
        assert_eq!(p.class(EventClass::Noc).events, 2);
        assert_eq!(p.class(EventClass::Noc).nanos, 75);
        assert_eq!(p.class(EventClass::Timer).events, 1);
        assert_eq!(p.class(EventClass::Arrival), ClassProfile::default());
    }
}
