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
use std::time::Duration;

use patchsim_kernel::stats::Histogram;

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
        match self {
            EventClass::Noc => 0,
            EventClass::Timer => 1,
            EventClass::CoreIssue => 2,
            EventClass::Arrival => 3,
            EventClass::Watchdog => 4,
        }
    }
}

// ---------------------------------------------------------------------
// Epoch metrics
// ---------------------------------------------------------------------

/// One epoch-boundary sample of simulation gauges, produced by the core
/// event loop and serialized by [`MetricsBuf::record`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSample {
    /// The epoch boundary this row describes (a multiple of the epoch
    /// length).
    pub cycle: u64,
    /// Cycles since the previous row (≥ one epoch; larger when the
    /// simulation crossed several boundaries between events).
    pub window: u64,
    /// Kernel events pushed since the previous sample.
    pub events_delta: u64,
    /// Event-queue occupancy at the boundary.
    pub queue_len: u64,
    /// Link busy-cycles accumulated since the previous sample.
    pub link_busy_delta: u64,
    /// Number of interconnect links (the utilization denominator).
    pub num_links: u64,
    /// Packets sitting in link queues at the boundary.
    pub queued_packets: u64,
    /// Outstanding transaction-buffer entries, summed over nodes.
    pub tbes: u64,
    /// Home/directory/arbiter table entries, summed over nodes.
    pub home_entries: u64,
    /// Persistent-request table entries, summed over nodes.
    pub persistent_entries: u64,
    /// Demand misses issued since the previous sample.
    pub misses_delta: u64,
    /// Persistent requests invoked since the previous sample.
    pub persistent_delta: u64,
    /// Transient-request reissues since the previous sample.
    pub reissues_delta: u64,
    /// Token-tenure timeouts since the previous sample.
    pub tenure_timeouts_delta: u64,
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
            rows,
        }
    }

    /// The configured epoch length in cycles.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Appends one sample row and advances the sampling deadline.
    pub fn record(&mut self, s: &MetricsSample) {
        let denom = s.num_links.max(1) * s.window.max(1);
        let util = s.link_busy_delta as f64 / denom as f64;
        let _ = write!(
            self.rows,
            "{{\"cycle\":{},\"window\":{},\"events\":{},\"queue_len\":{},\"link_busy\":{},\
             \"link_util\":{util:.6},\"queued_packets\":{},\"tbes\":{},\
             \"home_entries\":{},\"persistent_entries\":{},\"misses\":{},\
             \"persistent_requests\":{},\"reissues\":{},\"tenure_timeouts\":{}",
            s.cycle,
            s.window,
            s.events_delta,
            s.queue_len,
            s.link_busy_delta,
            s.queued_packets,
            s.tbes,
            s.home_entries,
            s.persistent_entries,
            s.misses_delta,
            s.persistent_delta,
            s.reissues_delta,
            s.tenure_timeouts_delta,
        );
        if !s.backlog.is_empty() {
            let _ = write!(self.rows, ",\"backlog\":[");
            for (i, b) in s.backlog.iter().enumerate() {
                if i > 0 {
                    self.rows.push(',');
                }
                let _ = write!(self.rows, "{b}");
            }
            self.rows.push(']');
        }
        self.rows.push_str("}\n");
        self.next_sample = s.cycle + self.epoch;
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
/// liveness oracle (the dump site passes the reason), and — via the
/// guard's `Drop` — when a panic unwinds through the event loop, so a
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
            if rec.node == u32::MAX {
                let _ = writeln!(
                    out,
                    "{{\"cycle\":{},\"class\":\"{}\"}}",
                    rec.cycle,
                    rec.class.label()
                );
            } else {
                let _ = writeln!(
                    out,
                    "{{\"cycle\":{},\"class\":\"{}\",\"node\":{}}}",
                    rec.cycle,
                    rec.class.label(),
                    rec.node
                );
            }
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

/// Owns a [`FlightRecorder`] and dumps it when a panic unwinds past it —
/// the backstop for protocol-bug panics that do not pass through an
/// explicit oracle dump site (invariant violations, quiescence failures).
#[derive(Debug)]
pub struct FdrGuard(pub FlightRecorder);

impl Drop for FdrGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.dump("panic unwind");
        }
    }
}

/// Renders the run-context header pairs shared by the metrics header and
/// the flight-recorder header, as a JSON fragment of `,"key":value`
/// pairs. String values are escaped via `Debug` formatting.
pub fn run_header_fields(
    protocol: &str,
    num_nodes: u16,
    fabric: &str,
    workload: &str,
    seed: u64,
) -> String {
    format!(
        ",\"protocol\":{protocol:?},\"nodes\":{num_nodes},\"fabric\":{fabric:?},\
         \"workload\":{workload:?},\"seed\":{seed}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_rows_are_deterministic_json() {
        let mut buf = MetricsBuf::new(PathBuf::from("/dev/null"), 100, "");
        buf.record(&MetricsSample {
            cycle: 100,
            window: 100,
            events_delta: 42,
            num_links: 4,
            link_busy_delta: 100,
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
