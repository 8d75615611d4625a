//! Whole-simulation configuration.

use std::path::PathBuf;

use patchsim_kernel::digest::Digest;
use patchsim_kernel::{stream_seed, streams};
use patchsim_noc::{FabricConfig, FabricKind, FaultSpec, LinkBandwidth};
use patchsim_predictor::PredictorChoice;
use patchsim_protocol::{ProtocolConfig, ProtocolKind};
use patchsim_workload::WorkloadSpec;

/// Telemetry controls for one run.
///
/// Every field defaults to off; the default configuration performs **no**
/// telemetry work at all. The whole subsystem is strictly read-only with
/// respect to the simulation: enabling any field never draws from an RNG,
/// never schedules an event, and never changes event order, so the
/// [`RunResult`](crate::RunResult) digest is identical with telemetry on
/// or off.
#[derive(Clone, Debug, Default)]
pub struct TelemetryConfig {
    /// When set, write an epoch-metrics JSONL time series to this path.
    pub metrics: Option<PathBuf>,
    /// Sampling period in cycles for the epoch metrics (default 10_000).
    pub metrics_every: u64,
    /// Record per-miss phase spans and aggregate them into per-phase
    /// histograms on the run result.
    pub spans: bool,
    /// Directory that receives flight-recorder dumps (`.fdr` files) when
    /// a safety or liveness oracle trips. The file name is derived from
    /// the configuration digest so concurrent cells never collide.
    pub flight_recorder: Option<PathBuf>,
    /// Measure host wall-time and event counts per event class and
    /// attach them to the run result (never folded into the digest).
    pub profile: bool,
}

impl TelemetryConfig {
    /// The default epoch length, in cycles, when `metrics_every` is 0.
    pub const DEFAULT_EPOCH: u64 = 10_000;

    /// The effective sampling period (treats 0 as the default).
    pub fn epoch(&self) -> u64 {
        if self.metrics_every == 0 {
            Self::DEFAULT_EPOCH
        } else {
            self.metrics_every
        }
    }

    /// True when any telemetry feature is enabled.
    pub fn any(&self) -> bool {
        self.metrics.is_some() || self.spans || self.flight_recorder.is_some() || self.profile
    }
}

/// How much runtime verification to perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckLevel {
    /// No per-event invariant checking (benchmarks at scale). The
    /// end-of-run drain and completion assertions still apply.
    Off,
    /// Audit token conservation at every delivery, core request and
    /// timer (see [`TokenAuditor`](crate::TokenAuditor)) and check
    /// single-writer/read-latest on every completed access. The right
    /// setting for tests and protocol fuzzing.
    Assert,
}

/// Configuration for one simulated system and workload.
///
/// Defaults reproduce the paper's baseline platform: a 2D torus with
/// 16-byte/cycle links and best-effort drop after 100 queued cycles,
/// per-node 1MB private caches, 16-cycle directory, 80-cycle DRAM.
/// [`SimConfig::with_fabric`] swaps the interconnect topology (mesh,
/// ring, crossbar, hierarchical clusters) while keeping everything else.
///
/// # Examples
///
/// ```
/// use patchsim::{LinkBandwidth, PredictorChoice, ProtocolKind, SimConfig};
///
/// let cfg = SimConfig::new(ProtocolKind::Patch, 64)
///     .with_predictor(PredictorChoice::BroadcastIfShared)
///     .with_bandwidth(LinkBandwidth::BytesPerCycle(2.0))
///     .with_workload(patchsim::presets::oltp())
///     .with_ops_per_core(1_000);
/// assert_eq!(cfg.protocol.num_nodes, 64);
/// ```
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Protocol parameters (forwarded to every controller).
    pub protocol: ProtocolConfig,
    /// Interconnect link bandwidth.
    pub bandwidth: LinkBandwidth,
    /// Staleness bound after which queued best-effort messages drop.
    pub stale_drop_cycles: u64,
    /// The workload every core runs.
    pub workload: WorkloadSpec,
    /// Measured operations each core executes.
    pub ops_per_core: u64,
    /// Warmup operations per core, excluded from traffic and latency
    /// statistics (runtime is measured from the cycle the last core
    /// finishes warmup).
    pub warmup_ops_per_core: u64,
    /// Root RNG seed; perturbation runs vary this.
    pub seed: u64,
    /// Runtime verification level.
    pub check: CheckLevel,
    /// Hard wall-clock bound: the run panics if simulated time exceeds
    /// this, which converts a protocol livelock into a test failure.
    pub max_cycles: u64,
    /// Interconnect fault mix (default: none). The fault schedule is
    /// seeded from [`SimConfig::seed`], so it is replayable and varies
    /// across perturbation replications like every other random stream.
    pub faults: FaultSpec,
    /// Liveness oracle: the run panics if any single miss stays
    /// outstanding longer than this many cycles. `None` (the default)
    /// disables the watchdog; fault-injection runs set it to convert
    /// silent starvation into a test failure.
    pub liveness_horizon: Option<u64>,
    /// When set, the run records every generated work item and writes a
    /// `.ptrc` trace (see `patchsim-trace`) to this path as it finishes.
    /// Replaying that trace via `WorkloadSpec::Trace` reproduces the
    /// run's `RunResult` bit-for-bit.
    pub record_trace: Option<PathBuf>,
    /// Telemetry controls (all off by default). Observation is strictly
    /// read-only: no field here can change simulation results.
    pub telemetry: TelemetryConfig,
}

impl SimConfig {
    /// A paper-default configuration for `kind` on `num_nodes` cores
    /// running the microbenchmark.
    pub fn new(kind: ProtocolKind, num_nodes: u16) -> Self {
        SimConfig {
            protocol: ProtocolConfig::new(kind, num_nodes),
            bandwidth: FabricConfig::DEFAULT_BANDWIDTH,
            stale_drop_cycles: FabricConfig::DEFAULT_STALE_DROP,
            workload: WorkloadSpec::microbenchmark(),
            ops_per_core: 1_000,
            warmup_ops_per_core: 0,
            seed: 1,
            check: CheckLevel::Off,
            max_cycles: u64::MAX / 4,
            faults: FaultSpec::none(),
            liveness_horizon: None,
            record_trace: None,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// Switches the coherence protocol in place, preserving every other
    /// protocol setting (system size, sharer encoding, tenure policy,
    /// cache geometry, ...). This is the protocol-axis transform of the
    /// experiment-plan API, where a kind change must not clobber settings
    /// applied by earlier axes.
    pub fn with_kind(mut self, kind: ProtocolKind) -> Self {
        self.protocol.kind = kind;
        self
    }

    /// Sets the destination-set predictor (PATCH).
    pub fn with_predictor(mut self, predictor: PredictorChoice) -> Self {
        self.protocol = self.protocol.with_predictor(predictor);
        self
    }

    /// Sets the interconnect link bandwidth.
    pub fn with_bandwidth(mut self, bandwidth: LinkBandwidth) -> Self {
        self.bandwidth = bandwidth;
        self
    }

    /// Sets the interconnect fabric topology.
    pub fn with_fabric(mut self, fabric: FabricKind) -> Self {
        self.protocol.fabric = fabric;
        self
    }

    /// Sets the workload.
    pub fn with_workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the per-core measured operation count.
    pub fn with_ops_per_core(mut self, ops: u64) -> Self {
        self.ops_per_core = ops;
        self
    }

    /// Sets the per-core warmup operation count.
    pub fn with_warmup(mut self, ops: u64) -> Self {
        self.warmup_ops_per_core = ops;
        self
    }

    /// Sets the root seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables per-event invariant checking.
    pub fn with_checks(mut self) -> Self {
        self.check = CheckLevel::Assert;
        self
    }

    /// Replaces the protocol configuration wholesale (for settings without
    /// a dedicated builder method).
    pub fn with_protocol(mut self, protocol: ProtocolConfig) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the interconnect fault mix (see `patchsim_noc::faults`).
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Arms the starvation watchdog: the run fails if any miss stays
    /// outstanding longer than `cycles`.
    pub fn with_liveness_horizon(mut self, cycles: u64) -> Self {
        self.liveness_horizon = Some(cycles);
        self
    }

    /// Records the run's generated work items to a `.ptrc` trace at
    /// `path` when the run completes.
    pub fn with_record_trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.record_trace = Some(path.into());
        self
    }

    /// Writes an epoch-metrics JSONL time series to `path`, sampling
    /// every `every` cycles (0 selects the default epoch length).
    pub fn with_metrics(mut self, path: impl Into<PathBuf>, every: u64) -> Self {
        self.telemetry.metrics = Some(path.into());
        self.telemetry.metrics_every = every;
        self
    }

    /// Enables per-miss phase-span histograms on the run result.
    pub fn with_spans(mut self) -> Self {
        self.telemetry.spans = true;
        self
    }

    /// Dumps a flight-recorder ring to a `.fdr` file under `dir` when a
    /// safety or liveness oracle trips.
    pub fn with_flight_recorder(mut self, dir: impl Into<PathBuf>) -> Self {
        self.telemetry.flight_recorder = Some(dir.into());
        self
    }

    /// Enables per-event-class host-side self-profiling.
    pub fn with_profile(mut self) -> Self {
        self.telemetry.profile = true;
        self
    }

    /// The stream label of the fault schedule's RNG stream ("faul");
    /// see [`patchsim_kernel::streams`].
    pub const FAULT_STREAM: u64 = streams::FAULT;

    /// A stable content digest of this configuration: every field that
    /// can influence simulation results is folded in, so two
    /// configurations with equal digests produce bit-identical
    /// [`RunResult`](crate::RunResult)s. The result store
    /// ([`exp::store`](crate::exp::store)) keys each `(cell, replication)`
    /// by this digest plus a code-version tag.
    ///
    /// `record_trace` is deliberately excluded — it only adds a side
    /// output, never changes measurements — so a recording run and a
    /// plain run share one cache entry.
    ///
    /// Structured sub-configurations are folded through their `Debug`
    /// representation: any field added to, removed from, or changed in
    /// `ProtocolConfig`, a workload profile, or a fault spec
    /// automatically changes the digest (a conservative invalidation —
    /// renaming a field invalidates cached cells that are still valid,
    /// which only costs recomputation, never staleness). Replayed traces
    /// are the exception: their work items are folded numerically, so the
    /// digest stays proportional to a header instead of rendering a
    /// multi-megabyte `Debug` string.
    pub fn stable_digest(&self) -> u64 {
        let mut d = Digest::new();
        d.str(&format!("{:?}", self.protocol));
        d.str(&format!("{:?}", self.bandwidth));
        d.u64(self.stale_drop_cycles);
        match &self.workload {
            WorkloadSpec::Trace(trace) => {
                d.str("Trace");
                d.str(&trace.label);
                d.u64(trace.seed);
                d.u64(u64::from(trace.num_nodes));
                d.u64(trace.working_set_blocks);
                d.u64(trace.streams.len() as u64);
                for stream in &trace.streams {
                    d.u64(stream.len() as u64);
                    for item in stream {
                        d.u64(item.addr.raw());
                        d.str(&format!("{:?}", item.kind));
                        d.u64(item.think_cycles);
                    }
                }
            }
            other => {
                d.str(&format!("{other:?}"));
            }
        }
        d.u64(self.ops_per_core);
        d.u64(self.warmup_ops_per_core);
        d.u64(self.seed);
        d.str(&format!("{:?}", self.check));
        d.u64(self.max_cycles);
        d.str(&format!("{:?}", self.faults));
        d.opt_u64(self.liveness_horizon);
        // Telemetry never changes measurements, so it is excluded like
        // `record_trace` — with one exception: span collection adds
        // per-phase histograms to the persisted `RunResult`, so a
        // spans-on run must not be satisfied by a spans-off store entry.
        // Folding the flag only when set keeps every pre-telemetry
        // digest unchanged.
        if self.telemetry.spans {
            d.str("telemetry.spans");
        }
        d.finish()
    }

    /// The interconnect configuration this simulation will use: the
    /// configured fabric topology at the system size, with the
    /// configured bandwidth, staleness bound, fault mix, and
    /// auto-calibrated hop latency. The fault schedule is seeded from a
    /// dedicated stream of the run seed, so faults never perturb the
    /// workload's random draws.
    pub fn fabric_config(&self) -> FabricConfig {
        FabricConfig::new(self.protocol.fabric, self.protocol.num_nodes)
            .with_bandwidth(self.bandwidth)
            .with_stale_drop_cycles(self.stale_drop_cycles)
            .with_faults(self.faults)
            .with_fault_seed(stream_seed(self.seed, Self::FAULT_STREAM))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_baseline() {
        let cfg = SimConfig::new(ProtocolKind::Directory, 64);
        assert_eq!(cfg.bandwidth, LinkBandwidth::BytesPerCycle(16.0));
        assert_eq!(cfg.stale_drop_cycles, 100);
        assert_eq!(cfg.check, CheckLevel::Off);
        assert_eq!(cfg.workload.name(), "microbench");
    }

    #[test]
    fn builders_compose() {
        let cfg = SimConfig::new(ProtocolKind::Patch, 16)
            .with_predictor(PredictorChoice::All)
            .with_bandwidth(LinkBandwidth::Unbounded)
            .with_ops_per_core(5)
            .with_warmup(2)
            .with_seed(9)
            .with_checks();
        assert_eq!(cfg.protocol.predictor, PredictorChoice::All);
        assert_eq!(cfg.bandwidth, LinkBandwidth::Unbounded);
        assert_eq!(cfg.ops_per_core, 5);
        assert_eq!(cfg.warmup_ops_per_core, 2);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.check, CheckLevel::Assert);
        assert_eq!(cfg.fabric_config().num_nodes(), 16);
    }

    #[test]
    fn faults_thread_through_and_vary_by_seed() {
        let spec = FaultSpec::parse("jitter").unwrap();
        let cfg = SimConfig::new(ProtocolKind::Patch, 16)
            .with_faults(spec)
            .with_seed(5);
        let fabric = cfg.fabric_config();
        assert_eq!(fabric.faults(), spec);
        // The schedule seed is a dedicated stream of the run seed.
        let other = cfg.clone().with_seed(6).fabric_config();
        assert_ne!(fabric.fault_seed(), other.fault_seed());
        assert!(SimConfig::new(ProtocolKind::Patch, 16)
            .fabric_config()
            .faults()
            .is_none());
        assert!(cfg.liveness_horizon.is_none());
        assert_eq!(
            cfg.with_liveness_horizon(5_000).liveness_horizon,
            Some(5_000)
        );
    }

    #[test]
    fn stable_digest_is_deterministic_and_field_sensitive() {
        let cfg = SimConfig::new(ProtocolKind::Patch, 16)
            .with_ops_per_core(100)
            .with_seed(7);
        assert_eq!(cfg.stable_digest(), cfg.clone().stable_digest());
        assert_ne!(
            cfg.stable_digest(),
            cfg.clone().with_seed(8).stable_digest()
        );
        assert_ne!(
            cfg.stable_digest(),
            cfg.clone().with_ops_per_core(101).stable_digest()
        );
        assert_ne!(
            cfg.stable_digest(),
            cfg.clone().with_checks().stable_digest()
        );
        assert_ne!(
            cfg.stable_digest(),
            SimConfig::new(ProtocolKind::TokenB, 16)
                .with_ops_per_core(100)
                .with_seed(7)
                .stable_digest()
        );
    }

    #[test]
    fn stable_digest_ignores_trace_recording() {
        let cfg = SimConfig::new(ProtocolKind::Patch, 16).with_seed(3);
        let mut recording = cfg.clone();
        recording.record_trace = Some(std::path::PathBuf::from("/tmp/out.trace"));
        assert_eq!(cfg.stable_digest(), recording.stable_digest());
    }

    #[test]
    fn stable_digest_ignores_telemetry_except_spans() {
        let cfg = SimConfig::new(ProtocolKind::Patch, 16).with_seed(3);
        let instrumented = cfg
            .clone()
            .with_metrics("/tmp/metrics.jsonl", 500)
            .with_flight_recorder("/tmp/fdr")
            .with_profile();
        assert_eq!(cfg.stable_digest(), instrumented.stable_digest());
        // Spans add persisted payload, so they segregate store entries.
        assert_ne!(
            cfg.stable_digest(),
            cfg.clone().with_spans().stable_digest()
        );
    }

    #[test]
    fn fabric_threads_through_to_the_interconnect_config() {
        let cfg = SimConfig::new(ProtocolKind::Patch, 16)
            .with_fabric(FabricKind::FullyConnected)
            .with_bandwidth(LinkBandwidth::BytesPerCycle(2.0));
        let fabric = cfg.fabric_config();
        assert_eq!(fabric.kind(), FabricKind::FullyConnected);
        assert_eq!(fabric.num_nodes(), 16);
        assert_eq!(fabric.bandwidth(), LinkBandwidth::BytesPerCycle(2.0));
        // The default remains the paper's torus.
        assert_eq!(
            SimConfig::new(ProtocolKind::Patch, 16)
                .fabric_config()
                .kind(),
            FabricKind::Torus
        );
    }
}
