//! The plan registry: [`Scale`], the axes the figures share, one
//! constructor per figure and ablation, and [`PLANS`], which names each
//! plan and pairs it with the column set [`decorate`] applies.

use patchsim::exp::{AxisValue, Cell, ExperimentPlan, Sweep, Table};
use patchsim::{
    presets, service_presets, ArrivalProfile, FabricKind, FaultSpec, LinkBandwidth,
    PredictorChoice, ProtocolKind, SharerEncoding, SimConfig, TenureConfig, WorkloadSpec,
};

use crate::columns::{
    ack_elision_columns, deact_window_columns, figure10_columns, figure5_columns, figure6_columns,
    figure7_columns, figure8_columns, figure9_columns, limited_pointer_columns, stale_drop_columns,
    tenure_timeout_columns, with_saturation_columns, with_standard_columns,
};

/// Experiment scale knobs shared by all figure targets.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Cores for the workload figures (the paper uses 64).
    pub cores: u16,
    /// Measured operations per core.
    pub ops: u64,
    /// Warmup operations per core.
    pub warmup: u64,
    /// Perturbed replications per data point.
    pub seeds: u64,
    /// Interconnect fabric every plan's base configuration uses
    /// (`--fabric`; plans with their own fabric axis override it).
    pub fabric: FabricKind,
    /// Interconnect fault mix every plan's base configuration uses
    /// (`--faults`; the `faults` plan's own axis overrides it).
    pub faults: FaultSpec,
    /// Workload override every plan's base configuration uses
    /// (`--workload`; plans with their own workload axis override it).
    /// A replayed trace additionally pins the base seed to the trace's
    /// recording seed, so the fault schedule replays too.
    pub workload: Option<WorkloadSpec>,
}

impl Scale {
    /// Paper-comparable scale (64 cores).
    pub fn full() -> Self {
        Scale {
            cores: 64,
            ops: 800,
            warmup: 1500,
            seeds: 1,
            fabric: FabricKind::Torus,
            faults: FaultSpec::none(),
            workload: None,
        }
    }

    /// A fast smoke-run scale.
    pub fn quick() -> Self {
        Scale {
            cores: 16,
            ops: 300,
            warmup: 1200,
            seeds: 1,
            fabric: FabricKind::Torus,
            faults: FaultSpec::none(),
            workload: None,
        }
    }

    /// The base configuration every plan starts from: `kind` at this
    /// scale's core count on this scale's fabric, fault mix, and
    /// workload override (when set).
    fn base(&self, kind: ProtocolKind, cores: u16) -> SimConfig {
        let mut config = SimConfig::new(kind, cores)
            .with_fabric(self.fabric)
            .with_faults(self.faults);
        if let Some(workload) = &self.workload {
            if let WorkloadSpec::Trace(trace) = workload {
                // Replay under the recording run's seed so every derived
                // stream (fault schedule included) replays bit-for-bit.
                config = config.with_seed(trace.seed);
            }
            config = config.with_workload(workload.clone());
        }
        config
    }

    /// [`Scale::base`] at this scale's core count and operation budget.
    fn sized(&self, kind: ProtocolKind) -> SimConfig {
        self.base(kind, self.cores)
            .with_ops_per_core(self.ops)
            .with_warmup(self.warmup)
    }
}

// ---------------------------------------------------------------------------
// Shared axes.
// ---------------------------------------------------------------------------

/// An axis over workloads, labeled by workload name.
fn workload_axis(workloads: Vec<WorkloadSpec>) -> Vec<AxisValue> {
    workloads
        .into_iter()
        .map(|w| {
            let label = w.name().to_string();
            AxisValue::new(label, move |c: SimConfig| c.with_workload(w.clone()))
        })
        .collect()
}

/// The six protocol configurations of Figures 4 and 5, in the paper's bar
/// order, as a plan axis.
fn figure4_protocol_axis() -> Vec<AxisValue> {
    let patch = |predictor: PredictorChoice| {
        move |c: SimConfig| c.with_kind(ProtocolKind::Patch).with_predictor(predictor)
    };
    vec![
        AxisValue::new("Directory", |c| c.with_kind(ProtocolKind::Directory)),
        AxisValue::new("PATCH-None", patch(PredictorChoice::None)),
        AxisValue::new("PATCH-Owner", patch(PredictorChoice::Owner)),
        AxisValue::new(
            "PATCH-BcastIfShared",
            patch(PredictorChoice::BroadcastIfShared),
        ),
        AxisValue::new("PATCH-All", patch(PredictorChoice::All)),
        AxisValue::new("TokenB", |c| c.with_kind(ProtocolKind::TokenB)),
    ]
}

/// The three competing configurations of Figures 6–8: DIRECTORY,
/// non-adaptive PATCH-All, and adaptive PATCH-All.
fn adaptivity_protocol_axis() -> Vec<AxisValue> {
    vec![
        AxisValue::new("Directory", |c| c.with_kind(ProtocolKind::Directory)),
        AxisValue::new("PATCH-All-NA", |c| {
            let c = c
                .with_kind(ProtocolKind::Patch)
                .with_predictor(PredictorChoice::All);
            let protocol = c.protocol.clone().non_adaptive();
            c.with_protocol(protocol)
        }),
        AxisValue::new("PATCH-All", |c| {
            c.with_kind(ProtocolKind::Patch)
                .with_predictor(PredictorChoice::All)
        }),
    ]
}

/// An axis resizing the system to each core count, `quick` at a
/// `--quick` scale (16 cores or fewer) and `full` otherwise, on the
/// steady-state microbenchmark schedule, preserving every other protocol
/// setting.
fn cores_axis(scale: &Scale, quick: &[u16], full: &[u16]) -> Vec<AxisValue> {
    let counts = if scale.cores <= 16 { quick } else { full };
    counts
        .iter()
        .map(|&cores| {
            AxisValue::new(cores.to_string(), move |c: SimConfig| {
                let (warmup, ops) = microbench_schedule(cores);
                let mut protocol = c.protocol.clone();
                protocol.num_nodes = cores;
                protocol.total_tokens = cores as u32;
                c.with_protocol(protocol)
                    .with_ops_per_core(ops)
                    .with_warmup(warmup)
            })
        })
        .collect()
}

/// An axis over interconnect fabrics (all five shipped topologies),
/// labeled by fabric name. The fabric transform overrides whatever the
/// base configuration (and `--fabric`) selected.
fn fabric_axis() -> Vec<AxisValue> {
    FabricKind::ALL
        .into_iter()
        .map(|kind| AxisValue::new(kind.label(), move |c: SimConfig| c.with_fabric(kind)))
        .collect()
}

/// An axis over the shipped fault-mix presets (including `none`), labeled
/// by preset name. The fault transform overrides whatever the base
/// configuration (and `--faults`) selected.
fn faults_axis() -> Vec<AxisValue> {
    FaultSpec::PRESETS
        .into_iter()
        .map(|name| {
            let spec = FaultSpec::parse(name).expect("shipped preset parses");
            AxisValue::new(name, move |c: SimConfig| c.with_faults(spec))
        })
        .collect()
}

/// The two fabrics the `faults` and `saturation` plans compare: the
/// paper's torus and the hierarchical fabric's gateway bottleneck.
fn torus_and_hier_axis() -> Vec<AxisValue> {
    vec![
        AxisValue::new("torus", |c| c.with_fabric(FabricKind::Torus)),
        AxisValue::new("hier", |c| {
            c.with_fabric(FabricKind::Hierarchical { cluster: None })
        }),
    ]
}

/// The protocol axis of the fault-injection plan: one representative per
/// protocol family (directory, PATCH, broadcast token counting), so the
/// sweep shows which families a fault mix degrades.
fn fault_protocol_axis() -> Vec<AxisValue> {
    vec![
        AxisValue::new("Directory", |c| c.with_kind(ProtocolKind::Directory)),
        AxisValue::new("PATCH-All", |c| {
            c.with_kind(ProtocolKind::Patch)
                .with_predictor(PredictorChoice::All)
        }),
        AxisValue::new("TokenB", |c| c.with_kind(ProtocolKind::TokenB)),
    ]
}

/// An axis value selecting a sharer-encoding coarseness of `k` cores per
/// bit (`k == 1` is the full map), labeled by `k`.
fn coarseness_value(k: u16) -> AxisValue {
    AxisValue::new(k.to_string(), move |c: SimConfig| {
        let encoding = if k <= 1 {
            SharerEncoding::FullMap
        } else {
            SharerEncoding::Coarse { cores_per_bit: k }
        };
        let protocol = c.protocol.clone().with_sharer_encoding(encoding);
        c.with_protocol(protocol)
    })
}

// ---------------------------------------------------------------------------
// Figure plans.
// ---------------------------------------------------------------------------

/// The Figure 4/5 grid: the five paper workloads × the six protocol
/// configurations at the scale's core count.
pub fn figure4_plan(scale: Scale) -> ExperimentPlan {
    let base = scale.sized(ProtocolKind::Directory);
    Sweep::new(format!("Figure 4/5 grid ({} cores)", scale.cores), base)
        .axis("workload", workload_axis(presets::all()))
        .axis("config", figure4_protocol_axis())
        .seeds(scale.seeds)
        .build()
}

/// The paper's bandwidth sweep points (bytes per 1000 cycles, Figures 6–7).
pub(crate) const BANDWIDTH_SWEEP: [f64; 6] = [300.0, 600.0, 900.0, 2000.0, 4000.0, 8000.0];

/// The Figure 6/7 grid for one workload: the paper's six link bandwidths ×
/// {DIRECTORY, PATCH-All-NA, PATCH-All}.
pub(crate) fn bandwidth_plan(scale: Scale, workload: WorkloadSpec) -> ExperimentPlan {
    let name = format!(
        "Bandwidth adaptivity on {} ({} cores)",
        workload.name(),
        scale.cores
    );
    let base = scale.sized(ProtocolKind::Directory).with_workload(workload);
    Sweep::new(name, base)
        .axis(
            "bytes_per_kcycle",
            BANDWIDTH_SWEEP
                .iter()
                .map(|&bw| {
                    AxisValue::new(format!("{bw:.0}"), move |c: SimConfig| {
                        c.with_bandwidth(LinkBandwidth::BytesPerCycle(bw / 1000.0))
                    })
                })
                .collect(),
        )
        .axis("config", adaptivity_protocol_axis())
        .seeds(scale.seeds)
        .build()
}

/// The Figure 8 grid: 4–512 cores (`--quick` stops at 64) ×
/// {DIRECTORY, PATCH-All-NA, PATCH-All} on the microbenchmark with
/// 2-byte/cycle links.
pub(crate) fn scalability_plan(scale: Scale) -> ExperimentPlan {
    let base = scale
        .base(ProtocolKind::Directory, 4)
        .with_workload(WorkloadSpec::microbenchmark())
        .with_bandwidth(LinkBandwidth::BytesPerCycle(2.0));
    Sweep::new("Microbenchmark scalability (2 B/cycle links)", base)
        .axis(
            "cores",
            cores_axis(
                &scale,
                &[4, 8, 16, 32, 64],
                &[4, 8, 16, 32, 64, 128, 256, 512],
            ),
        )
        .axis("config", adaptivity_protocol_axis())
        .seeds(scale.seeds)
        .build()
}

/// The core counts of Figures 9–10 (`--quick` uses small systems).
fn inexact_cores_axis(scale: &Scale) -> Vec<AxisValue> {
    cores_axis(scale, &[16, 32], &[64, 128, 256])
}

/// The coarseness sweep (`K` cores per sharer bit) of Figures 9–10.
fn coarseness_axis() -> Vec<AxisValue> {
    [1, 4, 16, 64, 256].map(coarseness_value).into()
}

/// The protocol axis of Figures 9–10: DIRECTORY vs (predictorless) PATCH.
fn inexact_protocol_axis() -> Vec<AxisValue> {
    vec![
        AxisValue::new("Directory", |c| c.with_kind(ProtocolKind::Directory)),
        AxisValue::new("PATCH", |c| c.with_kind(ProtocolKind::Patch)),
    ]
}

/// Keeps coarseness cells whose `K` does not exceed the cell's core count
/// (a 256-cores-per-bit encoding is meaningless on a 64-core system).
fn coarseness_fits(cell: &Cell) -> bool {
    match cell.config.protocol.sharer_encoding {
        SharerEncoding::Coarse { cores_per_bit } => cores_per_bit <= cell.config.protocol.num_nodes,
        _ => true,
    }
}

/// The Figure 9 grid: core counts × protocol × {unbounded, 2 B/cycle}
/// links × sharer-encoding coarseness (clamped to the core count).
pub(crate) fn inexact_runtime_plan(scale: Scale) -> ExperimentPlan {
    let base = scale
        .base(ProtocolKind::Directory, 4)
        .with_workload(WorkloadSpec::microbenchmark());
    Sweep::new("Runtime vs sharer-encoding coarseness", base)
        .axis("cores", inexact_cores_axis(&scale))
        .axis("config", inexact_protocol_axis())
        .axis(
            "links",
            vec![
                AxisValue::new("inf", |c| c.with_bandwidth(LinkBandwidth::Unbounded)),
                AxisValue::new("2B/c", |c| {
                    c.with_bandwidth(LinkBandwidth::BytesPerCycle(2.0))
                }),
            ],
        )
        .axis("K", coarseness_axis())
        .filter(coarseness_fits)
        .seeds(scale.seeds)
        .build()
}

/// The Figure 10 grid: like [`inexact_runtime_plan`] but at the paper's
/// constrained 2-byte/cycle links only (the traffic figure).
pub(crate) fn inexact_traffic_plan(scale: Scale) -> ExperimentPlan {
    let base = scale
        .base(ProtocolKind::Directory, 4)
        .with_workload(WorkloadSpec::microbenchmark())
        .with_bandwidth(LinkBandwidth::BytesPerCycle(2.0));
    Sweep::new(
        "Traffic vs sharer-encoding coarseness (2 B/cycle links)",
        base,
    )
    .axis("cores", inexact_cores_axis(&scale))
    .axis("config", inexact_protocol_axis())
    .axis("K", coarseness_axis())
    .filter(coarseness_fits)
    .seeds(scale.seeds)
    .build()
}

/// The cross-fabric scalability grid (Figure 8 style): core counts ×
/// all five fabrics × {DIRECTORY, PATCH-All-NA, PATCH-All} on the
/// microbenchmark with 2-byte/cycle links. This is the fabric
/// sensitivity study the paper could not run: how hop count (ring vs.
/// torus vs. mesh), bisection bandwidth (hierarchical gateways), and
/// multicast cost (crossbar's single-hop fan-out) shift the
/// directory/PATCH/token trade-off.
pub(crate) fn cross_fabric_plan(scale: Scale) -> ExperimentPlan {
    let base = scale
        .base(ProtocolKind::Directory, 4)
        .with_workload(WorkloadSpec::microbenchmark())
        .with_bandwidth(LinkBandwidth::BytesPerCycle(2.0));
    Sweep::new("Cross-fabric scalability (2 B/cycle links)", base)
        // Full scale stops at 128 cores: the grid is Figure 8's times
        // five fabrics.
        .axis(
            "cores",
            cores_axis(&scale, &[4, 16], &[4, 8, 16, 32, 64, 128]),
        )
        .axis("fabric", fabric_axis())
        .axis("config", adaptivity_protocol_axis())
        .seeds(scale.seeds)
        .build()
}

/// The liveness horizon armed on every fault-injection cell: any single
/// miss outstanding longer than this fails the run (see
/// `SimConfig::liveness_horizon`). Generous against the worst shipped
/// fault mix (`chaos` storms multiply serialization 8× for stretches),
/// yet far below `max_cycles`, so starvation surfaces as a watchdog
/// panic naming the starved core instead of a silent timeout.
pub(crate) const FAULT_LIVENESS_HORIZON: u64 = 200_000;

/// The fault-injection robustness grid: every shipped fault preset ×
/// one protocol per family × {torus, hier} fabrics, with invariant
/// checking on and the starvation watchdog armed. This is the paper's
/// unasked question: token counting's safety argument (Table 1) is
/// delivery-order independent, but its *performance* under an unreliable
/// interconnect — duplicated token-free requests, reordered persistent
/// ops, degraded links — is not, and this sweep measures the gap.
pub fn faults_plan(scale: Scale) -> ExperimentPlan {
    let base = scale
        .sized(ProtocolKind::Directory)
        .with_checks()
        .with_liveness_horizon(FAULT_LIVENESS_HORIZON);
    Sweep::new(
        format!("Fault-injection robustness ({} cores)", scale.cores),
        base,
    )
    .axis("config", fault_protocol_axis())
    .axis("faults", faults_axis())
    .axis("fabric", torus_and_hier_axis())
    .seeds(scale.seeds)
    .build()
}

/// The burst shape of the `service` plan's bursty-arrival cells: every
/// 256 generator steps, 64 operations arrive with think times divided
/// by 8 — a closed-loop approximation of an open-loop arrival burst.
pub const SERVICE_BURST: (u64, u64, u64) = (256, 64, 8);

/// The service-traffic grid: key-skew shape (uniform, Zipfian, Zipfian
/// with rotating hot set and tenant phases) × arrival shape (steady vs
/// bursty) × one protocol per family. Datacenter services hit coherence
/// protocols with skewed, phase-changing, bursty sharing that the
/// paper's SPLASH/commercial workloads do not model; this sweep asks
/// which protocol family degrades first as skew and burstiness rise.
pub fn service_plan(scale: Scale) -> ExperimentPlan {
    let base = scale.sized(ProtocolKind::Directory);
    Sweep::new(
        format!("Service-shaped traffic ({} cores)", scale.cores),
        base,
    )
    .axis(
        "skew",
        workload_axis(vec![
            service_presets::uniform(),
            service_presets::zipf(),
            service_presets::zipf_hot(),
        ]),
    )
    .axis(
        "arrivals",
        vec![
            AxisValue::new("steady", |c| c),
            AxisValue::new("burst", |mut c: SimConfig| {
                let (period, len, div) = SERVICE_BURST;
                if let WorkloadSpec::Service(p) = &mut c.workload {
                    *p = p.clone().with_burst(period, len, div);
                }
                c
            }),
        ],
    )
    .axis("config", fault_protocol_axis())
    .seeds(scale.seeds)
    .build()
}

/// The Poisson interarrival periods (cycles between arrivals, per core)
/// the `saturation` plan sweeps, slowest first. The early points sit
/// well under every protocol's service rate (goodput tracks offered
/// load, empty backlogs); the late points drive each configuration past
/// its knee, where drops appear and sojourn time grows without bound.
pub(crate) const SATURATION_PERIODS: [u64; 6] = [400, 200, 100, 50, 25, 12];

/// The open-loop saturation grid: offered load (Poisson interarrival
/// period) × one protocol per family × {torus, hier} fabrics. Every
/// other plan is closed-loop — each core issues, waits, thinks — so a
/// slow protocol quietly sheds load and "runtime" absorbs the damage.
/// This sweep decouples arrivals from completions behind a bounded
/// per-core backlog (drop policy), exposing the saturation behaviour a
/// closed loop cannot show: offered vs achieved rate, drop rate, and
/// arrival→completion sojourn time exploding past the knee while the
/// issue→completion miss latency stays flat.
pub fn saturation_plan(scale: Scale) -> ExperimentPlan {
    let base = scale.sized(ProtocolKind::Directory);
    Sweep::new(
        format!("Open-loop saturation ({} cores)", scale.cores),
        base,
    )
    .axis(
        "load",
        SATURATION_PERIODS
            .into_iter()
            .map(|period| {
                let profile = ArrivalProfile::parse(&format!("poisson:{period}"))
                    .expect("shipped arrival spec parses");
                AxisValue::new(period.to_string(), move |c: SimConfig| {
                    c.with_workload(WorkloadSpec::OpenLoop(profile.clone()))
                })
            })
            .collect(),
    )
    .axis("config", fault_protocol_axis())
    .axis("fabric", torus_and_hier_axis())
    .seeds(scale.seeds)
    .build()
}

/// Warmup/measurement schedule for the microbenchmark experiments
/// (Figures 8–10): the paper measures warmed, steady-state caches, so
/// the per-core operation budget is derived from the table size — the
/// *total* access count stays at several multiples of the 16k-block
/// table no matter how many cores split the work.
pub(crate) fn microbench_schedule(cores: u16) -> (u64, u64) {
    let table: u64 = 16 * 1024;
    let warmup = (2 * table / cores as u64).max(32);
    let ops = (3 * table / cores as u64).max(64);
    (warmup, ops)
}

// ---------------------------------------------------------------------------
// Ablation plans.
// ---------------------------------------------------------------------------

/// Ablation: tenure-timeout policy (fixed sweeps vs the paper's adaptive
/// 2× round-trip) on a contended microbenchmark.
fn ablation_tenure_timeout_plan(scale: Scale) -> ExperimentPlan {
    // A contended workload where tenure actually fires: many writers on a
    // small hot table.
    let workload = WorkloadSpec::Microbenchmark {
        table_blocks: 256,
        write_frac: 0.5,
        think_mean: 5,
    };
    let base = scale
        .sized(ProtocolKind::Patch)
        .with_predictor(PredictorChoice::All)
        .with_workload(workload);
    let policies: Vec<(&str, TenureConfig)> = vec![
        ("fixed-50", TenureConfig::Fixed(50)),
        ("fixed-200", TenureConfig::Fixed(200)),
        ("fixed-800", TenureConfig::Fixed(800)),
        ("fixed-3200", TenureConfig::Fixed(3200)),
        ("adaptive-2x", TenureConfig::Adaptive),
    ];
    Sweep::new(
        "Ablation: tenure timeout policy (PATCH-All, contended)",
        base,
    )
    .axis(
        "policy",
        policies
            .into_iter()
            .map(|(label, tenure)| {
                AxisValue::new(label, move |c: SimConfig| {
                    let protocol = c.protocol.clone().with_tenure(tenure);
                    c.with_protocol(protocol)
                })
            })
            .collect(),
    )
    .seeds(scale.seeds)
    .build()
}

/// Ablation: the post-deactivation direct-request ignore window.
pub(crate) fn ablation_deact_window_plan(scale: Scale) -> ExperimentPlan {
    let workload = WorkloadSpec::Microbenchmark {
        table_blocks: 128,
        write_frac: 0.5,
        think_mean: 3,
    };
    let base = scale
        .sized(ProtocolKind::Patch)
        .with_predictor(PredictorChoice::All)
        .with_workload(workload);
    Sweep::new(
        "Ablation: post-deactivation ignore window (PATCH-All)",
        base,
    )
    .axis(
        "window",
        vec![
            AxisValue::new("enabled", |c| c),
            AxisValue::new("disabled", |c| {
                let protocol = c.protocol.clone().without_deact_window();
                c.with_protocol(protocol)
            }),
        ],
    )
    .seeds(scale.seeds)
    .build()
}

/// Ablation: the best-effort staleness bound under constrained bandwidth.
fn ablation_stale_drop_plan(scale: Scale) -> ExperimentPlan {
    let base = scale
        .sized(ProtocolKind::Patch)
        .with_predictor(PredictorChoice::All)
        .with_bandwidth(LinkBandwidth::BytesPerCycle(1.0));
    Sweep::new(
        "Ablation: stale-drop threshold (PATCH-All, 1 B/cycle links)",
        base,
    )
    .axis(
        "stale_cycles",
        [25u64, 50, 100, 200, 400, 1600]
            .into_iter()
            .map(|stale| {
                AxisValue::new(stale.to_string(), move |mut c: SimConfig| {
                    c.stale_drop_cycles = stale;
                    c
                })
            })
            .collect(),
    )
    .seeds(scale.seeds)
    .build()
}

/// Ablation: zero-token acknowledgement elision under a coarse sharer
/// encoding and 2-byte/cycle links.
fn ablation_ack_elision_plan(scale: Scale) -> ExperimentPlan {
    let coarse = SharerEncoding::Coarse {
        cores_per_bit: (scale.cores / 4).max(2),
    };
    let base = scale.sized(ProtocolKind::Patch);
    let protocol = base.protocol.clone().with_sharer_encoding(coarse);
    let base = base
        .with_protocol(protocol)
        .with_bandwidth(LinkBandwidth::BytesPerCycle(2.0));
    Sweep::new(
        format!("Ablation: zero-token ack elision (PATCH, {coarse}, 2 B/cycle links)"),
        base,
    )
    .axis(
        "acks",
        vec![
            AxisValue::new("elided (PATCH)", |c| c),
            AxisValue::new("always (Dir-like)", |c| {
                let protocol = c.protocol.clone().without_ack_elision();
                c.with_protocol(protocol)
            }),
        ],
    )
    .seeds(scale.seeds)
    .build()
}

/// Extension study: limited-pointer directories (Dir-i-B) alongside the
/// paper's coarse-vector sweep.
fn ablation_limited_pointer_plan(scale: Scale) -> ExperimentPlan {
    let cores = scale.cores;
    let (warmup, ops) = microbench_schedule(cores);
    let base = scale
        .base(ProtocolKind::Directory, cores)
        .with_bandwidth(LinkBandwidth::BytesPerCycle(2.0))
        .with_workload(WorkloadSpec::microbenchmark())
        .with_ops_per_core(ops)
        .with_warmup(warmup);
    let encodings = [
        SharerEncoding::FullMap,
        SharerEncoding::LimitedPointer { pointers: 4 },
        SharerEncoding::LimitedPointer { pointers: 1 },
        SharerEncoding::Coarse {
            cores_per_bit: (cores / 4).max(2),
        },
    ];
    Sweep::new(
        format!("Extension: limited-pointer directories ({cores} cores, 2 B/cycle links)"),
        base,
    )
    .axis("config", inexact_protocol_axis())
    .axis(
        "encoding",
        encodings
            .into_iter()
            .map(|encoding| {
                AxisValue::new(encoding.to_string(), move |c: SimConfig| {
                    let protocol = c.protocol.clone().with_sharer_encoding(encoding);
                    c.with_protocol(protocol)
                })
            })
            .collect(),
    )
    .seeds(scale.seeds)
    .build()
}

// ---------------------------------------------------------------------------
// Plan registry.
// ---------------------------------------------------------------------------

/// One named plan `runplan` can execute: how to build its grid and how to
/// declare its finished table's title, result columns, and notes.
pub struct RegisteredPlan {
    /// The name `runplan` takes.
    pub name: &'static str,
    /// One-line description (shown by `runplan --help` and the bare
    /// `runplan` plan listing).
    pub about: &'static str,
    build: fn(Scale) -> ExperimentPlan,
    columns: fn(Table) -> Table,
}

/// Every named plan, in listing order (see [`plan_by_name`] and
/// [`decorate`]).
pub static PLANS: [RegisteredPlan; 16] = [
    // `fig4` keeps the standard columns: the repository benchmark pins
    // `runplan fig4`'s bytes against `with_standard_columns`.
    RegisteredPlan {
        name: "fig4",
        about: "Figure 4 runtime grid: 5 workloads x 6 protocol configs",
        build: figure4_plan,
        columns: with_standard_columns,
    },
    RegisteredPlan {
        name: "fig5",
        about: "Figure 5 traffic per miss by message class, normalized to Directory",
        build: figure4_plan,
        columns: figure5_columns,
    },
    RegisteredPlan {
        name: "fig6",
        about: "Figure 6 bandwidth-adaptivity sweep on ocean",
        build: |scale| bandwidth_plan(scale, presets::ocean()),
        columns: figure6_columns,
    },
    RegisteredPlan {
        name: "fig7",
        about: "Figure 7 bandwidth-adaptivity sweep on jbb",
        build: |scale| bandwidth_plan(scale, presets::jbb()),
        columns: figure7_columns,
    },
    RegisteredPlan {
        name: "fig8",
        about: "Figure 8 scalability: 4-512 cores on 2 B/cycle links",
        build: scalability_plan,
        columns: figure8_columns,
    },
    RegisteredPlan {
        name: "fig9",
        about: "Figure 9 runtime vs sharer-encoding coarseness",
        build: inexact_runtime_plan,
        columns: figure9_columns,
    },
    RegisteredPlan {
        name: "fig10",
        about: "Figure 10 traffic vs sharer-encoding coarseness",
        build: inexact_traffic_plan,
        columns: figure10_columns,
    },
    RegisteredPlan {
        name: "fabric",
        about: "Cross-fabric scalability: cores x 5 topologies x 3 configs",
        build: cross_fabric_plan,
        columns: with_standard_columns,
    },
    RegisteredPlan {
        name: "faults",
        about: "Fault-injection robustness: fault mix x protocol x fabric, oracles armed",
        build: faults_plan,
        columns: with_standard_columns,
    },
    RegisteredPlan {
        name: "service",
        about: "Service-shaped traffic: key skew x arrival burstiness x protocol",
        build: service_plan,
        columns: with_standard_columns,
    },
    RegisteredPlan {
        name: "saturation",
        about: "Open-loop saturation: offered load x protocol x fabric, drops + sojourn",
        build: saturation_plan,
        columns: with_saturation_columns,
    },
    RegisteredPlan {
        name: "tenure_timeout",
        about: "Ablation: fixed vs adaptive tenure timeouts",
        build: ablation_tenure_timeout_plan,
        columns: tenure_timeout_columns,
    },
    RegisteredPlan {
        name: "deact_window",
        about: "Ablation: post-deactivation ignore window on/off",
        build: ablation_deact_window_plan,
        columns: deact_window_columns,
    },
    RegisteredPlan {
        name: "stale_drop",
        about: "Ablation: best-effort staleness bound sweep",
        build: ablation_stale_drop_plan,
        columns: stale_drop_columns,
    },
    RegisteredPlan {
        name: "ack_elision",
        about: "Ablation: zero-token ack elision on/off",
        build: ablation_ack_elision_plan,
        columns: ack_elision_columns,
    },
    RegisteredPlan {
        name: "limited_pointer",
        about: "Extension: limited-pointer directories (Dir-i-B)",
        build: ablation_limited_pointer_plan,
        columns: limited_pointer_columns,
    },
];

fn registration(name: &str) -> Option<&'static RegisteredPlan> {
    PLANS.iter().find(|plan| plan.name == name)
}

/// Builds a registered plan by name (see [`PLANS`]).
pub fn plan_by_name(name: &str, scale: Scale) -> Option<ExperimentPlan> {
    registration(name).map(|plan| (plan.build)(scale))
}

/// Declares a registered plan's title, result columns, and notes on its
/// finished table — the table `runplan <name>` prints.
///
/// # Panics
///
/// Panics if `name` is not registered (see [`PLANS`]).
pub fn decorate(name: &str, table: Table) -> Table {
    let plan = registration(name).unwrap_or_else(|| panic!("no registered plan '{name}'"));
    (plan.columns)(table)
}
