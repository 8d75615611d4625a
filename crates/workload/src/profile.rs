//! Workload specifications and named presets.

use std::sync::Arc;

use patchsim_kernel::SimRng;
use patchsim_noc::NodeId;

use crate::arrivals::ArrivalProfile;
use crate::generator::Generator;
use crate::replay::TraceData;
use crate::service::ServiceProfile;

/// The sharing-pattern statistics of a synthetic workload.
///
/// The address space is laid out in disjoint regions (per cluster of
/// cores): a **shared pool** touched by every core in the cluster, a
/// **producer–consumer ring** of per-core regions written by their owner
/// and read by the next core around the ring, and per-core **private**
/// regions. Every parameter is a probability or a size in cache blocks.
#[derive(Clone, Debug, PartialEq)]
pub struct SharingProfile {
    /// Human-readable name used in figure output.
    pub name: &'static str,
    /// Cores per sharing cluster. The paper runs four 16-core copies of
    /// each workload on its 64-core system; sharing never crosses
    /// clusters.
    pub cluster_size: u16,
    /// Probability that an access targets the shared pool.
    pub shared_frac: f64,
    /// Size of the cluster's shared pool, in blocks.
    pub shared_blocks: u64,
    /// Probability that a shared access starts a migratory
    /// read-modify-write pair (read now, write the same block next).
    pub migratory_frac: f64,
    /// Probability that a shared access is a producer–consumer access
    /// (read the ring-predecessor's region or write one's own).
    pub producer_consumer_frac: f64,
    /// Size of each core's producer–consumer region, in blocks.
    pub pc_blocks_per_core: u64,
    /// Probability that a plain shared-pool access is a write.
    pub shared_write_frac: f64,
    /// Size of each core's private region, in blocks.
    pub private_blocks: u64,
    /// Probability that a private access is a write.
    pub private_write_frac: f64,
    /// Mean think time (non-memory work) between accesses, in cycles;
    /// sampled geometrically.
    pub think_mean: u64,
}

/// A complete workload specification: a synthetic sharing profile, the
/// paper's scalability microbenchmark, a service-traffic profile, or the
/// replay of a recorded trace.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// A [`SharingProfile`]-driven synthetic workload.
    Synthetic(SharingProfile),
    /// The paper's microbenchmark (§8.1): uniform random accesses to a
    /// fixed-size table shared by all cores.
    Microbenchmark {
        /// Table size in blocks (paper: 16k locations).
        table_blocks: u64,
        /// Probability an access is a write (paper: 0.3).
        write_frac: f64,
        /// Mean think time between accesses, in cycles.
        think_mean: u64,
    },
    /// A [`ServiceProfile`]-driven service workload: Zipfian key skew,
    /// rotating hot sets, tenant phases, bursty arrivals.
    Service(ServiceProfile),
    /// An [`ArrivalProfile`]-driven **open-loop** workload: operations
    /// arrive on their own clock (decoupled from completions) into a
    /// bounded per-core backlog, so the offered load — unlike every
    /// closed-loop family — does not throttle itself when the protocol
    /// slows down. The generator's `think_cycles` carry the interarrival
    /// gaps; the core simulator supplies the backlog and overload
    /// accounting.
    OpenLoop(ArrivalProfile),
    /// Replay of a recorded trace: each core's generator becomes a
    /// cursor over its recorded stream. The `Arc` keeps cloning a spec
    /// (which happens once per core and once per experiment cell) from
    /// duplicating the trace body.
    Trace(Arc<TraceData>),
}

impl WorkloadSpec {
    /// The paper's microbenchmark with its published parameters.
    pub fn microbenchmark() -> Self {
        WorkloadSpec::Microbenchmark {
            table_blocks: 16 * 1024,
            write_frac: 0.3,
            think_mean: 10,
        }
    }

    /// Wraps a recorded trace for replay.
    pub fn trace(data: TraceData) -> Self {
        WorkloadSpec::Trace(Arc::new(data))
    }

    /// Builds the per-core generator for `node` in an `num_nodes`-core
    /// system. Generators fork their own RNG stream from `rng`, so two
    /// generators built with the same arguments produce identical streams.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or the spec's probabilities are
    /// outside `[0, 1]`.
    pub fn generator(&self, node: NodeId, num_nodes: u16, rng: SimRng) -> Generator {
        Generator::new(self.clone(), node, num_nodes, rng)
    }

    /// The workload's display name.
    pub fn name(&self) -> &str {
        match self {
            WorkloadSpec::Synthetic(p) => p.name,
            WorkloadSpec::Microbenchmark { .. } => "microbench",
            WorkloadSpec::Service(p) => p.name,
            WorkloadSpec::OpenLoop(p) => &p.name,
            WorkloadSpec::Trace(t) => &t.label,
        }
    }

    /// Approximate number of distinct blocks an `num_nodes`-core run of
    /// this workload touches: an estimate (region sizes, ignoring partial
    /// coverage), not a bound, which a recorded trace stores in its
    /// header. For traces this is the *recording run's* estimate,
    /// reproduced verbatim so a trace recorded from a replay keeps it.
    pub fn working_set_blocks(&self, num_nodes: u16) -> u64 {
        match self {
            WorkloadSpec::Microbenchmark { table_blocks, .. } => *table_blocks,
            WorkloadSpec::Synthetic(p) => {
                let clusters = (num_nodes as u64).div_ceil(p.cluster_size.max(1) as u64);
                let per_core = p.pc_blocks_per_core + p.private_blocks;
                clusters * (p.shared_blocks + p.cluster_size as u64 * per_core)
            }
            WorkloadSpec::Service(p) => p.keys.max(1),
            WorkloadSpec::OpenLoop(p) => p.keys.max(1),
            WorkloadSpec::Trace(t) => t.working_set_blocks,
        }
    }
}

/// Named presets standing in for the paper's five applications.
///
/// The parameters are tuned so the *relative* behaviour matches the
/// published characterization: oltp and apache are dominated by
/// read-write sharing (big wins for direct requests), jbb shares less,
/// barnes shares moderately with mostly-read data, and ocean leans on
/// neighbor (producer–consumer) exchange. Private regions are sized to
/// fit the 1MB private cache once warmed, as in the paper's
/// checkpointed full-system runs, so sharing misses dominate each
/// workload's measured miss mix.
pub mod presets {
    use super::*;

    /// OLTP (TPC-C-like): intense migratory sharing of a modest hot set.
    pub fn oltp() -> WorkloadSpec {
        WorkloadSpec::Synthetic(SharingProfile {
            name: "oltp",
            cluster_size: 16,
            shared_frac: 0.55,
            shared_blocks: 2048,
            migratory_frac: 0.45,
            producer_consumer_frac: 0.05,
            pc_blocks_per_core: 64,
            shared_write_frac: 0.35,
            private_blocks: 512,
            private_write_frac: 0.25,
            think_mean: 15,
        })
    }

    /// Apache (static web serving): heavy sharing, slightly less
    /// migratory than oltp.
    pub fn apache() -> WorkloadSpec {
        WorkloadSpec::Synthetic(SharingProfile {
            name: "apache",
            cluster_size: 16,
            shared_frac: 0.55,
            shared_blocks: 4096,
            migratory_frac: 0.40,
            producer_consumer_frac: 0.10,
            pc_blocks_per_core: 64,
            shared_write_frac: 0.30,
            private_blocks: 512,
            private_write_frac: 0.25,
            think_mean: 15,
        })
    }

    /// SPECjbb-like middleware: moderate sharing, larger private heaps.
    pub fn jbb() -> WorkloadSpec {
        WorkloadSpec::Synthetic(SharingProfile {
            name: "jbb",
            cluster_size: 16,
            shared_frac: 0.35,
            shared_blocks: 4096,
            migratory_frac: 0.25,
            producer_consumer_frac: 0.05,
            pc_blocks_per_core: 64,
            shared_write_frac: 0.30,
            private_blocks: 1024,
            private_write_frac: 0.30,
            think_mean: 20,
        })
    }

    /// SPLASH2 barnes (N-body): mostly-read sharing of the tree.
    pub fn barnes() -> WorkloadSpec {
        WorkloadSpec::Synthetic(SharingProfile {
            name: "barnes",
            cluster_size: 16,
            shared_frac: 0.35,
            shared_blocks: 4096,
            migratory_frac: 0.10,
            producer_consumer_frac: 0.05,
            pc_blocks_per_core: 64,
            shared_write_frac: 0.15,
            private_blocks: 1024,
            private_write_frac: 0.30,
            think_mean: 25,
        })
    }

    /// SPLASH2 ocean: capacity-dominated with nearest-neighbor exchange.
    pub fn ocean() -> WorkloadSpec {
        WorkloadSpec::Synthetic(SharingProfile {
            name: "ocean",
            cluster_size: 16,
            shared_frac: 0.28,
            shared_blocks: 2048,
            migratory_frac: 0.05,
            producer_consumer_frac: 0.50,
            pc_blocks_per_core: 256,
            shared_write_frac: 0.30,
            private_blocks: 2048,
            private_write_frac: 0.35,
            think_mean: 20,
        })
    }

    /// All five presets in the paper's figure order.
    pub fn all() -> Vec<WorkloadSpec> {
        vec![jbb(), oltp(), apache(), barnes(), ocean()]
    }

    /// Looks a preset up by name. Service presets from
    /// [`service_presets`](crate::service_presets) are included so the
    /// bench `--workload` flag can name any generated workload.
    pub fn by_name(name: &str) -> Option<WorkloadSpec> {
        use crate::service::service_presets as svc;
        match name {
            "oltp" => Some(oltp()),
            "apache" => Some(apache()),
            "jbb" => Some(jbb()),
            "barnes" => Some(barnes()),
            "ocean" => Some(ocean()),
            "microbench" => Some(WorkloadSpec::microbenchmark()),
            "svc-uniform" => Some(svc::uniform()),
            "svc-zipf" => Some(svc::zipf()),
            "svc-hot" => Some(svc::zipf_hot()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_probabilities() {
        for spec in presets::all() {
            let WorkloadSpec::Synthetic(p) = &spec else {
                panic!("presets are synthetic")
            };
            for frac in [
                p.shared_frac,
                p.migratory_frac,
                p.producer_consumer_frac,
                p.shared_write_frac,
                p.private_write_frac,
            ] {
                assert!((0.0..=1.0).contains(&frac), "{}: bad fraction", p.name);
            }
            assert!(p.migratory_frac + p.producer_consumer_frac <= 1.0);
            assert!(p.cluster_size > 0);
        }
    }

    #[test]
    fn by_name_round_trips() {
        for name in [
            "oltp",
            "apache",
            "jbb",
            "barnes",
            "ocean",
            "microbench",
            "svc-uniform",
            "svc-zipf",
            "svc-hot",
        ] {
            let spec = presets::by_name(name).unwrap();
            assert_eq!(spec.name(), name);
        }
        assert!(presets::by_name("nonsense").is_none());
    }

    #[test]
    fn open_loop_spec_reports_profile_metadata() {
        let p = crate::ArrivalProfile::parse("poisson:100,keys=2048").unwrap();
        let spec = WorkloadSpec::OpenLoop(p);
        assert_eq!(spec.name(), "open:poisson:100,keys=2048");
        assert_eq!(spec.working_set_blocks(8), 2048);
    }

    #[test]
    fn trace_spec_reports_recorded_metadata() {
        use crate::replay::TraceData;
        let spec = WorkloadSpec::trace(TraceData::empty("oltp", 42, 8, 4096));
        assert_eq!(spec.name(), "oltp");
        assert_eq!(spec.working_set_blocks(8), 4096);
    }

    #[test]
    fn microbenchmark_matches_paper_parameters() {
        let WorkloadSpec::Microbenchmark {
            table_blocks,
            write_frac,
            ..
        } = WorkloadSpec::microbenchmark()
        else {
            panic!()
        };
        assert_eq!(table_blocks, 16 * 1024);
        assert!((write_frac - 0.3).abs() < 1e-12);
    }

    #[test]
    fn commercial_workloads_share_more_than_scientific() {
        let get = |spec: WorkloadSpec| match spec {
            WorkloadSpec::Synthetic(p) => p.shared_frac * (1.0 - 0.0),
            _ => unreachable!(),
        };
        assert!(get(presets::oltp()) > get(presets::barnes()));
        assert!(get(presets::apache()) > get(presets::ocean()));
    }
}
