//! Protocol configuration.

use patchsim_mem::{CacheGeometry, SharerEncoding};
use patchsim_noc::{FabricKind, Priority};
use patchsim_predictor::PredictorChoice;

/// Which coherence protocol to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// The blocking MOESI+F directory baseline (§5.1).
    Directory,
    /// PATCH: directory + token counting + token tenure (§5.2).
    Patch,
    /// TokenB: broadcast token coherence with persistent requests.
    TokenB,
}

impl ProtocolKind {
    /// The label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Directory => "Directory",
            ProtocolKind::Patch => "PATCH",
            ProtocolKind::TokenB => "TokenB",
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Token-tenure timeout policy.
///
/// The paper "adaptively sets the value of the tenure timeout to twice the
/// dynamic average round trip latency"; a fixed timeout is provided for
/// the ablation benches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TenureConfig {
    /// `multiplier ×` the node's running average miss round-trip, but
    /// never below `floor` cycles.
    Adaptive {
        /// Multiple of the dynamic average round-trip (paper: 2.0).
        multiplier: f64,
        /// Lower bound in cycles, so cold-start estimates cannot produce
        /// degenerate timeouts.
        floor: u64,
    },
    /// A fixed timeout in cycles.
    Fixed(u64),
}

impl TenureConfig {
    /// The paper's adaptive policy (2× average round trip).
    pub fn paper_default() -> Self {
        TenureConfig::Adaptive {
            multiplier: 2.0,
            floor: 50,
        }
    }

    /// The timeout to use given the current average round-trip estimate.
    pub fn timeout(self, avg_round_trip: f64) -> u64 {
        match self {
            TenureConfig::Adaptive { multiplier, floor } => {
                ((avg_round_trip * multiplier) as u64).max(floor)
            }
            TenureConfig::Fixed(cycles) => cycles,
        }
    }
}

/// Full configuration for one protocol instance.
///
/// Defaults reproduce the paper's baseline system: per-node private 1MB
/// 4-way caches with 64-byte blocks, a 16-cycle directory, 80-cycle DRAM,
/// full-map sharer encoding, the migratory-sharing optimization on, and —
/// for PATCH — best-effort direct requests with the adaptive tenure
/// timeout and the post-deactivation ignore window.
///
/// # Examples
///
/// ```
/// use patchsim_protocol::{ProtocolConfig, ProtocolKind};
/// use patchsim_predictor::PredictorChoice;
///
/// let cfg = ProtocolConfig::new(ProtocolKind::Patch, 64)
///     .with_predictor(PredictorChoice::All);
/// assert_eq!(cfg.total_tokens, 64);
/// ```
#[derive(Clone, Debug)]
pub struct ProtocolConfig {
    /// Which protocol to run.
    pub kind: ProtocolKind,
    /// System size.
    pub num_nodes: u16,
    /// Interconnect topology the system is assembled on. Protocols are
    /// fabric-agnostic (they address nodes, not links), but the choice
    /// lives here beside `num_nodes` so every layer that resizes or
    /// clones the system configuration carries it along.
    pub fabric: FabricKind,
    /// Tokens per block (`T`); the paper uses one per processor.
    pub total_tokens: u32,
    /// Private cache shape.
    pub cache_geometry: CacheGeometry,
    /// Directory sharer encoding (Figures 9–10 sweep the coarse variants).
    pub sharer_encoding: SharerEncoding,
    /// Directory lookup latency in cycles (paper: 16).
    pub dir_latency: u64,
    /// DRAM access latency in cycles (paper: 80).
    pub dram_latency: u64,
    /// Private cache hit latency in cycles (paper: 12-cycle L2).
    pub cache_hit_latency: u64,
    /// Whether the home applies the migratory-sharing optimization.
    pub migratory_opt: bool,
    /// PATCH: destination-set prediction policy for direct requests.
    pub predictor: PredictorChoice,
    /// PATCH: delivery priority of direct requests. `BestEffort` is
    /// PATCH's bandwidth adaptivity; `Normal` gives the non-adaptive
    /// variant of Figures 6–8.
    pub direct_priority: Priority,
    /// PATCH: tenure timeout policy.
    pub tenure: TenureConfig,
    /// PATCH: whether to reuse the timer after deactivation to keep
    /// ignoring direct requests (the §5.2 race-mitigation window).
    pub deact_window: bool,
    /// PATCH/TokenB: whether zero-token acknowledgements are elided
    /// (`true`, the protocols' defining optimization) or sent anyway
    /// (`false`, for the ablation quantifying ack implosion).
    pub ack_elision: bool,
    /// TokenB: transient reissues before escalating to a persistent
    /// request.
    pub reissues_before_persistent: u32,
    /// Expected distinct blocks the workload touches, used to pre-size
    /// the controllers' block-keyed tables so the event loop never grows
    /// a hash map mid-run. A hint, not a bound: tables still grow past it
    /// correctly. `None` (the default) lets the simulation core derive it
    /// from the workload's footprint; setting it explicitly wins.
    pub working_set_hint: Option<u64>,
}

impl ProtocolConfig {
    /// Paper-default configuration for `kind` on `num_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero.
    pub fn new(kind: ProtocolKind, num_nodes: u16) -> Self {
        assert!(num_nodes > 0, "a system needs at least one node");
        ProtocolConfig {
            kind,
            num_nodes,
            fabric: FabricKind::Torus,
            total_tokens: num_nodes as u32,
            cache_geometry: CacheGeometry::from_capacity(1 << 20, 64, 4),
            sharer_encoding: SharerEncoding::FullMap,
            dir_latency: 16,
            dram_latency: 80,
            cache_hit_latency: 12,
            migratory_opt: true,
            predictor: PredictorChoice::None,
            direct_priority: Priority::BestEffort,
            tenure: TenureConfig::paper_default(),
            deact_window: true,
            ack_elision: true,
            reissues_before_persistent: 2,
            working_set_hint: None,
        }
    }

    /// Sets the expected working-set size in blocks (pre-sizes the
    /// controllers' block-keyed tables). Overrides the simulation core's
    /// workload-derived estimate.
    pub fn with_working_set_hint(mut self, blocks: u64) -> Self {
        self.working_set_hint = Some(blocks);
        self
    }

    /// The working-set hint, defaulting to the paper's 16k-block
    /// microbenchmark table when neither the user nor the simulation
    /// core supplied one.
    fn working_set(&self) -> u64 {
        self.working_set_hint.unwrap_or(16 * 1024)
    }

    /// Pre-size for a home-side table: each node homes an interleaved
    /// `1/num_nodes` slice of the working set. Clamped so degenerate
    /// hints can neither underprovision nor balloon memory.
    ///
    /// Homes pre-size because they fill: a home entry, once created, stays
    /// for the run, so a node's home table grows to its whole slice and
    /// pre-sizing only spares the rehashes on the way. The transaction
    /// tables start empty instead — PATCH's open misses and ignore windows,
    /// DIRECTORY's writebacks, TokenB's persistent-request table and
    /// arbiter. Their entries live while a transaction is open (the
    /// arbiter's, for blocks that ever starved), a node holds a handful at
    /// once, and capacity reserved for more is resident memory no run uses.
    pub fn home_table_capacity(&self) -> usize {
        (self.working_set() / self.num_nodes as u64).clamp(64, 1 << 16) as usize
    }

    /// Sets the destination-set predictor (PATCH).
    pub fn with_predictor(mut self, predictor: PredictorChoice) -> Self {
        self.predictor = predictor;
        self
    }

    /// Sets the interconnect fabric the system is assembled on.
    pub fn with_fabric(mut self, fabric: FabricKind) -> Self {
        self.fabric = fabric;
        self
    }

    /// Sets the sharer encoding.
    pub fn with_sharer_encoding(mut self, encoding: SharerEncoding) -> Self {
        self.sharer_encoding = encoding;
        self
    }

    /// Makes PATCH's direct requests guaranteed-delivery (the
    /// "NonAdaptive" variant of Figures 6–8).
    pub fn non_adaptive(mut self) -> Self {
        self.direct_priority = Priority::Normal;
        self
    }

    /// Sets the cache geometry.
    pub fn with_cache_geometry(mut self, geometry: CacheGeometry) -> Self {
        self.cache_geometry = geometry;
        self
    }

    /// Sets the tenure policy (PATCH).
    pub fn with_tenure(mut self, tenure: TenureConfig) -> Self {
        self.tenure = tenure;
        self
    }

    /// Disables the post-deactivation direct-request ignore window
    /// (ablation).
    pub fn without_deact_window(mut self) -> Self {
        self.deact_window = false;
        self
    }

    /// Disables zero-token ack elision (ablation).
    pub fn without_ack_elision(mut self) -> Self {
        self.ack_elision = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = ProtocolConfig::new(ProtocolKind::Directory, 64);
        assert_eq!(cfg.dir_latency, 16);
        assert_eq!(cfg.dram_latency, 80);
        assert_eq!(cfg.cache_hit_latency, 12);
        assert_eq!(cfg.total_tokens, 64);
        assert_eq!(cfg.cache_geometry.blocks(), 16384); // 1MB / 64B
        assert!(cfg.migratory_opt);
        assert!(cfg.ack_elision);
        assert_eq!(cfg.sharer_encoding, SharerEncoding::FullMap);
        assert_eq!(cfg.fabric, FabricKind::Torus);
    }

    #[test]
    fn fabric_choice_survives_builders() {
        let cfg = ProtocolConfig::new(ProtocolKind::Patch, 16)
            .with_fabric(FabricKind::Ring)
            .with_predictor(PredictorChoice::All)
            .non_adaptive();
        assert_eq!(cfg.fabric, FabricKind::Ring);
    }

    #[test]
    fn tenure_timeout_policies() {
        let adaptive = TenureConfig::paper_default();
        assert_eq!(adaptive.timeout(200.0), 400);
        assert_eq!(adaptive.timeout(1.0), 50, "floor applies");
        assert_eq!(TenureConfig::Fixed(123).timeout(9999.0), 123);
    }

    #[test]
    fn builders_apply() {
        let cfg = ProtocolConfig::new(ProtocolKind::Patch, 16)
            .with_predictor(PredictorChoice::All)
            .non_adaptive()
            .without_deact_window()
            .without_ack_elision();
        assert_eq!(cfg.predictor, PredictorChoice::All);
        assert_eq!(cfg.direct_priority, Priority::Normal);
        assert!(!cfg.deact_window);
        assert!(!cfg.ack_elision);
    }

    #[test]
    fn table_capacities_scale_and_clamp() {
        let cfg = ProtocolConfig::new(ProtocolKind::Patch, 16).with_working_set_hint(16 * 1024);
        assert_eq!(cfg.home_table_capacity(), 1024);
        // Tiny hints clamp up, giant hints clamp down.
        assert_eq!(
            ProtocolConfig::new(ProtocolKind::Patch, 64)
                .with_working_set_hint(1)
                .home_table_capacity(),
            64
        );
        assert_eq!(
            ProtocolConfig::new(ProtocolKind::Patch, 1)
                .with_working_set_hint(u64::MAX)
                .home_table_capacity(),
            1 << 16
        );
    }

    #[test]
    fn labels() {
        assert_eq!(ProtocolKind::Directory.to_string(), "Directory");
        assert_eq!(ProtocolKind::Patch.to_string(), "PATCH");
        assert_eq!(ProtocolKind::TokenB.to_string(), "TokenB");
    }
}
