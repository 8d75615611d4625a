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

/// Directory lookup latency in cycles (paper §8: 16).
pub(crate) const DIR_LATENCY: u64 = 16;

/// DRAM access latency in cycles (paper §8: 80).
pub(crate) const DRAM_LATENCY: u64 = 80;

/// TokenB: transient reissues before escalating to a persistent request
/// (Martin et al., *Token Coherence*, ISCA 2003: 2).
pub(crate) const REISSUES_BEFORE_PERSISTENT: u32 = 2;

/// Token-tenure timeout policy.
///
/// The paper "adaptively sets the value of the tenure timeout to twice the
/// dynamic average round trip latency"; a fixed timeout is provided for
/// the ablation benches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TenureConfig {
    /// Twice the node's running average miss round-trip (the paper's
    /// policy), but never below 50 cycles, so cold-start estimates cannot
    /// produce degenerate timeouts.
    Adaptive,
    /// A fixed timeout in cycles.
    Fixed(u64),
}

impl TenureConfig {
    /// The timeout to use given the current average round-trip estimate.
    pub fn timeout(self, avg_round_trip: f64) -> u64 {
        match self {
            TenureConfig::Adaptive => ((avg_round_trip * 2.0) as u64).max(50),
            TenureConfig::Fixed(cycles) => cycles,
        }
    }
}

/// Full configuration for one protocol instance.
///
/// Defaults reproduce the paper's baseline system: per-node private 1MB
/// 4-way caches with 64-byte blocks, full-map sharer encoding, and — for
/// PATCH — best-effort direct requests with the adaptive tenure timeout
/// and the post-deactivation ignore window. The 16-cycle directory,
/// 80-cycle DRAM and the migratory-sharing optimization are not settings:
/// every configuration runs them.
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
    /// Private cache hit latency in cycles (paper: 12-cycle L2).
    pub cache_hit_latency: u64,
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
    /// Distinct blocks the workload touches, as a recorded trace states it
    /// in its header. No controller reads it: every block-keyed table
    /// starts empty and grows with the blocks a run touches. `None` (the
    /// default) lets the simulation core derive it from the workload's
    /// footprint; setting it explicitly wins. The field stays because
    /// the benchmark harness sets it, and because this config's `Debug`
    /// string, which includes it, is folded into the experiment store's
    /// keys.
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
            cache_hit_latency: 12,
            predictor: PredictorChoice::None,
            direct_priority: Priority::BestEffort,
            tenure: TenureConfig::Adaptive,
            deact_window: true,
            ack_elision: true,
            working_set_hint: None,
        }
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
        assert_eq!(DIR_LATENCY, 16);
        assert_eq!(DRAM_LATENCY, 80);
        assert_eq!(REISSUES_BEFORE_PERSISTENT, 2);
        assert_eq!(cfg.cache_hit_latency, 12);
        assert_eq!(cfg.total_tokens, 64);
        assert_eq!(cfg.cache_geometry.blocks(), 16384); // 1MB / 64B
        assert_eq!(cfg.tenure, TenureConfig::Adaptive);
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
        let adaptive = TenureConfig::Adaptive;
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
    fn labels() {
        assert_eq!(ProtocolKind::Directory.to_string(), "Directory");
        assert_eq!(ProtocolKind::Patch.to_string(), "PATCH");
        assert_eq!(ProtocolKind::TokenB.to_string(), "TokenB");
    }
}
