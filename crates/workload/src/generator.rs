//! The per-core access-stream generator.

use patchsim_kernel::{streams, SimRng};
use patchsim_mem::{AccessKind, BlockAddr};
use patchsim_noc::NodeId;

use crate::arrivals::{self, ArrivalProfile};
use crate::service::{ServiceProfile, ZipfSampler};
use crate::{SharingProfile, WorkloadSpec};

/// One memory operation produced by a workload generator: what to access
/// and how long the core computes before issuing it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkItem {
    /// The block to access.
    pub addr: BlockAddr,
    /// Load or store.
    pub kind: AccessKind,
    /// Non-memory work preceding the access, in cycles.
    pub think_cycles: u64,
}

/// An infinite per-core stream of [`WorkItem`]s.
///
/// Deterministic: the stream is a pure function of `(spec, node,
/// num_nodes, rng seed)`. Different cores fork different RNG streams from
/// the same root seed, and perturbation runs use different root seeds —
/// the confidence-interval methodology of the paper.
#[derive(Debug)]
pub struct Generator {
    spec: WorkloadSpec,
    /// Replay position for [`WorkloadSpec::Trace`].
    cursor: usize,
    draws: Draws,
}

/// What an item is drawn from besides the spec — a separate struct so
/// that an item function can mutate it while holding a profile borrowed
/// from [`Generator::spec`].
#[derive(Debug)]
struct Draws {
    node: NodeId,
    num_nodes: u16,
    rng: SimRng,
    /// Second half of a migratory read-modify-write pair, if one is queued.
    pending: Option<WorkItem>,
    ops_generated: u64,
    /// Precomputed Zipf tables for [`WorkloadSpec::Service`] and
    /// [`WorkloadSpec::OpenLoop`].
    zipf: Option<ZipfSampler>,
}

/// Address-space layout constants. Regions of different kinds (and of
/// different clusters) must never overlap; each cluster owns a fixed-size
/// window.
const SHARED_REGION: u64 = 0;
/// Per-cluster address stride: generous enough for any preset's regions.
const CLUSTER_STRIDE: u64 = 1 << 32;

impl Generator {
    /// Creates the generator for `node` of `num_nodes`. Forks a per-node
    /// RNG stream from `rng` so sibling generators are independent.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn new(spec: WorkloadSpec, node: NodeId, num_nodes: u16, rng: SimRng) -> Self {
        assert!(node.raw() < num_nodes, "{node} out of range");
        if let WorkloadSpec::Trace(t) = &spec {
            assert_eq!(
                t.num_nodes, num_nodes,
                "trace '{}' was recorded on {} cores and cannot replay on {}",
                t.label, t.num_nodes, num_nodes
            );
        }
        let mut rng = rng.fork(node.raw() as u64);
        let mut zipf = None;
        match &spec {
            WorkloadSpec::Service(p) => {
                // Service generators draw from a stream forked *below* the
                // per-node workload stream under a dedicated label, so no
                // pre-existing workload's draws can ever shift.
                rng = rng.fork(streams::SERVICE);
                let tenant_keys = (p.keys / p.tenants.max(1) as u64).max(1);
                zipf = Some(ZipfSampler::new(tenant_keys, p.theta));
            }
            WorkloadSpec::OpenLoop(p) => {
                // Open-loop arrivals get their own dedicated stream below
                // the per-node stream, same contract as `serv`.
                rng = rng.fork(streams::ARRIVAL);
                zipf = Some(p.sampler());
            }
            _ => {}
        }
        Generator {
            spec,
            cursor: 0,
            draws: Draws {
                node,
                num_nodes,
                rng,
                pending: None,
                ops_generated: 0,
                zipf,
            },
        }
    }

    /// The node this generator belongs to.
    pub fn node(&self) -> NodeId {
        self.draws.node
    }

    /// Number of operations generated so far.
    pub fn ops_generated(&self) -> u64 {
        self.draws.ops_generated
    }

    /// Produces the next operation in the stream.
    pub fn next_item(&mut self) -> WorkItem {
        let draws = &mut self.draws;
        draws.ops_generated += 1;
        if let Some(item) = draws.pending.take() {
            return item;
        }
        match &self.spec {
            WorkloadSpec::Microbenchmark {
                table_blocks,
                write_frac,
                think_mean,
            } => {
                let addr = BlockAddr::new(draws.rng.below(*table_blocks));
                let kind = if draws.rng.chance(*write_frac) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                WorkItem {
                    addr,
                    kind,
                    think_cycles: draws.think(*think_mean),
                }
            }
            WorkloadSpec::Synthetic(profile) => draws.synthetic_item(profile),
            WorkloadSpec::Service(profile) => draws.service_item(profile),
            WorkloadSpec::OpenLoop(profile) => draws.open_item(profile),
            WorkloadSpec::Trace(_) => self.trace_item(),
        }
    }

    /// Replays the next recorded item for this core. Wraps around if
    /// asked for more items than were recorded (replaying a trace under
    /// its recording config never wraps).
    fn trace_item(&mut self) -> WorkItem {
        let WorkloadSpec::Trace(t) = &self.spec else {
            unreachable!("trace_item called on a non-trace spec")
        };
        let node = self.draws.node;
        let stream = &t.streams[node.raw() as usize];
        assert!(
            !stream.is_empty(),
            "trace '{}' has no items for {node}",
            t.label,
        );
        let item = stream[self.cursor % stream.len()];
        self.cursor += 1;
        item
    }
}

impl Draws {
    /// Produces the next service-traffic access. All time variation is
    /// keyed to this generator's own operation count, and every path
    /// consumes the same RNG draws in the same order (think, tenant
    /// chance, tenant pick, rank, write chance), so the stream stays a
    /// pure function of `(profile, node, seed)`.
    fn service_item(&mut self, p: &ServiceProfile) -> WorkItem {
        let ops = self.ops_generated;
        let mut think = self.think(p.think_mean);
        if p.burst_period > 0 && ops % p.burst_period < p.burst_len {
            think /= p.burst_think_div.max(1);
        }
        let tenants = p.tenants.max(1) as u64;
        let tenant_keys = (p.keys / tenants).max(1);
        let tenant = if tenants == 1 {
            0
        } else {
            let hot = ops.checked_div(p.phase_ops).map_or(0, |n| n % tenants);
            if self.rng.chance(p.hot_tenant_frac) {
                hot
            } else {
                self.rng.below(tenants)
            }
        };
        let zipf = self.zipf.expect("service generator has a sampler");
        let rank = zipf.sample(&mut self.rng);
        // Hot-set rotation: shift the rank-to-key mapping every
        // `hot_period` ops, so which *keys* are hot drifts over time
        // while the skew shape stays fixed.
        let offset = ops
            .checked_div(p.hot_period)
            .map_or(0, |n| n.wrapping_mul(p.hot_step) % tenant_keys);
        let addr = BlockAddr::new(tenant * tenant_keys + (rank + offset) % tenant_keys);
        let kind = if self.rng.chance(p.write_frac) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        WorkItem {
            addr,
            kind,
            think_cycles: think,
        }
    }

    /// Produces the next open-loop arrival. `think_cycles` carries the
    /// interarrival gap (the time since the *previous arrival*, not
    /// since the previous completion — the core simulator schedules
    /// arrivals on this clock, decoupled from completions). Fixed draw
    /// order per item — gap, rank, write chance — keyed to the
    /// generator's own arrival count, so the stream is a pure function
    /// of `(profile, node, seed)`.
    fn open_item(&mut self, p: &ArrivalProfile) -> WorkItem {
        let index = self.ops_generated - 1; // 0-based arrival index
        let gap = arrivals::next_gap(p.process, index, &mut self.rng);
        let zipf = self.zipf.expect("open-loop generator has a sampler");
        let rank = zipf.sample(&mut self.rng);
        let kind = if self.rng.chance(p.write_frac) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        WorkItem {
            addr: BlockAddr::new(rank),
            kind,
            think_cycles: gap,
        }
    }

    fn synthetic_item(&mut self, p: &SharingProfile) -> WorkItem {
        let think = self.think(p.think_mean);
        let cluster = self.node.raw() / p.cluster_size;
        let slot = (self.node.raw() % p.cluster_size) as u64;
        let cluster_size = p.cluster_size.min(self.num_nodes) as u64;
        let base = cluster as u64 * CLUSTER_STRIDE;

        if self.rng.chance(p.shared_frac) {
            let roll = self.rng.unit();
            if roll < p.migratory_frac {
                // Migratory pair: read now, write the same block next.
                let addr = BlockAddr::new(base + SHARED_REGION + self.rng.below(p.shared_blocks));
                self.pending = Some(WorkItem {
                    addr,
                    kind: AccessKind::Write,
                    think_cycles: self.think(p.think_mean),
                });
                WorkItem {
                    addr,
                    kind: AccessKind::Read,
                    think_cycles: think,
                }
            } else if roll < p.migratory_frac + p.producer_consumer_frac {
                // Producer–consumer ring: write one's own region or read
                // the predecessor's.
                let pc_base = base + p.shared_blocks;
                let (region_slot, kind) = if self.rng.chance(0.5) {
                    (slot, AccessKind::Write)
                } else {
                    ((slot + cluster_size - 1) % cluster_size, AccessKind::Read)
                };
                let addr = BlockAddr::new(
                    pc_base
                        + region_slot * p.pc_blocks_per_core
                        + self.rng.below(p.pc_blocks_per_core),
                );
                WorkItem {
                    addr,
                    kind,
                    think_cycles: think,
                }
            } else {
                // Plain shared-pool access.
                let addr = BlockAddr::new(base + SHARED_REGION + self.rng.below(p.shared_blocks));
                let kind = if self.rng.chance(p.shared_write_frac) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                WorkItem {
                    addr,
                    kind,
                    think_cycles: think,
                }
            }
        } else {
            // Private access.
            let private_base = base
                + p.shared_blocks
                + cluster_size * p.pc_blocks_per_core
                + slot * p.private_blocks;
            let addr = BlockAddr::new(private_base + self.rng.below(p.private_blocks));
            let kind = if self.rng.chance(p.private_write_frac) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            WorkItem {
                addr,
                kind,
                think_cycles: think,
            }
        }
    }

    /// Uniformly distributed think time with the requested mean.
    fn think(&mut self, mean: u64) -> u64 {
        if mean == 0 {
            0
        } else {
            self.rng.below(2 * mean + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use std::collections::BTreeSet;

    fn gen_for(spec: WorkloadSpec, node: u16, n: u16, seed: u64) -> Generator {
        spec.generator(NodeId::new(node), n, SimRng::from_seed(seed))
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = gen_for(presets::oltp(), 3, 64, 42);
        let mut b = gen_for(presets::oltp(), 3, 64, 42);
        for _ in 0..1000 {
            assert_eq!(a.next_item(), b.next_item());
        }
    }

    #[test]
    fn different_nodes_see_different_streams() {
        let mut a = gen_for(presets::oltp(), 0, 64, 42);
        let mut b = gen_for(presets::oltp(), 1, 64, 42);
        let same = (0..200).filter(|_| a.next_item() == b.next_item()).count();
        assert!(same < 20);
    }

    #[test]
    fn microbenchmark_stays_in_table_with_write_ratio() {
        let mut g = gen_for(WorkloadSpec::microbenchmark(), 0, 4, 7);
        let mut writes = 0;
        for _ in 0..10_000 {
            let item = g.next_item();
            assert!(item.addr.raw() < 16 * 1024);
            if item.kind.is_write() {
                writes += 1;
            }
        }
        assert!(
            (2_700..3_300).contains(&writes),
            "write frac ~0.3, got {writes}"
        );
    }

    #[test]
    fn migratory_pairs_are_read_then_write_same_block() {
        let spec = WorkloadSpec::Synthetic(SharingProfile {
            migratory_frac: 1.0,
            shared_frac: 1.0,
            producer_consumer_frac: 0.0,
            ..match presets::oltp() {
                WorkloadSpec::Synthetic(p) => p,
                _ => unreachable!(),
            }
        });
        let mut g = gen_for(spec, 0, 16, 1);
        for _ in 0..100 {
            let first = g.next_item();
            let second = g.next_item();
            assert_eq!(first.kind, AccessKind::Read);
            assert_eq!(second.kind, AccessKind::Write);
            assert_eq!(first.addr, second.addr);
        }
    }

    #[test]
    fn private_regions_do_not_overlap_across_nodes() {
        let spec = presets::jbb();
        let mut seen: Vec<(u16, BTreeSet<u64>)> = Vec::new();
        for node in 0..4u16 {
            let mut g = gen_for(spec.clone(), node, 16, 9);
            let mut privates = BTreeSet::new();
            for _ in 0..2000 {
                let item = g.next_item();
                // Shared pool and pc ring live below the private bases.
                let WorkloadSpec::Synthetic(p) = &spec else {
                    unreachable!()
                };
                let private_floor = p.shared_blocks + 16 * p.pc_blocks_per_core;
                if item.addr.raw() >= private_floor {
                    privates.insert(item.addr.raw());
                }
            }
            seen.push((node, privates));
        }
        for (i, (_, a)) in seen.iter().enumerate() {
            for (_, b) in seen.iter().skip(i + 1) {
                assert!(a.is_disjoint(b), "private regions overlap");
            }
        }
    }

    #[test]
    fn clusters_do_not_share() {
        // Nodes 0 and 16 are in different 16-core clusters: no common
        // addresses at all.
        let spec = presets::apache();
        let mut a = gen_for(spec.clone(), 0, 64, 5);
        let mut b = gen_for(spec, 16, 64, 5);
        let addrs_a: BTreeSet<u64> = (0..3000).map(|_| a.next_item().addr.raw()).collect();
        let addrs_b: BTreeSet<u64> = (0..3000).map(|_| b.next_item().addr.raw()).collect();
        assert!(addrs_a.is_disjoint(&addrs_b));
    }

    #[test]
    fn nodes_within_cluster_share_the_pool() {
        let spec = presets::apache();
        let mut a = gen_for(spec.clone(), 0, 64, 5);
        let mut b = gen_for(spec, 1, 64, 5);
        let addrs_a: BTreeSet<u64> = (0..3000).map(|_| a.next_item().addr.raw()).collect();
        let addrs_b: BTreeSet<u64> = (0..3000).map(|_| b.next_item().addr.raw()).collect();
        assert!(!addrs_a.is_disjoint(&addrs_b), "cluster members share");
    }

    #[test]
    fn think_time_has_requested_mean() {
        let mut g = gen_for(WorkloadSpec::microbenchmark(), 0, 4, 3);
        let total: u64 = (0..10_000).map(|_| g.next_item().think_cycles).sum();
        let mean = total as f64 / 10_000.0;
        assert!(
            (8.0..12.0).contains(&mean),
            "mean think {mean} should be ~10"
        );
    }

    #[test]
    fn ops_generated_counts() {
        let mut g = gen_for(WorkloadSpec::microbenchmark(), 0, 4, 3);
        for _ in 0..5 {
            g.next_item();
        }
        assert_eq!(g.ops_generated(), 5);
    }

    #[test]
    fn service_stream_is_deterministic_and_in_bounds() {
        use crate::service_presets;
        let mut a = gen_for(service_presets::zipf_hot(), 2, 8, 21);
        let mut b = gen_for(service_presets::zipf_hot(), 2, 8, 21);
        for _ in 0..2000 {
            let item = a.next_item();
            assert_eq!(item, b.next_item());
            assert!(item.addr.raw() < 8192, "service addr within keyspace");
        }
    }

    #[test]
    fn service_skew_concentrates_mass_vs_uniform() {
        use crate::service_presets;
        let top_share = |spec: WorkloadSpec| {
            let mut g = gen_for(spec, 0, 8, 13);
            let mut counts = std::collections::BTreeMap::new();
            for _ in 0..20_000 {
                *counts.entry(g.next_item().addr.raw()).or_insert(0u64) += 1;
            }
            let mut freqs: Vec<u64> = counts.into_values().collect();
            freqs.sort_unstable_by(|a, b| b.cmp(a));
            freqs.iter().take(16).sum::<u64>() as f64 / 20_000.0
        };
        let zipf = top_share(service_presets::zipf());
        let uniform = top_share(service_presets::uniform());
        assert!(
            zipf > 4.0 * uniform,
            "zipf top-16 share {zipf:.3} should dwarf uniform {uniform:.3}"
        );
    }

    #[test]
    fn service_hot_set_rotates_over_time() {
        use crate::service_presets;
        // svc-hot rotates every 256 ops; the most popular key of the
        // first window should differ from a much later window's.
        let mut g = gen_for(service_presets::zipf_hot(), 0, 8, 5);
        let hottest = |g: &mut Generator| {
            let mut counts = std::collections::BTreeMap::new();
            for _ in 0..256 {
                *counts.entry(g.next_item().addr.raw()).or_insert(0u64) += 1;
            }
            counts.into_iter().max_by_key(|&(_, c)| c).unwrap().0
        };
        let early = hottest(&mut g);
        for _ in 0..4096 {
            g.next_item();
        }
        let late = hottest(&mut g);
        assert_ne!(early, late, "hot key should drift across rotations");
    }

    #[test]
    fn service_burst_window_shrinks_think_time() {
        use crate::service_presets;
        let WorkloadSpec::Service(p) = service_presets::uniform() else {
            panic!()
        };
        let spec = WorkloadSpec::Service(p.with_burst(256, 64, 8));
        let mut g = gen_for(spec, 0, 4, 7);
        let mut burst_total = 0u64;
        let mut steady_total = 0u64;
        for i in 1..=25_600u64 {
            let think = g.next_item().think_cycles;
            if i % 256 < 64 {
                burst_total += think;
            } else {
                steady_total += think;
            }
        }
        let burst_mean = burst_total as f64 / (25_600.0 * 64.0 / 256.0);
        let steady_mean = steady_total as f64 / (25_600.0 * 192.0 / 256.0);
        assert!(
            burst_mean < steady_mean / 4.0,
            "burst mean {burst_mean:.2} vs steady {steady_mean:.2}"
        );
    }

    #[test]
    fn open_loop_stream_is_deterministic_and_in_bounds() {
        let profile = crate::ArrivalProfile::parse("poisson:50,keys=512,theta=0.9").unwrap();
        let spec = WorkloadSpec::OpenLoop(profile);
        let mut a = gen_for(spec.clone(), 1, 8, 33);
        let mut b = gen_for(spec, 1, 8, 33);
        for _ in 0..2000 {
            let item = a.next_item();
            assert_eq!(item, b.next_item());
            assert!(item.addr.raw() < 512, "key within keyspace");
            assert!(item.think_cycles >= 1, "gaps are positive");
        }
    }

    #[test]
    fn open_loop_gaps_track_the_offered_rate() {
        let fast = crate::ArrivalProfile::parse("poisson:10").unwrap();
        let slow = crate::ArrivalProfile::parse("poisson:100").unwrap();
        let total = |p| -> u64 {
            let mut g = gen_for(WorkloadSpec::OpenLoop(p), 0, 4, 9);
            (0..5000).map(|_| g.next_item().think_cycles).sum()
        };
        let (fast_total, slow_total) = (total(fast), total(slow));
        assert!(
            slow_total > 5 * fast_total,
            "period 100 total {slow_total} vs period 10 total {fast_total}"
        );
    }

    #[test]
    fn trace_replay_returns_recorded_items_in_order_then_wraps() {
        use crate::TraceData;
        let mut t = TraceData::empty("unit", 1, 2, 16);
        let items: Vec<WorkItem> = (0..5)
            .map(|i| WorkItem {
                addr: BlockAddr::new(i * 3),
                kind: if i % 2 == 0 {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                },
                think_cycles: i,
            })
            .collect();
        t.streams[1] = items.clone();
        t.streams[0] = vec![items[0]];
        let mut g = gen_for(WorkloadSpec::trace(t), 1, 2, 99);
        for item in &items {
            assert_eq!(g.next_item(), *item);
        }
        assert_eq!(g.next_item(), items[0], "wraps past the recorded end");
    }

    #[test]
    #[should_panic(expected = "recorded on 2 cores")]
    fn trace_replay_rejects_mismatched_node_count() {
        use crate::TraceData;
        let t = TraceData::empty("unit", 1, 2, 16);
        gen_for(WorkloadSpec::trace(t), 0, 4, 99);
    }
}
