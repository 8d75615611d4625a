//! Adversarial-order delivery fuzzing.
//!
//! The timing simulator only explores message orderings that some
//! latency assignment can produce. This harness is stronger: it drives
//! the controllers directly and delivers pending messages in *uniformly
//! random* order (seeded), interleaved with eligible timer firings —
//! every interleaving of an unordered network is fair game. `Cluster`
//! runs the production `CoherenceChecker` and `TokenAuditor` after every
//! issue, delivery and timer; each run ends by asserting quiescence.
//!
//! Tier-1 runs 25 seeds per row. The ignored `adversarial_sweep_300_seeds`
//! runs 300 for every row and is meant for a release build: `cargo test
//! --release -p patchsim --test adversarial_delivery -- --include-ignored`.

use patchsim::{
    AccessKind, BlockAddr, CacheGeometry, Cluster, Cycle, NodeId, PredictorChoice, ProtocolKind,
    SimRng,
};
use patchsim_protocol::{MemOp, ProtocolConfig};

const BLOCKS: u64 = 6;
const OPS: u32 = 60;
/// Deliveries and timer firings one cell may take before it counts as a
/// livelock: far above what any cell needs to finish.
const MAX_STEPS: u32 = 200_000;

/// The seeded scheduler: everything else (fan-out, blocking cores, the
/// oracles) is [`Cluster`].
struct Scheduler {
    cluster: Cluster,
    clock: Cycle,
    rng: SimRng,
    ops_left: Vec<u32>,
}

/// Swaps a uniformly drawn entry of `pending` to the end (so that taking
/// it leaves the others in place) and returns its index.
fn draw<T>(rng: &mut SimRng, pending: &mut [T]) -> Option<usize> {
    let last = pending.len().checked_sub(1)?;
    pending.swap(rng.below(pending.len() as u64) as usize, last);
    Some(last)
}

impl Scheduler {
    fn maybe_issue(&mut self) {
        for i in 0..self.ops_left.len() {
            if self.cluster.outstanding[i].is_some() || self.ops_left[i] == 0 {
                continue;
            }
            self.ops_left[i] -= 1;
            let op = MemOp {
                addr: BlockAddr::new(self.rng.below(BLOCKS)),
                kind: if self.rng.chance(0.5) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            };
            self.clock += 1;
            self.cluster.issue(NodeId::new(i as u16), op, self.clock);
        }
    }

    /// Delivers one uniformly random pending message.
    fn deliver_random(&mut self) -> bool {
        let Some(last) = draw(&mut self.rng, &mut self.cluster.in_flight) else {
            return false;
        };
        self.clock += 1;
        self.cluster.deliver(last, self.clock);
        true
    }

    /// Fires one random timer, jumping the clock to its deadline.
    fn fire_random_timer(&mut self) -> bool {
        let Some(last) = draw(&mut self.rng, &mut self.cluster.timers) else {
            return false;
        };
        self.clock = self.clock.max(self.cluster.timers[last].1) + 1;
        self.cluster.fire(last, self.clock);
        true
    }

    fn run(&mut self) {
        let mut idle_rounds = 0;
        for _ in 0..MAX_STEPS {
            self.maybe_issue();
            // Mostly deliver messages; occasionally fire a timer early
            // relative to other traffic (always at/after its deadline).
            let did = if !self.cluster.in_flight.is_empty() && !self.rng.chance(0.1) {
                self.deliver_random()
            } else {
                self.fire_random_timer() || self.deliver_random()
            };
            if did {
                idle_rounds = 0;
                continue;
            }
            if self.cluster.outstanding.iter().all(|o| o.is_none())
                && self.ops_left.iter().all(|&o| o == 0)
            {
                return;
            }
            idle_rounds += 1;
            if idle_rounds >= 10_000 {
                self.dump_stuck();
                panic!("stuck: nothing to deliver but ops outstanding");
            }
        }
        self.dump_stuck();
        panic!("livelock: {MAX_STEPS} steps without finishing");
    }

    fn dump_stuck(&self) {
        for (i, op) in self.cluster.outstanding.iter().enumerate() {
            if let Some(op) = op {
                eprintln!("node {i}: outstanding {op:?}");
            }
        }
        for (dest, msg) in &self.cluster.in_flight {
            eprintln!("in flight to {dest}: {msg:?}");
        }
        for (node, deadline, key) in &self.cluster.timers {
            eprintln!("timer at {node}, due {deadline}: {key:?}");
        }
        for b in 0..BLOCKS {
            let holders = self.cluster.holders(BlockAddr::new(b));
            eprintln!("block {b} holders: {holders}");
        }
    }
}

/// 2 sets x 1 way: with six blocks in play most fills evict, so the
/// writeback paths race the adversarial order too.
fn tiny() -> Option<CacheGeometry> {
    Some(CacheGeometry::new(2, 1))
}

/// `cache`: `None` keeps the paper's geometry, which never evicts here.
fn fuzz(
    kind: ProtocolKind,
    predictor: PredictorChoice,
    cache: Option<CacheGeometry>,
    seeds: std::ops::Range<u64>,
) {
    for seed in seeds {
        for n in [2u16, 3, 4] {
            let mut config = ProtocolConfig::new(kind, n).with_predictor(predictor);
            if let Some(geometry) = cache {
                config = config.with_cache_geometry(geometry);
            }
            // Captured unless the cell fails: the last line names it.
            eprintln!(
                "cell: {kind}/{} {cache:?} n={n} seed={seed}",
                predictor.label()
            );
            let mut h = Scheduler {
                cluster: Cluster::new(&config),
                clock: Cycle::ZERO,
                rng: SimRng::from_seed(seed),
                ops_left: vec![OPS; n as usize],
            };
            h.run();
            assert_eq!(h.cluster.completions.len(), n as usize * OPS as usize);
            h.cluster.assert_quiescent();
        }
    }
}

#[test]
fn adversarial_patch_none() {
    fuzz(ProtocolKind::Patch, PredictorChoice::None, None, 0..25);
}

#[test]
fn adversarial_patch_all() {
    fuzz(ProtocolKind::Patch, PredictorChoice::All, None, 0..25);
}

#[test]
fn adversarial_patch_owner() {
    fuzz(ProtocolKind::Patch, PredictorChoice::Owner, None, 0..25);
}

#[test]
fn adversarial_tokenb() {
    fuzz(ProtocolKind::TokenB, PredictorChoice::None, None, 0..25);
}

#[test]
fn adversarial_directory() {
    fuzz(ProtocolKind::Directory, PredictorChoice::None, None, 0..25);
}

#[test]
fn adversarial_patch_bcast_if_shared() {
    fuzz(
        ProtocolKind::Patch,
        PredictorChoice::BroadcastIfShared,
        None,
        0..25,
    );
}

#[test]
fn adversarial_evictions_patch() {
    fuzz(ProtocolKind::Patch, PredictorChoice::None, tiny(), 0..25);
    fuzz(ProtocolKind::Patch, PredictorChoice::All, tiny(), 0..25);
    fuzz(ProtocolKind::Patch, PredictorChoice::Owner, tiny(), 0..25);
    fuzz(
        ProtocolKind::Patch,
        PredictorChoice::BroadcastIfShared,
        tiny(),
        0..25,
    );
}

#[test]
fn adversarial_evictions_directory() {
    fuzz(
        ProtocolKind::Directory,
        PredictorChoice::None,
        tiny(),
        0..25,
    );
}

#[test]
fn adversarial_evictions_tokenb() {
    fuzz(ProtocolKind::TokenB, PredictorChoice::None, tiny(), 0..25);
}

/// Every row over 300 seeds, with and without evictions.
#[test]
#[ignore = "300-seed sweep, seconds in release: run with --release -- --include-ignored"]
fn adversarial_sweep_300_seeds() {
    for (kind, predictor) in [
        (ProtocolKind::Directory, PredictorChoice::None),
        (ProtocolKind::TokenB, PredictorChoice::None),
        (ProtocolKind::Patch, PredictorChoice::None),
        (ProtocolKind::Patch, PredictorChoice::All),
        (ProtocolKind::Patch, PredictorChoice::Owner),
        (ProtocolKind::Patch, PredictorChoice::BroadcastIfShared),
    ] {
        for cache in [None, tiny()] {
            fuzz(kind, predictor, cache, 0..300);
        }
    }
}
