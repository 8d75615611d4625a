//! Criterion microbenchmarks of the simulator's core data structures:
//! the substrate costs that bound how large a system `patchsim` can
//! simulate in reasonable wall-clock time.

use patchsim::{Cycle, NodeId};
use patchsim_bench::harness::{BatchSize, Criterion};
use patchsim_bench::{criterion_group, criterion_main};
use patchsim_kernel::{EventQueue, SimRng};
use patchsim_mem::{BlockAddr, CacheArray, CacheGeometry, SharerEncoding, SharerSet};
use patchsim_noc::{
    DestSet, Fabric, FabricConfig, FabricKind, NocEvent, NocPayload, Priority, TrafficClass,
};
use patchsim_predictor::{BroadcastIfSharedPredictor, Predictor};

#[derive(Clone)]
struct Payload;
impl NocPayload for Payload {
    fn size_bytes(&self) -> u64 {
        72
    }
    fn traffic_class(&self) -> TrafficClass {
        TrafficClass::Data
    }
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("kernel/event_queue_push_pop_1k", |b| {
        b.iter_batched(
            EventQueue::<u32>::new,
            |mut q| {
                for i in 0..1000u32 {
                    q.push(Cycle::new((i as u64 * 37) % 512), i);
                }
                let mut sum = 0u64;
                while let Some((_, v)) = q.pop() {
                    sum += v as u64;
                }
                sum
            },
            BatchSize::SmallInput,
        )
    });
}

/// The queue as `mesh128_scale` drives it, which `push_pop_1k`'s handful
/// of hot buckets cannot show: payloads the size of `System`'s `Event`,
/// ~1256 events pending, schedule distances of 1..64 cycles, and now and
/// then 300 events for one cycle. One iteration moves simulated time eight
/// times round the wheel, so every slot's storage is revisited after the
/// whole working set has gone by.
fn bench_event_queue_sweep(c: &mut Criterion) {
    const PENDING: usize = 1256;
    let mut rng = SimRng::from_seed(15);
    let mut q = EventQueue::<[u64; 4]>::with_capacity(2048);
    for i in 0..PENDING as u64 {
        q.push(Cycle::new(1 + rng.below(63)), [i; 4]);
    }
    c.bench_function("kernel/wheel_sweep_1k_slots_bursty", |b| {
        b.iter(|| {
            let until = q.now() + 8 * 1024;
            let mut sum = 0u64;
            while q.now() < until {
                let (now, ev) = q.pop().expect("refilled below");
                sum += ev[0];
                // After a burst, pops alone bring the backlog back down.
                if q.len() < PENDING {
                    let copies = if rng.below(4096) == 0 { 300 } else { 1 };
                    let at = now + 1 + rng.below(63);
                    for _ in 0..copies {
                        q.push(at, ev);
                    }
                }
            }
            sum
        })
    });
}

fn bench_torus(c: &mut Criterion) {
    c.bench_function("noc/unicast_64node_torus", |b| {
        b.iter_batched(
            || Fabric::<Payload>::new(FabricConfig::new(FabricKind::Torus, 64)),
            |mut net| {
                let mut q: EventQueue<NocEvent<Payload>> = EventQueue::new();
                for i in 0..64u16 {
                    net.send(
                        Cycle::ZERO,
                        NodeId::new(i),
                        DestSet::single(64, NodeId::new((i + 13) % 64)),
                        Priority::Normal,
                        Payload,
                        &mut |at, ev| q.push(at, ev),
                    );
                }
                let mut delivered = 0u32;
                while let Some((now, ev)) = q.pop() {
                    let mut buf = Vec::new();
                    net.handle(now, ev, &mut |at, e| buf.push((at, e)), &mut |_, _| {
                        delivered += 1
                    });
                    for (at, e) in buf {
                        q.push(at, e);
                    }
                }
                delivered
            },
            BatchSize::SmallInput,
        )
    });
}

/// A broadcast direct request's shape, node 0 to every other node, carried
/// through the fabric to its last delivery: the fan-out at every router of
/// the tree is what it measures. 64 nodes fit one `DestSet` word, 128 two
/// (inline), 512 spill to the heap.
fn bench_broadcast(c: &mut Criterion) {
    for (name, kind, n) in [
        ("noc/broadcast_64node_torus", FabricKind::Torus, 64),
        ("noc/broadcast_128node_mesh", FabricKind::Mesh2D, 128),
        ("noc/broadcast_512node_torus", FabricKind::Torus, 512),
    ] {
        c.bench_function(name, |b| {
            b.iter_batched(
                || Fabric::<Payload>::new(FabricConfig::new(kind, n)),
                |mut net| {
                    let mut q: EventQueue<NocEvent<Payload>> = EventQueue::new();
                    net.send(
                        Cycle::ZERO,
                        NodeId::new(0),
                        DestSet::all_except(n, NodeId::new(0)),
                        Priority::Normal,
                        Payload,
                        &mut |at, ev| q.push(at, ev),
                    );
                    let mut delivered = 0u32;
                    while let Some((now, ev)) = q.pop() {
                        let mut buf = Vec::new();
                        net.handle(now, ev, &mut |at, e| buf.push((at, e)), &mut |_, _| {
                            delivered += 1
                        });
                        for (at, e) in buf {
                            q.push(at, e);
                        }
                    }
                    delivered
                },
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("mem/cache_fill_and_probe_4k_blocks", |b| {
        b.iter_batched(
            || CacheArray::<u64>::new(CacheGeometry::new(1024, 4)),
            |mut cache| {
                for i in 0..4096u64 {
                    cache.insert(BlockAddr::new(i * 7), i);
                }
                let mut hits = 0u32;
                for i in 0..4096u64 {
                    if cache.get_mut(BlockAddr::new(i * 7)).is_some() {
                        hits += 1;
                    }
                }
                hits
            },
            BatchSize::SmallInput,
        )
    });
}

/// The paper's private cache: 1 MB, 4-way, 64-byte blocks — 16k lines.
fn paper_geometry() -> CacheGeometry {
    CacheGeometry::from_capacity(1 << 20, 64, 4)
}

/// What a node's cache sees inside a run, which the warm single-array
/// benchmark above cannot: probes for blocks it does not hold, spread over
/// as many arrays as there are nodes, so each probe finds its set cold in
/// the host's caches. 16 paper-geometry arrays (16k lines), ~256 resident
/// blocks each; one iteration probes 256 absent blocks in every array,
/// round-robin.
fn bench_cache_cold(c: &mut Criterion) {
    let mut rng = SimRng::from_seed(14);
    let mut caches: Vec<CacheArray<u64>> =
        (0..16).map(|_| CacheArray::new(paper_geometry())).collect();
    for cache in &mut caches {
        for i in 0..256 {
            // Resident blocks are even, probed ones odd.
            let addr = BlockAddr::new(rng.below(1 << 30) * 2);
            if !cache.contains(addr) {
                cache.insert(addr, i);
            }
        }
    }
    c.bench_function("mem/cache_probe_absent_cold_16x16k", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for _ in 0..256 {
                for cache in &mut caches {
                    let addr = BlockAddr::new(rng.below(1 << 30) * 2 + 1);
                    hits += cache.get_mut(addr).is_some() as u32;
                }
            }
            hits
        })
    });
}

/// The other half of the same pattern: probes that hit. Same 16 arrays
/// and ~256 resident blocks each; one iteration looks up 256 resident
/// blocks in every array, round-robin, so each hit walks from the set's
/// occupancy bit to its payload through host lines that went cold since
/// the array was last visited.
fn bench_cache_hit_cold(c: &mut Criterion) {
    let mut rng = SimRng::from_seed(21);
    let mut caches: Vec<CacheArray<u64>> =
        (0..16).map(|_| CacheArray::new(paper_geometry())).collect();
    let resident: Vec<Vec<BlockAddr>> = caches
        .iter_mut()
        .map(|cache| {
            let mut blocks = Vec::new();
            while blocks.len() < 256 {
                let addr = BlockAddr::new(rng.below(1 << 30));
                // A block that evicted an earlier one would leave a miss behind.
                if cache.victim_for(addr).is_none() && !cache.contains(addr) {
                    cache.insert(addr, 0);
                    blocks.push(addr);
                }
            }
            blocks
        })
        .collect();
    c.bench_function("mem/cache_hit_cold_16x16k", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for _ in 0..256 {
                for (cache, blocks) in caches.iter_mut().zip(&resident) {
                    let addr = blocks[rng.below(256) as usize];
                    if let Some(payload) = cache.get_mut(addr) {
                        *payload += 1;
                        hits += 1;
                    }
                }
            }
            assert_eq!(hits, 256 * 16);
            hits
        })
    });
}

/// The microbenchmark's invalidate/refill churn (§8: a uniform 16k-block
/// table, 30% writes) on 16 paper-geometry arrays. An access fills its
/// block at a random node if absent; a write first removes the block from
/// the other 15 arrays, as collecting all T tokens does, so sets keep
/// emptying and filling again. After a warm-up to steady state, one
/// iteration is 256 accesses.
fn bench_cache_invalidate_refill(c: &mut Criterion) {
    const BLOCKS: u64 = 16 * 1024;
    let mut rng = SimRng::from_seed(31);
    let mut caches: Vec<CacheArray<u64>> =
        (0..16).map(|_| CacheArray::new(paper_geometry())).collect();
    let mut access = move |caches: &mut [CacheArray<u64>]| {
        let node = rng.below(16) as usize;
        let addr = BlockAddr::new(rng.below(BLOCKS));
        if rng.chance(0.3) {
            for (other, cache) in caches.iter_mut().enumerate() {
                if other != node {
                    cache.remove(addr);
                }
            }
        }
        match caches[node].get_mut(addr) {
            Some(payload) => *payload += 1,
            None => assert!(caches[node].insert(addr, 0).is_none()),
        }
    };
    for _ in 0..64 * 1024 {
        access(&mut caches);
    }
    c.bench_function("mem/cache_invalidate_refill_16x16k", |b| {
        b.iter(|| {
            for _ in 0..256 {
                access(&mut caches);
            }
        })
    });
}

/// What constructing a large system costs per node: 128 paper-geometry
/// arrays, each built and then given the 150 distinct sets a node of
/// `mesh128_scale` fills in a pass.
fn bench_cache_new(c: &mut Criterion) {
    let mut rng = SimRng::from_seed(21);
    let geometry = paper_geometry();
    c.bench_function("mem/cache_new_128x16k", |b| {
        b.iter(|| {
            let caches: Vec<CacheArray<u64>> = (0..128)
                .map(|_| {
                    let mut cache = CacheArray::new(geometry);
                    let first = rng.below(1 << 30);
                    for i in 0..150 {
                        cache.insert(BlockAddr::new(first + i * 27), i);
                    }
                    cache
                })
                .collect();
            caches
        })
    });
}

/// The predictor's share of the same pattern at 128 nodes: every delivered
/// request trains the receiving node's table. 128 paper-geometry tables
/// (8k entries); one iteration trains each table on 32 requests,
/// round-robin, over a block range four times a table's reach.
fn bench_predictor_cold(c: &mut Criterion) {
    let mut rng = SimRng::from_seed(14);
    let mut predictors: Vec<_> = (0..128)
        .map(|_| BroadcastIfSharedPredictor::new(128))
        .collect();
    c.bench_function("predictor/observe_cold_128x8k", |b| {
        b.iter(|| {
            for _ in 0..32 {
                for predictor in &mut predictors {
                    let addr = BlockAddr::new(rng.below(4 * 8192 * 16));
                    predictor.observe_request(addr, NodeId::new(rng.below(128) as u16));
                }
            }
        })
    });
}

fn bench_sharers(c: &mut Criterion) {
    c.bench_function("mem/sharer_set_coarse_decode_256", |b| {
        let mut set = SharerSet::new(256, SharerEncoding::Coarse { cores_per_bit: 16 });
        for i in (0..256).step_by(5) {
            set.insert(NodeId::new(i));
        }
        b.iter(|| set.members().len())
    });
}

fn bench_dest_set(c: &mut Criterion) {
    c.bench_function("noc/dest_set_iterate_512", |b| {
        let set = DestSet::all_except(512, NodeId::new(0));
        b.iter(|| set.iter().map(|n| n.index()).sum::<usize>())
    });
}

criterion_group!(
    simulator,
    bench_event_queue,
    bench_event_queue_sweep,
    bench_torus,
    bench_broadcast,
    bench_cache,
    bench_cache_cold,
    bench_cache_hit_cold,
    bench_cache_invalidate_refill,
    bench_cache_new,
    bench_predictor_cold,
    bench_sharers,
    bench_dest_set
);
criterion_main!(simulator);
