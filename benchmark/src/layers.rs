//! The traced run of an in-process workload: rounds of (untraced `System`
//! pass, untraced shadow pass, traced shadow pass), the extra passes that
//! price checks and telemetry, and the isolated drivers for the layers
//! that run inside the controllers (mem, predictor) or beside the loop
//! (trace).

use std::time::Instant;

use patchsim::{CheckLevel, ProtocolKind, RunResult, SimConfig, System};
use patchsim_kernel::{streams, SimRng};
use patchsim_mem::CacheArray;
use patchsim_noc::{Fabric, NodeId};
use patchsim_protocol::{build_controller, Msg};
use patchsim_trace::TraceWriter;
use patchsim_workload::WorkItem;

use crate::bracket::{self, Call, Off, Totals, Tracer, SAMPLE_EVERY};
use crate::measure::{failed_ops, ops_attempted, system_pass, timed, Budget, SimStats};
use crate::metrics::{median, ratio, Outcome, Values, PER_LAYER};
use crate::shadow::{self, ShadowRun};
use crate::workloads;

/// Items drawn per node for the isolated drivers.
const STREAM_ITEMS: usize = 4_096;
/// Repetitions whose median an isolated timing reports.
const ISOLATED_REPS: usize = 5;

/// The table's `&'static` spelling of a metric name built at run time.
fn metric(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|&(n, _, _)| n)
        .find(|&n| n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the tables"))
}

fn kind_label(kind: ProtocolKind) -> &'static str {
    match kind {
        ProtocolKind::Directory => "directory",
        ProtocolKind::TokenB => "tokenb",
        ProtocolKind::Patch => "patch",
    }
}

/// Median milliseconds of `f` over [`ISOLATED_REPS`] repetitions.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..ISOLATED_REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Construction cost of each layer's state, summed over the workload's
/// configurations: what `setup_s` is made of.
fn setup_layers(configs: &[SimConfig], v: &mut Values) {
    v.insert(
        "core.system_new_ms",
        median_ms(|| {
            for c in configs {
                std::hint::black_box(System::new(c.clone()));
            }
        }),
    );
    v.insert(
        "noc.fabric_new_ms",
        median_ms(|| {
            for c in configs {
                std::hint::black_box(Fabric::<Msg>::new(c.fabric_config()));
            }
        }),
    );
    v.insert(
        "protocol.build_ms",
        median_ms(|| {
            for c in configs {
                let mut protocol = c.protocol.clone();
                protocol.working_set_hint = Some(c.workload.working_set_blocks(protocol.num_nodes));
                for i in 0..protocol.num_nodes {
                    std::hint::black_box(build_controller(&protocol, NodeId::new(i)));
                }
            }
        }),
    );
}

/// The `torus16_patch` address stream at `seed`: [`STREAM_ITEMS`] items
/// for each of its 16 nodes.
fn address_stream(seed: u64) -> (SimConfig, Vec<Vec<WorkItem>>) {
    let config = workloads::by_name("torus16_patch")
        .map(|w| (w.configs)(seed, false))
        .and_then(|mut c| c.pop())
        .expect("torus16_patch has one configuration");
    let n = config.protocol.num_nodes;
    let root = SimRng::from_seed(seed).fork(streams::WORKLOAD);
    let items = (0..n)
        .map(|i| {
            let mut generator = config.workload.generator(NodeId::new(i), n, root.clone());
            (0..STREAM_ITEMS).map(|_| generator.next_item()).collect()
        })
        .collect();
    (config, items)
}

/// Isolated drivers for mem, predictor and trace over the `torus16_patch`
/// address stream.
fn isolated_drivers(seed: u64, v: &mut Values) {
    let (config, stream) = address_stream(seed);
    let n = config.protocol.num_nodes;
    let items = (stream.len() * STREAM_ITEMS) as f64;

    // mem: one private cache per node, looked up then filled on a miss,
    // as the controllers do.
    let (mut hits, mut accesses) = (0u64, 0u64);
    let cache_ms = median_ms(|| {
        for node in &stream {
            let mut cache: CacheArray<u64> = CacheArray::new(config.protocol.cache_geometry);
            for item in node {
                accesses += 1;
                if cache.get_mut(item.addr).is_some() {
                    hits += 1;
                } else {
                    std::hint::black_box(cache.insert(item.addr, 0));
                }
            }
        }
    });
    v.insert("mem.cache.ns_per_access", cache_ms * 1e6 / items);
    v.insert("mem.cache.hit_ratio", ratio(hits as f64, accesses as f64));

    // predictor: train on a response and a request per item, then predict.
    let mut predictor = config.protocol.predictor.build(n);
    let observe_ms = median_ms(|| {
        for (i, node) in stream.iter().enumerate() {
            for item in node {
                let peer = NodeId::new(((item.addr.raw() + i as u64) % u64::from(n)) as u16);
                predictor.observe_response(item.addr, peer);
                predictor.observe_request(item.addr, peer);
            }
        }
    });
    v.insert(
        "predictor.observe.ns_per_call",
        observe_ms * 1e6 / (2.0 * items),
    );
    let predict_ms = median_ms(|| {
        for (i, node) in stream.iter().enumerate() {
            for item in node {
                std::hint::black_box(predictor.predict(
                    item.addr,
                    item.kind,
                    NodeId::new(i as u16),
                ));
            }
        }
    });
    v.insert("predictor.predict.ns_per_call", predict_ms * 1e6 / items);

    // trace: encode and decode the stream as a `.ptrc` image.
    let mut writer = TraceWriter::new(config.workload.name(), seed, n, 0);
    for (i, node) in stream.iter().enumerate() {
        for &item in node {
            writer.record(NodeId::new(i as u16), item);
        }
    }
    let data = writer.finish();
    let mut bytes = Vec::new();
    let encode_ms = median_ms(|| bytes = patchsim_trace::encode(std::hint::black_box(&data)));
    let decode_ms = median_ms(|| {
        std::hint::black_box(patchsim_trace::decode(&bytes).expect("decoding what encode wrote"));
    });
    v.insert("trace.encode.ns_per_item", encode_ms * 1e6 / items);
    v.insert("trace.decode.ns_per_item", decode_ms * 1e6 / items);
    v.insert("trace.bytes_per_item", bytes.len() as f64 / items);
}

/// Wall seconds of one untraced `System` pass over `configs`, or `None`
/// if it panicked.
fn system_wall(configs: &[SimConfig]) -> Option<f64> {
    system_pass(configs).map(|(wall, _)| wall)
}

/// What the traced run hands back besides its outcome: the first round's
/// tracers, one per configuration, holding the raw spans.
pub struct Traced {
    /// The outcome.
    pub outcome: Outcome,
    /// `(protocol label, tracer)` per configuration.
    pub tracers: Vec<(&'static str, Tracer)>,
}

/// The traced run of an in-process workload.
pub fn traced(
    workload: &str,
    configs: &[SimConfig],
    seed: u64,
    budget: Budget,
    notes: &mut Vec<String>,
) -> Traced {
    let start = Instant::now();
    let mut v = Values::new();
    let cal = bracket::calibrate();
    v.insert("bracket.sample_every", f64::from(SAMPLE_EVERY));
    v.insert("bracket.clock_ns", cal.inner_ns);
    v.insert("bracket.cost_ns", cal.inner_ns + cal.outer_ns);
    setup_layers(configs, &mut v);
    isolated_drivers(seed, &mut v);

    let ops = ops_attempted(configs);
    let (mut attempted, mut failed) = (0, 0);
    let mut expected: Option<SimStats> = None;
    let mut first_results: Vec<RunResult> = Vec::new();
    let mut busy_cycles = 0;
    let (mut sys_walls, mut shadow_walls, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    // Timings of every round, per configuration; spans of the first.
    let mut merged: Vec<Totals> = configs.iter().map(|_| Totals::default()).collect();
    let mut first_tracers: Vec<(&'static str, Tracer)> = Vec::new();
    let mut rounds = 0u64;
    loop {
        // Untraced `System`: the reference statistics and the wall that
        // the shadow loop is compared against. Then the shadow loop,
        // untraced and traced: both must reproduce them.
        let sys = system_pass(configs);
        let plain = timed(|| split(configs.iter().map(|c| shadow::run(c, &mut Off))));
        let mut tracers: Vec<Tracer> = configs.iter().map(|_| Tracer::new(cal)).collect();
        let traced = timed(|| {
            split(
                configs
                    .iter()
                    .zip(&mut tracers)
                    .map(|(c, t)| shadow::run(c, t)),
            )
        });
        if expected.is_none() {
            expected = sys.as_ref().map(|(_, r)| SimStats::of(r));
        }
        attempted += 3 * ops;
        failed += failed_ops(
            configs,
            sys.as_ref().map(|(_, r)| &r[..]),
            expected.as_ref(),
        ) + failed_ops(
            configs,
            plain.as_ref().map(|(_, r)| &r.0[..]),
            expected.as_ref(),
        ) + failed_ops(
            configs,
            traced.as_ref().map(|(_, r)| &r.0[..]),
            expected.as_ref(),
        );
        if let Some((wall, results)) = sys {
            sys_walls.push(wall);
            if first_results.is_empty() {
                first_results = results;
            }
        }
        if let Some((wall, (_, busy))) = plain {
            shadow_walls.push(wall);
            busy_cycles = busy;
        }
        if let Some((wall, _)) = traced {
            traced_walls.push(wall);
            for (m, t) in merged.iter_mut().zip(&tracers) {
                m.merge(t.totals());
            }
            rounds += 1;
            if first_tracers.is_empty() {
                first_tracers = configs
                    .iter()
                    .map(|c| kind_label(c.protocol.kind))
                    .zip(tracers)
                    .collect();
            }
        }
        if start.elapsed().as_secs_f64() >= budget.seconds {
            break;
        }
    }

    let sys_wall = if sys_walls.is_empty() {
        0.0
    } else {
        median(&sys_walls)
    };
    let complete = rounds > 0 && !shadow_walls.is_empty() && expected.is_some();
    if complete {
        let shadow_wall = median(&shadow_walls);
        v.insert(
            "core.system_over_shadow_ratio",
            ratio(sys_wall, shadow_wall),
        );
        v.insert(
            "bracket.overhead_ratio",
            ratio(median(&traced_walls), shadow_wall),
        );
        layer_values(configs, &merged, rounds, shadow_wall, &mut v, notes);
        run_values(&first_results, busy_cycles, sys_wall, &mut v);
    }
    if let Some(sim) = &expected {
        sim.insert_into(&mut v);
        notes.extend(sim.lines());
    }

    // What the checkers cost: the same configurations with checks off.
    if configs.iter().any(|c| c.check == CheckLevel::Assert) {
        let unchecked: Vec<SimConfig> = configs
            .iter()
            .cloned()
            .map(|mut c| {
                c.check = CheckLevel::Off;
                c
            })
            .collect();
        if let Some(wall) = system_wall(&unchecked) {
            v.insert("core.checks.overhead_ratio", ratio(sys_wall, wall));
        }
    }
    // ROADMAP item 5's telemetry budgets, on the continuity workload.
    if workload == "torus16_patch" {
        let with = |f: fn(SimConfig) -> SimConfig| -> Vec<SimConfig> {
            configs.iter().cloned().map(f).collect()
        };
        if let Some(wall) = system_wall(&with(SimConfig::with_spans)) {
            v.insert("core.telemetry.spans_overhead_ratio", ratio(wall, sys_wall));
        }
        if let Some(wall) = system_wall(&with(SimConfig::with_profile)) {
            v.insert(
                "core.telemetry.profile_overhead_ratio",
                ratio(wall, sys_wall),
            );
        }
    }

    notes.push(format!(
        "traced rounds = {rounds}; a round is one System pass, one untraced and one traced \
         shadow pass"
    ));
    Traced {
        outcome: Outcome {
            correct: complete && failed == 0,
            attempted,
            failed,
            values: v,
        },
        tracers: first_tracers,
    }
}

/// The results of a shadow pass, and its fabric busy cycles summed.
fn split(runs: impl Iterator<Item = ShadowRun>) -> (Vec<RunResult>, u64) {
    let mut busy_cycles = 0;
    let results = runs
        .map(|run| {
            busy_cycles += run.noc_busy_cycles;
            run.result
        })
        .collect();
    (results, busy_cycles)
}

/// The per-layer values read off the tracers (`rounds` rounds merged, one
/// tracer per configuration); `shadow_wall` is the untraced shadow pass.
fn layer_values(
    configs: &[SimConfig],
    merged: &[Totals],
    rounds: u64,
    shadow_wall: f64,
    v: &mut Values,
    notes: &mut Vec<String>,
) {
    let mut total = Totals::default();
    for t in merged {
        total.merge(t);
    }
    notes.extend(total.lines());
    // Calls are the same in every round; report those of one pass.
    let calls = |t: &Totals, c: Call| (t.calls(c) / rounds) as f64;
    // A layer's share is its self time in the timed events, scaled up to
    // all events of a pass, over the wall of the *untraced* shadow pass.
    // What no bracket accounts for (dispatch, outbox draining, the
    // checkers, construction) is glue; the five shares sum to 1.
    let scale = ratio(calls(&total, Call::KernelPop), total.events_timed as f64);
    let mut glue = 1.0;
    for layer in ["kernel", "noc", "protocol", "workload"] {
        let share = ratio(total.layer_ns(layer) * scale * 1e-9, shadow_wall);
        glue -= share;
        v.insert(metric(&format!("{layer}.share")), share);
    }
    v.insert("core.glue.share", glue);
    for call in [
        Call::KernelPush,
        Call::KernelPop,
        Call::NocSend,
        Call::NocHandle,
        Call::NextItem,
    ] {
        let prefix = format!("{}.{}", call.layer(), call.name());
        v.insert(metric(&format!("{prefix}.calls")), calls(&total, call));
        v.insert(
            metric(&format!("{prefix}.ns_per_call")),
            total.agg(call).ns_per_call(),
        );
    }
    for (config, tracer) in configs.iter().zip(merged) {
        let kind = kind_label(config.protocol.kind);
        for call in [Call::CoreRequest, Call::HandleMessage, Call::TimerFired] {
            let prefix = format!("protocol.{kind}.{}", call.name());
            v.insert(metric(&format!("{prefix}.calls")), calls(tracer, call));
            v.insert(
                metric(&format!("{prefix}.ns_per_call")),
                tracer.agg(call).ns_per_call(),
            );
        }
    }
    v.insert(
        "core.auditor.ns_per_call",
        total.agg(Call::Auditor).ns_per_call(),
    );
    v.insert(
        "core.checker.ns_per_call",
        total.agg(Call::Checker).ns_per_call(),
    );
    v.insert("kernel.queue_len_max", total.queue_len_max as f64);
    let sends = calls(&total, Call::NocSend);
    v.insert(
        "noc.handles_per_send",
        ratio(calls(&total, Call::NocHandle), sends),
    );
    v.insert(
        "noc.deliveries_per_send",
        ratio(calls(&total, Call::HandleMessage), sends),
    );
}

/// The per-layer values read off the `RunResult`s of one pass.
fn run_values(results: &[RunResult], busy_cycles: u64, sys_wall: f64, v: &mut Values) {
    let sum = |f: fn(&RunResult) -> u64| results.iter().map(f).sum::<u64>() as f64;
    let misses = sum(|r| r.counters.misses);
    let hits = sum(|r| r.counters.hits);
    v.insert(
        "kernel.events_per_s",
        ratio(sum(|r| r.events_processed), sys_wall),
    );
    v.insert("noc.dropped_packets", sum(|r| r.traffic.dropped_packets()));
    v.insert("noc.busy_cycles", busy_cycles as f64);
    v.insert("protocol.hit_ratio", ratio(hits, hits + misses));
    v.insert(
        "protocol.msgs_per_miss",
        ratio(v.get("noc.send.calls").copied().unwrap_or(0.0), misses),
    );
    let patch = |f: fn(&RunResult) -> u64| -> f64 {
        results
            .iter()
            .filter(|r| r.protocol == "PATCH")
            .map(f)
            .sum::<u64>() as f64
    };
    v.insert(
        "protocol.patch.direct_useful_ratio",
        ratio(
            patch(|r| r.counters.satisfied_before_activation),
            patch(|r| r.counters.misses),
        ),
    );
    v.insert(
        "protocol.patch.direct_ignored_ratio",
        ratio(
            patch(|r| r.counters.direct_ignored),
            patch(|r| r.counters.direct_ignored + r.counters.direct_responses),
        ),
    );
    v.insert(
        "protocol.patch.tenure_timeouts",
        sum(|r| r.counters.tenure_timeouts),
    );
    v.insert("protocol.tokenb.reissues", sum(|r| r.counters.reissues));
    v.insert(
        "protocol.tokenb.persistent_requests",
        sum(|r| r.counters.persistent_requests),
    );
    v.insert("core.token_audits", sum(|r| r.token_audits));
    v.insert("core.coherence_checks", sum(|r| r.coherence_checks));
}
