//! Criterion benches covering every figure's code path at reduced scale.
//!
//! These measure simulator wall-clock for one representative configuration
//! per paper figure, built through the same experiment-plan constructors
//! `runplan <plan>` uses (the figure *data* itself comes from `runplan`
//! and `fig4_runtime`). Cells are benchmarked individually, so each bench exercises
//! the plan's full config-assembly machinery plus one simulation.

use patchsim::exp::Sweep;
use patchsim::{presets, run, LinkBandwidth, ProtocolKind, SimConfig, WorkloadSpec};
use patchsim_bench::harness::Criterion;
use patchsim_bench::{
    adaptivity_protocol_axis, bandwidth_plan, coarseness_value, criterion_group, criterion_main,
    figure4_plan, inexact_protocol_axis, Scale,
};

fn tiny() -> Scale {
    Scale {
        cores: 8,
        ops: 120,
        warmup: 20,
        ..Scale::quick()
    }
}

fn bench_fig4(c: &mut Criterion) {
    let plan = figure4_plan(tiny());
    let mut group = c.benchmark_group("fig4_runtime");
    group.sample_size(10);
    for cell in plan.cells().iter().filter(|c| c.labels[0] == "oltp") {
        group.bench_function(&cell.labels[1], |b| b.iter(|| run(&cell.config)));
    }
    group.finish();
}

fn bench_fig5(c: &mut Criterion) {
    // Figure 5 uses the same runs as Figure 4 but reads the traffic
    // breakdown; bench the accounting-heavy config.
    let plan = figure4_plan(tiny());
    let mut group = c.benchmark_group("fig5_traffic");
    group.sample_size(10);
    let cell = plan
        .cells()
        .iter()
        .find(|c| c.labels == ["apache", "PATCH-All"])
        .expect("grid contains apache/PATCH-All");
    group.bench_function("patch_all_traffic_breakdown", |b| {
        b.iter(|| {
            let r = run(&cell.config);
            patchsim::TrafficClass::ALL
                .iter()
                .map(|&cls| r.class_bytes_per_miss(cls))
                .sum::<f64>()
        })
    });
    group.finish();
}

fn bench_fig6_fig7(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_fig7_bandwidth");
    group.sample_size(10);
    for (workload, label) in [(presets::ocean(), "ocean"), (presets::jbb(), "jbb")] {
        // The most contended sweep point: 600 bytes / 1000 cycles.
        let plan = bandwidth_plan(tiny(), workload);
        for cell in plan.cells().iter().filter(|c| c.labels[0] == "600") {
            group.bench_function(format!("{label}/{}", cell.labels[1]), |b| {
                b.iter(|| run(&cell.config))
            });
        }
    }
    group.finish();
}

fn bench_fig8(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_scalability");
    group.sample_size(10);
    // A reduced-operation 16-core slice of the Figure 8 axis.
    let base = SimConfig::new(ProtocolKind::Directory, 16)
        .with_workload(WorkloadSpec::microbenchmark())
        .with_bandwidth(LinkBandwidth::BytesPerCycle(2.0))
        .with_ops_per_core(100)
        .with_warmup(20);
    let plan = Sweep::new("fig8-bench", base)
        .axis("config", adaptivity_protocol_axis())
        .build();
    for cell in plan.cells() {
        group.bench_function(format!("16cores/{}", cell.name()), |b| {
            b.iter(|| run(&cell.config))
        });
    }
    group.finish();
}

fn bench_fig9_fig10(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_fig10_inexact");
    group.sample_size(10);
    let base = SimConfig::new(ProtocolKind::Directory, 16)
        .with_workload(WorkloadSpec::microbenchmark())
        .with_bandwidth(LinkBandwidth::BytesPerCycle(2.0))
        .with_ops_per_core(100)
        .with_warmup(20);
    let plan = Sweep::new("fig9-bench", base)
        .axis("config", inexact_protocol_axis())
        .axis("K", [1u16, 16].into_iter().map(coarseness_value).collect())
        .build();
    for cell in plan.cells() {
        group.bench_function(format!("{}/K{}", cell.labels[0], cell.labels[1]), |b| {
            b.iter(|| run(&cell.config))
        });
    }
    group.finish();
}

criterion_group!(
    figures,
    bench_fig4,
    bench_fig5,
    bench_fig6_fig7,
    bench_fig8,
    bench_fig9_fig10
);
criterion_main!(figures);
