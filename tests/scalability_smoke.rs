//! Larger-system smoke tests (checks off, like the paper's measured
//! configurations, except the last) plus the qualitative scalability claims
//! of §8.5.

use patchsim::{
    run, FabricKind, LinkBandwidth, PredictorChoice, ProtocolKind, SharerEncoding, SimConfig,
    TrafficClass, WorkloadSpec,
};
use patchsim_protocol::ProtocolConfig;

fn micro(n: u16) -> WorkloadSpec {
    let _ = n;
    WorkloadSpec::Microbenchmark {
        table_blocks: 16 * 1024,
        write_frac: 0.3,
        think_mean: 10,
    }
}

#[test]
fn sixty_four_cores_all_protocols() {
    for kind in [
        ProtocolKind::Directory,
        ProtocolKind::Patch,
        ProtocolKind::TokenB,
    ] {
        let cfg = SimConfig::new(kind, 64)
            .with_predictor(PredictorChoice::All)
            .with_workload(micro(64))
            .with_ops_per_core(150)
            .with_seed(2);
        let r = run(&cfg);
        assert_eq!(r.ops_completed, 64 * 150, "{kind}");
    }
}

#[test]
fn patch_acks_scale_better_than_directory_under_coarse_encoding() {
    // §8.5: with a coarse sharer vector, DIRECTORY's invalidation acks
    // come from every implicated core; PATCH hears only from token
    // holders.
    let n = 64;
    let coarse = SharerEncoding::Coarse { cores_per_bit: 16 };
    let mut acks = Vec::new();
    for kind in [ProtocolKind::Directory, ProtocolKind::Patch] {
        let protocol = ProtocolConfig::new(kind, n).with_sharer_encoding(coarse);
        let cfg = SimConfig::new(kind, n)
            .with_protocol(protocol)
            .with_workload(micro(n))
            .with_ops_per_core(150)
            .with_seed(4);
        let r = run(&cfg);
        acks.push(r.class_bytes_per_miss(TrafficClass::Ack));
    }
    let (dir_acks, patch_acks) = (acks[0], acks[1]);
    assert!(
        patch_acks < dir_acks / 2.0,
        "PATCH ack traffic ({patch_acks:.1} B/miss) should be far below \
         DIRECTORY's ({dir_acks:.1} B/miss) under coarse encoding"
    );
}

#[test]
fn directory_acks_grow_with_coarseness_patch_flat() {
    let n = 64;
    let mut dir_growth = Vec::new();
    let mut patch_growth = Vec::new();
    for k in [1u16, 64] {
        let encoding = if k == 1 {
            SharerEncoding::FullMap
        } else {
            SharerEncoding::Coarse { cores_per_bit: k }
        };
        for (kind, out) in [
            (ProtocolKind::Directory, &mut dir_growth),
            (ProtocolKind::Patch, &mut patch_growth),
        ] {
            let protocol = ProtocolConfig::new(kind, n).with_sharer_encoding(encoding);
            let cfg = SimConfig::new(kind, n)
                .with_protocol(protocol)
                .with_workload(micro(n))
                .with_ops_per_core(120)
                .with_seed(6);
            let r = run(&cfg);
            out.push(r.class_bytes_per_miss(TrafficClass::Ack));
        }
    }
    let dir_ratio = dir_growth[1] / dir_growth[0].max(1e-9);
    let patch_delta = patch_growth[1] - patch_growth[0];
    assert!(
        dir_ratio > 2.0,
        "DIRECTORY acks should blow up with a single-bit encoding (x{dir_ratio:.1})"
    );
    assert!(
        patch_delta.abs() < 8.0,
        "PATCH ack traffic should stay nearly flat (delta {patch_delta:.1} B/miss)"
    );
}

#[test]
fn best_effort_keeps_patch_at_directory_speed_under_narrow_links() {
    // §8.4: with narrow links, non-adaptive broadcast collapses while
    // best-effort PATCH-All stays at (or better than) DIRECTORY.
    let n = 32;
    let bw = LinkBandwidth::BytesPerCycle(0.5);
    let run_kind = |kind: ProtocolKind, non_adaptive: bool| {
        let mut protocol = ProtocolConfig::new(kind, n).with_predictor(PredictorChoice::All);
        if non_adaptive {
            protocol = protocol.non_adaptive();
        }
        let cfg = SimConfig::new(kind, n)
            .with_protocol(protocol)
            .with_bandwidth(bw)
            .with_workload(micro(n))
            .with_ops_per_core(120)
            .with_seed(8);
        run(&cfg)
    };
    let dir = run_kind(ProtocolKind::Directory, false);
    let adaptive = run_kind(ProtocolKind::Patch, false);
    let non_adaptive = run_kind(ProtocolKind::Patch, true);
    let adaptive_ratio = adaptive.runtime_cycles as f64 / dir.runtime_cycles as f64;
    let na_ratio = non_adaptive.runtime_cycles as f64 / dir.runtime_cycles as f64;
    assert!(
        adaptive_ratio < 1.15,
        "adaptive PATCH-All should stay near DIRECTORY (ratio {adaptive_ratio:.2})"
    );
    assert!(
        na_ratio > adaptive_ratio,
        "non-adaptive ({na_ratio:.2}) should be slower than adaptive ({adaptive_ratio:.2})"
    );
    assert!(
        adaptive.traffic.dropped_packets() > 0,
        "adaptivity visibly dropped stale hints"
    );
}

#[test]
fn hundred_twenty_eight_cores_smoke() {
    let cfg = SimConfig::new(ProtocolKind::Patch, 128)
        .with_predictor(PredictorChoice::All)
        .with_workload(micro(128))
        .with_ops_per_core(60)
        .with_seed(10);
    let r = run(&cfg);
    assert_eq!(r.ops_completed, 128 * 60);
}

/// The paper's largest system (Fig. 8, 512 cores) with both oracles
/// armed: every delivery, core request and timer is audited against token
/// conservation and every completed access against the coherence
/// invariant, and either panics on a violation. The token audit asks only
/// the node that acted, before and after, so a PATCH-All broadcast costs
/// O(n) rather than O(n²). Measured in the debug profile on one 2-vCPU
/// Xeon VM, four ops per core: 2.9 s at 512 nodes and 0.74–0.86 s at 256.
/// While every delivery asked every node, the same test took 22 s at 512
/// nodes and 3.2–3.3 s at 256, so it stopped at 256. Construction is not
/// part of either bill: `System::new` for 512 nodes costs 40 ms and
/// 21 MiB now that cache storage follows first touch.
#[test]
fn five_hundred_twelve_cores_checked_on_the_mesh() {
    for kind in [ProtocolKind::Patch, ProtocolKind::Directory] {
        let cfg = SimConfig::new(kind, 512)
            .with_predictor(PredictorChoice::All)
            .with_fabric(FabricKind::Mesh2D)
            .with_workload(micro(512))
            .with_ops_per_core(4)
            .with_warmup(0)
            .with_seed(12)
            .with_checks();
        let r = run(&cfg);
        assert_eq!(r.ops_completed, 512 * 4, "{kind}");
        assert!(r.coherence_checks >= 512 * 4, "{kind}: the checker ran");
        if kind == ProtocolKind::Patch {
            assert!(r.token_audits > 0, "the auditor ran");
        }
    }
}
