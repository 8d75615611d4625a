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

/// A system well past anything the checked suites reach elsewhere, with
/// both oracles armed: every delivery is audited against token conservation
/// and every completed access against the coherence invariant, and either
/// panics on a violation. Sized for the debug profile: an audit asks every
/// node about the block, so PATCH-All's cost grows with the cube of the node
/// count: the paper's 512-core maximum (Fig. 8) takes 5.6 s for one
/// operation per core, 256 nodes take 3.2 s for four each. Construction
/// is no longer part of that bill: `System::new` for these 256 nodes cost
/// 93 ms and a 131 MiB resident set in this profile while cache storage was
/// sized by geometry (0.17–0.5 s and 308 MiB at 512 nodes), and costs 12 ms
/// and 12 MiB (40 ms and 21 MiB) now that it follows first touch.
#[test]
fn two_hundred_fifty_six_cores_checked_on_the_mesh() {
    for kind in [ProtocolKind::Patch, ProtocolKind::Directory] {
        let cfg = SimConfig::new(kind, 256)
            .with_predictor(PredictorChoice::All)
            .with_fabric(FabricKind::Mesh2D)
            .with_workload(micro(256))
            .with_ops_per_core(4)
            .with_warmup(0)
            .with_seed(12)
            .with_checks();
        let r = run(&cfg);
        assert_eq!(r.ops_completed, 256 * 4, "{kind}");
        assert!(r.coherence_checks >= 256 * 4, "{kind}: the checker ran");
        if kind == ProtocolKind::Patch {
            assert!(r.token_audits > 0, "the auditor ran");
        }
    }
}
