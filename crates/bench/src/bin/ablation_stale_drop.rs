//! Ablation: the best-effort staleness bound (paper §8.1 uses 100
//! cycles).
//!
//! A direct request queued behind congestion for long enough is useless —
//! its miss has probably been served through the directory already — and
//! merely burns bandwidth when finally transmitted. This ablation sweeps
//! the drop threshold under constrained bandwidth.
//!
//! `cargo run --release -p patchsim-bench --bin ablation_stale_drop [--quick]
//! [--seeds N] [--threads N] [--format {text,csv,json}] [--out PATH]`

use patchsim_bench::{ablation_stale_drop_plan, BenchArgs};

fn main() {
    let args = BenchArgs::parse(
        "ablation_stale_drop",
        "Ablation: best-effort stale-drop threshold (PATCH-All, 1 B/cycle links)",
    );
    let table = args
        .run_plan(ablation_stale_drop_plan(args.scale.clone()))
        .with_ci_column("runtime", 0, |cell| cell.summary.runtime)
        .with_column("drops", 0, |cell| cell.summary.dropped_packets)
        .with_ci_column("bytes_per_miss", 1, |cell| cell.summary.bytes_per_miss)
        .with_note(
            "the paper uses a 100-cycle staleness bound: drop too early and useful \
             predictions are lost; too late and stale requests burn scarce bandwidth",
        );
    args.finish(&table);
}
