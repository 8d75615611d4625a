//! Ablation: the post-deactivation direct-request ignore window
//! (paper §5.2).
//!
//! After deactivating, a PATCH processor keeps ignoring direct requests
//! for one more timeout window so racing direct requests cannot scatter
//! tokens while the home is steering them to the next active requester.
//! This ablation removes the window and measures the extra token churn.
//!
//! `cargo run --release -p patchsim-bench --bin ablation_deact_window [--quick]
//! [--seeds N] [--threads N] [--format {text,csv,json}] [--out PATH]`

use patchsim_bench::{ablation_deact_window_plan, BenchArgs};

fn main() {
    let args = BenchArgs::parse(
        "ablation_deact_window",
        "Ablation: post-deactivation direct-request ignore window (PATCH-All)",
    );
    let table = args
        .run_plan(ablation_deact_window_plan(args.scale.clone()))
        .with_ci_column("runtime", 0, |cell| cell.summary.runtime)
        .with_column("tenure_timeouts", 0, |cell| {
            cell.summary
                .runs
                .iter()
                .map(|r| r.counters.tenure_timeouts)
                .sum::<u64>() as f64
        })
        .with_column("direct_ignored", 0, |cell| {
            cell.summary
                .runs
                .iter()
                .map(|r| r.counters.direct_ignored)
                .sum::<u64>() as f64
        })
        .with_ci_column("bytes_per_miss", 1, |cell| cell.summary.bytes_per_miss)
        .with_note(
            "disabling the window lets racing direct requests scatter tokens the home \
             is steering, inflating tenure timeouts and traffic",
        );
    args.finish(&table);
}
