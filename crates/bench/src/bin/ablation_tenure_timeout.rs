//! Ablation: the token-tenure timeout policy (paper §4).
//!
//! The paper sets the tenure timeout adaptively to twice the dynamic
//! average round-trip. This ablation compares that policy against fixed
//! timeouts: too short and requesters discard tokens they were about to
//! get to keep (wasted writebacks and refetches); too long and racing
//! tokens sit idle before funneling to the active requester.
//!
//! `cargo run --release -p patchsim-bench --bin ablation_tenure_timeout [--quick]
//! [--seeds N] [--threads N] [--format {text,csv,json}] [--out PATH]`

use patchsim_bench::{ablation_tenure_timeout_plan, BenchArgs};

fn main() {
    let args = BenchArgs::parse(
        "ablation_tenure_timeout",
        "Ablation: tenure timeout policy (PATCH-All, contended microbenchmark)",
    );
    let table = args
        .run_plan(ablation_tenure_timeout_plan(args.scale.clone()))
        .with_ci_column("runtime", 0, |cell| cell.summary.runtime)
        .with_column("tenure_timeouts", 0, |cell| {
            cell.summary
                .runs
                .iter()
                .map(|r| r.counters.tenure_timeouts)
                .sum::<u64>() as f64
        })
        .with_column("writebacks", 0, |cell| {
            cell.summary
                .runs
                .iter()
                .map(|r| r.counters.writebacks)
                .sum::<u64>() as f64
        })
        .with_note(
            "too-short fixed timeouts waste writebacks and refetches; too-long timeouts \
             idle racing tokens — the paper's adaptive 2x round-trip balances both",
        );
    args.finish(&table);
}
