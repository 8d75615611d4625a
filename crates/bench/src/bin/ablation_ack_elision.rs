//! Ablation: zero-token acknowledgement elision (paper §3 "avoiding
//! unnecessary acknowledgments").
//!
//! PATCH's scalability under inexact encodings comes from token holders
//! being the only responders. Forcing PATCH to send DIRECTORY-style
//! zero-token invalidation acks quantifies exactly how much of Figures
//! 9–10 that single property buys.
//!
//! `cargo run --release -p patchsim-bench --bin ablation_ack_elision [--quick]
//! [--seeds N] [--threads N] [--format {text,csv,json}] [--out PATH]`

use patchsim::TrafficClass;
use patchsim_bench::{ablation_ack_elision_plan, BenchArgs};

fn main() {
    let args = BenchArgs::parse(
        "ablation_ack_elision",
        "Ablation: zero-token ack elision (PATCH, coarse encoding, 2 B/cycle links)",
    );
    let table = args
        .run_plan(ablation_ack_elision_plan(args.scale.clone()))
        .with_ci_column("runtime", 0, |cell| cell.summary.runtime)
        .with_column("ack_bytes_per_miss", 1, |cell| {
            cell.summary.class_mean(TrafficClass::Ack)
        })
        .with_ci_column("bytes_per_miss", 1, |cell| cell.summary.bytes_per_miss)
        .with_note(
            "forcing Directory-style zero-token acks shows how much of the Figure 9/10 \
             advantage comes from tokenless nodes staying silent",
        );
    args.finish(&table);
}
