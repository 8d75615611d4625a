//! Figure 4: normalized runtime of the six protocol configurations on the
//! five workloads (64 cores, bandwidth-rich 16 B/cycle links).
//!
//! The paper's headline shape: PATCH-None ≈ DIRECTORY; PATCH-All ≈ TokenB
//! and ~14% faster than DIRECTORY on average (22% oltp, 19% apache);
//! PATCH-Owner roughly halves PATCH-All's speedup; BcastIfShared lands
//! within a few percent of PATCH-All.
//!
//! Every other figure is a `runplan <plan>` row that carries its own
//! columns. Figure 4 keeps this binary because `runplan fig4` prints the
//! standard columns instead: the repository benchmark compares
//! `runplan fig4`'s CSV byte for byte with `with_standard_columns`, so
//! the `fig4` registry row cannot take Figure 4's normalized column
//! until that comparison moves to `decorate("fig4", ..)`.
//!
//! `cargo run --release -p patchsim-bench --bin fig4_runtime [--quick]
//! [--seeds N] [--threads N] [--format {text,csv,json}] [--out PATH]`

use patchsim_bench::{figure4_plan, with_runtime_columns, BenchArgs};

fn main() {
    let args = BenchArgs::parse(
        "fig4_runtime",
        "Figure 4: normalized runtime, 5 workloads x 6 protocol configurations",
    );
    let table = args.run_plan(figure4_plan(args.scale.clone()), |table| {
        with_runtime_columns(table, "Figure 4: normalized runtime", "config", "Directory")
            .with_note(
                "norm_runtime is normalized to the Directory row of the same workload \
             (< 1.0 is faster than Directory)",
            )
            .with_note(
                "paper shape: PATCH-None ~ Directory; PATCH-All ~ TokenB, ~14% faster than \
             Directory on average (22% oltp, 19% apache)",
            )
    });
    args.finish(&table);
}
