//! Generic experiment-plan driver: run any registered figure or ablation
//! plan by name and print its table with the plan's own title, result
//! columns, and notes (see `patchsim_bench::PLANS`).
//!
//! `cargo run --release -p patchsim-bench --bin runplan -- <plan>
//! [OPTIONS]`
//!
//! `runplan --help` lists the options (`patchsim_bench::BenchArgs`) and
//! every registered plan with a one-line description; `runplan list`
//! prints the bare plan names (one per line, for scripting). A missing
//! or unknown plan name prints the described registry and exits with
//! status 2. `fig4`, `fabric`, `faults`, and `service` print the
//! standard closed-loop columns and `saturation` its open-loop set
//! (offered/achieved rate, drop %, sojourn percentiles); every other
//! plan prints its figure's own columns, e.g. `fig5` the per-class
//! traffic breakdown on `fig4`'s sweep.
//!
//! Two store-maintenance subcommands ride along (see `SUBCOMMANDS` in
//! `runplan --help`): `merge-store A B -o C` merges two result stores
//! with conflict detection, and `store-stats DIR [--prune-stale]`
//! inventories a store and optionally garbage-collects entries stranded
//! by old code or format versions.

use patchsim::exp::{ResultStore, CODE_VERSION};
use patchsim_bench::{decorate, plan_by_name, BenchArgs, StoreCommand, PLANS};

/// The registered plans with their one-line descriptions, one per line,
/// aligned for terminal display.
fn plan_listing() -> String {
    let width = PLANS.iter().map(|plan| plan.name.len()).max().unwrap_or(0);
    PLANS
        .iter()
        .map(|plan| format!("  {:<width$}  {}", plan.name, plan.about))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The store-maintenance subcommands, shown in the main `--help` so
/// they are discoverable next to the plan registry.
const SUBCOMMANDS_HELP: &str = "Subcommands:
  list                      print bare plan names, one per line
  merge-store A B -o OUT    merge two result stores with conflict
                            detection (see 'runplan merge-store --help')
  store-stats DIR [--prune-stale]
                            inventory a result store: entry counts by
                            code version, total bytes, quarantined and
                            unreadable counts; --prune-stale deletes
                            entries stranded by older code/format
                            versions (see 'runplan store-stats --help')";

/// Runs a store subcommand and exits: 0 on success, 2 on any error.
fn run_store_command(command: StoreCommand) -> ! {
    let result = match command {
        StoreCommand::Merge { a, b, out } => ResultStore::merge(&a, &b, &out).map(|report| {
            eprintln!(
                "patchsim: merged {} entries into {} ({} identical duplicates skipped, {} corrupt quarantined)",
                report.merged,
                out.display(),
                report.duplicates,
                report.quarantined,
            );
        }),
        StoreCommand::Stats { dir, prune_stale } => {
            if !dir.is_dir() {
                eprintln!("error: '{}' is not a directory", dir.display());
                std::process::exit(2);
            }
            ResultStore::open(&dir).and_then(|store| {
                let report = store.stats()?;
                println!("store {}", dir.display());
                for (version, count) in &report.by_code_version {
                    let stale = if *version < CODE_VERSION {
                        " (stale)"
                    } else {
                        ""
                    };
                    println!("  code v{version}: {count} entries{stale}");
                }
                if report.stale_format > 0 {
                    println!("  stale entry format: {} entries", report.stale_format);
                }
                println!("  total bytes: {}", report.total_bytes);
                println!("  quarantined: {}", report.quarantined);
                println!("  unreadable:  {}", report.unreadable);
                if prune_stale {
                    let removed = store.prune_stale()?;
                    println!("  pruned: {removed} stale entries");
                }
                Ok(())
            })
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    std::process::exit(0)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let Some(command) = StoreCommand::parse(&raw) {
        run_store_command(command);
    }
    let about = format!(
        "Run any registered experiment plan by name.\n\nPlans:\n{}\n\n{SUBCOMMANDS_HELP}",
        plan_listing()
    );
    let (args, positional) = BenchArgs::parse_with_positional("runplan", &about, "plan");
    let Some(name) = positional else {
        eprintln!(
            "error: missing plan name\n\nPlans:\n{}\n\n{SUBCOMMANDS_HELP}",
            plan_listing()
        );
        std::process::exit(2);
    };
    if name == "list" {
        for plan in &PLANS {
            println!("{}", plan.name);
        }
        return;
    }
    let Some(plan) = plan_by_name(&name, args.scale.clone()) else {
        eprintln!("error: unknown plan '{name}'\n\nPlans:\n{}", plan_listing());
        std::process::exit(2);
    };
    let table = args.run_plan(plan, |table| decorate(&name, table));
    args.finish(&table);
}
