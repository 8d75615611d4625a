//! Generic experiment-plan driver: run any registered figure or ablation
//! plan by name and print its table with the plan's own title, result
//! columns, and notes (see `patchsim_bench::PLANS`).
//!
//! `cargo run --release -p patchsim-bench --bin runplan -- <plan> [--quick]
//! [--seeds N] [--threads N] [--fabric F] [--faults SPEC] [--store DIR]
//! [--shard K/N] [--cell-timeout SECS] [--retries N] [--metrics PATH]
//! [--metrics-every CYCLES] [--spans] [--flight-recorder DIR]
//! [--progress] [--format {text,csv,json}] [--out PATH]`
//!
//! `runplan --help` lists every registered plan with a one-line
//! description; `runplan list` prints the bare plan names (one per line,
//! for scripting). A missing or unknown plan name prints the described
//! registry and exits with status 2. `fig4`, `fabric`, `faults`, and
//! `service` print the standard closed-loop columns and `saturation` its
//! open-loop set (offered/achieved rate, drop %, sojourn percentiles);
//! every other plan prints its figure's own columns, e.g. `fig5` the
//! per-class traffic breakdown on `fig4`'s sweep.
//!
//! Two store-maintenance subcommands ride along (see `SUBCOMMANDS` in
//! `runplan --help`): `merge-store A B -o C` merges two result stores
//! with conflict detection, and `store-stats DIR [--prune-stale]`
//! inventories a store and optionally garbage-collects entries stranded
//! by old code or format versions.

use std::path::PathBuf;

use patchsim::exp::ResultStore;
use patchsim_bench::{decorate, plan_by_name, BenchArgs, PLANS};

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

const MERGE_USAGE: &str = "Usage: runplan merge-store <STORE_A> <STORE_B> -o <OUT>

Merges the entries of two result stores into a third (created if
absent). Identical duplicate entries are skipped; the same key holding
two different results is a hard error naming both entry files.";

const STATS_USAGE: &str = "Usage: runplan store-stats <DIR> [--prune-stale]

Inventories a result store: entry counts bucketed by code version,
total bytes, quarantined files, and unreadable (corrupt-in-place)
entries. Entries from older code or format versions are counted, not
rejected — no lookup can ever hit them again, and --prune-stale
deletes them to reclaim the space.";

/// Handles `runplan merge-store A B -o C`: never returns.
fn merge_store(raw: &[String]) -> ! {
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{MERGE_USAGE}");
        std::process::exit(0);
    }
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-o" | "--out" => match it.next() {
                Some(v) => out = Some(PathBuf::from(v)),
                None => {
                    eprintln!("error: {arg} requires a value\n\n{MERGE_USAGE}");
                    std::process::exit(2);
                }
            },
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown flag '{flag}'\n\n{MERGE_USAGE}");
                std::process::exit(2);
            }
            value => inputs.push(PathBuf::from(value)),
        }
    }
    let (Some(out), [a, b]) = (out, inputs.as_slice()) else {
        eprintln!("error: merge-store needs two input stores and -o OUT\n\n{MERGE_USAGE}");
        std::process::exit(2);
    };
    match ResultStore::merge(a, b, &out) {
        Ok(report) => {
            eprintln!(
                "patchsim: merged {} entries into {} ({} identical duplicates skipped, {} corrupt quarantined)",
                report.merged,
                out.display(),
                report.duplicates,
                report.quarantined,
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Handles `runplan store-stats DIR [--prune-stale]`: never returns.
fn store_stats(raw: &[String]) -> ! {
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{STATS_USAGE}");
        std::process::exit(0);
    }
    let mut dir: Option<PathBuf> = None;
    let mut prune = false;
    for arg in raw {
        match arg.as_str() {
            "--prune-stale" => prune = true,
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown flag '{flag}'\n\n{STATS_USAGE}");
                std::process::exit(2);
            }
            value => {
                if dir.is_some() {
                    eprintln!("error: unexpected argument '{value}'\n\n{STATS_USAGE}");
                    std::process::exit(2);
                }
                dir = Some(PathBuf::from(value));
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("error: store-stats needs a store directory\n\n{STATS_USAGE}");
        std::process::exit(2);
    };
    if !dir.is_dir() {
        eprintln!("error: '{}' is not a directory", dir.display());
        std::process::exit(2);
    }
    let store = match ResultStore::open(&dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let run = || -> Result<(), patchsim::exp::StoreError> {
        let report = store.stats()?;
        println!("store {}", dir.display());
        for (version, count) in &report.by_code_version {
            let stale = if *version < patchsim::exp::CODE_VERSION {
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
        if prune {
            let removed = store.prune_stale()?;
            println!("  pruned: {removed} stale entries");
        }
        Ok(())
    };
    match run() {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("merge-store") => merge_store(&raw[1..]),
        Some("store-stats") => store_stats(&raw[1..]),
        _ => {}
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
