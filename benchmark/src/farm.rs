//! The farm workload: `runplan fig4 --quick` as a subprocess, cold then
//! against the warm store, and the in-process brackets around the `exp`
//! and `bench` layers that make up its traced pass.
//!
//! `runplan` takes no base seed, so this workload is the same for every
//! `--seed`.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use patchsim::exp::{cell_key, Format, LoadOutcome, ResultStore, Runner, Table};
use patchsim_bench::{plan_by_name, with_standard_columns, Scale};
use patchsim_kernel::digest::Digest;

use crate::measure::{peak_rss_mib, Budget, Passes, SimStats};
use crate::metrics::{median, ratio, Outcome, Values};
use crate::workloads::{FARM_ARGS, FARM_OPS};

/// Warm-store invocations whose median is the farm's `setup_s`.
const WARM_RUNS: usize = 15;
/// How often the child's `VmHWM` is read.
const RSS_POLL: Duration = Duration::from_millis(5);

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits in the repository root")
        .to_path_buf()
}

/// The directory the benchmark writes to.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Builds `runplan` from the root workspace (a no-op when it is current)
/// and returns the path of the binary users run.
///
/// # Panics
///
/// Panics when the build fails: there is then nothing to measure.
pub fn build_runplan() -> PathBuf {
    let root = repo_root();
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "-p", "patchsim-bench"])
        .args(["--bin", "runplan", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .expect("cargo is on the PATH");
    assert!(status.success(), "building runplan failed");
    // A relative CARGO_TARGET_DIR is relative to the directory cargo was
    // started in, which the build above shares with this process.
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or(root.join("target"), PathBuf::from);
    target.join("release").join("runplan")
}

/// One finished `runplan` invocation.
struct Invocation {
    wall: f64,
    stdout: Vec<u8>,
    success: bool,
    peak_rss_mb: f64,
}

/// Runs `runplan` with `args`, polling the child's peak resident set.
fn invoke(runplan: &Path, args: &[&str], store: Option<&Path>) -> Invocation {
    let mut command = Command::new(runplan);
    command
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(store) = store {
        command.arg("--store").arg(store);
    }
    let start = Instant::now();
    let mut child = command.spawn().expect("runplan starts");
    let mut pipe = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut bytes = Vec::new();
        pipe.read_to_end(&mut bytes).map(|_| bytes)
    });
    let mut peak_rss_mb = 0.0_f64;
    let status = loop {
        if let Some(rss) = peak_rss_mib(child.id()) {
            peak_rss_mb = peak_rss_mb.max(rss);
        }
        match child.try_wait().expect("waiting for runplan") {
            Some(status) => break status,
            None => std::thread::sleep(RSS_POLL),
        }
    };
    let wall = start.elapsed().as_secs_f64();
    let stdout = reader
        .join()
        .expect("the reader thread does not panic")
        .expect("reading runplan's output");
    Invocation {
        wall,
        stdout,
        success: status.success(),
        peak_rss_mb,
    }
}

fn fresh_store(tag: &str) -> PathBuf {
    let dir = out_dir().join(format!("store_{}_{tag}", std::process::id()));
    // Left over only if an earlier process with this id was killed.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bytes_digest(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.str(&String::from_utf8_lossy(bytes));
    d.finish()
}

/// One cold pass and its warm repeat. Returns the cold invocation and
/// whether every output check passed.
fn cold_then_warm(runplan: &Path, store: &Path, expected: Option<u64>) -> (Invocation, bool) {
    let cold = invoke(runplan, &FARM_ARGS, Some(store));
    let warm = invoke(runplan, &FARM_ARGS, Some(store));
    let ok = cold.success
        && warm.success
        && !cold.stdout.is_empty()
        && cold.stdout == warm.stdout
        && !String::from_utf8_lossy(&cold.stdout).contains("# FAILED")
        && expected.is_none_or(|e| e == bytes_digest(&cold.stdout));
    (cold, ok)
}

/// The untraced run of the farm workload.
pub fn end_to_end(budget: Budget, notes: &mut Vec<String>) -> Outcome {
    let runplan = build_runplan();
    notes.push("farm_fig4_quick is seed-independent: runplan takes no base seed".into());
    // The untimed pass warms the page cache for the binary, fixes the
    // bytes every timed pass must reproduce, and leaves the warm store
    // the set-up measurement runs against.
    let warm_store = fresh_store("warm");
    let (first, first_ok) = cold_then_warm(&runplan, &warm_store, None);
    let expected = bytes_digest(&first.stdout);
    notes.push(format!(
        "core.sim.digest = {expected:#018x} (of the CSV bytes)"
    ));

    let warm_runs = if budget.quick { 3 } else { WARM_RUNS };
    let mut warm_ok = true;
    let warm_walls: Vec<f64> = (0..warm_runs)
        .map(|_| {
            let run = invoke(&runplan, &FARM_ARGS, Some(&warm_store));
            warm_ok &= run.success && run.stdout == first.stdout;
            run.wall
        })
        .collect();
    let _ = std::fs::remove_dir_all(&warm_store);

    let mut passes = Passes::default();
    let mut peak_rss_mb = first.peak_rss_mb;
    let start = Instant::now();
    loop {
        let store = fresh_store("cold");
        let (cold, ok) = cold_then_warm(&runplan, &store, Some(expected));
        let _ = std::fs::remove_dir_all(&store);
        peak_rss_mb = peak_rss_mb.max(cold.peak_rss_mb);
        passes.record(Some(cold.wall), FARM_OPS, if ok { 0 } else { FARM_OPS });
        if start.elapsed().as_secs_f64() >= budget.seconds {
            break;
        }
    }
    let mut outcome = passes.finish(FARM_OPS, median(&warm_walls), peak_rss_mb, notes);
    outcome.correct &= first_ok && warm_ok;
    outcome
}

fn millis(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn emit_csv(table: &Table) -> Vec<u8> {
    let mut bytes = Vec::new();
    table
        .emit(Format::Csv, &mut bytes)
        .expect("writing to a Vec cannot fail");
    bytes
}

/// The traced pass of the farm workload: the same plan driven in-process
/// through the public `exp` and `bench` APIs, each call bracketed. Its CSV
/// must equal the subprocess's byte for byte.
pub fn traced(budget: Budget, notes: &mut Vec<String>) -> Outcome {
    let runplan = build_runplan();
    let mut v = Values::new();
    // What `--quick --seeds 1` parses to.
    let scale = Scale::quick;

    let build_ms: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(plan_by_name("fig4", scale()));
            millis(start)
        })
        .collect();
    v.insert("exp.plan.build_ms", median(&build_ms));
    let plan = plan_by_name("fig4", scale()).expect("fig4 is registered");
    v.insert("exp.plan.cells", plan.len() as f64);
    v.insert("exp.runner.runs", plan.total_runs() as f64);

    let start = Instant::now();
    let table = Runner::new().with_threads(2).run(&plan);
    let wall_t2 = millis(start);
    v.insert("exp.runner.wall_t2_ms", wall_t2);
    v.insert("exp.runner.failed_cells", table.failures().len() as f64);

    // Store: save and load every run of the table, one entry each.
    let store_dir = fresh_store("traced");
    let store = ResultStore::open(&store_dir).expect("the out directory is writable");
    let runs: Vec<_> = table
        .cells()
        .iter()
        .flat_map(|cell| {
            cell.summary
                .runs
                .iter()
                .map(|r| (cell_key(&cell.config), r))
        })
        .collect();
    let start = Instant::now();
    for (key, result) in &runs {
        store.save(*key, result).expect("saving a store entry");
    }
    v.insert(
        "exp.store.save.us_per_entry",
        ratio(millis(start) * 1e3, runs.len() as f64),
    );
    let start = Instant::now();
    let hits = runs
        .iter()
        .filter(|(key, _)| matches!(store.load(*key), Ok(LoadOutcome::Hit(_))))
        .count();
    v.insert(
        "exp.store.load.us_per_entry",
        ratio(millis(start) * 1e3, runs.len() as f64),
    );
    v.insert("exp.store.hit_ratio", ratio(hits as f64, runs.len() as f64));
    let stats = store.stats().expect("reading the store back");
    v.insert(
        "exp.store.bytes_per_entry",
        ratio(stats.total_bytes as f64, runs.len() as f64),
    );
    v.insert("exp.store.quarantined", stats.quarantined as f64);
    let _ = std::fs::remove_dir_all(&store_dir);
    let all_hit = hits == runs.len();

    let sim = SimStats::of(runs.iter().map(|&(_, r)| r));
    let start = Instant::now();
    let table = with_standard_columns(table);
    v.insert("exp.table.columns_ms", millis(start));
    let start = Instant::now();
    let csv = emit_csv(&table);
    v.insert("exp.emit.csv_ms", millis(start));

    let startup_ms: Vec<f64> = (0..if budget.quick { 3 } else { WARM_RUNS })
        .map(|_| invoke(&runplan, &["list"], None).wall * 1e3)
        .collect();
    v.insert("bench.cli.startup_ms", median(&startup_ms));

    // The traced pass must reproduce what users get from the binary.
    let cold_store = fresh_store("cold");
    let cold = invoke(&runplan, &FARM_ARGS, Some(&cold_store));
    let _ = std::fs::remove_dir_all(&cold_store);
    let mut same = cold.success && cold.stdout == csv;
    if !same {
        notes.push("the in-process CSV differs from runplan's".into());
    }
    if !budget.quick {
        let start = Instant::now();
        let serial = Runner::serial().run(&plan);
        let wall_t1 = millis(start);
        v.insert("exp.runner.wall_t1_ms", wall_t1);
        v.insert("exp.runner.speedup_t2", ratio(wall_t1, wall_t2));
        if emit_csv(&with_standard_columns(serial)) != csv {
            same = false;
            notes.push("the table differs between one and two threads".into());
        }
    }

    sim.insert_into(&mut v);
    notes.extend(sim.lines());
    let complete = sim.ops_completed == FARM_OPS && table.failures().is_empty();
    Outcome {
        correct: same && complete && all_hit,
        attempted: FARM_OPS,
        failed: if same && complete { 0 } else { FARM_OPS },
        values: v,
    }
}
