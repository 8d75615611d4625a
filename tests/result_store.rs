//! Integration tests for the crash-safe result store and cell-level
//! fault isolation: resumed sweeps must be byte-identical to
//! uninterrupted ones, corrupt entries must be quarantined and
//! recomputed (never trusted, never a panic), merges must detect
//! conflicts, and failed cells must be reported without aborting the
//! sweep.

use std::fs;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::time::Duration;

use patchsim::exp::{cell_key, Format, LoadOutcome, MergeReport, ResultStore, Runner, StoreError};
use patchsim::{run, ProtocolKind, SimConfig, SimRng, WorkloadSpec};
use patchsim_bench::{faults_plan, with_standard_columns, BenchArgs, Scale};
use patchsim_kernel::collections::FxHasher;

/// A self-cleaning temp directory under the OS temp root.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("patchsim-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A debug-build-friendly scale.
fn tiny() -> Scale {
    let mut scale = Scale::quick();
    scale.cores = 8;
    scale.ops = 40;
    scale.warmup = 20;
    scale
}

fn small_config(seed: u64) -> SimConfig {
    SimConfig::new(ProtocolKind::Patch, 4)
        .with_workload(WorkloadSpec::Microbenchmark {
            table_blocks: 32,
            write_frac: 0.3,
            think_mean: 2,
        })
        .with_ops_per_core(50)
        .with_seed(seed)
}

fn csv(table: &patchsim::exp::Table) -> String {
    let mut out = Vec::new();
    table.emit(Format::Csv, &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

/// Every single-byte corruption of a valid entry is rejected and
/// quarantined, and the recomputed result is unchanged — the checksum
/// spans the full entry, so no flip position can slip through.
#[test]
fn every_bit_flip_is_rejected_and_recomputed() {
    let tmp = TempDir::new("bitflip");
    let store = ResultStore::open(tmp.join("store")).unwrap();
    let config = small_config(5);
    let key = cell_key(&config);
    let expected = run(&config);
    store.save(key, &expected).unwrap();
    let entry = store.dir().join(format!("{key:016x}.pse"));
    let pristine = fs::read(&entry).unwrap();

    // Seeded sampling of (position, mask) pairs plus a few structural
    // positions (magic, versions, key, length, checksum tail).
    let mut rng = SimRng::from_seed(0xB17F11);
    let mut targets: Vec<(usize, u8)> = (0..40)
        .map(|_| {
            let pos = (rng.next_u64() as usize) % pristine.len();
            let mask = 1u8 << (rng.next_u64() % 8);
            (pos, mask)
        })
        .collect();
    for pos in [0, 4, 8, 16, 24, pristine.len() - 1, pristine.len() - 8] {
        targets.push((pos, 0x01));
    }

    for (pos, mask) in targets {
        let mut corrupt = pristine.clone();
        corrupt[pos] ^= mask;
        fs::write(&entry, &corrupt).unwrap();
        match store.load(key).unwrap() {
            LoadOutcome::Quarantined { path, .. } => {
                assert!(path.exists(), "quarantined file must exist");
                let _ = fs::remove_file(path);
            }
            LoadOutcome::Hit(got) => panic!(
                "corrupt entry (byte {pos} ^ {mask:#04x}) was trusted: digest {:016x}",
                got.digest()
            ),
            LoadOutcome::Miss => panic!("entry vanished"),
        }
        // Recompute-and-save restores a loadable, identical result.
        let recomputed = run(&config);
        assert_eq!(recomputed.digest(), expected.digest());
        store.save(key, &recomputed).unwrap();
    }
}

/// Truncations at every interesting boundary are rejected.
#[test]
fn truncated_entries_are_rejected_and_recomputed() {
    let tmp = TempDir::new("truncate");
    let store = ResultStore::open(tmp.join("store")).unwrap();
    let config = small_config(6);
    let key = cell_key(&config);
    let expected = run(&config);
    store.save(key, &expected).unwrap();
    let entry = store.dir().join(format!("{key:016x}.pse"));
    let pristine = fs::read(&entry).unwrap();
    for keep in [0, 1, 4, 31, 32, 40, pristine.len() / 2, pristine.len() - 1] {
        fs::write(&entry, &pristine[..keep]).unwrap();
        assert!(
            matches!(store.load(key).unwrap(), LoadOutcome::Quarantined { .. }),
            "a {keep}-byte prefix must not decode"
        );
        store.save(key, &expected).unwrap();
    }
    // Appended garbage is rejected too (length mismatch).
    let mut padded = pristine.clone();
    padded.extend_from_slice(b"junk");
    fs::write(&entry, &padded).unwrap();
    assert!(matches!(
        store.load(key).unwrap(),
        LoadOutcome::Quarantined { .. }
    ));
}

/// Every rejection reason, one forged entry each, listed in the order
/// the decoder checks them — so an entry wrong in two ways reports the
/// earlier one (a foreign format version is named before the checksum it
/// would also fail). `stats` reads the same frame validator without the
/// version gates: only the five entries with a broken frame are
/// unreadable to it.
#[test]
fn every_rejection_reason_is_reported() {
    let tmp = TempDir::new("reasons");
    let store = ResultStore::open(tmp.join("store")).unwrap();
    let config = small_config(11);
    let key = cell_key(&config);
    store.save(key, &run(&config)).unwrap();
    let entry = store.dir().join(format!("{key:016x}.pse"));
    let pristine = fs::read(&entry).unwrap();
    let reseal = |bytes: &mut Vec<u8>| {
        let body_len = bytes.len() - 8;
        let mut h = FxHasher::default();
        h.write(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&h.finish().to_le_bytes());
    };
    type Forge = fn(&mut Vec<u8>);
    let cases: [(&str, Forge, bool); 7] = [
        ("entry truncated (39 bytes)", |b| b.truncate(39), false),
        ("bad magic", |b| b[0] ^= 0xff, false),
        ("unsupported entry format v77", |b| b[4] = 77, false),
        ("length mismatch", |b| b.extend_from_slice(b"junk"), false),
        ("checksum mismatch", |b| b[40] ^= 1, false),
        (
            "stale code version v9999",
            |b| b[8..12].copy_from_slice(&9999u32.to_le_bytes()),
            true,
        ),
        ("key mismatch", |b| b[16] ^= 1, true),
    ];
    let mut unreadable = 0;
    for (i, (reason, forge, resealed)) in cases.into_iter().enumerate() {
        let mut bytes = pristine.clone();
        forge(&mut bytes);
        if resealed {
            reseal(&mut bytes);
        }
        fs::write(&entry, &bytes).unwrap();
        unreadable += store.stats().unwrap().unreadable;
        match store.load(key).unwrap() {
            LoadOutcome::Quarantined { reason: got, .. } => {
                assert!(got.contains(reason), "case {i}: {got:?} lacks {reason:?}");
            }
            other => panic!("case {i}: expected quarantine, got {other:?}"),
        }
    }
    assert_eq!(unreadable, 5, "the resealed entries have an intact frame");
}

/// An entry written by a (simulated) older code version is quarantined
/// even when its checksum is intact: the test patches the code-version
/// field and re-seals the checksum the way an old binary would have.
#[test]
fn stale_code_version_is_rejected() {
    let tmp = TempDir::new("codever");
    let store = ResultStore::open(tmp.join("store")).unwrap();
    let config = small_config(7);
    let key = cell_key(&config);
    store.save(key, &run(&config)).unwrap();
    let entry = store.dir().join(format!("{key:016x}.pse"));
    let mut bytes = fs::read(&entry).unwrap();
    // code_version lives at offset 8..12; forge an older version and
    // recompute the trailing checksum over everything before it, exactly
    // as the older binary would have sealed it.
    bytes[8..12].copy_from_slice(&9999u32.to_le_bytes());
    let body_len = bytes.len() - 8;
    let mut h = FxHasher::default();
    h.write(&bytes[..body_len]);
    let sum = h.finish();
    bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
    fs::write(&entry, &bytes).unwrap();
    match store.load(key).unwrap() {
        LoadOutcome::Quarantined { reason, .. } => {
            assert!(reason.contains("code version"), "reason: {reason}");
        }
        other => panic!("expected quarantine, got {other:?}"),
    }
}

/// The headline resumability contract: a partially-populated store
/// resumed with a different thread count yields a byte-identical table
/// to an uninterrupted serial run without any store.
#[test]
fn partial_store_resume_is_byte_identical() {
    let tmp = TempDir::new("resume");
    let plan = || faults_plan(tiny());

    // Ground truth: serial, storeless.
    let reference = csv(&with_standard_columns(Runner::serial().run(&plan())));

    // Populate a store fully, then delete roughly half the entries to
    // simulate a sweep killed mid-flight.
    let store_dir = tmp.join("store");
    let store = ResultStore::open(&store_dir).unwrap();
    let _ = with_standard_columns(Runner::serial().with_store(store.clone()).run(&plan()));
    let entries = store.entries().unwrap();
    assert!(
        !entries.is_empty(),
        "the sweep must have populated the store"
    );
    for (i, (_, path)) in entries.iter().enumerate() {
        if i % 2 == 0 {
            fs::remove_file(path).unwrap();
        }
    }

    // Resume with a different worker count.
    let resumed = csv(&with_standard_columns(
        Runner::new()
            .with_threads(4)
            .with_store(store.clone())
            .run(&plan()),
    ));
    assert_eq!(
        reference, resumed,
        "a resumed sweep must reproduce the uninterrupted table byte-for-byte"
    );

    // And a pure-cache run (no recomputation) matches too.
    let cached = csv(&with_standard_columns(
        Runner::serial().with_store(store).run(&plan()),
    ));
    assert_eq!(reference, cached);
}

/// Merging two disjoint stores unions them; identical overlap is
/// skipped; conflicting overlap is a hard error naming both files.
#[test]
fn merge_unions_and_detects_conflicts() {
    let tmp = TempDir::new("merge");
    let a = ResultStore::open(tmp.join("a")).unwrap();
    let b = ResultStore::open(tmp.join("b")).unwrap();

    let c1 = small_config(1);
    let c2 = small_config(2);
    let c3 = small_config(3);
    let (r1, r2, r3) = (run(&c1), run(&c2), run(&c3));
    a.save(cell_key(&c1), &r1).unwrap();
    a.save(cell_key(&c2), &r2).unwrap();
    b.save(cell_key(&c2), &r2).unwrap();
    b.save(cell_key(&c3), &r3).unwrap();

    let out = tmp.join("merged");
    let report = ResultStore::merge(a.dir(), b.dir(), &out).unwrap();
    assert_eq!(
        report,
        MergeReport {
            merged: 3,
            duplicates: 1,
            quarantined: 0
        }
    );
    let merged = ResultStore::open(&out).unwrap();
    assert_eq!(merged.entries().unwrap().len(), 3);
    for (cfg, r) in [(&c1, &r1), (&c2, &r2), (&c3, &r3)] {
        match merged.load(cell_key(cfg)).unwrap() {
            LoadOutcome::Hit(got) => assert_eq!(got.digest(), r.digest()),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    // Conflict: same key, different result.
    let d = ResultStore::open(tmp.join("d")).unwrap();
    d.save(cell_key(&c1), &r2).unwrap();
    let err = ResultStore::merge(a.dir(), d.dir(), &tmp.join("conflict-out")).unwrap_err();
    match err {
        StoreError::Conflict { key, first, second } => {
            assert_eq!(key, cell_key(&c1));
            assert!(first.exists(), "conflict must name a real first file");
            assert!(second.exists(), "conflict must name a real second file");
            assert_ne!(first, second);
        }
        other => panic!("expected conflict, got {other}"),
    }
}

/// Corrupt entries in a merge input are quarantined and counted, not
/// copied.
#[test]
fn merge_quarantines_corrupt_inputs() {
    let tmp = TempDir::new("merge-corrupt");
    let a = ResultStore::open(tmp.join("a")).unwrap();
    let b = ResultStore::open(tmp.join("b")).unwrap();
    let c1 = small_config(1);
    let c2 = small_config(2);
    a.save(cell_key(&c1), &run(&c1)).unwrap();
    b.save(cell_key(&c2), &run(&c2)).unwrap();
    // Truncate b's entry.
    let (_, path) = b.entries().unwrap().pop().unwrap();
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

    let report = ResultStore::merge(a.dir(), b.dir(), &tmp.join("out")).unwrap();
    assert_eq!(
        report,
        MergeReport {
            merged: 1,
            duplicates: 0,
            quarantined: 1
        }
    );
    assert!(b.dir().join("corrupt").read_dir().unwrap().next().is_some());
}

/// A store-enabled run still honors trace recording: the recording cell
/// executes (a cache hit must not skip the run that writes the trace).
#[test]
fn store_does_not_swallow_trace_recording() {
    let tmp = TempDir::new("trace");
    let store = ResultStore::open(tmp.join("store")).unwrap();
    let plan = || faults_plan(tiny());
    // Warm the store fully.
    let _ = Runner::serial().with_store(store.clone()).run(&plan());
    // Re-run with recording armed on the first cell: the trace file must
    // appear even though every result is cached.
    let trace_path = tmp.join("cell.ptrc");
    let mut recorded = plan();
    recorded
        .cells_mut()
        .first_mut()
        .unwrap()
        .config
        .record_trace = Some(trace_path.clone());
    let _ = Runner::serial().with_store(store).run(&recorded);
    assert!(
        trace_path.exists(),
        "recording run must not be skipped by a cache hit"
    );
}

/// CLI surface: the new flags parse strictly.
#[test]
fn cli_flags_parse_strictly() {
    let args = |list: &[&str]| {
        BenchArgs::try_parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    };
    let (ok, _) = args(&[
        "--quick",
        "--store",
        "results/store",
        "--cell-timeout",
        "30",
        "--retries",
        "2",
    ])
    .unwrap();
    assert_eq!(ok.store.as_deref(), Some(Path::new("results/store")));
    assert_eq!(ok.cell_timeout, Some(Duration::from_secs(30)));
    assert_eq!(ok.retries, Some(2));
    let (defaults, _) = args(&["--quick"]).unwrap();
    assert_eq!(defaults.store, None);
    assert_eq!(defaults.cell_timeout, None);
    assert_eq!(defaults.retries, None);
    assert!(args(&["--store"]).is_err());
    assert!(args(&["--cell-timeout"]).is_err());
    assert!(args(&["--cell-timeout", "0"]).is_err());
    assert!(args(&["--cell-timeout", "soon"]).is_err());
    assert!(args(&["--retries"]).is_err());
    assert!(args(&["--retries", "-1"]).is_err());
    // 0 retries is valid (disables retries).
    let (zero, _) = args(&["--retries", "0"]).unwrap();
    assert_eq!(zero.retries, Some(0));
}
