//! Content-addressed, crash-safe on-disk result store.
//!
//! The store makes experiment sweeps resumable: every `(cell, replication)`
//! of a plan is keyed by a digest of its fully-resolved [`SimConfig`]
//! (via [`SimConfig::stable_digest`]) combined with a code-version tag
//! ([`CODE_VERSION`]), and the corresponding [`RunResult`] is persisted as
//! a checksummed binary entry. Re-running an interrupted sweep with
//! `--store DIR` loads every hit and recomputes only the misses — and
//! because the simulator is deterministic, the resumed table is
//! byte-identical to an uninterrupted run.
//!
//! # Durability model
//!
//! Entries are written atomically: the encoded entry goes to a hidden
//! temp file in the store directory and is then renamed into place, so a
//! `SIGKILL` (or power loss) mid-write can never leave a half-written
//! entry under a valid name. Every entry carries a trailing FxHash
//! checksum over its full contents; on load, truncated, bit-flipped,
//! version-skewed, or otherwise undecodable entries are **never
//! trusted** — they are moved into a `corrupt/` subdirectory
//! (quarantined) and the result is transparently recomputed. Corruption
//! is reported as data ([`LoadOutcome::Quarantined`]), never as a panic.
//!
//! # Entry format (version 3)
//!
//! All integers little-endian:
//!
//! ```text
//! magic          4 bytes   "PSRE"
//! format_version u32       entry-layout version (this file's codec)
//! code_version   u32       semantic simulator version (CODE_VERSION)
//! reserved       u32       zero
//! key            u64       the cache key the entry claims to hold
//! payload_len    u64       bytes of payload that follow
//! payload        ...       encoded RunResult
//! checksum       u64       FxHash of every preceding byte
//! ```
//!
//! Version 2 appends an open-loop block to the payload: a `u64` presence
//! flag (0 for closed-loop results) followed, when set, by the
//! [`OpenLoopStats`] counters and the sojourn histogram. Version 3
//! appends a spans block with the same shape: a `u64` presence flag
//! (0 unless the run collected `telemetry.spans`) followed, when set, by
//! the four phase histograms (queue wait, network, home, token wait),
//! each as bucket pairs + sum + max. The host-side profile is
//! deliberately **not** persisted — wall-time is not a property of the
//! configuration. Older-version entries are quarantined on contact and
//! recomputed; `runplan store-stats DIR --prune-stale` garbage-collects
//! them in bulk.
//!
//! Entries are named `{key:016x}.pse`. The key pins both the resolved
//! configuration and [`CODE_VERSION`]; bumping the latter (done whenever
//! a change makes the simulator produce different numbers for the same
//! config) orphans every stale entry, and `code_version` is additionally
//! checked on load so entries surviving from an older binary are
//! quarantined rather than silently reused.

use std::fmt;
use std::fs;
use std::hash::Hasher;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use patchsim_kernel::collections::FxHasher;
use patchsim_kernel::digest::Digest;
use patchsim_kernel::stats::Histogram;
use patchsim_protocol::ProtocolCounters;

use crate::config::SimConfig;
use crate::result::{OpenLoopStats, RunResult};
use crate::telemetry::SpanStats;
use crate::{TrafficClass, TrafficStats};

const MAGIC: [u8; 4] = *b"PSRE";
const FORMAT_VERSION: u32 = 3;
const HEADER_LEN: usize = 32;
const CHECKSUM_LEN: usize = 8;
const ENTRY_EXT: &str = "pse";

/// Semantic simulator version baked into every cache key and entry.
///
/// Bump this whenever a change alters the numbers a given `SimConfig`
/// produces (protocol fixes, latency-model changes, workload-generator
/// tweaks, ...). Old store entries then stop matching any key and are
/// quarantined on contact instead of poisoning resumed sweeps.
///
/// History: 2 — links keep a busy-until timestamp and wake only under
/// contention, which moves same-cycle link ties and every event count.
pub const CODE_VERSION: u32 = 2;

/// The store key for one fully-resolved simulation configuration.
///
/// Folds [`CODE_VERSION`] and [`SimConfig::stable_digest`]; equal keys
/// mean "the same binary semantics running the same resolved config",
/// which by the simulator's determinism guarantee means bit-identical
/// results.
pub fn cell_key(config: &SimConfig) -> u64 {
    Digest::new()
        .u64(u64::from(CODE_VERSION))
        .u64(config.stable_digest())
        .finish()
}

/// Errors from store I/O and merging.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure on `path`.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The underlying OS error.
        source: io::Error,
    },
    /// Two stores hold the same key with different results — the inputs
    /// disagree about what the simulator produces, so merging would
    /// silently pick a side. Both entry files are named so the operator
    /// can inspect them.
    Conflict {
        /// The disputed cache key.
        key: u64,
        /// The entry already merged (or pre-existing in the output).
        first: PathBuf,
        /// The conflicting entry.
        second: PathBuf,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store I/O error on {}: {source}", path.display())
            }
            StoreError::Conflict { key, first, second } => write!(
                f,
                "merge conflict for key {key:016x}: {} and {} hold different results",
                first.display(),
                second.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Conflict { .. } => None,
        }
    }
}

/// Outcome of looking a key up in the store.
#[derive(Debug)]
pub enum LoadOutcome {
    /// A valid entry was found; the stored result is returned.
    Hit(Box<RunResult>),
    /// No entry exists for the key.
    Miss,
    /// An entry existed but failed validation; it has been moved to the
    /// `corrupt/` subdirectory and the caller must recompute.
    Quarantined {
        /// Where the corrupt entry now lives.
        path: PathBuf,
        /// Why the entry was rejected.
        reason: String,
    },
}

/// Inventory from [`ResultStore::stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStatsReport {
    /// Structurally valid entries (magic + checksum intact) bucketed by
    /// the `code_version` stamped in their header, sorted by version.
    /// Versions older than [`CODE_VERSION`] are stale: unreachable by
    /// any lookup this binary performs, reclaimable with
    /// [`ResultStore::prune_stale`].
    pub by_code_version: Vec<(u32, u64)>,
    /// Structurally valid entries written by an older entry-layout
    /// codec (`format_version` below this binary's). Also stale.
    pub stale_format: u64,
    /// Total bytes across all entry files (valid or not, excluding the
    /// `corrupt/` quarantine).
    pub total_bytes: u64,
    /// Files sitting in the `corrupt/` quarantine directory.
    pub quarantined: u64,
    /// Entry files that failed structural validation in place
    /// (truncated, bad magic, checksum mismatch). Left untouched —
    /// they quarantine on their next lookup.
    pub unreadable: u64,
}

/// Counts from [`ResultStore::merge`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Entries copied into the output store.
    pub merged: u64,
    /// Entries skipped because the output already held an identical
    /// result for the key.
    pub duplicates: u64,
    /// Input entries that failed validation and were quarantined in
    /// their own store.
    pub quarantined: u64,
}

/// A directory of content-addressed [`RunResult`] entries.
///
/// Cloning is cheap (the store is just a path); concurrent writers are
/// safe because entries are immutable once named — two threads computing
/// the same key write identical bytes, and the atomic rename makes the
/// race harmless.
#[derive(Clone, Debug)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Opens (creating if necessary) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(io_at(&dir))?;
        Ok(ResultStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.{ENTRY_EXT}"))
    }

    /// Looks up `key`. Corrupt entries are quarantined, never trusted
    /// and never a panic; the only hard errors are OS-level I/O failures
    /// (permissions, disk full, ...).
    pub fn load(&self, key: u64) -> Result<LoadOutcome, StoreError> {
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(LoadOutcome::Miss),
            Err(source) => return Err(StoreError::Io { path, source }),
        };
        match decode_entry(&bytes, Some(key)) {
            Ok((_, result)) => Ok(LoadOutcome::Hit(Box::new(result))),
            Err(reason) => {
                let quarantined = self.quarantine(&path)?;
                Ok(LoadOutcome::Quarantined {
                    path: quarantined,
                    reason,
                })
            }
        }
    }

    /// Persists `result` under `key` atomically (temp file + rename).
    pub fn save(&self, key: u64, result: &RunResult) -> Result<(), StoreError> {
        static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);
        let bytes = encode_entry(key, result);
        let nonce = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".{key:016x}.{}.{nonce}.tmp", std::process::id()));
        fs::write(&tmp, &bytes).map_err(io_at(&tmp))?;
        let path = self.entry_path(key);
        fs::rename(&tmp, &path).map_err(|source| {
            let _ = fs::remove_file(&tmp);
            StoreError::Io { path, source }
        })
    }

    /// Moves a rejected entry into the `corrupt/` subdirectory and
    /// returns its new path.
    fn quarantine(&self, path: &Path) -> Result<PathBuf, StoreError> {
        let corrupt = self.dir.join("corrupt");
        fs::create_dir_all(&corrupt).map_err(io_at(&corrupt))?;
        let name = path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_else(|| "entry".into());
        let dest = corrupt.join(name);
        fs::rename(path, &dest).map_err(io_at(path))?;
        Ok(dest)
    }

    /// All entry files in the store, as `(key, path)` sorted by key.
    /// Files whose names do not parse as `{16-hex}.pse` are ignored
    /// (temp files, the `corrupt/` directory, stray files).
    pub fn entries(&self) -> Result<Vec<(u64, PathBuf)>, StoreError> {
        let iter = fs::read_dir(&self.dir).map_err(io_at(&self.dir))?;
        let mut out = Vec::new();
        for item in iter {
            let item = item.map_err(io_at(&self.dir))?;
            let path = item.path();
            if path.extension().and_then(|e| e.to_str()) != Some(ENTRY_EXT) {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if stem.len() != 16 {
                continue;
            }
            let Ok(key) = u64::from_str_radix(stem, 16) else {
                continue;
            };
            out.push((key, path));
        }
        out.sort();
        Ok(out)
    }

    /// Inventories the store without modifying it: entry counts by code
    /// version, total bytes, quarantined and unreadable counts. Unlike
    /// [`ResultStore::load`], structurally valid entries from *older*
    /// code or format versions are counted (under their own version),
    /// not rejected — this is the view `runplan store-stats` prints.
    pub fn stats(&self) -> Result<StoreStatsReport, StoreError> {
        let mut report = StoreStatsReport::default();
        let mut by_version: std::collections::BTreeMap<u32, u64> =
            std::collections::BTreeMap::new();
        for (_, path) in self.entries()? {
            let bytes = fs::read(&path).map_err(io_at(&path))?;
            report.total_bytes += bytes.len() as u64;
            match entry_versions(&bytes) {
                Some((format, code)) => {
                    *by_version.entry(code).or_insert(0) += 1;
                    if format < FORMAT_VERSION {
                        report.stale_format += 1;
                    }
                }
                None => report.unreadable += 1,
            }
        }
        report.by_code_version = by_version.into_iter().collect();
        let corrupt = self.dir.join("corrupt");
        match fs::read_dir(&corrupt) {
            Ok(iter) => {
                for item in iter {
                    let item = item.map_err(io_at(&corrupt))?;
                    if item.path().is_file() {
                        report.quarantined += 1;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(source) => {
                return Err(StoreError::Io {
                    path: corrupt,
                    source,
                })
            }
        }
        Ok(report)
    }

    /// Deletes structurally valid entries stamped with an older
    /// `code_version` or `format_version` than this binary's — entries
    /// no lookup can ever hit again. Returns how many were removed.
    /// Unreadable entries are left alone (they quarantine on lookup),
    /// as is anything from a *newer* binary.
    pub fn prune_stale(&self) -> Result<u64, StoreError> {
        let mut removed = 0;
        for (_, path) in self.entries()? {
            let bytes = fs::read(&path).map_err(io_at(&path))?;
            let Some((format, code)) = entry_versions(&bytes) else {
                continue;
            };
            if code < CODE_VERSION || format < FORMAT_VERSION {
                fs::remove_file(&path).map_err(io_at(&path))?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Merges the entries of stores `a` and `b` into the store at `out`
    /// (created if absent; `out` may also pre-contain entries, which
    /// participate in conflict detection).
    ///
    /// An entry is copied when its key is new; skipped (counted as a
    /// duplicate) when the output already holds an identical result;
    /// and a **hard error** naming both files when the same key maps to
    /// different results — that means the inputs were produced by
    /// semantically different simulators sharing a `CODE_VERSION`, and
    /// silently picking one would corrupt downstream tables. Corrupt
    /// input entries are quarantined in their own store and counted.
    pub fn merge(a: &Path, b: &Path, out: &Path) -> Result<MergeReport, StoreError> {
        let output = ResultStore::open(out)?;
        let mut origin: std::collections::HashMap<u64, (PathBuf, u64)> =
            std::collections::HashMap::new();
        // Seed conflict detection with whatever already lives in the
        // output (quarantining its corrupt entries too).
        for (key, path) in output.entries()? {
            match output.load(key)? {
                LoadOutcome::Hit(result) => {
                    origin.insert(key, (path, result.digest()));
                }
                LoadOutcome::Miss | LoadOutcome::Quarantined { .. } => {}
            }
        }
        let mut report = MergeReport::default();
        for dir in [a, b] {
            let input = ResultStore::open(dir)?;
            for (key, path) in input.entries()? {
                match input.load(key)? {
                    LoadOutcome::Hit(result) => {
                        let digest = result.digest();
                        match origin.get(&key) {
                            Some((first, known)) if *known != digest => {
                                return Err(StoreError::Conflict {
                                    key,
                                    first: first.clone(),
                                    second: path,
                                });
                            }
                            Some(_) => report.duplicates += 1,
                            None => {
                                output.save(key, &result)?;
                                report.merged += 1;
                                origin.insert(key, (path, digest));
                            }
                        }
                    }
                    LoadOutcome::Quarantined { .. } => report.quarantined += 1,
                    LoadOutcome::Miss => {}
                }
            }
        }
        Ok(report)
    }
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_str(buf: &mut Vec<u8>, s: &str) {
    push_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn push_histogram(buf: &mut Vec<u8>, h: &Histogram) {
    let pairs: Vec<(u64, u64)> = h.buckets().collect();
    push_u64(buf, pairs.len() as u64);
    for (lower, count) in pairs {
        push_u64(buf, lower);
        push_u64(buf, count);
    }
    push_u64(buf, h.sum());
    push_u64(buf, h.max());
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

fn encode_entry(key: u64, result: &RunResult) -> Vec<u8> {
    let mut payload = Vec::with_capacity(512);
    push_str(&mut payload, result.protocol);
    push_u64(&mut payload, result.runtime_cycles);
    push_u64(&mut payload, result.ops_completed);
    push_u64(&mut payload, result.measured_misses);
    push_u64(&mut payload, result.miss_latency_mean.to_bits());
    push_u64(&mut payload, result.coherence_checks);
    push_u64(&mut payload, result.token_audits);
    push_u64(&mut payload, result.events_processed);
    for class in TrafficClass::ALL {
        push_u64(&mut payload, result.traffic.bytes(class));
        push_u64(&mut payload, result.traffic.traversals(class));
    }
    push_u64(&mut payload, result.traffic.dropped_packets());
    push_u64(&mut payload, result.traffic.dropped_bytes());
    let c = &result.counters;
    for v in [
        c.hits,
        c.misses,
        c.satisfied_before_activation,
        c.tenure_timeouts,
        c.direct_responses,
        c.direct_ignored,
        c.reissues,
        c.persistent_requests,
        c.writebacks,
    ] {
        push_u64(&mut payload, v);
    }
    push_histogram(&mut payload, &result.miss_latency);
    match &result.open_loop {
        None => push_u64(&mut payload, 0),
        Some(ol) => {
            push_u64(&mut payload, 1);
            for v in [
                ol.arrivals,
                ol.drops,
                ol.measured_arrivals,
                ol.measured_drops,
                ol.blocked_cycles,
                ol.backlog_hwm,
                ol.in_flight_at_horizon,
            ] {
                push_u64(&mut payload, v);
            }
            push_histogram(&mut payload, &ol.sojourn);
        }
    }
    match &result.spans {
        None => push_u64(&mut payload, 0),
        Some(spans) => {
            push_u64(&mut payload, 1);
            for h in [
                &spans.queue_wait,
                &spans.network,
                &spans.home,
                &spans.token_wait,
            ] {
                push_histogram(&mut payload, h);
            }
        }
    }

    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    bytes.extend_from_slice(&MAGIC);
    push_u32(&mut bytes, FORMAT_VERSION);
    push_u32(&mut bytes, CODE_VERSION);
    push_u32(&mut bytes, 0);
    push_u64(&mut bytes, key);
    push_u64(&mut bytes, payload.len() as u64);
    bytes.extend_from_slice(&payload);
    let sum = checksum(&bytes);
    push_u64(&mut bytes, sum);
    bytes
}

/// Sequential little-endian reader over a payload slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u64(&mut self) -> Result<u64, String> {
        let end = self.pos.checked_add(8).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err("payload truncated".into());
        };
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(u64::from_le_bytes(raw))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<&'a str, String> {
        let len = usize::try_from(self.u64()?).map_err(|_| "string length overflows")?;
        let end = self.pos.checked_add(len).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err("payload truncated inside a string".into());
        };
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|_| "string is not UTF-8".to_string())?;
        self.pos = end;
        Ok(s)
    }

    fn done(&self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            ))
        }
    }
}

/// Validates an entry's frame — header present, magic, length frame,
/// checksum, in that order — and returns the `(format_version,
/// code_version)` its header stamps, or a human-readable rejection
/// reason. `only_format` is the format gate, which sits between magic
/// and length: [`decode_entry`] passes the one version it can read;
/// [`entry_versions`] passes `None` so that stale-but-intact entries can
/// still be inventoried.
fn check_frame(bytes: &[u8], only_format: Option<u32>) -> Result<(u32, u32), String> {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(format!("entry truncated ({} bytes)", bytes.len()));
    }
    if bytes[..4] != MAGIC {
        return Err("bad magic (not a patchsim store entry)".into());
    }
    let format = read_u32(bytes, 4);
    if let Some(only) = only_format.filter(|&v| v != format) {
        return Err(format!(
            "unsupported entry format v{format} (this binary reads v{only})"
        ));
    }
    let payload_len =
        usize::try_from(read_u64(bytes, 24)).map_err(|_| "payload length overflows")?;
    let expected_len = HEADER_LEN
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(CHECKSUM_LEN));
    if expected_len != Some(bytes.len()) {
        return Err(format!(
            "length mismatch: header claims {payload_len}-byte payload but entry is {} bytes",
            bytes.len()
        ));
    }
    let body = &bytes[..bytes.len() - CHECKSUM_LEN];
    if checksum(body) != read_u64(bytes, bytes.len() - CHECKSUM_LEN) {
        return Err("checksum mismatch (bit rot or partial write)".into());
    }
    Ok((format, read_u32(bytes, 8)))
}

/// The versions of a structurally valid entry, for
/// [`ResultStore::stats`] and [`ResultStore::prune_stale`]; `None` if the
/// bytes cannot be trusted at all.
fn entry_versions(bytes: &[u8]) -> Option<(u32, u32)> {
    check_frame(bytes, None).ok()
}

/// Wraps an I/O failure on `path` as a [`StoreError::Io`].
fn io_at(path: &Path) -> impl FnOnce(io::Error) -> StoreError + '_ {
    move |source| StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(raw)
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(raw)
}

/// Decodes and validates a full entry. `expect_key` additionally pins
/// the key the caller asked for (None during merging, where any
/// well-formed key is accepted). Returns the stored key and result, or
/// a human-readable rejection reason.
fn decode_entry(bytes: &[u8], expect_key: Option<u64>) -> Result<(u64, RunResult), String> {
    let (_, code) = check_frame(bytes, Some(FORMAT_VERSION))?;
    let key = read_u64(bytes, 16);
    if code != CODE_VERSION {
        return Err(format!(
            "stale code version v{code} (this binary is v{CODE_VERSION})"
        ));
    }
    if let Some(expected) = expect_key {
        if key != expected {
            return Err(format!(
                "key mismatch: entry claims {key:016x}, expected {expected:016x}"
            ));
        }
    }
    let mut r = Reader {
        buf: &bytes[HEADER_LEN..bytes.len() - CHECKSUM_LEN],
        pos: 0,
    };
    let protocol = match r.str()? {
        "Directory" => "Directory",
        "PATCH" => "PATCH",
        "TokenB" => "TokenB",
        other => return Err(format!("unknown protocol name '{other}'")),
    };
    let runtime_cycles = r.u64()?;
    let ops_completed = r.u64()?;
    let measured_misses = r.u64()?;
    let miss_latency_mean = r.f64()?;
    let coherence_checks = r.u64()?;
    let token_audits = r.u64()?;
    let events_processed = r.u64()?;
    let mut class_bytes = [0u64; 8];
    let mut class_traversals = [0u64; 8];
    for i in 0..8 {
        class_bytes[i] = r.u64()?;
        class_traversals[i] = r.u64()?;
    }
    let dropped_packets = r.u64()?;
    let dropped_bytes = r.u64()?;
    let traffic = TrafficStats::from_parts(
        class_bytes,
        class_traversals,
        dropped_packets,
        dropped_bytes,
    );
    let counters = ProtocolCounters {
        hits: r.u64()?,
        misses: r.u64()?,
        satisfied_before_activation: r.u64()?,
        tenure_timeouts: r.u64()?,
        direct_responses: r.u64()?,
        direct_ignored: r.u64()?,
        reissues: r.u64()?,
        persistent_requests: r.u64()?,
        writebacks: r.u64()?,
    };
    let miss_latency = read_histogram(&mut r, "miss-latency")?;
    let open_loop = match r.u64()? {
        0 => None,
        1 => {
            let arrivals = r.u64()?;
            let drops = r.u64()?;
            let measured_arrivals = r.u64()?;
            let measured_drops = r.u64()?;
            let blocked_cycles = r.u64()?;
            let backlog_hwm = r.u64()?;
            let in_flight_at_horizon = r.u64()?;
            let sojourn = read_histogram(&mut r, "sojourn")?;
            Some(OpenLoopStats {
                arrivals,
                drops,
                measured_arrivals,
                measured_drops,
                blocked_cycles,
                backlog_hwm,
                in_flight_at_horizon,
                sojourn,
            })
        }
        other => return Err(format!("bad open-loop presence flag {other}")),
    };
    let spans = match r.u64()? {
        0 => None,
        1 => {
            let queue_wait = read_histogram(&mut r, "queue-wait")?;
            let network = read_histogram(&mut r, "network")?;
            let home = read_histogram(&mut r, "home")?;
            let token_wait = read_histogram(&mut r, "token-wait")?;
            Some(SpanStats {
                queue_wait,
                network,
                home,
                token_wait,
            })
        }
        other => return Err(format!("bad spans presence flag {other}")),
    };
    r.done()?;
    Ok((
        key,
        RunResult {
            protocol,
            runtime_cycles,
            ops_completed,
            measured_misses,
            traffic,
            counters,
            miss_latency_mean,
            miss_latency,
            coherence_checks,
            token_audits,
            events_processed,
            open_loop,
            spans,
            // Host wall-time is not a property of the configuration, so
            // it is never persisted: a store hit has no profile.
            profile: None,
        },
    ))
}

/// Decodes one bucket-pairs + sum + max histogram block.
fn read_histogram(r: &mut Reader<'_>, what: &str) -> Result<Histogram, String> {
    let n = usize::try_from(r.u64()?).map_err(|_| "histogram length overflows")?;
    if n > 32 {
        return Err(format!("{what} histogram claims {n} buckets (max 32)"));
    }
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let lower = r.u64()?;
        let count = r.u64()?;
        pairs.push((lower, count));
    }
    let sum = r.u64()?;
    let max = r.u64()?;
    Histogram::from_parts(&pairs, sum, max)
        .ok_or_else(|| format!("malformed {what} histogram buckets"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::ProtocolKind;

    fn sample_result() -> RunResult {
        let cfg = SimConfig::new(ProtocolKind::Patch, 4)
            .with_ops_per_core(50)
            .with_seed(11);
        crate::run(&cfg)
    }

    fn temp_store(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("patchsim-store-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn encode_decode_round_trips() {
        let result = sample_result();
        let bytes = encode_entry(42, &result);
        let (key, decoded) = decode_entry(&bytes, Some(42)).expect("valid entry");
        assert_eq!(key, 42);
        assert_eq!(decoded.digest(), result.digest());
        assert_eq!(decoded.protocol, result.protocol);
        assert_eq!(decoded.miss_latency_mean, result.miss_latency_mean);
        assert_eq!(
            decoded.miss_latency.percentile(0.95),
            result.miss_latency.percentile(0.95)
        );
    }

    #[test]
    fn save_load_round_trips_and_misses_cleanly() {
        let dir = temp_store("roundtrip");
        let store = ResultStore::open(&dir).unwrap();
        let result = sample_result();
        let key = 0xabcd;
        assert!(matches!(store.load(key).unwrap(), LoadOutcome::Miss));
        store.save(key, &result).unwrap();
        match store.load(key).unwrap() {
            LoadOutcome::Hit(got) => assert_eq!(got.digest(), result.digest()),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(store.entries().unwrap(), vec![(key, store.entry_path(key))]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_quarantined() {
        let dir = temp_store("truncate");
        let store = ResultStore::open(&dir).unwrap();
        let key = 7;
        store.save(key, &sample_result()).unwrap();
        let path = store.entry_path(key);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        match store.load(key).unwrap() {
            LoadOutcome::Quarantined { path, reason } => {
                assert!(path.starts_with(dir.join("corrupt")), "path {path:?}");
                assert!(path.exists());
                assert!(!reason.is_empty());
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // The slot is free again: the next lookup is a clean miss.
        assert!(matches!(store.load(key).unwrap(), LoadOutcome::Miss));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_is_quarantined() {
        let dir = temp_store("keymismatch");
        let store = ResultStore::open(&dir).unwrap();
        store.save(9, &sample_result()).unwrap();
        // Rename the entry so its claimed key disagrees with its name.
        fs::rename(store.entry_path(9), store.entry_path(10)).unwrap();
        match store.load(10).unwrap() {
            LoadOutcome::Quarantined { reason, .. } => {
                assert!(reason.contains("key mismatch"), "reason: {reason}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_loop_results_round_trip() {
        let cfg = SimConfig::new(ProtocolKind::Patch, 4)
            .with_workload(crate::WorkloadSpec::OpenLoop(
                crate::ArrivalProfile::parse("poisson:40,cap=4").expect("valid spec"),
            ))
            .with_ops_per_core(60)
            .with_seed(3);
        let result = crate::run(&cfg);
        let ol = result.open_loop.as_ref().expect("open-loop run has stats");
        assert!(ol.arrivals > 0);
        let bytes = encode_entry(5, &result);
        let (_, decoded) = decode_entry(&bytes, Some(5)).expect("valid entry");
        assert_eq!(decoded.digest(), result.digest());
        let got = decoded
            .open_loop
            .expect("open-loop stats survive the codec");
        assert_eq!(got.arrivals, ol.arrivals);
        assert_eq!(got.drops, ol.drops);
        assert_eq!(got.sojourn.count(), ol.sojourn.count());
        assert_eq!(got.sojourn.sum(), ol.sojourn.sum());
    }

    #[test]
    fn stats_inventories_and_prune_stale_reclaims() {
        let dir = temp_store("stats");
        let store = ResultStore::open(&dir).unwrap();
        let result = sample_result();
        store.save(1, &result).unwrap();
        store.save(2, &result).unwrap();
        // Forge a stale entry: same layout, older code version. The
        // checksum must be recomputed after the header edit.
        let mut bytes = encode_entry(3, &result);
        bytes[8..12].copy_from_slice(&(CODE_VERSION - 1).to_le_bytes());
        let trunc = bytes.len() - CHECKSUM_LEN;
        let sum = checksum(&bytes[..trunc]).to_le_bytes();
        bytes[trunc..].copy_from_slice(&sum);
        fs::write(store.entry_path(3), &bytes).unwrap();
        // An unreadable (truncated) entry and a quarantined one.
        fs::write(store.entry_path(4), &bytes[..40]).unwrap();
        store.save(5, &result).unwrap();
        let path = store.entry_path(5);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert!(matches!(
            store.load(5).unwrap(),
            LoadOutcome::Quarantined { .. }
        ));

        let report = store.stats().unwrap();
        assert_eq!(
            report.by_code_version,
            vec![(CODE_VERSION - 1, 1), (CODE_VERSION, 2)]
        );
        assert_eq!(report.stale_format, 0);
        assert_eq!(report.unreadable, 1);
        assert_eq!(report.quarantined, 1);
        assert!(report.total_bytes > 0);

        assert_eq!(store.prune_stale().unwrap(), 1);
        assert!(!store.entry_path(3).exists());
        // Current entries and the unreadable one survive the prune.
        assert!(store.entry_path(1).exists());
        assert!(store.entry_path(4).exists());
        let after = store.stats().unwrap();
        assert_eq!(after.by_code_version, vec![(CODE_VERSION, 2)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_key_tracks_config_and_code_version() {
        let a = SimConfig::new(ProtocolKind::Patch, 4).with_seed(1);
        let b = SimConfig::new(ProtocolKind::Patch, 4).with_seed(2);
        assert_eq!(cell_key(&a), cell_key(&a.clone()));
        assert_ne!(cell_key(&a), cell_key(&b));
        // The key is not the raw config digest: CODE_VERSION is folded in.
        assert_ne!(cell_key(&a), a.stable_digest());
    }
}
