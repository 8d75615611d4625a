//! The `.ptrc` binary trace format: record and replay per-core access
//! streams.
//!
//! A trace captures exactly what a workload generator fed the simulator —
//! every core's sequence of `(block, read/write, think)` operations — plus
//! the metadata needed to rebuild the identical run (label, root seed,
//! node count, table-sizing hint). Replaying a trace through
//! [`WorkloadSpec::Trace`](patchsim_workload::WorkloadSpec::Trace)
//! reproduces the recorded run's `RunResult` bit-for-bit, including under
//! an active fault schedule, because the replay reuses the recorded seed
//! and nothing outside the workload stream differs.
//!
//! # Format (version 1)
//!
//! All multi-byte integers are little-endian; `varint` is LEB128.
//!
//! ```text
//! header:
//!   magic          4 bytes   "PTRC"
//!   version        u16       currently 1
//!   num_nodes      u16
//!   seed           u64       root seed of the recorded run
//!   content_hash   u64       FxHash of every body byte
//!   working_set    u64       table-sizing hint of the recording run
//!   label_len      u8
//!   label          label_len bytes of UTF-8
//! body (one stream per core, cores 0..num_nodes in order):
//!   count          varint    items in this core's stream
//!   item × count:
//!     addr_delta   varint    zigzag(block - previous block, wrapping)
//!     op           varint    think_cycles << 1 | is_write
//! ```
//!
//! Delta-plus-zigzag keeps hot-set traffic to 2–3 bytes per item.
//! Decoding never panics on malformed input: every failure mode —
//! truncation, a bad magic, an unknown version, a body that does not
//! match the header's content hash — surfaces as a [`TraceError`].
//!
//! Compatibility rule: readers reject any version they do not know
//! (there is no silent best-effort parse); future versions may only
//! append header fields after `label`, so older fields never move.
//!
//! # Examples
//!
//! ```
//! use patchsim_noc::NodeId;
//! use patchsim_mem::{AccessKind, BlockAddr};
//! use patchsim_trace::{TraceReader, TraceWriter};
//! use patchsim_workload::WorkItem;
//!
//! let mut w = TraceWriter::new("demo", 42, 2, 64);
//! w.record(NodeId::new(0), WorkItem {
//!     addr: BlockAddr::new(7),
//!     kind: AccessKind::Write,
//!     think_cycles: 3,
//! });
//! let bytes = patchsim_trace::encode(w.data());
//! let back = TraceReader::decode(&bytes).unwrap();
//! assert_eq!(&back, w.data());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::hash::Hasher;
use std::io::{Read, Write};
use std::path::Path;

use patchsim_kernel::collections::FxHasher;
use patchsim_mem::{AccessKind, BlockAddr};
use patchsim_noc::NodeId;
use patchsim_workload::{TraceData, WorkItem};

/// The four magic bytes opening every trace file.
pub const MAGIC: [u8; 4] = *b"PTRC";

/// The format version this crate writes.
pub const VERSION: u16 = 1;

/// Why a trace failed to load. Malformed input is always an error,
/// never a panic.
#[derive(Debug)]
pub enum TraceError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The input ended before the structure it promised was complete.
    Truncated {
        /// What the decoder was in the middle of reading.
        context: &'static str,
    },
    /// The file does not start with [`MAGIC`] — not a trace at all.
    BadMagic,
    /// The file's format version is one this reader does not know.
    UnsupportedVersion(u16),
    /// The body does not hash to the header's `content_hash`: the file
    /// was corrupted or hand-edited.
    HashMismatch {
        /// The hash recorded in the header.
        expected: u64,
        /// The hash of the body as read.
        actual: u64,
    },
    /// The workload label is not valid UTF-8.
    BadLabel,
    /// A varint ran past 10 bytes — not a value this format ever writes.
    VarintOverflow,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Truncated { context } => {
                write!(f, "trace truncated while reading {context}")
            }
            TraceError::BadMagic => write!(f, "not a trace file (missing PTRC magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace format version {v} (this reader knows {VERSION})"
                )
            }
            TraceError::HashMismatch { expected, actual } => write!(
                f,
                "trace body corrupt: content hash {actual:#018x} != recorded {expected:#018x}"
            ),
            TraceError::BadLabel => write!(f, "trace label is not valid UTF-8"),
            TraceError::VarintOverflow => write!(f, "trace varint longer than 10 bytes"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Records per-core [`WorkItem`] streams as a run executes.
///
/// The writer is just an in-memory [`TraceData`] under construction; call
/// [`write_path`](TraceWriter::write_path) (or [`encode`]) when the run
/// finishes.
#[derive(Debug)]
pub struct TraceWriter {
    data: TraceData,
}

impl TraceWriter {
    /// Starts an empty trace for a `num_nodes`-core run.
    pub fn new(label: &str, seed: u64, num_nodes: u16, working_set_blocks: u64) -> Self {
        TraceWriter {
            data: TraceData::empty(label, seed, num_nodes, working_set_blocks),
        }
    }

    /// Appends one item to `node`'s stream. Call in issue order — the
    /// stream order *is* the replay order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the recorded system.
    pub fn record(&mut self, node: NodeId, item: WorkItem) {
        self.data.streams[node.raw() as usize].push(item);
    }

    /// The trace recorded so far.
    pub fn data(&self) -> &TraceData {
        &self.data
    }

    /// Consumes the writer, returning the finished trace.
    pub fn finish(self) -> TraceData {
        self.data
    }

    /// Encodes the trace and writes it to `path`, returning the number
    /// of bytes written.
    pub fn write_path(&self, path: &Path) -> Result<u64, TraceError> {
        write_path(&self.data, path)
    }
}

/// Loads traces written by [`TraceWriter`].
pub struct TraceReader;

impl TraceReader {
    /// Reads and decodes the trace at `path`.
    pub fn read_path(path: &Path) -> Result<TraceData, TraceError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        Self::decode(&bytes)
    }

    /// Decodes a trace from its wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<TraceData, TraceError> {
        decode(bytes)
    }
}

/// Encodes the trace and writes it to `path`, returning the byte count.
pub fn write_path(data: &TraceData, path: &Path) -> Result<u64, TraceError> {
    let bytes = encode(data);
    let mut file = std::fs::File::create(path)?;
    file.write_all(&bytes)?;
    Ok(bytes.len() as u64)
}

/// Serializes a trace to the version-1 wire format.
pub fn encode(data: &TraceData) -> Vec<u8> {
    let mut body = Vec::new();
    for stream in &data.streams {
        push_varint(&mut body, stream.len() as u64);
        let mut prev = 0u64;
        for item in stream {
            let delta = item.addr.raw().wrapping_sub(prev) as i64;
            push_varint(&mut body, zigzag(delta));
            push_varint(
                &mut body,
                item.think_cycles << 1 | item.kind.is_write() as u64,
            );
            prev = item.addr.raw();
        }
    }
    let mut hasher = FxHasher::default();
    hasher.write(&body);
    // A label too long for its `u8` length is cut — on a `char` boundary,
    // so what is written still decodes as UTF-8.
    let mut label_len = data.label.len().min(u8::MAX as usize);
    while !data.label.is_char_boundary(label_len) {
        label_len -= 1;
    }
    let label = data.label.as_bytes();

    let mut out = Vec::with_capacity(33 + label_len + body.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&data.num_nodes.to_le_bytes());
    out.extend_from_slice(&data.seed.to_le_bytes());
    out.extend_from_slice(&hasher.finish().to_le_bytes());
    out.extend_from_slice(&data.working_set_blocks.to_le_bytes());
    out.push(label_len as u8);
    out.extend_from_slice(&label[..label_len]);
    out.extend_from_slice(&body);
    out
}

/// Deserializes a version-1 trace, validating magic, version, and the
/// body's content hash.
pub fn decode(bytes: &[u8]) -> Result<TraceData, TraceError> {
    let mut cur = Cursor { buf: bytes, pos: 0 };
    if cur.take(4, "magic")? != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let version = cur.u16("version")?;
    if version != VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let num_nodes = cur.u16("node count")?;
    let seed = cur.u64("seed")?;
    let content_hash = cur.u64("content hash")?;
    let working_set = cur.u64("working set")?;
    let label_len = cur.u8("label length")? as usize;
    let label = std::str::from_utf8(cur.take(label_len, "label")?)
        .map_err(|_| TraceError::BadLabel)?
        .to_string();

    let body = &bytes[cur.pos..];
    let mut hasher = FxHasher::default();
    hasher.write(body);
    let actual = hasher.finish();
    if actual != content_hash {
        return Err(TraceError::HashMismatch {
            expected: content_hash,
            actual,
        });
    }

    let mut data = TraceData::empty(&label, seed, num_nodes, working_set);
    for stream in &mut data.streams {
        let count = cur.varint("stream length")?;
        // Cap the pre-allocation: a lying length in a truncated file
        // fails with `Truncated` below instead of exhausting memory here.
        stream.reserve(count.min(1 << 20) as usize);
        let mut prev = 0u64;
        for _ in 0..count {
            let addr = prev.wrapping_add(unzigzag(cur.varint("address delta")?) as u64);
            let op = cur.varint("op word")?;
            stream.push(WorkItem {
                addr: BlockAddr::new(addr),
                kind: if op & 1 == 1 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                think_cycles: op >> 1,
            });
            prev = addr;
        }
    }
    Ok(data)
}

/// Byte cursor with typed little-endian reads; every out-of-bounds read
/// is a [`TraceError::Truncated`].
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], TraceError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(TraceError::Truncated { context })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, TraceError> {
        Ok(self.take(1, context)?[0])
    }

    fn u16(&mut self, context: &'static str) -> Result<u16, TraceError> {
        Ok(u16::from_le_bytes(
            self.take(2, context)?.try_into().unwrap(),
        ))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().unwrap(),
        ))
    }

    fn varint(&mut self, context: &'static str) -> Result<u64, TraceError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8(context)?;
            value |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(TraceError::VarintOverflow)
    }
}

/// Appends `value` as LEB128.
fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Maps signed deltas to small unsigned varints: 0, -1, 1, -2, …
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use patchsim_kernel::SimRng;

    fn random_trace(seed: u64, nodes: u16, items_per_node: usize) -> TraceData {
        let mut rng = SimRng::from_seed(seed);
        let mut w = TraceWriter::new("prop", seed, nodes, 4096);
        for node in 0..nodes {
            for _ in 0..items_per_node {
                w.record(
                    NodeId::new(node),
                    WorkItem {
                        addr: BlockAddr::new(rng.below(1 << 40)),
                        kind: if rng.chance(0.3) {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        },
                        think_cycles: rng.below(100),
                    },
                );
            }
        }
        w.finish()
    }

    #[test]
    fn round_trip_preserves_every_stream_exactly() {
        // Seeded property test: many shapes, wide address range.
        for (seed, nodes, items) in [(1, 1, 0), (2, 2, 1), (3, 8, 257), (4, 16, 64), (5, 3, 1000)] {
            let original = random_trace(seed, nodes, items);
            let decoded = decode(&encode(&original)).unwrap();
            assert_eq!(decoded, original, "seed {seed}");
        }
    }

    #[test]
    fn round_trip_handles_extreme_values() {
        let mut w = TraceWriter::new("edge", u64::MAX, 2, u64::MAX);
        for addr in [0, u64::MAX, 1, u64::MAX / 2, 0] {
            w.record(
                NodeId::new(1),
                WorkItem {
                    addr: BlockAddr::new(addr),
                    kind: AccessKind::Write,
                    think_cycles: u64::MAX >> 1,
                },
            );
        }
        let original = w.finish();
        assert_eq!(decode(&encode(&original)).unwrap(), original);
    }

    #[test]
    fn every_truncation_point_errors_instead_of_panicking() {
        let bytes = encode(&random_trace(7, 4, 50));
        for len in 0..bytes.len() {
            let err = decode(&bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceError::Truncated { .. } | TraceError::HashMismatch { .. }
                ),
                "prefix of {len} bytes: unexpected {err}"
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&random_trace(8, 1, 3));
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes).unwrap_err(), TraceError::BadMagic));
    }

    #[test]
    fn unknown_version_is_rejected_with_the_version() {
        let mut bytes = encode(&random_trace(9, 1, 3));
        bytes[4] = 0x2a;
        bytes[5] = 0;
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, TraceError::UnsupportedVersion(42)), "{err}");
        assert!(err.to_string().contains("version 42"));
    }

    #[test]
    fn corrupt_body_fails_the_content_hash() {
        let bytes = encode(&random_trace(10, 2, 40));
        // Header is 33 fixed bytes + the 4-byte "prop" label; body follows.
        let body_start = 37;
        let last = bytes.len() - 1;
        for flip in [body_start, (body_start + last) / 2, last] {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x40;
            let err = decode(&bad).unwrap_err();
            assert!(
                matches!(err, TraceError::HashMismatch { .. }),
                "flip at {flip}: unexpected {err}"
            );
        }
    }

    #[test]
    fn corrupt_header_label_is_rejected() {
        let mut bytes = encode(&random_trace(11, 1, 2));
        // label "prop" starts at offset 33; 0xff alone is invalid UTF-8.
        bytes[33] = 0xff;
        assert!(matches!(decode(&bytes).unwrap_err(), TraceError::BadLabel));
        // The encoder never writes such a file itself: a label cut at the
        // 255-byte limit is cut between characters, not inside one.
        let long = TraceData::empty(&"é".repeat(128), 1, 1, 0);
        let decoded = decode(&encode(&long)).expect("own output decodes");
        assert_eq!(decoded.label, "é".repeat(127));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("patchsim-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ptrc");
        let original = random_trace(12, 4, 100);
        let written = write_path(&original, &path).unwrap();
        assert!(written > 33);
        assert_eq!(TraceReader::read_path(&path).unwrap(), original);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error_not_a_panic() {
        let err = TraceReader::read_path(Path::new("/nonexistent/x.ptrc")).unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
        assert!(err.to_string().contains("i/o"));
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn varint_round_trips_and_is_compact() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut cur = Cursor { buf: &buf, pos: 0 };
            assert_eq!(cur.varint("test").unwrap(), v);
            assert_eq!(cur.pos, buf.len());
        }
        let mut small = Vec::new();
        push_varint(&mut small, 100);
        assert_eq!(small.len(), 1);
    }

    #[test]
    fn delta_encoding_keeps_hot_traffic_compact() {
        // 1000 accesses inside a 64-block hot set: ~2 body bytes each.
        let mut rng = SimRng::from_seed(13);
        let mut w = TraceWriter::new("hot", 1, 1, 64);
        for _ in 0..1000 {
            w.record(
                NodeId::new(0),
                WorkItem {
                    addr: BlockAddr::new(rng.below(64)),
                    kind: AccessKind::Read,
                    think_cycles: rng.below(20),
                },
            );
        }
        let bytes = encode(w.data());
        assert!(
            bytes.len() < 33 + 3 + 2 + 1000 * 3,
            "hot-set trace should stay ~2 bytes/item, got {} total",
            bytes.len()
        );
    }
}
