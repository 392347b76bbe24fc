//! Crash-safe pipeline checkpoints: snapshot codec, file format, atomic I/O.
//!
//! A decade-scale run holds hours of accumulated state — interner, pairwise
//! fingerprint windows, open campaign scans, collector aggregates — that a
//! worker panic, an OOM kill, or an operator interrupt would otherwise throw
//! away. This module gives every stateful pipeline component an exact binary
//! snapshot and packages the full per-shard state of one year's run into a
//! single checkpoint file that a later process can resume from.
//!
//! # Determinism contract
//!
//! A checkpoint captures *everything* downstream of the input stream: the
//! driver's fault gate (dedup/order state plus counters), the admit filter's
//! counters (opaque to this layer), and one collector snapshot per shard.
//! The input stream itself is **not** serialized — synthesis and pcap
//! streams are deterministic replays, so the checkpoint stores only the
//! *cursor* (records pulled so far) and a resumed run fast-forwards the
//! rebuilt stream to it. Restoring a snapshot and feeding the remaining
//! records produces output bit-identical to the uninterrupted run; the
//! `checkpoint_resume` integration suite enforces this in both sequential
//! and sharded modes.
//!
//! # File format (version 1)
//!
//! ```text
//! magic    8 B   "SYNCKPT\0"
//! version  4 B   u32 LE — readers reject versions they don't know
//! length   8 B   u64 LE — payload byte count
//! checksum 8 B   u64 LE — FxHash of the payload bytes
//! payload        header fields, gate state, fault counters,
//!                admit-state blob, per-shard collector snapshots
//! ```
//!
//! Everything after the fixed prologue is covered by the checksum, so a torn
//! or bit-flipped file is rejected as [`CheckpointError::ChecksumMismatch`]
//! / [`CheckpointError::Truncated`] rather than silently resumed. Writes are
//! atomic: the file is staged as `<name>.tmp`, fsynced, then renamed over
//! the rolling per-year checkpoint (`checkpoint-year<YYYY>.ckpt`), so a kill
//! mid-write leaves the previous checkpoint intact.
//!
//! All multi-byte integers are little-endian. Hash maps are serialized in
//! sorted key order, so the same state always snapshots to the same bytes.

use std::fs;
use std::hash::Hasher as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use synscan_scanners::traits::ToolKind;
use synscan_wire::stream::FaultCounters;
use synscan_wire::{Ipv4Address, ProbeRecord, TcpFlags};

use crate::analysis::YearCollector;
use crate::fasthash::FxHasher;

/// File magic: identifies a synscan checkpoint.
pub const MAGIC: [u8; 8] = *b"SYNCKPT\0";

/// Current checkpoint format version. Bumped on any layout change; readers
/// reject files with a version they do not understand. Version 2 appended
/// the presence-tagged heavy-hitter sketch section to collector snapshots.
pub const FORMAT_VERSION: u32 = 2;

/// Why a checkpoint could not be written, read, or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem I/O failed (message carries the path and OS error).
    Io(String),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is newer than this reader understands.
    UnsupportedVersion(u32),
    /// The payload hash does not match the header checksum.
    ChecksumMismatch,
    /// The payload ended before a complete structure was read.
    Truncated,
    /// A structurally invalid payload (bad tag, impossible length, …).
    Corrupt(String),
    /// The checkpoint does not belong to this run (wrong year, seed, shard
    /// count, or an un-replayable cursor).
    Mismatch {
        /// Which identity field disagreed.
        field: &'static str,
        /// The value the resuming run expected.
        expected: u64,
        /// The value found in the checkpoint.
        found: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CheckpointError::BadMagic => write!(f, "not a synscan checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
            CheckpointError::ChecksumMismatch => {
                write!(
                    f,
                    "checkpoint payload checksum mismatch (corrupt or torn file)"
                )
            }
            CheckpointError::Truncated => write!(f, "checkpoint payload is truncated"),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint payload: {what}"),
            CheckpointError::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint does not match this run: {field} is {found}, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Incremental little-endian snapshot encoder. Every stateful pipeline
/// component writes itself through one of these; the driver concatenates
/// the sections into a checkpoint payload.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append an optional `u64`: presence tag byte, then the value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_u64(v);
            }
            None => self.put_u8(0),
        }
    }

    /// Append a length-prefixed byte blob.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Append one [`ProbeRecord`], field by field.
    pub fn put_record(&mut self, r: &ProbeRecord) {
        self.put_u64(r.ts_micros);
        self.put_u32(r.src_ip.0);
        self.put_u32(r.dst_ip.0);
        self.put_u16(r.src_port);
        self.put_u16(r.dst_port);
        self.put_u32(r.seq);
        self.put_u16(r.ip_id);
        self.put_u8(r.ttl);
        self.put_u8(r.flags.0);
        self.put_u16(r.window);
    }

    /// Append one [`ToolKind`] as its stable wire code.
    pub fn put_tool(&mut self, tool: ToolKind) {
        self.put_u8(tool_code(tool));
    }
}

/// Decoder over a snapshot payload; the mirror of [`SnapWriter`]. Every
/// `take_*` fails with [`CheckpointError::Truncated`] past the end.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn take_u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Read an optional `u64` (presence tag byte, then the value).
    pub fn take_opt_u64(&mut self) -> Result<Option<u64>, CheckpointError> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.take_u64()?)),
            t => Err(CheckpointError::Corrupt(format!("option tag {t}"))),
        }
    }

    /// Read a length-prefixed byte blob.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let len = self.take_u64()?;
        if len > self.remaining() as u64 {
            return Err(CheckpointError::Truncated);
        }
        self.take(len as usize)
    }

    /// Read a collection length written as `u64`, bounding it by what the
    /// remaining payload could possibly hold (`min_element_bytes` per item)
    /// so a corrupt length cannot trigger a huge allocation.
    pub fn take_len(&mut self, min_element_bytes: usize) -> Result<usize, CheckpointError> {
        let len = self.take_u64()?;
        let cap = (self.remaining() / min_element_bytes.max(1)) as u64;
        if len > cap {
            return Err(CheckpointError::Corrupt(format!(
                "length {len} exceeds remaining payload"
            )));
        }
        Ok(len as usize)
    }

    /// Read one [`ProbeRecord`].
    pub fn take_record(&mut self) -> Result<ProbeRecord, CheckpointError> {
        Ok(ProbeRecord {
            ts_micros: self.take_u64()?,
            src_ip: Ipv4Address(self.take_u32()?),
            dst_ip: Ipv4Address(self.take_u32()?),
            src_port: self.take_u16()?,
            dst_port: self.take_u16()?,
            seq: self.take_u32()?,
            ip_id: self.take_u16()?,
            ttl: self.take_u8()?,
            flags: TcpFlags(self.take_u8()?),
            window: self.take_u16()?,
        })
    }

    /// Read one [`ToolKind`] from its stable wire code.
    pub fn take_tool(&mut self) -> Result<ToolKind, CheckpointError> {
        tool_from_code(self.take_u8()?)
    }
}

/// Holds the keys of one serialized map to the order its writer emits:
/// strictly ascending. A reader that inserted into a map instead would take a
/// duplicated or misplaced key as last-wins and load a different value than
/// was written, without an error.
#[derive(Debug)]
pub struct Ascending<K> {
    what: &'static str,
    last: Option<K>,
}

impl<K: Ord + Copy> Ascending<K> {
    /// A check for the map called `what` in error messages.
    pub fn new(what: &'static str) -> Self {
        Self { what, last: None }
    }

    /// Pass `key` through, or `Corrupt` unless it is above every key before.
    pub fn admit(&mut self, key: K) -> Result<K, CheckpointError> {
        if self.last.is_some_and(|last| last >= key) {
            return Err(CheckpointError::Corrupt(format!(
                "{} not strictly ascending",
                self.what
            )));
        }
        self.last = Some(key);
        Ok(key)
    }
}

/// Stable wire code for a [`ToolKind`] (independent of declaration order).
fn tool_code(tool: ToolKind) -> u8 {
    match tool {
        ToolKind::Zmap => 0,
        ToolKind::Masscan => 1,
        ToolKind::Nmap => 2,
        ToolKind::Mirai => 3,
        ToolKind::Unicorn => 4,
        ToolKind::Custom => 5,
    }
}

/// Inverse of [`tool_code`].
fn tool_from_code(code: u8) -> Result<ToolKind, CheckpointError> {
    Ok(match code {
        0 => ToolKind::Zmap,
        1 => ToolKind::Masscan,
        2 => ToolKind::Nmap,
        3 => ToolKind::Mirai,
        4 => ToolKind::Unicorn,
        5 => ToolKind::Custom,
        other => return Err(CheckpointError::Corrupt(format!("tool code {other}"))),
    })
}

/// The identity and progress fields of a checkpoint — everything a resuming
/// run validates before trusting the snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Capture year the run analyzes.
    pub year: u16,
    /// Run identity seed (generator master seed, chaos seed, or 0): a resume
    /// against a different seed would silently replay a different stream.
    pub seed: u64,
    /// Shard count the snapshots were taken under (1 = sequential). Shard
    /// state is keyed by `hash(src) % workers`, so it only re-applies under
    /// the identical fan-out.
    pub workers: u32,
    /// Records pulled from the input stream when the snapshot was taken —
    /// the point a resumed stream fast-forwards to.
    pub cursor: u64,
    /// Monotonic checkpoint sequence number within the run.
    pub seq: u64,
    /// Timestamp of the first admitted record (what the fan-out broadcasts
    /// to its shards as the binning origin), if any record was admitted yet.
    pub origin: Option<u64>,
}

/// One complete, self-contained snapshot of a year run in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Identity and progress.
    pub header: CheckpointHeader,
    /// The driver fault gate's last-seen record (duplicate/order detection).
    pub gate_last: Option<ProbeRecord>,
    /// The driver fault gate's counters at snapshot time.
    pub faults: FaultCounters,
    /// Opaque admit-filter state (e.g. serialized `CaptureStats`); written
    /// and interpreted by the layer that owns the admit filter.
    pub admit_state: Vec<u8>,
    /// One opaque collector snapshot per shard, encoded with
    /// [`Checkpoint::encode_collector`]. `shards.len() == header.workers`.
    pub shards: Vec<Vec<u8>>,
}

impl Checkpoint {
    /// Encode one shard's collector (or its absence — a shard that has not
    /// seen a record yet) as an opaque snapshot blob.
    pub fn encode_collector(collector: Option<&YearCollector>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        match collector {
            Some(c) => {
                w.put_u8(1);
                c.snapshot_to(&mut w);
            }
            None => w.put_u8(0),
        }
        w.into_bytes()
    }

    /// Decode the shard blob written by [`Checkpoint::encode_collector`].
    pub fn decode_collector(blob: &[u8]) -> Result<Option<YearCollector>, CheckpointError> {
        let mut r = SnapReader::new(blob);
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(YearCollector::restore_from(&mut r)?)),
            t => Err(CheckpointError::Corrupt(format!("collector tag {t}"))),
        }
    }

    /// Decode shard `i`'s collector snapshot.
    pub fn shard_collector(&self, shard: usize) -> Result<Option<YearCollector>, CheckpointError> {
        let blob = self
            .shards
            .get(shard)
            .ok_or_else(|| CheckpointError::Corrupt(format!("missing shard {shard}")))?;
        Self::decode_collector(blob)
    }

    /// Serialize to the version-1 on-disk byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u16(self.header.year);
        w.put_u64(self.header.seed);
        w.put_u32(self.header.workers);
        w.put_u64(self.header.cursor);
        w.put_u64(self.header.seq);
        w.put_opt_u64(self.header.origin);
        match &self.gate_last {
            Some(r) => {
                w.put_u8(1);
                w.put_record(r);
            }
            None => w.put_u8(0),
        }
        w.put_u64(self.faults.records_skipped);
        w.put_u64(self.faults.duplicates_dropped);
        w.put_u64(self.faults.bytes_dropped);
        w.put_u64(self.faults.streams_truncated);
        w.put_bytes(&self.admit_state);
        w.put_u32(self.shards.len() as u32);
        for shard in &self.shards {
            w.put_bytes(shard);
        }
        let payload = w.into_bytes();

        let mut out = Vec::with_capacity(28 + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload_checksum(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parse and verify the on-disk byte layout.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < 28 {
            return Err(CheckpointError::Truncated);
        }
        if bytes[..8] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        let checksum = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
        let payload = &bytes[28..];
        if (payload.len() as u64) != len {
            return Err(CheckpointError::Truncated);
        }
        if payload_checksum(payload) != checksum {
            return Err(CheckpointError::ChecksumMismatch);
        }

        let mut r = SnapReader::new(payload);
        let header = CheckpointHeader {
            year: r.take_u16()?,
            seed: r.take_u64()?,
            workers: r.take_u32()?,
            cursor: r.take_u64()?,
            seq: r.take_u64()?,
            origin: r.take_opt_u64()?,
        };
        let gate_last = match r.take_u8()? {
            0 => None,
            1 => Some(r.take_record()?),
            t => return Err(CheckpointError::Corrupt(format!("gate tag {t}"))),
        };
        let faults = FaultCounters {
            records_skipped: r.take_u64()?,
            duplicates_dropped: r.take_u64()?,
            bytes_dropped: r.take_u64()?,
            streams_truncated: r.take_u64()?,
        };
        let admit_state = r.take_bytes()?.to_vec();
        let shard_count = r.take_u32()? as usize;
        if shard_count != header.workers as usize {
            return Err(CheckpointError::Corrupt(format!(
                "shard section count {shard_count} != header workers {}",
                header.workers
            )));
        }
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            shards.push(r.take_bytes()?.to_vec());
        }
        Ok(Self {
            header,
            gate_last,
            faults,
            admit_state,
            shards,
        })
    }

    /// The rolling checkpoint path for `year` inside `dir`.
    pub fn path_for(dir: &Path, year: u16) -> PathBuf {
        dir.join(format!("checkpoint-year{year}.ckpt"))
    }

    /// Atomically write this checkpoint as the rolling per-year file in
    /// `dir` (created if missing): staged to a `.tmp` sibling, fsynced,
    /// then renamed into place so a crash mid-write can never destroy the
    /// previous checkpoint.
    pub fn write_atomic(&self, dir: &Path) -> Result<PathBuf, CheckpointError> {
        let io_err = |what: &str, path: &Path, e: std::io::Error| {
            CheckpointError::Io(format!("{what} {}: {e}", path.display()))
        };
        fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, e))?;
        let path = Self::path_for(dir, self.header.year);
        let tmp = path.with_extension("ckpt.tmp");
        let bytes = self.to_bytes();
        {
            let mut file = fs::File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
            file.write_all(&bytes)
                .map_err(|e| io_err("write", &tmp, e))?;
            file.sync_all().map_err(|e| io_err("sync", &tmp, e))?;
        }
        fs::rename(&tmp, &path).map_err(|e| io_err("rename", &tmp, e))?;
        Ok(path)
    }

    /// Load the rolling checkpoint for `year` from `dir`, if one exists.
    pub fn load_latest(dir: &Path, year: u16) -> Result<Option<Self>, CheckpointError> {
        let path = Self::path_for(dir, year);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(CheckpointError::Io(format!("read {}: {e}", path.display())));
            }
        };
        Self::from_bytes(&bytes).map(Some)
    }

    /// Check that this checkpoint belongs to the run described by
    /// `(year, seed, workers)`; a mismatch on any field is a typed error
    /// rather than a silently wrong resume.
    pub fn validate(&self, year: u16, seed: u64, workers: usize) -> Result<(), CheckpointError> {
        if self.header.year != year {
            return Err(CheckpointError::Mismatch {
                field: "year",
                expected: u64::from(year),
                found: u64::from(self.header.year),
            });
        }
        if self.header.seed != seed {
            return Err(CheckpointError::Mismatch {
                field: "seed",
                expected: seed,
                found: self.header.seed,
            });
        }
        if self.header.workers as usize != workers {
            return Err(CheckpointError::Mismatch {
                field: "workers",
                expected: workers as u64,
                found: u64::from(self.header.workers),
            });
        }
        Ok(())
    }
}

/// FxHash of a payload — the checkpoint integrity checksum. FxHash is
/// seedless and process-independent, so a checkpoint written by one process
/// verifies in any other.
fn payload_checksum(payload: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(payload);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(ts: u64) -> ProbeRecord {
        ProbeRecord {
            ts_micros: ts,
            src_ip: Ipv4Address(0x0a00_0001),
            dst_ip: Ipv4Address(0x0b00_0002),
            src_port: 40_000,
            dst_port: 443,
            seq: 7,
            ip_id: 54_321,
            ttl: 55,
            flags: TcpFlags::SYN,
            window: 1024,
        }
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            header: CheckpointHeader {
                year: 2020,
                seed: 0x5359_4e5f_5343,
                workers: 3,
                cursor: 123_456,
                seq: 9,
                origin: Some(1_000_000),
            },
            gate_last: Some(record(42)),
            faults: FaultCounters {
                records_skipped: 1,
                duplicates_dropped: 2,
                bytes_dropped: 3,
                streams_truncated: 4,
            },
            admit_state: vec![9, 8, 7],
            shards: vec![vec![0], vec![0], vec![0]],
        }
    }

    #[test]
    fn codec_round_trips_every_primitive() {
        let mut w = SnapWriter::new();
        w.put_u8(0xab);
        w.put_u16(0xbeef);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-1234.5678);
        w.put_opt_u64(None);
        w.put_opt_u64(Some(77));
        w.put_bytes(b"blob");
        w.put_record(&record(5));
        w.put_tool(ToolKind::Unicorn);
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 0xab);
        assert_eq!(r.take_u16().unwrap(), 0xbeef);
        assert_eq!(r.take_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_f64().unwrap(), -1234.5678);
        assert_eq!(r.take_opt_u64().unwrap(), None);
        assert_eq!(r.take_opt_u64().unwrap(), Some(77));
        assert_eq!(r.take_bytes().unwrap(), b"blob");
        assert_eq!(r.take_record().unwrap(), record(5));
        assert_eq!(r.take_tool().unwrap(), ToolKind::Unicorn);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.take_u8(), Err(CheckpointError::Truncated));
    }

    #[test]
    fn tool_codes_round_trip_all_variants() {
        for tool in [
            ToolKind::Zmap,
            ToolKind::Masscan,
            ToolKind::Nmap,
            ToolKind::Mirai,
            ToolKind::Unicorn,
            ToolKind::Custom,
        ] {
            assert_eq!(tool_from_code(tool_code(tool)).unwrap(), tool);
        }
        assert!(matches!(
            tool_from_code(6),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn checkpoint_bytes_round_trip() {
        let ck = sample();
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.header, ck.header);
        assert_eq!(back.gate_last, ck.gate_last);
        assert_eq!(back.faults, ck.faults);
        assert_eq!(back.admit_state, ck.admit_state);
        assert_eq!(back.shards, ck.shards);
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let ck = Checkpoint {
            header: CheckpointHeader {
                year: 2015,
                seed: 0,
                workers: 1,
                cursor: 0,
                seq: 0,
                origin: None,
            },
            gate_last: None,
            faults: FaultCounters::default(),
            admit_state: Vec::new(),
            shards: vec![Checkpoint::encode_collector(None)],
        };
        let back = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(back.header, ck.header);
        assert_eq!(back.gate_last, None);
        assert!(back.shard_collector(0).unwrap().is_none());
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = sample().to_bytes();

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(
            Checkpoint::from_bytes(&bad_magic),
            Err(CheckpointError::BadMagic)
        );

        let mut bad_version = bytes.clone();
        bad_version[8] = 0xfe;
        assert!(matches!(
            Checkpoint::from_bytes(&bad_version),
            Err(CheckpointError::UnsupportedVersion(_))
        ));

        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert_eq!(
            Checkpoint::from_bytes(&flipped),
            Err(CheckpointError::ChecksumMismatch)
        );

        let torn = &bytes[..bytes.len() - 3];
        assert_eq!(
            Checkpoint::from_bytes(torn),
            Err(CheckpointError::Truncated)
        );
    }

    #[test]
    fn validate_rejects_identity_mismatches() {
        let ck = sample();
        assert_eq!(ck.validate(2020, 0x5359_4e5f_5343, 3), Ok(()));
        assert!(matches!(
            ck.validate(2021, 0x5359_4e5f_5343, 3),
            Err(CheckpointError::Mismatch { field: "year", .. })
        ));
        assert!(matches!(
            ck.validate(2020, 1, 3),
            Err(CheckpointError::Mismatch { field: "seed", .. })
        ));
        assert!(matches!(
            ck.validate(2020, 0x5359_4e5f_5343, 4),
            Err(CheckpointError::Mismatch {
                field: "workers",
                ..
            })
        ));
    }

    #[test]
    fn atomic_write_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "synscan-ckpt-unit-{}-{:p}",
            std::process::id(),
            &MAGIC
        ));
        let ck = sample();
        let path = ck.write_atomic(&dir).unwrap();
        assert_eq!(path, Checkpoint::path_for(&dir, 2020));
        assert!(path.exists());
        assert!(
            !path.with_extension("ckpt.tmp").exists(),
            "tmp renamed away"
        );

        let back = Checkpoint::load_latest(&dir, 2020).unwrap().unwrap();
        assert_eq!(back.header, ck.header);
        assert!(Checkpoint::load_latest(&dir, 2019).unwrap().is_none());

        // A newer snapshot replaces the rolling file.
        let mut newer = sample();
        newer.header.seq = 10;
        newer.header.cursor = 200_000;
        newer.write_atomic(&dir).unwrap();
        let back = Checkpoint::load_latest(&dir, 2020).unwrap().unwrap();
        assert_eq!(back.header.seq, 10);

        std::fs::remove_dir_all(&dir).ok();
    }
}
