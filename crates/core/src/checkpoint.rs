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
//! # File format
//!
//! A `SYNCKPT` envelope ([`crate::envelope`]) around the header fields,
//! gate state, fault counters, admit-state blob and per-shard collector
//! snapshots, written atomically over the rolling per-year file
//! (`checkpoint-year<YYYY>.ckpt`): a torn or bit-flipped file is a typed
//! error, and a kill mid-write leaves the previous checkpoint intact.
//!
//! All multi-byte integers are little-endian. Hash maps are serialized in
//! sorted key order, and every decoder accepts only that order, so a
//! checkpoint it loads re-encodes to the bytes it was read from.

use std::fs;
use std::path::{Path, PathBuf};

use synscan_scanners::traits::ToolKind;
use synscan_wire::stream::FaultCounters;
use synscan_wire::{Ipv4Address, ProbeRecord, TcpFlags};

use crate::analysis::YearCollector;
use crate::envelope::{self, EnvelopeError, CHECKPOINT};

/// Why a checkpoint could not be written, read, or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The envelope was unreadable, or the payload ended mid-structure.
    Envelope(EnvelopeError),
    /// A structurally invalid payload (bad tag, impossible length, …).
    Corrupt(String),
    /// The checkpoint does not belong to this run (wrong year, identity
    /// word, shard count, or an un-replayable cursor).
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
            CheckpointError::Envelope(e) => write!(f, "checkpoint {e}"),
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

impl From<EnvelopeError> for CheckpointError {
    fn from(e: EnvelopeError) -> Self {
        CheckpointError::Envelope(e)
    }
}

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
    pub(crate) fn put_u16(&mut self, v: u16) {
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
    pub(crate) fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_u64(v);
            }
            None => self.put_u8(0),
        }
    }

    /// Append a length-prefixed byte blob.
    pub(crate) fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Append one [`ProbeRecord`], field by field.
    pub(crate) fn put_record(&mut self, r: &ProbeRecord) {
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
    pub(crate) fn put_tool(&mut self, tool: ToolKind) {
        self.put_u8(tool_code(tool));
    }

    /// Append a fault gate's four counters.
    pub(crate) fn put_faults(&mut self, faults: &FaultCounters) {
        self.put_u64(faults.records_skipped);
        self.put_u64(faults.duplicates_dropped);
        self.put_u64(faults.bytes_dropped);
        self.put_u64(faults.streams_truncated);
    }
}

/// Decoder over a snapshot payload; the mirror of [`SnapWriter`]. Every
/// `take_*` fails with [`EnvelopeError::Truncated`] past the end.
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
            return Err(EnvelopeError::Truncated.into());
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
    pub(crate) fn take_u16(&mut self) -> Result<u16, CheckpointError> {
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
    pub(crate) fn take_opt_u64(&mut self) -> Result<Option<u64>, CheckpointError> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.take_u64()?)),
            t => Err(CheckpointError::Corrupt(format!("option tag {t}"))),
        }
    }

    /// Read a length-prefixed byte blob.
    pub(crate) fn take_bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let len = self.take_u64()?;
        if len > self.remaining() as u64 {
            return Err(EnvelopeError::Truncated.into());
        }
        self.take(len as usize)
    }

    /// `Corrupt` unless every byte was read: bytes after the `what` that
    /// should end the payload would be dropped by a re-encode.
    pub fn finish(&self, what: &str) -> Result<(), CheckpointError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CheckpointError::Corrupt(format!(
                "{n} trailing bytes after the {what}"
            ))),
        }
    }

    /// Read a collection length written as `u64`, bounding it by what the
    /// remaining payload could possibly hold (`min_element_bytes` per item)
    /// so a corrupt length cannot trigger a huge allocation.
    pub(crate) fn take_len(&mut self, min_element_bytes: usize) -> Result<usize, CheckpointError> {
        let len = self.take_u64()?;
        self.bound(len, min_element_bytes)
    }

    /// `len` items of at least `min_element_bytes` each, or `Corrupt` when
    /// the remaining payload could not hold them.
    fn bound(&self, len: u64, min_element_bytes: usize) -> Result<usize, CheckpointError> {
        let cap = (self.remaining() / min_element_bytes.max(1)) as u64;
        if len > cap {
            return Err(CheckpointError::Corrupt(format!(
                "length {len} exceeds remaining payload"
            )));
        }
        Ok(len as usize)
    }

    /// Read one [`ProbeRecord`].
    pub(crate) fn take_record(&mut self) -> Result<ProbeRecord, CheckpointError> {
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
    pub(crate) fn take_tool(&mut self) -> Result<ToolKind, CheckpointError> {
        tool_from_code(self.take_u8()?)
    }

    /// Read a fault gate's four counters.
    pub(crate) fn take_faults(&mut self) -> Result<FaultCounters, CheckpointError> {
        Ok(FaultCounters {
            records_skipped: self.take_u64()?,
            duplicates_dropped: self.take_u64()?,
            bytes_dropped: self.take_u64()?,
            streams_truncated: self.take_u64()?,
        })
    }
}

/// Holds the keys of one serialized map to the order its writer emits:
/// strictly ascending. A reader that inserted into a map instead would take a
/// duplicated or misplaced key as last-wins and load a different value than
/// was written, without an error.
#[derive(Debug)]
pub(crate) struct Ascending<K> {
    what: &'static str,
    last: Option<K>,
}

impl<K: Ord + Copy> Ascending<K> {
    /// A check for the map called `what` in error messages.
    pub(crate) fn new(what: &'static str) -> Self {
        Self { what, last: None }
    }

    /// Pass `key` through, or `Corrupt` unless it is above every key before.
    pub(crate) fn admit(&mut self, key: K) -> Result<K, CheckpointError> {
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
    /// The run's identity word: a hash of everything that determines its
    /// stream and its collectors. A resume under another word would
    /// silently replay a different stream.
    pub identity: u64,
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
    /// Public only because the benchmark names it.
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
    pub(crate) fn decode_collector(blob: &[u8]) -> Result<Option<YearCollector>, CheckpointError> {
        let mut r = SnapReader::new(blob);
        let collector = match r.take_u8()? {
            0 => None,
            1 => Some(YearCollector::restore_from(&mut r)?),
            t => return Err(CheckpointError::Corrupt(format!("collector tag {t}"))),
        };
        r.finish("collector")?;
        Ok(collector)
    }

    /// Decode shard `i`'s collector snapshot.
    /// Public only because the benchmark names it.
    pub fn shard_collector(&self, shard: usize) -> Result<Option<YearCollector>, CheckpointError> {
        let blob = self
            .shards
            .get(shard)
            .ok_or_else(|| CheckpointError::Corrupt(format!("missing shard {shard}")))?;
        Self::decode_collector(blob)
    }

    /// Serialize to the sealed on-disk byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u16(self.header.year);
        w.put_u64(self.header.identity);
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
        w.put_faults(&self.faults);
        w.put_bytes(&self.admit_state);
        w.put_u32(self.shards.len() as u32);
        for shard in &self.shards {
            w.put_bytes(shard);
        }
        envelope::seal(&CHECKPOINT, &w.into_bytes())
    }

    /// Verify the envelope and parse the on-disk byte layout.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = SnapReader::new(envelope::open(&CHECKPOINT, bytes)?);
        let header = CheckpointHeader {
            year: r.take_u16()?,
            identity: r.take_u64()?,
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
        let faults = r.take_faults()?;
        let admit_state = r.take_bytes()?.to_vec();
        // Each shard blob carries at least its u64 length prefix.
        let shard_count = r.take_u32()?;
        let shard_count = r.bound(u64::from(shard_count), 8)?;
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
        r.finish("last shard")?;
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
    /// `dir` (created if missing), so a crash mid-write can never destroy
    /// the previous checkpoint.
    pub(crate) fn write_atomic(&self, dir: &Path) -> Result<PathBuf, CheckpointError> {
        fs::create_dir_all(dir).map_err(|e| envelope::io_error("create dir", dir, e))?;
        let path = Self::path_for(dir, self.header.year);
        envelope::write_atomic(&path, &self.to_bytes())?;
        Ok(path)
    }

    /// Load the rolling checkpoint for `year` from `dir`, if one exists.
    pub fn load_latest(dir: &Path, year: u16) -> Result<Option<Self>, CheckpointError> {
        let path = Self::path_for(dir, year);
        match fs::read(&path) {
            Ok(bytes) => Self::from_bytes(&bytes).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(envelope::io_error("read", &path, e).into()),
        }
    }

    /// Check that this checkpoint belongs to the run described by
    /// `(year, identity, workers)`; a mismatch on any field is a typed error
    /// rather than a silently wrong resume.
    pub(crate) fn validate(
        &self,
        year: u16,
        identity: u64,
        workers: usize,
    ) -> Result<(), CheckpointError> {
        let header = &self.header;
        for (field, expected, found) in [
            ("year", u64::from(year), u64::from(header.year)),
            ("identity", identity, header.identity),
            ("workers", workers as u64, u64::from(header.workers)),
        ] {
            if expected != found {
                return Err(CheckpointError::Mismatch {
                    field,
                    expected,
                    found,
                });
            }
        }
        Ok(())
    }
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
                identity: 0x5359_4e5f_5343,
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
        assert_eq!(r.take_u8(), Err(EnvelopeError::Truncated.into()));
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
                identity: 0,
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
    fn validate_rejects_identity_mismatches() {
        let ck = sample();
        assert_eq!(ck.validate(2020, 0x5359_4e5f_5343, 3), Ok(()));
        assert!(matches!(
            ck.validate(2021, 0x5359_4e5f_5343, 3),
            Err(CheckpointError::Mismatch { field: "year", .. })
        ));
        assert!(matches!(
            ck.validate(2020, 1, 3),
            Err(CheckpointError::Mismatch {
                field: "identity",
                ..
            })
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
            &CHECKPOINT
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

    #[test]
    fn corruption_is_detected() {
        // Each kind of envelope damage reaches `from_bytes`' caller as that
        // envelope error (every other cut and flip: `envelope`'s matrix).
        let bytes = sample().to_bytes();
        let envelope_error = |e: EnvelopeError| Err(CheckpointError::Envelope(e));

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(
            Checkpoint::from_bytes(&bad_magic),
            envelope_error(EnvelopeError::BadMagic)
        );

        let mut bad_version = bytes.clone();
        bad_version[8] = 0xfe;
        assert_eq!(
            Checkpoint::from_bytes(&bad_version),
            envelope_error(EnvelopeError::UnsupportedVersion {
                found: 0xfe,
                expected: 3
            })
        );

        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert_eq!(
            Checkpoint::from_bytes(&flipped),
            envelope_error(EnvelopeError::ChecksumMismatch)
        );

        let torn = &bytes[..bytes.len() - 3];
        assert_eq!(
            Checkpoint::from_bytes(torn),
            envelope_error(EnvelopeError::Truncated)
        );
    }

    /// The payload of `ck`, edited by `edit`, then sealed again: what a
    /// writer that is not `to_bytes` could have produced.
    fn resealed(ck: &Checkpoint, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut payload = envelope::open(&CHECKPOINT, &ck.to_bytes())
            .unwrap()
            .to_vec();
        edit(&mut payload);
        envelope::seal(&CHECKPOINT, &payload)
    }

    #[test]
    fn a_shard_count_past_the_payload_is_corrupt_not_an_allocation() {
        let mut ck = sample();
        ck.header.workers = u32::MAX;
        ck.shards.clear();
        // The shard count is the payload's last field.
        let bytes = resealed(&ck, |payload| {
            let at = payload.len() - 4;
            payload[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn bytes_after_the_last_shard_are_corrupt() {
        let bytes = resealed(&sample(), |payload| payload.push(0));
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::Corrupt(what)) => assert!(what.contains("trailing"), "{what}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// A two-shard checkpoint small enough to damage exhaustively, with
    /// heavy-hitter state on: a finished campaign, noise, open scans over
    /// several destinations and ports, and a port whose source set has
    /// spilled to a bitmap.
    fn small_sharded() -> Checkpoint {
        use crate::campaign::CampaignConfig;
        use crate::pipeline::shard_of;
        use crate::sketch::HeavyHitterConfig;

        let cfg = CampaignConfig {
            min_distinct_dests: 5,
            min_rate_pps: 1.0,
            expiry_secs: 3600.0,
            monitored_addresses: 1 << 16,
        };
        let mut shards = [0, 1].map(|_| {
            let mut c = YearCollector::with_origin(2020, cfg, 7.0, 0);
            c.enable_heavy_hitters(HeavyHitterConfig {
                k: 2,
                width: 4,
                depth: 2,
            });
            c
        });
        let probe = |src: u32, dst: u32, port: u16, ts: u64| ProbeRecord {
            src_ip: Ipv4Address(src),
            dst_ip: Ipv4Address(dst),
            dst_port: port,
            ..record(ts)
        };
        let mut first: Vec<ProbeRecord> = (0..8)
            .map(|i| probe(10, 100 + i, 443, u64::from(i) * 250_000))
            .collect();
        // Seventeen one-packet sources of shard 0 on one port (more than an
        // inline source set holds), two of shard 1, each in its own /16.
        let blocks = || (1u32..).map(|block| block << 16 | 20);
        let singles = blocks().filter(|&src| shard_of(Ipv4Address(src), 2) == 0);
        let others = blocks().filter(|&src| shard_of(Ipv4Address(src), 2) == 1);
        for (i, src) in singles.take(17).chain(others.take(2)).enumerate() {
            first.push(probe(src, 300, 23, 3_000_000 + i as u64));
        }
        // An hour later the campaign and the noise have closed, and two
        // sources hold open scans over several destinations and ports.
        let later = 3_700_000_000;
        let second: Vec<ProbeRecord> = (0..3)
            .flat_map(|i| {
                let ts = later + u64::from(i);
                [
                    probe(10, 200 + i, 80 - i as u16, ts),
                    probe(11, 210 - i, 22, ts + 10),
                ]
            })
            .collect();
        let offer = |shards: &mut [YearCollector; 2], records: &[ProbeRecord]| {
            for r in records {
                shards[shard_of(r.src_ip, 2)].offer(r);
            }
        };
        offer(&mut shards, &first);
        shards
            .iter_mut()
            .for_each(|shard| shard.housekeeping(later));
        offer(&mut shards, &second);
        let ck = Checkpoint {
            header: CheckpointHeader {
                year: 2020,
                identity: 7,
                workers: 2,
                cursor: 31,
                seq: 1,
                origin: Some(0),
            },
            gate_last: Some(record(later + 12)),
            faults: FaultCounters::default(),
            admit_state: Vec::new(),
            shards: shards
                .iter()
                .map(|shard| Checkpoint::encode_collector(Some(shard)))
                .collect(),
        };
        let years: Vec<_> = (0..2)
            .map(|shard| {
                ck.shard_collector(shard)
                    .unwrap()
                    .expect("saw records")
                    .finish()
            })
            .collect();
        assert_eq!(years.iter().map(|y| y.campaigns.len()).sum::<usize>(), 1);
        assert!(years
            .iter()
            .all(|y| y.noise.rejected_packets > 0 && y.heavy.is_some()));
        assert!(ck.to_bytes().len() <= 8 << 10);
        ck
    }

    /// The canonical-decode rule: whatever `from_bytes` accepts, with its
    /// admit blob and every shard decoded, re-encodes to exactly its bytes.
    ///
    /// One order this cannot see: inline `IdSet` / `PortSet` members
    /// re-encode in the order they were read, so an unsorted set loads and
    /// re-encodes to the same bytes. `compact::tests` pins that order.
    fn assert_typed_error_or_canonical(sealed: &[u8], what: &str) {
        let Ok(ck) = Checkpoint::from_bytes(sealed) else {
            return;
        };
        let mut admit = crate::pipeline::FilterAdmit(|_: &ProbeRecord| true);
        if crate::pipeline::AdmitState::restore(&mut admit, &ck.admit_state).is_err() {
            return;
        }
        let mut shards = Vec::new();
        for shard in 0..ck.shards.len() {
            match ck.shard_collector(shard) {
                Ok(collector) => shards.push(Checkpoint::encode_collector(collector.as_ref())),
                Err(_) => return,
            }
        }
        let again = Checkpoint { shards, ..ck }.to_bytes();
        assert!(
            again == sealed,
            "{what}: loaded, but re-encodes differently"
        );
    }

    #[test]
    fn resealed_damage_is_a_typed_error_or_decodes_canonically() {
        let ck = small_sharded();
        let payload = envelope::open(&CHECKPOINT, &ck.to_bytes())
            .unwrap()
            .to_vec();
        for cut in 0..payload.len() {
            assert!(
                Checkpoint::from_bytes(&envelope::seal(&CHECKPOINT, &payload[..cut])).is_err(),
                "payload cut at {cut} still loads"
            );
        }
        let mut flipped = payload.clone();
        for bit in 0..payload.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let sealed = envelope::seal(&CHECKPOINT, &flipped);
            assert_typed_error_or_canonical(&sealed, &format!("payload bit {bit}"));
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
