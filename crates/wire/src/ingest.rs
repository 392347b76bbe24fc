//! Zero-copy batched pcap ingest: the line-rate front end of the pipeline.
//!
//! The `Read`-based [`crate::pcap::PcapReader`] allocates and copies a
//! `Vec<u8>` per record — fine for correctness work, but at telescope scale
//! (the paper's decade of captures) the copy-and-allocate loop, not the
//! analysis, is the throughput ceiling. This module replaces it on the hot
//! path with a *mapping*:
//!
//! * [`MappedCapture`] owns one contiguous byte buffer holding the whole
//!   capture (loaded with a single `fs::read`; stdin and pipes are buffered
//!   through [`MappedCapture::from_reader`]). The crate is
//!   `#![forbid(unsafe_code)]`, so the mapping is a fully-buffered region
//!   rather than a raw `mmap(2)` — the access pattern and API are identical,
//!   and a future unsafe-gated mmap backend can slot in behind the same type.
//! * [`PcapSlice`] is a cursor over that mapping yielding borrowed
//!   [`RawFrame`]s — no per-record allocation, no copy; the frame bytes are
//!   `&[u8]` views into the mapping. Its fault taxonomy is byte-identical to
//!   [`crate::pcap::PcapReader`]: same [`PcapError`] variants at the same
//!   stream positions.
//! * [`FrameBatch`] gathers a run of raw frames and decodes the run into
//!   [`ProbeRecord`]s in one pass. The canonical Ethernet/IPv4/TCP probe
//!   frame (14 + 20 + 20 bytes, no options) is decoded by fixed-offset field
//!   extraction — a straight-line, bounds-check-free loop the compiler can
//!   vectorize — with fallback to [`ProbeRecord::from_ethernet`] for frames
//!   with options, padding, or odd link types.
//! * [`MappedPcapStream`] is the policy-aware [`TryRecordStream`] over a
//!   slice, behaviorally identical to the `Read`-based
//!   `telescope::capture::PcapStream` (same batches, same fault counters,
//!   same order-violation census) — proven by the equivalence suite.
//! * [`IngestQueues`] partitions the mapping into record-boundary-aligned
//!   byte ranges and decodes them on one thread per queue, merging the
//!   decoded batches back *in capture order* so the single-consumer
//!   `TryRecordStream` contract (and therefore chaos/checkpoint semantics
//!   downstream) is preserved while header parsing and field extraction run
//!   in parallel.
//!
//! Checksums are *not* verified by default ([`ChecksumPolicy::Trust`]),
//! matching the historical parse path: telescope captures were checksummed
//! by the capture hardware, and synthetic streams are trusted by
//! construction. [`ChecksumPolicy::Verify`] opts into full IPv4 + TCP
//! verification, counting failures as unparseable frames.

use std::io::{self, Read};
use std::path::Path;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

use crate::checksum;
use crate::pcap::{
    header_u32, GlobalHeader, PcapError, GLOBAL_HEADER_LEN, MAX_SNAPLEN, RECORD_HEADER_LEN,
};
use crate::probe::ProbeRecord;
use crate::stream::{
    FaultCounters, FaultPolicy, RecordStream, StreamError, TryRecordStream, BATCH_RECORDS,
};
use crate::tcp::TcpFlags;
use crate::Ipv4Address;

/// How the ingest front end reads a capture. Parsed from the binaries'
/// `--ingest` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestMode {
    /// The streaming `Read`-based reader: O(batch) memory, one allocation
    /// and copy per record. The only mode that can stream an unbounded pipe.
    #[default]
    Read,
    /// The zero-copy mapped reader over a fully-buffered capture, decoding
    /// on `queues` parallel queues (1 = decode on the calling thread).
    /// Stdin and pipes are buffered whole before parsing.
    Mapped {
        /// Decode queues feeding the merger (clamped to at least 1).
        queues: usize,
    },
}

impl core::fmt::Display for IngestMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IngestMode::Read => write!(f, "read"),
            IngestMode::Mapped { queues: 1 } => write!(f, "mmap"),
            IngestMode::Mapped { queues } => write!(f, "mmap:{queues}"),
        }
    }
}

impl core::str::FromStr for IngestMode {
    type Err = String;

    fn from_str(s: &str) -> core::result::Result<Self, Self::Err> {
        match s {
            "read" => Ok(IngestMode::Read),
            "mmap" | "mapped" => Ok(IngestMode::Mapped { queues: 1 }),
            other => {
                if let Some(n) = other
                    .strip_prefix("mmap:")
                    .or_else(|| other.strip_prefix("mapped:"))
                {
                    let queues: usize = n
                        .parse()
                        .map_err(|_| format!("bad queue count in ingest mode {other:?}"))?;
                    if queues == 0 {
                        return Err("ingest queue count must be at least 1".into());
                    }
                    return Ok(IngestMode::Mapped { queues });
                }
                Err(format!(
                    "unknown ingest mode {other:?} (expected read, mmap, or mmap:N)"
                ))
            }
        }
    }
}

/// Whether decoded frames have their IPv4/TCP checksums verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChecksumPolicy {
    /// Skip checksum verification (the default, and the historical parse
    /// behavior): trusted synthetic streams and hardware-checksummed
    /// captures pay nothing for re-verification.
    #[default]
    Trust,
    /// Verify IPv4 header and TCP pseudo-header checksums; frames failing
    /// either are counted as unparseable (non-TCP) and dropped.
    Verify,
}

/// A contiguous, owned in-memory image of a capture file — the "mapping"
/// every zero-copy reader borrows from. Frames yielded by [`PcapSlice`] and
/// [`FrameBatch`] are `&[u8]` views into this buffer, so it must outlive
/// every reader derived from it (the borrow checker enforces exactly that;
/// the multi-queue front end shares it through an [`Arc`] instead).
#[derive(Debug, Clone)]
pub struct MappedCapture {
    bytes: Vec<u8>,
}

impl MappedCapture {
    /// Map a capture file by loading it whole.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self {
            bytes: std::fs::read(path)?,
        })
    }

    /// Buffer a non-seekable source (stdin, a pipe) whole. This is the
    /// documented fallback when a real file path is not available; it trades
    /// the O(batch) memory of the `Read` path for the zero-copy parse.
    pub fn from_reader<R: Read>(mut reader: R) -> io::Result<Self> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        Ok(Self { bytes })
    }

    /// Wrap an already-materialized capture image.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }

    /// The mapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// Unwrap the mapping back into its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Size of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// One captured frame, borrowed from the mapping: the zero-copy counterpart
/// of [`crate::pcap::PcapRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawFrame<'a> {
    /// Timestamp in microseconds since the epoch.
    pub ts_micros: u64,
    /// Original length of the frame on the wire.
    pub orig_len: u32,
    /// Captured bytes — a view into the mapping, never a copy.
    pub data: &'a [u8],
}

/// A cursor over a mapped capture yielding borrowed frames.
///
/// Error-for-error identical to [`crate::pcap::PcapReader`]: the same
/// [`PcapError`] variants surface at the same stream positions, recoverable
/// errors leave the cursor aligned on the next record, and unrecoverable
/// ones lose framing for good.
#[derive(Debug, Clone)]
pub struct PcapSlice<'a> {
    data: &'a [u8],
    cursor: usize,
    end: usize,
    meta: GlobalHeader,
}

impl<'a> PcapSlice<'a> {
    /// Open a mapped capture, parsing and validating the global header.
    pub fn new(data: &'a [u8]) -> Result<Self, PcapError> {
        if data.len() < GLOBAL_HEADER_LEN {
            return Err(PcapError::TruncatedGlobalHeader);
        }
        let mut header = [0u8; GLOBAL_HEADER_LEN];
        header.copy_from_slice(&data[..GLOBAL_HEADER_LEN]);
        let meta = GlobalHeader::parse(&header)?;
        Ok(Self {
            data,
            cursor: GLOBAL_HEADER_LEN,
            end: data.len(),
            meta,
        })
    }

    /// A sub-slice over `[start, end)` byte offsets of the same mapping
    /// (offsets into the full mapped file, so `start` must sit on a record
    /// boundary produced by [`PcapSlice::partition`]).
    pub fn segment(&self, start: usize, end: usize) -> Self {
        debug_assert!(start >= GLOBAL_HEADER_LEN && start <= end && end <= self.data.len());
        Self {
            data: self.data,
            cursor: start,
            end,
            meta: self.meta,
        }
    }

    /// The link type declared in the global header.
    pub fn linktype(&self) -> u32 {
        self.meta.linktype
    }

    /// The decoded global header.
    pub fn header(&self) -> GlobalHeader {
        self.meta
    }

    /// Bytes between the cursor and the end of this slice.
    pub fn remaining(&self) -> usize {
        self.end - self.cursor
    }

    /// Yield the next frame as a borrowed view; `Ok(None)` is a clean end.
    ///
    /// After a [`PcapError::recoverable`] error the cursor is still aligned
    /// on the next record and may be pulled again; after any other error the
    /// framing is lost.
    #[inline]
    pub fn next_frame(&mut self) -> Result<Option<RawFrame<'a>>, PcapError> {
        let remaining = self.end - self.cursor;
        if remaining == 0 {
            return Ok(None);
        }
        if remaining < RECORD_HEADER_LEN {
            self.cursor = self.end;
            return Err(PcapError::TruncatedRecordHeader {
                got: remaining as u32,
            });
        }
        let header = &self.data[self.cursor..self.cursor + RECORD_HEADER_LEN];
        let swapped = self.meta.swapped;
        let ts_sec = u64::from(header_u32(header, 0, swapped));
        let ts_frac = u64::from(header_u32(header, 4, swapped));
        let incl_len = header_u32(header, 8, swapped);
        let orig_len = header_u32(header, 12, swapped);
        self.cursor += RECORD_HEADER_LEN;
        if incl_len > MAX_SNAPLEN {
            return Err(PcapError::SnapLenOverflow(incl_len));
        }
        let avail = self.end - self.cursor;
        if (incl_len as usize) > avail {
            self.cursor = self.end;
            return Err(PcapError::TruncatedRecordBody {
                expected: incl_len,
                got: avail as u32,
            });
        }
        let data = &self.data[self.cursor..self.cursor + incl_len as usize];
        self.cursor += incl_len as usize;
        // The body is consumed either way, so this check runs after the
        // cursor advance: a skip-faults consumer stays aligned.
        if orig_len == 0 && incl_len > 0 {
            return Err(PcapError::ZeroLengthRecord { incl: incl_len });
        }
        let ts_micros = if self.meta.nanos {
            ts_sec * 1_000_000 + ts_frac / 1000
        } else {
            ts_sec * 1_000_000 + ts_frac
        };
        Ok(Some(RawFrame {
            ts_micros,
            orig_len,
            data,
        }))
    }

    /// Walk the record framing without decoding, returning the byte offset
    /// and record count of the longest cleanly-framed prefix. The walk stops
    /// at the first framing fault that loses alignment (torn header or body,
    /// snaplen overflow); zero-length records keep framing and are walked
    /// over.
    fn framed_prefix(&self) -> (usize, u64) {
        let mut off = self.cursor;
        let mut records = 0u64;
        loop {
            let remaining = self.end - off;
            if remaining < RECORD_HEADER_LEN {
                // 0 = clean end; 1-15 = torn header. Either way the walk
                // cannot continue, and `off` is the last good boundary.
                return (off, records);
            }
            let header = &self.data[off..off + RECORD_HEADER_LEN];
            let incl_len = header_u32(header, 8, self.meta.swapped) as usize;
            if incl_len > MAX_SNAPLEN as usize || RECORD_HEADER_LEN + incl_len > remaining {
                return (off, records);
            }
            off += RECORD_HEADER_LEN + incl_len;
            records += 1;
        }
    }

    /// Partition this slice into `parts` byte ranges aligned on record
    /// boundaries, balanced by record count.
    ///
    /// Invariants (the queue front end depends on all three):
    /// * every range starts on a record boundary of the cleanly-framed
    ///   prefix, so every queue but the last parses without framing faults;
    /// * the ranges concatenate, in order, to exactly `[cursor, end)` — no
    ///   byte is dropped or read twice;
    /// * any framing fault (torn tail, snaplen corruption) lies in the
    ///   *last* range, so fault-policy semantics collapse to the sequential
    ///   case at the point the merged stream reaches it.
    pub fn partition(&self, parts: usize) -> Vec<(usize, usize)> {
        let parts = parts.max(1);
        if parts == 1 {
            // One part is the whole slice; skip the framing walk — on a
            // decade-scale capture that walk reads every record header.
            return vec![(self.cursor, self.end)];
        }
        let (clean_end, records) = self.framed_prefix();
        let per = records.div_ceil(parts as u64).max(1);
        let mut ranges = Vec::with_capacity(parts);
        let mut off = self.cursor;
        let mut walked = 0u64;
        let mut start = self.cursor;
        let mut emitted = 0u64;
        while off < clean_end && ranges.len() + 1 < parts {
            let header = &self.data[off..off + RECORD_HEADER_LEN];
            let incl_len = header_u32(header, 8, self.meta.swapped) as usize;
            off += RECORD_HEADER_LEN + incl_len;
            walked += 1;
            if walked - emitted == per {
                ranges.push((start, off));
                start = off;
                emitted = walked;
            }
        }
        ranges.push((start, self.end));
        while ranges.len() < parts {
            ranges.push((self.end, self.end));
        }
        ranges
    }
}

/// Decode one captured frame into a [`ProbeRecord`].
///
/// The canonical probe frame — Ethernet II + option-less IPv4 + option-less
/// TCP, 54 bytes — is decoded by fixed-offset extraction; anything else
/// falls back to the checked per-layer parser, so the result is identical to
/// [`ProbeRecord::from_ethernet`] for every input (the fast-path conditions
/// are exactly the conditions under which the checked parser reads the same
/// fixed offsets).
#[inline]
pub fn decode_frame(
    ts_micros: u64,
    frame: &[u8],
    checksums: ChecksumPolicy,
) -> crate::Result<ProbeRecord> {
    /// Ethernet (14) + IPv4 without options (20) + TCP without options (20).
    const FAST_LEN: usize = 54;
    let record = if frame.len() == FAST_LEN
        && frame[12] == 0x08
        && frame[13] == 0x00 // EtherType IPv4
        && frame[14] == 0x45 // version 4, IHL 5
        && u16::from_be_bytes([frame[16], frame[17]]) == 40 // total_len = exact payload
        && frame[23] == 6 // protocol TCP
        && frame[46] >> 4 == 5
    // data offset 5: no TCP options
    {
        ProbeRecord {
            ts_micros,
            src_ip: Ipv4Address(u32::from_be_bytes([
                frame[26], frame[27], frame[28], frame[29],
            ])),
            dst_ip: Ipv4Address(u32::from_be_bytes([
                frame[30], frame[31], frame[32], frame[33],
            ])),
            src_port: u16::from_be_bytes([frame[34], frame[35]]),
            dst_port: u16::from_be_bytes([frame[36], frame[37]]),
            seq: u32::from_be_bytes([frame[38], frame[39], frame[40], frame[41]]),
            ip_id: u16::from_be_bytes([frame[18], frame[19]]),
            ttl: frame[22],
            flags: TcpFlags(frame[47] & 0x3f),
            window: u16::from_be_bytes([frame[48], frame[49]]),
        }
    } else {
        ProbeRecord::from_ethernet(ts_micros, frame)?
    };
    if matches!(checksums, ChecksumPolicy::Verify) {
        verify_frame_checksums(frame)?;
    }
    Ok(record)
}

/// Verify IPv4 header and TCP pseudo-header checksums of a frame already
/// known to parse as Ethernet/IPv4/TCP.
fn verify_frame_checksums(frame: &[u8]) -> crate::Result<()> {
    use crate::ethernet::HEADER_LEN as ETH;
    let ip = crate::ipv4::Ipv4Packet::new_checked(&frame[ETH..])?;
    if !ip.verify_checksum() {
        return Err(crate::WireError::Checksum);
    }
    let (src, dst) = (ip.src_addr(), ip.dst_addr());
    let segment = ip.payload();
    let mut acc = checksum::pseudo_header_sum(src.0, dst.0, 6, segment.len() as u16);
    acc.add_bytes(segment);
    if acc.value() != 0 {
        return Err(crate::WireError::Checksum);
    }
    Ok(())
}

/// How a [`FrameBatch::gather`] run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherOutcome {
    /// The run reached the requested frame count; more frames may follow.
    Full,
    /// The slice ended cleanly.
    CleanEof,
    /// A framing fault interrupted the run; the frames gathered before it
    /// are valid and already in the batch.
    Fault(PcapError),
}

/// A reusable run of borrowed frames, gathered from a [`PcapSlice`] and
/// decoded into [`ProbeRecord`]s in one pass.
#[derive(Debug, Default)]
pub struct FrameBatch<'a> {
    frames: Vec<RawFrame<'a>>,
}

impl<'a> FrameBatch<'a> {
    /// An empty batch with room for `capacity` frames.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            frames: Vec::with_capacity(capacity),
        }
    }

    /// The gathered frames.
    pub fn frames(&self) -> &[RawFrame<'a>] {
        &self.frames
    }

    /// Drop all gathered frames, keeping the allocation.
    pub fn clear(&mut self) {
        self.frames.clear();
    }

    /// Gather up to `max` frames from the slice, stopping early at end of
    /// stream or the first framing fault. Gathered frames are *appended*.
    pub fn gather(&mut self, slice: &mut PcapSlice<'a>, max: usize) -> GatherOutcome {
        while self.frames.len() < max {
            match slice.next_frame() {
                Ok(Some(frame)) => self.frames.push(frame),
                Ok(None) => return GatherOutcome::CleanEof,
                Err(e) => return GatherOutcome::Fault(e),
            }
        }
        GatherOutcome::Full
    }

    /// Decode every gathered frame in one pass, appending parsed records to
    /// `out`, counting unparseable frames into `non_tcp`, and maintaining
    /// the consecutive-record order census exactly as the streaming reader
    /// does.
    pub fn decode_into(
        &self,
        checksums: ChecksumPolicy,
        out: &mut Vec<ProbeRecord>,
        non_tcp: &mut u64,
        last_ts: &mut u64,
        order_violations: &mut u64,
    ) {
        for frame in &self.frames {
            match decode_frame(frame.ts_micros, frame.data, checksums) {
                Ok(record) => {
                    if record.ts_micros < *last_ts {
                        *order_violations += 1;
                    }
                    *last_ts = record.ts_micros;
                    out.push(record);
                }
                Err(_) => *non_tcp += 1,
            }
        }
    }
}

/// The zero-copy, policy-aware record stream over a mapped capture — the
/// drop-in replacement for the `Read`-based `PcapStream` on the
/// [`TryRecordStream`] side of the pipeline.
///
/// Behavioral contract (held byte-for-byte against the streaming reader by
/// the equivalence suite): same records in the same order, same
/// [`FaultCounters`] under every [`FaultPolicy`], same non-TCP and
/// order-violation counts, same terminal error under [`FaultPolicy::Fail`].
#[derive(Debug)]
pub struct MappedPcapStream<'a> {
    slice: PcapSlice<'a>,
    policy: FaultPolicy,
    checksums: ChecksumPolicy,
    batch_target: usize,
    batch: Vec<ProbeRecord>,
    run: FrameBatch<'a>,
    non_tcp: u64,
    last_ts: u64,
    order_violations: u64,
    faults: FaultCounters,
    error: Option<StreamError>,
    done: bool,
}

/// Frames gathered per decode run: long enough that the fixed-offset decode
/// loop dominates, short enough that a run of borrowed frames stays hot in
/// cache alongside its decoded records.
const RUN_FRAMES: usize = 1024;

impl<'a> MappedPcapStream<'a> {
    /// Open a mapped capture under the strict [`FaultPolicy::Fail`] policy.
    pub fn new(data: &'a [u8]) -> Result<Self, PcapError> {
        Self::with_policy(data, FaultPolicy::Fail)
    }

    /// As [`MappedPcapStream::new`] with an explicit fault policy.
    pub fn with_policy(data: &'a [u8], policy: FaultPolicy) -> Result<Self, PcapError> {
        Ok(Self::over(PcapSlice::new(data)?, policy))
    }

    /// Stream an already-opened slice (used by the queue front end for
    /// segments, which share one global header).
    pub fn over(slice: PcapSlice<'a>, policy: FaultPolicy) -> Self {
        // The owned buffer grows lazily on first use: callers that only
        // ever decode through `try_next_owned` never touch it.
        Self {
            slice,
            policy,
            checksums: ChecksumPolicy::Trust,
            batch_target: BATCH_RECORDS,
            batch: Vec::new(),
            run: FrameBatch::with_capacity(RUN_FRAMES),
            non_tcp: 0,
            last_ts: 0,
            order_violations: 0,
            faults: FaultCounters::default(),
            error: None,
            done: false,
        }
    }

    /// Rebuild a stream over `data` from a [`suspend`]ed state.
    ///
    /// [`suspend`]: MappedPcapStream::suspend
    pub fn resume(data: &'a [u8], state: MappedStreamState) -> Result<Self, PcapError> {
        let base = PcapSlice::new(data)?;
        Ok(Self {
            slice: base.segment(state.cursor, state.end),
            policy: state.policy,
            checksums: state.checksums,
            batch_target: state.batch_target,
            batch: Vec::new(),
            run: FrameBatch::with_capacity(RUN_FRAMES),
            non_tcp: state.non_tcp,
            last_ts: state.last_ts,
            order_violations: state.order_violations,
            faults: state.faults,
            error: state.error,
            done: state.done,
        })
    }

    /// Detach the decode state from the mapping borrow, so an owner of the
    /// mapping can park the stream beside it and [`resume`] later — the
    /// no-self-reference idiom the inline single-queue ingest path uses.
    ///
    /// [`resume`]: MappedPcapStream::resume
    pub fn suspend(self) -> MappedStreamState {
        MappedStreamState {
            cursor: self.slice.cursor,
            end: self.slice.end,
            policy: self.policy,
            checksums: self.checksums,
            batch_target: self.batch_target,
            non_tcp: self.non_tcp,
            last_ts: self.last_ts,
            order_violations: self.order_violations,
            faults: self.faults,
            error: self.error,
            done: self.done,
        }
    }

    /// Set the checksum policy (builder style).
    pub fn checksums(mut self, checksums: ChecksumPolicy) -> Self {
        self.checksums = checksums;
        self
    }

    /// Override the records-per-batch target (tests and benches).
    pub fn batch_target(mut self, target: usize) -> Self {
        self.batch_target = target.max(1);
        self
    }

    /// Frames that were not parseable IPv4/TCP (plus, under
    /// [`ChecksumPolicy::Verify`], frames failing verification).
    pub fn non_tcp_frames(&self) -> u64 {
        self.non_tcp
    }

    /// Consecutive-record timestamp inversions seen so far.
    pub fn order_violations(&self) -> u64 {
        self.order_violations
    }

    /// What the fault policy skipped or cut short on this stream.
    pub fn faults(&self) -> FaultCounters {
        self.faults
    }

    /// The error that ended the stream, if any (only under
    /// [`FaultPolicy::Fail`], and only through the infallible interface).
    pub fn error(&self) -> Option<StreamError> {
        self.error
    }

    /// The link type declared in the capture's global header.
    pub fn linktype(&self) -> u32 {
        self.slice.linktype()
    }

    fn fill(&mut self) -> Result<bool, StreamError> {
        let mut batch = std::mem::take(&mut self.batch);
        let filled = self.fill_into(&mut batch);
        self.batch = batch;
        filled
    }

    /// Decode the next batch into `buf` (cleared first) and hand it back by
    /// value — the owned-batch variant of [`TryRecordStream::try_next_batch`].
    /// The queue front end moves these buffers across threads and recycles
    /// them, so a decoded record is written exactly once and never copied.
    pub fn try_next_owned(
        &mut self,
        mut buf: Vec<ProbeRecord>,
    ) -> Result<Option<Vec<ProbeRecord>>, StreamError> {
        match self.fill_into(&mut buf)? {
            true => Ok(Some(buf)),
            false => Ok(None),
        }
    }

    fn fill_into(&mut self, out: &mut Vec<ProbeRecord>) -> Result<bool, StreamError> {
        if self.done {
            return Ok(false);
        }
        out.clear();
        while out.len() < self.batch_target {
            self.run.clear();
            let budget = RUN_FRAMES.min(self.batch_target - out.len());
            let outcome = self.run.gather(&mut self.slice, budget);
            self.run.decode_into(
                self.checksums,
                out,
                &mut self.non_tcp,
                &mut self.last_ts,
                &mut self.order_violations,
            );
            match outcome {
                GatherOutcome::Full => {}
                GatherOutcome::CleanEof => {
                    self.done = true;
                    break;
                }
                GatherOutcome::Fault(e) => match self.policy {
                    FaultPolicy::Fail => {
                        self.done = true;
                        return Err(StreamError::Pcap(e));
                    }
                    FaultPolicy::SkipRecord if e.recoverable() => {
                        self.faults.records_skipped += 1;
                        self.faults.bytes_dropped += e.bytes_lost();
                    }
                    FaultPolicy::SkipRecord => {
                        self.faults.streams_truncated += 1;
                        self.faults.bytes_dropped += e.bytes_lost();
                        self.done = true;
                        break;
                    }
                    FaultPolicy::StopClean => {
                        self.faults.streams_truncated += 1;
                        self.faults.bytes_dropped += e.bytes_lost();
                        self.done = true;
                        break;
                    }
                },
            }
        }
        Ok(!out.is_empty())
    }
}

impl RecordStream for MappedPcapStream<'_> {
    fn next_batch(&mut self) -> Option<&[ProbeRecord]> {
        match self.fill() {
            Ok(true) => Some(&self.batch),
            Ok(false) => None,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

impl TryRecordStream for MappedPcapStream<'_> {
    fn try_next_batch(&mut self) -> Result<Option<&[ProbeRecord]>, StreamError> {
        match self.fill()? {
            true => Ok(Some(&self.batch)),
            false => Ok(None),
        }
    }
}

/// A [`MappedPcapStream`] with the mapping borrow detached: byte cursor,
/// policies, and every running counter — everything but the `&[u8]` and the
/// scratch buffers. See [`MappedPcapStream::suspend`].
#[derive(Debug, Clone)]
pub struct MappedStreamState {
    cursor: usize,
    end: usize,
    policy: FaultPolicy,
    checksums: ChecksumPolicy,
    batch_target: usize,
    non_tcp: u64,
    last_ts: u64,
    order_violations: u64,
    faults: FaultCounters,
    error: Option<StreamError>,
    done: bool,
}

/// What one decode queue reports when it finishes its segment.
#[derive(Debug)]
struct QueueSummary {
    faults: FaultCounters,
    non_tcp: u64,
    order_violations: u64,
    error: Option<StreamError>,
}

enum QueueMsg {
    Batch(Vec<ProbeRecord>),
    Done(QueueSummary),
}

/// The multi-queue ingest front end: partitions a mapped capture on record
/// boundaries, decodes each partition on its own thread, and yields the
/// decoded batches *in capture order* through the ordinary
/// [`TryRecordStream`] interface.
///
/// Order is preserved because the partitions tile the capture: the merger
/// drains queue 0 to completion, then queue 1, and so on. Queues decode
/// ahead behind a bounded channel whose depth is derived from the
/// [`RUNAHEAD_BYTES`] budget (see [`queue_depth`]): deep enough that a
/// later queue keeps decoding while the merger is still draining an
/// earlier one — run-ahead is exactly the parallelism this front end buys,
/// a rendezvous-shallow channel serializes the queues behind the merger —
/// yet bounded, so memory stays O(budget) however large the capture is.
/// Batches move by value through the channel and spent buffers recycle
/// back to the decoders through a shared pool, so a decoded record is
/// written once and never copied again. Per-source record order — the
/// invariant the sharded pipeline's [`FaultPolicy`] gate depends on — is
/// therefore exactly the capture's, same as sequential ingest.
#[derive(Debug)]
pub struct IngestQueues {
    capture: Arc<MappedCapture>,
    policy: FaultPolicy,
    checksums: ChecksumPolicy,
    queues: usize,
    ranges: Vec<(usize, usize)>,
}

/// Decoded bytes the whole queue set may buffer ahead of the merger.
///
/// Sizing rationale: the merger consumes queues strictly in capture order,
/// so every queue after the current one makes progress *only* into its
/// channel buffer. The old fixed depth of 4 batches (~2 MiB decoded) meant
/// later queues filled their channels in microseconds and then sat blocked
/// — the whole decode degenerated to sequential, plus a per-batch copy and
/// a thread rendezvous per hand-off (measured 2.7× slower than the
/// single-stream mapped reader). 64 MiB of run-ahead lets each queue of a
/// typical multi-queue split decode a large fraction of its segment before
/// ever blocking, which is what actually overlaps the work.
pub const RUNAHEAD_BYTES: usize = 64 << 20;

/// Per-queue channel depth (in batches) for a `queues`-way split: the
/// shared [`RUNAHEAD_BYTES`] budget divided evenly, floored at two batches
/// so a queue can always overlap one decode with one hand-off.
pub fn queue_depth(queues: usize) -> usize {
    let batch_bytes = (BATCH_RECORDS * core::mem::size_of::<ProbeRecord>()).max(1);
    (RUNAHEAD_BYTES / queues.max(1) / batch_bytes).max(2)
}

/// Spent batch buffers on their way back to the decode threads. Capacity
/// recycles through here instead of being freed and re-grown per batch;
/// the population is naturally bounded by the channel depths (a buffer is
/// either in a channel, in the merger's hands, or parked here). Distinct
/// from [`crate::stream::BatchPool`], which recycles inside one thread.
type RecycledBatches = Arc<Mutex<Vec<Vec<ProbeRecord>>>>;

impl IngestQueues {
    /// Plan a right-sized multi-queue ingest over a shared mapping: the
    /// requested queue count is clamped to the machine's available
    /// parallelism, because queues past the core count cannot overlap any
    /// work — they only add hand-off and scheduling cost (on a one-core
    /// box, the unclamped 4-queue decode measured 2.7× slower than the
    /// single stream). A clamp to one queue decodes *inline*, with no
    /// threads at all. Fails only if the global header does not parse (no
    /// framing to partition).
    pub fn new(
        capture: Arc<MappedCapture>,
        queues: usize,
        policy: FaultPolicy,
    ) -> Result<Self, PcapError> {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        Self::exact(capture, queues.max(1).min(cores), policy)
    }

    /// Plan exactly `queues` decode queues, even past the machine's
    /// parallelism. The equivalence suite uses this to exercise the
    /// multi-queue merge paths on any box; production callers want the
    /// right-sizing of [`IngestQueues::new`].
    pub fn exact(
        capture: Arc<MappedCapture>,
        queues: usize,
        policy: FaultPolicy,
    ) -> Result<Self, PcapError> {
        let queues = queues.max(1);
        let slice = PcapSlice::new(capture.as_slice())?;
        let ranges = slice.partition(queues);
        Ok(Self {
            capture,
            policy,
            checksums: ChecksumPolicy::Trust,
            queues,
            ranges,
        })
    }

    /// Set the checksum policy (builder style).
    pub fn checksums(mut self, checksums: ChecksumPolicy) -> Self {
        self.checksums = checksums;
        self
    }

    /// The effective queue count (after [`IngestQueues::new`]'s clamp).
    pub fn queues(&self) -> usize {
        self.queues
    }

    /// The planned record-boundary-aligned byte ranges, one per queue.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Start the planned ingest and return the merged, ordered stream: one
    /// decode thread per queue, or the threadless inline decoder when the
    /// plan collapsed to a single queue.
    pub fn spawn(self) -> ParallelIngest {
        if self.queues == 1 {
            let (start, end) = self.ranges[0];
            let state = MappedPcapStream::over(
                // The planner parsed this header in `new`, so the segment
                // bounds are valid; re-deriving the slice per batch is how
                // the inline path avoids a self-referential borrow.
                PcapSlice::new(self.capture.as_slice())
                    .expect("header parsed at plan time")
                    .segment(start, end),
                self.policy,
            )
            .checksums(self.checksums)
            .suspend();
            return ParallelIngest {
                backend: IngestBackend::Inline(InlineIngest {
                    capture: self.capture,
                    state: Some(state),
                    batch: Vec::new(),
                }),
            };
        }
        let mut receivers = Vec::with_capacity(self.queues);
        let mut workers = Vec::with_capacity(self.queues);
        let depth = queue_depth(self.queues);
        let pool: RecycledBatches = Arc::new(Mutex::new(Vec::new()));
        for &(start, end) in &self.ranges {
            let (tx, rx) = mpsc::sync_channel::<QueueMsg>(depth);
            let capture = Arc::clone(&self.capture);
            let pool = Arc::clone(&pool);
            let (policy, checksums) = (self.policy, self.checksums);
            let handle = thread::spawn(move || {
                let slice = match PcapSlice::new(capture.as_slice()) {
                    Ok(slice) => slice.segment(start, end),
                    Err(e) => {
                        // The planner already parsed this header; this arm
                        // is unreachable but must not panic the worker.
                        let _ = tx.send(QueueMsg::Done(QueueSummary {
                            faults: FaultCounters::default(),
                            non_tcp: 0,
                            order_violations: 0,
                            error: Some(StreamError::Pcap(e)),
                        }));
                        return;
                    }
                };
                let mut stream = MappedPcapStream::over(slice, policy).checksums(checksums);
                let mut error = None;
                loop {
                    let buf = pool
                        .lock()
                        .map(|mut parked| parked.pop())
                        .unwrap_or_default()
                        .unwrap_or_else(|| Vec::with_capacity(BATCH_RECORDS));
                    match stream.try_next_owned(buf) {
                        Ok(Some(batch)) => {
                            if tx.send(QueueMsg::Batch(batch)).is_err() {
                                return; // merger dropped; stop decoding
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            error = Some(e);
                            break;
                        }
                    }
                }
                let _ = tx.send(QueueMsg::Done(QueueSummary {
                    faults: stream.faults(),
                    non_tcp: stream.non_tcp_frames(),
                    order_violations: stream.order_violations(),
                    error,
                }));
            });
            receivers.push(rx);
            workers.push(handle);
        }
        ParallelIngest {
            backend: IngestBackend::Threaded(ThreadedIngest {
                receivers,
                workers,
                pool,
                current_queue: 0,
                batch: Vec::new(),
                last_ts: None,
                at_boundary: false,
                non_tcp: 0,
                order_violations: 0,
                faults: FaultCounters::default(),
                error: None,
                done: false,
            }),
        }
    }
}

/// The merged, capture-ordered stream over an [`IngestQueues`] plan.
///
/// Implements [`TryRecordStream`] with the exact single-stream semantics:
/// batches arrive in capture order, fault counters aggregate across queues,
/// and the consecutive-record order census accounts for queue boundaries
/// (the one comparison per boundary the per-queue censuses cannot see).
/// When the plan collapsed to a single queue this is the threadless inline
/// decoder — same interface, same bytes, no hand-off cost.
#[derive(Debug)]
pub struct ParallelIngest {
    backend: IngestBackend,
}

#[derive(Debug)]
enum IngestBackend {
    Inline(InlineIngest),
    Threaded(ThreadedIngest),
}

/// The single-queue degenerate case: decode on the consumer's own thread.
/// The stream state is held [`suspend`]ed beside the owned mapping and the
/// borrow is re-derived per batch, which is cheap (one 24-byte header
/// parse) and avoids a self-referential struct.
///
/// [`suspend`]: MappedPcapStream::suspend
#[derive(Debug)]
struct InlineIngest {
    capture: Arc<MappedCapture>,
    state: Option<MappedStreamState>,
    batch: Vec<ProbeRecord>,
}

impl InlineIngest {
    fn fill(&mut self) -> Result<bool, StreamError> {
        let mut state = self.state.take().expect("inline state always parked");
        let mut stream = match MappedPcapStream::resume(self.capture.as_slice(), state.clone()) {
            Ok(stream) => stream,
            Err(e) => {
                // Unreachable (the header parsed at plan time), but keep
                // the typed-error contract rather than panicking.
                state.done = true;
                state.error = Some(StreamError::Pcap(e));
                self.state = Some(state);
                return Err(StreamError::Pcap(e));
            }
        };
        let mut batch = std::mem::take(&mut self.batch);
        let filled = stream.fill_into(&mut batch);
        self.batch = batch;
        // Sticky, like `ThreadedIngest::fill`: `error()` keeps what
        // `try_next_batch` returned.
        if let Err(e) = filled {
            stream.error = Some(e);
        }
        self.state = Some(stream.suspend());
        filled
    }

    fn view(&self) -> (&MappedStreamState, &[ProbeRecord]) {
        (
            self.state.as_ref().expect("inline state always parked"),
            &self.batch,
        )
    }
}

#[derive(Debug)]
struct ThreadedIngest {
    receivers: Vec<mpsc::Receiver<QueueMsg>>,
    workers: Vec<thread::JoinHandle<()>>,
    pool: RecycledBatches,
    current_queue: usize,
    batch: Vec<ProbeRecord>,
    /// Timestamp of the last record delivered to the consumer, across queue
    /// boundaries (`None` until the first record).
    last_ts: Option<u64>,
    /// True when the next batch is the first since a queue switch, so its
    /// leading record must be order-checked against `last_ts`.
    at_boundary: bool,
    non_tcp: u64,
    order_violations: u64,
    faults: FaultCounters,
    error: Option<StreamError>,
    done: bool,
}

impl ParallelIngest {
    /// Frames that were not parseable IPv4/TCP, across all queues drained
    /// so far.
    pub fn non_tcp_frames(&self) -> u64 {
        match &self.backend {
            IngestBackend::Inline(inline) => inline.view().0.non_tcp,
            IngestBackend::Threaded(threaded) => threaded.non_tcp,
        }
    }

    /// Consecutive-record timestamp inversions, including queue-boundary
    /// comparisons.
    pub fn order_violations(&self) -> u64 {
        match &self.backend {
            IngestBackend::Inline(inline) => inline.view().0.order_violations,
            IngestBackend::Threaded(threaded) => threaded.order_violations,
        }
    }

    /// Aggregated fault tally of all queues drained so far.
    pub fn faults(&self) -> FaultCounters {
        match &self.backend {
            IngestBackend::Inline(inline) => inline.view().0.faults,
            IngestBackend::Threaded(threaded) => threaded.faults,
        }
    }

    /// The error that ended the stream, if any (also surfaced through
    /// [`TryRecordStream::try_next_batch`] under [`FaultPolicy::Fail`]).
    pub fn error(&self) -> Option<StreamError> {
        match &self.backend {
            IngestBackend::Inline(inline) => inline.view().0.error,
            IngestBackend::Threaded(threaded) => threaded.error,
        }
    }
}

impl ThreadedIngest {
    fn fill(&mut self) -> Result<bool, StreamError> {
        if self.done {
            return Ok(false);
        }
        while self.current_queue < self.receivers.len() {
            match self.receivers[self.current_queue].recv() {
                Ok(QueueMsg::Batch(batch)) => {
                    debug_assert!(!batch.is_empty(), "streams never yield empty batches");
                    if self.at_boundary {
                        // The queue-boundary comparison: inside a queue the
                        // worker's own census counts every consecutive pair
                        // (its local last_ts persists across its batches),
                        // but a worker starts at last_ts = 0, so the pair
                        // spanning the queue switch is visible only here.
                        if let (Some(last), Some(first)) = (self.last_ts, batch.first()) {
                            if first.ts_micros < last {
                                self.order_violations += 1;
                            }
                        }
                        self.at_boundary = false;
                    }
                    self.last_ts = batch.last().map(|r| r.ts_micros).or(self.last_ts);
                    let spent = std::mem::replace(&mut self.batch, batch);
                    if spent.capacity() > 0 {
                        if let Ok(mut parked) = self.pool.lock() {
                            parked.push(spent);
                        }
                    }
                    return Ok(true);
                }
                Ok(QueueMsg::Done(summary)) => {
                    self.faults.absorb(&summary.faults);
                    self.non_tcp += summary.non_tcp;
                    self.order_violations += summary.order_violations;
                    if let Some(e) = summary.error {
                        self.done = true;
                        self.error = Some(e);
                        return Err(e);
                    }
                    self.current_queue += 1;
                    self.at_boundary = true;
                }
                Err(_) => {
                    // Worker died without a summary (panic); surface as a
                    // truncation rather than hanging or panicking the
                    // consumer.
                    self.done = true;
                    let e = StreamError::Truncated { records_seen: 0 };
                    self.error = Some(e);
                    return Err(e);
                }
            }
        }
        self.done = true;
        Ok(false)
    }
}

impl TryRecordStream for ParallelIngest {
    fn try_next_batch(&mut self) -> Result<Option<&[ProbeRecord]>, StreamError> {
        match &mut self.backend {
            IngestBackend::Inline(inline) => match inline.fill()? {
                true => Ok(Some(&inline.batch)),
                false => Ok(None),
            },
            IngestBackend::Threaded(threaded) => match threaded.fill()? {
                true => Ok(Some(&threaded.batch)),
                false => Ok(None),
            },
        }
    }
}

impl Drop for ThreadedIngest {
    fn drop(&mut self) {
        // Unblock producers by dropping the receivers, then reap.
        self.receivers.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::{PcapReader, PcapWriter, LINKTYPE_ETHERNET};
    use crate::probe::SynFrameBuilder;
    use std::io::Cursor;

    fn record(i: u64) -> ProbeRecord {
        ProbeRecord {
            ts_micros: 1_000 + i,
            src_ip: Ipv4Address::new(198, 51, (i % 251) as u8, (i % 241) as u8),
            dst_ip: Ipv4Address::new(192, 0, 2, (i % 97) as u8),
            src_port: 40_000 + (i % 1000) as u16,
            dst_port: [80u16, 443, 23, 3389][(i % 4) as usize],
            seq: (i as u32).wrapping_mul(2_654_435_761),
            ip_id: 54_321,
            ttl: 51,
            flags: TcpFlags::SYN,
            window: 1024,
        }
    }

    fn capture_of(records: &[ProbeRecord]) -> Vec<u8> {
        let mut writer = PcapWriter::new(Vec::new(), LINKTYPE_ETHERNET).unwrap();
        let builder = SynFrameBuilder::default();
        let mut buf = vec![0u8; ProbeRecord::frame_len()];
        for r in records {
            builder.build_into(r, &mut buf);
            writer.write_record(r.ts_micros, &buf).unwrap();
        }
        writer.into_inner().unwrap()
    }

    fn drain(stream: &mut impl TryRecordStream) -> Result<Vec<ProbeRecord>, StreamError> {
        let mut out = Vec::new();
        while let Some(batch) = stream.try_next_batch()? {
            out.extend_from_slice(batch);
        }
        Ok(out)
    }

    #[test]
    fn slice_reader_matches_read_reader_frame_for_frame() {
        let records: Vec<ProbeRecord> = (0..300).map(record).collect();
        let bytes = capture_of(&records);
        let mut reader = PcapReader::new(Cursor::new(bytes.clone())).unwrap();
        let mut slice = PcapSlice::new(&bytes).unwrap();
        assert_eq!(slice.linktype(), LINKTYPE_ETHERNET);
        loop {
            let a = reader.next_record().unwrap();
            let b = slice.next_frame().unwrap();
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.ts_micros, b.ts_micros);
                    assert_eq!(a.orig_len, b.orig_len);
                    assert_eq!(a.data.as_slice(), b.data);
                }
                (None, None) => break,
                other => panic!("readers disagree on stream end: {other:?}"),
            }
        }
    }

    #[test]
    fn fast_path_decode_equals_checked_parser() {
        // Canonical frames take the fixed-offset path; the result must be
        // field-for-field what the checked parser produces.
        let builder = SynFrameBuilder::default();
        for i in 0..64 {
            let mut r = record(i);
            r.flags =
                TcpFlags([TcpFlags::SYN.0, TcpFlags::SYN_ACK.0, 0x00, 0x3f][(i % 4) as usize]);
            let frame = builder.build(&r);
            let fast = decode_frame(r.ts_micros, &frame, ChecksumPolicy::Trust).unwrap();
            let checked = ProbeRecord::from_ethernet(r.ts_micros, &frame).unwrap();
            assert_eq!(fast, checked);
            assert_eq!(fast, r);
        }
    }

    #[test]
    fn oversized_frames_fall_back_to_the_checked_parser() {
        // A frame with two trailing padding bytes misses the fast-path
        // length gate but still parses via the fallback (total_len bounds
        // the payload).
        let r = record(7);
        let mut frame = SynFrameBuilder::default().build(&r);
        frame.extend_from_slice(&[0, 0]);
        let decoded = decode_frame(r.ts_micros, &frame, ChecksumPolicy::Trust).unwrap();
        assert_eq!(decoded, r);
        // And a non-IPv4 frame is rejected by both paths.
        let mut v6 = SynFrameBuilder::default().build(&r);
        v6[12] = 0x86;
        v6[13] = 0xdd;
        assert!(decode_frame(0, &v6, ChecksumPolicy::Trust).is_err());
    }

    #[test]
    fn checksum_verify_mode_rejects_corrupted_frames() {
        let r = record(3);
        let mut frame = SynFrameBuilder::default().build(&r);
        assert!(decode_frame(r.ts_micros, &frame, ChecksumPolicy::Verify).is_ok());
        frame[40] ^= 0x10; // flip a bit in the TCP sequence number
        assert_eq!(
            decode_frame(r.ts_micros, &frame, ChecksumPolicy::Verify),
            Err(crate::WireError::Checksum)
        );
        // Trust mode takes the frame as-is (the historical behavior).
        assert!(decode_frame(r.ts_micros, &frame, ChecksumPolicy::Trust).is_ok());
    }

    #[test]
    fn mapped_stream_yields_the_capture() {
        let records: Vec<ProbeRecord> = (0..5000).map(record).collect();
        let bytes = capture_of(&records);
        let mut stream = MappedPcapStream::new(&bytes).unwrap();
        assert_eq!(drain(&mut stream).unwrap(), records);
        assert_eq!(stream.non_tcp_frames(), 0);
        assert_eq!(stream.order_violations(), 0);
        assert!(!stream.faults().any());
    }

    #[test]
    fn torn_header_tail_carries_its_byte_count() {
        let mut bytes = capture_of(&(0..3).map(record).collect::<Vec<_>>());
        bytes.extend_from_slice(&[0u8; 11]); // 11 of 16 header bytes
        let mut slice = PcapSlice::new(&bytes).unwrap();
        for _ in 0..3 {
            assert!(slice.next_frame().unwrap().is_some());
        }
        assert_eq!(
            slice.next_frame().unwrap_err(),
            PcapError::TruncatedRecordHeader { got: 11 }
        );

        // Under the skip policy the tear's bytes land in the counters.
        let mut stream = MappedPcapStream::with_policy(&bytes, FaultPolicy::SkipRecord).unwrap();
        let parsed = drain(&mut stream).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(stream.faults().streams_truncated, 1);
        assert_eq!(stream.faults().bytes_dropped, 11);
    }

    #[test]
    fn partition_tiles_the_capture_on_record_boundaries() {
        let records: Vec<ProbeRecord> = (0..100).map(record).collect();
        let bytes = capture_of(&records);
        let slice = PcapSlice::new(&bytes).unwrap();
        for parts in [1usize, 2, 3, 7, 100, 128] {
            let ranges = slice.partition(parts);
            assert_eq!(ranges.len(), parts);
            assert_eq!(ranges[0].0, GLOBAL_HEADER_LEN);
            assert_eq!(ranges.last().unwrap().1, bytes.len());
            let mut total = 0usize;
            for window in ranges.windows(2) {
                assert_eq!(window[0].1, window[1].0, "ranges tile with no gaps");
            }
            for &(start, end) in &ranges {
                let mut seg = slice.segment(start, end);
                let mut n = 0;
                while seg.next_frame().unwrap().is_some() {
                    n += 1;
                }
                total += n;
            }
            assert_eq!(total, 100, "{parts} parts re-parse every record");
        }
    }

    #[test]
    fn partition_keeps_the_fault_in_the_last_range() {
        let mut bytes = capture_of(&(0..40).map(record).collect::<Vec<_>>());
        bytes.truncate(bytes.len() - 5); // tear the last record's body
        let slice = PcapSlice::new(&bytes).unwrap();
        let ranges = slice.partition(4);
        for &(start, end) in &ranges[..3] {
            let mut seg = slice.segment(start, end);
            while seg.next_frame().expect("early ranges are clean").is_some() {}
        }
        let mut last = slice.segment(ranges[3].0, ranges[3].1);
        let mut saw_fault = false;
        loop {
            match last.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    assert!(matches!(e, PcapError::TruncatedRecordBody { .. }));
                    saw_fault = true;
                    break;
                }
            }
        }
        assert!(saw_fault, "the tear replays in the final range");
    }

    #[test]
    fn parallel_ingest_equals_sequential_order_and_counters() {
        let records: Vec<ProbeRecord> = (0..10_000).map(record).collect();
        let bytes = capture_of(&records);
        for queues in [1usize, 2, 3, 8] {
            let capture = Arc::new(MappedCapture::from_bytes(bytes.clone()));
            let mut merged = IngestQueues::exact(capture, queues, FaultPolicy::Fail)
                .unwrap()
                .spawn();
            assert_eq!(drain(&mut merged).unwrap(), records, "queues={queues}");
            assert_eq!(merged.non_tcp_frames(), 0);
            assert_eq!(merged.order_violations(), 0);
            assert!(!merged.faults().any());
        }
    }

    #[test]
    fn parallel_ingest_counts_queue_boundary_order_violations() {
        // Records in *descending* time order: every consecutive pair is a
        // violation (n-1 of them), wherever the queue boundaries fall.
        let records: Vec<ProbeRecord> = (0..500)
            .map(|i| ProbeRecord {
                ts_micros: 1_000_000 - i,
                ..record(i)
            })
            .collect();
        let bytes = capture_of(&records);
        let mut sequential = MappedPcapStream::new(&bytes).unwrap();
        drain(&mut sequential).unwrap();
        assert_eq!(sequential.order_violations(), 499);
        for queues in [2usize, 3, 5] {
            let capture = Arc::new(MappedCapture::from_bytes(bytes.clone()));
            let mut merged = IngestQueues::exact(capture, queues, FaultPolicy::Fail)
                .unwrap()
                .spawn();
            drain(&mut merged).unwrap();
            assert_eq!(
                merged.order_violations(),
                499,
                "queues={queues}: boundary comparisons are accounted"
            );
        }
    }

    #[test]
    fn parallel_ingest_surfaces_the_tail_fault_under_fail() {
        let mut bytes = capture_of(&(0..200).map(record).collect::<Vec<_>>());
        bytes.truncate(bytes.len() - 9);
        let capture = Arc::new(MappedCapture::from_bytes(bytes));
        let mut merged = IngestQueues::exact(capture, 3, FaultPolicy::Fail)
            .unwrap()
            .spawn();
        let err = drain(&mut merged).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Pcap(PcapError::TruncatedRecordBody { .. })
        ));
    }

    #[test]
    fn parallel_ingest_skip_policy_keeps_the_clean_prefix() {
        let records: Vec<ProbeRecord> = (0..200).map(record).collect();
        let mut bytes = capture_of(&records);
        bytes.truncate(bytes.len() - 9);
        let capture = Arc::new(MappedCapture::from_bytes(bytes));
        let mut merged = IngestQueues::exact(capture, 4, FaultPolicy::SkipRecord)
            .unwrap()
            .spawn();
        let parsed = drain(&mut merged).unwrap();
        assert_eq!(parsed, records[..199].to_vec());
        assert_eq!(merged.faults().streams_truncated, 1);
    }

    #[test]
    fn empty_capture_yields_nothing_on_every_path() {
        let bytes = capture_of(&[]);
        let mut stream = MappedPcapStream::new(&bytes).unwrap();
        assert!(drain(&mut stream).unwrap().is_empty());
        let capture = Arc::new(MappedCapture::from_bytes(bytes));
        let mut merged = IngestQueues::exact(capture, 4, FaultPolicy::Fail)
            .unwrap()
            .spawn();
        assert!(drain(&mut merged).unwrap().is_empty());
    }

    #[test]
    fn new_right_sizes_to_available_parallelism() {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        let bytes = capture_of(&(0..100).map(record).collect::<Vec<_>>());
        let capture = Arc::new(MappedCapture::from_bytes(bytes));
        let planned = IngestQueues::new(Arc::clone(&capture), 4, FaultPolicy::Fail).unwrap();
        assert_eq!(planned.queues(), 4.min(cores));
        assert_eq!(planned.ranges().len(), 4.min(cores));
        let exact = IngestQueues::exact(capture, 4, FaultPolicy::Fail).unwrap();
        assert_eq!(exact.queues(), 4);
    }

    #[test]
    fn inline_single_queue_equals_sequential_counters_and_faults() {
        // Clean capture: the threadless inline backend must reproduce the
        // sequential stream exactly, counters included.
        let records: Vec<ProbeRecord> = (0..5_000).map(record).collect();
        let bytes = capture_of(&records);
        let capture = Arc::new(MappedCapture::from_bytes(bytes.clone()));
        let mut inline = IngestQueues::exact(Arc::clone(&capture), 1, FaultPolicy::Fail)
            .unwrap()
            .spawn();
        assert_eq!(drain(&mut inline).unwrap(), records);
        assert_eq!(inline.non_tcp_frames(), 0);
        assert_eq!(inline.order_violations(), 0);
        assert!(!inline.faults().any());
        assert_eq!(inline.error(), None);

        // Torn tail under Fail: the typed error surfaces through the same
        // interface, and sticks.
        let mut torn = bytes;
        torn.truncate(torn.len() - 9);
        let capture = Arc::new(MappedCapture::from_bytes(torn));
        let mut inline = IngestQueues::exact(capture, 1, FaultPolicy::Fail)
            .unwrap()
            .spawn();
        let err = drain(&mut inline).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Pcap(PcapError::TruncatedRecordBody { .. })
        ));
        assert_eq!(inline.error(), Some(err));
    }

    #[test]
    fn suspend_resume_roundtrips_mid_stream() {
        let records: Vec<ProbeRecord> = (0..3_000).map(record).collect();
        let bytes = capture_of(&records);
        let mut stream = MappedPcapStream::new(&bytes).unwrap().batch_target(512);
        let mut collected = Vec::new();
        collected.extend_from_slice(stream.try_next_batch().unwrap().unwrap());
        // Park the state, drop the stream, resume against the same bytes.
        let state = stream.suspend();
        let mut resumed = MappedPcapStream::resume(&bytes, state).unwrap();
        while let Some(batch) = resumed.try_next_batch().unwrap() {
            collected.extend_from_slice(batch);
        }
        assert_eq!(collected, records);
        assert_eq!(resumed.order_violations(), 0);
    }

    #[test]
    fn ingest_mode_parses_and_displays() {
        assert_eq!("read".parse::<IngestMode>().unwrap(), IngestMode::Read);
        assert_eq!(
            "mmap".parse::<IngestMode>().unwrap(),
            IngestMode::Mapped { queues: 1 }
        );
        assert_eq!(
            "mmap:4".parse::<IngestMode>().unwrap(),
            IngestMode::Mapped { queues: 4 }
        );
        assert!("mmap:0".parse::<IngestMode>().is_err());
        assert!("dma".parse::<IngestMode>().is_err());
        assert_eq!(IngestMode::Mapped { queues: 4 }.to_string(), "mmap:4");
        assert_eq!(IngestMode::Mapped { queues: 1 }.to_string(), "mmap");
        assert_eq!(IngestMode::default(), IngestMode::Read);
    }

    #[test]
    fn mapped_capture_from_reader_buffers_pipes() {
        let bytes = capture_of(&(0..10).map(record).collect::<Vec<_>>());
        let capture = MappedCapture::from_reader(Cursor::new(bytes.clone())).unwrap();
        assert_eq!(capture.as_slice(), bytes.as_slice());
        assert_eq!(capture.len(), bytes.len());
        assert!(!capture.is_empty());
    }
}
