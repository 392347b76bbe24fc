//! Windowed batched pcap ingest: the line-rate front end of the pipeline.
//!
//! Nobody holds a year of telescope pcap in memory, so nothing here does
//! either. A capture is read through one recycled *window*, and every reader
//! in the workspace — the `Read` path, `--ingest mmap`, `mmap:N` — is the
//! same three stages:
//!
//! * **Framer.** One sequential reader refills a window buffer from any
//!   `Read`, walks the record headers once to find the longest run of whole
//!   records, and carries the torn remainder into the next window. Each run
//!   is a *chunk*. A record is declared torn only at end of input, never at
//!   a window edge, and a length field that loses framing ends the walk — so
//!   whatever is wrong with a capture's framing is in the **last** chunk,
//!   and every other chunk decodes without a framing fault by construction.
//! * **Decoders.** A chunk is decoded by the per-slice decoder:
//!   `PcapSlice` yields borrowed `RawFrame`s (no per-record allocation or
//!   copy), `FrameBatch` gathers a run and decodes it in one pass — the
//!   canonical 54-byte Ethernet/IPv4/TCP probe by fixed-offset extraction,
//!   anything else through [`ProbeRecord::from_ethernet`] — and
//!   [`MappedPcapStream`] applies the [`FaultPolicy`]. With one queue the
//!   chunk is decoded on the consumer's thread; with `N` ([`IngestQueues`])
//!   chunk `n` goes to decode thread `n % N`.
//! * **Ordered merge.** [`PcapStream`], the [`TryRecordStream`] every
//!   ingest mode ends in, takes decoded chunks strictly in sequence order,
//!   so capture order — and with it per-source order, which the sharded
//!   pipeline's fault gate depends on — is the file's. Counters
//!   are summed, the one timestamp comparison a chunk cannot make (its first
//!   record against the previous chunk's last) is made here, and the first
//!   chunk whose decoder stopped (a fault under [`FaultPolicy::Fail`] or
//!   [`FaultPolicy::StopClean`], lost framing under any policy) ends the
//!   stream exactly where a sequential reader would have. A fault is
//!   surfaced once, as `Err`; every later pull returns `Ok(None)`.
//!
//! Memory is O(window × chunks in flight), whatever the capture's size: a
//! fixed set of chunk buffers (bytes and decoded records together) cycles
//! framer → decoder → merger → framer, so a warm pass allocates no buffer
//! (only the decoder's small gather scratch, per chunk).
//! [`MappedCapture`] names *where* the bytes are (a file, reopened per
//! stream; or a buffer, for stdin and tests) and reads none of them.
//!
//! IPv4 and TCP checksums are not verified: telescope captures were
//! checksummed by the capture hardware, and synthetic streams are trusted by
//! construction.

use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread;

use crate::pcap::{
    header_u32, read_fully, GlobalHeader, PcapError, GLOBAL_HEADER_LEN, MAX_SNAPLEN,
    RECORD_HEADER_LEN,
};
use crate::probe::ProbeRecord;
use crate::stream::{FaultCounters, FaultPolicy, StreamError, TryRecordStream, BATCH_RECORDS};
use crate::tcp::TcpFlags;
use crate::Ipv4Address;

/// How many threads decode a capture. Parsed from the binaries' `--ingest`
/// flag: `read` and `mmap` are one queue, decoded on the calling thread, and
/// `mmap:N` is N decode threads behind one sequential reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestMode {
    /// Decode threads feeding the ordered merge (at least 1).
    pub queues: usize,
}

impl Default for IngestMode {
    fn default() -> Self {
        Self { queues: 1 }
    }
}

impl core::fmt::Display for IngestMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.queues {
            1 => write!(f, "read"),
            queues => write!(f, "mmap:{queues}"),
        }
    }
}

impl core::str::FromStr for IngestMode {
    type Err = String;

    fn from_str(s: &str) -> core::result::Result<Self, Self::Err> {
        let queues = match s {
            "read" | "mmap" | "mapped" => 1,
            other => {
                let n = other
                    .strip_prefix("mmap:")
                    .or_else(|| other.strip_prefix("mapped:"))
                    .ok_or_else(|| {
                        format!("unknown ingest mode {other:?} (expected read, mmap, or mmap:N)")
                    })?;
                n.parse()
                    .map_err(|_| format!("bad queue count in ingest mode {other:?}"))?
            }
        };
        if queues == 0 {
            return Err("ingest queue count must be at least 1".into());
        }
        Ok(IngestMode { queues })
    }
}

/// A capture that can be read from the start any number of times: a file
/// (opened by path for every stream, so streams share no cursor) or an
/// in-memory image (stdin, tests).
///
/// The name is historical. This was once the whole file in one buffer; it
/// is now a handle that reads nothing until a stream is opened over it, and
/// keeps its name only because the benchmark spells it — renaming it waits
/// for a benchmark change.
#[derive(Debug, Clone)]
pub struct MappedCapture {
    source: CaptureSource,
}

#[derive(Debug, Clone)]
enum CaptureSource {
    File { path: PathBuf, len: u64 },
    Bytes(Arc<Vec<u8>>),
}

/// A `Read` over a shared in-memory capture image.
struct SharedBytes {
    bytes: Arc<Vec<u8>>,
    pos: usize,
}

impl Read for SharedBytes {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (&self.bytes[self.pos..]).read(buf)?;
        self.pos += n;
        Ok(n)
    }
}

impl MappedCapture {
    /// Open a capture file: checks that `path` is a readable regular file
    /// and reads nothing. Anything else (a missing path, a directory — which
    /// opens fine and fails only when read) is an error here, not a
    /// mysteriously empty stream later.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let meta = File::open(&path)?.metadata()?;
        if !meta.is_file() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{} is not a regular file", path.display()),
            ));
        }
        let len = meta.len();
        Ok(Self {
            source: CaptureSource::File { path, len },
        })
    }

    /// Buffer a source that cannot be reopened (stdin, a pipe) whole — the
    /// documented price of reading it more than once.
    pub fn from_reader<R: Read>(mut reader: R) -> io::Result<Self> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        Ok(Self::from_bytes(bytes))
    }

    /// Wrap an already-materialized capture image.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self {
            source: CaptureSource::Bytes(Arc::new(bytes)),
        }
    }

    /// A fresh reader positioned at the first byte of the capture,
    /// independent of every other reader of it. A file that can no longer be
    /// opened reads as empty, which every consumer reports as a truncated
    /// global header — the same convention as any other unreadable tail.
    pub fn reader(&self) -> Box<dyn Read + Send> {
        match &self.source {
            CaptureSource::File { path, .. } => match File::open(path) {
                Ok(file) => Box::new(file),
                Err(_) => Box::new(io::empty()),
            },
            CaptureSource::Bytes(bytes) => Box::new(SharedBytes {
                bytes: Arc::clone(bytes),
                pos: 0,
            }),
        }
    }

    /// Size of the capture in bytes (for a file, as of [`MappedCapture::load`]).
    pub fn len(&self) -> usize {
        match &self.source {
            CaptureSource::File { len, .. } => *len as usize,
            CaptureSource::Bytes(bytes) => bytes.len(),
        }
    }

    /// Whether the capture is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One captured frame, borrowed from the buffer it was read into: no
/// per-record allocation or copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RawFrame<'a> {
    /// Timestamp in microseconds since the epoch.
    pub ts_micros: u64,
    /// Original length of the frame on the wire.
    pub orig_len: u32,
    /// Captured bytes — a view into the buffer, never a copy.
    pub data: &'a [u8],
}

/// A cursor over capture bytes yielding borrowed frames: the one record
/// decoder every reader of a capture runs.
///
/// Each malformation surfaces as its [`PcapError`] at the record it breaks;
/// recoverable errors leave the cursor aligned on the next record, and
/// unrecoverable ones lose framing for good.
#[derive(Debug, Clone)]
pub(crate) struct PcapSlice<'a> {
    data: &'a [u8],
    cursor: usize,
    meta: GlobalHeader,
}

impl<'a> PcapSlice<'a> {
    /// Open a whole capture image, parsing and validating the global header.
    pub(crate) fn new(data: &'a [u8]) -> Result<Self, PcapError> {
        let meta = GlobalHeader::read(&mut &data[..])?;
        Ok(Self::records(&data[GLOBAL_HEADER_LEN..], meta))
    }

    /// A cursor over a run of records — one chunk of a capture whose global
    /// header `meta` was read when the stream was opened.
    pub(crate) fn records(data: &'a [u8], meta: GlobalHeader) -> Self {
        Self {
            data,
            cursor: 0,
            meta,
        }
    }

    /// Yield the next frame as a borrowed view; `Ok(None)` is a clean end.
    ///
    /// After a [`PcapError::recoverable`] error the cursor is still aligned
    /// on the next record and may be pulled again; after any other error the
    /// framing is lost.
    #[inline]
    pub(crate) fn next_frame(&mut self) -> Result<Option<RawFrame<'a>>, PcapError> {
        let end = self.data.len();
        let remaining = end - self.cursor;
        if remaining == 0 {
            return Ok(None);
        }
        if remaining < RECORD_HEADER_LEN {
            self.cursor = end;
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
        let avail = end - self.cursor;
        if (incl_len as usize) > avail {
            self.cursor = end;
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
pub(crate) fn decode_frame(ts_micros: u64, frame: &[u8]) -> crate::Result<ProbeRecord> {
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
    Ok(record)
}

/// How a [`FrameBatch::gather`] run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GatherOutcome {
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
pub(crate) struct FrameBatch<'a> {
    frames: Vec<RawFrame<'a>>,
}

impl<'a> FrameBatch<'a> {
    /// An empty batch with room for `capacity` frames.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            frames: Vec::with_capacity(capacity),
        }
    }

    /// Drop all gathered frames, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.frames.clear();
    }

    /// Gather up to `max` frames from the slice, stopping early at end of
    /// stream or the first framing fault. Gathered frames are *appended*.
    pub(crate) fn gather(&mut self, slice: &mut PcapSlice<'a>, max: usize) -> GatherOutcome {
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
    pub(crate) fn decode_into(
        &self,
        out: &mut Vec<ProbeRecord>,
        non_tcp: &mut u64,
        last_ts: &mut u64,
        order_violations: &mut u64,
    ) {
        for frame in &self.frames {
            match decode_frame(frame.ts_micros, frame.data) {
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

/// The zero-copy, policy-aware record stream over a capture image already in
/// memory — the per-chunk decoder of [`PcapStream`], and, over a whole
/// buffer, the reference the windowed stream is tested against.
///
/// Behavioral contract: records in capture order, [`FaultCounters`] per the
/// [`FaultPolicy`], non-TCP and order-violation censuses, and under
/// [`FaultPolicy::Fail`] the first fault as the terminal `Err` (the batch
/// it interrupts is dropped; every later pull returns `Ok(None)`).
#[derive(Debug)]
pub struct MappedPcapStream<'a> {
    slice: PcapSlice<'a>,
    policy: FaultPolicy,
    batch_target: usize,
    batch: Vec<ProbeRecord>,
    run: FrameBatch<'a>,
    non_tcp: u64,
    last_ts: u64,
    order_violations: u64,
    faults: FaultCounters,
    done: bool,
}

/// Frames gathered per decode run: long enough that the fixed-offset decode
/// loop dominates, short enough that a run of borrowed frames stays hot in
/// cache alongside its decoded records.
const RUN_FRAMES: usize = 1024;

impl<'a> MappedPcapStream<'a> {
    /// Open a capture image under the given fault policy.
    pub fn with_policy(data: &'a [u8], policy: FaultPolicy) -> Result<Self, PcapError> {
        Ok(Self::over(PcapSlice::new(data)?, policy))
    }

    /// Stream an already-opened slice.
    pub(crate) fn over(slice: PcapSlice<'a>, policy: FaultPolicy) -> Self {
        // The owned buffer grows lazily on first use: the chunk decoder,
        // which fills its caller's buffer, never touches it.
        Self {
            slice,
            policy,
            batch_target: BATCH_RECORDS,
            batch: Vec::new(),
            run: FrameBatch::with_capacity(RUN_FRAMES),
            non_tcp: 0,
            last_ts: 0,
            order_violations: 0,
            faults: FaultCounters::default(),
            done: false,
        }
    }

    /// Override the records-per-batch target (tests and benches).
    pub(crate) fn batch_target(mut self, target: usize) -> Self {
        self.batch_target = target.max(1);
        self
    }

    /// Frames that were not parseable IPv4/TCP.
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

    fn fill(&mut self) -> Result<bool, StreamError> {
        let mut batch = std::mem::take(&mut self.batch);
        let filled = self.fill_into(&mut batch);
        self.batch = batch;
        filled
    }

    /// The one place a pcap fault meets the [`FaultPolicy`]. On `Err` the
    /// records decoded ahead of the fault are still in `out`.
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
                    // Framing is lost (or the policy stops at the first
                    // fault): the rest is unreadable, so degrade to a clean
                    // early end. Nothing else sets `streams_truncated`.
                    FaultPolicy::SkipRecord | FaultPolicy::StopClean => {
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

impl TryRecordStream for MappedPcapStream<'_> {
    fn try_next_batch(&mut self) -> Result<Option<&[ProbeRecord]>, StreamError> {
        match self.fill()? {
            true => Ok(Some(&self.batch)),
            false => Ok(None),
        }
    }
}

/// Size of a window buffer: one `read` call and one header walk per ~15 k
/// canonical probe records, and a decoded chunk about the size of a
/// [`BATCH_RECORDS`] batch.
const WINDOW_BYTES: usize = 1 << 20;
// A window that holds a maximal record always ends past a record boundary,
// so in production a buffer is allocated once, at exactly this size.
const _: () = assert!(WINDOW_BYTES >= MAX_SNAPLEN as usize + RECORD_HEADER_LEN);

/// One window's worth of the capture on its way through the stages: the
/// framer fills `bytes`, a decoder fills everything else, the merger lends
/// `records` to the consumer and sends the whole thing back to the framer.
/// Both buffers keep their capacity around the cycle.
#[derive(Debug, Default)]
struct Chunk {
    /// Window buffer; the first `len` bytes are this chunk's records.
    bytes: Vec<u8>,
    len: usize,
    /// The framer reads nothing after this chunk.
    last: bool,
    records: Vec<ProbeRecord>,
    faults: FaultCounters,
    non_tcp: u64,
    order_violations: u64,
    error: Option<StreamError>,
}

impl Chunk {
    /// Whether a sequential reader would have stopped inside this chunk: end
    /// of input, a terminal error, or a policy stop (see `fill_into`).
    fn ends_stream(&self) -> bool {
        self.last || self.error.is_some() || self.faults.streams_truncated > 0
    }
}

/// The windowed framer: cuts the record area of a capture, read sequentially
/// from any `Read`, into chunks of whole records.
#[derive(Debug)]
struct Framer<R> {
    reader: R,
    swapped: bool,
    window: usize,
    /// The tail of the previous window: the head of a record whose end had
    /// not been read yet.
    carry: Vec<u8>,
}

impl<R: Read> Framer<R> {
    fn new(reader: R, meta: GlobalHeader, window: usize) -> Self {
        Self {
            reader,
            swapped: meta.swapped,
            window: window.max(1),
            carry: Vec::new(),
        }
    }

    /// Refill `chunk` with the next run of whole records. Returns `true` for
    /// the final chunk, which alone may carry what is *not* whole records: a
    /// record torn by end of input (an I/O error counts as one, as in
    /// [`read_fully`]) or a length field past [`MAX_SNAPLEN`], after which
    /// there is no framing left to follow. Nothing is read after it.
    fn next_chunk(&mut self, chunk: &mut Chunk) -> bool {
        loop {
            // The carry is shorter than one record, so it leaves room in any
            // window worth the name; under a test window smaller than a
            // record, grow until the record at the front fits.
            let carried = self.carry.len();
            let room = if carried < self.window {
                self.window
            } else {
                carried + self.window
            };
            if chunk.bytes.len() < room {
                chunk.bytes.resize(room, 0);
            }
            chunk.bytes[..carried].copy_from_slice(&self.carry);
            let filled = carried + read_fully(&mut self.reader, &mut chunk.bytes[carried..room]);
            let at_eof = filled < room;

            // Walk the headers to the end of the last whole record.
            // Zero-length records keep framing and are walked over; the
            // decoder is the one to report them.
            let mut whole = 0;
            let mut framing_lost = false;
            while filled - whole >= RECORD_HEADER_LEN {
                let incl = header_u32(&chunk.bytes[whole..], 8, self.swapped);
                if incl > MAX_SNAPLEN {
                    framing_lost = true;
                    break;
                }
                let record = RECORD_HEADER_LEN + incl as usize;
                if record > filled - whole {
                    break;
                }
                whole += record;
            }

            self.carry.clear();
            if at_eof || framing_lost {
                chunk.len = filled;
                return true;
            }
            self.carry.extend_from_slice(&chunk.bytes[whole..filled]);
            if whole > 0 {
                chunk.len = whole;
                return false;
            }
            // The record at the front is longer than the window: read on.
        }
    }
}

/// Everything a decoder needs to know besides the bytes.
#[derive(Debug, Clone, Copy)]
struct Decode {
    meta: GlobalHeader,
    policy: FaultPolicy,
}

impl Decode {
    /// Read the global header off the front of `reader`.
    fn open(reader: &mut impl Read, policy: FaultPolicy) -> Result<Self, PcapError> {
        Ok(Self {
            meta: GlobalHeader::read(reader)?,
            policy,
        })
    }

    /// Decode a framed chunk in one pass, exactly as a sequential reader
    /// that started at its first byte would.
    fn run(self, chunk: &mut Chunk) {
        let slice = PcapSlice::records(&chunk.bytes[..chunk.len], self.meta);
        let mut stream = MappedPcapStream::over(slice, self.policy).batch_target(usize::MAX);
        chunk.error = stream.fill_into(&mut chunk.records).err();
        chunk.faults = stream.faults;
        chunk.non_tcp = stream.non_tcp;
        chunk.order_violations = stream.order_violations;
    }
}

/// A planned ingest of one capture: the reader, positioned after the global
/// header (the only bytes read so far), and how to decode what follows.
pub struct IngestQueues {
    reader: Box<dyn Read + Send>,
    decode: Decode,
    queues: usize,
}

impl core::fmt::Debug for IngestQueues {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("IngestQueues")
            .field("decode", &self.decode)
            .field("queues", &self.queues)
            .finish_non_exhaustive()
    }
}

fn right_sized(queues: usize) -> usize {
    queues.min(thread::available_parallelism().map_or(1, |n| n.get()))
}

impl IngestQueues {
    /// Plan an ingest of `capture` on `queues` decode threads. The requested
    /// count is clamped to the machine's available parallelism, because
    /// decoders past the core count cannot overlap any work — they only add
    /// hand-off and scheduling cost. A clamp to one queue decodes *inline*,
    /// with no threads at all. Fails only if the global header does not
    /// parse (there is no framing to follow).
    pub fn new(
        capture: Arc<MappedCapture>,
        queues: usize,
        policy: FaultPolicy,
    ) -> Result<Self, PcapError> {
        Self::plan(capture.reader(), right_sized(queues), policy)
    }

    /// As [`IngestQueues::new`] over any sendable reader — a capture's
    /// [`MappedCapture::reader`] under a chaos wrapper, say.
    pub fn over(
        reader: impl Read + Send + 'static,
        queues: usize,
        policy: FaultPolicy,
    ) -> Result<Self, PcapError> {
        Self::plan(Box::new(reader), right_sized(queues), policy)
    }

    /// Plan exactly `queues` decode threads, even past the machine's
    /// parallelism. The equivalence suite uses this to exercise the
    /// threaded merge on any box; production callers want the right-sizing
    /// of [`IngestQueues::new`].
    pub fn exact(
        capture: Arc<MappedCapture>,
        queues: usize,
        policy: FaultPolicy,
    ) -> Result<Self, PcapError> {
        Self::plan(capture.reader(), queues, policy)
    }

    fn plan(
        mut reader: Box<dyn Read + Send>,
        queues: usize,
        policy: FaultPolicy,
    ) -> Result<Self, PcapError> {
        let decode = Decode::open(&mut reader, policy)?;
        Ok(Self {
            reader,
            decode,
            queues: queues.max(1),
        })
    }

    /// The effective queue count (after [`IngestQueues::new`]'s clamp).
    pub fn queues(&self) -> usize {
        self.queues
    }

    /// Start the planned ingest and return the merged, ordered stream: a
    /// framer thread and one decode thread per queue, or no thread at all
    /// when the plan is a single queue.
    pub fn spawn(self) -> PcapStream<Box<dyn Read + Send>> {
        PcapStream::start(self.reader, self.decode, WINDOW_BYTES, self.queues)
    }
}

/// The framer thread and the decode threads of a multi-queue ingest, seen
/// from the merger.
#[derive(Debug)]
struct Workers {
    /// Decoded chunks: chunk `n` arrives on channel `n % queues`, so taking
    /// the channels in rotation is taking the chunks in capture order.
    decoded: Vec<mpsc::Receiver<Chunk>>,
    /// Spent chunks on their way back to the framer (`None` once dropping).
    spent: Option<mpsc::Sender<Chunk>>,
    next: usize,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Workers {
    /// The channels are unbounded; what bounds memory is the number of
    /// chunks in existence. The framer can only refill a chunk the merger
    /// has sent back, so it runs at most that many windows ahead of the
    /// consumer: one chunk being filled, one being decoded and one decoded
    /// and waiting per queue — and the stream's own first chunk, which joins
    /// the cycle at the first hand-back.
    fn spawn<R>(mut framer: Framer<R>, decode: Decode, queues: usize) -> Self
    where
        R: Read + Send + 'static,
    {
        let (spent, refill) = mpsc::channel();
        for _ in 0..2 * queues {
            spent.send(Chunk::default()).expect("receiver is in scope");
        }
        let (mut inputs, mut decoded, mut threads) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..queues {
            let (input, framed) = mpsc::channel::<Chunk>();
            let (output, results) = mpsc::channel();
            threads.push(thread::spawn(move || {
                for mut chunk in framed {
                    decode.run(&mut chunk);
                    if output.send(chunk).is_err() {
                        return; // merger dropped; stop decoding
                    }
                }
            }));
            inputs.push(input);
            decoded.push(results);
        }
        threads.push(thread::spawn(move || {
            for seq in 0.. {
                // Err: the merger is gone and so is every chunk.
                let Ok(mut chunk) = refill.recv() else { return };
                chunk.last = framer.next_chunk(&mut chunk);
                let last = chunk.last;
                if inputs[seq % queues].send(chunk).is_err() || last {
                    return;
                }
            }
        }));
        Self {
            decoded,
            spent: Some(spent),
            next: 0,
            threads,
        }
    }

    /// Hand back the chunk the consumer is done with and wait for the next
    /// one in capture order. `None` if its thread died before producing it.
    fn next(&mut self, spent: Chunk) -> Option<Chunk> {
        if let Some(framer) = &self.spent {
            // A send fails only if the framer died; the recv below says so.
            let _ = framer.send(spent);
        }
        let chunk = self.decoded[self.next % self.decoded.len()].recv().ok()?;
        self.next += 1;
        Some(chunk)
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        // With both ends of the cycle closed every thread's next channel
        // operation fails and it returns; then reap. A thread that panicked
        // has already been reported as a truncated stream.
        self.decoded.clear();
        self.spent = None;
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[derive(Debug)]
enum Source<R> {
    /// Frame and decode on the consumer's thread, one chunk at a time.
    Inline(Framer<R>, Decode),
    /// Framed and decoded ahead of the consumer on other threads.
    Threaded(Workers),
}

/// An incremental pcap import: the capture-ordered, policy-aware record
/// stream every ingest mode ends in. Records are parsed off the reader one
/// window at a time, so analysis memory stays O(window) for arbitrarily
/// large files (and for stdin, which cannot be sized up front at all).
///
/// Non-TCP frames are skipped and counted ([`PcapStream::non_tcp_frames`]).
/// Timestamp-order violations *between consecutive parsed records* are
/// counted ([`PcapStream::order_violations`]) so a streaming consumer —
/// whose [`TryRecordStream`] contract promises time order — can detect an
/// unsorted capture and tell the caller to materialize-and-sort instead.
///
/// What happens on a pcap fault depends on the [`FaultPolicy`]:
///
/// * [`FaultPolicy::Fail`] (default) — the fault is terminal: every record
///   ahead of the fault is yielded, then the fault surfaces as `Err`, and
///   every later pull returns `Ok(None)`.
/// * [`FaultPolicy::SkipRecord`] — recoverable faults (the reader is still
///   aligned) drop that record and continue; unrecoverable ones end the
///   stream cleanly. Everything dropped is tallied in
///   [`PcapStream::faults`].
/// * [`FaultPolicy::StopClean`] — the first fault ends the stream cleanly,
///   keeping the parsed prefix.
///
/// [`PcapStream::new`] decodes on the calling thread; [`IngestQueues`]
/// starts the same stream with the decode fanned out. Either way the
/// records, counters and terminal error are those of one sequential reader.
#[derive(Debug)]
pub struct PcapStream<R: Read> {
    source: Source<R>,
    /// The chunk whose records the consumer currently borrows.
    current: Chunk,
    /// Timestamp of the last record merged so far (the decoders' census
    /// starts from 0, so this one does too).
    last_ts: u64,
    /// Records handed to the consumer so far.
    delivered: u64,
    non_tcp: u64,
    order_violations: u64,
    faults: FaultCounters,
    done: bool,
}

impl<R: Read> PcapStream<R> {
    /// Open a classic pcap stream (parses the global header eagerly, so a
    /// non-pcap input fails here, not on the first batch) with the strict
    /// [`FaultPolicy::Fail`] policy.
    pub fn new(reader: R) -> Result<Self, PcapError> {
        Self::with_policy(reader, FaultPolicy::Fail)
    }

    /// As [`PcapStream::new`] with an explicit fault policy. The global
    /// header must parse under every policy — without it there is no
    /// framing to recover to.
    pub fn with_policy(mut reader: R, policy: FaultPolicy) -> Result<Self, PcapError> {
        let decode = Decode::open(&mut reader, policy)?;
        let framer = Framer::new(reader, decode.meta, WINDOW_BYTES);
        Ok(Self::from_source(Source::Inline(framer, decode)))
    }

    fn from_source(source: Source<R>) -> Self {
        Self {
            source,
            current: Chunk::default(),
            last_ts: 0,
            delivered: 0,
            non_tcp: 0,
            order_violations: 0,
            faults: FaultCounters::default(),
            done: false,
        }
    }

    /// Frames that were not parseable IPv4/TCP (skipped, as the SYN filter
    /// would drop them anyway), in the chunks merged so far.
    pub fn non_tcp_frames(&self) -> u64 {
        self.non_tcp
    }

    /// Consecutive-record timestamp inversions seen so far, chunk
    /// boundaries included. Zero for every capture written in arrival order
    /// (telescope captures are).
    pub fn order_violations(&self) -> u64 {
        self.order_violations
    }

    /// What the fault policy skipped or cut short on this stream.
    pub fn faults(&self) -> FaultCounters {
        self.faults
    }

    /// Drain the stream into memory: the records, and what the policy had
    /// to skip to produce them.
    pub fn into_records(mut self) -> Result<(Vec<ProbeRecord>, FaultCounters), StreamError> {
        let mut records = Vec::new();
        while let Some(batch) = self.try_next_batch()? {
            records.extend_from_slice(batch);
        }
        Ok((records, self.faults))
    }

    fn fail(&mut self, e: StreamError) -> Result<bool, StreamError> {
        self.done = true;
        Err(e)
    }

    /// Merge the next chunk with records into `self.current`; `Ok(false)` at
    /// the end of the stream, which is sticky.
    fn fill(&mut self) -> Result<bool, StreamError> {
        while !self.done {
            if self.current.ends_stream() {
                return match self.current.error {
                    Some(e) => self.fail(e),
                    None => {
                        self.done = true;
                        Ok(false)
                    }
                };
            }
            let spent = std::mem::take(&mut self.current);
            let chunk = match &mut self.source {
                Source::Inline(framer, decode) => {
                    let mut chunk = spent;
                    chunk.last = framer.next_chunk(&mut chunk);
                    decode.run(&mut chunk);
                    chunk
                }
                Source::Threaded(workers) => match workers.next(spent) {
                    Some(chunk) => chunk,
                    // A thread died mid-capture (a panicking reader, say):
                    // surface a truncation rather than hang or unwind into
                    // the consumer.
                    None => {
                        return self.fail(StreamError::Truncated {
                            records_seen: self.delivered,
                        })
                    }
                },
            };
            // Inside a chunk the decoder's own census compares every
            // consecutive pair, but it starts from nothing, so the pair
            // spanning two chunks is visible only here.
            if let (Some(first), Some(last)) = (chunk.records.first(), chunk.records.last()) {
                if first.ts_micros < self.last_ts {
                    self.order_violations += 1;
                }
                self.last_ts = last.ts_micros;
            }
            self.order_violations += chunk.order_violations;
            self.non_tcp += chunk.non_tcp;
            self.faults.absorb(&chunk.faults);
            self.delivered += chunk.records.len() as u64;
            self.current = chunk;
            if !self.current.records.is_empty() {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

impl<R: Read + Send + 'static> PcapStream<R> {
    /// Start a stream over `reader` (positioned after the global header)
    /// with `queues` decoders and `window` fresh bytes per refill.
    fn start(reader: R, decode: Decode, window: usize, queues: usize) -> Self {
        let framer = Framer::new(reader, decode.meta, window);
        Self::from_source(match queues {
            0 | 1 => Source::Inline(framer, decode),
            _ => Source::Threaded(Workers::spawn(framer, decode, queues)),
        })
    }
}

impl<R: Read> TryRecordStream for PcapStream<R> {
    fn try_next_batch(&mut self) -> Result<Option<&[ProbeRecord]>, StreamError> {
        match self.fill()? {
            true => Ok(Some(&self.current.records)),
            false => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::{PcapWriter, LINKTYPE_ETHERNET};
    use crate::probe::SynFrameBuilder;
    use std::collections::HashSet;
    use std::io::Cursor;

    const POLICIES: [FaultPolicy; 3] = [
        FaultPolicy::Fail,
        FaultPolicy::SkipRecord,
        FaultPolicy::StopClean,
    ];

    /// Bytes of one canonical probe record in a capture.
    const RECORD: usize = RECORD_HEADER_LEN + 54;

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

    /// Deterministic xorshift so the drills need no RNG dependency.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A capture of `n` records with pseudo-random frame sizes and contents
    /// (mostly non-TCP, so decode outcomes vary across chunk edges) — the
    /// generator of `tests/ingest_equivalence.rs`.
    fn fuzz_capture(seed: u64, n: usize) -> Vec<u8> {
        let mut state = seed | 1;
        let mut writer = PcapWriter::new(Vec::new(), LINKTYPE_ETHERNET).unwrap();
        for i in 0..n {
            let len = 1 + (xorshift(&mut state) % 120) as usize;
            let frame: Vec<u8> = (0..len)
                .map(|j| (xorshift(&mut state) ^ j as u64) as u8)
                .collect();
            writer.write_record(1_000_000 + i as u64, &frame).unwrap();
        }
        writer.into_inner().unwrap()
    }

    /// A record header with free-form lengths, followed by `body` bytes.
    fn raw_record(bytes: &mut Vec<u8>, incl: u32, orig: u32, body: usize) {
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&incl.to_le_bytes());
        bytes.extend_from_slice(&orig.to_le_bytes());
        bytes.resize(bytes.len() + body, 0xa5);
    }

    /// The corrupt-capture corpus of the integration suites.
    fn corpus() -> Vec<(String, Vec<u8>)> {
        macro_rules! corpus_file {
            ($name:literal) => {
                (
                    $name.to_string(),
                    include_bytes!(concat!("../../../tests/data/corrupt/", $name, ".pcap"))
                        .to_vec(),
                )
            };
        }
        vec![
            corpus_file!("bad_magic"),
            corpus_file!("truncated_header"),
            corpus_file!("truncated_record"),
            corpus_file!("snaplen_overflow"),
            corpus_file!("zero_length"),
        ]
    }

    /// A `Read` that hands out one byte per call: every refill is made of
    /// short reads, and end of input arrives on a call of its own.
    struct Trickle(Cursor<Vec<u8>>);

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    /// Everything observable about one pass over a capture.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        records: Vec<ProbeRecord>,
        terminal: Option<StreamError>,
        non_tcp: u64,
        order_violations: u64,
        faults: FaultCounters,
    }

    fn drain(stream: &mut impl TryRecordStream) -> (Vec<ProbeRecord>, Option<StreamError>) {
        let mut records = Vec::new();
        loop {
            match stream.try_next_batch() {
                Ok(Some(batch)) => records.extend_from_slice(batch),
                Ok(None) => return (records, None),
                Err(e) => return (records, Some(e)),
            }
        }
    }

    /// The reference: one [`MappedPcapStream`] over the whole buffer. Batches
    /// of one, because it drops the batch a terminal error interrupts, and
    /// the windowed stream promises every record ahead of the fault.
    fn reference(bytes: &[u8], policy: FaultPolicy) -> Result<Outcome, PcapError> {
        let mut stream = MappedPcapStream::with_policy(bytes, policy)?.batch_target(1);
        let (records, terminal) = drain(&mut stream);
        Ok(Outcome {
            records,
            terminal,
            non_tcp: stream.non_tcp_frames(),
            order_violations: stream.order_violations(),
            faults: stream.faults(),
        })
    }

    fn windowed_over<R: Read + Send + 'static>(
        mut reader: R,
        policy: FaultPolicy,
        window: usize,
        queues: usize,
    ) -> Result<Outcome, PcapError> {
        let decode = Decode::open(&mut reader, policy)?;
        let mut stream = PcapStream::start(reader, decode, window, queues);
        let (records, terminal) = drain(&mut stream);
        assert!(
            matches!(stream.try_next_batch(), Ok(None)),
            "the end is sticky"
        );
        Ok(Outcome {
            records,
            terminal,
            non_tcp: stream.non_tcp_frames(),
            order_violations: stream.order_violations(),
            faults: stream.faults(),
        })
    }

    fn windowed(
        bytes: &[u8],
        policy: FaultPolicy,
        window: usize,
        queues: usize,
    ) -> Result<Outcome, PcapError> {
        windowed_over(Cursor::new(bytes.to_vec()), policy, window, queues)
    }

    /// The framer's chunks over the record area of `bytes`, as
    /// `(bytes, last)` pairs.
    fn chunks_of(bytes: &[u8], window: usize) -> Vec<(Vec<u8>, bool)> {
        let mut reader = Cursor::new(bytes.to_vec());
        let meta = GlobalHeader::read(&mut reader).unwrap();
        let mut framer = Framer::new(reader, meta, window);
        let mut chunk = Chunk::default();
        let mut chunks = Vec::new();
        loop {
            let last = framer.next_chunk(&mut chunk);
            chunks.push((chunk.bytes[..chunk.len].to_vec(), last));
            if last {
                return chunks;
            }
        }
    }

    /// Every frame `slice` yields, up to a clean end, as `(ts, orig, data)`.
    fn frames_of(mut slice: PcapSlice<'_>) -> Vec<(u64, u32, Vec<u8>)> {
        let mut frames = Vec::new();
        while let Some(frame) = slice.next_frame().unwrap() {
            frames.push((frame.ts_micros, frame.orig_len, frame.data.to_vec()));
        }
        frames
    }

    #[test]
    fn slice_reader_yields_the_written_frames_frame_for_frame() {
        let records: Vec<ProbeRecord> = (0..300).map(record).collect();
        let bytes = capture_of(&records);
        let builder = SynFrameBuilder::default();
        let written: Vec<(u64, u32, Vec<u8>)> = records
            .iter()
            .map(|r| {
                (
                    r.ts_micros,
                    ProbeRecord::frame_len() as u32,
                    builder.build(r),
                )
            })
            .collect();
        assert_eq!(frames_of(PcapSlice::new(&bytes).unwrap()), written);
    }

    #[test]
    fn pcap_arbitrary_captures_round_trip() {
        // Arbitrary frame payloads (empty ones included) with arbitrary
        // timestamps survive the writer and the slice reader byte for byte.
        for seed in [1u64, 7, 0xf00d, 0xfeed_5eed, 0x5eed_0001, 0xdead_beef] {
            let mut state = seed;
            for _ in 0..10 {
                let written: Vec<(u64, u32, Vec<u8>)> = (0..xorshift(&mut state) % 30)
                    .map(|_| {
                        let len = (xorshift(&mut state) % 200) as usize;
                        let frame: Vec<u8> = (0..len).map(|_| xorshift(&mut state) as u8).collect();
                        let ts = xorshift(&mut state) % 4_000_000_000_000_000;
                        (ts, len as u32, frame)
                    })
                    .collect();
                let mut writer = PcapWriter::new(Vec::new(), LINKTYPE_ETHERNET).unwrap();
                for (ts, _, frame) in &written {
                    writer.write_record(*ts, frame).unwrap();
                }
                let bytes = writer.into_inner().unwrap();
                let slice = PcapSlice::new(&bytes).unwrap();
                assert_eq!(frames_of(slice), written, "seed={seed:#x}");
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
            let fast = decode_frame(r.ts_micros, &frame).unwrap();
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
        let decoded = decode_frame(r.ts_micros, &frame).unwrap();
        assert_eq!(decoded, r);
        // And a non-IPv4 frame is rejected by both paths.
        let mut v6 = SynFrameBuilder::default().build(&r);
        v6[12] = 0x86;
        v6[13] = 0xdd;
        assert!(decode_frame(0, &v6).is_err());
    }

    #[test]
    fn mapped_stream_yields_the_capture() {
        let records: Vec<ProbeRecord> = (0..5000).map(record).collect();
        let bytes = capture_of(&records);
        let mut stream = MappedPcapStream::with_policy(&bytes, FaultPolicy::Fail).unwrap();
        assert_eq!(drain(&mut stream), (records, None));
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
        let (parsed, terminal) = drain(&mut stream);
        assert_eq!((parsed.len(), terminal), (3, None));
        assert_eq!(stream.faults().streams_truncated, 1);
        assert_eq!(stream.faults().bytes_dropped, 11);
    }

    /// The window sizes that put every kind of edge somewhere in a capture
    /// of canonical records: mid-header, mid-body, on a boundary, one byte
    /// either side of it, many records per window, and everything in one.
    const WINDOWS: [usize; 7] = [1, 2, RECORD - 1, RECORD, RECORD + 1, 4096, WINDOW_BYTES];

    /// What the matrix runs over: the corrupt corpus, a clean capture a few
    /// 4 KiB windows long, the fuzzed captures, and hand-built captures with
    /// a fault in the middle (so chunks *after* the terminal one exist).
    fn matrix_captures() -> Vec<(String, Vec<u8>)> {
        let mut captures = corpus();
        let clean = capture_of(&(0..300).map(record).collect::<Vec<_>>());
        for seed in [7u64, 0xf00d, 0xfeed_5eed] {
            for n in [1, 13, 64] {
                captures.push((format!("fuzz {seed:#x}/{n}"), fuzz_capture(seed, n)));
            }
        }
        // A zero-length record, then an oversized length field, each with
        // clean records on both sides.
        let tail = &clean[GLOBAL_HEADER_LEN + 200 * RECORD..];
        let mut zero_mid = clean[..GLOBAL_HEADER_LEN + 200 * RECORD].to_vec();
        raw_record(&mut zero_mid, 4, 0, 4);
        zero_mid.extend_from_slice(tail);
        let mut snap_mid = clean[..GLOBAL_HEADER_LEN + 200 * RECORD].to_vec();
        raw_record(&mut snap_mid, MAX_SNAPLEN + 1, 60, 0);
        snap_mid.extend_from_slice(tail);
        // Descending timestamps: every consecutive pair is an inversion,
        // wherever the chunk edges fall.
        let unordered: Vec<ProbeRecord> = (0..300)
            .map(|i| ProbeRecord {
                ts_micros: 1_000_000 - i,
                ..record(i)
            })
            .collect();
        captures.push(("clean".into(), clean));
        captures.push(("zero-length mid-capture".into(), zero_mid));
        captures.push(("snaplen overflow mid-capture".into(), snap_mid));
        captures.push(("unordered".into(), capture_of(&unordered)));
        captures
    }

    #[test]
    fn window_edge_matrix_equals_the_whole_buffer_stream() {
        for (name, bytes) in matrix_captures() {
            for policy in POLICIES {
                let expected = reference(&bytes, policy);
                for window in WINDOWS {
                    for queues in [1, 2, 3, 7] {
                        let label = format!("{name} {policy:?} window={window} queues={queues}");
                        assert_eq!(
                            expected,
                            windowed(&bytes, policy, window, queues),
                            "{label}"
                        );
                        assert_eq!(
                            expected,
                            windowed_over(
                                Trickle(Cursor::new(bytes.clone())),
                                policy,
                                window,
                                queues
                            ),
                            "{label}, one byte per read"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn truncation_at_every_byte_offset_equals_the_whole_buffer_stream() {
        // Mixed record sizes, one of them a recoverable zero-length record,
        // so a cut lands in every kind of place.
        let mut full = fuzz_capture(0x7ea2, 3);
        raw_record(&mut full, 4, 0, 4);
        full.extend_from_slice(&capture_of(&[record(1), record(2)])[GLOBAL_HEADER_LEN..]);
        for cut in 0..=full.len() {
            let bytes = &full[..cut];
            for policy in POLICIES {
                let expected = reference(bytes, policy);
                for window in [1, RECORD - 1, 4096] {
                    for queues in [1, 3] {
                        assert_eq!(
                            expected,
                            windowed(bytes, policy, window, queues),
                            "cut at {cut} of {} {policy:?} window={window} queues={queues}",
                            full.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn framer_chunks_tile_the_record_area_and_only_the_last_is_not_whole_records() {
        let mut captures: Vec<(String, Vec<u8>)> = matrix_captures()
            .into_iter()
            .filter(|(_, bytes)| PcapSlice::new(bytes).is_ok())
            .collect();
        let mut torn = capture_of(&(0..40).map(record).collect::<Vec<_>>());
        torn.truncate(torn.len() - 5);
        captures.push(("torn tail".into(), torn));
        for (name, bytes) in captures {
            let meta = GlobalHeader::read(&mut &bytes[..]).unwrap();
            for window in WINDOWS {
                let label = format!("{name} window={window}");
                let chunks = chunks_of(&bytes, window);
                let tiled: Vec<u8> = chunks.iter().flat_map(|(b, _)| b.clone()).collect();
                let area = &bytes[GLOBAL_HEADER_LEN..];
                let (last, body) = chunks.split_last().unwrap();
                assert!(last.1, "{label}: the final chunk says so");
                if tiled != area {
                    // Stopping short is for lost framing only: the final
                    // chunk then holds the length field that lost it.
                    assert!(area.starts_with(&tiled), "{label}: no gap, no overlap");
                    let mut slice = PcapSlice::records(&last.0, meta);
                    let lost = loop {
                        match slice.next_frame() {
                            Ok(Some(_)) => {}
                            Ok(None) => break None,
                            Err(e) => break Some(e),
                        }
                    };
                    assert!(
                        matches!(lost, Some(PcapError::SnapLenOverflow(_))),
                        "{label}: stopped short of the end on {lost:?}"
                    );
                }
                for (chunk, is_last) in body {
                    assert!(!is_last && !chunk.is_empty(), "{label}");
                    let mut slice = PcapSlice::records(chunk, meta);
                    loop {
                        match slice.next_frame() {
                            Ok(Some(_)) => {}
                            Ok(None) => break,
                            // Keeps framing, so the framer walks over it.
                            Err(e) if e.recoverable() => {}
                            Err(e) => panic!("{label}: {e} ahead of the final chunk"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn an_io_error_is_a_truncation_with_the_usual_typed_fault() {
        /// Fails for good once `good` bytes have been read.
        struct Failing(Cursor<Vec<u8>>, usize);
        impl Read for Failing {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let left = self.1 - self.0.position() as usize;
                if left == 0 {
                    return Err(io::Error::other("disk on fire"));
                }
                let n = buf.len().min(left);
                self.0.read(&mut buf[..n])
            }
        }
        let bytes = capture_of(&(0..100).map(record).collect::<Vec<_>>());
        let good = GLOBAL_HEADER_LEN + 40 * RECORD + 30;
        for policy in POLICIES {
            let expected = reference(&bytes[..good], policy);
            for (window, queues) in [(4096, 1), (4096, 2), (WINDOW_BYTES, 3)] {
                let failing = Failing(Cursor::new(bytes.clone()), good);
                assert_eq!(
                    expected,
                    windowed_over(failing, policy, window, queues),
                    "{policy:?} window={window} queues={queues}"
                );
            }
        }
        // An unreadable global header fails at open, as a short one does.
        let failing = Failing(Cursor::new(bytes), 10);
        assert_eq!(
            PcapStream::new(failing).err(),
            Some(PcapError::TruncatedGlobalHeader)
        );
    }

    #[test]
    fn a_dead_worker_reports_the_records_actually_delivered() {
        /// Panics on its `k`-th call.
        struct Panicking(Cursor<Vec<u8>>, usize);
        impl Read for Panicking {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.1 -= 1;
                assert!(self.1 > 0, "reader gives up (this panic is the test)");
                self.0.read(buf)
            }
        }
        let records: Vec<ProbeRecord> = (0..2_000).map(record).collect();
        let mut reader = Panicking(Cursor::new(capture_of(&records)), 6);
        let decode = Decode::open(&mut reader, FaultPolicy::Fail).unwrap();
        // One read per 4 KiB window: four windows are framed before the
        // sixth call (the header took the first) kills the framer thread.
        let mut stream = PcapStream::start(reader, decode, 4096, 2);
        let (delivered, terminal) = drain(&mut stream);
        // 4096 = 58 records + 36 bytes, and the 36-byte carry repeats.
        let whole_records = 4 * 58;
        assert_eq!(delivered.len() as u64, whole_records);
        assert_eq!(delivered, records[..delivered.len()]);
        assert_eq!(
            terminal,
            Some(StreamError::Truncated {
                records_seen: whole_records
            })
        );
    }

    #[test]
    fn buffers_recycle_so_memory_is_bounded_by_the_chunks_in_flight() {
        // 64 windows of capture; the stream may only ever touch the buffers
        // of its fixed set of chunks, each allocated once at window size.
        let window = 4096;
        let bytes = capture_of(
            &(0..(64 * window / RECORD) as u64)
                .map(record)
                .collect::<Vec<_>>(),
        );
        for queues in [1usize, 2, 3] {
            let mut reader = Cursor::new(bytes.clone());
            let decode = Decode::open(&mut reader, FaultPolicy::Fail).unwrap();
            let mut stream = PcapStream::start(reader, decode, window, queues);
            let (mut byte_buffers, mut batches, mut chunks) = (HashSet::new(), HashSet::new(), 0);
            while let Some(batch) = stream.try_next_batch().unwrap() {
                batches.insert(batch.as_ptr());
                byte_buffers.insert(stream.current.bytes.as_ptr());
                assert_eq!(stream.current.bytes.len(), window);
                chunks += 1;
            }
            assert!(chunks >= 64, "queues={queues}: {chunks} chunks");
            let in_flight = if queues == 1 { 1 } else { 2 * queues + 1 };
            assert!(
                byte_buffers.len() <= in_flight && batches.len() <= in_flight,
                "queues={queues}: {} byte buffers and {} batch buffers for {in_flight} chunks",
                byte_buffers.len(),
                batches.len()
            );
        }
    }

    #[test]
    fn dropping_the_stream_early_stops_the_workers() {
        // The capture is far longer than the chunks in flight, so the framer
        // is parked waiting for a buffer when the stream goes away; drop
        // must wake it and join every thread rather than hang.
        let bytes = capture_of(&(0..20_000).map(record).collect::<Vec<_>>());
        let mut stream = {
            let mut reader = Cursor::new(bytes);
            let decode = Decode::open(&mut reader, FaultPolicy::Fail).unwrap();
            PcapStream::start(reader, decode, 4096, 3)
        };
        assert!(stream.try_next_batch().unwrap().is_some());
        drop(stream);
    }

    #[test]
    fn ingest_queues_equal_the_sequential_stream_over_a_shared_capture() {
        let records: Vec<ProbeRecord> = (0..10_000).map(record).collect();
        let capture = Arc::new(MappedCapture::from_bytes(capture_of(&records)));
        for queues in [1usize, 2, 3, 8] {
            let mut merged = IngestQueues::exact(Arc::clone(&capture), queues, FaultPolicy::Fail)
                .unwrap()
                .spawn();
            assert_eq!(
                drain(&mut merged),
                (records.clone(), None),
                "queues={queues}"
            );
            assert_eq!(merged.non_tcp_frames(), 0);
            assert_eq!(merged.order_violations(), 0);
            assert!(!merged.faults().any());
        }
    }

    #[test]
    fn ingest_queues_apply_the_policy_to_a_torn_tail() {
        let records: Vec<ProbeRecord> = (0..200).map(record).collect();
        let mut bytes = capture_of(&records);
        bytes.truncate(bytes.len() - 9);
        let capture = Arc::new(MappedCapture::from_bytes(bytes));
        for queues in [1usize, 3] {
            let mut strict = IngestQueues::exact(Arc::clone(&capture), queues, FaultPolicy::Fail)
                .unwrap()
                .spawn();
            let (parsed, terminal) = drain(&mut strict);
            assert_eq!(parsed, records[..199], "every record ahead of the tear");
            assert!(matches!(
                terminal,
                Some(StreamError::Pcap(PcapError::TruncatedRecordBody { .. }))
            ));

            let (parsed, faults) =
                IngestQueues::exact(Arc::clone(&capture), queues, FaultPolicy::SkipRecord)
                    .unwrap()
                    .spawn()
                    .into_records()
                    .unwrap();
            assert_eq!(parsed, records[..199]);
            assert_eq!(faults.streams_truncated, 1);
        }
    }

    #[test]
    fn empty_capture_yields_nothing_on_every_path() {
        let bytes = capture_of(&[]);
        let mut stream = MappedPcapStream::with_policy(&bytes, FaultPolicy::Fail).unwrap();
        assert!(drain(&mut stream).0.is_empty());
        let capture = Arc::new(MappedCapture::from_bytes(bytes));
        for queues in [1, 4] {
            let mut merged = IngestQueues::exact(Arc::clone(&capture), queues, FaultPolicy::Fail)
                .unwrap()
                .spawn();
            assert_eq!(drain(&mut merged), (Vec::new(), None));
        }
    }

    #[test]
    fn new_right_sizes_to_available_parallelism() {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        let bytes = capture_of(&(0..100).map(record).collect::<Vec<_>>());
        let capture = Arc::new(MappedCapture::from_bytes(bytes));
        let planned = IngestQueues::new(Arc::clone(&capture), 4, FaultPolicy::Fail).unwrap();
        assert_eq!(planned.queues(), 4.min(cores));
        let exact = IngestQueues::exact(capture, 4, FaultPolicy::Fail).unwrap();
        assert_eq!(exact.queues(), 4);
    }

    #[test]
    fn ingest_mode_parses_and_displays() {
        let queues = |s: &str| s.parse::<IngestMode>().map(|mode| mode.queues);
        assert_eq!(queues("read"), Ok(1));
        assert_eq!(queues("mmap"), Ok(1));
        assert_eq!(queues("mmap:4"), Ok(4));
        assert_eq!(queues("mapped:2"), Ok(2));
        assert!(queues("mmap:0").is_err());
        assert!(queues("dma").is_err());
        assert_eq!(IngestMode { queues: 4 }.to_string(), "mmap:4");
        assert_eq!(IngestMode { queues: 1 }.to_string(), "read");
        assert_eq!(IngestMode::default(), IngestMode { queues: 1 });
    }

    #[test]
    fn mapped_capture_from_reader_buffers_pipes() {
        let bytes = capture_of(&(0..10).map(record).collect::<Vec<_>>());
        let capture = MappedCapture::from_reader(Cursor::new(bytes.clone())).unwrap();
        assert_eq!(capture.len(), bytes.len());
        assert!(!capture.is_empty());
        // Every reader starts at the first byte, whatever the others did.
        let (mut first, mut second) = (capture.reader(), capture.reader());
        let mut half = vec![0u8; bytes.len() / 2];
        first.read_exact(&mut half).unwrap();
        let mut whole = Vec::new();
        second.read_to_end(&mut whole).unwrap();
        assert_eq!(whole, bytes);
    }

    /// A scratch directory unique to this test process and `name`.
    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("synscan-ingest-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn load_fails_fast_on_what_cannot_be_a_capture() {
        let dir = scratch("load");
        let missing = MappedCapture::load(dir.join("no-such.pcap")).unwrap_err();
        assert_eq!(missing.kind(), io::ErrorKind::NotFound);
        // A directory opens fine and fails only when read; refuse it here.
        let directory = MappedCapture::load(&dir).unwrap_err();
        assert_eq!(directory.kind(), io::ErrorKind::InvalidInput);
        // An empty file is a file; it is the header parse that rejects it.
        let empty = dir.join("empty.pcap");
        std::fs::write(&empty, []).unwrap();
        let capture = Arc::new(MappedCapture::load(&empty).unwrap());
        assert!(capture.is_empty());
        assert_eq!(
            IngestQueues::new(capture, 2, FaultPolicy::SkipRecord).unwrap_err(),
            PcapError::TruncatedGlobalHeader
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streams_over_one_loaded_file_are_independent() {
        let dir = scratch("shared");
        // Three default windows long, so the reads really interleave.
        let records: Vec<ProbeRecord> = (0..40_000).map(record).collect();
        let path = dir.join("capture.pcap");
        std::fs::write(&path, capture_of(&records)).unwrap();
        let capture = Arc::new(MappedCapture::load(&path).unwrap());
        assert_eq!(capture.len(), GLOBAL_HEADER_LEN + 40_000 * RECORD);
        // Two streams open at once, pulled alternately: a shared file cursor
        // would interleave their reads.
        let open = |queues| {
            IngestQueues::exact(Arc::clone(&capture), queues, FaultPolicy::Fail)
                .unwrap()
                .spawn()
        };
        let (mut a, mut b) = (open(1), open(2));
        let (mut from_a, mut from_b) = (Vec::new(), Vec::new());
        loop {
            let more_a = a
                .try_next_batch()
                .unwrap()
                .map(|batch| from_a.extend_from_slice(batch));
            let more_b = b
                .try_next_batch()
                .unwrap()
                .map(|batch| from_b.extend_from_slice(batch));
            if more_a.is_none() && more_b.is_none() {
                break;
            }
        }
        assert_eq!(from_a, records);
        assert_eq!(from_b, records);
        // The file vanishing after `load` reads as an empty capture.
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            IngestQueues::new(capture, 1, FaultPolicy::Fail).unwrap_err(),
            PcapError::TruncatedGlobalHeader
        );
    }
}
