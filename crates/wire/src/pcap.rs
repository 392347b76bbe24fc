//! Classic libpcap capture file format (the `.pcap` tcpdump format).
//!
//! The telescope stores raw traffic as pcap; this module implements the
//! format from scratch: the 24-byte global header (magic `0xa1b2c3d4`,
//! microsecond timestamps) and per-record headers, in both byte orders on
//! read, native-order little-endian on write.
//!
//! Real telescope archives decay: disks fill mid-write, copies are cut
//! short, bitrot flips length fields. The reader
//! ([`crate::ingest::PcapStream`]) therefore never panics on hostile input —
//! every malformation maps to a typed [`PcapError`] telling the consumer
//! exactly what broke and whether the stream can continue past it
//! ([`PcapError::recoverable`]).

use std::io::{self, Read, Write};

use crate::WireError;

/// Magic number for microsecond-resolution pcap, as written.
pub(crate) const MAGIC_MICROS: u32 = 0xa1b2_c3d4;
/// Magic for nanosecond-resolution pcap (accepted on read).
pub(crate) const MAGIC_NANOS: u32 = 0xa1b2_3c4d;
/// Link type LINKTYPE_ETHERNET.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Largest per-record capture length the reader will trust. Real snap
/// lengths never exceed 256 KiB; a larger value is a corrupt length field.
pub(crate) const MAX_SNAPLEN: u32 = 1 << 18;
/// Size of the classic pcap global header in bytes.
pub(crate) const GLOBAL_HEADER_LEN: usize = 24;
/// Size of a per-record header in bytes.
pub(crate) const RECORD_HEADER_LEN: usize = 16;

/// Everything that can be wrong with a classic pcap stream, precisely.
///
/// The old reader folded all of these into two [`WireError`] variants (and
/// `unwrap()`-ed its header slicing); the fault-injection work needs to
/// distinguish "the file is not pcap at all" from "one record is torn", so
/// each malformation gets its own variant. `From<PcapError> for WireError`
/// keeps the coarse view available.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcapError {
    /// Fewer than 24 bytes of global header.
    TruncatedGlobalHeader,
    /// The magic number matches neither byte order of either resolution.
    BadMagic(u32),
    /// A record header started but ended before its 16th byte. Zero bytes is
    /// a clean EOF (`Ok(None)`), never this error — the count distinguishes a
    /// genuinely torn header (1–15 bytes) so fault counters do not misreport
    /// clean ends of concatenated captures as corruption.
    TruncatedRecordHeader {
        /// Header bytes actually present (1–15).
        got: u32,
    },
    /// A record body ended early (mid-file EOF / torn tail).
    TruncatedRecordBody {
        /// Bytes the record header promised.
        expected: u32,
        /// Bytes actually present.
        got: u32,
    },
    /// The captured length exceeds `MAX_SNAPLEN` — a corrupt length field
    /// that would otherwise drive a huge allocation and lose framing.
    SnapLenOverflow(u32),
    /// The header claims zero bytes on the wire yet carries captured bytes —
    /// no real frame is zero-length. Recoverable: the body was consumed, so
    /// the reader is still aligned on the next record.
    ZeroLengthRecord {
        /// Captured bytes carried by the bogus record.
        incl: u32,
    },
    /// The header claims more captured bytes than were on the wire: a
    /// capture cannot exceed its frame, so one of the two lengths lies (an
    /// `incl_len` that lies swallows the records behind it). Recoverable as
    /// a zero-length record is: the `incl_len` bytes were consumed.
    CaptureExceedsWire {
        /// Captured bytes the header claims.
        incl: u32,
        /// Wire length the header claims (at least 1, below `incl`).
        orig: u32,
    },
}

impl PcapError {
    /// Whether the reader is still aligned on the next record boundary after
    /// this error — i.e. a skip-faults consumer may keep reading. Length
    /// corruption and truncation lose framing for good.
    pub fn recoverable(&self) -> bool {
        matches!(
            self,
            PcapError::ZeroLengthRecord { .. } | PcapError::CaptureExceedsWire { .. }
        )
    }

    /// Capture bytes rendered unusable by this error (for fault counters).
    pub(crate) fn bytes_lost(&self) -> u64 {
        match self {
            PcapError::TruncatedRecordHeader { got } => u64::from(*got),
            PcapError::TruncatedRecordBody { got, .. } => u64::from(*got),
            PcapError::ZeroLengthRecord { incl } | PcapError::CaptureExceedsWire { incl, .. } => {
                u64::from(*incl)
            }
            _ => 0,
        }
    }
}

impl core::fmt::Display for PcapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PcapError::TruncatedGlobalHeader => write!(f, "truncated pcap global header"),
            PcapError::BadMagic(magic) => write!(f, "bad pcap magic {magic:#010x}"),
            PcapError::TruncatedRecordHeader { got } => {
                write!(
                    f,
                    "truncated pcap record header ({got} of {RECORD_HEADER_LEN} bytes)"
                )
            }
            PcapError::TruncatedRecordBody { expected, got } => {
                write!(f, "truncated pcap record body ({got} of {expected} bytes)")
            }
            PcapError::SnapLenOverflow(len) => {
                write!(f, "pcap record capture length {len} exceeds {MAX_SNAPLEN}")
            }
            PcapError::ZeroLengthRecord { incl } => {
                write!(
                    f,
                    "pcap record claims zero wire length but carries {incl} bytes"
                )
            }
            PcapError::CaptureExceedsWire { incl, orig } => {
                write!(
                    f,
                    "pcap record carries {incl} captured bytes of a {orig}-byte frame"
                )
            }
        }
    }
}

impl std::error::Error for PcapError {}

impl From<PcapError> for WireError {
    fn from(e: PcapError) -> Self {
        match e {
            PcapError::TruncatedGlobalHeader
            | PcapError::TruncatedRecordHeader { .. }
            | PcapError::TruncatedRecordBody { .. } => WireError::Truncated,
            PcapError::BadMagic(_)
            | PcapError::SnapLenOverflow(_)
            | PcapError::ZeroLengthRecord { .. }
            | PcapError::CaptureExceedsWire { .. } => WireError::Malformed,
        }
    }
}

/// Streaming pcap writer.
#[derive(Debug)]
pub struct PcapWriter<W: Write> {
    inner: W,
    snaplen: u32,
}

impl<W: Write> PcapWriter<W> {
    /// Create a writer and emit the global header for the given link type.
    pub fn new(mut inner: W, linktype: u32) -> io::Result<Self> {
        let snaplen: u32 = 65535;
        inner.write_all(&MAGIC_MICROS.to_le_bytes())?;
        inner.write_all(&2u16.to_le_bytes())?; // version major
        inner.write_all(&4u16.to_le_bytes())?; // version minor
        inner.write_all(&0i32.to_le_bytes())?; // thiszone
        inner.write_all(&0u32.to_le_bytes())?; // sigfigs
        inner.write_all(&snaplen.to_le_bytes())?;
        inner.write_all(&linktype.to_le_bytes())?;
        Ok(Self { inner, snaplen })
    }

    /// Append one record, truncating to the snap length if needed.
    pub fn write_record(&mut self, ts_micros: u64, frame: &[u8]) -> io::Result<()> {
        let ts_sec = (ts_micros / 1_000_000) as u32;
        let ts_usec = (ts_micros % 1_000_000) as u32;
        let incl = frame.len().min(self.snaplen as usize);
        self.inner.write_all(&ts_sec.to_le_bytes())?;
        self.inner.write_all(&ts_usec.to_le_bytes())?;
        self.inner.write_all(&(incl as u32).to_le_bytes())?;
        self.inner.write_all(&(frame.len() as u32).to_le_bytes())?;
        self.inner.write_all(&frame[..incl])?;
        Ok(())
    }

    /// Flush and return the underlying writer.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

impl PcapWriter<Vec<u8>> {
    /// Bytes emitted so far (header plus records) when writing to memory —
    /// lets rewriters compute exact tear offsets without re-deriving framing.
    pub fn buffered_len(&self) -> usize {
        self.inner.len()
    }
}

/// Read as many bytes as the source can give, stopping only at EOF. Returns
/// the byte count, so callers can tell a clean boundary (0) from a torn one.
/// Non-EOF I/O errors surface as a short read too — sans-I/O consumers treat
/// an unreadable tail exactly like a truncated one.
pub(crate) fn read_fully<R: Read>(reader: &mut R, buf: &mut [u8]) -> usize {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    filled
}

/// Little-endian `u32` at a fixed offset of a header, swapped when the
/// capture is opposite-endian. Infallible for the fixed-size headers it is
/// given, so header decoding never slices with `try_into().unwrap()`.
pub(crate) fn header_u32(buf: &[u8], offset: usize, swapped: bool) -> u32 {
    let v = u32::from_le_bytes([
        buf[offset],
        buf[offset + 1],
        buf[offset + 2],
        buf[offset + 3],
    ]);
    if swapped {
        v.swap_bytes()
    } else {
        v
    }
}

/// The decoded global header of a classic pcap stream: byte order, timestamp
/// resolution, and link type. Every reader of a capture — the windowed
/// [`crate::ingest::PcapStream`], its per-chunk decoder and
/// [`crate::chaos::corrupt_pcap`] — opens it through here, so all accept
/// exactly the same set of captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GlobalHeader {
    /// Whether every multi-byte field is byte-swapped relative to the host.
    pub swapped: bool,
    /// Whether timestamps carry nanosecond (rather than microsecond) fractions.
    pub nanos: bool,
    /// The declared link type (e.g. [`LINKTYPE_ETHERNET`]).
    pub linktype: u32,
}

impl GlobalHeader {
    /// Decode and validate a 24-byte global header.
    fn parse(header: &[u8; GLOBAL_HEADER_LEN]) -> Result<Self, PcapError> {
        let magic = header_u32(header, 0, false);
        let (swapped, nanos) = match magic {
            MAGIC_MICROS => (false, false),
            MAGIC_NANOS => (false, true),
            m if m.swap_bytes() == MAGIC_MICROS => (true, false),
            m if m.swap_bytes() == MAGIC_NANOS => (true, true),
            m => return Err(PcapError::BadMagic(m)),
        };
        Ok(Self {
            swapped,
            nanos,
            linktype: header_u32(header, 20, swapped),
        })
    }

    /// Read and validate the global header off the front of a stream, so a
    /// non-pcap input fails when it is opened, not at its first record.
    pub(crate) fn read<R: Read>(reader: &mut R) -> Result<Self, PcapError> {
        let mut header = [0u8; GLOBAL_HEADER_LEN];
        if read_fully(reader, &mut header) < header.len() {
            return Err(PcapError::TruncatedGlobalHeader);
        }
        Self::parse(&header)
    }
}

#[cfg(test)]
mod tests {
    //! Every capture here is read by the product's reader: the windowed
    //! stream behind [`IngestQueues`], on one decode queue (inline) and on
    //! three (threaded).
    use super::*;
    use crate::ingest::{IngestQueues, MappedCapture};
    use crate::probe::{ProbeRecord, SynFrameBuilder};
    use crate::stream::{FaultCounters, FaultPolicy, StreamError, TryRecordStream};
    use crate::tcp::TcpFlags;
    use crate::Ipv4Address;
    use std::sync::Arc;

    /// Link type LINKTYPE_RAW (raw IP).
    const LINKTYPE_RAW: u32 = 101;

    /// Decode queues every capture is read on.
    const QUEUES: [usize; 2] = [1, 3];

    fn probe(i: u32) -> ProbeRecord {
        ProbeRecord {
            ts_micros: 1_000_000 + u64::from(i),
            src_ip: Ipv4Address::new(198, 51, 100, i as u8),
            dst_ip: Ipv4Address::new(192, 0, 2, 7),
            src_port: 40_000,
            dst_port: 23,
            seq: i.wrapping_mul(2_654_435_761),
            ip_id: 54_321,
            ttl: 51,
            flags: TcpFlags::SYN,
            window: 1024,
        }
    }

    fn frame(record: &ProbeRecord) -> Vec<u8> {
        SynFrameBuilder::default().build(record)
    }

    fn write_capture(records: &[(u64, Vec<u8>)]) -> Vec<u8> {
        let mut writer = PcapWriter::new(Vec::new(), LINKTYPE_ETHERNET).unwrap();
        for (ts, frame) in records {
            writer.write_record(*ts, frame).unwrap();
        }
        writer.into_inner().unwrap()
    }

    /// A capture of probe frames, each stamped with its record's time.
    fn capture_of(records: &[ProbeRecord]) -> Vec<u8> {
        write_capture(
            &records
                .iter()
                .map(|r| (r.ts_micros, frame(r)))
                .collect::<Vec<_>>(),
        )
    }

    /// A record header with free-form fields, in little-endian order.
    fn raw_header(bytes: &mut Vec<u8>, ts_sec: u32, ts_frac: u32, incl: u32, orig: u32) {
        for field in [ts_sec, ts_frac, incl, orig] {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
    }

    /// Everything the product's reader makes of one capture.
    #[derive(Debug, PartialEq)]
    struct Ingested {
        records: Vec<ProbeRecord>,
        terminal: Option<StreamError>,
        faults: FaultCounters,
        non_tcp: u64,
    }

    fn ingest(bytes: &[u8], policy: FaultPolicy, queues: usize) -> Result<Ingested, PcapError> {
        let capture = Arc::new(MappedCapture::from_bytes(bytes.to_vec()));
        let mut stream = IngestQueues::exact(capture, queues, policy)?.spawn();
        let mut records = Vec::new();
        let terminal = loop {
            match stream.try_next_batch() {
                Ok(Some(batch)) => records.extend_from_slice(batch),
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        Ok(Ingested {
            records,
            terminal,
            faults: stream.faults(),
            non_tcp: stream.non_tcp_frames(),
        })
    }

    /// The fault that ends `bytes` under [`FaultPolicy::Fail`], with the
    /// records read ahead of it, the same on every queue count.
    fn fails_with(bytes: &[u8]) -> (Vec<ProbeRecord>, PcapError) {
        let [inline, threaded] = QUEUES.map(|q| ingest(bytes, FaultPolicy::Fail, q).unwrap());
        assert_eq!(inline, threaded);
        match inline.terminal {
            Some(StreamError::Pcap(e)) => (inline.records, e),
            other => panic!("expected a pcap fault, got {other:?}"),
        }
    }

    /// The records a clean capture reads to, the same on every queue count.
    fn reads_cleanly(bytes: &[u8]) -> Ingested {
        let [inline, threaded] = QUEUES.map(|q| ingest(bytes, FaultPolicy::Fail, q).unwrap());
        assert_eq!(inline, threaded);
        assert_eq!(inline.terminal, None);
        assert!(!inline.faults.any());
        inline
    }

    #[test]
    fn write_read_round_trip() {
        let records: Vec<ProbeRecord> = (0..3).map(probe).collect();
        let bytes = capture_of(&records);
        let meta = GlobalHeader::read(&mut &bytes[..]).unwrap();
        assert_eq!(meta.linktype, LINKTYPE_ETHERNET);
        let read = reads_cleanly(&bytes);
        assert_eq!((read.records, read.non_tcp), (records, 0));
    }

    #[test]
    fn big_endian_capture_is_readable() {
        // Hand-build a big-endian (swapped) capture of two probe frames:
        // magic, version 2.4, zone, sigfigs, snaplen, link type.
        let mut bytes: Vec<u8> = [MAGIC_MICROS, 0x0002_0004, 0, 0, 65535, LINKTYPE_RAW]
            .iter()
            .flat_map(|word| word.to_be_bytes())
            .collect();
        let mut expected = Vec::new();
        for usec in [13, 14] {
            let record = probe(usec);
            let frame = frame(&record);
            let len = frame.len() as u32;
            let header = [7, usec, len, len]; // ts_sec, ts_usec, incl, orig
            bytes.extend(header.iter().flat_map(|word| word.to_be_bytes()));
            bytes.extend_from_slice(&frame);
            expected.push(ProbeRecord {
                ts_micros: 7_000_000 + u64::from(usec),
                ..record
            });
        }
        let meta = GlobalHeader::read(&mut &bytes[..]).unwrap();
        assert_eq!((meta.swapped, meta.linktype), (true, LINKTYPE_RAW));
        assert_eq!(reads_cleanly(&bytes).records, expected);
    }

    #[test]
    fn nanosecond_capture_timestamps_are_scaled() {
        let mut bytes = write_capture(&[]);
        bytes[..4].copy_from_slice(&MAGIC_NANOS.to_le_bytes());
        let frame = frame(&probe(0));
        let len = frame.len() as u32;
        raw_header(&mut bytes, 1, 999_999_000, len, len); // nanoseconds
        bytes.extend_from_slice(&frame);
        let read = reads_cleanly(&bytes);
        assert_eq!(read.records.len(), 1);
        assert_eq!(read.records[0].ts_micros, 1_999_999);
    }

    #[test]
    fn bad_magic_is_rejected() {
        for queues in QUEUES {
            let err = ingest(&[0u8; 24], FaultPolicy::SkipRecord, queues).unwrap_err();
            assert_eq!(err, PcapError::BadMagic(0));
        }
    }

    #[test]
    fn truncated_global_header_is_rejected() {
        let bytes = write_capture(&[])[..10].to_vec();
        for queues in QUEUES {
            let err = ingest(&bytes, FaultPolicy::SkipRecord, queues).unwrap_err();
            assert_eq!(err, PcapError::TruncatedGlobalHeader);
        }
    }

    #[test]
    fn truncated_record_header_is_an_error_not_a_clean_eof() {
        let record = probe(0);
        let mut bytes = capture_of(&[record]);
        bytes.extend_from_slice(&[0u8; 7]); // 7 of 16 header bytes
        let (read, err) = fails_with(&bytes);
        assert_eq!(read, [record], "the record ahead of the tear is read");
        assert_eq!(err, PcapError::TruncatedRecordHeader { got: 7 });
        assert!(err.to_string().contains("7 of 16"));
        for queues in QUEUES {
            let skip = ingest(&bytes, FaultPolicy::SkipRecord, queues).unwrap();
            assert_eq!((skip.records.len(), skip.terminal), (1, None));
            assert_eq!(skip.faults.streams_truncated, 1);
            assert_eq!(skip.faults.bytes_dropped, 7, "the torn bytes are accounted");
        }
    }

    #[test]
    fn truncated_record_body_is_an_error() {
        let records = [probe(0), probe(1)];
        let mut bytes = capture_of(&records);
        bytes.truncate(bytes.len() - 4);
        let (read, err) = fails_with(&bytes);
        assert_eq!(read, records[..1]);
        let (expected, got) = (54, 50);
        assert_eq!(err, PcapError::TruncatedRecordBody { expected, got });
    }

    #[test]
    fn absurd_incl_len_is_rejected() {
        let mut bytes = write_capture(&[]);
        raw_header(&mut bytes, 0, 0, 1 << 30, 4);
        let (read, err) = fails_with(&bytes);
        assert!(read.is_empty());
        assert_eq!(err, PcapError::SnapLenOverflow(1 << 30));
    }

    #[test]
    fn zero_length_record_is_recoverable() {
        // header claims orig_len == 0 while carrying 4 bytes; the record
        // after it must still be read (the reader stays aligned).
        let mut bytes = write_capture(&[]);
        raw_header(&mut bytes, 1, 0, 4, 0); // orig_len = 0: bogus
        bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        let record = probe(9);
        bytes.extend_from_slice(&capture_of(&[record])[GLOBAL_HEADER_LEN..]);
        let (read, err) = fails_with(&bytes);
        assert!(read.is_empty());
        assert_eq!(err, PcapError::ZeroLengthRecord { incl: 4 });
        assert!(err.recoverable());
        for queues in QUEUES {
            let skip = ingest(&bytes, FaultPolicy::SkipRecord, queues).unwrap();
            assert_eq!((skip.records, skip.terminal), (vec![record], None));
            let faults = skip.faults;
            let skipped = (faults.records_skipped, faults.bytes_dropped);
            assert_eq!((skipped, faults.streams_truncated), ((1, 4), 0));
        }
    }

    #[test]
    fn empty_frames_with_zero_wire_length_remain_valid() {
        // (incl 0, orig 0) is a legitimate empty record, not a fault: it is
        // a frame that is not TCP, and the record after it is read.
        let record = probe(4);
        let bytes = write_capture(&[(5, Vec::new()), (record.ts_micros, frame(&record))]);
        let read = reads_cleanly(&bytes);
        assert_eq!((read.records, read.non_tcp), (vec![record], 1));
    }

    #[test]
    fn error_display_names_the_fault() {
        assert!(PcapError::BadMagic(0xdead_beef)
            .to_string()
            .contains("0xdeadbeef"));
        assert!(PcapError::TruncatedRecordBody {
            expected: 20,
            got: 5
        }
        .to_string()
        .contains("5 of 20"));
        assert_eq!(
            WireError::from(PcapError::TruncatedGlobalHeader),
            WireError::Truncated
        );
        assert_eq!(
            WireError::from(PcapError::SnapLenOverflow(1 << 20)),
            WireError::Malformed
        );
    }
}
