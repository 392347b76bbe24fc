//! Classic libpcap capture file format (the `.pcap` tcpdump format).
//!
//! The telescope stores raw traffic as pcap; this module implements the
//! format from scratch: the 24-byte global header (magic `0xa1b2c3d4`,
//! microsecond timestamps) and per-record headers, in both byte orders on
//! read, native-order little-endian on write.
//!
//! Real telescope archives decay: disks fill mid-write, copies are cut
//! short, bitrot flips length fields. The reader therefore never panics on
//! hostile input — every malformation maps to a typed [`PcapError`] telling
//! the consumer exactly what broke and whether the stream can continue past
//! it ([`PcapError::recoverable`]).

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
}

impl PcapError {
    /// Whether the reader is still aligned on the next record boundary after
    /// this error — i.e. a skip-faults consumer may keep reading. Length
    /// corruption and truncation lose framing for good.
    pub fn recoverable(&self) -> bool {
        matches!(self, PcapError::ZeroLengthRecord { .. })
    }

    /// Capture bytes rendered unusable by this error (for fault counters).
    pub(crate) fn bytes_lost(&self) -> u64 {
        match self {
            PcapError::TruncatedRecordHeader { got } => u64::from(*got),
            PcapError::TruncatedRecordBody { got, .. } => u64::from(*got),
            PcapError::ZeroLengthRecord { incl } => u64::from(*incl),
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
            | PcapError::ZeroLengthRecord { .. } => WireError::Malformed,
        }
    }
}

/// One captured record: timestamp plus frame bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapRecord {
    /// Timestamp in microseconds since the epoch.
    pub ts_micros: u64,
    /// Original length of the frame on the wire.
    pub orig_len: u32,
    /// Captured bytes (may be shorter than `orig_len` if snapped).
    pub data: Vec<u8>,
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

/// Little-endian `u32` at a fixed offset of a fixed-size header buffer.
/// Infallible by construction — this replaces the `try_into().unwrap()`
/// slicing the reader used to do on header bytes.
fn u32_at(buf: &[u8], offset: usize, swapped: bool) -> u32 {
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
/// resolution, and link type. Shared by the record-at-a-time [`PcapReader`]
/// and the windowed [`crate::ingest::PcapStream`] so both accept exactly the
/// same set of captures.
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
    pub(crate) fn parse(header: &[u8; GLOBAL_HEADER_LEN]) -> Result<Self, PcapError> {
        let magic = u32_at(header, 0, false);
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
            linktype: u32_at(header, 20, swapped),
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

/// Little-endian `u32` at a fixed offset, swapped when the capture is
/// opposite-endian. Crate-internal: the batched ingest layer decodes record
/// headers with the same primitive the streaming reader uses.
pub(crate) fn header_u32(buf: &[u8], offset: usize, swapped: bool) -> u32 {
    u32_at(buf, offset, swapped)
}

/// Streaming pcap reader handling both byte orders and both time resolutions.
#[derive(Debug)]
pub struct PcapReader<R: Read> {
    inner: R,
    swapped: bool,
    nanos: bool,
    linktype: u32,
}

impl<R: Read> PcapReader<R> {
    /// Open a pcap stream, parsing and validating the global header.
    pub fn new(mut inner: R) -> Result<Self, PcapError> {
        let meta = GlobalHeader::read(&mut inner)?;
        Ok(Self {
            inner,
            swapped: meta.swapped,
            nanos: meta.nanos,
            linktype: meta.linktype,
        })
    }

    /// The link type declared in the global header.
    pub(crate) fn linktype(&self) -> u32 {
        self.linktype
    }

    /// Read the next record; `Ok(None)` signals a clean end of stream.
    ///
    /// After a [`PcapError::recoverable`] error the reader is still aligned
    /// on the next record boundary and may be called again; after any other
    /// error the framing is lost and further reads yield garbage.
    pub fn next_record(&mut self) -> Result<Option<PcapRecord>, PcapError> {
        let mut rec_header = [0u8; RECORD_HEADER_LEN];
        match read_fully(&mut self.inner, &mut rec_header) {
            0 => return Ok(None),
            n if n < rec_header.len() => {
                return Err(PcapError::TruncatedRecordHeader { got: n as u32 })
            }
            _ => {}
        }
        let ts_sec = u64::from(u32_at(&rec_header, 0, self.swapped));
        let ts_frac = u64::from(u32_at(&rec_header, 4, self.swapped));
        let incl_len = u32_at(&rec_header, 8, self.swapped);
        let orig_len = u32_at(&rec_header, 12, self.swapped);
        // Defend against corrupt length fields before allocating or reading.
        if incl_len > MAX_SNAPLEN {
            return Err(PcapError::SnapLenOverflow(incl_len));
        }
        let mut data = vec![0u8; incl_len as usize];
        let got = read_fully(&mut self.inner, &mut data);
        if got < data.len() {
            return Err(PcapError::TruncatedRecordBody {
                expected: incl_len,
                got: got as u32,
            });
        }
        // The body is consumed either way, so this check runs after the
        // read: a skip-faults consumer stays aligned on the next record.
        if orig_len == 0 && incl_len > 0 {
            return Err(PcapError::ZeroLengthRecord { incl: incl_len });
        }
        let ts_micros = if self.nanos {
            ts_sec * 1_000_000 + ts_frac / 1000
        } else {
            ts_sec * 1_000_000 + ts_frac
        };
        Ok(Some(PcapRecord {
            ts_micros,
            orig_len,
            data,
        }))
    }
}

impl<R: Read> Iterator for PcapReader<R> {
    type Item = Result<PcapRecord, PcapError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Link type LINKTYPE_RAW (raw IP).
    const LINKTYPE_RAW: u32 = 101;

    fn write_capture(records: &[(u64, Vec<u8>)]) -> Vec<u8> {
        let mut writer = PcapWriter::new(Vec::new(), LINKTYPE_ETHERNET).unwrap();
        for (ts, frame) in records {
            writer.write_record(*ts, frame).unwrap();
        }
        writer.into_inner().unwrap()
    }

    #[test]
    fn write_read_round_trip() {
        let records = vec![
            (1_000_000u64, vec![1u8, 2, 3, 4]),
            (1_000_500, vec![5u8; 60]),
            (2_123_456, vec![0u8; 0]),
        ];
        let bytes = write_capture(&records);
        let mut reader = PcapReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(reader.linktype(), LINKTYPE_ETHERNET);
        for (ts, frame) in &records {
            let rec = reader.next_record().unwrap().unwrap();
            assert_eq!(rec.ts_micros, *ts);
            assert_eq!(&rec.data, frame);
            assert_eq!(rec.orig_len as usize, frame.len());
        }
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn iterator_interface() {
        let bytes = write_capture(&[(1, vec![9u8; 3]), (2, vec![8u8; 2])]);
        let reader = PcapReader::new(Cursor::new(bytes)).unwrap();
        let frames: Vec<_> = reader.map(|r| r.unwrap().data).collect();
        assert_eq!(frames, vec![vec![9u8; 3], vec![8u8; 2]]);
    }

    #[test]
    fn big_endian_capture_is_readable() {
        // Hand-build a big-endian (swapped) capture with one 4-byte record.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_MICROS.to_be_bytes());
        bytes.extend_from_slice(&2u16.to_be_bytes());
        bytes.extend_from_slice(&4u16.to_be_bytes());
        bytes.extend_from_slice(&0i32.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&65535u32.to_be_bytes());
        bytes.extend_from_slice(&LINKTYPE_RAW.to_be_bytes());
        bytes.extend_from_slice(&7u32.to_be_bytes()); // ts_sec
        bytes.extend_from_slice(&13u32.to_be_bytes()); // ts_usec
        bytes.extend_from_slice(&4u32.to_be_bytes()); // incl_len
        bytes.extend_from_slice(&4u32.to_be_bytes()); // orig_len
        bytes.extend_from_slice(&[1, 2, 3, 4]);
        let mut reader = PcapReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(reader.linktype(), LINKTYPE_RAW);
        let rec = reader.next_record().unwrap().unwrap();
        assert_eq!(rec.ts_micros, 7_000_013);
        assert_eq!(rec.data, vec![1, 2, 3, 4]);
    }

    #[test]
    fn nanosecond_capture_timestamps_are_scaled() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_NANOS.to_le_bytes());
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&4u16.to_le_bytes());
        bytes.extend_from_slice(&0i32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&65535u32.to_le_bytes());
        bytes.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&999_999_000u32.to_le_bytes()); // nanos
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(0xaa);
        let mut reader = PcapReader::new(Cursor::new(bytes)).unwrap();
        let rec = reader.next_record().unwrap().unwrap();
        assert_eq!(rec.ts_micros, 1_999_999);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let bytes = vec![0u8; 24];
        assert_eq!(
            PcapReader::new(Cursor::new(bytes)).unwrap_err(),
            PcapError::BadMagic(0)
        );
    }

    #[test]
    fn truncated_global_header_is_rejected() {
        let bytes = write_capture(&[])[..10].to_vec();
        assert_eq!(
            PcapReader::new(Cursor::new(bytes)).unwrap_err(),
            PcapError::TruncatedGlobalHeader
        );
    }

    #[test]
    fn truncated_record_header_is_an_error_not_a_clean_eof() {
        let mut bytes = write_capture(&[]);
        bytes.extend_from_slice(&[0u8; 7]); // 7 of 16 header bytes
        let mut reader = PcapReader::new(Cursor::new(bytes)).unwrap();
        let err = reader.next_record().unwrap_err();
        assert_eq!(err, PcapError::TruncatedRecordHeader { got: 7 });
        assert_eq!(err.bytes_lost(), 7, "the torn bytes are accounted");
        assert!(err.to_string().contains("7 of 16"));
    }

    #[test]
    fn truncated_record_body_is_an_error() {
        let mut bytes = write_capture(&[(1, vec![1u8; 8])]);
        bytes.truncate(bytes.len() - 4);
        let mut reader = PcapReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(
            reader.next_record().unwrap_err(),
            PcapError::TruncatedRecordBody {
                expected: 8,
                got: 4
            }
        );
    }

    #[test]
    fn absurd_incl_len_is_rejected() {
        let mut bytes = write_capture(&[]);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&(1u32 << 30).to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        let mut reader = PcapReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(
            reader.next_record().unwrap_err(),
            PcapError::SnapLenOverflow(1 << 30)
        );
    }

    #[test]
    fn zero_length_record_is_recoverable() {
        // header claims orig_len == 0 while carrying 4 bytes; the record
        // after it must still parse (the reader stays aligned).
        let mut bytes = write_capture(&[]);
        bytes.extend_from_slice(&1u32.to_le_bytes()); // ts_sec
        bytes.extend_from_slice(&0u32.to_le_bytes()); // ts_usec
        bytes.extend_from_slice(&4u32.to_le_bytes()); // incl_len
        bytes.extend_from_slice(&0u32.to_le_bytes()); // orig_len = 0: bogus
        bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&[7, 8, 9]);
        let mut reader = PcapReader::new(Cursor::new(bytes)).unwrap();
        let err = reader.next_record().unwrap_err();
        assert_eq!(err, PcapError::ZeroLengthRecord { incl: 4 });
        assert!(err.recoverable());
        assert_eq!(err.bytes_lost(), 4);
        let rec = reader.next_record().unwrap().unwrap();
        assert_eq!(rec.data, vec![7, 8, 9]);
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn empty_frames_with_zero_wire_length_remain_valid() {
        // (incl 0, orig 0) is a legitimate empty record, not a fault.
        let bytes = write_capture(&[(5, Vec::new())]);
        let mut reader = PcapReader::new(Cursor::new(bytes)).unwrap();
        let rec = reader.next_record().unwrap().unwrap();
        assert!(rec.data.is_empty());
        assert_eq!(rec.orig_len, 0);
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
