//! Sealed envelopes: the one header around every blob this crate persists
//! or ships — checkpoints (`SYNCKPT`), store slices (`SYNSTORE`) and
//! distributed-protocol frames (`SYNDIST`). Integers are little-endian:
//!
//! ```text
//! magic 8 | version u32 | [kind u8, frames only] | length u64 | checksum u64 | payload
//! ```
//!
//! The checksum is the FxHash of the kind byte (if any), then the payload.
//! A reader accepts exactly the version its build writes; any other is
//! [`EnvelopeError::UnsupportedVersion`], and the remedy is to re-run. So one
//! flipped bit anywhere is a typed error: bad magic, another version, a
//! length that disagrees with the bytes present (`Truncated`, or `Oversized`
//! past `MAX_PAYLOAD` before anything is allocated), or a checksum
//! mismatch. Files are whole slices (`seal`, `open`, `write_atomic`);
//! frames come off a pipe ([`write_frame`], `read_frame`), where an end of
//! stream *between* frames is a clean close.

use std::fs;
use std::hash::Hasher as _;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::fasthash::FxHasher;

/// The largest payload an envelope may announce: a larger length is a
/// corrupt field, which must not allocate.
pub(crate) const MAX_PAYLOAD: u64 = 1 << 30;

/// One sealed format: its magic, the one version it reads and writes, and
/// whether its header carries a kind byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Format {
    magic: [u8; 8],
    version: u32,
    kinded: bool,
}

impl Format {
    /// Header bytes before the payload.
    const fn header_len(&self) -> usize {
        8 + 4 + self.kinded as usize + 8 + 8
    }
}

/// Pipeline checkpoints; version 2 added the heavy-hitter section, and
/// version 3 writes a fingerprint window only inside an open scan's body
/// (an idle source is its 20-byte slot).
pub(crate) const CHECKPOINT: Format = Format {
    magic: *b"SYNCKPT\0",
    version: 3,
    kinded: false,
};

/// Store slices; the word is major 1 (low half), minor 1 (high half).
pub(crate) const STORE: Format = Format {
    magic: *b"SYNSTORE",
    version: 0x0001_0001,
    kinded: false,
};

/// Protocol frames; version 2 replaced an FNV-1a payload checksum.
pub(crate) const FRAME: Format = Format {
    magic: *b"SYNDIST\0",
    version: 2,
    kinded: true,
};

/// Why an envelope could not be written, read or verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The file system or the pipe failed (operation, path, OS error).
    Io(String),
    /// The first eight bytes are not the format's magic.
    BadMagic,
    /// The blob was sealed under another version of its format.
    UnsupportedVersion {
        /// The version word found.
        found: u32,
        /// The one version this build reads.
        expected: u32,
    },
    /// The announced payload length is past `MAX_PAYLOAD`.
    Oversized(u64),
    /// The checksum does not match the kind and payload.
    ChecksumMismatch,
    /// The bytes ended before the envelope, or the structure inside it, did.
    Truncated,
    /// A read or write deadline expired mid-frame.
    TimedOut,
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::Io(e) => write!(f, "I/O failed: {e}"),
            EnvelopeError::BadMagic => write!(f, "bad magic (not this format)"),
            EnvelopeError::UnsupportedVersion { found, expected } => write!(
                f,
                "format version {found:#x}, but this build reads only {expected:#x}; \
                 re-run to regenerate it"
            ),
            EnvelopeError::Oversized(len) => {
                write!(f, "announces {len} payload bytes, past the cap")
            }
            EnvelopeError::ChecksumMismatch => write!(f, "checksum mismatch (corrupt or torn)"),
            EnvelopeError::Truncated => write!(f, "truncated"),
            EnvelopeError::TimedOut => write!(f, "deadline expired"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

impl From<io::Error> for EnvelopeError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            EnvelopeError::Truncated
        } else if synscan_wire::net::is_timeout(&e) {
            EnvelopeError::TimedOut
        } else {
            EnvelopeError::Io(e.to_string())
        }
    }
}

/// An [`EnvelopeError::Io`] naming what was being done to which path.
pub(crate) fn io_error(what: &str, path: &Path, e: io::Error) -> EnvelopeError {
    EnvelopeError::Io(format!("{what} {}: {e}", path.display()))
}

/// The envelope checksum.
fn checksum(kind: Option<u8>, payload: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    if let Some(kind) = kind {
        hasher.write_u8(kind);
    }
    hasher.write(payload);
    hasher.finish()
}

/// The header sealing `payload` under `format`.
fn header(format: &Format, kind: Option<u8>, payload: &[u8]) -> Vec<u8> {
    debug_assert_eq!(kind.is_some(), format.kinded);
    let mut out = Vec::with_capacity(format.header_len());
    out.extend_from_slice(&format.magic);
    out.extend_from_slice(&format.version.to_le_bytes());
    out.extend(kind);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(kind, payload).to_le_bytes());
    out
}

/// Parse a header, exactly `format.header_len()` bytes, into its kind byte,
/// payload length and checksum.
fn parse(format: &Format, head: &[u8]) -> Result<(Option<u8>, u64, u64), EnvelopeError> {
    let word = |at: usize| u64::from_le_bytes(head[at..at + 8].try_into().expect("8 bytes"));
    if head[..8] != format.magic {
        return Err(EnvelopeError::BadMagic);
    }
    let found = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
    if found != format.version {
        let expected = format.version;
        return Err(EnvelopeError::UnsupportedVersion { found, expected });
    }
    let at = 12 + usize::from(format.kinded);
    match word(at) {
        len if len > MAX_PAYLOAD => Err(EnvelopeError::Oversized(len)),
        len => Ok((format.kinded.then_some(head[12]), len, word(at + 8))),
    }
}

/// `payload`, if it matches the header's kind and checksum.
fn verified<T: AsRef<[u8]>>(kind: Option<u8>, sum: u64, payload: T) -> Result<T, EnvelopeError> {
    if checksum(kind, payload.as_ref()) != sum {
        return Err(EnvelopeError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Seal `payload` as a whole file of a kindless `format`.
pub(crate) fn seal(format: &Format, payload: &[u8]) -> Vec<u8> {
    let mut out = header(format, None, payload);
    out.extend_from_slice(payload);
    out
}

/// Verify a whole file of a kindless `format` and return its payload.
pub(crate) fn open<'a>(format: &Format, bytes: &'a [u8]) -> Result<&'a [u8], EnvelopeError> {
    let (head, payload) = bytes
        .split_at_checked(format.header_len())
        .ok_or(EnvelopeError::Truncated)?;
    let (kind, len, sum) = parse(format, head)?;
    if payload.len() as u64 != len {
        return Err(EnvelopeError::Truncated);
    }
    verified(kind, sum, payload)
}

/// Write `bytes` to `path` so that a crash leaves either the previous file
/// or the new one: staged to a `.tmp` sibling, synced, renamed into place.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), EnvelopeError> {
    let tmp = path.with_added_extension("tmp");
    let mut file = fs::File::create(&tmp).map_err(|e| io_error("create", &tmp, e))?;
    file.write_all(bytes)
        .map_err(|e| io_error("write", &tmp, e))?;
    file.sync_all().map_err(|e| io_error("sync", &tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| io_error("rename", &tmp, e))
}

/// Write one `SYNDIST` frame and flush: messages are request/response shaped, so
/// an unflushed frame would deadlock both peers.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<(), EnvelopeError> {
    w.write_all(&header(&FRAME, Some(kind), payload))?;
    w.write_all(payload)?;
    Ok(w.flush()?)
}

/// Read one `SYNDIST` frame: its kind byte and verified payload, or `None` when
/// the stream ends before the first header byte.
pub(crate) fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, EnvelopeError> {
    let mut head = [0u8; FRAME.header_len()];
    // `read_exact` would fold "closed between frames" and "died mid-header"
    // into one `UnexpectedEof`.
    let mut filled = 0;
    while filled < head.len() {
        match r.read(&mut head[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(EnvelopeError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let (kind, len, sum) = parse(&FRAME, &head)?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let kind = kind.expect("frames carry a kind");
    Ok(Some((kind, verified(Some(kind), sum, payload)?)))
}

#[cfg(test)]
mod tests {
    //! Every format's cuts and flips; which error each kind of frame damage
    //! gets is pinned case by case in `crate::frame`'s tests.
    use super::*;
    use std::io::Cursor;
    use synscan_wire::net::{ChaosSocket, NetChaosPlan};

    const PAYLOAD: &[u8] = b"have you SYN me? a payload past one FxHash word";

    /// One small sealed blob of every format.
    fn samples() -> [(Format, Vec<u8>); 3] {
        let mut frame = Vec::new();
        write_frame(&mut frame, 3, PAYLOAD).unwrap();
        [
            (CHECKPOINT, seal(&CHECKPOINT, PAYLOAD)),
            (STORE, seal(&STORE, PAYLOAD)),
            (FRAME, frame),
        ]
    }

    /// Read `bytes` back the way its format is read: a whole file, or the
    /// next frame off a pipe.
    fn reopen(format: &Format, bytes: &[u8]) -> Result<Option<Vec<u8>>, EnvelopeError> {
        if format.kinded {
            Ok(read_frame(&mut Cursor::new(bytes))?.map(|(_, payload)| payload))
        } else {
            open(format, bytes).map(|payload| Some(payload.to_vec()))
        }
    }

    #[test]
    fn every_format_reads_back_what_it_sealed() {
        for (format, bytes) in samples() {
            assert_eq!(bytes.len(), format.header_len() + PAYLOAD.len());
            assert_eq!(reopen(&format, &bytes), Ok(Some(PAYLOAD.to_vec())));
        }
    }

    #[test]
    fn every_cut_is_truncated_or_a_clean_close() {
        for (format, bytes) in samples() {
            for cut in 0..bytes.len() {
                let expected = if format.kinded && cut == 0 {
                    Ok(None)
                } else {
                    Err(EnvelopeError::Truncated)
                };
                assert_eq!(
                    reopen(&format, &bytes[..cut]),
                    expected,
                    "{format:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn every_bit_flip_is_a_typed_error() {
        for (format, bytes) in samples() {
            let len_at = 12 + usize::from(format.kinded);
            for bit in 0..bytes.len() * 8 {
                let at = bit / 8;
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << (bit % 8);
                let result = reopen(&format, &flipped);
                let typed = match at {
                    0..8 => result == Err(EnvelopeError::BadMagic),
                    8..12 => matches!(result, Err(EnvelopeError::UnsupportedVersion { .. })),
                    // A file's length must match its bytes; a frame reads
                    // what its length says, so a shorter one fails the
                    // checksum and a longer one the pipe or the cap.
                    _ if (len_at..len_at + 8).contains(&at) => matches!(
                        result,
                        Err(EnvelopeError::Truncated
                            | EnvelopeError::Oversized(_)
                            | EnvelopeError::ChecksumMismatch)
                    ),
                    // The kind byte, the checksum and the payload.
                    _ => result == Err(EnvelopeError::ChecksumMismatch),
                };
                assert!(typed, "{format:?} bit {bit}: {result:?}");
            }
        }
    }

    #[test]
    fn file_checksums_are_the_fxhash_of_the_payload() {
        // The checksum SYNCKPT and SYNSTORE files have always carried.
        let mut hasher = FxHasher::default();
        hasher.write(PAYLOAD);
        for (format, bytes) in &samples()[..2] {
            assert_eq!(bytes[20..28], hasher.finish().to_le_bytes(), "{format:?}");
        }
    }

    #[test]
    fn frames_corrupted_on_a_chaos_socket_fail_typed() {
        let payload = vec![0x5au8; 600];
        let mut socket = ChaosSocket::new(Vec::new(), NetChaosPlan::corrupting(9));
        write_frame(&mut socket, 1, &payload).unwrap();
        assert!(socket.log().corrupted_bytes > 0);
        let result = read_frame(&mut Cursor::new(socket.into_inner()));
        assert!(
            matches!(
                result,
                Err(EnvelopeError::ChecksumMismatch
                    | EnvelopeError::BadMagic
                    | EnvelopeError::UnsupportedVersion { .. }
                    | EnvelopeError::Oversized(_)
                    | EnvelopeError::Truncated)
            ),
            "{result:?}"
        );
    }
}
