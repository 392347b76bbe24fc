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
//! mismatch. Files are whole slices, read with `open`; a blob kept in memory
//! is sealed in place behind the header its writer reserved
//! (`seal_in_place`), and a file is streamed to disk under a running
//! `Checksum` and renamed into place (`StagedFile`), so neither is ever
//! copied whole. Frames come off a pipe ([`write_frame`], `read_frame`),
//! where an end of stream *between* frames is a clean close.

use std::fs;
use std::hash::Hasher as _;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

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
    pub(crate) const fn header_len(&self) -> usize {
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

/// The envelope checksum of a payload fed in pieces split anywhere: the
/// FxHash of the kind byte (if any), then of the payload as one
/// `FxHasher::write` over all of it. That `write` hashes whole 8-byte words
/// and folds the length into the last, partial one, so a word is hashed as
/// soon as its eighth byte arrives, and only the partial tail waits for
/// [`Checksum::finish`]. Every format, in memory or streamed, checks with
/// this one.
#[derive(Debug)]
struct Checksum {
    hasher: FxHasher,
    /// The bytes of the word not yet complete, `tail[..tail_len]`.
    tail: [u8; 8],
    tail_len: usize,
}

impl Checksum {
    /// A checksum over nothing yet, seeded with `kind` if the format has one.
    fn new(kind: Option<u8>) -> Self {
        let mut hasher = FxHasher::default();
        if let Some(kind) = kind {
            hasher.write_u8(kind);
        }
        Self {
            hasher,
            tail: [0; 8],
            tail_len: 0,
        }
    }

    /// Feed the next `piece` of the payload.
    fn update(&mut self, mut piece: &[u8]) {
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(piece.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&piece[..take]);
            self.tail_len += take;
            piece = &piece[take..];
            if self.tail_len < 8 {
                return;
            }
            self.hasher.write(&self.tail);
            self.tail_len = 0;
        }
        let (words, rest) = piece.split_at(piece.len() & !7);
        self.hasher.write(words);
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// The checksum of everything fed so far.
    fn finish(&self) -> u64 {
        let mut hasher = self.hasher;
        hasher.write(&self.tail[..self.tail_len]);
        hasher.finish()
    }
}

/// The checksum of a whole payload.
fn checksum(kind: Option<u8>, payload: &[u8]) -> u64 {
    let mut sum = Checksum::new(kind);
    sum.update(payload);
    sum.finish()
}

/// The header of a `len`-byte payload whose checksum is `sum`.
fn header(format: &Format, kind: Option<u8>, len: u64, sum: u64) -> Vec<u8> {
    debug_assert_eq!(kind.is_some(), format.kinded);
    let mut out = Vec::with_capacity(format.header_len());
    out.extend_from_slice(&format.magic);
    out.extend_from_slice(&format.version.to_le_bytes());
    out.extend(kind);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&sum.to_le_bytes());
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

/// Seal a whole file of a kindless `format` in place: `blob` is the payload
/// behind `format.header_len()` bytes reserved for the header, which this
/// fills in. The payload is never copied.
pub(crate) fn seal_in_place(format: &Format, blob: &mut [u8]) {
    let (head, payload) = blob.split_at_mut(format.header_len());
    let sum = checksum(None, payload);
    head.copy_from_slice(&header(format, None, payload.len() as u64, sum));
}

/// `payload` sealed as a whole file of a kindless `format`, in a new blob:
/// what a writer other than this crate's encoders could have produced.
#[cfg(test)]
pub(crate) fn sealed(format: &Format, payload: &[u8]) -> Vec<u8> {
    let mut blob = vec![0; format.header_len()];
    blob.extend_from_slice(payload);
    seal_in_place(format, &mut blob);
    blob
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

/// A whole file of a kindless format, streamed so that a crash leaves
/// either the previous file or the new one: staged to a `.tmp` sibling
/// behind a reserved header, its payload written piece by piece under a
/// running [`Checksum`], then on [`StagedFile::commit`] the header patched
/// in at offset 0, the file synced and renamed into place. A staged file
/// whose commit fails, or that is dropped uncommitted, is removed.
#[derive(Debug)]
pub(crate) struct StagedFile {
    format: Format,
    path: PathBuf,
    tmp: PathBuf,
    file: fs::File,
    sum: Checksum,
    len: u64,
    /// The first write that failed: later pieces are dropped, and the
    /// commit reports it.
    failed: Option<EnvelopeError>,
    committed: bool,
}

impl StagedFile {
    /// Stage a new file of `format` for `path`.
    pub(crate) fn create(format: &Format, path: &Path) -> Result<Self, EnvelopeError> {
        let tmp = path.with_added_extension("tmp");
        let file = fs::File::create(&tmp).map_err(|e| io_error("create", &tmp, e))?;
        let mut staged = Self {
            format: *format,
            path: path.to_path_buf(),
            tmp,
            file,
            sum: Checksum::new(None),
            len: 0,
            failed: None,
            committed: false,
        };
        let reserved = vec![0; format.header_len()];
        staged
            .file
            .write_all(&reserved)
            .map_err(|e| io_error("write", &staged.tmp, e))?;
        Ok(staged)
    }

    /// Append `piece` to the payload.
    pub(crate) fn write(&mut self, piece: &[u8]) {
        if self.failed.is_some() {
            return;
        }
        self.sum.update(piece);
        self.len += piece.len() as u64;
        if let Err(e) = self.file.write_all(piece) {
            self.failed = Some(io_error("write", &self.tmp, e));
        }
    }

    /// Seal the payload written so far and move the file into place.
    pub(crate) fn commit(mut self) -> Result<(), EnvelopeError> {
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        let head = header(&self.format, None, self.len, self.sum.finish());
        let tmp = &self.tmp;
        (self.file.seek(SeekFrom::Start(0)))
            .and_then(|_| self.file.write_all(&head))
            .map_err(|e| io_error("write", tmp, e))?;
        self.file.sync_all().map_err(|e| io_error("sync", tmp, e))?;
        fs::rename(tmp, &self.path).map_err(|e| io_error("rename", tmp, e))?;
        self.committed = true;
        Ok(())
    }
}

impl Drop for StagedFile {
    fn drop(&mut self) {
        if !self.committed {
            // Best effort: the error that got us here is the one to report.
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// Write one `SYNDIST` frame and flush: messages are request/response shaped, so
/// an unflushed frame would deadlock both peers.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<(), EnvelopeError> {
    let sum = checksum(Some(kind), payload);
    w.write_all(&header(&FRAME, Some(kind), payload.len() as u64, sum))?;
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
    // The header's length is the peer's claim, not its bytes: grow the
    // payload as they arrive, never more than one step ahead of them.
    const STEP: usize = 64 << 10;
    let len = len as usize;
    let mut payload = Vec::new();
    while payload.len() < len {
        let read = payload.len();
        payload.resize(len.min(read + STEP), 0);
        r.read_exact(&mut payload[read..])?;
    }
    let kind = kind.expect("frames carry a kind");
    Ok(Some((kind, verified(Some(kind), sum, payload)?)))
}

#[cfg(test)]
mod tests {
    //! Every format's cuts and flips; which error each kind of frame damage
    //! gets is pinned case by case in `crate::frame`'s tests.
    use super::*;
    use std::io::Cursor;

    const PAYLOAD: &[u8] = b"have you SYN me? a payload past one FxHash word";

    /// A fresh scratch directory for the test called `name`.
    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("synscan-envelope-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `payload` streamed through a staged file in pieces cut at `cuts`,
    /// and the bytes the committed file holds.
    fn streamed(format: &Format, payload: &[u8], cuts: &[usize], name: &str) -> Vec<u8> {
        let dir = scratch(name);
        let path = dir.join("blob");
        let mut staged = StagedFile::create(format, &path).unwrap();
        let mut at = 0;
        for &cut in cuts.iter().chain([&payload.len()]) {
            staged.write(&payload[at..cut]);
            at = cut;
        }
        staged.commit().unwrap();
        let bytes = fs::read(&path).unwrap();
        assert!(
            !path.with_added_extension("tmp").exists(),
            "staged file renamed away"
        );
        fs::remove_dir_all(&dir).unwrap();
        bytes
    }

    /// One small sealed blob of every format, and of every file format
    /// streamed, in pieces split off word boundaries.
    fn samples() -> [(Format, Vec<u8>); 5] {
        let mut frame = Vec::new();
        write_frame(&mut frame, 3, PAYLOAD).unwrap();
        [
            (CHECKPOINT, sealed(&CHECKPOINT, PAYLOAD)),
            (STORE, sealed(&STORE, PAYLOAD)),
            (FRAME, frame),
            (
                CHECKPOINT,
                streamed(&CHECKPOINT, PAYLOAD, &[3, 3, 20], "sample-ckpt"),
            ),
            (STORE, streamed(&STORE, PAYLOAD, &[13], "sample-store")),
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
        for (format, bytes) in samples().iter().filter(|(format, _)| !format.kinded) {
            assert_eq!(bytes[20..28], hasher.finish().to_le_bytes(), "{format:?}");
        }
    }

    #[test]
    fn streamed_files_are_the_bytes_sealed_in_memory() {
        let payload: Vec<u8> = (0..200u8).collect();
        for (i, cuts) in [&[][..], &[0, 0], &[1, 9, 16, 17], &[7, 8, 199]]
            .iter()
            .enumerate()
        {
            for format in [CHECKPOINT, STORE] {
                assert_eq!(
                    streamed(&format, &payload, cuts, &format!("same-{i}")),
                    sealed(&format, &payload),
                    "{format:?} cut at {cuts:?}"
                );
            }
        }
    }

    #[test]
    fn a_running_checksum_over_any_split_is_the_one_shot_hash() {
        // Random payloads from empty to a few words, cut at random points,
        // on and off word boundaries, with and without a kind byte.
        let mut draw = 0x5359_4e5f_6d65u64;
        let mut next = |bound: usize| {
            draw = synscan_stats::mix64(draw);
            (draw % bound as u64) as usize
        };
        for case in 0..2_000 {
            let len = if case < 16 { case } else { next(80) };
            let payload: Vec<u8> = (0..len).map(|_| next(256) as u8).collect();
            let kind = (case % 3 == 0).then(|| next(256) as u8);
            let mut cuts: Vec<usize> = (0..next(6)).map(|_| next(len + 1)).collect();
            cuts.sort_unstable();
            let mut sum = Checksum::new(kind);
            let mut at = 0;
            for cut in cuts.iter().copied().chain([len]) {
                sum.update(&payload[at..cut]);
                at = cut;
            }
            let mut one_shot = FxHasher::default();
            if let Some(kind) = kind {
                one_shot.write_u8(kind);
            }
            one_shot.write(&payload);
            assert_eq!(
                sum.finish(),
                one_shot.finish(),
                "{len} bytes cut at {cuts:?}"
            );
        }
    }

    #[test]
    fn a_failed_commit_is_typed_and_leaves_no_staged_file() {
        // A non-empty directory where the file should go: the rename fails.
        let dir = scratch("failed-commit");
        let path = dir.join("year-2020.store");
        fs::create_dir_all(path.join("occupied")).unwrap();
        let mut staged = StagedFile::create(&STORE, &path).unwrap();
        staged.write(PAYLOAD);
        let tmp = path.with_added_extension("tmp");
        assert!(tmp.exists(), "the payload is staged beside the destination");
        match staged.commit() {
            Err(EnvelopeError::Io(what)) => {
                assert!(what.contains("rename"), "{what}");
                assert!(what.contains(&path.display().to_string()), "{what}");
            }
            other => panic!("expected a typed I/O error, got {other:?}"),
        }
        assert!(!tmp.exists(), "the staged file is removed");
        assert!(
            path.join("occupied").is_dir(),
            "the destination is untouched"
        );

        // A writer abandoned before its commit removes its staged file too.
        let abandoned = StagedFile::create(&STORE, &dir.join("abandoned")).unwrap();
        drop(abandoned);
        let left: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["year-2020.store"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A sink that flips one bit in every `period`-th byte written through
    /// it, at a phase set by `seed`: transit damage the reader cannot
    /// predict, applied across however many `write` calls the frame takes.
    struct CorruptingSink {
        bytes: Vec<u8>,
        seed: u64,
        period: u64,
        corrupted: usize,
    }

    impl Write for CorruptingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            for &b in buf {
                let at = self.bytes.len() as u64;
                if (at + self.seed).is_multiple_of(self.period) {
                    self.bytes.push(b ^ (1 << ((at ^ self.seed) % 8)));
                    self.corrupted += 1;
                } else {
                    self.bytes.push(b);
                }
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frames_corrupted_on_a_chaos_socket_fail_typed() {
        let payload = vec![0x5au8; 600];
        for seed in 0..16 {
            let mut socket = CorruptingSink {
                bytes: Vec::new(),
                seed,
                period: 97,
                corrupted: 0,
            };
            write_frame(&mut socket, 1, &payload).unwrap();
            assert!(socket.corrupted > 0);
            let result = read_frame(&mut Cursor::new(socket.bytes));
            assert!(
                matches!(
                    result,
                    Err(EnvelopeError::ChecksumMismatch
                        | EnvelopeError::BadMagic
                        | EnvelopeError::UnsupportedVersion { .. }
                        | EnvelopeError::Oversized(_)
                        | EnvelopeError::Truncated)
                ),
                "seed {seed}: {result:?}"
            );
        }
    }
}
