//! One test per way a `SYNDIST` frame can fail on its way off a pipe, each
//! pinned to the [`crate::EnvelopeError`] the reading peer gets. The matrix in
//! [`crate::envelope`] shows that every cut and bit flip of every sealed
//! format is *some* typed error; these name which one a frame reader returns.

mod tests {
    use std::io::{self, Cursor, Read};

    use crate::envelope::{read_frame, write_frame, EnvelopeError, MAX_PAYLOAD};

    /// Magic, version, kind, length, checksum.
    const HEADER_BYTES: usize = 8 + 4 + 1 + 8 + 8;

    fn framed(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind, payload).unwrap();
        buf
    }

    fn read_back(bytes: &[u8]) -> Result<Option<(u8, Vec<u8>)>, EnvelopeError> {
        read_frame(&mut Cursor::new(bytes))
    }

    #[test]
    fn roundtrips_frames_in_order() {
        let mut pipe = Vec::new();
        for (kind, payload) in [(1, &b"hello"[..]), (7, &[]), (200, &[0xab; 70_000])] {
            write_frame(&mut pipe, kind, payload).unwrap();
        }
        let mut r = Cursor::new(pipe);
        assert_eq!(read_frame(&mut r), Ok(Some((1, b"hello".to_vec()))));
        let kinds_and_lens: Vec<(u8, usize)> = std::iter::from_fn(|| read_frame(&mut r).unwrap())
            .map(|(kind, payload)| (kind, payload.len()))
            .collect();
        assert_eq!(kinds_and_lens, [(7, 0), (200, 70_000)]);
        assert_eq!(read_frame(&mut r), Ok(None));
    }

    #[test]
    fn clean_eof_is_none_partial_header_is_truncated() {
        assert_eq!(read_back(&[]), Ok(None));
        let frame = framed(3, b"payload");
        for cut in 1..HEADER_BYTES {
            let result = read_back(&frame[..cut]);
            assert_eq!(result, Err(EnvelopeError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn truncated_payload_is_truncated() {
        let frame = framed(3, b"payload");
        for cut in HEADER_BYTES..frame.len() {
            let result = read_back(&frame[..cut]);
            assert_eq!(result, Err(EnvelopeError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut frame = framed(3, b"payload");
        frame[0] ^= 0xff;
        assert_eq!(read_back(&frame), Err(EnvelopeError::BadMagic));
        // Version 1 is the FNV-1a era; a v1 peer is refused, not misread.
        for found in [1u32, 99] {
            let mut frame = framed(3, b"payload");
            frame[8..12].copy_from_slice(&found.to_le_bytes());
            let expected = 2;
            assert_eq!(
                read_back(&frame),
                Err(EnvelopeError::UnsupportedVersion { found, expected })
            );
        }
    }

    #[test]
    fn corrupt_length_is_capped_not_allocated() {
        for announced in [MAX_PAYLOAD + 1, u64::MAX] {
            let mut frame = framed(3, b"payload");
            frame[13..21].copy_from_slice(&announced.to_le_bytes());
            assert_eq!(read_back(&frame), Err(EnvelopeError::Oversized(announced)));
        }
    }

    #[test]
    fn flipped_payload_bit_is_checksum_mismatch() {
        let mut frame = framed(3, b"payload");
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert_eq!(read_back(&frame), Err(EnvelopeError::ChecksumMismatch));
    }

    #[test]
    fn flipped_kind_or_checksum_field_is_caught() {
        // The checksum covers the kind byte, so a flipped kind cannot pass
        // for another message; a flipped checksum field fails it too.
        for at in [12, 21] {
            let mut frame = framed(3, b"payload");
            frame[at] ^= 0x01;
            let result = read_back(&frame);
            assert_eq!(result, Err(EnvelopeError::ChecksumMismatch), "byte {at}");
        }
    }

    #[test]
    fn io_errors_stringify() {
        struct Broken(io::ErrorKind);
        impl Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(self.0, "pipe burst"))
            }
        }
        match read_frame(&mut Broken(io::ErrorKind::Other)) {
            Err(EnvelopeError::Io(msg)) => assert!(msg.contains("pipe burst")),
            other => panic!("expected Io, got {other:?}"),
        }
        // A socket deadline is its own error, not a stringified one.
        assert_eq!(
            read_frame(&mut Broken(io::ErrorKind::WouldBlock)),
            Err(EnvelopeError::TimedOut)
        );
    }
}
