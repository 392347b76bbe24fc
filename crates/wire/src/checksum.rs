//! The Internet checksum (RFC 1071) and helpers shared by IPv4 and TCP.
//!
//! The checksum is the one's-complement of the one's-complement sum of all
//! 16-bit words in the covered data. Both IPv4 headers and TCP segments
//! (together with a pseudo-header) use it.

/// Incremental RFC 1071 checksum accumulator.
///
/// Feed data with [`Checksum::add_bytes`] / [`Checksum::add_u16`] and finish
/// with [`Checksum::value`]. The accumulator is order-insensitive for aligned
/// 16-bit words, which is what the pseudo-header computation relies on.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Checksum {
    sum: u32,
}

impl Checksum {
    /// Create an accumulator with an initial sum of zero.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Add a single big-endian 16-bit word.
    pub(crate) fn add_u16(&mut self, word: u16) {
        self.sum += u32::from(word);
    }

    /// Add a 32-bit value as two 16-bit words (used for addresses).
    pub(crate) fn add_u32(&mut self, value: u32) {
        self.add_u16((value >> 16) as u16);
        self.add_u16((value & 0xffff) as u16);
    }

    /// Add a byte slice, padding an odd trailing byte with zero as per RFC 1071.
    pub(crate) fn add_bytes(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(2);
        for chunk in &mut chunks {
            self.add_u16(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let [last] = chunks.remainder() {
            self.add_u16(u16::from_be_bytes([*last, 0]));
        }
    }

    /// Fold carries and return the one's-complement checksum.
    pub(crate) fn value(self) -> u16 {
        let mut sum = self.sum;
        while sum > 0xffff {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// Compute the checksum of a contiguous buffer in one call.
pub(crate) fn checksum(data: &[u8]) -> u16 {
    let mut acc = Checksum::new();
    acc.add_bytes(data);
    acc.value()
}

/// Verify a buffer whose checksum field is included in the data.
///
/// A correct RFC 1071 checksum makes the folded sum of the full buffer equal
/// `0xffff` (i.e. `checksum(..) == 0`).
pub(crate) fn verify(data: &[u8]) -> bool {
    checksum(data) == 0
}

/// Compute the TCP/UDP pseudo-header partial sum for IPv4.
///
/// The pseudo-header covers source address, destination address, a zero byte,
/// the protocol number, and the transport segment length.
pub(crate) fn pseudo_header_sum(src: u32, dst: u32, protocol: u8, segment_len: u16) -> Checksum {
    let mut acc = Checksum::new();
    acc.add_u32(src);
    acc.add_u32(dst);
    acc.add_u16(u16::from(protocol));
    acc.add_u16(segment_len);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_reference_example() {
        // The classic worked example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold -> 0xddf2
        assert_eq!(checksum(&data), !0xddf2u16);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), !0xab00u16);
        assert_eq!(checksum(&[0xab, 0x00]), !0xab00u16);
    }

    #[test]
    fn empty_buffer_checksums_to_all_ones() {
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn verify_accepts_correctly_checksummed_data() {
        let mut data = vec![0x45u8, 0x00, 0x00, 0x28, 0xd4, 0x31, 0x00, 0x00, 0x40, 0x06];
        data.extend_from_slice(&[0x00, 0x00]); // checksum placeholder
        data.extend_from_slice(&[0xc0, 0xa8, 0x01, 0x01, 0xc0, 0xa8, 0x01, 0x02]);
        let ck = checksum(&data);
        data[10] = (ck >> 8) as u8;
        data[11] = (ck & 0xff) as u8;
        assert!(verify(&data));
        // Corrupt one byte and it must fail.
        data[0] ^= 0x10;
        assert!(!verify(&data));
    }

    #[test]
    fn accumulator_is_chunk_order_insensitive_for_aligned_words() {
        let a = [0x12u8, 0x34, 0x56, 0x78];
        let b = [0x9au8, 0xbc, 0xde, 0xf0];
        let mut acc1 = Checksum::new();
        acc1.add_bytes(&a);
        acc1.add_bytes(&b);
        let mut acc2 = Checksum::new();
        acc2.add_bytes(&b);
        acc2.add_bytes(&a);
        assert_eq!(acc1.value(), acc2.value());
    }

    #[test]
    fn pseudo_header_matches_manual_sum() {
        let acc = pseudo_header_sum(0xc0a80101, 0xc0a80102, 6, 20);
        let mut manual = Checksum::new();
        for w in [0xc0a8u16, 0x0101, 0xc0a8, 0x0102, 0x0006, 20] {
            manual.add_u16(w);
        }
        assert_eq!(acc.value(), manual.value());
    }
}
