//! IPv4 header view and representation (RFC 791).
//!
//! Only the fields the scanning-measurement pipeline needs are modelled in
//! [`Ipv4Repr`]; the raw [`Ipv4Packet`] view still gives access to every
//! header field so tooling such as the fingerprinting engine can inspect
//! identification, TTL, and flags directly.

use crate::checksum;
use crate::{Result, WireError};

/// Length in bytes of an IPv4 header without options.
pub const HEADER_LEN: usize = 20;

/// An IPv4 address.
///
/// A thin newtype over the host-order `u32` so the analysis pipeline can do
/// arithmetic (netblock bucketing, XOR fingerprints) without conversions,
/// while still formatting in dotted-quad notation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(pub u32);

impl Address {
    /// Construct from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Self(u32::from_be_bytes([a, b, c, d]))
    }

    /// Construct from a big-endian byte array (network order).
    pub(crate) const fn from_bytes(bytes: [u8; 4]) -> Self {
        Self(u32::from_be_bytes(bytes))
    }

    /// The network-order byte representation.
    pub(crate) const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// The /16 netblock this address belongs to (upper 16 bits).
    ///
    /// The volatility analysis (Figure 2 of the paper) aggregates scanning
    /// sources at /16 granularity.
    pub const fn slash16(self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// The /24 netblock this address belongs to (upper 24 bits).
    pub const fn slash24(self) -> u32 {
        self.0 >> 8
    }

    /// True if the address is in private (RFC 1918), loopback, or multicast
    /// space — addresses a well-behaved Internet-wide scanner skips.
    pub const fn is_reserved(self) -> bool {
        let a = (self.0 >> 24) as u8;
        let b = ((self.0 >> 16) & 0xff) as u8;
        a == 0
            || a == 10
            || a == 127
            || (a == 172 && b >= 16 && b < 32)
            || (a == 192 && b == 168)
            || (a == 169 && b == 254)
            || a >= 224
    }
}

impl core::fmt::Display for Address {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl core::fmt::Debug for Address {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::Display::fmt(self, f)
    }
}

impl From<u32> for Address {
    fn from(value: u32) -> Self {
        Self(value)
    }
}

impl From<Address> for u32 {
    fn from(value: Address) -> Self {
        value.0
    }
}

impl core::str::FromStr for Address {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for octet in octets.iter_mut() {
            let part = parts.next().ok_or(WireError::Malformed)?;
            *octet = part.parse().map_err(|_| WireError::Malformed)?;
        }
        if parts.next().is_some() {
            return Err(WireError::Malformed);
        }
        Ok(Self::from_bytes(octets))
    }
}

/// IPv4 protocol numbers relevant to telescope traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6) — the focus of the study: 98% of unsolicited TCP traffic is SYN scans.
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else, with the raw protocol number preserved.
    Other(u8),
}

impl From<u8> for Protocol {
    fn from(value: u8) -> Self {
        match value {
            1 => Protocol::Icmp,
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Other(other),
        }
    }
}

impl From<Protocol> for u8 {
    fn from(value: Protocol) -> Self {
        match value {
            Protocol::Icmp => 1,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Other(other) => other,
        }
    }
}

mod field {
    pub(crate) const VER_IHL: usize = 0;
    pub(crate) const DSCP_ECN: usize = 1;
    pub(crate) const LENGTH: core::ops::Range<usize> = 2..4;
    pub(crate) const IDENT: core::ops::Range<usize> = 4..6;
    pub(crate) const FLAGS_FRAG: core::ops::Range<usize> = 6..8;
    pub(crate) const TTL: usize = 8;
    pub(crate) const PROTOCOL: usize = 9;
    pub(crate) const CHECKSUM: core::ops::Range<usize> = 10..12;
    pub(crate) const SRC_ADDR: core::ops::Range<usize> = 12..16;
    pub(crate) const DST_ADDR: core::ops::Range<usize> = 16..20;
}

/// Zero-copy view of an IPv4 packet.
#[derive(Debug, Clone)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wrap a buffer without validating it.
    pub const fn new_unchecked(buffer: T) -> Self {
        Self { buffer }
    }

    /// Wrap a buffer, validating version, header length, and total length.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let packet = Self::new_unchecked(buffer);
        packet.check()?;
        Ok(packet)
    }

    fn check(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if self.version() != 4 {
            return Err(WireError::Unsupported);
        }
        let header_len = self.header_len() as usize;
        if header_len < HEADER_LEN || header_len > data.len() {
            return Err(WireError::Malformed);
        }
        let total_len = self.total_len() as usize;
        if total_len < header_len || total_len > data.len() {
            return Err(WireError::Malformed);
        }
        Ok(())
    }

    /// The IP version field (always 4 for valid packets).
    pub(crate) fn version(&self) -> u8 {
        self.buffer.as_ref()[field::VER_IHL] >> 4
    }

    /// Header length in bytes (IHL × 4).
    pub(crate) fn header_len(&self) -> u8 {
        (self.buffer.as_ref()[field::VER_IHL] & 0x0f) * 4
    }

    /// Total packet length (header + payload).
    pub(crate) fn total_len(&self) -> u16 {
        u16::from_be_bytes(self.buffer.as_ref()[field::LENGTH].try_into().unwrap())
    }

    /// The identification field — one of the primary fingerprinting signals:
    /// ZMap sets it to 54321, Masscan to `dst_ip ^ dst_port ^ seq`.
    pub(crate) fn ident(&self) -> u16 {
        u16::from_be_bytes(self.buffer.as_ref()[field::IDENT].try_into().unwrap())
    }

    /// Time-to-live.
    pub(crate) fn ttl(&self) -> u8 {
        self.buffer.as_ref()[field::TTL]
    }

    /// The encapsulated protocol.
    pub(crate) fn protocol(&self) -> Protocol {
        Protocol::from(self.buffer.as_ref()[field::PROTOCOL])
    }

    /// Source address.
    pub fn src_addr(&self) -> Address {
        Address::from_bytes(self.buffer.as_ref()[field::SRC_ADDR].try_into().unwrap())
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Address {
        Address::from_bytes(self.buffer.as_ref()[field::DST_ADDR].try_into().unwrap())
    }

    /// Verify the header checksum.
    pub fn verify_checksum(&self) -> bool {
        let header_len = self.header_len() as usize;
        checksum::verify(&self.buffer.as_ref()[..header_len])
    }

    /// The payload (e.g. the TCP segment) following the header.
    pub fn payload(&self) -> &[u8] {
        let start = self.header_len() as usize;
        let end = self.total_len() as usize;
        &self.buffer.as_ref()[start..end]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    fn set_version_and_header_len(&mut self) {
        self.buffer.as_mut()[field::VER_IHL] = 0x45;
        self.buffer.as_mut()[field::DSCP_ECN] = 0;
    }

    /// Set the total length field.
    pub(crate) fn set_total_len(&mut self, value: u16) {
        self.buffer.as_mut()[field::LENGTH].copy_from_slice(&value.to_be_bytes());
    }

    /// Set the identification field.
    pub(crate) fn set_ident(&mut self, value: u16) {
        self.buffer.as_mut()[field::IDENT].copy_from_slice(&value.to_be_bytes());
    }

    /// Set flags and fragment offset (scanners send DF or zero).
    pub(crate) fn set_flags_frag(&mut self, value: u16) {
        self.buffer.as_mut()[field::FLAGS_FRAG].copy_from_slice(&value.to_be_bytes());
    }

    /// Set the time-to-live.
    pub(crate) fn set_ttl(&mut self, value: u8) {
        self.buffer.as_mut()[field::TTL] = value;
    }

    /// Set the protocol field.
    pub(crate) fn set_protocol(&mut self, value: Protocol) {
        self.buffer.as_mut()[field::PROTOCOL] = value.into();
    }

    /// Set the source address.
    pub(crate) fn set_src_addr(&mut self, value: Address) {
        self.buffer.as_mut()[field::SRC_ADDR].copy_from_slice(&value.octets());
    }

    /// Set the destination address.
    pub(crate) fn set_dst_addr(&mut self, value: Address) {
        self.buffer.as_mut()[field::DST_ADDR].copy_from_slice(&value.octets());
    }

    /// Compute and write the header checksum.
    pub(crate) fn fill_checksum(&mut self) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let ck = checksum::checksum(&self.buffer.as_ref()[..HEADER_LEN]);
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&ck.to_be_bytes());
    }
}

/// Parsed representation of the IPv4 header fields the pipeline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Repr {
    /// Source address (the scanner, for telescope traffic — never spoofed,
    /// because the scanner needs the reply).
    pub src_addr: Address,
    /// Destination address (a telescope address).
    pub dst_addr: Address,
    /// Encapsulated protocol.
    pub protocol: Protocol,
    /// Identification field (fingerprinting signal).
    pub ident: u16,
    /// Time-to-live as received.
    pub ttl: u8,
    /// Length of the payload in bytes.
    pub payload_len: usize,
}

impl Ipv4Repr {
    /// Parse from a checked packet view.
    pub fn parse<T: AsRef<[u8]>>(packet: &Ipv4Packet<T>) -> Result<Self> {
        Ok(Self {
            src_addr: packet.src_addr(),
            dst_addr: packet.dst_addr(),
            protocol: packet.protocol(),
            ident: packet.ident(),
            ttl: packet.ttl(),
            payload_len: packet.total_len() as usize - packet.header_len() as usize,
        })
    }

    /// Emit a 20-byte header (no options) into the packet view, including the
    /// header checksum.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Ipv4Packet<T>) {
        packet.set_version_and_header_len();
        packet.set_total_len((HEADER_LEN + self.payload_len) as u16);
        packet.set_ident(self.ident);
        packet.set_flags_frag(0x4000); // don't fragment, as common tools do
        packet.set_ttl(self.ttl);
        packet.set_protocol(self.protocol);
        packet.set_src_addr(self.src_addr);
        packet.set_dst_addr(self.dst_addr);
        packet.fill_checksum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr() -> Ipv4Repr {
        Ipv4Repr {
            src_addr: Address::new(203, 0, 113, 9),
            dst_addr: Address::new(192, 0, 2, 254),
            protocol: Protocol::Tcp,
            ident: 54321,
            ttl: 57,
            payload_len: 20,
        }
    }

    #[test]
    fn emit_parse_round_trip() {
        let repr = sample_repr();
        let mut buf = vec![0u8; HEADER_LEN + repr.payload_len];
        repr.emit(&mut Ipv4Packet::new_unchecked(&mut buf[..]));
        let packet = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(packet.verify_checksum());
        assert_eq!(Ipv4Repr::parse(&packet).unwrap(), repr);
    }

    #[test]
    fn checked_rejects_short_buffer() {
        assert_eq!(
            Ipv4Packet::new_checked(&[0u8; 10][..]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn checked_rejects_wrong_version() {
        let mut buf = [0u8; HEADER_LEN];
        buf[0] = 0x65; // IPv6 version nibble
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            WireError::Unsupported
        );
    }

    #[test]
    fn checked_rejects_ihl_beyond_buffer() {
        let mut buf = [0u8; HEADER_LEN];
        buf[0] = 0x4f; // IHL = 15 -> 60 bytes > 20-byte buffer
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            WireError::Malformed
        );
    }

    #[test]
    fn checked_rejects_total_len_beyond_buffer() {
        let repr = sample_repr();
        let mut buf = vec![0u8; HEADER_LEN + repr.payload_len];
        repr.emit(&mut Ipv4Packet::new_unchecked(&mut buf[..]));
        buf[2] = 0xff;
        buf[3] = 0xff;
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            WireError::Malformed
        );
    }

    #[test]
    fn corrupted_header_fails_checksum() {
        let repr = sample_repr();
        let mut buf = vec![0u8; HEADER_LEN + repr.payload_len];
        repr.emit(&mut Ipv4Packet::new_unchecked(&mut buf[..]));
        buf[8] ^= 0xff; // flip TTL
        let packet = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(!packet.verify_checksum());
    }

    #[test]
    fn address_formatting_and_parsing() {
        let addr = Address::new(8, 8, 4, 4);
        assert_eq!(addr.to_string(), "8.8.4.4");
        assert_eq!("8.8.4.4".parse::<Address>().unwrap(), addr);
        assert!("8.8.4".parse::<Address>().is_err());
        assert!("8.8.4.4.4".parse::<Address>().is_err());
        assert!("8.8.4.256".parse::<Address>().is_err());
    }

    #[test]
    fn netblock_helpers() {
        let addr = Address::new(10, 20, 30, 40);
        assert_eq!(addr.slash16(), (10 << 8) | 20);
        assert_eq!(addr.slash24(), (10 << 16) | (20 << 8) | 30);
    }

    #[test]
    fn reserved_space_detection() {
        assert!(Address::new(10, 1, 2, 3).is_reserved());
        assert!(Address::new(127, 0, 0, 1).is_reserved());
        assert!(Address::new(172, 16, 0, 1).is_reserved());
        assert!(Address::new(172, 31, 255, 255).is_reserved());
        assert!(!Address::new(172, 32, 0, 1).is_reserved());
        assert!(Address::new(192, 168, 1, 1).is_reserved());
        assert!(Address::new(224, 0, 0, 1).is_reserved());
        assert!(Address::new(0, 1, 2, 3).is_reserved());
        assert!(!Address::new(8, 8, 8, 8).is_reserved());
        assert!(!Address::new(192, 0, 2, 1).is_reserved());
    }

    #[test]
    fn protocol_round_trip() {
        for value in 0u8..=255 {
            assert_eq!(u8::from(Protocol::from(value)), value);
        }
    }
}
