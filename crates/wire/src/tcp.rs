//! TCP header view and representation (RFC 793).
//!
//! Scan probes are bare SYN segments; the fields that matter to the study are
//! the ports, the sequence number (which high-speed scanners abuse to encode
//! state), the flags (to separate SYN scans from backscatter), and the window.

use crate::checksum::{self, Checksum};
use crate::ipv4::Address;
use crate::{Result, WireError};

/// Length in bytes of a TCP header without options.
pub const HEADER_LEN: usize = 20;

/// TCP control flags, stored as the low 6 bits of the flags byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN — used by "stealthy" FIN scans.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN — the probe type making up >98% of TCP scans.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST — typical backscatter from scanned-but-closed ports.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK — ACK scans, and half of SYN/ACK backscatter.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG.
    pub(crate) const URG: TcpFlags = TcpFlags(0x20);
    /// SYN|ACK — the server half of a handshake; in a telescope this is
    /// backscatter from attacks that spoofed a telescope address.
    pub const SYN_ACK: TcpFlags = TcpFlags(0x12);
    /// All six flags lit — the XMAS scan has FIN|PSH|URG; all-bits is NULL's dual.
    pub const XMAS: TcpFlags = TcpFlags(0x29);
    /// No flags at all — the NULL scan.
    pub const NULL: TcpFlags = TcpFlags(0x00);

    /// True if this is a *pure* SYN (SYN set, ACK clear) — the paper's
    /// standard scan-vs-backscatter filter.
    pub const fn is_pure_syn(self) -> bool {
        self.0 & (Self::SYN.0 | Self::ACK.0) == Self::SYN.0
    }

    /// True if the given flag bits are all set.
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl core::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl core::fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let names = [
            (Self::FIN, "FIN"),
            (Self::SYN, "SYN"),
            (Self::RST, "RST"),
            (Self::PSH, "PSH"),
            (Self::ACK, "ACK"),
            (Self::URG, "URG"),
        ];
        let mut first = true;
        for (flag, name) in names {
            if self.contains(flag) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "NULL")?;
        }
        Ok(())
    }
}

mod field {
    pub(crate) const SRC_PORT: core::ops::Range<usize> = 0..2;
    pub(crate) const DST_PORT: core::ops::Range<usize> = 2..4;
    pub(crate) const SEQ_NUM: core::ops::Range<usize> = 4..8;
    pub(crate) const ACK_NUM: core::ops::Range<usize> = 8..12;
    pub(crate) const DATA_OFF: usize = 12;
    pub(crate) const FLAGS: usize = 13;
    pub(crate) const WINDOW: core::ops::Range<usize> = 14..16;
    pub(crate) const CHECKSUM: core::ops::Range<usize> = 16..18;
    pub(crate) const URGENT: core::ops::Range<usize> = 18..20;
}

/// Zero-copy view of a TCP segment.
#[derive(Debug, Clone)]
pub struct TcpPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> TcpPacket<T> {
    /// Wrap a buffer without validating it.
    pub const fn new_unchecked(buffer: T) -> Self {
        Self { buffer }
    }

    /// Wrap a buffer, validating the header length invariants.
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
        let header_len = self.header_len() as usize;
        if header_len < HEADER_LEN || header_len > data.len() {
            return Err(WireError::Malformed);
        }
        Ok(())
    }

    /// Source port.
    pub(crate) fn src_port(&self) -> u16 {
        u16::from_be_bytes(self.buffer.as_ref()[field::SRC_PORT].try_into().unwrap())
    }

    /// Destination port.
    pub(crate) fn dst_port(&self) -> u16 {
        u16::from_be_bytes(self.buffer.as_ref()[field::DST_PORT].try_into().unwrap())
    }

    /// Sequence number — the main state-encoding field of stateless scanners.
    pub(crate) fn seq_number(&self) -> u32 {
        u32::from_be_bytes(self.buffer.as_ref()[field::SEQ_NUM].try_into().unwrap())
    }

    /// Acknowledgement number.
    pub fn ack_number(&self) -> u32 {
        u32::from_be_bytes(self.buffer.as_ref()[field::ACK_NUM].try_into().unwrap())
    }

    /// Header length in bytes (data offset × 4).
    pub(crate) fn header_len(&self) -> u8 {
        (self.buffer.as_ref()[field::DATA_OFF] >> 4) * 4
    }

    /// Control flags.
    pub(crate) fn flags(&self) -> TcpFlags {
        TcpFlags(self.buffer.as_ref()[field::FLAGS] & 0x3f)
    }

    /// Receive window.
    pub(crate) fn window_len(&self) -> u16 {
        u16::from_be_bytes(self.buffer.as_ref()[field::WINDOW].try_into().unwrap())
    }

    /// Urgent pointer.
    pub fn urgent(&self) -> u16 {
        u16::from_be_bytes(self.buffer.as_ref()[field::URGENT].try_into().unwrap())
    }

    /// Verify the checksum over the pseudo-header and segment.
    pub fn verify_checksum(&self, src: Address, dst: Address) -> bool {
        let data = self.buffer.as_ref();
        let mut acc = checksum::pseudo_header_sum(src.0, dst.0, 6, data.len() as u16);
        acc.add_bytes(data);
        acc.value() == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> TcpPacket<T> {
    /// Set the source port.
    pub(crate) fn set_src_port(&mut self, value: u16) {
        self.buffer.as_mut()[field::SRC_PORT].copy_from_slice(&value.to_be_bytes());
    }

    /// Set the destination port.
    pub(crate) fn set_dst_port(&mut self, value: u16) {
        self.buffer.as_mut()[field::DST_PORT].copy_from_slice(&value.to_be_bytes());
    }

    /// Set the sequence number.
    pub(crate) fn set_seq_number(&mut self, value: u32) {
        self.buffer.as_mut()[field::SEQ_NUM].copy_from_slice(&value.to_be_bytes());
    }

    /// Set the acknowledgement number.
    pub(crate) fn set_ack_number(&mut self, value: u32) {
        self.buffer.as_mut()[field::ACK_NUM].copy_from_slice(&value.to_be_bytes());
    }

    /// Set the data offset for a bare 20-byte header.
    pub(crate) fn set_header_len_bare(&mut self) {
        self.buffer.as_mut()[field::DATA_OFF] = (HEADER_LEN as u8 / 4) << 4;
    }

    /// Set the control flags.
    pub(crate) fn set_flags(&mut self, value: TcpFlags) {
        self.buffer.as_mut()[field::FLAGS] = value.0;
    }

    /// Set the receive window.
    pub(crate) fn set_window_len(&mut self, value: u16) {
        self.buffer.as_mut()[field::WINDOW].copy_from_slice(&value.to_be_bytes());
    }

    /// Set the urgent pointer.
    pub(crate) fn set_urgent(&mut self, value: u16) {
        self.buffer.as_mut()[field::URGENT].copy_from_slice(&value.to_be_bytes());
    }

    /// Compute and write the checksum over pseudo-header + segment.
    pub(crate) fn fill_checksum(&mut self, src: Address, dst: Address) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let data = self.buffer.as_ref();
        let mut acc: Checksum = checksum::pseudo_header_sum(src.0, dst.0, 6, data.len() as u16);
        acc.add_bytes(data);
        let ck = acc.value();
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&ck.to_be_bytes());
    }
}

/// Parsed representation of the TCP header fields the pipeline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpRepr {
    /// Source port, often ephemeral or fixed per tool run.
    pub src_port: u16,
    /// Destination (scanned) port.
    pub dst_port: u16,
    /// Sequence number (state-encoding field for stateless scanners).
    pub seq_number: u32,
    /// Acknowledgement number (zero in well-formed SYN probes).
    pub ack_number: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window_len: u16,
    /// Urgent pointer.
    pub urgent: u16,
}

impl TcpRepr {
    /// Parse from a checked segment view.
    pub fn parse<T: AsRef<[u8]>>(packet: &TcpPacket<T>) -> Result<Self> {
        Ok(Self {
            src_port: packet.src_port(),
            dst_port: packet.dst_port(),
            seq_number: packet.seq_number(),
            ack_number: packet.ack_number(),
            flags: packet.flags(),
            window_len: packet.window_len(),
            urgent: packet.urgent(),
        })
    }

    /// Emit into the segment view and fill the checksum using the IPv4
    /// pseudo-header for `src`/`dst`.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(
        &self,
        packet: &mut TcpPacket<T>,
        src: Address,
        dst: Address,
    ) {
        packet.set_src_port(self.src_port);
        packet.set_dst_port(self.dst_port);
        packet.set_seq_number(self.seq_number);
        packet.set_ack_number(self.ack_number);
        packet.set_header_len_bare();
        packet.set_flags(self.flags);
        packet.set_window_len(self.window_len);
        packet.set_urgent(self.urgent);
        packet.fill_checksum(src, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Address = Address::new(198, 51, 100, 1);
    const DST: Address = Address::new(192, 0, 2, 2);

    fn sample_repr() -> TcpRepr {
        TcpRepr {
            src_port: 40000,
            dst_port: 22,
            seq_number: 0xdead_beef,
            ack_number: 0,
            flags: TcpFlags::SYN,
            window_len: 29200,
            urgent: 0,
        }
    }

    #[test]
    fn emit_parse_round_trip() {
        let repr = sample_repr();
        let mut buf = [0u8; HEADER_LEN];
        repr.emit(&mut TcpPacket::new_unchecked(&mut buf[..]), SRC, DST);
        let packet = TcpPacket::new_checked(&buf[..]).unwrap();
        assert!(packet.verify_checksum(SRC, DST));
        assert_eq!(TcpRepr::parse(&packet).unwrap(), repr);
    }

    #[test]
    fn checksum_binds_pseudo_header() {
        let repr = sample_repr();
        let mut buf = [0u8; HEADER_LEN];
        repr.emit(&mut TcpPacket::new_unchecked(&mut buf[..]), SRC, DST);
        let packet = TcpPacket::new_checked(&buf[..]).unwrap();
        // Same bytes, different claimed destination: checksum must fail.
        // (Swapping src/dst would NOT fail — one's-complement addition is
        // commutative — so we perturb an address instead.)
        assert!(!packet.verify_checksum(SRC, Address::new(192, 0, 2, 3)));
    }

    #[test]
    fn checked_rejects_short_buffer() {
        assert_eq!(
            TcpPacket::new_checked(&[0u8; 19][..]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn checked_rejects_bad_data_offset() {
        let mut buf = [0u8; HEADER_LEN];
        buf[field::DATA_OFF] = 0x30; // offset 3 words = 12 bytes < 20
        assert_eq!(
            TcpPacket::new_checked(&buf[..]).unwrap_err(),
            WireError::Malformed
        );
        buf[field::DATA_OFF] = 0xf0; // 60 bytes > buffer
        assert_eq!(
            TcpPacket::new_checked(&buf[..]).unwrap_err(),
            WireError::Malformed
        );
    }

    #[test]
    fn options_region_is_exposed() {
        // Hand-build a 24-byte header (data offset 6) with an MSS option.
        let mut buf = [0u8; 24];
        buf[12] = 6 << 4; // data offset = 6 words
        buf[20] = 2; // MSS
        buf[21] = 4;
        buf[22..24].copy_from_slice(&1460u16.to_be_bytes());
        // The header spans the options, so the decoder steps over them.
        let packet = TcpPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(packet.header_len(), 24);
        // A bare header has no options.
        let bare = [
            0x00u8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x50, 0, 0, 0, 0, 0, 0, 0,
        ];
        let packet = TcpPacket::new_checked(&bare[..]).unwrap();
        assert_eq!(usize::from(packet.header_len()), HEADER_LEN);
    }

    #[test]
    fn pure_syn_detection() {
        assert!(TcpFlags::SYN.is_pure_syn());
        assert!((TcpFlags::SYN | TcpFlags::PSH).is_pure_syn());
        assert!(!TcpFlags::SYN_ACK.is_pure_syn());
        assert!(!TcpFlags::RST.is_pure_syn());
        assert!(!TcpFlags::NULL.is_pure_syn());
    }

    #[test]
    fn flags_display() {
        assert_eq!(TcpFlags::SYN.to_string(), "SYN");
        assert_eq!(TcpFlags::SYN_ACK.to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::NULL.to_string(), "NULL");
        assert_eq!(TcpFlags::XMAS.to_string(), "FIN|PSH|URG");
    }
}
