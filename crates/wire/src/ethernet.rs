//! Ethernet II framing.
//!
//! Telescope capture files store full frames; the pipeline only needs to peel
//! the 14-byte header off and dispatch on the EtherType.

use crate::{Result, WireError};

/// Length in bytes of an Ethernet II header.
pub const HEADER_LEN: usize = 14;

/// A MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) struct MacAddress(pub [u8; 6]);

impl core::fmt::Display for MacAddress {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let [a, b, c, d, e, g] = self.0;
        write!(f, "{a:02x}:{b:02x}:{c:02x}:{d:02x}:{e:02x}:{g:02x}")
    }
}

/// EtherType values the telescope cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806) — seen from local gear, ignored by analysis.
    Arp,
    /// IPv6 (0x86DD) — out of scope for the IPv4 telescope.
    Ipv6,
    /// Anything else.
    Other(u16),
}

impl From<u16> for EtherType {
    fn from(value: u16) -> Self {
        match value {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x86dd => EtherType::Ipv6,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(value: EtherType) -> Self {
        match value {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Ipv6 => 0x86dd,
            EtherType::Other(other) => other,
        }
    }
}

/// Zero-copy view of an Ethernet II frame.
#[derive(Debug, Clone)]
pub struct EthernetFrame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> EthernetFrame<T> {
    /// Wrap a buffer without validating it.
    pub(crate) const fn new_unchecked(buffer: T) -> Self {
        Self { buffer }
    }

    /// Wrap a buffer, validating that the fixed header fits.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let frame = Self::new_unchecked(buffer);
        if frame.buffer.as_ref().len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        Ok(frame)
    }

    /// EtherType.
    pub(crate) fn ethertype(&self) -> EtherType {
        EtherType::from(u16::from_be_bytes(
            self.buffer.as_ref()[12..14].try_into().unwrap(),
        ))
    }

    /// The encapsulated payload (e.g. an IPv4 packet).
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> EthernetFrame<T> {
    /// Set the destination MAC.
    pub(crate) fn set_dst_mac(&mut self, value: MacAddress) {
        self.buffer.as_mut()[0..6].copy_from_slice(&value.0);
    }

    /// Set the source MAC.
    pub(crate) fn set_src_mac(&mut self, value: MacAddress) {
        self.buffer.as_mut()[6..12].copy_from_slice(&value.0);
    }

    /// Set the EtherType.
    pub(crate) fn set_ethertype(&mut self, value: EtherType) {
        self.buffer.as_mut()[12..14].copy_from_slice(&u16::from(value).to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = [0u8; HEADER_LEN + 4];
        let mut frame = EthernetFrame::new_unchecked(&mut buf[..]);
        frame.set_dst_mac(MacAddress([0, 1, 2, 3, 4, 5]));
        frame.set_src_mac(MacAddress([6, 7, 8, 9, 10, 11]));
        frame.set_ethertype(EtherType::Ipv4);
        assert_eq!(buf[..12], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        let frame = EthernetFrame::new_checked(&buf[..]).unwrap();
        assert_eq!(frame.ethertype(), EtherType::Ipv4);
        assert_eq!(frame.payload().len(), 4);
    }

    #[test]
    fn short_frame_rejected() {
        assert_eq!(
            EthernetFrame::new_checked(&[0u8; 13][..]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(EtherType::from(0x0800u16), EtherType::Ipv4);
        assert_eq!(EtherType::from(0x86ddu16), EtherType::Ipv6);
        assert_eq!(EtherType::from(0x0806u16), EtherType::Arp);
        assert_eq!(u16::from(EtherType::Other(0x88cc)), 0x88cc);
    }

    #[test]
    fn mac_display() {
        assert_eq!(
            MacAddress([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]).to_string(),
            "de:ad:be:ef:00:01"
        );
    }
}
