//! The compact probe representation used by the measurement pipeline, and a
//! builder that serializes probes back into full Ethernet/IPv4/TCP frames.
//!
//! A decade of telescope traffic is tens of billions of packets; the analysis
//! keeps only the fields the paper's methodology needs, packed into 32 bytes.

use crate::ethernet::{self, EtherType, EthernetFrame, MacAddress};
use crate::ipv4::{self, Address, Ipv4Packet, Ipv4Repr, Protocol};
use crate::tcp::{self, TcpFlags, TcpPacket, TcpRepr};
use crate::{Result, WireError};

/// One observed TCP frame, reduced to the fields §3 of the paper uses:
/// timing, endpoints, and the header fields carrying tool fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeRecord {
    /// Capture timestamp in microseconds since the epoch.
    pub ts_micros: u64,
    /// Source address — the actual scanner (never spoofed; a reply is wanted).
    pub src_ip: Address,
    /// Destination address — an address inside the telescope.
    pub dst_ip: Address,
    /// TCP source port.
    pub src_port: u16,
    /// TCP destination port — the scanned service.
    pub dst_port: u16,
    /// TCP sequence number (state-encoding field of stateless scanners).
    pub seq: u32,
    /// IPv4 identification field (ZMap: 54321; Masscan: dip^dport^seq).
    pub ip_id: u16,
    /// IPv4 TTL as received.
    pub ttl: u8,
    /// TCP flags byte.
    pub flags: TcpFlags,
    /// TCP receive window.
    pub window: u16,
}

impl ProbeRecord {
    /// Seconds since the epoch, as `f64` (for rate computations).
    pub fn ts_secs(&self) -> f64 {
        self.ts_micros as f64 / 1e6
    }

    /// True if this probe is a pure SYN (the scan filter of §3.2).
    pub fn is_syn_scan(&self) -> bool {
        self.flags.is_pure_syn()
    }

    /// Parse an Ethernet frame into a record, requiring IPv4 + TCP.
    pub fn from_ethernet(ts_micros: u64, frame: &[u8]) -> Result<Self> {
        let eth = EthernetFrame::new_checked(frame)?;
        if eth.ethertype() != EtherType::Ipv4 {
            return Err(WireError::Unsupported);
        }
        Self::from_ipv4(ts_micros, eth.payload())
    }

    /// Parse a raw IPv4 packet into a record, requiring TCP.
    pub(crate) fn from_ipv4(ts_micros: u64, packet: &[u8]) -> Result<Self> {
        let ip = Ipv4Packet::new_checked(packet)?;
        if ip.protocol() != Protocol::Tcp {
            return Err(WireError::Unsupported);
        }
        let tcp = TcpPacket::new_checked(ip.payload())?;
        Ok(Self {
            ts_micros,
            src_ip: ip.src_addr(),
            dst_ip: ip.dst_addr(),
            src_port: tcp.src_port(),
            dst_port: tcp.dst_port(),
            seq: tcp.seq_number(),
            ip_id: ip.ident(),
            ttl: ip.ttl(),
            flags: tcp.flags(),
            window: tcp.window_len(),
        })
    }

    /// Total frame length when serialized (Ethernet + IPv4 + bare TCP).
    pub const fn frame_len() -> usize {
        ethernet::HEADER_LEN + ipv4::HEADER_LEN + tcp::HEADER_LEN
    }
}

/// Serializes [`ProbeRecord`]s back into complete, checksummed frames.
///
/// Used by the synthetic workload generator to produce pcap files that are
/// bit-for-bit plausible telescope captures, and by round-trip tests.
#[derive(Debug, Clone)]
pub struct SynFrameBuilder {
    src_mac: MacAddress,
    dst_mac: MacAddress,
}

impl Default for SynFrameBuilder {
    fn default() -> Self {
        Self {
            // Locally-administered MACs standing in for the upstream router
            // and the telescope capture port.
            src_mac: MacAddress([0x02, 0x00, 0x5e, 0x00, 0x00, 0x01]),
            dst_mac: MacAddress([0x02, 0x00, 0x5e, 0x00, 0x00, 0x02]),
        }
    }
}

impl SynFrameBuilder {
    /// Serialize one record into a fresh frame buffer.
    pub fn build(&self, record: &ProbeRecord) -> Vec<u8> {
        let mut buf = vec![0u8; ProbeRecord::frame_len()];
        self.build_into(record, &mut buf);
        buf
    }

    /// Serialize into a caller-provided buffer of exactly
    /// [`ProbeRecord::frame_len()`] bytes.
    pub fn build_into(&self, record: &ProbeRecord, buf: &mut [u8]) {
        assert_eq!(buf.len(), ProbeRecord::frame_len());
        let mut eth = EthernetFrame::new_unchecked(&mut buf[..]);
        eth.set_src_mac(self.src_mac);
        eth.set_dst_mac(self.dst_mac);
        eth.set_ethertype(EtherType::Ipv4);

        let ip_repr = Ipv4Repr {
            src_addr: record.src_ip,
            dst_addr: record.dst_ip,
            protocol: Protocol::Tcp,
            ident: record.ip_id,
            ttl: record.ttl,
            payload_len: tcp::HEADER_LEN,
        };
        let ip_buf = &mut buf[ethernet::HEADER_LEN..];
        ip_repr.emit(&mut Ipv4Packet::new_unchecked(&mut ip_buf[..]));

        let tcp_repr = TcpRepr {
            src_port: record.src_port,
            dst_port: record.dst_port,
            seq_number: record.seq,
            ack_number: 0,
            flags: record.flags,
            window_len: record.window,
            urgent: 0,
        };
        let tcp_buf = &mut buf[ethernet::HEADER_LEN + ipv4::HEADER_LEN..];
        tcp_repr.emit(
            &mut TcpPacket::new_unchecked(&mut tcp_buf[..]),
            record.src_ip,
            record.dst_ip,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> ProbeRecord {
        ProbeRecord {
            ts_micros: 1_700_000_000_000_000,
            src_ip: Address::new(203, 0, 113, 10),
            dst_ip: Address::new(192, 0, 2, 77),
            src_port: 54321,
            dst_port: 3389,
            seq: 0xfeed_f00d,
            ip_id: 54321,
            ttl: 51,
            flags: TcpFlags::SYN,
            window: 1024,
        }
    }

    #[test]
    fn frame_round_trip_preserves_every_field() {
        let record = sample_record();
        let frame = SynFrameBuilder::default().build(&record);
        let parsed = ProbeRecord::from_ethernet(record.ts_micros, &frame).unwrap();
        assert_eq!(parsed, record);
    }

    #[test]
    fn built_frames_have_valid_checksums() {
        let record = sample_record();
        let frame = SynFrameBuilder::default().build(&record);
        let eth = EthernetFrame::new_checked(&frame[..]).unwrap();
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert!(ip.verify_checksum());
        let tcp = TcpPacket::new_checked(ip.payload()).unwrap();
        assert!(tcp.verify_checksum(ip.src_addr(), ip.dst_addr()));
    }

    #[test]
    fn non_ipv4_frames_are_rejected() {
        let record = sample_record();
        let mut frame = SynFrameBuilder::default().build(&record);
        frame[12] = 0x86;
        frame[13] = 0xdd; // IPv6 ethertype
        assert_eq!(
            ProbeRecord::from_ethernet(0, &frame).unwrap_err(),
            WireError::Unsupported
        );
    }

    #[test]
    fn non_tcp_packets_are_rejected() {
        let record = sample_record();
        let mut frame = SynFrameBuilder::default().build(&record);
        // Overwrite the IPv4 protocol field (offset 14 + 9) with UDP and
        // refresh the header checksum so only the protocol check can fail.
        frame[14 + 9] = 17;
        let ip_start = ethernet::HEADER_LEN;
        frame[ip_start + 10] = 0;
        frame[ip_start + 11] = 0;
        let ck = crate::checksum::checksum(&frame[ip_start..ip_start + ipv4::HEADER_LEN]);
        frame[ip_start + 10] = (ck >> 8) as u8;
        frame[ip_start + 11] = (ck & 0xff) as u8;
        assert_eq!(
            ProbeRecord::from_ethernet(0, &frame).unwrap_err(),
            WireError::Unsupported
        );
    }

    #[test]
    fn syn_scan_filter() {
        let mut record = sample_record();
        assert!(record.is_syn_scan());
        record.flags = TcpFlags::SYN_ACK;
        assert!(!record.is_syn_scan());
        record.flags = TcpFlags::RST;
        assert!(!record.is_syn_scan());
    }

    #[test]
    fn timestamp_conversion() {
        let record = sample_record();
        assert!((record.ts_secs() - 1_700_000_000.0).abs() < 1e-9);
    }
}
