//! # synscan-wire
//!
//! Sans-I/O wire layer for the `synscan` measurement pipeline.
//!
//! This crate provides zero-copy *views* over byte buffers for the protocols a
//! network telescope sees (Ethernet II, IPv4, TCP), higher-level `Repr`
//! (representation) structs with checked `parse`/`emit`, the classic libpcap
//! file format, and the compact [`probe::ProbeRecord`] used throughout the
//! analysis pipeline.
//!
//! The design follows the smoltcp idiom:
//!
//! * a `Packet<T: AsRef<[u8]>>` wrapper exposes unchecked field accessors over
//!   a borrowed buffer,
//! * `Packet::new_checked` validates length invariants up front,
//! * a plain-old-data `Repr` struct round-trips through `parse`/`emit`,
//! * nothing allocates on the hot path.
//!
//! ```
//! use synscan_wire::{ipv4, tcp, TcpFlags};
//!
//! // Craft a SYN probe the way a scanner would.
//! let repr = ipv4::Ipv4Repr {
//!     src_addr: ipv4::Address::new(198, 51, 100, 7),
//!     dst_addr: ipv4::Address::new(192, 0, 2, 55),
//!     protocol: ipv4::Protocol::Tcp,
//!     ident: 54321,
//!     ttl: 64,
//!     payload_len: tcp::HEADER_LEN,
//! };
//! let tcp_repr = tcp::TcpRepr {
//!     src_port: 44123,
//!     dst_port: 443,
//!     seq_number: 0x1337_beef,
//!     ack_number: 0,
//!     flags: TcpFlags::SYN,
//!     window_len: 65535,
//!     urgent: 0,
//! };
//! let mut buf = vec![0u8; ipv4::HEADER_LEN + tcp::HEADER_LEN];
//! repr.emit(&mut ipv4::Ipv4Packet::new_unchecked(&mut buf[..]));
//! tcp_repr.emit(
//!     &mut tcp::TcpPacket::new_unchecked(&mut buf[ipv4::HEADER_LEN..]),
//!     repr.src_addr,
//!     repr.dst_addr,
//! );
//! let parsed = ipv4::Ipv4Repr::parse(&ipv4::Ipv4Packet::new_checked(&buf[..]).unwrap()).unwrap();
//! assert_eq!(parsed.ident, 54321);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod checksum;
pub mod ethernet;
pub mod ingest;
pub mod ipv4;
pub mod json;
pub mod net;
pub mod pcap;
pub mod probe;
pub mod stream;
pub mod tcp;
pub mod tcp_options;

pub use chaos::ChaosPlan;
pub use ingest::IngestQueues;
/// Re-exported at the root only because the benchmark names it here.
pub use ingest::MappedCapture;
pub use ipv4::{Address as Ipv4Address, Ipv4Packet};
pub use pcap::PcapError;
pub use probe::{ProbeRecord, SynFrameBuilder};
pub use stream::FaultPolicy;
pub use tcp::{TcpFlags, TcpPacket};

/// Errors produced when interpreting or constructing wire data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the fixed header of the protocol.
    Truncated,
    /// A length field is inconsistent with the buffer (e.g. IHL beyond data).
    Malformed,
    /// A checksum did not verify.
    Checksum,
    /// The version or type field identifies a protocol we do not handle.
    Unsupported,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer truncated"),
            WireError::Malformed => write!(f, "malformed packet"),
            WireError::Checksum => write!(f, "checksum mismatch"),
            WireError::Unsupported => write!(f, "unsupported protocol"),
        }
    }
}

impl std::error::Error for WireError {}

/// Convenience alias used across the crate.
pub(crate) type Result<T> = core::result::Result<T, WireError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_stable() {
        assert_eq!(WireError::Truncated.to_string(), "buffer truncated");
        assert_eq!(WireError::Malformed.to_string(), "malformed packet");
        assert_eq!(WireError::Checksum.to_string(), "checksum mismatch");
        assert_eq!(WireError::Unsupported.to_string(), "unsupported protocol");
    }
}
