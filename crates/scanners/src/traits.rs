//! The crafting and ordering abstractions shared by all tools.

use synscan_wire::{Ipv4Address, ProbeRecord, TcpFlags};

/// The tools the paper tracks, plus the fingerprint-free rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ToolKind {
    /// ZMap (Durumeric et al., 2013).
    Zmap,
    /// Masscan (Graham, 2014).
    Masscan,
    /// NMap.
    Nmap,
    /// Mirai and the botnets reusing its scanning routine.
    Mirai,
    /// Unicornscan.
    Unicorn,
    /// Custom or de-fingerprinted tooling.
    Custom,
}

impl ToolKind {
    /// All tracked kinds, fingerprinted tools first.
    pub const ALL: [ToolKind; 6] = [
        ToolKind::Masscan,
        ToolKind::Nmap,
        ToolKind::Mirai,
        ToolKind::Zmap,
        ToolKind::Unicorn,
        ToolKind::Custom,
    ];

    /// Lower-case name as used in tables.
    pub const fn name(self) -> &'static str {
        match self {
            ToolKind::Zmap => "zmap",
            ToolKind::Masscan => "masscan",
            ToolKind::Nmap => "nmap",
            ToolKind::Mirai => "mirai",
            ToolKind::Unicorn => "unicorn",
            ToolKind::Custom => "custom",
        }
    }
}

impl core::fmt::Display for ToolKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The header fields a tool controls when crafting a SYN probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeHeaders {
    /// TCP source port.
    pub src_port: u16,
    /// TCP sequence number.
    pub seq: u32,
    /// IPv4 identification.
    pub ip_id: u16,
    /// IPv4 TTL at origin (the telescope sees this minus path length).
    pub ttl: u8,
    /// TCP window.
    pub window: u16,
}

/// A tool's packet-crafting behaviour — the fingerprint surface of §3.3.
///
/// `probe_idx` is the sequence number of the probe within the scan, letting
/// stateful tools (NMap's keystream) vary per probe deterministically.
pub trait ProbeCrafter {
    /// Fill the header fields for a probe to `dst:dst_port`.
    fn craft(&self, dst: Ipv4Address, dst_port: u16, probe_idx: u64) -> ProbeHeaders;

    /// Which tool this is.
    fn tool(&self) -> ToolKind;
}

/// Assemble a full [`ProbeRecord`] from a crafter, endpoints and a timestamp.
///
/// `path_ttl_decrement` models the hops between scanner and telescope.
pub fn craft_record<C: ProbeCrafter + ?Sized>(
    crafter: &C,
    src: Ipv4Address,
    dst: Ipv4Address,
    dst_port: u16,
    probe_idx: u64,
    ts_micros: u64,
    path_ttl_decrement: u8,
) -> ProbeRecord {
    let h = crafter.craft(dst, dst_port, probe_idx);
    ProbeRecord {
        ts_micros,
        src_ip: src,
        dst_ip: dst,
        src_port: h.src_port,
        dst_port,
        seq: h.seq,
        ip_id: h.ip_id,
        ttl: h.ttl.saturating_sub(path_ttl_decrement),
        flags: TcpFlags::SYN,
        window: h.window,
    }
}

/// How a scan walks its target space. Lee et al. find 91% of port scanners
/// target addresses sequentially; the high-speed tools permute instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetOrder {
    /// Linear walk (classic custom tools, most of the 2015 population).
    Sequential,
    /// ZMap's cyclic-group permutation.
    CyclicGroup,
    /// Masscan's BlackRock cipher permutation.
    BlackRock,
    /// Independent uniform draws (Mirai: may revisit targets).
    UniformRandom,
}

pub use synscan_stats::mix64;

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed;
    impl ProbeCrafter for Fixed {
        fn craft(&self, dst: Ipv4Address, dst_port: u16, idx: u64) -> ProbeHeaders {
            ProbeHeaders {
                src_port: 40000,
                seq: dst.0 ^ dst_port as u32 ^ idx as u32,
                ip_id: 7,
                ttl: 64,
                window: 1024,
            }
        }
        fn tool(&self) -> ToolKind {
            ToolKind::Custom
        }
    }

    #[test]
    fn craft_record_assembles_fields() {
        let src = Ipv4Address::new(1, 2, 3, 4);
        let dst = Ipv4Address::new(5, 6, 7, 8);
        let rec = craft_record(&Fixed, src, dst, 443, 9, 1_000_000, 13);
        assert_eq!(rec.src_ip, src);
        assert_eq!(rec.dst_ip, dst);
        assert_eq!(rec.dst_port, 443);
        assert_eq!(rec.seq, dst.0 ^ 443 ^ 9);
        assert_eq!(rec.ttl, 64 - 13);
        assert!(rec.is_syn_scan());
        assert_eq!(rec.ts_micros, 1_000_000);
    }

    #[test]
    fn tool_names_are_stable() {
        assert_eq!(ToolKind::Zmap.to_string(), "zmap");
        assert_eq!(ToolKind::Masscan.name(), "masscan");
        assert_eq!(ToolKind::ALL.len(), 6);
    }

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        // Low bits of consecutive inputs should differ substantially.
        let a = mix64(100) & 0xffff;
        let b = mix64(101) & 0xffff;
        assert_ne!(a, b);
    }
}
