//! Single-packet fingerprint invariants (§3.3).

use synscan_wire::ProbeRecord;

use synscan_scanners::masscan::MasscanScanner;
use synscan_scanners::traits::ToolKind;
use synscan_scanners::zmap::ZMAP_IP_ID;

/// Does the Masscan relation `ip_id = (dstIP ⊕ dstPort ⊕ seq) & 0xffff` hold?
pub(crate) fn is_masscan(record: &ProbeRecord) -> bool {
    record.ip_id == MasscanScanner::ip_id_for(record.dst_ip, record.dst_port, record.seq)
}

/// Does the ZMap constant identification hold?
pub(crate) fn is_zmap(record: &ProbeRecord) -> bool {
    record.ip_id == ZMAP_IP_ID
}

/// Does the Mirai `seq = dstIP` quirk hold?
pub(crate) fn is_mirai(record: &ProbeRecord) -> bool {
    record.seq == record.dst_ip.0
}

/// Evaluate all single-packet rules with the specificity precedence used in
/// the paper's methodology: Mirai's 32-bit equality is the most specific
/// (chance 2⁻³²), then Masscan's computed 16-bit relation, then ZMap's
/// constant (both chance 2⁻¹⁶, but a constant can be *spoofed* more easily
/// and collides with the Masscan relation whenever the computed value
/// happens to be 54321 — the computed relation carries more evidence).
pub fn single_packet_verdict(record: &ProbeRecord) -> Option<ToolKind> {
    if is_mirai(record) {
        return Some(ToolKind::Mirai);
    }
    if is_masscan(record) {
        return Some(ToolKind::Masscan);
    }
    if is_zmap(record) {
        return Some(ToolKind::Zmap);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use synscan_wire::{Ipv4Address, TcpFlags};

    fn base() -> ProbeRecord {
        ProbeRecord {
            ts_micros: 0,
            src_ip: Ipv4Address(1),
            dst_ip: Ipv4Address(0x0a14_1e28),
            src_port: 4000,
            dst_port: 443,
            seq: 0x1111_2222,
            ip_id: 0,
            ttl: 64,
            flags: TcpFlags::SYN,
            window: 1024,
        }
    }

    #[test]
    fn masscan_relation_detects_crafted_id() {
        let mut rec = base();
        rec.ip_id = ((rec.dst_ip.0 ^ u32::from(rec.dst_port) ^ rec.seq) & 0xffff) as u16;
        assert!(is_masscan(&rec));
        assert_eq!(single_packet_verdict(&rec), Some(ToolKind::Masscan));
        rec.ip_id ^= 1;
        assert!(!is_masscan(&rec));
    }

    #[test]
    fn zmap_constant_detected() {
        let mut rec = base();
        rec.ip_id = 54_321;
        assert!(is_zmap(&rec));
        assert_eq!(single_packet_verdict(&rec), Some(ToolKind::Zmap));
    }

    #[test]
    fn mirai_quirk_detected_and_wins_precedence() {
        let mut rec = base();
        rec.seq = rec.dst_ip.0;
        rec.ip_id = 54_321; // also looks like zmap
        assert!(is_mirai(&rec));
        assert_eq!(single_packet_verdict(&rec), Some(ToolKind::Mirai));
    }

    #[test]
    fn masscan_beats_zmap_on_collision() {
        // Craft a packet where the masscan relation evaluates to 54321.
        let mut rec = base();
        // Choose seq so that (dst ^ dport ^ seq) & 0xffff == 54321.
        let want = 54_321u32;
        rec.seq =
            (rec.dst_ip.0 ^ u32::from(rec.dst_port) ^ want) & 0xffff | (rec.seq & 0xffff_0000);
        rec.ip_id = 54_321;
        assert!(is_masscan(&rec) && is_zmap(&rec));
        assert_eq!(single_packet_verdict(&rec), Some(ToolKind::Masscan));
    }

    #[test]
    fn plain_packet_matches_nothing() {
        let rec = base();
        assert_eq!(single_packet_verdict(&rec), None);
    }
}
