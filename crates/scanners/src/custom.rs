//! Fingerprint-free scanners.
//!
//! Two populations in the paper present no tool fingerprint: the 2015-era
//! "custom-designed tooling" that dominated before the high-speed tools were
//! adopted, and the post-2023 de-fingerprinted scanners that drove tracked
//! tool coverage from 95% of traffic (2022) to under 40% (2024). Both craft
//! probes with OS-stack-like pseudo-random header fields that deliberately
//! satisfy none of the §3.3 invariants.

use synscan_wire::Ipv4Address;

use crate::traits::{mix64, ProbeCrafter, ProbeHeaders, ToolKind};

/// A custom scanner with random headers.
#[derive(Debug, Clone)]
pub struct CustomScanner {
    seed: u64,
}

impl CustomScanner {
    /// A custom tool with a per-probe random source port.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl ProbeCrafter for CustomScanner {
    fn craft(&self, dst: Ipv4Address, dst_port: u16, probe_idx: u64) -> ProbeHeaders {
        // Mix the destination in so distinct probes never repeat headers —
        // then explicitly dodge the Mirai invariant (seq == dst) which a
        // random draw would hit with probability 2^-32 anyway.
        let r = mix64(self.seed ^ probe_idx ^ (u64::from(dst.0) << 16) ^ u64::from(dst_port));
        let mut seq = (r >> 16) as u32;
        if seq == dst.0 {
            seq ^= 0x8000_0001;
        }
        ProbeHeaders {
            src_port: 1024 + (r % 64_000) as u16,
            seq,
            ip_id: (mix64(r) & 0xffff) as u16,
            ttl: 64,
            window: 29_200,
        }
    }

    fn tool(&self) -> ToolKind {
        ToolKind::Custom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::masscan::MasscanScanner;
    use crate::nmap::nmap_pair_relation;
    use crate::zmap::ZMAP_IP_ID;

    #[test]
    fn never_matches_single_packet_invariants() {
        let c = CustomScanner::new(3);
        for i in 0..2000u64 {
            let dst = Ipv4Address(mix64(i) as u32);
            let port = (mix64(i ^ 1) % 65_536) as u16;
            let h = c.craft(dst, port, i);
            assert_ne!(h.seq, dst.0, "must not look like Mirai");
            // ZMap's constant shows up with chance 2^-16 per probe; the
            // ip_id derivation is random so a rare collision is acceptable —
            // but the *masscan relation* must not systematically hold.
            let masscan_id = MasscanScanner::ip_id_for(dst, port, h.seq);
            if h.ip_id == masscan_id || h.ip_id == ZMAP_IP_ID {
                // Tolerated as an isolated collision; fail only on repeats.
                let h2 = c.craft(Ipv4Address(dst.0 ^ 1), port, i + 1);
                assert!(
                    h2.ip_id != MasscanScanner::ip_id_for(Ipv4Address(dst.0 ^ 1), port, h2.seq)
                        || h2.ip_id != ZMAP_IP_ID
                );
            }
        }
    }

    #[test]
    fn pairwise_relations_fail_at_chance_level() {
        let c = CustomScanner::new(4);
        let seqs: Vec<u32> = (0..150u64)
            .map(|i| c.craft(Ipv4Address(mix64(i) as u32), 80, i).seq)
            .collect();
        let mut nmap_hits = 0usize;
        let mut pairs = 0usize;
        for i in 0..seqs.len() {
            for j in i + 1..seqs.len() {
                pairs += 1;
                if nmap_pair_relation(seqs[i], seqs[j]) {
                    nmap_hits += 1;
                }
            }
        }
        // Chance level 2^-16: with ~11k pairs, expect < 3 hits.
        assert!(nmap_hits < 4, "{nmap_hits} of {pairs} pairs matched NMap");
    }

    #[test]
    fn rolling_port_variant_varies() {
        let c = CustomScanner::new(8);
        let ports: std::collections::HashSet<u16> = (0..50u64)
            .map(|i| c.craft(Ipv4Address(i as u32), 80, i).src_port)
            .collect();
        assert!(ports.len() > 20);
    }
}
