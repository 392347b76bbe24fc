//! Unicornscan's sequence-number encoding.
//!
//! Unicornscan encodes source and destination information in the TCP
//! sequence number so its listener process can validate replies. Ghiette et
//! al. derived the pairwise relation the paper uses (§3.3): for two probes
//! of the same session,
//!
//! ```text
//! seq₁ ⊕ seq₂ = dstIP₁ ⊕ dstIP₂ ⊕ srcPort₁ ⊕ srcPort₂
//!               ⊕ ((dstPort₁ ⊕ dstPort₂) << 16)
//! ```
//!
//! This holds when each probe is built as
//! `seq = dstIP ⊕ srcPort ⊕ (dstPort << 16) ⊕ K` for a session constant `K`
//! — which is what we implement.
//!
//! The paper finds Unicorn essentially extinct: exactly **2 distinct IP
//! addresses** ever used it across the whole decade (§6.1), so the
//! synthesizer instantiates it only as a rarity; it matters mostly as a
//! negative control for the fingerprint engine.

use synscan_wire::Ipv4Address;

use crate::traits::{mix64, ProbeCrafter, ProbeHeaders, ToolKind};

/// A Unicornscan session.
#[derive(Debug, Clone)]
pub struct UnicornScanner {
    /// Session constant `K`.
    session_key: u32,
    /// Source-port walk base (unicornscan varies the source port).
    src_port_base: u16,
}

impl UnicornScanner {
    /// Create a session keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            session_key: mix64(seed ^ 0x756e_6963) as u32,
            src_port_base: 20_000 + (mix64(seed) % 20_000) as u16,
        }
    }

    /// Source port of the `idx`-th probe (walks over a small range).
    fn src_port(&self, idx: u64) -> u16 {
        self.src_port_base.wrapping_add((idx % 512) as u16)
    }
}

impl ProbeCrafter for UnicornScanner {
    fn craft(&self, dst: Ipv4Address, dst_port: u16, probe_idx: u64) -> ProbeHeaders {
        let src_port = self.src_port(probe_idx);
        let seq = dst.0 ^ u32::from(src_port) ^ (u32::from(dst_port) << 16) ^ self.session_key;
        ProbeHeaders {
            src_port,
            seq,
            ip_id: (mix64(u64::from(self.session_key) ^ probe_idx) & 0xffff) as u16,
            ttl: 64,
            window: 4096,
        }
    }

    fn tool(&self) -> ToolKind {
        ToolKind::Unicorn
    }
}

/// The pairwise Unicorn relation of §3.3 over two observed probes.
#[allow(clippy::too_many_arguments)] // the relation genuinely binds four fields of two packets
pub fn unicorn_pair_relation(
    seq1: u32,
    dst1: Ipv4Address,
    src_port1: u16,
    dst_port1: u16,
    seq2: u32,
    dst2: Ipv4Address,
    src_port2: u16,
    dst_port2: u16,
) -> bool {
    seq1 ^ seq2
        == dst1.0
            ^ dst2.0
            ^ u32::from(src_port1)
            ^ u32::from(src_port2)
            ^ (u32::from(dst_port1 ^ dst_port2) << 16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_of_a_session_satisfy_the_relation() {
        let u = UnicornScanner::new(9);
        let probes: Vec<(u32, Ipv4Address, u16, u16)> = (0..40u32)
            .map(|i| {
                let dst = Ipv4Address(0x2000_0000 + i * 1013);
                let dport = (i * 53 % 65_535) as u16;
                let h = u.craft(dst, dport, i as u64);
                (h.seq, dst, h.src_port, dport)
            })
            .collect();
        for i in 0..probes.len() {
            for j in i + 1..probes.len() {
                let (s1, d1, sp1, dp1) = probes[i];
                let (s2, d2, sp2, dp2) = probes[j];
                assert!(
                    unicorn_pair_relation(s1, d1, sp1, dp1, s2, d2, sp2, dp2),
                    "pair ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn cross_session_pairs_fail_the_relation() {
        let a = UnicornScanner::new(1);
        let b = UnicornScanner::new(2);
        let mut matches = 0;
        for i in 0..200u32 {
            let d1 = Ipv4Address(i * 3 + 7);
            let d2 = Ipv4Address(i * 11 + 5);
            let h1 = a.craft(d1, 80, i as u64);
            let h2 = b.craft(d2, 443, i as u64);
            if unicorn_pair_relation(h1.seq, d1, h1.src_port, 80, h2.seq, d2, h2.src_port, 443) {
                matches += 1;
            }
        }
        assert!(matches <= 1, "{matches} accidental matches");
    }

    #[test]
    fn random_seqs_fail_the_relation() {
        // Packets with unrelated sequence numbers must not pass.
        let d1 = Ipv4Address(0x0102_0304);
        let d2 = Ipv4Address(0x0506_0708);
        assert!(!unicorn_pair_relation(
            0xdead_beef,
            d1,
            1000,
            80,
            0x1337_c0de,
            d2,
            1001,
            81
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let u1 = UnicornScanner::new(7);
        let u2 = UnicornScanner::new(7);
        let d = Ipv4Address(42);
        assert_eq!(u1.craft(d, 80, 3), u2.craft(d, 80, 3));
    }
}
