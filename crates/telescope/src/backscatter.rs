//! Synthetic attack backscatter.
//!
//! When a DDoS attacker spoofs random source addresses, some of the spoofed
//! addresses fall inside the telescope; the victim's replies (SYN/ACK for a
//! SYN flood it tries to answer, RST for closed ports) then arrive at dark
//! space. §3.2 separates this from scanning with the SYN-only filter. The
//! generator here produces such reply floods so the capture pipeline's
//! filters are exercised against realistic contamination — roughly 2% of
//! unsolicited TCP traffic in the paper's data (98% is SYN scanning).

use synscan_stats::Rng;

use synscan_scanners::traits::mix64;
use synscan_wire::{Ipv4Address, ProbeRecord, TcpFlags};

use crate::addrset::AddressSet;

/// Generates backscatter from one attacked victim.
#[derive(Debug, Clone)]
pub struct BackscatterGenerator {
    /// The attack victim whose replies we see.
    pub victim: Ipv4Address,
    /// The attacked service port (source port of the replies).
    pub service_port: u16,
    /// Reply rate toward the telescope, packets/second. This is the victim's
    /// total reply rate thinned by the telescope fraction already.
    pub rate_pps: f64,
    /// Fraction of replies that are SYN/ACK (rest are RST).
    pub syn_ack_fraction: f64,
}

impl BackscatterGenerator {
    /// Generate the replies arriving during `[start, start+duration)`.
    pub fn generate(
        &self,
        rng: &mut Rng,
        set: &AddressSet,
        start_micros: u64,
        duration_secs: f64,
    ) -> Vec<ProbeRecord> {
        assert!(self.rate_pps >= 0.0 && duration_secs >= 0.0);
        let count = (self.rate_pps * duration_secs).round() as u64;
        let mut records = Vec::with_capacity(count as usize);
        for i in 0..count {
            let dst = set.addresses()[rng.range(0..set.len())];
            let flags = if rng.chance(self.syn_ack_fraction) {
                TcpFlags::SYN_ACK
            } else {
                TcpFlags::RST
            };
            records.push(ProbeRecord {
                ts_micros: start_micros + rng.range(0..(duration_secs * 1e6) as u64 + 1),
                src_ip: self.victim,
                dst_ip: dst,
                // The reply goes to whatever ephemeral port the spoofed SYN
                // claimed; model as random.
                src_port: self.service_port,
                dst_port: 1024 + (mix64(i) % 60_000) as u16,
                seq: mix64(i ^ u64::from(self.victim.0)) as u32,
                ip_id: (mix64(i ^ 0xbac5) & 0xffff) as u16,
                ttl: 57,
                flags,
                window: 0,
            });
        }
        records.sort_by_key(|r| r.ts_micros);
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TelescopeConfig;

    #[test]
    fn backscatter_is_never_pure_syn() {
        let set = AddressSet::build(&TelescopeConfig::paper_scaled(128));
        let mut rng = Rng::seed_from_u64(1);
        let gen = BackscatterGenerator {
            victim: Ipv4Address::new(203, 0, 113, 80),
            service_port: 80,
            rate_pps: 100.0,
            syn_ack_fraction: 0.7,
        };
        let records = gen.generate(&mut rng, &set, 0, 10.0);
        assert_eq!(records.len(), 1000);
        assert!(records.iter().all(|r| !r.is_syn_scan()));
        let syn_acks = records
            .iter()
            .filter(|r| r.flags == TcpFlags::SYN_ACK)
            .count() as f64;
        assert!((syn_acks / 1000.0 - 0.7).abs() < 0.06);
    }

    #[test]
    fn replies_come_from_the_victim_to_dark_space() {
        let set = AddressSet::build(&TelescopeConfig::paper_scaled(128));
        let mut rng = Rng::seed_from_u64(2);
        let victim = Ipv4Address::new(198, 51, 100, 5);
        let gen = BackscatterGenerator {
            victim,
            service_port: 443,
            rate_pps: 50.0,
            syn_ack_fraction: 0.5,
        };
        for r in gen.generate(&mut rng, &set, 1_000_000, 2.0) {
            assert_eq!(r.src_ip, victim);
            assert_eq!(r.src_port, 443);
            assert!(set.contains(r.dst_ip));
            assert!(r.ts_micros >= 1_000_000);
        }
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let set = AddressSet::build(&TelescopeConfig::paper_scaled(128));
        let mut rng = Rng::seed_from_u64(3);
        let gen = BackscatterGenerator {
            victim: Ipv4Address(1),
            service_port: 80,
            rate_pps: 0.0,
            syn_ack_fraction: 0.5,
        };
        assert!(gen.generate(&mut rng, &set, 0, 100.0).is_empty());
    }
}
