//! Extrapolated campaign metrics.
//!
//! The telescope sees a thin slice of each scan; the paper's speed and
//! coverage figures (§5.2, §6.3, §6.4, Figure 7) are *estimates* obtained by
//! inverting the telescope's sampling: rates scale by `2³² / monitored`,
//! coverage comes from the inverse coupon-collector extrapolation of
//! distinct destinations.

use synscan_stats::telescope_model::{TelescopeModel, IPV4_SPACE};

use super::Campaign;

/// Bytes on the wire per bare SYN frame (Ethernet 14 + IPv4 20 + TCP 20 +
/// FCS 4 — the figure the paper's Gbps numbers imply for minimum-size
/// probes, padded to the 64-byte Ethernet minimum).
pub const SYN_FRAME_BYTES: f64 = 64.0;

/// Extrapolated, Internet-wide view of one campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignEstimates {
    /// Estimated Internet-wide probing rate, packets/second.
    pub rate_pps: f64,
    /// Estimated bandwidth in bits/second.
    pub rate_bps: f64,
    /// Estimated number of addresses targeted.
    pub targeted_addresses: f64,
    /// Estimated fraction of IPv4 covered (0..=1).
    pub ipv4_coverage: f64,
    /// Estimated total probes sent Internet-wide.
    pub total_probes: f64,
}

impl CampaignEstimates {
    /// Compute estimates for a campaign under a telescope model.
    pub fn from_campaign(campaign: &Campaign, model: &TelescopeModel) -> Self {
        let duration = campaign.duration_secs();
        let telescope_rate = if duration > 0.0 {
            campaign.packets as f64 / duration
        } else {
            // Single-timestamp burst: all packets in well under a second.
            campaign.packets as f64
        };
        let rate_pps = model.extrapolate_rate(telescope_rate);
        // Coverage from distinct destinations; multi-port campaigns hit the
        // same address once per port, so coverage uses addresses only.
        let targeted_addresses = model.extrapolate_targets(campaign.distinct_dests);
        let ports = campaign.distinct_ports().max(1) as f64;
        Self {
            rate_pps,
            rate_bps: rate_pps * SYN_FRAME_BYTES * 8.0,
            targeted_addresses,
            ipv4_coverage: (targeted_addresses / IPV4_SPACE).min(1.0),
            total_probes: campaign.packets as f64 / model.hit_probability() * ports / ports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use synscan_wire::Ipv4Address;

    fn campaign(packets: u64, dests: u64, duration_secs: u64) -> Campaign {
        Campaign {
            src_ip: Ipv4Address(1),
            first_ts_micros: 0,
            last_ts_micros: duration_secs * 1_000_000,
            packets,
            distinct_dests: dests,
            port_packets: BTreeMap::from([(80u16, packets)]),
            tool_votes: BTreeMap::new(),
        }
    }

    #[test]
    fn full_internet_scan_is_recovered() {
        // A scan that hit every telescope address once over 12 hours.
        let model = TelescopeModel::new(71_536);
        let c = campaign(71_536, 71_536, 12 * 3600);
        let est = c.estimates(&model);
        assert_eq!(est.ipv4_coverage, 1.0);
        // Rate ≈ 2^32 / 43200 s ≈ 99,400 pps.
        assert!(
            (est.rate_pps / 99_421.0 - 1.0).abs() < 0.01,
            "{}",
            est.rate_pps
        );
        // Gigabit check: ~99.4k pps × 64 B × 8 ≈ 50.9 Mbps.
        assert!((est.rate_bps / 50.9e6 - 1.0).abs() < 0.05);
    }

    #[test]
    fn small_scan_extrapolates_linearly() {
        let model = TelescopeModel::new(65_536);
        // 655 distinct dests = 1% of the telescope ≈ 1% of IPv4 ±.
        let c = campaign(655, 655, 3600);
        let est = c.estimates(&model);
        assert!(
            (est.ipv4_coverage - 0.01).abs() < 0.001,
            "{}",
            est.ipv4_coverage
        );
        assert!(est.targeted_addresses > 4.2e7 && est.targeted_addresses < 4.4e7);
    }

    #[test]
    fn zero_duration_burst_gets_a_rate() {
        let model = TelescopeModel::new(65_536);
        let c = campaign(100, 100, 0);
        let est = c.estimates(&model);
        assert!(est.rate_pps > 0.0);
        assert!(est.rate_pps.is_finite());
    }

    #[test]
    fn faster_scan_estimates_higher_rate() {
        let model = TelescopeModel::new(65_536);
        let slow = campaign(1000, 1000, 10_000).estimates(&model);
        let fast = campaign(1000, 1000, 100).estimates(&model);
        assert!(fast.rate_pps > 50.0 * slow.rate_pps);
    }
}
