//! §5.2: vertical scans — campaigns targeting many ports.
//!
//! Reproduced claims: the count of campaigns targeting > 10,000 ports grows
//! from 1 (2015) to 2,134 (2020); > 100-port scans stay under 0.5% of all
//! campaigns; > 1,000-port scans average ~0.3 Gbps versus an overall average
//! of ~14 Mbps.

use synscan_stats::TelescopeModel;
use synscan_wire::impl_to_json;

use crate::campaign::Campaign;

/// Vertical-scan statistics for one year.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerticalStats {
    /// Campaigns targeting more than 100 distinct ports.
    pub over_100_ports: u64,
    /// Campaigns targeting more than 1,000 distinct ports.
    pub over_1000_ports: u64,
    /// Campaigns targeting more than 10,000 distinct ports.
    pub over_10000_ports: u64,
    /// Largest number of distinct ports in any single campaign.
    pub max_ports: u32,
    /// Fraction of campaigns targeting more than 100 ports.
    pub over_100_fraction: f64,
    /// Mean estimated bandwidth (bps) of the > 1,000-port campaigns.
    pub over_1000_mean_bps: f64,
    /// Mean estimated bandwidth (bps) over all campaigns.
    pub overall_mean_bps: f64,
}
impl_to_json!(VerticalStats {
    over_100_ports,
    over_1000_ports,
    over_10000_ports,
    max_ports,
    over_100_fraction,
    over_1000_mean_bps,
    overall_mean_bps,
});

/// Compute vertical-scan statistics.
pub fn vertical_stats(campaigns: &[Campaign], monitored: u64) -> VerticalStats {
    let model = TelescopeModel::new(monitored);
    let mut over_100 = 0u64;
    let mut over_1000 = 0u64;
    let mut over_10000 = 0u64;
    let mut max_ports = 0u32;
    let mut big_bps_sum = 0.0;
    let mut all_bps_sum = 0.0;
    for campaign in campaigns {
        let ports = campaign.distinct_ports() as u32;
        max_ports = max_ports.max(ports);
        let bps = campaign.estimates(&model).rate_bps;
        all_bps_sum += bps;
        if ports > 100 {
            over_100 += 1;
        }
        if ports > 1000 {
            over_1000 += 1;
            big_bps_sum += bps;
        }
        if ports > 10_000 {
            over_10000 += 1;
        }
    }
    let n = campaigns.len().max(1) as f64;
    VerticalStats {
        over_100_ports: over_100,
        over_1000_ports: over_1000,
        over_10000_ports: over_10000,
        max_ports,
        over_100_fraction: over_100 as f64 / n,
        over_1000_mean_bps: if over_1000 > 0 {
            big_bps_sum / over_1000 as f64
        } else {
            0.0
        },
        overall_mean_bps: all_bps_sum / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use synscan_wire::Ipv4Address;

    fn campaign(src: u32, n_ports: u32, packets_per_port: u64, dur_secs: u64) -> Campaign {
        Campaign {
            src_ip: Ipv4Address(src),
            first_ts_micros: 0,
            last_ts_micros: dur_secs * 1_000_000,
            packets: n_ports as u64 * packets_per_port,
            distinct_dests: 500,
            port_packets: (0..n_ports).map(|p| (p as u16, packets_per_port)).collect(),
            tool_votes: BTreeMap::new(),
        }
    }

    #[test]
    fn thresholds_count_correctly() {
        let campaigns = vec![
            campaign(1, 1, 100, 100),
            campaign(2, 150, 10, 100),
            campaign(3, 2000, 5, 100),
            campaign(4, 20_000, 1, 100),
        ];
        let stats = vertical_stats(&campaigns, 1 << 16);
        assert_eq!(stats.over_100_ports, 3);
        assert_eq!(stats.over_1000_ports, 2);
        assert_eq!(stats.over_10000_ports, 1);
        assert_eq!(stats.max_ports, 20_000);
        assert!((stats.over_100_fraction - 0.75).abs() < 1e-9);
    }

    #[test]
    fn vertical_scans_are_faster_on_average() {
        // Horizontal: 100 packets over 1000 s. Vertical: 10,000 over 100 s.
        let campaigns = vec![campaign(1, 1, 100, 1000), campaign(2, 2000, 5, 100)];
        let stats = vertical_stats(&campaigns, 1 << 16);
        // The vertical scan (100 pps at the telescope) dominates the mean;
        // the overall mean is dragged down by the slow horizontal scan.
        assert!(stats.over_1000_mean_bps > stats.overall_mean_bps);
        assert!(
            stats.over_1000_mean_bps
                > 100.0 * (stats.overall_mean_bps * 2.0 - stats.over_1000_mean_bps)
        );
    }

    #[test]
    fn empty_input_is_safe() {
        let stats = vertical_stats(&[], 1 << 16);
        assert_eq!(stats.over_100_ports, 0);
        assert_eq!(stats.over_1000_mean_bps, 0.0);
        assert_eq!(stats.max_ports, 0);
    }

    #[test]
    fn full_port_range_campaign_is_counted() {
        // BTreeMap keys are u16: port 0..=65535. 65,536 distinct ports.
        let c = Campaign {
            src_ip: Ipv4Address(1),
            first_ts_micros: 0,
            last_ts_micros: 1_000_000,
            packets: 65_536,
            distinct_dests: 500,
            port_packets: (0..=65_535u16).map(|p| (p, 1u64)).collect(),
            tool_votes: BTreeMap::new(),
        };
        let stats = vertical_stats(&[c], 1 << 16);
        assert_eq!(stats.max_ports, 65_536);
        assert_eq!(stats.over_10000_ports, 1);
    }
}
