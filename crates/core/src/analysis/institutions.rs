//! Figures 8–10: port coverage of known scanning organizations.
//!
//! For every known org (Censys, Shodan, Palo Alto, Onyphe, Shadowserver,
//! Rapid7, universities, ...), the number of distinct ports its sources
//! scanned in the capture window. The paper finds Censys and Palo Alto at
//! the full 65,536-port range by 2024, Onyphe jumping from under half to
//! full between 2023 and 2024, and universities flat at a handful of ports.

use std::collections::{BTreeMap, HashSet};
use synscan_wire::impl_to_json;

use synscan_netmodel::InternetRegistry;

use crate::campaign::Campaign;

/// One row of Figure 8/9/10.
#[derive(Debug, Clone)]
pub struct OrgCoverageRow {
    /// Organization name.
    pub org: String,
    /// Distinct ports scanned in the window.
    pub ports_scanned: u32,
    /// Fraction of the 65,536-port TCP range.
    pub port_range_fraction: f64,
    /// Campaigns attributed to the org's sources.
    pub campaigns: u64,
    /// Distinct source IPs of the org seen scanning.
    pub sources: u64,
}
impl_to_json!(OrgCoverageRow {
    org,
    ports_scanned,
    port_range_fraction,
    campaigns,
    sources
});

/// Compute per-org port coverage from a year's campaigns.
pub fn org_port_coverage(
    campaigns: &[Campaign],
    registry: &InternetRegistry,
) -> Vec<OrgCoverageRow> {
    #[derive(Default)]
    struct Acc {
        ports: HashSet<u16>,
        campaigns: u64,
        sources: HashSet<u32>,
    }
    let mut per_org: BTreeMap<u16, Acc> = BTreeMap::new();
    for campaign in campaigns {
        if let Some(org) = registry.known_org(campaign.src_ip) {
            let acc = per_org.entry(org.id.0).or_default();
            acc.ports.extend(campaign.port_packets.keys().copied());
            acc.campaigns += 1;
            acc.sources.insert(campaign.src_ip.0);
        }
    }
    let mut rows: Vec<OrgCoverageRow> = per_org
        .into_iter()
        .map(|(org_idx, acc)| {
            let org = &registry.orgs()[org_idx as usize];
            OrgCoverageRow {
                org: org.name.to_string(),
                ports_scanned: acc.ports.len() as u32,
                port_range_fraction: acc.ports.len() as f64 / 65_536.0,
                campaigns: acc.campaigns,
                sources: acc.sources.len() as u64,
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.ports_scanned
            .cmp(&a.ports_scanned)
            .then(a.org.cmp(&b.org))
    });
    rows
}

/// Share of all packets sent by known orgs — the appendix's "0.36% of
/// sources, 51.31% of traffic" style headline. Returns
/// `(source_share, packet_share)`.
pub fn known_org_shares(
    campaigns: &[Campaign],
    registry: &InternetRegistry,
    total_sources: u64,
    total_packets: u64,
) -> (f64, f64) {
    let mut org_sources: HashSet<u32> = HashSet::new();
    let mut org_packets = 0u64;
    for campaign in campaigns {
        if registry.known_org(campaign.src_ip).is_some() {
            org_sources.insert(campaign.src_ip.0);
            org_packets += campaign.packets;
        }
    }
    (
        org_sources.len() as f64 / total_sources.max(1) as f64,
        org_packets as f64 / total_packets.max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap as Map;
    use synscan_wire::Ipv4Address;

    fn campaign(src: Ipv4Address, ports: &[u16]) -> Campaign {
        Campaign {
            src_ip: src,
            first_ts_micros: 0,
            last_ts_micros: 1_000_000,
            packets: ports.len() as u64 * 10,
            distinct_dests: 100,
            port_packets: ports.iter().map(|&p| (p, 10u64)).collect(),
            tool_votes: Map::new(),
        }
    }

    #[test]
    fn coverage_counts_distinct_ports_across_campaigns() {
        let registry = InternetRegistry::build(41, &[]);
        let org = &registry.orgs()[0];
        let src0 = registry.org_source_ip(org.id, 0);
        let src1 = registry.org_source_ip(org.id, 1);
        let campaigns = vec![
            campaign(src0, &[80, 443, 22]),
            campaign(src1, &[443, 8080]),
            // A non-org campaign is ignored.
            campaign(Ipv4Address::new(5, 5, 5, 5), &[80]),
        ];
        let rows = org_port_coverage(&campaigns, &registry);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].org, org.name);
        assert_eq!(rows[0].ports_scanned, 4); // {80, 443, 22, 8080}
        assert_eq!(rows[0].campaigns, 2);
        assert_eq!(rows[0].sources, 2);
    }

    #[test]
    fn shares_are_relative_to_totals() {
        let registry = InternetRegistry::build(42, &[]);
        let org = &registry.orgs()[1];
        let src = registry.org_source_ip(org.id, 0);
        let campaigns = vec![campaign(src, &[80])]; // 10 packets
        let (src_share, pkt_share) = known_org_shares(&campaigns, &registry, 100, 40);
        assert!((src_share - 0.01).abs() < 1e-9);
        assert!((pkt_share - 0.25).abs() < 1e-9);
    }

    #[test]
    fn rows_sort_by_coverage() {
        let registry = InternetRegistry::build(43, &[]);
        let a = &registry.orgs()[0];
        let b = &registry.orgs()[1];
        let campaigns = vec![
            campaign(registry.org_source_ip(a.id, 0), &[80]),
            campaign(registry.org_source_ip(b.id, 0), &[80, 443, 22]),
        ];
        let rows = org_port_coverage(&campaigns, &registry);
        assert_eq!(rows[0].org, b.name);
        assert!(rows[0].ports_scanned > rows[1].ports_scanned);
    }
}
