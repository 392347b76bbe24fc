//! Table 2 and Figure 5: scanner types.
//!
//! Classifies every source into the institutional / hosting / enterprise /
//! residential / unknown label space and reports each class's share of
//! sources, campaigns, and packets (Table 2), plus the per-port class
//! distribution over the top targeted ports (Figure 5). The paper's headline:
//! institutional scanners are 0.16% of sources but send 32.63% of packets.

use std::collections::BTreeMap;
use synscan_wire::impl_to_json;

use synscan_netmodel::{InternetRegistry, ScannerClass};
use synscan_wire::Ipv4Address;

use super::collect::YearAnalysis;

/// One Table 2 row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassShares {
    /// Share of distinct source IPs.
    pub sources: f64,
    /// Share of campaigns.
    pub scans: f64,
    /// Share of packets.
    pub packets: f64,
}

/// The full Table 2: shares per scanner class.
pub fn class_shares(
    analysis: &YearAnalysis,
    registry: &InternetRegistry,
) -> BTreeMap<ScannerClass, ClassShares> {
    let mut source_counts: BTreeMap<ScannerClass, u64> = BTreeMap::new();
    let mut packet_counts: BTreeMap<ScannerClass, u64> = BTreeMap::new();
    for (&src, &packets) in &analysis.source_packets {
        let class = registry.class(Ipv4Address(src));
        *source_counts.entry(class).or_default() += 1;
        *packet_counts.entry(class).or_default() += packets;
    }
    let mut scan_counts: BTreeMap<ScannerClass, u64> = BTreeMap::new();
    for campaign in &analysis.campaigns {
        *scan_counts
            .entry(registry.class(campaign.src_ip))
            .or_default() += 1;
    }

    let total_sources = analysis.source_packets.len().max(1) as f64;
    let total_packets = analysis.total_packets.max(1) as f64;
    let total_scans = analysis.campaigns.len().max(1) as f64;

    ScannerClass::ALL
        .iter()
        .map(|&class| {
            (
                class,
                ClassShares {
                    sources: source_counts.get(&class).copied().unwrap_or(0) as f64 / total_sources,
                    scans: scan_counts.get(&class).copied().unwrap_or(0) as f64 / total_scans,
                    packets: packet_counts.get(&class).copied().unwrap_or(0) as f64 / total_packets,
                },
            )
        })
        .collect()
}

/// Per-port packets from *non-institutional* campaigns only — the §6.8
/// filtering step that keeps research scanners from dominating Internet
/// quantifications ("looking into the mirror").
pub fn non_institutional_port_packets(
    analysis: &YearAnalysis,
    registry: &InternetRegistry,
) -> BTreeMap<u16, u64> {
    let mut map: BTreeMap<u16, u64> = BTreeMap::new();
    for campaign in &analysis.campaigns {
        if registry.class(campaign.src_ip) == ScannerClass::Institutional {
            continue;
        }
        for (&port, &packets) in &campaign.port_packets {
            *map.entry(port).or_default() += packets;
        }
    }
    map
}

/// One Figure 5 row: a port and the class mix of its campaigns' traffic.
#[derive(Debug, Clone)]
pub struct PortClassRow {
    /// The port.
    pub port: u16,
    /// Share of this port's campaign packets per class.
    pub mix: BTreeMap<ScannerClass, f64>,
}
impl_to_json!(PortClassRow { port, mix });

/// Figure 5: class distribution over the `top_n` ports by campaign traffic.
///
/// Uses campaigns (scans) as the unit, attributing each campaign's per-port
/// packets to its source's class.
pub fn class_mix_by_port(
    analysis: &YearAnalysis,
    registry: &InternetRegistry,
    top_n: usize,
) -> Vec<PortClassRow> {
    // port -> class -> packets (from campaigns only, as the figure does).
    let mut port_class: BTreeMap<u16, BTreeMap<ScannerClass, u64>> = BTreeMap::new();
    for campaign in &analysis.campaigns {
        let class = registry.class(campaign.src_ip);
        for (&port, &packets) in &campaign.port_packets {
            *port_class
                .entry(port)
                .or_default()
                .entry(class)
                .or_default() += packets;
        }
    }
    let mut ranked: Vec<(u16, u64)> = port_class
        .iter()
        .map(|(port, classes)| (*port, classes.values().sum()))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(top_n);

    ranked
        .into_iter()
        .map(|(port, total)| {
            let mix = port_class[&port]
                .iter()
                .map(|(class, packets)| (*class, *packets as f64 / total.max(1) as f64))
                .collect();
            PortClassRow { port, mix }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::collect::YearCollector;
    use crate::campaign::CampaignConfig;
    use synscan_netmodel::Country;
    use synscan_stats::Rng;
    use synscan_wire::{ProbeRecord, TcpFlags};

    fn record(src: Ipv4Address, dst: u32, port: u16, ts: u64) -> ProbeRecord {
        ProbeRecord {
            ts_micros: ts,
            src_ip: src,
            dst_ip: Ipv4Address(dst),
            src_port: 1,
            dst_port: port,
            seq: 9,
            ip_id: 2,
            ttl: 64,
            flags: TcpFlags::SYN,
            window: 64,
        }
    }

    #[test]
    fn shares_reflect_class_activity() {
        let registry = InternetRegistry::build(21, &[]);
        let mut rng = Rng::seed_from_u64(2);
        let residential = registry
            .sample_source(&mut rng, Country::China, ScannerClass::Residential)
            .unwrap();
        let institutional = registry.org_source_ip(registry.orgs()[0].id, 0);

        let mut collector = YearCollector::new(
            2022,
            CampaignConfig {
                min_distinct_dests: 5,
                min_rate_pps: 1.0,
                expiry_secs: 3600.0,
                monitored_addresses: 1 << 16,
            },
        );
        // The residential bot sends 10 packets; the institutional scanner 90.
        for i in 0..10u32 {
            collector.offer(&record(residential, 100 + i, 23, (i as u64) * 1000));
        }
        for i in 0..90u32 {
            collector.offer(&record(institutional, 200 + i, 443, (i as u64) * 1000 + 5));
        }
        let analysis = collector.finish();
        let shares = class_shares(&analysis, &registry);

        let inst = shares[&ScannerClass::Institutional];
        let res = shares[&ScannerClass::Residential];
        assert!((inst.sources - 0.5).abs() < 1e-9);
        assert!((inst.packets - 0.9).abs() < 1e-9);
        assert!((res.packets - 0.1).abs() < 1e-9);
        // Both produced one campaign each.
        assert!((inst.scans - 0.5).abs() < 1e-9);

        // Figure 5: port 443 fully institutional, port 23 fully residential.
        let rows = class_mix_by_port(&analysis, &registry, 5);
        let https = rows.iter().find(|r| r.port == 443).unwrap();
        assert!((https.mix[&ScannerClass::Institutional] - 1.0).abs() < 1e-9);
        let telnet = rows.iter().find(|r| r.port == 23).unwrap();
        assert!((telnet.mix[&ScannerClass::Residential] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn non_institutional_filter_removes_org_traffic() {
        let registry = InternetRegistry::build(23, &[]);
        let inst = registry.org_source_ip(registry.orgs()[0].id, 0);
        let mut rng = Rng::seed_from_u64(7);
        let bot = registry
            .sample_source(&mut rng, Country::Brazil, ScannerClass::Residential)
            .unwrap();
        let mut collector = YearCollector::new(
            2024,
            CampaignConfig {
                min_distinct_dests: 5,
                min_rate_pps: 1.0,
                expiry_secs: 3600.0,
                monitored_addresses: 1 << 16,
            },
        );
        for i in 0..50u32 {
            collector.offer(&record(inst, 100 + i, 443, (i as u64) * 1000));
        }
        for i in 0..10u32 {
            collector.offer(&record(bot, 300 + i, 23, (i as u64) * 1000 + 5));
        }
        let analysis = collector.finish();
        let filtered = non_institutional_port_packets(&analysis, &registry);
        assert!(!filtered.contains_key(&443), "org HTTPS traffic removed");
        assert_eq!(filtered.get(&23), Some(&10));
    }

    #[test]
    fn shares_sum_to_one() {
        let registry = InternetRegistry::build(22, &[]);
        let mut rng = Rng::seed_from_u64(3);
        let mut collector = YearCollector::new(2022, CampaignConfig::scaled(1 << 12));
        for class in ScannerClass::ALL {
            if class == ScannerClass::Unknown {
                continue;
            }
            if let Some(src) = registry.sample_source_any(&mut rng, class) {
                for i in 0..5u32 {
                    collector.offer(&record(src, 100 + i, 80, (i as u64) * 1000));
                }
            }
        }
        let analysis = collector.finish();
        let shares = class_shares(&analysis, &registry);
        let total_sources: f64 = shares.values().map(|s| s.sources).sum();
        let total_packets: f64 = shares.values().map(|s| s.packets).sum();
        assert!((total_sources - 1.0).abs() < 1e-9);
        assert!((total_packets - 1.0).abs() < 1e-9);
    }
}
