//! Figure 4: the top traffic ports and the mix of tools probing them.

use std::collections::BTreeMap;
use synscan_wire::impl_to_json;

use synscan_scanners::traits::ToolKind;

use super::collect::YearAnalysis;

/// The tool mix on one port: shares of the port's packets per tool, plus the
/// unattributed remainder under `"custom"`.
pub type ToolMix = BTreeMap<String, f64>;

/// One row of Figure 4: a port, its share of total traffic, and the mix of
/// tools the traffic originates from.
#[derive(Debug, Clone)]
pub struct PortToolRow {
    /// The port.
    pub port: u16,
    /// Share of the year's packets on this port.
    pub traffic_share: f64,
    /// Per-tool share of this port's packets.
    pub mix: ToolMix,
}
impl_to_json!(PortToolRow {
    port,
    traffic_share,
    mix
});

/// Compute the Figure 4 matrix: the `top_n` ports by packets with the tool
/// mix of each.
pub fn tool_mix_by_port(analysis: &YearAnalysis, top_n: usize) -> Vec<PortToolRow> {
    let total = analysis.total_packets.max(1) as f64;
    let mut ports: Vec<(u16, u64)> = analysis
        .port_packets
        .iter()
        .map(|(p, c)| (*p, *c))
        .collect();
    ports.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ports.truncate(top_n);

    ports
        .into_iter()
        .map(|(port, count)| {
            let mut mix: ToolMix = BTreeMap::new();
            for tool in ToolKind::ALL {
                let packets = analysis
                    .tool_port_packets
                    .get(&(Some(tool), port))
                    .copied()
                    .unwrap_or(0);
                if tool == ToolKind::Custom {
                    continue;
                }
                mix.insert(
                    tool.name().to_string(),
                    packets as f64 / count.max(1) as f64,
                );
            }
            let unattributed = analysis
                .tool_port_packets
                .get(&(None, port))
                .copied()
                .unwrap_or(0)
                + analysis
                    .tool_port_packets
                    .get(&(Some(ToolKind::Custom), port))
                    .copied()
                    .unwrap_or(0);
            mix.insert(
                "custom".to_string(),
                unattributed as f64 / count.max(1) as f64,
            );
            PortToolRow {
                port,
                traffic_share: count as f64 / total,
                mix,
            }
        })
        .collect()
}

/// Share of *all* packets attributable to the tracked tools (the §6.1
/// "tracked tools generate X% of scanning traffic" series: 25% in 2015,
/// 92% in 2020, 95% in 2022, under 40% in 2024).
pub fn tracked_tool_traffic_share(analysis: &YearAnalysis) -> f64 {
    let total = analysis.total_packets.max(1) as f64;
    let tracked: u64 = analysis
        .tool_port_packets
        .iter()
        .filter(|((tool, _), _)| matches!(tool, Some(t) if *t != ToolKind::Custom))
        .map(|(_, c)| *c)
        .sum();
    tracked as f64 / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::collect::YearCollector;
    use crate::campaign::CampaignConfig;
    use synscan_scanners::traits::craft_record;
    use synscan_scanners::zmap::ZmapScanner;
    use synscan_wire::{Ipv4Address, ProbeRecord, TcpFlags};

    fn analysis() -> YearAnalysis {
        let mut collector = YearCollector::new(2020, CampaignConfig::scaled(1 << 10));
        let z = ZmapScanner::new(1);
        // 10 ZMap packets on 443.
        for i in 0..10u64 {
            collector.offer(&craft_record(
                &z,
                Ipv4Address(0x0505_0101),
                Ipv4Address(0x0600_0000 + i as u32),
                443,
                i,
                i * 1000,
                5,
            ));
        }
        // 30 plain packets on 80.
        for i in 0..30u64 {
            collector.offer(&ProbeRecord {
                ts_micros: i * 1000 + 7,
                src_ip: Ipv4Address(0x0707_0101),
                dst_ip: Ipv4Address(0x0800_0000 + i as u32),
                src_port: 2,
                dst_port: 80,
                seq: 5,
                ip_id: 9,
                ttl: 60,
                flags: TcpFlags::SYN,
                window: 3,
            });
        }
        collector.finish()
    }

    #[test]
    fn rows_are_ranked_by_traffic() {
        let rows = tool_mix_by_port(&analysis(), 10);
        assert_eq!(rows[0].port, 80);
        assert_eq!(rows[1].port, 443);
        assert!((rows[0].traffic_share - 0.75).abs() < 1e-9);
    }

    #[test]
    fn mixes_attribute_tools_per_port() {
        let rows = tool_mix_by_port(&analysis(), 10);
        let https = rows.iter().find(|r| r.port == 443).unwrap();
        assert!((https.mix["zmap"] - 1.0).abs() < 1e-9);
        assert_eq!(https.mix["custom"], 0.0);
        let http = rows.iter().find(|r| r.port == 80).unwrap();
        assert_eq!(http.mix["zmap"], 0.0);
        assert!((http.mix["custom"] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mixes_sum_to_one() {
        for row in tool_mix_by_port(&analysis(), 10) {
            let total: f64 = row.mix.values().sum();
            assert!((total - 1.0).abs() < 1e-9, "port {}: {total}", row.port);
        }
    }

    #[test]
    fn tracked_share_counts_only_fingerprinted_traffic() {
        // 10 of 40 packets are ZMap.
        assert!((tracked_tool_traffic_share(&analysis()) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn top_n_truncates() {
        assert_eq!(tool_mix_by_port(&analysis(), 1).len(), 1);
    }
}
