//! Table 1: per-year scan volume, top targeted ports, and tool shares.

use std::collections::BTreeMap;

use synscan_scanners::traits::ToolKind;
use synscan_wire::impl_to_json;

use super::collect::YearAnalysis;

/// One "top ports" ranking: `(port, share)` pairs, descending by share.
pub(crate) type PortRanking = Vec<(u16, f64)>;

/// One Table 1 column.
#[derive(Debug, Clone, PartialEq)]
pub struct YearSummary {
    /// Calendar year.
    pub year: u16,
    /// Average admitted packets per day.
    pub packets_per_day: f64,
    /// Distinct scanning sources over the window.
    pub distinct_sources: u64,
    /// Campaigns per 30-day month.
    pub scans_per_month: f64,
    /// Total campaigns in the window.
    pub total_scans: u64,
    /// Top ports by packets: `(port, share of packets)`.
    pub top_ports_by_packets: PortRanking,
    /// Top ports by distinct sources: `(port, share of sources)`.
    pub top_ports_by_sources: PortRanking,
    /// Top ports by campaigns: `(port, share of campaigns)`.
    pub top_ports_by_scans: PortRanking,
    /// Share of campaigns per tracked tool (the Table 1 "Tools by scans").
    pub tool_scan_shares: BTreeMap<String, f64>,
    /// Share of packets per tracked tool.
    pub tool_packet_shares: BTreeMap<String, f64>,
}
impl_to_json!(YearSummary {
    year,
    packets_per_day,
    distinct_sources,
    scans_per_month,
    total_scans,
    top_ports_by_packets,
    top_ports_by_sources,
    top_ports_by_scans,
    tool_scan_shares,
    tool_packet_shares,
});

/// Build a Table 1 column from a year's aggregates.
///
/// `top_n` controls ranking depth (the paper prints 5).
pub fn summarize(analysis: &YearAnalysis, top_n: usize) -> YearSummary {
    let total_packets = analysis.total_packets.max(1) as f64;

    let top_ports_by_packets = rank(
        analysis.port_packets.iter().map(|(p, c)| (*p, *c as f64)),
        total_packets,
        top_n,
    );
    let top_ports_by_sources = rank(
        analysis.port_sources.iter().map(|(p, c)| (*p, *c as f64)),
        analysis.distinct_sources.max(1) as f64,
        top_n,
    );

    // Campaigns are attributed to their dominant port (most packets); the
    // year's index tallied them, and the tool counts, when the campaign list
    // became final.
    let index = analysis.index();
    let total_scans = analysis.campaigns.len() as u64;
    let top_ports_by_scans = rank(
        index.scan_ports().iter().map(|&(p, c)| (p, c as f64)),
        total_scans.max(1) as f64,
        top_n,
    );

    let tool_scan_shares = ToolKind::ALL
        .iter()
        .map(|tool| {
            (
                tool.name().to_string(),
                index.tool_scans(*tool) as f64 / total_scans.max(1) as f64,
            )
        })
        .collect();

    // Integer packets per tool, divided once: a share is one rounding of an
    // exact total, whichever way the year was assembled.
    let tool_packet_shares = index
        .tool_packets()
        .iter()
        .map(|(name, &packets)| (name.to_string(), packets as f64 / total_packets))
        .collect();

    YearSummary {
        year: analysis.year,
        packets_per_day: analysis.packets_per_day(),
        distinct_sources: analysis.distinct_sources,
        scans_per_month: analysis.scans_per_month(),
        total_scans,
        top_ports_by_packets,
        top_ports_by_sources,
        top_ports_by_scans,
        tool_scan_shares,
        tool_packet_shares,
    }
}

/// The `top_n` largest shares, descending, ties by ascending port. Ports are
/// distinct, so the order is total: selecting the head and sorting only it
/// gives what sorting everything and truncating would.
fn rank(counts: impl Iterator<Item = (u16, f64)>, total: f64, top_n: usize) -> PortRanking {
    let by_share = |a: &(u16, f64), b: &(u16, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    let mut entries: Vec<(u16, f64)> = counts.map(|(p, c)| (p, c / total)).collect();
    if top_n < entries.len() {
        entries.select_nth_unstable_by(top_n, by_share);
        entries.truncate(top_n);
    }
    entries.sort_unstable_by(by_share);
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::collect::YearCollector;
    use crate::campaign::CampaignConfig;
    use synscan_wire::{Ipv4Address, ProbeRecord, TcpFlags};

    fn record(src: u32, dst: u32, port: u16, ts: u64) -> ProbeRecord {
        ProbeRecord {
            ts_micros: ts,
            src_ip: Ipv4Address(src),
            dst_ip: Ipv4Address(dst),
            src_port: 999,
            dst_port: port,
            seq: 1,
            ip_id: 3,
            ttl: 61,
            flags: TcpFlags::SYN,
            window: 512,
        }
    }

    fn analysis() -> YearAnalysis {
        let cfg = CampaignConfig {
            min_distinct_dests: 5,
            min_rate_pps: 1.0,
            expiry_secs: 3600.0,
            monitored_addresses: 1 << 16,
        };
        let mut collector = YearCollector::new(2020, cfg);
        // 30 packets on 80 from src 1; 10 on 22 from src 2; 10 on 443 from src 3.
        for i in 0..30u32 {
            collector.offer(&record(1, 100 + i, 80, (i as u64) * 1000));
        }
        for i in 0..10u32 {
            collector.offer(&record(2, 200 + i, 22, (i as u64) * 1000 + 1));
        }
        for i in 0..10u32 {
            collector.offer(&record(3, 300 + i, 443, (i as u64) * 1000 + 2));
        }
        collector.finish()
    }

    #[test]
    fn top_ports_by_packets_are_ranked() {
        let summary = summarize(&analysis(), 3);
        assert_eq!(summary.top_ports_by_packets[0].0, 80);
        assert!((summary.top_ports_by_packets[0].1 - 0.6).abs() < 1e-9);
        assert_eq!(summary.top_ports_by_packets.len(), 3);
    }

    #[test]
    fn top_ports_by_sources_normalizes_by_sources() {
        let summary = summarize(&analysis(), 5);
        // Each port contacted by exactly one of 3 sources: share 1/3.
        for (_, share) in &summary.top_ports_by_sources {
            assert!((share - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn scans_attributed_to_dominant_port() {
        let summary = summarize(&analysis(), 5);
        assert_eq!(summary.total_scans, 3);
        let scan_ports: Vec<u16> = summary.top_ports_by_scans.iter().map(|(p, _)| *p).collect();
        assert!(scan_ports.contains(&80));
        assert!(scan_ports.contains(&22));
        assert!(scan_ports.contains(&443));
    }

    #[test]
    fn tool_shares_default_to_zero_without_fingerprints() {
        let summary = summarize(&analysis(), 5);
        assert_eq!(summary.tool_scan_shares["zmap"], 0.0);
        assert_eq!(summary.tool_scan_shares["masscan"], 0.0);
        // All packets fall under the custom/unattributed bucket.
        assert!((summary.tool_packet_shares["custom"] - 1.0).abs() < 1e-9);
    }

    /// Tool-marked traffic over many ports: ZMap's IP ID on every fifth
    /// probe, counts that differ per (tool, port) so a float sum over them
    /// depends on the order.
    fn marked_records() -> Vec<ProbeRecord> {
        (0..6000u32)
            .map(|i| ProbeRecord {
                ip_id: if i % 5 == 0 { 54_321 } else { 7 },
                dst_port: 1 + (i % if i % 3 == 0 { 97 } else { 13 }) as u16,
                ..record(1 + i % 23, 0x0b00_0000 + i, 0, u64::from(i) * 997)
            })
            .collect()
    }

    #[test]
    fn summary_is_bit_equal_across_pipeline_modes() {
        use crate::pipeline::{try_collect_year_stream, PipelineMode, SizeHints};
        use synscan_wire::stream::{FaultPolicy, SliceStream};
        let cfg = CampaignConfig {
            min_distinct_dests: 5,
            min_rate_pps: 1.0,
            expiry_secs: 3600.0,
            monitored_addresses: 1 << 16,
        };
        let records = marked_records();
        let run = |workers| {
            try_collect_year_stream(
                2020,
                cfg,
                7.0,
                PipelineMode::Sharded { workers },
                SizeHints::default(),
                FaultPolicy::Fail,
                &mut SliceStream::new(&records),
                |_| true,
            )
            .expect("a clean ordered slice cannot fault")
            .analysis
        };
        let sequential = run(1);
        assert!(sequential.tool_port_packets.len() > 100);
        let expected = summarize(&sequential, 5);
        assert!(expected.tool_packet_shares["zmap"] > 0.1);

        for other in [run(2), run(3)] {
            let got = summarize(&other, 5);
            assert_eq!(got, expected);
            for (tool, share) in &expected.tool_packet_shares {
                assert_eq!(got.tool_packet_shares[tool].to_bits(), share.to_bits());
            }
        }
    }
}
