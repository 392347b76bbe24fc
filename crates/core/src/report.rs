//! Report assembly and rendering: turns analysis results into the tables the
//! paper prints and into JSON artifacts for EXPERIMENTS.md.
//!
//! Every renderer here is a **pure reader of store slices**: the inputs are
//! [`YearAnalysis`] values exactly as `core::store` persists and reloads
//! them, so batch runs (`repro`/`analyze`) and the resident `synscan-serve`
//! daemon produce byte-identical artifacts by construction — both call
//! these functions on the same decoded slices.

use std::fmt::Write as _;

use synscan_wire::{impl_to_json, Ipv4Address};

use crate::analysis::collect::YearAnalysis;
use crate::analysis::yearly::{summarize, YearSummary};
use crate::campaign::NoiseStats;

/// A multi-year (Table 1 style) report.
#[derive(Debug, Clone, Default)]
pub struct DecadeReport {
    /// One summary per simulated year, ascending.
    pub years: Vec<YearSummary>,
}
impl_to_json!(DecadeReport { years });

impl DecadeReport {
    /// Assemble the Table 1 report from per-year store slices (ascending),
    /// ranking `top_n` ports per dimension (the paper prints 5).
    pub fn from_years(years: &[YearAnalysis], top_n: usize) -> Self {
        Self {
            years: years.iter().map(|y| summarize(y, top_n)).collect(),
        }
    }

    /// Growth factor of packets/day between the first and last year —
    /// the paper's headline "30-fold over ten years".
    pub fn packets_per_day_growth(&self) -> Option<f64> {
        let first = self.years.first()?;
        let last = self.years.last()?;
        if first.packets_per_day <= 0.0 {
            return None;
        }
        Some(last.packets_per_day / first.packets_per_day)
    }

    /// Growth factor of campaigns/month between the first and last year
    /// (paper: ×39).
    pub fn scans_per_month_growth(&self) -> Option<f64> {
        let first = self.years.first()?;
        let last = self.years.last()?;
        if first.scans_per_month <= 0.0 {
            return None;
        }
        Some(last.scans_per_month / first.scans_per_month)
    }

    /// Render the Table 1 reproduction as fixed-width text.
    pub fn render_table1(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<6} {:>14} {:>12} {:>10}  {:<28} {:<28} {:<40}",
            "year",
            "packets/day",
            "scans/month",
            "sources",
            "top ports (packets)",
            "top ports (sources)",
            "tool shares by scans"
        );
        for year in &self.years {
            let fmt_ports = |ranking: &[(u16, f64)]| -> String {
                ranking
                    .iter()
                    .take(3)
                    .map(|(p, s)| format!("{p}({:.1}%)", s * 100.0))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            let tools = ["masscan", "nmap", "mirai", "zmap"]
                .iter()
                .map(|t| {
                    format!(
                        "{t}:{:.1}%",
                        year.tool_scan_shares.get(*t).copied().unwrap_or(0.0) * 100.0
                    )
                })
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                out,
                "{:<6} {:>14.0} {:>12.1} {:>10}  {:<28} {:<28} {:<40}",
                year.year,
                year.packets_per_day,
                year.scans_per_month,
                year.distinct_sources,
                fmt_ports(&year.top_ports_by_packets),
                fmt_ports(&year.top_ports_by_sources),
                tools
            );
        }
        out
    }
}

/// Render noise/rejection statistics as an aligned text block. Rejection
/// reasons are kept as enum keys on the hot path; this is the one place
/// they become strings, so the rendered names stay byte-identical to the
/// old per-rejection `format!("{reason:?}")` output.
pub fn render_noise(noise: &NoiseStats) -> String {
    let mut out = format!("# noise ({} rejected packets)\n", noise.rejected_packets);
    for (reason, count) in &noise.rejected_sequences {
        let _ = writeln!(out, "{:>24}  {count}", reason.as_str());
    }
    out
}

/// Render any `(label, value)` series as an aligned two-column text block —
/// the benches use this to print figure series.
pub fn render_series<L: std::fmt::Display, V: std::fmt::Display>(
    title: &str,
    rows: impl IntoIterator<Item = (L, V)>,
) -> String {
    let mut out = format!("# {title}\n");
    for (label, value) in rows {
        let _ = writeln!(out, "{label:>16}  {value}");
    }
    out
}

/// One year of a single source's activity, for [`source_history`].
/// Public only because the benchmark reads it through [`SourceHistory`].
#[derive(Debug, Clone, PartialEq)]
pub struct SourceYear {
    /// Calendar year.
    pub year: u16,
    /// Packets this source sent at the telescope that year.
    pub packets: u64,
    /// Distinct destination ports it probed.
    pub ports: u32,
    /// Campaigns attributed to it.
    pub campaigns: u64,
    /// Its share of the year's admitted packets.
    pub packet_share: f64,
}
impl_to_json!(SourceYear {
    year,
    packets,
    ports,
    campaigns,
    packet_share
});

/// A source's decade history — the per-source view the paper's
/// Greynoise-shaped consumer asks for.
/// Public only because the benchmark names it.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceHistory {
    /// Dotted-quad source address.
    pub source: String,
    /// Number of years the source was observed in.
    pub years_seen: usize,
    /// One row per year the source appeared, ascending.
    pub years: Vec<SourceYear>,
}
impl_to_json!(SourceHistory {
    source,
    years_seen,
    years
});

/// Per-source history across store slices: one row for every year the
/// source sent at least one admitted packet.
/// Public only because the benchmark names it.
pub fn source_history(years: &[YearAnalysis], source: Ipv4Address) -> SourceHistory {
    let mut rows = Vec::new();
    for analysis in years {
        // One binary search a year: both per-source columns list the same
        // sources, so the position found in one serves the other.
        let Some(at) = analysis.source_packets.position(&source.0) else {
            continue;
        };
        let packets = analysis.source_packets.as_slice()[at].1;
        rows.push(SourceYear {
            year: analysis.year,
            packets,
            ports: analysis
                .source_port_counts
                .get_near(at, &source.0)
                .copied()
                .unwrap_or(0),
            campaigns: analysis.campaigns_of(source).len() as u64,
            packet_share: packets as f64 / analysis.total_packets.max(1) as f64,
        });
    }
    SourceHistory {
        source: source.to_string(),
        years_seen: rows.len(),
        years: rows,
    }
}

/// One year of a single port's targeting, for [`port_trend`].
/// Public only because the benchmark reads it through [`PortTrend`].
#[derive(Debug, Clone, PartialEq)]
pub struct PortYear {
    /// Calendar year.
    pub year: u16,
    /// Packets aimed at the port that year.
    pub packets: u64,
    /// Distinct sources that probed it.
    pub sources: u64,
    /// Its share of the year's admitted packets.
    pub packet_share: f64,
    /// Its share of the year's distinct sources.
    pub source_share: f64,
}
impl_to_json!(PortYear {
    year,
    packets,
    sources,
    packet_share,
    source_share
});

/// A port's yearly targeting trend across the decade.
/// Public only because the benchmark names it.
#[derive(Debug, Clone, PartialEq)]
pub struct PortTrend {
    /// The destination port.
    pub port: u16,
    /// One row per store year (zero rows included, so trends keep their
    /// time axis), ascending.
    pub years: Vec<PortYear>,
}
impl_to_json!(PortTrend { port, years });

/// Per-port yearly trend across store slices.
/// Public only because the benchmark names it.
pub fn port_trend(years: &[YearAnalysis], port: u16) -> PortTrend {
    let rows = years
        .iter()
        .map(|analysis| {
            let packets = analysis.port_packets.get(&port).copied().unwrap_or(0);
            let sources = analysis.port_sources.get(&port).copied().unwrap_or(0);
            PortYear {
                year: analysis.year,
                packets,
                sources,
                packet_share: packets as f64 / analysis.total_packets.max(1) as f64,
                source_share: sources as f64 / analysis.distinct_sources.max(1) as f64,
            }
        })
        .collect();
    PortTrend { port, years: rows }
}

/// One campaign attributed to a looked-up source, for [`campaign_lookup`].
/// Public only because the benchmark reads it through [`CampaignLookup`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignHit {
    /// Calendar year the campaign ran in.
    pub year: u16,
    /// First probe timestamp (µs).
    pub first_ts_micros: u64,
    /// Last probe timestamp (µs).
    pub last_ts_micros: u64,
    /// Probes received at the telescope.
    pub packets: u64,
    /// Distinct telescope destinations hit.
    pub distinct_dests: u64,
    /// Distinct destination ports.
    pub ports: usize,
    /// Majority-vote tool attribution, if any tracked tool matched.
    pub tool: Option<String>,
}
impl_to_json!(CampaignHit {
    year,
    first_ts_micros,
    last_ts_micros,
    packets,
    distinct_dests,
    ports,
    tool
});

/// Every campaign a source ran across the decade.
/// Public only because the benchmark names it.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignLookup {
    /// Dotted-quad source address.
    pub source: String,
    /// Total campaigns across all years.
    pub total: usize,
    /// Campaign rows in (year, start time) order.
    pub campaigns: Vec<CampaignHit>,
}
impl_to_json!(CampaignLookup {
    source,
    total,
    campaigns
});

/// Campaign lookup across store slices: all campaigns attributed to
/// `source`, in (year, start time) order.
/// Public only because the benchmark names it.
pub fn campaign_lookup(years: &[YearAnalysis], source: Ipv4Address) -> CampaignLookup {
    let mut hits = Vec::new();
    for analysis in years {
        for campaign in analysis.campaigns_of(source) {
            hits.push(CampaignHit {
                year: analysis.year,
                first_ts_micros: campaign.first_ts_micros,
                last_ts_micros: campaign.last_ts_micros,
                packets: campaign.packets,
                distinct_dests: campaign.distinct_dests,
                ports: campaign.distinct_ports(),
                tool: campaign.tool().map(|t| t.name().to_string()),
            });
        }
    }
    CampaignLookup {
        source: source.to_string(),
        total: hits.len(),
        campaigns: hits,
    }
}

/// Derive one year's "network impact" section from its heavy-hitter sketch
/// state, or `None` when the run did not enable `--heavy-hitters`.
///
/// Shared by the serve `heavy` op and the batch `repro`/`analyze` renderers
/// so both produce byte-identical artifacts: the rate window is the year's
/// observation window, and the percentile population is the year's distinct
/// source list (sorted internally for determinism).
pub fn network_impact_of(analysis: &YearAnalysis) -> Option<crate::sketch::NetworkImpact> {
    let heavy = analysis.heavy.as_ref()?;
    let window_secs = analysis.end_micros.saturating_sub(analysis.start_micros) as f64 / 1e6;
    let sources: Vec<u32> = analysis.source_packets.keys().copied().collect();
    Some(heavy.network_impact(analysis.year, window_secs, &sources))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use synscan_wire::json::{ToJson, Value};

    fn summary(year: u16, ppd: f64, spm: f64) -> YearSummary {
        YearSummary {
            year,
            packets_per_day: ppd,
            distinct_sources: 100,
            scans_per_month: spm,
            total_scans: 10,
            top_ports_by_packets: vec![(22, 0.15), (8080, 0.087)],
            top_ports_by_sources: vec![(80, 0.33)],
            top_ports_by_scans: vec![(3389, 0.23)],
            tool_scan_shares: BTreeMap::from([
                ("masscan".into(), 0.005),
                ("nmap".into(), 0.317),
                ("mirai".into(), 0.0),
                ("zmap".into(), 0.021),
            ]),
            tool_packet_shares: BTreeMap::new(),
        }
    }

    #[test]
    fn growth_factors() {
        let report = DecadeReport {
            years: vec![summary(2015, 11e6, 33_000.0), summary(2024, 345e6, 1.3e6)],
        };
        let growth = report.packets_per_day_growth().unwrap();
        assert!((growth - 31.36).abs() < 0.1);
        let scans = report.scans_per_month_growth().unwrap();
        assert!((scans - 39.4).abs() < 0.1);
    }

    #[test]
    fn empty_report_has_no_growth() {
        assert!(DecadeReport::default().packets_per_day_growth().is_none());
    }

    #[test]
    fn noise_rendering_uses_debug_names() {
        use crate::campaign::RejectReason;
        let noise = NoiseStats {
            rejected_sequences: BTreeMap::from([
                (RejectReason::TooFewDestinations, 7),
                (RejectReason::TooSlow, 2),
            ]),
            rejected_packets: 41,
        };
        let text = render_noise(&noise);
        assert!(text.starts_with("# noise (41 rejected packets)\n"));
        assert!(text.contains("TooFewDestinations  7"));
        assert!(text.contains("TooSlow  2"));
    }

    #[test]
    fn table_renders_every_year() {
        let report = DecadeReport {
            years: vec![summary(2015, 11e6, 33_000.0), summary(2016, 19e6, 38_000.0)],
        };
        let table = report.render_table1();
        assert!(table.contains("2015"));
        assert!(table.contains("2016"));
        assert!(table.contains("22(15.0%)"));
        assert!(table.contains("nmap:31.7%"));
    }

    #[test]
    fn json_round_trips_structurally() {
        let report = DecadeReport {
            years: vec![summary(2020, 283e6, 222_000.0)],
        };
        let json = report.to_json().to_string_pretty();
        let value = synscan_wire::json::parse(&json).unwrap();
        let Some(Value::Array(years)) = value.get("years") else {
            panic!("no years array in {json}")
        };
        assert_eq!(years[0].get("year").and_then(Value::as_u64), Some(2020));
    }

    #[test]
    fn series_rendering() {
        let text = render_series("cdf", vec![(1, 0.5), (2, 1.0)]);
        assert!(text.starts_with("# cdf"));
        assert!(text.contains("1  0.5"));
    }

    fn collected_year(year: u16, src: u32, port: u16, packets: u32) -> YearAnalysis {
        use crate::analysis::collect::YearCollector;
        use crate::campaign::CampaignConfig;
        use synscan_wire::{ProbeRecord, TcpFlags};
        let cfg = CampaignConfig {
            min_distinct_dests: 5,
            min_rate_pps: 1.0,
            expiry_secs: 3600.0,
            monitored_addresses: 1 << 16,
        };
        let mut collector = YearCollector::new(year, cfg);
        for i in 0..packets {
            collector.offer(&ProbeRecord {
                ts_micros: u64::from(i) * 250_000,
                src_ip: Ipv4Address(src),
                dst_ip: Ipv4Address(0x0b00_0000 + i),
                src_port: 999,
                dst_port: port,
                seq: 1,
                ip_id: 3,
                ttl: 61,
                flags: TcpFlags::SYN,
                window: 512,
            });
        }
        collector.finish()
    }

    #[test]
    fn source_history_rows_only_for_seen_years() {
        let years = vec![
            collected_year(2015, 9, 443, 20),
            collected_year(2016, 8, 22, 10),
        ];
        let history = source_history(&years, Ipv4Address(9));
        assert_eq!(history.years_seen, 1);
        assert_eq!(history.years[0].year, 2015);
        assert_eq!(history.years[0].packets, 20);
        assert_eq!(history.years[0].campaigns, 1);
        assert!((history.years[0].packet_share - 1.0).abs() < 1e-12);
        assert_eq!(history.source, "0.0.0.9");
        assert_eq!(source_history(&years, Ipv4Address(77)).years_seen, 0);
    }

    #[test]
    fn port_trend_keeps_the_time_axis() {
        let years = vec![
            collected_year(2015, 9, 443, 20),
            collected_year(2016, 8, 22, 10),
        ];
        let trend = port_trend(&years, 443);
        assert_eq!(trend.years.len(), 2);
        assert_eq!(trend.years[0].packets, 20);
        assert_eq!(trend.years[1].packets, 0);
        assert!((trend.years[0].source_share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn campaign_lookup_spans_years() {
        let years = vec![
            collected_year(2015, 9, 443, 20),
            collected_year(2016, 9, 22, 10),
        ];
        let lookup = campaign_lookup(&years, Ipv4Address(9));
        assert_eq!(lookup.total, 2);
        assert_eq!(lookup.campaigns[0].year, 2015);
        assert_eq!(lookup.campaigns[1].year, 2016);
        assert_eq!(lookup.campaigns[0].ports, 1);
        let json = lookup.to_json().to_string_pretty();
        assert!(json.contains("\"source\": \"0.0.0.9\""));
    }

    /// The linear scans the year index replaced, kept as the reference the
    /// indexed answers are compared against.
    mod scan {
        use super::super::*;
        use crate::analysis::yearly::PortRanking;
        use std::collections::BTreeMap;
        use synscan_scanners::traits::ToolKind;

        pub(crate) fn source_history(years: &[YearAnalysis], source: Ipv4Address) -> SourceHistory {
            let mut rows = Vec::new();
            for analysis in years {
                let Some(&packets) = analysis.source_packets.get(&source.0) else {
                    continue;
                };
                rows.push(SourceYear {
                    year: analysis.year,
                    packets,
                    ports: analysis
                        .source_port_counts
                        .get(&source.0)
                        .copied()
                        .unwrap_or(0),
                    campaigns: analysis
                        .campaigns
                        .iter()
                        .filter(|c| c.src_ip == source)
                        .count() as u64,
                    packet_share: packets as f64 / analysis.total_packets.max(1) as f64,
                });
            }
            SourceHistory {
                source: source.to_string(),
                years_seen: rows.len(),
                years: rows,
            }
        }

        pub(crate) fn campaign_lookup(
            years: &[YearAnalysis],
            source: Ipv4Address,
        ) -> CampaignLookup {
            let mut hits = Vec::new();
            for analysis in years {
                for campaign in analysis.campaigns.iter().filter(|c| c.src_ip == source) {
                    hits.push(CampaignHit {
                        year: analysis.year,
                        first_ts_micros: campaign.first_ts_micros,
                        last_ts_micros: campaign.last_ts_micros,
                        packets: campaign.packets,
                        distinct_dests: campaign.distinct_dests,
                        ports: campaign.distinct_ports(),
                        tool: campaign.tool().map(|t| t.name().to_string()),
                    });
                }
            }
            CampaignLookup {
                source: source.to_string(),
                total: hits.len(),
                campaigns: hits,
            }
        }

        fn rank(counts: impl Iterator<Item = (u16, f64)>, total: f64, top_n: usize) -> PortRanking {
            let mut entries: Vec<(u16, f64)> = counts.map(|(p, c)| (p, c / total)).collect();
            entries.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            entries.truncate(top_n);
            entries
        }

        pub(crate) fn summarize(analysis: &YearAnalysis, top_n: usize) -> YearSummary {
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
            let mut scan_port_counts: BTreeMap<u16, u64> = BTreeMap::new();
            let mut tool_scans: BTreeMap<Option<ToolKind>, u64> = BTreeMap::new();
            for campaign in &analysis.campaigns {
                if let Some((port, _)) = campaign
                    .port_packets
                    .iter()
                    .max_by_key(|(_, count)| **count)
                {
                    *scan_port_counts.entry(*port).or_default() += 1;
                }
                *tool_scans.entry(campaign.tool()).or_default() += 1;
            }
            let total_scans = analysis.campaigns.len() as u64;
            let top_ports_by_scans = rank(
                scan_port_counts.iter().map(|(p, c)| (*p, *c as f64)),
                total_scans.max(1) as f64,
                top_n,
            );
            let tool_scan_shares = ToolKind::ALL
                .iter()
                .map(|tool| {
                    let count = tool_scans.get(&Some(*tool)).copied().unwrap_or(0);
                    (
                        tool.name().to_string(),
                        count as f64 / total_scans.max(1) as f64,
                    )
                })
                .collect();
            let mut tool_packets: BTreeMap<&str, u64> = BTreeMap::new();
            for ((tool, _), count) in &analysis.tool_port_packets {
                let name = tool.map(|t| t.name()).unwrap_or("custom");
                *tool_packets.entry(name).or_default() += count;
            }
            let tool_packet_shares = tool_packets
                .into_iter()
                .map(|(name, packets)| (name.to_string(), packets as f64 / total_packets))
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
    }

    const QUIET: u32 = 0x0c00_0001;
    const ABSENT: u32 = 0x0d00_0001;

    fn index_cfg() -> crate::campaign::CampaignConfig {
        crate::campaign::CampaignConfig {
            min_distinct_dests: 5,
            min_rate_pps: 1.0,
            expiry_secs: 600.0,
            monitored_addresses: 1 << 16,
        }
    }

    /// Thirty scanners, each bursting in one to four epochs an expiry apart
    /// (so most run several campaigns, interleaved with everyone else's),
    /// over port mixes that tie and differ per burst, a third of them with
    /// ZMap's mark on every other probe; plus `QUIET`, whose three packets
    /// never make a campaign. `year` shifts the mix so years differ.
    fn index_records(year: u16) -> Vec<synscan_wire::ProbeRecord> {
        use synscan_wire::{ProbeRecord, TcpFlags};
        let shift = u32::from(year % 7);
        let mut records = Vec::new();
        for epoch in 0..4u32 {
            let base = u64::from(epoch) * 1_000_000_000;
            for s in 0..30u32 {
                if (s + shift) % 4 > 3 - epoch {
                    continue;
                }
                for i in 0..(12 + (s + epoch) % 9) {
                    records.push(ProbeRecord {
                        ts_micros: base + u64::from(i) * 200_000 + u64::from(s) * 7,
                        src_ip: Ipv4Address(0x0a00_0000 + s * 5),
                        dst_ip: Ipv4Address(0x0b00_0000 + epoch * 4096 + s * 64 + i),
                        src_port: 40_000,
                        dst_port: [22u16, 23, 80, 443, 7547, 8080, 8443]
                            [((s + shift) % 5 + i % (2 + epoch)) as usize % 7],
                        seq: i ^ 0x1234_5678,
                        ip_id: if s % 3 == 0 && i % 2 == 0 { 54_321 } else { 7 },
                        ttl: 55,
                        flags: TcpFlags::SYN,
                        window: 1024,
                    });
                }
            }
        }
        for i in 0..3u32 {
            records.push(ProbeRecord {
                ts_micros: 5_000 + u64::from(i),
                src_ip: Ipv4Address(QUIET),
                dst_ip: Ipv4Address(0x0b00_0000 + i),
                src_port: 40_000,
                dst_port: 5060,
                seq: 1,
                ip_id: 7,
                ttl: 55,
                flags: TcpFlags::SYN,
                window: 1024,
            });
        }
        records.sort_by_key(|r| (r.ts_micros, r.src_ip));
        records
    }

    /// `records` split by source into `parts` collectors, each finished.
    fn index_partials(
        year: u16,
        records: &[synscan_wire::ProbeRecord],
        parts: u32,
    ) -> Vec<YearAnalysis> {
        use crate::analysis::collect::YearCollector;
        let t0 = records.first().map_or(0, |r| r.ts_micros);
        (0..parts)
            .map(|part| {
                let mut collector = YearCollector::with_origin(year, index_cfg(), 7.0, t0);
                for record in records.iter().filter(|r| r.src_ip.0 % parts == part) {
                    collector.offer(record);
                }
                collector.finish()
            })
            .collect()
    }

    /// Every `f64` of a summary as bits, so "equal" means the same bytes out.
    fn summary_bits(summary: &YearSummary) -> Vec<u64> {
        let rankings = [
            &summary.top_ports_by_packets,
            &summary.top_ports_by_sources,
            &summary.top_ports_by_scans,
        ];
        let shares = [&summary.tool_scan_shares, &summary.tool_packet_shares];
        [summary.packets_per_day, summary.scans_per_month]
            .into_iter()
            .chain(rankings.into_iter().flatten().map(|&(_, share)| share))
            .chain(shares.into_iter().flat_map(|m| m.values().copied()))
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn indexed_answers_equal_the_linear_scans() {
        use crate::store::{decode_year, encode_year};
        let year_of = |year: u16, route: u8| {
            let records = index_records(year);
            let mut sequential = index_partials(year, &records, 1);
            let sequential = sequential.pop().expect("one partition");
            match route {
                0 => sequential,
                1 => {
                    let merged = YearAnalysis::merge_partials(index_partials(year, &records, 3));
                    assert_eq!(merged, sequential);
                    merged
                }
                _ => {
                    let decoded = decode_year(&encode_year(&sequential)).expect("decodes");
                    assert_eq!(decoded, sequential);
                    decoded
                }
            }
        };
        // A year with traffic but no campaign, between the busy years.
        let quiet_year = {
            let records: Vec<_> = index_records(2018)
                .into_iter()
                .filter(|r| r.src_ip.0 == QUIET)
                .collect();
            index_partials(2018, &records, 1).pop().expect("one")
        };
        assert!(quiet_year.campaigns.is_empty() && quiet_year.total_packets == 3);

        for route in 0..3u8 {
            let years = vec![
                year_of(2017, route),
                quiet_year.clone(),
                year_of(2019, route),
            ];
            let mut sources: Vec<u32> = years
                .iter()
                .flat_map(|a| a.source_packets.keys().copied())
                .collect();
            sources.sort_unstable();
            sources.dedup();
            let repeaters = sources
                .iter()
                .filter(|&&src| {
                    years[0]
                        .campaigns
                        .iter()
                        .filter(|c| c.src_ip.0 == src)
                        .count()
                        >= 2
                })
                .count();
            assert!(
                repeaters >= 10,
                "route {route}: {repeaters} repeat scanners"
            );
            assert!(sources.contains(&QUIET) && !sources.contains(&ABSENT));

            for &src in sources.iter().chain([&ABSENT, &0, &u32::MAX]) {
                let src = Ipv4Address(src);
                assert_eq!(
                    source_history(&years, src),
                    scan::source_history(&years, src),
                    "route {route} {src}"
                );
                assert_eq!(
                    campaign_lookup(&years, src),
                    scan::campaign_lookup(&years, src),
                    "route {route} {src}"
                );
            }
            let quiet = source_history(&years, Ipv4Address(QUIET));
            assert_eq!(quiet.years_seen, 3);
            assert!(quiet.years.iter().all(|y| y.campaigns == 0));
            assert_eq!(campaign_lookup(&years, Ipv4Address(ABSENT)).total, 0);

            for analysis in &years {
                let ports = analysis.port_packets.len();
                for top_n in [0, 1, 5, ports + 1, usize::MAX] {
                    let got = summarize(analysis, top_n);
                    let want = scan::summarize(analysis, top_n);
                    assert_eq!(got, want, "route {route} top_n {top_n}");
                    assert_eq!(summary_bits(&got), summary_bits(&want));
                    assert_eq!(got.top_ports_by_packets.len(), top_n.min(ports));
                }
            }
            assert!(summarize(&years[0], 5).tool_scan_shares["zmap"] > 0.0);
        }
    }

    #[test]
    fn the_index_is_derived_never_stored() {
        use crate::analysis::collect::YearIndex;
        use crate::store::{decode_year, encode_year};
        let year = index_partials(2017, &index_records(2017), 1)
            .pop()
            .expect("one");
        assert_ne!(*year.index(), YearIndex::default());
        let mut bare = year.clone();
        bare.index = YearIndex::default();
        let bytes = encode_year(&year);
        assert_eq!(encode_year(&bare), bytes);
        // Decoding derives it again, from bytes that never carried it.
        assert_eq!(decode_year(&bytes).expect("decodes").index(), year.index());
    }
}
