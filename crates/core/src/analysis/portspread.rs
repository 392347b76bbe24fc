//! Figure 3 and §5.1: how many ports does each scanner target?
//!
//! Reproduces: the CDF of distinct ports per source IP (83% single-port in
//! 2015 → 74% in 2020 → 65% in 2022), the co-scanning fraction (18% of
//! port-80 scanners also probing 8080 in 2015 → 87% in 2020), privileged-
//! port coverage above a noise floor, and the per-port daily probe floor
//! ("all ports receive more than 1,000 probes per day by 2022").

use synscan_netmodel::PortCensus;
use synscan_stats::{pearson, Ecdf, PearsonResult};

use super::collect::YearAnalysis;
use crate::compact::sorted_intersection_len;

/// The Figure 3 CDF: distinct destination ports per source.
pub fn ports_per_source_cdf(analysis: &YearAnalysis) -> Ecdf {
    analysis
        .source_port_counts
        .values()
        .map(|&c| c as f64)
        .collect()
}

/// Fraction of sources targeting exactly one port.
pub fn single_port_fraction(analysis: &YearAnalysis) -> f64 {
    let total = analysis.source_port_counts.len().max(1) as f64;
    let single = analysis
        .source_port_counts
        .values()
        .filter(|&&c| c == 1)
        .count() as f64;
    single / total
}

/// Fraction of sources targeting at least `n` ports.
pub fn at_least_n_ports_fraction(analysis: &YearAnalysis, n: u32) -> f64 {
    let total = analysis.source_port_counts.len().max(1) as f64;
    let many = analysis
        .source_port_counts
        .values()
        .filter(|&&c| c >= n)
        .count() as f64;
    many / total
}

/// Co-scanning: of the sources probing `port_a`, the fraction that also
/// probed `port_b` (§5.1's 80→8080 statistic).
pub fn co_scan_fraction(analysis: &YearAnalysis, port_a: u16, port_b: u16) -> Option<f64> {
    let a = analysis.port_source_sets.get(&port_a)?;
    if a.is_empty() {
        return None;
    }
    let both = analysis
        .port_source_sets
        .get(&port_b)
        .map_or(0, |b| sorted_intersection_len(a, b));
    Some(both as f64 / a.len() as f64)
}

/// Fraction of privileged ports (1–1023) receiving more than `noise_floor`
/// × the typical popular-port traffic (§5.1: 31% in 2015 above a 1% noise
/// floor, blanket coverage later). The reference level is the mean packet
/// count of the 20 busiest privileged ports, so a single full-range sweep
/// leaving one packet on every port does not count as "coverage".
pub fn privileged_port_coverage(analysis: &YearAnalysis, noise_floor: f64) -> f64 {
    let mut privileged: Vec<u64> = analysis
        .port_packets
        .iter()
        .filter(|(p, _)| **p >= 1 && **p <= 1023)
        .map(|(_, c)| *c)
        .collect();
    if privileged.is_empty() {
        return 0.0;
    }
    privileged.sort_unstable_by(|a, b| b.cmp(a));
    let top: &[u64] = &privileged[..privileged.len().min(20)];
    let reference = top.iter().sum::<u64>() as f64 / top.len() as f64;
    let covered = (1u16..=1023)
        .filter(|p| {
            analysis.port_packets.get(p).copied().unwrap_or(0) as f64 > reference * noise_floor
        })
        .count();
    covered as f64 / 1023.0
}

/// Co-scanning at *campaign* granularity (§5.1's "18% of scans targeting
/// port 80 were also targeting port 8080" — scans, not sources): of the
/// campaigns touching `port_a`, the fraction that also touch `port_b`.
pub fn campaign_co_scan_fraction(analysis: &YearAnalysis, port_a: u16, port_b: u16) -> Option<f64> {
    let on_a: Vec<_> = analysis
        .campaigns
        .iter()
        .filter(|c| c.port_packets.contains_key(&port_a))
        .collect();
    if on_a.is_empty() {
        return None;
    }
    let both = on_a
        .iter()
        .filter(|c| c.port_packets.contains_key(&port_b))
        .count();
    Some(both as f64 / on_a.len() as f64)
}

/// §5.1's (no-)correlation between deployed services and scanning interest:
/// Pearson r between the open-service count per port (from a vertical
/// census) and the scan packets per port. The paper finds R = 0.047 — "no
/// relation between the number of services and the number of scans".
/// Computed over the union of census ports and the 50 busiest ports of
/// `port_packets`, zero-filling the missing side. §6.8 advises filtering
/// institutional traffic out first ("papers quantifying the Internet are
/// essentially looking into the mirror" otherwise); callers can pass the
/// filtered map.
pub fn correlate_census(
    port_packets: &std::collections::BTreeMap<u16, u64>,
    census: &PortCensus,
) -> Option<PearsonResult> {
    let mut ports: std::collections::BTreeSet<u16> = census.open_ports.keys().copied().collect();
    let mut busiest: Vec<(u16, u64)> = port_packets.iter().map(|(p, c)| (*p, *c)).collect();
    busiest.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    ports.extend(busiest.iter().take(50).map(|(p, _)| *p));

    let xs: Vec<f64> = ports.iter().map(|p| census.open_count(*p) as f64).collect();
    let ys: Vec<f64> = ports
        .iter()
        .map(|p| port_packets.get(p).copied().unwrap_or(0) as f64)
        .collect();
    pearson(&xs, &ys)
}

/// Number of distinct ports receiving at least `min_packets_per_day`.
pub fn ports_above_daily_floor(analysis: &YearAnalysis, min_packets_per_day: f64) -> usize {
    let days = analysis.window_days();
    analysis
        .port_packets
        .values()
        .filter(|&&c| c as f64 / days >= min_packets_per_day)
        .count()
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
            src_port: 1,
            dst_port: port,
            seq: 9,
            ip_id: 2,
            ttl: 64,
            flags: TcpFlags::SYN,
            window: 64,
        }
    }

    fn build(offers: &[(u32, u16)]) -> YearAnalysis {
        let mut collector = YearCollector::new(2020, CampaignConfig::scaled(1 << 10));
        for (i, &(src, port)) in offers.iter().enumerate() {
            collector.offer(&record(src, 1000 + i as u32, port, i as u64 * 1000));
        }
        collector.finish()
    }

    #[test]
    fn single_port_fraction_counts_correctly() {
        // Sources 1 and 2 scan one port; source 3 scans three ports.
        let analysis = build(&[(1, 80), (1, 80), (2, 22), (3, 80), (3, 8080), (3, 443)]);
        assert!((single_port_fraction(&analysis) - 2.0 / 3.0).abs() < 1e-9);
        assert!((at_least_n_ports_fraction(&analysis, 3) - 1.0 / 3.0).abs() < 1e-9);
        let cdf = ports_per_source_cdf(&analysis);
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf.eval(1.0), 2.0 / 3.0);
    }

    #[test]
    fn co_scan_fraction_intersects_source_sets() {
        let analysis = build(&[(1, 80), (1, 8080), (2, 80), (3, 80), (3, 8080), (4, 8080)]);
        // Of 3 sources on port 80 (1,2,3), two also scan 8080.
        let f = co_scan_fraction(&analysis, 80, 8080).unwrap();
        assert!((f - 2.0 / 3.0).abs() < 1e-9);
        // No one scans 9999.
        assert_eq!(co_scan_fraction(&analysis, 80, 9999), Some(0.0));
        assert_eq!(co_scan_fraction(&analysis, 9999, 80), None);
    }

    #[test]
    fn privileged_coverage_with_concentrated_traffic() {
        // All packets on two privileged ports: coverage = 2/1023.
        let analysis = build(&[(1, 22), (2, 22), (3, 80), (4, 80)]);
        let coverage = privileged_port_coverage(&analysis, 0.01);
        assert!((coverage - 2.0 / 1023.0).abs() < 1e-9);
    }

    #[test]
    fn services_correlation_is_low_when_scanning_ignores_deployment() {
        // Scanning concentrated on ports with few deployed services (2323,
        // 8545): the correlation against the census must be weak.
        let mut offers = Vec::new();
        for i in 0..200u32 {
            offers.push((i, 2323u16));
        }
        for i in 0..150u32 {
            offers.push((1000 + i, 8545u16));
        }
        for i in 0..20u32 {
            offers.push((2000 + i, 443u16));
        }
        let analysis = build(&offers);
        let census = synscan_netmodel::PortCensus::synthesize(1, 100_000);
        let r = correlate_census(&analysis.port_packets, &census).unwrap();
        assert!(r.r.abs() < 0.3, "R = {} should be near zero", r.r);
    }

    #[test]
    fn services_correlation_detects_deployment_tracking() {
        // A hypothetical scanner population probing ports proportionally to
        // deployment would correlate strongly — the negative control.
        let census = synscan_netmodel::PortCensus::synthesize(2, 100_000);
        let mut offers = Vec::new();
        let mut src = 0u32;
        for (&port, &count) in &census.open_ports {
            for _ in 0..(count / 50).max(1) {
                offers.push((src, port));
                src += 1;
            }
        }
        let analysis = build(&offers);
        let r = correlate_census(&analysis.port_packets, &census).unwrap();
        assert!(r.r > 0.9, "R = {} should be near one", r.r);
    }

    #[test]
    fn daily_floor_counts_ports() {
        let analysis = build(&[(1, 80), (2, 80), (3, 80), (4, 22)]);
        // Window < 1 day -> treated as 1 day; port 80 has 3 packets, 22 has 1.
        assert_eq!(ports_above_daily_floor(&analysis, 2.0), 1);
        assert_eq!(ports_above_daily_floor(&analysis, 1.0), 2);
        assert_eq!(ports_above_daily_floor(&analysis, 10.0), 0);
    }
}
