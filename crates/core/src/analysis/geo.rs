//! §5.4 and §6.5: where scanning originates, and port/tool geography.
//!
//! Reproduced claims: China >30% of scanning in 2015, diversification over
//! the decade, port-country biases (China dominating MySQL/RDP, the US
//! dominating HTTPS), counts of ports where one country originates > 80% of
//! traffic, and per-tool country mixes (ZMap ≈ US+China, Masscan 2018 ≈
//! Russia).

use std::collections::BTreeMap;

use synscan_netmodel::{Country, InternetRegistry};

use crate::campaign::Campaign;

/// Country shares of campaign packets.
pub fn country_packet_shares(
    campaigns: &[Campaign],
    registry: &InternetRegistry,
) -> BTreeMap<Country, f64> {
    let mut counts: BTreeMap<Country, u64> = BTreeMap::new();
    let mut total = 0u64;
    for campaign in campaigns {
        let country = registry.country(campaign.src_ip).unwrap_or(Country::Other);
        *counts.entry(country).or_default() += campaign.packets;
        total += campaign.packets;
    }
    counts
        .into_iter()
        .map(|(country, count)| (country, count as f64 / total.max(1) as f64))
        .collect()
}

/// Herfindahl–Hirschman concentration of the country mix — falls as the
/// ecosystem diversifies (§5.4).
pub fn country_concentration(shares: &BTreeMap<Country, f64>) -> f64 {
    shares.values().map(|s| s * s).sum()
}

/// Per-port country dominance: for each port carrying at least
/// `min_packets`, the country originating the largest share of its packets,
/// as `port -> (country, share)`. Dominance over a port seen twice is noise,
/// and at simulation scale the long tail would otherwise be attributed to
/// whoever sent its only packets.
pub fn port_country_dominance_min(
    campaigns: &[Campaign],
    registry: &InternetRegistry,
    min_packets: u64,
) -> BTreeMap<u16, (Country, f64)> {
    let mut per_port: BTreeMap<u16, BTreeMap<Country, u64>> = BTreeMap::new();
    for campaign in campaigns {
        let country = registry.country(campaign.src_ip).unwrap_or(Country::Other);
        for (&port, &packets) in &campaign.port_packets {
            *per_port
                .entry(port)
                .or_default()
                .entry(country)
                .or_default() += packets;
        }
    }
    per_port
        .into_iter()
        .filter_map(|(port, countries)| {
            let total: u64 = countries.values().sum();
            if total < min_packets {
                return None;
            }
            let (country, count) = countries
                .into_iter()
                .max_by_key(|(_, c)| *c)
                .expect("non-empty");
            Some((port, (country, count as f64 / total.max(1) as f64)))
        })
        .collect()
}

/// Number of ports where `country` originates more than `threshold` of the
/// traffic (§5.4: China > 80% on 14,444 ports in 2022, US on 666, ...).
pub fn dominated_port_count(
    dominance: &BTreeMap<u16, (Country, f64)>,
    country: Country,
    threshold: f64,
) -> usize {
    dominance
        .values()
        .filter(|(c, share)| *c == country && *share > threshold)
        .count()
}

/// Country mix of one tool's campaigns (§6.5).
pub fn tool_country_mix(
    campaigns: &[Campaign],
    registry: &InternetRegistry,
    tool: synscan_scanners::traits::ToolKind,
) -> BTreeMap<Country, f64> {
    let mut counts: BTreeMap<Country, u64> = BTreeMap::new();
    let mut total = 0u64;
    for campaign in campaigns {
        if campaign.tool() != Some(tool) {
            continue;
        }
        let country = registry.country(campaign.src_ip).unwrap_or(Country::Other);
        *counts.entry(country).or_default() += 1;
        total += 1;
    }
    counts
        .into_iter()
        .map(|(country, count)| (country, count as f64 / total.max(1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap as Map;
    use synscan_netmodel::ScannerClass;
    use synscan_scanners::traits::ToolKind;
    use synscan_stats::Rng;

    use synscan_wire::Ipv4Address;

    fn campaign(src: Ipv4Address, port: u16, packets: u64, tool: Option<ToolKind>) -> Campaign {
        let mut votes = Map::new();
        if let Some(t) = tool {
            votes.insert(t, packets);
        }
        Campaign {
            src_ip: src,
            first_ts_micros: 0,
            last_ts_micros: 1_000_000,
            packets,
            distinct_dests: 100,
            port_packets: Map::from([(port, packets)]),
            tool_votes: votes,
        }
    }

    fn source(registry: &InternetRegistry, rng: &mut Rng, country: Country) -> Ipv4Address {
        registry
            .sample_source(rng, country, ScannerClass::Hosting)
            .unwrap()
    }

    #[test]
    fn shares_and_concentration() {
        let registry = InternetRegistry::build(51, &[]);
        let mut rng = Rng::seed_from_u64(6);
        let cn = source(&registry, &mut rng, Country::China);
        let us = source(&registry, &mut rng, Country::UnitedStates);
        let campaigns = vec![campaign(cn, 3389, 300, None), campaign(us, 443, 100, None)];
        let shares = country_packet_shares(&campaigns, &registry);
        assert!((shares[&Country::China] - 0.75).abs() < 1e-9);
        assert!((shares[&Country::UnitedStates] - 0.25).abs() < 1e-9);
        let hhi = country_concentration(&shares);
        assert!((hhi - (0.75f64.powi(2) + 0.25f64.powi(2))).abs() < 1e-9);
    }

    #[test]
    fn port_dominance_finds_the_biases() {
        let registry = InternetRegistry::build(52, &[]);
        let mut rng = Rng::seed_from_u64(7);
        let cn = source(&registry, &mut rng, Country::China);
        let cn2 = source(&registry, &mut rng, Country::China);
        let us = source(&registry, &mut rng, Country::UnitedStates);
        let campaigns = vec![
            campaign(cn, 3306, 900, None),
            campaign(cn2, 3306, 50, None),
            campaign(us, 3306, 50, None),
            campaign(us, 443, 500, None),
        ];
        let dom = port_country_dominance_min(&campaigns, &registry, 0);
        assert_eq!(dom[&3306].0, Country::China);
        assert!(dom[&3306].1 > 0.9);
        assert_eq!(dom[&443].0, Country::UnitedStates);
        assert_eq!(dominated_port_count(&dom, Country::China, 0.8), 1);
        assert_eq!(dominated_port_count(&dom, Country::UnitedStates, 0.8), 1);
        assert_eq!(dominated_port_count(&dom, Country::Russia, 0.8), 0);
    }

    #[test]
    fn dominance_min_packets_filters_thin_ports() {
        let registry = InternetRegistry::build(54, &[]);
        let mut rng = Rng::seed_from_u64(9);
        let cn = source(&registry, &mut rng, Country::China);
        let campaigns = vec![
            campaign(cn, 3306, 500, None),
            campaign(cn, 9999, 2, None), // a two-packet tail port
        ];
        let all = port_country_dominance_min(&campaigns, &registry, 0);
        assert!(all.contains_key(&9999));
        let filtered = port_country_dominance_min(&campaigns, &registry, 10);
        assert!(!filtered.contains_key(&9999));
        assert!(filtered.contains_key(&3306));
    }

    #[test]
    fn tool_mix_filters_by_attribution() {
        let registry = InternetRegistry::build(53, &[]);
        let mut rng = Rng::seed_from_u64(8);
        let ru = source(&registry, &mut rng, Country::Russia);
        let cn = source(&registry, &mut rng, Country::China);
        let campaigns = vec![
            campaign(ru, 80, 10, Some(ToolKind::Masscan)),
            campaign(ru, 81, 10, Some(ToolKind::Masscan)),
            campaign(cn, 80, 10, Some(ToolKind::Zmap)),
        ];
        let mix = tool_country_mix(&campaigns, &registry, ToolKind::Masscan);
        assert!((mix[&Country::Russia] - 1.0).abs() < 1e-9);
        assert!(!mix.contains_key(&Country::China));
    }
}
