//! Figure 6: scanner recurrence and downtime between scans.
//!
//! §6.6: most scanners never come back; institutional scanners are the
//! exception, with a large share running more than 100 separate campaigns
//! and a pronounced mode of exactly-daily re-scans. The figure is a pair of
//! per-class CDFs: campaigns per source IP, and idle time between
//! consecutive campaigns of the same source.

use std::collections::{BTreeMap, HashMap};

use synscan_netmodel::{InternetRegistry, ScannerClass};
use synscan_stats::Ecdf;
use synscan_wire::Ipv4Address;

use crate::campaign::Campaign;

/// Per-class recurrence CDFs.
#[derive(Debug, Clone)]
pub struct RecurrenceCdfs {
    /// CDF of campaigns per source, per class.
    pub campaigns_per_source: BTreeMap<ScannerClass, Ecdf>,
    /// CDF of downtime between consecutive campaigns (seconds), per class.
    pub downtime_secs: BTreeMap<ScannerClass, Ecdf>,
}

impl RecurrenceCdfs {
    /// Fraction of sources of `class` with more than `n` campaigns.
    pub fn fraction_with_more_than(&self, class: ScannerClass, n: f64) -> f64 {
        self.campaigns_per_source
            .get(&class)
            .map(|cdf| cdf.tail(n))
            .unwrap_or(0.0)
    }

    /// Fraction of downtimes of `class` within `lo..=hi` seconds — used to
    /// detect the institutional "scan again next day" mode.
    pub fn downtime_mode_fraction(&self, class: ScannerClass, lo: f64, hi: f64) -> f64 {
        self.downtime_secs
            .get(&class)
            .map(|cdf| cdf.eval(hi) - cdf.eval(lo))
            .unwrap_or(0.0)
    }
}

/// Compute recurrence over one or more years' campaign lists (spanning years
/// is what reveals recurrence — pass all years concatenated).
pub fn recurrence(campaigns: &[Campaign], registry: &InternetRegistry) -> RecurrenceCdfs {
    // Source -> sorted campaign intervals.
    let mut per_source: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for campaign in campaigns {
        per_source
            .entry(campaign.src_ip.0)
            .or_default()
            .push((campaign.first_ts_micros, campaign.last_ts_micros));
    }

    let mut counts: BTreeMap<ScannerClass, Vec<f64>> = BTreeMap::new();
    let mut gaps: BTreeMap<ScannerClass, Vec<f64>> = BTreeMap::new();
    for (src, mut intervals) in per_source {
        let class = registry.class(Ipv4Address(src));
        intervals.sort_unstable();
        counts
            .entry(class)
            .or_default()
            .push(intervals.len() as f64);
        for pair in intervals.windows(2) {
            // Downtime = gap between end of one campaign and start of the next.
            let gap = pair[1].0.saturating_sub(pair[0].1) as f64 / 1e6;
            gaps.entry(class).or_default().push(gap);
        }
    }

    RecurrenceCdfs {
        campaigns_per_source: counts
            .into_iter()
            .map(|(class, v)| (class, Ecdf::new(v)))
            .collect(),
        downtime_secs: gaps
            .into_iter()
            .map(|(class, v)| (class, Ecdf::new(v)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap as Map;
    use synscan_netmodel::Country;
    use synscan_stats::Rng;

    fn campaign(src: Ipv4Address, start_secs: u64, end_secs: u64) -> Campaign {
        Campaign {
            src_ip: src,
            first_ts_micros: start_secs * 1_000_000,
            last_ts_micros: end_secs * 1_000_000,
            packets: 100,
            distinct_dests: 100,
            port_packets: Map::from([(80u16, 100u64)]),
            tool_votes: Map::new(),
        }
    }

    #[test]
    fn daily_recurrence_shows_as_a_mode() {
        let registry = InternetRegistry::build(31, &[]);
        let inst = registry.org_source_ip(registry.orgs()[0].id, 0);
        let mut rng = Rng::seed_from_u64(4);
        let res = registry
            .sample_source(&mut rng, Country::Brazil, ScannerClass::Residential)
            .unwrap();

        let mut campaigns = Vec::new();
        // Institutional: scans every day for 30 days, 1 h long each.
        for day in 0..30u64 {
            campaigns.push(campaign(inst, day * 86_400, day * 86_400 + 3600));
        }
        // Residential: one single campaign.
        campaigns.push(campaign(res, 1000, 2000));

        let rec = recurrence(&campaigns, &registry);
        assert!(
            rec.fraction_with_more_than(ScannerClass::Institutional, 20.0) > 0.99,
            "institutional source recurs > 20 times"
        );
        assert_eq!(
            rec.fraction_with_more_than(ScannerClass::Residential, 1.0),
            0.0
        );
        // The institutional downtime mode sits near 23 h (86,400 − 3,600 s).
        let mode = rec.downtime_mode_fraction(ScannerClass::Institutional, 80_000.0, 90_000.0);
        assert!(mode > 0.99, "daily mode fraction {mode}");
        // Residential class produced no gaps at all.
        assert!(!rec.downtime_secs.contains_key(&ScannerClass::Residential));
    }

    #[test]
    fn counts_group_by_source_not_campaign() {
        let registry = InternetRegistry::build(32, &[]);
        let mut rng = Rng::seed_from_u64(5);
        let a = registry
            .sample_source(&mut rng, Country::Germany, ScannerClass::Hosting)
            .unwrap();
        let campaigns = vec![
            campaign(a, 0, 100),
            campaign(a, 10_000, 10_100),
            campaign(a, 50_000, 50_100),
        ];
        let rec = recurrence(&campaigns, &registry);
        let cdf = &rec.campaigns_per_source[&ScannerClass::Hosting];
        assert_eq!(cdf.len(), 1, "one source");
        assert_eq!(cdf.quantile(1.0), 3.0, "three campaigns");
        assert_eq!(rec.downtime_secs[&ScannerClass::Hosting].len(), 2);
    }
}
