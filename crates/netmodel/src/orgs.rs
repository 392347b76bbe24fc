//! Roster of known ("institutional") scanning organizations.
//!
//! Substitutes for the paper's Greynoise + Censys API + IPinfo + reverse-DNS
//! ETL pipeline (Appendix A). Each organization carries per-year behaviour
//! calibrated to Figures 8–10: Censys and Palo Alto cover all 65,536 TCP
//! ports by 2024, Onyphe scales from under half the port range in 2023 to the
//! full range in 2024, Shadowserver and Rapid7 stay partial, and universities
//! focus on a handful of ports without growth over the years.

use crate::country::Country;

/// Opaque organization identifier (index into [`roster`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrgId(pub u16);

/// Broad kind of a known scanner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrgKind {
    /// Commercial attack-surface / search-engine scanners (Censys, Shodan...).
    Commercial,
    /// Non-profit security organizations (Shadowserver).
    NonProfit,
    /// Academic institutions (universities).
    Academic,
}

/// How an organization selects the ports it scans in a given year.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortStrategy {
    /// The full 65,536-port TCP range.
    FullRange,
    /// The `n` most popular service ports.
    TopPorts(u32),
    /// Not scanning at all this year (org did not exist yet / retired).
    Inactive,
}

impl PortStrategy {
    /// Number of distinct ports this strategy touches.
    pub fn port_count(self) -> u32 {
        match self {
            PortStrategy::FullRange => 65_536,
            PortStrategy::TopPorts(n) => n,
            PortStrategy::Inactive => 0,
        }
    }
}

/// One known scanning organization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnownOrg {
    /// Stable identifier.
    pub id: OrgId,
    /// Display name as used in the paper's appendix figures.
    pub name: &'static str,
    /// Commercial / non-profit / academic.
    pub kind: OrgKind,
    /// Home country of the scanning infrastructure.
    pub country: Country,
    /// Number of scanning source IPs the org operates (order of magnitude).
    pub source_ips: u32,
    /// First year the org scanned (inclusive).
    pub active_from: u16,
    /// Whether sources re-scan daily (the §6.6 institutional recurrence mode).
    pub daily_recurrence: bool,
}

impl KnownOrg {
    /// Port-selection strategy in a given year, encoding Figures 8–10.
    pub fn port_strategy(&self, year: u16) -> PortStrategy {
        if year < self.active_from {
            return PortStrategy::Inactive;
        }
        match self.name {
            // Censys: rapid expansion, full range by 2024 (§5.1, Fig 8).
            "Censys" => match year {
                0..=2017 => PortStrategy::TopPorts(30),
                2018..=2020 => PortStrategy::TopPorts(1_200),
                2021..=2022 => PortStrategy::TopPorts(3_500),
                2023 => PortStrategy::TopPorts(30_000),
                _ => PortStrategy::FullRange,
            },
            // Palo Alto Cortex Xpanse: full range in 2023 and 2024.
            "Palo Alto Networks" => match year {
                0..=2019 => PortStrategy::Inactive,
                2020..=2022 => PortStrategy::TopPorts(8_000),
                _ => PortStrategy::FullRange,
            },
            "Criminal IP" => match year {
                0..=2021 => PortStrategy::Inactive,
                _ => PortStrategy::FullRange,
            },
            "Shodan" => match year {
                0..=2016 => PortStrategy::TopPorts(200),
                2017..=2020 => PortStrategy::TopPorts(1_500),
                2021..=2022 => PortStrategy::TopPorts(2_500),
                _ => PortStrategy::FullRange,
            },
            // Onyphe: under half the range in 2023, full range in 2024.
            "Onyphe" => match year {
                0..=2022 => PortStrategy::TopPorts(5_000),
                2023 => PortStrategy::TopPorts(28_000),
                _ => PortStrategy::FullRange,
            },
            // Shadowserver and Rapid7: "not yet scanning all available ports".
            "Shadowserver" => PortStrategy::TopPorts(120 + 40 * (year.saturating_sub(2015)) as u32),
            "Rapid7" => PortStrategy::TopPorts(100 + 30 * (year.saturating_sub(2015)) as u32),
            // Universities: a few ports, no growth (§6.8).
            "University of Michigan" => PortStrategy::TopPorts(8),
            "UCSD" => PortStrategy::TopPorts(5),
            "TU Munich" => PortStrategy::TopPorts(4),
            "RWTH Aachen" => PortStrategy::TopPorts(3),
            "Stanford University" => PortStrategy::TopPorts(4),
            // Mid-size commercial scanners.
            "Stretchoid" => PortStrategy::TopPorts(600),
            "Internet Census Group" => PortStrategy::TopPorts(2_000),
            "LeakIX" => PortStrategy::TopPorts(900),
            "Intrinsec" => PortStrategy::TopPorts(400),
            "bufferover.run" => PortStrategy::TopPorts(60),
            "Adscore" => PortStrategy::TopPorts(40),
            "CyberResilience.io" => PortStrategy::TopPorts(700),
            "Driftnet.io" => PortStrategy::TopPorts(1_800),
            "Rapid7 Sonar" => PortStrategy::TopPorts(250),
            "SecurityTrails" => PortStrategy::TopPorts(500),
            "Alpha Strike Labs" => PortStrategy::TopPorts(1_100),
            "Bit Discovery" => PortStrategy::TopPorts(2_200),
            "Leitwert.net" => PortStrategy::TopPorts(350),
            "Hadrian.io" => PortStrategy::TopPorts(450),
            "DataGrid Surface" => PortStrategy::TopPorts(300),
            _ => PortStrategy::TopPorts(100),
        }
    }
}

/// The full roster, in a stable order.
pub fn roster() -> Vec<KnownOrg> {
    use Country::*;
    use OrgKind::*;
    let spec: &[(&'static str, OrgKind, Country, u32, u16, bool)] = &[
        ("Censys", Commercial, UnitedStates, 220, 2015, true),
        ("Shodan", Commercial, UnitedStates, 90, 2015, true),
        ("Rapid7", Commercial, UnitedStates, 60, 2015, true),
        ("Shadowserver", NonProfit, UnitedStates, 180, 2015, true),
        (
            "Palo Alto Networks",
            Commercial,
            UnitedStates,
            240,
            2020,
            true,
        ),
        ("Onyphe", Commercial, France, 70, 2018, true),
        ("Stretchoid", Commercial, UnitedStates, 130, 2016, true),
        (
            "Internet Census Group",
            Commercial,
            Germany,
            100,
            2018,
            true,
        ),
        ("LeakIX", Commercial, Netherlands, 30, 2019, true),
        ("Intrinsec", Commercial, France, 25, 2019, true),
        ("bufferover.run", Commercial, UnitedStates, 10, 2019, false),
        ("Adscore", Commercial, Poland, 15, 2018, false),
        (
            "CyberResilience.io",
            Commercial,
            UnitedKingdom,
            20,
            2021,
            true,
        ),
        ("Driftnet.io", Commercial, UnitedKingdom, 35, 2021, true),
        ("SecurityTrails", Commercial, UnitedStates, 40, 2018, true),
        ("Alpha Strike Labs", Commercial, Germany, 55, 2019, true),
        ("Bit Discovery", Commercial, UnitedStates, 45, 2019, true),
        ("Criminal IP", Commercial, SouthKorea, 80, 2022, true),
        ("Leitwert.net", Commercial, Germany, 12, 2020, false),
        ("Hadrian.io", Commercial, Netherlands, 18, 2021, true),
        (
            "DataGrid Surface",
            Commercial,
            UnitedStates,
            14,
            2021,
            false,
        ),
        (
            "University of Michigan",
            Academic,
            UnitedStates,
            12,
            2015,
            true,
        ),
        ("UCSD", Academic, UnitedStates, 8, 2015, false),
        ("TU Munich", Academic, Germany, 6, 2016, false),
        ("RWTH Aachen", Academic, Germany, 4, 2017, false),
        (
            "Stanford University",
            Academic,
            UnitedStates,
            6,
            2018,
            false,
        ),
    ];
    spec.iter()
        .enumerate()
        .map(
            |(i, &(name, kind, country, source_ips, active_from, daily))| KnownOrg {
                id: OrgId(i as u16),
                name,
                kind,
                country,
                source_ips,
                active_from,
                daily_recurrence: daily,
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_has_stable_ids() {
        let orgs = roster();
        for (i, org) in orgs.iter().enumerate() {
            assert_eq!(org.id, OrgId(i as u16));
        }
        assert!(orgs.len() >= 25, "paper identifies 36-40 orgs; we model 26");
    }

    #[test]
    fn censys_reaches_full_range_in_2024() {
        let orgs = roster();
        let censys = orgs.iter().find(|o| o.name == "Censys").unwrap();
        assert_eq!(censys.port_strategy(2024), PortStrategy::FullRange);
        assert!(censys.port_strategy(2015).port_count() < 100);
    }

    #[test]
    fn onyphe_scales_2023_to_2024() {
        let orgs = roster();
        let onyphe = orgs.iter().find(|o| o.name == "Onyphe").unwrap();
        let c2023 = onyphe.port_strategy(2023).port_count();
        let c2024 = onyphe.port_strategy(2024).port_count();
        assert!(c2023 < 32_768, "2023 must be under half the range");
        assert_eq!(c2024, 65_536);
    }

    #[test]
    fn shadowserver_and_rapid7_stay_partial() {
        let orgs = roster();
        for name in ["Shadowserver", "Rapid7"] {
            let org = orgs.iter().find(|o| o.name == name).unwrap();
            let count = org.port_strategy(2024).port_count();
            assert!(count > 0 && count < 65_536, "{name}: {count}");
        }
    }

    #[test]
    fn universities_stay_small_and_flat() {
        let orgs = roster();
        for name in ["TU Munich", "RWTH Aachen", "Stanford University"] {
            let org = orgs.iter().find(|o| o.name == name).unwrap();
            let c2018 = org.port_strategy(2018).port_count();
            let c2024 = org.port_strategy(2024).port_count();
            assert!(c2024 <= 10, "{name} scans only a few ports");
            assert_eq!(c2018, c2024, "{name} shows no growth");
        }
    }

    #[test]
    fn inactive_before_founding() {
        let orgs = roster();
        let palo = orgs
            .iter()
            .find(|o| o.name == "Palo Alto Networks")
            .unwrap();
        assert_eq!(palo.port_strategy(2015), PortStrategy::Inactive);
        assert_eq!(palo.port_strategy(2015).port_count(), 0);
        let cip = orgs.iter().find(|o| o.name == "Criminal IP").unwrap();
        assert_eq!(cip.port_strategy(2021), PortStrategy::Inactive);
    }

    #[test]
    fn most_commercial_orgs_recur_daily() {
        let orgs = roster();
        let daily = orgs
            .iter()
            .filter(|o| o.kind == OrgKind::Commercial && o.daily_recurrence)
            .count();
        let commercial = orgs
            .iter()
            .filter(|o| o.kind == OrgKind::Commercial)
            .count();
        assert!(daily * 2 > commercial, "majority must recur daily");
    }
}
