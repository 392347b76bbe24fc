//! Per-year ecosystem specifications — the calibration tables.
//!
//! Every number here traces to Table 1, Table 2, a figure, or a prose claim
//! of the paper; the comments cite the source. The specs describe the
//! *Internet-side* population; `generate` projects it onto the telescope.

use synscan_netmodel::{Country, ScannerClass};
use synscan_scanners::traits::{TargetOrder, ToolKind};

/// A population of similar scanners in one year.
#[derive(Debug, Clone)]
pub struct GroupSpec {
    /// Label for ground-truth bookkeeping.
    pub name: &'static str,
    /// Tool whose crafter these scanners run.
    pub tool: ToolKind,
    /// Share of the year's (non-institutional) campaigns.
    pub scan_share: f64,
    /// Share of the year's (non-institutional) telescope packets.
    pub packet_share: f64,
    /// Scanner-class mix of the sources.
    pub class_mix: &'static [(ScannerClass, f64)],
    /// Use the per-tool country bias table when available.
    pub country_biased: bool,
    /// Pin every scanner of this group to one origin country (overrides the
    /// bias tables) — used for the §5.4 single-country port-dominance
    /// populations.
    pub country_override: Option<Country>,
    /// The ports this population draws scan targets from, with weights.
    pub port_pool: Vec<(u16, f64)>,
    /// Distribution of distinct ports per scan: `(n_ports, probability)`.
    pub ports_per_scan: &'static [(u32, f64)],
    /// Median Internet-wide rate (pps) and log-sigma.
    pub rate_median_pps: f64,
    /// Log-space sigma of the rate distribution.
    pub rate_sigma: f64,
    /// Target-selection order.
    pub order: TargetOrder,
}

/// A vulnerability-disclosure event (Figure 1).
#[derive(Debug, Clone, Copy)]
pub struct DisclosureEvent {
    /// The affected port.
    pub port: u16,
    /// Day (within the window) the disclosure lands.
    pub day: u32,
    /// Peak surge: multiple of the port's baseline daily traffic.
    pub magnitude: f64,
    /// Exponential decay constant in days (§4.3: weeks at most).
    pub decay_days: f64,
}

/// The full specification of one year.
#[derive(Debug, Clone)]
pub struct YearConfig {
    /// Calendar year.
    pub year: u16,
    /// Telescope packets/day at FULL telescope scale (Table 1 row 1).
    pub packets_per_day_full: f64,
    /// Campaigns per month at full scale (Table 1 "Scans/month").
    pub scans_per_month_full: f64,
    /// Share of telescope packets sent by institutional (known-org)
    /// scanners. Table 2 reports 32.63% over the decade; the share grows
    /// over the years as Censys-style scanning industrializes (§6.8,
    /// appendix: >50% of traffic by 2023/24).
    pub institutional_packet_share: f64,
    /// Share of the year's campaigns that are institutional (Table 2:
    /// 7.45% over the decade, growing as scanning industrializes).
    pub institutional_scan_share: f64,
    /// Whether known orgs still ship fingerprintable (marked) ZMap
    /// (§6 intro: no longer true in 2023/24).
    pub orgs_use_marked_zmap: bool,
    /// The non-institutional populations.
    pub groups: Vec<GroupSpec>,
    /// Disclosure events in the window.
    pub events: Vec<DisclosureEvent>,
    /// Vertical scanners: `(count_full_scale, ports_targeted)` — §5.2.
    pub vertical_scans_full: &'static [(f64, u32)],
}

/// The standard port-popularity pool of a year (Table 1 "top ports by
/// packets" plus a heavy tail). `flatness` adds weight spread over the whole
/// port range (later years: §5.1 blanket coverage).
fn port_pool(named: &[(u16, f64)], tail_ports: &[u16], flatness: f64) -> Vec<(u16, f64)> {
    let mut pool: Vec<(u16, f64)> = named.to_vec();
    let tail_each = flatness / tail_ports.len().max(1) as f64;
    for &p in tail_ports {
        pool.push((p, tail_each));
    }
    pool
}

/// A spread of lesser-known ports for the tails (aliases, IoT, databases,
/// plus arbitrary high ports — the §5.1 diversification).
const TAIL_PORTS: &[u16] = &[
    21, 25, 81, 110, 143, 465, 587, 993, 995, 1023, 1433, 1443, 1521, 2000, 2222, 2323, 3306, 3307,
    3390, 4443, 5060, 5353, 5432, 5555, 5900, 5901, 6379, 6667, 7547, 7574, 8000, 8081, 8088, 8443,
    8545, 8888, 9000, 9200, 10073, 11211, 20012, 22555, 23231, 27017, 33060, 37777, 49152, 50070,
    52869, 60023, 64738,
];

/// §5.1 alias affinity: the probability that a multi-port scan's second
/// port is the protocol alias of its first (80→8080, 22→2222, ...). The
/// paper reports 18% of port-80 scans also covering 8080 in 2015, rising to
/// 87% by 2020 and plateauing.
pub(crate) fn family_affinity(year: u16) -> f64 {
    match year {
        0..=2015 => 0.18,
        2016 => 0.32,
        2017 => 0.45,
        2018 => 0.60,
        2019 => 0.75,
        _ => 0.87,
    }
}

/// Ports Mirai-family strains propagate on, per year (§6.2: Telnet first,
/// then nearly everything).
fn mirai_strain_ports(year: u16) -> Vec<(u16, f64)> {
    match year {
        0..=2017 => vec![
            (23, 0.6),
            (2323, 0.2),
            (5358, 0.08),
            (7574, 0.07),
            (6789, 0.05),
        ],
        2018 => vec![(2323, 0.3), (8291, 0.3), (23, 0.2), (80, 0.1), (7547, 0.1)],
        2019..=2022 => vec![
            (80, 0.25),
            (8080, 0.22),
            (5555, 0.15),
            (81, 0.12),
            (8443, 0.08),
            (2323, 0.08),
            (23, 0.06),
            (60023, 0.04),
        ],
        2023 => vec![
            (2323, 0.3),
            (60023, 0.25),
            (52869, 0.25),
            (8080, 0.1),
            (80, 0.1),
        ],
        _ => vec![
            (2323, 0.3),
            (5900, 0.25),
            (80, 0.2),
            (8080, 0.15),
            (443, 0.1),
        ],
    }
}

// Ports-per-scan distributions: the Figure 3 trend. In 2015, 83% of
// scanners touch exactly one port; by 2022 only 65%; by 2024 15% of scans
// exceed 10 ports (§5.1).
const PPS_2015: &[(u32, f64)] = &[(1, 0.86), (2, 0.09), (3, 0.03), (5, 0.02)];
const PPS_2018: &[(u32, f64)] = &[(1, 0.80), (2, 0.11), (3, 0.05), (5, 0.03), (8, 0.01)];
const PPS_2020: &[(u32, f64)] = &[(1, 0.74), (2, 0.12), (3, 0.07), (5, 0.04), (10, 0.03)];
const PPS_2022: &[(u32, f64)] = &[
    (1, 0.65),
    (2, 0.14),
    (3, 0.09),
    (5, 0.06),
    (10, 0.04),
    (20, 0.02),
];
const PPS_2024: &[(u32, f64)] = &[
    (1, 0.55),
    (2, 0.13),
    (3, 0.09),
    (5, 0.08),
    (12, 0.09),
    (30, 0.04),
    (120, 0.02),
];

// Class mixes (Table 2 shapes): botnets live in residential space; the
// stock-tool users sit in hosting/enterprise; customs spread widest.
const MIX_BOTNET: &[(ScannerClass, f64)] = &[
    (ScannerClass::Residential, 0.85),
    (ScannerClass::Unknown, 0.15),
];
const MIX_CUSTOM: &[(ScannerClass, f64)] = &[
    (ScannerClass::Residential, 0.45),
    (ScannerClass::Unknown, 0.35),
    (ScannerClass::Enterprise, 0.12),
    (ScannerClass::Hosting, 0.08),
];
const MIX_STOCK: &[(ScannerClass, f64)] = &[
    (ScannerClass::Hosting, 0.45),
    (ScannerClass::Unknown, 0.25),
    (ScannerClass::Enterprise, 0.20),
    (ScannerClass::Residential, 0.10),
];
const MIX_ENTERPRISE_HEAVY: &[(ScannerClass, f64)] = &[
    (ScannerClass::Enterprise, 0.6),
    (ScannerClass::Hosting, 0.25),
    (ScannerClass::Unknown, 0.15),
];

impl YearConfig {
    /// The calibrated configuration for one year of 2015–2024.
    pub fn for_year(year: u16) -> YearConfig {
        // Table 1, row "Packets/day" and "Scans/month".
        let (ppd, spm): (f64, f64) = match year {
            2015 => (11e6, 33e3),
            2016 => (19e6, 38e3),
            2017 => (45e6, 252e3),
            2018 => (133e6, 137e3),
            2019 => (117e6, 238e3),
            2020 => (283e6, 222e3),
            2021 => (281e6, 290e3),
            2022 => (285e6, 777e3),
            2023 => (402e6, 727e3),
            _ => (345e6, 1.3e6),
        };
        // Table 1, block "Tools by scans" (shares of campaigns).
        // (masscan, nmap, mirai, zmap) — remainder is custom tooling.
        let (mas_s, nmap_s, mir_s, zmap_s): (f64, f64, f64, f64) = match year {
            2015 => (0.005, 0.317, 0.0, 0.021),
            2016 => (0.015, 0.128, 0.0, 0.091),
            2017 => (0.007, 0.026, 0.465, 0.011),
            2018 => (0.209, 0.032, 0.192, 0.047),
            2019 => (0.219, 0.036, 0.162, 0.027),
            2020 => (0.205, 0.050, 0.149, 0.131),
            2021 => (0.251, 0.068, 0.024, 0.092),
            2022 => (0.099, 0.023, 0.010, 0.037),
            2023 => (0.002, 0.0001, 0.39, 0.22),
            _ => (0.002, 0.0001, 0.053, 0.59),
        };
        // §6.1 traffic shares: tracked tools carry 25% of packets in 2015,
        // 92% in 2020 (masscan 81%), >95% in 2022, <40% in 2024.
        let (mas_p, nmap_p, mir_p, zmap_p): (f64, f64, f64, f64) = match year {
            2015 => (0.01, 0.17, 0.0, 0.05),
            2016 => (0.05, 0.14, 0.0, 0.12),
            2017 => (0.08, 0.05, 0.42, 0.05),
            2018 => (0.40, 0.04, 0.18, 0.06),
            2019 => (0.45, 0.04, 0.12, 0.05),
            2020 => (0.81, 0.005, 0.033, 0.069),
            2021 => (0.72, 0.01, 0.009, 0.08),
            2022 => (0.78, 0.01, 0.008, 0.10),
            2023 => (0.30, 0.002, 0.06, 0.18),
            _ => (0.12, 0.001, 0.03, 0.10),
        };
        // Institutional share of telescope packets; Table 2 decade mean is
        // 32.63%, appendix reports >50% of traffic by 2023/24.
        let inst_share: f64 = match year {
            2015 => 0.05,
            2016 => 0.07,
            2017 => 0.08,
            2018 => 0.12,
            2019 => 0.18,
            2020 => 0.25,
            2021 => 0.30,
            2022 => 0.38,
            2023 => 0.51,
            _ => 0.50,
        };

        // Table 1 "top ports by packets" per year (named head of the pool).
        let named: &[(u16, f64)] = match year {
            2015 => &[
                (22, 0.15),
                (8080, 0.087),
                (3389, 0.071),
                (80, 0.07),
                (443, 0.06),
                (10073, 0.04),
                (22555, 0.02),
            ],
            2016 => &[
                (22, 0.082),
                (80, 0.06),
                (3389, 0.045),
                (1433, 0.035),
                (8080, 0.023),
                (21, 0.02),
                (20012, 0.015),
            ],
            2017 => &[
                (5358, 0.144),
                (7574, 0.121),
                (22, 0.112),
                (2323, 0.092),
                (6789, 0.062),
                (7547, 0.05),
                (23231, 0.03),
            ],
            2018 => &[
                (22, 0.031),
                (8545, 0.014),
                (3389, 0.011),
                (80, 0.010),
                (8080, 0.009),
                (8291, 0.02),
                (21, 0.008),
            ],
            2019 => &[
                (22, 0.029),
                (80, 0.020),
                (8080, 0.018),
                (81, 0.017),
                (3389, 0.016),
                (5555, 0.012),
                (5900, 0.008),
            ],
            2020 => &[
                (80, 0.010),
                (3389, 0.026),
                (81, 0.009),
                (22, 0.008),
                (8080, 0.008),
                (5555, 0.007),
                (2323, 0.006),
            ],
            2021 => &[
                (6379, 0.014),
                (22, 0.013),
                (80, 0.011),
                (3389, 0.008),
                (8080, 0.008),
                (81, 0.006),
                (8443, 0.005),
            ],
            2022 => &[
                (22, 0.027),
                (80, 0.014),
                (443, 0.013),
                (2375, 0.013),
                (2376, 0.012),
                (8080, 0.01),
                (5555, 0.008),
            ],
            2023 => &[
                (22, 0.018),
                (8080, 0.015),
                (80, 0.015),
                (3389, 0.013),
                (443, 0.011),
                (52869, 0.008),
                (60023, 0.007),
            ],
            _ => &[
                (3389, 0.022),
                (22, 0.018),
                (80, 0.015),
                (443, 0.012),
                (8080, 0.012),
                (5900, 0.008),
                (2323, 0.006),
            ],
        };
        // Tail flatness: the share of traffic spread across the long tail
        // grows as scanning blankets the port space (§5.1).
        let flatness = match year {
            2015..=2016 => 0.3,
            2017..=2019 => 0.45,
            2020..=2021 => 0.6,
            _ => 0.75,
        };
        let pool = port_pool(named, TAIL_PORTS, flatness);

        let pps: &[(u32, f64)] = match year {
            0..=2016 => PPS_2015,
            2017..=2018 => PPS_2018,
            2019..=2020 => PPS_2020,
            2021..=2022 => PPS_2022,
            _ => PPS_2024,
        };

        let custom_s = (1.0 - mas_s - nmap_s - mir_s - zmap_s).max(0.0);
        let custom_p = (1.0 - mas_p - nmap_p - mir_p - zmap_p).max(0.0);

        let mut groups = vec![
            GroupSpec {
                name: "masscan-users",
                tool: ToolKind::Masscan,
                scan_share: mas_s,
                packet_share: mas_p,
                class_mix: MIX_STOCK,
                country_biased: true,
                country_override: None,
                port_pool: pool.clone(),
                ports_per_scan: pps,
                rate_median_pps: 8000.0,
                rate_sigma: 1.6,
                order: TargetOrder::BlackRock,
            },
            GroupSpec {
                name: "nmap-users",
                tool: ToolKind::Nmap,
                scan_share: nmap_s,
                packet_share: nmap_p,
                class_mix: MIX_STOCK,
                country_biased: true,
                country_override: None,
                port_pool: pool.clone(),
                ports_per_scan: pps,
                // §6.3: NMap sources, surprisingly, realize faster average
                // rates than Masscan sources — and trend slightly upward.
                rate_median_pps: 9000.0 + 250.0 * f64::from(year.saturating_sub(2015)),
                rate_sigma: 1.2,
                order: TargetOrder::Sequential,
            },
            GroupSpec {
                name: "mirai-family",
                tool: ToolKind::Mirai,
                scan_share: mir_s,
                packet_share: mir_p,
                class_mix: MIX_BOTNET,
                country_biased: false,
                country_override: None,
                port_pool: mirai_strain_ports(year),
                // Botnet strains scan a couple of ports at once; from 2019
                // the strains routinely pair 80 with 8080 etc. (§5.1).
                ports_per_scan: if year >= 2019 {
                    &[(2, 0.45), (3, 0.3), (1, 0.25)]
                } else {
                    &[(1, 0.55), (2, 0.3), (3, 0.15)]
                },
                // Embedded devices: the slowest population (§6.3).
                rate_median_pps: 700.0,
                rate_sigma: 0.9,
                order: TargetOrder::UniformRandom,
            },
            GroupSpec {
                name: "zmap-users",
                tool: ToolKind::Zmap,
                scan_share: zmap_s,
                packet_share: zmap_p,
                class_mix: MIX_STOCK,
                country_biased: true,
                country_override: None,
                port_pool: pool.clone(),
                ports_per_scan: pps,
                // The fastest tool on average; few exceed 1 Gbps (§6.3).
                rate_median_pps: 20_000.0,
                rate_sigma: 1.8,
                order: TargetOrder::CyclicGroup,
            },
            GroupSpec {
                name: "custom-tools",
                tool: ToolKind::Custom,
                scan_share: custom_s,
                packet_share: custom_p,
                class_mix: MIX_CUSTOM,
                country_biased: false,
                country_override: None,
                port_pool: pool,
                ports_per_scan: pps,
                rate_median_pps: 3000.0,
                rate_sigma: 1.4,
                order: TargetOrder::Sequential,
            },
        ];
        // §5.4: "China has originated more than 80% of all scanning traffic
        // on 14,444 unique ports" (2022) — a bulk multi-port population
        // scanning wide mid-tail port sets from Chinese hosting space.
        if year >= 2019 {
            groups.push(GroupSpec {
                name: "bulk-multiport-cn",
                tool: ToolKind::Masscan,
                scan_share: 0.02,
                packet_share: 0.05,
                class_mix: &[(ScannerClass::Hosting, 0.8), (ScannerClass::Unknown, 0.2)],
                country_biased: false,
                country_override: Some(Country::China),
                // A wide spread of mid-tail ports, disjoint from the popular
                // heads the rest of the ecosystem fights over.
                port_pool: (0..400u16).map(|i| (10_000 + i * 37, 1.0)).collect(),
                ports_per_scan: &[(30, 0.4), (60, 0.35), (120, 0.25)],
                rate_median_pps: 30_000.0,
                rate_sigma: 1.0,
                order: TargetOrder::BlackRock,
            });
        }

        // §6.7: port 8545 (Ethereum JSON-RPC) is disproportionally scanned
        // from enterprise space (FPT). Present from 2018 on.
        if year >= 2018 {
            groups.push(GroupSpec {
                name: "jsonrpc-enterprise",
                tool: ToolKind::Custom,
                scan_share: 0.01,
                packet_share: 0.01,
                class_mix: MIX_ENTERPRISE_HEAVY,
                country_biased: false,
                country_override: None,
                port_pool: vec![(8545, 1.0)],
                ports_per_scan: &[(1, 1.0)],
                rate_median_pps: 12_000.0,
                rate_sigma: 1.0,
                order: TargetOrder::BlackRock,
            });
        }

        // Figure 1 events: one major disclosure per year on a fresh port.
        let events = match year {
            2015 => vec![DisclosureEvent {
                port: 10073,
                day: 2,
                magnitude: 25.0,
                decay_days: 2.0,
            }],
            2016 => vec![DisclosureEvent {
                port: 20012,
                day: 2,
                magnitude: 20.0,
                decay_days: 1.5,
            }],
            2017 => vec![DisclosureEvent {
                port: 7547,
                day: 1,
                magnitude: 30.0,
                decay_days: 2.0,
            }],
            2018 => vec![DisclosureEvent {
                port: 8291,
                day: 2,
                magnitude: 35.0,
                decay_days: 2.5,
            }],
            2019 => vec![DisclosureEvent {
                port: 5555,
                day: 2,
                magnitude: 18.0,
                decay_days: 1.5,
            }],
            2020 => vec![DisclosureEvent {
                port: 9200,
                day: 2,
                magnitude: 22.0,
                decay_days: 2.0,
            }],
            2021 => vec![DisclosureEvent {
                port: 6379,
                day: 1,
                magnitude: 24.0,
                decay_days: 2.0,
            }],
            2022 => vec![DisclosureEvent {
                port: 2375,
                day: 2,
                magnitude: 28.0,
                decay_days: 2.0,
            }],
            2023 => vec![DisclosureEvent {
                port: 52869,
                day: 2,
                magnitude: 20.0,
                decay_days: 1.5,
            }],
            _ => vec![DisclosureEvent {
                port: 5900,
                day: 2,
                magnitude: 26.0,
                decay_days: 2.0,
            }],
        };

        // §5.2 vertical scans at full scale per window:
        // (count, ports targeted). 2015: a single >10k-port scan; 2020:
        // 2,134; 2022: rare again (20 over 10k, 406 over 1k).
        let vertical: &'static [(f64, u32)] = match year {
            2015 => &[(1.0, 12_000)],
            2016 => &[(4.0, 11_000), (20.0, 1_500)],
            2017 => &[(12.0, 12_000), (60.0, 1_500)],
            2018 => &[(60.0, 14_000), (150.0, 2_000)],
            2019 => &[(400.0, 16_000), (300.0, 2_500)],
            2020 => &[(2_134.0, 20_000), (500.0, 3_000), (1.0, 54_501)],
            2021 => &[(800.0, 15_000), (400.0, 2_500)],
            2022 => &[(20.0, 12_000), (406.0, 1_800)],
            2023 => &[(120.0, 14_000), (500.0, 2_200)],
            _ => &[(200.0, 15_000), (700.0, 2_500)],
        };

        // Table 2 reports institutional sources at 7.45% of campaigns over
        // the decade; the share grows with the industry.
        let inst_scan_share = match year {
            2015..=2016 => 0.04,
            2017..=2019 => 0.05,
            2020..=2021 => 0.07,
            _ => 0.09,
        };

        YearConfig {
            year,
            packets_per_day_full: ppd,
            scans_per_month_full: spm,
            institutional_packet_share: inst_share,
            institutional_scan_share: inst_scan_share,
            orgs_use_marked_zmap: year <= 2022,
            groups,
            events,
            vertical_scans_full: vertical,
        }
    }

    /// All ten study years.
    pub fn decade() -> Vec<YearConfig> {
        (2015..=2024).map(Self::for_year).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decade_covers_2015_to_2024() {
        let configs = YearConfig::decade();
        assert_eq!(configs.len(), 10);
        assert_eq!(configs[0].year, 2015);
        assert_eq!(configs[9].year, 2024);
    }

    #[test]
    fn scan_shares_sum_to_at_most_one() {
        for cfg in YearConfig::decade() {
            // The custom group absorbs the untracked remainder; the small
            // special-purpose populations (JSON-RPC, CN bulk) sit on top,
            // so shares may exceed 1 by their combined ~4%.
            let total: f64 = cfg.groups.iter().map(|g| g.scan_share).sum();
            assert!(total <= 1.05, "year {}: {total}", cfg.year);
            assert!(total > 0.9, "year {}: {total}", cfg.year);
            let packets: f64 = cfg.groups.iter().map(|g| g.packet_share).sum();
            assert!(
                packets <= 1.08 && packets > 0.9,
                "year {}: {packets}",
                cfg.year
            );
        }
    }

    #[test]
    fn headline_calibration_points() {
        let c2015 = YearConfig::for_year(2015);
        let c2024 = YearConfig::for_year(2024);
        // 30-fold traffic growth, 39-fold scan growth.
        assert!((c2024.packets_per_day_full / c2015.packets_per_day_full - 31.4).abs() < 1.0);
        assert!((c2024.scans_per_month_full / c2015.scans_per_month_full - 39.4).abs() < 1.0);
    }

    #[test]
    fn mirai_absent_before_2017() {
        for year in [2015u16, 2016] {
            let cfg = YearConfig::for_year(year);
            let mirai = cfg
                .groups
                .iter()
                .find(|g| g.tool == ToolKind::Mirai)
                .unwrap();
            assert_eq!(mirai.scan_share, 0.0, "year {year}");
        }
        let c2017 = YearConfig::for_year(2017);
        let mirai = c2017
            .groups
            .iter()
            .find(|g| g.tool == ToolKind::Mirai)
            .unwrap();
        assert!(mirai.scan_share > 0.4, "2017 is Mirai's peak");
    }

    #[test]
    fn masscan_dominates_2020_traffic() {
        let cfg = YearConfig::for_year(2020);
        let masscan = cfg
            .groups
            .iter()
            .find(|g| g.tool == ToolKind::Masscan)
            .unwrap();
        assert!((masscan.packet_share - 0.81).abs() < 1e-9);
    }

    #[test]
    fn orgs_drop_the_zmap_mark_after_2022() {
        assert!(YearConfig::for_year(2022).orgs_use_marked_zmap);
        assert!(!YearConfig::for_year(2023).orgs_use_marked_zmap);
        assert!(!YearConfig::for_year(2024).orgs_use_marked_zmap);
    }

    #[test]
    fn port_pools_are_normalizable() {
        for cfg in YearConfig::decade() {
            for group in &cfg.groups {
                let total: f64 = group.port_pool.iter().map(|(_, w)| w).sum();
                assert!(total > 0.0, "{} {}", cfg.year, group.name);
                assert!(group.port_pool.iter().all(|(_, w)| *w >= 0.0));
                let pps_total: f64 = group.ports_per_scan.iter().map(|(_, p)| p).sum();
                assert!((pps_total - 1.0).abs() < 0.01, "{}", group.name);
            }
        }
    }

    #[test]
    fn vertical_scans_grow_then_shrink() {
        let v2015: f64 = YearConfig::for_year(2015)
            .vertical_scans_full
            .iter()
            .filter(|(_, p)| *p > 10_000)
            .map(|(c, _)| c)
            .sum();
        let v2020: f64 = YearConfig::for_year(2020)
            .vertical_scans_full
            .iter()
            .filter(|(_, p)| *p > 10_000)
            .map(|(c, _)| c)
            .sum();
        let v2022: f64 = YearConfig::for_year(2022)
            .vertical_scans_full
            .iter()
            .filter(|(_, p)| *p > 10_000)
            .map(|(c, _)| c)
            .sum();
        assert_eq!(v2015, 1.0);
        assert!(v2020 > 2000.0);
        assert!(v2022 < 50.0);
    }

    #[test]
    fn family_affinity_rises_and_plateaus() {
        // §5.1: 18% (2015) -> 87% (2020), flat afterwards.
        assert!((family_affinity(2015) - 0.18).abs() < 1e-9);
        assert!((family_affinity(2020) - 0.87).abs() < 1e-9);
        assert_eq!(family_affinity(2020), family_affinity(2024));
        for pair in (2015..=2020).collect::<Vec<_>>().windows(2) {
            assert!(family_affinity(pair[1]) >= family_affinity(pair[0]));
        }
    }

    #[test]
    fn chinese_bulk_population_exists_from_2019() {
        assert!(!YearConfig::for_year(2018)
            .groups
            .iter()
            .any(|g| g.name == "bulk-multiport-cn"));
        let cfg = YearConfig::for_year(2022);
        let bulk = cfg
            .groups
            .iter()
            .find(|g| g.name == "bulk-multiport-cn")
            .expect("present from 2019");
        assert_eq!(
            bulk.country_override,
            Some(synscan_netmodel::Country::China)
        );
        assert!(bulk.port_pool.len() > 100, "a wide mid-tail port set");
        // All its ports are >= 10,000 (disjoint from the popular heads).
        assert!(bulk.port_pool.iter().all(|(p, _)| *p >= 10_000));
    }

    #[test]
    fn institutional_share_grows_to_half() {
        let shares: Vec<f64> = YearConfig::decade()
            .iter()
            .map(|c| c.institutional_packet_share)
            .collect();
        assert!(shares.windows(2).take(8).all(|w| w[1] >= w[0]));
        assert!(shares[8] > 0.5);
    }
}
