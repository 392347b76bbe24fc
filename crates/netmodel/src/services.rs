//! A synthetic open-port census.
//!
//! §5.1 of the paper runs "a complete vertical scan against a random sample
//! of 100,000 IP addresses" and compares the distribution of *open* ports
//! against scanning intensities, finding **no relation** (R = 0.047):
//! scanners do not target the ports where most services actually live.
//!
//! We cannot run that scan, so this module synthesizes the census: a
//! service-deployment model in which open-port popularity follows actual
//! hosting practice (HTTPS/HTTP/SSH/mail dominate, cf. Izhikevich et al.'s
//! LZR: only 3.0% of HTTP services sit on port 80) — a distribution that is
//! *deliberately different* from scanning-intensity distributions, so the
//! paper's no-correlation finding has the same cause here as there: what is
//! deployed and what is scanned are driven by different incentives.

use std::collections::BTreeMap;
use synscan_stats::Rng;

/// Relative deployment frequency of services on their ports, modeled on
/// public census data (HTTPS ubiquitous; web-alt ports common; databases
/// rare on the open Internet; Telnet nearly extinct by the 2020s).
const DEPLOYMENT: &[(u16, f64)] = &[
    (443, 0.30),
    (80, 0.22),
    (22, 0.11),
    (25, 0.05),
    (8080, 0.04),
    (8443, 0.035),
    (21, 0.03),
    (993, 0.025),
    (995, 0.02),
    (587, 0.02),
    (110, 0.015),
    (143, 0.015),
    (3306, 0.012),
    (53, 0.012),
    (8000, 0.01),
    (8888, 0.008),
    (5432, 0.006),
    (3389, 0.006),
    (123, 0.005),
    (1723, 0.004),
    (5900, 0.004),
    (445, 0.004),
    (23, 0.002),
    (2323, 0.0005),
    (6379, 0.0008),
    (27017, 0.0006),
    (9200, 0.0005),
    (11211, 0.0004),
];

/// The result of a synthetic vertical census over `hosts` addresses.
#[derive(Debug, Clone, PartialEq)]
pub struct PortCensus {
    /// Number of addresses probed.
    pub hosts: u64,
    /// Open-service count per port.
    pub open_ports: BTreeMap<u16, u64>,
}

impl PortCensus {
    /// Run the synthetic census: each host exposes 0..n services drawn from
    /// the deployment distribution (mean ≈ 1.2 exposed services per
    /// responsive host, ~70% of hosts silent — typical census yields).
    pub fn synthesize(seed: u64, hosts: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed ^ 0x00ce_0505_u64);
        let total_weight: f64 = DEPLOYMENT.iter().map(|(_, w)| w).sum();
        let mut open_ports: BTreeMap<u16, u64> = BTreeMap::new();
        for _ in 0..hosts {
            if rng.chance(0.70) {
                continue; // unresponsive / fully filtered host
            }
            // 1..=3 services, geometric-ish.
            let services = 1 + u32::from(rng.chance(0.25)) + u32::from(rng.chance(0.06));
            for _ in 0..services {
                let mut pick = rng.f64() * total_weight;
                for &(port, weight) in DEPLOYMENT {
                    pick -= weight;
                    if pick <= 0.0 {
                        *open_ports.entry(port).or_default() += 1;
                        break;
                    }
                }
            }
        }
        Self { hosts, open_ports }
    }

    /// Open-service count for a port (0 when never seen).
    pub fn open_count(&self, port: u16) -> u64 {
        self.open_ports.get(&port).copied().unwrap_or(0)
    }

    /// Total services found.
    pub fn total_services(&self) -> u64 {
        self.open_ports.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_is_deterministic_and_sized() {
        let a = PortCensus::synthesize(1, 100_000);
        let b = PortCensus::synthesize(1, 100_000);
        assert_eq!(a, b);
        assert_eq!(a.hosts, 100_000);
        // ~30% responsive × ~1.3 services.
        let total = a.total_services() as f64;
        assert!(total > 30_000.0 && total < 50_000.0, "total {total}");
    }

    #[test]
    fn https_dominates_deployment() {
        let census = PortCensus::synthesize(2, 200_000);
        let https = census.open_count(443);
        assert!(https > census.open_count(22));
        assert!(https > census.open_count(8080));
        assert!(https as f64 / census.total_services() as f64 > 0.2);
    }

    #[test]
    fn telnet_is_nearly_extinct() {
        let census = PortCensus::synthesize(3, 200_000);
        let telnet = census.open_count(23) as f64;
        let https = census.open_count(443) as f64;
        assert!(telnet < https / 50.0, "telnet {telnet} vs https {https}");
    }

    #[test]
    fn unlisted_ports_have_no_services() {
        let census = PortCensus::synthesize(4, 10_000);
        assert_eq!(census.open_count(31337), 0);
    }
}
