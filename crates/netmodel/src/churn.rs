//! Residential DHCP churn model.
//!
//! §4.2 of the paper: *"botnet infections are often in residential network
//! spaces where DHCP churn is more likely to occur, inflating the number of
//! sources measured in studies"* (Böck et al., Griffioen & Doerr). The model
//! here lets the synthesizer re-address a long-lived residential scanner
//! identity across multiple IPs, and the recurrence analysis (§6.6) observe
//! the resulting non-persistence of residential sources.

use synscan_stats::Rng;

use synscan_wire::Ipv4Address;

/// Lease-rotation model: a device identity holds an IP for an exponentially
/// distributed lease, then jumps to another address in the same /16 (ISPs
/// re-assign within their pools).
#[derive(Debug, Clone, Copy)]
pub struct ChurnModel {
    /// Mean lease duration in seconds (residential DSL/cable: ~1–7 days).
    pub mean_lease_secs: f64,
}

impl Default for ChurnModel {
    fn default() -> Self {
        // 2-day mean lease: aggressive but within reported ISP behaviour,
        // and the regime where churn visibly inflates source counts.
        Self {
            mean_lease_secs: 2.0 * 86_400.0,
        }
    }
}

impl ChurnModel {
    /// The next address after a lease expires: a uniformly random host in
    /// the same /16 pool.
    pub fn rotate(&self, rng: &mut Rng, current: Ipv4Address) -> Ipv4Address {
        let block = (current.0 >> 16) << 16;
        let low: u32 = rng.range(1..65_535);
        Ipv4Address(block | low)
    }

    /// Expected number of distinct IPs a device shows over `duration_secs`:
    /// `1 + duration / mean_lease` (renewals are a Poisson process).
    pub fn expected_identities(&self, duration_secs: f64) -> f64 {
        1.0 + duration_secs / self.mean_lease_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_stays_in_the_slash16() {
        let m = ChurnModel::default();
        let mut rng = Rng::seed_from_u64(2);
        let start = Ipv4Address::new(83, 41, 7, 9);
        let mut current = start;
        let mut changed = false;
        for _ in 0..100 {
            let next = m.rotate(&mut rng, current);
            assert_eq!(next.slash16(), start.slash16());
            changed |= next != current;
            current = next;
        }
        assert!(changed, "rotation must actually move the address");
    }

    #[test]
    fn expected_identities_grows_with_observation_window() {
        let m = ChurnModel {
            mean_lease_secs: 86_400.0, // 1-day lease
        };
        assert!((m.expected_identities(0.0) - 1.0).abs() < 1e-12);
        assert!((m.expected_identities(7.0 * 86_400.0) - 8.0).abs() < 1e-9);
    }
}
